import hashlib
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import spikecl.data as data_mod
from spikecl.data import (
    DEFAULT_SPLIT_PAIRS,
    DriftSpec,
    EncoderSpec,
    IDX_MAGIC_IMAGES,
    IDX_MAGIC_LABELS,
    IdxFile,
    build_split_stream,
    build_synthetic_drift,
    encode_batch,
    generate_digit_corpus,
    load_idx,
    load_idx_pair,
)
from spikecl.errors import ConfigurationError, ContractViolation, FormatError, SpikeclError
from spikecl.rng import RngStream
from oracles import (
    balanced_subset_oracle,
    corpus_to_idx,
    encode,
    export_drift_csv,
    serialize_idx,
    write_idx,
)


def make_image_bytes(count, rows, cols, pixels):
    return struct.pack(">IIII", 0x00000803, count, rows, cols) + bytes(pixels)


def make_label_bytes(labels):
    return struct.pack(">II", 0x00000801, len(labels)) + bytes(labels)


class TestIdx:
    def test_hand_built_image_file(self, tmp_path):
        # 16-byte header + 4 pixels, values chosen by hand
        path = tmp_path / "img"
        path.write_bytes(make_image_bytes(1, 2, 2, [0, 128, 200, 255]))
        idx = load_idx(path)
        assert idx.magic == 0x00000803
        assert idx.dims == (1, 2, 2)
        assert idx.data.tolist() == [0, 128, 200, 255]

    def test_pair_scaling(self, tmp_path):
        img, lab = tmp_path / "img", tmp_path / "lab"
        img.write_bytes(make_image_bytes(1, 2, 2, [0, 128, 200, 255]))
        lab.write_bytes(make_label_bytes([7]))
        x, y = load_idx_pair(img, lab)
        assert x.dtype == np.uint8 and x.tolist() == [[0, 128, 200, 255]]
        # the encoder turns the codes into the intensities code / 255
        spec = EncoderSpec(timesteps=8, max_rate=0.7)
        want = encode_batch(np.array([[0, 128, 200, 255]]) / 255.0, spec, RngStream(1))
        assert encode_batch(x, spec, RngStream(1)).tobytes() == want.tobytes()
        assert y.tolist() == [7]

    def test_count_mismatch(self, tmp_path):
        img, lab = tmp_path / "img", tmp_path / "lab"
        img.write_bytes(make_image_bytes(1, 2, 2, [0] * 4))
        lab.write_bytes(make_label_bytes([1, 2]))
        with pytest.raises(FormatError):
            load_idx_pair(img, lab)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">II", 0xDEADBEEF, 0))
        with pytest.raises(FormatError):
            load_idx(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            load_idx(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc"
        path.write_bytes(make_image_bytes(2, 2, 2, [0] * 4))  # promises 8 pixels
        with pytest.raises(FormatError):
            load_idx(path)

    def test_round_trip_byte_exact(self, tmp_path):
        raw = make_image_bytes(2, 2, 2, list(range(8)))
        path = tmp_path / "img"
        path.write_bytes(raw)
        assert serialize_idx(load_idx(path)) == raw
        out = tmp_path / "copy"
        write_idx(out, load_idx(path))
        assert out.read_bytes() == raw


@st.composite
def idx_bytes(draw):
    """IDX-shaped byte strings: a known or random magic, small or huge dims,
    and a payload that fits them, is cut short or is random."""
    magic = draw(st.sampled_from([IDX_MAGIC_IMAGES, IDX_MAGIC_LABELS]) | st.integers(0, 2**32 - 1))
    n_dims = (magic & 0xFF) if magic in (IDX_MAGIC_IMAGES, IDX_MAGIC_LABELS) else draw(st.integers(0, 4))
    dims = draw(st.lists(st.integers(0, 3) | st.integers(0, 2**32 - 1), min_size=n_dims, max_size=n_dims))
    size = math.prod(dims)
    fitting = st.binary(min_size=size, max_size=size) if size <= 64 else st.nothing()
    payload = draw(fitting | st.binary(max_size=40))
    blob = struct.pack(f">I{len(dims)}I", magic, *dims) + payload
    return blob[: draw(st.integers(0, len(blob)))] if draw(st.booleans()) else blob


@settings(max_examples=150, deadline=None)
@given(images=st.binary(max_size=60) | idx_bytes(), labels=idx_bytes())
@example(  # an empty pair
    images=struct.pack(">IIII", IDX_MAGIC_IMAGES, 0, 28, 28), labels=struct.pack(">II", IDX_MAGIC_LABELS, 0)
)
@example(  # dims whose product is 2**64: an int64 product wraps to 0
    images=struct.pack(">IIII", IDX_MAGIC_IMAGES, 2**22, 2**21, 2**21), labels=struct.pack(">II", IDX_MAGIC_LABELS, 0)
)
def test_idx_readers_parse_or_raise_spikecl_errors(tmp_path_factory, images, labels):
    folder = tmp_path_factory.mktemp("idx")
    img, lab = folder / "img", folder / "lab"
    img.write_bytes(images)
    lab.write_bytes(labels)
    try:
        idx = load_idx(img)
        assert idx.data.size == math.prod(idx.dims)
        x, y = load_idx_pair(img, lab)
    except SpikeclError:
        return
    assert x.shape[0] == y.shape[0] == idx.dims[0]


@pytest.fixture(scope="module")
def corpus():
    return generate_digit_corpus(train_per_class=60, test_per_class=25, seed=123)


class TestSplitStream:

    def test_tasks_hold_the_uint8_codes_of_their_rows(self):
        from spikecl.runner import RunConfig, build_stream

        cfg = RunConfig(corpus_train_per_class=12, corpus_test_per_class=6, train_cap=20, test_cap=None)
        stream = build_stream(cfg)
        corpus_x, corpus_y, test_x, test_y = generate_digit_corpus(12, 6, seed=cfg.data_seed)
        for t in stream.tasks:
            assert t.train_x.dtype == t.test_x.dtype == np.uint8
            assert t.train_x.nbytes == len(t.train_y) * 784 == 20 * 784
            assert t.test_x.nbytes == len(t.test_y) * 784 == 12 * 784
            # the first 10 rows of each class, in corpus order
            rows = np.flatnonzero(np.isin(corpus_y, t.orig_classes))
            keep = np.sort(np.concatenate([rows[corpus_y[rows] == c][:10] for c in t.orig_classes]))
            assert np.array_equal(t.train_x, corpus_x[keep])
            assert np.array_equal(t.test_x, test_x[np.isin(test_y, t.orig_classes)])

    def test_default_pairing_task3_is_4_and_5(self, corpus):
        stream = build_split_stream(*corpus)
        assert stream.tasks[2].orig_classes == (4, 5)

    def test_test_sets_partition_full_test_set(self, corpus):
        _, _, test_x, test_y = corpus
        stream = build_split_stream(*corpus)
        total = sum(len(t.test_y) for t in stream.tasks)
        assert total == len(test_y)
        # disjoint original classes cover all ten digits
        covered = sorted(c for t in stream.tasks for c in t.orig_classes)
        assert covered == list(range(10))

    def test_label_remap(self, corpus):
        # digit 7 lives in task 4 (pair (6,7)) with local label 1
        stream = build_split_stream(*corpus)
        task = stream.tasks[3]
        assert task.orig_classes == (6, 7)
        assert set(task.train_y.tolist()) == {0, 1}

    def test_missing_class_rejected(self, corpus):
        train_x, train_y, test_x, test_y = corpus
        keep = train_y != 4
        with pytest.raises(ConfigurationError):
            build_split_stream(train_x[keep], train_y[keep], test_x, test_y)

    def test_caps_are_balanced(self, corpus):
        stream = build_split_stream(*corpus, train_cap=40, test_cap=20)
        for t in stream.tasks:
            assert len(t.train_y) == 40
            assert np.bincount(t.train_y).tolist() == [20, 20]

    def test_odd_cap_with_a_short_class_fills_from_the_first_unkept_rows(self):
        # cap 9 over 3 classes keeps the first 3 of each, but class 1 has
        # only 2; the one row left over is the first row not yet kept (3)
        y = np.array([0, 0, 0, 0, 2, 2, 2, 2, 1, 1, 0])
        got = data_mod._balanced_subset(y, 9)
        assert got.tolist() == [0, 1, 2, 3, 4, 5, 6, 8, 9]

    @settings(max_examples=200, deadline=None)
    @given(
        y=hnp.arrays(np.int64, st.integers(1, 40), elements=st.integers(0, 3)),
        cap=st.integers(1, 45),
    )
    def test_subset_equals_the_row_by_row_fill(self, y, cap):
        assert data_mod._balanced_subset(y, cap).tolist() == balanced_subset_oracle(y, cap).tolist()

    def test_scenario_invariant_enforced(self, corpus):
        stream = build_split_stream(*corpus)
        assert stream.scenario == "task-incremental"


def _nearest_segment_d2_oracle(a, b, keep):
    """The segment loop the corpus was defined with: (n, P, 2) temporaries
    summed over the coordinate axis, dropped strokes set to inf."""
    pix = data_mod._pixel_grid()  # (P, 2)
    d = b - a  # (n, S, 2)
    length2 = np.maximum((d * d).sum(axis=2), 1e-12)  # (n, S)
    min_d2 = np.full((a.shape[0], pix.shape[0]), np.inf)
    for s in range(d.shape[1]):
        ap = pix[None, :, :] - a[:, None, s, :]
        ds = d[:, None, s, :]
        t = np.clip((ap * ds).sum(axis=2) / length2[:, None, s], 0.0, 1.0)
        diff = ap - t[:, :, None] * ds
        d2 = (diff * diff).sum(axis=2)
        d2[~keep[:, s], :] = np.inf
        np.minimum(min_d2, d2, out=min_d2)
    return min_d2


def _render_digits_oracle(digit: int, n: int, rng: RngStream) -> np.ndarray:
    """The renderer the corpus was defined with, draw for draw. Test-only
    reference for `spikecl.data._render_digits`."""
    segs = data_mod._DIGIT_STROKES[digit]
    a0 = np.array([s[0] for s in segs])  # (S, 2)
    b0 = np.array([s[1] for s in segs])
    angle = (rng.uniform((n,)) - 0.5) * (np.pi / 4.5)
    scale = 0.75 + 0.45 * rng.uniform((n,))
    shear = (rng.uniform((n,)) - 0.5) * 0.4
    shift = (rng.uniform((n, 2)) - 0.5) * 0.18
    rot = np.empty((n, 2, 2))
    rot[:, 0, 0] = np.cos(angle)
    rot[:, 0, 1] = -np.sin(angle)
    rot[:, 1, 0] = np.sin(angle) + shear
    rot[:, 1, 1] = np.cos(angle)
    rot *= scale[:, None, None]
    center = np.array([0.5, 0.5])
    a = np.einsum("sj,nij->nsi", a0 - center, rot) + center + shift[:, None, :]
    b = np.einsum("sj,nij->nsi", b0 - center, rot) + center + shift[:, None, :]

    seg_keep = rng.uniform((n, a.shape[1])) >= 0.06
    n_distract = 2
    da = rng.uniform((n, n_distract, 2)) * 0.84 + 0.08
    db = da + (rng.uniform((n, n_distract, 2)) - 0.5) * 0.3
    d_on = rng.uniform((n, n_distract)) < 0.45
    a = np.concatenate([a, da], axis=1)
    b = np.concatenate([b, db], axis=1)
    keep = np.concatenate([seg_keep, d_on], axis=1)

    dist = np.sqrt(np.minimum(_nearest_segment_d2_oracle(a, b, keep), 4.0))

    thickness = 0.025 + 0.028 * rng.uniform((n,))
    img = np.clip(1.2 - dist / thickness[:, None], 0.0, 1.0)
    img *= (0.6 + 0.4 * rng.uniform((n,)))[:, None]
    img += rng.normal(img.shape) * 0.04
    np.clip(img, 0.0, 1.0, out=img)
    return np.round(img * 255.0) / 255.0


class TestDigitCorpus:
    # Byte equality against the oracle rather than a stored corpus hash:
    # np.sin/np.cos may differ in the last bit between CPUs (SIMD dispatch),
    # so a hash pinned on one machine can fail on another.
    @pytest.mark.parametrize("seed", [90210, 7])
    @pytest.mark.parametrize("digit", range(10))
    def test_renderer_matches_segment_loop_oracle(self, digit, seed):
        got = data_mod._render_digits(digit, 64, RngStream(seed).fork(f"d{digit}"))
        want = _render_digits_oracle(digit, 64, RngStream(seed).fork(f"d{digit}"))
        assert got.dtype == np.uint8
        assert (got / 255.0).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 257])
    def test_renderer_matches_oracle_at_edge_sizes(self, n):
        got = data_mod._render_digits(8, n, RngStream(11))
        want = _render_digits_oracle(8, n, RngStream(11))
        assert got.shape == (n, 784) and got.dtype == np.uint8
        assert (got / 255.0).tobytes() == want.tobytes()

    def test_distance_field_matches_oracle_bit_for_bit(self):
        # the 8-bit quantization hides most last-bit changes, so compare the
        # float field too: random segments, some degenerate (a == b), some
        # rows with every segment dropped
        rng = np.random.default_rng(5)
        a = rng.uniform(-0.2, 1.2, (40, 9, 2))
        b = a + rng.normal(0.0, 0.3, a.shape)
        b[:, 0] = a[:, 0]
        keep = rng.uniform(size=(40, 9)) < 0.7
        keep[:3] = False
        got = data_mod._nearest_segment_d2(a, b, keep)
        want = _nearest_segment_d2_oracle(a, b, keep)
        assert np.isinf(got[:3]).all()
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        segments=st.integers(1, 9),
        reach=st.floats(0.01, 0.5),
    )
    def test_finite_reach_field_is_exact_within_reach(self, seed, n, segments, reach):
        # segments partly or wholly off the canvas, a degenerate one (a == b)
        # and a row that drops every segment
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 2.0, (n, segments, 2))
        b = a + rng.normal(0.0, 0.3, a.shape)
        b[:, 0] = a[:, 0]
        keep = rng.uniform(size=(n, segments)) < 0.7
        keep[0] = False
        got = data_mod._nearest_segment_d2(a, b, keep, reach=reach)
        want = _nearest_segment_d2_oracle(a, b, keep)
        near = want < reach**2
        assert got[near].tobytes() == want[near].tobytes()
        assert (got[~near] >= reach**2).all()
        assert np.isinf(got[0]).all()

    def test_deterministic(self):
        a = generate_digit_corpus(20, 5, seed=9)
        data_mod._CORPUS_CACHE.clear()
        b = generate_digit_corpus(20, 5, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_range_and_classes(self):
        train_x, train_y, test_x, test_y = generate_digit_corpus(12, 4, seed=3)
        assert train_x.dtype == test_x.dtype == np.uint8
        intensity = train_x / 255.0
        assert intensity.min() >= 0.0 and intensity.max() <= 1.0
        assert sorted(np.unique(train_y)) == list(range(10))
        assert len(train_y) == 120 and len(test_y) == 40

    def test_idx_packaging_round_trip(self, tmp_path):
        train_x, train_y, _, _ = generate_digit_corpus(5, 2, seed=4)
        img, lab = corpus_to_idx(train_x / 255.0, train_y)
        write_idx(tmp_path / "img", img)
        write_idx(tmp_path / "lab", lab)
        x, y = load_idx_pair(tmp_path / "img", tmp_path / "lab")
        assert x.dtype == np.uint8
        assert np.array_equal(x, train_x)  # both hold the same 8-bit codes
        assert np.array_equal(y, train_y)

    @pytest.fixture
    def rendered(self, monkeypatch):
        """The digit of every ``_render_digits`` call (one per chunk), from
        an empty cache."""
        log, render = [], data_mod._render_digits

        def spy(digit, n, rng):
            log.append(digit)
            return render(digit, n, rng)

        monkeypatch.setattr(data_mod, "_CORPUS_CACHE", {})
        monkeypatch.setattr(data_mod, "_render_digits", spy)
        return log

    @pytest.mark.parametrize("pairs", [[[0, 1], [2, 3]], [[9, 4], [7, 1]]])
    def test_split_run_renders_only_its_digits_with_the_full_corpus_bytes(self, rendered, pairs):
        from spikecl.runner import RunConfig, build_stream

        cfg = RunConfig(split_pairs=pairs, corpus_train_per_class=14, corpus_test_per_class=6,
                        train_cap=20, test_cap=None, data_seed=31)
        got = build_stream(cfg)
        assert set(rendered) == {d for pair in pairs for d in pair}
        want = build_split_stream(*generate_digit_corpus(14, 6, seed=31),
                                  pairs=[tuple(p) for p in pairs], train_cap=20)
        for g, w in zip(got.tasks, want.tasks, strict=True):
            assert g.orig_classes == w.orig_classes
            for name in ("train_x", "train_y", "test_x", "test_y"):
                a, b = getattr(g, name), getattr(w, name)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    def test_a_returned_corpus_cannot_be_written_into(self):
        first = generate_digit_corpus(20, 5, seed=9)
        kept = [a.copy() for a in first]
        for a in first:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        for a, b in zip(generate_digit_corpus(20, 5, seed=9), kept, strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "train, test, digest",
        [
            (120, 30, "cbaf7d6264541d87482a6f8674dba07aa6ad6b303aca28584a024c1d703652ec"),
            (240, 30, "8059fe684e0b04a426a9c7f4be048641b4706461ccb46b95bc786b03de2b8a47"),
        ],
    )
    def test_corpus_equals_the_float_corpus_it_replaced(self, train, test, digest):
        # sha256 of (train_x, train_y, test_x, test_y) as the corpus was
        # stored before it held uint8 codes: float64 intensities code / 255.
        # These are the benchmark's split-hwc and split-chip corpora. Pinned
        # on x86-64 with numpy 2.4 (np.sin/np.cos may differ in the last bit
        # elsewhere; the oracle tests above do not depend on the machine).
        corpus = generate_digit_corpus(train, test, seed=90210)
        h = hashlib.sha256()
        for x, y in (corpus[:2], corpus[2:]):
            assert x.dtype == np.uint8
            h.update((x / 255.0).tobytes())
            h.update(y.tobytes())
        assert h.hexdigest() == digest


_RENDER_AND_ENCODE = """
import sys
from spikecl.data import EncoderSpec, encode_batch, generate_digit_corpus
from spikecl.rng import RngStream
corpus = generate_digit_corpus(12, 4, seed=90210)
spikes = encode_batch(corpus[0], EncoderSpec(timesteps=10), RngStream(3))
with open(sys.argv[1], "wb") as f:
    for part in (*corpus, spikes):
        f.write(part.tobytes())
"""


def test_corpus_and_encodings_do_not_depend_on_blas_threads(tmp_path):
    # checkpoint bytes may differ between BLAS thread counts (the float
    # path's sums); the data a run trains on must not
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.bin"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", _RENDER_AND_ENCODE, str(out)],
                       env=env, check=True, timeout=120)
        outputs.append(out.read_bytes())
    assert outputs[0] and outputs[0] == outputs[1]


class TestDrift:
    def test_day_count_and_classes(self):
        stream = build_synthetic_drift(DriftSpec(days=4, train_per_day=40, test_per_day=16), seed=5)
        assert len(stream.tasks) == 4
        for t in stream.tasks:
            assert t.orig_classes == tuple(range(8))
            assert sorted(np.unique(np.concatenate([t.train_y, t.test_y]))) == list(range(8))

    def test_zero_drift_days_identical(self):
        spec = DriftSpec(days=3, theta_deg=0.0, p_drop=0.0, train_per_day=30, test_per_day=10)
        stream = build_synthetic_drift(spec, seed=8)
        for t in stream.tasks[1:]:
            assert np.array_equal(t.train_x, stream.tasks[0].train_x)
            assert np.array_equal(t.train_y, stream.tasks[0].train_y)

    def test_deterministic(self):
        spec = DriftSpec(days=3, train_per_day=25, test_per_day=10)
        a = build_synthetic_drift(spec, seed=11)
        b = build_synthetic_drift(spec, seed=11)
        for ta, tb in zip(a.tasks, b.tasks):
            assert np.array_equal(ta.train_x, tb.train_x)

    def test_feature_range(self):
        stream = build_synthetic_drift(DriftSpec(days=2, train_per_day=50, test_per_day=10), seed=2)
        for t in stream.tasks:
            assert t.train_x.min() >= 0.0 and t.train_x.max() <= 1.0

    def test_drift_degrades_day1_linear_probe(self):
        # probe trained on day 1 must degrade more, in expectation, as the
        # per-day rotation angle grows (checked over 10 stream seeds)
        def late_day_probe_acc(theta, seed):
            spec = DriftSpec(days=5, theta_deg=theta, p_drop=0.0,
                             train_per_day=150, test_per_day=80)
            stream = build_synthetic_drift(spec, seed)
            t1 = stream.tasks[0]
            X = np.hstack([t1.train_x, np.ones((len(t1.train_y), 1))])
            Y = np.eye(8)[t1.train_y]
            w, *_ = np.linalg.lstsq(X, Y, rcond=None)
            late = stream.tasks[-1]
            Xt = np.hstack([late.test_x, np.ones((len(late.test_y), 1))])
            return ((Xt @ w).argmax(axis=1) == late.test_y).mean()

        means = []
        for theta in (0.0, 10.0, 25.0):
            means.append(np.mean([late_day_probe_acc(theta, s) for s in range(10)]))
        assert means[0] > means[1] > means[2]

    def test_csv_export(self, tmp_path):
        stream = build_synthetic_drift(DriftSpec(days=2, train_per_day=10, test_per_day=5), seed=1)
        paths = export_drift_csv(stream, tmp_path)
        assert len(paths) == 2
        with open(paths[0]) as f:
            header = f.readline().strip().split(",")
        assert header[-1] == "label" and len(header) == 65


class TestEncode:
    def test_zero_feature_never_spikes(self):
        train = encode(np.zeros(4), EncoderSpec(timesteps=50), RngStream(1))
        assert (train == 0).all()

    def test_full_rate_always_spikes(self):
        spec = EncoderSpec(timesteps=100, max_rate=1.0)
        train = encode(np.ones(3), spec, RngStream(2))
        assert (train == 1.0).all()  # bernoulli p=1 is exact

    def test_half_rate_law_of_large_numbers(self):
        spec = EncoderSpec(timesteps=10000, max_rate=1.0)
        train = encode(np.array([0.5]), spec, RngStream(3))
        assert abs(train.mean() - 0.5) < 0.02

    def test_deterministic_given_stream(self):
        spec = EncoderSpec(timesteps=20)
        f = RngStream(9).uniform((6,))
        a = encode(f, spec, RngStream(5))
        b = encode(f, spec, RngStream(5))
        assert np.array_equal(a, b)

    def test_batch_shape(self):
        spec = EncoderSpec(timesteps=7)
        x = RngStream(4).uniform((5, 3))
        enc = encode_batch(x, spec, RngStream(1))
        assert enc.shape == (5, 7, 3)
        assert np.isin(enc, (0.0, 1.0)).all()

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractViolation):
            encode(np.array([1.5]), EncoderSpec(), RngStream(0))

    def test_nan_features_rejected(self):
        spec = EncoderSpec()
        with pytest.raises(ContractViolation):
            encode(np.array([0.5, np.nan]), spec, RngStream(0))
        batch = RngStream(1).uniform((3, 4))
        batch[1] = np.nan  # an all-NaN row used to encode as silence
        with pytest.raises(ContractViolation):
            encode_batch(batch, spec, RngStream(0))

    def test_batch_draw_is_one_block_over_the_window(self):
        # (B, T, n) spikes from one draw of B*T*n words, row-major
        spec = EncoderSpec(timesteps=6, max_rate=0.8)
        x = RngStream(8).uniform((3, 5))
        p = np.broadcast_to((x * 0.8)[:, None, :], (3, 6, 5))
        stream = RngStream(2)
        enc = encode_batch(x, spec, stream)
        ref = RngStream(2)
        want = ref.bernoulli(np.ascontiguousarray(p), (3, 6, 5)).astype(np.float32)
        assert enc.tobytes() == want.tobytes()
        assert stream._counter == ref._counter == 3 * 6 * 5

    def test_batch_is_float32_with_the_draws_of_bernoulli_on_the_same_fork(self):
        # training's width, so no step casts the batch; float64 draws of
        # the same words give the same 0/1 values
        spec = EncoderSpec(timesteps=6, max_rate=0.8)
        x = (RngStream(8).uniform((4, 5)) * 255).astype(np.uint8)
        p = (x / 255.0 * 0.8)[:, None, :]
        one = encode_batch(x, spec, RngStream(3).fork("batch"))
        assert one.dtype == np.float32
        want = RngStream(3).fork("batch").bernoulli(p, (4, 6, 5))
        assert want.dtype == np.float64
        assert np.array_equal(one, want)
        each = encode_batch(x, spec, [RngStream(3).fork(f"s{i}") for i in range(4)])
        assert each.dtype == np.float32
        for i in range(4):
            assert np.array_equal(each[i], RngStream(3).fork(f"s{i}").bernoulli(p[i], (6, 5)))

    def test_one_stream_per_row_gives_each_row_the_bytes_of_its_own_call(self):
        spec = EncoderSpec(timesteps=6, max_rate=0.8)
        x = (RngStream(8).uniform((4, 5)) * 255).astype(np.uint8)
        forks = [RngStream(2).fork(f"s{i}") for i in range(4)]
        enc = encode_batch(x, spec, forks)
        for i in range(4):
            want = encode_batch(x[i : i + 1], spec, RngStream(2).fork(f"s{i}"))
            assert enc[i].tobytes() == want[0].tobytes()
        with pytest.raises(ContractViolation, match="streams"):
            encode_batch(x, spec, forks[:3])

    @settings(max_examples=80, deadline=None)
    @given(
        codes=hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12)),
        max_rate=st.sampled_from([1.0, 0.5, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_codes_encode_as_their_intensities(self, codes, max_rate, seed):
        spec = EncoderSpec(timesteps=5, max_rate=max_rate)
        got = encode_batch(codes, spec, RngStream(seed))
        want = encode_batch(codes / 255.0, spec, RngStream(seed))
        assert got.tobytes() == want.tobytes()

    def test_validation(self):
        with pytest.raises(ContractViolation):
            EncoderSpec(timesteps=0)
        with pytest.raises(ContractViolation):
            EncoderSpec(max_rate=0.0)
