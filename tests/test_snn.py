import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecl.chip import validate_constraints
from spikecl.container import read_bundle, write_bundle
from spikecl.errors import ContractViolation, FormatError, SpikeclError
from spikecl.rng import RngStream
from spikecl.snn import (
    LifParams,
    SpikingNetwork,
    forward,
    init_network,
    load_network,
    record_firing_rates,
    save_network,
)

from oracles import DTYPES, SHIPPED_SHAPES, cast_network, lif_step


class TestLifStep:
    def test_zero_input_stays_zero(self):
        p = LifParams()
        v = np.zeros(4)
        for _ in range(20):
            v, s, _ = lif_step(v, np.zeros(4), p)
            assert (v == 0).all() and (s == 0).all()

    def test_subthreshold_steady_state_never_spikes(self):
        # decay 0.9, input 0.05: fixed point 0.5 < threshold 1.0
        p = LifParams(decay=0.9, threshold=1.0)
        v = np.zeros(1)
        for _ in range(200):
            v, s, _ = lif_step(v, np.array([0.05]), p)
            assert s[0] == 0.0
        assert v[0] == pytest.approx(0.5, abs=1e-6)

    def test_hand_stepped_spike_at_third_step(self):
        # v walks 0.5, 0.95, 1.355 >= 1.0 -> spike, reset-by-subtraction
        p = LifParams(decay=0.9, threshold=1.0)
        v = np.zeros(1)
        spikes = []
        values = []
        for _ in range(4):
            v, s, _ = lif_step(v, np.array([0.5]), p)
            spikes.append(s[0])
            values.append(v[0])
        assert spikes == [0.0, 0.0, 1.0, 0.0]
        assert values[0] == pytest.approx(0.5)
        assert values[1] == pytest.approx(0.95)
        assert values[2] == pytest.approx(0.355)  # 1.355 - threshold
        assert values[3] == pytest.approx(0.8195)

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            lif_step(np.zeros(2), np.zeros(3), LifParams())

    def test_non_finite_input(self):
        with pytest.raises(ContractViolation):
            lif_step(np.zeros(1), np.array([np.nan]), LifParams())

    def test_param_validation(self):
        with pytest.raises(ContractViolation):
            LifParams(decay=0.0)
        with pytest.raises(ContractViolation):
            LifParams(threshold=-1.0)

    def test_reset_is_not_a_parameter(self):
        # every unit resets by subtraction; there is no reset to choose
        with pytest.raises(TypeError):
            LifParams(reset="zero")


# The (decay, threshold) pairs the forward-vs-oracle tests run: the LIF
# parameters they have always used, a leak-free unit with a high threshold
# that fires rarely and carries its subtracted residue, and a fast-leaking
# unit with a low threshold that fires on most steps.
_LIF_CASES = {
    "decay0.85-thr0.9": (0.85, 0.9),
    "decay1-thr1.7": (1.0, 1.7),
    "decay0.5-thr0.3": (0.5, 0.3),
}


# The forward-vs-oracle and slicing tests also run a second input rate: a
# dense one at the small widths, where most units fire on most steps, and a
# sparse one at the shipped widths, where many units stay below threshold.
@pytest.mark.parametrize("dtype", sorted(DTYPES))
@pytest.mark.parametrize("lif", sorted(_LIF_CASES))
@pytest.mark.parametrize("rate", [0.4, 0.8], ids=["rate0.4", "rate0.8"])
def test_forward_matches_stepped_lif_oracle_bit_for_bit(lif, rate, dtype):
    """``forward`` builds the recurrence in place; stepping the single-step
    oracle over T on the same currents gives the same bytes."""
    _check_forward_against_stepped_oracle([12, 9, 7], 3, 5, 8, rate, _LIF_CASES[lif], dtype)


@pytest.mark.parametrize("dtype", sorted(DTYPES))
@pytest.mark.parametrize("lif", sorted(_LIF_CASES))
@pytest.mark.parametrize("rate", [0.2, 0.05], ids=["rate0.2", "rate0.05"])
@pytest.mark.parametrize("shape", sorted(SHIPPED_SHAPES))
def test_forward_matches_stepped_lif_oracle_at_shipped_widths(shape, lif, rate, dtype):
    sizes, head_size, batch = SHIPPED_SHAPES[shape]
    _check_forward_against_stepped_oracle(sizes, head_size, batch, 10, rate, _LIF_CASES[lif], dtype)


def _check_forward_against_stepped_oracle(sizes, head_size, B, T, rate, lif, dtype):
    """The oracle multiplies in (b, t) row order and steps ``lif_step``
    over t; ``forward``'s spikes, pre-reset potentials and logits must have
    its bytes, in the network's dtype."""
    rng = RngStream(11)
    lif = LifParams(*lif)
    n_heads = None if head_size is None else 2
    net = init_network(sizes, rng.fork("net"), lif=lif, n_heads=n_heads, head_size=head_size)
    cast_network(net, DTYPES[dtype])
    task = None if head_size is None else 1
    x = rng.fork("x").bernoulli(rate, (B, T, sizes[0]))
    trace, logits = forward(net, x, task=task)
    matrices = net.weights + ([] if task is None else [net.heads[task]])
    prev = x.astype(DTYPES[dtype])
    for l, w in enumerate(matrices):
        cur = (prev.reshape(B * T, -1) @ w).reshape(B, T, -1)
        v = np.zeros((B, w.shape[1]), dtype=w.dtype)
        spikes, pre_reset = np.empty_like(cur), np.empty_like(cur)
        for t in range(T):
            v, spikes[:, t], pre_reset[:, t] = lif_step(v, cur[:, t], net.lif[l])
        assert spikes.dtype == trace.spikes[l + 1].dtype == DTYPES[dtype]
        assert spikes.tobytes() == trace.spikes[l + 1].tobytes()
        assert pre_reset.tobytes() == trace.pre_reset[l].tobytes()
        prev = spikes
    assert logits.tobytes() == prev.sum(axis=1).tobytes()


@pytest.mark.parametrize("dtype", sorted(DTYPES))
@pytest.mark.parametrize("rate", [0.2, 0.05], ids=["rate0.2", "rate0.05"])
@pytest.mark.parametrize("shape", sorted(SHIPPED_SHAPES))
def test_forward_in_slices_has_the_bytes_of_one_pass(shape, rate, dtype, request):
    """A 16-sample slice is 160 rows, whole BLAS kernel blocks, so
    simulating a batch in 16-sample slices (as evaluation does) gives every
    sample the bytes of one pass over the whole batch.

    In float32 this holds at the three 784-wide shapes only. On the drift
    network, the 8-wide output layer's potentials of a 200-sample pass
    differ from those of its 16-sample slices (OpenBLAS 0.3.31 on x86-64,
    at one and two threads); the spikes and logits still match.
    """
    if dtype == "float32" and shape == "64-256-256-8-B200":
        request.applymarker(pytest.mark.xfail(
            strict=True, reason="float32 output potentials of one pass differ from its slices"
        ))
    sizes, head_size, B = SHIPPED_SHAPES[shape]
    rng = RngStream(5)
    n_heads = None if head_size is None else 2
    net = init_network(sizes, rng.fork("net"), n_heads=n_heads, head_size=head_size)
    cast_network(net, DTYPES[dtype])
    task = None if head_size is None else 0
    x = rng.fork("x").bernoulli(rate, (B, 10, sizes[0]))
    whole, logits = forward(net, x, task=task)
    for b in range(0, B, 16):
        part, part_logits = forward(net, x[b : b + 16], task=task)
        assert part_logits.tobytes() == logits[b : b + 16].tobytes()
        for got, want in zip(part.spikes + part.pre_reset, whole.spikes + whole.pre_reset):
            assert got.tobytes() == want[b : b + 16].tobytes()


def hand_forward_222(weights, x, decay, threshold):
    """Independent step-by-step simulation of a 2-2-2 net, plain Python."""
    T = x.shape[0]
    v = [[0.0, 0.0], [0.0, 0.0]]
    spikes = [np.zeros((T, 2)), np.zeros((T, 2))]
    prev = x
    for layer in range(2):
        w = weights[layer]
        for t in range(T):
            for j in range(2):
                cur = sum(prev[t][i] * w[i][j] for i in range(2))
                u = decay * v[layer][j] + cur
                s = 1.0 if u >= threshold else 0.0
                v[layer][j] = u - threshold * s
                spikes[layer][t, j] = s
        prev = spikes[layer]
    return spikes


class TestForward:
    def _net(self):
        w0 = np.array([[1.2, 0.3], [0.1, 0.9]])
        w1 = np.array([[0.7, 1.1], [1.4, 0.2]])
        lif = LifParams(decay=0.9, threshold=1.0)
        return SpikingNetwork([2, 2, 2], [w0, w1], [lif, lif])

    def test_all_zero_input(self):
        net = self._net()
        x = np.zeros((1, 5, 2))
        trace, logits = forward(net, x)
        assert (logits == 0).all()
        for s in trace.spikes[1:]:
            assert (s == 0).all()

    def test_zero_weights_zero_logits(self):
        lif = LifParams()
        net = SpikingNetwork([2, 2, 2], [np.zeros((2, 2)), np.zeros((2, 2))], [lif, lif])
        x = np.ones((1, 5, 2))
        _, logits = forward(net, x)
        assert (logits == 0).all()

    def test_matches_hand_simulation(self):
        net = self._net()
        x = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        trace, logits = forward(net, x[None])
        ref = hand_forward_222([w.tolist() for w in net.weights], x, 0.9, 1.0)
        assert np.allclose(trace.spikes[1][0], ref[0])
        assert np.allclose(trace.spikes[2][0], ref[1])
        assert np.allclose(logits, ref[1].sum(axis=0))

    def test_deterministic(self):
        net = self._net()
        x = np.array([[[1.0, 0.0], [1.0, 1.0]]])
        t1, l1 = forward(net, x)
        t2, l2 = forward(net, x)
        assert np.array_equal(l1, l2)
        assert np.array_equal(t1.spikes[2], t2.spikes[2])

    def test_rejects_a_sample_without_a_batch_axis(self):
        with pytest.raises(ContractViolation, match="batch"):
            forward(self._net(), np.ones((3, 2)))

    def test_rejects_non_binary_input(self):
        with pytest.raises(ContractViolation):
            forward(self._net(), np.full((1, 3, 2), 0.5))

    def test_multi_head_requires_task(self):
        rng = RngStream(0)
        net = init_network([2, 3], rng, n_heads=2, head_size=2)
        x = np.zeros((1, 3, 2))
        with pytest.raises(ContractViolation):
            forward(net, x)
        _, logits = forward(net, x, task=1)
        assert logits.shape == (1, 2)

    def test_read_only_on_network(self):
        net = self._net()
        before = [w.copy() for w in net.weights]
        forward(net, np.ones((1, 4, 2)))
        for w, b in zip(net.weights, before):
            assert np.array_equal(w, b)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_spike_binarity_and_rate_bounds(self, seed):
        rng = RngStream(seed)
        net = init_network([3, 4, 2], rng, gain=2.5)
        x = (rng.fork("x").uniform((1, 6, 3)) < 0.4).astype(np.float64)
        trace, _ = forward(net, x)
        for s in trace.spikes:
            assert np.isin(s, (0.0, 1.0)).all()
        rates = record_firing_rates(trace)
        for f in rates:
            assert (f >= 0.0).all() and (f <= 1.0).all()

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_subtract_reset_membrane_bound(self, seed):
        # with per-step input bounded by M, the post-reset potential stays
        # at most max(theta, (M - theta) / (1 - decay)): below theta without
        # a spike, and a spike from at most decay*V + M leaves that minus theta
        rng = RngStream(seed)
        lif = LifParams(decay=0.9, threshold=1.0)
        net = init_network([3, 5, 2], rng, lif=lif, gain=2.0)
        M = [np.abs(w).sum(axis=0).max() for w in net.weights]
        x = (rng.fork("x").uniform((1, 8, 3)) < 0.5).astype(np.float64)
        trace, _ = forward(net, x)
        for l, (u, s) in enumerate(zip(trace.pre_reset, trace.spikes[1:])):
            v = u - 1.0 * s  # post-reset membrane potential
            assert v.max() <= max(1.0, (M[l] - 1.0) / (1.0 - 0.9)) + 1e-12


class TestFiringRates:
    def test_always_spiking(self):
        trace, _ = forward(
            SpikingNetwork([1, 1], [np.array([[5.0]])], [LifParams()]),
            np.ones((1, 10, 1)),
        )
        rates = record_firing_rates(trace)
        assert rates[1][0, 0] == 1.0

    def test_never_spiking(self):
        trace, _ = forward(
            SpikingNetwork([1, 1], [np.array([[0.01]])], [LifParams()]),
            np.ones((1, 10, 1)),
        )
        assert record_firing_rates(trace)[1][0, 0] == 0.0

    def test_arithmetic(self):
        # 2 spikes in T=10 -> rate 0.2 (input layer rates count here)
        x = np.zeros((1, 10, 1))
        x[0, 3, 0] = 1.0
        x[0, 7, 0] = 1.0
        trace, _ = forward(
            SpikingNetwork([1, 1], [np.array([[0.0]])], [LifParams()]), x
        )
        assert record_firing_rates(trace)[0][0, 0] == pytest.approx(0.2)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = RngStream(77)
        net = init_network([4, 3], rng, n_heads=2, head_size=2,
                           lif=LifParams(decay=0.8, threshold=1.5))
        path = tmp_path / "net.ckpt"
        save_network(path, net)
        loaded = load_network(path)
        assert loaded.layer_sizes == net.layer_sizes
        assert loaded.head_size == net.head_size
        for a, b in zip(loaded.weights, net.weights):
            assert np.array_equal(a, b)
        for a, b in zip(loaded.heads, net.heads):
            assert np.array_equal(a, b)
        for pa, pb in zip(loaded.lif, net.lif):
            assert (pa.decay, pa.threshold) == (pb.decay, pb.threshold)

    def test_every_layer_names_the_subtract_reset(self, tmp_path):
        path = tmp_path / "net.ckpt"
        save_network(path, init_network([4, 3, 2], RngStream(5), lif=LifParams(0.8, 1.5)))
        meta, _ = read_bundle(path)
        assert meta["lif"] == [[0.8, 1.5, "subtract"]] * 2

    @pytest.mark.parametrize("reset", ["zero", None, 0])
    def test_a_reset_other_than_subtract_is_a_format_error(self, tmp_path, reset):
        path = tmp_path / "net.ckpt"
        save_network(path, init_network([4, 3, 2], RngStream(5)))
        meta, arrays = read_bundle(path)
        meta["lif"][1][2] = reset
        write_bundle(path, meta, arrays)
        with pytest.raises(FormatError, match="subtract"):
            load_network(path)

    @pytest.mark.parametrize(
        "triple", [[True, 1.0, "subtract"], [0.9, False, "subtract"]], ids=["bool-decay", "bool-threshold"]
    )
    def test_a_bool_decay_or_threshold_is_a_format_error(self, tmp_path, triple):
        path = tmp_path / "net.ckpt"
        save_network(path, init_network([4, 3, 2], RngStream(5)))
        meta, arrays = read_bundle(path)
        meta["lif"][0] = triple
        write_bundle(path, meta, arrays)
        with pytest.raises(FormatError, match="triples"):
            load_network(path)

    def test_stable_bytes(self, tmp_path):
        net = init_network([3, 2], RngStream(5))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_network(p1, net)
        save_network(p2, net)
        assert p1.read_bytes() == p2.read_bytes()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**40) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(
    key=st.sampled_from(["kind", "layer_sizes", "lif", "n_heads", "head_size"]),
    value=_JSON_VALUES,
    drop_key=st.booleans(),
    drop_array=st.sampled_from([None, "w0", "head1"]),
    whole=st.none() | _JSON_VALUES,
)
def test_load_network_loads_or_raises_spikecl_errors(tmp_path_factory, key, value, drop_key, drop_array, whole):
    # a checkpoint with one metadata value replaced or removed, one weight
    # array removed, or metadata that is any JSON value, must load or raise
    # a SpikeclError, and a loaded one must go through the chip check
    path = tmp_path_factory.mktemp("ckpt") / "net.ckpt"
    save_network(path, init_network([4, 3], RngStream(1), n_heads=2, head_size=2))
    meta, arrays = read_bundle(path)
    if drop_key:
        del meta[key]
    else:
        meta[key] = value
    arrays.pop(drop_array, None)
    write_bundle(path, meta if whole is None else whole, arrays)
    try:
        validate_constraints(load_network(path))
    except SpikeclError:
        pass


def test_network_shape_validation():
    lif = LifParams()
    with pytest.raises(ContractViolation):
        SpikingNetwork([2, 3], [np.zeros((2, 2))], [lif])
    with pytest.raises(ContractViolation):
        SpikingNetwork([2, 3], [np.zeros((2, 3))], [lif, lif])
