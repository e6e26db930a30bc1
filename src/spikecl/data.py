"""Dataset ingestion, task-stream construction, and spike encoding.

Two scenario families are built here:

* split digit classification -- ten classes partitioned into five two-class
  tasks (task-incremental). Sources: IDX files on disk (the published MNIST
  container format), or a procedurally rendered digit corpus for fully
  offline, deterministic runs.
* synthetic cross-day drift -- an eight-class stream whose feature
  distribution rotates a little every "day" (domain-incremental), standing
  in for long-term neural recordings.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractViolation, FormatError
from .rng import RngStream

IDX_MAGIC_LABELS = 0x00000801
IDX_MAGIC_IMAGES = 0x00000803

SCENARIOS = ("task-incremental", "domain-incremental")

DEFAULT_SPLIT_PAIRS = ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9))


# ---------------------------------------------------------------------------
# IDX container


@dataclass
class IdxFile:
    """Decoded IDX payload: unsigned-byte tensor plus its dimension sizes."""

    magic: int
    dims: tuple[int, ...]
    data: np.ndarray  # uint8, flattened


def load_idx(path) -> IdxFile:
    """Parse a big-endian IDX file (unsigned-byte element type only)."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 8:
        raise FormatError(f"{path}: truncated IDX header")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic not in (IDX_MAGIC_LABELS, IDX_MAGIC_IMAGES):
        raise FormatError(f"{path}: bad IDX magic 0x{magic:08x}")
    ndim = magic & 0xFF
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise FormatError(f"{path}: truncated IDX dimension block")
    dims = struct.unpack(f">{ndim}I", raw[4:header])
    count = math.prod(dims)
    if len(raw) != header + count:
        raise FormatError(
            f"{path}: payload size {len(raw) - header} does not match dims {dims}"
        )
    data = np.frombuffer(raw, dtype=np.uint8, offset=header).copy()
    return IdxFile(magic, dims, data)


def load_idx_pair(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Load a paired image/label set: (n, rows*cols) uint8 pixel codes, kept
    as codes (``encode_batch`` divides them by 255), and int64 labels."""
    img = load_idx(images_path)
    lab = load_idx(labels_path)
    if img.magic != IDX_MAGIC_IMAGES:
        raise FormatError(f"{images_path}: not an IDX image file")
    if lab.magic != IDX_MAGIC_LABELS:
        raise FormatError(f"{labels_path}: not an IDX label file")
    if img.dims[0] != lab.dims[0]:
        raise FormatError(
            f"image count {img.dims[0]} != label count {lab.dims[0]}"
        )
    n = img.dims[0]
    return img.data.reshape(n, math.prod(img.dims[1:])), lab.data.astype(np.int64)


# ---------------------------------------------------------------------------
# Task streams


@dataclass
class Task:
    """One task's train and test sets, one feature row per sample. Image
    rows are uint8 intensity codes, which ``encode_batch`` divides by 255;
    drift rows are float64 intensities in [0, 1]."""

    name: str
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    orig_classes: tuple[int, ...]
    n_classes: int


@dataclass
class TaskStream:
    scenario: str
    tasks: list[Task]
    feature_dim: int

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ContractViolation(f"scenario must be one of {SCENARIOS}")
        seen: set[int] = set()
        for task in self.tasks:
            classes = set(task.orig_classes)
            if self.scenario == "task-incremental":
                if classes & seen:
                    raise ContractViolation("task-incremental class sets must be disjoint")
                seen |= classes
            else:
                if task.orig_classes != self.tasks[0].orig_classes:
                    raise ContractViolation("domain-incremental tasks must share one class set")


def _balanced_subset(y: np.ndarray, cap: int | None) -> np.ndarray:
    """Indices of the first-k-per-class deterministic subset (order preserved)."""
    if cap is None or len(y) <= cap:
        return np.arange(len(y))
    classes = np.unique(y)
    per = cap // len(classes)
    keep = np.zeros(len(y), dtype=bool)
    for c in classes:
        idx = np.flatnonzero(y == c)[:per]
        keep[idx] = True
    extra = cap - int(keep.sum())
    keep[np.flatnonzero(~keep)[:extra]] = True
    return np.flatnonzero(keep)


def build_split_stream(
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
    pairs=DEFAULT_SPLIT_PAIRS,
    train_cap: int | None = None,
    test_cap: int | None = None,
) -> TaskStream:
    """Partition a ten-class set into two-class tasks with local labels 0/1."""
    present = set(np.unique(train_y)) & set(np.unique(test_y))
    tasks = []
    for pair in pairs:
        missing = [c for c in pair if c not in present]
        if missing:
            raise ConfigurationError(f"classes {missing} missing from the dataset")
        tr = np.flatnonzero(np.isin(train_y, pair))
        te = np.flatnonzero(np.isin(test_y, pair))
        remap = {c: i for i, c in enumerate(pair)}
        tr_y = np.array([remap[c] for c in train_y[tr]], dtype=np.int64)
        te_y = np.array([remap[c] for c in test_y[te]], dtype=np.int64)
        tr_keep = _balanced_subset(tr_y, train_cap)
        te_keep = _balanced_subset(te_y, test_cap)
        tasks.append(
            Task(
                name="digits-" + "-".join(str(c) for c in pair),
                train_x=train_x[tr[tr_keep]],
                train_y=tr_y[tr_keep],
                test_x=test_x[te[te_keep]],
                test_y=te_y[te_keep],
                orig_classes=tuple(pair),
                n_classes=len(pair),
            )
        )
    return TaskStream("task-incremental", tasks, train_x.shape[1])


# ---------------------------------------------------------------------------
# Procedural digit corpus (offline stand-in routed through the same pipeline)

# stroke skeletons per digit on a unit canvas, x right / y down
def _ellipse(cx, cy, rx, ry, n=12, start=0.0, end=2 * np.pi):
    ang = np.linspace(start, end, n + 1)
    pts = np.stack([cx + rx * np.cos(ang), cy + ry * np.sin(ang)], axis=1)
    return [(pts[i], pts[i + 1]) for i in range(n)]


def _poly(*pts):
    pts = [np.asarray(p, dtype=np.float64) for p in pts]
    return [(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]


_DIGIT_STROKES = {
    0: _ellipse(0.5, 0.5, 0.24, 0.34),
    1: _poly((0.36, 0.26), (0.52, 0.12), (0.52, 0.88)),
    2: _poly((0.3, 0.3), (0.36, 0.16), (0.62, 0.15), (0.7, 0.3), (0.3, 0.84), (0.72, 0.84)),
    3: _poly((0.3, 0.18), (0.6, 0.15), (0.7, 0.3), (0.52, 0.47), (0.7, 0.64), (0.6, 0.84), (0.3, 0.8)),
    4: _poly((0.6, 0.12), (0.27, 0.6), (0.76, 0.6)) + _poly((0.6, 0.12), (0.6, 0.88)),
    5: _poly((0.7, 0.14), (0.33, 0.14), (0.31, 0.45), (0.6, 0.42), (0.71, 0.6), (0.6, 0.84), (0.3, 0.8)),
    6: _poly((0.64, 0.13), (0.42, 0.36), (0.32, 0.6)) + _ellipse(0.5, 0.66, 0.19, 0.19),
    7: _poly((0.28, 0.16), (0.72, 0.15), (0.44, 0.86)),
    8: _ellipse(0.5, 0.31, 0.19, 0.17) + _ellipse(0.5, 0.67, 0.22, 0.2),
    9: _ellipse(0.52, 0.34, 0.19, 0.19) + _poly((0.7, 0.36), (0.62, 0.86)),
}

_CANVAS = 28
DIGIT_PIXELS = _CANVAS * _CANVAS  # one digit image, MNIST's 28 x 28
_PIX = None


def _pixel_grid():
    global _PIX
    if _PIX is None:
        ax = (np.arange(_CANVAS) + 0.5) / _CANVAS
        xx, yy = np.meshgrid(ax, ax)
        _PIX = np.stack([xx.ravel(), yy.ravel()], axis=1)
    return _PIX


def _nearest_segment_d2(
    a: np.ndarray, b: np.ndarray, keep: np.ndarray, reach: float = np.inf
) -> np.ndarray:
    """(n, P) squared distance from each pixel to the nearest kept segment
    a[i, s] -> b[i, s]; inf where a row keeps no segment.

    With a finite ``reach``, each value below reach**2 is exact and each
    other value is at least reach**2 (inf where no segment was measured).
    A pixel whose distance to a segment is below reach lies within reach of
    the segment's axis-aligned bounding box in both x and y, since the
    distance to the box is a lower bound on the distance to the segment. So
    each segment is measured only on one window per row: its box grown by
    reach, plus a 1e-6 pixel pad that exceeds the rounding of the field and
    of the index bounds, clamped to the canvas. One window size per segment
    serves every row; a window larger than a row's box only measures more
    pixels. The default reach (inf) measures every pixel.

    Inside a window every pixel goes through the same IEEE operations in the
    same order as over the full canvas, so the measured values do not depend
    on the window. x and y stay separate planes: every dot product is
    x*x' + y*y', the same operations in the same order as a sum over a
    length-2 coordinate axis, so the corpus bytes do not depend on this
    layout. Rows that drop segment s skip it (a min with inf is a no-op).
    """
    px, py = np.ascontiguousarray(_pixel_grid().T)  # (P,) each
    n, P = a.shape[0], px.size
    dx = b[:, :, 0] - a[:, :, 0]  # (n, S)
    dy = b[:, :, 1] - a[:, :, 1]
    length2 = np.maximum(dx * dx + dy * dy, 1e-12)
    # first and one-past-last pixel index per row, segment and axis whose
    # centre (i + 0.5) / _CANVAS lies within the grown box
    pad = reach * _CANVAS + 1e-6
    first = np.clip(np.ceil(np.minimum(a, b) * _CANVAS - 0.5 - pad), 0, _CANVAS).astype(np.intp)
    stop = np.clip(np.floor(np.maximum(a, b) * _CANVAS - 0.5 + pad) + 1, 0, _CANVAS).astype(np.intp)
    min_d2 = np.full(n * P, np.inf)
    for s in range(a.shape[1]):
        rows = np.flatnonzero(keep[:, s])
        if rows.size == 0:
            continue
        wx, wy = (stop[rows, s] - first[rows, s]).max(axis=0)
        if wx <= 0 or wy <= 0:
            continue  # no row's window meets the canvas
        x0 = np.minimum(first[rows, s, 0], _CANVAS - wx)
        y0 = np.minimum(first[rows, s, 1], _CANVAS - wy)
        window = (y0[:, None, None] + np.arange(wy)[:, None]) * _CANVAS + (
            x0[:, None, None] + np.arange(wx)
        )
        window = window.reshape(rows.size, wy * wx)  # (r, K) pixel indices
        sx = dx[rows, s, None]  # (r, 1)
        sy = dy[rows, s, None]
        ex = px[window] - a[rows, s, 0, None]  # (r, K): pixel minus segment start
        ey = py[window] - a[rows, s, 1, None]
        t = ex * sx
        t += ey * sy
        t /= length2[rows, s, None]
        np.clip(t, 0.0, 1.0, out=t)
        ex -= t * sx
        ey -= t * sy
        ex *= ex
        ey *= ey
        ex += ey
        window += rows[:, None] * P  # flat indices into min_d2
        min_d2[window] = np.minimum(min_d2[window], ex)
    return min_d2.reshape(n, P)


def _render_digits(digit: int, n: int, rng: RngStream) -> np.ndarray:
    """(n, 784) uint8 grayscale digits: jittered affine transforms of the
    stroke skeleton, rasterized as soft distance fields and rounded to 8-bit
    intensity codes, as the IDX container stores them.

    Distortions (heavy affine jitter, occasional missing strokes, distractor
    marks, brightness spread, speckle) are deliberately strong enough that
    pair discrimination needs learned shape features rather than raw ink
    statistics -- sequential training then actually contests the trunk.
    """
    segs = _DIGIT_STROKES[digit]
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

    # drop a stroke now and then; add up to two distractor marks
    seg_keep = rng.uniform((n, a.shape[1])) >= 0.06
    n_distract = 2
    da = rng.uniform((n, n_distract, 2)) * 0.84 + 0.08
    db = da + (rng.uniform((n, n_distract, 2)) - 0.5) * 0.3
    d_on = rng.uniform((n, n_distract)) < 0.45
    a = np.concatenate([a, da], axis=1)
    b = np.concatenate([b, db], axis=1)
    keep = np.concatenate([seg_keep, d_on], axis=1)

    # drawn before the field, which draws nothing, so the draw sequence is
    # unchanged. A pixel 1.2 * thickness or farther from every stroke is
    # clipped to 0 below, and so is inf; the field is exact below reach, and
    # reach exceeds every row's 1.2 * thickness by at least 0.3 * 0.025 (0.2 px)
    thickness = 0.025 + 0.028 * rng.uniform((n,))
    d2 = _nearest_segment_d2(a, b, keep, reach=1.5 * thickness.max())
    dist = np.sqrt(np.minimum(d2, 4.0))
    img = np.clip(1.2 - dist / thickness[:, None], 0.0, 1.0)
    img *= (0.6 + 0.4 * rng.uniform((n,)))[:, None]
    img += rng.normal(img.shape) * 0.04
    np.clip(img, 0.0, 1.0, out=img)
    return np.round(img * 255.0).astype(np.uint8)


_CORPUS_CACHE: dict[tuple, tuple] = {}


def generate_digit_corpus(
    train_per_class: int = 1500,
    test_per_class: int = 300,
    seed: int = 90210,
    digits: Iterable[int] = range(10),
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic rendered digit dataset (train_x, train_y, test_x, test_y),
    with uint8 pixel codes like ``load_idx_pair``'s, holding only ``digits``.

    Each digit renders from its own fork, and one permutation per split
    orders the samples of all ten digits; the named digits keep their
    positions in it, in that order. So the rows and their order are the
    ten-digit corpus's with the other digits' rows taken out, and nothing
    else is rendered. The arrays are cached per call's arguments and
    returned read-only.
    """
    wanted = tuple(sorted({int(d) for d in digits}))
    key = (train_per_class, test_per_class, seed, wanted)
    if key in _CORPUS_CACHE:
        return _CORPUS_CACHE[key]
    root = RngStream(seed)
    arrays = []
    for split, per in (("train", train_per_class), ("test", test_per_class)):
        # digit d fills positions [d * per, (d + 1) * per) of the full corpus
        order = root.fork(f"{split}/order").permutation(10 * per)
        ys = (order // per).astype(np.int64)
        kept = np.isin(ys, wanted)
        order, ys = order[kept], ys[kept]
        xs = np.empty((len(ys), DIGIT_PIXELS), dtype=np.uint8)
        block = np.empty((per, DIGIT_PIXELS), dtype=np.uint8)
        for digit in wanted:
            stream = root.fork(f"{split}/digit{digit}")
            # 256-sample chunks bound the (n, P) temporaries, and they are
            # also part of the RNG draw sequence: each chunk draws its own
            # blocks from `stream`, so changing the chunk size changes every
            # rendered corpus.
            for lo in range(0, per, 256):
                block[lo : lo + 256] = _render_digits(digit, min(256, per - lo), stream)
            rows = ys == digit
            xs[rows] = block[order[rows] - digit * per]
        arrays += [xs, ys]
    for a in arrays:
        a.flags.writeable = False
    result = tuple(arrays)
    _CORPUS_CACHE[key] = result
    return result


# ---------------------------------------------------------------------------
# Synthetic cross-day drift stream


@dataclass
class DriftSpec:
    days: int = 7
    classes: int = 8
    features: int = 64
    train_per_day: int = 400
    test_per_day: int = 200
    theta_deg: float = 10.0
    p_drop: float = 0.05
    noise: float = 0.12
    proto_low: float = 0.35
    proto_spread: float = 0.3
    planes: int | None = None  # random 2-D subspaces under drift; default features // 2

    def __post_init__(self):
        if min(self.days, self.classes, self.features, self.train_per_day, self.test_per_day) < 1:
            raise ConfigurationError("drift days, classes, features and per-day sizes must be >= 1")
        if self.planes is not None and not 0 <= self.planes <= self.features // 2:
            raise ConfigurationError(f"drift planes {self.planes} outside [0, features // 2]")
        if not all(map(math.isfinite, (self.theta_deg, self.noise, self.proto_low, self.proto_spread))):
            raise ConfigurationError("drift theta_deg, noise, proto_low and proto_spread must be finite")
        if not (self.noise >= 0.0 and 0.0 <= self.p_drop <= 1.0):
            raise ConfigurationError(f"drift noise {self.noise} < 0 or p_drop {self.p_drop} outside [0, 1]")


def _day_rotation(features: int, planes: int, theta: float, rng: RngStream) -> np.ndarray:
    """Orthogonal matrix rotating `planes` random disjoint 2-D subspaces."""
    perm = rng.permutation(features)
    rot = np.eye(features)
    c, s = np.cos(theta), np.sin(theta)
    for k in range(planes):
        i, j = int(perm[2 * k]), int(perm[2 * k + 1])
        block = np.eye(features)
        block[i, i] = c
        block[i, j] = -s
        block[j, i] = s
        block[j, j] = c
        rot = block @ rot
    return rot


def build_synthetic_drift(spec: DriftSpec, seed: int) -> TaskStream:
    """Domain-incremental stream: day 1 draws class prototypes; each later
    day advances a coherent rotation of the feature space (fixed random 2-D
    subspaces, one more angle increment per day) and drops a few channels.

    Every day re-presents the same seeded base trials under that day's
    cumulative drift (like repeating one behavioral task across sessions),
    so zero drift makes all days bit-identical. Coherent accumulation,
    rather than freshly random directions per day, is what makes the drift
    unbounded: relative distribution shift grows with day distance.
    """
    rng = RngStream(seed).fork("drift")
    d = spec.features
    planes = spec.planes if spec.planes is not None else d // 2
    protos = spec.proto_low + spec.proto_spread * rng.fork("prototypes").uniform(
        (spec.classes, d)
    )
    theta = np.deg2rad(spec.theta_deg)
    day_rot = _day_rotation(d, planes, theta, rng.fork("planes")) if theta != 0.0 else np.eye(d)

    rotation = np.eye(d)
    tasks = []
    classes = tuple(range(spec.classes))
    for day in range(1, spec.days + 1):
        if day > 1 and theta != 0.0:
            rotation = day_rot @ rotation
        if spec.p_drop > 0:
            keep = 1.0 - rng.fork(f"drop/day{day}").bernoulli(spec.p_drop, (d,))
        else:
            keep = np.ones(d)

        def draw(n, tag):
            s = rng.fork(tag)
            labels = s.fork("labels").integers(n, spec.classes)
            x = protos[labels] + spec.noise * s.fork("noise").normal((n, d))
            x = (x - 0.5) @ rotation.T + 0.5
            x *= keep
            return np.clip(x, 0.0, 1.0), labels

        train_x, train_y = draw(spec.train_per_day, "train")
        test_x, test_y = draw(spec.test_per_day, "test")
        tasks.append(
            Task(
                name=f"day-{day}",
                train_x=train_x,
                train_y=train_y,
                test_x=test_x,
                test_y=test_y,
                orig_classes=classes,
                n_classes=spec.classes,
            )
        )
    return TaskStream("domain-incremental", tasks, d)


# ---------------------------------------------------------------------------
# Spike encoding


@dataclass
class EncoderSpec:
    timesteps: int = 10
    max_rate: float = 1.0

    def __post_init__(self):
        if self.timesteps < 1:
            raise ContractViolation("timesteps must be >= 1")
        if not (0.0 < self.max_rate <= 1.0):
            raise ContractViolation("max_rate must be in (0, 1]")


def encode_batch(
    features: np.ndarray, spec: EncoderSpec, rng: RngStream | list[RngStream]
) -> np.ndarray:
    """Poisson-rate spike trains (B, T, n) for a batch, one contiguous draw
    block: each step spikes with probability feature * ``spec.max_rate``.

    The trains are float32 0/1, the width training runs in, so the forward,
    the chip's twin and evaluation use the batch as it is; they hold the
    bits ``RngStream.bernoulli`` draws as float64 on the same stream.

    ``rng`` is one stream for the whole batch, or one stream per row; then
    row i has the bytes ``encode_batch(features[i:i+1], spec, rng[i])``
    gives (``RngStream.bernoulli_each``).

    uint8 features are 8-bit intensity codes (image pixels), encoded as
    code / 255; any other features (drift) must be intensities in [0, 1].
    """
    f = np.asarray(features)
    if f.ndim != 2:
        raise ContractViolation("batch features must be 2-D")
    if f.dtype == np.uint8:
        f = f / 255.0
    else:
        f = f.astype(np.float64, copy=False)
        if not np.all((f >= 0.0) & (f <= 1.0)):
            raise ContractViolation("features must lie in [0, 1]")
    B, n = f.shape
    # (B, 1, n) broadcasts over the T steps, so bernoulli checks B*n values
    p = (f * spec.max_rate)[:, None, :]
    if isinstance(rng, RngStream):
        return rng.bernoulli(p, (B, spec.timesteps, n), np.float32)
    if len(rng) != B:
        raise ContractViolation(f"{len(rng)} streams for {B} rows")
    return RngStream.bernoulli_each(rng, p, (spec.timesteps, n), np.float32)
