"""Simulated internal neuromorphic processing unit and the chip's loss term.

The chip holds quantized integer weights and runs integer LIF dynamics:
leak by arithmetic right shift, integer accumulation, threshold compare,
reset by subtraction. Interaction follows a strict handshake -- upload a
config image, push one input, wait for the interrupt, read spike-count
registers layer by layer (reading the last layer clears the interrupt) --
and any call out of order raises a protocol error without touching chip
state.

In the chip loop, training couples two predictions of the same topology:
the full-precision external network and the chip's integer pass, which the
external processor runs as the chip's "twin" (its counts equal the
registers bit for bit). ``twin_loss`` adds the twin's cross-entropy to the
external network's loss and back-propagates through the twin's spikes,
straight through the quantization. Training builds no ``ChipModel`` and
uploads nothing; the protocol machine serves the tests and the benchmark's
check that the registers equal the twin's counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .container import parse_bundle, serialize_bundle
from .errors import (
    ConstraintViolation,
    ContractViolation,
    FormatError,
    ProtocolError,
)
from .numerics import cross_entropy_grad, softmax_cross_entropy_batch
from .snn import RESET, ForwardTrace, LifParams, SpikingNetwork
from .train import LossSpec, SurrogateSpec, backward_dlogits

# Nothing here calls ``forward`` or ``optimizer_step``: the twin's training
# pass is the integer core, and ``spikecl.runner.train_step`` makes the only
# step. The names stay because bench/tracer.py times ``spikecl.chip.forward``
# and ``spikecl.chip.optimizer_step``, and drops a patch point with a warning
# when its name is missing.
from .snn import forward  # noqa: F401
from .train import optimizer_step  # noqa: F401

QUANT_BITS = (4, 8, 16)


@dataclass
class QuantSpec:
    """Symmetric per-layer weight quantization plus the chip's leak shift."""

    bits: int = 8
    leak_shift: int = 3  # decay = 1 - 2**-shift
    scale_override: list[float] | None = None

    def __post_init__(self):
        if self.bits not in QUANT_BITS:
            raise ContractViolation(f"bits must be one of {QUANT_BITS}")
        if self.leak_shift < 0:
            raise ContractViolation("leak_shift must be >= 0")

    @property
    def qmax(self) -> int:
        return 2 ** (self.bits - 1) - 1


# The hardware budget ``validate_constraints`` enforces.
MAX_CLASSES = 16
MAX_LAYERS = 9
MAX_NEURONS_PER_LAYER = 1024
MAX_SYNAPSES_PER_LAYER = 262144


@dataclass
class ConfigImage:
    """Serialized register and weight-memory contents for one network."""

    layer_sizes: list[int]
    quantized: list[np.ndarray]  # int64 matrices
    scales: list[float]
    thresholds: list[int]
    leak_shift: int
    bits: int
    version: int = 1


def serialize_image(image: ConfigImage) -> bytes:
    meta = {
        "kind": "chip-config",
        "version": image.version,
        "layer_sizes": [int(s) for s in image.layer_sizes],
        "scales": [float(s) for s in image.scales],
        "thresholds": [int(t) for t in image.thresholds],
        "leak_shift": int(image.leak_shift),
        "bits": int(image.bits),
        "reset": RESET,
    }
    arrays = {f"q{l}": q for l, q in enumerate(image.quantized)}
    return serialize_bundle(meta, arrays)


_IMAGE_KEYS = ("layer_sizes", "scales", "thresholds", "leak_shift", "bits", "version")


def _ints(v, n: int, low: int) -> bool:
    """``v`` is a list of ``n`` integers >= ``low`` (no bools)."""
    return isinstance(v, list) and len(v) == n and all(type(x) is int and x >= low for x in v)


def _check_image(fields: dict, arrays: dict) -> None:
    """Raise unless an image's fields and arrays are well-formed: the one
    check of ``parse_image`` and of an image object handed to ``upload_config``.

    The arrays must be exactly ``q0`` .. ``q{L-1}``, shaped by
    ``layer_sizes`` (docs/protocol.md lists the rules). A bias array raises
    ``ConstraintViolation``, as the chip has no bias storage; any other bad
    field or array ``FormatError``.
    """
    sizes, scales, shift = fields["layer_sizes"], fields["scales"], fields["leak_shift"]
    if not (isinstance(sizes, list) and len(sizes) >= 2 and _ints(sizes, len(sizes), 1)):
        raise FormatError("chip config layer_sizes must be two or more positive integers")
    n = len(sizes) - 1
    checks = {
        "thresholds": _ints(fields["thresholds"], n, 1),
        "scales": isinstance(scales, list) and len(scales) == n and all(
            type(s) in (int, float) and 0.0 < s < math.inf for s in scales
        ),
        "leak_shift": type(shift) is int and shift >= 0,
        "reset": fields.get("reset", RESET) == RESET,  # files name it; objects need not
    }
    bad = [key for key, ok in checks.items() if not ok]
    if bad:
        raise FormatError(f"chip config {bad} malformed for {n} computing layers")
    bias = sorted(name for name in arrays if "bias" in name.lower())
    if bias:
        raise ConstraintViolation(f"bias storage requested ({', '.join(bias)}); chip has none")
    shapes = {f"q{l}": (sizes[l], sizes[l + 1]) for l in range(n)}
    found = {name: getattr(a, "shape", None) for name, a in arrays.items()}
    if found != shapes:
        raise FormatError(f"chip config arrays {found} are not the weight arrays {shapes}")


def parse_image(data: bytes) -> ConfigImage:
    """Decode a config image; a malformed one raises a ``SpikeclError``
    (``_check_image``)."""
    meta, arrays = parse_bundle(data)
    if not isinstance(meta, dict):
        raise FormatError(f"chip config metadata is a {type(meta).__name__}, not an object")
    if meta.get("kind") != "chip-config":
        raise ContractViolation(f"not a chip config image: {meta.get('kind')!r}")
    missing = [k for k in (*_IMAGE_KEYS, "reset") if k not in meta]
    if missing:
        raise FormatError(f"chip config metadata lacks {missing}")
    _check_image(meta, arrays)
    weights = [arrays[f"q{l}"] for l in range(len(arrays))]
    return ConfigImage(quantized=weights, **{key: meta[key] for key in _IMAGE_KEYS})


def flatten_for_chip(net: SpikingNetwork, task: int | None = None) -> tuple[list[int], list[np.ndarray], list[LifParams]]:
    """Single-head view of a network: trunk plus the active task's head."""
    sizes = list(net.layer_sizes)
    mats = [w for w in net.weights]
    lifs = list(net.lif)
    if net.multi_head:
        if task is None:
            raise ContractViolation("multi-head network requires a task id for the chip")
        mats = mats + [net.heads[task]]
        sizes = sizes + [net.head_size]
    return sizes, mats, lifs


def quantize_codes(
    net: SpikingNetwork,
    spec: QuantSpec,
    task: int | None = None,
) -> ConfigImage:
    """Symmetric per-layer quantization q = clamp(round(w / scale)), each
    layer's codes built in one float64 buffer: the one quantizer. The
    division runs in float64, so a float32 weight and its float64 upcast
    give the same codes.

    The default scale max|w| / qmax maps the largest weight onto the signed
    range; an all-zero layer degenerates to scale 1; ``spec.scale_override``
    gives one scale per computing layer instead. Thresholds are scaled by
    the same factor so spike behavior is unchanged in exact arithmetic
    (then rounded to at least one integer unit).
    """
    sizes, mats, lifs = flatten_for_chip(net, task)
    codes, scales, thresholds = [], [], []
    for w, p in zip(mats, lifs):
        peak = max(float(w.max()), -float(w.min()))  # nan or inf if any weight is
        if not math.isfinite(peak):
            raise ContractViolation("weights contains non-finite values")
        if spec.scale_override is not None:
            scale = spec.scale_override[len(scales)]
        else:
            scale = peak / spec.qmax if peak > 0.0 else 1.0
        q = np.divide(w, scale, dtype=np.float64)
        np.rint(q, out=q)
        np.clip(q, -spec.qmax, spec.qmax, out=q)
        codes.append(q)
        scales.append(scale)
        thresholds.append(max(1, int(np.rint(p.threshold / scale))))
    return ConfigImage(sizes, codes, scales, thresholds, spec.leak_shift, spec.bits)


def quantize_network(
    net: SpikingNetwork,
    spec: QuantSpec,
    task: int | None = None,
) -> ConfigImage:
    """The config image of ``quantize_codes``, with int64 codes."""
    image = quantize_codes(net, spec, task)
    image.quantized = [q.astype(np.int64) for q in image.quantized]
    return image


def validate_constraints(subject: SpikingNetwork | ConfigImage | list[int]) -> list[str]:
    """Check the class cap, layer budget, per-layer memory and, for a
    config image, that every weight fits its signed bit width.

    ``subject`` is a network (its first head in multi-head mode), a config
    image, or the layer widths of a single-head network, input first.
    Returns a list of human-readable violations (empty means ok).
    """
    violations = []
    if isinstance(subject, SpikingNetwork):
        sizes = flatten_for_chip(subject, 0 if subject.multi_head else None)[0]
    elif isinstance(subject, ConfigImage):
        sizes = subject.layer_sizes
        if subject.bits not in QUANT_BITS:
            violations.append(f"bit width {subject.bits!r} is not one of {QUANT_BITS}")
        else:
            qmax = 2 ** (subject.bits - 1) - 1
            for l, q in enumerate(subject.quantized):
                if q.dtype.kind not in "iu":
                    violations.append(f"layer {l} weights have non-integer dtype {q.dtype}")
                elif q.size and (int(q.max()) > qmax or int(q.min()) < -qmax):
                    violations.append(
                        f"layer {l} has weights outside the {subject.bits}-bit range ±{qmax}"
                    )
    else:
        sizes = subject
    if sizes[-1] > MAX_CLASSES:
        violations.append(f"output classes {sizes[-1]} exceed cap {MAX_CLASSES}")
    if len(sizes) - 1 > MAX_LAYERS:
        violations.append(f"{len(sizes) - 1} computing layers exceed cap {MAX_LAYERS}")
    for l, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        if n_out > MAX_NEURONS_PER_LAYER:
            violations.append(f"layer {l} has {n_out} neurons, cap {MAX_NEURONS_PER_LAYER}")
        if n_in * n_out > MAX_SYNAPSES_PER_LAYER:
            violations.append(
                f"layer {l} has {n_in * n_out} synapses, cap {MAX_SYNAPSES_PER_LAYER}"
            )
    return violations


def _exact_float(l: int, q: np.ndarray, peak: int | None = None) -> np.ndarray:
    """Layer ``l``'s integer codes as the float array the core accumulates
    with: float32 when n_in * peak < 2**24, float64 below 2**53.

    ``peak`` bounds max|q|: the quantizer's qmax for its own codes, which
    it clips to ±qmax; it is scanned from ``q`` when not given, as for an
    image from outside. The accumulate multiplies 0/1 spikes by these
    codes, so every partial sum, in any order and with or without FMA, is
    an integer of magnitude at most n_in * peak; below the format's
    2**(mantissa bits + 1) each is exact, so either width gives the same
    bits. Float64 codes that stay float64 are not copied. Raises
    ``ContractViolation`` at 2**53 and above.
    """
    if peak is None:
        peak = max(int(q.max()), -int(q.min())) if q.size else 0
    bound = q.shape[0] * peak
    if bound < 2**24:
        return q.astype(np.float32)
    if bound >= 2**53:
        raise ContractViolation(
            f"layer {l}: {q.shape[0]} inputs x max|q| {peak} reaches 2**53; "
            "the accumulate would not be exact"
        )
    return q.astype(np.float64, copy=False)


def exact_float_weights(image: ConfigImage) -> list[np.ndarray]:
    """The image's integer weights as the exact float copies that
    ``_integer_layers`` multiplies by (``_exact_float``); non-integer
    weights raise ``ContractViolation``."""
    weights = []
    for l, q in enumerate(image.quantized):
        if q.dtype.kind not in "iu":
            raise ContractViolation(f"layer {l} weights have non-integer dtype {q.dtype}")
        weights.append(_exact_float(l, q))
    return weights


def _integer_layers(
    image: ConfigImage, input_spikes: np.ndarray, weights: list[np.ndarray] | None = None
):
    """Integer LIF pass over all layers, one computing layer at a time.

    ``input_spikes`` is a (B, T, n_in) batch of 0/1 entries. This single
    integer core backs the protocol machine (a batch of one), batched twin
    evaluation and the twin's training pass. ``weights`` holds the exact
    float codes (``exact_float_weights(image)``, made here when not given;
    the chip keeps its copy from the upload). Only the thresholds and leak
    shift of ``image`` are read when they are given.

    Yields ``(spikes, u)`` per layer: the (B, T, n) 0/1 spikes, float32
    for a float32 input and float64 for any other, and the int64 pre-reset
    potentials u_t = v_{t-1} - (v_{t-1} >> shift) + I_t.
    ``u`` is a (B, T, n) view of the time-major (T, B, n) buffer that held
    the currents (``u.transpose(1, 0, 2)`` is C-contiguous), the layout of
    ``snn.ForwardTrace``. The generator overwrites neither after yielding
    them.

    The accumulate ``spikes @ Q`` runs as a BLAS matmul of time-major rows
    in the dtype of each layer's weights (float32 or float64); it is exact
    (see ``_exact_float``), so it equals the int64 product bit for bit,
    whatever the row order, blocking or thread count. The leak, threshold
    and subtractive reset run in int64, in place on contiguous (B, n) slices.
    """
    x = np.asarray(input_spikes)
    if x.ndim != 3:
        raise ContractViolation(f"chip input must be a (B, T, n) batch, got {x.shape}")
    if not np.all((x == 0) | (x == 1)):
        raise ContractViolation("chip input spikes must be binary")
    if weights is None:
        weights = exact_float_weights(image)
    B, T, _ = x.shape
    shift = image.leak_shift
    spike_dtype = np.float32 if x.dtype == np.float32 else np.float64
    fired = x.transpose(1, 0, 2)  # the time-major spikes feeding the next layer
    for w, thr in zip(weights, image.thresholds):
        rows = np.ascontiguousarray(fired, dtype=w.dtype).reshape(T * B, -1)
        cur = (rows @ w).astype(np.int64).reshape(T, B, -1)
        v = np.zeros(cur.shape[1:], dtype=np.int64)
        drop = np.empty_like(v)
        fired = np.empty(cur.shape, dtype=bool)
        for u, s in zip(cur, fired):
            np.right_shift(v, shift, out=drop)
            v -= drop
            u += v
            np.greater_equal(u, thr, out=s)
            np.multiply(s, thr, out=drop)
            np.subtract(u, drop, out=v)
        spikes = np.ascontiguousarray(fired.transpose(1, 0, 2), dtype=spike_dtype)
        yield spikes, cur.transpose(1, 0, 2)


def _integer_layer_counts(
    image: ConfigImage, input_spikes: np.ndarray, weights: list[np.ndarray] | None = None
) -> list[np.ndarray]:
    """Per-layer spike counts (B, n) of the integer pass (``_integer_layers``)."""
    layers = _integer_layers(image, input_spikes, weights)
    return [s.sum(axis=1).astype(np.int64) for s, _ in layers]


def chip_twin_counts(
    image: ConfigImage, input_spikes: np.ndarray, weights: list[np.ndarray] | None = None
) -> np.ndarray:
    """Final-layer counts (B, K) of the quantized twin on a (B, T, n_in) batch.

    ``weights`` is ``exact_float_weights(image)``, made here when not given.
    """
    return _integer_layer_counts(image, input_spikes, weights)[-1]


@dataclass
class ChipModel:
    """Stateful protocol machine over the integer core.

    Readout registers hold per-layer spike counts of the last processed
    input and change only between interrupt assertions.
    """

    image: ConfigImage | None = None
    weights: list[np.ndarray] = field(default_factory=list)  # exact_float_weights(image)
    readout: list[np.ndarray] = field(default_factory=list)
    interrupt: bool = False

    @property
    def configured(self) -> bool:
        return self.image is not None


def upload_config(chip: ChipModel, data: bytes | ConfigImage) -> ChipModel:
    """Install a config image: memories overwritten, neuron state zeroed,
    interrupt cleared. Bytes are parsed and an image object is checked by
    the same rules (``_check_image``), then both go through
    ``validate_constraints``. On any failure the chip is left unchanged."""
    if isinstance(data, (bytes, bytearray)):
        image = parse_image(data)
    else:
        image = data
        _check_image(vars(image), {f"q{l}": q for l, q in enumerate(image.quantized)})
    violations = validate_constraints(image)
    if violations:
        raise ConstraintViolation("; ".join(violations))
    weights = exact_float_weights(image)
    chip.image = image
    chip.weights = weights
    chip.readout = [np.zeros(q.shape[1], dtype=np.int64) for q in image.quantized]
    chip.interrupt = False
    return chip


def chip_forward(chip: ChipModel, input_spikes: np.ndarray) -> None:
    """Process one (T, n_in) input: fill the readout registers, assert the interrupt."""
    if not chip.configured:
        raise ProtocolError("forward before any config upload")
    if chip.interrupt:
        raise ProtocolError("forward while a readout is pending")
    x = np.asarray(input_spikes)
    if x.ndim != 2:
        raise ProtocolError("chip takes one input at a time (T, n_in)")
    counts = _integer_layer_counts(chip.image, x[None], chip.weights)
    chip.readout = [c[0] for c in counts]
    chip.interrupt = True


def read_layer_spikes(chip: ChipModel, layer: int) -> np.ndarray:
    """Latched spike counts for one layer; reading the final layer clears
    the interrupt, re-arming the chip for the next input."""
    if not chip.configured:
        raise ProtocolError("read before any config upload")
    if not chip.interrupt:
        raise ProtocolError("read without a pending interrupt")
    if not (0 <= layer < len(chip.readout)):
        raise ContractViolation(f"layer index {layer} out of range")
    out = chip.readout[layer].copy()
    if layer == len(chip.readout) - 1:
        chip.interrupt = False
    return out


# ---------------------------------------------------------------------------
# The chip's loss term


def twin_loss(
    net: SpikingNetwork,
    x_enc: np.ndarray,
    labels: np.ndarray,
    loss_spec: LossSpec,
    quant_spec: QuantSpec,
    surrogate: SurrogateSpec,
    task: int | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """The chip's term mu*H(y, chip) of one batch and its gradients, keyed
    by the external network's parameter names.

    The chip's prediction is its integer pass on the current weights,
    quantized on every call; its counts are what the chip's registers
    latch, so the chip itself is not driven. The gradients are BPTT on the
    pass's spikes and potentials times each layer's scale, straight through
    the rounding and the leak's floor (decay 1 - 2**-shift). At mu = 0 the
    term is zero and nothing is quantized.

    The pass runs on ``quantize_codes``' float64 codes, as the same exact
    float weights the chip gets from an upload (``_exact_float``, with the
    width picked from the bound n_in * qmax, not a scan); no int64 image is
    made. The trace's potentials are (B, T, n) views of time-major
    storage, as ``snn.ForwardTrace`` documents. BPTT reads the weights of
    layers 1 and up only, to carry the gradient down a layer, so only those
    codes are scaled, and the first layer's place holds NaNs. The float64
    codes go before the pass, as soon as the pass's exact float weights and
    BPTT's scaled matrices exist (a layer whose weights are its float64
    codes keeps them); the weights go after the pass. The trace, the scaled
    matrices and the gradients have the dtype of the network's weights, as
    in ``snn.forward``; a batch of that dtype (``data.encode_batch``'s
    float32 in training) is used as it is, not copied.
    """
    mu = loss_spec.mu
    if mu == 0.0:
        return 0.0, {}
    dtype = net.weights[0].dtype
    image = quantize_codes(net, quant_spec, task)
    codes, image.quantized = image.quantized, []  # the pass reads only ``weights``
    weights = [_exact_float(l, q, quant_spec.qmax) for l, q in enumerate(codes)]
    # q * scale has the bits of q.astype(float64) * scale; it scales in
    # place unless the pass multiplies by the codes themselves
    matrices = [np.broadcast_to(np.nan, codes[0].shape)] + [
        np.multiply(q, scale, out=None if q is w else q).astype(dtype, copy=False)
        for q, w, scale in zip(codes[1:], weights[1:], image.scales[1:])
    ]
    del codes
    x = np.asarray(x_enc, dtype=dtype)
    spikes, pre_reset = [x], []
    for (s, u), scale in zip(_integer_layers(image, x, weights), image.scales):
        spikes.append(s)
        pre_reset.append(np.multiply(u.transpose(1, 0, 2), scale, dtype=dtype).transpose(1, 0, 2))
    del weights
    ce, probs = softmax_cross_entropy_batch(spikes[-1].sum(axis=1), labels)
    decay = 1.0 - 2.0 ** -image.leak_shift
    lifs = [LifParams(decay, float(t) * scale) for t, scale in zip(image.thresholds, image.scales)]
    twin = SpikingNetwork(list(image.layer_sizes), matrices, lifs)
    trace = ForwardTrace(spikes, pre_reset, None)
    grads = backward_dlogits(twin, trace, mu * cross_entropy_grad(probs, labels), surrogate)
    if net.multi_head:
        grads[f"head{task}"] = grads.pop(f"w{len(matrices) - 1}")
    return mu * ce, grads
