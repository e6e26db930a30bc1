"""Simulated internal neuromorphic processing unit and the chip's loss term.

The chip holds quantized integer weights and runs integer LIF dynamics:
leak by arithmetic right shift, integer accumulation, threshold compare,
reset. Interaction follows a strict handshake -- upload a config image, push
one input, wait for the interrupt, read spike-count registers layer by
layer (reading the last layer clears the interrupt) -- and any call out of
order raises a protocol error without touching chip state.

In the chip loop, training couples two predictions of the same topology:
the full-precision external network and the chip's integer pass, which the
external processor runs as the chip's "twin" (its counts equal the
registers bit for bit). ``twin_loss`` adds the twin's cross-entropy to the
external network's loss and back-propagates through the twin's spikes,
straight through the quantization. ``upload_weights`` re-quantizes and
uploads the trained weights (``spikecl.runner`` calls it before a task and
after each epoch).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .container import parse_bundle, serialize_bundle
from .errors import (
    ConstraintViolation,
    ContractViolation,
    FormatError,
    ProtocolError,
)
from .numerics import cross_entropy_grad, require_finite, softmax_cross_entropy_batch
from .snn import ForwardTrace, LifParams, SpikingNetwork
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


@dataclass
class ChipConstraints:
    """Hardware budget the simulator enforces on upload."""

    max_classes: int = 16
    max_layers: int = 9
    max_neurons_per_layer: int = 1024
    max_synapses_per_layer: int = 262144


@dataclass
class ConfigImage:
    """Serialized register and weight-memory contents for one network."""

    layer_sizes: list[int]
    quantized: list[np.ndarray]  # int64 matrices
    scales: list[float]
    thresholds: list[int]
    leak_shift: int
    bits: int
    reset: str
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
        "reset": image.reset,
    }
    arrays = {f"q{l}": q for l, q in enumerate(image.quantized)}
    return serialize_bundle(meta, arrays)


_IMAGE_KEYS = ("layer_sizes", "scales", "thresholds", "leak_shift", "bits", "reset", "version")


def parse_image(data: bytes) -> ConfigImage:
    """Decode a config image; a malformed one raises a ``SpikeclError``."""
    meta, arrays = parse_bundle(data)
    if not isinstance(meta, dict):
        raise FormatError(f"chip config metadata is a {type(meta).__name__}, not an object")
    if meta.get("kind") != "chip-config":
        raise ContractViolation(f"not a chip config image: {meta.get('kind')!r}")
    missing = [k for k in _IMAGE_KEYS if k not in meta]
    if missing:
        raise FormatError(f"chip config metadata lacks {missing}")
    if not isinstance(meta["layer_sizes"], list):
        raise FormatError("chip config layer_sizes must be a list")
    names = [f"q{l}" for l in range(len(meta["layer_sizes"]) - 1)]
    missing = [name for name in names if name not in arrays]
    if missing:
        raise FormatError(f"chip config image lacks weight arrays {missing}")
    return ConfigImage(
        layer_sizes=meta["layer_sizes"],
        quantized=[arrays[name] for name in names],
        scales=meta["scales"],
        thresholds=meta["thresholds"],
        leak_shift=meta["leak_shift"],
        bits=meta["bits"],
        reset=meta["reset"],
        version=meta["version"],
    )


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


def quantize_network(
    net: SpikingNetwork,
    spec: QuantSpec,
    task: int | None = None,
) -> ConfigImage:
    """Symmetric per-layer quantization q = clamp(round(w / scale)).

    The default scale max|w| / qmax maps the largest weight onto the signed
    range; an all-zero layer degenerates to scale 1. Thresholds are scaled
    by the same factor so spike behavior is unchanged in exact arithmetic
    (then rounded to at least one integer unit).
    """
    sizes, mats, lifs = flatten_for_chip(net, task)
    quantized, scales, thresholds = [], [], []
    for w, p in zip(mats, lifs):
        require_finite(w, "weights")
        if spec.scale_override is not None:
            scale = spec.scale_override[len(scales)]
        else:
            peak = float(np.abs(w).max())
            scale = peak / spec.qmax if peak > 0.0 else 1.0
        q = np.clip(np.rint(w / scale), -spec.qmax, spec.qmax).astype(np.int64)
        quantized.append(q)
        scales.append(scale)
        thresholds.append(max(1, int(np.rint(p.threshold / scale))))
    reset = lifs[0].reset
    return ConfigImage(sizes, quantized, scales, thresholds, spec.leak_shift, spec.bits, reset)


def validate_constraints(
    subject: SpikingNetwork | ConfigImage,
    constraints: ChipConstraints | None = None,
    extra_arrays: dict | None = None,
) -> list[str]:
    """Check the class cap, layer budget, per-layer memory, bias absence
    and, for a config image, that every weight fits its signed bit width.

    Returns a list of human-readable violations (empty means ok).
    """
    c = constraints or ChipConstraints()
    violations = []
    if isinstance(subject, SpikingNetwork):
        sizes, mats, _ = flatten_for_chip(subject, 0 if subject.multi_head else None)
    else:
        sizes, mats = subject.layer_sizes, subject.quantized
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
    if sizes[-1] > c.max_classes:
        violations.append(f"output classes {sizes[-1]} exceed cap {c.max_classes}")
    if len(mats) > c.max_layers:
        violations.append(f"{len(mats)} computing layers exceed cap {c.max_layers}")
    for l, w in enumerate(mats):
        if sizes[l + 1] > c.max_neurons_per_layer:
            violations.append(
                f"layer {l} has {sizes[l + 1]} neurons, cap {c.max_neurons_per_layer}"
            )
        if w.size > c.max_synapses_per_layer:
            violations.append(f"layer {l} has {w.size} synapses, cap {c.max_synapses_per_layer}")
    # networks built here are bias-free by construction; foreign images may
    # carry a bias section, which the chip has no storage for
    if extra_arrays:
        for name in extra_arrays:
            if "bias" in name.lower():
                violations.append(f"bias storage requested ({name}); chip has none")
    return violations


def exact_float_weights(image: ConfigImage) -> list[np.ndarray]:
    """The image's integer weights as float64 copies for ``_integer_layer_counts``.

    Raises ``ContractViolation`` for non-integer weights, and for weights
    so large that a float64 accumulate of 0/1 spikes against them could
    round.
    """
    weights = []
    for l, q in enumerate(image.quantized):
        if q.dtype.kind not in "iu":
            raise ContractViolation(f"layer {l} weights have non-integer dtype {q.dtype}")
        peak = max(int(q.max()), -int(q.min())) if q.size else 0
        if q.shape[0] * peak >= 2**53:
            raise ContractViolation(
                f"layer {l}: {q.shape[0]} inputs x max|q| {peak} reaches 2**53; "
                "the accumulate would not be exact"
            )
        weights.append(q.astype(np.float64))
    return weights


def _integer_layers(
    image: ConfigImage, input_spikes: np.ndarray, weights: list[np.ndarray] | None = None
):
    """Integer LIF pass over all layers, one computing layer at a time.

    ``input_spikes`` is a (B, T, n_in) batch of 0/1 entries. This single
    integer core backs the protocol machine (a batch of one), batched twin
    evaluation and the twin's training pass. ``weights`` is
    ``exact_float_weights(image)``, made here when not given; the chip keeps
    its copy from the upload.

    Yields ``(spikes, u)`` per layer: the (B, T, n) float64 0/1 spikes and
    the int64 pre-reset potentials u_t = v_{t-1} - (v_{t-1} >> shift) + I_t,
    stored in the buffer that held the currents. The generator overwrites
    neither after yielding them.

    The accumulate ``spikes @ Q`` runs as a float64 BLAS matmul on the
    integer operands. Spikes are 0/1, so every partial sum, in any order,
    is an integer of magnitude at most n_in * max|Q|; below 2**53 each is
    exactly representable and the product equals the int64 one bit for bit,
    whatever the BLAS blocking or thread count. The leak, threshold and
    reset recurrence stays in int64.
    """
    x = np.asarray(input_spikes)
    if x.ndim != 3:
        raise ContractViolation(f"chip input must be a (B, T, n) batch, got {x.shape}")
    if not np.all((x == 0) | (x == 1)):
        raise ContractViolation("chip input spikes must be binary")
    if weights is None:
        weights = exact_float_weights(image)
    spikes = np.asarray(x, dtype=np.float64)
    B, T, _ = spikes.shape
    shift = image.leak_shift
    for w, thr in zip(weights, image.thresholds):
        cur = spikes.reshape(B * T, -1) @ w
        cur = cur.astype(np.int64).reshape(B, T, -1)
        v = np.zeros((B, w.shape[1]), dtype=np.int64)
        out = np.empty(cur.shape, dtype=np.float64)
        for t in range(T):
            v = v - (v >> shift) + cur[:, t, :]
            cur[:, t, :] = v
            s = v >= thr
            if image.reset == "subtract":
                v = v - thr * s
            else:
                v = v * ~s
            out[:, t, :] = s
        spikes = out
        yield out, cur


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

    constraints: ChipConstraints = field(default_factory=ChipConstraints)
    image: ConfigImage | None = None
    weights: list[np.ndarray] = field(default_factory=list)  # float64 copies of image.quantized
    readout: list[np.ndarray] = field(default_factory=list)
    interrupt: bool = False

    @property
    def configured(self) -> bool:
        return self.image is not None


def upload_config(chip: ChipModel, data: bytes | ConfigImage) -> ChipModel:
    """Install a config image: memories overwritten, neuron state zeroed,
    interrupt cleared. On any failure the chip is left unchanged."""
    image = parse_image(data) if isinstance(data, (bytes, bytearray)) else data
    violations = validate_constraints(image, chip.constraints)
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
# Optional framed byte transport (see docs/protocol.md for the bit layout)

FRAME_SOF = 0xA5
CMD_CONFIG_CHUNK = 0x01
_FRAME_PAYLOAD_MAX = 4096


def encode_frames(payload: bytes, cmd: int = CMD_CONFIG_CHUNK) -> list[bytes]:
    """Split a payload into checksummed frames: SOF, cmd, u32 offset,
    u32 total payload length, u16 chunk length, bytes, u32 crc32(frame body).

    Every transfer has at least one frame; an empty payload is one empty
    frame.
    """
    import struct as _struct
    import zlib as _zlib

    frames = []
    for off in range(0, max(len(payload), 1), _FRAME_PAYLOAD_MAX):
        chunk = payload[off : off + _FRAME_PAYLOAD_MAX]
        header = _struct.pack("<IIH", off, len(payload), len(chunk))
        body = bytes([FRAME_SOF, cmd]) + header + chunk
        frames.append(body + _struct.pack("<I", _zlib.crc32(body)))
    return frames


def decode_frames(frames: list[bytes]) -> bytes:
    """Reassemble framed chunks in any order, verifying structure and
    checksums. No frames, a missing or repeated offset, frames that disagree
    on the total length, or a reassembled payload of another length raise
    TransportError."""
    import struct as _struct
    import zlib as _zlib

    from .errors import TransportError

    if not frames:
        raise TransportError("no frames")
    parts: dict[int, bytes] = {}
    totals = set()
    for frame in frames:
        if len(frame) < 16 or frame[0] != FRAME_SOF:
            raise TransportError("malformed frame")
        body, crc = frame[:-4], _struct.unpack("<I", frame[-4:])[0]
        if _zlib.crc32(body) != crc:
            raise TransportError("frame checksum mismatch")
        off, total, length = _struct.unpack("<IIH", body[2:12])
        chunk = body[12:]
        if len(chunk) != length:
            raise TransportError("frame length mismatch")
        if off in parts:
            raise TransportError(f"duplicate frame at offset {off}")
        parts[off] = chunk
        totals.add(total)
    if len(totals) != 1:
        raise TransportError(f"frames disagree on the total length: {sorted(totals)}")
    out = bytearray()
    for off in sorted(parts):
        if off != len(out):
            raise TransportError("missing frame")
        out += parts[off]
    total = totals.pop()
    if len(out) != total:
        raise TransportError(f"reassembled {len(out)} bytes, frames declare {total}")
    return bytes(out)


# ---------------------------------------------------------------------------
# The chip's loss term


def upload_weights(
    chip: ChipModel, net: SpikingNetwork, spec: QuantSpec, task: int | None = None
) -> ConfigImage:
    """Quantize the current weights (the active head's view) and upload them."""
    image = quantize_network(net, spec, task)
    upload_config(chip, image)
    return image


def twin_loss(
    net: SpikingNetwork,
    x_enc: np.ndarray,
    labels: np.ndarray,
    loss_spec: LossSpec,
    quant_spec: QuantSpec,
    surrogate: SurrogateSpec,
    task: int | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """The chip's term mu*(alpha*H(y, chip) + beta*H(y, twin)) of one batch
    and its gradients, keyed by the external network's parameter names.

    The twin is the chip's integer pass on the current weights, quantized
    on every call; its counts are what the chip's registers latch, so both
    terms are one cross-entropy and the chip itself is not driven. Only the
    beta term carries gradients: BPTT on the pass's spikes and potentials
    times each layer's scale, straight through the rounding and the leak's
    floor (decay 1 - 2**-shift). At alpha = beta = 0 nothing is quantized;
    at beta = 0 no backward runs.
    """
    spec = loss_spec
    if spec.alpha == 0.0 and spec.beta == 0.0:
        return 0.0, {}
    image = quantize_network(net, quant_spec, task)
    weights = exact_float_weights(image)
    image.quantized = []  # the float64 codes stand in for them from here on
    x = np.asarray(x_enc, dtype=np.float64)
    spikes, pre_reset = [x], []
    for (s, u), scale in zip(_integer_layers(image, x, weights), image.scales):
        spikes.append(s)
        pre_reset.append(u * scale)
    ce, probs = softmax_cross_entropy_batch(spikes[-1].sum(axis=1), labels)
    loss = spec.mu * (spec.alpha + spec.beta) * ce
    if spec.beta == 0.0:
        return loss, {}
    for w, scale in zip(weights, image.scales):
        w *= scale  # in place: the same bits as q.astype(float64) * scale
    decay = 1.0 - 2.0 ** -image.leak_shift
    lifs = [
        LifParams(decay=decay, threshold=float(t) * scale, reset=image.reset)
        for t, scale in zip(image.thresholds, image.scales)
    ]
    twin = SpikingNetwork(list(image.layer_sizes), weights, lifs)
    trace = ForwardTrace(spikes, pre_reset, None, None)
    dlog = spec.mu * spec.beta * cross_entropy_grad(probs, labels)
    grads = backward_dlogits(twin, trace, dlog, surrogate)
    if net.multi_head:
        grads[f"head{task}"] = grads.pop(f"w{len(weights) - 1}")
    return loss, grads
