"""Single-sample reference implementations and file helpers that only the
tests use."""

import os
import struct
import zlib

import numpy as np

from spikecl.chip import quantize_network
from spikecl.container import write_bundle
from spikecl.data import IDX_MAGIC_IMAGES, IDX_MAGIC_LABELS, EncoderSpec, IdxFile
from spikecl.errors import ContractViolation, TransportError
from spikecl.numerics import cross_entropy_grad, require_finite, softmax_cross_entropy_batch
from spikecl.rng import RngStream
from spikecl.snn import ForwardTrace, LifParams, SpikingNetwork, forward
from spikecl.train import backward_dlogits


# The shipped networks as (layer sizes, head size or None, batch): split
# digits (784-256-256, one 2-way head per task) at the training batch, at
# an odd batch (a pooled joint batch splits into per-task batches of any
# size) and at a larger one, and drift (64-256-256-8, single head) at a
# 200-sample test day.
SHIPPED_SHAPES = {
    "784-256-256-2-B16": ([784, 256, 256], 2, 16),
    "784-256-256-2-B7": ([784, 256, 256], 2, 7),
    "784-256-256-2-B60": ([784, 256, 256], 2, 60),
    "64-256-256-8-B200": ([64, 256, 256, 8], None, 200),
}


# The two widths the bit-for-bit oracle tests run a network in: float32,
# the width ``runner.build_network`` trains in, and float64.
DTYPES = {"float32": np.float32, "float64": np.float64}


def cast_network(net: SpikingNetwork, dtype) -> SpikingNetwork:
    """``net`` with every weight and head rounded to ``dtype``, in place,
    as ``runner.build_network`` rounds ``init_network``'s draws."""
    net.weights = [w.astype(dtype) for w in net.weights]
    if net.heads is not None:
        net.heads = [h.astype(dtype) for h in net.heads]
    return net


def softmax(logits: np.ndarray) -> np.ndarray:
    """Probability vector (or row-wise for 2-D input), max-subtracted."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits, label: int) -> tuple[float, np.ndarray]:
    """Cross-entropy of softmax(logits) against a class index.

    Returns ``(loss, probs)`` with ``loss = -log probs[label] >= 0``,
    computed as ``logsumexp(z - max) - (z[label] - max)``.
    """
    z = np.asarray(logits, dtype=np.float64).reshape(-1)
    if z.size == 0:
        raise ContractViolation("empty logits")
    if not (0 <= int(label) < z.size):
        raise ContractViolation(f"label {label} out of range for {z.size} classes")
    require_finite(z, "logits")
    m = z.max()
    shifted = z - m
    lse = float(np.log(np.exp(shifted).sum()))
    loss = lse - float(shifted[int(label)])
    probs = np.exp(shifted - lse)
    return loss, probs


def composite_loss(y: int, yhat_enn, yhat_chip, spec) -> float:
    """L = lam*H(y, enn) + mu*H(y, chip) for one sample.

    With ``mu == 0`` the chip's prediction is ignored entirely (fully
    external training), so the result is exactly lam*H(y, enn).
    """
    enn = np.asarray(yhat_enn, dtype=np.float64).reshape(-1)
    loss_enn, _ = softmax_cross_entropy(enn, y)
    if spec.mu == 0.0:
        return spec.lam * loss_enn
    chip = np.asarray(yhat_chip, dtype=np.float64).reshape(-1)
    if chip.shape != enn.shape:
        raise ContractViolation("prediction vectors must share the class count")
    loss_chip, _ = softmax_cross_entropy(chip, y)
    return spec.lam * loss_enn + spec.mu * loss_chip


def relaxed_activation(surrogate, x: np.ndarray) -> np.ndarray:
    """The smooth stand-in for the spike nonlinearity whose derivative is
    exactly ``surrogate.pseudo_derivative``."""
    return 0.5 + x / (1.0 + surrogate.width * np.abs(x))


def lif_step(state: np.ndarray, input_current: np.ndarray, p: LifParams, surrogate=None):
    """One LIF update: leak, integrate, threshold, subtractive reset.

    Returns ``(new_state, spikes, pre_reset)``. Spikes are 0/1 floats, or the
    surrogate's relaxed activation when ``surrogate`` is given. Everything
    is computed in float32 for a float32 input current, else in float64.
    """
    input_current = np.asarray(input_current)
    dtype = np.float32 if input_current.dtype == np.float32 else np.float64
    input_current = input_current.astype(dtype, copy=False)
    state = np.asarray(state, dtype=dtype)
    if state.shape != input_current.shape:
        raise ContractViolation("state and input current shapes differ")
    require_finite(input_current, "input current")
    u = p.decay * state + input_current
    if surrogate is None:
        spikes = (u >= p.threshold).astype(dtype)
    else:
        spikes = relaxed_activation(surrogate, u - p.threshold)
    return u - p.threshold * spikes, spikes, u


def relaxed_forward(net, input_spikes, surrogate, task=None):
    """``snn.forward`` with the relaxed activation in place of every hard
    threshold: a differentiable network, whose exact gradient BPTT gives.

    Each layer's currents are multiplied in (b, t) row order, as in
    ``forward``, and ``lif_step`` is stepped over t, in the dtype of the
    first weight matrix. Returns ``(trace, logits)``.
    """
    x = np.asarray(input_spikes, dtype=net.weights[0].dtype)
    B, T, _ = x.shape
    matrices = list(net.weights) + ([net.heads[task]] if net.multi_head else [])
    spikes, pre_reset = [x], []
    for l, w in enumerate(matrices):
        cur = (spikes[-1].reshape(B * T, -1) @ w).reshape(B, T, -1)
        v = np.zeros((B, w.shape[1]), dtype=x.dtype)
        s, u = np.empty_like(cur), np.empty_like(cur)
        for t in range(T):
            v, s[:, t], u[:, t] = lif_step(v, cur[:, t], net.lif[l], surrogate)
        spikes.append(s)
        pre_reset.append(u)
    return ForwardTrace(spikes, pre_reset, task), spikes[-1].sum(axis=1)


def backward(net, trace, logits, labels, surrogate) -> dict[str, np.ndarray]:
    """Gradients of mean softmax cross-entropy w.r.t. every weight matrix."""
    _, probs = softmax_cross_entropy_batch(logits, labels)
    return backward_dlogits(net, trace, cross_entropy_grad(probs, labels), surrogate)


def bptt_oracle(net, trace, dlogits, surrogate) -> dict[str, np.ndarray]:
    """Surrogate BPTT with one freshly allocated array per expression, as
    ``train.backward_dlogits`` computed it before it worked in place, in
    the dtype of the trace's potentials."""
    matrices = list(net.weights)
    names = [f"w{l}" for l in range(len(net.weights))]
    if net.multi_head:
        matrices.append(net.heads[trace.task])
        names.append(f"head{trace.task}")
    L = len(matrices)
    B, T, _ = trace.spikes[0].shape
    dtype = trace.pre_reset[0].dtype
    d = np.atleast_2d(np.asarray(dlogits, dtype=dtype))
    grads, ds_next = {}, None
    for l in range(L - 1, -1, -1):
        p = net.lif[l]
        u = trace.pre_reset[l]
        s = trace.spikes[l + 1]
        x = u - p.threshold
        sd = 1.0 / (1.0 + surrogate.width * np.abs(x)) ** 2
        dv_du = 1.0 - p.threshold * sd
        ds = np.broadcast_to(d[:, None, :], s.shape) if l == L - 1 else ds_next
        du = np.empty_like(u)
        dv = np.zeros((B, u.shape[2]), dtype=dtype)
        for t in range(T - 1, -1, -1):
            du_t = ds[:, t, :] * sd[:, t, :] + dv * dv_du[:, t, :]
            du[:, t, :] = du_t
            dv = p.decay * du_t
        prev = trace.spikes[l]
        grads[names[l]] = prev.reshape(B * T, -1).T @ du.reshape(B * T, -1)
        if l > 0:
            ds_next = (du.reshape(B * T, -1) @ matrices[l].T).reshape(B, T, -1)
    return grads


def dequantize_to_network(image) -> SpikingNetwork:
    """Float twin of a config image: dequantized weights, the leak
    1 - 2**-shift in place of the chip's floored shift, and rescaled
    thresholds."""
    decay = 1.0 - 2.0 ** -image.leak_shift
    weights = [q.astype(np.float64) * s for q, s in zip(image.quantized, image.scales)]
    lifs = [LifParams(decay, float(t) * s) for t, s in zip(image.thresholds, image.scales)]
    return SpikingNetwork(list(image.layer_sizes), weights, lifs, None, None)


def float_twin_loss(net, x_enc, labels, loss_spec, quant_spec, surrogate, task=None):
    """``chip.twin_loss`` as it was computed through a float twin: the term
    mu*H(y, twin) and its gradients from a float forward and BPTT of the
    dequantized image. Returns ``(loss, grads, trace)`` with the float
    twin's trace."""
    mu = loss_spec.mu
    image = quantize_network(net, quant_spec, task)
    sim_net = dequantize_to_network(image)
    trace, logits = forward(sim_net, x_enc)
    ce_s, probs = softmax_cross_entropy_batch(logits, labels)
    twin_grads = backward_dlogits(sim_net, trace, mu * cross_entropy_grad(probs, labels), surrogate)
    grads = {}
    last = len(sim_net.weights) - 1
    for l in range(len(sim_net.weights)):
        name = f"head{task}" if net.multi_head and l == last else f"w{l}"
        grads[name] = twin_grads[f"w{l}"]
    return mu * ce_s, grads, trace


def ewc_penalty_oracle(tasks, net, strength) -> tuple[float, dict[str, np.ndarray]]:
    """Kirkpatrick et al.'s EWC penalty as one quadratic per finished task.

    ``tasks`` is a sequence of (fisher, anchor) dicts. In task order, each
    adds strength * F * (theta - a) to the gradient, which starts from 0.0,
    and (strength/2) * sum F * (theta - a)^2 to the loss.
    """
    loss, grads = 0.0, {}
    for fisher, anchor in tasks:
        for name, f in fisher.items():
            diff = net.get_param(name) - anchor[name]
            grads[name] = grads.get(name, 0.0) + strength * f * diff
            loss += 0.5 * strength * float((f * diff * diff).sum())
    return loss, grads


def accuracy_from_logits(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class
    index (np.argmax returns the first maximum)."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if z.ndim != 2 or z.shape[0] == 0:
        raise ContractViolation("logits must be a nonempty (N, K) array")
    if y.shape != (z.shape[0],):
        raise ContractViolation("labels do not match predictions")
    return float((z.argmax(axis=1) == y).mean())


def encode(features: np.ndarray, spec: EncoderSpec, rng: RngStream) -> np.ndarray:
    """Spike train (T, n) for one sample: each step spikes with probability
    feature * max_rate."""
    f = np.asarray(features, dtype=np.float64)
    if not np.all((f >= 0.0) & (f <= 1.0)):
        raise ContractViolation("features must lie in [0, 1]")
    return rng.bernoulli(f * spec.max_rate, (spec.timesteps, f.size))


def balanced_subset_oracle(y: np.ndarray, cap: int | None) -> np.ndarray:
    """``data._balanced_subset`` one row at a time: the first cap // classes
    rows of each class, then the earliest rows not yet kept until cap rows
    are kept, in row order."""
    if cap is None or len(y) <= cap:
        return np.arange(len(y))
    classes = np.unique(y)
    keep = np.zeros(len(y), dtype=bool)
    for c in classes:
        keep[np.flatnonzero(y == c)[: cap // len(classes)]] = True
    extra = cap - int(keep.sum())
    for i in range(len(y)):
        if extra == 0:
            break
        if not keep[i]:
            keep[i] = True
            extra -= 1
    return np.flatnonzero(keep)


def serialize_idx(idx: IdxFile) -> bytes:
    """Inverse of load_idx; byte-exact for well-formed files."""
    out = struct.pack(">I", idx.magic)
    out += struct.pack(f">{len(idx.dims)}I", *idx.dims)
    return out + idx.data.astype(np.uint8).tobytes()


def write_idx(path, idx: IdxFile) -> None:
    with open(path, "wb") as f:
        f.write(serialize_idx(idx))


def corpus_to_idx(xs: np.ndarray, ys: np.ndarray) -> tuple[IdxFile, IdxFile]:
    """Package a rendered (n, 784) corpus as IDX image/label files."""
    n = len(ys)
    img = IdxFile(IDX_MAGIC_IMAGES, (n, 28, 28), np.round(xs * 255.0).astype(np.uint8).ravel())
    lab = IdxFile(IDX_MAGIC_LABELS, (n,), ys.astype(np.uint8))
    return img, lab


def export_drift_csv(stream, out_dir) -> list[str]:
    """Per-day CSV dump (feature columns + label) for cross-checking."""
    paths = []
    for i, task in enumerate(stream.tasks, start=1):
        path = os.path.join(out_dir, f"drift_day{i}.csv")
        with open(path, "w") as f:
            cols = [f"f{j}" for j in range(task.train_x.shape[1])] + ["label"]
            f.write(",".join(cols) + "\n")
            for x, y in zip(task.train_x, task.train_y):
                f.write(",".join(repr(v) for v in x) + f",{int(y)}\n")
        paths.append(path)
    return paths


def write_mask_dump(path, mask) -> None:
    """Persist a potential mask for post-hoc analysis (bundle container).

    The container stores float64 and int64 arrays only, so hard (bool)
    values are written as float64 0/1.
    """
    meta = {"kind": "potential-mask", "version": 1, "mode": mask.mode, "threshold": mask.threshold}
    write_bundle(path, meta, {k: v.astype(np.float64) for k, v in mask.values.items()})


def param_names(net: SpikingNetwork) -> list[str]:
    """The network's parameter names: ``w{l}`` per matrix, then ``head{t}``."""
    names = [f"w{l}" for l in range(len(net.weights))]
    if net.heads is not None:
        names += [f"head{t}" for t in range(len(net.heads))]
    return names


def seed_base(stream: RngStream) -> int:
    """The stream's base word, mix64(seed) or a fork's derived base."""
    return stream._base


# Framed byte transport for config images and other payloads; the bit layout
# is in docs/protocol.md.

FRAME_SOF = 0xA5
CMD_CONFIG_CHUNK = 0x01
_FRAME_PAYLOAD_MAX = 4096


def encode_frames(payload: bytes, cmd: int = CMD_CONFIG_CHUNK) -> list[bytes]:
    """Split a payload into checksummed frames: SOF, cmd, u32 offset,
    u32 total payload length, u16 chunk length, bytes, u32 crc32(frame body).

    Every transfer has at least one frame; an empty payload is one empty
    frame.
    """
    frames = []
    for off in range(0, max(len(payload), 1), _FRAME_PAYLOAD_MAX):
        chunk = payload[off : off + _FRAME_PAYLOAD_MAX]
        header = struct.pack("<IIH", off, len(payload), len(chunk))
        body = bytes([FRAME_SOF, cmd]) + header + chunk
        frames.append(body + struct.pack("<I", zlib.crc32(body)))
    return frames


def decode_frames(frames: list[bytes]) -> bytes:
    """Reassemble framed chunks in any order, verifying structure and
    checksums. No frames, a missing or repeated offset, frames that disagree
    on the total length, or a reassembled payload of another length raise
    TransportError."""
    if not frames:
        raise TransportError("no frames")
    parts: dict[int, bytes] = {}
    totals = set()
    for frame in frames:
        if len(frame) < 16 or frame[0] != FRAME_SOF:
            raise TransportError("malformed frame")
        body, crc = frame[:-4], struct.unpack("<I", frame[-4:])[0]
        if zlib.crc32(body) != crc:
            raise TransportError("frame checksum mismatch")
        off, total, length = struct.unpack("<IIH", body[2:12])
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
