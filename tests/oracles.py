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
from spikecl.snn import LifParams, SpikingNetwork, forward
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


def lif_step(state: np.ndarray, input_current: np.ndarray, p: LifParams, surrogate=None):
    """One LIF update: leak, integrate, threshold, reset.

    Returns ``(new_state, spikes, pre_reset)``. Spikes are 0/1 floats, or the
    surrogate's relaxed activation when ``surrogate`` is given.
    """
    state = np.asarray(state, dtype=np.float64)
    input_current = np.asarray(input_current, dtype=np.float64)
    if state.shape != input_current.shape:
        raise ContractViolation("state and input current shapes differ")
    require_finite(input_current, "input current")
    u = p.decay * state + input_current
    if surrogate is None:
        spikes = (u >= p.threshold).astype(np.float64)
    else:
        spikes = surrogate.relaxed_activation(u - p.threshold)
    if p.reset == "subtract":
        v = u - p.threshold * spikes
    else:
        v = u * (1.0 - spikes)
    return v, spikes, u


def backward(net, trace, logits, labels, surrogate) -> dict[str, np.ndarray]:
    """Gradients of mean softmax cross-entropy w.r.t. every weight matrix."""
    _, probs = softmax_cross_entropy_batch(logits, labels)
    return backward_dlogits(net, trace, cross_entropy_grad(probs, labels), surrogate)


def bptt_oracle(net, trace, dlogits, surrogate) -> dict[str, np.ndarray]:
    """Surrogate BPTT with one freshly allocated array per expression, as
    ``train.backward_dlogits`` computed it before it worked in place."""
    matrices = list(net.weights)
    names = [f"w{l}" for l in range(len(net.weights))]
    if net.multi_head:
        matrices.append(net.heads[trace.task])
        names.append(f"head{trace.task}")
    L = len(matrices)
    B, T, _ = trace.spikes[0].shape
    d = np.atleast_2d(np.asarray(dlogits, dtype=np.float64))
    grads, ds_next = {}, None
    for l in range(L - 1, -1, -1):
        p = net.lif[l]
        u = trace.pre_reset[l]
        s = trace.spikes[l + 1]
        x = u - p.threshold
        if surrogate.shape == "fast-sigmoid":
            sd = 1.0 / (1.0 + surrogate.width * np.abs(x)) ** 2
        else:
            sd = (np.abs(x) <= surrogate.width) / (2.0 * surrogate.width)
        if p.reset == "subtract":
            dv_du = 1.0 - p.threshold * sd
        else:
            dv_du = (1.0 - s) - u * sd
        ds = np.broadcast_to(d[:, None, :], s.shape) if l == L - 1 else ds_next
        du = np.empty_like(u)
        dv = np.zeros((B, u.shape[2]))
        for t in range(T - 1, -1, -1):
            du_t = ds[:, t, :] * sd[:, t, :] + dv * dv_du[:, t, :]
            du[:, t, :] = du_t
            dv = p.decay * du_t
        if trace.gates is not None and l < L - 1:
            du = du * trace.gates[l]
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
    lifs = [
        LifParams(decay=decay, threshold=float(t) * s, reset=image.reset)
        for t, s in zip(image.thresholds, image.scales)
    ]
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


def encode(features: np.ndarray, spec: EncoderSpec, rng: RngStream | None = None) -> np.ndarray:
    """Spike train (T, n) for one sample. rate-poisson draws each step with
    probability feature * max_rate; direct-repeat thresholds at 0.5 and
    repeats (consuming no randomness)."""
    f = np.asarray(features, dtype=np.float64)
    if not np.all((f >= 0.0) & (f <= 1.0)):
        raise ContractViolation("features must lie in [0, 1]")
    if spec.kind == "direct-repeat":
        row = (f >= 0.5).astype(np.float64)
        return np.tile(row, (spec.timesteps, 1))
    if rng is None:
        raise ContractViolation("rate-poisson encoding requires an rng stream")
    return rng.bernoulli(f * spec.max_rate, (spec.timesteps, f.size))


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
