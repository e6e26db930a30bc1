"""Single-sample reference implementations and file helpers that only the
tests use."""

import os

import numpy as np

from spikecl.chip import chip_twin_counts, quantize_network
from spikecl.data import IDX_MAGIC_IMAGES, IDX_MAGIC_LABELS, EncoderSpec, IdxFile, serialize_idx
from spikecl.errors import ContractViolation
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


def composite_loss(y: int, yhat_enn, yhat_inn, yhat_sim, spec) -> float:
    """L = lam*H(y, enn) + mu*(alpha*H(y, inn) + beta*H(y, sim)) for one sample.

    With ``mu == 0`` the chip-side predictions are ignored entirely (fully
    external training), so the result is exactly lam*H(y, enn).
    """
    enn = np.asarray(yhat_enn, dtype=np.float64).reshape(-1)
    loss_enn, _ = softmax_cross_entropy(enn, y)
    if spec.mu == 0.0:
        return spec.lam * loss_enn
    inn = np.asarray(yhat_inn, dtype=np.float64).reshape(-1)
    sim = np.asarray(yhat_sim, dtype=np.float64).reshape(-1)
    if inn.shape != enn.shape or sim.shape != enn.shape:
        raise ContractViolation("prediction vectors must share the class count")
    loss_inn, _ = softmax_cross_entropy(inn, y)
    loss_sim, _ = softmax_cross_entropy(sim, y)
    return spec.lam * loss_enn + spec.mu * (spec.alpha * loss_inn + spec.beta * loss_sim)


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
    """``chip.twin_loss`` as it was computed through a float twin: the chip
    term from the integer counts (the registers), the twin term and its
    gradients from a float forward and BPTT of the dequantized image.
    Returns ``(loss, grads, trace)`` with the float twin's trace."""
    spec = loss_spec
    image = quantize_network(net, quant_spec, task)
    chip_counts = chip_twin_counts(image, x_enc).astype(np.float64)
    ce_inn, _ = softmax_cross_entropy_batch(chip_counts, labels)
    sim_net = dequantize_to_network(image)
    trace, logits = forward(sim_net, x_enc)
    ce_s, probs = softmax_cross_entropy_batch(logits, labels)
    loss = spec.mu * (spec.alpha * ce_inn + spec.beta * ce_s)
    dlog = spec.mu * spec.beta * cross_entropy_grad(probs, labels)
    twin_grads = backward_dlogits(sim_net, trace, dlog, surrogate)
    grads = {}
    last = len(sim_net.weights) - 1
    for l in range(len(sim_net.weights)):
        name = f"head{task}" if net.multi_head and l == last else f"w{l}"
        grads[name] = twin_grads[f"w{l}"]
    return loss, grads, trace


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
