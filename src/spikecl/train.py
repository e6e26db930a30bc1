"""Surrogate-gradient backpropagation through time, losses, and optimizers.

The backward pass differentiates mean softmax cross-entropy on spike-count
logits with the step nonlinearity's derivative replaced by a surrogate
pseudo-derivative. Each surrogate also defines a smooth "relaxed" activation
whose true derivative equals that pseudo-derivative, so running forward and
backward in relaxed mode yields the exact gradient of a differentiable
model -- which is what the finite-difference oracle checks.

Gradients flow through the membrane recurrence without truncation (the
window is short) and through the reset term.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .numerics import (
    cross_entropy_grad,
    require_finite,
    softmax,
    softmax_cross_entropy,
    softmax_cross_entropy_batch,
)
from .snn import ForwardTrace, SpikingNetwork

SURROGATE_SHAPES = ("fast-sigmoid", "boxcar")
OPTIMIZER_KINDS = ("adam", "sgd-momentum")


@dataclass
class SurrogateSpec:
    """Pseudo-derivative family for the spike nonlinearity.

    ``width`` controls steepness (fast-sigmoid) or the support half-width
    (boxcar). ``relaxed_activation`` is the smooth stand-in whose derivative
    is exactly ``pseudo_derivative``.
    """

    shape: str = "fast-sigmoid"
    width: float = 2.0

    def __post_init__(self):
        if self.shape not in SURROGATE_SHAPES:
            raise ContractViolation(f"surrogate shape must be one of {SURROGATE_SHAPES}")
        if not (self.width > 0.0):
            raise ContractViolation("surrogate width must be > 0")

    def pseudo_derivative(self, x: np.ndarray) -> np.ndarray:
        if self.shape == "fast-sigmoid":
            return 1.0 / (1.0 + self.width * np.abs(x)) ** 2
        return (np.abs(x) <= self.width) / (2.0 * self.width)

    def relaxed_activation(self, x: np.ndarray) -> np.ndarray:
        if self.shape == "fast-sigmoid":
            return 0.5 + x / (1.0 + self.width * np.abs(x))
        return np.clip(0.5 + x / (2.0 * self.width), 0.0, 1.0)


@dataclass
class LossSpec:
    """Weights of the composite interaction loss, plus the distillation
    temperature used by the LwF baseline.

    ``lam`` scales the external-network term; ``mu`` gates the whole chip
    side; ``alpha`` and ``beta`` weight the chip readout and its simulated
    twin inside it.
    """

    lam: float = 1.0
    mu: float = 0.0
    alpha: float = 0.0
    beta: float = 1.0
    distill_temperature: float = 2.0

    def __post_init__(self):
        if min(self.lam, self.mu, self.alpha, self.beta) < 0.0:
            raise ContractViolation("loss weights must be nonnegative")
        if self.lam + self.mu <= 0.0:
            raise ContractViolation("lam + mu must be positive")
        if not (self.distill_temperature > 0.0):
            raise ContractViolation("distillation temperature must be > 0")


def composite_loss(y: int, yhat_enn, yhat_inn, yhat_sim, spec: LossSpec) -> float:
    """L = lam*H(y, enn) + mu*(alpha*H(y, inn) + beta*H(y, sim)).

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


def distillation_loss(old_logits, new_logits, temperature: float) -> float:
    """Cross-entropy between temperature-softened old and new distributions."""
    old = np.asarray(old_logits, dtype=np.float64).reshape(-1)
    new = np.asarray(new_logits, dtype=np.float64).reshape(-1)
    if old.shape != new.shape:
        raise ContractViolation("logit vectors must have equal length")
    if not (temperature > 0.0):
        raise ContractViolation("temperature must be > 0")
    p_old = softmax(old / temperature)
    z = new / temperature
    log_p_new = z - z.max() - np.log(np.exp(z - z.max()).sum())
    return float(-(p_old * log_p_new).sum())


def distillation_grad(old_logits: np.ndarray, new_logits: np.ndarray, temperature: float) -> np.ndarray:
    """d(mean distillation loss)/d(new logits) for a batch (B, K)."""
    p_old = softmax(np.asarray(old_logits, dtype=np.float64) / temperature)
    p_new = softmax(np.asarray(new_logits, dtype=np.float64) / temperature)
    return (p_new - p_old) / (temperature * p_new.shape[0])


def backward_dlogits(
    net: SpikingNetwork,
    trace: ForwardTrace,
    dlogits: np.ndarray,
    surrogate: SurrogateSpec,
) -> dict[str, np.ndarray]:
    """BPTT given the loss gradient at the spike-count logits.

    Returns gradients keyed like the network's parameters; in multi-head
    mode only the head active in ``trace`` appears.
    """
    matrices = list(net.weights)
    names = [f"w{l}" for l in range(len(net.weights))]
    if net.multi_head:
        matrices.append(net.heads[trace.task])
        names.append(f"head{trace.task}")
    L = len(matrices)
    B, T, _ = trace.spikes[0].shape
    d = np.asarray(dlogits, dtype=np.float64)
    if d.ndim == 1:
        d = d[None, :]
    if d.shape != (B, net.n_outputs()):
        raise ContractViolation(f"dlogits shape {d.shape} does not match trace")

    grads: dict[str, np.ndarray] = {}
    ds_next: np.ndarray | None = None  # dL/ds of the layer below, all timesteps
    for l in range(L - 1, -1, -1):
        p = net.lif[l]
        u = trace.pre_reset[l]
        s = trace.spikes[l + 1]
        sd = surrogate.pseudo_derivative(u - p.threshold)
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
        flat_prev = prev.reshape(B * T, -1)
        flat_du = du.reshape(B * T, -1)
        grads[names[l]] = flat_prev.T @ flat_du
        if l > 0:
            ds_next = (flat_du @ matrices[l].T).reshape(B, T, -1)
    return grads


def backward(
    net: SpikingNetwork,
    trace: ForwardTrace,
    logits: np.ndarray,
    labels,
    surrogate: SurrogateSpec,
) -> dict[str, np.ndarray]:
    """Gradients of mean softmax cross-entropy w.r.t. every weight matrix."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim == 1:
        z = z[None, :]
        labels = np.asarray([labels])
    _, probs = softmax_cross_entropy_batch(z, labels)
    return backward_dlogits(net, trace, cross_entropy_grad(probs, labels), surrogate)


# Rows per in-place optimizer block: a (128, 256) float64 block and its
# slots stay in L2 while every operation of the update runs over them.
_STEP_ROWS = 128


@dataclass
class OptimizerState:
    """Optimizer kind plus per-parameter accumulator slots.

    A parameter's slots are created, as float64 zeros of the weight's shape,
    on the first step that gives it a gradient; later steps update them in
    place.
    """

    kind: str = "adam"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    momentum: float = 0.9
    slots: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ContractViolation(f"optimizer kind must be one of {OPTIMIZER_KINDS}")
        if not (self.lr > 0.0):
            raise ContractViolation("learning rate must be > 0")


def optimizer_step(opt: OptimizerState, net: SpikingNetwork, grads: dict[str, np.ndarray]) -> None:
    """Apply one update in place; parameters without gradients are untouched.

    Weights, slots and the Adam step count change in place. A weight that is
    not a writeable C-contiguous float64 array is first replaced by a copy
    that is. Each block of rows goes through the textbook expressions with
    the same IEEE operations in the same order:

        adam:          m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
                       w = w - (lr * (m/(1-b1^t))) / (sqrt(v/(1-b2^t)) + eps)
        sgd-momentum:  buf = momentum*buf + g;  w = w - lr*buf
    """
    for name, g in grads.items():
        w = net.get_param(name)
        if g.shape != w.shape:
            raise ContractViolation(f"gradient {name} shape {g.shape} != weight {w.shape}")
        require_finite(g, f"gradient {name}")
        if not (w.dtype == np.float64 and w.flags.c_contiguous and w.flags.writeable):
            w = np.array(w, dtype=np.float64, order="C")
            net.set_param(name, w)
        slot = opt.slots.get(name)
        if opt.kind == "adam":
            if slot is None:
                slot = opt.slots[name] = {"m": np.zeros(w.shape), "v": np.zeros(w.shape), "t": 0}
            slot["t"] += 1
            _adam_rows(opt, w, g, slot["m"], slot["v"], slot["t"])
        else:
            if slot is None:
                slot = opt.slots[name] = {"buf": np.zeros(w.shape)}
            _momentum_rows(opt, w, g, slot["buf"])


def _adam_rows(opt: OptimizerState, w, g, m, v, t: int) -> None:
    c1 = 1.0 - opt.beta1 ** t
    c2 = 1.0 - opt.beta2 ** t
    num = np.empty((min(_STEP_ROWS, w.shape[0]),) + w.shape[1:])
    den = np.empty_like(num)
    for r in range(0, w.shape[0], _STEP_ROWS):
        rows = slice(r, r + _STEP_ROWS)
        wb, gb, mb, vb = w[rows], g[rows], m[rows], v[rows]
        nb, db = num[: len(wb)], den[: len(wb)]
        np.multiply(gb, 1.0 - opt.beta1, out=nb)
        mb *= opt.beta1
        mb += nb
        np.multiply(gb, 1.0 - opt.beta2, out=db)
        db *= gb
        vb *= opt.beta2
        vb += db
        np.divide(mb, c1, out=nb)
        nb *= opt.lr
        np.divide(vb, c2, out=db)
        np.sqrt(db, out=db)
        db += opt.eps
        nb /= db
        wb -= nb


def _momentum_rows(opt: OptimizerState, w, g, buf) -> None:
    step = np.empty((min(_STEP_ROWS, w.shape[0]),) + w.shape[1:])
    for r in range(0, w.shape[0], _STEP_ROWS):
        rows = slice(r, r + _STEP_ROWS)
        wb, bb = w[rows], buf[rows]
        sb = step[: len(wb)]
        bb *= opt.momentum
        bb += g[rows]
        np.multiply(bb, opt.lr, out=sb)
        wb -= sb
