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
from .numerics import require_finite, softmax
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

    def pseudo_derivative(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """1 / (1 + width*|x|)**2 (fast-sigmoid) or (|x| <= width) / (2*width)
        (boxcar), built in ``out`` (which may be ``x``) with one pass per
        operation of that expression."""
        out = np.abs(x, out=np.empty(np.shape(x)) if out is None else out)
        if self.shape == "fast-sigmoid":
            out *= self.width
            out += 1.0
            np.square(out, out=out)
            return np.divide(1.0, out, out=out)
        np.less_equal(out, self.width, out=out)
        out /= 2.0 * self.width
        return out

    def relaxed_activation(self, x: np.ndarray) -> np.ndarray:
        if self.shape == "fast-sigmoid":
            return 0.5 + x / (1.0 + self.width * np.abs(x))
        return np.clip(0.5 + x / (2.0 * self.width), 0.0, 1.0)


@dataclass
class LossSpec:
    """Weights of the composite interaction loss, plus the distillation
    temperature used by the LwF baseline.

    ``lam`` scales the external network's cross-entropy in every run, with
    or without the chip; ``mu`` gates the whole chip side; ``alpha`` and
    ``beta`` weight the chip readout and its simulated twin inside it.
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


def distillation_loss(old_logits, new_logits, temperature: float) -> float:
    """Cross-entropy between temperature-softened old and new distributions.

    Takes one sample's logits (K,) or a batch (B, K); a batch gives the mean
    of its per-sample losses.
    """
    old = np.atleast_2d(np.asarray(old_logits, dtype=np.float64))
    new = np.atleast_2d(np.asarray(new_logits, dtype=np.float64))
    if old.shape != new.shape or old.ndim != 2:
        raise ContractViolation("logits must be equal-shape (K,) vectors or (B, K) batches")
    if not (temperature > 0.0):
        raise ContractViolation("temperature must be > 0")
    p_old = softmax(old / temperature)
    z = new / temperature
    z = z - z.max(axis=1, keepdims=True)
    log_p_new = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-(p_old * log_p_new).sum(axis=1).mean())


def distillation_grad(old_logits: np.ndarray, new_logits: np.ndarray, temperature: float) -> np.ndarray:
    """d(mean distillation loss)/d(new logits) for a batch (B, K)."""
    p_old = softmax(np.asarray(old_logits, dtype=np.float64) / temperature)
    p_new = softmax(np.asarray(new_logits, dtype=np.float64) / temperature)
    return (p_new - p_old) / (temperature * p_new.shape[0])


def backward_layers(
    net: SpikingNetwork,
    trace: ForwardTrace,
    dlogits: np.ndarray,
    surrogate: SurrogateSpec,
):
    """BPTT given the loss gradient at the spike-count logits, layer by layer.

    Yields ``(name, prev, du)`` from the output layer down: the parameter
    name, that layer's input spikes ``prev`` (B, T, m) and the loss gradient
    ``du`` (B, T, n) at its pre-reset potentials. The weight gradient of
    sample b is ``prev[b].T @ du[b]``; the batch gradient sums that over b.
    ``du`` also feeds the next layer down, so consumers must not write to
    it. In multi-head mode only the head active in ``trace`` appears.

    The recurrence steps over contiguous (B, n) slices of time-major
    (T, B, n) storage, like the forward's (see ``snn.forward``); ``du`` is
    then copied into (b, t) order, in which every product is formed.
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

    ds_next: np.ndarray | None = None  # dL/ds of the layer below, (T, B, n) view
    for l in range(L - 1, -1, -1):
        p = net.lif[l]
        u = trace.pre_reset[l].transpose(1, 0, 2)
        ds = np.broadcast_to(d, u.shape) if l == L - 1 else ds_next
        # du_t = ds_t*sd_t + dv*dv_du_t with dv = decay*du_{t+1}: form the
        # first product for every step at once, then add the recurrence.
        sd = np.subtract(u, p.threshold)
        surrogate.pseudo_derivative(sd, out=sd)
        du = np.multiply(ds, sd, out=np.empty(u.shape))
        if p.reset == "subtract":  # dv_du = 1 - threshold*sd, over sd
            sd *= p.threshold
            dv_du = np.subtract(1.0, sd, out=sd)
        else:  # dv_du = (1 - s) - u*sd
            sd *= u
            s = trace.spikes[l + 1].transpose(1, 0, 2)
            dv_du = np.subtract(1.0, s, out=np.empty(u.shape))
            dv_du -= sd
        dv = np.zeros((B, u.shape[2]))
        for t in range(T - 1, -1, -1):
            du_t = du[t]
            dv *= dv_du[t]
            du_t += dv
            np.multiply(du_t, p.decay, out=dv)
        if trace.gates is not None and l < L - 1:
            du *= trace.gates[l]
        du = np.ascontiguousarray(du.transpose(1, 0, 2))

        yield names[l], trace.spikes[l], du
        if l > 0:
            ds_next = (du.reshape(B * T, -1) @ matrices[l].T).reshape(B, T, -1).transpose(1, 0, 2)


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
    grads: dict[str, np.ndarray] = {}
    for name, prev, du in backward_layers(net, trace, dlogits, surrogate):
        rows = prev.shape[0] * prev.shape[1]
        grads[name] = prev.reshape(rows, -1).T @ du.reshape(rows, -1)
    return grads


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
