"""Surrogate-gradient backpropagation through time, losses, and the optimizer.

The backward pass differentiates mean softmax cross-entropy on spike-count
logits with the step nonlinearity's derivative replaced by a surrogate
pseudo-derivative. Gradients flow through the membrane recurrence without
truncation (the window is short) and through the subtractive reset.

Where the spikes are a smooth function of u - threshold whose derivative
is exactly that pseudo-derivative, the same pass gives the exact gradient;
the finite-difference checks rely on this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .numerics import require_finite
from .snn import ForwardTrace, SpikingNetwork


@dataclass
class SurrogateSpec:
    """The fast-sigmoid pseudo-derivative of the spike nonlinearity
    (SuperSpike; Zenke & Ganguli, Neural Computation 2018).

    ``width`` controls its steepness.
    """

    width: float = 2.0

    def __post_init__(self):
        if not (self.width > 0.0):
            raise ContractViolation("surrogate width must be > 0")

    def pseudo_derivative(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """1 / (1 + width*|x|)**2, built in ``out`` (which may be ``x``)
        with one pass per operation of that expression."""
        out = np.abs(x, out=np.empty(np.shape(x)) if out is None else out)
        out *= self.width
        out += 1.0
        np.square(out, out=out)
        return np.divide(1.0, out, out=out)


@dataclass
class LossSpec:
    """Weights of the composite interaction loss
    L = lam*H(y, external) + mu*H(y, chip).

    ``lam`` scales the external network's cross-entropy in every run, with
    or without the chip; ``mu`` scales the cross-entropy of the chip's
    integer pass, which only a chip run adds (``chip.twin_loss``).
    """

    lam: float = 1.0
    mu: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.lam) and math.isfinite(self.mu)):
            raise ConfigurationError(f"loss.lam and loss.mu must be finite, got {self.lam}, {self.mu}")
        if min(self.lam, self.mu) < 0.0:
            raise ContractViolation("loss weights must be nonnegative")
        if self.lam + self.mu <= 0.0:
            raise ContractViolation("lam + mu must be positive")


def backward_layers(
    net: SpikingNetwork,
    trace: ForwardTrace,
    dlogits: np.ndarray,
    surrogate: SurrogateSpec,
):
    """BPTT given the loss gradient (B, K) at the spike-count logits, layer by layer.

    Yields ``(name, prev, du)`` from the output layer down: the parameter
    name, that layer's input spikes ``prev`` (B, T, m) and the loss gradient
    ``du`` (B, T, n) at its pre-reset potentials. The weight gradient of
    sample b is ``prev[b].T @ du[b]``; the batch gradient sums that over b.
    ``du`` also feeds the next layer down, so consumers must not write to
    it. In multi-head mode only the head active in ``trace`` appears.

    The recurrence steps over contiguous (B, n) slices of time-major
    (T, B, n) storage, like the forward's (see ``snn.forward``); ``du`` is
    then copied into (b, t) order, in which every product is formed. The
    pass computes in the dtype of the trace's potentials, and ``dlogits``
    is cast to it.
    """
    matrices = list(net.weights)
    names = [f"w{l}" for l in range(len(net.weights))]
    if net.multi_head:
        matrices.append(net.heads[trace.task])
        names.append(f"head{trace.task}")
    L = len(matrices)
    B, T, _ = trace.spikes[0].shape
    dtype = trace.pre_reset[0].dtype
    d = np.asarray(dlogits, dtype=dtype)
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
        du = np.multiply(ds, sd, out=np.empty(u.shape, dtype=dtype))
        # the reset v = u - threshold*s gives dv_du = 1 - threshold*sd, over sd
        sd *= p.threshold
        dv_du = np.subtract(1.0, sd, out=sd)
        dv = np.zeros((B, u.shape[2]), dtype=dtype)
        for t in range(T - 1, -1, -1):
            du_t = du[t]
            dv *= dv_du[t]
            du_t += dv
            np.multiply(du_t, p.decay, out=dv)
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


def add_grads(grads: dict[str, np.ndarray], extra: dict[str, np.ndarray] | None) -> None:
    """Add ``extra`` into ``grads``. A first gradient is stored uncopied;
    later ones are summed into it in place (``+=`` has the bits of ``+``).

    ``grads`` takes ownership of ``extra``'s arrays, so callers pass only
    fresh arrays that nothing else holds: BPTT's (``backward_dlogits``),
    ``chip.twin_loss``'s and ``regularizer_penalty``'s.
    """
    for name, g in (extra or {}).items():
        if name in grads:
            grads[name] += g
        else:
            grads[name] = g


# Rows per in-place optimizer block: a (128, 256) block of a float32
# weight (128 KB; 256 KB in float64) and its slots stay in L2 while every
# operation of the update runs over them.
_STEP_ROWS = 128


@dataclass
class OptimizerState:
    """Adam's hyperparameters plus per-parameter moment slots.

    A parameter's slots are created, as zeros of the weight's shape and
    dtype (float32 in training), on the first step that gives it a
    gradient; later steps update them in place.
    """

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    slots: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (self.lr > 0.0):
            raise ContractViolation("learning rate must be > 0")


def optimizer_step(opt: OptimizerState, net: SpikingNetwork, grads: dict[str, np.ndarray]) -> None:
    """Apply one Adam update in place; parameters without gradients are untouched.

    Weights, slots and the step count change in place. A float32 weight
    stays float32 and is updated in float32; any other weight is float64. A
    weight that is not a writeable C-contiguous array of its width is first
    replaced by a copy that is. Each block of rows goes through the
    textbook expressions with the same IEEE operations in the same order:

        m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        w = w - (lr * (m/(1-b1^t))) / (sqrt(v/(1-b2^t)) + eps)
    """
    for name, g in grads.items():
        w = net.get_param(name)
        if g.shape != w.shape:
            raise ContractViolation(f"gradient {name} shape {g.shape} != weight {w.shape}")
        require_finite(g, f"gradient {name}")
        dtype = np.float32 if w.dtype == np.float32 else np.float64
        if not (w.dtype == dtype and w.flags.c_contiguous and w.flags.writeable):
            w = np.array(w, dtype=dtype, order="C")
            net.set_param(name, w)
        slot = opt.slots.get(name)
        if slot is None:
            slot = opt.slots[name] = {"m": np.zeros_like(w), "v": np.zeros_like(w), "t": 0}
        slot["t"] += 1
        _adam_rows(opt, w, g, slot["m"], slot["v"], slot["t"])


def _adam_rows(opt: OptimizerState, w, g, m, v, t: int) -> None:
    c1 = 1.0 - opt.beta1 ** t
    c2 = 1.0 - opt.beta2 ** t
    num = np.empty((min(_STEP_ROWS, w.shape[0]),) + w.shape[1:], dtype=w.dtype)
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
