"""Incremental-learning strategies behind one hook interface.

The consolidation method works on coincidence statistics: while a task is
learned, each synapse accumulates the product of its pre- and post-synaptic
firing rates, averaged over training samples. The running elementwise
maximum of those per-task statistics yields a plasticity potential per
synapse -- continuous (``soft``: P = 1 - max) or thresholded binary
(``hard``) -- which multiplies every raw gradient update. Synapses that
fired together for an earlier task stop moving; the rest stay free to learn.

Baselines (EWC, SI) and the none/joint reference modes expose the same
four training-loop hooks: before_task, batch_loss, grad_transform,
after_task. On the first task every strategy is a bit-exact no-op
relative to ``none``. The final task of a stream is not consolidated:
consolidation protects a task against later ones, and none follow it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .numerics import matmul, softmax_cross_entropy_batch
from .snn import SpikingNetwork, forward, record_firing_rates
from .train import SurrogateSpec, backward_dlogits, backward_layers

# Nothing here calls ``backward`` or ``backward_dlogits``. bench/tracer.py
# still times both names in ``spikecl.continual`` and warns when a patch
# point is missing, so they stay bound, to a function it can wrap, until the
# benchmark drops those points.
backward = backward_dlogits

STRATEGIES = ("none", "joint", "hwc-soft", "hwc-hard", "ewc", "si")


@dataclass
class TaskContext:
    """Position inside an incremental run: current task and epoch.

    In the final task (``is_final_task``) strategies keep no consolidation
    state: no later task reads it.
    """

    task: int
    total_tasks: int
    epoch: int = 0
    total_epochs: int = 1

    def __post_init__(self):
        if not (1 <= self.task <= self.total_tasks):
            raise ContractViolation(f"task {self.task} outside 1..{self.total_tasks}")

    @property
    def is_final_epoch(self) -> bool:
        return self.epoch == self.total_epochs - 1

    @property
    def is_final_task(self) -> bool:
        return self.task == self.total_tasks


# ---------------------------------------------------------------------------
# Hebbian consolidation primitives


class HebbianAccumulator:
    """Per-synapse running sum of pre*post firing-rate products for one task."""

    def __init__(self, shape: tuple[int, int]):
        self.sums = np.zeros(shape)
        self.count = 0


def accumulate_hebbian(acc: HebbianAccumulator, pre_rates: np.ndarray, post_rates: np.ndarray) -> HebbianAccumulator:
    """Add sample contributions f_pre (x) f_post to the accumulator.

    Takes a batch of rates, (B, m) before and (B, n) after the synapses;
    samples are summed in index order, bit-identical to adding them one by
    one. ``finalize_hebbian`` divides by the sample count afterwards.
    """
    pre = np.asarray(pre_rates, dtype=np.float64)
    post = np.asarray(post_rates, dtype=np.float64)
    if pre.ndim != 2 or post.ndim != 2:
        raise ContractViolation("rates must be (B, n) batches")
    for r in (pre, post):
        if not np.all((r >= 0.0) & (r <= 1.0)):
            raise ContractViolation("firing rates must lie in [0, 1]")
    if pre.shape[0] != post.shape[0] or (pre.shape[1], post.shape[1]) != acc.sums.shape:
        raise ContractViolation("rate shapes do not match the synapse matrix")
    acc.sums += matmul(pre.T, post)
    acc.count += pre.shape[0]
    return acc


def finalize_hebbian(acc: HebbianAccumulator) -> np.ndarray:
    """Mean coincidence H = sums / N, guaranteed inside [0, 1]."""
    if acc.count == 0:
        raise ContractViolation("no samples accumulated")
    return acc.sums / acc.count


@dataclass
class HebbianStore:
    """Elementwise maximum of per-task coincidence statistics over completed
    tasks, keyed like network parameters."""

    h_max: dict[str, np.ndarray] = field(default_factory=dict)
    tasks_completed: int = 0


def finalize_task(store: HebbianStore, h_tau: dict[str, np.ndarray]) -> HebbianStore:
    """Fold one completed task's statistics into the running maximum.

    The store takes ownership of ``h_tau``'s arrays (a first task's H is
    stored uncopied), so callers pass only fresh arrays that nothing else
    holds, such as ``finalize_hebbian``'s.
    """
    for name, h in h_tau.items():
        if not np.all((h >= 0.0) & (h <= 1.0)):
            raise ContractViolation(f"H values for {name} outside [0, 1]")
        if name in store.h_max:
            if store.h_max[name].shape != h.shape:
                raise ContractViolation(f"shape mismatch for {name}")
            store.h_max[name] = np.maximum(store.h_max[name], h)
        else:
            store.h_max[name] = h
    store.tasks_completed += 1
    return store


@dataclass
class PotentialMask:
    """Plasticity potential per synapse: multiplies raw gradient updates."""

    mode: str
    values: dict[str, np.ndarray]
    threshold: float | None = None


def potential(store: HebbianStore, mode: str, threshold: float | None = None) -> PotentialMask:
    """P = 1 - max(H) (soft) or P = 1 - g(max(H)) (hard).

    Hard mode's gate g(x) is 0 for x <= threshold and 1 above it, so a
    statistic exactly at the threshold stays plastic. Soft values are
    float64; hard values are bool (one byte per synapse), which
    ``gate_update`` multiplies as 1.0 and 0.0.
    """
    if store.tasks_completed < 1:
        raise ContractViolation("potential requires at least one completed task")
    if mode not in ("soft", "hard"):
        raise ContractViolation(f"unknown potential mode {mode!r}")
    if mode == "hard":
        if threshold is None or not (0.0 < threshold < 1.0):
            raise ContractViolation("hard mode requires a threshold in (0, 1)")
        values = {k: h <= threshold for k, h in store.h_max.items()}
    else:
        values = {k: 1.0 - h for k, h in store.h_max.items()}
    return PotentialMask(mode, values, threshold)


def gate_update(grads: dict[str, np.ndarray], mask: PotentialMask) -> dict[str, np.ndarray]:
    """Multiply each raw gradient by its potential mask, in place.

    Writes into the arrays of ``grads``, which ``runner.train_step`` owns
    (``g *= p`` has the bits of ``g * p``, also for a bool ``p``, which
    casts to 1.0 and 0.0, so a negative gradient masked to zero stays
    -0.0), and returns ``grads``.
    """
    for name, g in grads.items():
        p = mask.values.get(name)
        if p is not None:
            if p.shape != g.shape:
                raise ContractViolation(f"mask shape mismatch for {name}")
            g *= p
    return grads


# ---------------------------------------------------------------------------
# Baseline primitives


# Samples per batched forward and BPTT in ``ewc_fisher``.
_FISHER_CHUNK = 16


def ewc_fisher(
    net: SpikingNetwork,
    examples,
    surrogate: SurrogateSpec,
    task: int | None = None,
) -> dict[str, np.ndarray]:
    """Diagonal Fisher estimate: mean squared log-likelihood gradient.

    ``examples`` yields (spike_train, label) pairs; each sample's gradient
    is taken at its true label. Samples are drawn ``_FISHER_CHUNK`` at a
    time, and each chunk runs one batched forward and one BPTT. The loss
    gradient at the logits is left unscaled, so each row is one sample's
    own gradient. The per-sample weight gradients are then formed, squared
    and summed one at a time in sample order; only one exists at a time.
    The estimate has the dtype of the network's weights.
    """
    sums: dict[str, np.ndarray] = {}
    n = 0
    examples = iter(examples)
    while chunk := list(islice(examples, _FISHER_CHUNK)):
        labels = np.array([int(label) for _, label in chunk])
        trace, logits = forward(net, np.stack([spikes for spikes, _ in chunk]), task=task)
        _, dlogits = softmax_cross_entropy_batch(logits, labels)
        dlogits[np.arange(len(chunk)), labels] -= 1.0
        for name, prev, du in backward_layers(net, trace, dlogits, surrogate):
            acc = sums.setdefault(name, np.zeros((prev.shape[2], du.shape[2]), dtype=du.dtype))
            for b in range(len(chunk)):
                g = prev[b].T @ du[b]
                g *= g
                acc += g
        n += len(chunk)
    if n == 0:
        raise ContractViolation("fisher estimation needs at least one example")
    return {name: s / n for name, s in sums.items()}


# Elements per row block in ``regularizer_penalty``: a block of each operand
# stays in cache.
_PENALTY_BLOCK = 8192


def regularizer_penalty(
    importance: dict[str, np.ndarray],
    anchor: dict[str, np.ndarray],
    net: SpikingNetwork,
    strength: float,
) -> tuple[float, dict[str, np.ndarray]]:
    """(strength/2) * sum importance * (theta - anchor)^2, with gradients.

    ``importance`` and ``anchor`` are keyed like the network's parameters.
    Each gradient (strength * importance) * (theta - anchor) is built in
    place a block of rows at a time.
    """
    if not importance:
        raise ContractViolation("importance store is empty")
    loss = 0.0
    grads: dict[str, np.ndarray] = {}
    for name, imp in importance.items():
        w = net.get_param(name)
        grad = grads[name] = np.empty_like(w)
        rows = max(1, _PENALTY_BLOCK // w.shape[1])
        diff = np.empty_like(w[:rows])
        for r in range(0, len(w), rows):
            block = slice(r, r + rows)
            gb = grad[block]
            db = diff[: len(gb)]
            np.subtract(w[block], anchor[name][block], out=db)
            np.multiply(imp[block], strength, out=gb)
            gb *= db
            loss += 0.5 * float(np.vdot(gb, db))
    return loss, grads


def si_update_omega(
    w_acc: dict[str, np.ndarray],
    drift: dict[str, np.ndarray],
    damping: float,
) -> dict[str, np.ndarray]:
    """Per-parameter importance from the path integral of one task.

    w_acc holds the accrued -gradient * step products; drift is the total
    parameter movement over the task. Contributions are clamped at zero so
    importances stay nonnegative.
    """
    out = {}
    for name, w in w_acc.items():
        out[name] = np.maximum(w, 0.0) / (drift[name] * drift[name] + damping)
    return out


# ---------------------------------------------------------------------------
# Strategy objects


@dataclass
class StrategyConfig:
    name: str = "none"
    hwc_threshold_rel: float = 0.03
    hwc_threshold_abs: float | None = None
    ewc_strength: float = 5000.0
    ewc_fisher_samples: int = 200
    si_strength: float = 0.1
    si_damping: float = 0.1

    def __post_init__(self):
        if self.name not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {self.name!r}; expected one of {STRATEGIES}"
            )
        for key in ("hwc_threshold_rel", "hwc_threshold_abs"):
            v = getattr(self, key)
            if v is not None and not (0.0 < v < 1.0):
                raise ConfigurationError(f"strategy.{key} must be in (0, 1), got {v}")
        for key in ("ewc_strength", "si_strength"):
            v = getattr(self, key)
            if not (math.isfinite(v) and v >= 0.0):
                raise ConfigurationError(f"strategy.{key} must be finite and >= 0, got {v}")
        if self.ewc_fisher_samples < 1:
            raise ConfigurationError(
                f"strategy.ewc_fisher_samples must be >= 1, got {self.ewc_fisher_samples}"
            )
        if not (math.isfinite(self.si_damping) and self.si_damping > 0.0):
            raise ConfigurationError(f"strategy.si_damping must be finite and > 0, got {self.si_damping}")


class Strategy:
    """Identity hooks; base for every strategy and the ``none``/``joint`` modes."""

    pooled = False

    def __init__(self, cfg: StrategyConfig, surrogate: SurrogateSpec):
        self.cfg = cfg
        self.surrogate = surrogate

    # -- the four loop hooks -------------------------------------------------
    def before_task(self, ctx: TaskContext, net: SpikingNetwork) -> None:
        pass

    def batch_loss(self, ctx, net, trace):
        """Extra loss term and its gradients, or (0.0, None). ``trace`` is
        the batch's float forward, or None for a pooled batch."""
        return 0.0, None

    def grad_transform(self, ctx, net, grads):
        return grads

    def after_task(self, ctx, net, sample_provider=None) -> None:
        """Consolidate the task just trained. In the final task
        (``ctx.is_final_task``) strategies skip it and draw nothing from
        ``sample_provider``: only a later task would read the result."""

    def consolidated_names(self, net: SpikingNetwork) -> list[str]:
        """Parameters subject to consolidation: every trunk matrix. Per-task
        heads are exempt (each serves exactly one task); the shared head of
        a single-head network is a trunk matrix and thus included."""
        return [f"w{l}" for l in range(len(net.weights))]


class JointStrategy(Strategy):
    pooled = True


class HwcStrategy(Strategy):
    """Coincidence-gated plasticity in soft or hard masking mode."""

    def __init__(self, cfg, surrogate):
        super().__init__(cfg, surrogate)
        self.mode = "hard" if cfg.name == "hwc-hard" else "soft"
        self.store = HebbianStore()
        self.mask: PotentialMask | None = None
        self._acc: dict[str, HebbianAccumulator] = {}

    def current_threshold(self) -> float | None:
        if self.mode != "hard":
            return None
        if self.cfg.hwc_threshold_abs is not None:
            return self.cfg.hwc_threshold_abs
        peak = max((float(h.max()) for h in self.store.h_max.values()), default=0.0)
        return self.cfg.hwc_threshold_rel * peak

    def before_task(self, ctx, net):
        self.mask = None
        if self.store.tasks_completed >= 1:
            thr = self.current_threshold()
            if self.mode == "hard" and (thr is None or thr <= 0.0):
                self.mask = None  # nothing consolidated yet (all-silent history)
            else:
                self.mask = potential(self.store, self.mode, thr)
        self._acc = {} if ctx.is_final_task else {
            name: HebbianAccumulator(net.get_param(name).shape)
            for name in self.consolidated_names(net)
        }

    def batch_loss(self, ctx, net, trace):
        if self._acc and ctx.is_final_epoch:
            rates = record_firing_rates(trace)
            for name, acc in self._acc.items():
                l = int(name[1:])
                accumulate_hebbian(acc, rates[l], rates[l + 1])
        return 0.0, None

    def grad_transform(self, ctx, net, grads):
        if self.mask is None:
            return grads
        return gate_update(grads, self.mask)

    def after_task(self, ctx, net, sample_provider=None):
        if ctx.is_final_task:
            return
        h_tau = {name: finalize_hebbian(acc) for name, acc in self._acc.items()}
        finalize_task(self.store, h_tau)
        self._acc = {}


class EwcStrategy(Strategy):
    """EWC of every finished task in two arrays per consolidated parameter.

    Kirkpatrick et al.'s per-task sum of (lambda/2) F_k (theta - a_k)^2 is
    kept as (lambda/2) (S (theta - abar)^2 + R), with S = sum F_k, abar the
    F-weighted mean anchor and R = sum F_k (a_k - abar)^2: an exact
    re-association (bit-equal after one task), not gamma-decayed online EWC.
    """

    def __init__(self, cfg, surrogate):
        super().__init__(cfg, surrogate)
        self.fisher_sum: dict[str, np.ndarray] = {}  # S
        self.anchor: dict[str, np.ndarray] = {}  # abar
        self.residual = 0.0  # R

    def batch_loss(self, ctx, net, trace):
        if not self.fisher_sum:
            return 0.0, None
        loss, grads = regularizer_penalty(self.fisher_sum, self.anchor, net, self.cfg.ewc_strength)
        return loss + 0.5 * self.cfg.ewc_strength * self.residual, grads

    def consolidate(self, fisher: dict[str, np.ndarray], net: SpikingNetwork) -> None:
        """West's weighted merge of a task's Fisher (whose arrays it takes)
        and the net's parameters theta: S' = S + F, w = F / S' (0 where
        S' = 0), R += S w (theta - abar)^2, abar += w (theta - abar)."""
        for name in self.consolidated_names(net):
            f, theta = fisher[name], net.get_param(name)
            if name not in self.fisher_sum:
                self.fisher_sum[name], self.anchor[name] = f, theta.copy()
                continue
            s, a = self.fisher_sum[name], self.anchor[name]
            total = s + f
            np.divide(f, total, out=f, where=total > 0)  # F is 0 wherever S' is
            diff = theta - a
            step = f * diff
            self.residual += float(np.vdot(s * step, diff))
            a += step
            self.fisher_sum[name] = total

    def after_task(self, ctx, net, sample_provider=None):
        if ctx.is_final_task:
            return
        if sample_provider is None:
            raise ContractViolation("EWC needs task samples to estimate importances")
        samples = sample_provider(self.cfg.ewc_fisher_samples)
        task = ctx.task - 1 if net.multi_head else None
        self.consolidate(ewc_fisher(net, samples, self.surrogate, task=task), net)


class SiStrategy(Strategy):
    def __init__(self, cfg, surrogate):
        super().__init__(cfg, surrogate)
        self.omega: dict[str, np.ndarray] = {}
        self.anchor: dict[str, np.ndarray] = {}
        self._w_acc: dict[str, np.ndarray] = {}
        self._theta_start: dict[str, np.ndarray] = {}
        self._pending: tuple[dict, dict] | None = None

    def before_task(self, ctx, net):
        names = [] if ctx.is_final_task else self.consolidated_names(net)
        self._theta_start = {k: net.get_param(k).copy() for k in names}
        self._w_acc = {k: np.zeros_like(net.get_param(k)) for k in names}
        self._pending = None

    def batch_loss(self, ctx, net, trace):
        if not self.omega:
            return 0.0, None
        return regularizer_penalty(self.omega, self.anchor, net, self.cfg.si_strength)

    def _flush(self, net):
        if self._pending is None:
            return
        theta_prev, grads_prev = self._pending
        for name, g in grads_prev.items():
            if name in self._w_acc:
                self._w_acc[name] += -g * (net.get_param(name) - theta_prev[name])
        self._pending = None

    def grad_transform(self, ctx, net, grads):
        # the optimizer applies `grads` after this call; the resulting move
        # is credited at the next call (or at task end). The step moves the
        # weights in place, so they are copied; nothing writes its gradients.
        if not self._w_acc:  # the final task accrues nothing
            return grads
        self._flush(net)
        self._pending = (
            {k: net.get_param(k).copy() for k in self._w_acc},
            {k: g for k, g in grads.items() if k in self._w_acc},
        )
        return grads

    def after_task(self, ctx, net, sample_provider=None):
        if ctx.is_final_task:
            return
        self._flush(net)
        drift = {
            k: net.get_param(k) - self._theta_start[k] for k in self._w_acc
        }
        contrib = si_update_omega(self._w_acc, drift, self.cfg.si_damping)
        for name, c in contrib.items():
            self.omega[name] = self.omega.get(name, 0.0) + c
        self.anchor = {k: net.get_param(k).copy() for k in self._w_acc}
        self._theta_start, self._w_acc = {}, {}


_STRATEGY_CLASSES = {
    "none": Strategy,
    "joint": JointStrategy,
    "hwc-soft": HwcStrategy,
    "hwc-hard": HwcStrategy,
    "ewc": EwcStrategy,
    "si": SiStrategy,
}


def apply_strategy(
    cfg: StrategyConfig,
    scenario: str,
    seed: int,
    surrogate: SurrogateSpec,
) -> Strategy:
    """Instantiate the hook bundle for a named strategy. No strategy reads
    ``scenario`` or ``seed``; the parameters stay while callers pass them."""
    cls = _STRATEGY_CLASSES.get(cfg.name)
    if cls is None:
        raise ConfigurationError(f"unknown strategy {cfg.name!r}")
    return cls(cfg, surrogate)
