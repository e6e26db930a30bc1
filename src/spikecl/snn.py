"""Bias-free leaky integrate-and-fire network: forward simulation and tracing.

Networks are plain dense weight stacks with LIF dynamics per non-input
layer and no bias terms anywhere. Classification logits are the per-output-
neuron spike counts over the simulation window, which is also exactly what
the chip's readout registers latch.

Every unit runs the model the chip runs: a hard threshold gives binary
spike trains, and a spike subtracts the threshold from the membrane
potential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import read_bundle, write_bundle
from .errors import ContractViolation, FormatError
from .rng import RngStream

# The reset that checkpoints and chip images name: a spike subtracts the
# threshold. It is the only one; a file that names another is malformed.
RESET = "subtract"


@dataclass
class LifParams:
    """Leak multiplier per step and spike threshold."""

    decay: float = 0.9
    threshold: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.decay <= 1.0):
            raise ContractViolation(f"decay must be in (0, 1], got {self.decay}")
        if not (self.threshold > 0.0):
            raise ContractViolation(f"threshold must be > 0, got {self.threshold}")


@dataclass
class SpikingNetwork:
    """Layered LIF network; weight matrix l connects layer l to layer l+1.

    ``heads`` holds one output weight matrix per task (task-incremental
    mode); when absent, the last entry of ``weights`` feeds the output
    layer directly.
    """

    layer_sizes: list[int]
    weights: list[np.ndarray]
    lif: list[LifParams]
    heads: list[np.ndarray] | None = None
    head_size: int | None = None

    def __post_init__(self):
        expected = len(self.layer_sizes) - 1
        if len(self.weights) != expected:
            raise ContractViolation(
                f"{expected} weight matrices expected for {len(self.layer_sizes)} layers"
            )
        for l, w in enumerate(self.weights):
            want = (self.layer_sizes[l], self.layer_sizes[l + 1])
            if w.shape != want:
                raise ContractViolation(f"weight {l} has shape {w.shape}, want {want}")
        n_lif = expected + (1 if self.heads is not None else 0)
        if len(self.lif) != n_lif:
            raise ContractViolation(f"{n_lif} LIF parameter sets expected, got {len(self.lif)}")
        if self.heads is not None:
            for t, h in enumerate(self.heads):
                if h.shape[0] != self.layer_sizes[-1] or h.shape[1] != self.head_size:
                    raise ContractViolation(f"head {t} has shape {h.shape}")

    @property
    def multi_head(self) -> bool:
        return self.heads is not None

    def n_outputs(self) -> int:
        return self.head_size if self.multi_head else self.layer_sizes[-1]

    def get_param(self, name: str) -> np.ndarray:
        if name.startswith("head"):
            return self.heads[int(name[4:])]
        return self.weights[int(name[1:])]

    def set_param(self, name: str, value: np.ndarray) -> None:
        if name.startswith("head"):
            self.heads[int(name[4:])] = value
        else:
            self.weights[int(name[1:])] = value

    def copy(self) -> "SpikingNetwork":
        return SpikingNetwork(
            layer_sizes=list(self.layer_sizes),
            weights=[w.copy() for w in self.weights],
            lif=[LifParams(p.decay, p.threshold) for p in self.lif],
            heads=None if self.heads is None else [h.copy() for h in self.heads],
            head_size=self.head_size,
        )


def init_network(
    layer_sizes: list[int],
    rng: RngStream,
    lif: LifParams | None = None,
    n_heads: int | None = None,
    head_size: int | None = None,
    gain: float = 2.0,
    head_gain: float = 1.0,
) -> SpikingNetwork:
    """Fresh network with normal(0, gain/sqrt(fan_in)) weights, no bias.

    ``head_gain`` additionally scales the classification layer (the heads,
    or the last matrix of a single-head network); a smaller readout init
    avoids a few output units hogging all early spikes.
    """
    lif = lif or LifParams()
    weights = []
    for l in range(len(layer_sizes) - 1):
        scale = gain / np.sqrt(layer_sizes[l])
        if n_heads is None and l == len(layer_sizes) - 2:
            scale *= head_gain
        weights.append(rng.fork(f"init/w{l}").normal((layer_sizes[l], layer_sizes[l + 1])) * scale)
    heads = None
    if n_heads is not None:
        scale = head_gain * gain / np.sqrt(layer_sizes[-1])
        heads = [
            rng.fork(f"init/head{t}").normal((layer_sizes[-1], head_size)) * scale
            for t in range(n_heads)
        ]
    n_lif = len(weights) + (1 if heads is not None else 0)
    lifs = [LifParams(lif.decay, lif.threshold) for _ in range(n_lif)]
    return SpikingNetwork(list(layer_sizes), weights, lifs, heads, head_size)


@dataclass
class ForwardTrace:
    """Everything the backward pass and rate recording need from one forward.

    Per layer (index 0 is the input layer): spikes (B, T, n). For non-input
    layers additionally the pre-reset potentials ``u``; the post-reset
    membrane potential follows from ``u`` and the spikes. Each ``u`` is a
    (B, T, n) view of the time-major (T, B, n) storage the recurrence ran
    on, in ``forward`` and in the chip's integer pass (``chip.twin_loss``)
    alike; ``u.transpose(1, 0, 2)`` gives that storage back without a copy.
    Every array has the dtype of the weights that made it: float32 in
    training (``runner.build_network``), float64 for a float64 network.
    """

    spikes: list[np.ndarray]
    pre_reset: list[np.ndarray]
    task: int | None

    @property
    def timesteps(self) -> int:
        return self.spikes[0].shape[1]


def _layer_dynamics(currents: np.ndarray, p: LifParams):
    """Run the membrane recurrence over time for one layer, in place.

    ``currents`` is time-major (T, B, n), so each step reads and writes
    contiguous (B, n) slices; it is overwritten with the pre-reset
    potentials u_t = decay*v_{t-1} + I_t. Returns (spikes, currents), the
    spikes s_t = [u_t >= threshold] copied into (B, T, n) order; the reset
    leaves v_t = u_t - threshold*s_t. Every step runs the same IEEE
    operations as the textbook update, so the bits match it.
    """
    T, B, n = currents.shape
    s_all = np.empty_like(currents)
    v = np.zeros((B, n), dtype=currents.dtype)
    for u, s in zip(currents, s_all):
        v *= p.decay
        u += v
        np.greater_equal(u, p.threshold, out=s)
        np.multiply(s, p.threshold, out=v)
        np.subtract(u, v, out=v)
    return np.ascontiguousarray(s_all.transpose(1, 0, 2)), currents


def forward(
    net: SpikingNetwork,
    input_spikes: np.ndarray,
    task: int | None = None,
) -> tuple[ForwardTrace, np.ndarray]:
    """Simulate a batch over T steps; logits are output spike counts.

    ``input_spikes`` is a (B, T, n_in) batch; logits are (B, K). Multi-head
    networks require ``task``. Read-only on the network. The pass computes
    in the dtype of the first weight matrix; the input is cast to it, which
    is exact for 0/1 spikes.

    The recurrence runs on time-major (T, B, n) storage, so every step
    works on contiguous (B, n) slices. Every product still multiplies rows
    in (b, t) order and is copied into that storage transposed: a BLAS
    kernel computes each output row from its own input row, but it may sum
    the rows of its last, partial block in another order (on x86-64 OpenBLAS
    a 2-wide head at an odd batch does), so a row's bits can depend on its
    position. In that order a batch simulated in slices gives each sample
    the bits of one pass over the whole batch when a slice's B*T rows fill
    whole kernel blocks, as the 160 rows of 16 samples at T = 10 do on the
    784-256-256 split networks, in float32 and float64. On the drift
    network (64-256-256-8) that holds in float64 only: in float32 the
    8-wide output layer's potentials of a 200-sample pass differ from its
    16-sample slices' (OpenBLAS on x86-64), though its spikes and counts
    match. A call's bits depend only on its inputs and shape.
    """
    x = np.asarray(input_spikes, dtype=net.weights[0].dtype)
    if x.ndim != 3:
        raise ContractViolation(f"input must be a (B, T, n) batch, got {x.shape}")
    if x.shape[2] != net.layer_sizes[0]:
        raise ContractViolation(
            f"input width {x.shape[2]} != input layer size {net.layer_sizes[0]}"
        )
    if not np.all((x == 0.0) | (x == 1.0)):
        raise ContractViolation("input spikes must be binary")
    if net.multi_head:
        if task is None:
            raise ContractViolation("multi-head network requires a task id")
        if not (0 <= task < len(net.heads)):
            raise ContractViolation(f"task {task} out of range")

    matrices = list(net.weights)
    if net.multi_head:
        matrices.append(net.heads[task])

    B, T, _ = x.shape
    spikes = [x]
    pre_reset: list[np.ndarray] = []
    for l, w in enumerate(matrices):
        cur = np.empty((T, B, w.shape[1]), dtype=x.dtype)
        cur.transpose(1, 0, 2)[...] = (spikes[-1].reshape(B * T, -1) @ w).reshape(B, T, -1)
        s, u = _layer_dynamics(cur, net.lif[l])
        spikes.append(s)
        pre_reset.append(u.transpose(1, 0, 2))
    trace = ForwardTrace(spikes, pre_reset, task)
    return trace, spikes[-1].sum(axis=1)


def record_firing_rates(trace: ForwardTrace) -> list[np.ndarray]:
    """Per-layer firing rates f_i = spike count / T, (B, n) per layer.

    Layer 0 is the input layer, so adjacent entries line up with the weight
    matrix between them. Rates are float64 whatever the trace's dtype: the
    count of 0/1 spikes is exact in either width, so a float32 trace gives
    the bits a float64 trace of the same spikes gives.
    """
    if not trace.spikes or trace.timesteps == 0:
        raise ContractViolation("empty trace")
    return [s.mean(axis=1, dtype=np.float64) for s in trace.spikes]


def save_network(path, net: SpikingNetwork) -> None:
    """Write a checkpoint (format: versioned bundle, layout in container.py).

    Arrays are stored as float64; a float32 network's weights upcast
    exactly. ``load_network`` returns them as stored.
    """
    meta = {
        "kind": "network-checkpoint",
        "version": 1,
        "layer_sizes": [int(s) for s in net.layer_sizes],
        "lif": [[p.decay, p.threshold, RESET] for p in net.lif],
        "n_heads": 0 if net.heads is None else len(net.heads),
        "head_size": net.head_size,
    }
    arrays = {f"w{l}": w.astype(np.float64) for l, w in enumerate(net.weights)}
    if net.heads is not None:
        arrays.update({f"head{t}": h.astype(np.float64) for t, h in enumerate(net.heads)})
    write_bundle(path, meta, arrays)


_CHECKPOINT_KEYS = ("layer_sizes", "lif", "n_heads", "head_size")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def load_network(path) -> SpikingNetwork:
    """Read a checkpoint; malformed metadata or arrays raise a ``SpikeclError``."""
    meta, arrays = read_bundle(path)
    if not isinstance(meta, dict):
        raise FormatError(f"checkpoint metadata is a {type(meta).__name__}, not an object")
    if meta.get("kind") != "network-checkpoint":
        raise ContractViolation(f"not a network checkpoint: {meta.get('kind')!r}")
    missing = [k for k in _CHECKPOINT_KEYS if k not in meta]
    if missing:
        raise FormatError(f"checkpoint metadata lacks {missing}")
    sizes, lif, n_heads, head_size = (meta[k] for k in _CHECKPOINT_KEYS)
    if not (isinstance(sizes, list) and all(_is_int(s) for s in sizes)):
        raise FormatError("checkpoint layer_sizes must be a list of integers")
    # each head is an array, so a larger count is malformed and names none
    if not (_is_int(n_heads) and 0 <= n_heads <= len(arrays)):
        raise FormatError(f"checkpoint n_heads must be an integer in [0, {len(arrays)}]")
    if not (head_size is None or _is_int(head_size)):
        raise FormatError("checkpoint head_size must be an integer or null")
    lif_ok = isinstance(lif, list) and all(
        isinstance(p, list) and len(p) == 3 and p[2] == RESET
        and all(_is_int(v) or isinstance(v, float) for v in p[:2])
        for p in lif
    )
    if not lif_ok:
        raise FormatError(f"checkpoint lif must be a list of [decay, threshold, {RESET!r}] triples")
    names = [f"w{l}" for l in range(len(sizes) - 1)] + [f"head{t}" for t in range(n_heads)]
    missing = [name for name in names if name not in arrays]
    if missing:
        raise FormatError(f"checkpoint lacks weight arrays {missing}")
    weights = [arrays[f"w{l}"] for l in range(len(sizes) - 1)]
    heads = [arrays[f"head{t}"] for t in range(n_heads)] if n_heads else None
    lifs = [LifParams(decay, thr) for decay, thr, _ in lif]
    return SpikingNetwork(sizes, weights, lifs, heads, head_size)
