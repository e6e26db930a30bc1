"""Experiment orchestration: config, training, evaluation, persistence.

Training has one step, ``train_step``, one epoch loop, ``train_epoch``, fed
by one batch iterator, and one stream loop, ``run_seed``. Every task, the
pooled joint phase and the chip loop run through them. The chip is an
optional loss term of a chip run's tasks (``chip.twin_loss``);
``mentor_learner_epoch`` is the chip loop's epoch. No chip is built: a chip config is checked once, when it is built,
against the chip's budget.

A run is a pure function of (config, seed): every random draw comes from
named forks of one seeded stream, datasets are deterministic, and result
files are byte-identical across repeated runs (except the wall_ms timing
column, which is excluded from the determinism contract). The limit: the
float path's matmuls sum in an order that depends on the BLAS thread count,
so checkpoint bytes, and in float32 even accuracies, can differ between,
say, OPENBLAS_NUM_THREADS=1 and =2 (a two-task split hwc-hard run at hidden
[64, 64] wrote different checkpoints; in float64 its results.csv matched,
in float32 it did not). Fix the thread count to compare results across
machines. The rendered corpus and the spike encodings do not
depend on it.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
import types
import typing
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .chip import (
    QuantSpec,
    _exact_float,
    chip_twin_counts,
    quantize_codes,
    twin_loss,
    validate_constraints,
)

# Nothing here calls ``quantize_network``: evaluation quantizes with
# ``quantize_codes``, as the twin does. bench/tracer.py still times
# ``spikecl.runner.quantize_network`` and warns when a patch point is
# missing, so the name stays bound until the benchmark drops that point.
from .chip import quantize_network  # noqa: F401
from .continual import Strategy, StrategyConfig, TaskContext, apply_strategy
from .data import (
    DEFAULT_SPLIT_PAIRS,
    DIGIT_PIXELS,
    DriftSpec,
    EncoderSpec,
    TaskStream,
    build_split_stream,
    build_synthetic_drift,
    encode_batch,
    generate_digit_corpus,
    load_idx_pair,
)
from .errors import ConfigurationError, ConstraintViolation, FormatError
from .metrics import (
    MetricsRecord,
    aggregate_summary,
    emit_results,
    incremental_accuracy,
    write_summary,
)
from .numerics import cross_entropy_grad, softmax_cross_entropy_batch
from .rng import RngStream
from .snn import LifParams, SpikingNetwork, forward, init_network, save_network
from .train import LossSpec, OptimizerState, SurrogateSpec, add_grads, backward_dlogits, optimizer_step

SCENARIO_NAMES = ("split-mnist", "synthetic-drift")
# Test samples per named encoding fork in ``evaluate_task``; part of the
# fork names, so changing it changes every evaluation's spike trains.
_EVAL_CHUNK = 256


@dataclass
class RunConfig:
    """Everything one experiment needs; every field is addressable from the
    YAML config file under the same (nested) names.

    Building one checks every field; a ``chip: true`` config is also
    checked against the chip's budget, from the layer widths alone, so an
    oversized network fails before any data is made or file written.
    """

    scenario: str = "split-mnist"
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    hidden: list[int] = field(default_factory=lambda: [256, 256])
    lif: LifParams = field(default_factory=LifParams)
    encoder: EncoderSpec = field(default_factory=EncoderSpec)
    surrogate: SurrogateSpec = field(default_factory=SurrogateSpec)
    loss: LossSpec = field(default_factory=LossSpec)
    learning_rate: float = 5e-3
    batch_size: int = 16
    epochs_per_task: int = 2
    init_gain: float = 2.0
    head_gain: float = 1.0
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    chip: bool = False
    quant: QuantSpec = field(default_factory=QuantSpec)
    train_cap: int | None = 2000
    test_cap: int | None = 500
    mnist_dir: str | None = None
    split_pairs: list | None = None  # default consecutive-digit pairing
    corpus_train_per_class: int = 1500
    corpus_test_per_class: int = 300
    data_seed: int = 90210
    drift: DriftSpec = field(default_factory=DriftSpec)
    output_dir: str = "results"

    def __post_init__(self):
        if self.scenario not in SCENARIO_NAMES:
            raise ConfigurationError(
                f"unknown scenario {self.scenario!r}; expected one of {SCENARIO_NAMES}"
            )
        if self.batch_size < 1 or self.epochs_per_task < 1:
            raise ConfigurationError("batch_size and epochs_per_task must be >= 1")
        if not self.seeds:
            raise ConfigurationError("at least one seed is required")
        for key in ("learning_rate", "init_gain", "head_gain"):
            v = getattr(self, key)
            if not (math.isfinite(v) and v > 0.0):
                raise ConfigurationError(f"{key} must be finite and > 0, got {v}")
        if any(cap is not None and cap < 1 for cap in (self.train_cap, self.test_cap)):
            raise ConfigurationError("train_cap and test_cap must be >= 1 or null")
        if min(self.corpus_train_per_class, self.corpus_test_per_class) < 1:
            raise ConfigurationError("corpus sizes per class must be >= 1")
        if any(n < 1 for n in self.hidden):
            raise ConfigurationError(f"hidden layer sizes must be >= 1, got {self.hidden}")
        if self.split_pairs is not None:
            if not self.split_pairs:
                raise ConfigurationError("split_pairs names no pair; leave it null for the default")
            for pair in self.split_pairs:
                if not (
                    isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(type(d) is int and 0 <= d <= 9 for d in pair)
                ):
                    raise ConfigurationError(f"split pair {pair!r} is not two digits")
            digits = [d for pair in self.split_pairs for d in pair]
            if len(set(digits)) != len(digits):
                raise ConfigurationError(
                    f"split pairs {self.split_pairs} repeat a digit; each task needs its own two"
                )
        scales = self.quant.scale_override
        if scales is not None:
            if len(scales) != len(self.hidden) + 1:
                raise ConfigurationError(
                    f"quant.scale_override needs one scale per computing layer "
                    f"({len(self.hidden) + 1}), got {len(scales)}"
                )
            if not all(math.isfinite(s) and s > 0.0 for s in scales):
                raise ConfigurationError(
                    f"quant.scale_override entries must be finite and > 0, got {scales}"
                )
        if self.chip:
            width, classes = (
                (DIGIT_PIXELS, 2) if self.scenario == "split-mnist"
                else (self.drift.features, self.drift.classes)
            )
            violations = validate_constraints([width, *self.hidden, classes])
            if violations:
                raise ConstraintViolation("; ".join(violations))


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


def _checked(value, hint, where: str):
    """``value`` if it fits the field annotation ``hint``, with nested
    sections built and checked field by field; else ConfigurationError.

    A float field takes an int, and no number field takes a bool.
    """
    if dataclasses.is_dataclass(hint):
        if not isinstance(value, dict):
            raise ConfigurationError(f"{where} must be a mapping, not {type(value).__name__}")
        hints = typing.get_type_hints(hint)
        fields = [f.name for f in dataclasses.fields(hint)]
        bad = set(value) - set(fields)
        if bad:
            raise ConfigurationError(f"unknown keys in {where}: {sorted(map(str, bad))}")
        return hint(**{k: _checked(v, hints[k], f"{where}.{k}") for k, v in value.items()})
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return value
        (hint,) = [a for a in args if a is not type(None)]
        return _checked(value, hint, where)
    if hint is list or origin is list:
        if isinstance(value, list):
            return [_checked(v, args[0], f"{where}[{i}]") for i, v in enumerate(value)] if args else value
        wanted = "a list"
    else:
        kinds = (int, float) if hint is float else hint
        if isinstance(value, kinds) and (hint is bool or not isinstance(value, bool)):
            return value
        wanted = _TYPE_NAMES[hint]
    raise ConfigurationError(f"{where} must be {wanted}, not {type(value).__name__}")


def config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from a plain dict. Every value is checked against
    its dataclass field's annotation (int, float, str, bool, list, optional
    or a nested section) before anything is built; unknown keys, a wrong
    type and a top level or section that is not a mapping raise
    ConfigurationError."""
    return _checked({} if raw is None else raw, RunConfig, "config")


def load_config(path) -> RunConfig:
    """Parse a YAML config file; bytes that are not valid YAML, an integer
    too long to convert and nesting too deep to compose all raise
    ConfigurationError."""
    with open(path, "rb") as f:
        try:
            raw = yaml.safe_load(f)
        except (yaml.YAMLError, ValueError, RecursionError) as exc:
            raise ConfigurationError(f"{path}: not valid YAML: {exc}") from exc
    return config_from_dict(raw)


def apply_profile(config: RunConfig, profile: str) -> RunConfig:
    """The data caps of a size profile: ci keeps the desk-scale caps; full
    removes them."""
    if profile == "full":
        return replace(config, train_cap=None, test_cap=None)
    return replace(config, train_cap=2000, test_cap=500)


# ---------------------------------------------------------------------------
# Stream and network construction


def build_stream(config: RunConfig) -> TaskStream:
    """The config's task stream. A split run without ``mnist_dir`` renders
    only the digits its pairs name; each task holds the bytes it would take
    from the ten-digit corpus."""
    if config.scenario == "split-mnist":
        pairs = (
            DEFAULT_SPLIT_PAIRS if config.split_pairs is None
            else tuple(tuple(p) for p in config.split_pairs)
        )
        if config.mnist_dir:
            train_x, train_y = load_idx_pair(
                os.path.join(config.mnist_dir, "train-images-idx3-ubyte"),
                os.path.join(config.mnist_dir, "train-labels-idx1-ubyte"),
            )
            test_x, test_y = load_idx_pair(
                os.path.join(config.mnist_dir, "t10k-images-idx3-ubyte"),
                os.path.join(config.mnist_dir, "t10k-labels-idx1-ubyte"),
            )
            if train_x.shape[1] != DIGIT_PIXELS or test_x.shape[1] != DIGIT_PIXELS:
                raise FormatError(f"{config.mnist_dir}: images are not 28 x 28")
        else:
            train_x, train_y, test_x, test_y = generate_digit_corpus(
                config.corpus_train_per_class, config.corpus_test_per_class, config.data_seed,
                digits={d for pair in pairs for d in pair},
            )
        return build_split_stream(
            train_x, train_y, test_x, test_y, pairs=pairs,
            train_cap=config.train_cap, test_cap=config.test_cap,
        )
    return build_synthetic_drift(config.drift, config.data_seed)


def build_network(config: RunConfig, stream: TaskStream, rng: RngStream) -> SpikingNetwork:
    """The run's network: ``init_network``'s float64 draws, rounded once to
    float32, the one width training runs in. Each kernel computes in the
    dtype of the weights it is given, so from here on the forward, BPTT,
    Adam, the chip's twin and the strategies' stores are float32."""
    multi_head = stream.scenario == "task-incremental"
    classes = stream.tasks[0].n_classes
    net = init_network(
        [stream.feature_dim] + list(config.hidden) + ([] if multi_head else [classes]),
        rng,
        lif=config.lif,
        n_heads=len(stream.tasks) if multi_head else None,
        head_size=classes if multi_head else None,
        gain=config.init_gain,
        head_gain=config.head_gain,
    )
    net.weights = [w.astype(np.float32) for w in net.weights]
    if net.heads is not None:
        net.heads = [h.astype(np.float32) for h in net.heads]
    return net


# ---------------------------------------------------------------------------
# Training


def _head_for(net: SpikingNetwork, task_idx: int) -> int | None:
    return task_idx if net.multi_head else None


@dataclass
class MentorState:
    """The learner of one task: the external full-precision network, its
    optimizer, its loss weights and, in the chip loop only, the chip term's
    quantization."""

    net: SpikingNetwork
    optimizer: OptimizerState
    surrogate: SurrogateSpec
    loss_spec: LossSpec
    quant_spec: QuantSpec | None = None
    task: int | None = None  # active head in multi-head mode


def _learner(config: RunConfig, net: SpikingNetwork, task=None, quant=None) -> MentorState:
    """A learner with a fresh optimizer; every task starts one."""
    optimizer = OptimizerState(lr=config.learning_rate)
    return MentorState(net, optimizer, config.surrogate, config.loss, quant, task)


def _batches(config, run_rng, tag, xs, ys, tids=None):
    """One epoch's shuffled batches ``(x_enc, labels)``, with the per-sample
    task ids appended when ``tids`` is given.

    Each draw comes from its own named fork of ``run_rng``: ``shuffle/`` for
    the order and ``encode/`` per batch for the spike trains.
    """
    order = run_rng.fork(f"shuffle/{tag}").permutation(len(ys))
    for bi, start in enumerate(range(0, len(ys), config.batch_size)):
        idx = order[start : start + config.batch_size]
        x_enc = encode_batch(xs[idx], config.encoder, run_rng.fork(f"encode/{tag}/batch{bi}"))
        yield (x_enc, ys[idx]) if tids is None else (x_enc, ys[idx], tids[idx])


def train_step(state: MentorState, batch, strategy: Strategy, ctx: TaskContext) -> float:
    """One optimizer step on one (B, T, n) batch; returns the batch loss.

    ``batch`` is ``(x_enc, labels)``, which trains head ``state.task``, or
    ``(x_enc, labels, tasks)``, a pooled multi-head batch with one task id
    per sample. One loop runs a forward and backward of the whole network
    per head, weighted by its share of the batch (1 when unpooled). The
    cross-entropy gradient is scaled by ``loss.lam``.

    Hooks run in this order: after the float backward, the strategy's
    ``batch_loss``, the float trace's last reader (it sees no trace for a
    pooled batch); then the trace is dropped, and with ``state.quant_spec``
    set the chip's term (``chip.twin_loss``) runs without it. Gradients are
    summed float, chip, strategy, and ``grad_transform`` shapes the step.
    """
    x_enc, labels, *pooled = batch
    net, spec = state.net, state.loss_spec
    labels = np.asarray(labels, dtype=np.int64)
    if pooled:
        heads = [(int(t), pooled[0] == t) for t in np.unique(pooled[0])]
    else:
        heads = [(state.task, slice(None))]
    grads, loss = {}, 0.0
    for task, rows in heads:
        y = labels[rows]
        share = len(y) / len(labels)
        trace, logits = forward(net, x_enc[rows], task=task)
        ce, probs = softmax_cross_entropy_batch(logits, y)
        dlog = spec.lam * cross_entropy_grad(probs, y) * share
        add_grads(grads, backward_dlogits(net, trace, dlog, state.surrogate))
        loss += spec.lam * ce * share
    # no one head's trace covers a pooled batch
    extra_loss, extra_grads = strategy.batch_loss(ctx, net, None if pooled else trace)
    del trace, logits
    if state.quant_spec is not None:
        chip_loss, chip_grads = twin_loss(
            net, x_enc, labels, spec, state.quant_spec, state.surrogate, state.task
        )
        loss += chip_loss
        add_grads(grads, chip_grads)
    add_grads(grads, extra_grads)
    grads = strategy.grad_transform(ctx, net, grads)
    optimizer_step(state.optimizer, net, grads)
    return loss + extra_loss


def train_epoch(state: MentorState, batches, strategy: Strategy, ctx: TaskContext) -> dict:
    """``train_step`` over every batch; returns the mean loss and the batch count."""
    total_loss, n_batches = 0.0, 0
    for batch in batches:
        total_loss += train_step(state, batch, strategy, ctx)
        n_batches += 1
    return {"mean_loss": total_loss / max(n_batches, 1), "batches": n_batches}


def mentor_learner_epoch(state: MentorState, batches, strategy: Strategy, ctx: TaskContext) -> dict:
    """One epoch of the chip loop: ``train_epoch`` on a learner with the
    chip's loss term (``state.quant_spec`` set), timed apart when traced.
    With mu = 0 the term is zero and the epoch equals ``train_epoch``."""
    return train_epoch(state, batches, strategy, ctx)


def _fit(config, state, strategy, run_rng, tag, ctx, xs, ys, tids=None) -> None:
    """``config.epochs_per_task`` epochs over (xs, ys), in the chip loop
    when the learner has the chip's term."""
    epoch_loop = train_epoch if state.quant_spec is None else mentor_learner_epoch
    for epoch in range(config.epochs_per_task):
        ctx = replace(ctx, epoch=epoch)
        batches = _batches(config, run_rng, f"{tag}/epoch{epoch}", xs, ys, tids)
        epoch_loop(state, batches, strategy, ctx)


def train_task(config, net, stream, task_idx, strategy, run_rng) -> MentorState:
    """Sequential training of one task, in the chip loop when ``config.chip``."""
    task = stream.tasks[task_idx]
    state = _learner(config, net, _head_for(net, task_idx), config.quant if config.chip else None)
    ctx = TaskContext(
        task=task_idx + 1, total_tasks=len(stream.tasks), total_epochs=config.epochs_per_task,
    )
    _fit(config, state, strategy, run_rng, f"task{task_idx}", ctx, task.train_x, task.train_y)
    return state


def _joint_phase(config, net, stream, strategy, run_rng, ctx):
    """Upper bound: one pooled phase over all tasks' training data."""
    xs = np.concatenate([t.train_x for t in stream.tasks])
    ys = np.concatenate([t.train_y for t in stream.tasks])
    tids = None
    if net.multi_head:
        tids = np.concatenate(
            [np.full(len(t.train_y), i, dtype=np.int64) for i, t in enumerate(stream.tasks)]
        )
    _fit(config, _learner(config, net), strategy, run_rng, "joint", ctx, xs, ys, tids)


# ---------------------------------------------------------------------------
# Evaluation


def evaluate_task(
    net: SpikingNetwork,
    stream: TaskStream,
    eval_idx: int,
    trained_idx: int,
    config: RunConfig,
    run_rng: RngStream,
) -> float:
    """Test accuracy on one task; read-only on the network.

    Task identity selects the head in task-incremental runs and is withheld
    (single shared head) in domain-incremental runs. No strategy takes part:
    every strategy acts on training only.

    Each chunk of ``_EVAL_CHUNK`` test samples has its own named fork, from
    which its ``config.batch_size`` slices are encoded in order and
    simulated one at a time, so no encoding or trace larger than a training
    batch's is ever live. The fork is counter-based, so the slices draw the bytes one
    encoding of the whole chunk would. The chip's pass is exact integer
    arithmetic, so slicing changes none of its counts. A float slice of 16
    samples at T = 10 is 160 rows, whole BLAS kernel blocks, so on the split
    networks each sample gets the bits of one pass over the chunk; on the
    float32 drift network only its spikes and counts are sure to (see
    ``snn.forward``). Each slice's shape follows from the config alone, so
    the accuracy is deterministic either way.
    """
    task = stream.tasks[eval_idx]
    head = _head_for(net, eval_idx)
    if config.chip:  # the codes as exact floats, as ``chip.twin_loss`` makes them
        image = quantize_codes(net, config.quant, task=head)
        weights = [_exact_float(l, q, config.quant.qmax) for l, q in enumerate(image.quantized)]
        image.quantized = []  # the pass reads only ``weights``
    correct = 0
    for ci, start in enumerate(range(0, len(task.test_y), _EVAL_CHUNK)):
        enc = run_rng.fork(f"eval/after{trained_idx}/task{eval_idx}/chunk{ci}")
        stop = min(start + _EVAL_CHUNK, len(task.test_y))
        for b in range(start, stop, config.batch_size):
            rows = slice(b, min(b + config.batch_size, stop))
            x_enc = encode_batch(task.test_x[rows], config.encoder, enc)
            if config.chip:
                logits = chip_twin_counts(image, x_enc, weights)
            else:  # keep only the logits, so no trace outlives its slice
                logits = forward(net, x_enc, task=head)[1]
            correct += int((logits.argmax(axis=1) == task.test_y[rows]).sum())
    return correct / len(task.test_y)


# ---------------------------------------------------------------------------
# Full runs


# Samples per encoding block of ``_make_sample_provider``: ``ewc_fisher``
# draws its samples 16 at a time.
_FISHER_BLOCK = 16


def _make_sample_provider(task, config, run_rng, task_idx):
    """Per-sample (spike_train, label) iterator for importance estimation.
    Sample i has its own fork ``fisher/task{k}/s{i}``; ``_FISHER_BLOCK``
    samples are encoded per call, with the bytes of one call per sample."""

    def provider(count: int):
        n = min(count, len(task.train_y))
        fork = run_rng.fork(f"fisher/task{task_idx}")

        def gen():
            for start in range(0, n, _FISHER_BLOCK):
                stop = min(start + _FISHER_BLOCK, n)
                forks = [fork.fork(f"s{i}") for i in range(start, stop)]
                x_enc = encode_batch(task.train_x[start:stop], config.encoder, forks)
                yield from zip(x_enc, task.train_y[start:stop].tolist())

        return gen()

    return provider


def run_seed(config: RunConfig, seed: int) -> tuple[list[MetricsRecord], SpikingNetwork]:
    """Train through the whole stream for one seed; returns (records, net).

    One loop trains, consolidates and evaluates: once per task, or once at
    the last task index for a pooled strategy (joint), whose one phase
    trains on every task's data. Each pass records every task trained so far.
    """
    stream = build_stream(config)
    run_rng = RngStream(seed)
    net = build_network(config, stream, run_rng.fork("init"))
    strategy = apply_strategy(config.strategy, stream.scenario, seed, config.surrogate)

    records: list[MetricsRecord] = []
    n_tasks = len(stream.tasks)
    for task_idx in [n_tasks - 1] if strategy.pooled else range(n_tasks):
        t0 = time.perf_counter()
        ctx = TaskContext(
            task=task_idx + 1, total_tasks=n_tasks, epoch=0, total_epochs=config.epochs_per_task,
        )
        strategy.before_task(ctx, net)
        if strategy.pooled:
            _joint_phase(config, net, stream, strategy, run_rng, ctx)
        else:
            train_task(config, net, stream, task_idx, strategy, run_rng)
        provider = _make_sample_provider(stream.tasks[task_idx], config, run_rng, task_idx)
        strategy.after_task(ctx, net, provider)

        accs = [
            evaluate_task(net, stream, i, task_idx, config, run_rng)
            for i in range(task_idx + 1)
        ]
        wall = (time.perf_counter() - t0) * 1000.0
        inc = incremental_accuracy(accs, task_idx + 1)
        for i, acc in enumerate(accs):
            records.append(
                MetricsRecord(
                    seed, config.strategy.name, stream.scenario,
                    task_idx + 1, i + 1, acc, inc, wall,
                )
            )
    return records, net


def run_experiment(config: RunConfig, verbose: bool = True) -> dict:
    """Run every seed, write results.csv and summary.json, return paths."""
    os.makedirs(config.output_dir, exist_ok=True)
    all_records: list[MetricsRecord] = []
    for seed in config.seeds:
        if verbose:
            print(f"[spikecl] seed {seed}: {config.strategy.name} on {config.scenario}")
        records, net = run_seed(config, seed)
        all_records.extend(records)
        save_network(os.path.join(config.output_dir, f"checkpoint_seed{seed}.bin"), net)
        if verbose:
            last = max(r.after_task for r in records)
            final = next(r for r in records if r.after_task == last)
            print(f"[spikecl]   final incremental accuracy {final.acc_incremental:.4f}")
    results_path = os.path.join(config.output_dir, "results.csv")
    summary_path = os.path.join(config.output_dir, "summary.json")
    emit_results(all_records, results_path)
    summary = aggregate_summary(all_records)
    write_summary(summary, summary_path)
    return {"results": results_path, "summary": summary_path, "records": all_records, "aggregate": summary}
