"""Experiment orchestration: config, training loops, evaluation, persistence.

A run is a pure function of (config, seed): every random draw comes from
named forks of one seeded stream, datasets are deterministic, and result
files are byte-identical across repeated runs (except the wall_ms timing
column, which is excluded from the determinism contract).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .chip import ChipModel, MentorState, QuantSpec, chip_twin_counts, quantize_network
from .chip import mentor_learner_epoch
from .continual import Strategy, StrategyConfig, TaskContext, apply_strategy
from .data import (
    DEFAULT_SPLIT_PAIRS,
    DriftSpec,
    EncoderSpec,
    TaskStream,
    build_split_stream,
    build_synthetic_drift,
    encode_batch,
    generate_digit_corpus,
    load_idx_pair,
)
from .errors import ConfigurationError
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
from .train import LossSpec, OptimizerState, SurrogateSpec, backward_dlogits, optimizer_step

SCENARIO_NAMES = ("split-mnist", "synthetic-drift")
PROFILES = ("ci", "full")


@dataclass
class RunConfig:
    """Everything one experiment needs; every field is addressable from the
    YAML config file under the same (nested) names."""

    scenario: str = "split-mnist"
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    hidden: list[int] = field(default_factory=lambda: [256, 256])
    lif: LifParams = field(default_factory=LifParams)
    encoder: EncoderSpec = field(default_factory=EncoderSpec)
    surrogate: SurrogateSpec = field(default_factory=SurrogateSpec)
    loss: LossSpec = field(default_factory=LossSpec)
    optimizer: str = "adam"
    learning_rate: float = 5e-3
    batch_size: int = 16
    epochs_per_task: int = 2
    init_gain: float = 2.0
    head_gain: float = 1.0
    dropout: float = 0.0
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    chip: bool = False
    quant: QuantSpec = field(default_factory=QuantSpec)
    profile: str = "ci"
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
        if self.profile not in PROFILES:
            raise ConfigurationError(f"unknown profile {self.profile!r}")
        if self.batch_size < 1 or self.epochs_per_task < 1:
            raise ConfigurationError("batch_size and epochs_per_task must be >= 1")
        if not self.seeds:
            raise ConfigurationError("at least one seed is required")
        if self.chip and self.strategy.name == "xdg":
            raise ConfigurationError("unit gating is not supported in the chip loop")
        if self.optimizer not in ("adam", "sgd-momentum"):
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigurationError("dropout must be in [0, 1)")


_SECTION_TYPES = {
    "strategy": StrategyConfig,
    "lif": LifParams,
    "encoder": EncoderSpec,
    "surrogate": SurrogateSpec,
    "loss": LossSpec,
    "quant": QuantSpec,
    "drift": DriftSpec,
}


def config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from a plain dict, rejecting unknown keys."""
    raw = dict(raw or {})
    kwargs = {}
    valid = set(RunConfig.__dataclass_fields__)
    for key, value in raw.items():
        if key not in valid:
            raise ConfigurationError(f"unknown config key {key!r}")
        if key in _SECTION_TYPES and isinstance(value, dict):
            cls = _SECTION_TYPES[key]
            section_valid = set(cls.__dataclass_fields__)
            bad = set(value) - section_valid
            if bad:
                raise ConfigurationError(f"unknown keys in {key!r}: {sorted(bad)}")
            kwargs[key] = cls(**value)
        else:
            kwargs[key] = value
    return RunConfig(**kwargs)


def load_config(path) -> RunConfig:
    with open(path) as f:
        return config_from_dict(yaml.safe_load(f))


def apply_profile(config: RunConfig, profile: str) -> RunConfig:
    """ci keeps the desk-scale caps; full removes them."""
    if profile == "full":
        return replace(config, profile="full", train_cap=None, test_cap=None)
    return replace(config, profile="ci", train_cap=2000, test_cap=500)


# ---------------------------------------------------------------------------
# Stream and network construction


def build_stream(config: RunConfig) -> TaskStream:
    if config.scenario == "split-mnist":
        if config.mnist_dir:
            train_x, train_y = load_idx_pair(
                os.path.join(config.mnist_dir, "train-images-idx3-ubyte"),
                os.path.join(config.mnist_dir, "train-labels-idx1-ubyte"),
            )
            test_x, test_y = load_idx_pair(
                os.path.join(config.mnist_dir, "t10k-images-idx3-ubyte"),
                os.path.join(config.mnist_dir, "t10k-labels-idx1-ubyte"),
            )
        else:
            train_x, train_y, test_x, test_y = generate_digit_corpus(
                config.corpus_train_per_class, config.corpus_test_per_class, config.data_seed
            )
        pairs = (
            tuple(tuple(p) for p in config.split_pairs)
            if config.split_pairs
            else DEFAULT_SPLIT_PAIRS
        )
        return build_split_stream(
            train_x, train_y, test_x, test_y, pairs=pairs,
            train_cap=config.train_cap, test_cap=config.test_cap,
        )
    return build_synthetic_drift(config.drift, config.data_seed)


def build_network(config: RunConfig, stream: TaskStream, rng: RngStream) -> SpikingNetwork:
    if stream.scenario == "task-incremental":
        return init_network(
            [stream.feature_dim] + list(config.hidden),
            rng,
            lif=config.lif,
            n_heads=len(stream.tasks),
            head_size=stream.tasks[0].n_classes,
            gain=config.init_gain,
            head_gain=config.head_gain,
        )
    return init_network(
        [stream.feature_dim] + list(config.hidden) + [stream.tasks[0].n_classes],
        rng,
        lif=config.lif,
        gain=config.init_gain,
        head_gain=config.head_gain,
    )


def _fresh_optimizer(config: RunConfig) -> OptimizerState:
    return OptimizerState(kind=config.optimizer, lr=config.learning_rate)


# ---------------------------------------------------------------------------
# Training


def _head_for(net: SpikingNetwork, task_idx: int) -> int | None:
    return task_idx if net.multi_head else None


def _hidden_sizes(net: SpikingNetwork) -> list[int]:
    return list(net.layer_sizes[1:]) if net.multi_head else list(net.layer_sizes[1:-1])


def _batch_gates(config, net, strategy, ctx, drop_rng):
    """Strategy unit gates combined with per-batch dropout keep-masks."""
    gates = strategy.train_gates(ctx, net)
    if config.dropout > 0.0:
        masks = [
            drop_rng.bernoulli(1.0 - config.dropout, (n,)) for n in _hidden_sizes(net)
        ]
        gates = masks if gates is None else [g * m for g, m in zip(gates, masks)]
    return gates


def _train_batch(net, opt, x_enc, labels, head, strategy, ctx, surrogate, gates=None):
    trace, logits = forward(net, x_enc, task=head, gates=gates)
    loss, probs = softmax_cross_entropy_batch(np.atleast_2d(logits), labels)
    grads = backward_dlogits(net, trace, cross_entropy_grad(probs, labels), surrogate)
    extra_loss, extra_grads = strategy.batch_loss(ctx, net, x_enc, labels, trace, logits)
    if extra_grads:
        for name, g in extra_grads.items():
            grads[name] = grads.get(name, 0.0) + g
    grads = strategy.grad_transform(ctx, net, grads)
    optimizer_step(opt, net, grads)
    return loss + extra_loss


def _external_task(config, net, stream, task_idx, strategy, run_rng, surrogate):
    """Sequential training of one task without the chip."""
    task = stream.tasks[task_idx]
    opt = _fresh_optimizer(config)
    head = _head_for(net, task_idx)
    n = len(task.train_y)
    for epoch in range(config.epochs_per_task):
        ctx = TaskContext(
            task=task_idx + 1, total_tasks=len(stream.tasks),
            scenario=stream.scenario, epoch=epoch, total_epochs=config.epochs_per_task,
        )
        order = run_rng.fork(f"shuffle/task{task_idx}/epoch{epoch}").permutation(n)
        for bi, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            enc_rng = run_rng.fork(f"encode/task{task_idx}/epoch{epoch}/batch{bi}")
            x_enc = encode_batch(task.train_x[idx], config.encoder, enc_rng)
            gates = _batch_gates(
                config, net, strategy, ctx,
                run_rng.fork(f"dropout/task{task_idx}/epoch{epoch}/batch{bi}"),
            )
            _train_batch(net, opt, x_enc, task.train_y[idx], head, strategy, ctx,
                         surrogate, gates)


def _chip_task(config, net, stream, task_idx, strategy, run_rng, surrogate, chip):
    """Mentor-learner training of one task with the chip in the loop."""
    task = stream.tasks[task_idx]
    head = _head_for(net, task_idx)
    state = MentorState(
        net=net,
        optimizer=_fresh_optimizer(config),
        surrogate=surrogate,
        loss_spec=config.loss,
        quant_spec=config.quant,
        task=head,
    )
    n = len(task.train_y)
    for epoch in range(config.epochs_per_task):
        ctx = TaskContext(
            task=task_idx + 1, total_tasks=len(stream.tasks),
            scenario=stream.scenario, epoch=epoch, total_epochs=config.epochs_per_task,
        )
        order = run_rng.fork(f"shuffle/task{task_idx}/epoch{epoch}").permutation(n)

        def batches():
            for bi, start in enumerate(range(0, n, config.batch_size)):
                idx = order[start : start + config.batch_size]
                enc_rng = run_rng.fork(f"encode/task{task_idx}/epoch{epoch}/batch{bi}")
                gates = _batch_gates(
                    config, net, strategy, ctx,
                    run_rng.fork(f"dropout/task{task_idx}/epoch{epoch}/batch{bi}"),
                )
                x_enc = encode_batch(task.train_x[idx], config.encoder, enc_rng)
                yield x_enc, task.train_y[idx], gates

        mentor_learner_epoch(state, chip, batches(), strategy, ctx)
    return state


def _joint_phase(config, net, stream, strategy, run_rng, surrogate):
    """Upper bound: one pooled phase over all tasks' training data."""
    xs = np.concatenate([t.train_x for t in stream.tasks])
    ys = np.concatenate([t.train_y for t in stream.tasks])
    tids = np.concatenate(
        [np.full(len(t.train_y), i, dtype=np.int64) for i, t in enumerate(stream.tasks)]
    )
    opt = _fresh_optimizer(config)
    n = len(ys)
    total = len(stream.tasks)
    for epoch in range(config.epochs_per_task):
        ctx = TaskContext(
            task=total, total_tasks=total, scenario=stream.scenario,
            epoch=epoch, total_epochs=config.epochs_per_task,
        )
        order = run_rng.fork(f"shuffle/joint/epoch{epoch}").permutation(n)
        for bi, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            enc_rng = run_rng.fork(f"encode/joint/epoch{epoch}/batch{bi}")
            x_enc = encode_batch(xs[idx], config.encoder, enc_rng)
            labels = ys[idx]
            batch_tasks = tids[idx]
            if net.multi_head:
                # mixed-task batch: accumulate per-head gradients, one step
                grads: dict[str, np.ndarray] = {}
                for t in np.unique(batch_tasks):
                    sub = batch_tasks == t
                    trace, logits = forward(net, x_enc[sub], task=int(t))
                    _, probs = softmax_cross_entropy_batch(np.atleast_2d(logits), labels[sub])
                    dlog = cross_entropy_grad(probs, labels[sub]) * (sub.sum() / len(labels))
                    for name, g in backward_dlogits(net, trace, dlog, surrogate).items():
                        grads[name] = grads.get(name, 0.0) + g
                optimizer_step(opt, net, grads)
            else:
                _train_batch(net, opt, x_enc, labels, None, strategy, ctx, surrogate)


# ---------------------------------------------------------------------------
# Evaluation


def evaluate_task(
    net: SpikingNetwork,
    stream: TaskStream,
    eval_idx: int,
    trained_idx: int,
    config: RunConfig,
    run_rng: RngStream,
    strategy: Strategy,
    chunk: int = 256,
) -> float:
    """Test accuracy on one task; read-only on the network.

    Task identity selects the head and gates in task-incremental runs and is
    withheld (single shared head) in domain-incremental runs.
    """
    task = stream.tasks[eval_idx]
    head = _head_for(net, eval_idx)
    gates = strategy.eval_gates(eval_idx + 1, trained_idx + 1, net)
    image = quantize_network(net, config.quant, task=head) if config.chip else None
    correct, total = 0, 0
    for ci, start in enumerate(range(0, len(task.test_y), chunk)):
        x = task.test_x[start : start + chunk]
        y = task.test_y[start : start + chunk]
        enc = run_rng.fork(f"eval/after{trained_idx}/task{eval_idx}/chunk{ci}")
        x_enc = encode_batch(x, config.encoder, enc)
        if config.chip:
            logits = chip_twin_counts(image, x_enc).astype(np.float64)
        else:
            _, logits = forward(net, x_enc, task=head, gates=gates)
        correct += int((np.atleast_2d(logits).argmax(axis=1) == y).sum())
        total += len(y)
    return correct / total


# ---------------------------------------------------------------------------
# Full runs


def _make_sample_provider(task, config, run_rng, task_idx):
    """Per-sample (spike_train, label) iterator for importance estimation."""

    def provider(count: int):
        n = min(count, len(task.train_y))
        fork = run_rng.fork(f"fisher/task{task_idx}")

        def gen():
            for i in range(n):
                x_enc = encode_batch(task.train_x[i : i + 1], config.encoder, fork.fork(f"s{i}"))
                yield x_enc[0], int(task.train_y[i])

        return gen()

    return provider


def run_seed(config: RunConfig, seed: int) -> list[MetricsRecord]:
    """Train the configured strategy through the whole stream for one seed."""
    records, _ = _run_seed_full(config, seed)
    return records


def _run_seed_full(config: RunConfig, seed: int):
    stream = build_stream(config)
    run_rng = RngStream(seed)
    net = build_network(config, stream, run_rng.fork("init"))
    strategy = apply_strategy(config.strategy, stream.scenario, seed, config.surrogate)
    chip = ChipModel() if config.chip else None

    records: list[MetricsRecord] = []
    n_tasks = len(stream.tasks)

    if strategy.pooled:
        t0 = time.perf_counter()
        _joint_phase(config, net, stream, strategy, run_rng, config.surrogate)
        accs = [
            evaluate_task(net, stream, i, n_tasks - 1, config, run_rng, strategy)
            for i in range(n_tasks)
        ]
        wall = (time.perf_counter() - t0) * 1000.0
        for i, acc in enumerate(accs):
            records.append(
                MetricsRecord(
                    seed, config.strategy.name, stream.scenario, n_tasks, i + 1,
                    acc, incremental_accuracy(accs, n_tasks), wall,
                )
            )
        return records, net

    for task_idx in range(n_tasks):
        t0 = time.perf_counter()
        ctx = TaskContext(
            task=task_idx + 1, total_tasks=n_tasks, scenario=stream.scenario,
            epoch=0, total_epochs=config.epochs_per_task,
        )
        strategy.before_task(ctx, net)
        if config.chip:
            _chip_task(config, net, stream, task_idx, strategy, run_rng, config.surrogate, chip)
        else:
            _external_task(config, net, stream, task_idx, strategy, run_rng, config.surrogate)
        provider = _make_sample_provider(stream.tasks[task_idx], config, run_rng, task_idx)
        strategy.after_task(ctx, net, provider)

        accs = [
            evaluate_task(net, stream, i, task_idx, config, run_rng, strategy)
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
        records, net = _run_seed_full(config, seed)
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
