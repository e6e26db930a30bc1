"""End-to-end smokes over the full strategy roster, plus cross-strategy
equivalence invariants on a miniature task stream."""

import numpy as np
import pytest

from spikecl.continual import STRATEGIES, StrategyConfig, TaskContext, apply_strategy
from spikecl.data import DriftSpec, build_split_stream, generate_digit_corpus
from spikecl.rng import RngStream
from spikecl.runner import (
    RunConfig,
    _make_sample_provider,
    build_network,
    build_stream,
    run_seed,
    train_task,
)


def mini_split_cfg(strategy, **strategy_kw):
    return RunConfig(
        scenario="split-mnist",
        strategy=StrategyConfig(strategy, **strategy_kw),
        hidden=[24],
        epochs_per_task=1,
        train_cap=80,
        test_cap=40,
        corpus_train_per_class=20,
        corpus_test_per_class=8,
        data_seed=4242,
    )


def mini_drift_cfg(strategy):
    return RunConfig(
        scenario="synthetic-drift",
        strategy=StrategyConfig(strategy),
        hidden=[24],
        epochs_per_task=1,
        drift=DriftSpec(days=3, train_per_day=48, test_per_day=24),
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_strategy_completes_split(strategy):
    recs, _ = run_seed(mini_split_cfg(strategy), 1)
    assert all(0.0 <= r.accuracy <= 1.0 for r in recs)
    stages = {r.after_task for r in recs}
    assert stages == {5} if strategy == "joint" else {1, 2, 3, 4, 5}


@pytest.mark.parametrize("strategy", ["none", "hwc-soft", "hwc-hard", "ewc", "si", "lwf", "xdg"])
def test_every_strategy_completes_drift(strategy):
    recs, _ = run_seed(mini_drift_cfg(strategy), 2)
    assert {r.after_task for r in recs} == {1, 2, 3}


def train_one_task(strategy_name):
    cfg = mini_split_cfg(strategy_name)
    stream = build_stream(cfg)
    rng = RngStream(9)
    net = build_network(cfg, stream, rng.fork("init"))
    strategy = apply_strategy(cfg.strategy, stream.scenario, 9, cfg.surrogate)
    ctx = TaskContext(task=1, total_tasks=5, epoch=0, total_epochs=1)
    strategy.before_task(ctx, net)
    train_task(cfg, net, stream, 0, strategy, rng)
    strategy.after_task(ctx, net, _make_sample_provider(stream.tasks[0], cfg, rng, 0))
    return net


def test_first_task_equivalence_except_xdg():
    # with no history to consolidate, every strategy's first task must be
    # bit-identical to an unprotected run; xdg gates from task 1
    reference = train_one_task("none")
    for strategy in ("hwc-soft", "hwc-hard", "ewc", "si", "lwf"):
        net = train_one_task(strategy)
        for name in reference.param_names():
            assert np.array_equal(net.get_param(name), reference.get_param(name)), (
                strategy, name,
            )
    gated = train_one_task("xdg")
    assert any(
        not np.array_equal(gated.get_param(n), reference.get_param(n))
        for n in reference.param_names()
    )


def test_soft_mask_scales_but_does_not_freeze():
    cfg = mini_split_cfg("hwc-soft")
    stream = build_stream(cfg)
    rng = RngStream(12)
    net = build_network(cfg, stream, rng.fork("init"))
    strategy = apply_strategy(cfg.strategy, stream.scenario, 12, cfg.surrogate)
    for idx in range(2):
        ctx = TaskContext(task=idx + 1, total_tasks=5, epoch=0, total_epochs=1)
        strategy.before_task(ctx, net)
        if idx == 1:
            assert strategy.mask is not None and strategy.mask.mode == "soft"
            vals = np.concatenate([v.ravel() for v in strategy.mask.values.values()])
            assert (vals >= 0).all() and (vals <= 1).all()
            assert (vals < 1).any()
        train_task(cfg, net, stream, idx, strategy, rng)
        strategy.after_task(ctx, net, _make_sample_provider(stream.tasks[idx], cfg, rng, idx))


def test_chip_run_end_to_end_records():
    cfg = RunConfig(
        scenario="synthetic-drift",
        strategy=StrategyConfig("none"),
        hidden=[16],
        epochs_per_task=1,
        chip=True,
        drift=DriftSpec(days=2, train_per_day=32, test_per_day=16),
    )
    recs, _ = run_seed(cfg, 3)
    assert {r.after_task for r in recs} == {1, 2}
    assert all(0.0 <= r.accuracy <= 1.0 for r in recs)
