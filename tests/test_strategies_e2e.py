"""End-to-end smokes over the full strategy roster, plus cross-strategy
equivalence invariants on a miniature task stream."""

from dataclasses import replace

import numpy as np
import pytest

import spikecl.continual as continual
import spikecl.runner as runner
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

from oracles import param_names


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


def _two_task_run(monkeypatch, name):
    """A 2-task mini split run of ``name`` at 2 epochs per task; returns the
    run's strategy, the (task, epoch) of every ``accumulate_hebbian`` call,
    the task index of every Fisher provider draw, and per step (task,
    whether SI holds ``_pending`` copies) and the tasks LwF snapshotted."""
    made, at, log = [], {}, {"hebbian": [], "draws": [], "pending": [], "snapshots": []}

    def spy_strategy(*args):
        s = apply_strategy(*args)
        batch_loss, grad_transform, after_task = s.batch_loss, s.grad_transform, s.after_task

        def spy_batch_loss(ctx, *rest):
            at["now"] = (ctx.task, ctx.epoch)
            return batch_loss(ctx, *rest)

        def spy_grad_transform(ctx, net, grads):
            out = grad_transform(ctx, net, grads)
            log["pending"].append((ctx.task, getattr(s, "_pending", None) is not None))
            return out

        def spy_after_task(ctx, net, provider=None):
            before = getattr(s, "snapshot", None)
            after_task(ctx, net, provider)
            if getattr(s, "snapshot", None) is not before:
                log["snapshots"].append(ctx.task)

        s.batch_loss, s.grad_transform, s.after_task = spy_batch_loss, spy_grad_transform, spy_after_task
        made.append(s)
        return s

    def spy_accumulate(acc, pre, post):
        log["hebbian"].append(at["now"])
        return accumulate(acc, pre, post)

    def spy_provider(task, config, run_rng, task_idx):
        provider = make_provider(task, config, run_rng, task_idx)

        def draw(count):
            log["draws"].append(task_idx)
            return provider(count)

        return draw

    accumulate, make_provider = continual.accumulate_hebbian, runner._make_sample_provider
    monkeypatch.setattr(runner, "apply_strategy", spy_strategy)
    monkeypatch.setattr(continual, "accumulate_hebbian", spy_accumulate)
    monkeypatch.setattr(runner, "_make_sample_provider", spy_provider)
    cfg = replace(mini_split_cfg(name), split_pairs=[[0, 1], [2, 3]], epochs_per_task=2)
    recs, _ = run_seed(cfg, 3)
    assert {r.after_task for r in recs} == {1, 2}
    return made[0], log


@pytest.mark.parametrize("name", ["hwc-hard", "ewc", "si", "lwf"])
def test_the_final_task_consolidates_nothing(monkeypatch, name):
    strategy, log = _two_task_run(monkeypatch, name)
    if name == "hwc-hard":
        assert log["hebbian"] and set(log["hebbian"]) == {(1, 1)}
        assert strategy._acc == {} and strategy.store.tasks_completed == 1
        assert strategy.mask is not None  # task 1 stays protected
    elif name == "ewc":
        assert log["draws"] == [0]
    elif name == "si":
        tasks = {t for t, _ in log["pending"]}
        assert tasks == {1, 2}
        assert all(pending == (t == 1) for t, pending in log["pending"])
        assert strategy._w_acc == {} and strategy._theta_start == {}
    else:
        assert log["snapshots"] == [1] and strategy.seen_tasks == [0]


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
        for name in param_names(reference):
            assert np.array_equal(net.get_param(name), reference.get_param(name)), (
                strategy, name,
            )
    gated = train_one_task("xdg")
    assert any(
        not np.array_equal(gated.get_param(n), reference.get_param(n))
        for n in param_names(reference)
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
