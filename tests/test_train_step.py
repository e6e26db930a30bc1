"""The single training step: pooled multi-head batches, the chip's loss term,
and chip runs at mu = 0."""

import numpy as np
import pytest

from spikecl.chip import (
    ChipModel,
    QuantSpec,
    chip_twin_counts,
    upload_weights,
)
from spikecl.continual import StrategyConfig, TaskContext, apply_strategy
from spikecl.data import DriftSpec
from spikecl.numerics import cross_entropy_grad, softmax_cross_entropy_batch
from spikecl.rng import RngStream
from spikecl.runner import MentorState, RunConfig, run_seed, train_step
from spikecl.snn import forward, init_network
from spikecl.train import LossSpec, OptimizerState, SurrogateSpec, add_grads, backward_dlogits, optimizer_step

from oracles import composite_loss


def _spikes(rng, shape, p=0.4):
    return (rng.uniform(shape) < p).astype(np.float64)


def _state(net, loss=None):
    return MentorState(
        net=net,
        optimizer=OptimizerState(kind="adam", lr=5e-3),
        surrogate=SurrogateSpec(),
        loss_spec=loss or LossSpec(),
        quant_spec=QuantSpec(bits=8),
    )


def _strategy(name, scenario="task-incremental"):
    return apply_strategy(StrategyConfig(name), scenario, 0, SurrogateSpec())


def _pooled_step_oracle(net, opt, x_enc, labels, tasks, surrogate):
    """The joint phase's former multi-head branch: one pass per head on its
    samples, its gradient weighted by its share, then one step. Returns the
    batch's mean cross-entropy."""
    grads, loss = {}, 0.0
    for t in np.unique(tasks):
        sub = tasks == t
        trace, logits = forward(net, x_enc[sub], task=int(t))
        ce, probs = softmax_cross_entropy_batch(np.atleast_2d(logits), labels[sub])
        dlog = cross_entropy_grad(probs, labels[sub]) * (sub.sum() / len(labels))
        add_grads(grads, backward_dlogits(net, trace, dlog, surrogate))
        loss += ce * sub.sum() / len(labels)
    optimizer_step(opt, net, grads)
    return loss


def test_pooled_multi_head_step_matches_per_head_loop():
    rng = RngStream(21)
    net = init_network([12, 16], rng.fork("net"), n_heads=3, head_size=2)
    ref = net.copy()
    ref_opt = OptimizerState(kind="adam", lr=5e-3)
    state = _state(net)
    strategy = _strategy("joint")
    ctx = TaskContext(task=3, total_tasks=3)
    for step in range(4):
        x = _spikes(rng.fork(f"x{step}"), (13, 8, 12))
        y = rng.fork(f"y{step}").integers(13, 2)
        tasks = rng.fork(f"t{step}").integers(13, 3)
        got = train_step(state, (x, y, None, tasks), strategy, ctx)
        want = _pooled_step_oracle(ref, ref_opt, x, y, tasks, state.surrogate)
        assert got == pytest.approx(want, rel=1e-12)
    for name in ref.param_names():
        assert net.get_param(name).tobytes() == ref.get_param(name).tobytes(), name


def test_chip_batch_loss_is_mean_of_composite_loss():
    rng = RngStream(22)
    net = init_network([10, 12, 3], rng.fork("net"), gain=4.0, head_gain=2.0)
    loss = LossSpec(lam=0.8, mu=1.3, alpha=0.6, beta=0.7)
    state = _state(net, loss)
    chip = ChipModel()
    image = upload_weights(chip, net, state.quant_spec)
    x = _spikes(rng.fork("x"), (9, 10, 10), p=0.6)
    y = rng.fork("y").integers(9, 3)

    _, enn = forward(net, x)
    inn = chip_twin_counts(image, x).astype(np.float64)  # equals the registers
    assert (enn != inn).any()  # the external and the chip term differ
    # the twin is the chip's integer pass: its term has the chip's counts
    want = np.mean([composite_loss(int(y[i]), enn[i], inn[i], inn[i], loss) for i in range(9)])

    got = train_step(state, (x, y, None), _strategy("none"), TaskContext(task=1, total_tasks=1), chip)
    assert got == pytest.approx(want, rel=1e-12)


def test_twin_loss_at_beta_zero_skips_the_twin(monkeypatch):
    import spikecl.chip as chip_mod

    rng = RngStream(23)
    net = init_network([10, 12, 3], rng.fork("net"), gain=4.0, head_gain=2.0)
    spec = LossSpec(lam=0.8, mu=1.3, alpha=0.6, beta=0.0)
    quant = QuantSpec(bits=8)
    chip = ChipModel()
    image = upload_weights(chip, net, quant)
    x = _spikes(rng.fork("x"), (9, 10, 10), p=0.6)
    y = rng.fork("y").integers(9, 3)
    ce_chip, _ = softmax_cross_entropy_batch(chip_twin_counts(image, x).astype(np.float64), y)

    def twin_backward(*args, **kwargs):
        raise AssertionError("the twin backward ran at beta = 0")

    monkeypatch.setattr(chip_mod, "backward_dlogits", twin_backward)
    loss, grads = chip_mod.twin_loss(net, x, y, spec, quant, SurrogateSpec())
    assert loss == spec.mu * (spec.alpha + spec.beta) * ce_chip
    assert grads == {}


def test_chip_with_mu_zero_trains_the_same_weights_as_no_chip():
    def trained(chip, lam=0.7):
        cfg = RunConfig(
            scenario="synthetic-drift",
            strategy=StrategyConfig("hwc-hard"),
            hidden=[16],
            epochs_per_task=2,
            dropout=0.1,
            chip=chip,
            loss=LossSpec(lam=lam, mu=0.0),
            drift=DriftSpec(days=2, train_per_day=40, test_per_day=16),
        )
        return run_seed(cfg, 4)[1]

    ref, got = trained(False), trained(True)
    for name in ref.param_names():
        assert got.get_param(name).tobytes() == ref.get_param(name).tobytes(), name
    # lam scales the step without the chip too
    other = trained(False, lam=1.0)
    assert any(
        other.get_param(name).tobytes() != ref.get_param(name).tobytes()
        for name in ref.param_names()
    )
