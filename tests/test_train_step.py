"""The single training step: pooled multi-head batches, the chip's loss term,
chip runs at mu = 0 and chip runs without a chip."""

import platform

import numpy as np
import pytest

import spikecl.chip as chip_mod
import spikecl.runner as runner_mod
from spikecl.chip import QuantSpec, chip_twin_counts, quantize_network
from spikecl.continual import StrategyConfig, TaskContext, apply_strategy
from spikecl.data import DriftSpec
from spikecl.numerics import cross_entropy_grad, softmax_cross_entropy_batch
from spikecl.rng import RngStream
from spikecl.runner import MentorState, RunConfig, run_experiment, run_seed, train_step
from spikecl.snn import forward, init_network
from spikecl.train import LossSpec, OptimizerState, SurrogateSpec, add_grads, backward_dlogits, optimizer_step

from oracles import composite_loss, param_names


def _spikes(rng, shape, p=0.4):
    return (rng.uniform(shape) < p).astype(np.float64)


def _state(net, loss=None, quant=None):
    return MentorState(
        net=net,
        optimizer=OptimizerState(lr=5e-3),
        surrogate=SurrogateSpec(),
        loss_spec=loss or LossSpec(),
        quant_spec=quant,
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
    ref_opt = OptimizerState(lr=5e-3)
    state = _state(net)
    strategy = _strategy("joint")
    ctx = TaskContext(task=3, total_tasks=3)
    for step in range(4):
        x = _spikes(rng.fork(f"x{step}"), (13, 8, 12))
        y = rng.fork(f"y{step}").integers(13, 2)
        tasks = rng.fork(f"t{step}").integers(13, 3)
        got = train_step(state, (x, y, tasks), strategy, ctx)
        want = _pooled_step_oracle(ref, ref_opt, x, y, tasks, state.surrogate)
        assert got == pytest.approx(want, rel=1e-12)
    for name in param_names(ref):
        assert net.get_param(name).tobytes() == ref.get_param(name).tobytes(), name


def test_add_grads_sums_in_place_with_the_bits_of_plus():
    rng = RngStream(23)
    a, b = rng.fork("a").normal((7, 5)), rng.fork("b").normal((7, 5))
    want = a + b
    first = a.copy()
    grads = {}
    add_grads(grads, {"w0": first})
    add_grads(grads, None)
    add_grads(grads, {"w0": b})
    assert grads["w0"] is first
    assert first.tobytes() == want.tobytes()


def test_add_grads_of_a_pooled_two_head_batch_keeps_the_bits_of_plus():
    rng = RngStream(24)
    net = init_network([12, 16], rng.fork("net"), n_heads=2, head_size=2)
    x = _spikes(rng.fork("x"), (9, 8, 12))
    y = rng.fork("y").integers(9, 2)
    tasks = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1])
    per_head = []
    for t in (0, 1):
        sub = tasks == t
        trace, logits = forward(net, x[sub], task=t)
        _, probs = softmax_cross_entropy_batch(logits, y[sub])
        dlog = cross_entropy_grad(probs, y[sub]) * (sub.sum() / len(y))
        per_head.append(backward_dlogits(net, trace, dlog, SurrogateSpec()))
    g0, g1 = per_head
    want = {"w0": g0["w0"] + g1["w0"], "head0": g0["head0"].copy(), "head1": g1["head1"].copy()}
    grads = {}
    for g in per_head:
        add_grads(grads, g)
    assert grads["w0"] is g0["w0"] and grads["head1"] is g1["head1"]
    assert sorted(grads) == sorted(want)
    for name, w in want.items():
        assert grads[name].tobytes() == w.tobytes(), name


def test_chip_batch_loss_is_mean_of_composite_loss():
    rng = RngStream(22)
    net = init_network([10, 12, 3], rng.fork("net"), gain=4.0, head_gain=2.0)
    loss = LossSpec(lam=0.8, mu=1.3)
    state = _state(net, loss, QuantSpec(bits=8))
    image = quantize_network(net, state.quant_spec)
    x = _spikes(rng.fork("x"), (9, 10, 10), p=0.6)
    y = rng.fork("y").integers(9, 3)

    _, enn = forward(net, x)
    inn = chip_twin_counts(image, x).astype(np.float64)  # equals the registers
    assert (enn != inn).any()  # the external and the chip term differ
    want = np.mean([composite_loss(int(y[i]), enn[i], inn[i], loss) for i in range(9)])

    got = train_step(state, (x, y), _strategy("none"), TaskContext(task=1, total_tasks=1))
    assert got == pytest.approx(want, rel=1e-12)


def test_chip_with_mu_zero_trains_the_same_weights_as_no_chip():
    def trained(chip, lam=0.7):
        cfg = RunConfig(
            scenario="synthetic-drift",
            strategy=StrategyConfig("hwc-hard"),
            hidden=[16],
            epochs_per_task=2,
            chip=chip,
            loss=LossSpec(lam=lam, mu=0.0),
            drift=DriftSpec(days=2, train_per_day=40, test_per_day=16),
        )
        return run_seed(cfg, 4)[1]

    ref, got = trained(False), trained(True)
    for name in param_names(ref):
        assert got.get_param(name).tobytes() == ref.get_param(name).tobytes(), name
    # lam scales the step without the chip too
    other = trained(False, lam=1.0)
    assert any(
        other.get_param(name).tobytes() != ref.get_param(name).tobytes()
        for name in param_names(ref)
    )


def _small_chip_split(**kw):
    return RunConfig(
        scenario="split-mnist",
        hidden=[32],
        split_pairs=[[0, 1], [2, 3]],
        corpus_train_per_class=40,
        corpus_test_per_class=20,
        epochs_per_task=1,
        chip=True,
        **kw,
    )


@pytest.mark.skipif(
    platform.machine() != "x86_64" or not np.__version__.startswith("2.4."),
    reason="rows pinned on x86-64 with numpy 2.4",
)
@pytest.mark.parametrize("mu, correct", [(1.0, [29, 30, 19]), (0.0, [26, 29, 20])])
def test_chip_run_builds_and_uploads_to_no_chip(mu, correct, monkeypatch):
    # the pinned rows are those of the chip loop when it still built a chip
    # and uploaded the weights to it before each task and after each epoch
    def forbidden(*args, **kwargs):
        raise AssertionError("the chip loop built or uploaded to a chip")

    monkeypatch.setattr(chip_mod, "ChipModel", forbidden)
    monkeypatch.setattr(chip_mod, "upload_config", forbidden)
    cfg = _small_chip_split(strategy=StrategyConfig("hwc-hard"), loss=LossSpec(mu=mu))
    records, _ = run_seed(cfg, 3)
    assert [(r.after_task, r.eval_task) for r in records] == [(1, 1), (2, 1), (2, 2)]
    assert [r.accuracy for r in records] == [c / 40 for c in correct]


def test_joint_phase_of_a_chip_run_trains_without_the_chip_term(tmp_path):
    def checkpoint(chip):
        out = tmp_path / str(chip)
        cfg = _small_chip_split(strategy=StrategyConfig("joint"), loss=LossSpec(mu=1.0),
                                output_dir=str(out))
        cfg.chip = chip
        run_experiment(cfg, verbose=False)
        return (out / "checkpoint_seed1.bin").read_bytes()

    assert checkpoint(True) == checkpoint(False)


_F32_SPLIT = dict(
    scenario="split-mnist", hidden=[24, 16], split_pairs=[[0, 1], [2, 3]],
    corpus_train_per_class=16, corpus_test_per_class=4, epochs_per_task=1,
)
_F32_DRIFT = dict(
    scenario="synthetic-drift", hidden=[24, 16], epochs_per_task=1,
    drift=DriftSpec(days=2, train_per_day=32, test_per_day=8),
)
_F32_CASES = {
    "split-hwc-hard-chip": dict(
        _F32_SPLIT, strategy=StrategyConfig("hwc-hard"), chip=True, loss=LossSpec(mu=1.0)
    ),
    "split-ewc": dict(_F32_SPLIT, strategy=StrategyConfig("ewc", ewc_fisher_samples=20)),
    "split-joint": dict(_F32_SPLIT, strategy=StrategyConfig("joint")),
    "drift-si-chip": dict(
        _F32_DRIFT, strategy=StrategyConfig("si"), chip=True, loss=LossSpec(lam=0.6, mu=0.4)
    ),
    "drift-ewc": dict(_F32_DRIFT, strategy=StrategyConfig("ewc", ewc_fisher_samples=20)),
}


@pytest.mark.parametrize("case", sorted(_F32_CASES))
def test_training_keeps_every_array_float32(case, monkeypatch):
    # a build_network net trains in float32 throughout: one silent float64
    # promotion anywhere in the step would double that array's work
    arrays = []

    def spy_step(opt, net, grads):
        optimizer_step(opt, net, grads)
        arrays.extend(("gradient " + k, g) for k, g in grads.items())
        for k, slot in opt.slots.items():
            arrays.extend((f"adam {key} {k}", slot[key]) for key in ("m", "v"))
        arrays.extend((k, net.get_param(k)) for k in param_names(net))

    def spy_backward(module):
        real = module.backward_dlogits

        def spy(net, trace, dlogits, surrogate):
            arrays.extend((f"{module.__name__} trace", a) for a in trace.spikes + trace.pre_reset)
            return real(net, trace, dlogits, surrogate)

        monkeypatch.setattr(module, "backward_dlogits", spy)

    strategies = []

    def spy_apply(*args):
        strategies.append(real_apply(*args))
        return strategies[-1]

    real_apply = runner_mod.apply_strategy
    monkeypatch.setattr(runner_mod, "optimizer_step", spy_step)
    monkeypatch.setattr(runner_mod, "apply_strategy", spy_apply)
    spy_backward(runner_mod)
    spy_backward(chip_mod)
    run_seed(RunConfig(**_F32_CASES[case]), 2)
    (strategy,) = strategies
    for store in ("fisher_sum", "anchor", "omega"):
        arrays.extend((f"{store} {k}", a) for k, a in getattr(strategy, store, {}).items())
    assert any("trace" in name for name, _ in arrays) and any("adam" in name for name, _ in arrays)
    if case.endswith("chip"):
        assert any(name.startswith("spikecl.chip") for name, _ in arrays)
    promoted = sorted({name for name, a in arrays if a.dtype != np.float32})
    assert not promoted
