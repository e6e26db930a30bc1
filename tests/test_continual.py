import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecl.continual import (
    HebbianAccumulator,
    HebbianStore,
    StrategyConfig,
    TaskContext,
    accumulate_hebbian,
    apply_strategy,
    ewc_fisher,
    finalize_hebbian,
    finalize_task,
    gate_update,
    potential,
    regularizer_penalty,
    si_update_omega,
)
from spikecl.container import read_bundle
from spikecl.data import DriftSpec, encode_batch
from spikecl.errors import ConfigurationError, ContractViolation
from spikecl.rng import RngStream
from spikecl.runner import RunConfig, _make_sample_provider, build_stream
from spikecl.snn import LifParams, forward, init_network
from spikecl.train import OptimizerState, SurrogateSpec, optimizer_step

from oracles import backward, ewc_penalty_oracle, write_mask_dump


class TestHebbianAccumulation:
    def test_maximum_coincidence(self):
        acc = HebbianAccumulator((2, 2))
        for _ in range(5):
            accumulate_hebbian(acc, np.ones((1, 2)), np.ones((1, 2)))
        assert np.array_equal(finalize_hebbian(acc), np.ones((2, 2)))

    def test_silent_neuron_gives_zero(self):
        acc = HebbianAccumulator((2, 3))
        for _ in range(4):
            accumulate_hebbian(acc, np.zeros((1, 2)), np.array([[1.0, 0.5, 0.2]]))
        assert np.array_equal(finalize_hebbian(acc), np.zeros((2, 3)))

    def test_two_sample_arithmetic(self):
        # (0.5, 0.4) and (1.0, 0.2): H = (0.2 + 0.2) / 2 = 0.2
        acc = HebbianAccumulator((1, 1))
        accumulate_hebbian(acc, np.array([[0.5]]), np.array([[0.4]]))
        accumulate_hebbian(acc, np.array([[1.0]]), np.array([[0.2]]))
        assert finalize_hebbian(acc)[0, 0] == pytest.approx(0.2, abs=1e-15)

    def test_batched_equals_per_sample_exactly(self):
        rng = RngStream(6)
        pre = rng.uniform((7, 3))
        post = rng.uniform((7, 4))
        a = HebbianAccumulator((3, 4))
        accumulate_hebbian(a, pre, post)
        b = HebbianAccumulator((3, 4))
        for i in range(7):
            accumulate_hebbian(b, pre[i : i + 1], post[i : i + 1])
        assert np.array_equal(a.sums, b.sums)
        assert a.count == b.count

    def test_brute_force_oracle_exact(self):
        rng = RngStream(60)
        pre = rng.uniform((9, 4))
        post = rng.uniform((9, 2))
        acc = HebbianAccumulator((4, 2))
        accumulate_hebbian(acc, pre, post)
        ref = np.zeros((4, 2))
        for i in range(9):
            ref += np.outer(pre[i], post[i])
        assert np.array_equal(acc.sums, ref)
        assert np.array_equal(finalize_hebbian(acc), ref / 9)

    def test_rejects_out_of_range_rates(self):
        acc = HebbianAccumulator((1, 1))
        with pytest.raises(ContractViolation):
            accumulate_hebbian(acc, np.array([[1.2]]), np.array([[0.5]]))

    def test_rejects_rates_without_a_batch_axis(self):
        acc = HebbianAccumulator((2, 2))
        with pytest.raises(ContractViolation):
            accumulate_hebbian(acc, np.ones(2), np.ones(2))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 20))
    def test_h_range_property(self, seed, n):
        rng = RngStream(seed)
        acc = HebbianAccumulator((3, 2))
        accumulate_hebbian(acc, rng.uniform((n, 3)), rng.uniform((n, 2)))
        h = finalize_hebbian(acc)
        assert (h >= 0.0).all() and (h <= 1.0).all()


class TestStoreAndPotential:
    def test_first_task_sets_store(self):
        store = HebbianStore()
        h1 = {"w0": np.array([[0.3, 0.6]])}
        finalize_task(store, h1)
        assert np.array_equal(store.h_max["w0"], h1["w0"])
        assert store.tasks_completed == 1

    def test_nan_statistics_rejected(self):
        with pytest.raises(ContractViolation):
            finalize_task(HebbianStore(), {"w0": np.array([[0.3, np.nan]])})

    def test_max_absorption(self):
        store = HebbianStore()
        finalize_task(store, {"w0": np.array([[0.5]])})
        finalize_task(store, {"w0": np.array([[0.2]])})
        assert store.h_max["w0"][0, 0] == 0.5

    def test_running_max_of_histories(self):
        store = HebbianStore()
        for v in (0.2, 0.5, 0.3):
            finalize_task(store, {"w0": np.array([[v]])})
        assert store.h_max["w0"][0, 0] == 0.5

    def test_h_max_non_decreasing(self):
        rng = RngStream(9)
        store = HebbianStore()
        prev = None
        for task in range(4):
            finalize_task(store, {"w0": rng.uniform((3, 3))})
            if prev is not None:
                assert (store.h_max["w0"] >= prev - 1e-15).all()
            prev = store.h_max["w0"].copy()

    def test_soft_potential(self):
        store = HebbianStore()
        finalize_task(store, {"w0": np.array([[0.5]])})
        mask = potential(store, "soft")
        assert mask.values["w0"][0, 0] == 0.5  # P = 1 - 0.5

    def test_hard_above_threshold_freezes(self):
        store = HebbianStore()
        finalize_task(store, {"w0": np.array([[0.5]])})
        mask = potential(store, "hard", threshold=0.4)
        assert mask.values["w0"][0, 0] == 0.0

    def test_hard_boundary_is_inclusive(self):
        # g(x) = 0 for x <= threshold: value exactly at threshold stays plastic
        store = HebbianStore()
        finalize_task(store, {"w0": np.array([[0.5]])})
        mask = potential(store, "hard", threshold=0.5)
        assert mask.values["w0"][0, 0] == 1.0

    def test_potential_preconditions(self):
        store = HebbianStore()
        with pytest.raises(ContractViolation):
            potential(store, "soft")
        finalize_task(store, {"w0": np.array([[0.5]])})
        with pytest.raises(ContractViolation):
            potential(store, "hard")  # missing threshold
        with pytest.raises(ContractViolation):
            potential(store, "hard", threshold=1.5)

    def test_monotone_consolidation_both_modes(self):
        rng = RngStream(14)
        store = HebbianStore()
        prev_soft = prev_hard = None
        for task in range(3):
            finalize_task(store, {"w0": rng.uniform((4, 4))})
            soft = potential(store, "soft").values["w0"]
            hard = potential(store, "hard", threshold=0.35).values["w0"]
            if prev_soft is not None:
                assert (soft <= prev_soft + 1e-15).all()
                assert (hard <= prev_hard).all()
            prev_soft, prev_hard = soft, hard

    def test_mask_dump_round_trip(self, tmp_path):
        store = HebbianStore()
        finalize_task(store, {"w0": np.array([[0.3, 0.8]])})
        mask = potential(store, "hard", threshold=0.5)
        path = tmp_path / "mask.bin"
        write_mask_dump(path, mask)
        meta, arrays = read_bundle(path)
        assert meta["mode"] == "hard" and meta["threshold"] == 0.5
        assert np.array_equal(arrays["w0"], mask.values["w0"])


class TestGateUpdate:
    def test_full_consolidation_zeroes_updates(self):
        mask = potential_of(np.array([[1.0, 1.0]]), "hard", 0.5)
        out = gate_update({"w0": np.array([[3.0, -2.0]])}, mask)
        assert np.array_equal(out["w0"], np.zeros((1, 2)))

    def test_identity_gate(self):
        mask = potential_of(np.array([[0.0, 0.0]]), "hard", 0.5)
        g = np.array([[3.0, -2.0]])
        out = gate_update({"w0": g}, mask)
        assert np.array_equal(out["w0"], g)

    def test_soft_arithmetic(self):
        mask = potential_of(np.array([[0.5]]), "soft")
        out = gate_update({"w0": np.array([[0.3]])}, mask)
        assert out["w0"][0, 0] == pytest.approx(0.15, abs=1e-15)

    def test_unmasked_params_pass_through(self):
        mask = potential_of(np.array([[1.0]]), "hard", 0.5)
        g = np.array([[1.0, 2.0]])
        out = gate_update({"head0": g}, mask)
        assert out["head0"] is g

    def test_hard_mask_is_bool_and_gates_with_the_bits_of_a_float_mask(self):
        rng = RngStream(17)
        h = rng.fork("h").uniform((6, 5))
        h[0, 0] = 0.4  # at the threshold: plastic
        mask = potential_of(h, "hard", 0.4)
        assert mask.values["w0"].dtype == np.bool_
        g = rng.fork("g").normal((6, 5))
        g[1, :] = -np.abs(g[1, :])  # negative entries masked to -0.0
        g[2, 0] = 0.0
        g[2, 1] = -0.0
        want = g * (h <= 0.4).astype(np.float64)
        assert np.signbit(want[h > 0.4]).any()
        out = gate_update({"w0": g.copy()}, mask)
        assert out["w0"].dtype == np.float64
        assert out["w0"].tobytes() == want.tobytes()


def potential_of(h, mode, threshold=None):
    store = HebbianStore()
    finalize_task(store, {"w0": h})
    return potential(store, mode, threshold)


class TestEwc:
    def _setup(self):
        rng = RngStream(21)
        net = init_network([3, 4, 2], rng, gain=1.5)
        sur = SurrogateSpec()
        xs = (rng.fork("d").uniform((3, 5, 3)) < 0.5).astype(np.float64)
        ys = [0, 1, 0]
        return net, sur, xs, ys

    def test_single_sample_is_squared_gradient(self):
        net, sur, xs, ys = self._setup()
        fisher = ewc_fisher(net, [(xs[0], ys[0])], sur)
        trace, logits = forward(net, xs[:1])
        g = backward(net, trace, logits, ys[:1], sur)
        for name in fisher:
            assert np.array_equal(fisher[name], g[name] * g[name])

    def test_brute_force_oracle(self):
        net, sur, xs, ys = self._setup()
        fisher = ewc_fisher(net, list(zip(xs, ys)), sur)
        ref = {}
        for x, y in zip(xs, ys):
            trace, logits = forward(net, x[None])
            g = backward(net, trace, logits, [y], sur)
            for name, arr in g.items():
                ref[name] = ref.get(name, 0.0) + arr * arr
        for name in fisher:
            assert np.allclose(fisher[name], ref[name] / 3, atol=1e-15)
            assert (fisher[name] >= 0).all()

    def test_zero_gradient_parameter_has_zero_fisher(self):
        net, sur, xs, ys = self._setup()
        net.weights[0][:, 0] = 0.0
        net.weights[1][0, :] = 0.0  # unit 0 dead: its incoming weights get no signal
        fisher = ewc_fisher(net, list(zip(xs, ys)), sur)
        assert np.allclose(fisher["w0"][:, 0], 0.0)

    def test_empty_data_rejected(self):
        net, sur, _, _ = self._setup()
        with pytest.raises(ContractViolation):
            ewc_fisher(net, [], sur)


def _ewc_fisher_oracle(net, examples, surrogate, task=None):
    """One forward and one backward per sample; squares summed in sample order."""
    sums = {}
    n = 0
    for spikes, label in examples:
        trace, logits = forward(net, spikes[None], task=task)
        grads = backward(net, trace, logits, [int(label)], surrogate)
        for name, g in grads.items():
            if name not in sums:
                sums[name] = np.zeros_like(g)
            sums[name] += g * g
        n += 1
    return {name: s / n for name, s in sums.items()}


def _fisher_case(kind, count):
    """(net, examples, kwargs) for a small net of the given kind."""
    rng = RngStream(400 + count)
    kwargs = {}
    if kind == "multi-head":
        net = init_network([6, 9, 7], rng, n_heads=3, head_size=4, gain=2.5)
        kwargs["task"] = 1
    elif kind == "leak-free-high-threshold":
        lif = LifParams(decay=1.0, threshold=1.7)
        net = init_network([6, 9, 7, 4], rng, lif=lif, gain=2.5)
    else:
        net = init_network([6, 9, 7, 4], rng, gain=2.5)
    xs = rng.fork("x").bernoulli(0.4, (count, 8, 6))
    ys = np.arange(count) % 4
    return net, list(zip(xs, ys)), kwargs


class TestBatchedFisher:
    """``ewc_fisher`` runs chunks of samples through one forward and one
    BPTT; the per-sample oracle runs each sample on its own."""

    @pytest.mark.parametrize("count", [1, 15, 16, 17, 33])
    @pytest.mark.parametrize("kind", ["single-head", "multi-head", "leak-free-high-threshold"])
    def test_matches_per_sample_oracle(self, kind, count):
        net, examples, kwargs = _fisher_case(kind, count)
        sur = SurrogateSpec()
        got = ewc_fisher(net, iter(examples), sur, **kwargs)
        want = _ewc_fisher_oracle(net, examples, sur, **kwargs)
        assert got.keys() == want.keys()
        assert sum(float(w.sum()) for w in want.values()) > 0.0
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-12, atol=0.0)

    def test_drift_shape_is_bit_identical(self):
        # the drift net (64-256-256-8, T = 10): batched and single-sample
        # forwards round alike here, so the estimate matches bit for bit
        rng = RngStream(31)
        net = init_network([64, 256, 256, 8], rng, head_gain=0.25)
        xs = rng.fork("x").bernoulli(0.3, (33, 10, 64))
        examples = list(zip(xs, np.arange(33) % 8))
        sur = SurrogateSpec()
        got = ewc_fisher(net, examples, sur)
        want = _ewc_fisher_oracle(net, examples, sur)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes()

    def test_empty_iterable_rejected(self):
        net, _, _ = _fisher_case("single-head", 1)
        with pytest.raises(ContractViolation):
            ewc_fisher(net, iter(()), SurrogateSpec())


@pytest.mark.parametrize(
    "scenario",
    [
        dict(scenario="synthetic-drift", drift=DriftSpec(days=2, train_per_day=208, test_per_day=8)),
        dict(scenario="split-mnist", split_pairs=[[0, 1], [2, 3]], corpus_train_per_class=104,
             corpus_test_per_class=2),
    ],
    ids=["drift", "split"],
)
def test_sample_provider_has_the_bytes_of_per_sample_encoding(scenario):
    # the provider encodes 16 samples per call; sample i of task k still
    # has the bytes of its own encode_batch call on fork fisher/task{k}/s{i}
    config = RunConfig(**scenario)
    stream = build_stream(config)
    run_rng = RngStream(7)
    for k, task in enumerate(stream.tasks):
        got = list(_make_sample_provider(task, config, run_rng, k)(200))
        assert len(got) == 200 < len(task.train_y)
        fork = run_rng.fork(f"fisher/task{k}")
        for i, (x, y) in enumerate(got):
            want = encode_batch(task.train_x[i : i + 1], config.encoder, fork.fork(f"s{i}"))
            assert x.tobytes() == want[0].tobytes()
            assert y == int(task.train_y[i])


class TestRegularizerPenalty:
    def test_zero_at_anchor(self):
        rng = RngStream(2)
        net = init_network([2, 2], rng)
        imp = {"w0": np.ones((2, 2))}
        anchor = {"w0": net.weights[0].copy()}
        loss, grads = regularizer_penalty(imp, anchor, net, strength=3.0)
        assert loss == 0.0
        assert np.array_equal(grads["w0"], np.zeros((2, 2)))

    def test_zero_importance_ignores_drift(self):
        rng = RngStream(2)
        net = init_network([2, 2], rng)
        anchor = {"w0": net.weights[0] + 10.0}
        loss, _ = regularizer_penalty({"w0": np.zeros((2, 2))}, anchor, net, 1.0)
        assert loss == 0.0

    def test_scalar_arithmetic(self):
        # imp 2, strength 1, drift 0.5 -> penalty 0.25, gradient 1.0
        net = init_network([1, 1], RngStream(0))
        net.weights[0][0, 0] = 1.0
        loss, grads = regularizer_penalty(
            {"w0": np.array([[2.0]])}, {"w0": np.array([[0.5]])}, net, 1.0
        )
        assert loss == pytest.approx(0.25, abs=1e-15)
        assert grads["w0"][0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_empty_store_rejected(self):
        net = init_network([1, 1], RngStream(0))
        with pytest.raises(ContractViolation):
            regularizer_penalty({}, {}, net, 1.0)

    def test_nonnegative_everywhere(self):
        rng = RngStream(33)
        net = init_network([3, 3], rng)
        imp = {"w0": rng.fork("imp").uniform((3, 3))}
        anchor = {"w0": rng.fork("anchor").normal((3, 3))}
        loss, _ = regularizer_penalty(imp, anchor, net, 2.0)
        assert loss >= 0.0

    def _tasks(self, count):
        # w0 (300, 64) spans three row blocks of the in-place sum, the last
        # one partial; w1 fits in one
        rng = RngStream(70)
        net = init_network([300, 64, 3], rng)
        tasks = []
        for k in range(count):
            imp = {n: rng.fork(f"f{k}{n}").uniform(net.get_param(n).shape) for n in ("w0", "w1")}
            imp["w0"][[0, -1]] = 0.0  # zero importance with negative drift gives -0 terms
            anchor = {n: net.get_param(n) + 1.0 + rng.fork(f"a{k}{n}").normal(net.get_param(n).shape)
                      for n in ("w0", "w1")}
            tasks.append((imp, anchor))
        return net, tasks

    def test_single_pair_gradient_is_the_textbook_expression(self):
        net, tasks = self._tasks(1)
        loss, grads = regularizer_penalty(tasks[0][0], tasks[0][1], net, 7.0)
        for name, f in tasks[0][0].items():
            want = 7.0 * f * (net.get_param(name) - tasks[0][1][name])
            assert grads[name].tobytes() == want.tobytes()  # -0 entries included
        want_loss = sum(
            0.5 * 7.0 * float((f * (net.get_param(n) - tasks[0][1][n]) ** 2).sum())
            for n, f in tasks[0][0].items()
        )
        assert loss == pytest.approx(want_loss, rel=1e-12)

    @staticmethod
    def _ewc(net, tasks, strength):
        """An EWC strategy that consolidated each (importance, anchor) pair
        in order, as if the net had ended each task at its anchor."""
        strat = apply_strategy(StrategyConfig("ewc", ewc_strength=strength), "task-incremental", 0, SurrogateSpec())
        for imp, anchor in tasks:
            ended = net.copy()
            for name, a in anchor.items():
                ended.set_param(name, a.copy())
            strat.consolidate({k: f.copy() for k, f in imp.items()}, ended)
        return strat

    @staticmethod
    def _assert_matches_oracle(strat, net, tasks, strength):
        """One task gives the textbook expression bit for bit; more agree with
        the per-task sum to rounding, since the merged sum is re-associated."""
        ctx = TaskContext(task=2, total_tasks=9)
        loss, grads = strat.batch_loss(ctx, net, None, None, None, None)
        want_loss, want = ewc_penalty_oracle(tasks, net, strength)
        assert grads.keys() == want.keys()
        for name, g in grads.items():
            assert np.all(np.isfinite(g))
            if len(tasks) == 1:
                imp, anchor = tasks[0]
                textbook = strength * imp[name] * (net.get_param(name) - anchor[name])
                assert g.tobytes() == textbook.tobytes()  # -0 entries included
            else:
                assert np.max(np.abs(g - want[name])) <= 1e-13 * np.max(np.abs(want[name]))
        if len(tasks) == 1:
            assert loss == regularizer_penalty(tasks[0][0], tasks[0][1], net, strength)[0]
        assert loss == pytest.approx(want_loss, rel=1e-12)

    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_ewc_hook_sums_tasks_exactly(self, count):
        net, tasks = self._tasks(count)
        self._assert_matches_oracle(self._ewc(net, tasks, 3.0), net, tasks, 3.0)

    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_ewc_merge_matches_per_task_oracle_with_zero_importance(self, count):
        # rows 0 and -1 of w0 have zero importance in every task (S = 0
        # there); rows 1 and 2 of w0 and rows 0 to 2 of w1 in some tasks only
        net, tasks = self._tasks(count)
        for k, (imp, _) in enumerate(tasks):
            imp["w0"][[1 + k % 2]] = 0.0
            imp["w1"][[k % 3]] = 0.0
        strat = self._ewc(net, tasks, 3.0)
        for name in ("w0", "w1"):
            s = tasks[0][0][name].copy()
            for imp, _ in tasks[1:]:
                s += imp[name]
            assert strat.fisher_sum[name].tobytes() == s.tobytes()
            assert np.all(np.isfinite(strat.anchor[name]))
        # where no task weighs a parameter, the anchor stays the first one
        assert strat.anchor["w0"][[0, -1]].tobytes() == tasks[0][1]["w0"][[0, -1]].tobytes()
        assert np.isfinite(strat.residual) and strat.residual >= 0.0
        assert (strat.residual == 0.0) == (count == 1)
        self._assert_matches_oracle(strat, net, tasks, 3.0)


class TestSi:
    def test_frozen_parameter_zero_importance(self):
        w_acc = {"w0": np.zeros((2, 2))}
        drift = {"w0": np.zeros((2, 2))}
        omega = si_update_omega(w_acc, drift, damping=0.1)
        assert np.array_equal(omega["w0"], np.zeros((2, 2)))

    def test_single_step_arithmetic(self):
        # gradient -1, step +0.1 -> w = 0.1; drift^2 = 0.01, xi = 0 -> 10
        w_acc = {"w0": np.array([[-(-1.0) * 0.1]])}
        drift = {"w0": np.array([[0.1]])}
        omega = si_update_omega(w_acc, drift, damping=0.0)
        assert omega["w0"][0, 0] == pytest.approx(10.0, rel=1e-12)

    def test_negative_contributions_clamped(self):
        omega = si_update_omega(
            {"w0": np.array([[-0.5]])}, {"w0": np.array([[0.1]])}, 0.0
        )
        assert omega["w0"][0, 0] == 0.0

    def test_multi_step_replay_oracle(self):
        # drive the strategy hooks through a fake trajectory and replay it
        cfg = StrategyConfig("si", si_strength=1.0, si_damping=0.05)
        net = init_network([2, 2], RngStream(44))
        strat = apply_strategy(cfg, "task-incremental", 0, SurrogateSpec())
        ctx = TaskContext(task=1, total_tasks=2)
        strat.before_task(ctx, net)
        rng = RngStream(77)
        theta_log = [net.weights[0].copy()]
        grad_log = []
        for step in range(5):
            g = rng.normal((2, 2)) * 0.1
            grad_log.append(g.copy())
            strat.grad_transform(ctx, net, {"w0": g})
            net.weights[0] = net.weights[0] - 0.05 * g  # plain sgd move
            theta_log.append(net.weights[0].copy())
        strat.after_task(ctx, net)
        w_ref = np.zeros((2, 2))
        for step in range(5):
            w_ref += -grad_log[step] * (theta_log[step + 1] - theta_log[step])
        drift = theta_log[-1] - theta_log[0]
        expected = np.maximum(w_ref, 0.0) / (drift * drift + 0.05)
        assert np.allclose(strat.omega["w0"], expected, atol=1e-12)

    def test_pending_holds_the_steps_own_gradient_arrays(self):
        # nothing writes a step's gradients after the step, so they are kept
        # uncopied; the weights, which the step moves in place, are copied
        net = init_network([3, 4], RngStream(45), n_heads=2, head_size=2)
        strat = apply_strategy(StrategyConfig("si"), "task-incremental", 0, SurrogateSpec())
        ctx = TaskContext(task=1, total_tasks=2)
        strat.before_task(ctx, net)
        rng = RngStream(46)
        grads = {k: rng.fork(k).normal(net.get_param(k).shape) for k in ("w0", "head0", "head1")}
        assert strat.grad_transform(ctx, net, grads) is grads
        theta, kept = strat._pending
        assert set(kept) == set(theta) == set(strat._w_acc) and "w0" in kept
        for name, g in kept.items():
            assert g is grads[name]
            assert theta[name] is not net.get_param(name)
            assert np.array_equal(theta[name], net.get_param(name))


class TestApplyStrategy:
    def _ctx(self):
        return TaskContext(task=1, total_tasks=2)

    def test_none_hooks_are_identity(self):
        strat = apply_strategy(StrategyConfig("none"), "task-incremental", 0, SurrogateSpec())
        net = init_network([2, 2], RngStream(0))
        grads = {"w0": np.ones((2, 2))}
        assert strat.grad_transform(self._ctx(), net, grads) is grads
        assert strat.batch_loss(self._ctx(), net, None, None, None, None) == (0.0, None)
        assert not strat.pooled

    def test_joint_signals_pooled(self):
        strat = apply_strategy(StrategyConfig("joint"), "task-incremental", 0, SurrogateSpec())
        assert strat.pooled

    def test_hwc_hard_gradient_hook_gates(self):
        strat = apply_strategy(
            StrategyConfig("hwc-hard", hwc_threshold_abs=0.4),
            "task-incremental", 0, SurrogateSpec(),
        )
        net = init_network([2, 2], RngStream(1))
        strat.store = HebbianStore()
        finalize_task(strat.store, {"w0": np.array([[0.9, 0.1], [0.9, 0.1]])})
        strat.before_task(TaskContext(task=2, total_tasks=2), net)
        grads = strat.grad_transform(self._ctx(), net, {"w0": np.ones((2, 2))})
        assert np.array_equal(grads["w0"], np.array([[0.0, 1.0], [0.0, 1.0]]))

    def test_ewc_loss_hook_adds_penalty(self):
        strat = apply_strategy(StrategyConfig("ewc", ewc_strength=2.0), "task-incremental", 0, SurrogateSpec())
        net = init_network([2, 2], RngStream(1))
        ended = net.copy()
        ended.weights[0] -= 1.0
        strat.consolidate({"w0": np.ones((2, 2))}, ended)
        loss, grads = strat.batch_loss(self._ctx(), net, None, None, None, None)
        assert loss == pytest.approx(0.5 * 2.0 * 4.0)  # (c/2) * sum(1 * 1^2)
        assert np.allclose(grads["w0"], 2.0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            StrategyConfig("replay")


class TestSnapshotsSurviveInPlaceSteps:
    """The optimizer updates weights in place; what strategies keep of the
    weights must be copies, not views that move with the next step."""

    def _net(self):
        return init_network([3, 2], RngStream(60))

    def _step(self, net, seed):
        opt = OptimizerState(lr=0.05)
        optimizer_step(opt, net, {"w0": RngStream(seed).normal((3, 2))})

    def _ewc_after_tasks(self, net, count):
        """An EWC strategy after ``count`` tasks, with an optimizer step on
        ``net`` between tasks."""
        strat = apply_strategy(StrategyConfig("ewc", ewc_fisher_samples=4), "task-incremental", 0, SurrogateSpec())
        spikes = RngStream(61).bernoulli(0.5, (4, 5, 3))

        def provider(n):
            return ((spikes[i], i % 2) for i in range(n))

        for k in range(count):
            if k:
                self._step(net, 62 + k)
            strat.after_task(TaskContext(task=k + 1, total_tasks=count + 1), net, provider)
        return strat

    def test_ewc_anchor_does_not_move(self):
        net = self._net()
        strat = self._ewc_after_tasks(net, 1)
        anchor = {k: a.copy() for k, a in strat.anchor.items()}
        self._step(net, 62)
        assert not np.array_equal(net.weights[0], anchor["w0"])
        for k, a in strat.anchor.items():
            assert not np.shares_memory(a, net.get_param(k))
            assert a.tobytes() == anchor[k].tobytes()

    def test_ewc_keeps_the_same_bytes_after_one_and_four_tasks(self):
        def retained(v):
            if isinstance(v, np.ndarray):
                return v.nbytes
            if isinstance(v, dict):
                return sum(retained(x) for x in v.values())
            if isinstance(v, (list, tuple)):
                return sum(retained(x) for x in v)
            return 0

        one = retained(vars(self._ewc_after_tasks(self._net(), 1)))
        four = retained(vars(self._ewc_after_tasks(self._net(), 4)))
        assert one > 0 and four == one

    def test_si_snapshots_do_not_move(self):
        net = self._net()
        strat = apply_strategy(StrategyConfig("si"), "task-incremental", 0, SurrogateSpec())
        ctx = TaskContext(task=1, total_tasks=2)
        strat.before_task(ctx, net)
        start = {k: a.copy() for k, a in strat._theta_start.items()}
        grads = strat.grad_transform(ctx, net, {"w0": RngStream(63).normal((3, 2))})
        pending = strat._pending[0]["w0"].copy()
        optimizer_step(OptimizerState(lr=0.05), net, grads)
        assert strat._pending[0]["w0"].tobytes() == pending.tobytes()
        assert strat._theta_start["w0"].tobytes() == start["w0"].tobytes()
        strat.after_task(ctx, net)
        assert strat._theta_start == {} and strat._w_acc == {}
        anchor = strat.anchor["w0"].copy()
        self._step(net, 64)
        assert strat.anchor["w0"].tobytes() == anchor.tobytes()
        assert not np.array_equal(net.weights[0], anchor)
