import math

import numpy as np
import pytest

from spikecl.errors import ContractViolation
from spikecl.numerics import cross_entropy_grad, softmax, softmax_cross_entropy_batch
from spikecl.rng import RngStream
from spikecl.snn import LifParams, SpikingNetwork, forward, init_network
from spikecl.train import (
    LossSpec,
    OptimizerState,
    SurrogateSpec,
    backward_dlogits,
    backward_layers,
    distillation_loss,
    optimizer_step,
)

from oracles import SHIPPED_SHAPES, backward, bptt_oracle, composite_loss


class TestSurrogate:
    @pytest.mark.parametrize("shape,width", [("fast-sigmoid", 2.0), ("fast-sigmoid", 5.0), ("boxcar", 1.0)])
    def test_relaxed_derivative_matches_pseudo_derivative(self, shape, width):
        sur = SurrogateSpec(shape, width)
        x = np.linspace(-2.0, 2.0, 41) + 0.013  # off the boxcar kinks
        h = 1e-6
        fd = (sur.relaxed_activation(x + h) - sur.relaxed_activation(x - h)) / (2 * h)
        assert np.allclose(fd, sur.pseudo_derivative(x), atol=1e-6)

    def test_validation(self):
        with pytest.raises(ContractViolation):
            SurrogateSpec("step", 1.0)
        with pytest.raises(ContractViolation):
            SurrogateSpec("boxcar", 0.0)

    def test_fast_sigmoid_peak_at_threshold(self):
        sur = SurrogateSpec()
        assert sur.pseudo_derivative(np.array([0.0]))[0] == 1.0


class TestCompositeLoss:
    def _ce(self, logits, y):
        p = softmax(np.asarray(logits, dtype=np.float64))
        return -math.log(p[y])

    def test_mu_zero_is_fully_external(self):
        # chip-side predictions are ignored entirely, result is exactly lam*H
        spec = LossSpec(lam=0.7, mu=0.0)
        enn = [1.0, -0.5, 2.0]
        val = composite_loss(1, enn, [9e9, 1, 1], spec)
        assert val == 0.7 * self._ce(enn, 1)

    def test_term_selection(self):
        spec = LossSpec(lam=0.0, mu=1.0)
        inn = [0.2, 1.4]
        val = composite_loss(0, [5.0, -5.0], inn, spec)
        assert val == pytest.approx(self._ce(inn, 0), rel=1e-12)

    def test_linearity_with_identical_predictions(self):
        spec = LossSpec(lam=1.0, mu=2.0)
        z = [0.3, -0.2, 0.9]
        val = composite_loss(2, z, z, spec)
        assert val == pytest.approx(3.0 * self._ce(z, 2), rel=1e-12)

    def test_weight_validation(self):
        with pytest.raises(ContractViolation):
            LossSpec(lam=-0.1)
        with pytest.raises(ContractViolation):
            LossSpec(lam=0.0, mu=0.0)

    def test_length_mismatch(self):
        spec = LossSpec(lam=1.0, mu=1.0)
        with pytest.raises(ContractViolation):
            composite_loss(0, [1.0, 2.0], [1.0], spec)


class TestBackward:
    def _relaxed_loss(self, net, x, y, sur, task=None):
        _, logits = forward(net, x, task=task, mode="relaxed", surrogate=sur)
        return softmax_cross_entropy_batch(np.atleast_2d(logits), np.atleast_1d(y))[0]

    def test_finite_difference_oracle(self):
        # relaxed model gradients vs central differences on every layer
        rng = RngStream(31)
        net = init_network([2, 2, 2], rng, gain=1.5)
        sur = SurrogateSpec()
        x = (rng.fork("x").uniform((4, 6, 2)) < 0.5).astype(np.float64)
        y = np.array([0, 1, 1, 0])
        trace, logits = forward(net, x, mode="relaxed", surrogate=sur)
        grads = backward(net, trace, logits, y, sur)
        h = 1e-6
        worst = 0.0
        for name in ("w0", "w1"):
            w = net.get_param(name)
            for idx in np.ndindex(*w.shape):
                orig = w[idx]
                w[idx] = orig + h
                lp = self._relaxed_loss(net, x, y, sur)
                w[idx] = orig - h
                lm = self._relaxed_loss(net, x, y, sur)
                w[idx] = orig
                fd = (lp - lm) / (2 * h)
                worst = max(worst, abs(grads[name][idx] - fd) / max(abs(fd), abs(grads[name][idx]), 1e-8))
        assert worst < 1e-4

    def test_saturated_logits_give_near_zero_gradients(self):
        lif = LifParams()
        # weights drive output neuron 0 to fire every step, neuron 1 never
        net = SpikingNetwork([1, 2], [np.array([[50.0, -50.0]])], [lif])
        x = np.ones((1, 40, 1))
        trace, logits = forward(net, x)
        grads = backward(net, trace, logits, [0], SurrogateSpec())
        # probs ~ one-hot at the label: learning signal vanishes
        assert np.abs(grads["w0"]).max() < 1e-10

    def test_single_layer_single_step_closed_form(self):
        # T=1, one sample: grad = x^T . ((probs - onehot) * r'(u - theta))
        rng = RngStream(8)
        w = rng.uniform((3, 2)) * 2 - 1
        lif = LifParams(decay=0.9, threshold=1.0)
        net = SpikingNetwork([3, 2], [w.copy()], [lif])
        sur = SurrogateSpec()
        x = np.array([[1.0, 0.0, 1.0]])  # (T=1, n=3)
        trace, logits = forward(net, x[None], mode="relaxed", surrogate=sur)
        grads = backward(net, trace, logits, [1], sur)
        u = x[0] @ w
        s = sur.relaxed_activation(u - 1.0)
        probs = softmax(s)
        dlog = probs.copy()
        dlog[1] -= 1.0
        expected = np.outer(x[0], dlog * sur.pseudo_derivative(u - 1.0))
        assert np.allclose(grads["w0"], expected, atol=1e-12)

    def test_gradient_shapes_mirror_weights(self):
        rng = RngStream(3)
        net = init_network([3, 4], rng, n_heads=2, head_size=2)
        x = (rng.fork("x").uniform((2, 5, 3)) < 0.5).astype(np.float64)
        trace, logits = forward(net, x, task=0)
        grads = backward(net, trace, logits, np.array([0, 1]), SurrogateSpec())
        assert set(grads) == {"w0", "head0"}
        for name, g in grads.items():
            assert g.shape == net.get_param(name).shape

    def test_dlogits_shape_check(self):
        rng = RngStream(3)
        net = init_network([2, 2], rng)
        trace, _ = forward(net, np.zeros((1, 3, 2)))
        with pytest.raises(ContractViolation):
            backward_dlogits(net, trace, np.zeros((5, 2)), SurrogateSpec())

    def test_rejects_dlogits_without_a_batch_axis(self):
        net = init_network([2, 2], RngStream(3))
        trace, _ = forward(net, np.zeros((1, 3, 2)))
        with pytest.raises(ContractViolation):
            next(backward_layers(net, trace, np.zeros(2), SurrogateSpec()))


@pytest.mark.parametrize("reset", ["subtract", "zero"])
@pytest.mark.parametrize("shape", ["fast-sigmoid", "boxcar"])
@pytest.mark.parametrize("mode", ["spike", "relaxed"])
@pytest.mark.parametrize("gated", [False, True], ids=["ungated", "gated"])
@pytest.mark.parametrize("heads", [False, True], ids=["single-head", "multi-head"])
def test_in_place_bptt_matches_allocating_oracle_bit_for_bit(reset, shape, mode, gated, heads):
    sizes, head_size = ([14, 11, 9], 4) if heads else ([14, 11, 9, 4], None)
    _check_bptt_against_oracle(sizes, head_size, 6, 7, 0.4, 0.6, reset, shape, mode, gated)


@pytest.mark.parametrize("reset", ["subtract", "zero"])
@pytest.mark.parametrize("shape", ["fast-sigmoid", "boxcar"])
@pytest.mark.parametrize("mode", ["spike", "relaxed"])
@pytest.mark.parametrize("gated", [False, True], ids=["ungated", "gated"])
@pytest.mark.parametrize("net_shape", sorted(SHIPPED_SHAPES))
def test_in_place_bptt_matches_allocating_oracle_at_shipped_widths(net_shape, reset, shape, mode, gated):
    sizes, head_size, batch = SHIPPED_SHAPES[net_shape]
    _check_bptt_against_oracle(sizes, head_size, batch, 10, 0.2, 2.0, reset, shape, mode, gated)


def _check_bptt_against_oracle(sizes, head_size, B, T, rate, width, reset, shape, mode, gated):
    """``backward_dlogits`` works in place on time-major storage; the
    oracle allocates per expression on (B, T, n) arrays. Same bytes."""
    rng = RngStream(23)
    lif = LifParams(decay=0.85, threshold=0.9, reset=reset)
    n_heads = None if head_size is None else 3
    net = init_network(sizes, rng.fork("net"), lif=lif, n_heads=n_heads, head_size=head_size)
    sur = SurrogateSpec(shape, width)
    x = rng.fork("x").bernoulli(rate, (B, T, sizes[0]))
    hidden = sizes[1:] if head_size is not None else sizes[1:-1]
    gates = [rng.fork(f"g{l}").bernoulli(0.7, (n,)) for l, n in enumerate(hidden)] if gated else None
    task = None if head_size is None else 2
    trace, logits = forward(net, x, task=task, gates=gates, mode=mode, surrogate=sur)
    dlogits = rng.fork("d").normal(logits.shape)
    grads = backward_dlogits(net, trace, dlogits, sur)
    want = bptt_oracle(net, trace, dlogits, sur)
    assert set(grads) == set(want)
    for name in want:
        assert grads[name].tobytes() == want[name].tobytes(), name


class TestOptimizer:
    def _scalar_net(self, w=0.5):
        return SpikingNetwork([1, 1], [np.array([[w]])], [LifParams()])

    def test_zero_gradients_are_identity(self):
        net = self._scalar_net()
        opt = OptimizerState(lr=0.1)
        before = net.weights[0].copy()
        for _ in range(3):
            optimizer_step(opt, net, {"w0": np.zeros((1, 1))})
        assert np.array_equal(net.weights[0], before)

    def test_adam_single_step_hand_evaluated(self):
        # recurrence written out by hand for w=0.5, g=0.2, lr=0.01
        net = self._scalar_net(0.5)
        opt = OptimizerState(lr=0.01)
        optimizer_step(opt, net, {"w0": np.array([[0.2]])})
        g, lr, b1, b2, eps = 0.2, 0.01, 0.9, 0.999, 1e-8
        m_hat = ((1 - b1) * g) / (1 - b1)
        v_hat = ((1 - b2) * g * g) / (1 - b2)
        expected = 0.5 - lr * m_hat / (math.sqrt(v_hat) + eps)
        assert net.weights[0][0, 0] == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.4900000005, abs=1e-10)

    def test_shape_mismatch(self):
        net = self._scalar_net()
        with pytest.raises(ContractViolation):
            optimizer_step(OptimizerState(), net, {"w0": np.zeros((2, 2))})


def _optimizer_step_oracle(opt, net, grads):
    """The out-of-place update: fresh slot and weight arrays every step."""
    for name, g in grads.items():
        w = net.get_param(name)
        slot = opt.slots.setdefault(name, {"m": np.zeros_like(w), "v": np.zeros_like(w), "t": 0})
        slot["t"] += 1
        slot["m"] = opt.beta1 * slot["m"] + (1.0 - opt.beta1) * g
        slot["v"] = opt.beta2 * slot["v"] + (1.0 - opt.beta2) * g * g
        m_hat = slot["m"] / (1.0 - opt.beta1 ** slot["t"])
        v_hat = slot["v"] / (1.0 - opt.beta2 ** slot["t"])
        net.set_param(name, w - opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps))


def _one_layer(w):
    return SpikingNetwork(list(w.shape), [w], [LifParams()])


def _assert_same_state(opt, net, ref_opt, ref_net):
    assert net.weights[0].tobytes() == ref_net.weights[0].tobytes()
    assert opt.slots.keys() == ref_opt.slots.keys()
    for name, slot in ref_opt.slots.items():
        assert opt.slots[name].keys() == slot.keys()
        for key, value in slot.items():
            assert np.asarray(opt.slots[name][key]).tobytes() == np.asarray(value).tobytes()


class TestInPlaceOptimizer:
    """The blocked in-place step is bit-identical to the out-of-place oracle."""

    @pytest.mark.parametrize("shape", [(784, 256), (300, 7), (1, 1)])
    def test_fifty_steps_match_oracle(self, shape):
        rng = RngStream(11).fork(f"adam/{shape}")
        w = rng.fork("w").normal(shape)
        net, ref_net = _one_layer(w.copy()), _one_layer(w.copy())
        opt, ref_opt = OptimizerState(lr=0.01), OptimizerState(lr=0.01)
        for step in range(50):
            draw = rng.fork(f"g{step}")
            g = draw.normal(shape) * 10.0 ** (4 * draw.uniform(()) - 3)
            g[draw.uniform((shape[0],)) < 0.3] = 0.0  # rows without gradient
            optimizer_step(opt, net, {"w0": g})
            _optimizer_step_oracle(ref_opt, ref_net, {"w0": g})
        _assert_same_state(opt, net, ref_opt, ref_net)

    @pytest.mark.parametrize("layout", ["read-only", "fortran", "float32"])
    def test_accepts_any_weight_array(self, layout):
        rng = RngStream(9)
        w = rng.normal((130, 5))
        if layout == "float32":
            w = w.astype(np.float32)
        elif layout == "fortran":
            w = np.asfortranarray(w)
        original = w.copy()
        if layout == "read-only":
            w.setflags(write=False)
        net, ref_net = _one_layer(w), _one_layer(original.copy())
        opt, ref_opt = OptimizerState(lr=0.01), OptimizerState(lr=0.01)
        for step in range(3):
            g = rng.fork(f"g{step}").normal((130, 5))
            optimizer_step(opt, net, {"w0": g})
            _optimizer_step_oracle(ref_opt, ref_net, {"w0": g})
        assert net.weights[0].dtype == np.float64
        assert net.weights[0].flags.c_contiguous and net.weights[0].flags.writeable
        _assert_same_state(opt, net, ref_opt, ref_net)
        assert np.array_equal(w, original)  # the caller's array is left alone

    def test_slots_created_once_and_updated_in_place(self):
        net = _one_layer(RngStream(4).normal((3, 2)))
        opt = OptimizerState()
        optimizer_step(opt, net, {"w0": np.ones((3, 2))})
        m, v, w = opt.slots["w0"]["m"], opt.slots["w0"]["v"], net.weights[0]
        optimizer_step(opt, net, {"w0": np.ones((3, 2))})
        assert opt.slots["w0"]["m"] is m and opt.slots["w0"]["v"] is v
        assert net.weights[0] is w
        assert opt.slots["w0"]["t"] == 2

    def test_non_finite_gradient_leaves_state_untouched(self):
        net = _one_layer(np.array([[0.5, -0.5]]))
        opt = OptimizerState()
        optimizer_step(opt, net, {"w0": np.array([[0.1, 0.2]])})
        before_w, before_m = net.weights[0].copy(), opt.slots["w0"]["m"].copy()
        with pytest.raises(ContractViolation):
            optimizer_step(opt, net, {"w0": np.array([[np.nan, 0.2]])})
        assert np.array_equal(net.weights[0], before_w)
        assert np.array_equal(opt.slots["w0"]["m"], before_m)
        assert opt.slots["w0"]["t"] == 1


class TestDistillation:
    def test_self_distillation_equals_softened_entropy(self):
        z = np.array([[1.0, 2.0, 0.5]])
        temp = 2.0
        p = softmax(z / temp)
        entropy = float(-(p * np.log(p)).sum())
        assert distillation_loss(z, z, temp) == pytest.approx(entropy, rel=1e-12)

    def test_large_temperature_limit(self):
        old = np.array([[3.0, -1.0, 0.5]])
        new = np.array([[-2.0, 4.0, 1.0]])
        assert distillation_loss(old, new, 1e6) == pytest.approx(math.log(3), abs=1e-5)

    def test_reference_value(self):
        # computed at 60-digit precision
        val = distillation_loss([[1.0, 2.0, 0.5]], [[0.5, 1.5, 1.0]], 2.0)
        assert val == pytest.approx(1.0720210095245482, abs=1e-14)

    def test_batch_is_mean_of_samples(self):
        rng = RngStream(90)
        old = rng.fork("old").normal((7, 5)) * 3.0
        new = rng.fork("new").normal((7, 5)) * 3.0
        per = [distillation_loss(o[None], n[None], 1.5) for o, n in zip(old, new)]
        assert distillation_loss(old, new, 1.5) == pytest.approx(float(np.mean(per)), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ContractViolation):
            distillation_loss([[1.0]], [[1.0, 2.0]], 1.0)
        with pytest.raises(ContractViolation):
            distillation_loss([[1.0]], [[1.0]], 0.0)

    def test_rejects_logits_without_a_batch_axis(self):
        with pytest.raises(ContractViolation):
            distillation_loss([1.0, 2.0, 0.5], [0.5, 1.5, 1.0], 2.0)


def test_memorization_loss_decreases():
    """50-sample memorization smoke, seed-pinned: full-batch descent on the
    differentiable relaxed model is monotone over the first 20 epochs (the
    binary-spike loss is inherently step-noisy, so the smooth objective is
    what this property can meaningfully pin)."""
    rng = RngStream(1)
    net = init_network([12, 16, 2], rng, gain=2.0)
    sur = SurrogateSpec()
    x = (rng.fork("data").uniform((50, 8, 12)) < 0.3).astype(np.float64)
    y = (rng.fork("labels").uniform((50,)) < 0.5).astype(np.int64)
    opt = OptimizerState(lr=2e-3)
    losses = []
    for _ in range(20):
        trace, logits = forward(net, x, mode="relaxed", surrogate=sur)
        loss, probs = softmax_cross_entropy_batch(logits, y)
        losses.append(loss)
        grads = backward_dlogits(net, trace, cross_entropy_grad(probs, y), sur)
        optimizer_step(opt, net, grads)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:])), losses
    assert losses[-1] < losses[0] - 0.05


@pytest.mark.parametrize("reset", ["subtract", "zero"])
@pytest.mark.parametrize("net_shape", sorted(SHIPPED_SHAPES))
def test_bptt_never_reads_the_first_matrix(net_shape, reset):
    # chip.twin_loss holds NaNs in the first matrix's place
    sizes, head_size, batch = SHIPPED_SHAPES[net_shape]
    rng = RngStream(29)
    lif = LifParams(decay=0.85, threshold=0.9, reset=reset)
    n_heads = None if head_size is None else 3
    net = init_network(sizes, rng.fork("net"), lif=lif, n_heads=n_heads, head_size=head_size)
    task = None if head_size is None else 2
    trace, logits = forward(net, rng.fork("x").bernoulli(0.2, (batch, 10, sizes[0])), task=task)
    dlogits = rng.fork("d").normal(logits.shape)
    want = backward_dlogits(net, trace, dlogits, SurrogateSpec())
    net.weights[0] = np.full(net.weights[0].shape, np.nan)
    got = backward_dlogits(net, trace, dlogits, SurrogateSpec())
    assert set(got) == set(want)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name
