import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecl.chip import (
    QUANT_BITS,
    ChipModel,
    ConfigImage,
    QuantSpec,
    chip_forward,
    chip_twin_counts,
    exact_float_weights,
    parse_image,
    quantize_codes,
    quantize_network,
    read_layer_spikes,
    serialize_image,
    twin_loss,
    upload_config,
    validate_constraints,
)
import spikecl.chip as chip_module
from spikecl.container import parse_bundle, serialize_bundle
from spikecl.errors import (
    ConstraintViolation,
    ContractViolation,
    FormatError,
    ProtocolError,
    TransportError,
)
from spikecl.continual import StrategyConfig, TaskContext, apply_strategy
from spikecl.numerics import softmax_cross_entropy_batch
from spikecl.rng import RngStream
from spikecl.runner import MentorState, mentor_learner_epoch, train_epoch
from spikecl.snn import LifParams, SpikingNetwork, forward, init_network
from spikecl.train import LossSpec, OptimizerState, SurrogateSpec

from oracles import decode_frames, dequantize_to_network, encode_frames, float_twin_loss


def small_net(weights=None):
    lif = LifParams(decay=0.9, threshold=1.0)
    if weights is None:
        weights = [np.array([[1.0, -0.5], [0.25, 1.0]]), np.array([[0.5, 1.0], [-1.0, 0.75]])]
    return SpikingNetwork([2, 2, 2], weights, [lif, lif])


class TestQuantize:
    def test_reference_levels(self):
        # weights {-1, 0.5, 1} at 8 bit: scale 1/127, q = {-127, 64, 127}
        net = SpikingNetwork(
            [1, 3], [np.array([[-1.0, 0.5, 1.0]])], [LifParams()]
        )
        image = quantize_network(net, QuantSpec(bits=8))
        assert image.scales[0] == pytest.approx(1.0 / 127.0)
        assert image.quantized[0].tolist() == [[-127, 64, 127]]

    def test_all_zero_layer_degenerates_to_scale_one(self):
        net = SpikingNetwork([1, 2], [np.zeros((1, 2))], [LifParams()])
        image = quantize_network(net, QuantSpec())
        assert image.scales[0] == 1.0
        assert (image.quantized[0] == 0).all()

    def test_round_trip_error_bound(self):
        rng = RngStream(7)
        net = init_network([4, 6, 3], rng, gain=2.0)
        image = quantize_network(net, QuantSpec(bits=8))
        for w, q, s in zip(net.weights, image.quantized, image.scales):
            assert np.abs(q * s - w).max() <= s / 2 + 1e-12

    def test_bits_validation(self):
        with pytest.raises(ContractViolation):
            QuantSpec(bits=7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("scales", [None, [0.1, 0.1]], ids=["max-scale", "override"])
    def test_non_finite_weight_raises(self, bad, scales):
        net = init_network([4, 6, 3], RngStream(8))
        net.weights[1][2, 1] = bad
        with pytest.raises(ContractViolation, match="non-finite"):
            quantize_codes(net, QuantSpec(scale_override=scales))

    def test_threshold_scaling(self):
        net = small_net()
        image = quantize_network(net, QuantSpec(bits=8))
        for thr, s, p in zip(image.thresholds, image.scales, net.lif):
            assert thr == max(1, int(np.rint(p.threshold / s)))


class TestConfigImage:
    def test_serialize_parse_bit_exact(self):
        image = quantize_network(small_net(), QuantSpec())
        blob = serialize_image(image)
        again = parse_image(blob)
        assert serialize_image(again) == blob
        assert again.layer_sizes == image.layer_sizes
        for a, b in zip(again.quantized, image.quantized):
            assert np.array_equal(a, b)
        assert again.scales == image.scales
        assert again.thresholds == image.thresholds

    def _bundle(self, mutate_meta=None, drop_array=None):
        image = quantize_network(small_net(), QuantSpec())
        meta, arrays = parse_bundle(serialize_image(image))
        if mutate_meta is not None:
            meta = mutate_meta(meta)
        if drop_array is not None:
            del arrays[drop_array]
        return serialize_bundle(meta, arrays)

    def test_list_metadata_is_format_error(self):
        with pytest.raises(FormatError):
            parse_image(self._bundle(mutate_meta=lambda meta: [meta]))

    def test_missing_metadata_key_is_format_error(self):
        def drop_thresholds(meta):
            del meta["thresholds"]
            return meta

        with pytest.raises(FormatError, match="thresholds"):
            parse_image(self._bundle(mutate_meta=drop_thresholds))

    def test_missing_weight_array_is_format_error(self):
        chip = ChipModel()
        with pytest.raises(FormatError, match="q1"):
            upload_config(chip, self._bundle(drop_array="q1"))
        assert not chip.configured

    @pytest.mark.parametrize(
        "mutate, error, named",
        [
            (lambda m, a: a.update(bias0=np.zeros((1, 2))), ConstraintViolation, "bias"),
            (lambda m, a: a.update(q7=np.zeros((2, 2), dtype=np.int64)), FormatError, "q7"),
            (lambda m, a: a.update(q1=np.zeros((3, 2), dtype=np.int64)), FormatError, "q1"),
            (lambda m, a: m.update(thresholds=["60", "80"]), FormatError, "thresholds"),
            (lambda m, a: m.update(leak_shift="3"), FormatError, "leak_shift"),
            (lambda m, a: m.update(layer_sizes=["2", "2", "2"]), FormatError, "layer_sizes"),
            (lambda m, a: m.update(thresholds=m["thresholds"][:1]), FormatError, "thresholds"),
            (lambda m, a: m.update(leak_shift=-1), FormatError, "leak_shift"),
            (lambda m, a: m.update(reset="bogus"), FormatError, "reset"),
            (lambda m, a: m.update(reset="zero"), FormatError, "reset"),
            (lambda m, a: m.pop("reset"), FormatError, "reset"),
            (lambda m, a: m.update(scales="x"), FormatError, "scales"),
        ],
        ids=["bias-array", "stray-array", "shape-disagrees", "string-thresholds",
             "string-leak-shift", "string-layer-sizes", "short-thresholds",
             "negative-leak-shift", "unknown-reset", "zero-reset", "no-reset", "string-scales"],
    )
    def test_malformed_image_raises_and_leaves_chip_unconfigured(self, mutate, error, named):
        meta, arrays = parse_bundle(serialize_image(quantize_network(small_net(), QuantSpec())))
        mutate(meta, arrays)
        chip = ChipModel()
        with pytest.raises(error, match=named):
            upload_config(chip, serialize_bundle(meta, arrays))
        assert not chip.configured

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (lambda image: setattr(image, "leak_shift", -1), "leak_shift"),
            (lambda image: setattr(image, "reset", "bogus"), "reset"),
            (lambda image: setattr(image, "thresholds", image.thresholds[:1]), "thresholds"),
        ],
        ids=["negative-leak-shift", "unknown-reset", "one-threshold-for-two-layers"],
    )
    def test_malformed_image_object_raises_and_leaves_chip_unconfigured(self, mutate, named):
        # an image object takes the checks its bytes would
        net = SpikingNetwork([4, 3, 2], [np.ones((4, 3)), np.ones((3, 2))], [LifParams()] * 2)
        image = quantize_network(net, QuantSpec())
        mutate(image)
        chip = ChipModel()
        with pytest.raises(FormatError, match=named):
            upload_config(chip, image)
        assert not chip.configured

    def test_corrupted_checksum_is_transport_error_and_chip_unchanged(self):
        chip = ChipModel()
        blob = bytearray(serialize_image(quantize_network(small_net(), QuantSpec())))
        blob[25] ^= 0x40
        with pytest.raises(TransportError):
            upload_config(chip, bytes(blob))
        assert not chip.configured


class TestConstraints:
    def test_default_experiment_net_ok(self):
        rng = RngStream(1)
        net = init_network([784, 256, 256], rng, n_heads=5, head_size=2)
        assert validate_constraints(net) == []

    def test_default_shape_image_accepted(self):
        rng = RngStream(6)
        net = init_network([784, 256, 256], rng, n_heads=5, head_size=2)
        chip = ChipModel()
        upload_config(chip, quantize_network(net, QuantSpec(), task=0))
        assert chip.configured
        assert chip.image.layer_sizes == [784, 256, 256, 2]

    def test_20_class_output_rejected(self):
        rng = RngStream(1)
        net = init_network([10, 8, 20], rng)
        violations = validate_constraints(net)
        assert any("classes" in v for v in violations)
        chip = ChipModel()
        with pytest.raises(ConstraintViolation):
            upload_config(chip, quantize_network(net, QuantSpec()))
        assert not chip.configured

    def test_layer_cap(self):
        rng = RngStream(2)
        net = init_network([4] * 11, rng)  # 10 computing layers > 9
        violations = validate_constraints(net)
        assert any("computing layers" in v for v in violations)

    def test_neuron_and_synapse_budget(self):
        rng = RngStream(3)
        net = init_network([4, 2000], rng)
        violations = validate_constraints(net)
        assert any("neurons" in v for v in violations)

    @pytest.mark.parametrize("bits", QUANT_BITS)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_out_of_range_weight_rejected_on_upload(self, bits, sign):
        image = quantize_network(small_net(), QuantSpec(bits=bits))
        qmax = QuantSpec(bits=bits).qmax
        image.quantized[1][0, 1] = sign * qmax
        assert validate_constraints(image) == []  # the range edge is legal
        for value in (qmax + 1, 2**40):
            image.quantized[1][0, 1] = sign * value
            assert any("range" in v for v in validate_constraints(image))
            chip = ChipModel()
            with pytest.raises(ConstraintViolation):
                upload_config(chip, serialize_image(image))
            assert not chip.configured

    def test_non_integer_weights_rejected_on_upload(self):
        image = quantize_network(small_net(), QuantSpec())
        image.quantized[0] = image.quantized[0] + 0.5
        assert any("non-integer" in v for v in validate_constraints(image))
        with pytest.raises(ConstraintViolation):
            upload_config(ChipModel(), image)


class TestProtocol:
    def _ready_chip(self):
        chip = ChipModel()
        upload_config(chip, quantize_network(small_net(), QuantSpec()))
        return chip

    def test_forward_before_upload(self):
        with pytest.raises(ProtocolError):
            chip_forward(ChipModel(), np.ones((3, 2)))

    def test_read_before_interrupt(self):
        chip = self._ready_chip()
        with pytest.raises(ProtocolError):
            read_layer_spikes(chip, 0)

    def test_forward_while_pending(self):
        chip = self._ready_chip()
        chip_forward(chip, np.ones((3, 2)))
        with pytest.raises(ProtocolError):
            chip_forward(chip, np.ones((3, 2)))

    def test_read_final_layer_clears_interrupt(self):
        chip = self._ready_chip()
        chip_forward(chip, np.ones((3, 2)))
        assert chip.interrupt
        read_layer_spikes(chip, 0)
        assert chip.interrupt  # non-final read keeps it pending
        read_layer_spikes(chip, 1)
        assert not chip.interrupt

    def test_bad_layer_index(self):
        chip = self._ready_chip()
        chip_forward(chip, np.ones((3, 2)))
        with pytest.raises(ContractViolation):
            read_layer_spikes(chip, 5)

    def test_identical_input_twice_identical_registers(self):
        chip = self._ready_chip()
        x = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        chip_forward(chip, x)
        first = [read_layer_spikes(chip, l) for l in range(2)]
        chip_forward(chip, x)
        second = [read_layer_spikes(chip, l) for l in range(2)]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_zero_input_zero_registers(self):
        chip = self._ready_chip()
        chip_forward(chip, np.zeros((4, 2)))
        for l in range(2):
            assert (read_layer_spikes(chip, l) == 0).all()

    def test_upload_resets_protocol(self):
        chip = self._ready_chip()
        chip_forward(chip, np.ones((3, 2)))
        upload_config(chip, quantize_network(small_net(), QuantSpec()))
        assert not chip.interrupt


def hand_integer_222(q0, q1, thr0, thr1, shift, x):
    """Plain-Python integer LIF recurrence for the 2-2-2 image."""
    counts = []
    spikes = x.astype(int).tolist()
    for q, thr in ((q0, thr0), (q1, thr1)):
        v = [0, 0]
        out = []
        for t in range(len(spikes)):
            row = []
            for j in range(2):
                vj = v[j] - (v[j] >> shift)
                vj += sum(spikes[t][i] * q[i][j] for i in range(2))
                s = 1 if vj >= thr else 0
                v[j] = vj - thr * s
                row.append(s)
            out.append(row)
        spikes = out
        counts.append([sum(r[j] for r in out) for j in range(2)])
    return counts


def int64_layer_pass_oracle(image, input_spikes):
    """Reference integer core with a plain int64 accumulate; per layer the
    (B, T, n) spikes and pre-reset potentials. The BLAS core must match it
    bit for bit."""
    spikes = np.asarray(input_spikes).astype(np.int64)
    B, T, _ = spikes.shape
    layers = []
    for q, thr in zip(image.quantized, image.thresholds):
        cur = (spikes.reshape(B * T, -1) @ q).reshape(B, T, -1)
        v = np.zeros((B, q.shape[1]), dtype=np.int64)
        out, pre = np.empty_like(cur), np.empty_like(cur)
        for t in range(T):
            v = v - (v >> image.leak_shift) + cur[:, t, :]
            pre[:, t, :] = v
            s = v >= thr
            v = v - thr * s
            out[:, t, :] = s
        spikes = out
        layers.append((out, pre))
    return layers


def int64_layer_counts_oracle(image, input_spikes):
    return [s.sum(axis=1) for s, _ in int64_layer_pass_oracle(image, input_spikes)]


def random_image(rng, sizes, bits, shift=2, pinned=0.1):
    """Uniform weights in [-qmax, qmax] with a fraction pinned at +-qmax;
    thresholds spread so that some neurons fire often and some rarely."""
    qmax = QuantSpec(bits=bits).qmax
    quantized, thresholds = [], []
    for l, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        u = rng.fork(f"q{l}").uniform((n_in, n_out))
        q = np.rint((2.0 * u - 1.0) * qmax).astype(np.int64)
        pin = rng.fork(f"pin{l}").uniform((n_in, n_out)) < pinned
        q[pin] = np.where(u[pin] < 0.5, -qmax, qmax)
        thresholds.append(int(qmax * np.sqrt(n_in) * (0.2 + rng.fork(f"t{l}").uniform((1,))[0])))
        quantized.append(q)
    return ConfigImage(
        layer_sizes=list(sizes), quantized=quantized, scales=[1.0] * len(quantized),
        thresholds=thresholds, leak_shift=shift, bits=bits,
    )


# Leak shifts of the integer-core tests: the chip's leak keeps 3/4 of v
# per step at shift 2, and none of it at shift 0 (v >> 0 is all of v).
_CORE_SHIFTS = [2, 0]


class TestIntegerCore:
    @pytest.mark.parametrize("bits", QUANT_BITS)
    @pytest.mark.parametrize("shift", _CORE_SHIFTS, ids=lambda s: f"shift{s}")
    @pytest.mark.parametrize("batched", [True, False])
    def test_blas_core_matches_int64_oracle(self, bits, shift, batched):
        rng = RngStream(1000 + bits)
        image = random_image(rng, [784, 40, 24, 10], bits, shift)
        shape = (6, 12, 784) if batched else (1, 12, 784)
        x = (rng.fork("x").uniform(shape) < 0.5).astype(np.float64)
        if batched:
            got = chip_module._integer_layer_counts(image, x)
        else:  # one (T, n) input through the protocol machine
            chip = upload_config(ChipModel(), image)
            chip_forward(chip, x[0])
            got = [read_layer_spikes(chip, l)[None] for l in range(3)]
        ref = int64_layer_counts_oracle(image, x)
        assert sum(int(c.sum()) for c in ref) > 0
        for a, b in zip(got, ref):
            assert a.dtype == np.int64
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("bits", QUANT_BITS)
    @pytest.mark.parametrize("shift", _CORE_SHIFTS, ids=lambda s: f"shift{s}")
    def test_pass_yields_the_int64_spikes_and_potentials(self, bits, shift):
        rng = RngStream(1100 + bits)
        image = random_image(rng, [784, 40, 24, 10], bits, shift)
        x = (rng.fork("x").uniform((5, 12, 784)) < 0.5).astype(np.float64)
        got = list(chip_module._integer_layers(image, x))
        ref = int64_layer_pass_oracle(image, x)
        assert len(got) == len(ref) == 3
        for (s, u), (s_ref, u_ref) in zip(got, ref):
            assert s.dtype == np.float64 and u.dtype == np.int64
            assert u.transpose(1, 0, 2).flags.c_contiguous  # a view of time-major storage
            assert np.array_equal(s, s_ref)
            assert np.array_equal(u, u_ref)

    @pytest.mark.parametrize("bits", QUANT_BITS)
    def test_blas_core_exact_at_the_largest_sums(self, bits):
        # all 784 inputs spike into weights at +qmax: currents S, S - 1 and
        # S - 2 against threshold S - 1, one timestep, so a current off by
        # one unit flips a spike
        qmax = QuantSpec(bits=bits).qmax
        q0 = np.full((784, 3), qmax, dtype=np.int64)
        q0[0, 1:] -= [1, 2]
        image = ConfigImage(
            layer_sizes=[784, 3, 1], quantized=[q0, np.ones((3, 1), dtype=np.int64)],
            scales=[1.0, 1.0], thresholds=[784 * qmax - 1, 1], leak_shift=3, bits=bits,
        )
        # 784 * qmax is below 2**24 at 4 and 8 bits, above it at 16
        assert exact_float_weights(image)[0].dtype == (np.float64 if bits == 16 else np.float32)
        got = chip_module._integer_layer_counts(image, np.ones((1, 1, 784)))
        assert got[0].tolist() == [[1, 1, 0]]
        for a, b in zip(got, int64_layer_counts_oracle(image, np.ones((1, 1, 784)))):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "n_in, peak, dtype", [(723, 23205, np.float32), (1024, 16384, np.float64)],
        ids=["2**24-1-float32", "2**24-float64"],
    )
    def test_accumulate_width_switches_at_2_to_the_24(self, n_in, peak, dtype):
        # as above: currents S, S - 1 and S - 2 against threshold S - 1 at
        # S = n_in * peak, on either side of the float32 bound
        assert n_in * peak == (2**24 - 1 if dtype == np.float32 else 2**24)
        q0 = np.full((n_in, 3), peak, dtype=np.int64)
        q0[0, 1:] -= [1, 2]
        image = ConfigImage(
            layer_sizes=[n_in, 3, 1], quantized=[q0, np.ones((3, 1), dtype=np.int64)],
            scales=[1.0, 1.0], thresholds=[n_in * peak - 1, 1], leak_shift=3, bits=16,
        )
        assert [w.dtype for w in exact_float_weights(image)] == [dtype, np.float32]
        x = np.ones((2, 3, n_in))
        x[1, 1:, ::2] = 0.0
        got = list(chip_module._integer_layers(image, x))
        assert got[0][0][0, 0].tolist() == [1.0, 1.0, 0.0]
        for (s, u), (s_ref, u_ref) in zip(got, int64_layer_pass_oracle(image, x)):
            assert np.array_equal(s, s_ref) and np.array_equal(u, u_ref)

    def test_accumulate_bound_violation_raises(self):
        image = ConfigImage(
            layer_sizes=[2, 1], quantized=[np.array([[2**52], [1]], dtype=np.int64)],
            scales=[1.0], thresholds=[1], leak_shift=3, bits=16,
        )
        with pytest.raises(ContractViolation, match="2\\*\\*53"):
            chip_twin_counts(image, np.ones((1, 3, 2)))
        image.quantized[0][0, 0] = 2**52 - 1  # 2 * (2**52 - 1) < 2**53
        assert np.array_equal(
            chip_twin_counts(image, np.ones((1, 3, 2))),
            int64_layer_counts_oracle(image, np.ones((1, 3, 2)))[-1],
        )

    def test_non_integer_weights_raise(self):
        image = quantize_network(small_net(), QuantSpec())
        image.quantized[0] = image.quantized[0].astype(np.float64)
        with pytest.raises(ContractViolation):
            chip_twin_counts(image, np.ones((1, 3, 2)))

    def test_hand_simulation(self):
        q0 = np.array([[40, -10], [25, 90]], dtype=np.int64)
        q1 = np.array([[55, 100], [-30, 70]], dtype=np.int64)
        image = ConfigImage(
            layer_sizes=[2, 2, 2], quantized=[q0, q1], scales=[1.0, 1.0],
            thresholds=[60, 80], leak_shift=3, bits=8,
        )
        x = np.array([[1, 1], [1, 0], [0, 1]], dtype=np.float64)
        chip = ChipModel()
        upload_config(chip, image)
        chip_forward(chip, x)
        regs = [read_layer_spikes(chip, l) for l in range(2)]
        ref = hand_integer_222(q0.tolist(), q1.tolist(), 60, 80, 3, x)
        assert regs[0].tolist() == ref[0]
        assert regs[1].tolist() == ref[1]

    def test_twin_fidelity_exact(self):
        # protocol register contents equal the batched twin's counts
        rng = RngStream(17)
        net = init_network([6, 5, 3], rng, gain=2.5)
        image = quantize_network(net, QuantSpec(bits=8))
        chip = ChipModel()
        upload_config(chip, image)
        x = (rng.fork("x").uniform((10, 8, 6)) < 0.4).astype(np.float64)
        twin = chip_twin_counts(image, x)
        for i in range(10):
            chip_forward(chip, x[i])
            regs = [read_layer_spikes(chip, l) for l in range(2)]
            assert np.array_equal(regs[-1], twin[i])

    def test_non_binary_input_rejected(self):
        image = quantize_network(small_net(), QuantSpec())
        with pytest.raises(ContractViolation):
            chip_twin_counts(image, np.full((1, 3, 2), 0.5))

    def test_core_rejects_a_sample_without_a_batch_axis(self):
        image = quantize_network(small_net(), QuantSpec())
        with pytest.raises(ContractViolation, match="batch"):
            chip_module._integer_layer_counts(image, np.ones((3, 2)))

    def test_dequantized_twin_topology(self):
        net = small_net()
        image = quantize_network(net, QuantSpec(leak_shift=3))
        twin = dequantize_to_network(image)
        assert twin.layer_sizes == net.layer_sizes
        assert twin.lif[0].decay == pytest.approx(0.875)
        for q, s, w in zip(image.quantized, image.scales, twin.weights):
            assert np.array_equal(w, q.astype(np.float64) * s)


def exact_twin_net(rng, bits, shift, steps, multi_head):
    """A 12-10-3 network (a two-head 12-10 trunk when ``multi_head``) on
    which the float twin and the integer core run the same arithmetic.

    Returns the network and a QuantSpec whose fixed power-of-two scales
    give back the codes exactly. Every code and integer threshold is a
    multiple of m = 2**(shift*(steps-1)), so before each leak of the
    window the potential is a multiple of 2**shift, and v >> shift is
    exactly v * 2**-shift; every float value is a small integer times a
    power of two, so the float twin computes the chip's potentials times
    the scale without rounding.
    """
    qmax = QuantSpec(bits=bits).qmax
    m, scale = 2 ** (shift * (steps - 1)), 2.0**-6
    mats = [
        np.rint((2.0 * rng.fork(f"q{l}").uniform(shape) - 1.0) * (qmax // m)) * m * scale
        for l, shape in enumerate([(12, 10), (10, 3), (10, 3)])
    ]
    lif = LifParams(decay=0.5, threshold=m * scale)
    if multi_head:
        net = SpikingNetwork([12, 10], mats[:1], [lif, lif], mats[1:], 3)
    else:
        net = SpikingNetwork([12, 10, 3], mats[:2], [lif, lif])
    return net, QuantSpec(bits=bits, leak_shift=shift, scale_override=[scale, scale])


class TestTwinLoss:
    SPEC = LossSpec(lam=1.0, mu=1.3)

    @pytest.mark.parametrize("multi_head", [False, True], ids=["single-head", "multi-head"])
    @pytest.mark.parametrize("bits, shift, steps", [(4, 1, 3), (8, 1, 4), (16, 2, 5)])
    def test_matches_the_float_twin_oracle_where_their_spikes_agree(
        self, bits, shift, steps, multi_head
    ):
        rng = RngStream(300 + bits)
        net, quant = exact_twin_net(rng, bits, shift, steps, multi_head)
        task = 1 if multi_head else None
        x = (rng.fork("x").uniform((9, steps, 12)) < 0.5).astype(np.float64)
        y = rng.fork("y").integers(9, 3)
        image = quantize_network(net, quant, task)
        want_loss, want_grads, float_trace = float_twin_loss(
            net, x, y, self.SPEC, quant, SurrogateSpec(), task
        )
        int_spikes = [s for s, _ in chip_module._integer_layers(image, x)]
        for s_float, s_int in zip(float_trace.spikes[1:], int_spikes):
            assert np.array_equal(s_float, s_int)
        assert 0 < int_spikes[0].mean() < 1 and int_spikes[-1].sum() > 0
        loss, grads = twin_loss(net, x, y, self.SPEC, quant, SurrogateSpec(), task)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert set(grads) == set(want_grads) == ({"w0", "head1"} if multi_head else {"w0", "w1"})
        for name, g in want_grads.items():
            peak = np.abs(g).max()
            assert peak > 0.0, name
            assert np.abs(grads[name] - g).max() <= 1e-12 * peak, name

    @pytest.mark.parametrize("multi_head", [False, True], ids=["single-head", "multi-head"])
    @pytest.mark.parametrize("bits", QUANT_BITS)
    @pytest.mark.parametrize("shift", [1, 3], ids=["shift1", "shift3"])
    def test_loss_is_the_cross_entropy_of_the_registers(self, bits, shift, multi_head):
        # at 4 and 8 bits the float twin's counts differ from these
        # registers on some samples; its loss would not be this one
        rng = RngStream(40 + bits)
        lif = LifParams(decay=0.9, threshold=1.0)
        if multi_head:
            net = init_network([20, 16], rng.fork("net"), lif=lif, n_heads=2, head_size=3,
                               gain=3.0, head_gain=2.0)
        else:
            net = init_network([20, 16, 3], rng.fork("net"), lif=lif, gain=3.0, head_gain=2.0)
        task = 1 if multi_head else None
        quant = QuantSpec(bits=bits, leak_shift=shift)
        x = (rng.fork("x").uniform((32, 12, 20)) < 0.5).astype(np.float64)
        y = rng.fork("y").integers(32, 3)
        chip = upload_config(ChipModel(), quantize_network(net, quant, task))
        registers = []
        for sample in x:
            chip_forward(chip, sample)
            read_layer_spikes(chip, 0)
            registers.append(read_layer_spikes(chip, 1))
        ce, _ = softmax_cross_entropy_batch(np.array(registers, dtype=np.float64), y)
        loss, grads = twin_loss(net, x, y, self.SPEC, quant, SurrogateSpec(), task)
        assert loss == self.SPEC.mu * ce
        assert set(grads) == ({"w0", "head1"} if multi_head else {"w0", "w1"})

    @pytest.mark.parametrize("bits", QUANT_BITS)
    def test_twin_runs_on_the_float_codes_of_the_one_quantizer(self, bits, monkeypatch):
        # no int64 image and no upload copy: the pass gets quantize_codes'
        # codes, as exact floats, and the trace holds time-major potentials
        rng = RngStream(60 + bits)
        net = init_network([20, 16], rng.fork("net"), n_heads=2, head_size=3, gain=3.0)
        quant = QuantSpec(bits=bits, leak_shift=1)
        x = (rng.fork("x").uniform((7, 6, 20)) < 0.5).astype(np.float64)
        y = rng.fork("y").integers(7, 3)
        want = twin_loss(net, x, y, self.SPEC, quant, SurrogateSpec(), 1)
        codes = quantize_codes(net, quant, 1).quantized
        image = quantize_network(net, quant, 1)
        assert all(c.dtype == np.float64 and np.array_equal(c, q)
                   for c, q in zip(codes, image.quantized))
        traces = []

        def spy(twin, trace, dlog, surrogate):
            traces.append(trace)
            return backward(twin, trace, dlog, surrogate)

        def forbidden(*args, **kwargs):
            raise AssertionError("the twin made an int64 image or an upload copy")

        backward = chip_module.backward_dlogits
        monkeypatch.setattr(chip_module, "backward_dlogits", spy)
        monkeypatch.setattr(chip_module, "quantize_network", forbidden)
        monkeypatch.setattr(chip_module, "exact_float_weights", forbidden)
        loss, grads = twin_loss(net, x, y, self.SPEC, quant, SurrogateSpec(), 1)
        assert loss == want[0]
        assert all(grads[k].tobytes() == g.tobytes() for k, g in want[1].items())
        (trace,) = traces
        for u, s in zip(trace.pre_reset, trace.spikes[1:]):
            assert u.shape == s.shape == (7, 6, u.shape[2]) and u.dtype == np.float64
            assert u.transpose(1, 0, 2).flags.c_contiguous

    def test_twin_width_comes_from_qmax_with_the_bits_of_the_scanned_width(self, monkeypatch):
        # at 16 bits with a fixed scale the codes stay far below qmax: the
        # scan would pick float32 for the first layer, the bound n_in * qmax
        # picks float64, and both accumulate exactly
        rng = RngStream(70)
        net = init_network([784, 32], rng.fork("net"), n_heads=2, head_size=3, gain=3.0)
        quant = QuantSpec(bits=16, leak_shift=1, scale_override=[0.0005, 0.001])
        x = (rng.fork("x").uniform((5, 6, 784)) < 0.3).astype(np.float64)
        y = rng.fork("y").integers(5, 3)
        want = twin_loss(net, x, y, self.SPEC, quant, SurrogateSpec(), 1)
        widths = []

        def scanned(l, q, peak=None):
            widths.append((peak, exact(l, q, peak).dtype, exact(l, q).dtype))
            return exact(l, q)

        exact = chip_module._exact_float
        monkeypatch.setattr(chip_module, "_exact_float", scanned)
        loss, grads = twin_loss(net, x, y, self.SPEC, quant, SurrogateSpec(), 1)
        assert [w[0] for w in widths] == [quant.qmax, quant.qmax]
        assert widths[0][1:] == (np.float64, np.float32)
        assert loss == want[0] and loss > 0.0
        assert all(grads[k].tobytes() == g.tobytes() for k, g in want[1].items())

    def test_one_call_allocates_under_5_5_mb_at_split_chip_shapes(self):
        # 784-256-256 with a 2-wide head, B = 16, T = 10, at the shipped
        # loss (mu 1) and 8 bits; 5.09 MB when the bound was set
        rng = RngStream(5)
        net = init_network([784, 256, 256], rng.fork("net"), n_heads=5, head_size=2)
        x = (rng.fork("x").uniform((16, 10, 784)) < 0.2).astype(np.float64)
        y = rng.fork("y").integers(16, 2)
        spec = LossSpec(lam=1.0, mu=1.0)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            twin_loss(net, x, y, spec, QuantSpec(), SurrogateSpec(), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - entry < 5.5 * 2**20, f"{(peak - entry) / 2**20:.2f} MB above entry"


class TestFrames:
    def test_round_trip(self):
        payload = bytes(range(256)) * 40
        frames = encode_frames(payload)
        assert len(frames) > 1
        assert decode_frames(frames) == payload
        assert decode_frames(list(reversed(frames))) == payload

    def test_corruption_detected(self):
        frames = encode_frames(b"hello world")
        bad = bytearray(frames[0])
        bad[9] ^= 1
        with pytest.raises(TransportError):
            decode_frames([bytes(bad)])

    def test_missing_frame(self):
        frames = encode_frames(bytes(10000))
        with pytest.raises(TransportError):
            decode_frames(frames[1:])

    def test_missing_last_frame(self):
        frames = encode_frames(bytes(range(256)) * 20)
        assert len(frames) == 2
        with pytest.raises(TransportError):
            decode_frames(frames[:-1])

    def test_empty_payload_is_one_frame(self):
        frames = encode_frames(b"")
        assert len(frames) == 1
        assert decode_frames(frames) == b""
        with pytest.raises(TransportError):
            decode_frames([])

    def test_frames_disagreeing_on_total_length(self):
        # 4096 + 1904 bytes reassemble to the 6000 that the second frame declares
        short, long = encode_frames(bytes(5000)), encode_frames(bytes(6000))
        for frames in ([long[1], short[0]], [short[0], long[1]]):
            with pytest.raises(TransportError):
                decode_frames(frames)

    @settings(max_examples=60, deadline=None)
    @given(payload=st.binary(min_size=1, max_size=20000), data=st.data())
    def test_any_order_decodes_and_duplicates_or_gaps_raise(self, payload, data):
        frames = encode_frames(payload)
        order = data.draw(st.permutations(range(len(frames))))
        assert decode_frames([frames[i] for i in order]) == payload
        i = data.draw(st.integers(0, len(frames) - 1))
        with pytest.raises(TransportError):
            decode_frames(frames + [frames[i]])
        # every frame carries the total length, so dropping any frame,
        # the last or the only one included, is detected
        j = data.draw(st.integers(0, len(frames) - 1))
        with pytest.raises(TransportError):
            decode_frames(frames[:j] + frames[j + 1 :])


class TestMentorLearner:
    def _toy_batches(self, rng, n_batches=6, batch=16):
        # two linearly separable spike-rate classes in 4 features
        protos = np.array([[0.9, 0.8, 0.1, 0.1], [0.1, 0.1, 0.9, 0.8]])
        batches = []
        for b in range(n_batches):
            labels = rng.fork(f"y{b}").integers(batch, 2)
            feats = protos[labels]
            x = rng.fork(f"x{b}").bernoulli(
                np.broadcast_to(feats[:, None, :], (batch, 10, 4)), (batch, 10, 4)
            )
            batches.append((x, labels))
        return batches

    def _epoch(self, state, batches, epoch=mentor_learner_epoch):
        strategy = apply_strategy(StrategyConfig("none"), "task-incremental", 0, state.surrogate)
        return epoch(state, batches, strategy, TaskContext(task=1, total_tasks=1))

    def _state(self, rng, mu, quant=QuantSpec(bits=8)):
        net = init_network([4, 8, 2], rng, gain=2.0)
        return MentorState(
            net=net,
            optimizer=OptimizerState(lr=5e-3),
            surrogate=SurrogateSpec(),
            loss_spec=LossSpec(lam=1.0, mu=mu),
            quant_spec=quant,
        )

    def test_mu_zero_quantizes_nothing_and_equals_the_external_epoch(self, monkeypatch):
        def no_quantize(*args, **kwargs):
            raise AssertionError("quantized at mu = 0")

        monkeypatch.setattr(chip_module, "quantize_codes", no_quantize)
        rng = RngStream(5)
        state = self._state(rng.fork("net"), mu=0.0)
        ref = self._state(rng.fork("net"), mu=0.0, quant=None)  # fully external mode
        self._epoch(state, self._toy_batches(rng.fork("data")))
        self._epoch(ref, self._toy_batches(rng.fork("data")), epoch=train_epoch)
        for w, w_ref in zip(state.net.weights, ref.net.weights):
            assert w.tobytes() == w_ref.tobytes()

    def test_loss_decreases_on_separable_toy_set(self):
        rng = RngStream(6)
        state = self._state(rng, mu=1.0)
        batches = self._toy_batches(rng.fork("data"), n_batches=8)
        first = self._epoch(state, batches)
        losses = [first["mean_loss"]]
        for _ in range(4):
            losses.append(self._epoch(state, batches)["mean_loss"])
        assert losses[-1] < losses[0]

    def test_epoch_builds_uploads_and_drives_no_chip(self, monkeypatch):
        # the chip's term is the cross-entropy of the integer pass's counts,
        # which are the registers, so training needs no chip
        def forbidden(*args, **kwargs):
            raise AssertionError("the chip loop touched the protocol machine")

        for name in ("ChipModel", "upload_config", "chip_forward", "read_layer_spikes"):
            monkeypatch.setattr(chip_module, name, forbidden)
        rng = RngStream(8)
        state = self._state(rng, mu=1.0)
        before = [w.copy() for w in state.net.weights]
        out = self._epoch(state, self._toy_batches(rng.fork("data"), 2))
        assert out["batches"] == 2
        assert all((w != b).any() for w, b in zip(state.net.weights, before))
