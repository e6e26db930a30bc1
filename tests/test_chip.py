import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecl.chip import (
    QUANT_BITS,
    ChipConstraints,
    ChipModel,
    ConfigImage,
    QuantSpec,
    chip_forward,
    chip_twin_counts,
    decode_frames,
    dequantize_to_network,
    encode_frames,
    parse_image,
    quantize_network,
    read_layer_spikes,
    serialize_image,
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
from spikecl.rng import RngStream
from spikecl.runner import MentorState, mentor_learner_epoch
from spikecl.snn import LifParams, SpikingNetwork, forward, init_network
from spikecl.train import LossSpec, OptimizerState, SurrogateSpec


def small_net(weights=None, reset="subtract"):
    lif = LifParams(decay=0.9, threshold=1.0, reset=reset)
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
        violations = validate_constraints(net, ChipConstraints())
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

    def test_bias_storage_flagged(self):
        image = quantize_network(small_net(), QuantSpec())
        violations = validate_constraints(image, extra_arrays={"bias0": np.zeros((1, 2))})
        assert any("bias" in v for v in violations)


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


def int64_layer_counts_oracle(image, input_spikes):
    """Reference integer core with a plain int64 accumulate; the float64
    BLAS core must match it bit for bit."""
    spikes = np.asarray(input_spikes).astype(np.int64)
    B, T, _ = spikes.shape
    counts = []
    for q, thr in zip(image.quantized, image.thresholds):
        cur = (spikes.reshape(B * T, -1) @ q).reshape(B, T, -1)
        v = np.zeros((B, q.shape[1]), dtype=np.int64)
        out = np.empty_like(cur)
        for t in range(T):
            v = v - (v >> image.leak_shift) + cur[:, t, :]
            s = v >= thr
            v = v - thr * s if image.reset == "subtract" else v * ~s
            out[:, t, :] = s
        spikes = out
        counts.append(out.sum(axis=1))
    return counts


def random_image(rng, sizes, bits, reset, pinned=0.1):
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
        thresholds=thresholds, leak_shift=2, bits=bits, reset=reset,
    )


class TestIntegerCore:
    @pytest.mark.parametrize("bits", QUANT_BITS)
    @pytest.mark.parametrize("reset", ["subtract", "zero"])
    @pytest.mark.parametrize("batched", [True, False])
    def test_blas_core_matches_int64_oracle(self, bits, reset, batched):
        rng = RngStream(1000 + bits)
        image = random_image(rng, [784, 40, 24, 10], bits, reset)
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
            reset="subtract",
        )
        got = chip_module._integer_layer_counts(image, np.ones((1, 1, 784)))
        assert got[0].tolist() == [[1, 1, 0]]
        for a, b in zip(got, int64_layer_counts_oracle(image, np.ones((1, 1, 784)))):
            assert np.array_equal(a, b)

    def test_accumulate_bound_violation_raises(self):
        image = ConfigImage(
            layer_sizes=[2, 1], quantized=[np.array([[2**52], [1]], dtype=np.int64)],
            scales=[1.0], thresholds=[1], leak_shift=3, bits=16, reset="subtract",
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
            thresholds=[60, 80], leak_shift=3, bits=8, reset="subtract",
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
            batches.append((x, labels, None))
        return batches

    def _epoch(self, state, chip, batches):
        strategy = apply_strategy(StrategyConfig("none"), "task-incremental", 0, state.surrogate)
        return mentor_learner_epoch(state, chip, batches, strategy, TaskContext(task=1, total_tasks=1))

    def _state(self, rng, mu):
        net = init_network([4, 8, 2], rng, gain=2.0)
        return MentorState(
            net=net,
            optimizer=OptimizerState(kind="adam", lr=5e-3),
            surrogate=SurrogateSpec(),
            loss_spec=LossSpec(lam=1.0, mu=mu, alpha=0.0, beta=1.0),
            quant_spec=QuantSpec(bits=8),
        )

    def test_mu_zero_never_touches_chip(self):
        rng = RngStream(5)
        state = self._state(rng, mu=0.0)
        chip = ChipModel()
        self._epoch(state, chip, self._toy_batches(rng.fork("data")))
        assert not chip.configured  # fully external mode
        assert state.twin_image is None

    def test_loss_decreases_on_separable_toy_set(self):
        rng = RngStream(6)
        state = self._state(rng, mu=1.0)
        chip = ChipModel()
        batches = self._toy_batches(rng.fork("data"), n_batches=8)
        first = self._epoch(state, chip, batches)
        losses = [first["mean_loss"]]
        for _ in range(4):
            losses.append(self._epoch(state, chip, batches)["mean_loss"])
        assert losses[-1] < losses[0]

    def _count_handshakes(self, monkeypatch):
        calls = []
        real = chip_module.chip_forward

        def counting(chip, x):
            calls.append(x.shape)
            real(chip, x)

        monkeypatch.setattr(chip_module, "chip_forward", counting)
        return calls

    def test_epoch_uploads_config_and_chip_matches_twin(self, monkeypatch):
        # alpha = 0: no handshake during training, yet the epoch-end upload
        # still leaves the chip in step with the twin
        rng = RngStream(7)
        state = self._state(rng, mu=1.0)
        chip = ChipModel()
        calls = self._count_handshakes(monkeypatch)
        self._epoch(state, chip, self._toy_batches(rng.fork("data")))
        assert calls == []
        assert chip.configured
        probe = (rng.fork("probe").uniform((6, 4)) < 0.5).astype(np.float64)
        chip_forward(chip, probe)
        regs = [read_layer_spikes(chip, l) for l in range(2)]
        twin = chip_twin_counts(state.twin_image, probe[None])
        assert np.array_equal(regs[-1], twin[0])

    def test_alpha_term_uses_chip_readout(self, monkeypatch):
        rng = RngStream(8)
        state = self._state(rng, mu=1.0)
        state.loss_spec = LossSpec(lam=1.0, mu=1.0, alpha=0.5, beta=0.5)
        chip = ChipModel()
        calls = self._count_handshakes(monkeypatch)
        out = self._epoch(state, chip, self._toy_batches(rng.fork("data"), 2))
        assert out["batches"] == 2
        assert chip.configured
        assert calls == [(10, 4)] * 32  # one handshake per training sample
