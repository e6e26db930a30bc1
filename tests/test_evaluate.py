"""Evaluation in training-sized slices: the same accuracy as one pass over
each encoded chunk, with a working set bounded by the slice."""

import tracemalloc

import pytest

import spikecl.runner as runner
from spikecl.chip import chip_twin_counts, quantize_network
from spikecl.continual import StrategyConfig, apply_strategy
from spikecl.data import DriftSpec, encode_batch
from spikecl.rng import RngStream
from spikecl.runner import RunConfig, build_network, build_stream, evaluate_task
from spikecl.snn import forward

_SPLIT = dict(
    scenario="split-mnist", split_pairs=[[0, 1], [2, 3]],
    corpus_train_per_class=4, corpus_test_per_class=50,
)
_DRIFT = dict(scenario="synthetic-drift", drift=DriftSpec(days=2, train_per_day=8, test_per_day=100))

CASES = {
    "single-head": dict(_DRIFT, strategy=StrategyConfig("none")),
    "multi-head": dict(_SPLIT, strategy=StrategyConfig("none")),
    "xdg-gates": dict(_SPLIT, strategy=StrategyConfig("xdg")),
    "chip-multi-head": dict(_SPLIT, strategy=StrategyConfig("hwc-hard"), chip=True),
    "chip-single-head": dict(_DRIFT, strategy=StrategyConfig("none"), chip=True),
}


def one_pass_accuracy(net, stream, eval_idx, trained_idx, config, run_rng, strategy, chunk):
    """``evaluate_task`` as it was before slicing: each encoded chunk goes
    through ``forward`` or ``chip_twin_counts`` whole."""
    task = stream.tasks[eval_idx]
    head = eval_idx if net.multi_head else None
    gates = strategy.eval_gates(eval_idx + 1, trained_idx + 1, net)
    image = quantize_network(net, config.quant, task=head) if config.chip else None
    correct = 0
    for ci, start in enumerate(range(0, len(task.test_y), chunk)):
        enc = run_rng.fork(f"eval/after{trained_idx}/task{eval_idx}/chunk{ci}")
        x_enc = encode_batch(task.test_x[start : start + chunk], config.encoder, enc)
        if config.chip:
            logits = chip_twin_counts(image, x_enc)
        else:
            _, logits = forward(net, x_enc, task=head, gates=gates)
        correct += int((logits.argmax(axis=1) == task.test_y[start : start + chunk]).sum())
    return correct / len(task.test_y)


@pytest.mark.parametrize("chunk", [37, 256])
@pytest.mark.parametrize("case", sorted(CASES))
def test_sliced_evaluation_equals_one_pass_oracle(case, chunk, monkeypatch):
    # 100 test samples per task: with chunk 37 the chunks are 37, 37 and 26
    # rows and the slices 16, 16, 5 and 16, 10; with 256, one chunk.
    monkeypatch.setattr(runner, "_EVAL_CHUNK", chunk)
    config = RunConfig(batch_size=16, **CASES[case])
    stream = build_stream(config)
    run_rng = RngStream(3)
    net = build_network(config, stream, run_rng.fork("init"))
    strategy = apply_strategy(config.strategy, stream.scenario, 3, config.surrogate)
    for eval_idx in range(len(stream.tasks)):
        got = evaluate_task(net, stream, eval_idx, 1, config, run_rng, strategy)
        want = one_pass_accuracy(net, stream, eval_idx, 1, config, run_rng, strategy, chunk)
        assert got == want


def evaluation_peak_above_entry(config):
    """Bytes ``evaluate_task`` allocates above entry on task 0 under tracemalloc."""
    stream = build_stream(config)
    run_rng = RngStream(1)
    net = build_network(config, stream, run_rng.fork("init"))
    strategy = apply_strategy(config.strategy, stream.scenario, 1, config.surrogate)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        evaluate_task(net, stream, 0, 0, config, run_rng, strategy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - entry


@pytest.mark.parametrize("chip", [False, True], ids=["float", "chip"])
def test_evaluation_allocates_under_4_mb_above_entry(chip):
    # A 200-sample drift day through the shipped 64-256-256-8 network: one
    # float pass keeps every layer's (200, 10, n) spikes and potentials,
    # about 17 MB, and one integer pass its currents and spikes, about
    # 16 MB; 16-row slices keep about a twelfth of that.
    config = RunConfig(
        scenario="synthetic-drift", drift=DriftSpec(days=1, train_per_day=8), chip=chip
    )
    assert len(build_stream(config).tasks[0].test_y) == 200
    used = evaluation_peak_above_entry(config)
    assert used < 4 * 2**20, f"{used / 2**20:.1f} MB above entry"


@pytest.mark.parametrize("chip", [False, True], ids=["float", "chip"])
def test_split_evaluation_allocates_under_8_mb_above_entry(chip):
    # A 500-sample split task through the shipped 784-256-256 network, two
    # chunks of 256 and 244. Encoding a whole chunk draws 2 million words
    # and keeps its (256, 10, 784) spike trains, about 50 MB above entry;
    # encoding each 16-sample slice from the chunk's fork in turn peaked at
    # 3.3 MB (float) and 6.3 MB (chip, with its quantized image) when the
    # bound was set.
    config = RunConfig(
        split_pairs=[[0, 1]], corpus_train_per_class=4, corpus_test_per_class=250, chip=chip
    )
    assert build_stream(config).tasks[0].test_x.shape == (500, 784)
    used = evaluation_peak_above_entry(config)
    assert used < 8 * 2**20, f"{used / 2**20:.1f} MB above entry"
