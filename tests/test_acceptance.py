"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Runs at the desk-scale ci profile. The split-digit experiments use the
packaged rendered corpus (no dataset download is possible in this
environment); real IDX files are exercised through the same machinery in
the format suite and are selectable via config for full-scale runs.
"""

import os

import numpy as np
import pytest

from spikecl.chip import (
    ChipModel,
    QuantSpec,
    chip_forward,
    chip_twin_counts,
    parse_image,
    quantize_network,
    read_layer_spikes,
    serialize_image,
    upload_config,
)
from spikecl.continual import (
    HebbianAccumulator,
    HebbianStore,
    StrategyConfig,
    TaskContext,
    accumulate_hebbian,
    apply_strategy,
    finalize_hebbian,
    finalize_task,
    potential,
)
from spikecl.data import (
    DriftSpec,
    build_split_stream,
    generate_digit_corpus,
    load_idx,
)
from spikecl.errors import ConstraintViolation, ProtocolError, TransportError
from spikecl.metrics import incremental_accuracy, parse_results
from spikecl.numerics import softmax_cross_entropy_batch
from spikecl.rng import RngStream
from spikecl.runner import (
    RunConfig,
    build_network,
    build_stream,
    evaluate_task,
    run_experiment,
    run_seed,
    _make_sample_provider,
    train_task,
)
from spikecl.snn import forward, init_network
from spikecl.train import LossSpec, SurrogateSpec

from oracles import backward, composite_loss, param_names, serialize_idx, softmax_cross_entropy

SEEDS = (1, 2, 3)


def announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def final_incremental(cfg: RunConfig, seed: int, stage: int) -> float:
    records, _ = run_seed(cfg, seed)
    return next(r.acc_incremental for r in records if r.after_task == stage)


def split_cfg(strategy: str) -> RunConfig:
    return RunConfig(scenario="split-mnist", strategy=StrategyConfig(strategy))


@pytest.mark.slow
def test_criterion_1_split_directional_reproduction():
    """Sequential two-class digit tasks: consolidation must recover most of
    the accuracy the unprotected run forfeits."""
    means = {}
    for strategy in ("none", "hwc-hard", "ewc", "si"):
        vals = [final_incremental(split_cfg(strategy), s, stage=5) for s in SEEDS]
        means[strategy] = float(np.mean(vals))
    ok = (
        means["hwc-hard"] >= means["none"] + 0.05
        and means["none"] <= 0.92
        and means["ewc"] >= 0.90
        and means["si"] >= 0.90
    )
    announce(
        "criterion 1 (split directional reproduction)",
        ok,
        "Acc<=5 means: "
        + ", ".join(f"{k}={v:.4f}" for k, v in means.items()),
    )
    assert means["none"] <= 0.92
    assert means["hwc-hard"] >= means["none"] + 0.05
    assert means["ewc"] >= 0.90
    assert means["si"] >= 0.90


@pytest.mark.slow
def test_criterion_2_domain_incremental_drift():
    means = {}
    for strategy in ("none", "hwc-hard"):
        cfg = RunConfig(
            scenario="synthetic-drift",
            strategy=StrategyConfig(strategy),
            epochs_per_task=4,
            head_gain=0.25,
        )
        vals = [final_incremental(cfg, s, stage=5) for s in SEEDS]
        means[strategy] = float(np.mean(vals))
    ok = means["hwc-hard"] >= means["none"] + 0.05
    announce(
        "criterion 2 (domain-incremental drift)",
        ok,
        f"Acc<=5 none={means['none']:.4f}, hwc-hard={means['hwc-hard']:.4f}",
    )
    assert ok


@pytest.mark.slow
def test_criterion_3_chip_degradation_bound():
    """Mentor-learner training on the first split task: the quantized chip
    twin must track the external model within five points."""
    cfg = RunConfig(
        scenario="split-mnist",
        strategy=StrategyConfig("none"),
        chip=True,
        loss=LossSpec(lam=1.0, mu=1.0),
    )
    stream = build_stream(cfg)
    rng = RngStream(1)
    net = build_network(cfg, stream, rng.fork("init"))
    strategy = apply_strategy(cfg.strategy, stream.scenario, 1, cfg.surrogate)
    ctx = TaskContext(task=1, total_tasks=len(stream.tasks), epoch=0,
                      total_epochs=cfg.epochs_per_task)
    strategy.before_task(ctx, net)
    train_task(cfg, net, stream, 0, strategy, rng)
    image = quantize_network(net, cfg.quant, task=0)

    # external accuracy (float forward) vs chip twin (integer emulation)
    task = stream.tasks[0]
    enc = rng.fork("acceptance-eval")
    correct = {"external": 0, "chip": 0}
    total = 0
    for start in range(0, len(task.test_y), 256):
        x = task.test_x[start : start + 256]
        y = task.test_y[start : start + 256]
        from spikecl.data import encode_batch

        x_enc = encode_batch(x, cfg.encoder, enc.fork(f"c{start}"))
        _, ext_logits = forward(net, x_enc, task=0)
        chip_logits = chip_twin_counts(image, x_enc)
        correct["external"] += int((ext_logits.argmax(axis=1) == y).sum())
        correct["chip"] += int((chip_logits.argmax(axis=1) == y).sum())
        total += len(y)
    ext_acc = correct["external"] / total
    chip_acc = correct["chip"] / total
    gap = abs(ext_acc - chip_acc)
    # the bound is about a well-trained model; a chance-level pair is a fail
    ok = gap <= 0.05 and ext_acc >= 0.9
    announce(
        "criterion 3 (chip degradation bound)",
        ok,
        f"external={ext_acc:.4f}, chip twin={chip_acc:.4f}, gap={gap:.4f}",
    )
    assert ext_acc >= 0.9
    assert gap <= 0.05


def _toy_two_task_cfg(threshold_abs=None):
    corpus = generate_digit_corpus(train_per_class=40, test_per_class=10, seed=777)
    stream = build_split_stream(*corpus, pairs=((0, 1), (2, 3)))
    cfg = RunConfig(
        scenario="split-mnist",
        strategy=StrategyConfig("hwc-hard", hwc_threshold_abs=threshold_abs),
        hidden=[32],
        epochs_per_task=2,
    )
    return cfg, stream


def _train_stream(cfg, stream, strategy_name, threshold_abs=None):
    """Replicates the runner's sequential loop; returns the trained network."""
    rng = RngStream(5)
    net = build_network(cfg, stream, rng.fork("init"))
    scfg = StrategyConfig(strategy_name, hwc_threshold_abs=threshold_abs)
    strategy = apply_strategy(scfg, stream.scenario, 5, cfg.surrogate)
    for idx in range(len(stream.tasks)):
        ctx = TaskContext(task=idx + 1, total_tasks=len(stream.tasks), epoch=0,
                          total_epochs=cfg.epochs_per_task)
        strategy.before_task(ctx, net)
        train_task(cfg, net, stream, idx, strategy, rng)
        provider = _make_sample_provider(stream.tasks[idx], cfg, rng, idx)
        strategy.after_task(ctx, net, provider)
    return net


@pytest.mark.slow
def test_criterion_4_hard_mask_freezing():
    cfg, stream = _toy_two_task_cfg()

    # part 1: weights with P = 0 after task 1 are bit-identical through task 2
    rng = RngStream(5)
    net = build_network(cfg, stream, rng.fork("init"))
    strategy = apply_strategy(cfg.strategy, stream.scenario, 5, cfg.surrogate)
    ctx1 = TaskContext(task=1, total_tasks=2, epoch=0, total_epochs=cfg.epochs_per_task)
    strategy.before_task(ctx1, net)
    train_task(cfg, net, stream, 0, strategy, rng)
    strategy.after_task(ctx1, net, _make_sample_provider(stream.tasks[0], cfg, rng, 0))

    ctx2 = TaskContext(task=2, total_tasks=2, epoch=0, total_epochs=cfg.epochs_per_task)
    strategy.before_task(ctx2, net)
    mask = strategy.mask
    frozen = {k: (v == 0.0) for k, v in mask.values.items()}
    n_frozen = int(sum(f.sum() for f in frozen.values()))
    before = {k: net.get_param(k).copy() for k in frozen}
    train_task(cfg, net, stream, 1, strategy, rng)
    frozen_ok = all(
        np.array_equal(net.get_param(k)[frozen[k]], before[k][frozen[k]])
        for k in frozen
    )
    moved = any(
        not np.array_equal(net.get_param(k)[~frozen[k]], before[k][~frozen[k]])
        for k in frozen
    )

    # part 2: threshold high enough that P = 1 everywhere reproduces `none`
    net_hwc = _train_stream(cfg, stream, "hwc-hard", threshold_abs=0.999999)
    net_none = _train_stream(cfg, stream, "none")
    identical = all(
        np.array_equal(net_hwc.get_param(k), net_none.get_param(k))
        for k in param_names(net_none)
    )
    ok = frozen_ok and moved and n_frozen > 0 and identical
    announce(
        "criterion 4 (hard-mask freezing)",
        ok,
        f"{n_frozen} frozen synapses bit-identical={frozen_ok}, "
        f"plastic ones moved={moved}, P==1 run equals none={identical}",
    )
    assert frozen_ok and moved and n_frozen > 0
    assert identical


def test_criterion_5_gradient_oracle():
    rng = RngStream(1002)
    net = init_network([2, 2, 2], rng, gain=1.5)
    sur = SurrogateSpec()
    x = (rng.fork("x").uniform((5, 7, 2)) < 0.5).astype(np.float64)
    y = rng.fork("y").integers(5, 2)

    def loss_of():
        _, logits = forward(net, x, mode="relaxed", surrogate=sur)
        return softmax_cross_entropy_batch(logits, y)[0]

    trace, logits = forward(net, x, mode="relaxed", surrogate=sur)
    grads = backward(net, trace, logits, y, sur)
    h = 1e-6
    worst = 0.0
    probes = 0
    pick = rng.fork("probes")
    while probes < 120:
        name = ("w0", "w1")[int(pick.integers(1, 2)[0])]
        w = net.get_param(name)
        idx = tuple(int(v) for v in (pick.integers(1, w.shape[0])[0], pick.integers(1, w.shape[1])[0]))
        orig = w[idx]
        w[idx] = orig + h
        lp = loss_of()
        w[idx] = orig - h
        lm = loss_of()
        w[idx] = orig
        fd = (lp - lm) / (2 * h)
        a = grads[name][idx]
        worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-8))
        probes += 1
    ok = worst < 1e-4
    announce("criterion 5 (gradient oracle)", ok, f"{probes} probes, max rel err {worst:.3e}")
    assert ok


def test_criterion_6_equation_identities():
    rng = RngStream(42)

    # coincidence accumulator vs brute-force per-sample outer products, exact
    pre = rng.fork("pre").uniform((11, 5))
    post = rng.fork("post").uniform((11, 4))
    acc = HebbianAccumulator((5, 4))
    accumulate_hebbian(acc, pre, post)
    ref = np.zeros((5, 4))
    for i in range(11):
        ref += np.outer(pre[i], post[i])
    acc_exact = np.array_equal(finalize_hebbian(acc), ref / 11)

    # potentials vs direct formula, exact, including the <= boundary
    h = np.array([[0.2, 0.5, 0.8]])
    store = HebbianStore()
    finalize_task(store, {"w0": h})
    soft_exact = np.array_equal(potential(store, "soft").values["w0"], 1.0 - h)
    hard = potential(store, "hard", threshold=0.5).values["w0"]
    hard_exact = hard.tolist() == [[1.0, 1.0, 0.0]]  # 0.5 <= 0.5 stays plastic

    # composite loss with mu = 0 equals lam * H(y, enn) exactly
    enn = rng.fork("enn").normal((6,))
    lam = 0.731
    loss = composite_loss(3, enn, rng.fork("junk").normal((6,)), LossSpec(lam=lam, mu=0.0))
    mu_exact = loss == lam * softmax_cross_entropy(enn, 3)[0]

    # incremental accuracy vs brute-force mean, exact
    accs = rng.fork("accs").uniform((7,)).tolist()
    eq7_exact = all(incremental_accuracy(accs, c) == sum(accs[:c]) / c
                    for c in range(1, 8))

    ok = acc_exact and soft_exact and hard_exact and mu_exact and eq7_exact
    announce(
        "criterion 6 (equation identities)",
        ok,
        f"accumulator={acc_exact}, soft={soft_exact}, hard boundary={hard_exact}, "
        f"mu0={mu_exact}, incremental mean={eq7_exact}",
    )
    assert ok


def test_criterion_7_protocol_and_format_suites(tmp_path):
    failures = []

    # protocol-order violations all rejected
    lifnet = init_network([4, 3, 2], RngStream(3))
    image = quantize_network(lifnet, QuantSpec())
    chip = ChipModel()
    for exc, action in (
        (ProtocolError, lambda: chip_forward(chip, np.zeros((2, 4)))),
        (ProtocolError, lambda: read_layer_spikes(chip, 0)),
    ):
        try:
            action()
            failures.append("protocol violation accepted")
        except exc:
            pass
    upload_config(chip, image)
    try:
        read_layer_spikes(chip, 0)
        failures.append("read without interrupt accepted")
    except ProtocolError:
        pass
    chip_forward(chip, np.ones((3, 4)))
    try:
        chip_forward(chip, np.ones((3, 4)))
        failures.append("forward with pending interrupt accepted")
    except ProtocolError:
        pass

    # 20-class config rejected
    wide = init_network([4, 3, 20], RngStream(4))
    try:
        upload_config(ChipModel(), quantize_network(wide, QuantSpec()))
        failures.append("20-class config accepted")
    except ConstraintViolation:
        pass

    # corrupted image -> transport error
    blob = bytearray(serialize_image(image))
    blob[30] ^= 0x10
    try:
        parse_image(bytes(blob))
        failures.append("corrupted image accepted")
    except TransportError:
        pass

    # ConfigImage and IDX round-trips bit-exact
    if serialize_image(parse_image(serialize_image(image))) != serialize_image(image):
        failures.append("config image round-trip differs")
    import struct

    idx_bytes = struct.pack(">IIII", 0x803, 2, 2, 2) + bytes(range(8))
    idx_path = tmp_path / "probe.idx"
    idx_path.write_bytes(idx_bytes)
    if serialize_idx(load_idx(idx_path)) != idx_bytes:
        failures.append("idx round-trip differs")

    # full-run determinism: identical config+seed => identical result files
    # (modulo the wall-clock timing column, which measures real time)
    def run_into(sub):
        cfg = RunConfig(
            scenario="synthetic-drift",
            strategy=StrategyConfig("hwc-hard"),
            hidden=[24],
            epochs_per_task=1,
            seeds=[11],
            drift=DriftSpec(days=3, train_per_day=48, test_per_day=24),
            output_dir=str(tmp_path / sub),
        )
        out = run_experiment(cfg, verbose=False)
        rows = []
        with open(out["results"]) as f:
            for line in f:
                cols = line.rstrip("\n").split(",")
                rows.append(",".join(cols[:7]))  # drop wall_ms
        summary = open(out["summary"]).read()
        return rows, summary

    rows_a, summary_a = run_into("run_a")
    rows_b, summary_b = run_into("run_b")
    if rows_a != rows_b:
        failures.append("result rows differ between identical runs")
    if summary_a != summary_b:
        failures.append("summaries differ between identical runs")

    ok = not failures
    announce("criterion 7 (protocol and format suites)", ok,
             "all checks passed" if ok else "; ".join(failures))
    assert ok, failures
