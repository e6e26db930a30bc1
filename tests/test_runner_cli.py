import dataclasses
import os
import re
import subprocess
import sys
import typing

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecl.cli import main as cli_main
from spikecl.container import read_bundle, write_bundle
from spikecl.continual import StrategyConfig
from spikecl.data import IDX_MAGIC_IMAGES, IDX_MAGIC_LABELS, DriftSpec, IdxFile
from spikecl.errors import ConfigurationError, FormatError, SpikeclError
from spikecl.metrics import CSV_COLUMNS, parse_results
from spikecl.rng import RngStream
from spikecl.runner import (
    RunConfig,
    apply_profile,
    build_network,
    build_stream,
    config_from_dict,
    evaluate_task,
    load_config,
    run_experiment,
    run_seed,
)
from spikecl.snn import init_network, save_network

from oracles import write_idx


def tiny_config(**kw):
    base = dict(
        scenario="synthetic-drift",
        strategy=StrategyConfig("none"),
        hidden=[24],
        epochs_per_task=1,
        seeds=[1],
        drift=DriftSpec(days=3, train_per_day=48, test_per_day=24),
    )
    base.update(kw)
    return RunConfig(**base)


class TestConfig:
    def test_unknown_top_level_key_rejected_before_training(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"scenari": "split-mnist"})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"strategy": {"nam": "none"}})

    def test_unknown_strategy_name_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"strategy": {"name": "icarl"}})

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            RunConfig(scenario="cifar")

    def test_yaml_round_trip(self, tmp_path):
        raw = {
            "scenario": "synthetic-drift",
            "strategy": {"name": "hwc-hard", "hwc_threshold_rel": 0.05},
            "learning_rate": 0.002,
            "seeds": [7],
            "drift": {"days": 2, "train_per_day": 16, "test_per_day": 8},
        }
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(raw))
        cfg = load_config(path)
        assert cfg.strategy.name == "hwc-hard"
        assert cfg.strategy.hwc_threshold_rel == 0.05
        assert cfg.learning_rate == 0.002
        assert cfg.drift.days == 2

    def test_profiles(self):
        cfg = apply_profile(tiny_config(), "full")
        assert cfg.train_cap is None and cfg.test_cap is None
        cfg = apply_profile(cfg, "ci")
        assert cfg.train_cap == 2000 and cfg.test_cap == 500


class TestRunSeed:
    def test_record_counts_sequential(self):
        recs, _ = run_seed(tiny_config(), 1)
        # after task k there are k eval rows; 3 tasks -> 1+2+3 = 6 rows
        assert len(recs) == 6
        assert {(r.after_task, r.eval_task) for r in recs} == {
            (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)
        }

    def test_incremental_accuracy_is_exact_mean(self):
        recs, _ = run_seed(tiny_config(), 1)
        by_after = {}
        for r in recs:
            by_after.setdefault(r.after_task, []).append(r.accuracy)
        for r in recs:
            assert r.acc_incremental == pytest.approx(
                np.mean(by_after[r.after_task]), abs=1e-12
            )

    def test_joint_single_evaluation_pass(self):
        recs, _ = run_seed(tiny_config(strategy=StrategyConfig("joint")), 1)
        assert len(recs) == 3
        assert all(r.after_task == 3 for r in recs)

    def test_evaluation_does_not_mutate_weights(self):
        cfg = tiny_config()
        stream = build_stream(cfg)
        rng = RngStream(1)
        net = build_network(cfg, stream, rng.fork("init"))
        before = [w.copy() for w in net.weights]
        evaluate_task(net, stream, 0, 0, cfg, rng)
        for w, b in zip(net.weights, before):
            assert np.array_equal(w, b)

    def test_determinism_of_records(self):
        a, _ = run_seed(tiny_config(), 1)
        b, _ = run_seed(tiny_config(), 1)
        for ra, rb in zip(a, b):
            assert ra.accuracy == rb.accuracy
            assert ra.acc_incremental == rb.acc_incremental


class TestRunExperiment:
    def test_writes_results_and_summary(self, tmp_path):
        cfg = tiny_config(output_dir=str(tmp_path / "out"), seeds=[1, 2])
        out = run_experiment(cfg, verbose=False)
        assert os.path.exists(out["results"])
        assert os.path.exists(out["summary"])
        records = parse_results(out["results"])
        assert {r.seed for r in records} == {1, 2}


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        net = init_network([16, 8, 2], RngStream(0))
        path = tmp_path / "ok.ckpt"
        save_network(path, net)
        assert cli_main(["validate", str(path)]) == 0

    def test_validate_rejects_wide_head(self, tmp_path, capsys):
        net = init_network([16, 8, 20], RngStream(0))
        path = tmp_path / "bad.ckpt"
        save_network(path, net)
        assert cli_main(["validate", str(path)]) == 1
        assert "violation" in capsys.readouterr().out

    def test_run_and_report(self, tmp_path, capsys):
        cfg = {
            "scenario": "synthetic-drift",
            "strategy": {"name": "none"},
            "hidden": [16],
            "epochs_per_task": 1,
            "seeds": [1],
            "drift": {"days": 2, "train_per_day": 32, "test_per_day": 16},
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        assert cli_main(["run", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert cli_main(["report", str(tmp_path / "out"), "--stage", "1", "--stage", "2"]) == 0
        out = capsys.readouterr().out
        assert "none" in out

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text("scenario: nonexistent\n")
        assert cli_main(["run", "--config", str(cfg_path)]) == 2
        assert "spikecl-error" in capsys.readouterr().err

    def test_seed_override(self, tmp_path):
        cfg = {
            "scenario": "synthetic-drift",
            "strategy": {"name": "none"},
            "hidden": [12],
            "epochs_per_task": 1,
            "seeds": [1, 2, 3],
            "drift": {"days": 2, "train_per_day": 16, "test_per_day": 8},
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        assert cli_main(["run", "--config", str(cfg_path), "--seed", "9"]) == 0
        records = parse_results(tmp_path / "out" / "results.csv")
        assert {r.seed for r in records} == {9}


def _fields(cls, prefix=()):
    """(path, annotation) of every leaf field of RunConfig, sections included."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            yield from _fields(hints[f.name], prefix + (f.name,))
        else:
            yield prefix + (f.name,), hints[f.name]


_LEAF_FIELDS = sorted(_fields(RunConfig))
# values of the wrong type for each annotation; a float field takes an int
_WRONG = {
    int: ["7", 7.5, True, [7], {}],
    float: ["0.5", False, [0.5], {}],
    str: [3, True, ["a"], {}],
    bool: [1, "true", [True], {}],
    list: [5, "a", 1.5, {}],
}


def _wrong_values(hint):
    args = typing.get_args(hint)
    optional = type(None) in args
    if optional:
        (hint,) = [a for a in args if a is not type(None)]
    kind = list if hint is list or typing.get_origin(hint) is list else hint
    return _WRONG[kind] + ([] if optional else [None])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_LEAF_FIELDS), st.data())
def test_wrongly_typed_field_is_a_configuration_error_naming_it(field, data):
    path, hint = field
    value = data.draw(st.sampled_from(_wrong_values(hint)))
    raw = value
    for key in reversed(path):
        raw = {key: raw}
    with pytest.raises(ConfigurationError, match=re.escape(".".join(("config",) + path) + " must be")):
        config_from_dict(raw)


_SECTION_KEYS = sorted({path[-1] for path, _ in _LEAF_FIELDS if len(path) == 2})
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_YAML_DOCS = st.dictionaries(
    st.sampled_from([f.name for f in dataclasses.fields(RunConfig)]) | st.text(max_size=6),
    _VALUES | st.dictionaries(st.sampled_from(_SECTION_KEYS), _VALUES, max_size=3),
    max_size=4,
).map(lambda doc: yaml.safe_dump(doc).encode())


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=80) | _YAML_DOCS | _YAML_DOCS.flatmap(lambda b: st.binary(max_size=4).map(lambda x: b[: len(b) // 2] + x)))
def test_config_reader_parses_or_raises_spikecl_errors(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("cfg") / "cfg.yaml"
    path.write_bytes(blob)
    try:
        config = load_config(path)
    except SpikeclError:
        return
    assert isinstance(config, RunConfig)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# A split run small enough that a config which slips through finishes fast.
_SMALL_SPLIT = {"corpus_train_per_class": 12, "corpus_test_per_class": 6,
                "hidden": [16], "epochs_per_task": 1, "seeds": [1]}


@pytest.mark.parametrize(
    "text",
    [
        "- scenario: split-mnist\n- seeds: [1]\n",  # a list at the top level
        "strategy: hwc-hard\n",  # a section that is not a mapping
        "hidden: [64, 64\n",  # unclosed flow sequence: a YAML error
        "strategy: {1: a, nam: b}\n",  # unknown section keys of mixed types
        'batch_size: "x"\n',  # a string for an int field
        "hidden: 5\n",  # a scalar for a list field
        'loss: {lam: "a"}\n',  # a string for a section's float field
        # unknown keys: a file that sets one fails rather than being ignored
        "profile: full\n",
        "optimizer: adam\n",
        "loss: {alpha: 0.0}\n",
        "loss: {beta: 1.0}\n",
        "loss: {distill_temperature: 2.0}\n",
        yaml.safe_dump({**_SMALL_SPLIT, "dropout": 0.1}),
        yaml.safe_dump({**_SMALL_SPLIT, "encoder": {"kind": "direct-repeat"}}),
        yaml.safe_dump({**_SMALL_SPLIT, "surrogate": {"shape": "boxcar"}}),
        yaml.safe_dump({**_SMALL_SPLIT, "lif": {"decay": 0.9, "reset": "subtract"}}),
        yaml.safe_dump({**_SMALL_SPLIT, "strategy": {"name": "lwf"}}),
        yaml.safe_dump({**_SMALL_SPLIT, "strategy": {"name": "xdg"}}),
        yaml.safe_dump({**_SMALL_SPLIT, "strategy": {"name": "none", "xdg_fraction": 0.8}}),
        yaml.safe_dump({**_SMALL_SPLIT, "strategy": {"name": "none", "lwf_strength": 1.0}}),
        yaml.safe_dump({**_SMALL_SPLIT, "strategy": {"name": "none", "lwf_temperature": 2.0}}),
    ],
    ids=["top-level-list", "section-scalar", "yaml-error", "section-int-key",
         "int-field-string", "list-field-scalar", "section-float-string",
         "removed-profile", "removed-optimizer", "removed-loss-alpha", "removed-loss-beta",
         "removed-loss-distill-temperature", "removed-dropout", "removed-encoder-kind",
         "removed-surrogate-shape", "removed-lif-reset", "removed-lwf", "removed-xdg",
         "removed-xdg-fraction", "removed-lwf-strength", "removed-lwf-temperature"],
)
def test_malformed_config_file_exits_2_with_one_error_line(tmp_path, text):
    _assert_run_is_a_configuration_error(tmp_path, text)


def _run_in_child(tmp_path, text):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(text)
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "spikecl.cli", "run", "--config", str(cfg_path),
         "--output", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _assert_run_is_a_configuration_error(tmp_path, text):
    proc = _run_in_child(tmp_path, text)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("spikecl-error: ConfigurationError: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "override",
    [
        {"test_cap": 0},
        {"train_cap": 0},
        {"corpus_train_per_class": -5},
        {"corpus_test_per_class": 0},
        {"hidden": [16, 0]},
        {"split_pairs": [[0, 0]]},
        {"split_pairs": [[0]]},
        {"split_pairs": [[0, 1], [2, 10]]},
        {"split_pairs": []},
        {"split_pairs": [[0, 1], [1, 2]]},
    ],
    ids=["test-cap-0", "train-cap-0", "corpus-train-negative", "corpus-test-0",
         "hidden-0", "pair-repeats-a-digit", "pair-of-one", "pair-not-a-digit",
         "no-pairs", "pairs-share-a-digit"],
)
def test_out_of_range_size_exits_2_with_one_error_line(tmp_path, override):
    _assert_run_is_a_configuration_error(tmp_path, yaml.safe_dump({**_SMALL_SPLIT, **override}))


_SMALL_DRIFT = {"scenario": "synthetic-drift", "hidden": [16], "epochs_per_task": 1,
                "seeds": [1], "drift": {"days": 2, "train_per_day": 16, "test_per_day": 8}}


@pytest.mark.parametrize(
    "override",
    [{"planes": 40}, {"planes": -3}, {"features": 0}, {"classes": 0},
     {"train_per_day": 0}, {"test_per_day": 0}],
    ids=["planes-above-half-features", "planes-negative", "features-0", "classes-0",
         "train-per-day-0", "test-per-day-0"],
)
def test_out_of_range_drift_size_exits_2_with_one_error_line(tmp_path, override):
    drift = {**_SMALL_DRIFT["drift"], **override}
    _assert_run_is_a_configuration_error(tmp_path, yaml.safe_dump({**_SMALL_DRIFT, "drift": drift}))


@pytest.mark.parametrize(
    "override",
    [
        {"strategy": {"name": "hwc-hard", "hwc_threshold_rel": -1.0}},
        {"strategy": {"name": "hwc-hard", "hwc_threshold_rel": 1.0}},
        {"strategy": {"name": "hwc-hard", "hwc_threshold_abs": float("nan")}},
        {"strategy": {"name": "hwc-hard", "hwc_threshold_abs": 0.0}},
        {"strategy": {"name": "hwc-hard", "hwc_threshold_abs": 1.0}},
        {"strategy": {"name": "ewc", "ewc_strength": float("inf")}},
        {"strategy": {"name": "ewc", "ewc_strength": -1.0}},
        {"strategy": {"name": "ewc", "ewc_fisher_samples": 0}},
        {"strategy": {"name": "si", "si_strength": -1.0}},
        {"strategy": {"name": "si", "si_strength": float("inf")}},
        {"strategy": {"name": "si", "si_damping": 0.0}},
        {"strategy": {"name": "si", "si_damping": -1.0}},
        {"learning_rate": -1.0},
        {"learning_rate": 0.0},
        {"learning_rate": float("nan")},
        {"init_gain": float("nan")},
        {"init_gain": 0.0},
        {"head_gain": float("inf")},
        {"head_gain": -1.0},
        {"loss": {"lam": float("nan")}},
        {"loss": {"mu": float("inf")}},
        {"drift": {**_SMALL_DRIFT["drift"], "theta_deg": float("nan")}},
        {"drift": {**_SMALL_DRIFT["drift"], "noise": float("inf")}},
        {"drift": {**_SMALL_DRIFT["drift"], "noise": -0.5}},
        {"drift": {**_SMALL_DRIFT["drift"], "proto_low": float("nan")}},
        {"drift": {**_SMALL_DRIFT["drift"], "proto_spread": float("-inf")}},
        {"drift": {**_SMALL_DRIFT["drift"], "p_drop": 1.5}},
        {"drift": {**_SMALL_DRIFT["drift"], "p_drop": -0.1}},
        {"drift": {**_SMALL_DRIFT["drift"], "p_drop": float("nan")}},
    ],
    ids=["hwc-rel-negative", "hwc-rel-1", "hwc-abs-nan", "hwc-abs-0", "hwc-abs-1",
         "ewc-strength-inf", "ewc-strength-negative", "ewc-fisher-samples-0",
         "si-strength-negative", "si-strength-inf", "si-damping-0", "si-damping-negative",
         "lr-negative", "lr-0", "lr-nan", "init-gain-nan", "init-gain-0",
         "head-gain-inf", "head-gain-negative", "loss-lam-nan", "loss-mu-inf",
         "drift-theta-nan", "drift-noise-inf", "drift-noise-negative", "drift-proto-low-nan",
         "drift-proto-spread-inf", "drift-p-drop-1.5", "drift-p-drop-negative",
         "drift-p-drop-nan"],
)
def test_out_of_range_training_value_exits_2_with_one_error_line(tmp_path, override):
    # each value is checked when the config is built, before any data or
    # output exists; the drift run is small enough to finish if one slips by
    _assert_run_is_a_configuration_error(tmp_path, yaml.safe_dump({**_SMALL_DRIFT, **override}))


_SMALL_DRIFT_CHIP = {**_SMALL_DRIFT, "chip": True,
                     "drift": {"days": 1, "train_per_day": 16, "test_per_day": 16}}


@pytest.mark.parametrize(
    "scales",
    [[0.1], [0.1, 0.1, 0.1], [0.0, 0.1], [-0.1, 0.1], [float("inf"), 0.1], [0.1, float("nan")]],
    ids=["too-short", "too-long", "zero", "negative", "infinite", "nan"],
)
def test_bad_scale_override_exits_2_with_one_error_line(tmp_path, scales):
    # hidden [16] is two computing layers in either scenario
    cfg = {**_SMALL_DRIFT_CHIP, "quant": {"scale_override": scales}}
    _assert_run_is_a_configuration_error(tmp_path, yaml.safe_dump(cfg))


@pytest.mark.parametrize("mu", [0.0, 1.0])
def test_chip_run_over_the_chip_budget_exits_2_before_training(tmp_path, mu):
    # 1100 units exceed a chip layer's 1024 neurons; at mu = 0 no step needs
    # the chip, but a chip run is evaluated on it, so the budget still holds
    cfg = {**_SMALL_DRIFT_CHIP, "hidden": [1100], "loss": {"mu": mu}}
    proc = _run_in_child(tmp_path, yaml.safe_dump(cfg))
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("spikecl-error: ConstraintViolation: ")
    assert "1100 neurons" in lines[0]
    assert not (tmp_path / "out").exists()


def test_chip_budget_is_checked_before_any_data_or_output(tmp_path, monkeypatch):
    import spikecl.runner as runner_module

    def forbidden(*args, **kwargs):
        raise AssertionError("a data set was built before the chip's budget was checked")

    for name in ("build_stream", "generate_digit_corpus", "build_synthetic_drift"):
        monkeypatch.setattr(runner_module, name, forbidden)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({**_SMALL_SPLIT, "chip": True, "hidden": [1100],
                                    "output_dir": str(tmp_path / "out")}))
    assert cli_main(["run", "--config", str(path)]) == 2
    path.write_text(yaml.safe_dump({**_SMALL_SPLIT, "hidden": [1100],
                                    "output_dir": str(tmp_path / "out")}))
    assert cli_main(["run", "--config", str(path), "--chip"]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("side", [28, 32])
def test_mnist_dir_images_must_be_28_by_28(tmp_path, side):
    # a chip config's budget is checked for 784-wide input before any file is read
    rng = RngStream(5)
    for prefix, n in (("train", 20), ("t10k", 10)):
        pixels = (rng.fork(prefix).uniform((n * side * side,)) * 255).astype(np.uint8)
        labels = np.arange(n, dtype=np.uint8) % 10
        write_idx(tmp_path / f"{prefix}-images-idx3-ubyte",
                  IdxFile(IDX_MAGIC_IMAGES, (n, side, side), pixels))
        write_idx(tmp_path / f"{prefix}-labels-idx1-ubyte", IdxFile(IDX_MAGIC_LABELS, (n,), labels))
    config = RunConfig(mnist_dir=str(tmp_path), split_pairs=[[0, 1]])
    if side == 28:
        assert build_stream(config).feature_dim == 784
    else:
        with pytest.raises(FormatError, match="28 x 28"):
            build_stream(config)


_ROOT = os.path.dirname(SRC)
_SHIPPED_CONFIGS = sorted(
    name for name in os.listdir(os.path.join(_ROOT, "configs")) if name.endswith(".yaml")
)


@pytest.mark.parametrize("name", _SHIPPED_CONFIGS + ["README.md"])
def test_shipped_configs_and_the_readme_block_load(name):
    if name == "README.md":
        with open(os.path.join(_ROOT, "README.md")) as f:
            (block,) = re.findall(r"```yaml\n(.*?)```", f.read(), re.S)
        config = config_from_dict(yaml.safe_load(block))
    else:
        config = load_config(os.path.join(_ROOT, "configs", name))
    assert isinstance(config, RunConfig)


def test_chip_flag_sets_the_chip_loop_weights(tmp_path, monkeypatch):
    import spikecl.runner as runner_module

    seen = []
    run = runner_module.run_experiment

    def spy(config, verbose=True):
        seen.append((config.chip, config.loss.mu))
        return run(config, verbose)

    monkeypatch.setattr(runner_module, "run_experiment", spy)
    small = {**_SMALL_SPLIT, "hidden": [32], "split_pairs": [[0, 1], [2, 3]],
             "corpus_train_per_class": 40, "corpus_test_per_class": 20}

    def rows(name, cfg, *flags):
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump({**cfg, "output_dir": str(tmp_path / name)}))
        assert cli_main(["run", "--config", str(path), *flags]) == 0
        records = parse_results(tmp_path / name / "results.csv")
        return [dataclasses.replace(r, wall_ms=0.0) for r in records]

    flagged = rows("flag", {**small, "loss": {"mu": 0.0}}, "--chip")
    in_file = rows("file", {**small, "chip": True, "loss": {"mu": 1.0}})
    assert seen == [(True, 1.0)] * 2
    assert flagged == in_file


def test_non_integer_seed_exits_2_without_a_traceback(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "spikecl.cli", "run", "--seed", "abc",
         "--output", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "meta",
    [{"kind": "network-checkpoint"}, ["network-checkpoint"]],
    ids=["no-network-keys", "json-list"],
)
def test_malformed_checkpoint_metadata_exits_2_with_one_error_line(tmp_path, meta):
    path = tmp_path / "bad.ckpt"
    write_bundle(path, meta, {})
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "spikecl.cli", "validate", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("spikecl-error: FormatError: ")


@pytest.mark.parametrize(
    "triple",
    [[0.9, 1.0, "zero"], [True, 1.0, "subtract"], [0.9, False, "subtract"]],
    ids=["zero-reset", "bool-decay", "bool-threshold"],
)
def test_checkpoint_with_a_malformed_lif_triple_exits_2_with_one_error_line(tmp_path, triple):
    path = tmp_path / "bad-lif.ckpt"
    save_network(path, init_network([4, 3, 2], RngStream(3)))
    meta, arrays = read_bundle(path)
    meta["lif"][0] = triple
    write_bundle(path, meta, arrays)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "spikecl.cli", "validate", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("spikecl-error: FormatError: ")
    assert "subtract" in lines[0]


_RESULTS_HEADER = ",".join(CSV_COLUMNS) + "\n"


@pytest.mark.parametrize(
    "body",
    [
        (_RESULTS_HEADER + "1,none,task-incremental,1,1,0.5\n").encode(),
        (_RESULTS_HEADER + "1,none,task-incremental,one,1,0.5,0.5,3.0\n").encode(),
        _RESULTS_HEADER.encode() + b"1,n\xffne,task-incremental,1,1,0.5,0.5,3.0\n",
    ],
    ids=["short-row", "non-integer-field", "non-utf8-bytes"],
)
def test_malformed_results_exit_2_with_one_error_line(tmp_path, body):
    path = tmp_path / "results.csv"
    path.write_bytes(body)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "spikecl.cli", "report", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("spikecl-error: FormatError: ")


class TestConfigExtras:
    def test_custom_split_pairs(self):
        cfg = RunConfig(
            scenario="split-mnist",
            strategy=StrategyConfig("none"),
            split_pairs=[[0, 1], [8, 9]],
            hidden=[16],
            epochs_per_task=1,
            train_cap=40,
            test_cap=20,
            corpus_train_per_class=12,
            corpus_test_per_class=6,
            data_seed=77,
        )
        stream = build_stream(cfg)
        assert [t.orig_classes for t in stream.tasks] == [(0, 1), (8, 9)]

    def test_checkpoint_artifacts_written(self, tmp_path):
        cfg = tiny_config(output_dir=str(tmp_path / "out"))
        run_experiment(cfg, verbose=False)
        assert (tmp_path / "out" / "checkpoint_seed1.bin").exists()
