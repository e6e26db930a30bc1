import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from spikecl.cli import main as cli_main
from spikecl.continual import StrategyConfig
from spikecl.data import DriftSpec
from spikecl.errors import ConfigurationError
from spikecl.metrics import parse_results
from spikecl.rng import RngStream
from spikecl.runner import (
    RunConfig,
    apply_profile,
    build_network,
    build_stream,
    config_from_dict,
    evaluate_task,
    run_experiment,
    run_seed,
)
from spikecl.snn import init_network, save_network


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
        from spikecl.runner import load_config

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

    def test_chip_with_xdg_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_config(strategy=StrategyConfig("xdg"), chip=True)


class TestRunSeed:
    def test_record_counts_sequential(self):
        recs = run_seed(tiny_config(), 1)
        # after task k there are k eval rows; 3 tasks -> 1+2+3 = 6 rows
        assert len(recs) == 6
        assert {(r.after_task, r.eval_task) for r in recs} == {
            (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)
        }

    def test_incremental_accuracy_is_exact_mean(self):
        recs = run_seed(tiny_config(), 1)
        by_after = {}
        for r in recs:
            by_after.setdefault(r.after_task, []).append(r.accuracy)
        for r in recs:
            assert r.acc_incremental == pytest.approx(
                np.mean(by_after[r.after_task]), abs=1e-12
            )

    def test_joint_single_evaluation_pass(self):
        recs = run_seed(tiny_config(strategy=StrategyConfig("joint")), 1)
        assert len(recs) == 3
        assert all(r.after_task == 3 for r in recs)

    def test_evaluation_does_not_mutate_weights(self):
        cfg = tiny_config()
        stream = build_stream(cfg)
        rng = RngStream(1)
        net = build_network(cfg, stream, rng.fork("init"))
        from spikecl.continual import apply_strategy

        strat = apply_strategy(cfg.strategy, stream.scenario, 1, cfg.surrogate)
        before = [w.copy() for w in net.weights]
        evaluate_task(net, stream, 0, 0, cfg, rng, strat)
        for w, b in zip(net.weights, before):
            assert np.array_equal(w, b)

    def test_determinism_of_records(self):
        a = run_seed(tiny_config(), 1)
        b = run_seed(tiny_config(), 1)
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


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize(
    "text",
    [
        "- scenario: split-mnist\n- seeds: [1]\n",  # a list at the top level
        "strategy: hwc-hard\n",  # a section that is not a mapping
        "hidden: [64, 64\n",  # unclosed flow sequence: a YAML error
        "strategy: {1: a, nam: b}\n",  # unknown section keys of mixed types
    ],
    ids=["top-level-list", "section-scalar", "yaml-error", "section-int-key"],
)
def test_malformed_config_file_exits_2_with_one_error_line(tmp_path, text):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(text)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "spikecl.cli", "run", "--config", str(cfg_path),
         "--output", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("spikecl-error: ConfigurationError: ")
    assert not (tmp_path / "out").exists()


class TestConfigExtras:
    def test_dropout_run_completes(self):
        recs = run_seed(tiny_config(dropout=0.2), 1)
        assert len(recs) == 6

    def test_dropout_validation(self):
        with pytest.raises(ConfigurationError):
            tiny_config(dropout=1.0)

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
