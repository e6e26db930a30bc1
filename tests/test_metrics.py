import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecl.errors import ContractViolation
from spikecl.metrics import (
    MetricsRecord,
    aggregate_summary,
    emit_results,
    incremental_accuracy,
    parse_results,
    report_table,
    write_summary,
)

from oracles import accuracy_from_logits


class TestAccuracy:
    def test_perfect_predictor(self):
        logits = np.eye(4) * 10
        assert accuracy_from_logits(logits, np.arange(4)) == 1.0

    def test_constant_predictor_on_balanced_set(self):
        logits = np.tile([5.0, 1.0], (10, 1))
        labels = np.array([0, 1] * 5)
        assert accuracy_from_logits(logits, labels) == 0.5

    def test_seven_of_ten(self):
        logits = np.zeros((10, 2))
        logits[:7, 1] = 1.0  # predict class 1 for first seven
        logits[7:, 1] = -1.0
        labels = np.concatenate([np.ones(7), np.ones(3)]).astype(int)
        assert accuracy_from_logits(logits, labels) == pytest.approx(0.7)

    def test_ties_break_to_lowest_index(self):
        logits = np.zeros((1, 3))
        assert accuracy_from_logits(logits, np.array([0])) == 1.0
        assert accuracy_from_logits(logits, np.array([1])) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            accuracy_from_logits(np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestIncrementalAccuracy:
    def test_single_stage(self):
        assert incremental_accuracy([0.83], 1) == 0.83

    def test_arithmetic(self):
        assert incremental_accuracy([0.96, 0.80, 0.64], 3) == pytest.approx(0.80)

    def test_mean_of_constants(self):
        for c in range(1, 6):
            assert incremental_accuracy([0.7] * 5, c) == pytest.approx(0.7)

    def test_c_zero_rejected(self):
        with pytest.raises(ContractViolation):
            incremental_accuracy([0.5], 0)

    def test_c_too_large_rejected(self):
        with pytest.raises(ContractViolation):
            incremental_accuracy([0.5], 2)

    @settings(max_examples=50, deadline=None)
    @given(
        accs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10),
        data=st.data(),
    )
    def test_brute_force_identity(self, accs, data):
        c = data.draw(st.integers(1, len(accs)))
        assert incremental_accuracy(accs, c) == sum(accs[:c]) / c


def sample_records():
    recs = []
    for seed, acc in ((1, 0.9), (2, 0.8), (3, 1.0)):
        recs.append(
            MetricsRecord(seed, "none", "task-incremental", 1, 1, acc, acc, 12.5)
        )
    recs.append(MetricsRecord(1, "none", "task-incremental", 2, 1, 0.7, 0.75, 20.0))
    recs.append(MetricsRecord(1, "none", "task-incremental", 2, 2, 0.8, 0.75, 20.0))
    return recs


class TestPersistence:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "results.csv"
        records = sample_records()
        emit_results(records, path)
        assert parse_results(path) == records

    def test_exact_header(self, tmp_path):
        path = tmp_path / "results.csv"
        emit_results(sample_records(), path)
        header = path.read_text().splitlines()[0]
        assert header == "seed,strategy,scenario,after_task,eval_task,accuracy,acc_incremental,wall_ms"

    def test_one_record_two_lines(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_results(sample_records()[:1], path)
        assert len(path.read_text().splitlines()) == 2

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ContractViolation):
            emit_results([], tmp_path / "r.csv")

    def test_write_failure_raises_ioerror(self, tmp_path):
        with pytest.raises(IOError):
            emit_results(sample_records(), tmp_path / "missing_dir" / "r.csv")

    def test_aggregate_mean(self):
        summary = aggregate_summary(sample_records())
        entry = summary["none/after_task_1"]
        assert entry["mean_acc_incremental"] == pytest.approx(0.9)
        assert entry["n_seeds"] == 3

    def test_summary_file_deterministic(self, tmp_path):
        summary = aggregate_summary(sample_records())
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_summary(summary, p1)
        write_summary(summary, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_report_table_shape(self):
        table = report_table(sample_records(), checkpoints=(1, 2))
        assert "scenario: task-incremental" in table
        assert "none" in table
