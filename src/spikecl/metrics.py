"""Accuracy metrics, result records, and their CSV/JSON persistence."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

CSV_COLUMNS = (
    "seed",
    "strategy",
    "scenario",
    "after_task",
    "eval_task",
    "accuracy",
    "acc_incremental",
    "wall_ms",
)


def incremental_accuracy(per_task_accuracies, c: int) -> float:
    """Mean of the first ``c`` per-task accuracies."""
    accs = list(per_task_accuracies)
    if c <= 0:
        raise ContractViolation("c must be >= 1")
    if c > len(accs):
        raise ContractViolation(f"c={c} exceeds {len(accs)} evaluated tasks")
    return float(sum(accs[:c]) / c)


@dataclass
class MetricsRecord:
    seed: int
    strategy: str
    scenario: str
    after_task: int
    eval_task: int
    accuracy: float
    acc_incremental: float
    wall_ms: float


def emit_results(records: list[MetricsRecord], path) -> None:
    """Write records as CSV with the exact canonical column list."""
    if not records:
        raise ContractViolation("no records to emit")
    try:
        with open(path, "w") as f:
            f.write(",".join(CSV_COLUMNS) + "\n")
            for r in records:
                f.write(
                    f"{r.seed},{r.strategy},{r.scenario},{r.after_task},"
                    f"{r.eval_task},{r.accuracy!r},{r.acc_incremental!r},{r.wall_ms!r}\n"
                )
    except OSError as exc:
        raise IOError(f"failed to write results to {path}: {exc}") from exc


def parse_results(path) -> list[MetricsRecord]:
    """Inverse of emit_results (floats round-trip via repr)."""
    with open(path) as f:
        header = f.readline().strip()
        if header != ",".join(CSV_COLUMNS):
            raise ContractViolation(f"unexpected CSV header in {path}")
        out = []
        for line in f:
            parts = line.rstrip("\n").split(",")
            out.append(
                MetricsRecord(
                    seed=int(parts[0]),
                    strategy=parts[1],
                    scenario=parts[2],
                    after_task=int(parts[3]),
                    eval_task=int(parts[4]),
                    accuracy=float(parts[5]),
                    acc_incremental=float(parts[6]),
                    wall_ms=float(parts[7]),
                )
            )
        return out


def aggregate_summary(records: list[MetricsRecord]) -> dict:
    """Mean/std (population) of incremental accuracy across seeds, grouped
    by (strategy, after_task)."""
    per_seed: dict[tuple, dict[int, float]] = {}
    for r in records:
        per_seed.setdefault((r.strategy, r.after_task), {})[r.seed] = r.acc_incremental
    summary = {}
    for (strategy, after_task), seed_map in sorted(per_seed.items()):
        vals = np.array([seed_map[s] for s in sorted(seed_map)])
        summary[f"{strategy}/after_task_{after_task}"] = {
            "strategy": strategy,
            "after_task": after_task,
            "mean_acc_incremental": float(vals.mean()),
            "std_acc_incremental": float(vals.std()),
            "n_seeds": len(vals),
        }
    return summary


def write_summary(summary: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")


def report_table(records: list[MetricsRecord], checkpoints=(1, 3, 5)) -> str:
    """Comparison table: one strategy per row, mean incremental accuracy at
    the requested stages, plus a simple grand mean over those stages."""
    strategies = sorted({r.strategy for r in records})
    scenarios = sorted({r.scenario for r in records})
    lines = []
    for scenario in scenarios:
        lines.append(f"scenario: {scenario}")
        header = ["strategy"] + [f"acc<= {c}" for c in checkpoints] + ["grand mean"]
        lines.append("  " + " | ".join(f"{h:>12}" for h in header))
        for strategy in strategies:
            sub = [r for r in records if r.strategy == strategy and r.scenario == scenario]
            if not sub:
                continue
            cells = [f"{strategy:>12}"]
            means = []
            for c in checkpoints:
                vals = {}
                for r in sub:
                    if r.after_task == c:
                        vals[r.seed] = r.acc_incremental
                if vals:
                    m = float(np.mean(list(vals.values())))
                    s = float(np.std(list(vals.values())))
                    means.append(m)
                    cells.append(f"{100 * m:>7.2f}±{100 * s:<4.2f}")
                else:
                    cells.append(f"{'-':>12}")
            grand = float(np.mean(means)) if means else float("nan")
            cells.append(f"{100 * grand:>12.2f}")
            lines.append("  " + " | ".join(cells))
    return "\n".join(lines)
