"""End-to-end results pinned by digest.

Each case runs a tiny config through ``run_experiment`` and hashes its
results.csv without the wall_ms column. The digests were recorded before
the LIF recurrence moved to time-major storage and evaluation moved to
``batch_size`` slices, so a change that alters any accuracy of these runs
fails here. The two EWC digests were recorded again when EWC's per-task
penalties were merged into one Fisher sum and weighted anchor, an exact
re-association that rounds differently from the third task on. The two
chip digests were recorded again when the chip's loss term moved from a
float twin of the quantized network to the chip's own integer pass, whose
leak floors. The drift-si-chip case set spike dropout (0.1) until that
option was removed; its digest was recorded again without it, on the code
before the removal, so the removal itself is checked to keep its bits.
Every digest was recorded again when training moved from float64 to
float32; split-chip-alpha0's rows came out the same, the other four
changed. Each
run is a child process with one BLAS thread, since the float matmuls sum in
an order that depends on the thread count. Pinned on x86-64 with numpy 2.4:
the corpus renderer's np.sin/np.cos and the BLAS kernels may differ in the
last bit elsewhere.
"""

import hashlib
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from spikecl.chip import QuantSpec
from spikecl.continual import StrategyConfig
from spikecl.data import DriftSpec
from spikecl.train import LossSpec

pytestmark = pytest.mark.skipif(
    platform.machine() != "x86_64" or not np.__version__.startswith("2.4."),
    reason="digests pinned on x86-64 with numpy 2.4",
)

_SPLIT = dict(
    scenario="split-mnist",
    hidden=[256, 256],
    epochs_per_task=2,
    corpus_train_per_class=60,
    corpus_test_per_class=30,
    seeds=[1],
)
_DRIFT = dict(
    scenario="synthetic-drift",
    hidden=[256, 256],
    epochs_per_task=3,
    head_gain=0.25,
    drift=DriftSpec(days=3, train_per_day=160, test_per_day=100),
    seeds=[1],
)

CASES = {
    "split-hwc-hard": dict(_SPLIT, strategy=StrategyConfig("hwc-hard")),
    "split-ewc": dict(_SPLIT, strategy=StrategyConfig("ewc")),
    "split-chip-alpha0": dict(
        _SPLIT,
        strategy=StrategyConfig("hwc-hard"),
        split_pairs=[[0, 1], [2, 3]],
        chip=True,
        loss=LossSpec(lam=1.0, mu=1.0),
        quant=QuantSpec(bits=8, leak_shift=3),
    ),
    "drift-ewc": dict(_DRIFT, strategy=StrategyConfig("ewc")),
    "drift-si-chip": dict(
        _DRIFT,
        strategy=StrategyConfig("si"),
        chip=True,
        loss=LossSpec(lam=0.6, mu=0.4),
    ),
}

DIGESTS = {
    "split-hwc-hard": "437493b66d65fdbc33e3123b4a21f907ec0fc312f9d2a088523b03520de8a1ff",
    "split-ewc": "6550a9d5d4e2c2a1824e27a8203d585e3b3c1082a24640a1078a61214e5a2b0a",
    "split-chip-alpha0": "c04526664e6e81492de08cf2cbac7fd23b08ea1323641c3dd7febb9743473e6a",
    "drift-ewc": "7dc639b26d7e2a5689d6f8ad82b39d9a151e527aa962186fba960b8acdfe0fe4",
    "drift-si-chip": "ef759b30cee18cd1479e3e0193bf6f25253cbc67722e159af7f75ff3cd3053e1",
}

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from test_pinned_digests import CASES
from spikecl.runner import RunConfig, run_experiment
run_experiment(RunConfig(output_dir=sys.argv[3], **CASES[sys.argv[2]]), verbose=False)
"""


def _results_digest(path) -> str:
    """sha256 of results.csv with its last column, wall_ms, removed."""
    with open(path) as f:
        lines = f.read().splitlines()
    assert lines[0].endswith(",wall_ms")
    return hashlib.sha256(
        "".join(line.rsplit(",", 1)[0] + "\n" for line in lines).encode()
    ).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_results_match_pinned_digest(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, TESTS, name, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert _results_digest(tmp_path / "results.csv") == DIGESTS[name]
