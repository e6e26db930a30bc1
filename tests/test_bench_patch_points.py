"""The benchmark tracer wraps program functions by module and name.

bench/tracer.py names each call site it times (``PATCH_POINTS``) and the
strategy hooks it wraps on the object ``runner.apply_strategy`` returns. A
rename or move in the program makes the tracer drop that metric with only a
warning on stderr, so the traced benchmark result loses a declared metric.
These tests load the tracer by path, unchanged, and check every name.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from spikecl.continual import STRATEGIES, StrategyConfig
from spikecl.train import SurrogateSpec

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("spikecl_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "module, attr",
    sorted({(point[2], point[3]) for point in tracer.PATCH_POINTS}),
)
def test_patch_point_resolves(module, attr):
    owner = importlib.import_module(f"spikecl.{module}")
    for part in attr.split("."):
        assert hasattr(owner, part), f"spikecl.{module}.{attr} is gone"
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("name", STRATEGIES)
def test_apply_strategy_result_has_every_hook(name):
    runner = importlib.import_module("spikecl.runner")
    strategy = runner.apply_strategy(StrategyConfig(name), "task-incremental", 0, SurrogateSpec())
    for hook in tracer.HOOKS:
        assert callable(getattr(strategy, hook, None)), f"{name} lacks {hook}"


def test_installed_tracer_patches_every_point(capsys):
    t = tracer.Tracer(0.0)
    try:
        t.install()
        assert "tracer: warning" not in capsys.readouterr().err
        expected = {point[0] for point in tracer.PATCH_POINTS}
        assert expected <= t.installed
    finally:
        t.finish(1.0)
