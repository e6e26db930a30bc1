"""In-memory span tracer that wraps spikecl's functions at their call sites.

The program imports most functions by name (``from .snn import forward``),
so a wrapper only takes effect where it replaces the name in the namespace
that calls it: ``spikecl.runner.forward``, ``spikecl.chip.forward`` and so
on. Each patch point below names that namespace.

A span is ``[metric, start, end, parent, counts]``: the time metric its self
time counts towards, two ``time.monotonic()`` readings, the index of the
enclosing span (the root span is index 0) and an optional dict of work
counts. Spans stay in memory until the traced process writes them out.

This module imports nothing from numpy or spikecl at load time, so
bench/run.py, which imports only the standard library, can use
``layer_metrics`` on written spans.
"""

from __future__ import annotations

import importlib
import sys
import time


def _counts(*names):
    """Declare the work metrics a counter function returns."""

    def mark(fn):
        fn.metrics = names
        return fn

    return mark


@_counts("snn.forward_samples", "snn.forward_macs")
def _forward_work(args, kwargs, result):
    net, x = args[0], args[1]
    sizes = list(net.layer_sizes)
    if net.multi_head:
        sizes.append(net.head_size)
    batch, steps = (x.shape[0], x.shape[1]) if x.ndim == 3 else (1, x.shape[0])
    macs = batch * steps * sum(a * b for a, b in zip(sizes, sizes[1:]))
    return {"snn.forward_samples": batch, "snn.forward_macs": macs}


@_counts("data.encode_values")
def _encode_work(args, kwargs, result):
    return {"data.encode_values": result.size}


@_counts("rng.values")
def _rng_work(args, kwargs, result):
    return {"rng.values": args[1]}


@_counts("chip.twin_counts_samples")
def _twin_work(args, kwargs, result):
    return {"chip.twin_counts_samples": result.shape[0]}


@_counts("runner.eval_samples")
def _eval_work(args, kwargs, result):
    stream, eval_idx = args[1], args[2]
    return {"runner.eval_samples": len(stream.tasks[eval_idx].test_y)}


class _Counted:
    """Iterator that counts the items drawn from it."""

    def __init__(self, items):
        self._items = iter(items)
        self.seen = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._items)
        self.seen += 1
        return item


@_counts("continual.fisher_samples")
def _fisher_work(args, kwargs, result):
    return {"continual.fisher_samples": args[1].seen}


# ewc_fisher consumes a generator of samples; count what it draws.
_fisher_work.before = lambda args: (args[0], _Counted(args[1]), *args[2:])


# (time metric, call-count metric, module, attribute, work counter).
# One time metric may sum several call sites of the same function.
PATCH_POINTS = (
    ("runner.self_s", None, "runner", "run_experiment", None),
    ("data.render_s", None, "runner", "generate_digit_corpus", None),
    ("data.stream_s", None, "runner", "build_stream", None),
    ("data.encode_s", "data.encode_calls", "runner", "encode_batch", _encode_work),
    ("rng.s", None, "rng", "RngStream._raw", _rng_work),
    ("rng.s", "rng.fork_calls", "rng", "RngStream.fork", None),
    ("snn.forward_s", "snn.forward_calls", "runner", "forward", _forward_work),
    ("snn.forward_s", "snn.forward_calls", "chip", "forward", _forward_work),
    ("snn.forward_s", "snn.forward_calls", "continual", "forward", _forward_work),
    ("train.backward_s", "train.backward_calls", "runner", "backward_dlogits", None),
    ("train.backward_s", "train.backward_calls", "chip", "backward_dlogits", None),
    ("train.backward_s", "train.backward_calls", "continual", "backward_dlogits", None),
    ("train.backward_s", "train.backward_calls", "continual", "backward", None),
    ("train.optimizer_s", "train.optimizer_calls", "runner", "optimizer_step", None),
    ("train.optimizer_s", "train.optimizer_calls", "chip", "optimizer_step", None),
    ("continual.hebbian_s", "continual.hebbian_calls", "continual", "accumulate_hebbian", None),
    ("numerics.matmul_s", "numerics.matmul_calls", "continual", "matmul", None),
    ("continual.fisher_s", None, "continual", "ewc_fisher", _fisher_work),
    ("continual.penalty_s", None, "continual", "regularizer_penalty", None),
    ("chip.loop_s", None, "runner", "mentor_learner_epoch", None),
    ("chip.handshake_s", "chip.int_passes", "chip", "chip_forward", None),
    ("chip.handshake_s", None, "chip", "read_layer_spikes", None),
    ("chip.quantize_s", "chip.quantize_calls", "chip", "quantize_network", None),
    ("chip.quantize_s", "chip.quantize_calls", "runner", "quantize_network", None),
    ("chip.upload_s", "chip.uploads", "chip", "upload_config", None),
    ("chip.twin_counts_s", None, "runner", "chip_twin_counts", _twin_work),
    ("runner.eval_s", None, "runner", "evaluate_task", _eval_work),
    ("metrics.persist_s", None, "runner", "aggregate_summary", None),
    ("metrics.persist_s", None, "runner", "emit_results", None),
    ("metrics.persist_s", None, "runner", "write_summary", None),
    ("container.save_s", None, "runner", "save_network", None),
)

# The four strategy hooks are wrapped on the instance runner.apply_strategy
# returns, since runner and chip call them as methods.
HOOKS = ("before_task", "batch_loss", "grad_transform", "after_task")

ROOT_METRIC = "process.self_s"
TIME_METRICS = frozenset(
    [ROOT_METRIC] + [p[0] for p in PATCH_POINTS] + [f"continual.{hook}_s" for hook in HOOKS]
)
# Span durations (not self times) also reported under a second name.
INCLUSIVE = {"runner.eval_s": "runner.eval_total_s"}


def _warn(message: str) -> None:
    print(f"tracer: warning: {message}", file=sys.stderr)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self, root_start: float):
        self.spans: list[list] = [[ROOT_METRIC, root_start, None, None, None]]
        self.installed: set[str] = {ROOT_METRIC}
        self._stack = [0]
        self._undo: list[tuple[object, str, object]] = []

    def _timed(self, metric, calls, work, fn, args, kwargs):
        before = getattr(work, "before", None)
        if before is not None:
            args = before(args)
        idx = len(self.spans)
        span = [metric, time.monotonic(), None, self._stack[-1], None]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.monotonic()
            self._stack.pop()
        counts = {calls: 1} if calls else {}
        if work is not None:
            try:
                counts.update(work(args, kwargs, result))
            except (AttributeError, IndexError, TypeError) as exc:
                _warn(f"work counter of {metric} failed: {exc!r}")
        span[4] = counts or None
        return result

    def _wrap(self, metric, calls, work, fn):
        def wrapper(*args, **kwargs):
            return self._timed(metric, calls, work, fn, args, kwargs)

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Patch every call site that exists; warn about the ones that do not.

        A metric whose every patch point is gone is absent from the results.
        """
        for metric, calls, module, attr, work in PATCH_POINTS:
            owner = importlib.import_module(f"spikecl.{module}")
            *path, name = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, name)
            except AttributeError:
                _warn(f"patch point spikecl.{module}.{attr} is gone; {metric} misses it")
                continue
            self._patch(owner, name, self._wrap(metric, calls, work, fn))
            self.installed.update(m for m in (metric, calls) if m)
            if work is not None:
                self.installed.update(work.metrics)
        self._install_hooks()

    def _install_hooks(self) -> None:
        runner = importlib.import_module("spikecl.runner")
        apply_strategy = getattr(runner, "apply_strategy", None)
        if apply_strategy is None:
            _warn("patch point spikecl.runner.apply_strategy is gone; hook times are absent")
            return

        def traced_apply_strategy(*args, **kwargs):
            strategy = apply_strategy(*args, **kwargs)
            for hook in HOOKS:
                bound = getattr(strategy, hook, None)
                if bound is None:
                    _warn(f"strategy hook {hook} is gone")
                    continue
                setattr(strategy, hook, self._wrap(f"continual.{hook}_s", None, None, bound))
            return strategy

        self._patch(runner, "apply_strategy", traced_apply_strategy)
        self.installed.update(f"continual.{hook}_s" for hook in HOOKS)

    def finish(self, end: float) -> None:
        """Close the root span and restore every patched name."""
        self.spans[0][2] = end
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def layer_metrics(spans: list[list], installed) -> dict[str, float]:
    """Per-layer totals from recorded spans.

    A ``*_s`` metric is self time: each span's duration minus the durations
    of its direct children, summed over the spans of that metric. The self
    times of all spans add up to the root span's duration. Every installed
    metric is present, at 0 when its code never ran.
    """
    out = {name: 0.0 for name in installed}
    out.update({total: 0.0 for metric, total in INCLUSIVE.items() if metric in out})
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    for i, (metric, start, end, _, counts) in enumerate(spans):
        out[metric] += (end - start) - child_time[i]
        if metric in INCLUSIVE:
            out[INCLUSIVE[metric]] += end - start
        for name, value in (counts or {}).items():
            out[name] += value
    return out
