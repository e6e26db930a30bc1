"""Command-line interface: run experiments, report tables, validate checkpoints.

Exit code 0 on success; failures print one machine-parsable line to stderr
of the form ``spikecl-error: <category>: <message>`` and exit nonzero.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .errors import SpikeclError


def _cmd_run(args) -> int:
    from .runner import RunConfig, apply_profile, load_config, run_experiment

    config = load_config(args.config) if args.config else RunConfig()
    if args.profile:
        config = apply_profile(config, args.profile)
    if args.seed:
        config.seeds = [int(s) for s in args.seed]
    if args.chip:
        config.chip = True
        if config.loss.mu == 0.0:
            # chip-in-the-loop default weighting; external-only keeps mu = 0
            config.loss.mu = 1.0
            config.loss.alpha = 0.0
            config.loss.beta = 1.0
    if args.output:
        config.output_dir = args.output
    out = run_experiment(config)
    print(f"results: {out['results']}")
    print(f"summary: {out['summary']}")
    return 0


def _cmd_report(args) -> int:
    from .metrics import parse_results, report_table

    records = []
    for path in args.results:
        if os.path.isdir(path):
            path = os.path.join(path, "results.csv")
        records.extend(parse_results(path))
    table = report_table(records, checkpoints=tuple(args.stage))
    print(table)
    if args.out:
        with open(args.out, "w") as f:
            f.write(table + "\n")
    return 0


def _cmd_validate(args) -> int:
    from .chip import ChipConstraints, validate_constraints
    from .snn import load_network

    net = load_network(args.checkpoint)
    violations = validate_constraints(net, ChipConstraints())
    if violations:
        for v in violations:
            print(f"violation: {v}")
        return 1
    print("ok: checkpoint satisfies chip constraints")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spikecl", description=__doc__)
    parser.add_argument("--version", action="version", version=f"spikecl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("--config", help="YAML config path (defaults apply if omitted)")
    p_run.add_argument("--seed", action="append", help="run seed (repeatable, overrides config)")
    p_run.add_argument("--chip", action="store_true", help="enable the mentor-learner chip loop")
    p_run.add_argument("--profile", choices=("ci", "full"), help="dataset size profile")
    p_run.add_argument("--output", help="output directory override")
    p_run.set_defaults(func=_cmd_run)

    p_rep = sub.add_parser("report", help="aggregate result CSVs into a comparison table")
    p_rep.add_argument("results", nargs="+", help="results.csv paths or run directories")
    p_rep.add_argument("--stage", type=int, action="append", default=None,
                       help="incremental stages to tabulate (default 1 3 5)")
    p_rep.add_argument("--out", help="also write the table to this file")
    p_rep.set_defaults(func=_cmd_report, stage_default=(1, 3, 5))

    p_val = sub.add_parser("validate", help="check a checkpoint against chip constraints")
    p_val.add_argument("checkpoint", help="network checkpoint path")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "stage", "absent") is None:
        args.stage = [1, 3, 5]
    try:
        return args.func(args)
    except SpikeclError as exc:
        print(f"spikecl-error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"spikecl-error: IOError: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
