"""Command-line entry point.

Verbs:
    train    run a training experiment config (and its sweep grid, if any)
    tta      run a test-time-adaptation experiment config (and its sweep grid)
    replay   rebuild parameters from an initial snapshot plus a seed log
    revert   undo a seed log, recovering the pre-adaptation parameters
    inspect  print a seed log's header and projected-gradient statistics
    compare  aggregate result directories against a named baseline run

Flags mirror config fields; when both are given the config file wins for
experiment numerics and flags only affect paths and verbosity.  The verb
must match the config's ``kind``.  Invalid configs, malformed seed logs
or parameter files, parameter files of the wrong schema, and files that
cannot be read or written exit with code 2 and a one-line error instead
of a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness, seedlog
from .params import ParamSet, ParamSetFormatError, SchemaMismatchError


def _cmd_experiment(args):
    cfg = harness.load_config(args.config)
    if cfg.kind != args.command:
        raise harness.ConfigError(
            f"kind: config is a {cfg.kind!r} experiment; "
            f"run it with 'zobench {cfg.kind}'")
    if args.output_dir:
        cfg.output_dir = args.output_dir
    summaries = harness.run(cfg)
    for s in summaries:
        line = {k: s[k] for k in ("run_id", "kind") if k in s}
        for key in ("final_loss", "eval_loss", "eval_accuracy",
                    "zero_shot_accuracy", "adapted_accuracy",
                    "optimizer_forwards"):
            if key in s:
                line[key] = s[key]
        print(json.dumps(line, sort_keys=True))
    return 0


def _cmd_apply_log(args):
    """``replay`` or ``revert``, as the verb says."""
    params = ParamSet.load(args.params)
    log = seedlog.read_log(args.log)
    apply = seedlog.replay if args.command == "replay" else seedlog.revert
    apply(params, log).save(args.out)
    print(f"{args.command}ed {len(log)} records -> {args.out}")
    return 0


def _cmd_inspect(args):
    summary = seedlog.inspect(args.log)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_compare(args):
    table = harness.compare(args.dirs, baseline=args.baseline,
                            metric=args.metric)
    for row in table:
        tag = " (baseline)" if row["is_baseline"] else ""
        print(f"{row['group']}: {row['metric']}={row['mean']:.6g} "
              f"+/- {row['sd']:.3g} (n={row['n']}), "
              f"relative {row['relative_pct']:+.1f}%{tag}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zobench",
        description="Zeroth-order optimization benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    for verb in ("train", "tta"):
        p = sub.add_parser(verb, help=f"run a {verb} experiment config")
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--output-dir", default=None,
                       help="override the config's output directory")
        p.set_defaults(func=_cmd_experiment)

    for verb, help_, start in (
            ("replay", "replay a seed log onto initial params", "initial"),
            ("revert", "revert a seed log from adapted params", "adapted")):
        p = sub.add_parser(verb, help=help_)
        p.add_argument("--log", required=True, help=".zolog file")
        p.add_argument("--params", required=True, help=f"{start} .pset file")
        p.add_argument("--out", required=True, help="output .pset file")
        p.set_defaults(func=_cmd_apply_log)

    p = sub.add_parser("inspect", help="print seed-log header and stats")
    p.add_argument("--log", required=True, help=".zolog file")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("compare", help="aggregate results vs a baseline")
    p.add_argument("dirs", nargs="+", help="result directories")
    p.add_argument("--baseline", required=True,
                   help="group name of the baseline run (run id minus -seedN)")
    p.add_argument("--metric", default="final_loss",
                   help="summary field to aggregate")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (harness.ConfigError, seedlog.LogFormatError, ParamSetFormatError,
            SchemaMismatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
