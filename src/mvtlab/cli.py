"""Command-line entry point.

    mvtlab run <preset|config-file> [--seed N] [--reps N] [--traffic LIST]
               [--fixed-evaluator] [--out DIR]
    mvtlab validate-array <file>
    mvtlab list-presets
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import PRESETS, configure, parse_config, run_experiment
from .taguchi import parse_array, validate


def _parse_ints(option: str, text: str):
    """The comma- or space-separated integers of an option's value: one int
    alone, else a tuple; ExperimentConfig checks how many the key takes."""
    ints = []
    for tok in text.replace(",", " ").split():
        try:
            ints.append(int(tok))
        except ValueError:
            raise ValueError(f"{option}: {tok!r} is not an integer") from None
    return ints[0] if len(ints) == 1 else tuple(ints)


def cmd_run(args) -> int:
    try:
        config = _run_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outputs = run_experiment(config)
    for kind in ("csv", "svg", "manifest"):
        print(f"{kind}: {outputs[kind]}")
    return 0


def _run_config(args):
    """The preset or config file named on the command line with the
    command-line overrides applied, its array loaded and checked and its
    output directory created; ValueError (or OSError, for an unreadable file
    or an output directory that cannot be created) for any invalid
    setting."""
    overrides = {
        key: getattr(args, key)
        for key in ("seed", "repetitions", "traffic", "fixed_evaluator", "out")
        if getattr(args, key) is not None
    }
    for key, option in (("seed", "--seed"), ("repetitions", "--reps"), ("traffic", "--traffic")):
        if key in overrides:
            overrides[key] = _parse_ints(option, overrides[key])
    if args.target in PRESETS:
        config = configure(overrides, PRESETS[args.target])
    else:
        path = Path(args.target)
        if not path.exists():
            raise ValueError(f"{args.target!r} is neither a preset nor a config file")
        config = parse_config(path.read_text(), name=path.stem, overrides=overrides)
    config.load_design()
    Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    return config


def cmd_validate_array(args) -> int:
    try:
        text = Path(args.file).read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = validate(parse_array(text))
    except ValueError as exc:  # ArrayFormatError included
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        extra = f" (columns {list(check.offending_columns)})" if not check.passed else ""
        print(f"{check.name}: {status}{extra}")
    unbalanced_pairs = [pair for pair, ok in report.pair_balance_info if not ok]
    if unbalanced_pairs:
        print(f"info: pair balance does not hold for column pairs {unbalanced_pairs}")
    else:
        print("info: all column pairs are pair-balanced")
    return 0 if report.valid else 1


def cmd_list_presets(_args) -> int:
    for name, cfg in PRESETS.items():
        print(
            f"{name}: space {list(cfg.space.cardinalities)}, mode {cfg.mode}, "
            f"array {cfg.array}, curve {cfg.curve}"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mvtlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a preset or config-file experiment")
    run_p.add_argument("target", help="preset name or path to a config file")
    # Each dest is a config key (see harness.parse_config).
    run_p.add_argument("--seed")
    run_p.add_argument("--reps", dest="repetitions", metavar="REPS")
    run_p.add_argument("--traffic", help="comma-separated totals")
    run_p.add_argument("--fixed-evaluator", action="store_const", const=True)
    run_p.add_argument("--out")
    run_p.set_defaults(func=cmd_run)

    val_p = sub.add_parser("validate-array", help="validate an orthogonal array file")
    val_p.add_argument("file")
    val_p.set_defaults(func=cmd_validate_array)

    list_p = sub.add_parser("list-presets", help="list bundled experiment presets")
    list_p.set_defaults(func=cmd_list_presets)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
