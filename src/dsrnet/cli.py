"""Command-line entry point: run presets or config files, sweep, list."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    ConfigError,
    EXPECTED_DIVERGENCE,
    _parse_ks_values,
    _preset_config,
    PRESETS,
    parse_config,
    run_config,
)


def _load_config(args):
    if args.preset:
        cfg = _preset_config(args.preset, args.seed)
    else:
        cfg = parse_config(Path(args.config).read_text())
        cfg = cfg if args.seed is None else replace(cfg, seed=args.seed)
    if args.command != "sweep":
        return cfg
    try:
        ks_values = _parse_ks_values(args.ks)
    except ValueError:
        raise ConfigError([f"ks_values: cannot parse value {args.ks!r}"]) from None
    if not ks_values:
        raise ConfigError(["ks_values: --ks must list at least one value"])
    return replace(cfg, experiment="stability-sweep", ks_values=ks_values)


def _add_common(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="name of a built-in preset")
    group.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", default=".", help="output directory")


def _cmd_run(args) -> int:
    paths, result = run_config(_load_config(args), args.out)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    if isinstance(result, list):  # a sweep
        for entry in result:
            verdict = "diverged" if entry.diverged else "stable"
            print(f"ks={entry.alignment_strength:g}: {verdict}")
        return 0
    print(f"diverged: {result.diverged}")
    if result.settling_time is not None:
        print(f"settling_time_s: {result.settling_time:.6g}")
    expected = args.preset in EXPECTED_DIVERGENCE if args.preset else False
    return 0 if result.diverged == expected else 3


def _cmd_list_presets(_args) -> int:
    for name, (description, _) in sorted(PRESETS.items()):
        print(f"{name}: {description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsrnet",
        description=(
            "Deterministic simulator for delayed-self-reinforcement "
            "information transfer on agent networks"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one experiment")
    _add_common(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    sweep_parser = sub.add_parser(
        "sweep", help="stability sweep over alignment strengths"
    )
    _add_common(sweep_parser)
    sweep_parser.add_argument(
        "--ks", required=True, help="comma-separated alignment strengths"
    )
    sweep_parser.set_defaults(handler=_cmd_run)

    list_parser = sub.add_parser("list-presets", help="list built-in presets")
    list_parser.set_defaults(handler=_cmd_list_presets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as err:
        for violation in err.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
