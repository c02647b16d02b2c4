"""qmetric command line: scripted, reproducible experiment runs.

Exit codes: 0 all assertions pass, 1 assertion failure, 2 config error,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from .errors import ConfigError, QmetricError, ResourceError
from .experiments import RUNNERS, Report, load_json


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parse_args leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="qmetric",
        description="State-space metric experiments on reduced group C*-algebras.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if name == "dist":
            p.add_argument("--group", help="group spec file")
            p.add_argument("--state-a", help="first state spec file")
            p.add_argument("--state-b", help="second state spec file")
            p.add_argument("--radius", type=int, help="metric ball radius")
            p.add_argument("--trunc", type=int,
                           help="commutator truncation radius (heuristic modes)")
            p.add_argument("--mode", choices=("bracket", "heuristic", "both"),
                           default="both")
    return parser


def _load_config(args) -> dict:
    if args.config is not None:
        config = load_json(args.config, "config")
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        return config
    if args.experiment == "dist":
        flags = [("--group", args.group), ("--state-a", args.state_a),
                 ("--state-b", args.state_b), ("--radius", args.radius)]
        if args.mode != "bracket":
            flags.append(("--trunc", args.trunc))
        missing = [flag for flag, value in flags if value is None]
        if missing:
            raise ConfigError(f"dist without --config requires {', '.join(missing)}")
        config = {"group": args.group, "state_a": args.state_a,
                  "state_b": args.state_b, "radius": args.radius, "mode": args.mode}
        if args.trunc is not None:
            config["trunc"] = args.trunc
        return config
    raise ConfigError(f"{args.experiment} requires --config")


def _emit(report: Report, out: Optional[str], fmt: str) -> None:
    """Write the report to stdout or to the --out path; an unwritable path is a ConfigError."""
    text = report.to_csv() if fmt == "csv" else report.to_json()
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {out!r}: {exc}") from exc


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        report = RUNNERS[args.experiment](config)
        _emit(report, args.out, args.format)
    except ResourceError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except QmetricError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
