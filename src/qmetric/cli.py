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
    parser.add_argument("experiment", choices=RUNNERS, help="the experiment to run")
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


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
    args = _build_parser().parse_args(argv)
    try:
        config = load_json(args.config, "config")
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
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
