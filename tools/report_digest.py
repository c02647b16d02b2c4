"""One digest of qmetric's reports on a fixed set of configs.

Usage, from anywhere, with no options:

    python3 tools/report_digest.py

It writes these configs into a temporary directory:

* the ``brackets`` workload's configs at seeds 1, 2 and 3 (96 configs);
* the ``sandwich`` workload's configs at seed 1 (9);
* the golden cases of ``tests/test_golden.py`` (30);
* ``ball``, ``growth`` and ``summable`` at radius 60 on Z, Z^2, Z x S3 and
  the dihedral group (12);
* ``kappa`` at radius 60 on the same four groups, with two or three density
  states each (4), so that the Lanczos solves of ``kappa_bounds`` are covered.

Each config runs in this process through ``qmetric.cli.main``, once with a
CSV and once with a JSON report.  One line ``exit sha256 experiment name``
is printed per report.  Then each script of ``demos/`` runs in this process
as ``__main__``, and one line ``exit sha256 demo name`` is printed for its
stdout.  Last comes one line with the numbers of reports and demos and the
sha256 of all the lines before it.  Two checkouts that print the same total
gave the same exit codes, byte-identical reports and the same demo output.

qmetric is imported from ``src/`` of the checkout that holds this script,
and ``qbench/``, the golden test and the demos from the same checkout; no
bytecode is written next to them.  BLAS and OpenMP are pinned to one thread
before numpy loads, as in ``qbench/run.py``, because the reports of
``growth`` and the heuristic, and some demo output, come from LAPACK.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "qbench"), str(ROOT / "tests")]

import test_golden  # noqa: E402
import workloads  # noqa: E402
from qmetric import cli  # noqa: E402

SEEDS = (1, 2, 3)
GROUPS = {"z": test_golden.Z, "z2": test_golden.Z2, "zxs3": test_golden.ZXS3,
          "dihedral": test_golden.DIHEDRAL}
RADIUS = 60
_density = test_golden._density
KAPPA_STATES = {
    "z": [_density([([0], 1.0, 0.0), ([1], 0.5, 0.0)]),
          _density([([0], 1.0, 0.0), ([2], 0.5, -0.5), ([-1], 0.0, 0.3)])],
    "z2": [_density([([0, 0], 1.0, 0.0), ([1, 0], 0.5, 0.0)]),
           _density([([0, 0], 1.0, 0.0), ([1, -2], 0.5, 0.5), ([3, 1], 0.0, 0.4)]),
           _density([([0, 1], 1.0, 0.0), ([0, -1], 0.0, 1.0)])],
    "zxs3": [_density([([0, 0], 1.0, 0.0), ([0, 4], 0.5, 0.0), ([1, 1], 0.0, 0.5)]),
             _density([([0, 0], 1.0, 0.0), ([1, 3], 0.5, 0.0), ([-2, 5], 0.0, 0.6)])],
    "dihedral": [_density([([0, 0], 1.0, 0.0), ([1, 1], 1.0, 0.0)]),
                 _density([([0, 0], 1.0, 0.0), ([2, 0], 0.5, 0.5)]),
                 _density([([1, 0], 1.0, 0.0), ([-3, 0], 0.0, 0.8)])],
}


def configs(tmp: Path) -> list[tuple[str, str, Path]]:
    """(experiment, name, config file) of every report, the files written under tmp."""
    ops = [op for seed in SEEDS
           for op in workloads.build_brackets(seed, tmp / f"brackets{seed}", pd_radius=None).ops]
    # build_sandwich orders its fixed catalogue by the seed; the configs are the same
    ops += workloads.build_sandwich(1, tmp / "sandwich").ops
    runs = []
    for op in ops:
        path = Path(op.program["argv"][2])  # dist --config <path>
        runs.append(("dist", f"{path.parent.name}/{path.stem}", path))
    cases = {name: test_golden.CASES[name] for name in sorted(test_golden.CASES)}
    for experiment in ("ball", "growth", "summable"):
        for group_name, group in GROUPS.items():
            cases[f"{experiment}_{group_name}_r{RADIUS}"] = (
                experiment, {"group": group, "radius": RADIUS})
    for group_name, group in GROUPS.items():
        cases[f"kappa_{group_name}_r{RADIUS}"] = (
            "kappa", {"group": group, "radius": RADIUS, "states": KAPPA_STATES[group_name]})
    for name, (experiment, config) in cases.items():
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(config))
        runs.append((experiment, name, path))
    return runs


def main() -> int:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (experiment, name, config) in enumerate(configs(Path(tmp))):
            for fmt in ("csv", "json"):
                out = Path(tmp) / f"report-{i}.{fmt}"
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main([experiment, "--config", str(config), "--format", fmt,
                                     "--out", str(out)])
                report = out.read_bytes() if out.exists() else b""
                lines.append(f"{code} {hashlib.sha256(report).hexdigest()} "
                             f"{experiment} {name}.{fmt}")
                print(lines[-1], flush=True)
    reports = len(lines)
    demos = sorted((ROOT / "demos").glob("*.py"))
    for script in demos:
        lines.append(f"{demo_digest(script)} {script.stem}")
        print(lines[-1], flush=True)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"total {reports} reports {len(demos)} demos {total}")
    return 0


def demo_digest(script: Path) -> str:
    """``exit sha256 demo``: a demo's exit code (1 if it raised) and the sha256 of its stdout."""
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            runpy.run_path(str(script), run_name="__main__")
        except Exception:  # recorded as exit 1, so that the total moves
            code = 1
    return f"{code} {hashlib.sha256(out.getvalue().encode()).hexdigest()} demo"


if __name__ == "__main__":
    sys.exit(main())
