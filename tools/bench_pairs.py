"""Paired benchmark runs of two qmetric checkouts, written to one BENCH_<label>.json.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent DIR --change DIR --label L

For each workload that ``BENCHMARK.json`` (beside this script) lists, it
runs

    python3 qbench/run.py --workload W --seed 1 --seconds 20 --trace 0

in each checkout, in 10 pairs that alternate which checkout runs first, with
BLAS and OpenMP pinned to one thread.  Each checkout benchmarks its own
``src/`` with its own ``qbench/``.

``BENCH_<label>.json``, written beside ``BENCHMARK.json``, holds every run's
end-to-end metrics, ``correct`` and ``failed``; for each metric, both
medians, the parent's quartiles, how many pairs the change won (ties count
for neither side) and whether the change's median lies within the parent's
interquartile range or beyond it on the better side; ``nproc``; both
commits; and both totals of ``tools/report_digest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED, SECONDS, PAIRS = 1, 20, 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ENV = {**os.environ, **{var: "1" for var in THREAD_VARS}, "PYTHONDONTWRITEBYTECODE": "1"}


def _run(checkout: Path, argv: list[str], timeout: float) -> str:
    proc = subprocess.run([sys.executable, *argv], cwd=checkout, env=ENV, capture_output=True,
                          text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(argv)} failed in {checkout}:\n{proc.stderr}")
    return proc.stdout


def bench(checkout: Path, workload: str) -> dict:
    """One qbench run's correct, attempted and failed, and each metric's value."""
    out = _run(checkout, ["qbench/run.py", "--workload", workload, "--seed", str(SEED),
                          "--seconds", str(SECONDS), "--trace", "0"], timeout=20 * SECONDS + 300)
    result = json.loads(out.strip().splitlines()[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def commit(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def digest(checkout: Path) -> str:
    """The total line of the checkout's tools/report_digest.py."""
    return _run(checkout, ["tools/report_digest.py"], timeout=1800).strip().splitlines()[-1]


def summary(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both medians, the parent's quartiles and the change's wins and place."""
    out = {}
    for name, direction in better.items():
        parent = [r["parent"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        mid = statistics.median(change)
        out[name] = {"better": direction, "parent_median": median, "change_median": mid,
                     "parent_q1": q1, "parent_q3": q3, "change_wins": wins, "pairs": len(runs),
                     "within_parent_iqr_or_better": q1 <= mid <= q3 or sign * (mid - median) > 0}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = {}
    for w in spec["workloads"]:
        runs = []
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = bench(sides[side], w["name"])
                print(f"{w['name']} pair {i + 1} {side}: "
                      f"ops_per_s {pair[side]['metrics']['ops_per_s']:.4g}, "
                      f"failed {pair[side]['failed']}", flush=True)
            runs.append(pair)
        workloads[w["name"]] = {"runs": runs, "summary": summary(runs, better)}
    result = {
        "command": f"qbench/run.py --workload W --seed {SEED} --seconds {SECONDS} --trace 0",
        "pairs": PAIRS, "nproc": os.cpu_count(),
        "threads": {var: ENV[var] for var in THREAD_VARS},
        "commits": {side: commit(path) for side, path in sides.items()},
        "report_digest": {side: digest(path) for side, path in sides.items()},
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
