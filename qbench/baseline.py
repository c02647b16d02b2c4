"""Run the benchmark over several seeds and summarise each metric.

    python3 qbench/baseline.py --seeds 1-10 --out qbench/baseline.json

For every workload, by default all three including the ungated sandwich, it
makes one end-to-end run per seed and one traced run (the first seed), prints
every metric with its unit, then writes the median, the quartiles and the
quartile spread (q3 - q1) / median of every end-to-end metric, and the traced
per-layer metrics.  Runs go one at a time, from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "qbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}: " + ", ".join(
              f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()),
          flush=True)
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workloads", default="sandwich,norms,brackets")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seeds = seed_range(args.seeds)
    out = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        traced = run_once(workload, seeds[0], args.seconds, 1)
        out["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "end_to_end": {name: summary([r["metrics"][name]["value"] for r in runs])
                           for name in runs[0]["metrics"]},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        for metric in spec["end_to_end"]:
            stats = out["workloads"][workload]["end_to_end"][metric["name"]]
            print(f"{workload:>9} {metric['name']:>12} median {stats['median']:.6g} "
                  f"{metric['unit']}, spread {stats['spread']:.4f} (bound {metric['bound']})")
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
