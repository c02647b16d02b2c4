"""qmetric benchmark: seeded workloads run end to end, checked against an oracle.

Usage, from the root of a qmetric checkout:

    python3 qbench/run.py --workload norms --seed 1 --seconds 20 --trace 0

One client runs the workload's ops back to back in this process (a closed
loop).  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it sets up traced, runs the same ops untraced and then traced,
and prints the per-layer metrics.  The last line of standard output is one
JSON object.  The program is imported from ``src/`` of the checkout and
nowhere else.

Times are reported at the reference speed of a fixed probe kernel, which
runs between ops: each op's wall time is scaled by the probe's reference
time over its time around that op.  On shared virtual machines the speed of
a core shifts by 30-40% between regimes lasting seconds to minutes; the
scaling removes most of that, and the wall-clock figures are printed too.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools are pinned before numpy loads; the pin is printed with the results.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".qbench"
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

LAYER_COUNTS = {
    "groups.mul": ["calls"],
    "groups.inv": ["calls"],
    "wordlength.enumerate_ball": ["calls", "self_s", "elements"],
    "wordlength.growth_fit": ["self_s"],
    "opalgebra.commutator_matrix": ["calls", "self_s", "nnz"],
    "opalgebra.op_matrix": ["calls", "self_s"],
    "opalgebra.norm_lower": ["calls", "self_s", "iterations", "unconverged", "rel_err_max"],
    "opalgebra.top_singular": ["calls", "self_s", "iterations"],
    "states.coeff_array": ["calls", "self_s"],
    "states.pd_check": ["calls", "self_s"],
    "metrics.d_inf": ["calls", "self_s"],
    "metrics.d_2": ["calls", "self_s"],
    "metrics.connes_bracket": ["calls", "self_s"],
    "metrics.connes_heuristic": ["calls", "self_s", "ascent_iterations",
                                 "unconverged_restarts"],
    "experiments.run_dist": ["self_s"],
    "cli.main": ["self_s"],
}
PER_LAYER = {f"{layer}.{key}": ("s" if key == "self_s" else
                                "ratio" if key == "rel_err_max" else "count")
             for layer, keys in LAYER_COUNTS.items() for key in keys}
PER_LAYER["trace.overhead_ratio"] = "ratio"


def load_program():
    """Import qmetric from this checkout's src/, then the benchmark's own modules."""
    if not (SRC / "qmetric" / "__init__.py").is_file():
        sys.exit(f"error: {SRC}/qmetric not found; run from a qmetric checkout")
    sys.path.insert(0, str(SRC))
    import qmetric
    if Path(qmetric.__file__).resolve().parent != (SRC / "qmetric").resolve():
        sys.exit(f"error: qmetric was imported from {qmetric.__file__}, not {SRC}")
    import tracing
    import workloads
    return workloads, tracing


class Probe:
    """A fixed kernel timed between ops, to take wall times to a reference speed.

    The kernel mixes the two kinds of work qmetric does: tuple and dict churn
    in the interpreter, as in BFS and coefficient lookup, and a short power
    iteration on a small dense complex matrix.  It touches nothing of
    qmetric, so a change to the program cannot move it.
    """

    REFERENCE_S = 1.5e-4  # the kernel's time on a 2.1 GHz Xeon core in its fast regime
    REPEATS = 11

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
        self._ah = np.ascontiguousarray(self._a.conj().T)
        self._x = np.ones(96, dtype=complex)

    def _kernel(self) -> None:
        table = {}
        for i in range(400):
            table[(i, i & 7)] = i * 0.5
        x = self._x
        for _ in range(6):
            z = self._ah @ (self._a @ x)
            x = z / self._np.sqrt(self._np.vdot(z, z).real)

    def time(self) -> float:
        """Median time of the kernel over REPEATS runs."""
        times = []
        for _ in range(self.REPEATS):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        return sorted(times)[self.REPEATS // 2]

    def scale(self, *times: float) -> float:
        """Factor that takes a wall time, bracketed by these probe times, to the reference speed."""
        return self.REFERENCE_S * len(times) / sum(times)


class Sample(NamedTuple):
    op: object
    wall_s: float    # wall time of the op
    scaled_s: float  # the same at the probe's reference speed
    answer: object
    error: Optional[str]


def measure(workload, probe: Probe, seconds: float, passes=None, wrap=None) -> list[Sample]:
    """Run exactly `passes` whole passes over the ops or, without `passes`, as many as fit.

    A further pass starts only while the mean pass so far would still end
    within `seconds` of scaled op time; there is always one pass.  Scaled
    time, unlike wall time, does not follow the machine's speed regime, so
    neither does the number of passes.  The probe runs before the first op
    and after every op.  `wrap(op)` runs one op in place of `workload.run`
    (the traced run uses it for the root span).
    """
    run = wrap or workload.run
    samples = []
    busy = 0.0
    done = 0
    before = probe.time()
    while (done < passes if passes is not None
           else done == 0 or busy * (done + 1) / done <= seconds):
        for op in workload.ops:
            start = time.perf_counter()
            try:
                answer, error = run(op), None
            except Exception as exc:  # an op that raises counts as failed
                answer, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            after = probe.time()
            scaled = latency * probe.scale(before, after)
            samples.append(Sample(op, latency, scaled, answer, error))
            before = after
            busy += scaled
        done += 1
    return samples


def judged(workload, samples: list[Sample]):
    return workload.judge([(s.op, s.answer, s.error) for s in samples])


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a beta-weighted mean of all order statistics.

    A plain order statistic jumps between ops of different cost when the noise
    swaps two neighbours; this estimate moves smoothly.
    """
    # imported here, after the set-up and memory readings, which they would inflate
    import numpy as np
    from scipy.special import betainc

    ordered = np.sort(values)
    n = len(ordered)
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 samples beyond it.

    With 10 samples or fewer no percentile qualifies; the quantile n/(n+1),
    which the maximum of n samples estimates, is given instead.  Its
    Harrell-Davis estimate leans on the top few samples, not on one.
    """
    n = len(latencies)
    q = n / (n + 1) if n <= 10 else (n - 10) / n
    return hd_quantile(latencies, q), 100.0 * q


def setup_samples(args, first: float) -> list[float]:
    """Set-up time of this process plus fresh interpreters that only set up."""
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=150, check=False)
        if proc.returncode != 0:
            sys.exit(f"error: set-up subprocess failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end(args, workload, probe: Probe, setup_first: float) -> dict:
    samples = measure(workload, probe, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdicts, notes = judged(workload, samples)
    latencies = [s.scaled_s for s in samples]
    wall = [s.wall_s for s in samples]
    setups = setup_samples(args, setup_first)
    tail_value, tail_pct = tail(latencies)
    failed = sum(not v.ok for v in verdicts)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(samples) / sum(latencies),
        "op_p50_s": hd_quantile(latencies, 0.5),
        "op_tail_s": tail_value,
        "ok_ratio": 1.0 - failed / len(samples),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"# workload {args.workload} seed {args.seed}: {len(samples)} ops over "
          f"{sum(wall):.2f} s of op wall time, {len(workload.ops)} distinct")
    passes = [sum(latencies[i:i + len(workload.ops)])
              for i in range(0, len(latencies), len(workload.ops))]
    print(f"# op time per pass (s): {', '.join(f'{p:.3f}' for p in passes)}")
    print(f"# set-up samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"# wall clock, unscaled: ops_per_s {len(wall) / sum(wall):.6g} 1/s, "
          f"op_p50_s {hd_quantile(wall, 0.5):.6g} s, op_tail_s {tail(wall)[0]:.6g} s; "
          f"mean speed scale {sum(latencies) / sum(wall):.4f}")
    for name, unit in END_TO_END.items():
        extra = ""
        if name == "op_tail_s":
            extra = f"  (p{tail_pct:.1f}, {len(latencies)} samples)"
        if name == "ok_ratio":
            extra = f"  (fail_ratio {failed / len(samples):.4f}: {failed} of {len(samples)})"
        print(f"{name:>12} {metrics[name]:14.6g} {unit}{extra}")
    return {"verdicts": verdicts, "notes": notes,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}}


def layer_values(tracer, tracing) -> dict:
    """Every per-layer metric but the overhead ratio, as recorded by one tracer."""
    self_s = tracing.self_times(tracer.spans)
    values = {}
    for name in PER_LAYER:
        layer, key = name.rsplit(".", 1)
        if key == "self_s":
            values[name] = self_s.get(layer, 0.0)
        elif name in tracer.maxima:
            values[name] = tracer.maxima[name]
        else:
            values[name] = float(tracer.counts.get(name, 0.0))
    del values["trace.overhead_ratio"]
    return values


def per_layer(args, build, tracing, probe: Probe) -> dict:
    """A traced set-up, then untraced and traced passes over the same ops.

    Each per-layer value is the traced set-up's plus one pass's: the traced
    passes' total divided by their number.  Counts therefore repeat exactly
    for a seed, however many passes the machine's speed allows.
    """
    setup = tracing.Tracer()
    setup.install()
    try:
        workload = setup.call("setup", build, (), {})
    finally:
        setup.uninstall()
    base = measure(workload, probe, args.seconds / 2)
    passes = len(base) // len(workload.ops)
    ops = tracing.Tracer()
    ops.install()
    try:
        traced = measure(workload, probe, 0, passes=passes,
                         wrap=lambda op: ops.call("op", workload.run, (op,), {}))
    finally:
        ops.uninstall()
    verdicts, notes = judged(workload, traced)
    rel_errs = [v.stats["rel_err"] for v in verdicts if "rel_err" in v.stats]
    if rel_errs:
        ops.note_max("opalgebra.norm_lower.rel_err_max", max(rel_errs))

    in_setup, in_ops = layer_values(setup, tracing), layer_values(ops, tracing)
    values = {name: in_setup[name] + (in_ops[name] if name in ops.maxima
                                      else in_ops[name] / passes)
              for name in in_ops}
    values["trace.overhead_ratio"] = (sum(s.scaled_s for s in traced)
                                      / sum(s.scaled_s for s in base))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({
        phase: {"spans": t.spans, "counts": t.counts, "maxima": t.maxima, "skipped": t.skipped}
        for phase, t in (("setup", setup), ("ops", ops))}))
    print(f"# workload {args.workload} seed {args.seed}: traced set-up and {passes} "
          f"pass(es) of {len(workload.ops)} ops; spans written to "
          f"{os.path.relpath(spans_path, ROOT)}")
    print(f"{'metric':>45} {'value':>14} {'':5} {'set-up':>12} {'per pass':>12}")
    for name, unit in PER_LAYER.items():
        parts = ("", "") if name == "trace.overhead_ratio" else (
            f"{in_setup[name]:12.6g}", f"{values[name] - in_setup[name]:12.6g}")
        print(f"{name:>45} {values[name]:14.6g} {unit:5} {parts[0]:>12} {parts[1]:>12}")
    return {"verdicts": verdicts, "notes": notes,
            "metrics": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sandwich", "norms", "brackets"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (set-up sampling)")
    args = parser.parse_args(argv)

    workloads, tracing = load_program()

    def build():
        return workloads.BUILDERS[args.workload](args.seed, OUT / "work")

    print("# threads pinned: " + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
          + f" (nproc={os.cpu_count()})")
    if args.trace:
        outcome = per_layer(args, build, tracing, Probe())
    else:
        workload = build()
        setup_wall = time.perf_counter() - T_START
        # the probe needs numpy, whose import is part of set-up, so it runs after set-up
        probe = Probe()
        setup_first = setup_wall * probe.scale(probe.time())
        if args.setup_only:
            print(repr(setup_first))
            return 0
        outcome = end_to_end(args, workload, probe, setup_first)
    verdicts = outcome["verdicts"]
    if outcome["notes"]:
        print(f"# {len(outcome['notes'])} distinct op failures:")
        print("\n".join(outcome["notes"]))
    print(json.dumps({"correct": all(v.sound for v in verdicts),
                      "attempted": len(verdicts),
                      "failed": sum(not v.ok for v in verdicts),
                      "metrics": outcome["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
