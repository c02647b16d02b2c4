"""Tests of the benchmark itself: seeded inputs, failure counting, span arithmetic.

Run from the root of a checkout with ``python3 -m pytest qbench``.
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

import qmetric.metrics as qm  # noqa: E402
import qmetric.wordlength as qw  # noqa: E402
from qmetric import FreeAbelian, TraceState, OneState, enumerate_ball  # noqa: E402

SMALL_NORMS = [("Z2", wl.Z2, 6), ("D", wl.DIHEDRAL, 12)]
SMALL_BRACKETS = [("Z", wl.Z, 40, ("trace", "character")),
                  ("ZxS3", wl.ZXS3, 8, ("density", "table")),
                  ("D", wl.DIHEDRAL, 20, ("vector", "one"))]
SMALL_PD = {"Z": 5, "ZxS3": 1, "D": 3}
SMALL_SANDWICH = [("ZxZ2", wl.ZXZ2, 6, ("trace", "one"), 1, 2),
                  ("Z", wl.Z, 6, ("trace", "character"), 1, 2),
                  ("D", wl.DIHEDRAL, 6, ("one", "vector"), 1, 2)]


def small_builders(workdir):
    return {
        "norms": lambda seed: wl.build_norms(seed, workdir, SMALL_NORMS),
        "brackets": lambda seed: wl.build_brackets(seed, workdir, SMALL_BRACKETS, SMALL_PD),
        "sandwich": lambda seed: wl.build_sandwich(seed, workdir, SMALL_SANDWICH),
    }


@pytest.mark.parametrize("name", ["norms", "brackets", "sandwich"])
def test_same_seed_gives_identical_inputs(tmp_path, name):
    build = small_builders(tmp_path)[name]
    first = json.dumps(build(7).describe(), sort_keys=True)
    assert json.dumps(build(7).describe(), sort_keys=True) == first
    assert json.dumps(build(8).describe(), sort_keys=True) != first


@pytest.mark.parametrize("name", ["norms", "sandwich"])
def test_seed_only_orders_the_fixed_catalogues(tmp_path, name):
    build = small_builders(tmp_path)[name]
    runs = [[json.dumps(item, sort_keys=True) for item in build(seed).describe()]
            for seed in range(1, 6)]
    assert len({tuple(run) for run in runs}) > 1
    assert all(sorted(run) == sorted(runs[0]) for run in runs)


def test_dist_templates_keep_their_order(tmp_path):
    labels = [[op.label for op in wl.build_brackets(seed, tmp_path, SMALL_BRACKETS,
                                                    SMALL_PD).ops] for seed in (1, 2)]
    assert labels[0] == labels[1]


def test_perturbed_commutator_norm_is_a_failure(tmp_path):
    workload = wl.build_norms(3, tmp_path, SMALL_NORMS)
    op = next(op for op in workload.ops if op.kind == "commutator")
    truth = wl._norms_reference(op)
    exact = {"sigma": truth["sigma"], "converged": True, "iterations": 1, "n": truth["n"]}
    above = dict(exact, sigma=truth["sigma"] * (1 + 1e-6))
    below = dict(exact, sigma=truth["sigma"] * (1 - 1e-6))
    verdicts, notes = workload.judge([(op, exact, None), (op, above, None),
                                      (op, below, None), (op, None, "ValueError")])
    assert [v.ok for v in verdicts] == [True, False, False, False]
    # above the true norm the certified lower bound is wrong; below it is only inaccurate
    assert [v.sound for v in verdicts] == [True, False, True, True]
    assert len(notes) == 3


def test_perturbed_bracket_report_is_a_failure(tmp_path):
    workload = wl.build_brackets(5, tmp_path, SMALL_BRACKETS, SMALL_PD)
    for op in workload.ops:
        answer = workload.run(op)
        assert answer["code"] == 0
        report = json.loads(answer["stdout"])
        good = workload.check(op, answer)
        assert good.ok, good.detail
        col = report["columns"].index("d_inf_lo")
        report["rows"][0][col] *= 1 + 1e-6
        bad = workload.check(op, dict(answer, stdout=json.dumps(report)))
        assert not bad.ok and not bad.sound
        assert not workload.check(op, dict(answer, code=2, stderr="boom")).ok


def test_estimate_outside_the_sandwich_is_a_failure(tmp_path):
    workload = wl.build_sandwich(1, tmp_path, SMALL_SANDWICH)
    for op in workload.ops:
        answer = workload.run(op)
        good = workload.check(op, answer)
        assert good.ok, good.detail
        report = json.loads(answer["stdout"])
        row = report["rows"][0]
        row[report["columns"].index("heuristic")] = row[report["columns"].index("d_inf_lo")] - 1e-3
        bad = workload.check(op, dict(answer, stdout=json.dumps(report)))
        # the heuristic is not certified: missing the sandwich is a failure, not unsound
        assert not bad.ok and bad.sound


def test_closed_form_limit_is_checked(tmp_path):
    workload = wl.build_brackets(5, tmp_path, SMALL_BRACKETS, SMALL_PD)
    op = workload.ops[0]
    ref = wl._dist_reference(op)
    assert ref["limit"] == pytest.approx(math.pi / math.sqrt(3))
    answer = workload.run(op)
    report = json.loads(answer["stdout"])
    for col in ("d2_hi", "d_hi"):
        report["rows"][0][report["columns"].index(col)] = ref["limit"] * 0.99
    assert not workload.check(op, dict(answer, stdout=json.dumps(report))).ok


def test_self_times_of_nested_spans():
    spans = [
        (0, "root", 0.0, 10.0, None),
        (1, "a", 1.0, 4.0, 0),
        (2, "leaf", 2.0, 3.0, 1),
        (3, "b", 5.0, 9.0, 0),
        (4, "leaf", 6.0, 6.5, 3),
    ]
    assert tracing.self_times(spans) == pytest.approx(
        {"root": 3.0, "a": 2.0, "leaf": 1.5, "b": 3.5})


def test_self_time_counts_overlapping_children_once():
    spans = [(0, "p", 0.0, 4.0, None), (1, "c", 1.0, 3.0, 0), (2, "c", 2.0, 5.0, 0)]
    assert tracing.self_times(spans)["p"] == pytest.approx(1.0)


def test_tracer_wraps_where_callers_bind_and_restores():
    originals = (qm.d_inf, qm.d_2, FreeAbelian.mul)
    group = FreeAbelian(1)
    ball = enumerate_ball(group, 5)
    tracer = tracing.Tracer()
    tracer.install([globals()])
    try:
        tracer.call("op", qm.connes_bracket, (TraceState(group), OneState(group), ball), {})
        enumerate_ball(group, 3)
    finally:
        tracer.uninstall()
    assert (qm.d_inf, qm.d_2, FreeAbelian.mul) == originals
    assert enumerate_ball is qw.enumerate_ball
    names = {span[1]: span for span in tracer.spans}
    by_id = {span[0]: span for span in tracer.spans}
    # connes_bracket calls d_inf through the metrics module's own binding
    assert by_id[names["metrics.d_inf"][4]][1] == "metrics.connes_bracket"
    assert tracer.counts["metrics.d_inf.calls"] == 1
    assert tracer.counts["states.coeff_array.calls"] == 4
    assert tracer.counts["groups.mul.calls"] == 10
    assert tracer.counts["wordlength.enumerate_ball.elements"] == 7


def test_traced_run_reports_every_layer_metric_per_pass(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    args = SimpleNamespace(workload="norms", seed=4, seconds=0.0)
    outcome = run.per_layer(args, lambda: wl.build_norms(4, tmp_path, SMALL_NORMS), tracing,
                            run.Probe())
    values = {name: m["value"] for name, m in outcome["metrics"].items()}
    assert set(values) == set(run.PER_LAYER)
    per_group = len(wl.NORMS_SUPPORT_SIZES), len(wl.NORMS_DENSITY_SIZES)
    # every op ends in one norm_lower call: kappa_bounds makes one too
    assert values["opalgebra.norm_lower.calls"] == sum(per_group) * len(SMALL_NORMS)
    assert values["opalgebra.commutator_matrix.calls"] == per_group[0] * len(SMALL_NORMS)
    # set-up enumerates one ball per group; the support and density balls come from the oracle
    assert values["wordlength.enumerate_ball.calls"] == len(SMALL_NORMS)
    assert values["groups.mul.calls"] > 0 and values["trace.overhead_ratio"] > 0
    assert (tmp_path / "trace-norms-seed4.json").is_file()


def test_tail_percentile_keeps_ten_samples_beyond():
    lat = [float(i) for i in range(25, 0, -1)]
    value, pct = run.tail(lat)
    assert pct == 60.0 and 14.0 < value < 17.0
    # with 10 samples or fewer, the quantile n/(n+1) that the maximum estimates
    value, pct = run.tail(lat[:10])
    assert pct == pytest.approx(100 * 10 / 11) and 23.0 < value < 25.0


def test_harrell_davis_median():
    assert run.hd_quantile([2.0] * 7, 0.5) == pytest.approx(2.0)
    assert run.hd_quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)
    assert run.hd_quantile([5.0, 1.0, 3.0], 0.5) == pytest.approx(3.0)


def test_oracle_word_lengths_match_breadth_first_search():
    for ref in (wl.Z2, wl.ZXS3, wl.DIHEDRAL):
        from qmetric import group_from_json
        ball = enumerate_ball(group_from_json(ref.spec()), 6)
        H = ref.ball(6)
        assert len(H) == len(ball)
        for el, length in zip(ball.elements, ball.lengths):
            key = el.z if el.f is None else (el.z[0], el.f)
            assert ref.length(key) == length


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(wl.BUILDERS)
    assert oracle.DENSE_CUTOFF == 600
