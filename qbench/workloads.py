"""The benchmark's three workloads: seeded inputs, the user-facing op, and its check.

Each workload is a catalogue of ops that a run executes in whole passes
until its time is up, so every op weighs the same in every run.

* ``brackets`` has fixed templates (group, radius, state kinds); the run
  seed draws every state parameter: character angles, vector, density and
  table coefficients and their supports.
* ``norms`` and ``sandwich`` have fixed catalogues, parameters included,
  drawn once from ``PATTERN_SEED``; the run seed only orders them.  Their
  cost swings with the parameters far more than with the group or size: the
  power iteration of one norms support pattern takes 300 to 10,000
  iterations, and one sandwich pair takes 1 to 20 s as its ascent converges
  or runs to ``max_iter``.  A run fits about a hundred norms ops or ten
  sandwich ops, so drawing them per seed made the throughput of five norms
  seeds spread by 27% around the median.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import oracle
from qmetric import cli, groups as qg, opalgebra as qo, states as qs, wordlength as qw

PATTERN_SEED = 0
REL_TOL = 1e-9       # accuracy demanded of every computed value against the oracle
SOUND_TOL = 1e-12    # relative slack for bounds that must hold exactly
BRACKET_SLACK = 1e-6  # acceptance 8: the heuristic may sit this far below d_inf

Z = oracle.RefGroup("free_abelian", rank=1)
Z2 = oracle.RefGroup("free_abelian", rank=2)
ZXZ2 = oracle.RefGroup("product_z_finite", table=oracle.cyclic_table(2))
ZXS3 = oracle.RefGroup("product_z_finite", table=oracle.s3_table())
DIHEDRAL = oracle.RefGroup("infinite_dihedral")


@dataclass
class Op:
    label: str
    kind: str                      # "commutator", "kappa" or "dist"
    group: oracle.RefGroup
    inputs: dict                   # plain data, as handed to the program
    program: dict = field(default_factory=dict)  # qmetric objects built in set-up


@dataclass
class Verdict:
    ok: bool          # passed every check of its workload
    sound: bool       # no certified or exact value is wrong
    detail: str = ""
    stats: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    run: Callable[[Op], dict]
    check: Callable[[Op, dict], Verdict]

    def describe(self) -> list:
        return [[op.label, op.kind, op.inputs] for op in self.ops]

    def judge(self, results) -> tuple[list[Verdict], list[str]]:
        """Verdict per (op, answer, error); each distinct failure is noted once."""
        verdicts, notes = [], {}
        for op, answer, error in results:
            verdict = Verdict(False, True, error) if error is not None else self.check(op, answer)
            verdicts.append(verdict)
            if not verdict.ok:
                tag = "fail" if verdict.sound else "UNSOUND"
                notes.setdefault((op.label, verdict.detail),
                                 f"  {tag} {op.label}: {verdict.detail}")
        return verdicts, list(notes.values())


def _complex(rng) -> complex:
    return complex(rng.uniform(0.05, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))


def _items(coeffs: dict) -> list[dict]:
    return [{"element": [int(x) for x in g], "re": float(a.real), "im": float(a.imag)}
            for g, a in coeffs.items()]


def _pick(rng, elements: np.ndarray, size: int, skip_identity: bool = True) -> list[tuple]:
    pool = [tuple(int(x) for x in row) for row in elements]
    if skip_identity:
        pool = [g for g in pool if any(g)]
    return [pool[int(i)] for i in rng.choice(len(pool), size=size, replace=False)]


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref) if ref != 0 else abs(value)


# ---------------------------------------------------------------------------
# norms: commutator assembly and the sparse power iteration
# ---------------------------------------------------------------------------

NORMS_GROUPS = [("Z2", Z2, 40), ("ZxS3", ZXS3, 200), ("D", DIHEDRAL, 300)]
NORMS_SUPPORT_SIZES = [1, 2, 3, 4, 5, 6, 7, 8, 2, 3, 4, 5, 6, 7, 8]
NORMS_DENSITY_SIZES = [2, 3, 2, 3, 3]


def build_norms(seed: int, workdir: Path, groups=NORMS_GROUPS) -> Workload:
    """Catalogue of elements supported in ball(4) and density states on ball(2).

    The catalogue, coefficients included, comes from PATTERN_SEED; the run
    seed only orders it.  See the module docstring for why.
    """
    ops = []
    for g_index, (gname, ref, radius) in enumerate(groups):
        rng = np.random.default_rng([PATTERN_SEED, g_index])
        group = qg.group_from_json(ref.spec())
        ball = qw.enumerate_ball(group, radius)
        support_ball, density_ball = ref.ball(4), ref.ball(2)
        for size in NORMS_SUPPORT_SIZES:
            items = _items({g: _complex(rng) for g in _pick(rng, support_ball, size)})
            ops.append(Op(f"{gname} r={radius} |supp|={size}", "commutator", ref,
                          {"group": ref.spec(), "radius": radius, "a": items},
                          {"ball": ball, "a": qs.algebra_element_from_json(group, items)}))
        for size in NORMS_DENSITY_SIZES:
            b = {g: _complex(rng) for g in _pick(rng, density_ball, size, False)}
            spec = {"kind": "density", "b": _items(b)}
            ops.append(Op(f"{gname} r={radius} kappa |b|={size}", "kappa", ref,
                          {"group": ref.spec(), "radius": radius, "state": spec},
                          {"ball": ball, "state": qs.state_from_json(group, spec)}))
    order = np.random.default_rng(seed).permutation(len(ops))
    return Workload("norms", [ops[i] for i in order], _run_norms,
                    _Checker(_check_norms, _norms_reference))


def _run_norms(op: Op) -> dict:
    p = op.program
    if op.kind == "commutator":
        est = qo.norm_lower(qo.commutator_matrix(p["a"], p["ball"]), tol=1e-12)
        return {"sigma": est.value, "converged": est.converged,
                "iterations": est.iterations, "n": len(p["ball"])}
    bound = qs.kappa_bounds(p["state"], p["ball"])
    return {"lower": bound.kappa_lower, "upper": bound.kappa_upper, "n": len(p["ball"])}


def _norms_reference(op: Op) -> dict:
    ref, radius = op.group, op.inputs["radius"]
    H = ref.ball(radius)
    if op.kind == "commutator":
        coeffs = oracle._weighted(op.inputs["a"])
        return {"n": len(H),
                "sigma": oracle.top_singular(oracle.commutator_matrix(ref, H, coeffs)),
                "lemma2": oracle.lemma2_lower(ref, coeffs),
                "l1": oracle.l1_upper(ref, coeffs)}
    rho = oracle.density_rho(ref, oracle._weighted(op.inputs["state"]["b"]))
    return {"n": len(H),
            "sigma": oracle.top_singular(oracle.convolution_matrix(ref, H, rho)),
            "upper": float(sum(abs(v) for v in rho.values())) ** 2}


def _check_norms(op: Op, ans: dict, ref: dict) -> Verdict:
    if ans["n"] != ref["n"]:
        return Verdict(False, False, f"ball has {ans['n']} elements, expected {ref['n']}")
    if op.kind == "commutator":
        sigma = ans["sigma"]
        rel = _rel(sigma, ref["sigma"])
        sound = sigma <= ref["sigma"] * (1 + SOUND_TOL)
        ok = (sound and rel <= REL_TOL
              and ref["lemma2"] - REL_TOL <= sigma <= ref["l1"] + REL_TOL)
        detail = (f"sigma={sigma!r} oracle={ref['sigma']!r} rel_err={rel:.2e} "
                  f"converged={ans['converged']} iterations={ans['iterations']}")
        return Verdict(ok, sound, detail, {"rel_err": rel})
    lower, upper = ans["lower"], ans["upper"]
    truth = min(ref["sigma"], math.sqrt(ref["upper"]))
    rel = _rel(math.sqrt(lower), truth)
    sound = (_rel(upper, ref["upper"]) <= SOUND_TOL and lower <= upper
             and lower <= ref["sigma"] ** 2 * (1 + SOUND_TOL))
    detail = f"kappa=[{lower!r}, {upper!r}] oracle sigma={ref['sigma']!r} rel_err={rel:.2e}"
    return Verdict(sound and rel <= REL_TOL, sound, detail, {"rel_err": rel})


class _Checker:
    """Computes each op's reference once, outside the timed region, and judges answers."""

    def __init__(self, judge, reference):
        self.judge = judge
        self.reference = reference
        self.cache: dict[int, dict] = {}

    def __call__(self, op: Op, ans: dict) -> Verdict:
        key = id(op)
        if key not in self.cache:
            self.cache[key] = self.reference(op)
        return self.judge(op, ans, self.cache[key])


# ---------------------------------------------------------------------------
# dist runs through the command line: brackets and sandwich
# ---------------------------------------------------------------------------

def _state_spec(rng, kind: str, ref: oracle.RefGroup) -> dict:
    near = ref.ball(2)
    if kind in ("trace", "one"):
        return {"kind": kind}
    if kind == "character":
        theta = rng.uniform(0, 2 * np.pi, ref.rank)
        return {"kind": "character",
                "z": [{"re": float(np.cos(t)), "im": float(np.sin(t))} for t in theta]}
    if kind == "density":
        return {"kind": "density",
                "b": _items({g: _complex(rng) for g in _pick(rng, near, 3, False)})}
    xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    xi = dict(zip(_pick(rng, near, 3, False), xi / np.linalg.norm(xi)))
    if kind == "vector":
        return {"kind": "vector", "support": _items(xi)}
    # a positive-definite table: the coefficients of a vector state, listed explicitly
    entries = {g: v for g, v in oracle.vector_coeffs(ref, xi).items() if g != ref.identity}
    return {"kind": "table", "extend_zero": True, "entries": _items(entries)}


def call_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _dist_ops(rngs, workdir: Path, name: str, templates, extra: dict,
              pd_radius: Optional[dict] = None) -> list[Op]:
    """One op per template; template i draws its states from the i-th generator of `rngs`."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for i, (rng, (gname, ref, radius, kinds, more)) in enumerate(zip(rngs, templates)):
        specs = [_state_spec(rng, kind, ref) for kind in kinds]
        config = {"group": ref.spec(), "state_a": specs[0], "state_b": specs[1],
                  "radius": radius, **extra, **more}
        path = workdir / f"{name}-{i:02d}.json"
        path.write_text(json.dumps(config, sort_keys=True))
        program = {"argv": ["dist", "--config", str(path), "--format", "json"],
                   "pd": []}
        if pd_radius is not None:
            group = qg.group_from_json(ref.spec())
            pd_ball = qw.enumerate_ball(group, pd_radius[gname])
            program["pd"] = [(qs.state_from_json(group, spec), pd_ball)
                             for spec in specs if spec["kind"] in ("density", "table")]
        ops.append(Op(f"{gname} r={radius} {kinds[0]}|{kinds[1]}", "dist", ref,
                      {"config": config, "kinds": list(kinds)}, program))
    return ops


def _run_dist(op: Op) -> dict:
    pd = [qs.pd_check(state, ball) for state, ball in op.program["pd"]]
    out = call_cli(op.program["argv"])
    out["pd"] = [(bool(r.passed), r.min_eigenvalue) for r in pd]
    return out


def _dist_reference(op: Op) -> dict:
    cfg = op.inputs["config"]
    d_inf, d2 = oracle.distances(op.group, cfg["state_a"], cfg["state_b"], cfg["radius"])
    kinds = set(op.inputs["kinds"])
    limit = None
    if kinds == {"trace", "one"} or kinds == {"trace", "character"}:
        # |c_g| = 1 off the identity, so d_2^2 over the whole group is sum_k |S_k| / k^2
        total = op.group.shell_sum()
        limit = math.inf if total is None else math.sqrt(total)
    return {"d_inf": d_inf, "d2": d2, "limit": limit}


def _parse_dist(ans: dict) -> dict:
    report = json.loads(ans["stdout"])
    row = dict(zip(report["columns"], report["rows"][0]))
    return {k: (float(v) if isinstance(v, (int, float, str)) else v) for k, v in row.items()}


def _check_dist(op: Op, ans: dict, ref: dict, heuristic: bool) -> Verdict:
    if ans["code"] != 0:
        return Verdict(False, True, f"exit code {ans['code']}: {ans['stderr'].strip()}")
    row = _parse_dist(ans)
    lo_inf, lo2, hi2 = row["d_inf_lo"], row["d2_lo"], row["d2_hi"]
    problems = []
    if _rel(lo_inf, ref["d_inf"]) > REL_TOL:
        problems.append(f"d_inf.lo={lo_inf!r} oracle={ref['d_inf']!r}")
    if _rel(lo2, ref["d2"]) > REL_TOL:
        problems.append(f"d_2.lo={lo2!r} oracle={ref['d2']!r}")
    if not (lo_inf <= lo2 * (1 + SOUND_TOL) and lo2 <= hi2):
        problems.append(f"order d_inf.lo={lo_inf!r} d_2.lo={lo2!r} d_2.hi={hi2!r}")
    if math.isinf(hi2) != (op.group.shell_sum() is None):
        problems.append(f"d_2.hi={hi2!r} for family {op.group.family} rank {op.group.rank}")
    limit = ref["limit"]
    if limit is not None and not math.isinf(limit):
        if not (lo2 <= limit * (1 + SOUND_TOL) and limit <= hi2 * (1 + SOUND_TOL)):
            problems.append(f"closed form {limit!r} outside [{lo2!r}, {hi2!r}]")
    if row["d_lo"] != lo_inf or row["d_hi"] != hi2:
        problems.append("bracket endpoints differ from d_inf.lo and d_2.hi")
    sound = not problems
    failed_pd = [eig for passed, eig in ans["pd"] if not passed]
    if failed_pd:
        problems.append(f"pd_check rejected a positive-definite state (min eig {failed_pd})")
    detail = f"d_inf.lo={lo_inf:.12g} d_2=[{lo2:.12g}, {hi2:.12g}]"
    if heuristic:
        est, drift = row["heuristic"], row["sigma_drift"]
        detail += f" estimate={est:.12g} drift={drift:.3g}"
        if not (lo_inf - BRACKET_SLACK <= est <= hi2 + drift + 1e-9):
            problems.append(f"estimate {est!r} outside [{lo_inf!r}, {hi2 + drift!r}]")
    return Verdict(not problems, sound, "; ".join(problems) or detail)


# brackets: BFS, coefficient evaluation and the d_inf / d_2 passes at large radius.
# Like the other catalogues, one pass takes more than half a run (about 24 s of
# scaled time), so a run holds exactly one pass: a varying number of passes
# would move op_tail_s, whose percentile follows the sample count.
BRACKETS_TEMPLATES = [
    ("Z", Z, 10_000, ("trace", "character")),
    ("Z2", Z2, 150, ("one", "trace")),
    ("ZxS3", ZXS3, 2000, ("trace", "one")),
    ("D", DIHEDRAL, 5000, ("one", "trace")),
    ("Z", Z, 10_000, ("density", "table")),
    ("Z2", Z2, 150, ("character", "density")),
    ("ZxS3", ZXS3, 2000, ("density", "vector")),
    ("D", DIHEDRAL, 5000, ("vector", "density")),
    ("Z", Z, 10_000, ("vector", "one")),
    ("Z2", Z2, 150, ("vector", "table")),
    ("ZxS3", ZXS3, 2000, ("table", "trace")),
    ("D", DIHEDRAL, 5000, ("table", "one")),
    ("Z", Z, 10_000, ("one", "density")),
    ("Z2", Z2, 150, ("trace", "table")),
    ("ZxS3", ZXS3, 2000, ("vector", "one")),
    ("D", DIHEDRAL, 5000, ("density", "trace")),
    ("Z", Z, 10_000, ("trace", "vector")),
    ("Z2", Z2, 150, ("trace", "density")),
    ("ZxS3", ZXS3, 2000, ("one", "density")),
    ("D", DIHEDRAL, 5000, ("trace", "vector")),
    ("Z", Z, 10_000, ("character", "table")),
    ("Z2", Z2, 150, ("one", "vector")),
    ("ZxS3", ZXS3, 2000, ("trace", "vector")),
    ("D", DIHEDRAL, 5000, ("one", "density")),
    ("Z", Z, 10_000, ("one", "character")),
    ("Z2", Z2, 150, ("character", "vector")),
    ("ZxS3", ZXS3, 2000, ("density", "table")),
    ("D", DIHEDRAL, 5000, ("density", "table")),
    ("Z", Z, 10_000, ("density", "vector")),
    ("Z2", Z2, 150, ("density", "table")),
    ("ZxS3", ZXS3, 2000, ("vector", "table")),
    ("D", DIHEDRAL, 5000, ("vector", "table")),
]
# pd_check balls of about 300 elements
PD_RADIUS = {"Z": 150, "Z2": 10, "ZxS3": 25, "D": 75}


def build_brackets(seed: int, workdir: Path, templates=BRACKETS_TEMPLATES,
                   pd_radius=PD_RADIUS) -> Workload:
    ops = _dist_ops(itertools.repeat(np.random.default_rng(seed)), workdir, "brackets",
                    [(g, ref, r, kinds, {}) for g, ref, r, kinds in templates],
                    {"trunc": 2, "mode": "bracket"}, pd_radius)
    check = _Checker(lambda op, ans, ref: _check_dist(op, ans, ref, False), _dist_reference)
    return Workload("brackets", ops, _run_dist, check)


# sandwich: the heuristic point estimate on small balls (dense power iterations).
# Each template draws its states from a fresh generator seeded with PATTERN_SEED.
# The pairs span all five state kinds on the three groups; one pass takes about
# 18 s of scaled time.  Dihedral trace|vector fails the sandwich check: d_inf
# is attained outside the support ball.
SANDWICH_TEMPLATES = [
    ("Z", Z, 30, ("trace", "one"), 2, 20),
    ("Z", Z, 30, ("one", "character"), 2, 20),
    ("Z", Z, 30, ("density", "vector"), 2, 20),
    ("ZxZ2", ZXZ2, 30, ("trace", "one"), 2, 20),
    ("ZxZ2", ZXZ2, 30, ("trace", "vector"), 2, 20),
    ("ZxZ2", ZXZ2, 30, ("density", "vector"), 2, 20),
    ("ZxZ2", ZXZ2, 30, ("one", "density"), 2, 20),
    ("D", DIHEDRAL, 30, ("trace", "vector"), 2, 20),
    ("D", DIHEDRAL, 30, ("one", "density"), 2, 20),
]


def build_sandwich(seed: int, workdir: Path, templates=SANDWICH_TEMPLATES) -> Workload:
    """Fixed catalogue from PATTERN_SEED, ordered by the run seed (see the module docstring)."""
    ops = _dist_ops((np.random.default_rng(PATTERN_SEED) for _ in templates), workdir, "sandwich",
                    [(g, ref, r, kinds, {"support_radius": s, "trunc": t})
                     for g, ref, r, kinds, s, t in templates],
                    {"mode": "both"})
    order = np.random.default_rng(seed).permutation(len(ops))
    check = _Checker(lambda op, ans, ref: _check_dist(op, ans, ref, True), _dist_reference)
    return Workload("sandwich", [ops[i] for i in order], _run_dist, check)


BUILDERS = {"sandwich": build_sandwich, "norms": build_norms, "brackets": build_brackets}
