"""End-to-end acceptance checks, one per numbered capability.

Each test prints a single "ACCEPTANCE n: PASS/FAIL" line (repeated in the
terminal summary) and then asserts, so a red test documents exactly which
guarantee is not met.
"""

import math

import numpy as np

from qmetric.groups import (FiniteGroupTable, FreeAbelian, GroupElement,
                            InfiniteDihedral, ProductZFinite)
from qmetric.metrics import connes_bracket, connes_heuristic, d_2, d_inf
from qmetric.opalgebra import (AlgebraElement, commutator_matrix,
                               commutator_norm_upper_l1, lemma2_lower,
                               norm_lower)
from qmetric.states import (CharacterState, DensityState, TraceState,
                            VectorState)
from qmetric.wordlength import enumerate_ball, square_sum_evidence

RESULTS = []


def record(number, ok, detail=""):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    RESULTS.append(line)
    print(line)
    assert ok, line


def families():
    return [("Z", FreeAbelian(1)),
            ("Z^2", FreeAbelian(2)),
            ("ZxZ2", ProductZFinite(FiniteGroupTable.cyclic(2))),
            ("dihedral", InfiniteDihedral())]


def random_algebra_element(rng, ball, max_support=8):
    size = int(rng.integers(1, max_support + 1))
    idx = rng.choice(len(ball), size=size, replace=False)
    coeffs = {}
    for i in idx:
        mag = rng.uniform(0.05, 1.0)
        phase = rng.uniform(0, 2 * np.pi)
        coeffs[ball.elements[int(i)]] = mag * np.exp(1j * phase)
    return AlgebraElement(coeffs)


def test_acceptance_1_commutator_norms():
    """||[D, lam_g]|| recovered as L(g) within 1e-9 on a ball of radius 4L+5."""
    worst = 0.0
    for name, group in families():
        ball5 = enumerate_ball(group, 5)
        for g, ln in zip(ball5.elements, ball5.lengths):
            if ln == 0:
                continue
            ball = enumerate_ball(group, 4 * int(ln) + 5)
            est = norm_lower(commutator_matrix(AlgebraElement.lam(g), ball),
                             tol=1e-12)
            worst = max(worst, abs(est.value - float(ln)))
    record(1, worst <= 1e-9, f"max |sigma - L| = {worst:.3e}")


def test_acceptance_2_norm_bracket():
    """Certified lower/upper bounds enclose the truncated norm for random elements."""
    rng = np.random.default_rng(2024)
    ok = True
    for name, group in families():
        ball40 = enumerate_ball(group, 40)
        support_ball = enumerate_ball(group, 4)
        for _ in range(200):
            a = random_algebra_element(rng, support_ball)
            sigma = norm_lower(commutator_matrix(a, ball40), tol=1e-12).value
            lo = lemma2_lower(a, ball40)
            hi = commutator_norm_upper_l1(a, ball40)
            ok = ok and lo <= sigma + 1e-9 and sigma <= hi + 1e-9
            if not ok:
                break
        if not ok:
            break
    record(2, ok)


def test_acceptance_3_closed_form_distance():
    """Trace vs unit character on Z: exact sup metric, bracketed limit pi/sqrt(3)."""
    group = FreeAbelian(1)
    ball = enumerate_ball(group, 100)
    phi = TraceState(group)
    psi = CharacterState(group, [1.0])
    lower = d_inf(phi, psi, ball)
    upper = d_2(phi, psi, ball)
    # oracle: lo^2 is the partial sum of 2 sum 1/m^2
    oracle = math.sqrt(2.0 * sum(1.0 / m ** 2 for m in range(1, 101)))
    limit = math.pi / math.sqrt(3.0)
    bracket = connes_bracket(phi, psi, ball)
    ok = (lower.lo == 1.0
          and 1.8082 <= upper.lo <= 1.8084
          and abs(upper.lo - oracle) <= 1e-12
          and bracket.lo <= limit <= bracket.hi)
    record(3, ok, f"d_inf.lo={lower.lo}, d_2.lo={upper.lo:.6f}")


def test_acceptance_4_divergence_z2():
    """Z^2 square sums match 4 H_r exactly and certify divergence of d_2."""
    group = FreeAbelian(2)
    ok = True
    details = []
    for r in (3, 10, 100):
        ball = enumerate_ball(group, r)
        partial, tail = square_sum_evidence(ball)
        # exhaustive oracle over the enumerated ball
        oracle = float(sum(1.0 / float(ln) ** 2 for ln in ball.lengths if ln > 0))
        harmonic = 4.0 * sum(1.0 / k for k in range(1, r + 1))
        ok = ok and abs(partial - oracle) <= 1e-9 \
            and abs(partial - harmonic) <= 1e-9 and tail is None
        details.append(f"r={r}: {partial:.4f}")
    # the partial sums exceed any fixed threshold for large enough radius
    p100, _ = square_sum_evidence(enumerate_ball(group, 100))
    ok = ok and p100 > 15.0
    # and d_2 between genuinely different states is reported divergent
    bracket = d_2(TraceState(group), CharacterState(group, [-1.0, -1.0]),
                  enumerate_ball(group, 20))
    ok = ok and math.isinf(bracket.hi) and bracket.tail_bound is None
    record(4, ok, "; ".join(details))


def test_acceptance_5_shell_bound_finite_extensions():
    """Shells of Z x F with default generators stay within 2|F| for k in [1, 50]."""
    worst = []
    ok = True
    for name in ("z2", "z3", "s3"):
        table = FiniteGroupTable.cyclic(2) if name == "z2" else (
            FiniteGroupTable.cyclic(3) if name == "z3"
            else FiniteGroupTable.symmetric(3))
        group = ProductZFinite(table)
        ball = enumerate_ball(group, 50)
        shells = ball.shell_sizes
        cap = 2 * table.order
        bad = [(k, int(shells[k])) for k in range(1, 51) if shells[k] > cap]
        if bad:
            ok = False
            worst.append(f"ZxF(|F|={table.order}): shell {bad[0][0]} has "
                         f"{bad[0][1]} > {cap}")
    record(5, ok, "; ".join(worst))


def test_acceptance_6_weak_star_metrization():
    """d_inf(char(e^(i/n)), char(1)) follows 2 sin(1/(2n)) and shrinks below 0.011."""
    group = FreeAbelian(1)
    ball = enumerate_ball(group, 10_000, max_elements=30_000)
    limit = CharacterState(group, [1.0])
    values = []
    ok = True
    for n in range(1, 51):
        state = CharacterState(group, [np.exp(1j / n)])
        lo = d_inf(state, limit, ball).lo
        # oracle: brute force over the ball is the definition of .lo; the
        # closed form below comes from |e^(im/n) - 1| / m peaking at m = 1
        ok = ok and abs(lo - 2.0 * math.sin(1.0 / (2 * n))) <= 1e-6
        values.append(lo)
    decreasing = all(values[i] > values[i + 1] for i in range(len(values) - 1))
    final_small = values[-1] < 0.011
    record(6, ok and decreasing and final_small,
           f"final={values[-1]:.6f}, decreasing={decreasing}")


def test_acceptance_7_trace_bounded_states():
    """Density states: square sums under kappa, pairwise d_2 under 2 kappa_max."""
    rng = np.random.default_rng(777)
    ok = True
    for group in (FreeAbelian(1), ProductZFinite(FiniteGroupTable.cyclic(2))):
        ball = enumerate_ball(group, 60)
        support_ball = enumerate_ball(group, 2)
        states = []
        for _ in range(10):
            b = random_algebra_element(rng, support_ball, max_support=4)
            states.append(DensityState(group, b))
        kappas = []
        for phi in states:
            kappa = float(sum(abs(c) for c in phi.rho.coeffs.values())) ** 2
            sum_sq = float(sum(abs(c) ** 2 for c in phi.rho.coeffs.values()))
            # kappa >= 1 holds exactly since rho(e) = 1; allow rounding noise
            ok = ok and kappa >= 1.0 - 1e-9 and sum_sq <= kappa + 1e-12
            kappas.append(kappa)
        kappa_max = max(kappas)
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                hi = d_2(states[i], states[j], ball).hi
                ok = ok and hi <= 2.0 * kappa_max + 1e-9
    # reference pair: b = lam_0 + lam_1 against the trace
    group = FreeAbelian(1)
    rho = DensityState(group, AlgebraElement({GroupElement((0,)): 1.0,
                                              GroupElement((1,)): 1.0}))
    lo = d_2(rho, TraceState(group), enumerate_ball(group, 100)).lo
    ok = ok and abs(lo - 2.0 ** -0.5) <= 1e-9
    record(7, ok, f"d_2(rho, trace).lo = {lo:.12f}")


def test_acceptance_8_sandwich_heuristic():
    """Heuristic estimates stay inside the certified bracket for 16 state pairs."""
    group = FreeAbelian(1)
    ball = enumerate_ball(group, 100)
    named = [TraceState(group),
             CharacterState(group, [1.0]),
             CharacterState(group, [-1.0]),
             DensityState(group, AlgebraElement({GroupElement((0,)): 1.0,
                                                 GroupElement((1,)): 1.0}))]
    pairs = [(named[i], named[j])
             for i in range(len(named)) for j in range(i + 1, len(named))]
    rng = np.random.default_rng(99)
    support_ball = enumerate_ball(group, 2)
    def random_state():
        kind = rng.integers(3)
        if kind == 0:
            return CharacterState(group, [np.exp(1j * rng.uniform(0, 2 * np.pi))])
        if kind == 1:
            return DensityState(group, random_algebra_element(rng, support_ball,
                                                              max_support=3))
        xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        xi /= np.linalg.norm(xi)
        return VectorState(group, {GroupElement((k,)): xi[k] for k in range(3)})
    while len(pairs) < 16:
        pairs.append((random_state(), random_state()))
    ok = True
    worst = ""
    for phi, psi in pairs:
        lower = d_inf(phi, psi, ball)
        upper = d_2(phi, psi, ball)
        result = connes_heuristic(phi, psi, group, 3, 40)
        inside = (result.estimate >= lower.lo - 1e-6
                  and result.estimate <= upper.hi + result.sigma_drift + 1e-9)
        if not inside:
            worst = (f"estimate {result.estimate:.6f} outside "
                     f"[{lower.lo:.6f}, {upper.hi:.6f}]")
        ok = ok and inside
    record(8, ok, worst or f"{len(pairs)} pairs checked")
