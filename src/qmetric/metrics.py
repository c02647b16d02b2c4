"""State-space metrics from length-weighted coefficient differences.

Two metrics are computed exactly on a ball with rigorous tails:

* d_inf: the sup of |phi(lam_g) - psi(lam_g)| / L(g) over g != e,
* d_2:   the l2 analogue, finite whenever shells are boundedly sized,

with tails from the states' outside bounds (``StateRep.outside_bound``).

They enclose the Connes metric d (sup of |phi(a) - psi(a)| over a with
commutator norm <= 1): d_inf <= d <= d_2.  The bracket is the only certified
output; connes_heuristic additionally ascends the ratio
|sum alpha_g c_g| / sigma(alpha) for a point estimate of d, with every
truncated commutator built from one triplet list and mirrored restarts skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .groups import Group
from .opalgebra import _top_singular, commutator_triplets
from .states import StateRep
from .wordlength import Ball, enumerate_ball


@dataclass
class MetricBracket:
    """Certified interval [lo, hi] for a metric value, with diagnostics."""

    lo: float
    hi: float
    tail_bound: Optional[float]
    diagnostics: dict = field(default_factory=dict)


def delta_coeffs(phi: StateRep, psi: StateRep, ball: Ball) -> np.ndarray:
    """c_g = phi(lam_g) - psi(lam_g), c_e (row 0) pinned to 0; GroupError for a foreign law."""
    phi.check_ball(ball)
    psi.check_ball(ball)
    c = phi.coeff_array(ball) - psi.coeff_array(ball)
    c[0] = 0.0
    return c


def _outside_sum(phi: StateRep, psi: StateRep, ball: Ball) -> float:
    """e_phi + e_psi, a bound on |c_g| for every g outside the ball."""
    return phi.outside_bound(ball) + psi.outside_bound(ball)


def _ratios(c: np.ndarray, ball: Ball) -> np.ndarray:
    """|c_g| / L(g) over the ball without the identity (row 0)."""
    return np.abs(c[1:]) / ball.lengths[1:]


def _sup_bracket(ratios: np.ndarray, ball: Ball, outside: float) -> MetricBracket:
    if ball.radius < 1:
        raise ValueError("d_inf needs ball radius >= 1")
    best = int(np.argmax(ratios))
    lo = float(ratios[best])
    tail = outside / (ball.radius + 1)
    return MetricBracket(lo, max(lo, tail), tail, {
        "argmax": ball.group.from_rows(ball.rows[best + 1])[0],
        "argmax_length": int(ball.lengths[best + 1]),
    })


def _l2_bracket(ratios: np.ndarray, ball: Ball, outside: float) -> MetricBracket:
    if ball.radius < 1:
        raise ValueError("d_2 needs ball radius >= 1")
    bound = ball.group.shell_bound
    partials = np.sqrt(np.cumsum(np.bincount(ball.lengths[1:], ratios ** 2, ball.radius + 1)))
    lo = float(partials[-1])
    diagnostics = {"partial_by_radius": partials.tolist(), "shell_bound": bound}
    if bound is None:
        return MetricBracket(lo, math.inf, None, diagnostics)
    # for two states (outside = 2) this is 4.0 * bound / r, bit for bit
    tail = outside ** 2 * bound / ball.radius
    return MetricBracket(lo, float(np.sqrt(lo ** 2 + tail)), tail, diagnostics)


def d_inf(phi: StateRep, psi: StateRep, ball: Ball) -> MetricBracket:
    """Sup metric, exact on the ball; the tail uses |c_g| <= e_phi + e_psi and L >= r+1 outside."""
    ratios = _ratios(delta_coeffs(phi, psi, ball), ball)
    return _sup_bracket(ratios, ball, _outside_sum(phi, psi, ball))


def d_2(phi: StateRep, psi: StateRep, ball: Ball) -> MetricBracket:
    """l2 metric; certified upper bound requires an analytic shell-size bound.

    Without one the upper endpoint is infinite and the diagnostics record the
    partial sums across sub-radii as divergence evidence.
    """
    ratios = _ratios(delta_coeffs(phi, psi, ball), ball)
    return _l2_bracket(ratios, ball, _outside_sum(phi, psi, ball))


def connes_bracket(phi: StateRep, psi: StateRep, ball: Ball) -> MetricBracket:
    """Certified enclosure of the Connes metric: [d_inf.lo, d_2.hi]."""
    ratios = _ratios(delta_coeffs(phi, psi, ball), ball)
    outside = _outside_sum(phi, psi, ball)
    lower = _sup_bracket(ratios, ball, outside)
    upper = _l2_bracket(ratios, ball, outside)
    return MetricBracket(lower.lo, upper.hi, upper.tail_bound,
                         {"d_inf": lower, "d_2": upper})


# ---------------------------------------------------------------------------
# heuristic point estimate
# ---------------------------------------------------------------------------

@dataclass
class HeuristicResult:
    """Uncertified point estimate of the Connes metric from ratio ascent."""

    estimate: float
    sigma_drift: float
    diagnostics: dict = field(default_factory=dict)


# at most 4 singleton starts of at most 500 steps, each stopped by a relative
# gain below 1e-8; sigma to 1e-7 while ascending, to 1e-9 for reported values
_RESTARTS, _MAX_STEPS, _FTOL = 4, 500, 1e-8
_ASCENT_TOL, _NORM_TOL, _NORM_MAX_ITER = 1e-7, 1e-9, 10_000


def connes_heuristic(phi: StateRep, psi: StateRep, group: Group,
                     r: int, R: int) -> HeuristicResult:
    """Ascend |sum alpha_g c_g| / sigma(alpha) over coefficients on ball(r) \\ {e}.

    sigma(alpha) is the norm of T(alpha), the commutator [D, sum alpha_g lam_g]
    compressed to ball(R).  It is a lower bound of the true constraint, so the
    estimate is not certified; the sigma drift on re-evaluation at radius 2R
    is reported as a stability check.  ball(2R) is enumerated first (its cap
    raises ResourceError even for agreeing states), and ball(r) and ball(R)
    are its prefixes.  The support is the rows of ball(r) \\ {e}; its one list
    of commutator triplets on ball(2R) gives T(alpha) (the triplets inside
    ball(R), over which the subgradients u^H [D, lam_g] v are one sum) and
    the drift operator (those of the winner's nonzero coefficients).

    Restarts begin at the singletons with the largest |c_g| / L(g), so the
    first iterate already attains the d_inf lower bound on the ball.  When c
    is hermitian (c_{g^-1} = conj(c_g)), a start whose inverse is already a
    start is dropped, because its ascent mirrors the other one: with
    alpha'_{g^-1} = conj(alpha_g), T(alpha') = -T(alpha)^* (the balls are
    inverse-closed) and <alpha', c> = conj(<alpha, c>), so every ratio, step
    and subgradient of one ascent is mirrored in the other.
    """
    if r < 1:
        raise ValueError("support radius r must be >= 1")
    if R < 2 * r:
        raise ValueError("truncation radius R must be >= 2r")
    import scipy.sparse as sp

    ball = enumerate_ball(group, 2 * R)
    n_r, n = np.searchsorted(ball.lengths, [r, R], side="right")
    support = ball.rows[1:n_r]
    c = delta_coeffs(phi, psi, ball)[1:n_r]
    lengths = ball.lengths[1:n_r].astype(float)
    if len(support) == 0 or float(np.max(np.abs(c), initial=0.0)) < 1e-14:
        return HeuristicResult(0.0, 0.0, {"reason": "states agree on the support ball",
                                          "restarts": 0})
    m = len(support)
    triplets = commutator_triplets(support, ball)
    inner = (triplets[0] < n) & (triplets[1] < n)
    rows, cols, index, diff = (a[inner] for a in triplets)
    # each ascent solve starts from the previous top vector (see _top_singular)
    v_last = None

    def evaluate(alpha, tol=_ASCENT_TOL):
        nonlocal v_last
        T = sp.coo_matrix((alpha[index] * diff, (rows, cols)), shape=(n, n))
        sigma, u, v_last, _, _ = _top_singular(T, tol, _NORM_MAX_ITER, start=v_last)
        n_val = complex(np.dot(alpha, c))
        return abs(n_val) / sigma if sigma > 0 else 0.0, sigma, u, v_last, n_val

    order = np.argsort(-np.abs(c) / lengths, kind="stable")
    starts = [int(i) for i in order if abs(c[i]) > 1e-14][:_RESTARTS]
    inverse = ball.find_rows(group.inv_rows(support)) - 1
    if np.max(np.abs(c[inverse] - np.conj(c))) <= 1e-12:
        starts = [s for k, s in enumerate(starts) if inverse[s] not in starts[:k]]

    best_f = -1.0
    best_alpha = None
    restart_log = []
    for start in starts:
        v_last = None
        alpha = np.zeros(m, dtype=complex)
        alpha[start] = 1.0
        f_val, sigma, u, v, n_val = evaluate(alpha)
        converged = False
        t_prev = 1.0
        for iters_done in range(1, _MAX_STEPS + 1):
            if abs(n_val) < 1e-300 or sigma <= 0:
                break
            phase = n_val / abs(n_val)
            grad_num = phase * np.conj(c)
            terms = np.conj(u[rows]) * diff * v[cols]
            grad_sigma = (np.bincount(index, terms.real, m)
                          - 1j * np.bincount(index, terms.imag, m))
            grad = (grad_num - f_val * grad_sigma) / sigma
            gnorm = float(np.linalg.norm(grad))
            if gnorm < 1e-15:
                converged = True
                break
            # at a degenerate top singular value the one-pair subgradient can
            # fail to be an ascent direction; fall back to numerator-driven
            # probes before giving up
            directions = [(grad / gnorm, 30),
                          (phase * np.conj(c) / lengths ** 2, 15),
                          (phase * np.conj(c), 15)]
            accepted = None
            for direction, halvings in directions:
                dnorm = float(np.linalg.norm(direction))
                if dnorm < 1e-15:
                    continue
                step = direction / dnorm
                t = min(1.0, 8.0 * t_prev)
                for _ in range(halvings):
                    cand = alpha + t * step
                    cand /= np.linalg.norm(cand)
                    f2, s2, u2, v2, n2 = evaluate(cand)
                    if f2 > f_val * (1.0 + 1e-14):
                        accepted = (cand, f2, s2, u2, v2, n2)
                        break
                    t /= 2.0
                if accepted is not None:
                    break
            if accepted is None:
                converged = True
                break
            t_prev = t
            rel = (accepted[1] - f_val) / max(f_val, 1e-300)
            alpha, f_val, sigma, u, v, n_val = accepted
            if rel < _FTOL:
                converged = True
                break
        restart_log.append({"start_index": start, "iterations": iters_done,
                            "converged": converged, "ratio": f_val})
        if f_val > best_f:
            best_f = f_val
            best_alpha = alpha

    # re-evaluate the winner cold (LAPACK up to the dense cutoff, Lanczos from
    # the seeded start above it) at the strict tolerance so the reported
    # sigma is not an ascent artifact
    v_last = None
    best_f, _, _, _, best_n = evaluate(best_alpha, tol=_NORM_TOL)

    nz = np.abs(best_alpha) > 1e-14
    rows_2R, cols_2R, index_2R, diff_2R = (a[nz[triplets[2]]] for a in triplets)
    T_big = sp.coo_matrix((best_alpha[index_2R] * diff_2R, (rows_2R, cols_2R)),
                          shape=(len(ball),) * 2)
    sigma_big, _, _, _, _ = _top_singular(T_big, _NORM_TOL, _NORM_MAX_ITER)
    est_big = abs(best_n) / sigma_big if sigma_big > 0 else 0.0
    drift = max(0.0, best_f - est_big)

    return HeuristicResult(best_f, drift, {
        "restarts": len(starts),
        "restart_log": restart_log,
        "estimate_at_drift_radius": est_big,
        "support_radius": r,
        "truncation_radius": R,
        "drift_radius": 2 * R,
        "coefficients": list(zip(group.from_rows(support[nz]), best_alpha[nz].tolist())),
    })
