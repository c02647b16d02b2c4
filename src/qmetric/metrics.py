"""State-space metrics from length-weighted coefficient differences.

Two metrics are computed exactly on a ball with rigorous tails:

* d_inf: the sup of |phi(lam_g) - psi(lam_g)| / L(g) over g != e,
* d_2:   the l2 analogue, finite whenever shells are boundedly sized.

They enclose the Connes metric d (sup of |phi(a) - psi(a)| over a with
commutator norm <= 1): d_inf <= d <= d_2.  The bracket is the only certified
output; connes_heuristic additionally ascends the ratio
|sum alpha_g c_g| / sigma(alpha) for a point estimate of d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .groups import Group
from .opalgebra import _DENSE_CUTOFF, AlgebraElement, _top_singular, commutator_matrix
from .states import StateRep
from .wordlength import Ball, enumerate_ball


@dataclass
class MetricBracket:
    """Certified interval [lo, hi] for a metric value, with diagnostics."""

    lo: float
    hi: float
    ball_radius: int
    tail_bound: Optional[float]
    diagnostics: dict = field(default_factory=dict)


def delta_coeffs(phi: StateRep, psi: StateRep, ball: Ball) -> np.ndarray:
    """Coefficient differences c_g = phi(lam_g) - psi(lam_g); c_e (row 0) is pinned to 0."""
    c = phi.coeff_array(ball) - psi.coeff_array(ball)
    c[0] = 0.0
    return c


def _sup_bracket(c: np.ndarray, ball: Ball) -> MetricBracket:
    if ball.radius < 1:
        raise ValueError("d_inf needs ball radius >= 1")
    lengths = ball.lengths
    ratios = np.abs(c[1:]) / lengths[1:]
    best = int(np.argmax(ratios))
    lo = float(ratios[best])
    tail = 2.0 / (ball.radius + 1)
    return MetricBracket(lo, max(lo, tail), ball.radius, tail, {
        "argmax": ball.group.from_rows(ball.rows[best + 1])[0],
        "argmax_length": int(lengths[best + 1]),
    })


def _l2_bracket(c: np.ndarray, ball: Ball) -> MetricBracket:
    if ball.radius < 1:
        raise ValueError("d_2 needs ball radius >= 1")
    bound = ball.group.shell_bound
    lengths = ball.lengths
    weights = (np.abs(c[1:]) / lengths[1:]) ** 2
    by_radius = np.zeros(ball.radius + 1)
    np.add.at(by_radius, lengths[1:], weights)
    partials = np.sqrt(np.cumsum(by_radius))
    lo = float(partials[-1])
    diagnostics = {"partial_by_radius": partials.tolist(), "shell_bound": bound}
    if bound is None:
        return MetricBracket(lo, math.inf, ball.radius, None, diagnostics)
    tail = 4.0 * bound / ball.radius
    return MetricBracket(lo, float(np.sqrt(lo ** 2 + tail)), ball.radius,
                         tail, diagnostics)


def d_inf(phi: StateRep, psi: StateRep, ball: Ball) -> MetricBracket:
    """Sup metric, exact on the ball; the tail uses |c_g| <= 2 and L >= r+1 outside."""
    return _sup_bracket(delta_coeffs(phi, psi, ball), ball)


def d_2(phi: StateRep, psi: StateRep, ball: Ball) -> MetricBracket:
    """l2 metric; certified upper bound requires an analytic shell-size bound.

    Without one the upper endpoint is infinite and the diagnostics record the
    partial sums across sub-radii as divergence evidence.
    """
    return _l2_bracket(delta_coeffs(phi, psi, ball), ball)


def connes_bracket(phi: StateRep, psi: StateRep, ball: Ball) -> MetricBracket:
    """Certified enclosure of the Connes metric: [d_inf.lo, d_2.hi]."""
    c = delta_coeffs(phi, psi, ball)
    lower = _sup_bracket(c, ball)
    upper = _l2_bracket(c, ball)
    return MetricBracket(lower.lo, upper.hi, ball.radius, upper.tail_bound,
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


def _stack_commutators(support, ball) -> list:
    mats = [commutator_matrix(AlgebraElement.lam(g), ball).matrix for g in support]
    if len(ball) <= _DENSE_CUTOFF:
        return [m.toarray() for m in mats]
    return [m.tocsr() for m in mats]


def _combine(mats, alpha):
    acc = None
    for a, m in zip(alpha, mats):
        if a == 0:
            continue
        term = a * m
        acc = term if acc is None else acc + term
    if acc is None:
        acc = 0.0 * mats[0]
    return acc


def connes_heuristic(phi: StateRep, psi: StateRep, group: Group,
                     r: int, R: int, *,
                     restarts: int = 4, max_iter: int = 500,
                     ftol: float = 1e-8, norm_tol: float = 1e-9,
                     norm_max_iter: int = 10_000,
                     drift_factor: int = 2) -> HeuristicResult:
    """Ascend |sum alpha_g c_g| / sigma(alpha) over coefficients on ball(r) \\ {e}.

    sigma(alpha) is the truncated commutator norm on ball(R), a lower bound of
    the true constraint, so the estimate is not certified; the sigma drift on
    re-evaluation at radius drift_factor * R is reported as a stability check.
    Restarts begin at the singletons with the largest |c_g| / L(g), so the
    first iterate already attains the d_inf lower bound on the ball.
    """
    if r < 1:
        raise ValueError("support radius r must be >= 1")
    if R < 2 * r:
        raise ValueError("truncation radius R must be >= 2r")
    ball_r = enumerate_ball(group, r)
    ball_R = enumerate_ball(group, R)
    support = ball_r.elements[1:]
    c = delta_coeffs(phi, psi, ball_r)[1:]
    lengths = ball_r.lengths[1:].astype(float)
    if support == () or float(np.max(np.abs(c), initial=0.0)) < 1e-14:
        return HeuristicResult(0.0, 0.0, {"reason": "states agree on the support ball",
                                          "restarts": 0})
    m = len(support)
    mats = _stack_commutators(support, ball_R)

    # each ascent solve starts from the previous top vector (see _top_singular)
    warm = {"v": None}
    ascent_tol = max(norm_tol, 1e-7)

    def evaluate(alpha, tol=None):
        T = _combine(mats, alpha)
        sigma, u, v, converged, iters = _top_singular(
            T, ascent_tol if tol is None else tol, norm_max_iter, start=warm["v"])
        warm["v"] = v
        n_val = complex(np.dot(alpha, c))
        f = abs(n_val) / sigma if sigma > 0 else 0.0
        return f, sigma, u, v, n_val, converged, iters

    order = np.argsort(-np.abs(c) / lengths, kind="stable")
    starts = [int(i) for i in order if abs(c[i]) > 1e-14][:max(1, restarts)]

    best_f = -1.0
    best_alpha = None
    best_n = 0.0 + 0.0j
    restart_log = []
    for start in starts:
        warm["v"] = None
        alpha = np.zeros(m, dtype=complex)
        alpha[start] = 1.0
        f_val, sigma, u, v, n_val, conv, _ = evaluate(alpha)
        iters_done = 0
        converged = False
        t_prev = 1.0
        for iters_done in range(1, max_iter + 1):
            if abs(n_val) < 1e-300 or sigma <= 0:
                break
            phase = n_val / abs(n_val)
            grad_num = phase * np.conj(c)
            s_vec = np.array([np.vdot(u, mat @ v) for mat in mats])
            grad_sigma = np.conj(s_vec)
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
                    f2, s2, u2, v2, n2, conv2, _ = evaluate(cand)
                    if f2 > f_val * (1.0 + 1e-14):
                        accepted = (cand, f2, s2, u2, v2, n2, conv2)
                        break
                    t /= 2.0
                if accepted is not None:
                    break
            if accepted is None:
                converged = True
                break
            t_prev = t
            rel = (accepted[1] - f_val) / max(f_val, 1e-300)
            alpha, f_val, sigma, u, v, n_val, conv = accepted
            if rel < ftol:
                converged = True
                break
        restart_log.append({"start_index": start, "iterations": iters_done,
                            "converged": converged, "ratio": f_val,
                            "sigma_converged": bool(conv)})
        if f_val > best_f:
            best_f = f_val
            best_alpha = alpha
            best_n = n_val

    # re-evaluate the winner cold (LAPACK on the dense path) at the strict
    # tolerance so the reported sigma is not an ascent artifact
    warm["v"] = None
    best_f, _, _, _, best_n, _, _ = evaluate(best_alpha, tol=norm_tol)

    ball_big = enumerate_ball(group, drift_factor * R)
    nz = [i for i in range(m) if abs(best_alpha[i]) > 1e-14]
    T_big = _combine(_stack_commutators([support[i] for i in nz], ball_big),
                     best_alpha[nz])
    sigma_big, _, _, _, _ = _top_singular(T_big, norm_tol, norm_max_iter)
    est_big = abs(best_n) / sigma_big if sigma_big > 0 else 0.0
    drift = max(0.0, best_f - est_big)

    coeffs = [(support[i], complex(best_alpha[i])) for i in nz]
    return HeuristicResult(best_f, drift, {
        "restarts": len(starts),
        "restart_log": restart_log,
        "estimate_at_drift_radius": est_big,
        "support_radius": r,
        "truncation_radius": R,
        "drift_radius": drift_factor * R,
        "coefficients": coeffs,
    })
