"""State-space metrics from length-weighted coefficient differences.

One pass over the ball (``connes_bracket``) gives two metrics, each exact on
the ball with a rigorous tail:

* d_inf: the sup of |phi(lam_g) - psi(lam_g)| / L(g) over g != e,
* d_2:   the l2 analogue, finite whenever shells are boundedly sized,

with tails from the states' outside bounds e >= |phi(lam_g)| off the ball:
max(1, |value|) over a state's keys outside it.  Its one result, a
``Bracket``, holds both as fields and encloses the Connes metric d (sup of
|phi(a) - psi(a)| over a with commutator norm <= 1): d_inf.lo <= d <= d_2.hi.
Every state is a key table over a background (``StateRep``): 0 for the
finite kinds, of modulus 1 for ``one`` and the characters
(``StateRep.unimodular``), whose tables are empty.  So the pass reads c_g
(``_differences``) at as few ball positions as the pair allows, and looks
the keys of both states up in one ``Ball.find_rows`` call, which also
gives the outside bounds:

* two unimodular states: every position;
* any other pair: the union of the keys' positions, where c is each state's
  table value plus its background, subtracted, with a unimodular background
  evaluated at those rows alone.  Off the keys c vanishes, or, when exactly
  one state is unimodular, |c_g| = 1, and the rest comes from the shell
  sizes S_k: shell k adds (S_k - K_k) / k^2 to the l2 sum, K_k its keys,
  and the least shell with a position off the keys adds 1 / k to the sup.

So on a default generating set the second kind builds no rows and no array
of ball length.  For two finite states and for two unimodular states the
endpoints are those of a pass over every position, bit for bit: the sup is
order-free, and the l2 sum adds its shells in ball order, where exact zeros
change no partial sum.  With one unimodular state a shell's unit terms are
added as one quotient, so the last bits can differ from such a pass.

The bracket is the only certified output; connes_heuristic additionally
ascends the ratio |sum alpha_g c_g| / sigma(alpha) for a point estimate of
d, with every truncated commutator built from one triplet list into one
CSR structure, whose values alone change, and mirrored restarts skipped.
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


@dataclass(frozen=True)
class MetricBracket:
    """Certified interval [lo, hi] for one metric; tail_bound is None when no tail is proven."""

    lo: float
    hi: float
    tail_bound: Optional[float]


@dataclass(frozen=True)
class Bracket:
    """Certified enclosure d_inf.lo <= d <= d_2.hi of the Connes metric d."""

    d_inf: MetricBracket
    d_2: MetricBracket

    @property
    def lo(self) -> float:
        return self.d_inf.lo

    @property
    def hi(self) -> float:
        return self.d_2.hi


def delta_coeffs(phi: StateRep, psi: StateRep, ball: Ball) -> np.ndarray:
    """c_g = phi(lam_g) - psi(lam_g), c_e (row 0) pinned to 0; GroupError for a foreign law."""
    phi.check_ball(ball)
    psi.check_ball(ball)
    c = phi.coeff_array(ball) - psi.coeff_array(ball)
    c[0] = 0.0
    return c


def _differences(phi: StateRep, psi: StateRep, ball: Ball
                 ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """(outside, lengths, c, units): c_g = phi(lam_g) - psi(lam_g) on the ball, g != e.

    c is listed, with its lengths, at the positions where it is read one by
    one; units[k] counts the other positions of shell k, where |c_g| = 1;
    c_g = 0 at every position neither listed nor counted.  Each state is a
    key table over a background (see StateRep), and the pair is read as:

    * two unimodular states: every position, in ball order; no units;
    * any other pair: the union of the keys' positions, in ball order, with
      each state's table value there (or 0) plus its background subtracted.
      Off the keys c_g is the unimodular background, if one state has it:
      then units[k] = S_k - K_k, the shell's size less its listed positions;
      otherwise c vanishes there, and there are no units.

    The keys of both states are looked up in one ``find_rows`` call, and an
    empty table in none.  outside = e_phi + e_psi bounds |c_g| off the ball,
    with each e = max(1, |value|) over that state's keys outside it.
    GroupError for a foreign law.
    """
    phi.check_ball(ball)
    psi.check_ball(ball)
    no_units = np.zeros(0, dtype=np.int64)
    if phi.unimodular and psi.unimodular:  # empty tables: e = 1 each
        return 2.0, ball.lengths[1:], delta_coeffs(phi, psi, ball)[1:], no_units
    keys = np.concatenate([phi._rows, psi._rows])
    values = np.concatenate([phi._values, psi._values])
    # side 0 holds phi's keys and side 1 psi's; a state's keys have distinct positions
    side = np.repeat([0, 1], [len(phi._values), len(psi._values)])
    found = ball.find_rows(keys) if len(keys) else np.zeros(0, dtype=np.int64)
    e_phi, e_psi = (float(np.abs(values[(found < 0) & (side == k)]).max(initial=1.0))
                    for k in (0, 1))
    hit = found > 0  # in the ball, and not the identity
    positions, slot = np.unique(found[hit], return_inverse=True)
    terms = np.zeros((2, len(positions)), dtype=complex)
    terms[side[hit], slot] = values[hit]
    lengths = ball.lengths_at(positions)
    if not (phi.unimodular or psi.unimodular):
        return e_phi + e_psi, lengths, terms[0] - terms[1], no_units
    # the row at each listed position, from the keys that sit there
    rows = np.empty((len(positions), ball.group.row_width), dtype=np.int64)
    rows[slot] = keys[hit]
    for k, state in enumerate((phi, psi)):
        if state.unimodular:
            terms[k] += state.background(rows)
    units = ball.shell_sizes - np.bincount(lengths, minlength=ball.radius + 1)
    units[0] = 0
    return e_phi + e_psi, lengths, terms[0] - terms[1], units


def connes_bracket(phi: StateRep, psi: StateRep, ball: Ball) -> Bracket:
    """d_inf and d_2 on the ball in one pass, with their tails outside it.

    The pass reads the terms of _differences: every position for two
    unimodular states, the union of the keys otherwise, with the ball's
    shell sizes when exactly one state is unimodular.  On a default
    generating set the second kind builds no rows and no array of ball
    length.  A listed term adds |c_g| / L(g) to the sup and its square to
    the l2 sum; the units of shell k, where |c_g| = 1, add 1 / k to the sup
    for the least such k, and units[k] / k^2 to the sum.

    Outside the ball |c_g| <= E = e_phi + e_psi (from _differences) and
    L(g) >= r + 1, so d_inf gains at most E / (r + 1).  d_2's tail E^2 B / r
    needs an analytic shell-size bound B; without one d_2.hi is infinite.
    GroupError for a foreign law, then ValueError for a ball of radius 0.
    """
    outside, lengths, c, units = _differences(phi, psi, ball)
    if ball.radius < 1:
        raise ValueError("the bracket needs ball radius >= 1")
    ratios = np.abs(c) / lengths
    # the least shell k with units gives 1 / k
    unit_shells = np.flatnonzero(units)
    nearest = 1.0 / unit_shells[0] if unit_shells.size else 0.0
    lo = float(max(ratios.max(initial=0.0), nearest))
    tail = outside / (ball.radius + 1)
    lower = MetricBracket(lo, max(lo, tail), tail)
    # np.cumsum adds the shells one by one, in order; np.sum adds pairwise and
    # would change the last bits of the d_2 endpoints in every report.  The
    # bins stop at the longest length read, or at the radius with units (at
    # least one bin, for no terms; with no terms bincount's bins are ints)
    squares = np.bincount(lengths, ratios ** 2, max(len(units), 1)).astype(float, copy=False)
    squares[1:len(units)] += units[1:] / np.arange(1, len(units)) ** 2
    lo_2 = float(np.sqrt(np.cumsum(squares)[-1]))
    bound = ball.group.shell_bound
    if bound is None:
        return Bracket(lower, MetricBracket(lo_2, math.inf, None))
    # for two states (outside = 2) this is 4.0 * bound / r, bit for bit
    tail_2 = outside ** 2 * bound / ball.radius
    return Bracket(lower, MetricBracket(lo_2, float(np.sqrt(lo_2 ** 2 + tail_2)), tail_2))


def d_inf(phi: StateRep, psi: StateRep, ball: Ball) -> MetricBracket:
    """Sup metric, exact on the ball with its tail: connes_bracket(...).d_inf."""
    return connes_bracket(phi, psi, ball).d_inf


def d_2(phi: StateRep, psi: StateRep, ball: Ball) -> MetricBracket:
    """l2 metric, exact on the ball; infinite above without a shell bound: connes_bracket(...).d_2."""
    return connes_bracket(phi, psi, ball).d_2


# ---------------------------------------------------------------------------
# heuristic point estimate
# ---------------------------------------------------------------------------

@dataclass
class HeuristicResult:
    """Uncertified point estimate of the Connes metric from ratio ascent.

    diagnostics holds the restart_log (one entry per ascent), and for pairs
    that differ the estimate_at_drift_radius.
    """

    estimate: float
    sigma_drift: float
    diagnostics: dict = field(default_factory=dict)


# at most 4 singleton starts of at most 500 steps, each stopped by a relative
# gain below 1e-8; sigma to 1e-7 while ascending, to 1e-9 for reported values
_RESTARTS, _MAX_STEPS, _FTOL = 4, 500, 1e-8
_ASCENT_TOL, _NORM_TOL = 1e-7, 1e-9


def connes_heuristic(phi: StateRep, psi: StateRep, group: Group,
                     r: int, R: int) -> HeuristicResult:
    """Ascend |sum alpha_g c_g| / sigma(alpha) over coefficients on a support around ball(r).

    sigma(alpha) is the norm of T(alpha), the commutator [D, sum alpha_g lam_g]
    compressed to ball(R).  It is a lower bound of the true constraint, so the
    estimate is not certified; the sigma drift on re-evaluation at radius 2R
    is reported as a stability check.  ball(2R) is enumerated first (its cap
    raises ResourceError even for agreeing states), and ball(r) and ball(R)
    are its prefixes.  The support is the rows of ball(r) \\ {e}, and also g
    and g^-1, so that it stays inverse-closed, when the argmax g of
    |c_g| / L(g) over ball(R) \\ {e} lies beyond ball(r).  Its one list of
    commutator triplets on ball(2R) gives T(alpha) (the triplets inside
    ball(R), over which the subgradients u^H [D, lam_g] v are one sum) and
    the drift operator (those of the winner's nonzero coefficients).

    Restarts begin at the singletons with the largest |c_g| / L(g), that g
    first.  For L(g) <= R, ||T(lam_g)|| = L(g): [D, lam_g] takes each h to gh
    with weight L(gh) - L(h), of modulus at most L(g) and equal to it at
    h = e.  So the first iterate, and with it the estimate, attains the d_inf
    lower bound on ball(R).  When c is hermitian (c_{g^-1} = conj(c_g)), a start whose inverse is already a
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
    n_r, n = ball.sizes[r], ball.sizes[R]
    c = delta_coeffs(phi, psi, ball)[:n]
    positions = np.arange(1, n_r)
    top = 1 + int(np.argmax(np.abs(c[1:]) / ball.lengths[1:n]))
    if top >= n_r:  # beyond ball(r): g and g^-1 join the support
        positions = np.union1d(positions, [top, *ball.find_rows(
            group.inv_rows(ball.rows[top:top + 1]))])
    support, c = ball.rows[positions], c[positions]
    lengths = ball.lengths[positions].astype(float)
    if len(support) == 0 or float(np.max(np.abs(c), initial=0.0)) < 1e-14:
        return HeuristicResult(0.0, 0.0, {"restart_log": []})
    m = len(support)
    triplets = commutator_triplets(support, ball)
    inner = (triplets[0] < n) & (triplets[1] < n)
    rows, cols, index, diff = (a[inner] for a in triplets)
    # one CSR structure for every T(alpha), with the entries in the order that
    # coo_matrix(...).tocsr() gives them: each triplet's slot is read back
    # from a matrix whose data are the triplet numbers; only the data change
    T = sp.coo_matrix((np.arange(1, len(rows) + 1, dtype=complex), (rows, cols)),
                      shape=(n, n)).tocsr()
    slot = T.data.real.astype(np.int64) - 1
    index_T, diff_T = index[slot], diff[slot]
    # each ascent solve starts from the previous top vector (see _top_singular)
    v_last = None

    def evaluate(alpha, tol=_ASCENT_TOL):
        nonlocal v_last
        np.multiply(alpha[index_T], diff_T, out=T.data)
        sigma, u, v_last, _, _ = _top_singular(T, tol, start=v_last)
        n_val = complex(np.dot(alpha, c))
        return abs(n_val) / sigma if sigma > 0 else 0.0, sigma, u, v_last, n_val

    order = np.argsort(-np.abs(c) / lengths, kind="stable")
    starts = [int(i) for i in order if abs(c[i]) > 1e-14][:_RESTARTS]
    inverse = np.searchsorted(positions, ball.find_rows(group.inv_rows(support)))
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
    sigma_big, _, _, _, _ = _top_singular(T_big, _NORM_TOL)
    est_big = abs(best_n) / sigma_big if sigma_big > 0 else 0.0
    drift = max(0.0, best_f - est_big)

    return HeuristicResult(best_f, drift, {"restart_log": restart_log,
                                           "estimate_at_drift_radius": est_big})
