"""Word-length balls on int64 rows: closed forms for default generators, a search otherwise.

The distance from the identity in the Cayley graph of a symmetric generating
set is the word length L.  A ball {g : L(g) <= r} holds the int64 rows of its
elements (see ``groups``), sorted by (length, row) so that the identity is
row 0, and the exact length of each.  Rows are looked up exactly with
``find_rows``; ``elements`` is a view built from the rows on first use.

A group whose generating set equals its family's default set, in any order,
has its ball built from the closed form of L (``Group.default_ball``), and
its cap checked against the exact ball sizes before any row exists.  The
closed form lists the rows already in ball order, shell by shell, and a
row's position is computed from the same closed form
(``Group.default_index``): such a ball sorts nothing and builds no lookup
table.  Every other generating set has no known closed form, so
``_search_ball`` finds its shells by multiplying whole shells with the
family's ``mul_rows``: the generators were checked when the group was built,
so every product of ball rows belongs to the group.  Its rows are looked up
by a sorted-key search (``groups.RowIndex``), built on the first lookup.
The search also runs on default sets, as the tests' oracle for the closed
forms.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional

import numpy as np

from .errors import BallRadiusError, ResourceError
from .groups import Group, GroupElement, RowIndex

DEFAULT_MAX_BALL = 200_000
# largest ball cap: keeps ball coordinates below 2^61 (see groups.Group.to_rows)
_MAX_CAP = 2 ** 30
# most products per search step; the step length m grows while a step stays below it
_STEP_ROWS = 4096


def max_ball_elements() -> int:
    """Ball size cap; overridable through the QMETRIC_MAX_BALL environment variable."""
    raw = os.environ.get("QMETRIC_MAX_BALL")
    if raw is None:
        return DEFAULT_MAX_BALL
    try:
        value = int(raw)
    except ValueError as exc:
        raise ResourceError(f"QMETRIC_MAX_BALL={raw!r} is not an integer") from exc
    if value < 1:
        raise ResourceError("QMETRIC_MAX_BALL must be >= 1")
    return value


@dataclass(eq=False)
class Ball:
    """All elements of word length <= radius as (n, row_width) int64 rows.

    Rows are sorted by (length, row), so row 0 is the identity.
    """

    group: Group
    radius: int
    rows: np.ndarray
    lengths: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def elements(self) -> tuple[GroupElement, ...]:
        """The rows as canonical elements, in ball order."""
        return tuple(self.group.from_rows(self.rows))

    @cached_property
    def _find(self):
        # a searched or hand-built ball sorts its row keys on its first
        # lookup; enumerate_ball sets the closed form of a default ball
        return RowIndex(self.rows).find

    def find_rows(self, rows: np.ndarray) -> np.ndarray:
        """Ball index of each row of a (..., row_width) array, -1 outside the ball."""
        return self._find(rows)

    def index(self, g: GroupElement) -> int:
        idx = int(self.find_rows(self.group.to_rows([g]))[0])
        if idx < 0:
            raise BallRadiusError(
                f"element {g} lies outside the enumerated ball; "
                f"requires radius >= {self.radius + 1}")
        return idx

    def length(self, g: GroupElement) -> int:
        return int(self.lengths[self.index(g)])

    @property
    def shell_sizes(self) -> np.ndarray:
        return np.bincount(self.lengths, minlength=self.radius + 1)


def _cap_error(cap: int, radius: int) -> ResourceError:
    return ResourceError(f"ball would exceed the cap of {cap} elements at radius {radius}")


def enumerate_ball(group: Group, radius: int,
                   max_elements: Optional[int] = None) -> Ball:
    """The ball of the given radius around the identity, of at most the cap's elements.

    The cap is max_elements, or max_ball_elements() when that is None, and
    must lie in [1, 2^30]; a ball above it raises ResourceError naming the
    first radius whose ball is over.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    cap = max_elements if max_elements is not None else max_ball_elements()
    if cap < 1:
        raise ResourceError("ball size cap must be >= 1")
    if cap > _MAX_CAP:
        raise ResourceError(f"ball size cap must be <= 2^30 = {_MAX_CAP}")
    if not group._default_generators:
        return _search_ball(group, radius, cap)
    if group.default_ball_sizes(int(radius)) > cap:
        lo, hi = 0, int(radius)  # the ball of radius lo fits, that of hi does not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if group.default_ball_sizes(mid) > cap:
                hi = mid
            else:
                lo = mid
        raise _cap_error(cap, hi)
    ball = Ball(group, radius, *group.default_ball(radius))
    ball._find = partial(group.default_index, radius=radius)
    return ball


def _search_ball(group: Group, radius: int, cap: int) -> Ball:
    """The ball of the given radius, found shell by shell from the generators.

    With the shells up to S_k found, one step multiplies S_k by the words w
    of the ball B(m) (by the generators when k = 0) and finds the shells
    k+1..k+m.  A geodesic to an element of length k + j passes through S_k,
    so for j <= m some product attains the bound k + L(w) = k + j; and as
    |L(fw) - L(f)| <= L(w), no product lies outside the shells k-m..k+m.  So
    the products that are rows of the shells k-m..k are dropped, and every
    other row keeps its smallest bound, which is its length.  m = 1 is
    breadth-first search; m grows, never past k or radius - k, while a step
    has at most _STEP_ROWS products, so thin shells take many radii a step.
    """
    words = group.to_rows(group.generators)  # the words of step k = 0
    word_lengths = np.ones(len(words), dtype=np.int64)
    rows = group.to_rows([group.identity])
    lengths = np.zeros(1, dtype=np.int64)
    starts = [0, 1]  # shell j is rows[starts[j]:starts[j + 1]]
    k = 0
    while k < radius and starts[k + 1] > starts[k]:
        shell = rows[starts[k]:]
        m = 1
        while m < min(k, radius - k) and len(shell) * (starts[m + 2] - 1) <= _STEP_ROWS:
            m += 1
        if k > 0:
            words, word_lengths = rows[1:starts[m + 1]], lengths[1:starts[m + 1]]
        known = starts[max(k - m, 0)]
        pool = np.concatenate([
            rows[known:],
            group.mul_rows(shell[:, None, :], words).reshape(-1, group.row_width)])
        bound = np.concatenate([lengths[known:], np.tile(k + word_lengths, len(shell))])
        # each row once, at its smallest bound; the known rows come first
        # take and compress, because numpy's fancy indexing gathers (n, k) rows
        # about ten times slower
        order = np.lexsort((bound, *pool.T[::-1]))
        pool, bound = pool.take(order, axis=0), bound.take(order)
        first = np.ones(len(pool), dtype=bool)
        first[1:] = np.any(pool[1:] != pool[:-1], axis=1)
        new = first & (bound > k)
        pool, bound = pool.compress(new, axis=0), bound.compress(new)
        order = np.lexsort((*pool.T[::-1], bound))
        sizes = np.bincount(bound - (k + 1), minlength=m)
        over = np.flatnonzero(len(rows) + np.cumsum(sizes) > cap)
        if over.size:
            raise _cap_error(cap, k + 1 + int(over[0]))
        rows = np.concatenate([rows, pool.take(order, axis=0)])
        lengths = np.concatenate([lengths, bound.take(order)])
        starts.extend((starts[-1] + np.cumsum(sizes)).tolist())
        k += m
    return Ball(group, radius, rows, lengths)


@dataclass
class GrowthReport:
    """Least-squares linear fit of cumulative ball sizes; the shell bound is Group.shell_bound."""

    shell_sizes: np.ndarray
    fit_k: float
    fit_l: float
    residual: float


def growth_fit(ball: Ball) -> GrowthReport:
    """Fit #ball(c) ~ k*c + l over c = 0..radius and report the fit residual."""
    if ball.radius < 3:
        raise ValueError("growth fit needs radius >= 3")
    sizes = ball.shell_sizes
    cumulative = np.cumsum(sizes)
    c = np.arange(ball.radius + 1, dtype=float)
    fit_k, fit_l = np.polyfit(c, cumulative, 1)
    residual = float(np.sqrt(np.sum((cumulative - (fit_k * c + fit_l)) ** 2)))
    return GrowthReport(sizes, float(fit_k), float(fit_l), residual)


def square_sum_evidence(ball: Ball) -> tuple[float, Optional[float]]:
    """Partial sum of 1/L(g)^2 over the ball, with a crude tail bound when available.

    It adds S_k / k^2 shell by shell, as the rows of ``ball`` do, so it is
    their last partial sum bit for bit.  The tail bound B/r uses an analytic
    per-shell size bound B; without one the partial sum itself is the
    convergence/divergence evidence.
    """
    if ball.radius < 1:
        raise ValueError("square-sum evidence needs radius >= 1")
    k = np.arange(1, ball.radius + 1)
    partial = float(np.cumsum(ball.shell_sizes[1:] / k ** 2)[-1])
    bound = ball.group.shell_bound
    tail = bound / ball.radius if bound is not None else None
    return partial, tail
