"""Word-length balls: closed forms for default generators, a search otherwise.

The distance from the identity in the Cayley graph of a symmetric generating
set is the word length L.  A ball {g : L(g) <= r} lists its elements as int64
rows (see ``groups``), sorted by (length, row) so that the identity is row 0.
So a ball is its growth function, the sizes |B(k)| for k = 0..r: the
elements of length k are at positions |B(k - 1)| to |B(k)| - 1, and every
length, shell size and ball size comes from the sizes by one formula, for
every generating set.  The rows are built on first read, and ``elements``
is a view built from the rows on first use.  A ball holds its one exact
lookup, ``find_rows``, which every caller that places rows in it uses.

A group whose generating set equals its family's default set, in any order,
has its ball given by the closed form of L.  Its cap is checked against the
exact ball size before anything is built; then its sizes come from
``Group.default_ball_sizes``, its rows from ``Group.default_ball``, which
lists them in ball order, and its ``find_rows`` is ``Group._locate``, which
finds a row's position without them.  So a caller that only looks rows up
or reads lengths, such as a bracket of two finitely supported states or of
``one`` or a character and such a state, builds none, and no closed-form
ball builds a table of row keys.  Every other
generating set has no known closed form, so ``_search_ball`` finds its
shells by multiplying whole shells with the family's ``mul_rows``: the
generators were checked when the group was built, so every product of ball
rows belongs to the group.  Its sizes are the search's shell boundaries, and
its ``find_rows`` is a sorted-key search (``groups.RowIndex``), which sorts
on the first lookup.  The search also runs on default sets, as the tests'
oracle for the closed forms.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from .errors import ResourceError
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
    """All elements of word length <= radius, given by the ball sizes sizes[k] = |B(k)|.

    The elements are listed by (length, row), so row 0 is the identity, row 1
    the least generator, and the elements of length k sit at positions
    sizes[k - 1]..sizes[k] - 1: every length comes from the int64 sizes,
    k = 0..radius.  The (n, row_width) int64 rows are built on first read,
    by ``listing()``.  ``find_rows`` gives the ball index of each row of a
    (..., row_width) int64 array, -1 outside the ball.
    """

    group: Group
    radius: int
    sizes: np.ndarray
    listing: Callable[[], np.ndarray]
    find_rows: Callable[[np.ndarray], np.ndarray]

    def __len__(self) -> int:
        return int(self.sizes[-1])

    @cached_property
    def rows(self) -> np.ndarray:
        return self.listing()

    @cached_property
    def elements(self) -> tuple[GroupElement, ...]:
        """The rows as canonical elements, in ball order."""
        return tuple(self.group.from_rows(self.rows))

    def lengths_at(self, positions: np.ndarray) -> np.ndarray:
        """Word length at each ball position p: the number of k with |B(k)| <= p."""
        return np.searchsorted(self.sizes, positions, side="right")

    @cached_property
    def lengths(self) -> np.ndarray:
        """Word length at every ball position, each shell's length repeated over the shell."""
        return np.repeat(np.arange(self.radius + 1, dtype=np.int64), self.shell_sizes)

    @property
    def shell_sizes(self) -> np.ndarray:
        return np.diff(self.sizes, prepend=0)


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
    return Ball(group, radius, group.default_ball_sizes(np.arange(radius + 1, dtype=np.int64)),
                partial(group.default_ball, radius), partial(group._locate, radius=radius))


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
        # column by column, because numpy reduces a short last axis slowly
        first = np.ones(len(pool), dtype=bool)
        first[1:] = np.logical_or.reduce([pool[1:, j] != pool[:-1, j]
                                          for j in range(group.row_width)])
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
    # a ball that stops growing keeps its size out to the radius
    sizes = np.pad(np.array(starts[1:], dtype=np.int64), (0, radius - k), mode="edge")
    return Ball(group, radius, sizes, lambda: rows, RowIndex(rows).find)


@dataclass
class GrowthReport:
    """Least-squares linear fit of cumulative ball sizes; the shell bound is Group.shell_bound."""

    fit_k: float
    fit_l: float
    residual: float


def growth_fit(ball: Ball) -> GrowthReport:
    """Fit #ball(c) ~ k*c + l over c = 0..radius and report the fit residual."""
    if ball.radius < 3:
        raise ValueError("growth fit needs radius >= 3")
    c = np.arange(ball.radius + 1, dtype=float)
    fit_k, fit_l = np.polyfit(c, ball.sizes, 1)
    residual = float(np.sqrt(np.sum((ball.sizes - (fit_k * c + fit_l)) ** 2)))
    return GrowthReport(float(fit_k), float(fit_l), residual)


def shell_table(ball: Ball) -> list[list]:
    """Rows [k, |B(k)|, S_k, sum_{1<=j<=k} S_j/j^2, B/k] for k = 0..radius.

    The partial sum adds S_j / j^2 shell by shell, from 0.0.  The tail bound
    B/k uses the group's analytic per-shell size bound B (Group.shell_bound);
    it is None without one, and at k = 0.
    """
    sizes, shells = ball.sizes.tolist(), ball.shell_sizes.tolist()
    bound = ball.group.shell_bound
    rows = []
    partial_sum = 0.0
    for k in range(ball.radius + 1):
        if k >= 1:
            partial_sum += shells[k] / k ** 2
        tail = bound / k if (bound is not None and k >= 1) else None
        rows.append([k, sizes[k], shells[k], partial_sum, tail])
    return rows


def square_sum_evidence(ball: Ball) -> tuple[float, Optional[float]]:
    """Partial sum of 1/L(g)^2 over the ball, with a crude tail bound when available.

    Both are the last row of ``shell_table``.  Without a tail bound the
    partial sum itself is the convergence/divergence evidence.
    """
    if ball.radius < 1:
        raise ValueError("square-sum evidence needs radius >= 1")
    *_, partial, tail = shell_table(ball)[-1]
    return partial, tail
