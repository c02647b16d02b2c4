"""Word-length balls via breadth-first search on the Cayley graph.

The BFS distance from the identity in the Cayley graph of a symmetric
generating set is the word length L.  Balls {g : L(g) <= r} are enumerated
shell by shell with a deterministic ordering, and carry exact lengths for
every element.  The search multiplies with the family's raw ``_mul``: the
generators were checked when the group was built, so every product of ball
elements belongs to the group.  It stays a Python loop over canonical
elements; a ball also has its elements as one cached int64 row array
(``rows()``) with an exact row lookup (``find_rows``) for vectorised
callers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BallRadiusError, ResourceError
from .groups import Group, GroupElement, RowIndex, element_sort_key

DEFAULT_MAX_BALL = 200_000


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


@dataclass
class Ball:
    """All elements of word length <= radius, sorted by (length, element order)."""

    group: Group
    radius: int
    elements: tuple[GroupElement, ...]
    lengths: np.ndarray
    index_of: dict[GroupElement, int]
    _rows: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _row_index: Optional[RowIndex] = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, g: GroupElement) -> int:
        idx = self.index_of.get(g)
        if idx is None:
            raise BallRadiusError(
                f"element {g} lies outside the enumerated ball; "
                f"requires radius >= {self.radius + 1}")
        return idx

    def length(self, g: GroupElement) -> int:
        return int(self.lengths[self.index(g)])

    @property
    def shell_sizes(self) -> np.ndarray:
        return np.bincount(self.lengths, minlength=self.radius + 1)

    def rows(self) -> np.ndarray:
        """Elements as an (n, row_width) int64 array of rows, in ball order; cached."""
        if self._rows is None:
            self._rows = self.group.to_rows(self.elements)
        return self._rows

    def find_rows(self, rows: np.ndarray) -> np.ndarray:
        """Ball index of each row of a (..., row_width) array, -1 outside the ball."""
        if self._row_index is None:
            self._row_index = RowIndex(self.rows())
        return self._row_index.find(rows)

    def z_matrix(self) -> np.ndarray:
        """Integer parts stacked as an (n, rank) array; a view of rows()."""
        return self.rows()[:, :len(self.group.identity.z)]


def enumerate_ball(group: Group, radius: int,
                   max_elements: Optional[int] = None) -> Ball:
    """BFS enumeration of the ball of the given radius around the identity."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    cap = max_elements if max_elements is not None else max_ball_elements()
    if cap < 1:
        raise ResourceError("ball size cap must be >= 1")
    elements: list[GroupElement] = [group.identity]
    lengths: list[int] = [0]
    seen = {group.identity}
    frontier = [group.identity]
    mul = group._mul
    for k in range(1, radius + 1):
        nxt = set()
        for g in frontier:
            for s in group.generators:
                h = mul(g, s)
                if h not in seen:
                    nxt.add(h)
        shell = sorted(nxt, key=element_sort_key)
        if len(elements) + len(shell) > cap:
            raise ResourceError(
                f"ball would exceed the cap of {cap} elements at radius {k}")
        seen.update(shell)
        elements.extend(shell)
        lengths.extend([k] * len(shell))
        frontier = shell
        if not shell:
            break
    index_of = {g: i for i, g in enumerate(elements)}
    return Ball(group, radius, tuple(elements),
                np.array(lengths, dtype=np.int64), index_of)


@dataclass
class GrowthReport:
    """Least-squares linear fit of cumulative ball sizes against the radius."""

    shell_sizes: np.ndarray
    fit_k: float
    fit_l: float
    residual: float
    shell_bound: Optional[int]
    shell_bound_provenance: Optional[str]


def growth_fit(ball: Ball) -> GrowthReport:
    """Fit #ball(c) ~ k*c + l over c = 0..radius and report the fit residual."""
    if ball.radius < 3:
        raise ValueError("growth fit needs radius >= 3")
    sizes = ball.shell_sizes
    cumulative = np.cumsum(sizes)
    c = np.arange(ball.radius + 1, dtype=float)
    fit_k, fit_l = np.polyfit(c, cumulative, 1)
    residual = float(np.sqrt(np.sum((cumulative - (fit_k * c + fit_l)) ** 2)))
    bound = ball.group.shell_bound
    return GrowthReport(sizes, float(fit_k), float(fit_l), residual,
                        bound, "analytic" if bound is not None else None)


def square_sum_evidence(ball: Ball) -> tuple[float, Optional[float]]:
    """Partial sum of 1/L(g)^2 over the ball, with a crude tail bound when available.

    The tail bound B/r uses an analytic per-shell size bound B; without one the
    partial sum itself is the convergence/divergence evidence.
    """
    if ball.radius < 1:
        raise ValueError("square-sum evidence needs radius >= 1")
    lengths = ball.lengths[ball.lengths > 0].astype(float)
    partial = float(np.sum(1.0 / lengths ** 2))
    bound = ball.group.shell_bound
    tail = bound / ball.radius if bound is not None else None
    return partial, tail
