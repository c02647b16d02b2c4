"""State representations on the reduced group C*-algebra.

Every metric in this package depends on a state only through its coefficient
function g -> phi(lam_g): ``coeff_array`` evaluates it over the int64 rows of
a ball (see ``groups``), and ``outside_bound`` bounds |phi(lam_g)| outside
the ball by e_phi >= 1.  The constant positive-definite function 1 and the
characters of free abelian groups are evaluated in closed form, e_phi = 1,
at any int64 rows by ``coeff_rows``, of which ``coeff_array`` is the value
at the ball's rows (``one`` skips the rows: its value is 1 everywhere).
The other four kinds are stored as the table of their finitely supported
coefficients.  A table is zero outside its keys, so the state is defined at
every element of the group, as a state of C*_r(G) must be; e_phi is
max(1, |value|) over keys outside the ball, and ``coeff_array`` looks each
key up in the ball.  The kinds:

* the trace: {e: 1},
* explicit tables (allowed to fail positivity; see pd_check), with e -> 1,
* vector states <lam_g xi, xi> for finitely supported unit vectors xi: the
  convolution conj(xi) * conj(xi)^*,
* trace-bounded states with density rho = b*b / tau(b*b): {g^-1: rho(g)}.

``pd_check`` decides positivity on the whole group, not on one ball: from
the Fourier symbol of a table along the Z part it proves, up to a slack of
_PD_TOL, a lower bound on the least eigenvalue of every Gram matrix
phi(g_i^-1 g_j).  Its work is capped (ResourceError), which refuses tables
with keys far out, beyond int64 or not.  The closed-form kinds are
characters, so their Gram matrices are rank one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, GroupError, ResourceError, StateError, check_fields
from .groups import FreeAbelian, Group, GroupElement, RowIndex, decode_element
from .opalgebra import AlgebraElement, conv_mul, norm_lower, op_matrix, star, trace_coeff
from .wordlength import Ball


class StateRep:
    """Base state evaluator; subclasses implement coeff_array(ball)."""

    def __init__(self, group: Group):
        self.group = group

    def coeff_array(self, ball: Ball) -> np.ndarray:
        """Coefficients over a ball, in ball order."""
        raise NotImplementedError

    def outside_bound(self, ball: Ball) -> float:
        """A bound e_phi >= 1 on |phi(lam_g)| for every g outside the ball."""
        return 1.0

    def check_ball(self, ball: Ball) -> None:
        """GroupError unless the ball's group has this state's group law (Group.law)."""
        if self.group.law != ball.group.law:
            raise GroupError(f"a state of {_law_name(self.group)} cannot be evaluated "
                             f"on a ball of {_law_name(ball.group)}")


def _law_name(group: Group) -> str:
    family, arg = group.law
    return f"{family}(rank={arg})" if isinstance(arg, int) else f"{family}(|F|={arg.order})"


class OneState(StateRep):
    """The state induced by the constant positive-definite function 1."""

    def coeff_array(self, ball: Ball) -> np.ndarray:
        return np.ones(len(ball), dtype=complex)

    def coeff_rows(self, rows: np.ndarray) -> np.ndarray:
        """Coefficients at an (n, row_width) int64 row array: all 1."""
        return np.ones(len(rows), dtype=complex)


class CharacterState(StateRep):
    """Character of a free abelian group: g -> prod z_i^(m_i) with |z_i| = 1."""

    def __init__(self, group: Group, z: Sequence[complex]):
        if not isinstance(group, FreeAbelian):
            raise StateError("character states require a free abelian group")
        if len(z) != group.rank:
            raise StateError(f"character needs {group.rank} parameters, got {len(z)}")
        z = np.asarray(z, dtype=complex)
        if np.any(np.abs(np.abs(z) - 1.0) > 1e-9):
            raise StateError("character parameters must lie on the unit circle")
        super().__init__(group)
        self.theta = np.angle(z)

    def coeff_array(self, ball: Ball) -> np.ndarray:
        return self.coeff_rows(ball.rows)

    def coeff_rows(self, rows: np.ndarray) -> np.ndarray:
        """Coefficients at an (n, rank) int64 row array."""
        return np.exp(1j * (rows @ self.theta))


class FiniteState(StateRep):
    """State whose coefficients are a finite table, extended by 0 elsewhere.

    The keys are checked here as they become rows (GroupError for a foreign
    key).  Vector and density states check their input before that, in
    ``star`` and ``conv_mul``, which check every factor: a vector state its
    support twice and the support's inverses once, a density state b twice,
    b's inverses once and rho's keys once.
    """

    def __init__(self, group: Group, table: dict[GroupElement, complex]):
        super().__init__(group)
        self._rows = group.to_rows(table)
        self._values = np.array(list(table.values()), dtype=complex)
        self._found = None  # (ball, _positions(ball)) of the last ball looked up

    def coeff_array(self, ball: Ball) -> np.ndarray:
        """Coefficients over a ball, in ball order: the table scattered into zeros.

        Each key is looked up in the ball, not each ball row in the table.
        """
        pos = self._positions(ball)
        hit = pos >= 0
        out = np.zeros(len(ball), dtype=complex)
        out[pos[hit]] = self._values[hit]
        return out

    def outside_bound(self, ball: Ball) -> float:
        """max(1, |value|) over the keys outside the ball."""
        outside = self._values[self._positions(ball) < 0]
        return float(np.abs(outside).max(initial=1.0))

    def _positions(self, ball: Ball) -> np.ndarray:
        """Ball index of each key, -1 outside; the lookup on the last ball is kept."""
        if self._found is None or self._found[0] is not ball:
            self._found = (ball, ball.find_rows(self._rows))
        return self._found[1]


class TraceState(FiniteState):
    def __init__(self, group: Group):
        super().__init__(group, {group.identity: 1.0 + 0.0j})


class TableState(FiniteState):
    """Explicit coefficient table; it may violate positivity (see pd_check)."""

    def __init__(self, group: Group, entries: Mapping[GroupElement, complex]):
        entries = {g: complex(v) for g, v in entries.items()}
        ident = entries.get(group.identity)
        if ident is not None and ident != 1:
            raise StateError("table value at the identity must be 1 (states are unital)")
        super().__init__(group, {**entries, group.identity: 1.0 + 0.0j})


class VectorState(FiniteState):
    """Vector state from a finitely supported unit vector xi on the group."""

    def __init__(self, group: Group, xi: Mapping[GroupElement, complex]):
        xi = {g: complex(v) for g, v in xi.items() if complex(v) != 0}
        # a product, because float ** 2 raises OverflowError above about 1.3e154
        norm_sq = sum(abs(v) * abs(v) for v in xi.values())
        if abs(norm_sq - 1.0) > 1e-12:
            raise StateError(f"vector state must be normalized; |xi|^2 = {norm_sq}")
        a = AlgebraElement({g: v.conjugate() for g, v in xi.items()})
        super().__init__(group, conv_mul(group, a, star(group, a)).coeffs)


class DensityState(FiniteState):
    """Trace-bounded state with density rho = b*b / tau(b*b) for finitely supported b."""

    def __init__(self, group: Group, b: AlgebraElement):
        bb = conv_mul(group, star(group, b), b)
        total = trace_coeff(group, bb)
        if abs(total) == 0:
            raise StateError("density generator b must be nonzero")
        if not np.isfinite(total):
            raise StateError("density generator b must have a finite tau(b*b)")
        self.rho = bb.scaled(1.0 / total.real)  # drops what underflows to 0
        super().__init__(group, dict(zip(star(group, self.rho).coeffs,
                                         self.rho.coeffs.values())))


# ---------------------------------------------------------------------------
# positivity check and kappa bounds
# ---------------------------------------------------------------------------

@dataclass
class PdCheckResult:
    passed: bool
    min_eigenvalue: float
    max_eigenvalue: float


_PD_TOL = 1e-8
# Symbol entries (points times |F|^2) that one pd_check may evaluate on the
# grid and in the refinement together, which bounds its memory: the grid is at
# most 32 MB of complex values, the refinement evaluates _PD_CHUNK entries at
# a time and holds a few floats per point.
_PD_MAX_ENTRIES, _PD_CHUNK = 2 ** 21, 2 ** 16


def _symbol(group: Group, rows: np.ndarray, values: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies (m, d) and blocks (m, n, n) of the symbol of the table {rows: values}.

    On Z^rank the symbol is the scalar sum_k phi(k) e^{i k.theta} (n = 1) over
    the d coordinates that some key uses.  On Z semidirect_sigma F it is
    Phi(theta) = sum_k A_k e^{i k theta} with A_k[f, f'] = phi(sigma(f) k,
    f^-1 f'): a key (m, g) sits in row f of the block of k = sigma(f) m, at
    column f g, and (sigma(f) m, f g) is the product (0, f)(m, g).  A
    constant symbol keeps one axis, so d >= 1.
    """
    if isinstance(group, FreeAbelian):
        freq, at, n = rows, (np.zeros(len(rows), dtype=np.int64),) * 2, 1
    else:
        n = group.finite.order
        f = np.arange(n, dtype=np.int64)
        left = np.stack([np.zeros(n, dtype=np.int64), f], axis=-1)
        products = group.mul_rows(left[None, :, :], rows[:, None, :])  # (keys, n, 2)
        freq = products[..., :1].reshape(-1, 1)
        at = (np.tile(f, len(rows)), products[..., 1].ravel())
        values = np.repeat(values, n)
    used = np.flatnonzero((freq != 0).any(axis=0))
    freq, which = np.unique(freq[:, used] if used.size else freq[:, :1], axis=0,
                            return_inverse=True)
    blocks = np.zeros((len(freq), n, n), dtype=complex)
    np.add.at(blocks, (which.ravel(), *at), values)
    return freq, blocks


def _extremes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest eigenvalue of each Hermitian matrix of a (P, n, n) stack."""
    if values.shape[-1] == 1:
        return values.real[:, 0, 0], values.real[:, 0, 0]
    eigs = np.linalg.eigvalsh(values)
    return eigs[:, 0], eigs[:, -1]


def _lowest(freq: np.ndarray, blocks: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the symbol at each point of theta (P, d)."""
    values = np.exp(1j * (theta @ freq.T)) @ blocks.reshape(len(blocks), -1)
    return _extremes(values.reshape(len(theta), *blocks.shape[1:]))[0]


def _lattice(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A cell of side 2 bisected along every axis: the points {0, 1, 2}^d in product order.

    Returns the new points (some coordinate odd), the mask of the old
    corners (every coordinate even), the subcell origins {0, 1}^d in product
    order, which is also the order of the corners, and subcells[s, c], the
    index of corner c of subcell s among the points.
    """
    lattice = np.array(list(itertools.product(range(3), repeat=d)), dtype=np.int64)
    halves = lattice[(lattice < 2).all(axis=1)]
    corner = (lattice % 2 == 0).all(axis=1)
    subcells = ((halves[:, None, :] + halves[None, :, :]) * 3 ** np.arange(d)[::-1]).sum(-1)
    return lattice[~corner], corner, halves, subcells


def _spend(points: int, n: int) -> None:
    if points * n * n > _PD_MAX_ENTRIES:
        raise ResourceError(
            f"the positivity check needs {points} points of a {n} x {n} symbol; "
            f"it is capped at {_PD_MAX_ENTRIES} entries")


def _certify(freq: np.ndarray, blocks: np.ndarray) -> tuple[bool, float, float]:
    """(passed, lo, hi) for the Hermitian symbol of _symbol over the whole torus.

    The grid has N_i points on axis i, the least power of two >= 16 K_i (and
    >= 2) for K_i the largest |frequency| there, and one FFT per block entry
    evaluates the symbol on it.  A cell of sides h_i is bounded below by the
    least lambda_min at its corners minus sum_i (h_i^2 / 8) M_i, with M_i =
    sum_k k_i^2 |A_k|_F: for every unit vector v, v^H Phi v has its second
    derivative along axis i bounded by M_i, so it lies above its multilinear
    interpolation between the corners less that remainder.  Cells whose
    bound is below -slack are bisected along every axis, all of them at
    once; the first batch of points where lambda_min < -slack fails, with lo
    the least lambda_min there.  slack = _PD_TOL * max(hi, 1), hi the largest
    eigenvalue on the grid.  On a pass lo is the least bound of the final
    cells.  ResourceError once the points evaluated, times n^2, would pass
    _PD_MAX_ENTRIES.
    """
    n, d = blocks.shape[-1], freq.shape[1]
    spread = np.abs(freq.astype(float)).max(axis=0)  # a float: |int64 min| wraps
    shape = tuple(max(2, 1 << (16 * int(k) - 1).bit_length()) for k in spread)
    spent = math.prod(shape)
    _spend(spent, n)
    grid = np.zeros((*shape, n, n), dtype=complex)
    grid[tuple((freq % shape).T)] = blocks
    grid = np.fft.ifftn(grid, axes=tuple(range(d)), norm="forward")
    curvature = (freq.astype(float) ** 2).T @ np.linalg.norm(
        blocks.reshape(len(blocks), -1), axis=1)
    if not (np.isfinite(grid).all() and np.isfinite(curvature).all()):
        return False, math.nan, math.nan
    lo, hi = _extremes(grid.reshape(-1, n, n))
    hi = float(hi.max())
    slack = _PD_TOL * max(hi, 1.0)
    if lo.min() < -slack:
        return False, float(lo.min()), hi
    lo = lo.reshape(shape)
    cell_min = lo  # the least corner of the cell at each grid point
    for axis in range(d):
        cell_min = np.minimum(cell_min, np.roll(cell_min, -1, axis=axis))
    step = 2 * np.pi / np.array(shape)
    bound = cell_min.ravel() - curvature @ step ** 2 / 8
    lower = float(bound[bound >= -slack].min(initial=math.inf))
    new_points, corner, halves, subcells = _lattice(d)
    bad = np.flatnonzero(bound < -slack)
    _spend(spent + len(bad) * len(new_points), n)  # before the corners are gathered
    cells = np.stack(np.unravel_index(bad, shape), axis=-1)
    corners = np.stack([lo[tuple(((cells + c) % shape).T)] for c in halves], axis=1)
    origin = cells * step
    while len(corners):
        step = step / 2
        spent += len(corners) * len(new_points)
        _spend(spent, n)
        offsets = new_points * step
        chunk = max(1, _PD_CHUNK // (len(offsets) * max(len(freq), n * n)))
        new = np.concatenate([
            _lowest(freq, blocks, (origin[i:i + chunk, None, :] + offsets).reshape(-1, d))
            for i in range(0, len(origin), chunk)])
        if new.min() < -slack:
            return False, float(new.min()), hi
        values = np.empty((len(corners), len(corner)))
        values[:, corner], values[:, ~corner] = corners, new.reshape(len(corners), -1)
        corners = values[:, subcells].reshape(-1, len(halves))
        origin = (origin[:, None, :] + halves * step).reshape(-1, d)
        bound = corners.min(axis=1) - curvature @ step ** 2 / 8
        keep = bound < -slack
        lower = min(lower, float(bound[~keep].min(initial=math.inf)))
        corners, origin = corners[keep], origin[keep]
    return True, lower, hi


def pd_check(state: StateRep, ball: Ball) -> PdCheckResult:
    """Positivity of the state over the whole group, from its Fourier symbol.

    phi is positive definite when every Gram matrix G[i, j] = phi(g_i^-1 g_j)
    over a finite set is positive semidefinite.  Each such G is a principal
    submatrix of one operator, block Toeplitz along the Z part with symbol
    Phi(theta) (see _symbol); so the least eigenvalue of every G, on any ball
    of any generating set, is at least the infimum of lambda_min(Phi) over
    the torus.  The check bounds that infimum from below (see _certify) for
    the Hermitian part (phi + phi^*) / 2, phi^*(g) = conj(phi(g^-1)), in
    floating point.  It passes iff that bound lo is >= -slack and the
    asymmetry max |phi(g^-1) - conj(phi(g))| over the keys is <= slack, with
    slack = _PD_TOL * max(hi, 1) and hi the largest eigenvalue of the symbol
    on the grid.  A fail at a point reports that point's lambda_min as lo, so
    lo < -slack; a symbol that overflows fails with NaN lo and hi.  A table
    whose frequencies need more grid points than the cap allows (a key beyond
    int64 among them) raises ResourceError.  The ball only names the group
    law (GroupError for another law) and, for the one and character states,
    the size of their Gram matrix: they are characters, so it is rank one
    and (lo, hi) = (0, len(ball)).
    """
    state.check_ball(ball)
    if not isinstance(state, FiniteState):
        return PdCheckResult(True, 0.0, float(len(ball)))
    group, rows, values = state.group, state._rows, state._values
    inverse = group.inv_rows(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        pos = RowIndex(rows).find(inverse)
        asymmetry = float(np.abs(np.where(pos >= 0, values[pos], 0) - values.conj()).max())
        freq, blocks = _symbol(group, np.concatenate([rows, inverse]),
                               np.concatenate([values, values.conj()]) / 2)
        passed, lo, hi = _certify(freq, blocks)
    return PdCheckResult(passed and asymmetry <= _PD_TOL * max(hi, 1.0), lo, hi)


@dataclass
class KappaBound:
    """Certified interval for a trace-domination constant kappa with phi <= kappa * tau."""

    kappa_lower: float
    kappa_upper: float


def kappa_bounds(state: StateRep, ball: Ball) -> KappaBound:
    """Bracket kappa = |rho|^2: l1 bound from above, truncated norm from below."""
    if not isinstance(state, DensityState):
        raise StateError("kappa bounds are defined for trace-density states")
    state.check_ball(ball)
    upper = float(sum(abs(c) for c in state.rho.coeffs.values())) ** 2
    lower = norm_lower(op_matrix(state.rho, ball)).value ** 2
    return KappaBound(min(lower, upper), upper)


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------

def _decode_real(value, where: str) -> float:
    """A finite JSON number; booleans, strings, NaN and overflowing values are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return x


_COMPLEX_FIELDS = frozenset({"re", "im"})
_WEIGHTED_FIELDS = frozenset({"element", "re", "im"})


def _decode_complex(obj, where: str, fields: frozenset) -> complex:
    if not isinstance(obj, dict) or "re" not in obj:
        raise ConfigError(f"{where}: expected an object with 're' and 'im'")
    check_fields(obj, fields, where)
    return complex(_decode_real(obj["re"], f"{where}.re"),
                   _decode_real(obj.get("im", 0.0), f"{where}.im"))


def _decode_weighted(group: Group, items, where: str) -> dict[GroupElement, complex]:
    out: dict[GroupElement, complex] = {}
    if not isinstance(items, list):
        raise ConfigError(f"{where}: expected a list of {{element, re, im}}")
    for k, item in enumerate(items):
        if not isinstance(item, dict) or "element" not in item:
            raise ConfigError(f"{where}[{k}]: expected an object with 'element'")
        el = decode_element(group, item["element"])
        out[el] = out.get(el, 0.0) + _decode_complex(item, f"{where}[{k}]", _WEIGHTED_FIELDS)
        if not np.isfinite(out[el]):
            raise ConfigError(f"{where}[{k}]: the coefficients of {el} overflow")
    return out


def algebra_element_from_json(group: Group, items,
                              where: str = "coefficients") -> AlgebraElement:
    return AlgebraElement(_decode_weighted(group, items, where))


_STATE_FIELDS = {
    "trace": frozenset({"kind"}),
    "one": frozenset({"kind"}),
    "character": frozenset({"kind", "z"}),
    "vector": frozenset({"kind", "support"}),
    "density": frozenset({"kind", "b"}),
    "table": frozenset({"kind", "entries", "extend_zero"}),
}


def state_from_json(group: Group, data) -> StateRep:
    """Build a state from its parsed JSON specification (a dict, as json.load returns)."""
    if not isinstance(data, dict):
        raise ConfigError("state spec must be a JSON object")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _STATE_FIELDS:
        raise ConfigError(f"unknown state kind {kind!r}")
    check_fields(data, _STATE_FIELDS[kind], kind)
    try:
        if kind == "trace":
            return TraceState(group)
        if kind == "one":
            return OneState(group)
        if kind == "character":
            if not isinstance(data.get("z"), list):
                raise ConfigError("character: 'z' must be a list of {re, im} objects")
            z = [_decode_complex(item, f"z[{k}]", _COMPLEX_FIELDS)
                 for k, item in enumerate(data["z"])]
            return CharacterState(group, z)
        if kind == "vector":
            return VectorState(group, _decode_weighted(group, data.get("support"), "support"))
        if kind == "density":
            return DensityState(group, algebra_element_from_json(group, data.get("b"), "b"))
        # kind == "table"
        entries = _decode_weighted(group, data.get("entries"), "entries")
        if data.get("extend_zero", True) is not True:
            raise ConfigError(f"table: a table is zero outside its entries, so 'extend_zero' "
                              f"may only be true, got {data['extend_zero']!r}")
        return TableState(group, entries)
    except StateError as exc:
        raise ConfigError(str(exc)) from exc
