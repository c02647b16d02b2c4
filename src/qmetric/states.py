"""State representations on the reduced group C*-algebra.

Every metric in this package depends on a state only through its coefficient
function g -> phi(lam_g): ``coeff`` evaluates it at one checked element and
``coeff_array`` over the int64 rows of a ball (see ``groups``), and
``outside_bound`` bounds |phi(lam_g)| outside the ball by e_phi >= 1.  The
constant positive-definite function 1 and the characters of free abelian
groups are evaluated in closed form, e_phi = 1; both are characters, so their
``pd_check`` Gram matrix is the rank-one outer product of the coefficients over
the ball.  The other four kinds are stored as the table of their finitely
supported coefficients.  A table is zero outside its keys, so the state is
defined at every element of the group, as a state of C*_r(G) must be; e_phi
is max(1, |value|) over keys outside the ball.  ``coeff_array`` looks each
key up in the ball, and the Gram matrix G[i, j] is nonzero only where
g_j = g_i s for a key s, so each row i needs one lookup per key.  The kinds:

* the trace: {e: 1},
* explicit tables (allowed to fail positivity; see pd_check), with e -> 1,
* vector states <lam_g xi, xi> for finitely supported unit vectors xi: the
  convolution conj(xi) * conj(xi)^*,
* trace-bounded states with density rho = b*b / tau(b*b): {g^-1: rho(g)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, GroupError, ResourceError, StateError, check_fields
from .groups import FreeAbelian, Group, GroupElement, decode_element
from .opalgebra import AlgebraElement, conv_mul, norm_lower, op_matrix, star, trace_coeff
from .wordlength import Ball


class StateRep:
    """Base state evaluator; subclasses implement coeff(g) and coeff_array(ball)."""

    def __init__(self, group: Group):
        self.group = group

    def coeff(self, g: GroupElement) -> complex:
        raise NotImplementedError

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

    def coeff(self, g: GroupElement) -> complex:
        self.group.check(g)
        return 1.0 + 0.0j

    def coeff_array(self, ball: Ball) -> np.ndarray:
        return np.ones(len(ball), dtype=complex)


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

    def coeff(self, g: GroupElement) -> complex:
        self.group.check(g)
        return complex(np.exp(1j * float(np.dot(self.theta, g.z))))

    def coeff_array(self, ball: Ball) -> np.ndarray:
        return np.exp(1j * (ball.rows @ self.theta))


class FiniteState(StateRep):
    """State whose coefficients are a finite table, extended by 0 elsewhere.

    Every key must belong to the group (GroupError from Group.to_rows otherwise).
    """

    def __init__(self, group: Group, table: dict[GroupElement, complex]):
        super().__init__(group)
        self.table = table
        self._rows = group.to_rows(table)
        self._values = np.array(list(table.values()), dtype=complex)

    def coeff(self, g: GroupElement) -> complex:
        self.group.check(g)
        return self.table.get(g, 0.0 + 0.0j)

    def coeff_array(self, ball: Ball) -> np.ndarray:
        """Coefficients over a ball, in ball order: the table scattered into zeros.

        Each key is looked up in the ball, not each ball row in the table.
        """
        pos = ball.find_rows(self._rows)
        hit = pos >= 0
        out = np.zeros(len(ball), dtype=complex)
        out[pos[hit]] = self._values[hit]
        return out

    def outside_bound(self, ball: Ball) -> float:
        """max(1, |value|) over the keys outside the ball."""
        outside = self._values[ball.find_rows(self._rows) < 0]
        return float(np.abs(outside).max(initial=1.0))


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
        xi_bar = AlgebraElement({g: v.conjugate() for g, v in xi.items()})
        super().__init__(group, conv_mul(group, xi_bar, star(group, xi_bar)).coeffs)


class DensityState(FiniteState):
    """Trace-bounded state with density rho = b*b / tau(b*b) for finitely supported b."""

    def __init__(self, group: Group, b: AlgebraElement):
        bb = conv_mul(group, star(group, b), b)
        total = trace_coeff(group, bb)
        if abs(total) == 0:
            raise StateError("density generator b must be nonzero")
        if not np.isfinite(total):
            raise StateError("density generator b must have a finite tau(b*b)")
        self.rho = bb.scaled(1.0 / total.real)
        super().__init__(group, {group.inv(g): v for g, v in self.rho.coeffs.items()})


# ---------------------------------------------------------------------------
# positivity check and kappa bounds
# ---------------------------------------------------------------------------

@dataclass
class PdCheckResult:
    passed: bool
    min_eigenvalue: float
    max_eigenvalue: float


_PD_MAX_BALL, _PD_TOL = 2000, 1e-8


def _gram(state: StateRep, ball: Ball) -> tuple[np.ndarray, float]:
    """G[i, j] = coeff(g_i^-1 g_j) over the ball, and max |G - G^H|.

    A finite table is scattered: g_i^-1 g_j = s_k exactly when g_j = g_i s_k,
    so row i holds value_k at the ball index of each right translate g_i s_k
    and 0 elsewhere.  For a fixed i distinct keys give distinct products, so
    no entry is written twice, and |G - G^H| is nonzero only at the written
    entries and their transposes.  (A product that wraps past int64 lies in
    no ball; see Group.to_rows.)  The closed-form kinds are characters,
    phi(g_i^-1 g_j) = conj(phi(g_i)) phi(g_j), so G is the outer product of
    conj(x) and x for x the coefficients over the ball; rounding still leaves
    G - G^H a few ulps from 0.
    """
    group = ball.group
    rows = ball.rows
    n = len(ball)
    if isinstance(state, FiniteState):
        cols = ball.find_rows(group.mul_rows(rows[:, None, :], state._rows[None, :, :]))
        i, k = np.nonzero(cols >= 0)
        j = cols[i, k]
        gram = np.zeros((n, n), dtype=complex)
        gram[i, j] = state._values[k]
        with np.errstate(over="ignore"):  # an overflow is an infinite asymmetry
            asymmetry = np.abs(gram[j, i] - state._values[k].conj()).max(initial=0.0)
        return gram, float(asymmetry)
    x = state.coeff_array(ball)
    gram = np.outer(x.conj(), x)
    return gram, float(np.abs(gram - gram.conj().T).max())


def pd_check(state: StateRep, ball: Ball) -> PdCheckResult:
    """Floating-point positivity check of the Gram matrix over the ball.

    Builds G[i, j] = coeff(g_i^-1 g_j).  With tol = _PD_TOL, it passes iff G
    is Hermitian to tol, max |G - G^H| <= tol * max(hi, 1), and the smallest
    eigenvalue lo of the Hermitian part (G + G^H) / 2 (numpy's eigvalsh) is
    >= -tol * max(hi, 1), hi being the largest, and both lo and hi are
    finite.  A ball of another group law raises GroupError.  A G with no
    asymmetry at all is its own Hermitian part and goes to eigvalsh as it
    is.  A Hermitian part that overflows fails, with NaN for lo and hi.  It
    checks one truncation in floating point; it is not a proof of positive
    definiteness.
    """
    state.check_ball(ball)
    n = len(ball)
    if n > _PD_MAX_BALL:
        raise ResourceError(
            f"Gram matrix would be {n} x {n}; the dense eigensolve is capped at "
            f"{_PD_MAX_BALL}")
    gram, asymmetry = _gram(state, ball)
    if asymmetry != 0.0:
        with np.errstate(over="ignore", invalid="ignore"):
            gram += gram.conj().T
            gram /= 2.0
        if not np.isfinite(gram).all():
            return PdCheckResult(False, math.nan, math.nan)
    eigs = np.linalg.eigvalsh(gram)
    lo, hi = float(eigs[0]), float(eigs[-1])
    slack = _PD_TOL * max(hi, 1.0)
    finite = math.isfinite(lo) and math.isfinite(hi)
    return PdCheckResult(finite and lo >= -slack and asymmetry <= slack, lo, hi)


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
