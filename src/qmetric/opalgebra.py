"""The group algebra and its truncated operators on l2 of a ball.

An algebra element a = sum_g alpha_g lam_g acts by left convolution; its
compression to the span of a finite ball is a sparse matrix whose largest
singular value lower-bounds the operator norm of a.  The commutator with
the diagonal length multiplier has entries alpha_g * (L(gh) - L(h)) and is
compressed the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np
import scipy.sparse as sp

from .groups import Group, GroupElement, fits_rows
from .wordlength import Ball

Complexish = Union[int, float, complex]


class AlgebraElement:
    """Finitely supported coefficient map g -> complex; zero coefficients are dropped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[GroupElement, Complexish]):
        self.coeffs = {g: complex(a) for g, a in coeffs.items() if complex(a) != 0}

    @classmethod
    def lam(cls, g: GroupElement, coeff: Complexish = 1.0) -> "AlgebraElement":
        return cls({g: coeff})

    @property
    def support(self) -> list[GroupElement]:
        return list(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraElement) and self.coeffs == other.coeffs

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self.coeffs)
        for g, a in other.coeffs.items():
            out[g] = out.get(g, 0.0) + a
        return AlgebraElement(out)

    def scaled(self, factor: Complexish) -> "AlgebraElement":
        return AlgebraElement({g: factor * a for g, a in self.coeffs.items()})

    def __repr__(self) -> str:
        terms = ", ".join(f"{g}: {a}" for g, a in self.coeffs.items())
        return f"AlgebraElement({{{terms}}})"


def conv_mul(group: Group, a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Convolution product: (ab)(k) = sum over gh = k of alpha_g beta_h."""
    out: dict[GroupElement, complex] = {}
    for g, ag in a.coeffs.items():
        for h, bh in b.coeffs.items():
            k = group.mul(g, h)
            out[k] = out.get(k, 0.0) + ag * bh
    return AlgebraElement(out)


def star(group: Group, a: AlgebraElement) -> AlgebraElement:
    """Adjoint: a*(g) = conj(alpha(g^-1))."""
    return AlgebraElement({group.inv(g): ag.conjugate() for g, ag in a.coeffs.items()})


def trace_coeff(group: Group, a: AlgebraElement) -> complex:
    """Coefficient at the identity, i.e. the canonical trace of a."""
    return a.coeffs.get(group.identity, 0.0 + 0.0j)


# ---------------------------------------------------------------------------
# truncated operators
# ---------------------------------------------------------------------------

@dataclass
class TruncatedOperator:
    """Compression of a convolution or commutator operator to l2(ball)."""

    ball: Ball
    matrix: sp.csr_matrix
    kind: str

    def to_coo_text(self) -> str:
        """Coordinate-format dump: one 'row col re im' line per stored entry."""
        coo = self.matrix.tocoo()
        lines = [f"{i} {j} {float(v.real)!r} {float(v.imag)!r}"
                 for i, j, v in zip(coo.row, coo.col, coo.data)]
        return "\n".join(lines)


def _translations(a: AlgebraElement, ball: Ball):
    """Triplets (row, col, alpha_g): row indexes gh, col indexes h, both in the ball.

    Ordered by g (in the order of a's support), then by h.  A g without an
    int64 row maps no ball element into the ball and is skipped.
    """
    group = ball.group
    for g in a.coeffs:
        group.check(g)
    support = [g for g in a.coeffs if fits_rows(g)]
    k = ball.find_rows(group.mul_rows(group.to_rows(support)[:, None, :], ball.rows))
    g_index, cols = np.nonzero(k >= 0)
    alphas = np.array([a.coeffs[g] for g in support], dtype=complex)
    return k[g_index, cols], cols, alphas[g_index]


def op_matrix(a: AlgebraElement, ball: Ball) -> TruncatedOperator:
    """Compression of left convolution by a: column h carries alpha_g at row gh."""
    n = len(ball)
    rows, cols, vals = _translations(a, ball)
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(n, n), dtype=complex)
    return TruncatedOperator(ball, matrix, "convolution")


def commutator_matrix(a: AlgebraElement, ball: Ball) -> TruncatedOperator:
    """Compression of the commutator with the length multiplier.

    Entry at (gh, h) is alpha_g * (L(gh) - L(h)); pairs whose product leaves
    the ball are dropped (compression semantics), and entries with
    L(gh) = L(h) are not stored.
    """
    n = len(ball)
    rows, cols, vals = _translations(a, ball)
    diff = ball.lengths[rows] - ball.lengths[cols]
    keep = diff != 0
    matrix = sp.csr_matrix((vals[keep] * diff[keep], (rows[keep], cols[keep])),
                           shape=(n, n), dtype=complex)
    return TruncatedOperator(ball, matrix, "commutator")


# ---------------------------------------------------------------------------
# norm estimation
# ---------------------------------------------------------------------------

@dataclass
class NormEstimate:
    """Largest-singular-value estimate; always a lower bound for the true norm."""

    value: float
    converged: bool
    iterations: int

    def __float__(self) -> float:
        return self.value


_DENSE_CUTOFF = 600


def _top_singular(matrix, tol: float, max_iter: int, start=None):
    """Power iteration on M*M, by default from the deterministic all-ones vector.

    Returns (sigma, u, v, converged, iterations) where u, v approximate the
    top singular pair and sigma = |M v| is a certified lower bound of the
    largest singular value.  A warm-start vector may be supplied by callers
    that evaluate a slowly varying family of operators.
    """
    n = matrix.shape[1]
    nnz = matrix.nnz if sp.issparse(matrix) else int(np.count_nonzero(matrix))
    if n == 0 or nnz == 0:
        z = np.zeros(n, dtype=complex)
        return 0.0, z, z, True, 0
    if sp.issparse(matrix) and n <= _DENSE_CUTOFF:
        matrix = matrix.toarray()
    if sp.issparse(matrix):
        M = matrix.tocsr()
        Mh = M.conj().T.tocsr()
    else:
        M = matrix
        Mh = np.ascontiguousarray(matrix.conj().T)
    if start is not None and np.linalg.norm(start) > 0:
        x = np.asarray(start, dtype=complex)
        x = x / np.linalg.norm(x)
    else:
        x = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    lam = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        z = Mh @ (M @ x)
        new = float(np.vdot(x, z).real)
        norm_z = float(np.sqrt(np.vdot(z, z).real))
        if norm_z == 0.0:
            return 0.0, x, x, True, iterations
        x = z / norm_z
        if abs(new - lam) <= tol * max(abs(new), 1e-300):
            lam = new
            converged = True
            break
        lam = new
    v = x
    Mv = M @ v
    sigma = float(np.sqrt(np.vdot(Mv, Mv).real))
    u = Mv / sigma if sigma > 0 else np.zeros(n, dtype=complex)
    return sigma, u, v, converged, iterations


def norm_lower(T: TruncatedOperator, tol: float = 1e-9,
               max_iter: int = 10_000) -> NormEstimate:
    """Largest singular value of the compression, from below.

    Non-convergence within max_iter returns the best iterate flagged as
    unconverged; the value is still a valid lower bound.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    sigma, _, _, converged, iterations = _top_singular(T.matrix, tol, max_iter)
    return NormEstimate(sigma, converged, iterations)


def commutator_norm_upper_l1(a: AlgebraElement, ball: Ball) -> float:
    """Certified upper bound sum |alpha_g| L(g) for the commutator norm."""
    return float(sum(abs(ag) * ball.length(g) for g, ag in a.coeffs.items()))


def lemma2_lower(a: AlgebraElement, ball: Ball) -> float:
    """Certified lower bound (sum |alpha_g|^2 L(g)^2)^(1/2) for the commutator norm."""
    return float(np.sqrt(sum((abs(ag) * ball.length(g)) ** 2
                             for g, ag in a.coeffs.items())))
