"""The group algebra and its truncated operators on l2 of a ball.

An algebra element a = sum_g alpha_g lam_g acts by left convolution; its
compression to the span of a finite ball is a sparse matrix whose largest
singular value lower-bounds the operator norm of a.  The commutator with
the diagonal length multiplier has entries alpha_g * (L(gh) - L(h)) and is
compressed the same way.

The largest singular value is found from the Gram matrix M^H M: LAPACK up
to _DENSE_CUTOFF ball elements, a thick-restart Lanczos iteration in numpy
above it or from a caller's warm start (see _top_singular).  Lanczos keeps
a sparse M sparse and applies M^H M as two CSR products, with a CSR copy of
M^H built once per solve.  Both return |M v| for a unit vector v, so the
value is a certified lower bound however the solver stopped.

scipy.sparse is imported where a sparse operator is built, so a process that
builds none (a bracket, a ball) does not pay for its import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Union

import numpy as np

from .groups import Group, GroupElement
from .wordlength import Ball

if TYPE_CHECKING:
    import scipy.sparse as sp

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


def _translations(support: np.ndarray, ball: Ball):
    """Triplets (row, col, index): row indexes gh, col indexes h, both in the ball.

    support is an (m, row_width) int64 array of the rows g; index is g's
    place in it.  Ordered by g, then by h.  A saturated row (see
    Group.to_rows) maps no ball element into the ball.
    """
    k = ball.find_rows(ball.group.mul_rows(support[:, None, :], ball.rows))
    g_index, cols = np.nonzero(k >= 0)
    return k[g_index, cols], cols, g_index


def commutator_triplets(support: np.ndarray, ball: Ball):
    """Nonzero entries (row, col, index, diff) of [D, lam_g] on the ball, g a support row.

    diff is L(gh) - L(h) and the rest is as in _translations, so the
    compression of [D, sum alpha_g lam_g] carries alpha[index] * diff at
    (row, col): for a fixed h the products gh are distinct, so no two
    triplets share a position.
    """
    rows, cols, index = _translations(support, ball)
    diff = ball.lengths[rows] - ball.lengths[cols]
    keep = diff != 0
    return rows[keep], cols[keep], index[keep], diff[keep]


def op_matrix(a: AlgebraElement, ball: Ball) -> TruncatedOperator:
    """Compression of left convolution by a: column h carries alpha_g at row gh."""
    import scipy.sparse as sp

    n = len(ball)
    rows, cols, index = _translations(ball.group.to_rows(a.coeffs), ball)
    alphas = np.array(list(a.coeffs.values()), dtype=complex)
    matrix = sp.csr_matrix((alphas[index], (rows, cols)), shape=(n, n), dtype=complex)
    return TruncatedOperator(ball, matrix, "convolution")


def commutator_matrix(a: AlgebraElement, ball: Ball) -> TruncatedOperator:
    """Compression of the commutator with the length multiplier.

    Entry at (gh, h) is alpha_g * (L(gh) - L(h)); pairs whose product leaves
    the ball are dropped (compression semantics), and entries with
    L(gh) = L(h) are not stored.
    """
    import scipy.sparse as sp

    n = len(ball)
    rows, cols, index, diff = commutator_triplets(ball.group.to_rows(a.coeffs), ball)
    alphas = np.array(list(a.coeffs.values()), dtype=complex)
    matrix = sp.csr_matrix((alphas[index] * diff, (rows, cols)), shape=(n, n),
                           dtype=complex)
    return TruncatedOperator(ball, matrix, "commutator")


# ---------------------------------------------------------------------------
# norm estimation
# ---------------------------------------------------------------------------

@dataclass
class NormEstimate:
    """Largest-singular-value estimate; always a lower bound for the true norm.

    ``iterations`` counts applications of M^H M to a vector (0 when LAPACK
    diagonalises M^H M) and ``residual`` is the final Ritz residual
    ||M^H M v - value^2 v|| of the returned unit vector v: some eigenvalue of
    M^H M lies within it of value^2.
    """

    value: float
    converged: bool
    iterations: int
    residual: float

    def __float__(self) -> float:
        return self.value


# a cold solve costs less by LAPACK up to about this many columns and less by
# sparse Lanczos above it (one BLAS thread, tol 1e-12, medians over 4 random
# commutators supported in B(4), LAPACK against Lanczos): 1.55 against 1.87 ms
# at 81 columns on Z, 2.58 against 2.97 ms at 100 on D and 1.91 against
# 2.42 ms at 102 on Z x S3; 3.07 against 1.94 ms at 101 on Z, 2.76 against
# 1.93 ms at 113 on Z^2, 3.93 against 2.90 ms at 120 on D and 3.14 against
# 2.34 ms at 126 on Z x S3; at 300 columns 40-50 against 4-6 ms
_DENSE_CUTOFF = 110
# Lanczos vectors held before a restart, and Ritz vectors kept at each thick
# restart.  The dihedral commutators of the norms benchmark (1200 columns) have
# their top pair of M^H M split by 1e-6 to 1e-8 relative; 24/10 restarted too
# often to resolve it.  Over the 60 seed-1 norms operators 32/12 takes 19,067
# applications of M^H M against 25,687 for 24/10; the hardest dihedral
# commutator takes 2,212 against 3,958 and the hardest density 3,272 against 5,260.
_LANCZOS_BASIS = 32
_LANCZOS_KEEP = 12
_LANCZOS_SEED = 0     # seed of the random start vector
# below this many columns LAPACK costs no more than Lanczos from a warm start
# (LAPACK against Lanczos from the top vector of a commutator on Z whose
# coefficients moved by 1e-2, one BLAS thread: 0.22 against 0.71 ms at 41
# columns, 0.76 against 0.84 ms at 71, 1.57 against 1.44 ms at 81, 2.6
# against 1.6 ms at 101 and 12 against 3.1 ms at 181)
_WARM_MIN = 80


def _top_singular(matrix, tol: float, max_iter: int, start=None):
    """Top singular triple of a dense or sparse matrix M from its Gram matrix M^H M.

    Up to _DENSE_CUTOFF columns, M is made dense and LAPACK diagonalises
    M^H M.  Above it, a sparse M stays sparse (COO input becomes CSR) and a
    thick-restart Lanczos iteration on M^H M (Wu and Simon, SIAM J. Matrix
    Anal. Appl. 22, 2000) runs from a seeded random start: a three-term
    recurrence with one full reorthogonalisation pass per step, and a second
    pass only where the DGKS test asks for one (see _lanczos_top).  It stops
    when the Ritz residual beta_m |s_m| of the largest Ritz value theta is
    at most tol * theta, when the Krylov space closes (beta <= tol * max
    diag(T), where every Ritz residual is at most beta), or after max_iter
    applications of M^H M.

    A nonzero start vector sends every size from _WARM_MIN columns up to
    Lanczos from that vector, on the dense M up to _DENSE_CUTOFF columns:
    callers that evaluate a slowly varying family
    of operators (the ratio ascent of metrics.connes_heuristic) pass the
    previous top vector, from which one basis of Lanczos (32 applications
    of M^H M) usually does the work of a full LAPACK solve.

    Returns (sigma, u, v, converged, iterations) where v is a unit vector,
    sigma = |M v| is a certified lower bound of the largest singular value,
    u = M v / sigma and iterations counts applications of M^H M (0 for LAPACK).
    """
    n = matrix.shape[1]
    dense = isinstance(matrix, np.ndarray)
    nnz = int(np.count_nonzero(matrix)) if dense else matrix.nnz
    if n == 0 or nnz == 0:
        z = np.zeros(n, dtype=complex)
        return 0.0, z, z, True, 0
    if start is not None and not np.any(start):
        start = None
    if n <= _DENSE_CUTOFF:
        # dense for a warm Lanczos too: a warm solve at 81 columns takes 0.83 ms
        # on the dense M against 1.06 ms on CSR copies of M and M^H
        matrix = matrix if dense else matrix.toarray()
    elif not dense:
        matrix = matrix.tocsr()
    if n <= _DENSE_CUTOFF and (start is None or n < _WARM_MIN):
        _, vectors = np.linalg.eigh(matrix.conj().T @ matrix)
        v, converged, iterations = vectors[:, -1], True, 0
    else:
        v, converged, iterations = _lanczos_top(matrix, tol, max_iter, start)
    v = v / np.linalg.norm(v)
    Mv = matrix @ v
    sigma = float(np.linalg.norm(Mv))
    u = Mv / sigma if sigma > 0 else np.zeros(matrix.shape[0], dtype=complex)
    return sigma, u, v, converged, iterations


def _lanczos_top(M, tol: float, max_iter: int, start=None):
    """Top eigenvector of M^H M by thick-restart Lanczos: (v, converged, applications).

    The iteration starts from `start`, or from a seeded random vector.  The
    first step after a start or a thick restart couples to every kept Ritz
    vector, so its w is orthogonalised against the whole basis twice.  Every
    later step subtracts the three-term recurrence alpha_j v_j + beta_{j-1}
    v_{j-1}, then runs one classical Gram-Schmidt pass against the basis and
    a second one only when the first removed more than half of |w|^2 (the
    test of Daniel, Gragg, Kaufman and Stewart, Math. Comp. 30, 1976, with
    eta = 1/sqrt 2).
    """
    n = M.shape[1]
    # a copy of M^H, as large as M; a sparse one is CSR, so each product
    # gathers along rows where the CSC view M.T would scatter
    if isinstance(M, np.ndarray):
        Mh = M.conj().T
    else:
        M = M.tocsr()
        Mh = M.conj().T.tocsr()
    m, k = _LANCZOS_BASIS, _LANCZOS_KEEP
    V = np.empty((m + 1, n), dtype=complex)
    # the real and imaginary parts side by side: a real coefficient times a
    # basis vector is a real product, at half the flops of a complex one
    Vr = V.view(float)
    T = np.zeros((m + 1, m + 1))
    if start is None:
        x = np.random.default_rng(_LANCZOS_SEED).standard_normal((2, n))
        V[0] = x[0] + 1j * x[1]
    else:
        V[0] = start
    V[0] /= np.sqrt(np.vdot(V[0], V[0]).real)
    j0 = applications = 0
    diag_max = 0.0  # the largest diagonal entry of T[:size, :size]
    while True:
        for j in range(j0, m):
            w = Mh @ (M @ V[j])
            wr = w.view(float)
            applications += 1
            if j > j0:
                # alpha_j v_j + beta_{j-1} v_{j-1} as one real product
                T[j, j] = np.vdot(V[j], w).real
                wr -= T[j, j - 1:j + 1] @ Vr[j - 1:j + 1]
            basis = V[:j + 1]
            norm2 = np.vdot(w, w).real
            for _ in range(2):
                before = norm2
                # basis^H w without a conjugated copy of the basis
                step = np.conj(basis @ np.conj(w))
                w -= step @ basis
                T[j, j] += step[j].real
                norm2 = np.vdot(w, w).real
                if j > j0 and norm2 >= 0.5 * before:
                    break
            beta = float(np.sqrt(norm2))
            size = j + 1
            diag_max = max(diag_max, T[j, j])
            # the Krylov space has closed: every Ritz residual is at most beta
            closed = beta <= tol * diag_max
            if closed or applications >= max_iter:
                break
            T[j + 1, j] = T[j, j + 1] = beta
            # numpy divides a complex array by a real scalar as a product with
            # its reciprocal, so this real product gives the same bits
            np.multiply(wr, 1.0 / beta, out=Vr[j + 1])
        theta, S = np.linalg.eigh(T[:size, :size])
        converged = closed or beta * abs(S[-1, -1]) <= tol * theta[-1]
        if converged or applications >= max_iter:
            return (S[:, -1] @ Vr[:size]).view(complex), bool(converged), applications
        # thick restart: keep the top k Ritz pairs and the residual direction
        Vr[:k] = S[:, -k:].T @ Vr[:m]
        V[k] = V[m]
        T[:] = 0.0
        T[np.arange(k), np.arange(k)] = theta[-k:]
        T[k, :k] = T[:k, k] = beta * S[-1, -k:]
        j0 = k
        diag_max = theta[-1]


def norm_lower(T: TruncatedOperator, tol: float = 1e-9,
               max_iter: int = 10_000) -> NormEstimate:
    """Largest singular value of the compression, from below.

    Balls of up to _DENSE_CUTOFF elements are solved by LAPACK and always
    converge; larger ones by thick-restart Lanczos (see _top_singular), where
    converged means the Ritz residual met tol relative to the top Ritz value
    within max_iter applications of M^H M.  Either way the value is |M v| for
    a unit vector v, so it is a valid lower bound even when unconverged.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    entries = T.matrix if isinstance(T.matrix, np.ndarray) else T.matrix.data
    if not np.all(np.isfinite(entries)):
        raise ValueError("operator has non-finite entries")
    sigma, u, v, converged, iterations = _top_singular(T.matrix, tol, max_iter)
    # (sigma^2, v) is a Ritz pair of M^H M: its residual is sigma |M^H u - sigma v|,
    # with M^H u = conj(M^T conj(u)) so that no conjugate copy of M is made
    residual = sigma * float(np.linalg.norm(np.conj(T.matrix.T @ np.conj(u)) - sigma * v))
    return NormEstimate(sigma, converged, iterations, residual)


def commutator_norm_upper_l1(a: AlgebraElement, ball: Ball) -> float:
    """Certified upper bound sum |alpha_g| L(g) for the commutator norm."""
    return float(sum(abs(ag) * ball.length(g) for g, ag in a.coeffs.items()))


def lemma2_lower(a: AlgebraElement, ball: Ball) -> float:
    """Certified lower bound (sum |alpha_g|^2 L(g)^2)^(1/2) for the commutator norm."""
    return float(np.sqrt(sum((abs(ag) * ball.length(g)) ** 2
                             for g, ag in a.coeffs.items())))
