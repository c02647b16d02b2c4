"""Independent reference answers for the benchmark's correctness checks.

Nothing here imports qmetric.  Elements are integer tuples: ``(m1, ..., mn)``
for Z^n and ``(m, f)`` for Z x F and the infinite dihedral group, matching
the JSON element encoding the program reads.  Word lengths come from closed
forms rather than breadth-first search, balls are enumerated directly from
those closed forms, and operators are assembled with vectorised gathers, so
a defect in the program's BFS, group law or assembly cannot hide in the
reference.  Largest singular values come from LAPACK below the program's
dense cutoff and from ARPACK above it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp

DENSE_CUTOFF = 600
_OFF = 1 << 20
_W = 1 << 21


def s3_table() -> list[list[int]]:
    """Cayley table of S3, permutations in lexicographic order, (pq)(x) = p(q(x))."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]


def cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


class RefGroup:
    """One of the three families, with closed-form word lengths."""

    def __init__(self, family: str, rank: int = 1, table=None):
        self.family = family
        self.rank = rank
        self.table = None if table is None else np.asarray(table, dtype=np.int64)
        self.width = rank if family == "free_abelian" else 2
        self.identity = (0,) * rank if family == "free_abelian" else (0, 0)

    @classmethod
    def from_spec(cls, spec: dict) -> "RefGroup":
        if spec["family"] == "free_abelian":
            return cls("free_abelian", rank=spec.get("rank", 1))
        if spec["family"] == "product_z_finite":
            return cls("product_z_finite", table=spec["finite"]["table"])
        return cls("infinite_dihedral")

    def spec(self) -> dict:
        if self.family == "free_abelian":
            return {"family": "free_abelian", "rank": self.rank}
        if self.family == "product_z_finite":
            return {"family": "product_z_finite",
                    "finite": {"order": len(self.table), "table": self.table.tolist()}}
        return {"family": "infinite_dihedral"}

    # -- group law -----------------------------------------------------------

    def mul_many(self, g, H: np.ndarray) -> np.ndarray:
        """Products g * h for every row h of H."""
        if self.family == "free_abelian":
            return H + np.asarray(g, dtype=np.int64)
        out = np.empty_like(H)
        if self.family == "product_z_finite":
            out[:, 0] = g[0] + H[:, 0]
            out[:, 1] = self.table[g[1]][H[:, 1]]
        else:
            out[:, 0] = g[0] + (H[:, 0] if g[1] == 0 else -H[:, 0])
            out[:, 1] = g[1] ^ H[:, 1]
        return out

    def mul(self, g, h) -> tuple:
        return tuple(int(x) for x in self.mul_many(g, np.array([h], dtype=np.int64))[0])

    def inv(self, g) -> tuple:
        if self.family == "free_abelian":
            return tuple(-x for x in g)
        if self.family == "product_z_finite":
            f = int(np.flatnonzero(self.table[g[1]] == 0)[0])
            return (-g[0], f)
        return (-g[0], 0) if g[1] == 0 else tuple(g)

    # -- word length and balls -----------------------------------------------

    def lengths(self, H: np.ndarray) -> np.ndarray:
        if self.family == "free_abelian":
            return np.abs(H).sum(axis=1)
        m = np.abs(H[:, 0])
        if self.family == "product_z_finite":
            # (0, f) with f != e needs (1, f)(-1, e); every (m, f) with m != 0 has length |m|
            return np.where(m > 0, m, np.where(H[:, 1] == 0, 0, 2))
        return m + H[:, 1]

    def length(self, g) -> int:
        return int(self.lengths(np.array([g], dtype=np.int64))[0])

    def ball(self, radius: int) -> np.ndarray:
        """Every element of word length <= radius, as an (n, width) array."""
        span = np.arange(-radius, radius + 1, dtype=np.int64)
        if self.family == "free_abelian":
            grids = np.meshgrid(*([span] * self.rank), indexing="ij")
            H = np.stack([x.ravel() for x in grids], axis=1)
        else:
            order = len(self.table) if self.family == "product_z_finite" else 2
            m, f = np.meshgrid(span, np.arange(order, dtype=np.int64), indexing="ij")
            H = np.stack([m.ravel(), f.ravel()], axis=1)
        return H[self.lengths(H) <= radius]

    def shell_sum(self) -> float | None:
        """sum_k |S_k| / k^2 over the whole group, when it converges."""
        zeta2 = math.pi ** 2 / 6
        if self.family == "free_abelian":
            return 2 * zeta2 if self.rank == 1 else None
        if self.family == "product_z_finite":
            order = len(self.table)
            return 2 * order * zeta2 + (order - 1) / 4
        return 4 * zeta2 - 1


class Index:
    """Position lookup of elements in a ball through sorted integer keys."""

    def __init__(self, H: np.ndarray):
        keys = _keys(H)
        self.order = np.argsort(keys)
        self.sorted = keys[self.order]

    def find(self, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(positions, found mask) of the rows of P."""
        keys = _keys(P)
        pos = np.minimum(np.searchsorted(self.sorted, keys), len(self.sorted) - 1)
        found = self.sorted[pos] == keys
        return self.order[pos], found


def _keys(H: np.ndarray) -> np.ndarray:
    out = np.zeros(len(H), dtype=np.int64)
    for col in range(H.shape[1]):
        out = out * _W + (H[:, col] + _OFF)
    return out


# -- operators ---------------------------------------------------------------

def _compress(group: RefGroup, H: np.ndarray, coeffs: dict, commutator: bool):
    n = len(H)
    index = Index(H)
    lengths = group.lengths(H)
    rows, cols, vals = [], [], []
    for g, a in coeffs.items():
        pos, found = index.find(group.mul_many(g, H))
        col = np.flatnonzero(found)
        row = pos[found]
        if commutator:
            diff = lengths[row] - lengths[col]
            keep = diff != 0
            row, col, val = row[keep], col[keep], a * diff[keep]
        else:
            val = np.full(len(row), a, dtype=complex)
        rows.append(row)
        cols.append(col)
        vals.append(val)
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n), dtype=complex)


def commutator_matrix(group: RefGroup, H: np.ndarray, coeffs: dict) -> sp.csr_matrix:
    """[D, a] compressed to the span of the rows of H: entry a_g (L(gh) - L(h)) at (gh, h)."""
    return _compress(group, H, coeffs, commutator=True)


def convolution_matrix(group: RefGroup, H: np.ndarray, coeffs: dict) -> sp.csr_matrix:
    """Left convolution by a compressed to the span of the rows of H."""
    return _compress(group, H, coeffs, commutator=False)


def top_singular(M: sp.spmatrix) -> float:
    """Largest singular value: LAPACK up to the dense cutoff, ARPACK above it."""
    # imported here, so that the program's set-up time does not include it
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    n = M.shape[0]
    if M.nnz == 0:
        return 0.0
    if n <= DENSE_CUTOFF:
        return float(np.linalg.svd(M.toarray(), compute_uv=False)[0])
    gram = (M.conj().T @ M).tocsr()
    # a seeded random start: the all-ones vector can be orthogonal to the top
    # eigenvector of these symmetric operators, and Lanczos then misses it
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        lam = eigsh(gram, k=1, which="LA", tol=0, ncv=min(n - 1, 40),
                    v0=v0, return_eigenvectors=False)[0]
    except ArpackNoConvergence:
        return float(np.linalg.svd(M.toarray(), compute_uv=False)[0])
    return float(math.sqrt(max(lam, 0.0)))


def lemma2_lower(group: RefGroup, coeffs: dict) -> float:
    return math.sqrt(sum((abs(a) * group.length(g)) ** 2 for g, a in coeffs.items()))


def l1_upper(group: RefGroup, coeffs: dict) -> float:
    return float(sum(abs(a) * group.length(g) for g, a in coeffs.items()))


# -- states ------------------------------------------------------------------

def _cx(item) -> complex:
    return complex(item["re"], item.get("im", 0.0))


def _weighted(items) -> dict:
    out: dict = {}
    for item in items:
        el = tuple(item["element"])
        out[el] = out.get(el, 0) + _cx(item)
    return out


def vector_coeffs(group: RefGroup, xi: dict) -> dict:
    """phi(g) = sum_h xi(g^-1 h) conj(xi(h)); the term xi(k) conj(xi(h)) sits at g = h k^-1."""
    out: dict = {}
    for h, xh in xi.items():
        for k, xk in xi.items():
            g = group.mul(h, group.inv(k))
            out[g] = out.get(g, 0) + xk * xh.conjugate()
    return out


def density_rho(group: RefGroup, b: dict) -> dict:
    """rho = b* b / tau(b* b), with (b* b)(x^-1 h) collecting conj(b(x)) b(h)."""
    total = sum(abs(v) ** 2 for v in b.values())
    out: dict = {}
    for x, bx in b.items():
        for h, bh in b.items():
            y = group.mul(group.inv(x), h)
            out[y] = out.get(y, 0) + bx.conjugate() * bh / total
    return out


def finite_coeffs(group: RefGroup, spec: dict) -> dict | None:
    """Coefficient function of a finitely supported state, or None for trace/one/character."""
    kind = spec["kind"]
    if kind == "vector":
        return vector_coeffs(group, _weighted(spec["support"]))
    if kind == "density":
        rho = density_rho(group, _weighted(spec["b"]))
        return {group.inv(y): v for y, v in rho.items()}
    if kind == "table":
        table = _weighted(spec["entries"])
        table[group.identity] = 1.0
        return table
    return None


def coeff_array(group: RefGroup, spec: dict, H: np.ndarray, index: Index) -> np.ndarray:
    """phi(lam_h) for every row h of H."""
    kind = spec["kind"]
    if kind == "trace":
        return (group.lengths(H) == 0).astype(complex)
    if kind == "one":
        return np.ones(len(H), dtype=complex)
    if kind == "character":
        theta = np.angle([_cx(z) for z in spec["z"]])
        return np.exp(1j * (H @ theta))
    out = np.zeros(len(H), dtype=complex)
    coeffs = finite_coeffs(group, spec)
    els = np.array(list(coeffs), dtype=np.int64).reshape(len(coeffs), group.width)
    pos, found = index.find(els)
    out[pos[found]] = np.array(list(coeffs.values()), dtype=complex)[found]
    return out


def distances(group: RefGroup, spec_a: dict, spec_b: dict, radius: int) -> tuple[float, float]:
    """(d_inf, d_2) of the coefficient differences over the ball of the given radius."""
    H = group.ball(radius)
    index = Index(H)
    c = coeff_array(group, spec_a, H, index) - coeff_array(group, spec_b, H, index)
    lengths = group.lengths(H)
    keep = lengths > 0
    ratios = np.abs(c[keep]) / lengths[keep]
    return float(ratios.max()), float(math.sqrt(np.sum(ratios ** 2)))
