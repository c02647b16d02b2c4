"""Discrete group families with canonical element forms.

Three families are supported:

* ``free_abelian`` -- Z^n with componentwise addition,
* ``product_z_finite`` -- direct products Z x F for a finite group F given
  by an explicit Cayley table,
* ``infinite_dihedral`` -- Z semidirect Z_2 with the sign-flip action.

The last two share one group law, that of Z semidirect_sigma F with
sigma: F -> Aut(Z) = {+-1}: (m, f)(m', f') = (m + sigma(f) m', f f'), with
sigma = 1 on Z x F and sigma(1) = -1 on Z_2.  Their default shell bound is
2|F|, the degree of the extension.

Elements are canonical named tuples of Python ints, so structural equality
coincides with group equality and elements can be used as dictionary keys.
Each family states its law once, on rows (z_1, ..., z_d) of Z^d and (z, f)
of Z x F and the dihedral group: ``mul_rows``/``inv_rows`` multiply and
invert broadcastable (..., k) arrays of rows.  Exact rows (``_exact_rows``,
object arrays of the Python ints) give exact products at any size; the
algebra's products and the generator check use them.  Balls and operators
use int64 rows (``to_rows``), which saturate a coordinate beyond int64 to
the nearest int64 limit; ball coordinates stay below 2^61 (see
``to_rows``), so such a row lies in no ball.  Both entries check each
element, and ``from_rows`` inverts either.  ``RowIndex`` looks int64 rows
up exactly in any fixed set of rows, by keys whose byte order is the rows'
lexicographic order.

For its default generators each family knows its word length in closed
form: L(z) = |z|_1 on Z^d; L(m, f) = |m| for m != 0 and L(0, f) = 2 for
f != e on Z x F; L(m, s) = |m| + s on the dihedral group.
A family's default ball is given by three methods.  ``default_ball_sizes``
gives the exact ball sizes |B(k)|, from which a ball (``wordlength.Ball``)
takes every word length.  ``default_ball`` lists the rows of a ball in ball
order, by (length, row): on Z^d each l1 sphere in lexicographic order, from
the closed form; on Z x F and the dihedral group the (m, f) with |m| <= r,
in lexicographic order, that lie in the ball, stably sorted by length.
``_locate`` inverts the listing, and is the default ball's ``find_rows``: a
row's ball position is the size of the ball one shell in, plus its rank in
its shell, both from the closed form.  The lookup is exact for every int64
row: the bounds are checked before any |x| or sum is formed, so nothing
wraps, and every size it forms is at most the size of the ball, which the
ball cap keeps below 2^30.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError, GroupError, ResourceError, check_fields


class GroupElement(NamedTuple):
    """Canonical group element: integer part plus optional finite-component index."""

    z: tuple[int, ...]
    f: Optional[int] = None


_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _ints(values: Sequence) -> bool:
    """Whether every value is an int but not a bool (so no float or numpy integer either)."""
    # the set of types takes one pass in C; a value-by-value search only if it is not {int}
    return set(map(type, values)) <= {int} or not any(
        isinstance(x, bool) or not isinstance(x, int) for x in values)


# ---------------------------------------------------------------------------
# finite factor
# ---------------------------------------------------------------------------

# The associativity check costs order^3 comparisons: from_table on Z/n took
# 0.23 s at n = 256, 2.06 s at 512, 6.22 s at 720 (the order of S6) and
# 11.7 s at 1024 (time.perf_counter, one core of an Intel Xeon VM).
_MAX_TABLE_ORDER = 1024


@dataclass(frozen=True)
class FiniteGroupTable:
    """A finite group as an explicit Cayley table over element indices."""

    order: int
    table: tuple[tuple[int, ...], ...]
    identity_index: int
    inverse: tuple[int, ...]

    @classmethod
    def from_table(cls, rows: Sequence[Sequence[int]]) -> "FiniteGroupTable":
        """Validate a raw table: identity, inverses and associativity, at every order.

        The table is a list (or tuple) of lists of integers; booleans, floats
        and strings are refused rather than cast.  Associativity is checked
        for all order^3 triples, one numpy comparison per row; an order above
        _MAX_TABLE_ORDER raises ResourceError before any entry is read.
        """
        if not isinstance(rows, (list, tuple)) or not all(
                isinstance(row, (list, tuple)) for row in rows):
            raise GroupError("Cayley table must be a list of lists of integers")
        order = len(rows)
        if order < 1:
            raise GroupError("Cayley table is empty")
        if order > _MAX_TABLE_ORDER:
            raise ResourceError(f"Cayley table of order {order} is over the cap of "
                                f"{_MAX_TABLE_ORDER} elements")
        for i, row in enumerate(rows):
            if any(isinstance(x, bool) or not isinstance(x, int) for x in row):
                raise GroupError(f"row {i} of the Cayley table is not a list of integers")
        table = tuple(tuple(row) for row in rows)
        for i, row in enumerate(table):
            if len(row) != order or any(not 0 <= x < order for x in row):
                raise GroupError(f"row {i} of the Cayley table is not a map into the group")
        t = np.array(table)
        ids = np.arange(order)
        is_identity = (t == ids).all(axis=1) & (t.T == ids).all(axis=1)
        if not is_identity.any():
            raise GroupError("Cayley table has no identity element")
        identity = int(is_identity.argmax())
        # is_inverse[i, j]: ij = ji = e; argmax gives the first such j of each row
        is_inverse = (t == identity) & (t.T == identity)
        missing = np.flatnonzero(~is_inverse.any(axis=1))
        if missing.size:
            raise GroupError(f"element {missing[0]} has no inverse in the Cayley table")
        inverse = is_inverse.argmax(axis=1).tolist()
        # row i compares (ij)k with i(jk) over every (j, k); argwhere lists the
        # mismatches in row-major order, so the first triple is lexicographic
        for i in range(order):
            bad = np.argwhere(t[t[i]] != t[i][t])
            if len(bad):
                j, k = bad[0]
                raise GroupError(f"Cayley table is not associative at triple ({i}, {j}, {k})")
        return cls(order, table, identity, tuple(inverse))

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroupTable":
        return cls.from_table([[(i + j) % n for j in range(n)] for i in range(n)])

    @classmethod
    def symmetric(cls, k: int) -> "FiniteGroupTable":
        """Symmetric group S_k, elements ordered lexicographically as permutations."""
        perms = sorted(itertools.permutations(range(k)))
        index = {p: i for i, p in enumerate(perms)}
        table = [[index[tuple(p[q[x]] for x in range(k))] for q in perms] for p in perms]
        return cls.from_table(table)


# the built-in finite groups, each built and checked once per process
_Z2 = FiniteGroupTable.cyclic(2)  # also the finite factor of InfiniteDihedral
_BUILTIN_TABLES = {"z2": _Z2, "z3": FiniteGroupTable.cyclic(3),
                   "s3": FiniteGroupTable.symmetric(3)}


def builtin_finite_table(name: str) -> FiniteGroupTable:
    table = _BUILTIN_TABLES.get(name.lower() if isinstance(name, str) else None)
    if table is None:
        raise ConfigError(f"unknown built-in finite group {name!r} (have: z2, z3, s3)")
    return table


# ---------------------------------------------------------------------------
# group handles
# ---------------------------------------------------------------------------

# With the ball cap of at most 2^30 elements (wordlength._MAX_CAP), keeps
# every ball coordinate below 2^61; see Group.to_rows.
_MAX_GENERATOR_COORD = 2 ** 31


class Group:
    """Immutable group handle: identity, generators and the law on rows (mul_rows, inv_rows)."""

    family: str = ""
    law: tuple  # (family, rank) or (family, finite table): the same for every generating set

    def __init__(self, identity: GroupElement, default_generators: Iterable[GroupElement],
                 default_shell_bound: Optional[int],
                 generators: Optional[Iterable[GroupElement]] = None):
        self.identity = identity
        self.row_width = len(identity.z) + (identity.f is not None)
        default = tuple(default_generators)
        self.generators = default if generators is None else tuple(generators)
        self._default_generators = set(self.generators) == set(default)
        # analytic bound on shell sizes; only the default generating set has one
        self.shell_bound = default_shell_bound if self._default_generators else None
        self._validate_generators()

    def default_ball_sizes(self, radius):
        """|B(radius)| for the default generators, from its closed form.

        An int radius gives the exact Python int; an int64 array of radii
        gives an int64 array, exact while every size fits int64.
        """
        raise NotImplementedError

    def default_ball(self, radius: int) -> np.ndarray:
        """Rows of the default ball of the given radius, in ball order.

        The rows come in strictly increasing (length, row) order, and
        ``_locate`` gives each row's position without a search.
        """
        raise NotImplementedError

    def _locate(self, rows: np.ndarray, radius: int) -> np.ndarray:
        """Position of each row of a (..., row_width) int64 array in default_ball(radius).

        -1 outside, from the closed form, keeping nothing between calls; exact
        for every int64 row while |B(radius)| fits int64, as it does for every
        ball under the cap.
        """
        raise NotImplementedError

    def check(self, a: GroupElement) -> None:
        raise NotImplementedError

    def mul_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products of broadcastable row arrays of shape (..., row_width), int64 or exact."""
        raise NotImplementedError

    def inv_rows(self, a: np.ndarray) -> np.ndarray:
        """Inverses of a row array of shape (..., row_width), int64 or exact."""
        raise NotImplementedError

    def _exact_rows(self, elements: Iterable[GroupElement]) -> np.ndarray:
        """Elements as an (n, row_width) object array of Python ints, each checked: exact rows."""
        flat = []
        for g in elements:
            self.check(g)
            flat.append(g.z if g.f is None else g.z + (g.f,))
        # fromiter, because np.array discovers the shape of nested tuples slowly
        return np.fromiter(itertools.chain.from_iterable(flat), dtype=object,
                           count=len(flat) * self.row_width).reshape(len(flat), self.row_width)

    def to_rows(self, elements: Iterable[GroupElement]) -> np.ndarray:
        """Elements as an (n, row_width) int64 array, each checked (GroupError if foreign).

        A coordinate beyond int64 saturates to the nearest int64 limit.  This
        is sound because ball coordinates stay below 2^61: each shell of an
        infinite group is nonempty, so a ball of at most 2^30 elements (the
        cap) has radius below 2^30, and generator coordinates are at most
        2^31.  So a saturated row lies in no ball, and
        a product of a ball row with any int64 row is either exact or wraps to
        a coordinate of magnitude above 2^62, and then lies in no ball either.
        """
        return self._exact_rows(elements).clip(_INT64_MIN, _INT64_MAX).astype(np.int64)

    def from_rows(self, rows: np.ndarray) -> list[GroupElement]:
        """Elements with Python int coordinates: inverts _exact_rows, and to_rows within int64."""
        flat = np.asarray(rows).reshape(-1, self.row_width).tolist()
        if self.identity.f is None:
            return [GroupElement(tuple(r)) for r in flat]
        return [GroupElement(tuple(r[:-1]), r[-1]) for r in flat]

    def _validate_generators(self) -> None:
        if not self.generators:
            raise GroupError("generating set is empty")
        gens = set(self.generators)
        for g in self.generators:
            self.check(g)
            if self._default_generators:
                continue  # a member equal to a default generator is one; they are valid
            if g == self.identity:
                raise GroupError("generating set contains the identity")
            if max(g.z) > _MAX_GENERATOR_COORD or min(g.z) < -_MAX_GENERATOR_COORD:
                raise GroupError(f"generator {g} has a coordinate beyond +-2^31")
            if self.from_rows(self.inv_rows(self._exact_rows([g])))[0] not in gens:
                raise GroupError(f"generating set is not symmetric: missing inverse of {g}")


# The 2 * rank default generators are rank-tuples, so building Z^rank and its
# radius-1 ball costs time and memory quadratic in the rank: FreeAbelian(rank)
# took 0.33 s at rank 1024 and 1.27 s at 2048, its radius-1 ball 0.14 s and
# 0.54 s, at a peak RSS of 117 MB and 382 MB (time.perf_counter and
# ru_maxrss, one core of an Intel Xeon VM).
_MAX_RANK = 1024


def _l1_ball_sizes(dims, radius):
    """|B(radius)| of the l1 ball in Z^dims, for ints or broadcastable int64 arrays.

    sum_i 2^i C(d, i) C(r, i), the points with i nonzero coordinates; i stops
    at min(d, r), so on arrays every term, and every factor formed on the
    way, is at most the largest size.  Ints give exact Python ints.
    """
    total = 2 * dims * radius  # i = 1: C(d, 1) C(r, 1) = d r
    total += 1  # i = 0
    binom_d, binom_r = dims, radius
    for i in range(2, int(min(np.max(dims), np.max(radius))) + 1):
        binom_d = binom_d * (dims - (i - 1)) // i  # C(d, i), 0 for d < i
        binom_r = binom_r * (radius - (i - 1)) // i
        total = total + 2 ** i * binom_d * binom_r
    return total


class FreeAbelian(Group):
    family = "free_abelian"

    def __init__(self, rank: int, generators: Optional[Iterable[GroupElement]] = None):
        if rank < 1:
            raise GroupError("rank must be >= 1")
        if rank > _MAX_RANK:
            raise ResourceError(f"free_abelian rank {rank} is over the cap of {_MAX_RANK}")
        self.rank = rank
        self.law = (self.family, rank)
        default = []
        for i in range(rank):
            for s in (1, -1):
                v = [0] * rank
                v[i] = s
                default.append(GroupElement(tuple(v)))
        super().__init__(GroupElement((0,) * rank), default, 2 if rank == 1 else None,
                         generators)

    def default_ball_sizes(self, radius):
        return _l1_ball_sizes(self.rank, radius)

    def default_ball(self, radius: int) -> np.ndarray:
        # one tree per sphere, k = 0..radius: a node is a prefix with the l1
        # norm its sphere still needs, its budget; its children are the next
        # coordinates x, |x| <= budget, in increasing order.  So the leaves
        # come sphere by sphere, each in lexicographic order.  A prefix is
        # its parent prefix and its last x; the rows are filled in from the
        # last coordinate back.  take, because numpy's fancy indexing gathers
        # several times slower
        budget = np.arange(radius + 1, dtype=np.int64)
        steps = []
        for _ in range(self.rank - 1):
            counts = 2 * budget + 1
            parent = np.repeat(np.arange(budget.size, dtype=np.int64), counts)
            first = np.cumsum(counts) - counts  # position of each parent's first child
            x = np.arange(parent.size, dtype=np.int64) - (first + budget).take(parent)
            steps.append((parent, x))
            budget = budget.take(parent) - np.abs(x)
        # the last coordinate is -budget and +budget, or 0 alone
        keep = np.ones((budget.size, 2), dtype=bool)
        keep[:, 1] = budget > 0
        keep = keep.ravel()
        x = np.stack([-budget, budget], axis=-1).ravel()[keep]
        at = np.flatnonzero(keep) >> 1  # the parent of each leaf
        rows = np.empty((x.size, self.rank), dtype=np.int64)
        rows[:, -1] = x
        for i in reversed(range(self.rank - 1)):
            parent, x = steps[i]
            rows[:, i] = x.take(at)
            at = parent.take(at)
        return rows

    def _locate(self, rows: np.ndarray, radius: int) -> np.ndarray:
        # position = |B(k - 1)| + the lexicographic rank of the row in the
        # sphere of radius k = |row|_1.  With b of the norm still to place at
        # coordinate x, and m coordinates after it, the sphere rows that agree
        # up to x and are smaller there number |B_m(b - |x| - 1)| for x <= 0
        # and |B_m(b)| + |B_m(b - 1)| - |B_m(b - x)| for x > 0 (B_m: the l1
        # ball of Z^m, B_0(j) = 1 for j >= 0, B(-1) empty)
        d = self.rank
        # clipped first, so |x| and the sums cannot wrap; a clipped coordinate
        # still lies outside, and a row outside is read as the identity
        x = np.clip(rows, -radius - 1, radius + 1)
        ax = np.abs(x)
        norm = np.einsum("...i->...", ax)
        inside = norm <= radius
        budget = norm * inside
        # table[m, j + 1] = |B_m(j)|, m = 0..d, j = -1..top, for the largest
        # norm top that this call looks up
        top = int(budget.max(initial=0))
        width = top + 2
        table = np.zeros((d + 1, width), dtype=np.int64)
        table[:, 1:] = _l1_ball_sizes(np.arange(d + 1, dtype=np.int64)[:, None],
                                      np.arange(top + 1, dtype=np.int64))
        sizes = table.ravel()
        pos = sizes.take(d * width + budget)
        # one coordinate at a time, until every row has placed its norm: each
        # later coordinate is 0 and adds |B_m(-1)| = 0
        for i in range(d):
            if not budget.any():
                break
            at = (d - 1 - i) * width + budget  # m * width + b
            low = at - ax[..., i] * inside  # m * width + b - |x|
            pos += np.where(x[..., i] * inside > 0,
                            sizes.take(at + 1) + sizes.take(at) - sizes.take(low + 1),
                            sizes.take(low))
            budget = budget - ax[..., i] * inside
        return np.where(inside, pos, -1)

    def check(self, a: GroupElement) -> None:
        if a.f is not None or len(a.z) != self.rank or not _ints(a.z):
            raise GroupError(f"element {a} does not belong to free_abelian(rank={self.rank})")

    def mul_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b

    def inv_rows(self, a: np.ndarray) -> np.ndarray:
        return -a


class _ZSemidirectFinite(Group):
    """Z semidirect_sigma F for a finite group F given by a Cayley table, sigma: F -> {+-1}.

    (m, f)(m', f') = (m + sigma(f) m', f f') and (m, f)^-1 = (-sigma(f) m, f^-1).
    The default shell bound is 2|F|, the degree of the extension (Z x F
    exceeds it at shell 2 alone, with 3|F| - 1 elements).  Each family gives
    the closed form of its default ball by its sizes (``default_ball_sizes``),
    the word length of (m, f) (``_default_lengths``) and a row's rank in its
    shell (``_shell_rank``).  The rows of a ball are the (m, f) with |m| <= r
    and length <= r, in (length, row) order, and a row's position is the size
    of the ball one shell in plus its rank.
    """

    def __init__(self, finite: FiniteGroupTable, sigma: tuple[int, ...],
                 default: list[GroupElement], generators: Optional[Iterable[GroupElement]]):
        self.finite = finite
        self.law = (self.family, finite)
        self._sigma_rows = np.array(sigma, dtype=np.int64)
        self._table = np.array(finite.table, dtype=np.int64)
        self._inverse = np.array(finite.inverse, dtype=np.int64)
        super().__init__(GroupElement((0,), finite.identity_index), default,
                         2 * finite.order, generators)

    def default_ball(self, radius: int) -> np.ndarray:
        # every (m, f) with |m| <= radius in lexicographic order, then those
        # within the radius stably sorted by length: (length, row) order
        order = self.finite.order
        m = np.repeat(np.arange(-radius, radius + 1, dtype=np.int64), order)
        f = np.tile(np.arange(order, dtype=np.int64), 2 * radius + 1)
        lengths = self._default_lengths(m, f)
        keep = lengths <= radius
        rows = np.stack([m.compress(keep), f.compress(keep)], axis=-1)
        return rows.take(np.argsort(lengths.compress(keep), kind="stable"), axis=0)

    def _locate(self, rows: np.ndarray, radius: int) -> np.ndarray:
        # position = |B(L - 1)| + the row's rank in its shell (_shell_rank)
        m, f = rows[..., 0], rows[..., 1]
        # bounds first, so |m| cannot wrap; a row outside is read as the identity
        inside = (m >= -radius) & (m <= radius) & (f >= 0) & (f < self.finite.order)
        m = np.where(inside, m, 0)
        f = np.where(inside, f, self.finite.identity_index)
        lengths = self._default_lengths(m, f)
        inside &= lengths <= radius
        start = np.where(lengths > 0, self.default_ball_sizes(lengths - 1), 0)
        rank = self._shell_rank(m, f, self.default_ball_sizes(lengths) - start)
        return np.where(inside, start + rank, -1)

    def check(self, a: GroupElement) -> None:
        if (a.f is None or len(a.z) != 1 or not _ints((*a.z, a.f))
                or not 0 <= a.f < self.finite.order):
            raise GroupError(
                f"element {a} does not belong to {self.family} (|F|={self.finite.order})")

    def mul_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # exact rows index the tables by an int64 copy of f, int64 rows by f
        # itself.  The dtype is given because the columns of single rows are
        # numpy scalars, which np.stack would widen to float64 beyond int64
        f = a[..., 1].astype(np.int64, copy=False)
        m = a[..., 0] + self._sigma_rows[f] * b[..., 0]
        return np.stack([m, self._table[f, b[..., 1].astype(np.int64, copy=False)]], axis=-1,
                        dtype=np.result_type(a, b))

    def inv_rows(self, a: np.ndarray) -> np.ndarray:
        f = a[..., 1].astype(np.int64, copy=False)
        return np.stack([-self._sigma_rows[f] * a[..., 0], self._inverse[f]], axis=-1,
                        dtype=a.dtype)


class ProductZFinite(_ZSemidirectFinite):
    """Direct product Z x F: sigma = 1."""

    family = "product_z_finite"

    def __init__(self, finite: FiniteGroupTable,
                 generators: Optional[Iterable[GroupElement]] = None):
        default = [GroupElement((1,), f) for f in range(finite.order)]
        default += [GroupElement((-1,), finite.inverse[f]) for f in range(finite.order)]
        super().__init__(finite, (1,) * finite.order, default, generators)

    def default_ball_sizes(self, radius):
        # every (m, f) with |m| <= r, less the (0, f != e) before radius 2
        order = self.finite.order
        return order * (2 * radius + 1) - (order - 1) * (radius < 2)

    def _default_lengths(self, m: np.ndarray, f: np.ndarray) -> np.ndarray:
        return np.where((m == 0) & (f != self.finite.identity_index), 2, np.abs(m))

    def _shell_rank(self, m: np.ndarray, f: np.ndarray, size: np.ndarray) -> np.ndarray:
        # (-k, F) first, (k, F) last, and (0, f != e) between them in shell 2
        order, e = self.finite.order, self.finite.identity_index
        middle = np.where(f == e, 0, order + f - (f > e))
        return np.where(m < 0, f, np.where(m > 0, size - order + f, middle))


class InfiniteDihedral(_ZSemidirectFinite):
    """Z semidirect Z_2 with sigma(1) = -1: (m, s)(m', s') = (m + (-1)^s m', s xor s')."""

    family = "infinite_dihedral"

    def __init__(self, generators: Optional[Iterable[GroupElement]] = None):
        default = [GroupElement((1,), 0), GroupElement((-1,), 0), GroupElement((0,), 1)]
        super().__init__(_Z2, (1, -1), default, generators)

    def default_ball_sizes(self, radius):
        # (m, 0) with |m| <= r and (m, 1) with |m| <= r - 1
        return 4 * radius + (radius == 0)

    def _default_lengths(self, m: np.ndarray, f: np.ndarray) -> np.ndarray:
        return np.abs(m) + f

    def _shell_rank(self, m: np.ndarray, f: np.ndarray, size: np.ndarray) -> np.ndarray:
        # in shell k >= 2, m < 0 at ranks 0 (f = 0) and 1 (f = 1), m > 0 at
        # 2 (f = 1) and 3 (f = 0); shell 1 has (0, 1) at rank 1
        return np.where(m > 0, size - 1 - f, f)


# ---------------------------------------------------------------------------
# exact row lookup
# ---------------------------------------------------------------------------

_SIGN_BIT = np.uint64(1 << 63)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each int64 row as one fixed-width byte string that sorts like the row.

    Every coordinate is written big-endian with its sign bit flipped, so equal
    rows give equal keys and the byte order of the keys is the numeric
    lexicographic order of the rows, for every int64 coordinate.
    """
    flipped = np.asarray(rows, dtype=np.int64).view(np.uint64) ^ _SIGN_BIT
    keys = np.ascontiguousarray(flipped, dtype=">u8")
    return keys.view(np.dtype((np.void, keys.itemsize * keys.shape[-1]))).reshape(
        keys.shape[:-1])


class RowIndex:
    """Positions of rows in a fixed non-empty (n, k) int64 array, by a sorted-key search.

    Rows are compared by their keys (see _row_keys), so the lookup is exact
    for every int64 coordinate (no mixed-radix packing that could overflow).
    The keys are sorted once, on the first ``find``, so an index that is
    never searched sorts nothing.
    """

    def __init__(self, rows: np.ndarray):
        self._rows = rows

    @functools.cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:  # (order, keys[order])
        keys = _row_keys(self._rows)
        order = np.argsort(keys, kind="stable")
        return order, keys[order]

    def find(self, rows: np.ndarray) -> np.ndarray:
        """Index of each row of a (..., k) array in the fixed rows, -1 where absent."""
        order, sorted_keys = self._sorted
        keys = _row_keys(rows)
        pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
        return np.where(sorted_keys[pos] == keys, order[pos], -1)


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------

def _element_shape(data, free_abelian: bool) -> GroupElement:
    """The element an encoding names, unchecked: [m1,...,mn] on Z^n, [m, f_index] otherwise."""
    if not isinstance(data, (list, tuple)) or not _ints(data):
        raise ConfigError(f"element {data!r} is not a list of integers")
    if free_abelian:
        return GroupElement(tuple(data))
    if len(data) != 2:
        raise ConfigError(f"element {data!r}: expected [m, f_index]")
    return GroupElement((data[0],), data[1])


def decode_element(group: Group, data) -> GroupElement:
    """Family-specific element encoding: [m1,...,mn] or [m, f_index]."""
    el = _element_shape(data, isinstance(group, FreeAbelian))
    try:
        group.check(el)
    except GroupError as exc:
        raise ConfigError(str(exc)) from exc
    return el


_GROUP_FIELDS = {
    "free_abelian": frozenset({"family", "rank", "generators"}),
    "product_z_finite": frozenset({"family", "finite", "generators"}),
    "infinite_dihedral": frozenset({"family", "generators"}),
}


def group_from_json(data) -> Group:
    """Build a group from its parsed JSON specification (a dict, as json.load returns).

    A free_abelian rank whose radius-1 ball is over the ball cap raises ResourceError.
    """
    if not isinstance(data, dict):
        raise ConfigError("group spec must be a JSON object")
    family = data.get("family")
    if not isinstance(family, str) or family not in _GROUP_FIELDS:
        raise ConfigError(f"unknown group family {family!r}")
    check_fields(data, _GROUP_FIELDS[family], family)
    if family == "free_abelian":
        rank = data.get("rank", 1)
        if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
            raise ConfigError("free_abelian: rank must be a positive integer")
        # the default set, and any symmetric set that generates Z^rank, has at
        # least 2 * rank elements, so the radius-1 ball that every experiment
        # enumerates holds at least 2 * rank + 1; refuse it before
        # FreeAbelian(rank) is built
        from .wordlength import _cap_error, max_ball_elements
        cap = max_ball_elements()
        if 2 * rank + 1 > cap:
            raise _cap_error(cap, 1)
        build = functools.partial(FreeAbelian, rank)
    elif family == "product_z_finite":
        fin = data.get("finite")
        if not isinstance(fin, dict) or ("name" in fin) == ("table" in fin):
            raise ConfigError("product_z_finite: 'finite' must give a 'name' or a 'table'")
        check_fields(fin, frozenset({"name", "table", "order"}), "finite")
        try:
            finite = (builtin_finite_table(fin["name"]) if "name" in fin
                      else FiniteGroupTable.from_table(fin["table"]))
        except GroupError as exc:
            raise ConfigError(f"finite.table: {exc}") from exc
        order = fin.get("order", finite.order)
        if isinstance(order, bool) or not isinstance(order, int) or order != finite.order:
            raise ConfigError(f"finite.order: {order!r} is not the order {finite.order} "
                              f"of the finite group")
        build = functools.partial(ProductZFinite, finite)
    else:
        build = InfiniteDihedral
    generators = None
    if "generators" in data:
        if not isinstance(data["generators"], list):
            raise ConfigError("generators: must be a list of elements")
        generators = [_element_shape(g, family == "free_abelian") for g in data["generators"]]
    try:
        return build(generators)  # _validate_generators checks each generator
    except GroupError as exc:
        raise ConfigError(str(exc)) from exc
