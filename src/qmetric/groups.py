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

Elements are canonical named tuples, so structural equality coincides with
group equality and elements can be used as dictionary keys.  The public
``mul`` and ``inv`` check their arguments and then call the family's raw
``_mul``/``_inv``.

The same elements also have a row form, the one that balls, states and
operators compute with: an int64 row (z_1, ..., z_d) for Z^d and (z, f) for
Z x F and the dihedral group.  ``to_rows``/``from_rows`` convert between the
two forms, each family's ``mul_rows``/``inv_rows`` multiply and invert
broadcastable (..., k) arrays of rows, and ``RowIndex`` looks rows up exactly
in a fixed set of rows, by keys whose byte order is the rows' lexicographic order.
Elements may have coordinates of any size.  ``to_rows``, the one checked
entry to the row form, decides their rows, saturating a coordinate beyond
int64 to the nearest int64 limit.  Ball coordinates stay below 2^61 (see
``to_rows``), so such a row lies in no ball.

For its default generators each family knows its word length in closed
form: L(z) = |z|_1 on Z^d; L(m, f) = |m| for m != 0 and L(0, f) = 2 for
f != e on Z x F; L(m, s) = |m| + s on the dihedral group.
``default_ball_sizes`` gives the exact ball sizes and ``default_ball`` the
rows and lengths of a ball, the rows in lexicographic order.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError, GroupError, ResourceError, check_fields


class GroupElement(NamedTuple):
    """Canonical group element: integer part plus optional finite-component index."""

    z: tuple[int, ...]
    f: Optional[int] = None


_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


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


def builtin_finite_table(name: str) -> FiniteGroupTable:
    key = name.lower() if isinstance(name, str) else None
    if key == "z2":
        return FiniteGroupTable.cyclic(2)
    if key == "z3":
        return FiniteGroupTable.cyclic(3)
    if key == "s3":
        return FiniteGroupTable.symmetric(3)
    raise ConfigError(f"unknown built-in finite group {name!r} (have: z2, z3, s3)")


# ---------------------------------------------------------------------------
# group handles
# ---------------------------------------------------------------------------

# With the ball cap of at most 2^30 elements (wordlength._MAX_CAP), keeps
# every ball coordinate below 2^61; see Group.to_rows.
_MAX_GENERATOR_COORD = 2 ** 31

_Z2 = FiniteGroupTable.cyclic(2)  # the finite factor of InfiniteDihedral, checked once


class Group:
    """Immutable group handle exposing identity, generators, mul and inv."""

    family: str = ""

    def __init__(self, identity: GroupElement, default_generators: Iterable[GroupElement],
                 generators: Optional[Iterable[GroupElement]] = None):
        self.identity = identity
        self.row_width = len(identity.z) + (identity.f is not None)
        default = tuple(default_generators)
        self.generators = default if generators is None else tuple(generators)
        self._default_generators = set(self.generators) == set(default)
        self._validate_generators()

    @property
    def shell_bound(self) -> Optional[int]:
        """Analytic bound on shell sizes; only the default generating set has one."""
        return self._default_shell_bound() if self._default_generators else None

    def _default_shell_bound(self) -> Optional[int]:
        return None

    def default_ball_sizes(self, radius):
        """|B(radius)| for the default generators, from its closed form.

        An int radius gives the exact Python int; an int64 array of radii
        gives an int64 array, exact while every size fits int64.
        """
        raise NotImplementedError

    def default_shell_sizes(self, radius: int) -> np.ndarray:
        """Exact shell sizes S_0..S_radius of the default generators, as int64."""
        return np.diff(self.default_ball_sizes(np.arange(radius + 1, dtype=np.int64)),
                       prepend=0)

    def default_ball(self, radius: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows and word lengths of the default ball of the given radius.

        The rows come in strictly increasing lexicographic order.
        """
        raise NotImplementedError

    def check(self, a: GroupElement) -> None:
        raise NotImplementedError

    def mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        self.check(a)
        self.check(b)
        return self._mul(a, b)

    def inv(self, a: GroupElement) -> GroupElement:
        self.check(a)
        return self._inv(a)

    def _mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        raise NotImplementedError

    def _inv(self, a: GroupElement) -> GroupElement:
        raise NotImplementedError

    def mul_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products of broadcastable int64 row arrays of shape (..., row_width)."""
        raise NotImplementedError

    def inv_rows(self, a: np.ndarray) -> np.ndarray:
        """Inverses of an int64 row array of shape (..., row_width)."""
        raise NotImplementedError

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
        flat = []
        for g in elements:
            self.check(g)
            flat.append(g.z if g.f is None else g.z + (g.f,))
        rows = np.array(flat, dtype=object).reshape(len(flat), self.row_width)
        return rows.clip(_INT64_MIN, _INT64_MAX).astype(np.int64)

    def from_rows(self, rows: np.ndarray) -> list[GroupElement]:
        """Inverse of to_rows on elements within int64: elements with Python int coordinates."""
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
            if g == self.identity:
                raise GroupError("generating set contains the identity")
            if any(abs(x) > _MAX_GENERATOR_COORD for x in g.z):
                raise GroupError(f"generator {g} has a coordinate beyond +-2^31")
            if self.inv(g) not in gens:
                raise GroupError(f"generating set is not symmetric: missing inverse of {g}")


# The 2 * rank default generators are rank-tuples, so building Z^rank and its
# radius-1 ball costs time and memory quadratic in the rank: FreeAbelian(rank)
# took 0.33 s at rank 1024 and 1.27 s at 2048, its radius-1 ball 0.14 s and
# 0.54 s, at a peak RSS of 117 MB and 382 MB (time.perf_counter and
# ru_maxrss, one core of an Intel Xeon VM).
_MAX_RANK = 1024


class FreeAbelian(Group):
    family = "free_abelian"

    def __init__(self, rank: int, generators: Optional[Iterable[GroupElement]] = None):
        if rank < 1:
            raise GroupError("rank must be >= 1")
        if rank > _MAX_RANK:
            raise ResourceError(f"free_abelian rank {rank} is over the cap of {_MAX_RANK}")
        self.rank = rank
        default = []
        for i in range(rank):
            for s in (1, -1):
                v = [0] * rank
                v[i] = s
                default.append(GroupElement(tuple(v)))
        super().__init__(GroupElement((0,) * rank), default, generators)

    def _default_shell_bound(self) -> Optional[int]:
        return 2 if self.rank == 1 else None

    def default_ball_sizes(self, radius):
        # sum_i 2^i C(d, i) C(r, i): the points with i nonzero coordinates;
        # i stops at r, so on arrays every term is at most the largest size
        total = binom = 1 + 0 * radius  # an array when radius is one
        for i in range(1, min(self.rank, int(np.max(radius))) + 1):
            binom = binom * (radius - (i - 1)) // i  # C(r, i), 0 for r < i
            total = total + 2 ** i * math.comb(self.rank, i) * binom
        return total

    def default_ball(self, radius: int) -> tuple[np.ndarray, np.ndarray]:
        # one coordinate at a time: each prefix with l1 norm u is followed by
        # every x with |x| <= radius - u; a prefix is its parent prefix and its
        # last x, and the rows are filled in from the last coordinate back
        used = np.zeros(1, dtype=np.int64)
        steps = []
        for _ in range(self.rank):
            budget = radius - used
            counts = 2 * budget + 1
            parent = np.repeat(np.arange(used.size), counts)
            zero = np.cumsum(counts) - counts + budget  # position of each parent's x = 0
            x = np.arange(parent.size, dtype=np.int64) - zero[parent]
            steps.append((parent, x))
            used = used[parent] + np.abs(x)
        rows = np.empty((used.size, self.rank), dtype=np.int64)
        at = slice(None)
        for i in reversed(range(self.rank)):
            parent, x = steps[i]
            rows[:, i] = x[at]
            at = parent[at]
        return rows, used

    def check(self, a: GroupElement) -> None:
        if a.f is not None or len(a.z) != self.rank:
            raise GroupError(f"element {a} does not belong to free_abelian(rank={self.rank})")

    def _mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return GroupElement(tuple(map(operator.add, a.z, b.z)))

    def _inv(self, a: GroupElement) -> GroupElement:
        return GroupElement(tuple(map(operator.neg, a.z)))

    def mul_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b

    def inv_rows(self, a: np.ndarray) -> np.ndarray:
        return -a


class _ZSemidirectFinite(Group):
    """Z semidirect_sigma F for a finite group F given by a Cayley table, sigma: F -> {+-1}.

    (m, f)(m', f') = (m + sigma(f) m', f f') and (m, f)^-1 = (-sigma(f) m, f^-1).
    The default shell bound is 2|F|, the degree of the extension (Z x F
    exceeds it at shell 2 alone, with 3|F| - 1 elements); each family gives
    the closed-form ``_default_lengths`` of the grid of ``default_ball``.
    """

    def __init__(self, finite: FiniteGroupTable, sigma: tuple[int, ...],
                 default: list[GroupElement], generators: Optional[Iterable[GroupElement]]):
        self.finite = finite
        self._sigma = sigma  # Python ints: element coordinates may exceed int64
        self._sigma_rows = np.array(sigma, dtype=np.int64)
        self._table = np.array(finite.table, dtype=np.int64)
        self._inverse = np.array(finite.inverse, dtype=np.int64)
        super().__init__(GroupElement((0,), finite.identity_index), default, generators)

    def _default_shell_bound(self) -> Optional[int]:
        return 2 * self.finite.order

    def default_ball(self, radius: int) -> tuple[np.ndarray, np.ndarray]:
        order = self.finite.order
        m = np.repeat(np.arange(-radius, radius + 1, dtype=np.int64), order)
        f = np.tile(np.arange(order, dtype=np.int64), 2 * radius + 1)
        lengths = self._default_lengths(m, f)
        keep = lengths <= radius
        return np.stack([m[keep], f[keep]], axis=-1), lengths[keep]

    def check(self, a: GroupElement) -> None:
        if a.f is None or len(a.z) != 1 or not 0 <= a.f < self.finite.order:
            raise GroupError(
                f"element {a} does not belong to {self.family} (|F|={self.finite.order})")

    def _mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return GroupElement((a.z[0] + self._sigma[a.f] * b.z[0],), self.finite.table[a.f][b.f])

    def _inv(self, a: GroupElement) -> GroupElement:
        return GroupElement((-self._sigma[a.f] * a.z[0],), self.finite.inverse[a.f])

    def mul_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        m = a[..., 0] + self._sigma_rows[a[..., 1]] * b[..., 0]
        return np.stack([m, self._table[a[..., 1], b[..., 1]]], axis=-1)

    def inv_rows(self, a: np.ndarray) -> np.ndarray:
        m = -self._sigma_rows[a[..., 1]] * a[..., 0]
        return np.stack([m, self._inverse[a[..., 1]]], axis=-1)


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
        lengths = np.abs(m)
        lengths[(m == 0) & (f != self.finite.identity_index)] = 2
        return lengths


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
    The constructor sorts the keys once; ``lexicographic`` takes rows that
    are already in order and sorts nothing.
    """

    def __init__(self, rows: np.ndarray):
        keys = _row_keys(rows)
        self._order = np.argsort(keys, kind="stable")
        self._sorted = keys[self._order]

    @classmethod
    def lexicographic(cls, rows: np.ndarray, positions: np.ndarray) -> "RowIndex":
        """The index of rows in strictly increasing lexicographic order, without a sort.

        find reports positions[p] for a match of rows[p].
        """
        index = cls.__new__(cls)
        index._order, index._sorted = positions, _row_keys(rows)
        return index

    def find(self, rows: np.ndarray) -> np.ndarray:
        """Index of each row of a (..., k) array in the fixed rows, -1 where absent."""
        keys = _row_keys(rows)
        pos = np.minimum(np.searchsorted(self._sorted, keys), len(self._sorted) - 1)
        return np.where(self._sorted[pos] == keys, self._order[pos], -1)


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def word_eval(group: Group, word: Sequence[int]) -> GroupElement:
    """Left-to-right product of generators; the empty word is the identity."""
    out = group.identity
    for idx in word:
        if not 0 <= idx < len(group.generators):
            raise GroupError(
                f"generator index {idx} out of range (have {len(group.generators)})")
        out = group.mul(out, group.generators[idx])
    return out


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------

def decode_element(group: Group, data) -> GroupElement:
    """Family-specific element encoding: [m1,...,mn] or [m, f_index]."""
    if not isinstance(data, (list, tuple)) or any(
            isinstance(x, bool) or not isinstance(x, int) for x in data):
        raise ConfigError(f"element {data!r} is not a list of integers")
    if isinstance(group, FreeAbelian):
        el = GroupElement(tuple(data))
    else:
        if len(data) != 2:
            raise ConfigError(f"element {data!r}: expected [m, f_index]")
        el = GroupElement((data[0],), data[1])
    try:
        group.check(el)
    except GroupError as exc:
        raise ConfigError(str(exc)) from exc
    return el


def encode_element(group: Group, el: GroupElement) -> list[int]:
    if isinstance(group, FreeAbelian):
        return list(el.z)
    return [el.z[0], el.f]


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
    group = build()
    if "generators" in data:
        gens = data["generators"]
        if not isinstance(gens, list):
            raise ConfigError("generators: must be a list of elements")
        try:
            group = build([decode_element(group, g) for g in gens])
        except GroupError as exc:
            raise ConfigError(str(exc)) from exc
    return group
