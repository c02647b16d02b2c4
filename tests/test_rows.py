"""Property tests of the row layer: vectorised products, the converters and the row lookup."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetric.groups import (FiniteGroupTable, FreeAbelian, GroupElement,
                            InfiniteDihedral, ProductZFinite, RowIndex, _row_keys)
from qmetric.wordlength import enumerate_ball

GROUPS = {
    "z": FreeAbelian(1),
    "z3": FreeAbelian(3),
    "zxz3": ProductZFinite(FiniteGroupTable.cyclic(3)),
    "zxs3": ProductZFinite(FiniteGroupTable.symmetric(3)),
    "dihedral": InfiniteDihedral(),
}

BIG = 10 ** 12
# small coordinates, and coordinates near +-10^12 (sums and differences stay in int64)
coordinates = st.one_of(st.integers(-20, 20), st.integers(BIG - 5, BIG + 5),
                        st.integers(-BIG - 5, -BIG + 5))


def elements(group, coords=coordinates):
    """Strategy for canonical elements of the group."""
    if isinstance(group, FreeAbelian):
        return st.tuples(*[coords] * group.rank).map(GroupElement)
    order = group.finite.order if isinstance(group, ProductZFinite) else 2
    return st.builds(lambda z, f: GroupElement((z,), f), coords, st.integers(0, order - 1))


@st.composite
def group_and_pairs(draw):
    name = draw(st.sampled_from(sorted(GROUPS)))
    group = GROUPS[name]
    pairs = draw(st.lists(st.tuples(elements(group), elements(group)), min_size=1, max_size=20))
    return group, pairs


@settings(deadline=None)
@given(group_and_pairs())
def test_mul_rows_and_inv_rows_match_elementwise(case):
    group, pairs = case
    a = group.to_rows([x for x, _ in pairs])
    b = group.to_rows([y for _, y in pairs])
    assert a.dtype == np.int64 and a.shape == (len(pairs), group.row_width)
    assert group.from_rows(group.mul_rows(a, b)) == [group.mul(x, y) for x, y in pairs]
    assert group.from_rows(group.inv_rows(a)) == [group.inv(x) for x, _ in pairs]
    # one row against many broadcasts like the Gram and translation loops use it
    first = pairs[0][0]
    assert group.from_rows(group.mul_rows(a[0], b)) == [group.mul(first, y) for _, y in pairs]
    assert group.from_rows(a) == [x for x, _ in pairs]


@settings(deadline=None)
@given(st.data())
def test_row_index_matches_a_dict(data):
    group = GROUPS[data.draw(st.sampled_from(sorted(GROUPS)))]
    fixed = data.draw(st.lists(elements(group), unique=True, min_size=1, max_size=30))
    queries = data.draw(st.lists(st.one_of(st.sampled_from(fixed), elements(group)),
                                 max_size=30))
    position = {g: i for i, g in enumerate(fixed)}
    found = RowIndex(group.to_rows(fixed)).find(group.to_rows(queries))
    assert found.tolist() == [position.get(g, -1) for g in queries]


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_ball_rows_and_lookup(name):
    group = GROUPS[name]
    ball = enumerate_ball(group, 3)
    rows = ball.rows
    assert rows.dtype == np.int64 and rows.shape == (len(ball), group.row_width)
    assert group.to_rows(ball.elements).tolist() == rows.tolist()
    assert ball.find_rows(rows).tolist() == list(range(len(ball)))
    outside = group.mul_rows(rows, rows[-1])
    position = {g: i for i, g in enumerate(ball.elements)}
    expected = [position.get(g, -1) for g in group.from_rows(outside)]
    assert ball.find_rows(outside).tolist() == expected


def test_lookup_is_exact_at_large_coordinates():
    group = GROUPS["z3"]
    far = GroupElement((BIG, -BIG, BIG))
    near_misses = [GroupElement((BIG, -BIG, BIG + 1)), GroupElement((BIG, BIG, BIG)),
                   GroupElement((-BIG, -BIG, BIG)), GroupElement((BIG, -BIG + 1, BIG))]
    index = RowIndex(group.to_rows([group.identity, far]))
    assert index.find(group.to_rows([far, *near_misses])).tolist() == [1, -1, -1, -1, -1]


# any int64, with the extremes, +-10^12 and small values drawn often
int64s = st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1),
                   st.sampled_from([-2 ** 63, 2 ** 63 - 1, BIG, -BIG, -1, 0, 1]),
                   st.integers(-3, 3))


@st.composite
def int64_rows(draw, min_size=0):
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[int64s] * width), min_size=min_size, max_size=30))
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


@settings(deadline=None)
@given(int64_rows())
def test_row_keys_sort_like_the_rows(rows):
    order = np.argsort(_row_keys(rows), kind="stable")
    assert order.tolist() == np.lexsort(rows.T[::-1]).tolist()


@settings(deadline=None)
@given(int64_rows(min_size=1), st.data())
def test_lexicographic_index_matches_a_sorted_one(rows, data):
    fixed = np.unique(rows, axis=0)  # distinct, in lexicographic order
    perm = np.array(data.draw(st.permutations(range(len(fixed)))), dtype=np.intp)
    # the fixed rows in another order: lexicographic row perm[i] at index i
    sorted_index = RowIndex(fixed[perm])
    lexicographic = RowIndex.lexicographic(fixed, np.argsort(perm))
    queries = np.concatenate([fixed, rows + 1, rows - 1, rows[::-1]])  # +-1 wraps at the ends
    assert lexicographic.find(queries).tolist() == sorted_index.find(queries).tolist()
