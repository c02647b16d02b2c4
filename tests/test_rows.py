"""Property tests of the row layer: vectorised products, the converters and the row lookup.

Then the int64 boundary: elements beyond int64 saturate in ``to_rows`` and
take the same path as every other element, so no ball finds them.  The last
test checks the membership boundary: ``to_rows`` refuses a foreign element,
and so does every entry to rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_inv, reference_mul

from qmetric.errors import GroupError
from qmetric.groups import (FiniteGroupTable, FreeAbelian, Group, GroupElement,
                            InfiniteDihedral, ProductZFinite, RowIndex, _row_keys)
from qmetric.opalgebra import (AlgebraElement, commutator_matrix, commutator_triplets,
                               lemma2_lower)
from qmetric.metrics import connes_bracket
from qmetric.states import StateRep, TableState, TraceState
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


# coordinates within int64 and beyond it, up to +-2^80
wide_coordinates = st.one_of(coordinates, st.integers(-2 ** 80, 2 ** 80),
                             st.sampled_from([2 ** 63 - 1, -2 ** 63, 2 ** 63, -2 ** 63 - 1]))


@st.composite
def group_and_pairs(draw):
    name = draw(st.sampled_from(sorted(GROUPS)))
    group = GROUPS[name]
    pairs = draw(st.lists(st.tuples(elements(group, wide_coordinates),
                                    elements(group, wide_coordinates)),
                          min_size=1, max_size=20))
    return group, pairs


def fits_int64(g):
    return all(-2 ** 63 <= c < 2 ** 63 for c in g.z)


@settings(deadline=None)
@given(group_and_pairs())
def test_mul_rows_and_inv_rows_match_elementwise(case):
    group, pairs = case
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    products = [reference_mul(group, x, y) for x, y in pairs]
    inverses = [reference_inv(group, x) for x in xs]
    # exact rows multiply exactly at every size, to Python ints
    a, b = group._exact_rows(xs), group._exact_rows(ys)
    assert a.dtype == object and a.shape == (len(pairs), group.row_width)
    assert group.from_rows(group.mul_rows(a, b)) == products
    assert group.from_rows(group.inv_rows(a)) == inverses
    # a single row's columns are numpy scalars; its product stays exact too
    single = group.from_rows(group.mul_rows(a[0], b[0])) + group.from_rows(group.inv_rows(a[0]))
    assert single == [products[0], inverses[0]]
    out = group.from_rows(group.mul_rows(a, b)) + single
    assert {type(c) for g in out for c in (*g.z, g.f) if c is not None} == {int}
    # one row against many broadcasts like the Gram and translation loops use it
    assert group.from_rows(group.mul_rows(a[0], b)) == [reference_mul(group, xs[0], y)
                                                         for y in ys]
    assert group.from_rows(a) == xs
    # int64 rows give the same law wherever the factors and the result fit int64
    a, b = group.to_rows(xs), group.to_rows(ys)
    assert a.dtype == np.int64 and a.shape == (len(pairs), group.row_width)
    for x, y, p, i, row_p, row_i in zip(xs, ys, products, inverses,
                                        group.from_rows(group.mul_rows(a, b)),
                                        group.from_rows(group.inv_rows(a))):
        if fits_int64(x) and fits_int64(y) and fits_int64(p):
            assert row_p == p
        if fits_int64(x) and fits_int64(i):
            assert row_i == i


def test_no_family_has_a_second_law():
    # the law is mul_rows and inv_rows alone: no element-level product or inverse
    def subclasses(cls):
        return [cls] + [c for sub in cls.__subclasses__() for c in subclasses(sub)]

    families = subclasses(Group)
    assert {FreeAbelian, ProductZFinite, InfiniteDihedral} < set(families)
    for cls in families:
        defined = {"mul", "inv", "_mul", "_inv"} & vars(cls).keys()
        assert defined == set(), cls
    assert not any(hasattr(group, "_sigma") for group in GROUPS.values())


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
def int64_rows(draw):
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[int64s] * width), max_size=30))
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


@settings(deadline=None)
@given(int64_rows())
def test_row_keys_sort_like_the_rows(rows):
    order = np.argsort(_row_keys(rows), kind="stable")
    assert order.tolist() == np.lexsort(rows.T[::-1]).tolist()


# ---------------------------------------------------------------------------
# the int64 boundary
# ---------------------------------------------------------------------------

BOUNDARY_GROUPS = {
    "z": FreeAbelian(1),
    "z2": FreeAbelian(2),
    "zxz2": ProductZFinite(FiniteGroupTable.cyclic(2)),
    "dihedral": InfiniteDihedral(),
}
# magnitudes from just below the int64 limits, which wrap in products, to far beyond them
far_coordinates = st.integers(2 ** 63 - 2, 2 ** 80).flatmap(lambda x: st.sampled_from([x, -x]))
values = st.complex_numbers(max_magnitude=200, allow_nan=False, allow_infinity=False)


@st.composite
def far_elements(draw, group):
    """An element with at least one coordinate in +-[2^63 - 2, 2^80]."""
    g = draw(elements(group, st.integers(-4, 4)))
    z = list(g.z)
    for i in draw(st.sets(st.integers(0, len(z) - 1), min_size=1)):
        z[i] = draw(far_coordinates)
    return GroupElement(tuple(z), g.f)


@st.composite
def near_and_far(draw):
    """A group, a ball, and a table and support that mix near and far elements."""
    group = BOUNDARY_GROUPS[draw(st.sampled_from(sorted(BOUNDARY_GROUPS)))]
    ball = enumerate_ball(group, draw(st.integers(0, 4)))
    near = draw(st.dictionaries(elements(group, st.integers(-6, 6)), values, max_size=8))
    far = draw(st.dictionaries(far_elements(group), values, min_size=1, max_size=6))
    support = draw(st.permutations([*near, *far]))
    return group, ball, near, far, support


@settings(deadline=None, max_examples=60)
@given(near_and_far())
def test_far_elements_are_in_no_ball(case):
    group, ball, near, far, support = case
    table = {**near, **far}
    phi, phi_near = StateRep(group, table), StateRep(group, near)
    assert phi.coeff_array(ball).tobytes() == phi_near.coeff_array(ball).tobytes()
    # the bracket's d_inf tail against the trace (e = 1) is (e_phi + 1) / (r + 1),
    # with e_phi from numpy's modulus, which can differ from Python's abs in the
    # last bit; a bracket needs radius >= 1
    wide = ball if ball.radius else enumerate_ball(group, 1)
    inside = set(wide.elements)
    e_phi = max([1.0] + [float(np.abs(v)) for g, v in table.items() if g not in inside])
    tail = connes_bracket(phi, TraceState(group), wide).d_inf.tail_bound
    assert tail.hex() == ((e_phi + 1.0) / (wide.radius + 1)).hex()
    # the far elements of the support get no triplets, the near ones keep theirs
    rows, cols, index, diff = commutator_triplets(group.to_rows(support), ball)
    places = np.array([i for i, g in enumerate(support) if g in near], dtype=np.intp)
    near_rows, near_cols, near_index, near_diff = commutator_triplets(
        group.to_rows([support[i] for i in places]), ball)
    assert rows.tolist() == near_rows.tolist() and cols.tolist() == near_cols.tolist()
    assert index.tolist() == places[near_index].tolist()
    assert diff.tolist() == near_diff.tolist()


def test_saturated_rows_times_a_ball_at_the_generator_limit():
    # coordinates up to 300 * 2^31, the largest generator coordinate
    group = FreeAbelian(1, [GroupElement((s * x,)) for x in (1, 2 ** 31) for s in (1, -1)])
    ball = enumerate_ball(group, 300)
    assert len(ball) == 180_601 and np.abs(ball.rows).max() == 300 * 2 ** 31
    far = group.to_rows([GroupElement((2 ** 70,)), GroupElement((-2 ** 70,)),
                         GroupElement((2 ** 63,)), GroupElement((-2 ** 63 - 1,))])
    int64 = np.iinfo(np.int64)
    assert far[:, 0].tolist() == [int64.max, int64.min, int64.max, int64.min]
    for row in far:
        assert (ball.find_rows(group.mul_rows(row, ball.rows)) == -1).all()
        assert (ball.find_rows(group.mul_rows(ball.rows, row)) == -1).all()


# on Z x Z2: a bare two-coordinate tuple, and a finite index past the order
FOREIGN = [GroupElement((1, 2)), GroupElement((3,), 7)]


@pytest.mark.parametrize("foreign", FOREIGN, ids=["no_finite_part", "index_past_order"])
def test_foreign_elements_are_refused_where_they_become_rows(foreign):
    group = ProductZFinite(FiniteGroupTable.cyclic(2))
    ball = enumerate_ball(group, 2)
    with pytest.raises(GroupError, match="does not belong to product_z_finite"):
        group.to_rows([group.identity, foreign])
    with pytest.raises(GroupError):
        lemma2_lower(AlgebraElement({foreign: 1.0}), ball)
    with pytest.raises(GroupError):
        TableState(group, {foreign: 0.5})
    with pytest.raises(GroupError):
        commutator_matrix(AlgebraElement({foreign: 1.0}), ball)
