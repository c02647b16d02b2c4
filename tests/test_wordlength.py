import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_inv, reference_mul

from qmetric import wordlength
from qmetric.errors import BallRadiusError, GroupError, ResourceError
from qmetric.experiments import run_dist, run_summable
from qmetric.groups import (FiniteGroupTable, FreeAbelian, GroupElement, _l1_ball_sizes,
                            InfiniteDihedral, ProductZFinite, RowIndex)
from qmetric.metrics import connes_bracket
from qmetric.opalgebra import (AlgebraElement, commutator_matrix, commutator_norm_upper_l1,
                               lemma2_lower)
from qmetric.states import DensityState, TraceState, pd_check
from qmetric.wordlength import (_search_ball, enumerate_ball, growth_fit, max_ball_elements,
                                square_sum_evidence)


def length(ball, g):
    """L(g) from the ball's rows: one lookup of g's row."""
    i = int(ball.find_rows(ball.group.to_rows([g]))[0])
    assert i >= 0, f"{g} is outside the ball"
    return int(ball.lengths[i])


def brute_force_lengths(group, radius):
    """Dijkstra-free oracle: plain BFS over dict, no ordering assumptions."""
    dist = {group.identity: 0}
    frontier = [group.identity]
    for k in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for s in group.generators:
                h = reference_mul(group, g, s)
                if h not in dist:
                    dist[h] = k
                    nxt.append(h)
        frontier = nxt
    return dist


class TestEnumerateBall:
    def test_z_ball(self, z_group):
        ball = enumerate_ball(z_group, 3)
        assert len(ball) == 7
        assert ball.shell_sizes.tolist() == [1, 2, 2, 2]
        assert length(ball, GroupElement((-3,))) == 3

    def test_z2_reference_sizes(self, z2_group):
        ball = enumerate_ball(z2_group, 2)
        assert len(ball) == 13
        assert ball.shell_sizes.tolist() == [1, 4, 8]

    def test_z2_lengths_are_l1_norm(self, z2_group):
        ball = enumerate_ball(z2_group, 5)
        for el, ln in zip(ball.elements, ball.lengths):
            assert ln == abs(el.z[0]) + abs(el.z[1])

    def test_dihedral_reference_length(self, dihedral):
        ball = enumerate_ball(dihedral, 4)
        assert length(ball, GroupElement((2,), 1)) == 3

    def test_dihedral_shells(self, dihedral):
        # shells have exactly 4 elements from radius 2 onwards
        ball = enumerate_ball(dihedral, 8)
        assert ball.shell_sizes.tolist() == [1, 3, 4, 4, 4, 4, 4, 4, 4]

    def test_product_z_z2_against_bfs_oracle(self, z_x_z2):
        ball = enumerate_ball(z_x_z2, 6)
        oracle = brute_force_lengths(z_x_z2, 6)
        assert set(ball.elements) == set(oracle)
        for el, ln in zip(ball.elements, ball.lengths):
            assert ln == oracle[el]

    def test_dihedral_against_bfs_oracle(self, dihedral):
        ball = enumerate_ball(dihedral, 7)
        oracle = brute_force_lengths(dihedral, 7)
        assert set(ball.elements) == set(oracle)
        for el, ln in zip(ball.elements, ball.lengths):
            assert ln == oracle[el]

    def test_deterministic_ordering(self, z2_group):
        a = enumerate_ball(z2_group, 4)
        b = enumerate_ball(z2_group, 4)
        assert a.elements == b.elements
        assert a.lengths.tolist() == b.lengths.tolist()

    def test_sorted_by_length_then_element(self, z2_group, z_x_z2, dihedral):
        for group in (z2_group, z_x_z2, dihedral):
            ball = enumerate_ball(group, 4)
            assert ball.lengths.tolist() == sorted(ball.lengths.tolist())
            # rows within a shell in lexicographic order, the order of the elements
            keys = list(zip(ball.lengths.tolist(), ball.rows.tolist()))
            assert keys == sorted(keys)
            assert len(set(map(str, keys))) == len(ball)

    def test_radius_zero(self, z_group):
        ball = enumerate_ball(z_group, 0)
        assert len(ball) == 1
        assert ball.elements == (z_group.identity,)

    def test_nonstandard_generators(self):
        # even sublattice of Z: ball misses odd integers entirely
        group = FreeAbelian(1, [GroupElement((2,)), GroupElement((-2,))])
        ball = enumerate_ball(group, 3)
        assert set(el.z[0] for el in ball.elements) == {-6, -4, -2, 0, 2, 4, 6}

    def test_elements_view_is_built_on_demand(self, z_x_z2):
        ball = enumerate_ball(z_x_z2, 6)
        state = DensityState(z_x_z2, AlgebraElement({GroupElement((0,), 0): 1.0,
                                                     GroupElement((1,), 1): 0.5}))
        connes_bracket(TraceState(z_x_z2), state, ball)
        pd_check(state, ball)
        commutator_matrix(AlgebraElement.lam(GroupElement((2,), 1)), ball)
        assert "elements" not in vars(ball)
        assert ball.elements == tuple(z_x_z2.from_rows(ball.rows))


S3 = FiniteGroupTable.symmetric(3)
FAMILIES = {  # a group with its default generators, and a constructor for other sets
    "z": (FreeAbelian(1), lambda gens: FreeAbelian(1, gens)),
    "z2": (FreeAbelian(2), lambda gens: FreeAbelian(2, gens)),
    "zxs3": (ProductZFinite(S3), lambda gens: ProductZFinite(S3, gens)),
    "dihedral": (InfiniteDihedral(), lambda gens: InfiniteDihedral(gens)),
}


def small_elements(group, finite_only=False):
    """Strategy for elements with coordinates in -3..3 (0 with finite_only)."""
    if isinstance(group, FreeAbelian):
        return st.tuples(*[st.integers(-3, 3)] * group.rank).map(GroupElement)
    order = group.finite.order if isinstance(group, ProductZFinite) else 2
    z = st.just(0) if finite_only else st.integers(-3, 3)
    return st.builds(lambda m, f: GroupElement((m,), f), z, st.integers(0, order - 1))


@st.composite
def symmetric_generating_sets(draw):
    """A group with a random symmetric set of non-identity generators.

    On Z x S3 half of the sets have z = 0, so they generate a subgroup of S3
    and the ball stops growing.
    """
    name = draw(st.sampled_from(sorted(FAMILIES)))
    group, build = FAMILIES[name]
    finite_only = name == "zxs3" and draw(st.booleans())
    chosen = draw(st.lists(small_elements(group, finite_only).filter(
        lambda g: g != group.identity), min_size=1, max_size=4))
    return build(list(dict.fromkeys(chosen + [reference_inv(group, g) for g in chosen])))


DEFAULT_GROUPS = {  # every family with its default generators
    **{f"z{d}": FreeAbelian(d) for d in (1, 2, 3, 4)},
    "zxz2": ProductZFinite(FiniteGroupTable.cyclic(2)),
    "zxz3": ProductZFinite(FiniteGroupTable.cyclic(3)),
    "zxs3": ProductZFinite(S3),
    "zx1": ProductZFinite(FiniteGroupTable.from_table([[0]])),
    # Z3 with its identity at index 2 (i stands for i + 1 mod 3)
    "zxz3_e2": ProductZFinite(FiniteGroupTable.from_table(
        [[(i + j + 1) % 3 for j in range(3)] for i in range(3)])),
    "dihedral": InfiniteDihedral(),
}


class TestSearchAgainstBreadthFirst:
    # random symmetric sets take the search, the default sets the closed forms
    @settings(deadline=None, max_examples=60)
    @given(st.one_of(symmetric_generating_sets(),
                     st.sampled_from([DEFAULT_GROUPS[name] for name in sorted(DEFAULT_GROUPS)])),
           st.integers(0, 9))
    def test_matches_brute_force_lengths(self, group, radius):
        ball = enumerate_ball(group, radius)
        oracle = brute_force_lengths(group, radius)
        # the lengths from the sizes alone, at positions the lookup finds
        positions = ball.find_rows(group.to_rows(oracle))
        assert ball.lengths_at(positions).tolist() == list(oracle.values())
        counts = np.bincount(list(oracle.values()), minlength=radius + 1)
        assert ball.sizes.dtype == np.int64
        assert ball.sizes.tolist() == np.cumsum(counts).tolist()
        assert dict(zip(ball.elements, ball.lengths.tolist())) == oracle
        assert len(ball) == len(oracle)
        keys = list(zip(ball.lengths.tolist(), ball.rows.tolist()))
        assert keys == sorted(keys)


# the balls of the brackets benchmark
BENCHMARK_BALLS = [("z1", 10_000), ("z2", 150), ("zxs3", 2000), ("dihedral", 5000)]
# the balls whose rows the norms benchmark lists
NORMS_BALLS = [("z2", 40), ("zxs3", 200), ("dihedral", 300)]


# every default ball of TestClosedForms.test_matches_the_search, and the benchmarks'
INDEX_BALLS = [*((name, r) for name in sorted(DEFAULT_GROUPS) for r in range(13)),
               *BENCHMARK_BALLS, *NORMS_BALLS]
INT64_EXTREMES = [2 ** 63 - 1, -(2 ** 63 - 1), -2 ** 63]


@functools.lru_cache(maxsize=None)
def sorted_index(name, radius):
    """The default ball's rows, and a RowIndex that sorts their keys."""
    rows = DEFAULT_GROUPS[name].default_ball(radius)
    return rows, RowIndex(rows)


@st.composite
def index_probes(draw):
    """A default ball's group and radius, its sorted index, and probe arrays of rows.

    The probes are ball rows, their products with the generators (so rows
    just outside the ball), rows of arbitrary int64 coordinates (with
    +-(2^63 - 1), -2^63 and a box just around the ball drawn often) and the
    products of valid such rows with ball rows, both ways round, which wrap
    past int64 at the extremes.
    """
    name, radius = draw(st.sampled_from(INDEX_BALLS))
    group = DEFAULT_GROUPS[name]
    rows, index = sorted_index(name, radius)
    k = group.row_width
    coordinate = st.one_of(st.integers(-radius - 2, radius + 2),
                           st.sampled_from(INT64_EXTREMES), st.integers(-2 ** 63, 2 ** 63 - 1))
    picks = rows[draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=12))]
    near = group.mul_rows(picks[:, None, :], group.to_rows(group.generators))
    free = np.array(draw(st.lists(st.tuples(*[coordinate] * k), max_size=12)),
                    dtype=np.int64).reshape(-1, k)
    if isinstance(group, FreeAbelian):
        valid = free
    else:  # a finite part inside the table, so that the rows can be multiplied
        order = group.finite.order
        valid = np.array(draw(st.lists(st.tuples(coordinate, st.integers(0, order - 1)),
                                       max_size=12)), dtype=np.int64).reshape(-1, k)
    return group, radius, index, [picks, near, free, valid,
                                  group.mul_rows(valid[:, None, :], picks),
                                  group.mul_rows(picks[:, None, :], valid)]


def assert_same_ball(a, b):
    for x, y in ((a.rows, b.rows), (a.lengths, b.lengths), (a.sizes, b.sizes)):
        assert x.dtype == y.dtype == np.int64 and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 8), st.lists(st.integers(0, 10_000), min_size=1, max_size=20))
def test_l1_ball_sizes_are_the_binomial_sum_in_python_ints(dims, radii):
    def size(d, r):
        return sum(2 ** i * math.comb(d, i) * math.comb(r, i) for i in range(d + 1))

    # ints give the exact Python int, beyond int64 too
    assert [_l1_ball_sizes(dims, r) for r in radii] == [size(dims, r) for r in radii]
    # int64 arrays are exact while every size fits int64: by radius, and as
    # the (rank, radius) table of the Z^d lookup
    fits = np.array([0] + [r for r in radii if size(dims, r) < 2 ** 63], dtype=np.int64)
    sizes = _l1_ball_sizes(dims, fits)
    assert sizes.dtype == np.int64 and sizes.tolist() == [size(dims, r) for r in fits]
    table = _l1_ball_sizes(np.arange(dims + 1, dtype=np.int64)[:, None], fits)
    assert table.tolist() == [[size(d, r) for r in fits] for d in range(dims + 1)]


class TestClosedForms:
    @pytest.mark.parametrize("name", sorted(DEFAULT_GROUPS))
    def test_matches_the_search(self, name):
        group = DEFAULT_GROUPS[name]
        for radius in range(13):
            ball = enumerate_ball(group, radius)
            searched = _search_ball(group, radius, max_ball_elements())
            assert_same_ball(ball, searched)
            sizes = group.default_ball_sizes(np.arange(radius + 1, dtype=np.int64))
            assert sizes.tolist() == searched.sizes.tolist()
            assert group.default_ball_sizes(radius) == len(ball)

    @pytest.mark.parametrize("name,radius", [*BENCHMARK_BALLS, *NORMS_BALLS])
    def test_matches_the_search_on_benchmark_balls(self, name, radius):
        group = DEFAULT_GROUPS[name]
        searched = _search_ball(group, radius, max_ball_elements())
        assert_same_ball(enumerate_ball(group, radius), searched)
        assert np.array_equal(group.default_ball_sizes(np.arange(radius + 1, dtype=np.int64)),
                              searched.sizes)

    def test_matches_the_search_at_high_rank(self):
        # Z^40 at radius 2: 3281 rows, built one coordinate at a time
        group = FreeAbelian(40)
        assert_same_ball(enumerate_ball(group, 2), _search_ball(group, 2, max_ball_elements()))

    def test_reordered_default_set_takes_the_closed_form(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched a default generating set")

        monkeypatch.setattr(wordlength, "_search_ball", no_search)
        for group, build in FAMILIES.values():
            reordered = build(group.generators[::-1])
            assert reordered.generators != group.generators
            assert_same_ball(enumerate_ball(reordered, 7), enumerate_ball(group, 7))

    @pytest.mark.parametrize("name", sorted(DEFAULT_GROUPS))
    def test_default_ball_rows_are_lexicographic(self, name):
        # in strictly increasing lexicographic order of (length, row), the
        # ball order
        group = DEFAULT_GROUPS[name]
        for radius in [*range(13), *(r for ball, r in BENCHMARK_BALLS if ball == name)]:
            rows = group.default_ball(radius)
            keys = np.column_stack([enumerate_ball(group, radius).lengths, rows])
            before, after = keys[:-1], keys[1:]
            differs = before != after
            first = np.argmax(differs, axis=1)  # the first coordinate where they differ
            pairs = np.arange(len(first))
            assert differs.any(axis=1).all()
            assert (after[pairs, first] > before[pairs, first]).all()

    def test_default_index_inverts_default_ball(self):
        for name, radius in INDEX_BALLS:
            rows = DEFAULT_GROUPS[name].default_ball(radius)
            found = enumerate_ball(DEFAULT_GROUPS[name], radius).find_rows(rows)
            assert found.tolist() == list(range(len(rows))), (name, radius)

    @settings(deadline=None, max_examples=300)
    @given(index_probes())
    def test_default_index_matches_a_sorted_index(self, case):
        group, radius, index, probes = case
        ball = enumerate_ball(group, radius)
        for rows in probes:
            found = ball.find_rows(rows)
            assert found.dtype == np.int64 and found.shape == rows.shape[:-1]
            assert found.tolist() == index.find(rows).tolist()

    @pytest.mark.parametrize("name", sorted(DEFAULT_GROUPS))
    def test_three_lookups_on_one_ball_match_a_row_index(self, name):
        # three independent lookups on one ball: products of near rows, then
        # of rows out to its edge and past it, then of near rows again; each
        # agrees with a sorted-key search over the ball's rows
        group = DEFAULT_GROUPS[name]
        ball = enumerate_ball(group, 12)
        rows = ball.rows
        index = RowIndex(rows)
        for radius in (2, 12, 1):
            probe = group.mul_rows(rows[:, None, :], rows[:9])
            probe = probe[ball.lengths <= radius]
            assert ball.find_rows(probe).tolist() == index.find(probe).tolist()

    @pytest.mark.parametrize("spec,s,s_inv", [
        ({"family": "free_abelian", "rank": 1}, [1], [-1]),
        ({"family": "free_abelian", "rank": 2}, [1, 0], [-1, 0]),
        ({"family": "product_z_finite", "finite": {"name": "s3"}}, [1, 1], [-1, 1]),
        ({"family": "infinite_dihedral"}, [1, 0], [-1, 0]),
    ], ids=["z", "z2", "zxs3", "dihedral"])
    def test_closed_form_balls_never_sort_for_a_lookup(self, monkeypatch, spec, s, s_inv):
        def no_sort(index, rows):
            raise AssertionError("sorted row keys for a lookup")

        monkeypatch.setattr(RowIndex, "__init__", no_sort)
        identity = [0] * len(s)
        table = {"kind": "table", "extend_zero": True, "entries": [
            {"element": s, "re": 0.25}, {"element": s_inv, "re": 0.25}]}
        density = {"kind": "density", "b": [{"element": identity, "re": 1.0},
                                            {"element": s, "re": 0.5, "im": 0.5}]}
        report = run_dist({"group": spec, "state_a": table, "state_b": density,
                           "radius": 6, "mode": "bracket"})
        assert report.passed and report.rows[0][0] > 0

    def test_custom_set_takes_the_search(self, monkeypatch):
        def no_closed_form(self, radius):
            raise AssertionError("closed form for a custom generating set")

        for cls in (FreeAbelian, ProductZFinite, InfiniteDihedral):
            monkeypatch.setattr(cls, "default_ball", no_closed_form)
        # Z^2 with a diagonal step added; Z x S3 without the generators (+-1, f != e)
        diagonal = FreeAbelian(2, [*FreeAbelian(2).generators,
                                   GroupElement((1, 1)), GroupElement((-1, -1))])
        thin = ProductZFinite(S3, [GroupElement((1,), 0), GroupElement((-1,), 0),
                                   GroupElement((0,), 1), GroupElement((0,), 2)])
        dihedral = InfiniteDihedral([GroupElement((0,), 1), GroupElement((1,), 1)])
        for group in (diagonal, thin, dihedral):
            ball = enumerate_ball(group, 5)
            assert dict(zip(ball.elements, ball.lengths.tolist())) == \
                brute_force_lengths(group, 5)

    @pytest.mark.parametrize("name", sorted(DEFAULT_GROUPS))
    def test_huge_radius_hits_the_cap_before_allocating(self, name, monkeypatch):
        monkeypatch.delenv("QMETRIC_MAX_BALL", raising=False)
        group = DEFAULT_GROUPS[name]
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match="cap of 200000 elements at radius"):
                enumerate_ball(group, 10 ** 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a ball at the cap would hold 200000 rows of int64
        assert peak < 64 * 1024

    @pytest.mark.parametrize("name", sorted(DEFAULT_GROUPS))
    def test_cap_messages_match_the_search(self, name):
        group = DEFAULT_GROUPS[name]
        for cap, radius in itertools.product((1, 2, 7, 13, 50, 99, 1000), (0, 1, 2, 3, 9, 40)):
            messages = []
            for build in (enumerate_ball, _search_ball):
                try:
                    build(group, radius, cap)
                    messages.append(None)
                except ResourceError as exc:
                    messages.append(str(exc))
            assert messages[0] == messages[1]


class TestLengthAxioms:
    @pytest.mark.parametrize("family", ["z", "z2", "zxz2", "dihedral"])
    def test_axioms_on_ball(self, family, z_group, z2_group, z_x_z2, dihedral):
        group = {"z": z_group, "z2": z2_group, "zxz2": z_x_z2,
                 "dihedral": dihedral}[family]
        ball = enumerate_ball(group, 6)
        inner = ball.rows[ball.lengths <= 3]
        lengths = ball.lengths[ball.lengths <= 3]
        assert length(ball, group.identity) == 0
        inverse = ball.find_rows(group.inv_rows(inner))
        assert (inverse >= 0).all()
        assert ball.lengths[inverse].tolist() == lengths.tolist()
        product = ball.find_rows(group.mul_rows(inner[:, None, :], inner[None, :, :]))
        assert (product >= 0).all()
        assert (ball.lengths[product] <= lengths[:, None] + lengths[None, :]).all()

    def test_only_identity_has_length_zero(self, dihedral):
        ball = enumerate_ball(dihedral, 3)
        assert np.count_nonzero(ball.lengths == 0) == 1


class TestBallAccess:
    """Lookups of elements: find_rows on their rows, and the certified bounds that use it."""

    def test_out_of_ball_raises_with_radius(self, z_group):
        ball = enumerate_ball(z_group, 3)
        # the first coefficient outside the ball is named, not the farthest
        a = AlgebraElement({GroupElement((1,)): 1.0, GroupElement((4,)): 1.0,
                            GroupElement((9,)): 1.0})
        for bound in (lemma2_lower, commutator_norm_upper_l1):
            with pytest.raises(BallRadiusError, match=r"element GroupElement\(z=\(4,\), "
                               r"f=None\) lies outside the enumerated ball; "
                               r"requires radius >= 4$"):
                bound(a, ball)

    def test_index_round_trip(self, z_x_z2):
        ball = enumerate_ball(z_x_z2, 4)
        assert ball.find_rows(z_x_z2.to_rows(ball.elements)).tolist() == list(range(len(ball)))

    def test_rows_hold_the_l1_lengths(self, z2_group):
        ball = enumerate_ball(z2_group, 2)
        assert ball.rows.dtype == np.int64 and ball.rows.shape == (13, 2)
        assert np.abs(ball.rows).sum(axis=1).tolist() == ball.lengths.tolist()

    def test_coordinates_beyond_int64_lie_outside(self, z_group, z_x_z2):
        for group, far in ((z_group, GroupElement((10 ** 20,))),
                           (z_x_z2, GroupElement((-10 ** 20,), 1))):
            ball = enumerate_ball(group, 3)
            assert ball.find_rows(group.to_rows([far])).tolist() == [-1]
            for bound in (lemma2_lower, commutator_norm_upper_l1):
                with pytest.raises(BallRadiusError, match="radius >= 4"):
                    bound(AlgebraElement({group.identity: 1.0, far: 1.0}), ball)

    def test_foreign_element_rejected(self, z_group):
        ball = enumerate_ball(z_group, 3)
        for bound in (lemma2_lower, commutator_norm_upper_l1):
            with pytest.raises(GroupError):
                bound(AlgebraElement.lam(GroupElement((0,), 1)), ball)


class TestResourceCap:
    def test_cap_enforced(self, z2_group):
        # ball sizes 1, 5, 13, 25, 41, 61: radius 5 is the first above 50
        with pytest.raises(ResourceError, match="cap of 50 elements at radius 5$"):
            enumerate_ball(z2_group, 10, max_elements=50)

    def test_cap_radius_inside_a_long_step(self, z_group):
        # Z's thin shells are found many radii per step; sizes are 2k + 1
        with pytest.raises(ResourceError, match="at radius 500$"):
            enumerate_ball(z_group, 2000, max_elements=1000)
        assert len(enumerate_ball(z_group, 499, max_elements=1000)) == 999

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("QMETRIC_MAX_BALL", "77")
        assert max_ball_elements() == 77
        monkeypatch.setenv("QMETRIC_MAX_BALL", "zero")
        with pytest.raises(ResourceError):
            max_ball_elements()
        monkeypatch.setenv("QMETRIC_MAX_BALL", "0")
        with pytest.raises(ResourceError):
            max_ball_elements()

    def test_env_cap_applies_to_enumeration(self, monkeypatch, z2_group):
        monkeypatch.setenv("QMETRIC_MAX_BALL", "5")
        with pytest.raises(ResourceError):
            enumerate_ball(z2_group, 3)

    def test_cap_above_2_to_30_refused(self, monkeypatch, z_group):
        # ball coordinates stay below 2^61 only while the cap is at most 2^30
        assert len(enumerate_ball(z_group, 2, max_elements=2 ** 30)) == 5
        with pytest.raises(ResourceError, match="<= 2\\^30"):
            enumerate_ball(z_group, 2, max_elements=2 ** 30 + 1)
        monkeypatch.setenv("QMETRIC_MAX_BALL", str(2 ** 30))
        assert len(enumerate_ball(z_group, 2)) == 5
        monkeypatch.setenv("QMETRIC_MAX_BALL", str(2 ** 30 + 1))
        with pytest.raises(ResourceError, match="<= 2\\^30"):
            enumerate_ball(z_group, 2)


class TestGrowth:
    def test_z_fit_is_exact(self, z_group):
        report = growth_fit(enumerate_ball(z_group, 30))
        assert report.fit_k == pytest.approx(2.0, abs=1e-9)
        assert report.fit_l == pytest.approx(1.0, abs=1e-9)
        assert report.residual < 1e-9
        assert z_group.shell_bound == 2

    def test_dihedral_fit(self, dihedral):
        report = growth_fit(enumerate_ball(dihedral, 30))
        assert report.fit_k == pytest.approx(4.0, rel=1e-2)
        assert dihedral.shell_bound == 4

    def test_z2_quadratic_has_no_bound(self, z2_group):
        report = growth_fit(enumerate_ball(z2_group, 20))
        assert z2_group.shell_bound is None
        assert report.residual > 100

    def test_product_bound_scales_with_order(self, z_x_z2):
        growth_fit(enumerate_ball(z_x_z2, 10))
        assert z_x_z2.shell_bound == 4


class TestSquareSum:
    def test_z_partial_matches_closed_form(self, z_group):
        # sum over Z of 1/L^2 is 2 * pi^2 / 6; partials approach it from below
        partial, tail = square_sum_evidence(enumerate_ball(z_group, 2000))
        exact = np.pi ** 2 / 3
        assert partial < exact
        assert partial + tail >= exact - 1e-12
        assert partial == pytest.approx(exact, abs=1.1e-3)

    @pytest.mark.parametrize("spec", [
        {"family": "free_abelian", "rank": 1}, {"family": "free_abelian", "rank": 2},
        {"family": "product_z_finite", "finite": {"name": "s3"}},
        {"family": "infinite_dihedral"},
        {"family": "infinite_dihedral", "generators": [[0, 1], [1, 1]]}],
        ids=["z", "z2", "zxs3", "dihedral", "dihedral-reflections"])
    def test_partial_is_the_last_row_bit_for_bit(self, spec):
        for radius in (1, 2, 7, 40):
            report = run_summable({"group": spec, "radius": radius})
            assert report.meta["partial"].hex() == report.rows[-1][1].hex()

    def test_z2_partial_diverges(self, z2_group):
        p10, tail = square_sum_evidence(enumerate_ball(z2_group, 10))
        p60, _ = square_sum_evidence(enumerate_ball(z2_group, 60))
        assert tail is None
        # harmonic-type divergence: doubling the radius keeps adding ~4 per ln r
        assert p60 - p10 > 4.0 * (np.log(60) - np.log(10)) * 0.9
