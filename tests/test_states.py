import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_element, reference_inv, reference_mul

from qmetric import states
from qmetric.errors import ConfigError, GroupError, ResourceError, StateError
from qmetric.groups import (FiniteGroupTable, FreeAbelian, GroupElement,
                            InfiniteDihedral, ProductZFinite)
from qmetric.metrics import connes_bracket
from qmetric.opalgebra import AlgebraElement
from qmetric.states import (CharacterState, DensityState, OneState, TableState,
                            TraceState, VectorState, _PD_TOL, kappa_bounds, pd_check,
                            state_from_json)
from qmetric.wordlength import enumerate_ball


def coeff_at(phi, ball, elements):
    """phi(lam_g) for each element: coeff_array(ball) at the element's ball position."""
    pos = ball.find_rows(phi.group.to_rows(elements))
    assert (pos >= 0).all(), "an element outside the ball"
    return phi.coeff_array(ball)[pos]


def reference_coeff(phi):
    """g -> phi(lam_g), one element at a time from the state's data: the reference for coeff_array.

    one and the characters from their closed form, a finite state by a dict
    lookup of g among its keys, zero elsewhere.
    """
    if isinstance(phi, OneState):
        return lambda g: 1.0 + 0.0j
    if isinstance(phi, CharacterState):
        return lambda g: complex(np.exp(1j * float(np.dot(phi.theta, g.z))))
    table = dict(zip(phi.group.from_rows(phi._rows), phi._values.tolist()))
    return lambda g: table.get(g, 0.0 + 0.0j)


class TestBasicStates:
    def test_trace(self, z2_group):
        phi = TraceState(z2_group)
        ball = enumerate_ball(z2_group, 2)
        assert coeff_at(phi, ball, [z2_group.identity, GroupElement((1, 0))]).tolist() \
            == [1.0, 0.0]
        arr = phi.coeff_array(ball)
        assert arr[0] == 1.0 and np.all(arr[1:] == 0.0)

    def test_one(self, dihedral):
        phi = OneState(dihedral)
        ball = enumerate_ball(dihedral, 3)
        assert np.all(phi.coeff_array(ball) == 1.0)

    def test_character_closed_form(self, z_group):
        phi = CharacterState(z_group, [np.exp(1j * 0.3)])
        values = coeff_at(phi, enumerate_ball(z_group, 5),
                          [GroupElement((m,)) for m in range(-5, 6)])
        for m, value in zip(range(-5, 6), values):
            assert value == pytest.approx(np.exp(1j * 0.3 * m))

    def test_character_requires_free_abelian(self, dihedral):
        with pytest.raises(StateError):
            CharacterState(dihedral, [1.0])

    def test_character_unit_circle(self, z_group):
        with pytest.raises(StateError):
            CharacterState(z_group, [1.5])
        with pytest.raises(StateError):
            CharacterState(z_group, [1.0, 1.0])


def _vector_direct(group, xi, g):
    """<lam_g xi, xi> = sum_h xi(g^-1 h) conj(xi(h))."""
    g_inv = reference_inv(group, g)
    return sum(xi.get(reference_mul(group, g_inv, h), 0.0) * np.conj(xh)
               for h, xh in xi.items())


def _density_direct(group, b, g):
    """rho(g^-1) with rho = b*b / tau(b*b), from (b*b)(k) = sum_{x^-1 y = k} conj(b_x) b_y."""
    k = reference_inv(group, g)
    bb = sum(np.conj(bx) * by for x, bx in b.items() for y, by in b.items()
             if reference_mul(group, reference_inv(group, x), y) == k)
    return bb / sum(abs(bx) ** 2 for bx in b.values())


_GROUPS = {"z2": (lambda: FreeAbelian(2), 4),
           "zxs3": (lambda: ProductZFinite(FiniteGroupTable.symmetric(3)), 2),
           "dihedral": (InfiniteDihedral, 4)}
_KINDS = ["trace", "one", "character", "table", "vector", "density"]


def _state_and_formula(kind, group):
    """A state of the given kind, and its coefficients from a direct formula (or None)."""
    s = group.generators[0]
    t = reference_mul(group, s, group.generators[-1])
    if kind == "trace":
        return TraceState(group), None
    if kind == "one":
        return OneState(group), None
    if kind == "character":
        z = [np.exp(1j * 0.7), np.exp(-1j * 1.1)][:group.rank]
        return CharacterState(group, z), None
    if kind == "table":
        return TableState(group, {s: 0.5, reference_inv(group, s): 0.5, t: 0.25j}), None
    if kind == "vector":
        xi = {group.identity: 0.6, s: 0.48j, t: 0.64}
        return VectorState(group, xi), lambda g: _vector_direct(group, xi, g)
    b = {group.identity: 1.0, s: 0.5j, t: -0.25}
    return (DensityState(group, AlgebraElement(b)),
            lambda g: _density_direct(group, b, g))


@pytest.mark.parametrize("group_name,kind", [
    (group_name, kind) for group_name in _GROUPS for kind in _KINDS
    if kind != "character" or group_name == "z2"])
def test_array_matches_pointwise(group_name, kind):
    make, radius = _GROUPS[group_name]
    group = make()
    phi, formula = _state_and_formula(kind, group)
    ball = enumerate_ball(group, radius)
    arr = phi.coeff_array(ball)
    coeff = reference_coeff(phi)
    for i, g in enumerate(ball.elements):
        if kind == "character":  # vectorised phases may differ in the last bit
            assert arr[i] == pytest.approx(coeff(g), abs=1e-12)
        else:
            assert arr[i] == coeff(g)
        if formula is not None:
            assert arr[i] == pytest.approx(formula(g), abs=1e-12)


_CASES = [(group_name, kind) for group_name in _GROUPS for kind in _KINDS
          if kind != "character" or group_name == "z2"]


def coeff_rows(phi, rows):
    """The reference for coeff_array: table(g) + background(g) at each row, in row order.

    A finite state by one reference_coeff lookup per row; `one` and a
    character, whose tables are empty, by their own background at the rows,
    since the element-wise closed form of reference_coeff can differ from
    vectorised phases in the last bit.
    """
    if phi.unimodular:
        assert len(phi._values) == 0
        return phi.background(rows)
    coeff = reference_coeff(phi)
    return np.array([coeff(g) for g in phi.group.from_rows(rows)], dtype=complex)


# default balls, and balls of generating sets without a closed form
_SCATTER_GROUPS = {
    **_GROUPS,
    "z2-hex": (lambda: FreeAbelian(2, [*FreeAbelian(2).generators, GroupElement((1, 1)),
                                       GroupElement((-1, -1))]), 4),
    "dihedral-reflections": (lambda: InfiniteDihedral([GroupElement((0,), 1),
                                                       GroupElement((1,), 1)]), 5),
}


@pytest.mark.parametrize("kind,group_name", [
    (kind, group_name) for group_name in sorted(_SCATTER_GROUPS) for kind in _KINDS
    if kind != "character" or group_name.startswith("z2")])
def test_coeff_array_is_coeff_rows_bit_for_bit(kind, group_name):
    make, radius = _SCATTER_GROUPS[group_name]
    group = make()
    phi, _ = _state_and_formula(kind, group)
    ball = enumerate_ball(group, radius)
    assert phi.coeff_array(ball).tobytes() == coeff_rows(phi, ball.rows).tobytes()


def test_table_key_beyond_int64_is_only_reached_pointwise():
    group = FreeAbelian(1)
    far = GroupElement((2 ** 70,))
    phi = TableState(group, {far: 0.5, reference_inv(group, far): 0.5})
    # the table keeps both keys, saturated in their rows (see Group.to_rows) ...
    assert group.from_rows(phi._rows) == [GroupElement((2 ** 63 - 1,)),
                                          GroupElement((-2 ** 63,)), group.identity]
    assert phi._values.tolist() == [0.5, 0.5, 1]
    # ... and no ball reaches them
    assert phi.coeff_array(enumerate_ball(group, 2)).tolist() == [1, 0, 0, 0, 0]


class TestOutsideBound:
    """The bracket's d_inf tail is (e_phi + e_psi) / (r + 1), bit for bit.

    e = max(1, |value|) over a state's keys outside the ball.
    """

    def test_closed_form_kinds_are_bounded_by_one(self, z_group):
        one, character = OneState(z_group), CharacterState(z_group, [np.exp(0.3j)])
        tail = connes_bracket(one, character, enumerate_ball(z_group, 3)).d_inf.tail_bound
        assert tail.hex() == ((1.0 + 1.0) / 4).hex()

    def test_table_counts_only_keys_outside_the_ball(self, z_group):
        phi = TableState(z_group, {GroupElement((2,)): 30.0, GroupElement((-5,)): -7j,
                                   GroupElement((6,)): 0.5})
        trace = TraceState(z_group)
        # a key of modulus below 1 leaves the floor of 1 (radius 5)
        for radius, e_phi in ((1, 30.0), (2, 7.0), (5, 1.0), (6, 1.0)):
            ball = enumerate_ball(z_group, radius)
            for pair in ((phi, trace), (trace, phi)):
                tail = connes_bracket(*pair, ball).d_inf.tail_bound
                assert tail.hex() == ((e_phi + 1.0) / (radius + 1)).hex()


def _gram_double_loop(state, ball):
    """G[i, j] = phi(lam_{g_i^-1 g_j}), one reference product and lookup per entry."""
    group, coeff = ball.group, reference_coeff(state)
    return np.array([[coeff(reference_mul(group, reference_inv(group, gi), gj))
                      for gj in ball.elements] for gi in ball.elements], dtype=complex)


def _slack(result):
    return _PD_TOL * max(result.max_eigenvalue, 1.0)


def assert_bounds_the_gram(result, gram):
    """pd_check's lo bounds the least eigenvalue of the Gram matrix's Hermitian part.

    On a fail at a point, lo is that point's lambda_min, below -slack; a
    pass also bounds the Gram matrix's asymmetry.
    """
    eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
    if result.min_eigenvalue < -_slack(result):
        assert not result.passed
        return
    assert result.min_eigenvalue <= eigs[0] + 1e-12 * max(1.0, eigs[-1])
    if result.passed:
        assert np.abs(gram - gram.conj().T).max() <= _slack(result)


@pytest.mark.parametrize("group_name,kind", _CASES)
def test_gram_matches_double_loop(group_name, kind):
    make, radius = _GROUPS[group_name]
    group = make()
    phi, _ = _state_and_formula(kind, group)
    ball = enumerate_ball(group, min(radius, 3))
    gram = _gram_double_loop(phi, ball)
    result = pd_check(phi, ball)
    # the table has the key t without t^-1, so it is not Hermitian
    assert result.passed == (kind != "table")
    assert_bounds_the_gram(result, gram)
    if kind in ("one", "character"):  # rank one, with |x|^2 = len(ball)
        eigs = np.linalg.eigvalsh(gram)
        assert (result.min_eigenvalue, result.max_eigenvalue) == (0.0, len(ball))
        assert eigs[0] == pytest.approx(0.0, abs=1e-12)
        assert eigs[-1] == pytest.approx(len(ball), rel=1e-12)


# balls of 60-120 elements, and a generating set without a closed form
_SCATTER_BALLS = {
    "z2": (lambda: FreeAbelian(2), 7),
    "zxs3": (lambda: ProductZFinite(FiniteGroupTable.symmetric(3)), 5),
    "dihedral": (InfiniteDihedral, 30),
    "z-2-3": (lambda: FreeAbelian(1, [GroupElement((k,)) for k in (2, -2, 3, -3)]), 12),
}


@pytest.mark.parametrize("group_name,kind", [
    (group_name, kind) for group_name in _SCATTER_BALLS for kind in _KINDS
    if kind != "character" or group_name in ("z2", "z-2-3")])
def test_scattered_gram_matches_double_loop(group_name, kind):
    # one certificate for the whole group bounds the Gram matrix of every
    # ball, of the default generators or not
    make, radius = _SCATTER_BALLS[group_name]
    group = make()
    phi, _ = _state_and_formula(kind, group)
    ball = enumerate_ball(group, radius)
    assert 60 <= len(ball) <= 120
    result = pd_check(phi, ball)
    assert result.passed == (kind != "table")
    assert_bounds_the_gram(result, _gram_double_loop(phi, ball))


@pytest.mark.parametrize("group", [FreeAbelian(1), InfiniteDihedral()], ids=["z", "dihedral"])
def test_far_table_keys_raise_resource_error(group):
    # a key saturated in its row is not read as a frequency, which would alias
    f = group.identity.f
    near = GroupElement((1,), f)
    for key in (10 ** 12, 2 ** 63 - 1, -2 ** 63, 2 ** 70, -2 ** 70):
        far = GroupElement((key,), f)
        phi = TableState(group, {far: 0.25, reference_inv(group, far): 0.25, near: 0.125,
                                 reference_inv(group, near): 0.125})
        with pytest.raises(ResourceError, match="capped at"):
            pd_check(phi, enumerate_ball(group, 5))


# groups with the radii of the Gram matrices that bound their certificates
_CERTIFIED_GROUPS = {
    "z": (FreeAbelian(1), (3, 10, 20)),
    "z2": (FreeAbelian(2), (2, 4)),
    "zxz2": (ProductZFinite(FiniteGroupTable.cyclic(2)), (3, 8)),
    "zxs3": (ProductZFinite(FiniteGroupTable.symmetric(3)), (2, 4)),
    "dihedral": (InfiniteDihedral(), (5, 12)),
}


@st.composite
def hermitian_tables(draw):
    """A group, its radii, and a Hermitian table on ball(2): explicit, or a vector state's."""
    group, radii = _CERTIFIED_GROUPS[draw(st.sampled_from(sorted(_CERTIFIED_GROUPS)))]
    parts = st.floats(-1.0, 1.0)
    if draw(st.booleans()):
        support = draw(st.lists(st.sampled_from(enumerate_ball(group, 1).elements),
                                min_size=1, max_size=4, unique=True))
        xi = np.array([complex(draw(parts), draw(parts)) for _ in support])
        if np.linalg.norm(xi) < 1e-3:
            xi[0] = 1.0
        return group, radii, VectorState(group, dict(zip(support, xi / np.linalg.norm(xi))))
    keys = draw(st.lists(st.sampled_from(enumerate_ball(group, 2).elements[1:]),
                         min_size=1, max_size=6, unique=True))
    scale = draw(st.sampled_from([0.05, 0.2, 0.5]))
    table = {}
    for g in keys:
        v = scale * complex(draw(parts), draw(parts))
        inverse = reference_inv(group, g)
        table[g] = v.real if inverse == g else v
        table[inverse] = table[g].conjugate()
    return group, radii, TableState(group, table)


@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(hermitian_tables())
def test_certificate_bounds_every_truncated_gram(case):
    group, radii, phi = case
    result = pd_check(phi, enumerate_ball(group, 1))
    if not result.passed:
        assert result.min_eigenvalue < -_slack(result)
    for radius in radii:
        gram = _gram_double_loop(phi, enumerate_ball(group, radius))
        assert_bounds_the_gram(result, gram)


class TestTableState:
    def test_lookup_and_zero_extension(self, z_group):
        g = GroupElement((1,))
        phi = TableState(z_group, {g: 0.5})
        assert coeff_at(phi, enumerate_ball(z_group, 9),
                        [g, GroupElement((9,)), z_group.identity]).tolist() == [0.5, 0.0, 1.0]

    def test_identity_must_be_one(self, z_group):
        with pytest.raises(StateError, match="unital"):
            TableState(z_group, {z_group.identity: 0.9})

    @pytest.mark.parametrize("group,key", [
        (InfiniteDihedral(), GroupElement((0,), 5)),
        (InfiniteDihedral(), GroupElement((1,))),
        (FreeAbelian(1), GroupElement((1, 2))),
    ], ids=["dihedral-f-out-of-range", "dihedral-no-f", "z-rank-2-key"])
    def test_keys_of_another_group_rejected(self, group, key):
        with pytest.raises(GroupError, match="does not belong"):
            TableState(group, {key: 0.5})


class TestVectorState:
    def test_delta_vector_is_trace(self, dihedral):
        phi = VectorState(dihedral, {dihedral.identity: 1.0})
        ball = enumerate_ball(dihedral, 3)
        assert np.allclose(phi.coeff_array(ball), TraceState(dihedral).coeff_array(ball))

    def test_two_point_vector_closed_form(self, z_group):
        # xi = (delta_0 + delta_1)/sqrt(2): phi(lam_m) = <lam_m xi, xi>
        s = 1 / np.sqrt(2)
        phi = VectorState(z_group, {GroupElement((0,)): s, GroupElement((1,)): s})
        values = coeff_at(phi, enumerate_ball(z_group, 2),
                          [GroupElement((m,)) for m in (0, 1, -1, 2)])
        assert values.tolist() == pytest.approx([1.0, 0.5, 0.5, 0.0])

    def test_normalization_enforced(self, z_group):
        with pytest.raises(StateError, match="normalized"):
            VectorState(z_group, {GroupElement((0,)): 0.9})

    def test_hermitian_symmetry(self, dihedral):
        xi = {GroupElement((0,), 0): 0.6, GroupElement((1,), 1): 0.8j}
        phi = VectorState(dihedral, xi)
        ball = enumerate_ball(dihedral, 3)
        arr = phi.coeff_array(ball)
        inverse = ball.find_rows(dihedral.inv_rows(ball.rows))
        assert (inverse >= 0).all()
        for i in range(len(ball)):
            assert arr[inverse[i]] == pytest.approx(np.conj(arr[i]), abs=1e-12)


class TestDensityState:
    def test_reference_density(self, z_group):
        # b = lam_0 + lam_1: rho = (2 lam_0 + lam_1 + lam_-1)/2, phi(lam_g) = rho(g^-1)
        b = AlgebraElement({GroupElement((0,)): 1.0, GroupElement((1,)): 1.0})
        phi = DensityState(z_group, b)
        values = coeff_at(phi, enumerate_ball(z_group, 2),
                          [GroupElement((m,)) for m in (0, 1, -1, 2)])
        assert values[:3].tolist() == pytest.approx([1.0, 0.5, 0.5])
        assert values[3] == 0.0

    def test_rho_is_normalized_and_positive_type(self, dihedral):
        b = AlgebraElement({GroupElement((0,), 0): 1.0,
                            GroupElement((1,), 0): 1j,
                            GroupElement((0,), 1): 0.5})
        phi = DensityState(dihedral, b)
        assert coeff_at(phi, enumerate_ball(dihedral, 1), [dihedral.identity])[0] \
            == pytest.approx(1.0)
        assert pd_check(phi, enumerate_ball(dihedral, 3)).passed

    def test_zero_b_rejected(self, z_group):
        with pytest.raises(StateError):
            DensityState(z_group, AlgebraElement({}))


def _conv_loop(group, a, b):
    """conv_mul as a double loop over reference_mul: by g, then by h, from 0.0, zeros dropped."""
    out = {}
    for g, ag in a.items():
        for h, bh in b.items():
            k = reference_mul(group, g, h)
            out[k] = out.get(k, 0.0) + ag * bh
    return {k: v for k, v in out.items() if v != 0}


def _vector_loop(group, xi):
    """The table of VectorState(group, xi): conj(xi) * conj(xi)^*."""
    a = {g: complex(v).conjugate() for g, v in xi.items() if complex(v) != 0}
    return _conv_loop(group, a, {reference_inv(group, g): v.conjugate() for g, v in a.items()})


def _density_loop(group, b):
    """The table {g^-1: rho(g)} of DensityState(group, b), rho = b*b / tau(b*b)."""
    bb = _conv_loop(group, {reference_inv(group, g): complex(v).conjugate()
                            for g, v in b.items()},
                    {g: complex(v) for g, v in b.items()})
    factor = 1.0 / bb[group.identity].real
    rho = {g: factor * v for g, v in bb.items() if factor * v != 0}
    return {reference_inv(group, g): v for g, v in rho.items()}


def _random_support(rng, group, size):
    elements = list(dict.fromkeys(random_element(rng, group) for _ in range(size)))
    values = rng.standard_normal(len(elements)) + 1j * rng.standard_normal(len(elements))
    return dict(zip(elements, (values / np.linalg.norm(values)).tolist()))


_PIN_GROUPS = {"z": FreeAbelian(1), "z2": FreeAbelian(2),
               "zxs3": ProductZFinite(FiniteGroupTable.symmetric(3)),
               "dihedral": InfiniteDihedral()}
_FAR = 2 ** 70  # a coordinate beyond int64: the row saturates


def _saturated(g):
    """g with each coordinate beyond int64 moved to the nearest int64 limit."""
    return GroupElement(tuple(min(max(c, -2 ** 63), 2 ** 63 - 1) for c in g.z), g.f)


def _pin_cases():
    z = _PIN_GROUPS["z"]
    e, s, far = z.identity, GroupElement((1,)), GroupElement((_FAR,))
    cases = [pytest.param(z, "vector", {e: 0.6, far: 0.8j}, id="z-vector-beyond-int64"),
             pytest.param(z, "density", {e: 1.0, far: 0.5, GroupElement((-_FAR,)): 0.25j},
                          id="z-density-beyond-int64"),
             pytest.param(z, "density", {e: 1e150, s: 1e-200}, id="z-density-underflow")]
    for name, group in _PIN_GROUPS.items():
        rng = np.random.default_rng(len(cases))
        for kind in ("vector", "density"):
            for size in (1, 4, 9):
                cases.append(pytest.param(group, kind, _random_support(rng, group, size),
                                          id=f"{name}-{kind}-{size}"))
    return cases


@pytest.mark.parametrize("group,kind,support", _pin_cases())
def test_vector_and_density_tables_match_a_double_loop_bit_for_bit(group, kind, support):
    if kind == "vector":
        phi, expected = VectorState(group, support), _vector_loop(group, support)
    else:
        phi, expected = DensityState(group, AlgebraElement(support)), _density_loop(group, support)
    # the keys in order, a coordinate beyond int64 saturated (see Group.to_rows)
    assert group.from_rows(phi._rows) == [_saturated(g) for g in expected]
    rows = group.to_rows(expected)
    assert phi._rows.dtype == rows.dtype and phi._rows.tobytes() == rows.tobytes()
    values = np.array(list(expected.values()), dtype=complex)
    assert phi._values.tobytes() == values.tobytes()


def test_density_coefficient_that_underflows_is_no_key():
    group = _PIN_GROUPS["z"]
    s = GroupElement((1,))
    phi = DensityState(group, AlgebraElement({group.identity: 1e150, s: 1e-200}))
    assert group.from_rows(phi._rows) == [group.identity]


class TestForeignKeys:
    """A foreign key in a support is a GroupError naming the first one, in support order."""

    FIRST, SECOND = GroupElement((1, 2)), GroupElement((1,), 0)

    def test_vector_support(self, z_group):
        xi = {z_group.identity: 0.6, self.FIRST: 0.48, self.SECOND: 0.64}
        with pytest.raises(GroupError) as info:
            VectorState(z_group, xi)
        assert str(info.value) == ("element GroupElement(z=(1, 2), f=None) "
                                   "does not belong to free_abelian(rank=1)")

    def test_density_b(self, dihedral):
        b = {dihedral.identity: 1.0, GroupElement((0,), 5): 0.5, GroupElement((1,)): 0.25}
        with pytest.raises(GroupError) as info:
            DensityState(dihedral, AlgebraElement(b))
        assert str(info.value) == ("element GroupElement(z=(0,), f=5) "
                                   "does not belong to infinite_dihedral (|F|=2)")

    def test_normalization_is_checked_first(self, z_group):
        with pytest.raises(StateError, match="normalized"):
            VectorState(z_group, {self.FIRST: 0.5, self.SECOND: 0.5})


class TestPdCheck:
    def test_positive_states_pass(self, z_group):
        ball = enumerate_ball(z_group, 6)
        for phi in (TraceState(z_group), OneState(z_group),
                    CharacterState(z_group, [np.exp(2j)])):
            result = pd_check(phi, ball)
            assert result.passed
            assert result.min_eigenvalue >= -1e-10

    def test_non_positive_table_fails(self, z_group):
        # phi(lam_1) = 2 violates |phi(lam_g)| <= 1
        phi = TableState(z_group, {GroupElement((1,)): 2.0,
                                   GroupElement((-1,)): 2.0})
        result = pd_check(phi, enumerate_ball(z_group, 3))
        assert not result.passed
        assert result.min_eigenvalue < -0.5

    @pytest.mark.parametrize("entries", [
        {GroupElement((1,)): 0.5j, GroupElement((-1,)): 0.5j},
        {GroupElement((1,)): 0.9},
    ], ids=["imaginary-pair", "one-sided"])
    def test_non_hermitian_table_fails(self, z_group, entries):
        # phi(g^-1) != conj(phi(g)): the Hermitian part of G is positive
        # definite, but G itself is not Hermitian
        result = pd_check(TableState(z_group, entries), enumerate_ball(z_group, 5))
        assert not result.passed
        assert result.min_eigenvalue > 0.05

    @pytest.mark.parametrize("entries,radius", [
        ({k: 5e307 for k in (*range(-6, 0), *range(1, 7))}, 20),
        ({1: 1e308, -1: 1e308}, 3),
    ], ids=["eigenvalues-overflow", "entries-near-the-top"])
    def test_hermitian_table_whose_eigenvalues_overflow_fails(self, z_group, entries, radius):
        phi = TableState(z_group, {GroupElement((k,)): v for k, v in entries.items()})
        result = pd_check(phi, enumerate_ball(z_group, radius))
        assert not result.passed
        assert not (np.isfinite(result.min_eigenvalue) and np.isfinite(result.max_eigenvalue))

    @pytest.mark.parametrize("entries", [
        {1: 1e308, -1: 1.5e308},
        {1: 1e308, -1: -1e308},
    ], ids=["hermitian-part-overflows", "asymmetry-overflows"])
    def test_huge_non_hermitian_table_fails(self, z_group, entries):
        phi = TableState(z_group, {GroupElement((k,)): v for k, v in entries.items()})
        assert not pd_check(phi, enumerate_ball(z_group, 3)).passed

    def test_cap(self, z_group, monkeypatch):
        # the grid of a key at k has the least power of two >= 16 k points,
        # and the zeros of the symbol 1 + cos(4 theta) need 80 more on Z; on
        # Z x S3, where each point has 36 entries, 1 + cos(theta) needs 22 more
        def table(k):
            return TableState(z_group, {GroupElement((k,)): 0.5, GroupElement((-k,)): 0.5})

        ball = enumerate_ball(z_group, 1)
        monkeypatch.setattr(states, "_PD_MAX_ENTRIES", 144)
        assert pd_check(table(4), ball).passed
        monkeypatch.setattr(states, "_PD_MAX_ENTRIES", 143)
        with pytest.raises(ResourceError, match="144 points of a 1 x 1 symbol.*capped at 143"):
            pd_check(table(4), ball)
        monkeypatch.setattr(states, "_PD_MAX_ENTRIES", 127)
        with pytest.raises(ResourceError, match="needs 128 points"):
            pd_check(table(5), ball)
        zxs3 = ProductZFinite(FiniteGroupTable.symmetric(3))
        s = 2 ** -0.5
        phi = VectorState(zxs3, {zxs3.identity: s, GroupElement((1,), 0): s})
        monkeypatch.setattr(states, "_PD_MAX_ENTRIES", 38 * 36)
        assert pd_check(phi, enumerate_ball(zxs3, 1)).passed
        monkeypatch.setattr(states, "_PD_MAX_ENTRIES", 38 * 36 - 1)
        with pytest.raises(ResourceError, match="38 points of a 6 x 6 symbol"):
            pd_check(phi, enumerate_ball(zxs3, 1))

    @pytest.mark.parametrize("radius", [5, 10, 20, 40])
    def test_table_positive_on_small_balls_fails(self, z_group, radius):
        # symbol 1 + cos(theta) - 0.002 cos(2 theta), -0.002 at theta = pi;
        # the Gram matrix of ball(r) stays positive definite up to r = 20
        phi = TableState(z_group, {GroupElement((k,)): v for k, v in
                                   ((1, 0.5), (-1, 0.5), (2, -0.001), (-2, -0.001))})
        ball = enumerate_ball(z_group, radius)
        result = pd_check(phi, ball)
        assert not result.passed
        assert result.min_eigenvalue == pytest.approx(-0.002, abs=1e-15)
        assert result.min_eigenvalue < -_slack(result)
        if radius <= 20:
            assert np.linalg.eigvalsh(_gram_double_loop(phi, ball))[0] > 0


class TestKappaBounds:
    def test_reference_interval(self, z_group):
        b = AlgebraElement({GroupElement((0,)): 1.0, GroupElement((1,)): 1.0})
        phi = DensityState(z_group, b)
        kb = kappa_bounds(phi, enumerate_ball(z_group, 100))
        assert kb.kappa_upper == pytest.approx(4.0, abs=1e-12)
        assert kb.kappa_lower <= kb.kappa_upper
        # the operator norm of rho is 2 exactly; the truncation closes in on 4
        assert kb.kappa_lower == pytest.approx(4.0, abs=1e-3)

    def test_trace_density(self, z_group):
        phi = DensityState(z_group, AlgebraElement.lam(GroupElement((0,))))
        kb = kappa_bounds(phi, enumerate_ball(z_group, 10))
        assert kb.kappa_lower == pytest.approx(1.0, abs=1e-9)
        assert kb.kappa_upper == pytest.approx(1.0, abs=1e-12)

    def test_requires_density_state(self, z_group):
        with pytest.raises(StateError):
            kappa_bounds(TraceState(z_group), enumerate_ball(z_group, 3))


class TestJson:
    def test_all_kinds(self, z_group):
        assert isinstance(state_from_json(z_group, {"kind": "trace"}), TraceState)
        assert isinstance(state_from_json(z_group, {"kind": "one"}), OneState)
        phi = state_from_json(z_group, {"kind": "character",
                                        "z": [{"re": -1.0, "im": 0.0}]})
        ball = enumerate_ball(z_group, 2)
        assert coeff_at(phi, ball, [GroupElement((1,))])[0] == pytest.approx(-1.0)
        s = 1 / np.sqrt(2)
        phi = state_from_json(z_group, {"kind": "vector", "support": [
            {"element": [0], "re": s}, {"element": [1], "re": s}]})
        assert isinstance(phi, VectorState)
        phi = state_from_json(z_group, {"kind": "density", "b": [
            {"element": [0], "re": 1.0}, {"element": [1], "re": 1.0}]})
        assert coeff_at(phi, ball, [GroupElement((1,))])[0] == pytest.approx(0.5)
        phi = state_from_json(z_group, {"kind": "table", "extend_zero": True,
                                        "entries": [{"element": [2], "re": 0.25}]})
        assert coeff_at(phi, ball, [GroupElement((2,))])[0] == 0.25

    def test_errors_become_config_errors(self, z_group):
        with pytest.raises(ConfigError):
            state_from_json(z_group, {"kind": "spectral"})
        with pytest.raises(ConfigError):
            state_from_json(z_group, {"kind": "character"})
        with pytest.raises(ConfigError):
            state_from_json(z_group, {"kind": "character",
                                      "z": [{"re": 2.0, "im": 0.0}]})
        with pytest.raises(ConfigError):
            state_from_json(z_group, {"kind": "vector",
                                      "support": [{"element": [0], "re": 0.5}]})
        with pytest.raises(ConfigError):
            state_from_json(z_group, "{bad json")

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_extend_zero_must_be_boolean(self, z_group, value):
        spec = {"kind": "table", "extend_zero": value,
                "entries": [{"element": [1], "re": 0.5}, {"element": [-1], "re": 0.5}]}
        with pytest.raises(ConfigError, match="extend_zero"):
            state_from_json(z_group, spec)

    def test_extend_zero_false_is_refused(self, z_group):
        spec = {"kind": "table", "extend_zero": False,
                "entries": [{"element": [1], "re": 0.5}, {"element": [-1], "re": 0.5}]}
        with pytest.raises(ConfigError, match="zero outside its entries.*'extend_zero'"):
            state_from_json(z_group, spec)
        with pytest.raises(TypeError):
            TableState(z_group, {GroupElement((1,)): 0.5}, extend_zero=False)
