import ast
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_inv

from qmetric import metrics, states
from qmetric.errors import GroupError, ResourceError
from qmetric.experiments import run_ball, run_growth, run_summable
from qmetric.groups import (FiniteGroupTable, FreeAbelian, GroupElement, InfiniteDihedral,
                            ProductZFinite)
from qmetric.metrics import (connes_bracket, connes_heuristic, d_2, d_inf,
                             delta_coeffs)
from qmetric.opalgebra import (AlgebraElement, commutator_matrix, commutator_norm_upper_l1,
                               lemma2_lower)
from qmetric.states import (CharacterState, DensityState, OneState, StateRep, TableState,
                            TraceState, VectorState, kappa_bounds, pd_check,
                            state_from_json)
from qmetric.wordlength import enumerate_ball


@pytest.fixture
def char_minus_one(z_group):
    return CharacterState(z_group, [-1.0])


class TestDeltaCoeffs:
    def test_identity_pinned_to_zero(self, z_group):
        ball = enumerate_ball(z_group, 3)
        c = delta_coeffs(TraceState(z_group), OneState(z_group), ball)
        assert c[ball.find_rows(z_group.to_rows([z_group.identity]))[0]] == 0.0
        assert np.all(c[1:] == -1.0)

    def test_antisymmetric(self, z_group, char_minus_one):
        ball = enumerate_ball(z_group, 5)
        a = delta_coeffs(TraceState(z_group), char_minus_one, ball)
        b = delta_coeffs(char_minus_one, TraceState(z_group), ball)
        assert np.allclose(a, -b)


class TestDInf:
    def test_trace_vs_character_exact(self, z_group, char_minus_one):
        # |c_m| = 1 for every m != 0, so the sup ratio is 1 at m = +-1
        ball = enumerate_ball(z_group, 100)
        bracket = d_inf(TraceState(z_group), char_minus_one, ball)
        assert bracket.lo == 1.0
        assert bracket.hi == 1.0
        assert bracket.tail_bound == pytest.approx(2.0 / 101)

    def test_tail_dominates_small_difference(self, z_group):
        # states differing only far out: the sup on the ball stays below the tail
        phi = TableState(z_group, {GroupElement((5,)): 0.1,
                                   GroupElement((-5,)): 0.1})
        bracket = d_inf(TraceState(z_group), phi, enumerate_ball(z_group, 5))
        assert bracket.lo == pytest.approx(0.02)
        assert bracket.hi == pytest.approx(2.0 / 6)

    def test_identical_states(self, z_group):
        bracket = d_inf(TraceState(z_group), TraceState(z_group),
                        enumerate_ball(z_group, 10))
        assert bracket.lo == 0.0
        assert bracket.hi == pytest.approx(2.0 / 11)

    def test_radius_validation(self, z_group):
        with pytest.raises(ValueError):
            d_inf(TraceState(z_group), OneState(z_group),
                  enumerate_ball(z_group, 0))


class TestD2:
    def test_trace_vs_character_closed_form(self, z_group, char_minus_one):
        # lo^2 = 2 sum_{m<=r} 1/m^2, with limit pi^2/3
        r = 100
        ball = enumerate_ball(z_group, r)
        bracket = d_2(TraceState(z_group), char_minus_one, ball)
        partial = 2.0 * sum(1.0 / m ** 2 for m in range(1, r + 1))
        assert bracket.lo == pytest.approx(math.sqrt(partial), abs=1e-12)
        assert bracket.tail_bound == pytest.approx(8.0 / r)
        assert bracket.hi == pytest.approx(math.sqrt(partial + 8.0 / r), abs=1e-12)
        limit = math.pi / math.sqrt(3.0)
        assert bracket.lo <= limit <= bracket.hi

    def test_density_reference_value(self, z_group):
        b = AlgebraElement({GroupElement((0,)): 1.0, GroupElement((1,)): 1.0})
        rho = DensityState(z_group, b)
        bracket = d_2(rho, TraceState(z_group), enumerate_ball(z_group, 100))
        assert bracket.lo == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_partials_monotone(self, z_group, char_minus_one):
        # d_2.lo on the ball of radius k is the partial sum over shells 1..k
        partials = [d_2(TraceState(z_group), char_minus_one, enumerate_ball(z_group, k)).lo
                    for k in range(1, 31)]
        assert partials == sorted(partials)
        assert partials[-1] == pytest.approx(
            math.sqrt(2.0 * sum(1.0 / m ** 2 for m in range(1, 31))), abs=1e-14)

    def test_no_shell_bound_gives_infinite_upper(self, z2_group):
        phi = CharacterState(z2_group, [-1.0, -1.0])
        bracket = d_2(TraceState(z2_group), phi, enumerate_ball(z2_group, 20))
        assert bracket.hi == math.inf
        assert bracket.tail_bound is None
        assert bracket.lo > 2.0


class TestCustomGenerators:
    """Shell bounds are analytic facts about the default generating sets only."""

    GENS = [GroupElement((m,)) for m in (1, -1, 2, -2, 3, -3)]

    def test_no_bound_and_no_certified_tail(self, z_group):
        group = FreeAbelian(1, self.GENS)
        ball = enumerate_ball(group, 10)
        # every shell has 6 elements, more than the bound 2 of the default set
        assert ball.shell_sizes[1:].tolist() == [6] * 10
        assert group.shell_bound is None
        bracket = d_2(TraceState(group), CharacterState(group, [-1.0]), ball)
        assert bracket.hi == math.inf and bracket.tail_bound is None
        config = {"group": {"family": "free_abelian", "rank": 1,
                            "generators": [[m] for m in (1, -1, 2, -2, 3, -3)]},
                  "radius": 10}
        assert all(row[-1] is None for row in run_ball(config).rows)
        assert all(row[-1] is None for row in run_summable(config).rows)
        assert run_summable(config).meta["tail_bound"] is None
        growth = run_growth(config).meta
        assert growth["shell_bound"] is None and growth["shell_bound_provenance"] is None

    def test_reordered_default_set_keeps_bound(self):
        assert FreeAbelian(1, [GroupElement((-1,)), GroupElement((1,))]).shell_bound == 2

    def test_default_states_on_a_ball_of_another_generating_set(self, z_group):
        # the same group law, so states of the default Z evaluate on the ball
        group = FreeAbelian(1, [GroupElement((m,)) for m in (2, -2, 3, -3)])
        ball = enumerate_ball(group, 3)
        phi, psi = TraceState(z_group), CharacterState(z_group, [-1.0])
        bracket = connes_bracket(phi, psi, ball)
        assert bracket.lo == d_inf(phi, psi, ball).lo == 1.0
        result = connes_heuristic(phi, psi, group, 1, 2)
        assert result.estimate >= bracket.lo - 1e-9


class TestGroupLaw:
    """A state is evaluated only on a ball of its own group law."""

    CASES = {
        # a dihedral table against the trace of Z x Z2: same rows, another law
        "dihedral-on-zxz2": (
            InfiniteDihedral, lambda: ProductZFinite(FiniteGroupTable.cyclic(2)),
            lambda g: TableState(g, {GroupElement((1,), 0): 0.5, GroupElement((-1,), 0): 0.5}),
            r"infinite_dihedral\(\|F\|=2\).*product_z_finite\(\|F\|=2\)"),
        "zxs3-on-zxz6": (
            lambda: ProductZFinite(FiniteGroupTable.symmetric(3)),
            lambda: ProductZFinite(FiniteGroupTable.cyclic(6)),
            lambda g: DensityState(g, AlgebraElement({GroupElement((0,), 0): 1.0,
                                                      GroupElement((1,), 3): 1.0})),
            r"product_z_finite\(\|F\|=6\).*product_z_finite\(\|F\|=6\)"),
        "z-on-z2": (
            lambda: FreeAbelian(1), lambda: FreeAbelian(2),
            lambda g: DensityState(g, AlgebraElement({GroupElement((0,)): 1.0,
                                                      GroupElement((1,)): 1.0})),
            r"free_abelian\(rank=1\).*free_abelian\(rank=2\)"),
    }

    @pytest.mark.parametrize("case", CASES, ids=list(CASES))
    def test_foreign_state_is_refused(self, case):
        make_own, make_ball_group, make_state, message = self.CASES[case]
        foreign = make_state(make_own())
        group = make_ball_group()
        ball = enumerate_ball(group, 4)
        native = TraceState(group)
        for call in (lambda: delta_coeffs(foreign, native, ball),
                     lambda: delta_coeffs(native, foreign, ball),
                     lambda: d_inf(native, foreign, ball),
                     lambda: d_2(native, foreign, ball),
                     lambda: connes_bracket(foreign, native, ball),
                     lambda: connes_bracket(OneState(group), foreign, ball),
                     lambda: connes_bracket(foreign, OneState(group), ball),
                     lambda: connes_heuristic(native, foreign, group, 1, 2),
                     lambda: pd_check(foreign, ball)):
            with pytest.raises(GroupError, match=message):
                call()
        if isinstance(foreign, DensityState):
            with pytest.raises(GroupError, match=message):
                kappa_bounds(foreign, ball)


class TestConnesBracket:
    def test_combines_endpoints(self, z_group, char_minus_one):
        ball = enumerate_ball(z_group, 50)
        lower = d_inf(TraceState(z_group), char_minus_one, ball)
        upper = d_2(TraceState(z_group), char_minus_one, ball)
        bracket = connes_bracket(TraceState(z_group), char_minus_one, ball)
        assert bracket.lo == lower.lo
        assert bracket.hi == upper.hi
        assert bracket.lo <= bracket.hi

    @pytest.mark.parametrize("family", ["z", "zxz2", "dihedral"])
    def test_sandwich_ordering(self, family, z_group, z_x_z2, dihedral):
        group = {"z": z_group, "zxz2": z_x_z2, "dihedral": dihedral}[family]
        ball = enumerate_ball(group, 30)
        bracket = connes_bracket(TraceState(group), OneState(group), ball)
        assert 0.0 < bracket.lo <= bracket.hi < math.inf

    @pytest.mark.parametrize("family", ["z", "z2", "dihedral"])
    def test_d_inf_and_d_2_are_its_fields(self, family, z_group, z2_group, dihedral):
        group = {"z": z_group, "z2": z2_group, "dihedral": dihedral}[family]
        ball = enumerate_ball(group, 12)
        rho = DensityState(group, AlgebraElement({group.identity: 1.0,
                                                  group.generators[0]: 0.5j}))
        table = TableState(group, {group.generators[-1]: 0.25})
        for phi, psi in [(TraceState(group), OneState(group)), (rho, TraceState(group)),
                         (rho, table), (table, table)]:
            bracket = connes_bracket(phi, psi, ball)
            assert [f.name for f in fields(bracket)] == ["d_inf", "d_2"]
            for name, metric in (("d_inf", d_inf), ("d_2", d_2)):
                alone, field_ = metric(phi, psi, ball), getattr(bracket, name)
                assert [f.name for f in fields(alone)] == ["lo", "hi", "tail_bound"]
                assert [_bits(getattr(alone, f.name)) for f in fields(alone)] == \
                    [_bits(getattr(field_, f.name)) for f in fields(alone)]
            assert (bracket.lo, bracket.hi) == (bracket.d_inf.lo, bracket.d_2.hi)


class TestTableTails:
    """The tails bound tables by their values outside the ball, not by 1."""

    @pytest.mark.parametrize("r", [10, 49, 60])
    def test_large_table_value_is_bracketed(self, z_group, r):
        # c at 50 is 100 and L(50) = 50, so d_inf = 2 and d >= 2
        phi = TableState(z_group, {GroupElement((50,)): 100.0})
        ball = enumerate_ball(z_group, r)
        assert d_inf(phi, TraceState(z_group), ball).hi >= 2.0
        assert connes_bracket(phi, TraceState(z_group), ball).hi >= 2.0

    def test_key_beyond_int64_gets_the_same_tail(self, z_group):
        ball = enumerate_ball(z_group, 10)
        near = TableState(z_group, {GroupElement((50,)): 100.0})
        far = TableState(z_group, {GroupElement((2 ** 70,)): 100.0})
        for metric in (d_inf, d_2):
            expected = metric(near, TraceState(z_group), ball).tail_bound
            assert metric(far, TraceState(z_group), ball).tail_bound == expected
        assert d_inf(far, TraceState(z_group), ball).tail_bound == 101.0 / 11

    @pytest.mark.parametrize("family", ["z", "zxz2", "dihedral"])
    def test_states_keep_the_tails_of_two(self, family, z_group, z_x_z2, dihedral):
        group = {"z": z_group, "zxz2": z_x_z2, "dihedral": dihedral}[family]
        ball = enumerate_ball(group, 30)
        bracket = connes_bracket(TraceState(group), OneState(group), ball)
        assert bracket.d_inf.tail_bound == 2.0 / 31
        assert bracket.d_2.tail_bound == 4.0 * group.shell_bound / 30


_TAIL_GROUPS = {"z": FreeAbelian(1), "zxz2": ProductZFinite(FiniteGroupTable.cyclic(2)),
                "dihedral": InfiniteDihedral()}
_TAIL_BALLS = {name: enumerate_ball(group, 30) for name, group in _TAIL_GROUPS.items()}


@st.composite
def _far_table(draw):
    """A group, a table with keys in its ball of radius 30 and values up to 100 in modulus."""
    name = draw(st.sampled_from(sorted(_TAIL_GROUPS)))
    group, ball = _TAIL_GROUPS[name], _TAIL_BALLS[name]
    keys = draw(st.lists(st.sampled_from(ball.elements[1:]), min_size=1, max_size=6,
                         unique=True))
    table = {}
    for g in keys:
        value = draw(st.floats(0.0, 100.0)) * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
        table[g] = complex(value)
        if draw(st.booleans()):
            table[reference_inv(group, g)] = complex(value).conjugate()
    table.pop(group.identity, None)
    return name, table, draw(st.integers(1, 40))


@settings(deadline=None)
@given(_far_table())
def test_brackets_contain_the_exact_metrics_of_a_table(case):
    name, table, r = case
    group, ball_30 = _TAIL_GROUPS[name], _TAIL_BALLS[name]
    lengths = ball_30.lengths[ball_30.find_rows(group.to_rows(table))].tolist()
    ratios = [abs(v) / n for v, n in zip(table.values(), lengths)]
    exact_inf = max(ratios)
    exact_2 = math.sqrt(sum(x * x for x in ratios))
    bracket = connes_bracket(TableState(group, table), TraceState(group),
                             enumerate_ball(group, r))
    lower, upper = bracket.d_inf, bracket.d_2
    slack = 1 + 1e-12
    assert lower.lo <= exact_inf * slack and exact_inf <= lower.hi * slack
    assert upper.lo <= exact_2 * slack and exact_2 <= upper.hi * slack


class TestHeuristic:
    def test_agreement_returns_zero(self, z_group):
        result = connes_heuristic(TraceState(z_group), TraceState(z_group),
                                  z_group, 2, 8)
        assert result.estimate == 0.0
        assert result.sigma_drift == 0.0

    def test_agreement_over_the_cap_raises(self, z_group, monkeypatch):
        # ball(2R) is enumerated before the states are compared; ball(R) fits
        monkeypatch.setenv("QMETRIC_MAX_BALL", "20")
        with pytest.raises(ResourceError, match="at radius 10"):
            connes_heuristic(TraceState(z_group), TraceState(z_group), z_group, 2, 8)

    @pytest.mark.parametrize("group", [
        FreeAbelian(1), InfiniteDihedral(),
        FreeAbelian(1, [GroupElement((m,)) for m in (2, -2, 3, -3)])],
        ids=["z", "dihedral", "z-custom"])
    def test_one_ball_and_one_triplet_list(self, group, monkeypatch):
        calls = {"enumerate_ball": [], "commutator_triplets": []}
        for name in calls:
            original = getattr(metrics, name)

            def counting(*args, _name=name, _original=original):
                calls[_name].append(args)
                return _original(*args)

            monkeypatch.setattr(metrics, name, counting)
        rho = DensityState(group, AlgebraElement({group.identity: 1.0,
                                                  group.generators[0]: 1.0}))
        connes_heuristic(TraceState(group), rho, group, 2, 6)
        assert [args[1] for args in calls["enumerate_ball"]] == [12]
        assert len(calls["commutator_triplets"]) == 1

    def test_validation(self, z_group, char_minus_one):
        with pytest.raises(ValueError):
            connes_heuristic(TraceState(z_group), char_minus_one, z_group, 0, 8)
        with pytest.raises(ValueError):
            connes_heuristic(TraceState(z_group), char_minus_one, z_group, 3, 5)

    def test_estimate_within_bracket(self, z_group, char_minus_one):
        result = connes_heuristic(TraceState(z_group), char_minus_one,
                                  z_group, 3, 30)
        bracket = connes_bracket(TraceState(z_group), char_minus_one,
                                 enumerate_ball(z_group, 100))
        assert bracket.lo - 1e-6 <= result.estimate
        assert result.estimate <= bracket.hi + result.sigma_drift + 1e-6
        # ascending from the best singleton can only improve on d_inf
        assert result.estimate >= 1.0 - 1e-9

    def test_density_pair_beats_singleton_start(self, z_group):
        b = AlgebraElement({GroupElement((0,)): 1.0, GroupElement((1,)): 1.0})
        rho = DensityState(z_group, b)
        result = connes_heuristic(TraceState(z_group), rho, z_group, 3, 20)
        assert result.estimate >= 0.5 - 1e-9
        assert result.estimate <= math.sqrt(0.5) + result.sigma_drift + 1e-6
        log = result.diagnostics["restart_log"]
        assert 1 <= len(log) <= 4
        # the reported estimate is the best restart re-evaluated at the strict
        # norm tolerance, so it may differ slightly from the ascent ratios
        assert max(entry["ratio"] for entry in log) \
            == pytest.approx(result.estimate, rel=1e-4)

    @pytest.mark.parametrize("group", [ProductZFinite(FiniteGroupTable.symmetric(3)),
                                       InfiniteDihedral()], ids=["zxs3", "dihedral"])
    def test_mirrored_coefficients_keep_the_ratio(self, group):
        # alpha'_{g^-1} = conj(alpha_g) gives T(alpha') = -T(alpha)^* and, for
        # hermitian c, <alpha', c> = conj(<alpha, c>)
        ball_r, ball_R = enumerate_ball(group, 2), enumerate_ball(group, 6)
        support = ball_r.elements[1:]
        inverse = [support.index(reference_inv(group, g)) for g in support]
        rng = np.random.default_rng(8)
        rho = DensityState(group, AlgebraElement(
            {g: complex(*rng.standard_normal(2)) for g in ball_r.elements[:4]}))
        c = delta_coeffs(TraceState(group), rho, ball_r)[1:]

        def sigma(alpha):
            T = commutator_matrix(AlgebraElement(dict(zip(support, alpha))), ball_R)
            return np.linalg.norm(T.matrix.toarray(), 2)

        for _ in range(4):
            alpha = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
            mirror = np.empty_like(alpha)
            mirror[inverse] = np.conj(alpha)
            assert sigma(mirror) == pytest.approx(sigma(alpha), rel=1e-12, abs=1e-12)
            assert abs(mirror @ c) == pytest.approx(abs(alpha @ c), rel=1e-12, abs=1e-12)

    def test_hermitian_pair_skips_mirrored_starts(self, z_group):
        result = connes_heuristic(TraceState(z_group), OneState(z_group), z_group, 2, 8)
        support = enumerate_ball(z_group, 2).elements[1:]
        starts = [support[e["start_index"]] for e in result.diagnostics["restart_log"]]
        assert len(starts) == 2
        assert not any(reference_inv(z_group, g) in starts for g in starts)

    def test_non_hermitian_table_keeps_mirrored_starts(self, z_group):
        one, minus_one = GroupElement((1,)), GroupElement((-1,))
        table = TableState(z_group, {one: 0.5, minus_one: 0.25j})
        result = connes_heuristic(TraceState(z_group), table, z_group, 2, 8)
        support = enumerate_ball(z_group, 2).elements[1:]
        starts = {support[e["start_index"]] for e in result.diagnostics["restart_log"]}
        assert starts == {one, minus_one}

    def test_drift_reported_nonnegative(self, dihedral):
        result = connes_heuristic(TraceState(dihedral), OneState(dihedral),
                                  dihedral, 2, 12)
        assert result.sigma_drift >= 0.0
        assert len(result.diagnostics["restart_log"]) >= 1
        assert result.diagnostics["estimate_at_drift_radius"] \
            <= result.estimate + 1e-12

    def test_argmax_beyond_the_support_ball_joins_the_support(self, dihedral):
        # the sandwich pair D r=30 trace|vector: |c_g| / L(g) is largest at
        # L(g) = 3, beyond the support ball r = 2; the estimate was 0.16751
        # against d_inf.lo = 0.21274 before g and g^-1 joined the support
        vector = {"kind": "vector", "support": [
            {"element": [0, 0], "re": 0.1346347353758899, "im": 0.11232939376849213},
            {"element": [0, 1], "re": -0.14146084494579111, "im": -0.5736067564133525},
            {"element": [2, 0], "re": 0.6857789107609233, "im": 0.38720407955702707}]}
        phi, psi = TraceState(dihedral), state_from_json(dihedral, vector)
        lo = d_inf(phi, psi, enumerate_ball(dihedral, 30)).lo
        assert lo == pytest.approx(0.21274249, abs=1e-8)
        result = connes_heuristic(phi, psi, dihedral, 2, 20)
        assert result.estimate >= lo - 1e-6

    def test_difference_only_beyond_the_support_ball(self, z_group):
        # c vanishes on ball(1) \ {e}; the singleton at +-3 gives 0.5 / 3
        far = TableState(z_group, {GroupElement((3,)): 0.5, GroupElement((-3,)): 0.5})
        result = connes_heuristic(TraceState(z_group), far, z_group, 1, 4)
        assert result.estimate >= 0.5 / 3 - 1e-9
        assert len(result.diagnostics["restart_log"]) == 1


# ---------------------------------------------------------------------------
# two finite states: the bracket over their keys against the dense bracket
# ---------------------------------------------------------------------------

_PAIR_GROUPS = {
    "z": FreeAbelian(1),
    "z2": FreeAbelian(2),
    "zxs3": ProductZFinite(FiniteGroupTable.symmetric(3)),
    "dihedral": InfiniteDihedral(),
    # no closed form: the ball is searched
    "z2-hex": FreeAbelian(2, [*FreeAbelian(2).generators,
                              GroupElement((1, 1)), GroupElement((-1, -1))]),
}


def _pair_element(draw, group, reach):
    if isinstance(group, FreeAbelian):
        return GroupElement(tuple(draw(st.integers(-reach, reach)) for _ in range(group.rank)))
    order = group.finite.order
    return GroupElement((draw(st.integers(-reach, reach)),), draw(st.integers(0, order - 1)))


def _pair_state(draw, group, pool):
    """A trace, table, vector or density state with keys drawn from pool."""
    kind = draw(st.sampled_from(["trace", "table", "vector", "density"]))
    if kind == "trace":
        return TraceState(group)
    keys = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    values = [complex(draw(st.floats(0.05, 2.0)) * np.exp(1j * draw(st.floats(0.0, 6.3))))
              for _ in keys]
    if kind == "table":
        return TableState(group, {g: v for g, v in zip(keys, values) if g != group.identity})
    if kind == "vector":
        norm = math.sqrt(sum(abs(v) ** 2 for v in values))
        return VectorState(group, {g: v / norm for g, v in zip(keys, values)})
    return DensityState(group, AlgebraElement(dict(zip(keys, values))))


@st.composite
def finite_pairs(draw):
    """A group, a radius in 1..40 and two finite states whose keys may be shared.

    Keys reach a few steps past the radius, and the identity is in the pool;
    one pair in four is a state against itself.
    """
    name = draw(st.sampled_from(sorted(_PAIR_GROUPS)))
    group = _PAIR_GROUPS[name]
    radius = draw(st.integers(1, 40))
    reach = draw(st.sampled_from([2, radius + 3]))
    pool = [group.identity] + [_pair_element(draw, group, reach)
                               for _ in range(draw(st.integers(1, 6)))]
    pool = list(dict.fromkeys(pool))
    phi = _pair_state(draw, group, pool)
    psi = phi if draw(st.integers(0, 3)) == 0 else _pair_state(draw, group, pool)
    return name, radius, phi, psi


def outside_bound(state, ball):
    """e = max(1, |value|) over the state's keys that ball.find_rows places at -1."""
    return float(np.abs(state._values[ball.find_rows(state._rows) < 0]).max(initial=1.0))


def dense_bracket(phi, psi, ball):
    """(lo, hi, tail) of d_inf and of d_2 from every ball position: c = phi - psi coefficients."""
    c = phi.coeff_array(ball) - psi.coeff_array(ball)
    c[0] = 0.0
    ratios = np.abs(c[1:]) / ball.lengths[1:]
    lo = float(ratios.max())
    outside = outside_bound(phi, ball) + outside_bound(psi, ball)
    tail_inf = outside / (ball.radius + 1)
    lo_2 = float(np.sqrt(np.cumsum(np.bincount(ball.lengths[1:], ratios ** 2,
                                               ball.radius + 1))[-1]))
    bound = ball.group.shell_bound
    tail_2 = None if bound is None else outside ** 2 * bound / ball.radius
    hi_2 = math.inf if bound is None else float(np.sqrt(lo_2 ** 2 + tail_2))
    return (lo, max(lo, tail_inf), tail_inf), (lo_2, hi_2, tail_2)


def _bits(value):
    return None if value is None else np.float64(value).tobytes()


@settings(deadline=None, max_examples=150)
@given(finite_pairs())
def test_finite_pairs_match_the_dense_bracket_bit_for_bit(case):
    name, radius, phi, psi = case
    group = _PAIR_GROUPS[name]
    dense = enumerate_ball(group, radius)
    assert len(dense.rows) == len(dense)  # materialised: every position is read
    expected_inf, expected_2 = dense_bracket(phi, psi, dense)
    ball = enumerate_ball(group, radius)
    bracket = connes_bracket(phi, psi, ball)
    for metric, expected in ((bracket.d_inf, expected_inf), (bracket.d_2, expected_2)):
        assert [_bits(x) for x in (metric.lo, metric.hi, metric.tail_bound)] == \
            [_bits(x) for x in expected]
    assert (_bits(bracket.lo), _bits(bracket.hi)) == (_bits(expected_inf[0]),
                                                      _bits(expected_2[1]))
    assert d_inf(phi, psi, ball) == bracket.d_inf and d_2(phi, psi, ball) == bracket.d_2


@pytest.mark.parametrize("name", ["z", "z2", "zxs3", "dihedral"])
def test_finite_pair_on_a_default_ball_builds_no_rows(name, monkeypatch):
    group = _PAIR_GROUPS[name]
    s = group.generators[0]
    phi = DensityState(group, AlgebraElement({group.identity: 1.0, s: 0.5j}))
    psi = TableState(group, {s: 0.25, reference_inv(group, s): 0.25})

    def no_rows(self, radius):
        raise AssertionError("built the rows of a default ball")

    for cls in (FreeAbelian, ProductZFinite, InfiniteDihedral):
        monkeypatch.setattr(cls, "default_ball", no_rows)
    ball = enumerate_ball(group, 300)
    bracket = connes_bracket(phi, psi, ball)
    assert 0 < bracket.lo <= bracket.hi
    # a pair with `one` reads its keys' lengths and the ball's shell sizes
    one = OneState(group)
    bracket = connes_bracket(one, phi, ball)
    assert 0 < bracket.lo <= bracket.hi
    bracket = connes_bracket(one, one, ball)
    assert bracket.d_inf.lo == bracket.d_2.lo == 0.0 < bracket.hi
    # the certified commutator bounds read the support's lengths only
    a = AlgebraElement({group.identity: 2.0, s: 1.0, reference_inv(group, s): 0.5j})
    assert lemma2_lower(a, ball) == math.sqrt(1.25)
    assert commutator_norm_upper_l1(a, ball) == 1.5


def _attributes(state):
    """Each attribute's object, by id, and an array's bytes."""
    return {k: (id(v), v.tobytes() if isinstance(v, np.ndarray) else None)
            for k, v in vars(state).items()}


@pytest.mark.parametrize("name", sorted(_PAIR_GROUPS))
def test_a_bracket_looks_the_keys_up_once(name):
    # one find_rows call for the keys of both states when either has a table,
    # none for two unimodular states; the states keep nothing from it
    group = _PAIR_GROUPS[name]
    s = group.generators[0]
    density = DensityState(group, AlgebraElement({group.identity: 1.0, s: 0.5j}))
    table = TableState(group, {s: 0.25, reference_inv(group, s): 0.25})
    units = [OneState(group)]
    if isinstance(group, FreeAbelian):
        units.append(CharacterState(group, [0.6 + 0.8j] * group.rank))
    pairs = [(density, table, 1), (table, table, 1), (density, TraceState(group), 1)]
    pairs += [(unit, finite, 1) for unit in units for finite in (density, table)]
    pairs += [(table, unit, 1) for unit in units]
    pairs += [(a, b, 0) for a in units for b in units]
    for phi, psi, calls in pairs:
        ball = enumerate_ball(group, 30)
        lookup, looked_up = ball.find_rows, []

        def spy(rows):
            looked_up.append(len(rows))
            return lookup(rows)

        ball.find_rows = spy
        kept = [dict(vars(phi)), dict(vars(psi))]  # alive, so no id is reused
        before = [_attributes(phi), _attributes(psi)]
        bracket = connes_bracket(phi, psi, ball)
        assert len(looked_up) == calls, (phi, psi)
        assert bracket.lo <= bracket.hi
        assert [_attributes(phi), _attributes(psi)] == before and kept


# ---------------------------------------------------------------------------
# `one` or a character against a finite state: the keys and the shell sizes
# against every ball position
# ---------------------------------------------------------------------------

@st.composite
def unimodular_pairs(draw):
    """A group, a radius in 1..40, and `one` or a character against a finite state.

    Characters only on Z^d.  The finite state's key pool holds the identity
    and elements a few steps past the radius; in one pair in three a table
    covers the whole of shell 1 (the generators) as well.  The finite state
    is phi or psi at random.
    """
    name = draw(st.sampled_from(sorted(_PAIR_GROUPS)))
    group = _PAIR_GROUPS[name]
    radius = draw(st.one_of(st.just(1), st.integers(1, 40)))
    reach = draw(st.sampled_from([2, radius + 3]))
    pool = [group.identity] + [_pair_element(draw, group, reach)
                               for _ in range(draw(st.integers(1, 6)))]
    pool = list(dict.fromkeys(pool))
    if draw(st.integers(0, 2)) == 0:
        keys = list(dict.fromkeys([*group.generators, *pool[1:]]))
        finite = TableState(group, {g: complex(draw(st.floats(0.0, 2.0))) for g in keys})
    else:
        finite = _pair_state(draw, group, pool)
    if isinstance(group, FreeAbelian) and draw(st.booleans()):
        unit = CharacterState(group, [np.exp(1j * draw(st.floats(-3.2, 3.2)))
                                      for _ in range(group.rank)])
    else:
        unit = OneState(group)
    phi, psi = (unit, finite) if draw(st.booleans()) else (finite, unit)
    return name, radius, phi, psi


@settings(deadline=None, max_examples=150)
@given(unimodular_pairs())
def test_unimodular_pairs_match_the_whole_ball_bracket(case):
    name, radius, phi, psi = case
    group = _PAIR_GROUPS[name]
    dense = enumerate_ball(group, radius)
    expected_inf, expected_2 = dense_bracket(phi, psi, dense)
    ball = enumerate_ball(group, radius)
    bracket = connes_bracket(phi, psi, ball)
    for metric, expected in ((bracket.d_inf, expected_inf), (bracket.d_2, expected_2)):
        assert metric.lo == pytest.approx(expected[0], rel=1e-13, abs=0.0)
        assert metric.hi == pytest.approx(expected[1], rel=1e-13, abs=0.0)
        assert _bits(metric.tail_bound) == _bits(expected[2])
    if name != "z2-hex":
        # a default ball is read through its sizes and key lookups alone
        assert not {"rows", "lengths"} & ball.__dict__.keys()


def test_unimodular_pair_refuses_a_foreign_law_before_radius_0():
    z, z2 = FreeAbelian(1), FreeAbelian(2)
    native = TableState(z, {GroupElement((1,)): 0.5})
    for unit in (OneState(z), CharacterState(z, [1j])):
        with pytest.raises(GroupError):
            connes_bracket(unit, native, enumerate_ball(z2, 0))
        with pytest.raises(ValueError, match="radius >= 1"):
            connes_bracket(native, unit, enumerate_ball(z, 0))


def test_metrics_names_no_state_class():
    # every state is a key table over a background, so the metrics read the
    # states' tables and their unimodular flag, never their classes
    subclasses = {name for name, obj in vars(states).items()
                  if isinstance(obj, type) and issubclass(obj, StateRep) and obj is not StateRep}
    assert {"OneState", "CharacterState", "TraceState", "DensityState"} <= subclasses
    tree = ast.parse(Path(metrics.__file__).read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name.split(".")[-1])
    assert "StateRep" in named and not subclasses & named
