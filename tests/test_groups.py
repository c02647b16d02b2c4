import itertools
import re

import numpy as np
import pytest

from qmetric.errors import ConfigError, GroupError, ResourceError
from qmetric.groups import (FiniteGroupTable, FreeAbelian, GroupElement,
                            InfiniteDihedral, ProductZFinite,
                            builtin_finite_table, decode_element,
                            group_from_json)
from qmetric.opalgebra import AlgebraElement, conv_mul, star
from qmetric.states import TableState

from conftest import random_element, z26_not_associative


def dihedral_oracle(a, b):
    # direct evaluation of the semidirect rule (m,s)(m',s') = (m+(-1)^s m', s xor s')
    m, s = a.z[0], a.f
    mp, sp = b.z[0], b.f
    return GroupElement((m + (mp if s == 0 else -mp),), s ^ sp)


def assert_law_matches_oracle(group, oracle, rng):
    """mul_rows and inv_rows on exact rows up to +-2^80 and on int64 rows up to +-2^61."""
    order = group.finite.order
    for bound in (5, 2 ** 61, 2 ** 80):
        pairs = [[GroupElement((int.from_bytes(rng.bytes(11), "little", signed=True)
                                % (2 * bound + 1) - bound,), int(rng.integers(order)))
                  for _ in range(2)] for _ in range(300)]
        expected = [oracle(x, y) for x, y in pairs]
        a, b = (group._exact_rows(column) for column in zip(*pairs))
        assert group.from_rows(group.mul_rows(a, b)) == expected
        inverted = group.from_rows(group.inv_rows(a))
        for (x, _), x_inv in zip(pairs, inverted):
            assert oracle(x, x_inv) == oracle(x_inv, x) == group.identity
        if bound > 2 ** 61:
            continue
        a, b = (group.to_rows(column) for column in zip(*pairs))
        assert group.from_rows(group.mul_rows(a, b)) == expected
        assert group.from_rows(group.inv_rows(a)) == inverted


class TestFiniteGroupTable:
    def test_cyclic_groups_valid(self):
        for n in (1, 2, 3, 6):
            t = FiniteGroupTable.cyclic(n)
            assert t.order == n
            assert t.table[t.identity_index] == tuple(range(n))

    def test_s3_nonabelian(self):
        t = FiniteGroupTable.symmetric(3)
        assert t.order == 6
        assert any(t.table[i][j] != t.table[j][i]
                   for i in range(6) for j in range(6))

    def test_inverses(self):
        t = FiniteGroupTable.symmetric(3)
        for i in range(t.order):
            assert t.table[i][t.inverse[i]] == t.identity_index

    def test_non_associative_rejected_with_triple(self):
        # order-5 loop with identity and inverses that fails (1*1)*2 = 1*(1*2)
        rows = [[0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0]]
        with pytest.raises(GroupError, match=re.escape("associative at triple (1, 1, 2)")):
            FiniteGroupTable.from_table(rows)
        # order 26: identity and inverses hold, associativity fails
        with pytest.raises(GroupError, match=re.escape("associative at triple (1, 1, 1)")):
            FiniteGroupTable.from_table(z26_not_associative())

    def test_first_failing_triple_matches_the_triple_loop(self):
        # Z/n with an intercalate swapped in rows r, r + n/2 and columns c, c + n/2;
        # r + c not in {0, n/2} keeps the identity and the inverses in place
        rng = np.random.default_rng(5)
        for n in range(6, 41, 2):
            h = n // 2
            r, c = next((int(r), int(c)) for r, c in rng.integers(1, h, size=(50, 2))
                        if r + c != h)
            rows = [[(i + j) % n for j in range(n)] for i in range(n)]
            for i in (r, r + h):
                rows[i][c], rows[i][c + h] = rows[i][c + h], rows[i][c]
            first = next((i, j, k) for i, j, k in itertools.product(range(n), repeat=3)
                         if rows[rows[i][j]][k] != rows[i][rows[j][k]])
            with pytest.raises(GroupError, match=re.escape(f"triple {first}")):
                FiniteGroupTable.from_table(rows)

    @pytest.mark.parametrize("rows", [[[0, 1], [1, 0.5]], [[False, True], [True, "0"]],
                                      [[0, "abc"], ["abc", 0]], 5, [0, 1]])
    def test_non_integer_table_rejected(self, rows):
        with pytest.raises(GroupError, match="of integers"):
            FiniteGroupTable.from_table(rows)

    def test_order_over_the_cap_rejected(self, monkeypatch):
        with pytest.raises(ResourceError, match="order 1025"):
            FiniteGroupTable.from_table([[0]] * 1025)
        monkeypatch.setattr("qmetric.groups._MAX_TABLE_ORDER", 4)
        assert FiniteGroupTable.cyclic(4).order == 4
        with pytest.raises(ResourceError, match="cap of 4"):
            FiniteGroupTable.cyclic(5)

    def test_missing_inverse_rejected(self):
        rows = [[0, 1], [1, 1]]
        with pytest.raises(GroupError, match="^element 1 has no inverse"):
            FiniteGroupTable.from_table(rows)

    def test_missing_identity_rejected(self):
        with pytest.raises(GroupError, match="no identity element"):
            FiniteGroupTable.from_table([[0, 0], [0, 0]])

    def test_builtins(self):
        assert builtin_finite_table("z2").order == 2
        assert builtin_finite_table("z3").order == 3
        assert builtin_finite_table("s3").order == 6
        with pytest.raises(ConfigError):
            builtin_finite_table("q8")

    def test_builtins_are_built_once(self):
        assert builtin_finite_table("s3") is builtin_finite_table("S3")
        assert builtin_finite_table("s3") == FiniteGroupTable.symmetric(3)
        assert builtin_finite_table("Z3") == FiniteGroupTable.cyclic(3)
        assert builtin_finite_table("z2") is InfiniteDihedral().finite
        spec = {"family": "product_z_finite", "finite": {"name": "s3"}}
        assert group_from_json(spec).finite is group_from_json(spec).finite

    @pytest.mark.parametrize("name", ["q8", 3, None])
    def test_unknown_builtin_text(self, name):
        with pytest.raises(ConfigError) as info:
            builtin_finite_table(name)
        assert str(info.value) == f"unknown built-in finite group {name!r} (have: z2, z3, s3)"


class TestMul:
    def test_z2_componentwise(self, z2_group):
        a, b = z2_group.to_rows([GroupElement((1, 2)), GroupElement((3, -5))])
        assert z2_group.from_rows(z2_group.mul_rows(a, b)) == [GroupElement((4, -3))]

    def test_dihedral_examples(self, dihedral):
        a = dihedral.to_rows([GroupElement((2,), 0), GroupElement((2,), 1)])
        b = dihedral.to_rows([GroupElement((3,), 1), GroupElement((3,), 0)])
        assert dihedral.from_rows(dihedral.mul_rows(a, b)) \
            == [GroupElement((5,), 1), GroupElement((-1,), 1)]

    def test_dihedral_involution(self, dihedral):
        flip = dihedral.to_rows([GroupElement((0,), 1)])
        assert dihedral.from_rows(dihedral.mul_rows(flip, flip)) == [dihedral.identity]

    def test_product_direct(self, z_x_z2):
        a, b = z_x_z2.to_rows([GroupElement((2,), 1), GroupElement((3,), 1)])
        assert z_x_z2.from_rows(z_x_z2.mul_rows(a, b)) == [GroupElement((5,), 0)]

    def test_shape_mismatch_rejected(self, z2_group, dihedral):
        with pytest.raises(GroupError):
            z2_group._exact_rows([GroupElement((1,)), GroupElement((1, 2))])
        with pytest.raises(GroupError):
            dihedral._exact_rows([GroupElement((1,)), GroupElement((0,), 1)])

    def test_dihedral_matches_oracle(self, dihedral):
        assert_law_matches_oracle(dihedral, dihedral_oracle, np.random.default_rng(3))

    def test_z_x_s3_matches_the_direct_product(self):
        table = FiniteGroupTable.symmetric(3).table

        def direct_product(a, b):
            return GroupElement((a.z[0] + b.z[0],), table[a.f][b.f])

        assert_law_matches_oracle(ProductZFinite(FiniteGroupTable.symmetric(3)),
                                  direct_product, np.random.default_rng(4))

    @pytest.mark.parametrize("family", ["z", "z2", "zxz2", "dihedral"])
    def test_associativity_random(self, family, z_group, z2_group, z_x_z2, dihedral):
        group = {"z": z_group, "z2": z2_group, "zxz2": z_x_z2,
                 "dihedral": dihedral}[family]
        rng = np.random.default_rng(7)
        triples = [[random_element(rng, group) for _ in range(3)] for _ in range(1000)]
        a, b, c = (group._exact_rows(column) for column in zip(*triples))
        assert group.from_rows(group.mul_rows(group.mul_rows(a, b), c)) \
            == group.from_rows(group.mul_rows(a, group.mul_rows(b, c)))


class TestInv:
    def test_z2(self, z2_group):
        a = z2_group.to_rows([GroupElement((4, -3))])
        assert z2_group.from_rows(z2_group.inv_rows(a)) == [GroupElement((-4, 3))]

    def test_dihedral_reflection_oracle(self, dihedral):
        # oracle: solve (m,1)(x,s) = e with the semidirect rule
        reflections = [GroupElement((m,), 1) for m in range(-6, 7)]
        inverses = dihedral.from_rows(dihedral.inv_rows(dihedral.to_rows(reflections)))
        for a, inv in zip(reflections, inverses):
            assert dihedral_oracle(a, inv) == dihedral.identity
            assert inv == a

    def test_product(self, z_x_z2):
        a = z_x_z2.to_rows([GroupElement((1,), 1)])
        assert z_x_z2.from_rows(z_x_z2.inv_rows(a)) == [GroupElement((-1,), 1)]

    def test_foreign_element_rejected(self, z2_group, z_x_z2, dihedral):
        with pytest.raises(GroupError):
            z_x_z2._exact_rows([z_x_z2.identity, GroupElement((1,), 2)])
        with pytest.raises(GroupError):
            z2_group._exact_rows([GroupElement((1,))])
        with pytest.raises(GroupError):
            z_x_z2._exact_rows([GroupElement((1,), 2)])
        with pytest.raises(GroupError):
            dihedral._exact_rows([GroupElement((1,))])

    @pytest.mark.parametrize("family", ["z2", "zxz2", "dihedral"])
    def test_involution(self, family, z2_group, z_x_z2, dihedral):
        group = {"z2": z2_group, "zxz2": z_x_z2, "dihedral": dihedral}[family]
        rng = np.random.default_rng(11)
        elements = [random_element(rng, group) for _ in range(300)]
        a = group._exact_rows(elements)
        assert group.from_rows(group.inv_rows(group.inv_rows(a))) == elements
        assert group.from_rows(group.mul_rows(a, group.inv_rows(a))) == [group.identity] * 300


# coordinates that are not Python ints, on Z, Z^2 and the dihedral group
NOT_INTS = {
    "z_float": ("z", GroupElement((1.5,))),
    "z_whole_float": ("z", GroupElement((1.0,))),
    "z_bool": ("z", GroupElement((True,))),
    "z2_float": ("z2", GroupElement((0, 2.0))),
    "z2_bool": ("z2", GroupElement((False, 1))),
    "z2_numpy_int": ("z2", GroupElement((np.int64(1), 0))),
    "dihedral_float_m": ("dihedral", GroupElement((0.5,), 0)),
    "dihedral_float_f": ("dihedral", GroupElement((1,), 1.0)),
    "dihedral_bool_f": ("dihedral", GroupElement((1,), True)),
}


class TestCheck:
    @pytest.mark.parametrize("case", sorted(NOT_INTS))
    def test_coordinates_must_be_ints(self, case, z_group, z2_group, dihedral):
        name, bad = NOT_INTS[case]
        group = {"z": z_group, "z2": z2_group, "dihedral": dihedral}[name]
        lam_bad, lam_e = AlgebraElement({bad: 1.0}), AlgebraElement.lam(group.identity)
        calls = [lambda: group.check(bad), lambda: conv_mul(group, lam_bad, lam_e),
                 lambda: conv_mul(group, lam_e, lam_bad), lambda: star(group, lam_bad),
                 lambda: group.to_rows([group.identity, bad]),
                 lambda: TableState(group, {bad: 0.3})]
        for call in calls:
            with pytest.raises(GroupError, match="does not belong to"):
                call()

    def test_a_float_key_is_not_read_as_its_integer_part(self, z_group):
        # (1.5,) once became row 1, so its value was read at the element 1
        with pytest.raises(GroupError, match=r"z=\(1\.5,\)"):
            TableState(z_group, {GroupElement((1.5,)): 0.3})


class TestConstruction:
    def test_family_constructors(self):
        assert FreeAbelian(3).family == "free_abelian"
        g = ProductZFinite(FiniteGroupTable.cyclic(1))
        # trivial finite factor behaves like Z
        a, b = g.to_rows([GroupElement((1,), 0), GroupElement((2,), 0)])
        assert g.from_rows(g.mul_rows(a, b)) == [GroupElement((3,), 0)]
        assert len(g.generators) == 2
        assert InfiniteDihedral().shell_bound == 4

    def test_law_ignores_the_generating_set(self):
        assert FreeAbelian(1, [GroupElement((2,)), GroupElement((-2,))]).law \
            == FreeAbelian(1).law == ("free_abelian", 1)
        assert FreeAbelian(1).law != FreeAbelian(2).law
        assert ProductZFinite(FiniteGroupTable.cyclic(2)).law \
            == ProductZFinite(builtin_finite_table("z2")).law
        assert ProductZFinite(FiniteGroupTable.symmetric(3)).law \
            != ProductZFinite(FiniteGroupTable.cyclic(6)).law
        assert ProductZFinite(FiniteGroupTable.cyclic(2)).law != InfiniteDihedral().law

    def test_default_generators_symmetric(self, z2_group, z_x_z2, dihedral):
        for group in (z2_group, z_x_z2, dihedral):
            inverses = group.from_rows(group.inv_rows(group.to_rows(group.generators)))
            assert set(inverses) == set(group.generators)

    def test_generator_override_must_be_symmetric(self):
        with pytest.raises(GroupError, match="symmetric"):
            FreeAbelian(1, [GroupElement((1,))])

    def test_identity_generator_rejected(self, z_x_z2):
        with pytest.raises(GroupError, match="identity"):
            FreeAbelian(1, [GroupElement((0,)), GroupElement((1,)), GroupElement((-1,))])
        with pytest.raises(GroupError, match="identity"):
            ProductZFinite(z_x_z2.finite, [*z_x_z2.generators, z_x_z2.identity])
        with pytest.raises(ConfigError, match="identity"):
            group_from_json({"family": "infinite_dihedral", "generators": [[0, 0], [0, 1]]})

    def test_generator_coordinates_are_bounded(self):
        # ball rows are int64: a generator of 2^62 would wrap at radius 2
        with pytest.raises(GroupError, match="2\\^31"):
            FreeAbelian(1, [GroupElement((2 ** 62,)), GroupElement((-2 ** 62,))])
        with pytest.raises(ConfigError, match="2\\^31"):
            group_from_json({"family": "infinite_dihedral",
                             "generators": [[2 ** 31 + 1, 0], [-2 ** 31 - 1, 0], [0, 1]]})
        FreeAbelian(1, [GroupElement((2 ** 31,)), GroupElement((-2 ** 31,))])
        # only the negative coordinate is out of range, and it is not the first
        with pytest.raises(GroupError, match=r"z=\(0, -2147483649\), f=None\) has a coordinate"):
            FreeAbelian(2, [GroupElement((0, -2 ** 31 - 1)), GroupElement((0, 2 ** 31 + 1))])

    @pytest.mark.parametrize("bad", [[1, True, 0], [0, 0, 1.0], [0, "1", 0], [0, None, 0]],
                             ids=["bool", "float", "string", "null"])
    def test_generator_coordinates_are_integers(self, bad):
        # the fault sits in the middle of the second generator of Z^3
        gens = [[1, 0, 0], bad, [-1, 0, 0], [0, -1, 0], [0, 0, -1]]
        with pytest.raises(ConfigError, match=f"element {re.escape(repr(bad))} is not a list"):
            group_from_json({"family": "free_abelian", "rank": 3, "generators": gens})

    def test_rank_over_the_cap_rejected(self, monkeypatch):
        with pytest.raises(ResourceError, match="rank 1025 is over the cap of 1024"):
            FreeAbelian(1025)
        monkeypatch.setattr("qmetric.groups._MAX_RANK", 3)
        assert FreeAbelian(3).rank == 3
        with pytest.raises(ResourceError, match="cap of 3"):
            FreeAbelian(4)

    def test_generator_override(self):
        gens = [GroupElement((2,)), GroupElement((-2,))]
        group = FreeAbelian(1, gens)
        assert group.generators == tuple(gens)


class TestJson:
    def test_round_trip_families(self):
        g = group_from_json({"family": "free_abelian", "rank": 2})
        assert isinstance(g, FreeAbelian) and g.rank == 2
        g = group_from_json({"family": "product_z_finite",
                             "finite": {"name": "s3"}})
        assert isinstance(g, ProductZFinite) and g.finite.order == 6
        g = group_from_json({"family": "product_z_finite",
                             "finite": {"order": 2, "table": [[0, 1], [1, 0]]}})
        assert g.finite.order == 2
        assert isinstance(group_from_json({"family": "infinite_dihedral"}),
                          InfiniteDihedral)

    def test_generators_override_via_json(self):
        g = group_from_json({"family": "free_abelian", "rank": 1,
                             "generators": [[2], [-2]]})
        assert g.generators == (GroupElement((2,)), GroupElement((-2,)))

    def test_generators_build_the_group_once(self, monkeypatch):
        calls = []
        init = FreeAbelian.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FreeAbelian, "__init__", counting_init)
        g = group_from_json({"family": "free_abelian", "rank": 2,
                             "generators": [[1, 0], [-1, 0], [0, 1], [0, -1]]})
        assert len(calls) == 1
        assert g._default_generators

    @pytest.mark.parametrize("spec,message", [
        ({"family": "free_abelian", "rank": 1, "generators": [[1], [-1], [1, 1]]},
         "does not belong to free_abelian(rank=1)"),
        ({"family": "product_z_finite", "finite": {"name": "z2"},
          "generators": [[1, 0], [-1, 0], [0, 2]]},
         "does not belong to product_z_finite (|F|=2)"),
        ({"family": "infinite_dihedral", "generators": [[0, 1], [1, 3]]},
         "does not belong to infinite_dihedral (|F|=2)"),
        # the first fault of the first faulty generator, before a later foreign one
        ({"family": "free_abelian", "rank": 1, "generators": [[2], [-2], [0], [1, 1]]},
         "generating set contains the identity"),
        ({"family": "product_z_finite", "finite": {"name": "s3"},
          "generators": [[1, 0], [-1, 0], [1, 3], [-1, 3], [0, 4], [0, 6]]},
         "missing inverse of GroupElement(z=(1,), f=3)"),
        ({"family": "infinite_dihedral", "generators": [[0, 1], [1, 0], [2, 7]]},
         "missing inverse of GroupElement(z=(1,), f=0)"),
        ({"family": "free_abelian", "rank": 2,
          "generators": [[1, 0], [-1, 0], [0, 2 ** 31 + 1], [0, -2 ** 31 - 1], [1]]},
         "generator GroupElement(z=(0, 2147483649), f=None) has a coordinate beyond +-2^31"),
    ], ids=["z", "zxz2", "dihedral", "identity", "zxs3-inverse", "dihedral-inverse",
            "coordinate"])
    def test_foreign_generator_is_a_config_error(self, spec, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            group_from_json(spec)

    def test_bad_specs(self):
        with pytest.raises(ConfigError):
            group_from_json({"family": "free_product"})
        with pytest.raises(ConfigError):
            group_from_json({"family": "free_abelian", "rank": 0})
        with pytest.raises(ConfigError):
            group_from_json({"family": "product_z_finite", "finite": {}})
        with pytest.raises(ConfigError):
            group_from_json("not valid json {")

    def test_element_codec(self, z2_group, z_x_z2):
        assert decode_element(z2_group, [1, -2]) == GroupElement((1, -2))
        assert decode_element(z_x_z2, [3, 1]) == GroupElement((3,), 1)
        with pytest.raises(ConfigError):
            decode_element(z_x_z2, [3, 7])
