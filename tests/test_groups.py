import itertools
import re

import numpy as np
import pytest

from qmetric.errors import ConfigError, GroupError, ResourceError
from qmetric.groups import (FiniteGroupTable, FreeAbelian, GroupElement,
                            InfiniteDihedral, ProductZFinite,
                            builtin_finite_table, decode_element,
                            encode_element, group_from_json, word_eval)

from conftest import random_element, z26_not_associative


def dihedral_oracle(a, b):
    # direct evaluation of the semidirect rule (m,s)(m',s') = (m+(-1)^s m', s xor s')
    m, s = a.z[0], a.f
    mp, sp = b.z[0], b.f
    return GroupElement((m + (mp if s == 0 else -mp),), s ^ sp)


def assert_law_matches_oracle(group, oracle, rng):
    """mul and inv on elements up to +-2^80, mul_rows and inv_rows on rows up to +-2^61."""
    order = group.finite.order
    for bound in (5, 2 ** 61, 2 ** 80):
        pairs = [[GroupElement((int.from_bytes(rng.bytes(11), "little", signed=True)
                                % (2 * bound + 1) - bound,), int(rng.integers(order)))
                  for _ in range(2)] for _ in range(300)]
        for a, b in pairs:
            assert group.mul(a, b) == oracle(a, b)
            assert oracle(a, group.inv(a)) == oracle(group.inv(a), a) == group.identity
        if bound > 2 ** 61:
            continue
        a, b = (group.to_rows(column) for column in zip(*pairs))
        assert group.from_rows(group.mul_rows(a, b)) == [oracle(x, y) for x, y in pairs]
        assert group.from_rows(group.inv_rows(a)) == [group.inv(x) for x, _ in pairs]


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


class TestMul:
    def test_z2_componentwise(self, z2_group):
        a = GroupElement((1, 2))
        b = GroupElement((3, -5))
        assert z2_group.mul(a, b) == GroupElement((4, -3))

    def test_dihedral_examples(self, dihedral):
        assert dihedral.mul(GroupElement((2,), 0), GroupElement((3,), 1)) \
            == GroupElement((5,), 1)
        assert dihedral.mul(GroupElement((2,), 1), GroupElement((3,), 0)) \
            == GroupElement((-1,), 1)

    def test_dihedral_involution(self, dihedral):
        flip = GroupElement((0,), 1)
        assert dihedral.mul(flip, flip) == dihedral.identity

    def test_product_direct(self, z_x_z2):
        assert z_x_z2.mul(GroupElement((2,), 1), GroupElement((3,), 1)) \
            == GroupElement((5,), 0)

    def test_shape_mismatch_rejected(self, z2_group, dihedral):
        with pytest.raises(GroupError):
            z2_group.mul(GroupElement((1,)), GroupElement((1, 2)))
        with pytest.raises(GroupError):
            dihedral.mul(GroupElement((1,)), GroupElement((0,), 1))

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
        for _ in range(1000):
            a, b, c = (random_element(rng, group) for _ in range(3))
            assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))


class TestInv:
    def test_z2(self, z2_group):
        assert z2_group.inv(GroupElement((4, -3))) == GroupElement((-4, 3))

    def test_dihedral_reflection_oracle(self, dihedral):
        # oracle: solve (m,1)(x,s) = e with the semidirect rule
        for m in range(-6, 7):
            a = GroupElement((m,), 1)
            inv = dihedral.inv(a)
            assert dihedral_oracle(a, inv) == dihedral.identity
            assert inv == a

    def test_product(self, z_x_z2):
        assert z_x_z2.inv(GroupElement((1,), 1)) == GroupElement((-1,), 1)

    def test_foreign_element_rejected(self, z2_group, z_x_z2, dihedral):
        with pytest.raises(GroupError):
            z_x_z2.mul(z_x_z2.identity, GroupElement((1,), 2))
        with pytest.raises(GroupError):
            z2_group.inv(GroupElement((1,)))
        with pytest.raises(GroupError):
            z_x_z2.inv(GroupElement((1,), 2))
        with pytest.raises(GroupError):
            dihedral.inv(GroupElement((1,)))

    @pytest.mark.parametrize("family", ["z2", "zxz2", "dihedral"])
    def test_involution(self, family, z2_group, z_x_z2, dihedral):
        group = {"z2": z2_group, "zxz2": z_x_z2, "dihedral": dihedral}[family]
        rng = np.random.default_rng(11)
        for _ in range(300):
            a = random_element(rng, group)
            assert group.inv(group.inv(a)) == a
            assert group.mul(a, group.inv(a)) == group.identity


class TestWordEval:
    def test_z_cancellation(self, z_group):
        # generators are [+1, -1]
        assert word_eval(z_group, [0, 0, 1]) == GroupElement((1,))

    def test_empty_word(self, dihedral):
        assert word_eval(dihedral, []) == dihedral.identity

    def test_dihedral_word_matches_fold(self, dihedral):
        rng = np.random.default_rng(13)
        for _ in range(200):
            word = list(rng.integers(0, len(dihedral.generators),
                                     size=rng.integers(0, 9)))
            expected = dihedral.identity
            for idx in word:
                expected = dihedral_oracle(expected, dihedral.generators[idx])
            assert word_eval(dihedral, word) == expected

    def test_index_out_of_range(self, z_group):
        with pytest.raises(GroupError, match="out of range"):
            word_eval(z_group, [5])

    def test_canonicality(self, z2_group):
        # two different words with the same abelianized content agree exactly
        assert word_eval(z2_group, [0, 2, 0]) == word_eval(z2_group, [0, 0, 2])


class TestConstruction:
    def test_family_constructors(self):
        assert FreeAbelian(3).family == "free_abelian"
        g = ProductZFinite(FiniteGroupTable.cyclic(1))
        # trivial finite factor behaves like Z
        assert g.mul(GroupElement((1,), 0), GroupElement((2,), 0)) \
            == GroupElement((3,), 0)
        assert len(g.generators) == 2
        assert InfiniteDihedral().shell_bound == 4

    def test_default_generators_symmetric(self, z2_group, z_x_z2, dihedral):
        for group in (z2_group, z_x_z2, dihedral):
            gens = set(group.generators)
            assert all(group.inv(g) in gens for g in gens)

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
        el = decode_element(z2_group, [1, -2])
        assert el == GroupElement((1, -2))
        assert encode_element(z2_group, el) == [1, -2]
        el = decode_element(z_x_z2, [3, 1])
        assert el == GroupElement((3,), 1)
        assert encode_element(z_x_z2, el) == [3, 1]
        with pytest.raises(ConfigError):
            decode_element(z_x_z2, [3, 7])
