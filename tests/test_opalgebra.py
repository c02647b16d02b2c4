import numpy as np
import pytest

from qmetric.errors import BallRadiusError, GroupError
from qmetric.groups import GroupElement
from qmetric.opalgebra import (AlgebraElement, commutator_matrix,
                               commutator_norm_upper_l1, conv_mul,
                               lemma2_lower, norm_lower, op_matrix, star,
                               trace_coeff)
from qmetric.wordlength import enumerate_ball


def dense_op_oracle(a, ball):
    """Dense construction of the compressed convolution operator, entry by entry."""
    group = ball.group
    n = len(ball)
    M = np.zeros((n, n), dtype=complex)
    for j, h in enumerate(ball.elements):
        for g, ag in a.coeffs.items():
            try:
                M[ball.index(group.mul(g, h)), j] += ag
            except BallRadiusError:
                pass
    return M


def dense_commutator_oracle(a, ball):
    """[D, a] = D M - M D with D = diag(L), computed with dense matrices."""
    M = dense_op_oracle(a, ball)
    D = np.diag(ball.lengths.astype(float))
    return D @ M - M @ D


class TestAlgebraElement:
    def test_zero_coeffs_dropped(self):
        a = AlgebraElement({GroupElement((0,)): 0.0, GroupElement((1,)): 2.0})
        assert a.support == [GroupElement((1,))]

    def test_add(self):
        a = AlgebraElement.lam(GroupElement((1,)), 1.0)
        b = AlgebraElement.lam(GroupElement((1,)), -1.0) \
            + AlgebraElement.lam(GroupElement((2,)), 3.0)
        assert (a + b) == AlgebraElement.lam(GroupElement((2,)), 3.0)

    def test_scaled(self):
        a = AlgebraElement.lam(GroupElement((1,)), 2.0).scaled(1j)
        assert a.coeffs[GroupElement((1,))] == 2j


class TestConvolution:
    def test_z_matches_polynomial_product(self, z_group):
        # convolution on Z is Laurent polynomial multiplication
        rng = np.random.default_rng(5)
        for _ in range(50):
            ca = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            cb = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            a = AlgebraElement({GroupElement((k - 2,)): ca[k] for k in range(4)})
            b = AlgebraElement({GroupElement((k - 1,)): cb[k] for k in range(3)})
            prod = conv_mul(z_group, a, b)
            poly = np.convolve(ca, cb)
            for k in range(6):
                assert prod.coeffs.get(GroupElement((k - 3,)), 0.0) \
                    == pytest.approx(poly[k])

    def test_dihedral_noncommutative(self, dihedral):
        a = AlgebraElement.lam(GroupElement((1,), 0))
        b = AlgebraElement.lam(GroupElement((0,), 1))
        assert conv_mul(dihedral, a, b) != conv_mul(dihedral, b, a)

    def test_star_involution_and_antihomomorphism(self, dihedral):
        a = AlgebraElement({GroupElement((1,), 0): 1 + 2j,
                            GroupElement((0,), 1): -1j})
        b = AlgebraElement({GroupElement((2,), 1): 0.5})
        assert star(dihedral, star(dihedral, a)) == a
        assert star(dihedral, conv_mul(dihedral, a, b)) \
            == conv_mul(dihedral, star(dihedral, b), star(dihedral, a))

    def test_trace_coeff(self, z_group):
        a = AlgebraElement({GroupElement((0,)): 2.5, GroupElement((1,)): 1.0})
        assert trace_coeff(z_group, a) == 2.5
        b = AlgebraElement.lam(GroupElement((1,)))
        # tau(b* b) = |coeffs|^2
        assert trace_coeff(z_group, conv_mul(z_group, star(z_group, b), b)) == 1.0


class TestTruncatedOperators:
    @pytest.mark.parametrize("family", ["z", "z2", "zxz2", "dihedral"])
    def test_op_matrix_matches_dense_oracle(self, family, z_group, z2_group,
                                            z_x_z2, dihedral):
        group = {"z": z_group, "z2": z2_group, "zxz2": z_x_z2,
                 "dihedral": dihedral}[family]
        ball = enumerate_ball(group, 4)
        rng = np.random.default_rng(17)
        support = [ball.elements[i]
                   for i in rng.choice(len(ball), size=4, replace=False)]
        a = AlgebraElement({g: complex(rng.standard_normal(),
                                       rng.standard_normal()) for g in support})
        got = op_matrix(a, ball).matrix.toarray()
        assert np.allclose(got, dense_op_oracle(a, ball))

    @pytest.mark.parametrize("family", ["z", "zxz2", "dihedral"])
    def test_commutator_matches_dense_oracle(self, family, z_group, z_x_z2,
                                             dihedral):
        group = {"z": z_group, "zxz2": z_x_z2, "dihedral": dihedral}[family]
        ball = enumerate_ball(group, 5)
        rng = np.random.default_rng(19)
        support = [ball.elements[i]
                   for i in rng.choice(len(ball), size=3, replace=False)]
        a = AlgebraElement({g: complex(rng.standard_normal(),
                                       rng.standard_normal()) for g in support})
        got = commutator_matrix(a, ball).matrix.toarray()
        assert np.allclose(got, dense_commutator_oracle(a, ball))

    def test_foreign_element_rejected(self, z_group, dihedral):
        ball = enumerate_ball(z_group, 3)
        foreign = AlgebraElement({GroupElement((1,)): 1.0, GroupElement((0,), 1): 0.5})
        for build in (op_matrix, commutator_matrix):
            with pytest.raises(GroupError):
                build(foreign, ball)

    def test_support_beyond_int64_is_skipped(self, z_group, dihedral):
        # lam_g for such a g maps no ball element into the ball
        for group, far in ((z_group, GroupElement((10 ** 20,))),
                           (dihedral, GroupElement((-2 ** 63 - 1,), 1))):
            ball = enumerate_ball(group, 4)
            near = {group.generators[0]: 0.5 + 0.5j}
            a = AlgebraElement({**near, far: 2.0})
            for build in (op_matrix, commutator_matrix):
                got = build(a, ball).matrix
                assert (got != build(AlgebraElement(near), ball).matrix).nnz == 0
            assert op_matrix(AlgebraElement.lam(far), ball).matrix.nnz == 0

    def test_commutator_with_identity_is_zero(self, z_group):
        ball = enumerate_ball(z_group, 5)
        T = commutator_matrix(AlgebraElement.lam(z_group.identity), ball)
        assert T.matrix.nnz == 0

    def test_coo_text_round_trip(self, z_group):
        ball = enumerate_ball(z_group, 2)
        T = commutator_matrix(AlgebraElement.lam(GroupElement((1,)), 1j), ball)
        rebuilt = np.zeros((len(ball), len(ball)), dtype=complex)
        for line in T.to_coo_text().splitlines():
            i, j, re, im = line.split()
            rebuilt[int(i), int(j)] = float(re) + 1j * float(im)
        assert np.allclose(rebuilt, T.matrix.toarray())


class TestNorms:
    def test_matches_numpy_svd(self, z_x_z2):
        ball = enumerate_ball(z_x_z2, 6)
        rng = np.random.default_rng(23)
        support = [ball.elements[i]
                   for i in rng.choice(len(ball), size=5, replace=False)]
        a = AlgebraElement({g: complex(rng.standard_normal(),
                                       rng.standard_normal()) for g in support})
        T = commutator_matrix(a, ball)
        est = norm_lower(T, tol=1e-12)
        exact = np.linalg.norm(T.matrix.toarray(), 2)
        assert est.converged
        assert est.value == pytest.approx(exact, abs=1e-8)
        assert est.value <= exact + 1e-12

    def test_generator_commutator_norm_reaches_length(self, z_group):
        # ||[D, lam_g]|| = L(g); the truncation approaches it from below
        g = GroupElement((3,))
        ball = enumerate_ball(z_group, 60)
        T = commutator_matrix(AlgebraElement.lam(g), ball)
        est = norm_lower(T, tol=1e-12)
        assert est.value <= 3.0 + 1e-12
        assert est.value == pytest.approx(3.0, abs=1e-6)

    def test_monotone_in_radius(self, dihedral):
        a = AlgebraElement({GroupElement((1,), 0): 1.0, GroupElement((0,), 1): 1.0})
        values = [norm_lower(commutator_matrix(a, enumerate_ball(dihedral, r)),
                             tol=1e-12).value
                  for r in (4, 8, 16, 32)]
        assert all(values[i] <= values[i + 1] + 1e-12 for i in range(3))

    def test_zero_operator(self, z_group):
        ball = enumerate_ball(z_group, 3)
        est = norm_lower(commutator_matrix(AlgebraElement({}), ball))
        assert est.value == 0.0 and est.converged

    def test_bad_tol(self, z_group):
        ball = enumerate_ball(z_group, 2)
        T = op_matrix(AlgebraElement.lam(GroupElement((1,))), ball)
        with pytest.raises(ValueError):
            norm_lower(T, tol=0.0)


class TestCertifiedBounds:
    def test_bracket_orders_truncated_norm(self, z_group):
        # lemma bound <= truncated norm <= l1 bound for lam_1 + lam_2
        a = AlgebraElement({GroupElement((1,)): 1.0, GroupElement((2,)): 1.0})
        ball = enumerate_ball(z_group, 50)
        lower = lemma2_lower(a, ball)
        upper = commutator_norm_upper_l1(a, ball)
        sigma = norm_lower(commutator_matrix(a, ball), tol=1e-12).value
        assert lower == pytest.approx(np.sqrt(5.0), abs=1e-12)
        assert upper == pytest.approx(3.0, abs=1e-12)
        assert lower <= sigma + 1e-9 <= upper + 1e-9

    def test_singleton_bounds_coincide(self, dihedral):
        a = AlgebraElement.lam(GroupElement((2,), 1), 0.5)
        ball = enumerate_ball(dihedral, 6)
        assert lemma2_lower(a, ball) == pytest.approx(1.5)
        assert commutator_norm_upper_l1(a, ball) == pytest.approx(1.5)
