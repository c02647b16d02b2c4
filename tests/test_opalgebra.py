import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import reference_mul

import qmetric
from qmetric import opalgebra
from qmetric.errors import BallRadiusError, GroupError
from qmetric.states import DensityState, kappa_bounds
from qmetric.groups import (FiniteGroupTable, FreeAbelian, GroupElement,
                            InfiniteDihedral, ProductZFinite)
from qmetric.opalgebra import (_DENSE_CUTOFF, _LANCZOS_BASIS, _WARM_MIN, AlgebraElement,
                               TruncatedOperator, _top_singular,
                               commutator_matrix,
                               commutator_triplets,
                               commutator_norm_upper_l1, conv_mul,
                               lemma2_lower, norm_lower, op_matrix, star,
                               trace_coeff)
from qmetric.wordlength import enumerate_ball


def dense_op_oracle(a, ball):
    """Dense construction of the compressed convolution operator, entry by entry."""
    group = ball.group
    n = len(ball)
    position = {g: i for i, g in enumerate(ball.elements)}
    M = np.zeros((n, n), dtype=complex)
    for j, h in enumerate(ball.elements):
        for g, ag in a.coeffs.items():
            k = reference_mul(group, g, h)
            if k in position:
                M[position[k], j] += ag
    return M


def dense_commutator_oracle(a, ball):
    """[D, a] = D M - M D with D = diag(L), computed with dense matrices."""
    M = dense_op_oracle(a, ball)
    D = np.diag(ball.lengths.astype(float))
    return D @ M - M @ D


class TestAlgebraElement:
    def test_zero_coeffs_dropped(self):
        a = AlgebraElement({GroupElement((0,)): 0.0, GroupElement((1,)): 2.0})
        assert list(a.coeffs) == [GroupElement((1,))]

    def test_scaled(self):
        a = AlgebraElement({GroupElement((1,)): 2.0}).scaled(1j)
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
        assert conv_mul(dihedral, a, b).coeffs != conv_mul(dihedral, b, a).coeffs

    def test_star_involution_and_antihomomorphism(self, dihedral):
        a = AlgebraElement({GroupElement((1,), 0): 1 + 2j,
                            GroupElement((0,), 1): -1j})
        b = AlgebraElement({GroupElement((2,), 1): 0.5})
        assert star(dihedral, star(dihedral, a)).coeffs == a.coeffs
        assert star(dihedral, conv_mul(dihedral, a, b)).coeffs \
            == conv_mul(dihedral, star(dihedral, b), star(dihedral, a)).coeffs

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

    @pytest.mark.parametrize("family", ["z2", "zxz2", "dihedral"])
    def test_triplets_reproduce_each_commutator(self, family, z2_group, z_x_z2, dihedral):
        group = {"z2": z2_group, "zxz2": z_x_z2, "dihedral": dihedral}[family]
        ball = enumerate_ball(group, 6)
        # an element beyond int64 rows sits among the support and gets no triplets
        far = GroupElement((2 ** 70,) + (0,) * (len(group.identity.z) - 1), group.identity.f)
        support = [far, *enumerate_ball(group, 2).elements, far]
        rows, cols, index, diff = commutator_triplets(group.to_rows(support), ball)
        n = len(ball)
        for i, g in enumerate(support):
            mine = index == i
            got = sp.csr_matrix((diff[mine].astype(complex), (rows[mine], cols[mine])),
                                shape=(n, n))
            want = commutator_matrix(AlgebraElement.lam(g), ball).matrix
            assert (got != want).nnz == 0

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_entries(self, z_group, bad):
        ball = enumerate_ball(z_group, 2)
        T = op_matrix(AlgebraElement.lam(GroupElement((1,))), ball)
        T.matrix.data[0] = bad
        with pytest.raises(ValueError):
            norm_lower(T)

    def test_dense_path_reports_its_residual(self, z_x_z2):
        ball = enumerate_ball(z_x_z2, 6)
        a = AlgebraElement({GroupElement((1,), 1): 1.0, GroupElement((-2,), 0): 0.5j})
        est = norm_lower(commutator_matrix(a, ball), tol=1e-12)
        assert len(ball) <= _DENSE_CUTOFF
        assert est.converged and est.iterations == 0
        assert 0.0 <= est.residual <= 1e-12 * est.value ** 2


def _random_element(rng, ball, max_support=8):
    size = int(rng.integers(1, max_support + 1))
    idx = rng.choice(np.arange(1, len(ball)), size=size, replace=False)
    return AlgebraElement({ball.elements[int(i)]: rng.uniform(0.05, 1.0)
                           * np.exp(2j * np.pi * rng.uniform()) for i in idx})


Z_X_S3 = ProductZFinite(FiniteGroupTable.symmetric(3))

# groups and radii whose balls have more than _DENSE_CUTOFF and at most 1500
# elements: the Lanczos path, from just above the cutoff (113, 113, 114 and 112)
LANCZOS_BALLS = [(FreeAbelian(1), 56), (FreeAbelian(2), 7), (Z_X_S3, 9),
                 (InfiniteDihedral(), 28),
                 (FreeAbelian(2), 17), (FreeAbelian(2), 26), (Z_X_S3, 50),
                 (Z_X_S3, 120), (InfiniteDihedral(), 151), (InfiniteDihedral(), 370)]


class TestSpectralSolver:
    """The solver above the dense cutoff against LAPACK and closed forms."""

    def test_eigh_sees_only_the_projected_matrix_above_the_cutoff(self, dihedral,
                                                                  monkeypatch):
        ball = enumerate_ball(dihedral, 40)
        assert len(ball) > _DENSE_CUTOFF
        rng = np.random.default_rng(23)
        T = commutator_matrix(_random_element(rng, enumerate_ball(dihedral, 4)), ball)
        shapes = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        def refuse(self, *args, **kwargs):
            raise AssertionError("a sparse operator bound for Lanczos was densified")

        monkeypatch.setattr(np.linalg, "eigh", spy)
        for cls in (sp.csr_matrix, sp.coo_matrix):
            monkeypatch.setattr(cls, "toarray", refuse)
        norm_lower(T)
        norm_lower(TruncatedOperator(T.matrix.tocoo()))
        _top_singular(T.matrix.tocoo(), 1e-9, start=np.ones(len(ball)))
        assert shapes
        assert all(shape[0] == shape[1] <= _LANCZOS_BASIS + 1 for shape in shapes)

    def test_csr_and_coo_input_are_bit_identical(self, z2_group):
        # the COO copy lists its entries in triplet order (by g, then by h), as
        # the heuristic builds it, not row by row as the CSR matrix stores them
        ball = enumerate_ball(z2_group, 20)
        rng = np.random.default_rng(29)
        a = _random_element(rng, enumerate_ball(z2_group, 4))
        M = commutator_matrix(a, ball).matrix
        rows, cols, index, diff = commutator_triplets(z2_group.to_rows(a.coeffs), ball)
        alphas = np.array(list(a.coeffs.values()))
        coo = sp.coo_matrix((alphas[index] * diff, (rows, cols)), shape=M.shape)
        sigma, _, v, converged, applications = _top_singular(M, 1e-12)
        sigma_coo, _, v_coo, converged_coo, applications_coo = _top_singular(coo, 1e-12)
        assert sigma == sigma_coo
        assert np.array_equal(v, v_coo)
        assert (converged, applications) == (converged_coo, applications_coo)
        assert applications > _LANCZOS_BASIS

    @pytest.mark.parametrize("group,radius", LANCZOS_BALLS,
                             ids=[f"{type(g).__name__}-r{r}" for g, r in LANCZOS_BALLS])
    def test_lanczos_matches_lapack_svd(self, group, radius):
        ball = enumerate_ball(group, radius)
        assert _DENSE_CUTOFF < len(ball) <= 1500
        rng = np.random.default_rng(radius)
        support = enumerate_ball(group, 4)
        a = _random_element(rng, support)
        T = commutator_matrix(a, ball)
        est = norm_lower(T, tol=1e-12)
        exact = float(np.linalg.norm(T.matrix.toarray(), 2))
        assert est.converged
        assert est.iterations > 0
        assert abs(est.value - exact) <= 1e-12 * exact
        # converged: the Ritz residual bound met 1e-12 theta; the recomputed
        # residual may exceed it by rounding only
        assert est.residual <= 2e-12 * exact ** 2
        # from COO input, and warm from the top vector of a nearby operator,
        # as the heuristic's ascent passes it
        step = _random_element(rng, support).scaled(1e-2)
        b = AlgebraElement({g: a.coeffs.get(g, 0.0) + step.coeffs.get(g, 0.0)
                            for g in {**a.coeffs, **step.coeffs}})
        _, _, v0, _, _ = _top_singular(commutator_matrix(b, ball).matrix, 1e-12)
        for matrix, start in ((T.matrix.tocoo(), None), (T.matrix, v0), (T.matrix.tocoo(), v0)):
            sigma, _, _, converged, iterations = _top_singular(matrix, 1e-12, start)
            assert converged and iterations > 0
            assert abs(sigma - exact) <= 1e-12 * exact

    def test_near_degenerate_dihedral_commutator(self):
        # the top pair of M^H M is split by 1.9e-6 relative: one of the slowest
        # commutators for a restarted Lanczos iteration
        ball = enumerate_ball(InfiniteDihedral(), 300)
        assert len(ball) == 1200
        a = AlgebraElement({
            GroupElement((-1,), 1): -0.5155306326790123 - 0.7092745585811214j,
            GroupElement((-1,), 0): 0.6176283000741665 + 0.30659595328459655j,
            GroupElement((-4,), 0): 0.5433183617864255 - 0.6929862307320092j})
        T = commutator_matrix(a, ball)
        est = norm_lower(T, tol=1e-12)
        exact = float(np.linalg.norm(T.matrix.toarray(), 2))
        assert est.converged
        assert abs(est.value - exact) <= 1e-12 * exact
        assert est.residual <= 2e-12 * exact ** 2

    def test_near_degenerate_dihedral_kappa(self):
        # the convolution operator of this density needs thousands of
        # applications of M^H M at the default tolerance
        ball = enumerate_ball(InfiniteDihedral(), 300)
        b = AlgebraElement({
            GroupElement((2,), 0): -0.01198199730249736 + 0.17961091421553885j,
            GroupElement((0,), 1): -0.05505017341003221 - 0.03616196505164676j,
            GroupElement((1,), 1): -0.04162229949038131 + 0.042762536529936564j})
        state = DensityState(InfiniteDihedral(), b)
        exact = float(np.linalg.norm(op_matrix(state.rho, ball).matrix.toarray(), 2))
        assert abs(kappa_bounds(state, ball).kappa_lower - exact ** 2) <= 1e-9 * exact ** 2

    def test_single_unitary_closes_the_krylov_space(self):
        # M^H M of one lam_g is diagonal with a few distinct values: the
        # Lanczos recurrence breaks down and its Ritz values are then exact
        ball = enumerate_ball(Z_X_S3, 200)
        for g in (GroupElement((3,), 2), GroupElement((0,), 4), GroupElement((-7,), 0)):
            length = int(ball.lengths[ball.find_rows(Z_X_S3.to_rows([g]))[0]])
            est = norm_lower(commutator_matrix(AlgebraElement.lam(g), ball), tol=1e-12)
            assert est.converged
            assert est.iterations < _LANCZOS_BASIS
            assert abs(est.value - length) <= 1e-12 * length

    def test_iteration_cap_is_flagged_and_stays_below(self, z2_group, monkeypatch):
        ball = enumerate_ball(z2_group, 20)
        rng = np.random.default_rng(11)
        T = commutator_matrix(_random_element(rng, enumerate_ball(z2_group, 4)), ball)
        exact = float(np.linalg.norm(T.matrix.toarray(), 2))
        monkeypatch.setattr(opalgebra, "_MAX_APPLICATIONS", 2)
        est = norm_lower(T, tol=1e-12)
        assert len(ball) > _DENSE_CUTOFF
        assert not est.converged and est.iterations == 2
        assert est.value <= exact * (1 + 1e-12)

    def test_repeated_calls_are_bit_identical(self, z2_group):
        ball = enumerate_ball(z2_group, 20)
        rng = np.random.default_rng(17)
        T = commutator_matrix(_random_element(rng, enumerate_ball(z2_group, 4)), ball)
        first, second = norm_lower(T, tol=1e-12), norm_lower(T, tol=1e-12)
        assert first.value == second.value
        assert first.iterations == second.iterations

    def test_warm_start_reaches_the_lapack_value(self, z_group, z2_group):
        # the heuristic's ascent passes the previous top vector as the start
        rng = np.random.default_rng(19)
        ball = enumerate_ball(z2_group, 6)
        a = _random_element(rng, enumerate_ball(z2_group, 2))
        step = _random_element(rng, enumerate_ball(z2_group, 2)).scaled(1e-2)
        b = AlgebraElement({g: a.coeffs.get(g, 0.0) + step.coeffs.get(g, 0.0)
                            for g in {**a.coeffs, **step.coeffs}})
        _, _, v0, _, _ = _top_singular(commutator_matrix(a, ball).matrix, 1e-12)
        M = commutator_matrix(b, ball).matrix
        exact = float(np.linalg.norm(M.toarray(), 2))
        sigma, _, _, converged, iterations = _top_singular(M, 1e-12, start=v0)
        assert _WARM_MIN <= len(ball) <= _DENSE_CUTOFF
        assert converged and iterations > 0
        assert abs(sigma - exact) <= 1e-12 * exact
        # below _WARM_MIN columns, and for a zero start, LAPACK solves it
        c = _random_element(rng, enumerate_ball(z_group, 2), max_support=4)
        small = commutator_matrix(c, enumerate_ball(z_group, 20)).matrix
        assert small.shape[1] < _WARM_MIN
        assert _top_singular(small, 1e-12, start=np.ones(small.shape[1]))[4] == 0
        assert _top_singular(M, 1e-12, start=np.zeros(M.shape[1]))[4] == 0

    def test_solver_path_imports_no_scipy_solver(self, tmp_path):
        # scipy.sparse.linalg, scipy.optimize and scipy.linalg would add 9, 26
        # and 7 MB of resident memory to every run that computes a norm, a
        # ball, a positivity check or a bracket
        config = tmp_path / "dist.json"
        config.write_text(json.dumps({
            "group": {"family": "product_z_finite", "finite": {"name": "s3"}},
            "state_a": {"kind": "trace"},
            "state_b": {"kind": "density", "b": [{"element": [0, 1], "re": 1.0},
                                                 {"element": [1, 0], "re": 0.5}]},
            "radius": 40, "mode": "bracket"}))
        script = f"""
import sys
from qmetric import (AlgebraElement, CharacterState, DensityState, FiniteGroupTable,
                     FreeAbelian, GroupElement, InfiniteDihedral, ProductZFinite, TableState,
                     TraceState, commutator_matrix, connes_heuristic, enumerate_ball,
                     kappa_bounds, norm_lower, pd_check)
from qmetric.cli import main
from qmetric.opalgebra import _DENSE_CUTOFF, TruncatedOperator
group = FreeAbelian(2)
ball = enumerate_ball(group, 20)
assert len(ball) > _DENSE_CUTOFF
a = AlgebraElement({{GroupElement((1, 0)): 1.0, GroupElement((2, -1)): 0.5j}})
T = commutator_matrix(a, ball)
assert norm_lower(T).iterations > 0
assert norm_lower(TruncatedOperator(T.matrix.tocoo())).iterations > 0
# the ascent solves warm from 81 columns, the drift radius cold from 161
z = FreeAbelian(1)
connes_heuristic(TraceState(z), CharacterState(z, [-1.0]), z, 2, 40)
kappa_bounds(DensityState(group, a), ball)
assert pd_check(DensityState(group, a), enumerate_ball(group, 8)).passed
# the block symbols of Z x S3 and the dihedral group
zxs3 = ProductZFinite(FiniteGroupTable.symmetric(3))
table = {{GroupElement((1,), 1): 0.25, GroupElement((-1,), 1): 0.25, GroupElement((0,), 3): 0.4j,
          GroupElement((0,), 4): -0.4j}}
assert pd_check(TableState(zxs3, table), enumerate_ball(zxs3, 2)).passed
d = InfiniteDihedral()
b = AlgebraElement({{GroupElement((0,), 0): 1.0, GroupElement((2,), 1): 0.5j}})
assert pd_check(DensityState(d, b), enumerate_ball(d, 3)).passed
assert main(["dist", "--config", {str(config)!r}, "--out", {str(tmp_path / "out.csv")!r}]) == 0
print(sorted(name for name in sys.modules
             if name.startswith(("scipy.sparse.linalg", "scipy.optimize", "scipy.linalg"))))
"""
        src = str(Path(qmetric.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "[]"


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
        a = AlgebraElement({GroupElement((2,), 1): 0.5})
        ball = enumerate_ball(dihedral, 6)
        assert lemma2_lower(a, ball) == pytest.approx(1.5)
        assert commutator_norm_upper_l1(a, ball) == pytest.approx(1.5)

    def test_bounds_sum_in_support_order(self, z_x_z2):
        # one ball lookup for the whole support; the sums run in its order, in Python floats
        ball = enumerate_ball(z_x_z2, 6)
        length = dict(zip(ball.elements, ball.lengths.tolist()))
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = _random_element(rng, enumerate_ball(z_x_z2, 4))
            assert commutator_norm_upper_l1(a, ball) == float(
                sum(abs(v) * length[g] for g, v in a.coeffs.items()))
            assert lemma2_lower(a, ball) == float(
                np.sqrt(sum((abs(v) * length[g]) ** 2 for g, v in a.coeffs.items())))
        far = AlgebraElement({**a.coeffs, GroupElement((7,), 1): 1.0, GroupElement((9,), 0): 1.0})
        for bound in (lemma2_lower, commutator_norm_upper_l1):
            with pytest.raises(BallRadiusError, match=r"z=\(7,\), f=1\) lies outside the "
                               r"enumerated ball; requires radius >= 7$"):
                bound(far, ball)
