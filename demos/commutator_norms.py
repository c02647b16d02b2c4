"""Dirac commutators and certified norm bounds.

The Dirac operator multiplies the basis vector at g by the word length L(g).
For a single unitary lam_g the commutator norm is exactly L(g); truncation
to a finite ball recovers it from below.  For general elements the norm is
squeezed between an l2-type lower bound and the l1 upper bound.
"""

from qmetric import (AlgebraElement, GroupElement, InfiniteDihedral,
                     commutator_matrix, commutator_norm_upper_l1,
                     enumerate_ball, lemma2_lower, norm_lower)
from qmetric.groups import FreeAbelian

z = FreeAbelian(1)

print("single unitaries on Z: truncated norm vs exact value L(g)")
for m in (1, 2, 5):
    g = GroupElement((m,))
    for radius in (2 * m, 4 * m, 8 * m + 5):
        ball = enumerate_ball(z, radius)
        est = norm_lower(commutator_matrix(AlgebraElement.lam(g), ball),
                         tol=1e-12)
        print(f"  L(g)={m}, radius {radius:3d}: sigma = {est.value:.12f} "
              f"(LAPACK, residual {est.residual:.1e})")

print("\nbeyond 110 ball elements: thick-restart Lanczos on M^H M, lam_(1,2) on Z^2")
z2 = FreeAbelian(2)
g = GroupElement((1, 2))
for radius in (20, 30):
    ball = enumerate_ball(z2, radius)
    est = norm_lower(commutator_matrix(AlgebraElement.lam(g), ball), tol=1e-12)
    print(f"  radius {radius}, {len(ball)} elements: sigma = {est.value:.12f} "
          f"({est.iterations} operator applications, residual {est.residual:.1e}, "
          f"converged={est.converged})")

print("\na near-degenerate top pair: three terms on the dihedral ball of radius 300")
d = InfiniteDihedral()
a = AlgebraElement({
    GroupElement((-1,), 1): -0.5155306326790123 - 0.7092745585811214j,
    GroupElement((-1,), 0): 0.6176283000741665 + 0.30659595328459655j,
    GroupElement((-4,), 0): 0.5433183617864255 - 0.6929862307320092j})
ball = enumerate_ball(d, 300)
est = norm_lower(commutator_matrix(a, ball), tol=1e-12)
print(f"  {len(ball)} elements: sigma = {est.value:.12f} "
      f"({est.iterations} operator applications, residual {est.residual:.1e}, "
      f"converged={est.converged})")

print("\na = lam_1 + lam_2 on Z: certified bracket around the true norm")
a = AlgebraElement({GroupElement((1,)): 1.0, GroupElement((2,)): 1.0})
ball = enumerate_ball(z, 50)
lo = lemma2_lower(a, ball)
hi = commutator_norm_upper_l1(a, ball)
sigma = norm_lower(commutator_matrix(a, ball), tol=1e-12)
print(f"  lower (sum |a_g|^2 L^2)^0.5 = {lo:.6f}  (= sqrt(5))")
print(f"  truncated norm at r=50      = {sigma.value:.6f}")
print(f"  upper sum |a_g| L           = {hi:.6f}")

print("\nnon-abelian case: a = lam_t + lam_s on the infinite dihedral group")
a = AlgebraElement({GroupElement((1,), 0): 1.0, GroupElement((0,), 1): 1.0})
for radius in (8, 16, 32):
    ball = enumerate_ball(d, radius)
    sigma = norm_lower(commutator_matrix(a, ball), tol=1e-12)
    print(f"  radius {radius:2d}: sigma = {sigma.value:.8f}  "
          f"(lower {lemma2_lower(a, ball):.4f}, "
          f"upper {commutator_norm_upper_l1(a, ball):.4f})")
