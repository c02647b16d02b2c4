"""Trace-bounded states, their l2 densities, and kappa certificates.

A state phi with phi <= kappa * trace has a density rho with
phi(a) = trace(rho a).  The constant kappa is bracketed from above by the
squared l1 norm of the density coefficients and from below by the squared
truncated operator norm.  These states also make d_2 finite with the
explicit cap d_2 <= 2 * kappa.
"""

from qmetric import (AlgebraElement, DensityState, GroupElement, TraceState,
                     d_2, enumerate_ball, kappa_bounds, pd_check)
from qmetric.groups import FreeAbelian

z = FreeAbelian(1)
ball = enumerate_ball(z, 100)

print("rho from b = lam_0 + lam_1: density (2 lam_0 + lam_1 + lam_-1)/2")
phi = DensityState(z, AlgebraElement({GroupElement((0,)): 1.0,
                                      GroupElement((1,)): 1.0}))
for m in (-2, -1, 0, 1, 2):
    print(f"  phi(lam_{m:+d}) = {phi.coeff(GroupElement((m,))).real:+.4f}")

kb = kappa_bounds(phi, ball)
print(f"\nkappa bracket: [{kb.kappa_lower:.6f}, {kb.kappa_upper:.6f}]")
print("  (the operator norm of rho is exactly 2, so kappa = 4)")

bracket = d_2(phi, TraceState(z), ball)
print(f"d_2(phi, trace) = [{bracket.lo:.6f}, {bracket.hi:.6f}]"
      f"  <= 2 kappa = {2 * kb.kappa_upper:.1f}")
print(f"  lower endpoint is exactly 1/sqrt(2) = {2 ** -0.5:.6f}")

print("\nfloating-point positivity check (Hermitian to tol, then eigvalsh) of the\n"
      "Gram matrix on a small ball; a check of one truncation, not a proof")
small = enumerate_ball(z, 8)
result = pd_check(phi, small)
print(f"  eigenvalue range [{result.min_eigenvalue:.3e}, "
      f"{result.max_eigenvalue:.3f}], passed = {result.passed}")

print("\nsharper densities b_n = lam_0 + lam_1 / n converge to the trace")
for n in (1, 2, 5, 10, 50):
    phi_n = DensityState(z, AlgebraElement({GroupElement((0,)): 1.0,
                                            GroupElement((1,)): 1.0 / n}))
    bracket = d_2(phi_n, TraceState(z), ball)
    print(f"  n = {n:2d}: d_2 hi = {bracket.hi:.6f}")
