"""Trace-bounded states, their l2 densities, and kappa certificates.

A state phi with phi <= kappa * trace has a density rho with
phi(a) = trace(rho a).  The constant kappa is bracketed from above by the
squared l1 norm of the density coefficients and from below by the squared
truncated operator norm.  These states also make d_2 finite with the
explicit cap d_2 <= 2 * kappa.  Their positivity is certified on the whole
group from the Fourier symbol of the coefficients.
"""

from qmetric import (AlgebraElement, DensityState, GroupElement, TableState, TraceState,
                     conv_mul, d_2, enumerate_ball, kappa_bounds, pd_check, star, trace_coeff)
from qmetric.groups import FreeAbelian

z = FreeAbelian(1)
ball = enumerate_ball(z, 100)

print("rho from b = lam_0 + lam_1: density (2 lam_0 + lam_1 + lam_-1)/2")
b = AlgebraElement({GroupElement((0,)): 1.0, GroupElement((1,)): 1.0})
phi = DensityState(z, b)
bb = conv_mul(z, star(z, b), b)
rho = bb.scaled(1.0 / trace_coeff(z, bb).real)
ms = (-2, -1, 0, 1, 2)
# phi(lam_m) read from the coefficients over the ball, at the rows of m
values = phi.coeff_array(ball)[ball.find_rows(z.to_rows([GroupElement((m,)) for m in ms]))]
for m, value in zip(ms, values):
    lam = AlgebraElement.lam(GroupElement((m,)))
    print(f"  phi(lam_{m:+d}) = {value.real:+.4f}"
          f" = trace(rho lam_{m:+d}) = {trace_coeff(z, conv_mul(z, rho, lam)).real:+.4f}")

kb = kappa_bounds(phi, ball)
print(f"\nkappa bracket: [{kb.kappa_lower:.6f}, {kb.kappa_upper:.6f}]")
print("  (the operator norm of rho is exactly 2, so kappa = 4)")

bracket = d_2(phi, TraceState(z), ball)
print(f"d_2(phi, trace) = [{bracket.lo:.6f}, {bracket.hi:.6f}]"
      f"  <= 2 kappa = {2 * kb.kappa_upper:.1f}")
print(f"  lower endpoint is exactly 1/sqrt(2) = {2 ** -0.5:.6f}")

print("\npositivity on all of Z: the symbol sum_k phi(lam_k) e^{ik theta} = 1 + cos(theta)\n"
      "is bounded below on the whole circle, to a slack of 1e-8 (it touches 0 at pi)")
result = pd_check(phi, ball)
print(f"  certified minimum >= {result.min_eigenvalue:.3e}, largest value on the grid "
      f"{result.max_eigenvalue:.3f}, passed = {result.passed}")
bad = TableState(z, {GroupElement((k,)): v for k, v in
                     ((1, 0.5), (-1, 0.5), (2, -0.001), (-2, -0.001))})
result = pd_check(bad, ball)
print(f"  phi(lam_+-1) = 0.5, phi(lam_+-2) = -0.001: symbol {result.min_eigenvalue:+.4f} "
      f"at a point, passed = {result.passed}")

print("\nsharper densities b_n = lam_0 + lam_1 / n converge to the trace")
for n in (1, 2, 5, 10, 50):
    phi_n = DensityState(z, AlgebraElement({GroupElement((0,)): 1.0,
                                            GroupElement((1,)): 1.0 / n}))
    bracket = d_2(phi_n, TraceState(z), ball)
    print(f"  n = {n:2d}: d_2 hi = {bracket.hi:.6f}")
