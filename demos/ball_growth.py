"""Word-length balls and growth across the three group families.

Enumerates Cayley-graph balls, prints shell sizes, fits the linear growth
model, and shows the square-summability evidence that separates the
linear-growth groups (where d_2 is finite) from Z^2 (where it diverges).
"""

import numpy as np

from qmetric import (FiniteGroupTable, FreeAbelian, InfiniteDihedral,
                     ProductZFinite, enumerate_ball, growth_fit,
                     square_sum_evidence)

groups = [
    ("Z", FreeAbelian(1)),
    ("Z^2", FreeAbelian(2)),
    ("Z x Z2", ProductZFinite(FiniteGroupTable.cyclic(2))),
    ("Z x S3", ProductZFinite(FiniteGroupTable.symmetric(3))),
    ("infinite dihedral", InfiniteDihedral()),
]

for name, group in groups:
    ball = enumerate_ball(group, 20)
    fit = growth_fit(ball)
    partial, tail = square_sum_evidence(ball)
    print(f"== {name}")
    print(f"   shell sizes (k = 0..8): {ball.shell_sizes[:9].tolist()}")
    print(f"   ball size at radius 20: {len(ball)}")
    print(f"   linear fit #ball(c) ~ {fit.fit_k:.3f} c + {fit.fit_l:.3f}, "
          f"residual {fit.residual:.3e}")
    if group.shell_bound is not None:
        print(f"   analytic shell bound: {group.shell_bound} "
              f"(sum 1/L^2 <= {partial:.4f} + {tail:.4f})")
    else:
        print(f"   no shell bound; partial sum 1/L^2 = {partial:.4f} "
              "keeps growing (divergent)")

# For Z the square sum has a closed form: 2 * zeta(2) = pi^2 / 3.
partial, tail = square_sum_evidence(enumerate_ball(FreeAbelian(1), 2000))
print(f"\nZ at radius 2000: partial = {partial:.6f}, "
      f"pi^2/3 = {np.pi ** 2 / 3:.6f}, certified tail <= {tail:.6f}")
