"""Multiplication by z as a matrix in the basis, and polynomial membership.

The matrix has ones on the first subdiagonal and rapidly decaying entries
below; its truncated norms plateau, so z multiplies the space into itself
and, starting from the expansion of the constant 1, every polynomial lives
in the space.
"""

import numpy as np

from bandkern import (
    BoundaryConfig,
    WeightSequence,
    constant_expansion,
    mz_norm_report,
    polynomial_membership,
)
from bandkern.multiplier import constant_sup_error

cfg = BoundaryConfig.from_angles(["0"])
weights = WeightSequence.harmonic(1.0, 2.0)

rep = mz_norm_report(cfg, weights, [256, 512, 1024, 2048])
print("truncated multiplication-matrix norms:")
for full, bare in zip(rep.full_norms, rep.shifted_norms):
    print(f"  N={full.truncation:5d}: {full.value:.8f}  "
          f"(without the unit subdiagonal: {bare.value:.6f})")
print("verdict:", rep.verdict)

print()
exp = constant_expansion(2048, cfg, weights)
print("expansion of 1: coefficients c_j = 1/(j+1) for these weights")
print("  first few:", np.round(exp.coeffs[:6].real, 6))
print("  sup |sum c_n f_n - 1| on |z| <= 0.9:",
      constant_sup_error(exp.coeffs, cfg, weights))

print()
# polynomials as ascending coefficient arrays
for coeffs, name in [([1.0], "1"), ([0, 1], "z"), ([1, -1], "phi")]:
    mem = polynomial_membership(coeffs, 1024, cfg, weights)
    print(f"membership of {name:4s}: running l2 norm "
          f"{mem.partial_norms[-1]:.6f}, verdict {mem.verdict}")
