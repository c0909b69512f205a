"""Split an element into phi * (Hardy function) plus kernel functions at the
boundary roots, and reassemble it.

A Splitting holds the bands L, Lhat and the boundary kernel columns at one
truncation N.  reconstruct builds the coefficient prefix of
phi*g + sum_j b_j K(., z_j); decompose recovers (g, b) from that prefix
alone.  The kernel loadings are identified through the non-decaying
oscillatory modes they leave in the Hardy-quotient coefficients: the
quotient encoding q = Lhat^-1 L alpha, with sum alpha_n f_n = phi * q as
formal series.
"""

import numpy as np

from bandkern import BoundaryConfig, Splitting, WeightSequence, beta_coefficients

rng = np.random.default_rng(42)
cfg = BoundaryConfig.from_angles(["0", "1/3", "2/3"])   # phi(z) = 1 - z^3
weights = WeightSequence.harmonic(1.0, 2.0)
N = 512
split = Splitting(cfg, weights, N)

g_true = rng.standard_normal(9) + 1j * rng.standard_normal(9)
g_true /= np.linalg.norm(g_true)
b_true = np.array([0.4, -0.25 + 0.1j, 0.05j])

alpha, _ = split.reconstruct(g_true, b_true)
print(f"built a prefix of {N} basis coefficients from deg-8 g and 3 loadings")

dec = split.decompose(alpha)
print()
print("recovered loadings vs truth:")
for j in range(3):
    print(f"  b_{j+1}: {dec.b[j]:+.12f}   (true {b_true[j]:+.12f})")
print()
print("max quotient-coefficient error:",
      float(np.max(np.abs(dec.g[:9] - g_true))))
print("max spurious quotient tail:   ",
      float(np.max(np.abs(dec.g[9:]))))
print("taylor-coefficient residual:  ", dec.residual)
print("tail-mode misfit:             ", dec.tail_misfit)

# the quotient encoding on the bands: Lhat quotient = L alpha, the Taylor
# coefficients of sum alpha_n f_n, which phi * quotient must reproduce
taylor = split.L.matvec(alpha)
quotient = split.Lhat.solve(taylor)
mismatch = np.convolve(beta_coefficients(cfg), quotient)[:N] - taylor
print()
print("max |phi * quotient - Taylor coefficients|:",
      float(np.max(np.abs(mismatch))))
print(f"Gram matrix of the 3 kernel partial sums: condition number "
      f"{split.gram_cond:.6g}")
