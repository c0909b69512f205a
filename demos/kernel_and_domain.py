"""Evaluate the reproducing kernel with certified truncation error and probe
the natural domain of the space.

The space has orthonormal basis f_n(z) = z^n * phi(a_n z).  Inside the unit
disk the kernel series converges geometrically; on the boundary it converges
only at the roots of phi, and only when sum |1 - a_n|^2 is finite.
"""

import numpy as np

from bandkern import BoundaryConfig, WeightSequence, domain_report, kernel_eval

# phi(z) = 1 - z, a_n = (n+1)/(n+2)
cfg = BoundaryConfig.from_angles(["0"])
weights = WeightSequence.harmonic(1.0, 2.0)

print("kernel values, each with a certified bound on the discarded tail:")
for z, w in [(0.0, 0.0), (0.5, 0.25), (1.0, 0.5), (1.0, 1.0)]:
    kv = kernel_eval(z, w, cfg, weights, tol=1e-10)
    how = (f"closed form over {kv.rho_order} residue class(es)"
           if kv.route == "closed_form" else f"{kv.truncation_n} terms")
    print(f"  K({z}, {w}) = {kv.value:.12f}   "
          f"(tail <= {kv.tail_bound:.1e}, {how})")

print()
print("K(1,1) has the closed form pi^2/6 - 1 =", np.pi ** 2 / 6 - 1)

print()
print("natural domain diagnostics (partial sums of sum |f_n(z)|^2):")
for z in [0.5, 1.0, 1j]:
    rep = domain_report(z, cfg, weights)
    print(f"  z = {z}: verdict {rep.verdict:12s} "
          f"(last partial sum {rep.partial_sums[-1]:.6g})")
