"""The combinatorial identities behind the boundary machinery.

With w_1..w_J the conjugate roots and mu_j = prod_{k != j} (w_j - w_k):
power sums weighted by 1/mu_j collapse to complete homogeneous sums, the
coefficients of phi annihilate shifted homogeneous sums, and the boundary
polynomials Q_n satisfy a finite recursion and vanish at 1.
"""

import numpy as np

from bandkern import (
    BoundaryConfig,
    beta_coefficients,
    homogeneous_symmetric,
    louck_power_sum,
    mu_weights,
    q_coefficients,
)

cfg = BoundaryConfig.from_angles(["0", "1/4", "1/3", "3/5"])
J = cfg.J
beta = beta_coefficients(cfg)
w = cfg.conjugates

print("mu weights:", np.round(mu_weights(cfg), 6))
print()
print("weighted power sums against homogeneous sums (they agree):")
for m in range(0, 2 * J + 1):
    lhs = louck_power_sum(m, cfg)
    rhs = homogeneous_symmetric(m - J + 1, w)
    print(f"  m={m}: |difference| = {abs(lhs - rhs):.2e}")

print()
print("shifted homogeneous sums against phi coefficients (they vanish):")
for m in range(1, 2 * J + 1):
    s = sum(beta[i] * homogeneous_symmetric(m - i, w)
            for i in range(min(m, J) + 1))
    print(f"  m={m}: |sum| = {abs(s):.2e}")

print()
print("boundary polynomials vanish at 1 (their coefficients sum to 0):")
ns = (-3, 0, 2, 7)
for n, row in zip(ns, q_coefficients(ns, cfg)):
    print(f"  |Q_{n}(1)| = {abs(row.sum()):.2e}")
