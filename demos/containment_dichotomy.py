"""Boundedness diagnostics for the triangular re-expansion matrix.

Whether phi * H^2 embeds in the space is governed by the decay rate
p = lim n (1 - a_n): the embedding matrix is bounded when p > 1/2 and the
norms of its truncations keep growing when the weights converge too fast
(p = 0) or too slowly (p < 1/2).  The verdict reads p back as p_hat from the
dyadic decay of column 0 of the matrix, the basis coefficients of phi.
"""

from bandkern import BoundaryConfig, WeightSequence, containment_report

cfg = BoundaryConfig.from_angles(["0", "1/2"])     # phi(z) = 1 - z^2
N_list = [256, 512, 1024, 2048]

cases = [
    ("harmonic p=2.00", WeightSequence.harmonic(2.0, 2.0)),
    ("harmonic p=1.00", WeightSequence.harmonic(1.0, 2.0)),
    ("harmonic p=0.75", WeightSequence.harmonic(0.75, 2.0)),
    ("harmonic p=0.25", WeightSequence.harmonic(0.25, 2.0)),
    ("powerlaw p=2.00", WeightSequence.power_law(2.0)),
]

print(f"{'weights':18s} {'norms at ' + str(N_list):44s} verdict (p_hat)")
for label, weights in cases:
    rep = containment_report(cfg, weights, N_list)
    norms = " ".join(f"{e.value:8.4f}" for e in rep.norm_estimates)
    p_hat = " ".join(f"{p:.4f}" for p in rep.p_hat)
    print(f"{label:18s} {norms:44s} {rep.verdict} ({p_hat})")

print()
print("the dichotomy threshold sits at decay rate 1/2")
