import itertools
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from bandkern import BoundaryConfig, WeightSequence, beta_coefficients


@pytest.fixture
def cfg_one():
    """Single root at 1: phi(z) = 1 - z."""
    return BoundaryConfig.from_angles(["0"])


@pytest.fixture
def cfg_pm1():
    """Roots +-1: phi(z) = 1 - z^2."""
    return BoundaryConfig.from_angles(["0", "1/2"])


@pytest.fixture
def cfg_cube():
    """Cube roots of unity: phi(z) = 1 - z^3."""
    return BoundaryConfig.from_angles(["0", "1/3", "2/3"])


@pytest.fixture
def harm1():
    """a_n = (n+1)/(n+2)."""
    return WeightSequence.harmonic(1.0, 2.0)


@pytest.fixture
def pow2():
    """a_n = 1 - 1/(n+2)^2."""
    return WeightSequence.power_law(2.0)


def random_rational_config(rng, J_max=6, den=24):
    """Random distinct rational-angle configuration with J <= J_max."""
    J = int(rng.integers(1, J_max + 1))
    while True:
        nums = rng.choice(den, size=J, replace=False)
        qs = [Fraction(int(n), den) for n in nums]
        if len(set(qs)) == J:
            return BoundaryConfig.from_angles(qs)


def dense_basis_matrix(N, cfg, weights=None):
    """L[n+k, n] = beta_k a_n^k written entry by entry, without BasisBand;
    weights None gives Lhat (every a_n = 1)."""
    beta = beta_coefficients(cfg)
    a = (np.ones(N) if weights is None
         else np.asarray(weights.prefix(N), dtype=complex))
    L = np.zeros((N, N), dtype=complex)
    for n in range(N):
        for k in range(min(cfg.J, N - 1 - n) + 1):
            L[n + k, n] = beta[k] * a[n] ** k
    return L


def triangular_solve_oracle(N, cfg, weights):
    """C = L^-1 Lhat by a dense triangular solve of Lhat = L C, both
    matrices written entry by entry: independent of BasisBand, so a band bug
    cannot hide in both routes at once."""
    return solve_triangular(dense_basis_matrix(N, cfg, weights),
                            dense_basis_matrix(N, cfg), lower=True,
                            unit_diagonal=True)


def h_bruteforce(k, points):
    """Complete homogeneous symmetric sum by monomial enumeration."""
    if k < 0:
        return 0.0 + 0j
    if k == 0:
        return 1.0 + 0j
    total = 0.0 + 0j
    for combo in itertools.combinations_with_replacement(points, k):
        total += np.prod(np.asarray(combo, dtype=complex))
    return total


def e_bruteforce(k, points):
    """Elementary symmetric sum by subset enumeration."""
    if k == 0:
        return 1.0 + 0j
    total = 0.0 + 0j
    for combo in itertools.combinations(points, k):
        total += np.prod(np.asarray(combo, dtype=complex))
    return total


def column_norms_loop(L, Lhat):
    """Column norms of C = L^-1 Lhat and their cancellation factor by the
    sequential backward Gram-window recursion, one index at a time on Python
    lists: the oracle of ``recursion._column_norms``.

    With v_b = L^-1 e_b the window G[i][j] = <v_{b+i}, v_{b+j}> steps from
    b + 1 to b in O(J^2) work and is kept exactly Hermitian;
    ||C_N e_b||^2 = sum_{m,m'} conj(beta_m) beta_m' G[m][m'].
    """
    J, inner = L.J, range(1, L.J + 1)
    band = L.ab.T.tolist()             # band[b] = [1, L[b+1, b], ..., L[b+J, b]]
    beta = Lhat.ab[:, 0].tolist()
    # the form over the upper triangle of the Hermitian window, off-diagonal
    # terms counted twice
    upper = [(i, j, (1 if i == j else 2) * beta[i].conjugate() * beta[j])
             for i in range(J + 1) for j in range(i, J + 1)]
    G = [[0.0] * (J + 1) for _ in range(J + 1)]   # v_b = 0 for b >= N
    sq, cancellation = [0.0] * L.N, 0.0
    for b in range(L.N - 1, -1, -1):
        lb = band[b]
        row = [0.0] * (J + 1)
        for k in inner:
            s = 0.0
            for m in inner:
                s -= lb[m].conjugate() * G[m - 1][k - 1]
            row[k] = s
        d = 1.0
        for m in inner:
            d -= lb[m] * row[m]
        row[0] = d.real
        G = [row] + [[row[i].conjugate()] + G[i - 1][:J] for i in inner]
        terms = [w * G[i][j] for i, j, w in upper]
        sq[b] = sum(terms).real
        cancellation = max(cancellation, sum(map(abs, terms)) / sq[b])
    return np.sqrt(sq), cancellation
