import itertools
from fractions import Fraction

import numpy as np
import pytest

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
