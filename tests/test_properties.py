"""Property-based checks of the algebraic invariants."""

from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as P
from hypothesis import given, settings, strategies as st

from bandkern import (
    BoundaryConfig,
    WeightSequence,
    beta_coefficients,
    h2_coeffs,
    homogeneous_symmetric,
    kernel_eval,
    louck_power_sum,
    q_coefficients,
    taylor_to_basis,
)

angle_sets = st.integers(1, 6).flatmap(
    lambda J: st.lists(st.integers(0, 23), min_size=J, max_size=J, unique=True))


def cfg_from_nums(nums):
    return BoundaryConfig.from_angles([Fraction(n, 24) for n in nums])


weight_seqs = st.one_of(
    st.floats(0.3, 2.5).map(lambda p: WeightSequence.harmonic(p, 2.0)),
    st.floats(0.6, 2.5).map(WeightSequence.power_law),
)


@given(angle_sets, st.integers(0, 18))
def test_louck_power_sums_are_homogeneous_sums(nums, m):
    cfg = cfg_from_nums(nums)
    lhs = louck_power_sum(m, cfg)
    rhs = homogeneous_symmetric(m - cfg.J + 1, cfg.conjugates)
    assert abs(lhs - rhs) <= 1e-9


@given(angle_sets, st.integers(1, 18))
def test_phi_annihilates_shifted_homogeneous_sums(nums, m):
    cfg = cfg_from_nums(nums)
    beta = beta_coefficients(cfg)
    s = sum(beta[i] * homogeneous_symmetric(m - i, cfg.conjugates)
            for i in range(min(m, cfg.J) + 1))
    assert abs(s) <= 1e-9


@given(angle_sets, st.integers(-6, 12),
       st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False))
def test_q_polynomials_vanish_at_one_and_stay_small(nums, n, x):
    cfg = cfg_from_nums(nums)
    q = q_coefficients([n], cfg)[0]
    assert abs(P.polyval(1.0, q)) <= 1e-10
    # coefficient-sum bound
    assert abs(P.polyval(x, q)) <= 3.0 ** cfg.J * (cfg.J + 1) * 4


@settings(max_examples=25, deadline=None)
@given(angle_sets, weight_seqs, st.integers(0, 2 ** 31 - 1))
def test_coefficient_map_roundtrips(nums, weights, seed):
    cfg = cfg_from_nums(nums)
    rng = np.random.default_rng(seed)
    alpha = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    taylor = h2_coeffs(alpha, cfg, weights)
    back = taylor_to_basis(taylor, cfg, weights)
    assert np.max(np.abs(back - alpha)) <= 1e-9 * max(1.0, np.max(np.abs(alpha)))


@settings(max_examples=20, deadline=None)
@given(st.complex_numbers(max_magnitude=0.85, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=0.85, allow_nan=False, allow_infinity=False),
       weight_seqs)
def test_kernel_hermitian_inside_disk(z, w, weights):
    cfg = BoundaryConfig.from_angles(["0", "1/3", "2/3"])
    kzw = kernel_eval(z, w, cfg, weights, 1e-10)
    kwz = kernel_eval(w, z, cfg, weights, 1e-10)
    assert abs(kzw.value - np.conj(kwz.value)) <= (
        kzw.tail_bound + kwz.tail_bound + 1e-11)
