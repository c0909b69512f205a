import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bandkern import (
    BoundaryConfig,
    ConfigurationError,
    Poly,
    WeightSequence,
    beta_coefficients,
    homogeneous_symmetric,
    louck_power_sum,
    mu_weights,
    phi_from_roots,
)
from bandkern.core import root_powers

from conftest import e_bruteforce, h_bruteforce, random_rational_config


# --- boundary configurations ------------------------------------------------

def test_config_roots_on_circle(cfg_cube):
    for z, w in zip(cfg_cube.roots, cfg_cube.conjugates):
        assert abs(abs(z) - 1) <= 1e-12
        assert abs(w * z - 1) <= 1e-12


def test_config_rejects_duplicates():
    with pytest.raises(ConfigurationError):
        BoundaryConfig.from_angles(["1/3", "1/3"])
    with pytest.raises(ConfigurationError):
        BoundaryConfig.from_points([0.5 + 0.1j])


def test_config_constructor_rejects_nan_root():
    with pytest.raises(ConfigurationError):
        BoundaryConfig((float("nan"),))
    with pytest.raises(ConfigurationError):
        BoundaryConfig((1.0, complex(0.0, float("nan"))))


def test_from_points_rejects_nan_root():
    with pytest.raises(ConfigurationError):
        BoundaryConfig.from_points([complex(float("nan"), 0.0)])
    with pytest.raises(ConfigurationError):
        BoundaryConfig.from_points([1.0, float("nan")])


def test_root_powers_match_direct():
    cfg = BoundaryConfig.from_angles(["1/3", "5/7"])
    m = np.array([-5, -1, 0, 1, 7, 100])
    for j in range(2):
        assert_allclose(root_powers(cfg, j, m), cfg.roots[j] ** m, atol=1e-12)


# --- phi --------------------------------------------------------------------

def test_phi_pm1(cfg_pm1):
    assert_allclose(phi_from_roots(cfg_pm1).coeffs, [1, 0, -1], atol=1e-15)


def test_phi_single(cfg_one):
    assert_allclose(phi_from_roots(cfg_one).coeffs, [1, -1], atol=1e-15)


def test_phi_cube_roots(cfg_cube):
    assert_allclose(phi_from_roots(cfg_cube).coeffs, [1, 0, 0, -1], atol=1e-15)


def test_phi_matches_product_pointwise():
    rng = np.random.default_rng(5)
    for _ in range(10):
        cfg = random_rational_config(rng, J_max=5)
        phi = phi_from_roots(cfg)
        assert phi.degree == cfg.J
        assert phi.coeffs[0] == 1.0
        for _ in range(5):
            x = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            direct = np.prod([1 - w * x for w in cfg.conjugates])
            assert abs(phi(x) - direct) <= 1e-12


def test_phi_vanishes_at_roots():
    rng = np.random.default_rng(6)
    for _ in range(10):
        cfg = random_rational_config(rng)
        phi = phi_from_roots(cfg)
        for z in cfg.roots:
            assert abs(phi(z)) <= 1e-10


def test_beta_equals_signed_elementary():
    rng = np.random.default_rng(7)
    for _ in range(10):
        cfg = random_rational_config(rng, J_max=6)
        beta = beta_coefficients(cfg)
        for k in range(cfg.J + 1):
            expect = (-1) ** k * e_bruteforce(k, cfg.conjugates)
            assert abs(beta[k] - expect) <= 1e-9


# --- polynomial evaluation ---------------------------------------------------

def test_eval_poly_examples(cfg_pm1):
    phi = phi_from_roots(cfg_pm1)
    assert abs(phi(1.0)) <= 1e-15
    assert abs(phi(0.0) - 1.0) <= 1e-15
    assert abs(phi(0.5) - 0.75) <= 1e-15


def test_poly_arithmetic():
    p = Poly([1, 2, 3])
    q = Poly([0, 1])
    assert (p * q).degree == 3
    assert_allclose((p * q).coeffs, [0, 1, 2, 3])
    assert_allclose((p + q).coeffs, [1, 3, 3])
    assert_allclose(p.derivative().coeffs, [2, 6])
    assert_allclose(p.scale_argument(2.0).coeffs, [1, 4, 12])
    assert Poly([0.0]).degree == -1


# --- symmetric functions -----------------------------------------------------

def test_homogeneous_examples():
    assert homogeneous_symmetric(-1, [1.0, 2.0]) == 0
    assert abs(homogeneous_symmetric(1, [1.0, -1.0])) <= 1e-15
    assert abs(homogeneous_symmetric(2, [1.0, -1.0]) - 1.0) <= 1e-15
    assert homogeneous_symmetric(0, [3.0]) == 1


def test_homogeneous_against_bruteforce():
    rng = np.random.default_rng(8)
    for _ in range(8):
        J = int(rng.integers(1, 5))
        pts = rng.uniform(-1, 1, J) + 1j * rng.uniform(-1, 1, J)
        for k in range(0, 7):
            got = homogeneous_symmetric(k, pts)
            want = h_bruteforce(k, pts)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_mu_weights_examples(cfg_one, cfg_pm1, cfg_cube):
    assert_allclose(mu_weights(cfg_one), [1.0])
    assert_allclose(mu_weights(cfg_pm1), [2.0, -2.0])
    assert_allclose(np.abs(mu_weights(cfg_cube)), [3.0, 3.0, 3.0])


def test_louck_examples(cfg_one, cfg_pm1):
    assert abs(louck_power_sum(2, cfg_pm1) - 0.0) <= 1e-15
    assert abs(louck_power_sum(3, cfg_pm1) - 1.0) <= 1e-15
    assert abs(louck_power_sum(0, cfg_one) - 1.0) <= 1e-15


def test_louck_identity_random_configs():
    rng = np.random.default_rng(9)
    for _ in range(25):
        cfg = random_rational_config(rng, J_max=6)
        for m in range(0, 3 * cfg.J + 1):
            lhs = louck_power_sum(m, cfg)
            rhs = homogeneous_symmetric(m - cfg.J + 1, cfg.conjugates)
            assert abs(lhs - rhs) <= 1e-9


def test_homogeneous_sum_identity_random_configs():
    rng = np.random.default_rng(10)
    for _ in range(25):
        cfg = random_rational_config(rng, J_max=6)
        beta = beta_coefficients(cfg)
        for m in range(1, 3 * cfg.J + 1):
            s = sum(beta[i] * homogeneous_symmetric(m - i, cfg.conjugates)
                    for i in range(0, min(m, cfg.J) + 1))
            assert abs(s) <= 1e-9


# --- weight sequences ----------------------------------------------------------

def test_harmonic_weights(harm1):
    assert harm1.a(0) == 0.5
    assert harm1.a(2) == 0.75
    assert harm1.one_minus_a(98) == pytest.approx(0.01)
    assert harm1.rate_hypothesis
    assert harm1.square_summable


def test_powerlaw_weights(pow2):
    assert pow2.a(0) == 0.75
    assert pow2.a(1) == pytest.approx(8.0 / 9.0)
    assert not pow2.rate_hypothesis
    assert WeightSequence.power_law(1.0).rate_hypothesis
    assert not WeightSequence.power_law(0.4).square_summable


def test_table_weights_need_tail():
    with pytest.raises(ConfigurationError):
        WeightSequence("table", 1.0, values=(0.5, 0.9), tail=None)
    tab = WeightSequence.from_table([0.5, 0.9, 0.95],
                                    WeightSequence.harmonic(1.0, 2.0))
    assert tab.a(1) == 0.9
    assert tab.a(10) == pytest.approx(1 - 1.0 / 12.0)
    assert tab.rate_hypothesis


def test_table_rejects_value_one():
    with pytest.raises(ConfigurationError):
        WeightSequence.from_table([0.5, 1.0], WeightSequence.harmonic(1.0))


def test_table_weights_keep_real_values_real():
    harmonic = WeightSequence.harmonic(1.0, 2.0)
    real = WeightSequence.from_table(harmonic.prefix(10), harmonic)
    n = np.arange(20)
    for out in (real.a(n), real.one_minus_a(n), real.prefix(20)):
        assert out.dtype == np.float64
    assert isinstance(real.a(3), float)
    assert real.a(3) == harmonic.a(3)
    cplx = WeightSequence.from_table([0.5 + 0.1j, 0.7], harmonic)
    for out in (cplx.a(n), cplx.one_minus_a(n), cplx.prefix(20)):
        assert out.dtype == np.complex128
    assert isinstance(cplx.a(0), complex)


def test_invalid_rates():
    with pytest.raises(ConfigurationError):
        WeightSequence.harmonic(0.0)
    with pytest.raises(ConfigurationError):
        WeightSequence.power_law(-1.0)


def test_weights_converge_to_one():
    for w in (WeightSequence.harmonic(2.0, 1.0), WeightSequence.power_law(0.7)):
        n = np.arange(10, 100000, 7919)
        gaps = np.abs(np.asarray(w.one_minus_a(n)))
        assert np.all(np.diff(gaps) < 0)
        assert gaps[-1] < 1e-3


def test_residue_power_sums_match_brute_force():
    # S[m, r] = sum_{k>=0} (1 - a_{N + d k + r})^s_m against explicit prefixes
    N, powers = 50, [2, 3, 5]
    w = WeightSequence.harmonic(1.0, 2.0)       # trigamma(N+2) at s=2, d=1
    u = w.one_minus_a(np.arange(10_000_000))[N:]
    wp = WeightSequence.power_law(2.0)
    up = np.asarray(wp.one_minus_a(np.arange(1_000_000)))[N:]
    for d in (1, 3):
        S = w.residue_power_sums(powers, d, N)
        Sp = wp.residue_power_sums(powers, d, N)
        assert S.shape == Sp.shape == (len(powers), d)
        for m, s in enumerate(powers):
            for r in range(d):
                assert S[m, r] == pytest.approx(np.sum(u[r::d] ** s), abs=1e-7)
                assert Sp[m, r] == pytest.approx(np.sum(up[r::d] ** s), rel=1e-9)
    table = WeightSequence.from_table([0.1, 0.2, 0.3], w)
    assert_allclose(table.residue_power_sums(powers, 3, 3),
                    w.residue_power_sums(powers, 3, 3), rtol=0)
    with pytest.raises(ValueError):
        table.residue_power_sums(powers, 3, 2)


def test_cube_tail_bound():
    w = WeightSequence.harmonic(1.5, 2.0)
    N = 40
    brute = float(np.sum(np.abs(w.one_minus_a(np.arange(2_000_000))[N:]) ** 3))
    bound = w.cube_tail_bound(N)
    assert brute <= bound <= brute * 1.2
