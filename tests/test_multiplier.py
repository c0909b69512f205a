import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import solve_triangular

from bandkern import (
    BasisBand,
    BoundaryConfig,
    WeightSequence,
    beta_coefficients,
    constant_expansion,
    eval_f_prefix,
    mz_norm_report,
    polynomial_membership,
)
from bandkern.multiplier import _mz_apply, constant_sup_error
from bandkern.recursion import _companion

from conftest import dense_basis_matrix, random_rational_config

ORACLE_RTOL = 1e-12


def random_weights(rng):
    if rng.uniform() < 0.5:
        return WeightSequence.harmonic(float(rng.uniform(0.3, 2.5)), 2.0)
    return WeightSequence.power_law(float(rng.uniform(0.6, 2.5)))


def rel_err(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


def mz_apply(alpha, cfg, weights):
    """M_z alpha on the band of the prefix length of alpha."""
    return _mz_apply(BasisBand(cfg, weights, len(alpha)), np.asarray(alpha))


# --- multiplication columns -----------------------------------------------------

def test_mz_column_leading_one():
    # column n of M_z vanishes on and above the diagonal, with c_{n+1,n} = 1
    rng = np.random.default_rng(20)
    for _ in range(8):
        cfg = random_rational_config(rng, J_max=4)
        weights = WeightSequence.harmonic(float(rng.uniform(0.5, 2)), 2.0)
        n = int(rng.integers(0, 20))
        col = mz_apply(np.eye(n + cfg.J + 5)[n], cfg, weights)
        assert_allclose(col[: n + 1], 0.0, atol=0)
        assert col[n + 1] == 1.0


def test_mz_column_single_root_example(cfg_one, harm1):
    col = mz_apply(np.eye(7)[0], cfg_one, harm1)
    # c_{2,0} = beta_1 a_0 - beta_1 a_1 c_{1,0} = a_1 - a_0
    assert abs(col[2] - (harm1.a(1) - harm1.a(0))) <= 1e-15


def test_mz_series_multiplication_oracle():
    # Taylor(z * f_n) must equal sum_k c_{k,n} Taylor(f_k) degree by degree
    rng = np.random.default_rng(21)
    for _ in range(6):
        cfg = random_rational_config(rng, J_max=3)
        weights = WeightSequence.harmonic(float(rng.uniform(0.5, 2)), 2.0)
        N = 48
        L = BasisBand(cfg, weights, N)
        for n in (0, 3, 10):
            e_n = np.zeros(N)
            e_n[n] = 1.0
            lhs = np.roll(L.matvec(e_n), 1)  # z * f_n
            lhs[0] = 0.0
            rhs = L.matvec(mz_apply(e_n, cfg, weights))
            keep = N - cfg.J - 1
            assert np.max(np.abs(lhs[:keep] - rhs[:keep])) <= 1e-10


def test_mz_routes_match_dense_oracle():
    # M_z = L^-1 S L by a dense triangular solve of an entrywise L
    rng = np.random.default_rng(24)
    for _ in range(8):
        cfg = random_rational_config(rng, J_max=4)
        weights = random_weights(rng)
        N = 96
        L = dense_basis_matrix(N, cfg, weights)
        ref = solve_triangular(L, np.eye(N, k=-1) @ L, lower=True,
                               unit_diagonal=True)
        alpha = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        assert rel_err(mz_apply(alpha, cfg, weights), ref @ alpha) <= ORACLE_RTOL
        n = int(rng.integers(0, 40))
        col = mz_apply(np.eye(N)[n], cfg, weights)
        assert rel_err(col, ref[:, n]) <= ORACLE_RTOL


def test_basis_band_products_and_adjoints_match_dense_oracle(cfg_pm1):
    # L x, L^H y and L^H x = b against an entrywise L, down to N below J + 1
    # (where ?gbmv takes a shortened band), on complex and real vectors
    def check(cfg, weights, N, rng):
        L, ref = BasisBand(cfg, weights, N), dense_basis_matrix(N, cfg, weights)
        x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        for v in (x, x.real):
            assert rel_err(L.matvec(v), ref @ v) <= ORACLE_RTOL
            assert rel_err(L.matvec(v, trans="C"), ref.conj().T @ v) <= ORACLE_RTOL
        adj = solve_triangular(ref.conj().T, x, lower=False,
                               unit_diagonal=True)
        assert rel_err(L.solve(x, trans="C"), adj) <= ORACLE_RTOL

    rng = np.random.default_rng(25)
    for _ in range(8):
        cfg = random_rational_config(rng, J_max=4)
        weights = random_weights(rng)
        for N in (1, 2, cfg.J, 96):
            check(cfg, weights, N, rng)
    # N = J + 1, the smallest section holding the whole band; the roots +-1
    # give a real band, applied to complex vectors as well as real ones
    rng = np.random.default_rng(26)
    for _ in range(8):
        cfg = random_rational_config(rng, J_max=4)
        check(cfg, random_weights(rng), cfg.J + 1, rng)
    weights = random_weights(rng)
    assert BasisBand(cfg_pm1, weights, 8).ab.dtype == np.float64
    for N in (1, 2, 3, 96):
        check(cfg_pm1, weights, N, rng)


def test_sections_real_exactly_when_band_is(cfg_pm1, cfg_cube, harm1):
    # the band, and the section L^-1 solved on it from the identity, are
    # real exactly when every band entry is
    for cfg, dtype in ((cfg_pm1, np.float64), (cfg_cube, np.complex128)):
        L = BasisBand(cfg, harm1, 64)
        assert L.ab.dtype == dtype
        assert L.solve(np.eye(64)).dtype == dtype


def test_mz_tail_matches_window_recursion(cfg_cube, harm1):
    # beyond the band the column entries advance by the companion matrices
    n, J = 2, cfg_cube.J
    col = mz_apply(np.eye(n + 25)[n], cfg_cube, harm1)
    band = BasisBand(cfg_cube, harm1, n + 22)
    v = col[n + 2: n + 2 + J]            # window ending at row m = n + J + 1
    for m in range(n + J + 1, n + 21):
        v = _companion(band.ab[:, m - J + 1: m + 1]) @ v   # M_m: row m + 1
        assert abs(v[-1] - col[m + 1]) <= 1e-10


def test_multiplication_consistency_random_alpha(cfg_pm1, harm1):
    rng = np.random.default_rng(22)
    N = 256
    alpha = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    alpha /= np.linalg.norm(alpha)
    L = BasisBand(cfg_pm1, harm1, N)
    shifted = np.roll(L.matvec(alpha), 1)
    shifted[0] = 0.0
    via_mz = L.matvec(mz_apply(alpha, cfg_pm1, harm1))
    keep = N - cfg_pm1.J - 1
    assert np.max(np.abs(shifted[:keep] - via_mz[:keep])) <= 1e-9


# --- constant expansion -----------------------------------------------------------

def test_constant_expansion_harmonic_closed_form(cfg_one, harm1):
    rep = constant_expansion(100, cfg_one, harm1)
    expect = 1.0 / (np.arange(101) + 1.0)
    assert np.max(np.abs(rep.coeffs - expect)) <= 1e-12
    assert rep.coeffs[0] == 1.0


def test_constant_expansion_approximates_one(cfg_pm1, harm1):
    rep = constant_expansion(2048, cfg_pm1, harm1)
    err = constant_sup_error(rep.coeffs, cfg_pm1, harm1)
    assert err <= 1e-6
    assert rep.verdict == "likely-bounded"


def sup_error_by_evaluation(coeffs, cfg, weights, radius=0.9, n_grid=64):
    """max |sum_n c_n f_n(z) - 1| over the grid, every f_n evaluated."""
    worst = 0.0
    for t in np.linspace(0.0, 2 * np.pi, n_grid, endpoint=False):
        z = radius * np.exp(1j * t)
        val = np.sum(coeffs * eval_f_prefix(len(coeffs), z, cfg, weights))
        worst = max(worst, abs(val - 1.0))
    return worst


def test_constant_sup_error_matches_pointwise_evaluation(cfg_pm1, cfg_cube):
    # perturbed coefficients keep the residual far above the rounding level
    rng = np.random.default_rng(26)
    for cfg in (cfg_pm1, cfg_cube, BoundaryConfig.from_angles(["1/5", "2/5"])):
        for weights in (WeightSequence.harmonic(1.0, 2.0),
                        WeightSequence.power_law(1.5)):
            for N in (64, 1024, 4096):
                noise = rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)
                coeffs = (constant_expansion(N, cfg, weights).coeffs
                          + 1e-6 * noise / np.arange(1, N + 2))
                assert constant_sup_error(coeffs, cfg, weights) == pytest.approx(
                    sup_error_by_evaluation(coeffs, cfg, weights), rel=1e-10)


def test_constant_expansion_matches_dense_oracle():
    rng = np.random.default_rng(25)
    for _ in range(8):
        cfg = random_rational_config(rng, J_max=4)
        weights = random_weights(rng)
        N = 200
        e0 = np.zeros(N + 1)
        e0[0] = 1.0
        ref = solve_triangular(dense_basis_matrix(N + 1, cfg, weights), e0,
                               lower=True, unit_diagonal=True)
        rep = constant_expansion(N, cfg, weights)
        assert rel_err(rep.coeffs, ref) <= ORACLE_RTOL


def test_constant_expansion_slow_weights_not_in_l2(cfg_cube):
    # at p = 0.4 the coefficients of 1 decay like n^-0.4, though the running
    # norms at the last two checkpoints, N and N + 1, differ by one term
    rep = constant_expansion(1024, cfg_cube, WeightSequence.harmonic(0.4, 2.0))
    assert rep.verdict == "likely-unbounded"
    assert all(abs(p - 0.4) < 0.05 for p in rep.p_hat)


def test_constant_expansion_validates(cfg_pm1, harm1):
    with pytest.raises(ValueError):
        constant_expansion(0, cfg_pm1, harm1)


# --- polynomial membership ----------------------------------------------------------

def test_membership_phi_plateaus(cfg_pm1, harm1):
    phi = beta_coefficients(cfg_pm1)
    rep = polynomial_membership(phi, 512, cfg_pm1, harm1)
    assert rep.verdict == "likely-bounded"
    # phi = phi * 1: corresponding alpha is the first column of the
    # re-expansion matrix, square-summable for these weights
    assert rep.partial_norms[-1] < 2.0


def test_membership_constant_matches_expansion(cfg_pm1, harm1):
    rep = polynomial_membership([1.0], 128, cfg_pm1, harm1)
    exp = constant_expansion(128, cfg_pm1, harm1)
    assert_allclose(rep.coeffs, exp.coeffs, atol=1e-12)


def test_membership_z_is_composition(cfg_pm1, harm1):
    # coefficients of z = M_z applied to the coefficients of 1
    N = 128
    rep_z = polynomial_membership([0.0, 1.0], N, cfg_pm1, harm1)
    rep_1 = constant_expansion(N, cfg_pm1, harm1)
    composed = mz_apply(rep_1.coeffs, cfg_pm1, harm1)
    assert np.max(np.abs(rep_z.coeffs - composed)) <= 1e-10


def test_membership_rejects_short_prefix(cfg_pm1, harm1):
    with pytest.raises(ValueError):
        polynomial_membership([1, 1, 1], 2, cfg_pm1, harm1)


def test_membership_degree_ignores_trailing_zeros(cfg_pm1, harm1):
    # [1, 0, 0] has degree 0, so N = 1 holds it and it is the constant 1
    rep = polynomial_membership([1, 0, 0], 1, cfg_pm1, harm1)
    assert_array_equal(rep.coeffs,
                       polynomial_membership([1], 1, cfg_pm1, harm1).coeffs)


# --- truncated norms -----------------------------------------------------------------

def test_mz_norms_plateau_and_monotone(cfg_pm1):
    for p in (0.75, 1.0, 2.0):
        weights = WeightSequence.harmonic(p, 2.0)
        rep = mz_norm_report(cfg_pm1, weights, [128, 256, 512, 1024, 2048])
        vals = [e.value for e in rep.full_norms]
        assert np.all(np.diff(vals) >= -1e-10)
        assert rep.verdict == "likely-bounded"
        # both views reported: with and without the unit subdiagonal
        assert len(rep.shifted_norms) == len(rep.full_norms)
        assert rep.shifted_norms[-1].value < vals[-1]
