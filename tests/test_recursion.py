import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import solve_triangular

from bandkern import (
    BasisBand,
    BoundaryConfig,
    SearchFailureError,
    WeightSequence,
    beta_coefficients,
    c_column,
    companion_limit,
    containment_report,
    eigen_basis,
    fit_starting_decay,
    mu_search,
    mz_norm_report,
    nu0_expansion,
    product_norm,
    starting_vector,
    triangular_solve_oracle,
)
from bandkern.recursion import (
    _companion,
    decay_rate_samples,
    growth_verdict,
    starting_alpha_limit,
)

from conftest import dense_basis_matrix, random_rational_config


# --- column recursion -------------------------------------------------------

def test_c_column_closed_form_single_root(cfg_one, harm1):
    col = c_column(0, 32, cfg_one, harm1)
    expected = np.array([1.0] + [-1.0 / (k + 1) for k in range(1, 33)])
    assert_allclose(col, expected, atol=1e-14)


def test_c_column_base_entry_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        cfg = random_rational_config(rng, J_max=4)
        weights = WeightSequence.harmonic(float(rng.uniform(0.5, 2)), 2.0)
        beta = beta_coefficients(cfg)
        for n in (0, 3, 17):
            col = c_column(n, cfg.J, cfg, weights)
            expect = beta[1] * weights.one_minus_a(n)
            assert abs(col[1] - expect) <= 1e-13


def test_c_column_divergence_example(cfg_pm1, pow2):
    col = c_column(0, 4096, cfg_pm1, pow2)
    assert abs(col[2] - (-7.0 / 16.0)) <= 1e-15
    evens = np.abs(col[2:402:2])
    assert np.all(np.diff(evens) < 0)          # monotone decreasing modulus
    assert evens[-1] >= 0.3                    # converging to a nonzero limit


def test_c_section_matches_columns(cfg_cube, harm1):
    N = 40
    C = triangular_solve_oracle(N, cfg_cube, harm1)
    for n in (0, 7, 23):
        assert_allclose(C[n:, n], c_column(n, N - 1 - n, cfg_cube, harm1),
                        atol=1e-13)


def test_oracle_reproduces_displayed_band_entries(cfg_pm1, pow2):
    L = BasisBand(cfg_pm1, pow2, 6)
    assert_allclose(L.ab[2, :3], [-9.0 / 16, -64.0 / 81, -225.0 / 256],
                    atol=1e-15)
    Lhat = BasisBand(cfg_pm1, None, 6)
    assert_allclose(Lhat.ab[2, :4], -np.ones(4), atol=1e-15)
    assert_allclose(Lhat.ab[1, :5], np.zeros(5), atol=1e-15)


def test_basis_band_converges_to_target_band(cfg_pm1, harm1):
    # entries beta_k a_n^k approach beta_k column by column as n grows
    N = 2048
    L = BasisBand(cfg_pm1, harm1, N)
    Lhat = BasisBand(cfg_pm1, None, N)
    gaps = [np.max(np.abs(L.ab[:, n] - Lhat.ab[:, n])) for n in (10, 100, 1000)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 2e-3


def test_basis_band_dense_and_start_offset(cfg_cube, harm1):
    # the band of columns 5.. is the trailing block of the entrywise L
    full = dense_basis_matrix(12, cfg_cube, harm1)
    band = BasisBand(cfg_cube, harm1, 7, start=5).ab
    for k in range(cfg_cube.J + 1):
        assert_allclose(band[k, : 7 - k], np.diagonal(full[5:, 5:], -k),
                        rtol=1e-15)


def test_recursion_matches_triangular_oracle():
    rng = np.random.default_rng(12)
    for _ in range(6):
        cfg = random_rational_config(rng, J_max=4)
        kind = rng.choice(["harmonic", "powerlaw"])
        if kind == "harmonic":
            weights = WeightSequence.harmonic(float(rng.uniform(0.3, 2.5)), 2.0)
        else:
            weights = WeightSequence.power_law(float(rng.uniform(0.6, 2.5)))
        N = 96
        C = BasisBand(cfg, weights, N).solve(dense_basis_matrix(N, cfg))
        assert np.max(np.abs(C - triangular_solve_oracle(N, cfg, weights))) <= 1e-10


# --- companion matrices ------------------------------------------------------

def companion_matrix(n, cfg, weights):
    """M_n from the band window of columns n-J+1..n, as product_norm forms it."""
    return _companion(BasisBand(cfg, weights, cfg.J, start=n - cfg.J + 1).ab)


def test_companion_shape_and_shift_rows(cfg_cube, harm1):
    M = companion_matrix(5, cfg_cube, harm1)
    assert M.shape == (3, 3)
    assert_allclose(M[0], [0, 1, 0])
    assert_allclose(M[1], [0, 0, 1])
    # bottom row (-beta_3 a_3^3, -beta_2 a_4^2, -beta_1 a_5)
    beta = beta_coefficients(cfg_cube)
    a = harm1.prefix(6)
    assert_allclose(M[2], [-beta[3] * a[3] ** 3, -beta[2] * a[4] ** 2,
                           -beta[1] * a[5]], atol=1e-15)


def test_companion_converges_to_limit(cfg_cube, harm1):
    Minf = companion_limit(cfg_cube)
    gap = [np.max(np.abs(companion_matrix(n, cfg_cube, harm1) - Minf))
           for n in (10, 100, 1000)]
    assert gap[0] > gap[1] > gap[2]
    assert gap[2] < 1e-2


def test_eigenvectors_of_limit():
    rng = np.random.default_rng(13)
    for _ in range(10):
        cfg = random_rational_config(rng, J_max=5)
        eb = eigen_basis(cfg)
        Minf = companion_limit(cfg)
        for j, w in enumerate(cfg.conjugates):
            resid = Minf @ eb.X[:, j] - w * eb.X[:, j]
            assert np.max(np.abs(resid)) <= 1e-10
        assert np.max(np.abs(eb.X @ eb.Xinv - np.eye(cfg.J))) <= 1e-10


def test_window_recursion_consistency(cfg_cube, harm1):
    # the window of column n advances through the companion matrices
    n, J = 4, cfg_cube.J
    col = c_column(n, 20, cfg_cube, harm1)
    v = col[1: J + 1]                      # v_{n+J,n}
    for k in range(J + 1, 21):
        v = companion_matrix(n + k - 1, cfg_cube, harm1) @ v
        assert abs(v[-1] - col[k]) <= 1e-12


def test_starting_vector_examples(cfg_one, cfg_pm1, harm1):
    v = starting_vector(7, cfg_one, harm1)
    assert_allclose(v, [-harm1.one_minus_a(7)], atol=1e-15)
    v2 = starting_vector(5, cfg_pm1, harm1)
    assert v2[0] == 0.0                     # beta_1 = 0 for roots +-1


def test_starting_vector_exact_without_cancellation():
    # J = 1: c_{n+1,n} = beta_1 (1 - a_n) with |beta_1| = 1, so with p = 2
    # and offset 1 the normalized window norm (n+1) ||v|| / p is 1 to the
    # last bit
    weights = WeightSequence.harmonic(2.0, 1.0)
    for angle in ("0", "23/24"):
        cfg = BoundaryConfig.from_angles([angle])
        for n in (10 ** 4, 10 ** 5):
            v = starting_vector(n, cfg, weights)
            assert np.linalg.norm(v) * (n + 1) / weights.p == 1.0


def test_starting_vector_ratio_bounded(cfg_pm1, harm1):
    ratios = [np.linalg.norm(starting_vector(n, cfg_pm1, harm1))
              / abs(harm1.one_minus_a(n))
              for n in (1, 10, 100, 1000, 10_000)]
    assert max(ratios) < 10.0


def test_nu0_expansion_examples(cfg_one, cfg_pm1):
    assert_allclose(nu0_expansion(cfg_one), [1.0], atol=1e-14)
    assert_allclose(nu0_expansion(cfg_pm1), [0.5, 0.5], atol=1e-14)


def test_nu0_expansion_defining_property():
    rng = np.random.default_rng(14)
    for _ in range(10):
        cfg = random_rational_config(rng, J_max=5)
        eb = eigen_basis(cfg)
        coeffs = nu0_expansion(cfg)
        eJ = np.zeros(cfg.J)
        eJ[-1] = 1.0
        assert np.max(np.abs(eb.X @ coeffs - eJ)) <= 1e-10


# --- mu search ----------------------------------------------------------------

def test_mu_search_examples(cfg_pm1, cfg_cube):
    assert mu_search(cfg_pm1, 0.5) == 2
    assert mu_search(cfg_cube, 1e-9) == 3
    cfg = BoundaryConfig.from_angles(["1/4", "1/6"])
    assert mu_search(cfg, 1e-9) == 12


def test_mu_search_failure_carries_best():
    cfg = BoundaryConfig.from_angles(["1/97", "1/89"])
    with pytest.raises(SearchFailureError) as exc:
        mu_search(cfg, 1e-15, cap=100)
    assert exc.value.best is not None
    assert exc.value.best_error > 0


# --- product norms ------------------------------------------------------------

def test_product_norm_scalar_case(cfg_one, harm1):
    for n in (5, 50, 500):
        assert product_norm(n, 1, cfg_one, harm1) == pytest.approx(
            abs(harm1.a(n)), abs=1e-12)


def test_product_norm_limit_is_one(cfg_pm1, cfg_cube, harm1):
    # pointwise limit of Mhat_n is the unitary diag(w_j): norms tend to 1
    for cfg in (cfg_pm1, cfg_cube):
        vals = np.array([product_norm(n, 1, cfg, harm1, conjugated=True)
                         for n in (10, 100, 1000, 10000)])
        assert abs(vals[-1] - 1.0) < 1e-3
        assert np.max(np.abs(vals - 1.0)) < 0.2


def test_product_norm_decay_bound(cfg_pm1):
    # mu = 2, eps = 0.2 p: ||Mhat_{n+1} Mhat_n|| <= 1 - (2p - 0.2p)/n
    for p in (0.6, 1.0, 2.0):
        weights = WeightSequence.harmonic(p, 2.0)
        eps = 0.2 * p
        mu = mu_search(cfg_pm1, 0.01)
        for n in (2000, 20_000, 100_000):
            nrm = product_norm(n, mu, cfg_pm1, weights, conjugated=True)
            assert nrm <= 1 - (mu * p - eps) / n


def test_entrywise_product_norm_bound():
    # sanity oracle for the norm machinery
    rng = np.random.default_rng(16)
    for _ in range(10):
        J = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        c = float(rng.uniform(0.1, 2.0))
        mats = [c * (rng.uniform(-1, 1, (J, J)) + 1j * rng.uniform(-1, 1, (J, J)))
                / math.sqrt(2) for _ in range(k)]
        P = np.eye(J, dtype=complex)
        for M in mats:
            P = M @ P
        assert np.linalg.norm(P, 2) <= J ** k * c ** k + 1e-12


# --- norm estimation and containment -------------------------------------------

def test_section_norms_match_dense_svd(cfg_pm1, cfg_cube, harm1):
    # Lanczos norms of C, M_z and M_z - S against dense SVDs of the sections,
    # on a real band (roots +-1) and a complex one (cube roots)
    N_list = [1, 2, 3, 256, 600]
    for cfg in (cfg_pm1, cfg_cube):
        rep = containment_report(cfg, harm1, N_list)
        mz = mz_norm_report(cfg, harm1, N_list)
        L = dense_basis_matrix(600, cfg, harm1)
        C = triangular_solve_oracle(600, cfg, harm1)
        Z = solve_triangular(L, np.eye(600, k=-1) @ L, lower=True,
                             unit_diagonal=True)
        for k, N in enumerate(N_list):
            for est, section in (
                    (rep.norm_estimates[k], C[:N, :N]),
                    (mz.full_norms[k], Z[:N, :N]),
                    (mz.shifted_norms[k], Z[:N, :N] - np.eye(N, k=-1))):
                assert est.truncation == N
                assert est.value == pytest.approx(np.linalg.norm(section, 2),
                                                  rel=1e-12)
                assert est.residual <= 1e-10 * est.value


@pytest.mark.parametrize("angles", [["1/5", "2/5"], ["0", "1/3", "2/3"],
                                    ["0", "1/12", "5/12", "2/3"], ["0", "1/2"]])
def test_column_norms_match_dense_oracle(angles):
    # Gram-window column norms against the columns of a dense solve.  Roots
    # 1/5, 2/5 give a complex band on which the window map has a growing
    # non-Hermitian mode: a window whose diagonal is not kept real fails here.
    cfg = BoundaryConfig.from_angles(angles)
    for weights in (WeightSequence.harmonic(0.25, 2.0),
                    WeightSequence.harmonic(1.0, 2.0),
                    WeightSequence.power_law(1.5)):
        C = triangular_solve_oracle(2048, cfg, weights)
        for N in sorted({1, 2, 3, cfg.J + 1, 300, 2048}):
            rep = containment_report(cfg, weights, [N])
            ref = np.linalg.norm(C[:N, :N], axis=0)
            assert_allclose(rep.column_norms, ref, rtol=1e-10, atol=0)
            assert 1.0 <= rep.column_norm_cancellation <= 100.0 * N


def test_norm_estimates_monotone(cfg_pm1, harm1):
    rep = containment_report(cfg_pm1, harm1, [128, 256, 512, 1024])
    vals = [e.value for e in rep.norm_estimates]
    assert np.all(np.diff(vals) >= -1e-10)


def test_containment_bounded_harmonic(cfg_one, harm1):
    rep = containment_report(cfg_one, harm1, [128, 256, 512])
    assert rep.verdict == "likely-bounded"
    col0 = float(rep.column_norms[0])
    assert col0 == pytest.approx(math.sqrt(math.pi ** 2 / 6), abs=1e-2)


def test_containment_unbounded_powerlaw(cfg_pm1, pow2):
    rep = containment_report(cfg_pm1, pow2, [128, 256, 512])
    assert rep.verdict == "likely-unbounded"


def test_containment_unbounded_slow_harmonic(cfg_pm1):
    rep = containment_report(cfg_pm1, WeightSequence.harmonic(0.25, 2.0),
                             [128, 256, 512])
    assert rep.verdict == "likely-unbounded"


def test_decay_rate_samples_settle(cfg_pm1):
    for p in (0.75, 1.0):
        vals = decay_rate_samples(cfg_pm1, WeightSequence.harmonic(p, 2.0))
        assert np.all(np.abs(vals - p) < 0.1 * p)


def test_growth_verdict_thresholds():
    assert growth_verdict([1.0, 1.0000001]) == "likely-bounded"
    assert growth_verdict([1.0, 1.5]) == "likely-unbounded"
    assert growth_verdict([1.0, 1.02]) == "inconclusive"
    assert growth_verdict([1.0]) == "inconclusive"


# --- starting-vector decay fit ---------------------------------------------------

def test_fit_starting_decay_bounds_later_samples():
    rng = np.random.default_rng(17)
    weight_choices = [
        WeightSequence.harmonic(0.75, 2.0),
        WeightSequence.harmonic(1.0, 2.0),
        WeightSequence.harmonic(2.0, 1.0),
        WeightSequence.power_law(1.0),
    ]
    for _ in range(6):
        cfg = random_rational_config(rng, J_max=4)
        for weights in weight_choices:
            fit = fit_starting_decay(cfg, weights)
            for n in (128, 512, 2048, 10_000):
                v = np.linalg.norm(starting_vector(n, cfg, weights))
                assert v * (n + cfg.J) / weights.p <= fit.D1 * (1 + 1e-12)


def test_fit_rejects_wrong_rate(cfg_pm1, pow2):
    with pytest.raises(ValueError):
        fit_starting_decay(cfg_pm1, pow2)


def test_starting_alpha_limit_single(cfg_one):
    assert_allclose(starting_alpha_limit(cfg_one), [-1.0])
