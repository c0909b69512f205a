import math
from fractions import Fraction

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
)
from bandkern.recursion import (
    _N_FIT,
    _PLATEAU_TOL,
    _column_norms,
    _companion,
    _l2_verdict,
    _section_norm,
    growth_verdict,
    starting_alpha_limit,
)

from conftest import (
    column_norms_loop,
    dense_basis_matrix,
    random_rational_config,
    triangular_solve_oracle,
)


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


def _dense_operator(A):
    return (lambda x: A @ x), (lambda y: A.conj().T @ y)


@pytest.mark.parametrize("dtype", [float, complex])
def test_section_norm_repeated_top_singular_value(dtype):
    # a diagonal operator whose top singular value 3 is taken twice: the
    # Krylov space holds one copy, the stopping test still fires, and the
    # value is exact to rounding.  Tolerances: value rtol 1e-13, residual
    # <= 1e-12 value.
    rng = np.random.default_rng(40)
    d = rng.permutation(np.r_[3.0, 3.0, rng.uniform(0.0, 2.5, 198)])
    if dtype is complex:
        d = d * np.exp(2j * np.pi * rng.uniform(size=d.size))
    est = _section_norm(200, lambda x: d * x, lambda y: d.conj() * y, dtype)
    assert est.value == pytest.approx(3.0, rel=1e-13)
    assert est.residual <= 1e-12 * est.value
    assert 1 <= est.steps <= 200


def test_section_norm_rank_one():
    # A = u v^H has the single singular value |u| |v|; the bidiagonalization
    # finds it in at most two steps.  Tolerances: value rtol 1e-13,
    # residual <= 1e-12 value.
    rng = np.random.default_rng(41)
    u, v = (rng.standard_normal((2, 300)) + 1j * rng.standard_normal((2, 300)))
    est = _section_norm(300, lambda x: u * (v.conj() @ x),
                        lambda y: v * (u.conj() @ y), complex)
    expect = np.linalg.norm(u) * np.linalg.norm(v)
    assert est.value == pytest.approx(expect, rel=1e-13)
    assert est.residual <= 1e-12 * est.value
    assert est.steps <= 2


@pytest.mark.parametrize("N", [1, 2])
def test_section_norm_smallest_sections(N):
    # N = 1 and 2 run through the same bidiagonalization, which stops at
    # k = N.  Tolerances: value rtol 1e-14, residual <= 1e-13 value.
    rng = np.random.default_rng(42 + N)
    for _ in range(20):
        A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        est = _section_norm(N, *_dense_operator(A), complex)
        assert est.value == pytest.approx(np.linalg.norm(A, 2), rel=1e-14)
        assert est.residual <= 1e-13 * est.value
        assert est.steps <= N


def test_section_norm_rounding_level_is_zero():
    # the cutoff N eps: a section of norm eps / 2 is rounding and comes out
    # as an exact 0, one of norm 100 N eps keeps its value (rtol 1e-13)
    N, eps = 50, np.finfo(float).eps
    d = np.linspace(0.1, 1.0, N)
    for scale, expect in ((eps / 2, 0.0), (100 * N * eps, 100 * N * eps)):
        est = _section_norm(N, lambda x: scale * d * x,
                            lambda y: scale * d * y, float)
        assert est.value == pytest.approx(expect, rel=1e-13, abs=0)
        if expect == 0.0:
            assert est.residual == 0.0


def test_section_norm_repeats_bit_for_bit(cfg_cube, harm1):
    # a fixed start vector: two calls give the same estimate to the bit
    L, Lhat = BasisBand(cfg_cube, harm1, 300), BasisBand(cfg_cube, None, 300)
    ops = (lambda x: L.solve(Lhat.matvec(x)),
           lambda y: Lhat.matvec(L.solve(y, trans="C"), trans="C"), complex)
    assert _section_norm(300, *ops) == _section_norm(300, *ops)


def test_section_norms_hard_spectrum():
    # roots {0, 1/12, 5/12, 2/3} with harmonic p = 0.25: ||C_N|| still
    # grows at N = 1024, so the top singular values of C, M_z and M_z - S
    # crowd together.  Tolerances: rtol 1e-12 against dense SVDs, residual
    # <= 1e-10 value.
    cfg = BoundaryConfig.from_angles(["0", "1/12", "5/12", "2/3"])
    weights = WeightSequence.harmonic(0.25, 2.0)
    N = 1024
    mz = mz_norm_report(cfg, weights, [N])
    L = dense_basis_matrix(N, cfg, weights)
    Z = solve_triangular(L, np.eye(N, k=-1) @ L, lower=True,
                         unit_diagonal=True)
    cases = [
        (containment_report(cfg, weights, [N]).norm_estimates[0],
         triangular_solve_oracle(N, cfg, weights)),
        (mz.full_norms[0], Z),
        (mz.shifted_norms[0], Z - np.eye(N, k=-1)),
    ]
    for est, section in cases:
        assert est.value == pytest.approx(np.linalg.norm(section, 2), rel=1e-12)
        assert est.residual <= 1e-10 * est.value


def test_ladder_warm_start_reaches_every_residue_class():
    # Roots +-1: phi(z) = 1 - z^2 has beta_1 = 0, so C keeps even and odd
    # indices apart.  With a_n = 1/2 on the odd n in [32, 64) the top
    # singular vector lies on the even class up to N = 32 and on the odd
    # class at N = 64; a rung started from the vector below padded with
    # zeros never reaches the odd class and returns 1.467028215681.
    # Tolerances: rtol 1e-12 against a dense solve and SVD; the quoted
    # values to 12 decimals (abs 6e-13).
    cfg = BoundaryConfig.from_angles(["0", "1/2"])
    harmonic = WeightSequence.harmonic(1.0, 2.0)
    table = np.where((np.arange(64) % 2 == 1) & (np.arange(64) >= 32), 0.5,
                     harmonic.prefix(64))
    weights = WeightSequence.from_table(table, harmonic)
    rep = containment_report(cfg, weights, [16, 32, 64])
    C = solve_triangular(dense_basis_matrix(64, cfg, weights),
                         dense_basis_matrix(64, cfg), lower=True,
                         unit_diagonal=True)
    quoted = [1.463528071912, 1.465913516477, 1.597320873582]
    for est, expect in zip(rep.norm_estimates, quoted):
        N = est.truncation
        ref = np.linalg.norm(C[:N, :N], 2)
        assert est.value == pytest.approx(ref, rel=1e-12)
        assert ref == pytest.approx(expect, rel=0, abs=6e-13)


def _down(x):
    """S x, the shift one row down."""
    return np.r_[np.zeros(1, x.dtype), x[:-1]]


def _up(y):
    """S^T y."""
    return np.r_[y[1:], np.zeros(1, y.dtype)]


def test_ladders_match_cold_section_norms():
    # Warm-started ladders of C, M_z and M_z - S over random rational
    # configs (J = 1..6, ladders up to 1024, N = 1 among them, where M_z
    # and M_z - S are exact zeros and the next rung starts cold) against
    # _section_norm on bands built at each N.  Tolerances: rtol 1e-12 on the
    # values, residual <= 1e-10 value.
    rng = np.random.default_rng(60)
    sizes = [1, 2, 3, 5, 8, 16, 64, 100, 256, 512, 1000, 1024]
    rungs = set()
    for J in range(1, 7):
        cfg = BoundaryConfig.from_angles(
            [Fraction(int(q), 24) for q in rng.choice(24, J, replace=False)])
        p = float(rng.uniform(0.3, 2.0))
        weights = (WeightSequence.harmonic(p, 2.0) if rng.integers(2)
                   else WeightSequence.power_law(p + 0.5))
        N_list = sorted(rng.choice(sizes, size=int(rng.integers(2, 6)),
                                   replace=False).tolist())
        rungs.update(N_list)
        rep = containment_report(cfg, weights, N_list)
        mz = mz_norm_report(cfg, weights, N_list)
        for k, N in enumerate(N_list):
            L, Lhat = BasisBand(cfg, weights, N), BasisBand(cfg, None, N)
            dtype = np.result_type(L.ab, Lhat.ab)
            c_ops = (lambda x: L.solve(Lhat.matvec(x)),
                     lambda y: Lhat.matvec(L.solve(y, trans="C"), trans="C"))
            mz_ops = (lambda x: L.solve(_down(L.matvec(x))),
                      lambda y: L.matvec(_up(L.solve(y, trans="C")), trans="C"))
            shifted_ops = (lambda x: mz_ops[0](x) - _down(x),
                           lambda y: mz_ops[1](y) - _up(y))
            for warm, ops, dt in ((rep.norm_estimates[k], c_ops, dtype),
                                  (mz.full_norms[k], mz_ops, L.ab.dtype),
                                  (mz.shifted_norms[k], shifted_ops, L.ab.dtype)):
                cold = _section_norm(N, *ops, dt)
                assert warm.truncation == N
                assert warm.value == pytest.approx(cold.value, rel=1e-12, abs=0)
                assert warm.residual <= 1e-10 * warm.value
    assert {1, 1024} <= rungs


def _count_calls(monkeypatch, owner, name, counts):
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("report", [containment_report, mz_norm_report],
                         ids=["containment", "multiplier"])
def test_ladders_bind_routines_and_build_bands_once(monkeypatch, report):
    # BLAS/LAPACK lookups and band constructions of a ladder do not grow
    # with its height or its number of rungs: each band is built once, at
    # the top, and binds its routines once per vector type.  Roots +-1 with
    # harmonic p = 0.25 never plateau; the containment verdict reads column
    # 0 of C from the same two bands, whatever the ladder.
    import bandkern.core
    import bandkern.recursion

    cfg = BoundaryConfig.from_angles(["0", "1/2"])
    weights = WeightSequence.harmonic(0.25, 2.0)
    counts = {}
    for module in (bandkern.core, bandkern.recursion):
        for name in ("get_blas_funcs", "get_lapack_funcs"):
            if hasattr(module, name):
                _count_calls(monkeypatch, module, name, counts)
    _count_calls(monkeypatch, BasisBand, "__init__", counts)
    seen = {}
    for top in (512, 2048):
        for rungs in (2, 5):
            counts.clear()
            report(cfg, weights, [top >> k for k in range(rungs - 1, -1, -1)])
            seen[top, rungs] = dict(counts)
    first = seen[512, 2]
    assert first["__init__"] >= 1 and first["get_blas_funcs"] >= 1
    assert all(c == first for c in seen.values()), seen


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


@pytest.mark.parametrize("angles", [["1/5", "2/5"], ["0", "1/12", "5/12", "2/3"]])
@pytest.mark.parametrize("N", [64 ** 2, 64 ** 2 + 1, 2 ** 17, 2 ** 17 + 3])
def test_column_norm_scan_matches_sequential_loop(angles, N):
    # The blocked scan against the one-index-at-a-time Gram loop.  Blocks
    # have ceil(sqrt(N)) steps: 64 divides 64^2, while 65, 363 and 363
    # divide none of 64^2 + 1, 2^17 and 2^17 + 3.  The cancellation factor
    # is how much rounding in the window entries is amplified in a squared
    # column norm; the tolerance, fixed before the run, is 100 u times it.
    cfg = BoundaryConfig.from_angles(angles)
    L = BasisBand(cfg, WeightSequence.harmonic(1.0, 2.0), N)
    Lhat = BasisBand(cfg, None, N)
    ref, ref_cancellation = column_norms_loop(L, Lhat)
    tol = 100 * np.finfo(float).eps / 2 * ref_cancellation
    norms, cancellation = _column_norms(L, Lhat)
    assert np.max(np.abs(norms - ref) / ref) <= tol
    assert abs(cancellation - ref_cancellation) <= tol * ref_cancellation


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


# --- the l2 rule on dyadic block energies ---------------------------------------

P_HAT_TOL = 0.02     # |p_hat - p| at N = 2^14, stated before the run


@pytest.mark.parametrize("angles", [["1/5"], ["0", "1/7", "3/7"],
                                    ["0", "1/7", "3/7", "5/11"]])
def test_l2_verdict_reads_the_harmonic_exponent(angles):
    # column 0 of C decays like n^-p, so every p_hat reads p; the verdict
    # sides with the dichotomy and stays undecided at the threshold itself
    cfg = BoundaryConfig.from_angles(angles)
    for p in (0.3, 0.4, 0.5, 0.6, 0.8, 1.5):
        col = c_column(0, 2 ** 14 - 1, cfg, WeightSequence.harmonic(p, 2.0))
        verdict, p_hat = _l2_verdict(col)
        assert len(p_hat) == 3
        assert max(abs(q - p) for q in p_hat) <= P_HAT_TOL, (p, p_hat)
        assert verdict == ("likely-unbounded" if p < 0.5 else
                           "inconclusive" if p == 0.5 else "likely-bounded")


def test_l2_verdict_reads_only_full_blocks(cfg_cube, harm1):
    # blocks that end past the last coefficient are not read: at 3000 the
    # rule reads the blocks of 2048, whatever entries 2048..2999 hold; below
    # 16 coefficients there are not four blocks to read
    col = c_column(0, 2999, cfg_cube, harm1)
    assert _l2_verdict(col) == _l2_verdict(col[:2048])
    col[2048:] = 1e6
    assert _l2_verdict(col) == _l2_verdict(col[:2048])
    assert _l2_verdict(col)[0] == "likely-bounded"
    assert _l2_verdict(col[:15]) == ("inconclusive", ())


def test_table_head_does_not_move_the_containment_verdict(cfg_pm1, harm1):
    # a_n = 1/2 on odd n < 64 lifts the section norms (they still climb at
    # 2048) but leaves the tail that decides the verdict alone
    head = WeightSequence.from_table(
        [0.5 if n % 2 else float(harm1.a(n)) for n in range(64)], harm1)
    N_list = [256, 512, 1024, 2048]
    plain = containment_report(cfg_pm1, harm1, N_list)
    rep = containment_report(cfg_pm1, head, N_list)
    assert rep.plateau_rel > _PLATEAU_TOL
    assert rep.verdict == plain.verdict == "likely-bounded"
    assert_allclose(rep.p_hat, plain.p_hat, rtol=1e-12)
    assert_allclose(rep.p_hat, [1.0021, 1.0011, 1.0005], atol=1e-4)


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


def test_fit_measured_max_matches_per_column_starting_vectors():
    # the batched solve against one c_column solve per n
    rng = np.random.default_rng(18)
    weights = [WeightSequence.harmonic(0.75, 2.0), WeightSequence.power_law(1.0),
               WeightSequence.from_table([0.5, 0.25 + 0.1j, 0.9, 0.3],
                                         WeightSequence.harmonic(1.0, 2.0))]
    for _ in range(6):
        cfg = random_rational_config(rng, J_max=5)
        for w in weights:
            ref = max(np.linalg.norm(starting_vector(n, cfg, w)) * (n + cfg.J) / w.p
                      for n in range(cfg.J + 1, _N_FIT + 1))
            assert fit_starting_decay(cfg, w).measured_max == pytest.approx(
                ref, rel=1e-14, abs=0)


def test_fit_rejects_wrong_rate(cfg_pm1, pow2):
    with pytest.raises(ValueError):
        fit_starting_decay(cfg_pm1, pow2)


def test_starting_alpha_limit_single(cfg_one):
    assert_allclose(starting_alpha_limit(cfg_one), [-1.0])


def starting_alpha_loop(cfg):
    """Oracle: lambda_j = j beta_j - sum_{i<j} beta_i lambda_{j-i} term by
    term, j = 1..J."""
    beta = beta_coefficients(cfg)
    lam = np.zeros(cfg.J, dtype=complex)
    for j in range(1, cfg.J + 1):
        s = j * beta[j]
        for i in range(1, j):
            s -= beta[i] * lam[j - i - 1]
        lam[j - 1] = s
    return lam


def test_starting_alpha_limit_matches_loop():
    # the Lhat solve against the recursion written out, J = 1..6.  Some
    # lambda_j vanish up to rounding, so the tolerance is rtol 1e-13 in
    # norm, the quantity fit_starting_decay reads.
    rng = np.random.default_rng(61)
    for J in range(1, 7):
        for _ in range(3):
            cfg = BoundaryConfig.from_angles(
                [Fraction(int(q), 24) for q in rng.choice(24, J, replace=False)])
            ref = starting_alpha_loop(cfg)
            err = np.linalg.norm(starting_alpha_limit(cfg) - ref)
            assert err <= 1e-13 * np.linalg.norm(ref)
