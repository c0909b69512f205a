import math
from functools import reduce

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from numpy.testing import assert_allclose
from scipy.linalg import solve_triangular

from bandkern import (
    BoundaryConfig,
    WeightSequence,
    beta_coefficients,
    bp_apply,
    c_column,
    decompose,
    eval_f_prefix,
    h2_coeffs,
    kernel_eval,
    partial_gram,
    mu_weights,
    q_coefficients,
    reconstruct,
    taylor_to_basis,
)
from bandkern.core import root_powers
from bandkern.decomposition import measure_q_bound

from conftest import dense_basis_matrix, random_rational_config


# --- Gram matrix -----------------------------------------------------------------

def test_gram_single_root(cfg_one, harm1):
    # sum_{n<N} (n+2)^-2 falls short of pi^2/6 - 1 by less than 1/(N+1)
    N = 1 << 16
    g = partial_gram(cfg_one, harm1, N)
    assert g.matrix.shape == (1, 1)
    assert 0 < (math.pi ** 2 / 6 - 1) - g.matrix[0, 0].real <= 1.0 / (N + 1)
    assert g.cond == pytest.approx(1.0)
    assert g.truncation == N


def test_gram_hermitian_and_invertible(cfg_cube, harm1):
    g = partial_gram(cfg_cube, harm1, 4096)
    assert np.max(np.abs(g.matrix - g.matrix.conj().T)) <= 1e-12
    assert np.isfinite(g.cond)
    assert g.cond < 1e6


def test_partial_gram_matches_full_for_large_prefix(cfg_pm1, harm1):
    gN = partial_gram(cfg_pm1, harm1, 200_000)
    full = np.array([[kernel_eval(zj, zi, cfg_pm1, harm1, 1e-9).value
                      for zj in cfg_pm1.roots] for zi in cfg_pm1.roots])
    assert np.max(np.abs(gN.matrix - full)) <= 1e-4
    assert gN.truncation == 200_000


def test_boundary_coeffs_roundtrip_complex_config(harm1):
    # kernel loadings of sum_j b0_j K(., z_j) on roots without symmetry
    cfg = BoundaryConfig.from_angles(["1/8", "1/3", "17/24"])
    rng = np.random.default_rng(3)
    b0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    alpha, _ = reconstruct(np.zeros(1), b0, cfg, harm1, 512)
    dec = decompose(alpha, cfg, harm1)
    assert_allclose(dec.b, b0, atol=1e-8)
    assert np.max(np.abs(dec.g)) <= 1e-8


# --- polynomial families ------------------------------------------------------------

def p_polynomials(n_max, cfg):
    """Oracle for the columns of bp_apply: p_0 = 1,
    p_n = beta_n x^n - sum_{i=1..n} beta_i p_{n-i} while n <= J, then the
    homogeneous tail rule; column k of Lhat^-1 L holds p_{n-k}(a_k) at row n.
    Ascending coefficient arrays, combined by numpy.polynomial."""
    beta = beta_coefficients(cfg)
    J = len(beta) - 1
    ps = [np.array([1.0])]
    for n in range(1, n_max + 1):
        acc = np.zeros(n + 1 if n <= J else 1, dtype=complex)
        if n <= J:
            acc[n] = beta[n]
        for i in range(1, min(n, J) + 1):
            acc = P.polysub(acc, beta[i] * ps[n - i])
        ps.append(acc)
    return ps


def test_p_polynomials_first_members(cfg_cube):
    beta = beta_coefficients(cfg_cube)
    ps = p_polynomials(3, cfg_cube)
    assert_allclose(ps[0], [1.0])
    expect_p1 = np.array([-beta[1], beta[1]])
    assert_allclose(ps[1][: 2], expect_p1, atol=1e-14)


def test_p_polynomials_match_bp_columns():
    rng = np.random.default_rng(4)
    for J, angles in ((1, ["0"]), (2, ["0", "1/2"]), (3, ["0", "1/3", "2/3"])):
        cfg = BoundaryConfig.from_angles(angles)
        weights = WeightSequence.harmonic(1.0, 2.0)
        N = 33
        ps = p_polynomials(N, cfg)
        for k in (0, 2, 7):
            e_k = np.zeros(N + k + 1)
            e_k[k] = 1.0
            col = bp_apply(e_k, cfg, weights)
            a_k = weights.a(k)
            expect = np.array([P.polyval(a_k, ps[n]) for n in range(N - k)])
            assert_allclose(col[k: N], expect[: N - k], atol=1e-12)


def q_polynomial(n, cfg):
    """Oracle for row n of q_coefficients: the per-n sum
    Q_n(x) = sum_j (w_j^J / mu_j) phi(x / w_j) w_j^n, with phi the
    numpy.polynomial product of its linear factors."""
    phi = reduce(P.polymul, ([1.0, -w] for w in cfg.conjugates), [1.0])
    k = np.arange(len(phi))
    acc = np.zeros(1, dtype=complex)
    for j, (z, mu) in enumerate(zip(cfg.roots, mu_weights(cfg))):
        w_pow = complex(np.conj(root_powers(cfg, j, np.array([cfg.J + n]))[0]))
        acc = P.polyadd(acc, (w_pow / mu) * phi * z ** k)    # phi(x / w_j)
    return acc


def test_q_coefficients_match_per_n_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        cfg = random_rational_config(rng, J_max=6)
        ns = np.arange(-2 * cfg.J - 3, 3 * cfg.J + 4)
        table = q_coefficients(ns, cfg)
        assert table.shape == (len(ns), cfg.J + 1)
        for n, row in zip(ns, table):
            oracle = q_polynomial(int(n), cfg)
            assert np.max(np.abs(row[: len(oracle)] - oracle)) <= 1e-13
            assert np.max(np.abs(row[len(oracle):]), initial=0.0) <= 1e-13


def test_q_polynomial_single_root(cfg_one):
    q0 = q_coefficients([0], cfg_one)[0]
    assert_allclose(q0, [1.0, -1.0], atol=1e-14)
    # J=1: every Q_n is 1 - x
    for q in q_coefficients([-3, -1, 5], cfg_one):
        assert_allclose(q, [1.0, -1.0], atol=1e-14)


def test_q_recursion_random_configs():
    rng = np.random.default_rng(5)
    for _ in range(12):
        cfg = random_rational_config(rng, J_max=5)
        beta = beta_coefficients(cfg)
        J = cfg.J
        for n in range(0, 2 * J + 1):
            qs = q_coefficients([n - i for i in range(min(n, J) + 1)], cfg)
            for _ in range(10):
                x = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / math.sqrt(2)
                s = sum(beta[i] * P.polyval(x, qs[i]) for i in range(min(n, J) + 1))
                target = beta[n + 1] * (x ** (n + 1) - 1) if n + 1 <= J else 0.0
                assert abs(s - target) <= 1e-9


def test_q_vanishes_at_one():
    rng = np.random.default_rng(6)
    for _ in range(8):
        cfg = random_rational_config(rng, J_max=5)
        for q in q_coefficients((-5, -1, 0, 3, 11), cfg):
            assert abs(P.polyval(1.0, q)) <= 1e-12


def test_q_bound_constant_finite(cfg_pm1, harm1):
    c = measure_q_bound(cfg_pm1, harm1)
    assert 0 < c < 50.0
    # the bound it certifies: |Q_n(a_m)| <= c (1 - a_m) on a fresh sample
    for q in q_coefficients((-7, 2, 19), cfg_pm1):
        for m in (3, 33, 333):
            assert abs(P.polyval(harm1.a(m), q)) <= (c + 1e-9) * harm1.one_minus_a(m)


# --- the quotient encoding -----------------------------------------------------------

def test_bp_apply_first_column(cfg_pm1, harm1):
    N = 24
    e0 = np.zeros(N)
    e0[0] = 1.0
    g = bp_apply(e0, cfg_pm1, harm1)
    ps = p_polynomials(N, cfg_pm1)
    a0 = harm1.a(0)
    assert_allclose(g, [P.polyval(a0, ps[n]) for n in range(N)], atol=1e-12)


def test_bp_apply_polynomial_division_oracle(cfg_cube, harm1):
    # phi * (sum g_n z^n) must reproduce the Taylor coefficients of sum alpha_n f_n
    rng = np.random.default_rng(7)
    N = 64
    alpha = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    g = bp_apply(alpha, cfg_cube, harm1)
    beta = beta_coefficients(cfg_cube)
    lhs = np.convolve(beta, g)[:N]
    rhs = h2_coeffs(alpha, cfg_cube, harm1)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_bp_apply_single_root_closed_form(cfg_one, harm1):
    # for phi = 1 - z the column under k is constant 1 - a_k
    N = 16
    for k in (0, 3):
        e = np.zeros(N)
        e[k] = 1.0
        g = bp_apply(e, cfg_one, harm1)
        assert_allclose(g[k], 1.0, atol=1e-14)
        assert_allclose(g[k + 1:], harm1.one_minus_a(k) * np.ones(N - k - 1),
                        atol=1e-13)


def test_bp_apply_recovers_shifted_phi():
    # alpha of phi * z^m is column m of C = L^-1 Lhat, whose quotient
    # Lhat^-1 L alpha is z^m
    for angles in (["0", "1/2"], ["0", "1/3", "2/3"]):
        cfg = BoundaryConfig.from_angles(angles)
        for weights in (WeightSequence.harmonic(4.0, 5.0),
                        WeightSequence.harmonic(1.0, 2.0)):
            N, m = 1024, 3
            alpha = np.zeros(N, dtype=complex)
            alpha[m:] = c_column(m, N - 1 - m, cfg, weights)    # column m of C_N
            e_m = np.zeros(N)
            e_m[m] = 1.0
            assert np.max(np.abs(bp_apply(alpha, cfg, weights) - e_m)) <= 1e-12


# --- decompose / reconstruct -----------------------------------------------------------

def test_reconstruct_trivial(cfg_pm1, harm1):
    alpha, taylor = reconstruct(np.zeros(4), np.zeros(2), cfg_pm1, harm1, 32)
    assert_allclose(alpha, 0.0, atol=1e-15)
    assert_allclose(taylor, 0.0, atol=1e-15)
    alpha1, taylor1 = reconstruct(np.array([1.0]), np.zeros(2), cfg_pm1, harm1, 8)
    assert_allclose(taylor1[:3], beta_coefficients(cfg_pm1), atol=1e-14)
    assert_allclose(taylor1[3:], 0.0, atol=1e-14)


def test_taylor_to_basis_inverts_h2(cfg_cube, harm1):
    rng = np.random.default_rng(10)
    alpha = rng.standard_normal(48) + 1j * rng.standard_normal(48)
    taylor = h2_coeffs(alpha, cfg_cube, harm1)
    assert_allclose(taylor_to_basis(taylor, cfg_cube, harm1), alpha, atol=1e-11)


def test_decompose_kernel_column(cfg_pm1, harm1):
    N = 256
    alpha = np.conj(eval_f_prefix(N, cfg_pm1.roots[0], cfg_pm1, harm1))
    dec = decompose(alpha, cfg_pm1, harm1)
    assert_allclose(dec.b, [1.0, 0.0], atol=1e-9)
    assert np.max(np.abs(dec.g)) <= 1e-9
    assert dec.residual <= 1e-10


def test_decompose_pure_quotient(cfg_pm1, harm1):
    N = 256
    alpha, _ = reconstruct(np.array([1.0]), np.zeros(2), cfg_pm1, harm1, N)
    dec = decompose(alpha, cfg_pm1, harm1)
    assert_allclose(dec.b, 0.0, atol=1e-10)
    assert abs(dec.g[0] - 1.0) <= 1e-10
    assert np.max(np.abs(dec.g[1:])) <= 1e-10


def test_decompose_mixed_example(cfg_pm1, harm1):
    N = 512
    g0 = np.array([0.5, 0.5])
    b0 = np.array([0.3, 0.0])
    alpha, _ = reconstruct(g0, b0, cfg_pm1, harm1, N)
    dec = decompose(alpha, cfg_pm1, harm1)
    assert np.max(np.abs(dec.b - b0)) <= 1e-6
    assert np.max(np.abs(dec.g[:2] - g0)) <= 1e-6
    assert np.max(np.abs(dec.g[2:])) <= 1e-6
    assert dec.residual <= 1e-9


@pytest.mark.parametrize("p", [0.75, 1.0, 2.0, 0.3])
def test_roundtrip_random(p):
    rng = np.random.default_rng(int(p * 100))
    N = 512
    for angles in (["0"], ["0", "1/2"], ["0", "1/3", "2/3"]):
        cfg = BoundaryConfig.from_angles(angles)
        weights = WeightSequence.harmonic(p, 2.0)
        for _ in range(3):
            deg = int(rng.integers(4, 33))
            g0 = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            g0 /= np.linalg.norm(g0)
            b0 = rng.standard_normal(cfg.J) + 1j * rng.standard_normal(cfg.J)
            b0 /= max(1.0, float(np.linalg.norm(b0)))
            alpha, _ = reconstruct(g0, b0, cfg, weights, N)
            dec = decompose(alpha, cfg, weights)
            assert np.max(np.abs(dec.b - b0)) <= 1e-6
            assert np.max(np.abs(dec.g[: deg + 1] - g0)) <= 1e-6
            assert np.max(np.abs(dec.g[deg + 1:])) <= 1e-6


def test_block_matches_column_calls():
    # T trials as columns give the T one-column results
    rng = np.random.default_rng(13)
    cfg = BoundaryConfig.from_angles(["1/8", "1/3", "17/24"])
    weights = WeightSequence.harmonic(0.75, 2.0)
    N, T = 512, 4
    g0 = rng.standard_normal((9, T)) + 1j * rng.standard_normal((9, T))
    b0 = rng.standard_normal((3, T)) + 1j * rng.standard_normal((3, T))
    alpha, taylor = reconstruct(g0, b0, cfg, weights, N)
    dec = decompose(alpha, cfg, weights)
    assert alpha.shape == taylor.shape == dec.g.shape == (N, T)
    assert dec.b.shape == (3, T)
    for t in range(T):
        alpha_t, taylor_t = reconstruct(g0[:, t], b0[:, t], cfg, weights, N)
        dec_t = decompose(alpha_t, cfg, weights)
        assert np.max(np.abs(alpha[:, t] - alpha_t)) <= 1e-12
        assert np.max(np.abs(taylor[:, t] - taylor_t)) <= 1e-12
        assert np.max(np.abs(dec.g[:, t] - dec_t.g)) <= 1e-12
        assert np.max(np.abs(dec.b[:, t] - dec_t.b)) <= 1e-12
        assert abs(dec.residual[t] - dec_t.residual) <= 1e-12
        assert abs(dec.tail_misfit[t] - dec_t.tail_misfit) <= 1e-12


@pytest.mark.parametrize("nb", [1, 3])
def test_reconstruct_rejects_wrong_loading_count(cfg_pm1, harm1, nb):
    with pytest.raises(ValueError, match=r"b \(%d,\)" % nb):
        reconstruct(np.ones(2), np.ones(nb), cfg_pm1, harm1, 64)


def test_decompose_rejects_short_prefix(cfg_pm1, harm1):
    with pytest.raises(ValueError, match=r"shape \(100,\)"):
        decompose(np.ones(100), cfg_pm1, harm1, N=128)


def test_decompose_matches_dense_triangular_oracle():
    # g and b against dense solves written without BasisBand: b is the least
    # squares fit of the quotient tails (rows >= max(2J + 2, N//4)) of alpha
    # on those of the kernel columns kappa, and g solves Lhat g = L(alpha -
    # kappa b) by scipy's solve_triangular.  kappa[n, j] = conj(f_n(z_j)) is
    # read off a dense L of N + J rows, which holds all of f_n for n < N, as
    # conj(sum_m L[m, n] z_j^m).  Random rational configs with J in 1..4,
    # harmonic weights, random prefixes of T = 1 or 3 columns.  Tolerance:
    # 1e-14 c^2 relative to max |g| and to max |b|, c the condition number
    # of the kernel columns' quotient tails: both routes solve the same
    # systems in another order, and least squares with a large misfit
    # amplifies such rounding by up to c^2 (Wedin 1973).
    rng = np.random.default_rng(61)
    N = 96
    for trial in range(12):
        cfg = random_rational_config(rng, J_max=4)
        weights = WeightSequence.harmonic(float(rng.uniform(0.6, 2.0)), 2.0)
        T = (1, 3)[trial % 2]
        L = dense_basis_matrix(N, cfg, weights)
        Lhat = dense_basis_matrix(N, cfg)
        vander = np.array(cfg.roots)[:, None] ** np.arange(N + cfg.J)
        kappa = np.conj(vander @ dense_basis_matrix(N + cfg.J, cfg, weights)).T[:N]
        alpha = rng.standard_normal((N, T)) + 1j * rng.standard_normal((N, T))
        quotient = solve_triangular(Lhat, L @ np.hstack([kappa, alpha]),
                                    lower=True, unit_diagonal=True)
        n0 = max(2 * cfg.J + 2, N // 4)
        H = quotient[n0:, :cfg.J]
        b, *_ = np.linalg.lstsq(H, quotient[n0:, cfg.J:], rcond=None)
        g = solve_triangular(Lhat, L @ (alpha - kappa @ b), lower=True,
                             unit_diagonal=True)
        tol = 1e-14 * np.linalg.cond(H) ** 2
        dec = decompose(alpha[:, 0] if T == 1 else alpha, cfg, weights)
        assert np.max(np.abs(dec.b.reshape(b.shape) - b)) <= tol * np.max(np.abs(b))
        assert np.max(np.abs(dec.g.reshape(g.shape) - g)) <= tol * np.max(np.abs(g))
