import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bandkern import (
    BoundaryConfig,
    Poly,
    WeightSequence,
    beta_coefficients,
    bp_apply,
    c_column,
    decompose,
    eval_f_prefix,
    h2_coeffs,
    kernel_eval,
    partial_gram,
    phi_from_roots,
    q_polynomial,
    reconstruct,
    taylor_to_basis,
)
from bandkern.decomposition import measure_q_bound

from conftest import random_rational_config


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
    homogeneous tail rule; column k of Lhat^-1 L holds p_{n-k}(a_k) at row n."""
    beta = beta_coefficients(cfg)
    J = len(beta) - 1
    ps = [Poly([1.0])]
    for n in range(1, n_max + 1):
        if n <= J:
            coeffs = np.zeros(n + 1, dtype=complex)
            coeffs[n] = beta[n]
            acc = Poly(coeffs, trim=False)
        else:
            acc = Poly([0.0])
        for i in range(1, min(n, J) + 1):
            acc = acc - beta[i] * ps[n - i]
        ps.append(acc)
    return ps


def test_p_polynomials_first_members(cfg_cube):
    beta = beta_coefficients(cfg_cube)
    ps = p_polynomials(3, cfg_cube)
    assert_allclose(ps[0].coeffs, [1.0])
    expect_p1 = np.array([-beta[1], beta[1]])
    assert_allclose(ps[1].coeffs[: 2], expect_p1, atol=1e-14)


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
            expect = np.array([ps[n](a_k) for n in range(N - k)])
            assert_allclose(col[k: N], expect[: N - k], atol=1e-12)


def test_q_polynomial_single_root(cfg_one):
    q0 = q_polynomial(0, cfg_one)
    assert_allclose(q0.coeffs, [1.0, -1.0], atol=1e-14)
    # J=1: every Q_n is 1 - x
    for n in (-3, -1, 5):
        assert_allclose(q_polynomial(n, cfg_one).coeffs, [1.0, -1.0], atol=1e-14)


def test_q_recursion_random_configs():
    rng = np.random.default_rng(5)
    for _ in range(12):
        cfg = random_rational_config(rng, J_max=5)
        beta = beta_coefficients(cfg)
        J = cfg.J
        for n in range(0, 2 * J + 1):
            qs = [q_polynomial(n - i, cfg) for i in range(min(n, J) + 1)]
            for _ in range(10):
                x = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / math.sqrt(2)
                s = sum(beta[i] * qs[i](x) for i in range(min(n, J) + 1))
                target = beta[n + 1] * (x ** (n + 1) - 1) if n + 1 <= J else 0.0
                assert abs(s - target) <= 1e-9


def test_q_vanishes_at_one():
    rng = np.random.default_rng(6)
    for _ in range(8):
        cfg = random_rational_config(rng, J_max=5)
        for n in (-5, -1, 0, 3, 11):
            assert abs(q_polynomial(n, cfg)(1.0)) <= 1e-12


def test_q_bound_constant_finite(cfg_pm1, harm1):
    c = measure_q_bound(cfg_pm1, harm1)
    assert 0 < c < 50.0
    # the bound it certifies: |Q_n(a_m)| <= c (1 - a_m) on a fresh sample
    for n in (-7, 2, 19):
        q = q_polynomial(n, cfg_pm1)
        for m in (3, 33, 333):
            assert abs(q(harm1.a(m))) <= (c + 1e-9) * harm1.one_minus_a(m)


# --- the quotient encoding -----------------------------------------------------------

def test_bp_apply_first_column(cfg_pm1, harm1):
    N = 24
    e0 = np.zeros(N)
    e0[0] = 1.0
    g = bp_apply(e0, cfg_pm1, harm1)
    ps = p_polynomials(N, cfg_pm1)
    a0 = harm1.a(0)
    assert_allclose(g, [ps[n](a0) for n in range(N)], atol=1e-12)


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
    assert_allclose(taylor1[:3], phi_from_roots(cfg_pm1).coeffs, atol=1e-14)
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
