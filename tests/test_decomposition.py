import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bandkern import (
    BoundaryConfig,
    WeightSequence,
    beta_coefficients,
    boundary_coeffs,
    bp_apply,
    c_column,
    chat_apply,
    chat_column_norms,
    decompose,
    enforce_vanishing,
    eval_f_prefix,
    finite_section_matrix,
    gram_matrix,
    h2_coeffs,
    kernel_eval,
    p_polynomials,
    partial_gram,
    permissible,
    phi_from_roots,
    q_polynomial,
    reconstruct,
    taylor_to_basis,
)
from bandkern.decomposition import measure_q_bound

from conftest import random_rational_config


# --- Gram matrix -----------------------------------------------------------------

def test_gram_single_root(cfg_one, harm1):
    g = gram_matrix(cfg_one, harm1, tol=1e-10)
    assert g.matrix.shape == (1, 1)
    assert abs(g.matrix[0, 0] - (math.pi ** 2 / 6 - 1)) <= 1e-9
    assert g.cond == pytest.approx(1.0)


def test_gram_hermitian_and_invertible(cfg_cube, harm1):
    g = gram_matrix(cfg_cube, harm1, tol=1e-9)
    assert np.max(np.abs(g.matrix - g.matrix.conj().T)) <= 1e-12  # symmetrized
    assert np.isfinite(g.cond)
    assert g.cond < 1e6


def test_partial_gram_matches_full_for_large_prefix(cfg_pm1, harm1):
    gN = partial_gram(cfg_pm1, harm1, 200_000)
    g = gram_matrix(cfg_pm1, harm1, tol=1e-9)
    assert np.max(np.abs(gN.matrix - g.matrix)) <= 1e-4
    assert gN.truncation == 200_000


def test_boundary_coeffs_trivial_and_kernel_column(cfg_pm1, harm1):
    g = gram_matrix(cfg_pm1, harm1, tol=1e-10)
    b0 = boundary_coeffs(np.zeros(2), g)
    assert_allclose(b0, 0.0, atol=1e-14)
    # f = K(., z_1): values f(z_i) = K(z_i, z_1), loadings must be e_1
    fvals = np.array([kernel_eval(z, cfg_pm1.roots[0], cfg_pm1, harm1, 1e-10).value
                      for z in cfg_pm1.roots])
    b = boundary_coeffs(fvals, g)
    assert_allclose(b, [1.0, 0.0], atol=1e-8)


def test_boundary_coeffs_roundtrip_complex_config(harm1):
    cfg = BoundaryConfig.from_angles(["1/8", "1/3", "17/24"])
    g = gram_matrix(cfg, harm1, tol=1e-10)
    rng = np.random.default_rng(3)
    b0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    # f(z_i) = sum_j b0_j K(z_i, z_j) = sum_j b0_j A[j, i]
    fvals = g.matrix.T @ b0
    assert_allclose(boundary_coeffs(fvals, g), b0, atol=1e-8)


# --- polynomial families ------------------------------------------------------------

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


# --- the two encodings ---------------------------------------------------------------

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


def test_permissible_flags(cfg_pm1, harm1):
    rng = np.random.default_rng(8)
    alpha = rng.standard_normal(64)
    raw = permissible(alpha, cfg_pm1, harm1)
    assert not raw.enforced
    fixed = enforce_vanishing(alpha, cfg_pm1, harm1)
    assert fixed.enforced
    assert np.max(fixed.residuals) <= 1e-10
    with pytest.raises(ValueError):
        chat_apply(raw, cfg_pm1, harm1)


def test_chat_apply_zero(cfg_pm1, harm1):
    z = permissible(np.zeros(32), cfg_pm1, harm1)
    assert z.enforced
    assert_allclose(chat_apply(z, cfg_pm1, harm1), 0.0, atol=1e-15)


def test_chat_agrees_with_bp_on_permissible():
    rng = np.random.default_rng(9)
    N = 256
    for angles in (["0"], ["0", "1/2"], ["0", "1/3", "2/3"]):
        cfg = BoundaryConfig.from_angles(angles)
        weights = WeightSequence.harmonic(1.0, 2.0)
        for _ in range(7):
            alpha = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            alpha /= np.linalg.norm(alpha)
            perm = enforce_vanishing(alpha, cfg, weights)
            gb = bp_apply(perm.alpha, cfg, weights)
            gc = chat_apply(perm, cfg, weights)
            assert np.max(np.abs(gb - gc)) <= 1e-6


def test_chat_recovers_shifted_phi():
    # alpha of phi * z^m: the underlying function vanishes at the roots, so
    # chat acts like the plain encoding up to the prefix-tail residual;
    # fast-decaying weights push that residual below 1e-7
    from bandkern import PermissibleSequence

    cfg = BoundaryConfig.from_angles(["0", "1/2"])
    weights = WeightSequence.harmonic(4.0, 5.0)
    N, m = 1024, 3
    alpha = np.zeros(N, dtype=complex)
    alpha[m:] = c_column(m, N - 1 - m, cfg, weights)    # column m of C_N
    perm = PermissibleSequence(alpha, True, permissible(alpha, cfg, weights).residuals)
    g = chat_apply(perm, cfg, weights)
    e_m = np.zeros(N)
    e_m[m] = 1.0
    assert np.max(np.abs(g - e_m)) <= 1e-7


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


# --- finite sections and column growth ---------------------------------------------

def test_finite_section_single_root(cfg_one, harm1):
    fs = finite_section_matrix(5, cfg_one, harm1)
    assert fs.B.shape == (1, 1)
    expect = (1 - harm1.a(5)) * 1.0  # z_1 = 1
    assert abs(fs.B[0, 0] - expect) <= 1e-14
    assert fs.invertible


def test_finite_section_factorization(cfg_cube, harm1):
    for n in (0, 4, 40):
        fs = finite_section_matrix(n, cfg_cube, harm1)
        rows = np.arange(n, n + cfg_cube.J)
        D1 = np.diag(np.asarray(harm1.one_minus_a(rows), dtype=complex))
        D2 = np.diag([z ** n for z in cfg_cube.roots])
        assert np.max(np.abs(fs.B - D1 @ fs.C @ D2)) <= 1e-12
        assert fs.invertible


def test_finite_section_invertible_sampled(cfg_pm1, harm1):
    for n in range(0, 24):
        assert finite_section_matrix(n, cfg_pm1, harm1).invertible


def test_finite_section_limit(cfg_pm1, harm1):
    gaps = []
    for n in (100, 1000, 10000):
        fs = finite_section_matrix(n, cfg_pm1, harm1)
        gaps.append(np.max(np.abs(fs.C - fs.limit)))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_chat_columns_diverge_for_slow_weights(cfg_pm1):
    slow = WeightSequence.power_law(0.25)
    norms = chat_column_norms(cfg_pm1, slow, [64, 256, 1024, 4096])
    assert np.all(np.diff(norms) > 0)
    assert norms[-1] / norms[0] > 2.0


def test_chat_columns_bounded_for_harmonic(cfg_pm1, harm1):
    norms = chat_column_norms(cfg_pm1, harm1, [64, 256, 1024, 4096])
    assert norms[-1] < 3.0
