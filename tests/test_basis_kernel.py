import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from numpy.testing import assert_allclose

from bandkern import (
    BasisBand,
    BoundaryConfig,
    DomainError,
    TruncationError,
    WeightSequence,
    beta_coefficients,
    domain_report,
    eval_f_prefix,
    kernel_eval,
)

from conftest import random_rational_config


# --- basis coefficients -------------------------------------------------------

def test_basis_coeffs_powerlaw_example(cfg_pm1, pow2):
    # the Taylor data of f_n sits at degrees n..n+J
    e = np.eye(6)
    L = BasisBand(cfg_pm1, pow2, 6)
    assert_allclose(L.matvec(e[0]), [1.0, 0.0, -9.0 / 16.0, 0.0, 0.0, 0.0],
                    atol=1e-15)
    y2 = L.matvec(e[2])
    assert_allclose(y2[:2], 0.0, atol=0)
    assert abs(y2[4] + 225.0 / 256.0) <= 1e-15


def test_basis_coeffs_scaling_identity(cfg_cube, harm1):
    # with the scaling frozen at 1 the coefficients are exactly beta
    beta = beta_coefficients(cfg_cube)
    assert_allclose(BasisBand(cfg_cube, None, 1).ab[:, 0], beta, atol=0)
    # and in general they are beta_k a_n^k
    a3 = harm1.a(3)
    assert_allclose(BasisBand(cfg_cube, harm1, 1, start=3).ab[:, 0],
                    beta * a3 ** np.arange(4), atol=1e-15)


# --- pointwise evaluation -------------------------------------------------------

def test_eval_f_at_zero(cfg_pm1, harm1):
    assert_allclose(eval_f_prefix(6, 0.0, cfg_pm1, harm1), [1, 0, 0, 0, 0, 0],
                    atol=0)


def test_eval_f_examples(cfg_one, cfg_pm1, harm1):
    # J=1, a_0 = 1/2: f_0(1) = 1 - a_0 = 1/2
    assert abs(eval_f_prefix(1, 1.0, cfg_one, harm1)[0] - 0.5) <= 1e-15
    # J=2 roots +-1 at z=1: f_n(1) = 1 - a_n^2
    f = eval_f_prefix(5, 1.0, cfg_pm1, harm1)
    for n in (0, 1, 4):
        an = harm1.a(n)
        assert abs(f[n] - (1 - an ** 2)) <= 1e-14


def test_eval_f_prefix_matches_scalar(cfg_cube, harm1):
    # scalar oracle: f_n(z) = z^n * phi(a_n z) by Horner in phi, one n at a time
    phi = beta_coefficients(cfg_cube)
    for z in (0.3 + 0.4j, cfg_cube.roots[1], 0.9):
        pref = eval_f_prefix(12, z, cfg_cube, harm1)
        direct = [complex(z) ** n * P.polyval(harm1.a(n) * complex(z), phi)
                  for n in range(12)]
        assert_allclose(pref, direct, atol=1e-12)


def test_eval_f_prefix_start_offset(cfg_pm1, pow2):
    full = eval_f_prefix(20, 0.7, cfg_pm1, pow2)
    tail = eval_f_prefix(5, 0.7, cfg_pm1, pow2, start=15)
    assert_allclose(tail, full[15:], atol=1e-14)


def test_eval_f_prefix_at_root_matches_mpmath():
    # f_n(z_j) = z_j^n (1 - a_n) phi_j(a_n z_j) against 30 digits; z_j^n
    # must not drift with n
    cfg = BoundaryConfig.from_angles(["1/7", "2/5"])
    weights = WeightSequence.harmonic(0.75, 2.0)
    ns = (4095, 32767, 131071)
    with mpmath.workdps(30):
        roots = [mpmath.expjpi(2 * mpmath.mpf(q.numerator) / q.denominator)
                 for q in cfg.angles]
        for j, z in enumerate(cfg.roots):
            f = eval_f_prefix(ns[-1] + 1, z, cfg, weights)
            for n in ns:
                u = mpmath.mpf(0.75) / (n + 2)
                true = roots[j] ** n * u * (1 - mpmath.conj(roots[1 - j])
                                            * (1 - u) * roots[j])
                assert abs(f[n] - complex(true)) <= 1e-14 * abs(complex(true))


@pytest.mark.parametrize("radius", [0.99, 0.999])
@pytest.mark.parametrize("z_unit", [
    -1.0 + 0.0j,                                  # negative real z
    complex(math.cos(math.pi - 1e-9), math.sin(math.pi - 1e-9)),
    complex(math.cos(1e-6 - math.pi), math.sin(1e-6 - math.pi)),
    complex(math.cos(2.3), math.sin(2.3)),
    complex(math.cos(-0.4), math.sin(-0.4)),
])
def test_eval_f_prefix_near_boundary_matches_mpmath(radius, z_unit):
    # f_n(z) = z^n phi(a_n z) at 30 digits, the float z taken as exact.
    # Tolerance: z^n carries about n u relative from the rounding of |z|
    # and arg z (for any way of forming it), and Horner's rule about
    # 2 (J + 1) u of the majorant M_n = |z|^n sum_k |beta_k| |a_n z|^k;
    # the test allows 4 (n + 2 (J + 1)) u M_n, u = 2^-53
    cfg = BoundaryConfig.from_angles(["1/7", "2/5", "5/9"])
    weights = WeightSequence.harmonic(0.75, 2.0)
    z = radius * z_unit
    ns = (0, 1, 2, 100, 1000, 4095, 8191, 16383, 16384)
    f = eval_f_prefix(ns[-1] + 1, z, cfg, weights)
    beta = np.abs(beta_coefficients(cfg))
    with mpmath.workdps(30):
        conj_roots = [mpmath.expjpi(-2 * mpmath.mpf(q.numerator) / q.denominator)
                      for q in cfg.angles]
        for n in ns:
            a = 1 - mpmath.mpf(0.75) / (n + 2)
            true = mpmath.mpc(z) ** n
            for w in conj_roots:
                true *= 1 - w * a * mpmath.mpc(z)
            az = float(a) * abs(z)
            majorant = abs(z) ** n * sum(b * az ** k for k, b in enumerate(beta))
            tol = 4 * (n + 2 * (cfg.J + 1)) * 2.0 ** -53 * majorant
            assert abs(f[n] - complex(true)) <= tol


# --- kernel evaluation ---------------------------------------------------------

def test_kernel_at_origin(cfg_pm1, harm1):
    kv = kernel_eval(0.0, 0.0, cfg_pm1, harm1)
    assert kv.value == pytest.approx(1.0, abs=1e-14)
    phi = beta_coefficients(cfg_pm1)
    z = 0.37 - 0.11j
    kv2 = kernel_eval(z, 0.0, cfg_pm1, harm1)
    assert abs(kv2.value - P.polyval(harm1.a(0) * z, phi)) <= 1e-12


def test_kernel_closed_form(cfg_one, harm1):
    kv = kernel_eval(1.0, 1.0, cfg_one, harm1, 1e-8)
    assert abs(kv.value - (math.pi ** 2 / 6 - 1)) <= 1e-8
    assert kv.tail_bound <= 1e-8


def test_kernel_tail_bound_interior_mixed(cfg_pm1, harm1):
    # partial-sum oracle: geometric decay makes its own tail negligible
    for z, w in [(0.8, 0.5j), (1.0, 0.4), (-1.0, -0.7j)]:
        kv = kernel_eval(z, w, cfg_pm1, harm1, 1e-6)
        N = 2000
        fz = eval_f_prefix(N, z, cfg_pm1, harm1)
        fw = eval_f_prefix(N, w, cfg_pm1, harm1)
        brute = complex(np.sum(fz * np.conj(fw)))
        assert abs(kv.value - brute) <= kv.tail_bound + 1e-12


def test_kernel_special_pair_closed_forms(cfg_pm1, harm1):
    # with a_n = (n+1)/(n+2): (1 - a_n^2)^2 = 4/(n+2)^2 - 4/(n+2)^3 + 1/(n+2)^4,
    # so K(1,1) and K(1,-1) reduce to zeta / alternating-zeta values
    from scipy.special import zeta

    k11 = 4 * (zeta(2, 1) - 1) - 4 * (zeta(3, 1) - 1) + (zeta(4, 1) - 1)
    kv = kernel_eval(1.0, 1.0, cfg_pm1, harm1, 1e-9)
    assert abs(kv.value - k11) <= kv.tail_bound + 1e-12
    assert kv.tail_bound <= 1e-9

    def eta(s):
        return (1 - 2.0 ** (1 - s)) * zeta(s, 1)

    k1m1 = 4 * (1 - eta(2)) - 4 * (1 - eta(3)) + (1 - eta(4))
    kvm = kernel_eval(1.0, -1.0, cfg_pm1, harm1, 1e-9)
    assert abs(kvm.value - k1m1) <= kvm.tail_bound + 1e-12
    assert kvm.tail_bound <= 1e-9


def test_kernel_tail_bound_covers_long_table(cfg_one):
    # one huge weight deep inside a table longer than any fixed sample range
    tail = WeightSequence.harmonic(1.0, 2.0)
    values = list(tail.prefix(6000))
    values[4500] = 1e6
    weights = WeightSequence.from_table(values, tail)
    kv = kernel_eval(0.995, 0.995, cfg_one, weights, tol=1e-8)
    true = np.sum(np.abs(eval_f_prefix(200_000, 0.995, cfg_one, weights)) ** 2)
    assert abs(true - kv.value) <= kv.tail_bound <= 1e-8


def test_kernel_hermitian(cfg_cube, harm1):
    pts = [0.5, 0.2 + 0.6j, cfg_cube.roots[0], cfg_cube.roots[2]]
    for z in pts:
        for w in pts:
            kzw = kernel_eval(z, w, cfg_cube, harm1, 1e-9)
            kwz = kernel_eval(w, z, cfg_cube, harm1, 1e-9)
            assert abs(kzw.value - np.conj(kwz.value)) <= (
                kzw.tail_bound + kwz.tail_bound + 1e-12)


def test_kernel_positive_semidefinite(cfg_pm1, harm1):
    pts = [0.0, 0.5, -0.5, 0.3j, 1.0, -1.0]
    G = np.zeros((len(pts), len(pts)), dtype=complex)
    tails = 0.0
    for i, z in enumerate(pts):
        for j, w in enumerate(pts):
            kv = kernel_eval(z, w, cfg_pm1, harm1, 1e-9)
            G[i, j] = kv.value
            tails += kv.tail_bound
    G = 0.5 * (G + G.conj().T)
    lmin = float(np.min(np.linalg.eigvalsh(G)))
    assert lmin >= -tails - 1e-12


def test_kernel_rejects_outside_domain(cfg_pm1, harm1):
    with pytest.raises(DomainError):
        kernel_eval(1.2, 0.0, cfg_pm1, harm1)
    with pytest.raises(DomainError):
        kernel_eval(1j, 0.0, cfg_pm1, harm1)  # on the circle, not a root


def test_kernel_diverges_for_slow_weights(cfg_pm1):
    slow = WeightSequence.power_law(0.4)
    with pytest.raises(TruncationError):
        kernel_eval(1.0, 1.0, cfg_pm1, slow)


def test_reproducing_property_finite(cfg_pm1, harm1):
    rng = np.random.default_rng(1)
    N = 64
    alpha = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    for w in (0.5, -0.3 + 0.2j, 0.9):
        fw = eval_f_prefix(N, w, cfg_pm1, harm1)
        direct = np.sum(alpha * fw)
        via_kernel_column = np.sum(alpha * np.conj(np.conj(fw)))
        assert abs(direct - via_kernel_column) <= 1e-9


# --- domain report ---------------------------------------------------------------

def test_domain_report_converging_at_root(cfg_one, harm1):
    # sum_{n<N} (n+2)^-2 falls short of pi^2/6 - 1 by less than 1/(N+1)
    N = 4096
    rep = domain_report(1.0, cfg_one, harm1, N=N)
    assert rep.verdict == "converging"
    assert 0 < (math.pi ** 2 / 6 - 1) - rep.partial_sums[-1] <= 1.0 / (N + 1)


def test_domain_report_origin(cfg_pm1, harm1):
    rep = domain_report(0.0, cfg_pm1, harm1, N=64)
    assert rep.verdict == "converging"
    assert rep.partial_sums[-1] == pytest.approx(1.0)


def test_domain_report_diverging_on_circle(cfg_pm1, harm1):
    rep = domain_report(1j, cfg_pm1, harm1, N=4096)
    assert rep.verdict == "diverging"


def test_domain_verdicts_follow_the_dichotomy():
    # exactly the J roots converge when sum |1 - a_n|^2 does, and none when
    # it does not; other circle points diverge and interior points converge,
    # at the smallest truncation as at 4096
    rng = np.random.default_rng(28)
    weight_cases = ((WeightSequence.harmonic(1.0, 2.0), True),
                    (WeightSequence.power_law(0.4), False),
                    (WeightSequence.power_law(2.0), True))
    for _ in range(6):
        cfg = random_rational_config(rng, J_max=4)
        off_roots = []
        while len(off_roots) < 16:
            z = np.exp(2j * np.pi * rng.uniform())
            if min(abs(z - r) for r in cfg.roots) > 1e-3:
                off_roots.append(z)
        inside = [0.0, 0.5j, 0.99 * np.exp(2j * np.pi * rng.uniform())]
        for weights, summable in weight_cases:
            for N in (16, 4096):
                def verdict(z):
                    return domain_report(z, cfg, weights, N=N).verdict
                roots = {verdict(z) for z in cfg.roots}
                assert roots == {"converging" if summable else "diverging"}
                assert {verdict(z) for z in off_roots} == {"diverging"}
                assert {verdict(z) for z in inside} == {"converging"}


def test_domain_report_rejects_outside(cfg_pm1, harm1):
    with pytest.raises(DomainError):
        domain_report(1.5, cfg_pm1, harm1)
    with pytest.raises(DomainError):
        domain_report(complex("nan"), cfg_pm1, harm1)
    with pytest.raises(ValueError):
        domain_report(0.5, cfg_pm1, harm1, N=8)


# --- Hardy-space coefficient map ----------------------------------------------

def test_h2_coeffs_unit_vectors(cfg_pm1, pow2):
    e0 = np.zeros(8)
    e0[0] = 1.0
    L = BasisBand(cfg_pm1, pow2, 8)
    y = L.matvec(e0)
    beta = beta_coefficients(cfg_pm1)
    assert_allclose(y[:3], beta * pow2.a(0) ** np.arange(3), atol=1e-15)
    assert_allclose(y[3:], 0.0, atol=1e-15)
    e3 = np.zeros(8)
    e3[3] = 1.0
    y3 = L.matvec(e3)
    assert_allclose(y3[:3], 0.0, atol=1e-15)   # supported on degrees 3..3+J
    assert_allclose(y3[6:], 0.0, atol=1e-15)
    assert y3[3] == 1.0 and abs(y3[5]) > 0


def test_h2_norm_bound_random():
    rng = np.random.default_rng(2)
    for _ in range(10):
        cfg = random_rational_config(rng, J_max=4)
        weights = WeightSequence.harmonic(float(rng.uniform(0.6, 2.0)), 2.0)
        N = 128
        alpha = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        alpha /= np.linalg.norm(alpha)
        y = BasisBand(cfg, weights, N).matvec(alpha)
        beta = np.abs(beta_coefficients(cfg))
        a_sup = max(1.0, float(np.max(np.abs(weights.prefix(N)))))
        c = float(np.max(beta * a_sup ** np.arange(cfg.J + 1)))
        assert np.sum(np.abs(y) ** 2) <= (cfg.J + 1) * c ** 2 + 1e-12
