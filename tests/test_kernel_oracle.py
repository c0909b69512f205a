"""Certified kernel values against 30-digit oracles that do not use the
residue split: at a pair of roots every series sum_n u_n^s rho^n is a Lerch
transcendent Phi(rho, s, c) (mpmath.lerchphi), with u_n = 1 - a_n and
rho = z_i conj(z_j); inside the disk the series is summed term by term."""

import cmath
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from bandkern import BoundaryConfig, TruncationError, WeightSequence, kernel_eval

DPS = 30


def _poly_mul(a, b):
    out = [mpmath.mpc(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return out


def _factors_in_u(roots, x, skip=None):
    """Coefficients in u of prod_{k != skip} (1 - conj(z_k) (1 - u) x)."""
    poly = [mpmath.mpc(1)]
    for k, zk in enumerate(roots):
        if k != skip:
            t = mpmath.conj(zk) * x
            poly = _poly_mul(poly, [1 - t, t])
    return poly


def _u(kind, p, c, n):
    return p / (n + c) if kind == "harmonic" else mpmath.mpf(n + 2) ** -p


def _lerch_sum(kind, p, c, x, s, start):
    """sum_{n >= start} u_n^s x^n for the tail rule of the weights."""
    if kind == "harmonic":
        return x ** start * p ** s * mpmath.lerchphi(x, s, c + start)
    return x ** start * mpmath.lerchphi(x, p * s, 2 + start)


def kernel_mp(angles, z, w, kind, p, c=2.0, table=()):
    """K(z, w) at 30 digits; z and w are both root indices or both interior.

    K = sum_n x^n P(u_n) with x = z conj(w) and P(u) = g_z(u) conj(g_w(u)),
    g_x(u) = phi((1 - u) x); at a root z_i the vanishing factor of phi is
    split off as u, which turns P into u^2 P_ij(u).  Between roots the
    table head n < T is summed term by term and the tail rule in Lerch
    transcendents from n = T; inside the disk every term is summed until
    the geometric rest is below 1e-25.
    """
    with mpmath.workdps(DPS):
        roots = [mpmath.expjpi(2 * mpmath.mpf(q.numerator) / q.denominator)
                 for q in angles]
        pm, cm = mpmath.mpf(p), mpmath.mpf(c)
        at_root = isinstance(z, int)
        if at_root:
            q = (angles[z] - angles[w]) % 1
            x = mpmath.expjpi(2 * mpmath.mpf(q.numerator) / q.denominator)
            pz = _factors_in_u(roots, roots[z], z)
            pw = _factors_in_u(roots, roots[w], w)
        else:
            x = mpmath.mpc(z) * mpmath.conj(mpmath.mpc(w))
            pz = _factors_in_u(roots, mpmath.mpc(z))
            pw = _factors_in_u(roots, mpmath.mpc(w))
        P = _poly_mul(pz, [mpmath.conj(v) for v in pw])
        if not at_root:
            u_max = max(1, pm / cm if kind == "harmonic" else 1)
            bound = sum(abs(v) for v in P) * u_max ** len(P)
            N = 1 if x == 0 else max(len(table), int(mpmath.ceil(
                mpmath.log(1e-25 * (1 - abs(x)) / bound) / mpmath.log(abs(x)))))
            table = list(table) + [1 - _u(kind, pm, cm, n)
                                   for n in range(len(table), N)]
        total = mpmath.mpc(0)
        for n, a in enumerate(table):
            u = 1 - mpmath.mpc(a)
            term = sum(coef * u ** m for m, coef in enumerate(pz))
            term *= mpmath.conj(sum(coef * u ** m for m, coef in enumerate(pw)))
            if at_root:
                term *= u * mpmath.conj(u)
            total += x ** n * term
        if at_root:
            for m, coef in enumerate(P):
                total += coef * _lerch_sum(kind, pm, cm, x, m + 2, len(table))
        return complex(total)


def _check(kv, want, tol):
    assert abs(want - kv.value) <= kv.tail_bound <= tol


def _rational_angles(max_J):
    return st.integers(1, max_J).flatmap(
        lambda J: st.lists(
            st.integers(1, 12).flatmap(
                lambda den: st.integers(0, den - 1).map(lambda k: Fraction(k, den))),
            min_size=J, max_size=J, unique=True))


rational_configs = _rational_angles(4)

weight_params = st.one_of(
    st.tuples(st.just("harmonic"), st.floats(0.3, 3.0)),
    st.tuples(st.just("powerlaw"),
              st.floats(0.55, 3.0, exclude_min=True)))

interior = st.complex_numbers(max_magnitude=0.9, allow_nan=False,
                              allow_infinity=False)

near_boundary = st.tuples(st.floats(0.95, 0.995), st.floats(-math.pi, math.pi)).map(
    lambda polar: cmath.rect(*polar))


def _weights(kind, p):
    return (WeightSequence.harmonic(p, 2.0) if kind == "harmonic"
            else WeightSequence.power_law(p))


@settings(max_examples=20, deadline=None)
@given(rational_configs, weight_params, st.sampled_from([1e-8, 1e-10]),
       st.data())
def test_root_pairs_match_lerch_oracle(angles, params, tol, data):
    cfg = BoundaryConfig.from_angles(angles)
    i = data.draw(st.integers(0, cfg.J - 1))
    j = data.draw(st.integers(0, cfg.J - 1))
    kv = kernel_eval(cfg.roots[i], cfg.roots[j], cfg, _weights(*params), tol)
    assert kv.route == "closed_form" and kv.truncation_n == 0
    _check(kv, kernel_mp(angles, i, j, *params), tol)


@settings(max_examples=20, deadline=None)
@given(rational_configs, weight_params, st.sampled_from([1e-8, 1e-10]),
       interior, interior)
def test_interior_pairs_match_direct_oracle(angles, params, tol, z, w):
    cfg = BoundaryConfig.from_angles(angles)
    kv = kernel_eval(z, w, cfg, _weights(*params), tol)
    assert kv.route == "explicit"
    _check(kv, kernel_mp(angles, z, w, *params), tol)


@settings(max_examples=12, deadline=None)
@given(_rational_angles(3), weight_params, near_boundary, near_boundary)
def test_near_boundary_interior_pairs_match_direct_oracle(angles, params, z, w):
    # |z|, |w| in [0.95, 0.995]: sums of up to about 3500 terms.  Tolerance:
    # the contract |oracle - value| <= tail_bound <= tol with tol = 1e-8.
    # With J <= 3, |phi| <= 8 and sum |t_n| <= 64 / (1 - 0.995^2), so the
    # rounding allowance u (N sum |t_n| + ...) stays near 2e-9, below tol
    cfg = BoundaryConfig.from_angles(angles)
    kv = kernel_eval(z, w, cfg, _weights(*params), 1e-8)
    assert kv.route == "explicit"
    _check(kv, kernel_mp(angles, z, w, *params), 1e-8)


def test_table_weights_match_lerch_oracle():
    # a complex table head, summed explicitly, then the harmonic rule from T
    angles = [Fraction(0), Fraction(1, 3), Fraction(3, 4)]
    cfg = BoundaryConfig.from_angles(angles)
    values = [0.5, 0.9 + 0.1j, 0.2, 0.95, 0.7 - 0.3j]
    weights = WeightSequence.from_table(values, WeightSequence.harmonic(1.5, 2.0))
    for i, j in [(0, 0), (1, 2), (2, 0)]:
        kv = kernel_eval(cfg.roots[i], cfg.roots[j], cfg, weights, 1e-10)
        assert kv.route == "closed_form" and kv.truncation_n == len(values)
        _check(kv, kernel_mp(angles, i, j, "harmonic", 1.5, table=values), 1e-10)


def test_roots_given_as_points_use_abel_estimate():
    # without exact angles the order of rho is unknown off the diagonal
    angles = [Fraction(0), Fraction(1, 3), Fraction(2, 3)]
    cfg = BoundaryConfig.from_points(BoundaryConfig.from_angles(angles).roots)
    weights = WeightSequence.harmonic(1.0)
    kv = kernel_eval(cfg.roots[0], cfg.roots[1], cfg, weights, 1e-8)
    assert kv.route == "explicit" and kv.rho_order is None and kv.tail_abel > 0
    _check(kv, kernel_mp(angles, 0, 1, "harmonic", 1.0), 1e-8)
    kv = kernel_eval(cfg.roots[2], cfg.roots[2], cfg, weights, 1e-10)
    assert kv.route == "closed_form" and kv.rho_order == 1
    _check(kv, kernel_mp(angles, 2, 2, "harmonic", 1.0), 1e-10)


def test_near_boundary_interior_pair_stays_within_tol():
    # summing 1400 terms of modulus up to about 5e2 leaves a rounding
    # allowance comparable to tol; it has to be budgeted inside tol
    angles = [Fraction(1, 4), Fraction(3, 8), Fraction(5, 8), Fraction(0)]
    cfg = BoundaryConfig.from_angles(angles)
    z = -0.18979585601376894 - 0.966742231141262j
    w = -0.27467513190923754 - 0.9543226913432208j
    kv = kernel_eval(z, w, cfg, WeightSequence.harmonic(0.7), 1e-10)
    _check(kv, kernel_mp(angles, z, w, "harmonic", 0.7), 1e-10)
    assert kv.tail_rounding > 0


def test_rounding_allowance_beyond_tol_raises():
    cfg = BoundaryConfig.from_angles(["0", "1/2"])
    with pytest.raises(TruncationError):
        kernel_eval(0.99, 0.99, cfg, WeightSequence.harmonic(1.0), 1e-15)
