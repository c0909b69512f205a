"""Certified kernel values against 30-digit oracles that share no route
with the package: at a pair of roots every series sum_n u_n^s rho^n is a
Lerch transcendent Phi(rho, s, c) (mpmath.lerchphi), with u_n = 1 - a_n and
rho = z_i conj(z_j); inside the disk the series is summed term by term."""

import cmath
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from bandkern import BoundaryConfig, TruncationError, WeightSequence, kernel_eval
from bandkern import core

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


def _turns(q):
    """An angle in turns, exact for a Fraction and for a float."""
    if isinstance(q, Fraction):
        return mpmath.mpf(q.numerator) / q.denominator
    return mpmath.mpf(q)


def kernel_mp(angles, z, w, kind, p, c=2.0, table=()):
    """K(z, w) at 30 digits; z and w are both root indices or both interior.
    The roots are exp(2 pi i q) for the angles q in turns, Fractions or
    floats.

    K = sum_n x^n P(u_n) with x = z conj(w) and P(u) = g_z(u) conj(g_w(u)),
    g_x(u) = phi((1 - u) x); at a root z_i the vanishing factor of phi is
    split off as u, which turns P into u^2 P_ij(u).  Between roots the
    table head n < T is summed term by term and the tail rule in Lerch
    transcendents from n = T; inside the disk every term is summed until
    the geometric rest is below 1e-25.
    """
    with mpmath.workdps(DPS):
        roots = [mpmath.expjpi(2 * _turns(q)) for q in angles]
        pm, cm = mpmath.mpf(p), mpmath.mpf(c)
        at_root = isinstance(z, int)
        if at_root:
            x = mpmath.expjpi(2 * (_turns(angles[z]) - _turns(angles[w])))
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
    assert kv.route == ("closed_form" if i == j else "euler")
    assert (kv.truncation_n == 0) == (i == j)
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
        assert kv.route == ("closed_form" if i == j else "euler")
        assert (kv.truncation_n == len(values)) == (i == j)
        _check(kv, kernel_mp(angles, i, j, "harmonic", 1.5, table=values), 1e-10)


def test_roots_given_as_points_use_euler_route():
    # without exact angles theta is the phase of z_i conj(z_j); every
    # off-diagonal pair of the cube roots certifies tol 1e-10 against the
    # rational oracle, the float roots being within a few u of it
    angles = [Fraction(0), Fraction(1, 3), Fraction(2, 3)]
    cfg = BoundaryConfig.from_points(BoundaryConfig.from_angles(angles).roots)
    weights = WeightSequence.harmonic(1.0)
    for i, j in [(0, 1), (1, 2), (2, 0)]:
        kv = kernel_eval(cfg.roots[i], cfg.roots[j], cfg, weights, 1e-10)
        assert kv.route == "euler" and 0 < kv.truncation_n < 200
        _check(kv, kernel_mp(angles, i, j, "harmonic", 1.0), 1e-10)
    kv = kernel_eval(cfg.roots[2], cfg.roots[2], cfg, weights, 1e-10)
    assert kv.route == "closed_form" and kv.truncation_n == 0
    _check(kv, kernel_mp(angles, 2, 2, "harmonic", 1.0), 1e-10)


def _arguments(cfg):
    """The exact arguments, in turns, of a configuration's float roots."""
    return [mpmath.arg(mpmath.mpc(z)) / (2 * mpmath.pi) for z in cfg.roots]


def _off_diagonal(J):
    return st.tuples(st.integers(0, J - 1), st.integers(1, J - 1)).map(
        lambda ij: (ij[0], (ij[0] + ij[1]) % J))


@settings(max_examples=15, deadline=None)
@given(_rational_angles(4).filter(lambda a: len(a) >= 2), weight_params,
       st.data())
def test_rational_roots_given_as_points_match_lerch_oracle(angles, params,
                                                           data):
    # Tolerance: the contract |oracle - value| <= tail_bound <= tol with
    # tol = 1e-10; the oracle takes the exact rational roots, which the
    # float roots of from_points match to a few u
    cfg = BoundaryConfig.from_points(BoundaryConfig.from_angles(angles).roots)
    i, j = data.draw(_off_diagonal(cfg.J))
    kv = kernel_eval(cfg.roots[i], cfg.roots[j], cfg, _weights(*params), 1e-10)
    assert kv.route == "euler"
    _check(kv, kernel_mp(angles, i, j, *params), 1e-10)


@settings(max_examples=15, deadline=None)
@given(st.floats(0.0, 1.0), st.lists(st.floats(0.01, 2.0), min_size=1,
                                     max_size=2),
       weight_params, st.data())
def test_irrational_roots_match_lerch_oracle(start, gaps, params, data):
    # roots at irrational angles with gaps of 0.01 to 2 rad, so strides
    # up to 314.  Tolerance: the contract |oracle - value| <= tail_bound
    # <= tol with tol = 1e-10, the oracle at the exact arguments of the
    # float roots
    turns = [start + sum(gaps[:k]) / (2 * math.pi) for k in range(len(gaps) + 1)]
    cfg = BoundaryConfig.from_points([cmath.exp(2j * math.pi * t) for t in turns])
    i, j = data.draw(_off_diagonal(cfg.J))
    kv = kernel_eval(cfg.roots[i], cfg.roots[j], cfg, _weights(*params), 1e-10)
    assert kv.route == "euler"
    _check(kv, kernel_mp(_arguments(cfg), i, j, *params), 1e-10)


def test_large_denominator_pair_matches_lerch_oracle():
    # rho of order 2^12, one pair 2 pi/4096 apart and one about 2 pi/3
    # apart: strides 2048 and 1.  Tolerance: |oracle - value| <=
    # tail_bound <= tol with tol = 1e-10
    angles = [Fraction(0), Fraction(1, 4096), Fraction(1365, 4096)]
    cfg = BoundaryConfig.from_angles(angles)
    weights = WeightSequence.harmonic(0.7)
    for i, j in [(0, 1), (2, 1)]:
        kv = kernel_eval(cfg.roots[i], cfg.roots[j], cfg, weights, 1e-10)
        assert kv.route == "euler"
        _check(kv, kernel_mp(angles, i, j, "harmonic", 0.7), 1e-10)


def test_roots_closer_than_the_cap_raise():
    # 1e-7 rad apart: admitted as distinct roots, but a stride of 3e7
    # terms passes the direct-sum cap
    cfg = BoundaryConfig.from_points([1.0, cmath.exp(1e-7j)])
    with pytest.raises(TruncationError):
        kernel_eval(cfg.roots[0], cfg.roots[1], cfg, WeightSequence.harmonic(1.0))


@pytest.mark.parametrize("H", [1, 3, 6])
def test_remainder_bounds_a_shallow_transform(monkeypatch, H):
    # with the direct sum cut to H strides the Euler remainder R, not the
    # rounding, sets the error: the returned remainder must cover it, and
    # the error must exceed the allowance alone.  Tolerance: the bound
    # itself, remainder + allowance, against the 30-digit oracle
    angles = [Fraction(0), Fraction(1, 12), Fraction(1, 2)]
    monkeypatch.setattr(core, "_euler_depth", lambda *args: H)
    cfg = BoundaryConfig.from_angles(angles)
    weights = WeightSequence.harmonic(1.0)
    for i, j in [(0, 1), (1, 2)]:
        kv = kernel_eval(cfg.roots[i], cfg.roots[j], cfg, weights, 1.0)
        err = abs(kernel_mp(angles, i, j, "harmonic", 1.0) - kv.value)
        assert kv.tail_rounding < err <= kv.tail_bound
        assert kv.tail_truncation > 100 * kv.tail_rounding


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
