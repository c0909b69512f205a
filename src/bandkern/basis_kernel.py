"""Orthonormal basis evaluation, kernel sums with certified truncation error
and the natural-domain verdicts.

The basis is f_n(z) = z^n * phi(a_n z); the kernel is
K(z, w) = sum_n f_n(z) * conj(f_n(w)), absolutely convergent for |z|,|w| < 1
and, when sum |1 - a_n|^2 < infinity, also at the boundary points z_j where
phi vanishes.  Every kernel value returned here carries an explicit upper
bound on the discarded tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from numpy.polynomial.polynomial import polyval

from .core import (
    BoundaryConfig,
    DomainError,
    MIN_TRUNCATION,
    TWO_PI,
    TruncationError,
    WeightSequence,
    beta_coefficients,
    phase_powers,
    phi_reduced,
    root_powers,
)

CONVERGING = "converging"
DIVERGING = "diverging"

_N_CAP = 1 << 23          # refuse direct sums beyond this many terms
_U = 2.0 ** -53           # unit roundoff of float64


@dataclass(frozen=True)
class KernelValue:
    """A kernel value and how its error budget was spent.

    ``route`` is "closed_form" (a pair of roots whose rho = z_i conj(z_j)
    has known order ``rho_order``) or "explicit" (a truncated sum);
    ``truncation_n`` counts the terms summed explicitly.  ``tail_bound`` is
    the sum of three parts: the discarded tail (``tail_truncation``), the
    Abel estimate of the constant part at roots of unknown rho order
    (``tail_abel``) and the floating-point allowance (``tail_rounding``).
    """

    value: complex
    truncation_n: int
    route: str
    rho_order: Optional[int] = None
    tail_truncation: float = 0.0
    tail_abel: float = 0.0
    tail_rounding: float = 0.0

    @property
    def tail_bound(self) -> float:
        return self.tail_truncation + self.tail_abel + self.tail_rounding


def _special_index(z: complex, cfg: BoundaryConfig) -> Optional[int]:
    for j, zj in enumerate(cfg.roots):
        if abs(z - zj) <= 1e-12:
            return j
    return None


def classify_point(z, cfg: BoundaryConfig) -> tuple:
    """('interior', None) for |z| < 1, ('special', j) at a boundary root.

    Anything else is outside the natural domain and raises DomainError.
    """
    z = complex(z)
    j = _special_index(z, cfg)
    if j is not None:
        return "special", j
    if abs(z) < 1.0 - 1e-14:
        return "interior", None
    raise DomainError(f"{z} is outside the natural domain")


def eval_f_prefix(N: int, z, cfg: BoundaryConfig, weights: WeightSequence,
                  start: int = 0) -> np.ndarray:
    """f_n(z) for n = start..start+N-1, vectorized, at any z of the closed
    disk or a boundary root.

    At a boundary root the cancellation-free factorization
    f_n(z_j) = z_j^n * (1 - a_n) * phi_j(a_n z_j) is used, where phi_j drops
    the vanishing factor of phi, and z_j^n comes from ``root_powers``, which
    does not drift with n.
    """
    z = complex(z)
    n = np.arange(start, start + N)
    a = weights.a(n)
    j = _special_index(z, cfg)
    if j is None:
        return z ** n * _poly_at_scaled(beta_coefficients(cfg), z, a)
    red = phi_reduced(cfg, j)
    one_minus = weights.one_minus_a(n)
    return root_powers(cfg, j, n) * one_minus * _poly_at_scaled(red, z, a)


def _poly_at_scaled(coeffs: np.ndarray, z: complex, a: np.ndarray) -> np.ndarray:
    """p(a * z) for the ascending coefficients of p and an array of
    scalings a (Horner in a)."""
    acc = np.full(a.shape, coeffs[-1] * z ** (len(coeffs) - 1), dtype=complex)
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * a + coeffs[k] * z ** k
    return acc


def _coeff_abs_bound(cfg: BoundaryConfig, weights: WeightSequence) -> float:
    """Uniform bound on |phi(a_n z)| over n and |z| <= 1."""
    beta = np.abs(beta_coefficients(cfg))
    a_sup = weights.a_sup()
    return float(np.sum(beta * a_sup ** np.arange(len(beta))))


def _lipschitz_pair_bound(cfg: BoundaryConfig, i: int, j: int,
                          weights: WeightSequence) -> float:
    """Lipschitz constant of a -> phi_i(a z_i) * conj(phi_j(a z_j)) near a = 1."""
    a_sup = weights.a_sup()

    def sup_and_slope(coeffs):
        c = np.abs(coeffs)
        k = np.arange(len(c))
        return float(np.sum(c * a_sup ** k)), float(np.sum(k * c * a_sup ** k))

    si, di = sup_and_slope(phi_reduced(cfg, i))
    sj, dj = sup_and_slope(phi_reduced(cfg, j))
    return di * sj + si * dj


def kernel_eval(z, w, cfg: BoundaryConfig, weights: WeightSequence,
                tol: float = 1e-8) -> KernelValue:
    """K(z, w) with |true - value| <= tail_bound <= tol.

    Interior arguments use the geometric majorant C^2 r^N/(1-r) with
    r = |z| |w|.  A pair of boundary roots sums
    u_n^2 P(u_n) rho^n, u_n = 1 - a_n and rho = z_i conj(z_j), in closed
    form when the order of rho is known (always on the diagonal, and for
    configurations given by rational angles); otherwise a truncated sum
    bounds the rest by a cubic remainder plus an Abel estimate.  Explicit
    sums keep their rounding allowance (``_sum_allowance``) inside tol as
    well.

    Raises DomainError outside the natural domain and TruncationError when
    no convergent majorant exists (e.g. powerlaw weights with p <= 1/2 at a
    boundary root) or tol is out of reach.
    """
    z, w = complex(z), complex(w)
    kz, jz = classify_point(z, cfg)
    kw, jw = classify_point(w, cfg)

    if kz == "special" and kw == "special":
        if not weights.square_summable:
            raise TruncationError(
                "kernel diverges at boundary roots: sum |1 - a_n|^2 = inf")
        if jz == jw:
            q = Fraction(0)       # rho = exp(2 pi i q) = 1
        elif cfg.angles is not None:
            q = (cfg.angles[jz] - cfg.angles[jw]) % 1
        else:
            return _kernel_abel_pair(jz, jw, cfg, weights, tol)
        return _kernel_closed_pair(jz, jw, q, cfg, weights, tol)

    c_sup = _coeff_abs_bound(cfg, weights)
    r = (abs(z) if kz == "interior" else 1.0) * (abs(w) if kw == "interior" else 1.0)

    def pick(allowance):
        # smallest N with C^2 r^N / (1 - r) + allowance <= tol
        if r == 0.0:
            return len(beta_coefficients(cfg)), 0.0, 0.0
        N = max(8, int(math.ceil(
            math.log((tol - allowance) * (1 - r) / c_sup ** 2) / math.log(r))))
        while c_sup ** 2 * r ** N / (1 - r) + allowance > tol:
            N += 1
        if N > _N_CAP:
            raise TruncationError(f"interior kernel sum needs {N} terms")
        return N, c_sup ** 2 * r ** N / (1 - r), 0.0

    return _budgeted_sum(pick, lambda n: _pair_terms(n, z, w, cfg, weights),
                         cfg.J, tol)


def _pair_terms(n: np.ndarray, z: complex, w: complex, cfg: BoundaryConfig,
                weights: WeightSequence) -> tuple:
    """The summands f_n(z) conj(f_n(w)) of K(z, w) for the consecutive
    indices n, and their majorants M_n(z) M_n(w)."""
    fz = eval_f_prefix(len(n), z, cfg, weights, start=n[0])
    fw = fz if w == z else eval_f_prefix(len(n), w, cfg, weights, start=n[0])
    return fz * np.conj(fw), _f_majorant(n, z, cfg, weights) * _f_majorant(
        n, w, cfg, weights)


def _f_majorant(n: np.ndarray, z: complex, cfg: BoundaryConfig,
                weights: WeightSequence) -> np.ndarray:
    """M_n >= |f_n(z)| for the indices n: the polynomial eval_f_prefix
    evaluates, with its coefficients and arguments taken in modulus."""
    a = np.abs(weights.a(n))
    j = _special_index(z, cfg)
    if j is None:
        absphi = np.abs(beta_coefficients(cfg))
        return abs(z) ** n * _poly_at_scaled(absphi, abs(z), a).real
    absphi = np.abs(phi_reduced(cfg, j))
    return np.abs(weights.one_minus_a(n)) * _poly_at_scaled(absphi, 1.0, a).real


def _sum_allowance(terms: np.ndarray, majorant: np.ndarray, J: int) -> float:
    """Rounding allowance u (N sum |t_n| + 8 (J+1) sum M_n) of an explicit
    sum of N terms t_n with majorants M_n >= |t_n|.

    The first part covers the summation (Higham 2002, 4.2), the second the
    evaluation of each term, whose error scales with M_n rather than with
    |t_n| where phi cancels.
    """
    return _U * (len(terms) * float(np.sum(np.abs(terms)))
                 + 8 * (J + 1) * float(np.sum(majorant)))


def _budgeted_sum(pick, terms_of, J: int, tol: float) -> KernelValue:
    """Sum the terms t_n, n < N, where terms_of(n) = (t_n, M_n) for an index
    array n and N = pick(allowance)[0] keeps the truncation and Abel parts
    plus the rounding allowance within tol.  The allowance is read from the
    terms themselves, so N is re-picked against it until it no longer
    grows; a larger N only extends the terms already computed."""
    allowance = 0.0
    terms = majorant = np.zeros(0)
    while True:
        if not allowance < tol:
            raise TruncationError(
                f"rounding allowance {allowance:.3g} alone exceeds tol {tol:.3g}")
        N, trunc, abel = pick(allowance)
        if N > len(terms):
            t, m = terms_of(np.arange(len(terms), N))
            terms, majorant = np.concatenate((terms, t)), np.concatenate((majorant, m))
        rounding = _sum_allowance(terms, majorant, J)
        if rounding <= allowance:
            return KernelValue(complex(np.sum(terms)), N, "explicit",
                               tail_truncation=trunc, tail_abel=abel,
                               tail_rounding=rounding)
        allowance = rounding


def _reduced_in_u(cfg: BoundaryConfig, i: int) -> np.ndarray:
    """Coefficients in u of phi_i((1 - u) z_i) = prod_{k != i} (1 - t_k + t_k u),
    t_k = conj(z_k) z_i."""
    coeffs = np.array([1.0 + 0j])
    for k, w in enumerate(cfg.conjugates):
        if k != i:
            t = w * cfg.roots[i]
            coeffs = np.convolve(coeffs, np.array([1.0 - t, t]))
    return coeffs


def _kernel_closed_pair(i: int, j: int, q: Fraction, cfg: BoundaryConfig,
                        weights: WeightSequence, tol: float) -> KernelValue:
    """K(z_i, z_j) = sum_m d_m sum_{r<d} rho^r S_{m+2,r} for rho of order d.

    P(u) = phi_i((1-u) z_i) conj(phi_j((1-u) z_j)) = sum_m d_m u^m, and
    S_{s,r} sums u_n^s over n = r mod d (``residue_power_sums``).  A table
    head is summed explicitly and the tail rule takes over at its end T,
    where the residue classes pick up the factor rho^T.
    """
    d = q.denominator
    if d > _N_CAP:
        raise TruncationError(f"closed form needs {d} residue classes")
    T = len(weights.values)
    value, rounding = 0.0j, 0.0
    if T:
        head, majorant = _pair_terms(np.arange(T), cfg.roots[i], cfg.roots[j],
                                     cfg, weights)
        value, rounding = complex(np.sum(head)), _sum_allowance(head, majorant, cfg.J)
    coeffs = np.convolve(_reduced_in_u(cfg, i), np.conj(_reduced_in_u(cfg, j)))
    S = weights.residue_power_sums(np.arange(len(coeffs)) + 2, d, T)
    phase = phase_powers(q, TWO_PI * float(q), np.arange(T, T + d))
    value += complex(coeffs @ (S @ phase))
    rounding += 64 * _U * float(np.abs(coeffs) @ np.sum(np.abs(S), axis=1))
    if not rounding <= tol:
        raise TruncationError(
            f"rounding allowance {rounding:.3g} alone exceeds tol {tol:.3g}")
    return KernelValue(value, T, "closed_form", d, tail_rounding=rounding)


def _kernel_abel_pair(i: int, j: int, cfg: BoundaryConfig,
                      weights: WeightSequence, tol: float) -> KernelValue:
    """Off-diagonal roots of unknown rho order: a truncated sum whose rest is
    bounded by the cubic remainder lip * sum_{n>=N} |u_n|^3 plus the Abel
    estimate 4 |v_inf| u_N^2 / |1 - rho| of its constant part."""
    zi, zj = cfg.roots[i], cfg.roots[j]
    rho = zi * zj.conjugate()
    v_inf = (polyval(zi, phi_reduced(cfg, i))
             * np.conj(polyval(zj, phi_reduced(cfg, j))))
    lip = _lipschitz_pair_bound(cfg, i, j, weights)

    def pick(allowance):
        N = 1 << 12
        while True:
            rem = lip * weights.cube_tail_bound(N)
            abel = abs(v_inf) * 4.0 * abs(weights.one_minus_a(N)) ** 2 / abs(1.0 - rho)
            if rem + abel + allowance <= tol:
                return N, rem, abel
            N <<= 1
            if N > _N_CAP:
                raise TruncationError("no reachable truncation certifies the tolerance")

    return _budgeted_sum(pick, lambda n: _pair_terms(n, zi, zj, cfg, weights),
                         cfg.J, tol)


@dataclass(frozen=True)
class DomainReport:
    checkpoints: np.ndarray
    partial_sums: np.ndarray
    verdict: str


def domain_report(z, cfg: BoundaryConfig, weights: WeightSequence,
                  N: int = 4096) -> DomainReport:
    """Partial sums of sum |f_n(z)|^2 at dyadic checkpoints, with the verdict
    the paper proves for z.

    The series converges at an interior point (|z| < 1 - 1e-14, as in
    ``classify_point``).  At a root, f_n(z_j) = z_j^n (1 - a_n) phi_j(a_n z_j)
    with phi_j(z_j) != 0, so it converges iff sum |1 - a_n|^2 does
    (``weights.square_summable``, the gate of ``kernel_eval`` at roots).  At
    any other point of the circle |f_n(z)| -> |phi(z)| > 0, so it diverges.
    The partial sums are measurements; the verdict does not read them.
    """
    if N < MIN_TRUNCATION:
        raise ValueError(f"N must be at least {MIN_TRUNCATION}")
    z = complex(z)
    j = _special_index(z, cfg)
    if j is None and not abs(z) <= 1.0 + 1e-12:     # NaN included
        raise DomainError(f"{z} is outside the closed disk and not a root")
    n_checks = []
    m = MIN_TRUNCATION
    while m <= N:
        n_checks.append(m)
        m *= 2
    if n_checks[-1] != N:
        n_checks.append(N)
    sq = np.abs(eval_f_prefix(N, z, cfg, weights)) ** 2
    csum = np.cumsum(sq)
    partial = csum[np.array(n_checks) - 1]
    if j is not None:
        verdict = CONVERGING if weights.square_summable else DIVERGING
    else:
        verdict = CONVERGING if abs(z) < 1.0 - 1e-14 else DIVERGING
    return DomainReport(np.array(n_checks), partial, verdict)
