"""Orthonormal basis evaluation, kernel sums with certified truncation error
and the natural-domain verdicts.

The basis is f_n(z) = z^n * phi(a_n z); the kernel is
K(z, w) = sum_n f_n(z) * conj(f_n(w)), absolutely convergent for |z|,|w| < 1
and, when sum |1 - a_n|^2 < infinity, also at the boundary points z_j where
phi vanishes.  Every kernel value returned here carries an explicit upper
bound on the discarded tail.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import (
    BoundaryConfig,
    DomainError,
    MIN_TRUNCATION,
    TWO_PI,
    TruncationError,
    _N_CAP,
    _U,
    WeightSequence,
    _dyadic_checkpoints,
    beta_coefficients,
    phase_powers,
    phi_reduced,
    root_powers,
)

CONVERGING = "converging"
DIVERGING = "diverging"

_INTERIOR_SPARE = 64      # terms an interior sum computes past its first N


@dataclass(frozen=True)
class KernelValue:
    """A kernel value and how its error budget was spent.

    ``route`` is "closed_form" for a root with itself (Hurwitz zeta values),
    "euler" for two distinct roots (an Euler transform of the strided tail)
    and "explicit" for a truncated sum, with a point inside the disk.
    ``truncation_n`` counts the terms summed directly; ``tail_bound`` is the
    remainder of the discarded tail (``tail_truncation``) plus the
    floating-point allowance (``tail_rounding``).
    """

    value: complex
    truncation_n: int
    route: str
    tail_truncation: float = 0.0
    tail_rounding: float = 0.0

    @property
    def tail_bound(self) -> float:
        return self.tail_truncation + self.tail_rounding


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

    Away from the roots z^n is taken in polar form, |z|^n e^{i n theta} with
    theta = arg z (``phase_powers``): a real power and one complex
    exponential per element, where numpy's complex power goes through a
    complex log and exp.  The rounding of |z| and theta makes either form
    accurate to about n u relative (u the unit roundoff).  At a boundary
    root the cancellation-free factorization
    f_n(z_j) = z_j^n * (1 - a_n) * phi_j(a_n z_j) is used, where phi_j drops
    the vanishing factor of phi, and z_j^n comes from ``root_powers``, which
    does not drift with n.
    """
    n = np.arange(start, start + N)
    return _BasisPoint(complex(z), cfg).terms(n, weights.a(n), weights)[0]


class _BasisPoint:
    """One point z for the evaluation of f_n(z) over batches of indices n.

    The polynomial p (phi, or phi_j at a root z_j) is held with its
    coefficients c_k scaled by z, p(a z) = sum_k (c_k z^k) a^k, and for the
    majorant with their moduli scaled by |z|; each is formed once per point.
    A caller that holds phi's coefficients passes them as ``beta``.
    """

    def __init__(self, z: complex, cfg: BoundaryConfig,
                 beta: Optional[np.ndarray] = None):
        self.j = _special_index(z, cfg)
        if self.j is None:
            self.coeffs = beta if beta is not None else beta_coefficients(cfg)
            self.radius, self.theta = abs(z), cmath.phase(z)
        else:
            self.coeffs, self.radius, self.cfg = phi_reduced(cfg, self.j), 1.0, cfg
        self.scaled = [c * z ** k for k, c in enumerate(self.coeffs)]

    @cached_property
    def abs_scaled(self) -> list:
        # the moduli by np.abs over the array: its last bit can differ from
        # the scalar abs, and the root-pair allowances are read from these
        return [c * self.radius ** k for k, c in enumerate(np.abs(self.coeffs))]

    def terms(self, n: np.ndarray, a: np.ndarray, weights: WeightSequence,
              abs_a: Optional[np.ndarray] = None) -> tuple:
        """(f_n(z), M_n) for the indices n with weights a = a_n.  Given
        abs_a = |a_n|, M_n >= |f_n(z)| is the polynomial evaluated with its
        coefficients and arguments taken in modulus; otherwise M_n is None."""
        majorant = None
        if self.j is None:
            rn = self.radius ** n
            f = rn * phase_powers(None, self.theta, n) * _horner(self.scaled, a)
            if abs_a is not None:
                majorant = rn * _horner(self.abs_scaled, abs_a)
        else:
            one_minus = weights.one_minus_a(n)
            f = (root_powers(self.cfg, self.j, n) * one_minus
                 * _horner(self.scaled, a))
            if abs_a is not None:
                majorant = np.abs(one_minus) * _horner(self.abs_scaled, abs_a)
        return f, majorant


def _horner(coeffs: list, a: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] a^k for an array a (Horner in a, in place); a
    constant polynomial gives its scalar."""
    if len(coeffs) == 1:
        return coeffs[0]
    acc = coeffs[-1] * a
    for c in coeffs[-2:0:-1]:
        acc += c
        acc *= a
    acc += coeffs[0]
    return acc


def _coeff_abs_bound(beta: np.ndarray, weights: WeightSequence) -> float:
    """Uniform bound on |phi(a_n z)| over n and |z| <= 1, for the
    coefficients beta of phi."""
    beta = np.abs(beta)
    a_sup = weights.a_sup()
    return float(np.sum(beta * a_sup ** np.arange(len(beta))))


def kernel_eval(z, w, cfg: BoundaryConfig, weights: WeightSequence,
                tol: float = 1e-8) -> KernelValue:
    """K(z, w) with |true - value| <= tail_bound <= tol: at a pair of roots
    from the tail rule of the weights (``_kernel_root_pair``), otherwise by
    a truncated sum under a geometric majorant (``_kernel_interior``).

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
        return _kernel_root_pair(jz, jw, cfg, weights, tol)

    r = (abs(z) if kz == "interior" else 1.0) * (abs(w) if kw == "interior" else 1.0)
    return _kernel_interior(z, w, r, cfg, weights, tol)


def _kernel_interior(z: complex, w: complex, r: float, cfg: BoundaryConfig,
                     weights: WeightSequence, tol: float) -> KernelValue:
    """sum_{n<N} f_n(z) conj(f_n(w)) for the least N whose geometric
    majorant C^2 r^N/(1 - r), r = |z| |w|, plus the rounding allowance of
    the sum (``_sum_allowance``) stays within tol.  N is re-picked against
    the allowance, read from the terms, until it no longer grows; each
    batch computes _INTERIOR_SPARE terms past N to cover that growth."""
    beta = beta_coefficients(cfg)
    c2 = _coeff_abs_bound(beta, weights) ** 2
    pz = _BasisPoint(z, cfg, beta)
    pw = pz if w == z else _BasisPoint(w, cfg, beta)
    allowance, terms, majorant = 0.0, np.zeros(0), np.zeros(0)
    while True:
        if not allowance < tol:
            raise TruncationError(
                f"rounding allowance {allowance:.3g} alone exceeds tol {tol:.3g}")
        N, trunc = len(beta), 0.0
        if r != 0.0:
            N = max(8, int(math.ceil(
                math.log((tol - allowance) * (1 - r) / c2) / math.log(r))))
            while c2 * r ** N / (1 - r) + allowance > tol:
                N += 1
            if N > _N_CAP:
                raise TruncationError(f"interior kernel sum needs {N} terms")
            trunc = c2 * r ** N / (1 - r)
        if N > len(terms):
            t, m = _pair_terms(np.arange(len(terms), N + _INTERIOR_SPARE),
                               pz, pw, weights)
            terms, majorant = np.concatenate((terms, t)), np.concatenate((majorant, m))
        rounding = _sum_allowance(terms[:N], majorant[:N], cfg.J)
        if rounding <= allowance:
            return KernelValue(complex(np.sum(terms[:N])), N, "explicit",
                               trunc, rounding)
        allowance = rounding


def _pair_terms(n: np.ndarray, pz: _BasisPoint, pw: _BasisPoint,
                weights: WeightSequence) -> tuple:
    """The summands f_n(z) conj(f_n(w)) of K(z, w) for the consecutive
    indices n, and their majorants M_n(z) M_n(w), in one pass: a_n and
    |a_n| are formed once for both points."""
    a = weights.a(n)
    abs_a = np.abs(a)
    fz, mz = pz.terms(n, a, weights, abs_a)
    fw, mw = (fz, mz) if pw is pz else pw.terms(n, a, weights, abs_a)
    return fz * np.conj(fw), mz * mw


def _sum_allowance(terms: np.ndarray, majorant: np.ndarray, J: int) -> float:
    """Rounding allowance u (N sum |t_n| + 8 (J+1) sum M_n) of an explicit
    sum of N terms t_n with majorants M_n >= |t_n|.

    The first part covers the summation (Higham 2002, 4.2), the second the
    evaluation of each term, whose error scales with M_n rather than with
    |t_n| where phi cancels.
    """
    return _U * (len(terms) * float(np.sum(np.abs(terms)))
                 + 8 * (J + 1) * float(np.sum(majorant)))


def _reduced_in_u(cfg: BoundaryConfig, i: int) -> tuple:
    """Coefficients in u of phi_i((1 - u) z_i) = prod_{k != i} (1 - t_k + t_k u),
    t_k = conj(z_k) z_i, and of its majorant prod_{k != i} (|1 - t_k| + |t_k| u)."""
    coeffs, majorant = np.array([1.0 + 0j]), [1.0]
    for k, w in enumerate(cfg.conjugates):
        if k != i:
            t = w * cfg.roots[i]
            coeffs = np.convolve(coeffs, np.array([1.0 - t, t]))
            majorant = [x * abs(1.0 - t) + y * abs(t)
                        for x, y in zip(majorant + [0.0], [0.0] + majorant)]
    return coeffs, majorant


def _kernel_root_pair(i: int, j: int, cfg: BoundaryConfig,
                      weights: WeightSequence, tol: float) -> KernelValue:
    """K(z_i, z_j) = (table head) + sum_m d_m S_{m+2} with S_s =
    sum_{n>=T} rho^n u_n^s, rho = z_i conj(z_j) and P(u) =
    phi_i((1-u) z_i) conj(phi_j((1-u) z_j)) = sum_m d_m u^m.

    The head n < T is summed explicitly, the tail rule takes over at T
    (``WeightSequence._tail_sums``).  rho = 1 exactly when i = j; else
    theta = arg rho is exact from ``angles`` or the phase of the product of
    the roots.  The remainders and allowances of S are charged with the
    majorant D of P's coefficients (``bound``), and the contraction with
    20 J u sum_m D_m |S_{m+2}|: d_m carries (17 J - 13) u D_m from its 2 (J - 1) factors and
    their products, the sum over m (2 J + 2) u.
    """
    T = len(weights.values)
    value, rounding = 0.0j, 0.0
    if T:
        pz = _BasisPoint(cfg.roots[i], cfg)
        pw = pz if i == j else _BasisPoint(cfg.roots[j], cfg)
        head, majorant = _pair_terms(np.arange(T), pz, pw, weights)
        value, rounding = complex(np.sum(head)), _sum_allowance(head, majorant, cfg.J)
    (ci, mi), (cj, mj) = _reduced_in_u(cfg, i), _reduced_in_u(cfg, j)
    coeffs, bound = np.convolve(ci, np.conj(cj)), np.convolve(mi, mj)
    if i == j:
        q, theta = None, 0.0
    elif cfg.angles is not None:
        q = (cfg.angles[i] - cfg.angles[j]) % 1
        theta = math.remainder(TWO_PI * float(q), TWO_PI)     # in (-pi, pi]
    else:
        q, theta = None, cmath.phase(cfg.roots[i] * cfg.roots[j].conjugate())
    S, remainder, allowance, terms = weights._tail_sums(
        np.arange(len(coeffs)) + 2, T, q, theta)
    value += complex(coeffs @ S)
    truncation = float(bound @ remainder)
    rounding += float(bound @ (allowance + 20 * cfg.J * _U * np.abs(S)))
    if not truncation + rounding <= tol:
        raise TruncationError(
            f"root-pair bound {truncation + rounding:.3g} exceeds tol {tol:.3g}")
    return KernelValue(value, T + terms, "euler" if theta else "closed_form",
                       truncation, rounding)


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
    n_checks = _dyadic_checkpoints(N)
    sq = np.abs(eval_f_prefix(N, z, cfg, weights)) ** 2
    csum = np.cumsum(sq)
    partial = csum[n_checks - 1]
    if j is not None:
        verdict = CONVERGING if weights.square_summable else DIVERGING
    else:
        verdict = CONVERGING if abs(z) < 1.0 - 1e-14 else DIVERGING
    return DomainReport(n_checks, partial, verdict)
