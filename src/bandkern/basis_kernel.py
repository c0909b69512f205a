"""Orthonormal basis evaluation, kernel sums with certified truncation error,
natural-domain diagnostics and the coefficient map into the Hardy space.

The basis is f_n(z) = z^n * phi(a_n z); the kernel is
K(z, w) = sum_n f_n(z) * conj(f_n(w)), absolutely convergent for |z|,|w| < 1
and, when sum |1 - a_n|^2 < infinity, also at the boundary points z_j where
phi vanishes.  Every kernel value returned here carries an explicit upper
bound on the discarded tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    BasisBand,
    BoundaryConfig,
    DomainError,
    Poly,
    TruncationError,
    WeightSequence,
    beta_coefficients,
    phi_from_roots,
    phase_powers,
    phi_reduced,
)

CONVERGING = "converging"
DIVERGING = "diverging"
INCONCLUSIVE = "inconclusive"

_N_CAP = 1 << 23          # refuse direct sums beyond this many terms


@dataclass(frozen=True)
class BasisElement:
    """Taylor data of f_n: J+1 coefficients sitting at degrees n..n+J."""

    n: int
    taylor: np.ndarray

    @property
    def degrees(self) -> np.ndarray:
        return np.arange(self.n, self.n + len(self.taylor))


@dataclass(frozen=True)
class KernelValue:
    value: complex
    truncation_n: int
    tail_bound: float


def basis_coeffs(n: int, cfg: BoundaryConfig, weights: WeightSequence) -> BasisElement:
    """Coefficients beta_k * a_n^k of f_n, k = 0..J."""
    if n < 0:
        raise ValueError("basis index must be nonnegative")
    beta = beta_coefficients(cfg)
    an = weights.a(n)
    return BasisElement(n, beta * np.asarray(an, dtype=complex) ** np.arange(len(beta)))


def eval_f(n: int, z, cfg: BoundaryConfig, weights: WeightSequence) -> complex:
    """f_n(z) = z^n * phi(a_n * z)."""
    phi = phi_from_roots(cfg)
    z = complex(z)
    return z ** n * complex(phi(weights.a(n) * z))


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
    """f_n(z) for n = start..start+N-1, vectorized.

    At a boundary root the cancellation-free factorization
    f_n(z_j) = z_j^n * (1 - a_n) * phi_j(a_n z_j) is used, where phi_j drops
    the vanishing factor of phi.
    """
    z = complex(z)
    n = np.arange(start, start + N)
    a = weights.a(n)
    j = _special_index(z, cfg)
    if j is None:
        return z ** n * _poly_at_scaled(phi_from_roots(cfg), z, a)
    red = phi_reduced(cfg, j)
    one_minus = weights.one_minus_a(n)
    return z ** n * one_minus * _poly_at_scaled(red, z, a)


def _poly_at_scaled(poly: Poly, z: complex, a: np.ndarray) -> np.ndarray:
    """poly(a * z) for an array of scalings a (Horner in a)."""
    coeffs = poly.coeffs
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

    def sup_and_slope(poly):
        c = np.abs(poly.coeffs)
        k = np.arange(len(c))
        return float(np.sum(c * a_sup ** k)), float(np.sum(k * c * a_sup ** k))

    si, di = sup_and_slope(phi_reduced(cfg, i))
    sj, dj = sup_and_slope(phi_reduced(cfg, j))
    return di * sj + si * dj


def kernel_eval(z, w, cfg: BoundaryConfig, weights: WeightSequence,
                tol: float = 1e-8) -> KernelValue:
    """K(z, w) with |true - value| <= tail_bound <= tol.

    Interior arguments use the geometric majorant C^2 r^N/(1-r) with
    r = |z| |w|.  A pair of boundary roots uses the factorized summand
    (1-a_n) conj(1-a_n) phi_i(a_n z_i) conj(phi_j(a_n z_j)) rho^n with
    rho = z_i conj(z_j): its constant part is summed in closed form
    (trigamma / Hurwitz zeta) on the diagonal and bounded by an Abel
    estimate off it, so only a short explicit sum is ever needed.

    Raises DomainError outside the natural domain and TruncationError when
    no convergent majorant exists (e.g. powerlaw weights with p <= 1/2 at a
    boundary root).
    """
    z, w = complex(z), complex(w)
    kz, jz = classify_point(z, cfg)
    kw, jw = classify_point(w, cfg)

    if kz == "special" and kw == "special":
        return _kernel_special_pair(jz, jw, cfg, weights, tol)

    c_sup = _coeff_abs_bound(cfg, weights)
    r = (abs(z) if kz == "interior" else 1.0) * (abs(w) if kw == "interior" else 1.0)
    # C^2 * r^N / (1 - r) <= tol
    if r == 0.0:
        N = len(beta_coefficients(cfg))
    else:
        N = max(8, int(math.ceil(math.log(tol * (1 - r) / c_sup ** 2) / math.log(r))) + 1)
    if N > _N_CAP:
        raise TruncationError(f"interior kernel sum needs {N} terms")
    fz = eval_f_prefix(N, z, cfg, weights)
    fw = fz if w == z else eval_f_prefix(N, w, cfg, weights)
    value = complex(np.sum(fz * np.conj(fw)))
    tail = c_sup ** 2 * r ** N / (1 - r) if r > 0 else 0.0
    tail += 4e-16 * N * abs(value)  # float-summation allowance
    return KernelValue(value, N, float(tail))


def _kernel_special_pair(i: int, j: int, cfg: BoundaryConfig,
                         weights: WeightSequence, tol: float) -> KernelValue:
    if not weights.square_summable:
        raise TruncationError(
            "kernel diverges at boundary roots: sum |1 - a_n|^2 = inf")
    zi, zj = cfg.roots[i], cfg.roots[j]
    rho = zi * np.conj(zj)
    diagonal = abs(rho - 1.0) <= 1e-14

    v_inf = complex(phi_reduced(cfg, i)(zi)) * np.conj(complex(phi_reduced(cfg, j)(zj)))
    lip = _lipschitz_pair_bound(cfg, i, j, weights)

    # choose N so that the cubic remainder and (off-diagonal) the Abel bound
    # on the constant part both fit into tol
    N = 1 << 12
    while True:
        rem = lip * weights.cube_tail_bound(N)
        extra = 0.0
        closed: Optional[float] = weights.sq_tail_exact(N) if diagonal else None
        if diagonal and closed is None:
            extra = abs(v_inf) * weights.sq_tail_bound(N)
        if not diagonal:
            u_next = abs(weights.one_minus_a(N)) ** 2
            extra = abs(v_inf) * 4.0 * u_next / abs(1.0 - rho)
        if rem + extra <= tol or N > _N_CAP:
            break
        N <<= 1
    if rem + extra > tol:
        raise TruncationError("no reachable truncation certifies the tolerance")

    n = np.arange(N)
    one_minus = weights.one_minus_a(n)
    vi = _poly_at_scaled(phi_reduced(cfg, i), zi, weights.a(n))
    vj = _poly_at_scaled(phi_reduced(cfg, j), zj, weights.a(n))
    terms = one_minus * np.conj(one_minus) * vi * np.conj(vj)
    if not diagonal:
        q = cfg.angles[i] - cfg.angles[j] if cfg.angles is not None else None
        terms = terms * phase_powers(q, np.angle(rho), n)
    value = complex(np.sum(terms))
    tail = rem + extra
    if diagonal and closed is not None:
        value += v_inf * closed
    tail += 4e-16 * N * abs(value)  # float-summation allowance
    return KernelValue(value, N, float(tail))


@dataclass(frozen=True)
class DomainReport:
    checkpoints: np.ndarray
    partial_sums: np.ndarray
    verdict: str


def domain_report(z, cfg: BoundaryConfig, weights: WeightSequence,
                  N: int = 4096) -> DomainReport:
    """Partial sums of sum |f_n(z)|^2 at dyadic checkpoints plus a verdict.

    Heuristic only: 'converging' when the last doubling adds < 1e-6 relative
    mass, 'diverging' when partial sums keep growing by an essentially
    constant factor, otherwise 'inconclusive'.
    """
    if N < 16:
        raise ValueError("N must be at least 16")
    z = complex(z)
    if abs(z) > 1.0 + 1e-12 and _special_index(z, cfg) is None:
        raise DomainError(f"{z} is outside the closed disk and not a root")
    n_checks = []
    m = 16
    while m <= N:
        n_checks.append(m)
        m *= 2
    if n_checks[-1] != N:
        n_checks.append(N)
    sq = np.abs(_f_values_any(N, z, cfg, weights)) ** 2
    csum = np.cumsum(sq)
    partial = csum[np.array(n_checks) - 1]
    verdict = INCONCLUSIVE
    if len(partial) >= 2:
        last, prev = partial[-1], partial[-2]
        if last > 0 and (last - prev) / last < 1e-6:
            verdict = CONVERGING
        else:
            ratios = partial[1:] / np.maximum(partial[:-1], 1e-300)
            if len(ratios) >= 3 and np.all(ratios[-3:] > 1.5):
                verdict = DIVERGING
    return DomainReport(np.array(n_checks), partial, verdict)


def _f_values_any(N: int, z: complex, cfg: BoundaryConfig,
                  weights: WeightSequence) -> np.ndarray:
    """f_n(z) for n < N at any point of the closed disk or a root."""
    if _special_index(z, cfg) is not None or abs(z) < 1.0:
        return eval_f_prefix(N, z, cfg, weights)
    n = np.arange(N)
    return z ** n * _poly_at_scaled(phi_from_roots(cfg), z, weights.a(n))


def h2_coeffs(alpha, cfg: BoundaryConfig, weights: WeightSequence,
              N: Optional[int] = None) -> np.ndarray:
    """Taylor coefficients of sum alpha_n f_n: the banded product L @ alpha.

    y_d = sum_{k=0..J} beta_k a_{d-k}^k alpha_{d-k}.
    """
    alpha = np.asarray(alpha, dtype=complex)
    if N is None:
        N = len(alpha)
    if len(alpha) < N:
        raise ValueError("alpha shorter than requested prefix")
    return BasisBand(cfg, weights, N).matvec(alpha[:N])
