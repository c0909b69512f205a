"""Multiplication by the independent variable in the basis, expansion of the
constant function and polynomial membership diagnostics.

The matrix of z-multiplication in the basis f_n is M_z = L^-1 S L with L the
band of basis Taylor coefficients and S the shift: strictly lower
triangular with ones on the first subdiagonal.  Its deeper entries satisfy
the same homogeneous window recursion as the re-expansion matrix, so the
boundedness machinery carries over unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import BasisBand, BoundaryConfig, WeightSequence
from .recursion import _l2_verdict, _section_norm_ladder, growth_verdict

_SUP_RADIUS = 0.9     # constant_sup_error checks the circle |z| = _SUP_RADIUS
_SUP_GRID = 64        # at this many equally spaced points


def _shift(x: np.ndarray, k: int = 1) -> np.ndarray:
    """S x for k = 1 and S^T x for k = -1, S the shift one row down."""
    y = np.empty_like(x)
    if k == 1:
        y[0], y[1:] = 0.0, x[:-1]
    else:
        y[-1], y[:-1] = 0.0, x[1:]
    return y


def _mz_apply(L: BasisBand, x: np.ndarray) -> np.ndarray:
    """Basis coefficients of z * f for f = sum x_n f_n (same prefix length
    N as the band L): M_z x = L^-1 S L x in O(N J)."""
    return L.solve(_shift(L.matvec(x)), overwrite_b=True)


@dataclass(frozen=True)
class ExpansionReport:
    """Coefficients, their running l2 norms and the l2 verdict with its p_hat."""

    coeffs: np.ndarray
    checkpoints: np.ndarray
    partial_norms: np.ndarray
    verdict: str
    p_hat: tuple


def _l2_checkpoints(coeffs: np.ndarray):
    N = len(coeffs)
    checks = []
    m = 16
    while m < N:
        checks.append(m)
        m *= 2
    checks.append(N)
    csum = np.cumsum(np.abs(coeffs) ** 2)
    return np.asarray(checks), np.sqrt(csum[np.asarray(checks) - 1])


def constant_expansion(N: int, cfg: BoundaryConfig,
                       weights: WeightSequence) -> ExpansionReport:
    """Coefficients c_0..c_N of the constant function 1 = sum c_n f_n:
    c = L^-1 e_0.  N must be positive."""
    return polynomial_membership([1.0], N, cfg, weights)


def polynomial_membership(coeffs, N: int, cfg: BoundaryConfig,
                          weights: WeightSequence) -> ExpansionReport:
    """Candidate basis coefficients alpha_0..alpha_N of the polynomial with
    ascending coefficients ``coeffs`` by banded forward substitution of its
    Taylor coefficients, with the l2 verdict on them.

    The unit diagonal of the basis matrix determines the coefficients
    uniquely; membership is alpha in l2 (recursion._l2_verdict).  The
    degree, read after trailing zeros are trimmed, must be below N.
    """
    coeffs = np.trim_zeros(np.atleast_1d(np.asarray(coeffs, dtype=complex)), "b")
    if len(coeffs) > N:
        raise ValueError("prefix too short for the polynomial degree")
    taylor = np.zeros(N + 1, dtype=complex)
    taylor[: len(coeffs)] = coeffs
    alpha = BasisBand(cfg, weights, N + 1).solve(taylor)
    checks, norms = _l2_checkpoints(alpha)
    return ExpansionReport(alpha, checks, norms, *_l2_verdict(alpha))


@dataclass(frozen=True)
class MultiplierNormReport:
    truncations: tuple
    full_norms: tuple            # NormEstimate per truncation
    shifted_norms: tuple         # same with the unit subdiagonal removed
    verdict: str


def mz_norm_report(cfg: BoundaryConfig, weights: WeightSequence,
                   N_list: Sequence[int]) -> MultiplierNormReport:
    """Truncated multiplication-matrix norms at dyadic sizes, both as-is and
    with the leading subdiagonal of ones removed (the shift part is an
    isometry and can mask growth of the remainder).  Both operators,
    L^-1 S L and L^-1 S L - S, are applied matrix-free through the leading
    sections of one band of L at the largest truncation, each as a ladder
    warm-started from rung to rung (see _section_norm in recursion)."""
    N_list = sorted(int(N) for N in N_list)
    L = BasisBand(cfg, weights, N_list[-1])

    def mz(N):                                         # M_z x and M_z^H y
        l = L._leading(N)
        return (lambda x: _mz_apply(l, x),
                lambda y: l.matvec(_shift(l.solve(y, trans="C"), -1), trans="C"))

    def mz_minus_shift(N):
        matvec, rmatvec = mz(N)
        return (lambda x: matvec(x) - _shift(x),
                lambda y: rmatvec(y) - _shift(y, -1))

    full = _section_norm_ladder(N_list, mz, L.ab.dtype)
    shifted = _section_norm_ladder(N_list, mz_minus_shift, L.ab.dtype)
    verdict = growth_verdict([e.value for e in full])
    return MultiplierNormReport(tuple(N_list), tuple(full), tuple(shifted), verdict)


def constant_sup_error(coeffs: np.ndarray, cfg: BoundaryConfig,
                       weights: WeightSequence) -> float:
    """max over the _SUP_GRID points z = _SUP_RADIUS e^{2 pi i j / _SUP_GRID}
    of |sum_n c_n f_n(z) - 1|.

    The Taylor coefficients of sum_n c_n f_n - 1 are the band residual
    r = L [c, 0] - e_0 of length N + J; folding r_k _SUP_RADIUS^k modulo
    _SUP_GRID leaves one FFT over the grid.
    """
    N = len(coeffs) + cfg.J
    r = BasisBand(cfg, weights, N).matvec(np.pad(coeffs, (0, cfg.J)))
    r[0] -= 1.0
    r *= _SUP_RADIUS ** np.arange(N)
    folded = np.pad(r, (0, -N % _SUP_GRID)).reshape(-1, _SUP_GRID).sum(axis=0)
    return float(np.max(np.abs(np.fft.fft(folded))))
