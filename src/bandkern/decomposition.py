"""Explicit splitting of the space into phi * H^2 plus the span of the
kernel functions at the boundary roots.

The quotient encoding drives everything: it maps basis coefficients alpha
to Hardy-quotient coefficients g with f = sum alpha_n f_n = phi * g as
formal series, by the banded solve g = Lhat^-1 L alpha.  Splitting a finite
prefix additionally uses the fact that a wrong kernel loading leaves
non-decaying oscillatory modes in the quotient coefficients; regressing the
tail of the quotient onto those modes identifies the loadings to machine
precision.  The boundary polynomials Q_n, which all vanish at 1, carry the
measured bound |Q_n(a_m)| <= c (1 - a_m).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis_kernel import eval_f_prefix, h2_coeffs
from .core import (
    BasisBand,
    BoundaryConfig,
    Poly,
    WeightSequence,
    beta_coefficients,
    mu_weights,
    phi_from_roots,
    root_powers,
)

# the index grid (n, m) over which measure_q_bound samples |Q_n(a_m)|
_Q_N_RANGE = range(-8, 17)
_Q_M_RANGE = (0, 1, 2, 4, 8, 16, 64, 256, 1024)


# ---------------------------------------------------------------------------
# Gram matrix of the kernel partial sums at the roots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GramMatrix:
    """A[i, j] = sum_{n<N} f_n(z_j) conj(f_n(z_i)), the exact Gram matrix of
    the length-N kernel partial sums at the roots, with N = ``truncation``."""

    matrix: np.ndarray
    cond: float
    truncation: int


def partial_gram(cfg: BoundaryConfig, weights: WeightSequence, N: int) -> GramMatrix:
    """Exact Gram matrix of the length-N kernel partial sums."""
    F = np.stack([eval_f_prefix(N, z, cfg, weights) for z in cfg.roots])
    A = F @ F.conj().T  # A[i, j] = sum_n f_n(z_j) conj(f_n(z_i)) ... transposed below
    A = A.T
    return GramMatrix(A, float(np.linalg.cond(A)), N)


# ---------------------------------------------------------------------------
# the boundary polynomials Q_n
# ---------------------------------------------------------------------------

def q_polynomial(n: int, cfg: BoundaryConfig) -> Poly:
    """Q_n(x) = sum_j (w_j^J / mu_j) phi(x / w_j) w_j^n, any integer n.

    Degree at most J and Q_n(1) = 0 for every n, since 1/w_j = z_j is a root
    of phi.
    """
    phi = phi_from_roots(cfg)
    mus = mu_weights(cfg)
    J = cfg.J
    acc = Poly([0.0])
    for j, (z, mu) in enumerate(zip(cfg.roots, mus)):
        # w_j^{J+n} = conj(z_j^{J+n}); scale_argument(z_j) realizes phi(x / w_j)
        w_pow = complex(np.conj(root_powers(cfg, j, np.array([J + n]))[0]))
        acc = acc + (w_pow / mu) * phi.scale_argument(z)
    return acc


# ---------------------------------------------------------------------------
# the quotient encoding
# ---------------------------------------------------------------------------

def bp_apply(alpha, cfg: BoundaryConfig, weights: WeightSequence) -> np.ndarray:
    """Quotient coefficients g with sum alpha_n f_n = phi * sum g_n z^n as
    formal series: Lhat g = L alpha, i.e. g = Lhat^-1 L alpha."""
    alpha = np.asarray(alpha, dtype=complex)
    N = len(alpha)
    y = BasisBand(cfg, weights, N).matvec(alpha)
    return BasisBand(cfg, None, N).solve(y, overwrite_b=True)


# ---------------------------------------------------------------------------
# decompose / reconstruct
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    g: np.ndarray
    b: np.ndarray
    residual: float
    tail_misfit: float


def decompose(alpha, cfg: BoundaryConfig, weights: WeightSequence,
              N: Optional[int] = None) -> Decomposition:
    """Split a coefficient prefix into quotient g and kernel loadings b.

    The loadings are recovered by least squares of the quotient tail
    (indices >= max(2J + 2, N//4)) against the boundary modes; the
    quotient follows from the encoding applied to the corrected prefix.
    ``residual`` is the largest Taylor-coefficient mismatch of the input
    against phi*g + sum b_j K(., z_j) on degrees <= N - J; ``tail_misfit``
    is the relative least-squares misfit, which measures how far the prefix
    is from an exact finite splitting.
    """
    alpha = np.asarray(alpha, dtype=complex)
    if N is None:
        N = len(alpha)
    alpha = alpha[:N]
    J = cfg.J
    n0 = max(2 * J + 2, N // 4)
    if n0 >= N - J:
        raise ValueError("prefix too short for the tail window")

    kappa = np.stack([
        np.conj(eval_f_prefix(N, z, cfg, weights)) for z in cfg.roots
    ], axis=1)
    modes = np.stack([
        bp_apply(kappa[:, j], cfg, weights) for j in range(J)
    ], axis=1)
    quotient = bp_apply(alpha, cfg, weights)
    H = modes[n0:]
    y = quotient[n0:]
    b, *_ = np.linalg.lstsq(H, y, rcond=None)
    misfit = float(np.linalg.norm(y - H @ b) / max(np.linalg.norm(y), 1e-300))

    corrected = alpha - kappa @ b
    g = bp_apply(corrected, cfg, weights)

    t_input = h2_coeffs(alpha, cfg, weights)
    _, t_model = reconstruct(g, b, cfg, weights, N)
    residual = float(np.max(np.abs(t_input[: N - J] - t_model[: N - J])))
    return Decomposition(g, b, residual, misfit)


def reconstruct(g, b, cfg: BoundaryConfig, weights: WeightSequence,
                N: int):
    """Taylor and basis coefficients of phi * g + sum_j b_j K(., z_j).

    Returns (alpha, taylor); alpha comes from banded forward substitution
    of the Taylor prefix against the unit-diagonal basis matrix.
    """
    g = np.asarray(g, dtype=complex)
    b = np.asarray(b, dtype=complex)
    beta = beta_coefficients(cfg)
    taylor = np.zeros(N, dtype=complex)
    conv = np.convolve(beta, g)[:N]
    taylor[: len(conv)] += conv
    for j, z in enumerate(cfg.roots):
        if b[j] == 0:
            continue
        kappa = np.conj(eval_f_prefix(N, z, cfg, weights))
        taylor += b[j] * h2_coeffs(kappa, cfg, weights)
    alpha = taylor_to_basis(taylor, cfg, weights)
    return alpha, taylor


def taylor_to_basis(taylor, cfg: BoundaryConfig,
                    weights: WeightSequence) -> np.ndarray:
    """Banded forward substitution: the alpha with L alpha = taylor."""
    taylor = np.asarray(taylor, dtype=complex)
    return BasisBand(cfg, weights, len(taylor)).solve(taylor)


def measure_q_bound(cfg: BoundaryConfig, weights: WeightSequence) -> float:
    """Measured constant c with |Q_n(a_m)| <= c (1 - a_m) over the sampled
    index grid; finite because every Q_n vanishes at 1 with uniformly
    bounded coefficients."""
    worst = 0.0
    for n in _Q_N_RANGE:
        q = q_polynomial(n, cfg)
        for m in _Q_M_RANGE:
            am = weights.a(m)
            ratio = abs(complex(q(am))) / abs(weights.one_minus_a(m))
            worst = max(worst, ratio)
    return worst
