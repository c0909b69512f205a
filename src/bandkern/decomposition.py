"""Explicit splitting of the space into phi * H^2 plus the span of the
kernel functions at the boundary roots.

The quotient encoding drives everything: it maps basis coefficients alpha
to Hardy-quotient coefficients g with f = sum alpha_n f_n = phi * g as
formal series, by the banded solve g = Lhat^-1 L alpha with the bands of
``core.BasisBand``.  A ``Splitting`` holds both bands and the boundary
kernel columns at one truncation N for every prefix it splits or builds.
Splitting a finite prefix additionally uses the fact that a wrong kernel
loading leaves non-decaying oscillatory modes in the quotient
coefficients; regressing the tail of the quotient onto those modes
identifies the loadings to machine precision.  The boundary polynomials
Q_n, which all vanish at 1, carry the measured bound
|Q_n(a_m)| <= c (1 - a_m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis_kernel import eval_f_prefix
from .core import (
    BasisBand,
    BoundaryConfig,
    WeightSequence,
    beta_coefficients,
    mu_weights,
    root_powers,
)

# the index grid (n, m) over which measure_q_bound samples |Q_n(a_m)|
_Q_N_RANGE = range(-8, 17)
_Q_M_RANGE = (0, 1, 2, 4, 8, 16, 64, 256, 1024)


# ---------------------------------------------------------------------------
# the boundary polynomials Q_n
# ---------------------------------------------------------------------------

def q_coefficients(ns, cfg: BoundaryConfig) -> np.ndarray:
    """Row r holds the ascending coefficients of Q_{ns[r]}, where
    Q_n(x) = sum_j (w_j^{J+n} / mu_j) phi(x / w_j) for any integer n.

    The table is one product (W / mu) @ P with W[r, j] = w_j^{J+n_r} and
    P[j] the coefficients of phi(z_j x) = phi(x / w_j).  Each Q_n has degree
    at most J and Q_n(1) = 0, since 1/w_j = z_j is a root of phi.
    """
    ns = np.asarray(ns, dtype=np.int64)
    beta, k = beta_coefficients(cfg), np.arange(cfg.J + 1)
    # w_j^m = conj(z_j^m), exact in the phase for rational angles
    W = np.stack([np.conj(root_powers(cfg, j, cfg.J + ns))
                  for j in range(cfg.J)], axis=-1)
    P = np.stack([beta * complex(z) ** k for z in cfg.roots])
    return (W / np.asarray(mu_weights(cfg))) @ P


# ---------------------------------------------------------------------------
# the splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    g: np.ndarray
    b: np.ndarray
    residual: float
    tail_misfit: float


class Splitting:
    """The splitting of coefficient prefixes of length N into phi * g plus
    sum_j b_j K(., z_j), for one configuration and weight sequence.

    It holds the bands L and Lhat and the Taylor coefficients L kappa of the
    boundary kernel columns kappa[:, j] = conj(f_n(z_j)), n < N.  kappa is
    evaluated once and dropped once L kappa and ``gram_cond``, the condition
    number of the Gram matrix kappa^T conj(kappa) of the length-N kernel
    partial sums, are formed; every decompose and reconstruct reuses them.
    """

    def __init__(self, cfg: BoundaryConfig, weights: WeightSequence, N: int):
        self.cfg, self.N = cfg, N
        self.L, self.Lhat = BasisBand(cfg, weights, N), BasisBand(cfg, None, N)
        kappa = np.stack([np.conj(eval_f_prefix(N, z, cfg, weights))
                          for z in cfg.roots], axis=1)
        self.gram_cond = float(np.linalg.cond(kappa.T @ kappa.conj()))
        self.kappa_taylor = self.L.matvec(kappa)

    def decompose(self, alpha) -> Decomposition:
        """Split a coefficient prefix of at least N rows into quotient g and
        kernel loadings b.

        One banded solve gives the quotient columns Lhat^-1 L of the
        boundary kernel columns kappa and of the prefix.  The loadings b are
        recovered by least squares of the quotient tail (indices
        >= max(2J + 2, N//4)) against the kernel columns' quotients; since
        the quotient map is linear, g is the prefix's quotient minus theirs
        times b.  ``residual`` is the largest Taylor-coefficient mismatch
        L alpha - (Lhat g + L kappa b) on degrees <= N - J, an independent
        check of that algebra; ``tail_misfit`` is the relative least-squares
        misfit, which measures how far the prefix is from an exact finite
        splitting.

        An (N, T) block splits T prefixes at once: g is (N, T), b is (J, T)
        and residual and tail_misfit hold one value per column.
        """
        alpha = np.asarray(alpha, dtype=complex)
        J, N = self.cfg.J, self.N
        if len(alpha) < N:
            raise ValueError(f"alpha has shape {alpha.shape}; "
                             f"need at least N = {N} rows")
        n0 = max(2 * J + 2, N // 4)
        if n0 >= N - J:
            raise ValueError("prefix too short for the tail window")
        t = self.L.matvec(alpha[:N].reshape(N, -1))
        # one solve gives the quotient columns [Q_kappa, Q_alpha] of Lhat^-1 L
        q = np.empty((N, J + t.shape[1]), dtype=complex, order="F")
        q[:, :J], q[:, J:] = self.kappa_taylor, t
        q = self.Lhat.solve(q, overwrite_b=True)
        H, Y = q[n0:, :J], q[n0:, J:]
        b, *_ = np.linalg.lstsq(H, Y, rcond=None)
        misfit = (np.linalg.norm(Y - H @ b, axis=0)
                  / np.maximum(np.linalg.norm(Y, axis=0), 1e-300))
        g = q[:, J:] - q[:, :J] @ b      # the quotient of alpha - kappa b
        del q, H, Y                      # free the stacked columns

        # Taylor coefficients of phi*g + sum_j b_j K(., z_j) against the input's
        t_model = self.Lhat.matvec(g)
        t_model += self.kappa_taylor @ b
        t_model -= t
        residual = np.max(np.abs(t_model[: N - J]), axis=0)
        if alpha.ndim == 1:
            return Decomposition(g[:, 0], b[:, 0], float(residual[0]),
                                 float(misfit[0]))
        return Decomposition(g, b, residual, misfit)

    def reconstruct(self, g, b) -> tuple:
        """Taylor and basis coefficients of phi * g + sum_j b_j K(., z_j).

        Returns (alpha, taylor), both of N rows; alpha comes from banded
        forward substitution of the Taylor prefix against the unit-diagonal
        basis matrix.  Columns of g (deg+1, T) and b (J, T) give T elements
        at once, as (N, T) arrays.
        """
        g = np.asarray(g, dtype=complex)
        b = np.asarray(b, dtype=complex)
        if b.shape[:1] != (self.cfg.J,) or g.shape[1:] != b.shape[1:]:
            raise ValueError(f"g has shape {g.shape} and b {b.shape}; "
                             f"b needs J = {self.cfg.J} rows and the columns of g")
        g_head = np.zeros((self.N,) + g.shape[1:], dtype=complex)
        g_head[: len(g)] = g[: self.N]
        taylor = self.Lhat.matvec(g_head)
        taylor += self.kappa_taylor @ b
        return self.L.solve(taylor), taylor


def measure_q_bound(cfg: BoundaryConfig, weights: WeightSequence) -> float:
    """Measured constant c with |Q_n(a_m)| <= c (1 - a_m) over the sampled
    index grid; finite because every Q_n vanishes at 1 with uniformly
    bounded coefficients."""
    ms = np.array(_Q_M_RANGE)
    vander = np.asarray(weights.a(ms)) ** np.arange(cfg.J + 1)[:, None]
    values = q_coefficients(_Q_N_RANGE, cfg) @ vander
    return float(np.max(np.abs(values) / np.abs(weights.one_minus_a(ms))))
