"""Explicit splitting of the space into phi * H^2 plus the span of the
kernel functions at the boundary roots.

Two triangular encodings drive everything: the map from basis coefficients
alpha to Hardy-quotient coefficients g with f = sum alpha_n f_n = phi * g
(rows built from the polynomial family p_n), and its boundary-corrected
upper-triangular variant built from the family Q_n, which acts identically
on coefficient sequences of functions vanishing at every root.  Splitting a
finite prefix additionally uses the fact that a wrong kernel loading leaves
non-decaying oscillatory modes in the quotient coefficients; regressing the
tail of the quotient onto those modes identifies the loadings to machine
precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .basis_kernel import eval_f_prefix, h2_coeffs, kernel_eval
from .core import (
    BasisBand,
    BoundaryConfig,
    IllConditionedError,
    Poly,
    WeightSequence,
    beta_coefficients,
    mu_weights,
    phi_from_roots,
    phi_reduced,
    root_powers,
)

_COND_CAP = 1e12


# ---------------------------------------------------------------------------
# Gram matrix of kernel values at the roots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GramMatrix:
    """A[i, j] = K(z_j, z_i) plus per-entry tail bounds.

    ``truncation`` is None for full kernel values and the prefix length N
    when the entries are the exact partial sums over n < N.
    """

    matrix: np.ndarray
    tail_bounds: np.ndarray
    cond: float
    truncation: Optional[int] = None


def gram_matrix(cfg: BoundaryConfig, weights: WeightSequence,
                tol: float = 1e-9) -> GramMatrix:
    """Kernel Gram matrix at the boundary roots, entries certified to tol."""
    J = cfg.J
    A = np.zeros((J, J), dtype=complex)
    tails = np.zeros((J, J))
    for i in range(J):
        for j in range(J):
            kv = kernel_eval(cfg.roots[j], cfg.roots[i], cfg, weights, tol)
            A[i, j] = kv.value
            tails[i, j] = kv.tail_bound
    herm_defect = float(np.max(np.abs(A - A.conj().T)))
    if herm_defect > 2.0 * float(np.max(tails + tails.T)) + 1e-12:
        raise ArithmeticError("kernel Gram matrix failed the Hermitian check")
    A = 0.5 * (A + A.conj().T)
    return GramMatrix(A, tails, float(np.linalg.cond(A)))


def partial_gram(cfg: BoundaryConfig, weights: WeightSequence, N: int) -> GramMatrix:
    """Exact Gram matrix of the length-N kernel partial sums."""
    F = np.stack([eval_f_prefix(N, z, cfg, weights) for z in cfg.roots])
    A = F @ F.conj().T  # A[i, j] = sum_n f_n(z_j) conj(f_n(z_i)) ... transposed below
    A = A.T
    return GramMatrix(A, np.zeros((cfg.J, cfg.J)), float(np.linalg.cond(A)), N)


def boundary_coeffs(f_values, gram: GramMatrix,
                    cond_cap: float = _COND_CAP) -> np.ndarray:
    """Loadings b with sum_j b_j K(z_i, z_j) = f(z_i) for every root z_i.

    With the A[i, j] = K(z_j, z_i) storage convention this solves the
    transposed system, which is what makes f - sum b_j K(., z_j) vanish at
    the roots for complex configurations as well.
    """
    f_values = np.asarray(f_values, dtype=complex)
    if gram.cond > cond_cap:
        raise IllConditionedError(
            f"Gram condition number {gram.cond:.3e} exceeds cap {cond_cap:.1e}")
    return np.linalg.solve(gram.matrix.T, f_values)


# ---------------------------------------------------------------------------
# the polynomial families p_n and Q_n
# ---------------------------------------------------------------------------

def p_polynomials(n_max: int, cfg: BoundaryConfig) -> list:
    """p_0..p_{n_max}: p_0 = 1, p_n = beta_n x^n - sum_{i=1..n} beta_i p_{n-i}
    while n <= J, then the homogeneous tail rule."""
    beta = beta_coefficients(cfg)
    J = len(beta) - 1
    ps = [Poly([1.0])]
    for n in range(1, n_max + 1):
        if n <= J:
            coeffs = np.zeros(n + 1, dtype=complex)
            coeffs[n] = beta[n]
            acc = Poly(coeffs, trim=False)
        else:
            acc = Poly([0.0])
        for i in range(1, min(n, J) + 1):
            acc = acc - beta[i] * ps[n - i]
        ps.append(acc)
    return ps


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


def _q_prefactors(cfg: BoundaryConfig, weights: WeightSequence,
                  N: int) -> list:
    """G_j(c) = (w_j^J / mu_j) * phi(a_c z_j) for c < N, one array per j."""
    phi = phi_from_roots(cfg)
    mus = mu_weights(cfg)
    a = np.asarray(weights.prefix(N), dtype=complex)
    out = []
    for j, (z, mu) in enumerate(zip(cfg.roots, mus)):
        scaled = phi.scale_argument(z)
        wJ = np.conj(root_powers(cfg, j, np.array([cfg.J]))[0])
        out.append(wJ / mu * scaled(a))
    return out


# ---------------------------------------------------------------------------
# permissible sequences and the two encodings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PermissibleSequence:
    """Coefficient prefix of an element, with boundary-vanishing bookkeeping.

    ``residuals[j]`` is the prefix sum |sum_{n<N} alpha_n f_n(z_j)|;
    ``enforced`` records that every residual was below the tolerance when
    the object was built.
    """

    alpha: np.ndarray
    enforced: bool
    residuals: np.ndarray


def permissible(alpha, cfg: BoundaryConfig, weights: WeightSequence,
                tol: float = 1e-10) -> PermissibleSequence:
    """Wrap a coefficient prefix, checking the boundary sums against tol."""
    alpha = np.asarray(alpha, dtype=complex)
    N = len(alpha)
    res = np.array([
        abs(np.sum(alpha * eval_f_prefix(N, z, cfg, weights)))
        for z in cfg.roots
    ])
    return PermissibleSequence(alpha, bool(np.all(res <= tol)), res)


def enforce_vanishing(alpha, cfg: BoundaryConfig,
                      weights: WeightSequence) -> PermissibleSequence:
    """Subtract the kernel-column combination that zeroes every prefix
    boundary sum exactly, yielding an enforced permissible sequence."""
    alpha = np.asarray(alpha, dtype=complex)
    N = len(alpha)
    F = np.stack([eval_f_prefix(N, z, cfg, weights) for z in cfg.roots])
    G = F @ F.conj().T
    evals = F @ alpha
    d = np.linalg.solve(G, evals)
    corrected = alpha - F.conj().T @ d
    return permissible(corrected, cfg, weights)


def bp_apply(alpha, cfg: BoundaryConfig, weights: WeightSequence) -> np.ndarray:
    """Quotient coefficients g with sum alpha_n f_n = phi * sum g_n z^n as
    formal series: Lhat g = L alpha, i.e. g = Lhat^-1 L alpha."""
    alpha = np.asarray(alpha, dtype=complex)
    N = len(alpha)
    y = BasisBand(cfg, weights, N).matvec(alpha)
    return BasisBand(cfg, None, N).solve(y, overwrite_b=True)


def chat_apply(perm: PermissibleSequence, cfg: BoundaryConfig,
               weights: WeightSequence) -> np.ndarray:
    """The boundary-corrected upper-triangular encoding applied to an
    enforced permissible prefix.

    Row n carries 1 - Q_{-1}(a_n) on the diagonal and -Q_{n-1-c}(a_c) at
    columns c > n.  Each Q evaluation splits over the roots into geometric
    factors, so one reversed cumulative sum per root performs the apply.
    """
    if not perm.enforced:
        raise ValueError("chat_apply requires an enforced permissible sequence")
    alpha = perm.alpha
    N = len(alpha)
    g = alpha.astype(complex).copy()
    c = np.arange(N)
    prefactors = _q_prefactors(cfg, weights, N)
    for j in range(cfg.J):
        Gj = prefactors[j]
        zc = root_powers(cfg, j, c + 1)            # z_j^{c+1} = w_j^{-1-c}
        wn = np.conj(root_powers(cfg, j, c))       # w_j^n
        t = zc * Gj * alpha
        incl = np.cumsum(t[::-1])[::-1]            # sum over c' >= n
        suffix = np.concatenate([incl[1:], [0.0]])  # sum over c' > n
        g -= wn * suffix                            # -Q_{n-1-c}(a_c) entries
        g -= cfg.roots[j] * Gj * alpha              # Q_{-1}(a_n) = sum_j z_j G_j(n)
    return g


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
              N: Optional[int] = None,
              tail_start: Optional[int] = None) -> Decomposition:
    """Split a coefficient prefix into quotient g and kernel loadings b.

    The loadings are recovered by least squares of the quotient tail
    (indices >= tail_start, default N//4) against the boundary modes; the
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
    n0 = tail_start if tail_start is not None else max(2 * J + 2, N // 4)
    if n0 >= N - J:
        raise ValueError("prefix too short for the requested tail window")

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


# ---------------------------------------------------------------------------
# finite sections and column diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteSection:
    """B_n = (f_{n+i}(z_j))_{i,j} with its diagonal factorization data."""

    B: np.ndarray
    C: np.ndarray
    limit: np.ndarray
    cond: float
    invertible: bool


def finite_section_matrix(n: int, cfg: BoundaryConfig,
                          weights: WeightSequence,
                          cond_cap: float = _COND_CAP) -> FiniteSection:
    """Rows f_{n+i}(z_j), i = 0..J-1, written as D1 C_n D2 with diagonal D1,
    D2; C_n tends entrywise to the Vandermonde-times-diagonal limit."""
    J = cfg.J
    rows = np.arange(n, n + J)
    F = np.stack([
        eval_f_prefix(J, z, cfg, weights, start=n) for z in cfg.roots
    ], axis=1)  # (i, j) = f_{n+i}(z_j)
    one_minus = np.asarray(weights.one_minus_a(rows), dtype=complex)
    Cn = np.zeros((J, J), dtype=complex)
    for j, z in enumerate(cfg.roots):
        red = phi_reduced(cfg, j)
        Cn[:, j] = red(np.asarray(weights.a(rows), dtype=complex) * z) * z ** np.arange(J)
    limit = np.zeros((J, J), dtype=complex)
    for j, z in enumerate(cfg.roots):
        limit[:, j] = complex(phi_reduced(cfg, j)(z)) * z ** np.arange(J)
    cond = float(np.linalg.cond(F))
    return FiniteSection(F, Cn, limit, cond, bool(cond < cond_cap))


def chat_column_norms(cfg: BoundaryConfig, weights: WeightSequence,
                      columns: Sequence[int]) -> np.ndarray:
    """l2 norms of the requested columns of the boundary-corrected encoding.

    Column c holds 1 - Q_{-1}(a_c) at row c and -Q_{n-1-c}(a_c) above it;
    slowly converging weights make these norms grow without bound.
    """
    prefN = max(columns) + 1
    pref = _q_prefactors(cfg, weights, prefN)
    out = []
    for c in columns:
        m = np.arange(-1 - c, 0)        # Q_m(a_c) for rows n = 0..c, m = n-1-c
        qvals = np.zeros(c + 1, dtype=complex)
        for j in range(cfg.J):
            qvals += np.conj(root_powers(cfg, j, m)) * pref[j][c]
        col = -qvals
        col[-1] = 1.0 - qvals[-1]
        out.append(np.linalg.norm(col))
    return np.asarray(out)


def measure_q_bound(cfg: BoundaryConfig, weights: WeightSequence,
                    n_range: Sequence[int] = range(-8, 17),
                    m_range: Sequence[int] = (0, 1, 2, 4, 8, 16, 64, 256, 1024)) -> float:
    """Measured constant c with |Q_n(a_m)| <= c (1 - a_m) over the sampled
    index grid; finite because every Q_n vanishes at 1 with uniformly
    bounded coefficients."""
    worst = 0.0
    for n in n_range:
        q = q_polynomial(n, cfg)
        for m in m_range:
            am = weights.a(m)
            ratio = abs(complex(q(am))) / abs(weights.one_minus_a(m))
            worst = max(worst, ratio)
    return worst
