"""The lower-triangular re-expansion matrix, the companion matrices driving
its columns, product-norm estimates and boundedness diagnostics.

Writing L for the band of basis Taylor coefficients and Lhat for the Taylor
coefficients of z^n * phi(z), the re-expansion matrix is the unique
lower-triangular C with Lhat = L C, computed as the banded solve
C = L^-1 Lhat.  Its entries obey

    c_{n,n}   = 1
    c_{n+k,n} = beta_k - sum_{i=1..min(k,J)} beta_i a_{n+k-i}^i c_{n+k-i,n}

with beta_k = 0 for k > J.  Windows of length J of each column advance by a
J x J companion matrix whose norm products decide whether C extends to a
bounded operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import solve_triangular

from .core import (
    BasisBand,
    BoundaryConfig,
    SearchFailureError,
    WeightSequence,
    beta_coefficients,
    phi_from_roots,
)

LIKELY_BOUNDED = "likely-bounded"
LIKELY_UNBOUNDED = "likely-unbounded"
INCONCLUSIVE = "inconclusive"

_PLATEAU_TOL = 1e-3    # last-doubling relative increase that counts as a plateau
_GROWTH_TOL = 0.05     # last-doubling relative increase that counts as growth
_RATE_MARGIN = 0.05    # decay-rate samples must clear 1/2 by this much
_DECAY_SAMPLES = (2000, 8000, 32000, 128000)   # n of the decay-rate samples
_MU_EPSILON = 1e-2    # max_j |z_j^mu - 1| of the limit-point exponent mu
_N_FIT = 64           # starting-vector decay is measured over n <= _N_FIT


# ---------------------------------------------------------------------------
# columns of C
# ---------------------------------------------------------------------------

def c_column(n: int, K_max: int, cfg: BoundaryConfig,
             weights: WeightSequence) -> np.ndarray:
    """Column prefix c_{n+k,n} for k = 0..K_max.

    C e_n = e_n + L^-1 (Lhat - L) e_n, and column n of Lhat - L holds
    beta_k (1 - a_n^k) = beta_k (1 - a_n) sum_{i<k} a_n^i, formed from
    1 - a_n so that the difference beta_k - beta_k a_n^k never cancels.
    """
    beta = beta_coefficients(cfg)
    J = len(beta) - 1
    if K_max < J:
        raise ValueError("K_max must be at least the bandwidth J")
    u = weights.one_minus_a(n)
    rhs = np.zeros(K_max + 1, dtype=complex)
    rhs[1: J + 1] = beta[1:] * u * np.cumsum((1.0 - u) ** np.arange(J))
    col = BasisBand(cfg, weights, K_max + 1, start=n).solve(rhs, overwrite_b=True)
    col[0] = 1.0
    return col


def triangular_solve_oracle(N: int, cfg: BoundaryConfig,
                            weights: WeightSequence) -> np.ndarray:
    """Solve Lhat = L C directly by dense forward substitution.

    Independent of BasisBand: both dense matrices are built here entry by
    entry and scipy's triangular solver does the rest, so a band bug cannot
    hide in both routes at once.
    """
    beta = beta_coefficients(cfg)
    J = len(beta) - 1
    if N < J + 1:
        raise ValueError("section too small for the bandwidth")
    a = np.asarray(weights.prefix(N), dtype=complex)
    L = np.zeros((N, N), dtype=complex)
    Lhat = np.zeros((N, N), dtype=complex)
    for k in range(J + 1):
        n = np.arange(0, N - k)
        L[n + k, n] = beta[k] * a[n] ** k
        Lhat[n + k, n] = beta[k]
    return solve_triangular(L, Lhat, lower=True, unit_diagonal=True)


# ---------------------------------------------------------------------------
# companion matrices and eigenstructure
# ---------------------------------------------------------------------------

def _companion(ab: np.ndarray) -> np.ndarray:
    """Companion matrix M_n of the J band columns n-J+1..n: shift rows above
    the bottom row -(ab[J, 0], ..., ab[1, J-1]), the band entries that meet
    on row n+1.  M_j advances the window v_{j,n} = (c_{j-J+1,n}, ...,
    c_{j,n}) of column n of C: v_{j+1,n} = M_j v_{j,n} for j >= n + J."""
    J = ab.shape[1]
    M = np.eye(J, k=1, dtype=complex)
    idx = np.arange(J)
    M[J - 1, :] = -ab[J - idx, idx]
    return M


def companion_limit(cfg: BoundaryConfig) -> np.ndarray:
    """Entrywise limit of M_n: bottom row (-beta_J, ..., -beta_1)."""
    return _companion(BasisBand(cfg, None, cfg.J).ab)


@dataclass(frozen=True)
class EigenBasis:
    """Eigenvectors nu_j = (z_j^{J-1}, ..., z_j, 1) of the limit companion
    matrix, with eigenvalues w_j."""

    X: np.ndarray
    Xinv: np.ndarray
    eigvals: np.ndarray


def eigen_basis(cfg: BoundaryConfig) -> EigenBasis:
    J = cfg.J
    z = np.asarray(cfg.roots)
    X = np.column_stack([z_j ** np.arange(J - 1, -1, -1) for z_j in z])
    Xinv = np.linalg.inv(X)
    return EigenBasis(X, Xinv, np.asarray(cfg.conjugates))


def starting_vector(n: int, cfg: BoundaryConfig,
                    weights: WeightSequence) -> np.ndarray:
    """v_{n+J,n} = (c_{n+1,n}, ..., c_{n+J,n})."""
    J = cfg.J
    return c_column(n, J, cfg, weights)[1:]


def nu0_expansion(cfg: BoundaryConfig) -> np.ndarray:
    """Coefficients -w_j / phi'(z_j) expressing (0,...,0,1) in the
    eigenvector basis."""
    phi_prime = phi_from_roots(cfg).derivative()
    out = []
    for z, w in zip(cfg.roots, cfg.conjugates):
        d = complex(phi_prime(z))
        if abs(d) < 1e-300:
            raise ZeroDivisionError("phi' vanishes at a root")
        out.append(-w / d)
    return np.asarray(out)


# ---------------------------------------------------------------------------
# limit-point search and product norms
# ---------------------------------------------------------------------------

def mu_search(cfg: BoundaryConfig, epsilon: float, cap: int = 10 ** 6) -> int:
    """Smallest mu <= cap with max_j |z_j^mu - 1| < epsilon.

    For rational angles the least common multiple of the denominators always
    works exactly, so the search is capped by it.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if cfg.angles is not None:
        lcm = 1
        for q in cfg.angles:
            lcm = lcm * q.denominator // math.gcd(lcm, q.denominator)
        limit = min(cap, lcm)
    else:
        limit = cap
    thetas = np.array([
        float(2 * math.pi * (Fraction(q) % 1)) for q in cfg.angles
    ]) if cfg.angles is not None else np.angle(np.asarray(cfg.roots))

    best_mu, best_err = None, np.inf
    chunk = 65536
    mu0 = 1
    while mu0 <= limit:
        mus = np.arange(mu0, min(limit, mu0 + chunk - 1) + 1)
        # |e^{i t} - 1| = 2 |sin(t/2)|
        err = np.max(2.0 * np.abs(np.sin(np.outer(mus, thetas) / 2.0 % math.pi)), axis=1)
        hit = np.nonzero(err < epsilon)[0]
        i_best = int(np.argmin(err))
        if err[i_best] < best_err:
            best_err, best_mu = float(err[i_best]), int(mus[i_best])
        if hit.size:
            return int(mus[hit[0]])
        mu0 += chunk
    if cfg.angles is not None and lcm <= cap:
        return lcm  # exact fallback: floating search cannot miss by much
    raise SearchFailureError(
        f"no mu <= {cap} brings all z_j^mu within {epsilon} of 1",
        best=best_mu, best_error=best_err,
    )


def product_norm(n: int, mu: int, cfg: BoundaryConfig, weights: WeightSequence,
                 conjugated: bool = False) -> float:
    """Spectral norm of M_{n+mu-1} ... M_n, optionally conjugated into the
    eigenvector basis of the limit matrix (Mhat = X^{-1} M X)."""
    if n <= cfg.J:
        raise ValueError("product requires n > J")
    J = cfg.J
    basis = eigen_basis(cfg) if conjugated else None
    band = BasisBand(cfg, weights, mu + J - 1, start=n - J + 1)
    P = np.eye(J, dtype=complex)
    for m in range(mu):
        M = _companion(band.ab[:, m: m + J])      # M_{n+m}
        if basis is not None:
            M = basis.Xinv @ M @ basis.X
        P = M @ P
    return float(np.linalg.norm(P, 2))


# ---------------------------------------------------------------------------
# norm estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormEstimate:
    """Spectral norm of an N x N section with the residual ||A^H u - value v||
    of its top singular triplet (u, value, v)."""

    truncation: int
    value: float
    residual: float


def section_norm(N: int, matvec, rmatvec, dtype) -> NormEstimate:
    """Spectral norm of the N x N operator A given by x -> A x and y -> A^H y.

    Lanczos bidiagonalization (Golub & Kahan) through ARPACK, run to machine
    precision from a fixed start vector so that repeated runs agree to the
    bit.  ARPACK needs N >= 3 and a nonzero A; smaller sections are built
    from N products and decomposed densely.
    """
    if N < 3:
        A = np.column_stack([matvec(e) for e in np.eye(N, dtype=dtype)])
        U, s, Vh = np.linalg.svd(A)
    else:
        from scipy.sparse.linalg import LinearOperator, svds

        op = LinearOperator((N, N), dtype=dtype,
                            matvec=lambda x: matvec(np.ravel(x)),
                            rmatvec=lambda y: rmatvec(np.ravel(y)))
        v0 = np.random.default_rng(0).standard_normal(N)
        if not np.any(matvec(v0)):   # A = 0 (almost surely), which ARPACK rejects
            return NormEstimate(N, 0.0, 0.0)
        U, s, Vh = svds(op, k=1, tol=0, v0=v0)
    u, value, v = U[:, 0], float(s[0]), Vh[0].conj()
    residual = float(np.linalg.norm(rmatvec(u) - value * v))
    return NormEstimate(N, value, residual)


def growth_verdict(values: Sequence[float]) -> str:
    """Three-way verdict from a nondecreasing sequence at dyadic truncations.

    Plateau (last-doubling relative increase below _PLATEAU_TOL) declares
    likely-bounded outright.  A sequence whose increments decay geometrically
    is Cauchy: when the extrapolated remaining growth d*r/(1-r) stays within
    ten plateau tolerances it is also declared likely-bounded.  Sustained
    relative growth beyond _GROWTH_TOL declares likely-unbounded.
    """
    if len(values) < 2 or values[-1] <= 0:
        return INCONCLUSIVE
    rel = (values[-1] - values[-2]) / values[-1]
    if rel < _PLATEAU_TOL:
        return LIKELY_BOUNDED
    diffs = np.diff(np.asarray(values, dtype=float))
    if len(diffs) >= 3 and np.all(diffs > 0):
        ratios = diffs[1:] / diffs[:-1]
        r = float(np.max(ratios[-2:]))
        if r <= 0.85:
            remaining = diffs[-1] * r / (1.0 - r)
            if remaining / values[-1] < 10 * _PLATEAU_TOL:
                return LIKELY_BOUNDED
    if rel > _GROWTH_TOL:
        return LIKELY_UNBOUNDED
    return INCONCLUSIVE


@dataclass(frozen=True)
class ContainmentReport:
    truncations: tuple
    norm_estimates: tuple
    column_norms: np.ndarray
    column_norm_cancellation: float   # rounding amplification of column_norms**2
    plateau_rel: float
    rate_measured: Optional[float]
    verdict: str
    verdict_reason: str


def decay_rate_samples(cfg: BoundaryConfig,
                       weights: WeightSequence) -> Optional[np.ndarray]:
    """Samples of the normalized product-norm decay rate
    n (1 - ||Mhat_{n+mu-1} ... Mhat_n||) / mu at the n of _DECAY_SAMPLES.

    The boundedness dichotomy compares this quantity against 1/2; a verdict
    only needs every sample on the same side of the threshold, not a settled
    limit.  Returns None when no limit-point exponent mu is found.
    """
    try:
        mu = mu_search(cfg, _MU_EPSILON)
    except SearchFailureError:
        return None
    vals = []
    for n in _DECAY_SAMPLES:
        nrm = product_norm(n, mu, cfg, weights, conjugated=True)
        vals.append(n * (1.0 - nrm) / mu)
    return np.asarray(vals)


def _column_norms(L: BasisBand, Lhat: BasisBand) -> tuple:
    """Norms ||C_N e_a|| of every column a < N of C = L^-1 Lhat without
    forming C, and the cancellation factor
    max_a sum_{m,m'} |beta_m beta_m' G[m][m']| / ||C_N e_a||^2.

    v_b = L^-1 e_b obeys v_b = e_b - sum_{m=1..J} L[b+m, b] v_{b+m} with e_b
    orthogonal to every v_{b+m}, so the Gram window G[i][j] =
    <v_{b+i}, v_{b+j}> advances backward from b = N-1 in O(J^2) work
    (selected inversion of (L L^H)^-1; Takahashi, Fagan & Chen 1973), and
    column a of C is sum_m beta_m v_{a+m}.  The window is kept exactly
    Hermitian, with a real diagonal and the lower triangle conjugate to the
    new row: on non-Hermitian windows the map has a growing mode, which the
    rounding in the imaginary part of the diagonal would excite.  The
    cancellation factor grows about like N, as ||v_b||^2 does.
    """
    J, inner = L.J, range(1, L.J + 1)
    band = L.ab.T.tolist()             # band[b] = [1, L[b+1, b], ..., L[b+J, b]]
    beta = Lhat.ab[:, 0].tolist()
    # the form over the upper triangle of the Hermitian window, off-diagonal
    # terms counted twice
    upper = [(i, j, (1 if i == j else 2) * beta[i].conjugate() * beta[j])
             for i in range(J + 1) for j in range(i, J + 1)]
    G = [[0.0] * (J + 1) for _ in range(J + 1)]   # v_b = 0 for b >= N
    sq, cancellation = [0.0] * L.N, 0.0
    for b in range(L.N - 1, -1, -1):
        lb = band[b]
        row = [0.0] * (J + 1)
        for k in inner:
            s = 0.0
            for m in inner:
                s -= lb[m].conjugate() * G[m - 1][k - 1]
            row[k] = s
        d = 1.0
        for m in inner:
            d -= lb[m] * row[m]
        row[0] = d.real
        G = [row] + [[row[i].conjugate()] + G[i - 1][:J] for i in inner]
        terms = [w * G[i][j] for i, j, w in upper]
        sq[b] = sum(terms).real
        cancellation = max(cancellation, sum(map(abs, terms)) / sq[b])
    return np.sqrt(sq), cancellation


def containment_report(cfg: BoundaryConfig, weights: WeightSequence,
                       N_list: Sequence[int]) -> ContainmentReport:
    """Norm growth of truncations of C plus a boundedness verdict.  The
    section norms and the column norms of the largest section are taken on
    the bands, in O(N J) memory.

    The verdict first applies the plateau rule (last-doubling relative
    increase below _PLATEAU_TOL).  When truncated norms are still visibly
    growing, the boundedness dichotomy takes over: sampled decay rates of
    conjugated companion products are compared against 1/2, which is the
    decidable side of the problem; samples within _RATE_MARGIN of it stay
    inconclusive.  All numbers feeding the verdict are reported.
    """
    N_list = sorted(int(N) for N in N_list)
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError("truncations must be strictly increasing")
    estimates = []
    for N in N_list:
        L, Lhat = BasisBand(cfg, weights, N), BasisBand(cfg, None, N)
        estimates.append(section_norm(
            N, lambda x: L.solve(Lhat.matvec(x)),
            lambda y: Lhat.matvec(L.solve(y, trans="C"), trans="C"),
            np.result_type(L.ab, Lhat.ab)))
    col_norms, cancellation = _column_norms(L, Lhat)     # at N_list[-1]
    values = [e.value for e in estimates]
    plateau_rel = (values[-1] - values[-2]) / values[-1] if len(values) > 1 else np.inf

    rate = None
    if plateau_rel < _PLATEAU_TOL:
        verdict, reason = LIKELY_BOUNDED, "plateau"
    else:
        reason = "decay-rate"
        samples = decay_rate_samples(cfg, weights)
        if samples is None:
            verdict = INCONCLUSIVE
        elif np.all(samples > 0.5 + _RATE_MARGIN):
            verdict, rate = LIKELY_BOUNDED, float(np.min(samples))
        elif np.all(samples < 0.5 - _RATE_MARGIN):
            verdict, rate = LIKELY_UNBOUNDED, float(np.max(samples))
        else:
            verdict = INCONCLUSIVE
            rate = float(np.median(samples))
    return ContainmentReport(
        tuple(N_list), tuple(estimates), col_norms, cancellation,
        float(plateau_rel), rate, verdict, reason,
    )


# ---------------------------------------------------------------------------
# starting-vector decay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StartingDecayFit:
    """Measured constant D1 in ||v_{n+J,n}|| <= D1 * p / (n + J).

    ``measured_max`` scans a finite fit range; ``asymptote`` is the limit of
    ||v_{n+J,n}|| (n+J)/p predicted from the window recursion (the entries
    of v factor as (1 - a_n) * alpha_{n,j} with alpha converging), scaled by
    the supremum of the weight-family factor beyond the fit range.
    """

    D1: float
    measured_max: float
    asymptote: float


def starting_alpha_limit(cfg: BoundaryConfig) -> np.ndarray:
    """Limits lambda_j of c_{n+j,n}/(1 - a_n):
    lambda_j = j beta_j - sum_{i<j} beta_i lambda_{j-i}."""
    beta = beta_coefficients(cfg)
    J = len(beta) - 1
    lam = np.zeros(J, dtype=complex)
    for j in range(1, J + 1):
        s = j * beta[j]
        for i in range(1, j):
            s -= beta[i] * lam[j - i - 1]
        lam[j - 1] = s
    return lam


def fit_starting_decay(cfg: BoundaryConfig,
                       weights: WeightSequence) -> StartingDecayFit:
    if not weights.rate_hypothesis:
        raise ValueError("decay fit requires n (1 - a_n) -> p weights")
    J, p = cfg.J, weights.p
    measured = max(
        float(np.linalg.norm(starting_vector(n, cfg, weights))) * (n + J) / p
        for n in range(J + 1, _N_FIT + 1)
    )
    lam = np.linalg.norm(starting_alpha_limit(cfg))
    asym = float(lam) * weights.decay_factor_sup(_N_FIT + 1, J)
    return StartingDecayFit(max(measured, asym), measured, asym)
