"""The lower-triangular re-expansion matrix, the companion matrices driving
its columns, product-norm estimates and boundedness diagnostics.

Writing L for the band of basis Taylor coefficients and Lhat for the Taylor
coefficients of z^n * phi(z), the re-expansion matrix is the unique
lower-triangular C with Lhat = L C, computed as the banded solve
C = L^-1 Lhat.  Its entries obey

    c_{n,n}   = 1
    c_{n+k,n} = beta_k - sum_{i=1..min(k,J)} beta_i a_{n+k-i}^i c_{n+k-i,n}

with beta_k = 0 for k > J.  Windows of length J of each column advance by a
J x J companion matrix, whose norm products carry the paper's proof.  Every
l2 verdict, whether C is bounded among them, reads the dyadic decay of one
coefficient vector (_l2_verdict).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

from .core import (
    BasisBand,
    BoundaryConfig,
    SearchFailureError,
    WeightSequence,
    beta_coefficients,
    get_blas_funcs,
    get_lapack_funcs,
)

LIKELY_BOUNDED = "likely-bounded"
LIKELY_UNBOUNDED = "likely-unbounded"
INCONCLUSIVE = "inconclusive"

_PLATEAU_TOL = 1e-3    # last-doubling relative increase that counts as a plateau
_GROWTH_TOL = 0.05     # last-doubling relative increase that counts as growth
_L2_MARGIN = 0.05      # each exponent read by _l2_verdict must clear 1/2 by this
_N_FIT = 64           # starting-vector decay is measured over n <= _N_FIT
_ROW_BLOCK = 32       # _section_norm keeps its basis in blocks of this many rows


# ---------------------------------------------------------------------------
# columns of C
# ---------------------------------------------------------------------------

def _lhat_minus_l(beta: np.ndarray, u) -> np.ndarray:
    """Rows 1..J of column n of Lhat - L, beta_k (1 - a_n^k) = beta_k (1 - a_n)
    sum_{i<k} a_n^i, from u = 1 - a_n (a scalar, or an array with one row
    per n) so that the difference beta_k - beta_k a_n^k never cancels."""
    u = np.asarray(u)[..., None]
    return beta[1:] * u * np.cumsum((1.0 - u) ** np.arange(len(beta) - 1),
                                    axis=-1)


def c_column(n: int, K_max: int, cfg: BoundaryConfig,
             weights: WeightSequence) -> np.ndarray:
    """Column prefix c_{n+k,n} for k = 0..K_max.

    C e_n = e_n + L^-1 (Lhat - L) e_n, the last term from _lhat_minus_l.
    """
    beta = beta_coefficients(cfg)
    J = len(beta) - 1
    if K_max < J:
        raise ValueError("K_max must be at least the bandwidth J")
    rhs = np.zeros(K_max + 1, dtype=complex)
    rhs[1: J + 1] = _lhat_minus_l(beta, weights.one_minus_a(n))
    col = BasisBand(cfg, weights, K_max + 1, start=n).solve(rhs, overwrite_b=True)
    col[0] = 1.0
    return col


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
    phi_prime = polyder(beta_coefficients(cfg))
    out = []
    for z, w in zip(cfg.roots, cfg.conjugates):
        d = polyval(z, phi_prime)
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
    eigenvector basis of the limit matrix: the product of the Mhat =
    X^{-1} M X is X^{-1} (M_{n+mu-1} ... M_n) X, conjugated once."""
    if n <= cfg.J:
        raise ValueError("product requires n > J")
    J = cfg.J
    band = BasisBand(cfg, weights, mu + J - 1, start=n - J + 1)
    P = np.eye(J, dtype=complex)
    for m in range(mu):
        P = _companion(band.ab[:, m: m + J]) @ P      # M_{n+m} ... M_n
    if conjugated:
        basis = eigen_basis(cfg)
        P = basis.Xinv @ P @ basis.X
    return float(np.linalg.norm(P, 2))


# ---------------------------------------------------------------------------
# norm estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormEstimate:
    """Spectral norm of an N x N section with the residual ||A^H u - value v||
    of its top singular triplet (u, value, v), and the number of
    bidiagonalization steps (pairs of products x -> A x, y -> A^H y) taken."""

    truncation: int
    value: float
    residual: float
    steps: int


class _Rows:
    """Orthonormal vectors of length N kept as the rows of blocks of at most
    _ROW_BLOCK rows.  Blocks are allocated empty, so memory is committed only
    for the rows written, and a new block never copies the old ones.  gemv
    is the BLAS ?gemv of the rows' type."""

    def __init__(self, N: int, dtype, gemv):
        self.shape, self.dtype, self.gemv = (min(N, _ROW_BLOCK), N), dtype, gemv
        self.blocks, self.k = [], 0

    def append(self, x: np.ndarray) -> None:
        r = self.k % self.shape[0]
        if r == 0:
            self.blocks.append(np.empty(self.shape, self.dtype))
        self.blocks[-1][r] = x
        self.k += 1

    def _filled(self):
        m = self.shape[0]
        for i, blk in enumerate(self.blocks):
            yield blk[: min(m, self.k - i * m)]

    def project_out(self, w: np.ndarray) -> np.ndarray:
        """w - R^T conj(R) w, one Gram-Schmidt pass (classical within a
        block), as two BLAS ?gemv calls per block that update w in place."""
        for rows in self._filled():
            h = self.gemv(1.0, rows.T, w, trans=2)
            w = self.gemv(-1.0, rows.T, h, beta=1.0, y=w, overwrite_y=True)
        return w

    def combine(self, c: np.ndarray) -> np.ndarray:
        """R^T c, the combination of the rows with coefficients c."""
        m = self.shape[0]
        return sum(c[i * m: i * m + len(rows)] @ rows
                   for i, rows in enumerate(self._filled()))


def _section_norm(N: int, matvec, rmatvec, dtype) -> NormEstimate:
    """Spectral norm of the N x N operator A given by x -> A x and y -> A^H y.

    Golub-Kahan-Lanczos bidiagonalization (Golub & Kahan 1965) from a fixed
    unit start vector v_1 (standard normal draws of seed 0), so that
    repeated runs agree to the bit: step k takes
    alpha_k u_k = A v_k - beta_{k-1} u_{k-1} and beta_k v_{k+1} =
    A^H u_k - alpha_k v_k, the latter orthogonalized once more against every
    earlier v in one Gram-Schmidt pass (one-sided reorthogonalization;
    Simon & Zha 2000).  With B_k upper bidiagonal (alpha
    on the diagonal, beta above it), A^H A V_k = V_k B_k^T B_k + alpha_k
    beta_k v_{k+1} e_k^T, so the top eigenpair (sigma^2, q) of the
    tridiagonal B_k^T B_k (LAPACK dstemr) has Ritz residual alpha_k beta_k
    |q_k| on A^H A.  The iteration stops when that is at most eps sigma^2
    -- ARPACK's test at tol = 0 -- or when beta_k = 0 or k = N.  Only the
    right vectors are kept (the left ones too would double the memory);
    v = V_k q, u = A v / sigma takes one more product, and the residual
    another.

    The ladders of containment_report and mz_norm_report take the leading
    sections of one operator in increasing N and start each rung from v_1
    with its first entries replaced by the right singular vector v of the
    rung below, normalized.  The tail stays random rather than zero: when
    the operator keeps index classes apart (roots +-1 give phi(z) = 1 - z^2,
    so C maps even indices to even and odd to odd), a start vector zero on
    one class never reaches it, and the rung would return the norm of the
    other class.  A rung below that returned an exact 0 leaves v_1 as is.

    The sections taken here are built from bands with unit diagonal and the
    isometric shift, so a product of a unit vector carries rounding of order
    eps.  As in the usual numerical-rank cutoff, a top singular value of at
    most N eps is that rounding, not a norm the products resolve, and is
    returned as an exact 0; so is an A with A v_1 = 0 exactly.  matvec and
    rmatvec return new arrays, which the iteration updates in place.
    """
    return _section_norm_ladder([N], lambda _: (matvec, rmatvec), dtype)[0]


def _bidiagonalize(N: int, matvec, rmatvec, v: np.ndarray, routines) -> tuple:
    """_section_norm's iteration from the unit start vector v, with routines
    the BLAS ?axpy and ?gemv of v's type and LAPACK's dstemr.  Returns the
    NormEstimate and the right singular vector, None when the estimate is
    an exact 0."""
    eps = np.finfo(float).eps
    axpy, gemv, dstemr = routines
    p = matvec(v)
    if not np.any(p):
        return NormEstimate(N, 0.0, 0.0, 0), None
    V = _Rows(N, v.dtype, gemv)
    # B_k^T B_k by diagonals, e[k - 1] = alpha_k beta_k
    d, e = np.empty(N), np.empty(N)
    b, k = 0.0, 0
    while True:
        a = math.sqrt(np.vdot(p, p).real)
        if a:
            p *= 1.0 / a
        u = p
        V.append(v)
        d[k] = a * a + b * b
        w = V.project_out(axpy(v, rmatvec(u), a=-a))
        b = math.sqrt(np.vdot(w, w).real)
        e[k] = a * b
        k += 1
        # dstemr overwrites its contiguous float64 arguments: pass copies
        _, theta, Z, _ = dstemr(d[:k].copy(), e[:k].copy(), 2, 0.0, 0.0, k, k)
        q = Z[:, 0]
        if e[k - 1] * abs(q[-1]) <= eps * theta[0] or b == 0.0 or k == N:
            break
        w *= 1.0 / b
        v = w
        p = axpy(u, matvec(v), a=-b)
    value = math.sqrt(theta[0])
    if value <= N * eps:
        return NormEstimate(N, 0.0, 0.0, k), None
    v = V.combine(q)
    u = matvec(v) / value
    residual = float(np.linalg.norm(rmatvec(u) - value * v))
    return NormEstimate(N, value, residual, k), v


def _section_norm_ladder(N_list: Sequence[int], sections, dtype) -> list:
    """_section_norm of the leading N x N sections of one operator, N in the
    increasing N_list, each rung warm-started from the rung below as
    _section_norm describes; sections(N) gives the (matvec, rmatvec) of
    section N.  The random draws and the BLAS and LAPACK routines are taken
    once for the ladder: the first N draws of the seed-0 stream are the N
    draws of a fresh one."""
    draws = np.random.default_rng(0).standard_normal(N_list[-1]).astype(dtype)
    routines = (*get_blas_funcs(("axpy", "gemv"), dtype=dtype),
                get_lapack_funcs("stemr", dtype=np.float64))
    estimates, v = [], None
    for N in N_list:
        start = draws[:N] / np.linalg.norm(draws[:N])
        if v is not None:
            start[: len(v)] = v
            start /= np.linalg.norm(start)
        est, v = _bidiagonalize(N, *sections(N), start, routines)
        estimates.append(est)
    return estimates


def growth_verdict(values: Sequence[float]) -> str:
    """Three-way verdict from a nondecreasing sequence at dyadic truncations.

    Plateau (last-doubling relative increase below _PLATEAU_TOL) declares
    likely-bounded outright.  A sequence whose increments decay geometrically
    is Cauchy: when the extrapolated remaining growth d*r/(1-r) stays within
    ten plateau tolerances it is also declared likely-bounded.  Sustained
    relative growth beyond _GROWTH_TOL declares likely-unbounded.

    Its one caller is multiplier.mz_norm_report: no coefficient vector
    stands in for the norms of M_z.  The geometric rule stays because on
    roots +-1, harmonic p = 0.75, the M_z norms at 128..2048 neither
    plateau nor grow by _GROWTH_TOL, and it alone affirms them.
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


def _l2_verdict(x: np.ndarray) -> tuple:
    """(verdict, p_hat): whether the coefficients x are in l2, read from the
    energies E_k = sum_{2^k <= n < 2^{k+1}} |x_n|^2 of the dyadic blocks
    that end inside x.  Under n (1 - a_n) -> p, column 0 of C and the
    expansions L^-1 t of polynomials decay like n^-p, so E_k ~ 2^{k (1 - 2p)}
    and p_hat_k = (1 - log2(E_{k+1} / E_k)) / 2 reads p; x is in l2 iff
    p > 1/2.  The verdict needs each of the last three p_hat beyond 1/2 by
    _L2_MARGIN on one side; fewer than four blocks, or a block of zero
    energy (its ratios are nan), leave it inconclusive.
    """
    K = len(x).bit_length() - 1            # blocks k < K end inside x
    if K < 4:
        return INCONCLUSIVE, ()
    blocks = [x[m: 2 * m] for m in 2 ** np.arange(K - 4, K)]
    E = [np.vdot(b, b).real for b in blocks]
    p_hat = tuple((1.0 - math.log2(b / a)) / 2.0 if a > 0.0 and b > 0.0
                  else math.nan for a, b in zip(E, E[1:]))
    if all(p > 0.5 + _L2_MARGIN for p in p_hat):
        return LIKELY_BOUNDED, p_hat
    if all(p < 0.5 - _L2_MARGIN for p in p_hat):
        return LIKELY_UNBOUNDED, p_hat
    return INCONCLUSIVE, p_hat


def _column0(L: BasisBand, Lhat: BasisBand) -> np.ndarray:
    """Column 0 of C = L^-1 Lhat, the basis coefficients of phi."""
    return L.solve(Lhat.matvec(np.eye(1, L.N)[0]), overwrite_b=True)


@dataclass(frozen=True)
class ContainmentReport:
    truncations: tuple
    norm_estimates: tuple
    column_norms: np.ndarray
    column_norm_cancellation: float   # rounding amplification of column_norms**2
    plateau_rel: float
    p_hat: tuple                      # _l2_verdict's exponents on column 0
    verdict: str


def _column_norms(L: BasisBand, Lhat: BasisBand) -> tuple:
    """Norms ||C_N e_a|| of every column a < N of C = L^-1 Lhat without
    forming C, and the cancellation factor
    max_a sum_{m,m'} |beta_m beta_m' G_a[m, m']| / ||C_N e_a||^2.

    v_b = L^-1 e_b obeys v_b = e_b - sum_{m=1..J} L[b+m, b] v_{b+m} with e_b
    orthogonal to every v_{b+m}, so the Gram window G_b[i, j] =
    <v_{b+i}, v_{b+j}> (i, j <= J) obeys G_b = T_b^H G_{b+1} T_b + E_00,
    with G_N = 0, T_b the matrix with column 0 (-L[b+1, b], ..., -L[b+J, b],
    0) and column i equal to e_{i-1}, and E_00 the unit at (0, 0)
    (selected inversion of (L L^H)^-1; Takahashi, Fagan & Chen 1973).
    Column a of C is sum_m beta_m v_{a+m}, so ||C_N e_a||^2 =
    beta^H G_a beta.

    The recursion is affine, so it runs as a blocked two-pass scan (Kogge &
    Stone 1973; Blelloch 1990) with blocks of s = ceil(sqrt(N)) steps.  Over
    a block it composes to G_b = A^H G_{b+s} A + Q, A = T_{b+s-1} ... T_b and
    Q = sum_k a_k^H a_k, a_k row 0 of T_{b+k-1} ... T_b.  The (A, Q) of all
    blocks accumulate at once; the block end states follow in sequence; a
    last pass steps backward inside all blocks at once.  The short block
    comes first, its steps before b = 0 fed zero band entries and their
    windows dropped; its (A, Q) is never needed.  Every window is kept
    exactly Hermitian, with a real diagonal: on non-Hermitian windows the
    map has a growing mode, which the rounding in the imaginary part of the
    diagonal would excite.  The cancellation factor grows about like N, as
    ||v_b||^2 does.  O(N J^2) work in O(sqrt(N)) numpy steps.
    """
    N, J = L.N, L.J
    s = math.isqrt(N - 1) + 1
    nb = -(-N // s)
    pad = nb * s - N
    dtype = np.result_type(L.ab, Lhat.ab)
    # t[k, :, c] = column 0 of T_b without its last entry, b = c s + k - pad;
    # the steps b < 0 are zero.  The block index runs last, so that every
    # step is a pass over contiguous rows.
    t = np.zeros((J, nb * s), dtype)
    t[:, pad:] = -L.ab[1:]
    t = np.ascontiguousarray(t.reshape(J, nb, s).transpose(2, 0, 1))

    # accumulate A and Q of blocks 1..nb-1 (A[i, j, c] is entry (i, j) of
    # block c + 1)
    A = np.zeros((J + 1, J + 1, nb - 1), dtype)
    A[range(J + 1), range(J + 1)] = 1.0
    Q = np.zeros_like(A)
    for k in range(s):
        a = A[0]
        Q += a.conj()[:, None] * a
        A[:J] = A[1:] + t[k, :, None, 1:] * a
        A[J] = 0.0
    # the windows G_{b+s} at the end of each block, from G_N = 0
    W = np.zeros((J + 1, J + 1, nb), dtype)
    for c in range(nb - 1, 0, -1):
        Ac = A[:, :, c - 1]
        G = Ac.conj().T @ W[:, :, c] @ Ac + Q[:, :, c - 1]
        W[:, :, c - 1] = 0.5 * (G + G.conj().T)
    # step backward inside all blocks
    weight = np.outer(Lhat.ab[:, 0].conj(), Lhat.ab[:, 0])[:, :, None]
    sq = np.empty((s, nb))
    cancel = np.empty((s, nb))
    G = np.empty_like(W)
    for k in range(s - 1, -1, -1):
        tk = t[k]
        row = np.sum(tk.conj()[:, None] * W[:J, :J], axis=0)
        G[0, 0] = (1.0 + np.sum(tk * row, axis=0)).real
        G[0, 1:] = row
        G[1:, 0] = row.conj()
        G[1:, 1:] = W[:J, :J]
        W, G = G, W
        terms = weight * W
        sq[k] = terms.sum(axis=(0, 1)).real
        cancel[k] = np.abs(terms).sum(axis=(0, 1))
    sq, cancel = sq.T.ravel()[pad:], cancel.T.ravel()[pad:]
    return np.sqrt(sq), float(np.max(cancel / sq))


def containment_report(cfg: BoundaryConfig, weights: WeightSequence,
                       N_list: Sequence[int]) -> ContainmentReport:
    """Norm growth of truncations of C plus a boundedness verdict.  The
    section norms and the column norms of the largest section are taken on
    the bands of L and Lhat at the largest truncation, in O(N J) memory;
    the section norms are a ladder on their leading sections.

    The verdict is _l2_verdict on column 0 of C_N, one band solve on the
    same L and Lhat: phi = phi * 1 in the space is necessary for
    phi H^2 in it, and under n (1 - a_n) -> p the paper's theorem makes
    p > 1/2 sufficient.  The section norms, whose approach to their limit
    can be as slow as 1/ln^2 N, and plateau_rel are measurements only.
    """
    N_list = sorted(int(N) for N in N_list)
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError("truncations must be strictly increasing")
    L, Lhat = BasisBand(cfg, weights, N_list[-1]), BasisBand(cfg, None, N_list[-1])

    def sections(N):
        l, lhat = L._leading(N), Lhat._leading(N)
        return (lambda x: l.solve(lhat.matvec(x), overwrite_b=True),
                lambda y: lhat.matvec(l.solve(y, trans="C"), trans="C"))

    estimates = _section_norm_ladder(N_list, sections,
                                     np.result_type(L.ab, Lhat.ab))
    col_norms, cancellation = _column_norms(L, Lhat)
    values = [e.value for e in estimates]
    plateau_rel = (values[-1] - values[-2]) / values[-1] if len(values) > 1 else np.inf
    verdict, p_hat = _l2_verdict(_column0(L, Lhat))
    return ContainmentReport(
        tuple(N_list), tuple(estimates), col_norms, cancellation,
        float(plateau_rel), p_hat, verdict,
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
    """Limits lambda_j of c_{n+j,n}/(1 - a_n), j = 1..J: the solution of
    lambda_j = j beta_j - sum_{i<j} beta_i lambda_{j-i}, a lower-triangular
    Toeplitz solve with the J x J section of Lhat."""
    beta = beta_coefficients(cfg)
    return BasisBand(cfg, None, cfg.J).solve(np.arange(1, cfg.J + 1) * beta[1:])


def fit_starting_decay(cfg: BoundaryConfig,
                       weights: WeightSequence) -> StartingDecayFit:
    if not weights.rate_hypothesis:
        raise ValueError("decay fit requires n (1 - a_n) -> p weights")
    J, p = cfg.J, weights.p
    # every v_{n+J,n}, J < n <= _N_FIT, from one multi-column solve: column
    # n's right-hand side is c_column's, placed at rows n+1..n+J
    n = np.arange(J + 1, _N_FIT + 1)
    rows = n[:, None] + np.arange(1, J + 1)
    cols = np.arange(len(n))[:, None]
    rhs = np.zeros((_N_FIT + J + 1, len(n)), dtype=complex)
    rhs[rows, cols] = _lhat_minus_l(beta_coefficients(cfg),
                                    weights.one_minus_a(n))
    v = BasisBand(cfg, weights, _N_FIT + J + 1).solve(rhs, overwrite_b=True)
    measured = float(np.max(
        np.linalg.norm(v[rows, cols], axis=1) * (n + J) / p))
    lam = np.linalg.norm(starting_alpha_limit(cfg))
    asym = float(lam) * weights.decay_factor_sup(_N_FIT + 1, J)
    return StartingDecayFit(max(measured, asym), measured, asym)
