"""Boundary configurations, weight sequences, the coefficients of phi and the
symmetric-function identities used throughout the package.

Each space handled here is generated by an orthonormal basis
``f_n(z) = z^n * phi(a_n z)`` where ``phi(z) = prod_j (1 - w_j z)`` collects
finitely many distinct unimodular points ``z_j`` (``w_j`` their conjugates)
and ``a_n -> 1``.  This module owns ``phi``, the weights ``a_n`` and the
combinatorial helpers (complete homogeneous sums, the discriminant-like
products ``mu_j`` and the associated power-sum identity).
"""

from __future__ import annotations

import cmath
import copy
import functools
import importlib.machinery
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

TOL_UNIT = 1e-12      # |z_j| deviation from the unit circle
TOL_SEP = 1e-9        # minimal pairwise root separation
TOL_IDENTITY = 1e-9   # default residual for the polynomial identities
MIN_TRUNCATION = 16   # smallest truncation a growth verdict or domain report reads

TWO_PI = 2.0 * math.pi
_U = 2.0 ** -53       # unit roundoff of float64
_N_CAP = 1 << 23      # refuse direct kernel sums beyond this many terms


def _dyadic_checkpoints(N: int) -> np.ndarray:
    """MIN_TRUNCATION, 2 MIN_TRUNCATION, 4 MIN_TRUNCATION, ... below N, then N."""
    checks, m = [], MIN_TRUNCATION
    while m < N:
        checks.append(m)
        m *= 2
    return np.array(checks + [N])


class ConfigurationError(ValueError):
    """Invalid boundary points or weight sequence."""


class DomainError(ValueError):
    """Evaluation point outside the natural domain of the space."""


class TruncationError(RuntimeError):
    """A certified truncation error could not be brought below tolerance."""


class SearchFailureError(RuntimeError):
    """Exhaustive search hit its cap; carries the best candidate found."""

    def __init__(self, message, best=None, best_error=None):
        super().__init__(message)
        self.best = best
        self.best_error = best_error


# ---------------------------------------------------------------------------
# boundary configuration
# ---------------------------------------------------------------------------

_EXACT_QUARTERS = {
    Fraction(0): 1.0 + 0.0j,
    Fraction(1, 4): 1.0j,
    Fraction(1, 2): -1.0 + 0.0j,
    Fraction(3, 4): -1.0j,
}


def _unit_from_fraction(q: Fraction) -> complex:
    q = q % 1
    exact = _EXACT_QUARTERS.get(q)
    if exact is not None:
        return exact
    return cmath.exp(2j * math.pi * q.numerator / q.denominator)


@dataclass(frozen=True)
class BoundaryConfig:
    """The distinct unimodular points z_1..z_J and their conjugates.

    ``angles`` keeps the exact rational angle fractions (z_j = exp(2*pi*i*q_j))
    when the configuration was built from them; several downstream searches
    exploit that exactness.
    """

    roots: tuple
    angles: Optional[tuple] = None

    def __post_init__(self):
        roots = tuple(complex(z) for z in self.roots)
        object.__setattr__(self, "roots", roots)
        if not roots:
            raise ConfigurationError("at least one boundary point is required")
        for z in roots:
            if not abs(abs(z) - 1.0) <= TOL_UNIT:     # NaN fails too
                raise ConfigurationError(f"point {z} is not on the unit circle")
        for i in range(len(roots)):
            for k in range(i + 1, len(roots)):
                if abs(roots[i] - roots[k]) <= TOL_SEP:
                    raise ConfigurationError(
                        f"points {roots[i]} and {roots[k]} are not separated"
                    )
        if self.angles is not None:
            angles = tuple(Fraction(q) for q in self.angles)
            if len(angles) != len(roots):
                raise ConfigurationError("angles and roots length mismatch")
            object.__setattr__(self, "angles", angles)

    @classmethod
    def from_angles(cls, fractions: Iterable) -> "BoundaryConfig":
        """Build from rational angle fractions q_j, z_j = exp(2*pi*i*q_j)."""
        qs = tuple(Fraction(q) for q in fractions)
        return cls(tuple(_unit_from_fraction(q) for q in qs), qs)

    @classmethod
    def from_points(cls, points: Iterable[complex]) -> "BoundaryConfig":
        pts = tuple(complex(z) for z in points)
        for z in pts:
            if z == 0 or not abs(abs(z) - 1.0) <= TOL_UNIT:
                raise ConfigurationError(f"point {z} is not on the unit circle")
        # snap the in-tolerance points exactly onto the circle
        return cls(tuple(z / abs(z) for z in pts))

    @property
    def J(self) -> int:
        return len(self.roots)

    @property
    def conjugates(self) -> tuple:
        """w_j = conj(z_j) = 1/z_j."""
        return tuple(z.conjugate() for z in self.roots)


_EXACT_DENOMINATOR = 1 << 30     # q*m is reduced exactly for q's below it


def phase_powers(q: Optional[Fraction], theta: float, exponents) -> np.ndarray:
    """exp(i*theta*m) for integer exponents m, one complex exponential each.

    With the exact angle fraction q (theta = 2*pi*q) the phase q*m is reduced
    mod 1 in integer arithmetic first, avoiding the phase drift of repeated
    floating-point powers.
    """
    m = np.asarray(exponents, dtype=np.int64)
    if q is not None and q.denominator <= _EXACT_DENOMINATOR:
        return _reduced_phases(q.numerator % q.denominator, q.denominator, m)
    return np.exp(1j * theta * m)


def _reduced_phases(num, den, m: np.ndarray) -> np.ndarray:
    """exp(2*pi*i*num*m/den) with num*m reduced mod den in integers; num
    and den (0 <= num < den <= _EXACT_DENOMINATOR) broadcast against m."""
    return np.exp(2j * np.pi * (((m % den) * num) % den) / den)


def root_powers(cfg: BoundaryConfig, j: Optional[int], exponents) -> np.ndarray:
    """z_j^m for an array of (possibly negative) integer exponents.  With j
    None, z_j^m for every root j along a new last axis, in one broadcast."""
    if j is not None:
        q = cfg.angles[j] if cfg.angles is not None else None
        return phase_powers(q, np.angle(cfg.roots[j]), exponents)
    m = np.asarray(exponents, dtype=np.int64)[..., None]
    if cfg.angles is None:
        return np.exp(1j * np.angle(np.asarray(cfg.roots)) * m)
    if max(q.denominator for q in cfg.angles) > _EXACT_DENOMINATOR:
        return np.stack([root_powers(cfg, k, exponents) for k in range(cfg.J)],
                        axis=-1)
    num = np.array([q.numerator % q.denominator for q in cfg.angles])
    den = np.array([q.denominator for q in cfg.angles])
    return _reduced_phases(num, den, m)


def _linear_product(ws) -> np.ndarray:
    """Ascending coefficients of prod_w (1 - w z), constant term 1."""
    coeffs = np.array([1.0 + 0j])
    for w in ws:
        coeffs = np.convolve(coeffs, np.array([1.0, -complex(w)]))
    return coeffs


def beta_coefficients(cfg: BoundaryConfig) -> np.ndarray:
    """Coefficients of phi(z) = prod_j (1 - w_j z), length J+1."""
    return _linear_product(cfg.conjugates)


def phi_reduced(cfg: BoundaryConfig, j: int) -> np.ndarray:
    """Coefficients of prod_{k != j} (1 - w_k z): phi with the j-th factor
    removed."""
    return _linear_product(w for k, w in enumerate(cfg.conjugates) if k != j)


# ---------------------------------------------------------------------------
# the band of basis Taylor coefficients
# ---------------------------------------------------------------------------

# The band routines are scipy's compiled f2py wrappers of BLAS and LAPACK,
# scipy/linalg/_fblas and _flapack, bound without running
# scipy/linalg/__init__.py: its imports (numpy.f2py and scipy's array-API
# layer) cost more than the rest of a band run's start-up and do no band
# work.  ``import bandkern`` and the runs that build no band (kernel values,
# domain reports, identities) load no scipy; each band or ladder binds its
# routines once.

def _linalg_dir() -> str:
    """The directory of scipy's compiled BLAS and LAPACK wrappers."""
    import scipy    # scipy's own start-up, such as its bundled libraries
    return os.path.join(os.path.dirname(scipy.__file__), "linalg")


@functools.cache
def _fortran_module(name: str):
    """scipy.linalg's compiled module ``name`` (_fblas or _flapack): the one
    scipy.linalg loaded, or else its extension file loaded on its own."""
    full = "scipy.linalg." + name
    if full in sys.modules:
        return sys.modules[full]
    directory = _linalg_dir()
    paths = [os.path.join(directory, name + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"no compiled {name} module in {directory}")
    loader = importlib.machinery.ExtensionFileLoader(full, path)
    module = loader.create_module(
        importlib.machinery.ModuleSpec(full, loader, origin=path))
    loader.exec_module(module)
    # loading registers the module under its full name without its package;
    # left there, a later ``import scipy.linalg`` would not set the package's
    # attribute and scipy.linalg._flapack would raise AttributeError
    sys.modules.pop(full, None)
    return module


def _bind(module: str, names, arrays, dtype):
    """The routines ``names`` (one name or a sequence) of the compiled
    ``module``, with prefix z when any of ``arrays`` or ``dtype`` is complex
    and d otherwise: scipy's choice for the float64, complex128 and integer
    arrays the package passes."""
    types = [a.dtype for a in arrays] + ([] if dtype is None else [np.dtype(dtype)])
    prefix = "z" if any(t.kind == "c" for t in types) else "d"
    fortran = _fortran_module(module)
    if isinstance(names, str):
        return getattr(fortran, prefix + names)
    return [getattr(fortran, prefix + name) for name in names]


def get_blas_funcs(names, arrays=(), dtype=None):
    """scipy.linalg.get_blas_funcs for float64 and complex128 routines,
    without importing scipy.linalg."""
    return _bind("_fblas", names, arrays, dtype)


def get_lapack_funcs(names, arrays=(), dtype=None):
    """scipy.linalg.get_lapack_funcs for float64 and complex128 routines,
    without importing scipy.linalg."""
    return _bind("_flapack", names, arrays, dtype)


class BasisBand:
    """Unit lower-triangular band L of basis Taylor coefficients.

    Column m holds the J+1 coefficients beta_k a_n^k of f_n, n = start + m,
    at rows m..m+J; ``ab[k, m]`` is the entry on the k-th subdiagonal, which
    is LAPACK's lower-band storage.  With ``weights`` None every a_n is 1
    and the band is Lhat, the coefficients of z^n phi(z), whose diagonals
    are the constants beta_k.  A band whose entries are all real is stored
    real.  A product with Lhat is beta_0 x plus J ?axpy calls, for vectors
    and for C-contiguous blocks alike.  The BLAS/LAPACK routines of the
    products and solves are looked up once per vector type and band.

    Every coefficient route of the package is a solve or a product with
    such a band: C = L^-1 Lhat, M_z = L^-1 S L (S the shift), the constant
    function L^-1 e_0 and the quotient map Lhat^-1 L; the section norms
    use the adjoints of these products as well.
    """

    def __init__(self, cfg: BoundaryConfig, weights: Optional["WeightSequence"],
                 N: int, start: int = 0):
        beta = beta_coefficients(cfg)
        a = (np.ones(N) if weights is None
             else np.asarray(weights.a(np.arange(start, start + N))))
        if not (np.any(beta.imag) or np.any(np.imag(a))):
            beta, a = beta.real, np.real(a)
        self.ab = np.empty((len(beta), N), np.result_type(beta, a), order="F")
        for k, b in enumerate(beta):
            self.ab[k] = b * a ** k
        self.N, self.J = N, len(beta) - 1
        self._diagonals = beta if weights is None else None
        self._routines = {}

    def _leading(self, N: int) -> "BasisBand":
        """The leading N x N section, sharing this band's storage and bound
        routines: the band of a leading section of a lower-triangular band
        matrix is the band cut to its first N columns, and in F order
        ``ab[:, :N]`` is contiguous LAPACK band storage."""
        cut = copy.copy(self)
        cut.ab, cut.N = self.ab[:, :N], N
        return cut

    def _routine(self, name: str, x: np.ndarray):
        """The BLAS (LAPACK for tbtrs) routine for this band and arrays of
        x's type."""
        key = (name, x.dtype)
        if key not in self._routines:
            lookup = get_lapack_funcs if name == "tbtrs" else get_blas_funcs
            self._routines[key] = lookup(name, (self.ab, x))
        return self._routines[key]

    def matvec(self, x, trans: str = "N") -> np.ndarray:
        """L x (trans "C": L^H x) for x of N rows.  On a vector or a
        C-contiguous block, Lhat is beta_0 x plus J ?axpy calls over shifted
        slices, and on a vector L is one BLAS ?gbmv call when the vector's
        type holds the band's; otherwise one pass per diagonal."""
        x = np.asarray(x)
        kl = min(self.J, self.N - 1)     # a band longer than the matrix is cut
        if self._diagonals is not None and (
                x.ndim == 1 or x.ndim == 2 and x.size and x.flags.c_contiguous):
            beta = self._diagonals.conj() if trans == "C" else self._diagonals
            y = beta[0] * x
            xs, ys, T = x.astype(y.dtype, copy=False), y, 1
            if x.ndim == 2:
                # an (N, T) block in C order is one vector whose rows n and
                # n - k lie k*T entries apart
                xs, ys, T = xs.reshape(-1), y.reshape(-1), x.shape[1]
            axpy = self._routine("axpy", y)
            for k in range(1, kl + 1):
                if trans == "C":
                    axpy(xs, ys, (self.N - k) * T, beta[k], offx=k * T)
                else:
                    axpy(xs, ys, (self.N - k) * T, beta[k], offy=k * T)
            return y
        if x.ndim == 1 and (np.iscomplexobj(self.ab) or not np.iscomplexobj(x)):
            gbmv = self._routine("gbmv", x)      # it needs N >= kl + 1
            return gbmv(self.N, self.N, kl, 0, 1.0, self.ab[: kl + 1], x,
                        trans=2 if trans == "C" else 0)
        y = np.zeros(x.shape, dtype=np.result_type(self.ab, x))
        ab = self.ab if x.ndim == 1 else self.ab[:, :, None]
        for k in range(kl + 1):
            if trans == "C":
                y[: self.N - k] += ab[k, : self.N - k].conj() * x[k:]
            else:
                y[k:] += ab[k, : self.N - k] * x[: self.N - k]
        return y

    def solve(self, b, overwrite_b: bool = False, trans: str = "N") -> np.ndarray:
        """x with L x = b (trans "C": L^H x = b; N rows, one or more
        columns) by substitution without pivoting (LAPACK ?tbtrs)."""
        b = np.asarray(b)
        x, info = self._routine("tbtrs", b)(self.ab, b, uplo="L", trans=trans,
                                             diag="U", overwrite_b=overwrite_b)
        if info != 0:
            raise ValueError(f"?tbtrs rejected argument {-info}")
        return x


# ---------------------------------------------------------------------------
# symmetric-function machinery
# ---------------------------------------------------------------------------

def homogeneous_symmetric(k, points: Sequence[complex]):
    """Complete homogeneous symmetric polynomial h_k of the given points, for
    an integer k or, from one run of the recurrence, an integer array.

    h_k = 0 for k < 0 and h_0 = 1.  Computed through the O(k*J) recurrence
    h_k = -sum_{i>=1} gamma_i h_{k-i} with gamma the coefficients of
    prod_j (1 - x_j t); the brute-force monomial sum lives only in the tests.
    """
    ks = np.asarray(k)
    gamma = _linear_product(points).tolist()    # Python complex scalars
    h = [1.0 + 0j]
    for m in range(1, max(int(np.max(ks)), 0) + 1):
        acc = 0.0 + 0j
        for i in range(1, min(m, len(gamma) - 1) + 1):
            acc -= gamma[i] * h[m - i]
        h.append(acc)
    out = np.where(ks >= 0, np.array(h)[np.maximum(ks, 0)], 0.0)
    return complex(out) if out.ndim == 0 else out


def mu_weights(cfg: BoundaryConfig) -> list:
    """mu_j = prod_{k != j} (w_j - w_k); the empty product (J=1) is 1."""
    w = cfg.conjugates
    out = []
    for j in range(cfg.J):
        prod = 1.0 + 0j
        for k in range(cfg.J):
            if k != j:
                d = w[j] - w[k]
                if abs(d) <= TOL_SEP:
                    raise ConfigurationError("conjugate points are not separated")
                prod *= d
        out.append(prod)
    return out


def louck_power_sum(m, cfg: BoundaryConfig):
    """sum_j w_j^m / mu_j for an integer m or an integer array of them;
    equals h_{m-J+1}(w_1..w_J) for m >= 0.  The mu_j are formed once per
    call."""
    ms = np.asarray(m)
    if np.any(ms < 0):
        raise ValueError("m must be nonnegative")
    w = np.asarray(cfg.conjugates)
    out = np.sum(w ** ms[..., None] / np.asarray(mu_weights(cfg)), axis=-1)
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# sums of the tail rule: Hurwitz zeta and the strided Euler transform
# ---------------------------------------------------------------------------

_ZETA_DIRECT = 10       # M: terms of a zeta sum taken directly
_ZETA_EM = 8            # K: Euler-Maclaurin corrections after them
_POW_ERR = 4            # np.power is taken to err by at most this many u

# B_2, B_4, ..., B_{2K+2}
_BERNOULLI_EVEN = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
                   Fraction(-1, 30), Fraction(5, 66), Fraction(-691, 2730),
                   Fraction(7, 6), Fraction(-3617, 510), Fraction(43867, 798))
# B_{2k}/(2k)!, k = 1..K+1, each rounded once from the exact fraction
_EM_WEIGHTS = np.array([float(b / math.factorial(2 * k))
                        for k, b in enumerate(_BERNOULLI_EVEN, start=1)])


def _hurwitz_zeta(s, q: float) -> tuple:
    """zeta(s, q) = sum_{n >= 0} (n + q)^-s for each real s > 1 of the 1-D
    array s and one real q > 0, as (value, remainder, allowance), each of
    shape (len(s),), with |zeta(s, q) - value| <= remainder + allowance.

    The first M = _ZETA_DIRECT terms are summed directly.  The rest,
    sum_{j >= 0} f(a + j) with f(x) = x^-s and a = q + M, is by
    Euler-Maclaurin summation (DLMF 2.10.1, 25.11)
      a^(1-s)/(s-1) + a^-s/2 + sum_{k=1..K} B_2k/(2k)! (s)_(2k-1) a^(1-s-2k) + R,
    K = _ZETA_EM, (s)_m the rising factorial s (s+1)...(s+m-1) and the
    Bernoulli weights B_2k/(2k)! rounded once from exact fractions.

    Remainder.  f is completely monotone, (-1)^m f^(m) > 0 on (0, inf), so
    f^(2K+2) and f^(2K+4) keep one sign on [a, inf); then R has the sign of
    the first omitted term and is smaller in modulus (DLMF 2.10(i)):
      |R| <= |B_(2K+2)|/(2K+2)! (s)_(2K+1) a^(-s-2K-1) = ``remainder``.
    With M = 10 and K = 8 this stays below u zeta(s, q) (u = 2^-53) for
    s <= 40 and q <= 1e3, so truncation never sets the error there.

    Rounding allowance.  To first order in u, with every +, -, *, / erring
    by at most u relatively and np.power by at most pi u, pi = _POW_ERR
    (over three times the largest error of numpy's float64 power against
    mpmath on random draws, 1.1 u):
      - t_0 = q^-s errs by pi u; t_n = (q+n)^-s, 0 < n < M, by (s + pi) u,
        since rounding q + n by u moves its power by s u; summing the M
        terms into D adds (M - 1) u D;
      - a = q + M is rounded, so a^-s errs by (s + pi) u; the leading part
        Lead = a^-s (a/(s-1) + 1/2) picks up 5 more roundings (s - 1, the
        division, a itself, the addition of 1/2 and the product with a^-s);
      - the k-th correction picks up 4k - 2 roundings in its coefficient,
        5(k - 1) + pi in a^(2-2k) (from 1/a and its square), K in the
        matrix product over k and s + pi + 4 in the products with a^-s
        and 1/a: at most s + 2 pi + 10K - 3 for k <= K;
      - adding D, Lead and the corrections takes two more roundings.
    With one more unit each for the second-order terms (below u while
    (s + 2 pi + 10K) u stays below 1e-8, i.e. s below 1e7), and as
    s + pi + 8 <= s + M + pi + 2,
      allowance = u [(s + M + pi + 2) (D + Lead) - s t_0 + (s + 2 pi + 10K) C],
    C the corrections summed in modulus.
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    q = float(q)
    if not (q > 0.0 and math.isfinite(q)):
        raise ValueError("Hurwitz zeta needs finite q > 0")
    M, K = _ZETA_DIRECT, _ZETA_EM
    weights, units, s_minus_1, minus_s = _zeta_weights(s.tobytes())
    x = q + np.arange(M + 1.0)                # q, q+1, ..., q+M = a
    terms = np.power(x, minus_s)              # (len(s), M+1)
    base, inv = terms[:, M], 1.0 / x[M]
    head = np.add.reduce(terms[:, :M], axis=1) + base * (x[M] / s_minus_1 + 0.5)
    # signed corrections, their moduli in allowance units, first omitted
    corr = (weights @ np.power(inv * inv, np.arange(K + 1))).reshape(3, -1)
    corr *= base * inv
    allowance = units[0] * head - units[1] * terms[:, 0] + corr[1]
    return head + corr[0], corr[2], allowance


@functools.lru_cache(maxsize=64)
def _zeta_weights(s_key: bytes) -> tuple:
    """The parts of _hurwitz_zeta that depend on s alone, read-only: the
    (3P, K+1) weights of a^(-2k), k <= K, whose rows give the signed
    corrections B_2k/(2k)! (s)_(2k-1), their moduli times the allowance
    units u (s + 2 pi + 10K) and the first omitted term; the allowance
    units of D + Lead and of t_0; s - 1; and -s shaped for the (s, n)
    terms."""
    s = np.frombuffer(s_key)
    if not (s.min() > 1.0 and math.isfinite(s.max())):
        raise ValueError("Hurwitz zeta needs finite s > 1")
    col = s[:, None]
    K = _ZETA_EM
    # the rising factorials (s)_(2k-1), k = 1..K+1, from one running product
    # of s, s+1, ..., s+2K
    coeffs = np.cumprod(col + np.arange(2 * K + 1), axis=1)[:, ::2] * _EM_WEIGHTS
    weights = np.zeros((3, len(s), K + 1))
    weights[0, :, :K] = coeffs[:, :K]
    weights[1, :, :K] = _U * (col + 2 * _POW_ERR + 10 * K) * np.abs(coeffs[:, :K])
    weights[2, :, K] = np.abs(coeffs[:, K])
    units = _U * np.stack((s + (_ZETA_DIRECT + _POW_ERR + 2), s))
    parts = (weights.reshape(3 * len(s), K + 1), units, s - 1.0, -col)
    for part in parts:
        part.flags.writeable = False
    return parts


_EULER_TERMS = 12       # K: differences in the Euler transform of a tail
# B[j, i] = (-1)^(j-i) C(j, i): row j against h(H..H+K-1) is Delta^j h(H)
_DIFFERENCES = np.array([[(-1) ** (j - i) * math.comb(j, i)
                          for i in range(_EULER_TERMS)]
                         for j in range(_EULER_TERMS)], dtype=float)
_BINOMIALS = np.abs(_DIFFERENCES)


def _euler_depth(order, x0: float, m: int, a: float) -> int:
    """H for ``_euler_sums`` at stride m, x0 = start + c and a = |sigma|:
    the least H with m a^K |h_0^(K-1)(H)| = m a^K (order)_(K-1) m^-order
    (H + x0/m)^-(order+K-1), which bounds the remainder over all r, below
    u x0^-order, the rounding level of the first term, for every order."""
    K = _EULER_TERMS
    return max(0, max(math.ceil(math.exp(
        (K * math.log(a) - math.log(_U) + math.lgamma(s + K - 1)
         - math.lgamma(s) + (1 - s) * math.log(m) + s * math.log(x0))
        / (s + K - 1)) - x0 / m) for s in order.tolist()))


def _euler_sums(order, c: float, start: int, q: Optional[Fraction],
                theta: float) -> tuple:
    """S = sum_{n >= start} rho^n f(n), f(n) = (n + c)^-order, for
    rho = exp(i theta) != 1, theta in (-pi, pi] (q its fraction of a turn,
    or None) and each order > 1 of the array ``order``, as (value,
    remainder, allowance, terms) with |S - value| <= remainder + allowance.

    Stride m = max(1, round(pi/|theta|)): tau = rho^m has |arg tau| >=
    2 pi/3, so |sigma| <= 1/sqrt 3 for sigma = 1/(1 - tau), and S = sum_{r<m}
    rho^(start+r) sum_k tau^k h_r(k), h_r(k) = f(start + r + m k) completely
    monotone in k.  The k < H (``_euler_depth``) are summed directly,
    ``terms`` = m H.  Summation by parts K = _EULER_TERMS times (Knopp,
    Theory and Application of Infinite Series) gives
      sum_{k>=H} tau^k h(k) = tau^H sum_{j<K} sigma^(j+1) tau^j Delta^j h(H) + R,
      R = (sigma tau)^K sum_{k>=H} tau^k Delta^K h(k),
    and as (-1)^K Delta^K h >= 0 the sum of |Delta^K h(k)| telescopes:
    |R| <= |sigma|^K |Delta^(K-1) h(H)|.  All Delta^(K-1) h_r(H) share the
    sign (-1)^(K-1): the ``remainder`` is |sigma|^K |Delta^(K-1) sum_r
    h_r(H)|.  With B = _DIFFERENCES the tail is tau^H sum_i w_i h_r(H + i),
    w = (sigma^(j+1) tau^j)_j @ B, so S = sum_k c_k sum_r rho^(start+r)
    f(start + r + m k), c_k = tau^k below H and tau^H w_(k-H) from H on;
    sum_i |w_i| < 20.  Past _N_CAP terms (roots closer than about 1e-6 rad)
    it raises TruncationError.

    Allowance, to first order in u = 2^-53 (+, -, *, / err by u, a complex
    product by 3 u, np.power by pi u with pi = _POW_ERR, an imaginary exp
    by 2 u), with A_k = 1 below H and Omega_i = sum_j |sigma|^(j+1)
    C(j, i) >= |w_i| from H on:
      - f errs by (order + pi) u.  With q a phase errs by 18 u (2 pi x/den
        within 2.5 u), sigma by 16 u, sigma tau by 37 u, the binary powers
        sigma (sigma tau)^j by (19 + 43 j) u and tau^H w_i by 44 K u Omega_i;
        the sums over r and k add (m + 1) u and (H + K + 3) u, scale^s
        (``_tail_sums``) 5 u.  With units to spare: u [(order + H + K + m
        + 55) sum A_k f + 44 K sum_(k>=H) A_k f].
      - Without q theta is within sqrt 5 u + 2 pi u < 8.6 u of the phase
        of the roots, so exp(i theta n) errs by < 12 n u + 2 u; the tail
        moves with theta by at most 2 |sigma| sum_r (N + r + 2c)
        f(N + r) |dtheta|, N = start + m H (Abel's bound on both
        decreasing parts of n f(n) = (n + c)^(1-order) - c f(n)), and its
        weights carry tau K times: 12 u sum nu A_k f, nu = n on the head
        and 2 (n + c + m K) on the tail (Omega_0 >= 3 |sigma|/2).
      - The measured last difference errs by (order + pi + K + m) u
        |B_(K-1)| @ sum_r h_r(H..), charged with |sigma|^K.
    """
    K = _EULER_TERMS
    m = max(1, round(math.pi / abs(theta)))
    H = _euler_depth(order, start + c, m, 0.5 / abs(math.sin(m * theta / 2)))
    if m * (H + K) > _N_CAP:
        raise TruncationError(f"stride {m} needs {m * (H + K)} terms")
    r = np.arange(m)
    phases = phase_powers(q, theta, np.append(m * np.arange(H + 2), start + r))
    tau = complex(phases[1])                   # phases[k] = tau^k, k <= H + 1
    sigma = 1.0 / (1.0 - tau)
    a = abs(sigma)
    running = sigma * (sigma * tau) ** np.arange(K)
    coeffs = np.concatenate((phases[:H], phases[H] * (running @ _DIFFERENCES)))
    f = np.power((start + np.arange(m * (H + K))).reshape(H + K, m) + c,
                 -order[:, None, None])        # (P, H + K, m)
    by_r = f @ np.stack((phases[H + 2:], np.ones(m)), axis=1)   # phased, plain
    value = by_r[:, :, 0] @ coeffs
    f_r = by_r[:, :, 1].real
    # sum_r f against: the head, Omega on the tail, B_(K-1) and |B_(K-1)|
    rows = np.zeros((H + K, 4))
    rows[:H, 0] = 1.0
    rows[H:, 1] = np.abs(running) @ _BINOMIALS
    rows[H:, 2], rows[H:, 3] = _DIFFERENCES[-1], _BINOMIALS[-1]
    sums = f_r @ rows
    remainder = a ** K * np.abs(sums[:, 2])
    units = H + K + m + 55
    parts = sums @ np.array([[1.0, units], [1.0, units + 44 * K], [0.0, 0.0],
                             [a ** K, (_POW_ERR + K + m) * a ** K]])
    allowance = _U * (order * parts[:, 0] + parts[:, 1])
    if not (q is not None and q.denominator <= _EXACT_DENOMINATOR):
        # nu A_k = weight (index + r): A_k on the head, 2 A_k on the tail
        weight = rows[:, 0] + 2 * rows[:, 1]
        index = start + m * np.arange(H + K) + np.where(rows[:, 1], m * K + c, 0)
        allowance += 12 * _U * (f_r @ (weight * index) + (f @ r) @ weight)
    return value, remainder, allowance, m * H


# ---------------------------------------------------------------------------
# weight sequences
# ---------------------------------------------------------------------------

_HARMONIC = "harmonic"
_POWERLAW = "powerlaw"
_TABLE = "table"


@dataclass(frozen=True)
class WeightSequence:
    """The sequence a_n -> 1 together with its decay-rate metadata.

    Kinds:
      harmonic:  a_n = 1 - p/(n + offset)
      powerlaw:  a_n = 1 - 1/(n + 2)^p
      table:     finite prefix of explicit values, continued by ``tail``
                 (itself a harmonic or powerlaw sequence)

    ``rate_hypothesis`` records whether n*(1 - a_n) -> p holds for this
    sequence: true for harmonic by construction and for powerlaw only at
    p = 1.  Several asymptotic diagnostics are only meaningful under it.
    """

    kind: str
    p: float
    offset: float = 2.0
    values: tuple = ()
    tail: Optional["WeightSequence"] = None

    def __post_init__(self):
        if self.kind not in (_HARMONIC, _POWERLAW, _TABLE):
            raise ConfigurationError(f"unknown weight kind {self.kind!r}")
        if self.kind in (_HARMONIC, _POWERLAW) and not self.p > 0:
            raise ConfigurationError("rate parameter p must be positive")
        if self.kind == _HARMONIC and self.offset <= 0:
            raise ConfigurationError("harmonic offset must be positive")
        if self.kind == _TABLE:
            if self.tail is None or self.tail.kind == _TABLE:
                raise ConfigurationError(
                    "table weights need a harmonic or powerlaw tail rule"
                )
            vals = tuple(complex(v) for v in self.values)
            if not any(v.imag for v in vals):     # a real table stays real
                vals = tuple(v.real for v in vals)
            object.__setattr__(self, "values", vals)
            if any(v == 1.0 for v in vals):
                raise ConfigurationError("1 - a_n must not vanish on the table")
        self._check_convergence()

    @classmethod
    def harmonic(cls, p: float, offset: float = 2.0) -> "WeightSequence":
        return cls(_HARMONIC, float(p), float(offset))

    @classmethod
    def power_law(cls, p: float) -> "WeightSequence":
        return cls(_POWERLAW, float(p))

    @classmethod
    def from_table(cls, values, tail: "WeightSequence") -> "WeightSequence":
        return cls(_TABLE, tail.p, tail.offset if tail.kind == _HARMONIC else 2.0,
                   tuple(values), tail)

    # -- evaluation ---------------------------------------------------------

    def a(self, n):
        """a_n for an integer or integer array."""
        return 1.0 - self.one_minus_a(n)

    def one_minus_a(self, n):
        """1 - a_n computed without cancellation (table prefix excepted)."""
        n_arr = np.atleast_1d(np.asarray(n, dtype=float))
        if self.kind == _HARMONIC:
            out = self.p / (n_arr + self.offset)
        elif self.kind == _POWERLAW:
            out = (n_arr + 2.0) ** (-self.p)
        else:
            out = np.atleast_1d(np.asarray(self.tail.one_minus_a(n_arr)))
            vals = np.asarray(self.values)
            mask = n_arr < len(vals)
            if np.any(mask):
                head = 1.0 - vals[n_arr[mask].astype(int)]
                if np.iscomplexobj(head) and not np.iscomplexobj(out):
                    out = out.astype(complex)
                out[mask] = head
        if np.ndim(n) == 0:
            return complex(out[0]) if np.iscomplexobj(out) else float(out[0])
        return out

    def prefix(self, N: int) -> np.ndarray:
        """Array a_0..a_{N-1}."""
        return self.a(np.arange(N))

    def a_sup(self) -> float:
        """max(1, sup_n |a_n|) over the whole sequence, table included.

        Harmonic and powerlaw a_n increase toward 1, so beyond the table
        only the first index of the tail rule can exceed 1 in modulus.
        """
        rule = self.tail if self.kind == _TABLE else self
        head = [abs(v) for v in self.values]
        return float(max([1.0, abs(rule.a(len(self.values)))] + head))

    @property
    def rate_hypothesis(self) -> bool:
        """Whether n*(1 - a_n) -> p holds for this sequence."""
        if self.kind == _HARMONIC:
            return True
        if self.kind == _POWERLAW:
            return self.p == 1.0
        return self.tail.rate_hypothesis

    @property
    def square_summable(self) -> bool:
        """Whether sum |1 - a_n|^2 converges (certifiable kinds only)."""
        if self.kind == _HARMONIC:
            return True
        if self.kind == _POWERLAW:
            return self.p > 0.5
        return self.tail.square_summable

    def _check_convergence(self):
        # sampled sanity check: |1 - a_n| decreasing beyond a small index
        start = 8 if self.kind != _TABLE else max(8, len(self.values))
        probe = np.abs(np.asarray(
            self.one_minus_a(np.arange(start, start + 4096, 128))))
        if np.any(np.diff(probe) > 0) or not probe[-1] < probe[0]:
            raise ConfigurationError("|1 - a_n| does not settle toward 0")
        if np.any(probe == 0):
            raise ConfigurationError("1 - a_n vanishes at a sampled index")

    # -- sums of the tail rule -----------------------------------------------

    def _tail_sums(self, powers, start: int, q: Optional[Fraction],
                   theta: float) -> tuple:
        """(S, remainder, allowance, terms): S[m] = sum_{n >= start} rho^n
        (1 - a_n)^powers[m], rho = exp(i theta), theta in (-pi, pi] (q its
        fraction of a turn, or None), with |true - S| <= remainder +
        allowance and ``terms`` summed directly past ``start``.

        The tail rule reads (1 - a_n)^s = scale^s (n + c)^-order: harmonic
        gives (p, s, the offset), powerlaw (1, p s, 2).  At rho = 1 the sum
        is scale^s zeta(order, start + c) (``_hurwitz_zeta``), otherwise
        ``_euler_sums``.  A table's sums start past its last value.
        """
        if self.kind == _TABLE:
            if start < len(self.values):
                raise ValueError("the tail rule starts past the table")
            return self.tail._tail_sums(powers, start, q, theta)
        s = np.asarray(powers, dtype=float)
        if self.kind == _HARMONIC:
            scale, order, c = self.p, s, self.offset
        else:
            scale, order, c = 1.0, self.p * s, 2.0
        if theta == 0.0:
            parts = [*_hurwitz_zeta(order, start + c), 0]
        else:
            parts = _euler_sums(order, c, start, q, theta)
        value, remainder, allowance, terms = parts
        scale = scale ** s
        return scale * value, scale * remainder, scale * allowance, terms

    def decay_factor_sup(self, n0: int, shift: int) -> float:
        """sup_{n >= n0} (n + shift)*|1 - a_n| / p for rate-hypothesis kinds.

        The factor is monotone for harmonic/powerlaw(p=1) weights, so the
        supremum is either the first sample or the limit 1.
        """
        if not self.rate_hypothesis:
            raise ConfigurationError(
                "decay factor defined only when n*(1 - a_n) -> p")
        first = (n0 + shift) * abs(self.one_minus_a(n0)) / self.p
        return max(first, 1.0)
