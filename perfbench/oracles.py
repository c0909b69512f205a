"""Reference values computed without any of bandkern's numerical routes.

Everything here starts from the JSON config (rational root angles, weight
family and parameter, points) and uses only numpy, scipy and mpmath:

* kernel values at a pair of boundary roots: a closed form in Hurwitz zeta
  values (splitting n by its residue modulo the order of z_i conj(z_j));
* kernel values at interior points: a direct 30-digit mpmath sum;
* sections of C = L^-1 Lhat and M_z = L^-1 S L: dense scipy
  ``solve_triangular`` on the banded Taylor matrices, normed by SVD or by
  ARPACK (``svds``) above 512;
* column 0 of C for the divergence experiment: dense ``solve_triangular``
  on its leading block and LAPACK's triangular banded solve (``tbtrs``) for
  the full column.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.linalg import lapack, solve_triangular
from scipy.sparse.linalg import svds

DPS = 30
SVD_DENSE_MAX = 512


def angles_of(config: dict) -> list:
    return [Fraction(str(q)) for q in config["roots"]["angles"]]


def weight_params(config: dict) -> tuple:
    w = config["weights"]
    return w["kind"], float(w["p"]), float(w.get("offset", 2.0))


# ---------------------------------------------------------------------------
# kernel values
# ---------------------------------------------------------------------------

def _mp_root(q: Fraction):
    return mpmath.expjpi(2 * mpmath.mpf(q.numerator) / q.denominator)


def _poly_mul(a: list, b: list) -> list:
    out = [mpmath.mpc(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _reduced_in_u(roots: list, i: int) -> list:
    """Coefficients in u of prod_{k != i} (1 - conj(z_k) (1 - u) z_i)."""
    poly = [mpmath.mpc(1)]
    for k, zk in enumerate(roots):
        if k != i:
            c = mpmath.conj(zk) * roots[i]
            poly = _poly_mul(poly, [1 - c, c])
    return poly


def root_pair_kernel(angles: list, i: int, j: int, kind: str, p: float,
                     offset: float = 2.0) -> complex:
    """K(z_i, z_j) = sum_n u_n^2 P(u_n) rho^n in closed form, u_n = 1 - a_n.

    P(u) = psi_i((1-u) z_i) conj(psi_j((1-u) z_j)) with psi_i the defining
    polynomial without its i-th factor, and rho = z_i conj(z_j) a d-th root
    of unity.  Splitting n = d m + r gives
      harmonic:  sum_m u_{dm+r}^s = (p/d)^s zeta(s, (r+c)/d),
      powerlaw:  sum_m u_{dm+r}^s = d^(-ps) zeta(ps, (r+2)/d).
    """
    with mpmath.workdps(DPS):
        roots = [_mp_root(q) for q in angles]
        pi = _reduced_in_u(roots, i)
        pj = [mpmath.conj(c) for c in _reduced_in_u(roots, j)]
        P = _poly_mul(pi, pj)
        q = (angles[i] - angles[j]) % 1
        d = q.denominator
        rho = _mp_root(q)
        pm, cm = mpmath.mpf(p), mpmath.mpf(offset)
        total = mpmath.mpc(0)
        for k, coeff in enumerate(P):
            s = k + 2
            inner = mpmath.mpc(0)
            for r in range(d):
                if kind == "harmonic":
                    term = (pm / d) ** s * mpmath.zeta(s, (r + cm) / d)
                elif kind == "powerlaw":
                    term = mpmath.mpf(d) ** (-pm * s) * mpmath.zeta(pm * s, mpmath.mpf(r + 2) / d)
                else:
                    raise ValueError(f"no closed form for weights {kind!r}")
                inner += rho ** r * term
            total += coeff * inner
        return complex(total)


def _mp_one_minus_a(n: int, kind: str, p, c):
    if kind == "harmonic":
        return p / (n + c)
    return mpmath.mpf(n + 2) ** (-p)


def interior_kernel(angles: list, z: complex, w: complex, kind: str, p: float,
                    offset: float = 2.0, eps: float = 1e-25) -> complex:
    """K(z, w) = sum_n f_n(z) conj(f_n(w)) by direct 30-digit summation.

    |f_n(x)| <= 2^J |x|^n, so the sum stops once 4^J r^N / (1 - r) < eps
    with r = |z| |w|.
    """
    J = len(angles)
    r = abs(z) * abs(w)
    if not r < 1.0:
        raise ValueError("interior oracle needs |z| |w| < 1")
    N = 1 if r == 0 else max(1, math.ceil(
        math.log(eps * (1 - r) / 4.0 ** J) / math.log(r)))
    with mpmath.workdps(DPS):
        conj_roots = [mpmath.conj(_mp_root(q)) for q in angles]
        zm, wm = mpmath.mpc(z), mpmath.mpc(w)
        pm, cm = mpmath.mpf(p), mpmath.mpf(offset)
        zn, wn = mpmath.mpc(1), mpmath.mpc(1)
        total = mpmath.mpc(0)
        for n in range(N):
            a = 1 - _mp_one_minus_a(n, kind, pm, cm)
            fz, fw = zn, wn
            for c in conj_roots:
                fz *= 1 - c * a * zm
                fw *= 1 - c * a * wm
            total += fz * mpmath.conj(fw)
            zn *= zm
            wn *= wm
        return complex(total)


def point_of(obj, angles: list) -> complex:
    """A config point: a root reference 'zK' or a {'re', 'im'} dict."""
    if isinstance(obj, str):
        q = angles[int(obj[1:]) - 1]
        return complex(_mp_root(q))
    return complex(float(obj.get("re", 0.0)), float(obj.get("im", 0.0)))


# ---------------------------------------------------------------------------
# dense sections of C and M_z
# ---------------------------------------------------------------------------

def _beta(angles: list) -> np.ndarray:
    coeffs = np.array([1.0 + 0j])
    for q in angles:
        w = np.exp(-2j * np.pi * q.numerator / q.denominator)
        coeffs = np.convolve(coeffs, np.array([1.0, -w]))
    return coeffs


def _one_minus_a(n: np.ndarray, kind: str, p: float, c: float) -> np.ndarray:
    n = n.astype(float)
    return p / (n + c) if kind == "harmonic" else (n + 2.0) ** (-p)


def taylor_matrices(config: dict, N: int) -> tuple:
    """Dense N x N banded L (basis Taylor coefficients, L[n+k, n] =
    beta_k a_n^k) and Lhat (L[n+k, n] = beta_k)."""
    angles = angles_of(config)
    kind, p, c = weight_params(config)
    beta = _beta(angles)
    a = 1.0 - _one_minus_a(np.arange(N), kind, p, c)
    L = np.zeros((N, N), dtype=complex)
    Lhat = np.zeros((N, N), dtype=complex)
    for k, b in enumerate(beta):
        n = np.arange(N - k)
        L[n + k, n] = b * a[n] ** k
        Lhat[n + k, n] = b
    return L, Lhat


def spectral_norm(M: np.ndarray) -> float:
    if M.shape[0] <= SVD_DENSE_MAX:
        return float(np.linalg.norm(M, 2))
    v0 = np.ones(M.shape[0]) / math.sqrt(M.shape[0])
    return float(svds(M, k=1, return_singular_vectors=False, v0=v0)[0])


def c_section_norms(config: dict, truncations: list) -> dict:
    """||C_N|| for each truncation N, C_N = L_N^-1 Lhat_N."""
    L, Lhat = taylor_matrices(config, max(truncations))
    C = solve_triangular(L, Lhat, lower=True, unit_diagonal=True)
    return {N: spectral_norm(C[:N, :N]) for N in truncations}


def mz_section_norms(config: dict, truncations: list) -> dict:
    """||(M_z)_N|| for each truncation N, (M_z)_N = L_N^-1 S_N L_N."""
    L, _ = taylor_matrices(config, max(truncations))
    SL = np.zeros_like(L)
    SL[1:] = L[:-1]
    M = solve_triangular(L, SL, lower=True, unit_diagonal=True)
    return {N: spectral_norm(M[:N, :N]) for N in truncations}


def c_column0(config: dict, length: int, dense_rows: int) -> tuple:
    """Column 0 of C, i.e. L^-1 Lhat e_0, twice: its first ``dense_rows``
    entries by dense ``solve_triangular`` and all ``length`` entries by
    LAPACK's triangular banded solve."""
    angles = angles_of(config)
    kind, p, c = weight_params(config)
    beta = _beta(angles)
    J = len(beta) - 1
    rhs = np.zeros(length, dtype=complex)
    rhs[: J + 1] = beta
    L, _ = taylor_matrices(config, dense_rows)
    head = solve_triangular(L, rhs[:dense_rows], lower=True, unit_diagonal=True)
    a = 1.0 - _one_minus_a(np.arange(length), kind, p, c)
    ab = np.zeros((J + 1, length), dtype=complex)
    for k, b in enumerate(beta):
        ab[k, : length - k] = b * a[: length - k] ** k
    full, info = lapack.ztbtrs(ab, rhs[:, None], uplo="L", diag="U")
    if info != 0:
        raise ArithmeticError(f"ztbtrs failed with info {info}")
    return head, full[:, 0]
