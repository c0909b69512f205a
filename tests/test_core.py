import functools
import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from numpy.testing import assert_allclose

from bandkern import (
    BasisBand,
    BoundaryConfig,
    ConfigurationError,
    WeightSequence,
    beta_coefficients,
    homogeneous_symmetric,
    louck_power_sum,
    mu_weights,
)
from bandkern import core
from bandkern.core import _hurwitz_zeta, root_powers

from conftest import (
    dense_basis_matrix,
    e_bruteforce,
    h_bruteforce,
    random_rational_config,
)


# --- boundary configurations ------------------------------------------------

def test_config_roots_on_circle(cfg_cube):
    for z, w in zip(cfg_cube.roots, cfg_cube.conjugates):
        assert abs(abs(z) - 1) <= 1e-12
        assert abs(w * z - 1) <= 1e-12


def test_config_rejects_duplicates():
    with pytest.raises(ConfigurationError):
        BoundaryConfig.from_angles(["1/3", "1/3"])
    with pytest.raises(ConfigurationError):
        BoundaryConfig.from_points([0.5 + 0.1j])


def test_config_constructor_rejects_nan_root():
    with pytest.raises(ConfigurationError):
        BoundaryConfig((float("nan"),))
    with pytest.raises(ConfigurationError):
        BoundaryConfig((1.0, complex(0.0, float("nan"))))


def test_from_points_rejects_nan_root():
    with pytest.raises(ConfigurationError):
        BoundaryConfig.from_points([complex(float("nan"), 0.0)])
    with pytest.raises(ConfigurationError):
        BoundaryConfig.from_points([1.0, float("nan")])


def test_root_powers_match_direct():
    cfg = BoundaryConfig.from_angles(["1/3", "5/7"])
    m = np.array([-5, -1, 0, 1, 7, 100])
    for j in range(2):
        assert_allclose(root_powers(cfg, j, m), cfg.roots[j] ** m, atol=1e-12)


@pytest.mark.parametrize("cfg", [
    BoundaryConfig.from_angles(["1/3", "5/7", "0"]),
    BoundaryConfig.from_points(BoundaryConfig.from_angles(["1/3", "5/7"]).roots),
    BoundaryConfig.from_angles(["1/3", Fraction(1, (1 << 31) + 11)]),
])
def test_root_powers_of_every_root_are_the_per_root_powers(cfg):
    # the one broadcast over all roots gives each root's powers bit for bit,
    # for exact angles, points and an angle too fine to reduce in int64
    m = np.array([[-5, -1, 0], [1, 7, 100]])
    every = root_powers(cfg, None, m)
    assert every.shape == m.shape + (cfg.J,)
    for j in range(cfg.J):
        assert np.array_equal(every[..., j], root_powers(cfg, j, m))


# --- phi --------------------------------------------------------------------

def test_phi_pm1(cfg_pm1):
    assert_allclose(beta_coefficients(cfg_pm1), [1, 0, -1], atol=1e-15)


def test_phi_single(cfg_one):
    assert_allclose(beta_coefficients(cfg_one), [1, -1], atol=1e-15)


def test_phi_cube_roots(cfg_cube):
    assert_allclose(beta_coefficients(cfg_cube), [1, 0, 0, -1], atol=1e-15)


def test_phi_matches_product_pointwise():
    rng = np.random.default_rng(5)
    for _ in range(10):
        cfg = random_rational_config(rng, J_max=5)
        phi = beta_coefficients(cfg)
        assert len(phi) == cfg.J + 1 and phi[-1] != 0
        assert phi[0] == 1.0
        for _ in range(5):
            x = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            direct = np.prod([1 - w * x for w in cfg.conjugates])
            assert abs(P.polyval(x, phi) - direct) <= 1e-12


def test_phi_vanishes_at_roots():
    rng = np.random.default_rng(6)
    for _ in range(10):
        cfg = random_rational_config(rng)
        phi = beta_coefficients(cfg)
        for z in cfg.roots:
            assert abs(P.polyval(z, phi)) <= 1e-10


def test_beta_equals_signed_elementary():
    rng = np.random.default_rng(7)
    for _ in range(10):
        cfg = random_rational_config(rng, J_max=6)
        beta = beta_coefficients(cfg)
        for k in range(cfg.J + 1):
            expect = (-1) ** k * e_bruteforce(k, cfg.conjugates)
            assert abs(beta[k] - expect) <= 1e-9


# --- polynomial evaluation ---------------------------------------------------

def test_eval_poly_examples(cfg_pm1):
    phi = beta_coefficients(cfg_pm1)
    assert abs(P.polyval(1.0, phi)) <= 1e-15
    assert abs(P.polyval(0.0, phi) - 1.0) <= 1e-15
    assert abs(P.polyval(0.5, phi) - 0.75) <= 1e-15


# --- symmetric functions -----------------------------------------------------

def test_homogeneous_examples():
    assert homogeneous_symmetric(-1, [1.0, 2.0]) == 0
    assert abs(homogeneous_symmetric(1, [1.0, -1.0])) <= 1e-15
    assert abs(homogeneous_symmetric(2, [1.0, -1.0]) - 1.0) <= 1e-15
    assert homogeneous_symmetric(0, [3.0]) == 1


def test_homogeneous_against_bruteforce():
    rng = np.random.default_rng(8)
    for _ in range(8):
        J = int(rng.integers(1, 5))
        pts = rng.uniform(-1, 1, J) + 1j * rng.uniform(-1, 1, J)
        for k in range(0, 7):
            got = homogeneous_symmetric(k, pts)
            want = h_bruteforce(k, pts)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_mu_weights_examples(cfg_one, cfg_pm1, cfg_cube):
    assert_allclose(mu_weights(cfg_one), [1.0])
    assert_allclose(mu_weights(cfg_pm1), [2.0, -2.0])
    assert_allclose(np.abs(mu_weights(cfg_cube)), [3.0, 3.0, 3.0])


def test_louck_examples(cfg_one, cfg_pm1):
    assert abs(louck_power_sum(2, cfg_pm1) - 0.0) <= 1e-15
    assert abs(louck_power_sum(3, cfg_pm1) - 1.0) <= 1e-15
    assert abs(louck_power_sum(0, cfg_one) - 1.0) <= 1e-15


def test_louck_array_form_matches_scalar_form_exactly():
    rng = np.random.default_rng(8)
    for _ in range(10):
        cfg = random_rational_config(rng, J_max=6)
        ms = np.arange(3 * cfg.J + 1)
        table = louck_power_sum(ms, cfg)
        assert table.shape == ms.shape
        assert [louck_power_sum(int(m), cfg) for m in ms] == list(table)
    with pytest.raises(ValueError):
        louck_power_sum(np.array([0, -1]), cfg)


def test_louck_identity_random_configs():
    rng = np.random.default_rng(9)
    for _ in range(25):
        cfg = random_rational_config(rng, J_max=6)
        for m in range(0, 3 * cfg.J + 1):
            lhs = louck_power_sum(m, cfg)
            rhs = homogeneous_symmetric(m - cfg.J + 1, cfg.conjugates)
            assert abs(lhs - rhs) <= 1e-9


def test_homogeneous_sum_identity_random_configs():
    rng = np.random.default_rng(10)
    for _ in range(25):
        cfg = random_rational_config(rng, J_max=6)
        beta = beta_coefficients(cfg)
        for m in range(1, 3 * cfg.J + 1):
            s = sum(beta[i] * homogeneous_symmetric(m - i, cfg.conjugates)
                    for i in range(0, min(m, cfg.J) + 1))
            assert abs(s) <= 1e-9


# --- weight sequences ----------------------------------------------------------

def test_harmonic_weights(harm1):
    assert harm1.a(0) == 0.5
    assert harm1.a(2) == 0.75
    assert harm1.one_minus_a(98) == pytest.approx(0.01)
    assert harm1.rate_hypothesis
    assert harm1.square_summable


def test_powerlaw_weights(pow2):
    assert pow2.a(0) == 0.75
    assert pow2.a(1) == pytest.approx(8.0 / 9.0)
    assert not pow2.rate_hypothesis
    assert WeightSequence.power_law(1.0).rate_hypothesis
    assert not WeightSequence.power_law(0.4).square_summable


def test_table_weights_need_tail():
    with pytest.raises(ConfigurationError):
        WeightSequence("table", 1.0, values=(0.5, 0.9), tail=None)
    tab = WeightSequence.from_table([0.5, 0.9, 0.95],
                                    WeightSequence.harmonic(1.0, 2.0))
    assert tab.a(1) == 0.9
    assert tab.a(10) == pytest.approx(1 - 1.0 / 12.0)
    assert tab.rate_hypothesis


def test_table_rejects_value_one():
    with pytest.raises(ConfigurationError):
        WeightSequence.from_table([0.5, 1.0], WeightSequence.harmonic(1.0))


def test_table_weights_keep_real_values_real():
    harmonic = WeightSequence.harmonic(1.0, 2.0)
    real = WeightSequence.from_table(harmonic.prefix(10), harmonic)
    n = np.arange(20)
    for out in (real.a(n), real.one_minus_a(n), real.prefix(20)):
        assert out.dtype == np.float64
    assert isinstance(real.a(3), float)
    assert real.a(3) == harmonic.a(3)
    cplx = WeightSequence.from_table([0.5 + 0.1j, 0.7], harmonic)
    for out in (cplx.a(n), cplx.one_minus_a(n), cplx.prefix(20)):
        assert out.dtype == np.complex128
    assert isinstance(cplx.a(0), complex)


def test_invalid_rates():
    with pytest.raises(ConfigurationError):
        WeightSequence.harmonic(0.0)
    with pytest.raises(ConfigurationError):
        WeightSequence.power_law(-1.0)


def test_weights_converge_to_one():
    for w in (WeightSequence.harmonic(2.0, 1.0), WeightSequence.power_law(0.7)):
        n = np.arange(10, 100000, 7919)
        gaps = np.abs(np.asarray(w.one_minus_a(n)))
        assert np.all(np.diff(gaps) < 0)
        assert gaps[-1] < 1e-3


def test_tail_power_sums_match_brute_force():
    # S[m] = sum_{n>=N} (1 - a_n)^s_m at rho = 1 against explicit prefixes
    N, powers = 50, [2, 3, 5]
    w = WeightSequence.harmonic(1.0, 2.0)       # trigamma(N+2) at s=2
    u = w.one_minus_a(np.arange(10_000_000))[N:]
    wp = WeightSequence.power_law(2.0)
    up = np.asarray(wp.one_minus_a(np.arange(1_000_000)))[N:]
    S, _, _, terms = w._tail_sums(powers, N, None, 0.0)
    Sp = wp._tail_sums(powers, N, None, 0.0)[0]
    assert S.shape == Sp.shape == (len(powers),) and terms == 0
    for m, s in enumerate(powers):
        assert S[m] == pytest.approx(np.sum(u ** s), abs=1e-7)
        assert Sp[m] == pytest.approx(np.sum(up ** s), rel=1e-9)
    table = WeightSequence.from_table([0.1, 0.2, 0.3], w)
    assert_allclose(table._tail_sums(powers, 3, None, 0.0)[0],
                    w._tail_sums(powers, 3, None, 0.0)[0], rtol=0)
    with pytest.raises(ValueError):
        table._tail_sums(powers, 2, None, 0.0)


def _zeta_reference(s: float, q: float):
    # mpmath reaches a large q from a small one by subtracting the first
    # terms, which cancels about s log10(q) digits: it works with that many
    # more than the 30 kept
    with mpmath.workdps(35 + int(s * math.log10(q + 1.0))):
        return mpmath.zeta(mpmath.mpf(s), mpmath.mpf(q))


def test_hurwitz_zeta_meets_its_certificate():
    # A seeded grid over s in [1.05, 40] and q in [1e-3, 1e3], and the
    # (s, q) of the closed form for the demo configs and the kernel
    # workload's weights (harmonic p in {0.7, 1, 2} and powerlaw p in
    # {0.75, 1, 2}, offset 2, residue classes of orders d <= 12, J <= 4, so
    # s = order * (2..8) and q = (r + 2)/d).  The tolerance is the returned
    # remainder plus allowance, nothing added; the remainder stays below
    # u zeta, so truncation never sets the error, and the allowance within
    # (s + 100) u zeta, so the certificate says something.
    u = 2.0 ** -53
    rng = np.random.default_rng(11)
    grids = [(np.exp(rng.uniform(math.log(1.05), math.log(40.0), 16)),
              np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 24)))]
    q_closed = sorted({(r + 2) / d for d in range(1, 13) for r in range(d)})
    for order in (1.0, 0.75, 2.0):
        grids.append((order * np.arange(2, 9), np.array(q_closed)))
    for s, qs in grids:
        for qj in qs:
            value, remainder, allowance = _hurwitz_zeta(s, qj)
            assert value.shape == remainder.shape == allowance.shape == s.shape
            for si, v, r, a in zip(s, value, remainder, allowance):
                ref = _zeta_reference(si, qj)
                err = abs(mpmath.mpf(v) - ref)
                assert err <= r + a, (si, qj)
                assert r <= u * ref, (si, qj)
                assert a <= (si + 100) * u * ref, (si, qj)
    with pytest.raises(ValueError):
        _hurwitz_zeta([1.0], 0.5)
    with pytest.raises(ValueError):
        _hurwitz_zeta([2.0], 0.0)


# --- the band of basis Taylor coefficients -----------------------------------

# Run in a fresh process: binds every BLAS/LAPACK routine the package uses
# before scipy.linalg loads, then checks each against scipy.linalg's lookup of
# the same name and type on random real and complex inputs, to the last bit.
_BOUND_ROUTINES_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from bandkern import core

blas = ("gbmv", "axpy", "gemv")
ours = {}
for dtype in (np.float64, np.complex128):
    ours.update(zip([(n, dtype) for n in blas],
                    core.get_blas_funcs(blas, dtype=dtype)))
    ours["tbtrs", dtype] = core.get_lapack_funcs("tbtrs", dtype=dtype)
ours["stemr", np.float64] = core.get_lapack_funcs("stemr", dtype=np.float64)
assert not [m for m in sys.modules if m.startswith("scipy.linalg")]

import scipy.linalg

rng = np.random.default_rng(2)
N, kl = 40, 3
for dtype in (np.float64, np.complex128):
    def draw(*shape):
        x = rng.standard_normal(shape)
        if dtype is np.complex128:
            x = x + 1j * rng.standard_normal(shape)
        return x

    ab = np.asfortranarray(draw(kl + 1, N))
    ab[0] += 4.0
    x, y, A = draw(N), draw(N), np.asfortranarray(draw(N, N))
    B = np.asfortranarray(draw(N, 3))
    a = dtype(draw(1)[0])
    calls = {
        "gbmv": [((N, N, kl, 0, 1.0, ab, x), dict(trans=t)) for t in (0, 2)],
        "axpy": [((x, y.copy(), N - 2, a), dict(offx=2)),
                 ((x, y.copy()), dict(a=a))],
        "gemv": [((a, A, x), dict(trans=t)) for t in (0, 2)],
        "tbtrs": [((ab, b), dict(uplo="L", trans=t))
                  for b in (y, B) for t in ("N", "C")],
    }
    if dtype is np.float64:
        d, e = np.abs(draw(N)) + 1.0, draw(N)
        calls["stemr"] = [((d.copy(), e.copy(), 2, 0.0, 0.0, k, k), {})
                          for k in (1, 7, N)]
    for name, cases in calls.items():
        lookup = (scipy.linalg.get_lapack_funcs if name in ("tbtrs", "stemr")
                  else scipy.linalg.get_blas_funcs)
        theirs = lookup(name, dtype=dtype)
        assert repr(ours[name, dtype]) == repr(theirs), (name, dtype)
        for args, kwargs in cases:
            copies = [[np.copy(v) if isinstance(v, np.ndarray) else v
                       for v in args] for _ in range(2)]
            got = ours[name, dtype](*copies[0], **kwargs)
            want = theirs(*copies[1], **kwargs)
            if not isinstance(got, tuple):
                got, want = (got,), (want,)
            assert ([np.asarray(g).tobytes() for g in got]
                    == [np.asarray(w).tobytes() for w in want]), name

# the prefix follows the arrays as scipy's does: z when any is complex
real, cplx = np.zeros(3), np.zeros(3, complex)
for arrays in ((real,), (cplx,), (real, cplx), (cplx, real), (np.arange(3), real)):
    assert (repr(core.get_blas_funcs("axpy", arrays))
            == repr(scipy.linalg.get_blas_funcs("axpy", arrays))), arrays
    assert (repr(core.get_lapack_funcs("tbtrs", arrays))
            == repr(scipy.linalg.get_lapack_funcs("tbtrs", arrays))), arrays

# scipy.linalg itself is whole in this process
assert repr(scipy.linalg._flapack.dtbtrs) == "<fortran function dtbtrs>"
L = np.tril(rng.standard_normal((N, N))) + 8.0 * np.eye(N)
b = rng.standard_normal(N)
assert np.allclose(L @ scipy.linalg.solve_triangular(L, b, lower=True), b)
print("ok")
"""


def test_bound_routines_match_scipy_linalg():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", _BOUND_ROUTINES_SCRIPT, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


def test_missing_compiled_wrappers_raise_import_error(monkeypatch, tmp_path):
    # no fallback to scipy.linalg: the error names the directory searched
    monkeypatch.setattr(core, "_linalg_dir", lambda: str(tmp_path))
    monkeypatch.setattr(core, "_fortran_module",
                        functools.cache(core._fortran_module.__wrapped__))
    for name in ("scipy.linalg._fblas", "scipy.linalg._flapack"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    for lookup, name in ((core.get_blas_funcs, "axpy"),
                         (core.get_lapack_funcs, "tbtrs")):
        with pytest.raises(ImportError, match=str(tmp_path)):
            lookup(name, dtype=float)


def _vectors(rng, N, dtype):
    """A vector and a block of three columns of N rows."""
    x = rng.standard_normal((N, 4))
    if dtype is complex:
        x = x + 1j * rng.standard_normal((N, 4))
    return x[:, 0].copy(), x[:, 1:]


@pytest.mark.parametrize("angles", [["0", "1/2"], ["0", "1/3", "2/3"]],
                         ids=["real-band", "complex-band"])
@pytest.mark.parametrize("weights", [None, WeightSequence.harmonic(1.0, 2.0)],
                         ids=["Lhat", "L"])
def test_leading_section_matches_band_built_at_its_size(angles, weights):
    # The band cut to its first N' columns is the band of the leading
    # N' x N' section: products and solves, with L and L^H, on vectors and
    # blocks of either type, agree with a band built at N'.  N' runs through
    # 1, J, J + 1 (where kl = min(J, N' - 1) is cut), N/2 and N.  Both sides
    # do the same arithmetic on the same entries; tolerance rtol 1e-14.
    cfg = BoundaryConfig.from_angles(angles)
    N, J = 64, cfg.J
    top = BasisBand(cfg, weights, N)
    rng = np.random.default_rng(50)
    for n in sorted({1, J, J + 1, N // 2, N}):
        cut, fresh = top._leading(n), BasisBand(cfg, weights, n)
        assert cut.N == n and cut.ab.shape == fresh.ab.shape
        assert np.shares_memory(cut.ab, top.ab)
        for dtype in (float, complex):
            for x in _vectors(rng, n, dtype):
                for trans in ("N", "C"):
                    assert_allclose(cut.matvec(x, trans=trans),
                                    fresh.matvec(x, trans=trans),
                                    rtol=1e-14, atol=0)
                    assert_allclose(cut.solve(x, trans=trans),
                                    fresh.solve(x, trans=trans),
                                    rtol=1e-14, atol=0)


@pytest.mark.parametrize("angles", [["0", "1/2"], ["0", "1/3", "2/3"],
                                    ["0", "1/12", "5/12", "2/3"]])
def test_lhat_vector_product_matches_dense(angles):
    # Lhat x and Lhat^H x run as beta_0 x plus J axpy calls on a vector and
    # on a C-ordered block, and one pass per diagonal on F-ordered and
    # strided blocks; against the dense Lhat written entry by entry, for
    # real and complex vectors and blocks and sections down to N = 1.
    # Tolerance: rtol 1e-14 in the 2-norm (Frobenius for blocks; the sums
    # run in another order than the dense product's).
    cfg = BoundaryConfig.from_angles(angles)
    rng = np.random.default_rng(51)
    for N in (1, 2, cfg.J, cfg.J + 1, 100):
        A = dense_basis_matrix(N, cfg)
        band = BasisBand(cfg, None, N)
        for dtype in (float, complex):
            x, block = _vectors(rng, N, dtype)
            for v in (x, np.ascontiguousarray(block), np.asfortranarray(block),
                      block):
                for y, ref in ((band.matvec(v), A @ v),
                               (band.matvec(v, trans="C"), A.conj().T @ v)):
                    assert y.shape == v.shape
                    assert np.linalg.norm(y - ref) <= 1e-14 * np.linalg.norm(ref)
