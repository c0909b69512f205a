"""Acceptance suite: every criterion with its stated tolerance, one
pass/fail line per criterion (run with -s to see them as they go)."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from bandkern import (
    BasisBand,
    BoundaryConfig,
    Splitting,
    WeightSequence,
    beta_coefficients,
    c_column,
    companion_limit,
    constant_expansion,
    containment_report,
    eigen_basis,
    fit_starting_decay,
    homogeneous_symmetric,
    kernel_eval,
    louck_power_sum,
    mu_search,
    mz_norm_report,
    nu0_expansion,
    product_norm,
    q_coefficients,
    starting_vector,
)
from bandkern.multiplier import constant_sup_error

from conftest import (
    dense_basis_matrix,
    random_rational_config,
    triangular_solve_oracle,
)


def report(num, text, ok):
    print(f"\nACCEPTANCE {num:2d}: {text} ... {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {text}"


CFG_PM1 = BoundaryConfig.from_angles(["0", "1/2"])
CFG_ONE = BoundaryConfig.from_angles(["0"])
HARM1 = WeightSequence.harmonic(1.0, 2.0)
POW2 = WeightSequence.power_law(2.0)


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    worst = 0.0
    for _ in range(25):
        cfg = random_rational_config(rng, J_max=4)
        if rng.uniform() < 0.5:
            weights = WeightSequence.harmonic(float(rng.uniform(0.3, 2.5)), 2.0)
        else:
            weights = WeightSequence.power_law(float(rng.uniform(0.6, 2.5)))
        N = 256
        C = BasisBand(cfg, weights, N).solve(dense_basis_matrix(N, cfg))
        gap = np.max(np.abs(C - triangular_solve_oracle(N, cfg, weights)))
        worst = max(worst, float(gap))
    elapsed = time.time() - t0
    report(1, f"recursion matches dense solve on 25 random 256x256 sections "
              f"(worst {worst:.2e}, {elapsed:.1f}s)",
           worst <= 1e-10 and elapsed < 30.0)


def test_criterion_02_divergent_counterexample():
    col = c_column(0, 4095, CFG_PM1, POW2)
    ok_value = abs(col[2] - (-7.0 / 16.0)) <= 1e-12
    evens = np.abs(col[2: 2 * 200 + 1: 2])
    ok_monotone = bool(np.all(np.diff(evens) < 0)) and evens[-1] >= 0.3
    csum = np.sqrt(np.cumsum(np.abs(col) ** 2))
    ok_growth = csum[4095] > 1.10 * csum[1023]
    report(2, f"divergence example: c_20={col[2].real:+.6f}, "
              f"limit~{evens[-1]:.4f}, col-norm ratio {csum[4095]/csum[1023]:.3f}",
           ok_value and ok_monotone and ok_growth)


def test_criterion_03_closed_form_kernel():
    kv = kernel_eval(1.0, 1.0, CFG_ONE, HARM1, 1e-8)
    err = abs(kv.value - (math.pi ** 2 / 6 - 1))
    report(3, f"K(1,1) = pi^2/6 - 1 within 1e-8 (err {err:.2e}, "
              f"tail bound {kv.tail_bound:.2e})",
           err <= 1e-8 and kv.tail_bound <= 1e-8)


def test_criterion_04_combinatorial_identities():
    rng = np.random.default_rng(404)
    worst_louck = worst_homo = worst_q = 0.0
    for _ in range(100):
        cfg = random_rational_config(rng, J_max=6)
        J = cfg.J
        beta = beta_coefficients(cfg)
        w = cfg.conjugates
        for m in range(0, 3 * J + 1):
            worst_louck = max(worst_louck, abs(
                louck_power_sum(m, cfg) - homogeneous_symmetric(m - J + 1, w)))
            if m >= 1:
                worst_homo = max(worst_homo, abs(sum(
                    beta[i] * homogeneous_symmetric(m - i, w)
                    for i in range(0, min(m, J) + 1))))
        for n in range(0, 2 * J + 1):
            qs = q_coefficients([n - i for i in range(min(n, J) + 1)], cfg)
            for _ in range(3):
                x = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / math.sqrt(2)
                s = sum(beta[i] * P.polyval(x, qs[i])
                        for i in range(min(n, J) + 1))
                t = beta[n + 1] * (x ** (n + 1) - 1) if n + 1 <= J else 0.0
                worst_q = max(worst_q, abs(s - t))
    report(4, f"identities over 100 random configs: louck {worst_louck:.2e}, "
              f"homogeneous-sum {worst_homo:.2e}, q-recursion {worst_q:.2e}",
           worst_louck <= 1e-9 and worst_homo <= 1e-9 and worst_q <= 1e-9)


def test_criterion_05_eigen_structure():
    rng = np.random.default_rng(505)
    configs = [CFG_ONE, CFG_PM1,
               BoundaryConfig.from_angles(["0", "1/3", "2/3"])]
    configs += [random_rational_config(rng, J_max=6) for _ in range(20)]
    worst_eig = worst_nu0 = 0.0
    for cfg in configs:
        eb = eigen_basis(cfg)
        Minf = companion_limit(cfg)
        for j, w in enumerate(cfg.conjugates):
            worst_eig = max(worst_eig, float(np.max(np.abs(
                Minf @ eb.X[:, j] - w * eb.X[:, j]))))
        eJ = np.zeros(cfg.J)
        eJ[-1] = 1.0
        worst_nu0 = max(worst_nu0, float(np.max(np.abs(
            eb.X @ nu0_expansion(cfg) - eJ))))
    report(5, f"companion eigenstructure: eig residual {worst_eig:.2e}, "
              f"nu0 residual {worst_nu0:.2e}",
           worst_eig <= 1e-10 and worst_nu0 <= 1e-10)


def test_criterion_06_product_norm_bound():
    mu = mu_search(CFG_PM1, 0.01)
    ok = mu == 2
    detail = []
    for n in (200, 500, 1000, 5000, 10000):
        nrm = product_norm(n, mu, CFG_PM1, HARM1, conjugated=True)
        bound = 1.0 - 1.8 / n
        detail.append(nrm <= bound)
        ok = ok and nrm <= bound
    report(6, f"conjugated product norms below 1 - 1.8/n at "
              f"n in {{200,500,1000,5000,10000}}: {detail}", ok)


def test_criterion_07_containment_dichotomy():
    t0 = time.time()
    N_list = [256, 512, 1024, 2048]
    results = {}
    for label, weights, expect in [
        ("harmonic p=0.75", WeightSequence.harmonic(0.75, 2.0), "likely-bounded"),
        ("harmonic p=1", HARM1, "likely-bounded"),
        ("harmonic p=2", WeightSequence.harmonic(2.0, 2.0), "likely-bounded"),
        ("harmonic p=0.25", WeightSequence.harmonic(0.25, 2.0), "likely-unbounded"),
        ("powerlaw p=2", POW2, "likely-unbounded"),
    ]:
        rep = containment_report(CFG_PM1, weights, N_list)
        results[label] = (rep.verdict, expect, rep.verdict == expect)
    elapsed = time.time() - t0
    ok = all(v[2] for v in results.values()) and elapsed < 300.0
    summary = ", ".join(f"{k}: {v[0]}" for k, v in results.items())
    report(7, f"containment dichotomy at N=2048 ({summary}; {elapsed:.0f}s)", ok)


def test_criterion_08_decomposition_roundtrip():
    rng = np.random.default_rng(808)
    N = 512
    worst = 0.0
    trials = 0
    for angles in (["0"], ["0", "1/2"], ["0", "1/3", "2/3"]):
        cfg = BoundaryConfig.from_angles(angles)
        for p in (0.75, 1.0):
            weights = WeightSequence.harmonic(p, 2.0)
            split = Splitting(cfg, weights, N)
            for _ in range(4):
                trials += 1
                deg = int(rng.integers(1, 33))
                g0 = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
                g0 /= np.linalg.norm(g0)
                b0 = rng.standard_normal(cfg.J) + 1j * rng.standard_normal(cfg.J)
                b0 /= max(1.0, float(np.linalg.norm(b0)))
                alpha, _ = split.reconstruct(g0, b0)
                dec = split.decompose(alpha)
                err = max(float(np.max(np.abs(dec.b - b0))),
                          float(np.max(np.abs(dec.g[: deg + 1] - g0))),
                          float(np.max(np.abs(dec.g[deg + 1:]))))
                worst = max(worst, err)
    report(8, f"decompose-reconstruct round trip, {trials} trials at N=512 "
              f"(worst error {worst:.2e})", worst <= 1e-6 and trials >= 20)


def test_criterion_09_multiplier_and_constant():
    exp = constant_expansion(2048, CFG_ONE, HARM1)
    expect = 1.0 / (np.arange(101) + 1.0)
    coeff_err = float(np.max(np.abs(exp.coeffs[:101] - expect)))
    rep = mz_norm_report(CFG_ONE, HARM1, [256, 512, 1024, 2048])
    vals = [e.value for e in rep.full_norms]
    plateau_rel = (vals[-1] - vals[-2]) / vals[-1]
    sup_err = constant_sup_error(exp.coeffs, CFG_ONE, HARM1)
    ok = (coeff_err <= 1e-12 and rep.verdict == "likely-bounded"
          and plateau_rel < 1e-3 and sup_err <= 1e-6)
    report(9, f"constant expansion c_j = 1/(j+1) (err {coeff_err:.2e}), "
              f"M_z plateau at 2048 (rel {plateau_rel:.2e}), "
              f"sup|sum - 1| = {sup_err:.2e} on |z|<=0.9", ok)


def test_criterion_10_starting_vector_decay():
    rng = np.random.default_rng(1010)
    configs = [CFG_ONE, CFG_PM1,
               BoundaryConfig.from_angles(["0", "1/3", "2/3"]),
               BoundaryConfig.from_angles(["1/8", "3/8", "5/8", "7/8"])]
    configs += [random_rational_config(rng, J_max=4) for _ in range(6)]
    weight_choices = [WeightSequence.harmonic(0.75, 2.0), HARM1,
                      WeightSequence.harmonic(2.0, 1.0),
                      WeightSequence.power_law(1.0)]
    worst_margin = np.inf
    ok = True
    for cfg in configs:
        for weights in weight_choices:
            fit = fit_starting_decay(cfg, weights)
            for n in (128, 256, 512, 1024, 2048, 4096, 10_000):
                v = float(np.linalg.norm(starting_vector(n, cfg, weights)))
                lhs = v * (n + cfg.J) / weights.p
                ok = ok and lhs <= fit.D1 * (1 + 1e-12)
                worst_margin = min(worst_margin, fit.D1 - lhs)
    report(10, f"fitted D1 (n<=64) bounds window-vector decay up to n=1e4 "
               f"(smallest margin {worst_margin:.2e})", ok)
