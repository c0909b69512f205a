"""The experiments of the command-line runner. Each runner takes a parsed
config and returns its verdicts, its measurements and its series rows.

They live apart from ``cli`` so that neither module is large. Imported from
source, a module is compiled at import, and the heap the compiler grows stays
with the process: with the runners, the encoder and the writer in one file,
``perfbench`` read about 0.45 MB more peak RSS on its kernel workload."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import basis_kernel, decomposition, multiplier, recursion
from .core import (
    TOL_IDENTITY,
    BoundaryConfig,
    ConfigurationError,
    WeightSequence,
    beta_coefficients,
    homogeneous_symmetric,
    louck_power_sum,
)


@dataclass
class ExperimentConfig:
    cfg: BoundaryConfig
    weights: WeightSequence
    experiment: str
    truncations: list
    tolerance: float
    seed: int
    output: Optional[str]
    points: list = field(default_factory=list)
    expect_verdict: Optional[str] = None
    trials: int = 5
    raw: dict = field(default_factory=dict)


def _run_containment(ec: ExperimentConfig):
    rep = recursion.containment_report(ec.cfg, ec.weights, ec.truncations)
    rows = [(e.truncation, "norm_estimate", e.value) for e in rep.norm_estimates]
    rows += [(k, "column_l2", v) for k, v in enumerate(rep.column_norms)]
    meas = {
        "plateau_rel": rep.plateau_rel,
        "p_hat": rep.p_hat,
        "norm_residual_max": max(e.residual for e in rep.norm_estimates),
        "norm_steps_max": max(e.steps for e in rep.norm_estimates),
        "norm_steps": {"norm_estimate": [e.steps for e in rep.norm_estimates]},
        "column_norm_cancellation": rep.column_norm_cancellation,
    }
    if ec.weights.rate_hypothesis:
        fit = recursion.fit_starting_decay(ec.cfg, ec.weights)
        meas["D1"] = fit.D1
    return {"containment": rep.verdict}, meas, rows


def _run_divergence(ec: ExperimentConfig):
    Nmax = ec.truncations[-1]
    col = recursion.c_column(0, Nmax - 1, ec.cfg, ec.weights)
    rows = []
    for m in range(1, min(200, (Nmax - 1) // 2) + 1):
        rows.append((m, "c_2m_0_abs", abs(col[2 * m])))
    csum = np.sqrt(np.cumsum(np.abs(col) ** 2))
    norms = [float(csum[N - 1]) for N in ec.truncations]
    rows += [(N, "column0_l2", v) for N, v in zip(ec.truncations, norms)]
    verdict, p_hat = recursion._l2_verdict(col)
    meas = {"c_2_0": float(np.real(col[2])) if abs(col[2].imag) < 1e-12
            else [col[2].real, col[2].imag],
            "column0_l2_final": norms[-1], "p_hat": p_hat}
    return {"column_growth": verdict}, meas, rows


def _run_decomposition(ec: ExperimentConfig):
    N = ec.truncations[-1]
    rng = np.random.default_rng(ec.seed)
    J = ec.cfg.J
    deg = min(32, N // 8)
    g0 = np.empty((deg + 1, ec.trials), dtype=complex)
    b0 = np.empty((J, ec.trials), dtype=complex)
    for t in range(ec.trials):
        g = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        g0[:, t] = g / np.linalg.norm(g)
        b = rng.standard_normal(J) + 1j * rng.standard_normal(J)
        b0[:, t] = b / max(1.0, float(np.linalg.norm(b)))
    # L, Lhat and the boundary kernel columns are built once for the run
    split = decomposition.Splitting(ec.cfg, ec.weights, N)
    alpha, _ = split.reconstruct(g0, b0)
    dec = split.decompose(alpha)
    errs = np.max(np.abs(np.vstack([dec.b - b0, dec.g[: deg + 1] - g0,
                                    dec.g[deg + 1:]])), axis=0)
    rows = []
    for t in range(ec.trials):
        rows.append((t, "roundtrip_error", float(errs[t])))
        rows.append((t, "taylor_residual", float(dec.residual[t])))
    worst = float(np.max(errs))
    q_c = decomposition.measure_q_bound(ec.cfg, ec.weights)
    # the splitting needs phi = phi * 1 in the space: column 0 of C in l2
    l2, p_hat = recursion._l2_verdict(recursion._column0(split.L, split.Lhat))
    verdict = ("fail" if worst > ec.tolerance or l2 == recursion.LIKELY_UNBOUNDED
               else "pass" if l2 == recursion.LIKELY_BOUNDED else l2)
    meas = {"max_roundtrip_error": worst, "gram_cond": split.gram_cond,
            "q_bound_constant": q_c, "p_hat": p_hat}
    return {"roundtrip": verdict}, meas, rows


def _run_multiplier(ec: ExperimentConfig):
    rep = multiplier.mz_norm_report(ec.cfg, ec.weights, ec.truncations)
    N = ec.truncations[-1]
    exp = multiplier.constant_expansion(N, ec.cfg, ec.weights)
    sup_err = multiplier.constant_sup_error(exp.coeffs, ec.cfg, ec.weights)
    rows = [(e.truncation, "mz_norm", e.value) for e in rep.full_norms]
    rows += [(e.truncation, "mz_norm_minus_shift", e.value)
             for e in rep.shifted_norms]
    rows += [(int(c), "const_l2", float(v))
             for c, v in zip(exp.checkpoints, exp.partial_norms)]
    estimates = rep.full_norms + rep.shifted_norms
    meas = {"constant_sup_error": sup_err, "p_hat": exp.p_hat,
            "norm_residual_max": max(e.residual for e in estimates),
            "norm_steps_max": max(e.steps for e in estimates),
            "norm_steps": {
                "mz_norm": [e.steps for e in rep.full_norms],
                "mz_norm_minus_shift": [e.steps for e in rep.shifted_norms]}}
    return {"mz_growth": rep.verdict, "constant_l2": exp.verdict}, meas, rows


def _run_kernel_eval(ec: ExperimentConfig):
    pairs = [tuple(p) if isinstance(p, list) else (p, p) for p in ec.points]
    if not pairs:
        pairs = [(z, z) for z in ec.cfg.roots]
    rows, routes = [], []
    for i, (z, w) in enumerate(pairs):
        kv = basis_kernel.kernel_eval(z, w, ec.cfg, ec.weights, ec.tolerance)
        rows.append((i, "kernel_re", kv.value.real))
        rows.append((i, "kernel_im", kv.value.imag))
        rows.append((i, "tail_bound", kv.tail_bound))
        rows.append((i, "truncation_n", float(kv.truncation_n)))
        routes.append({"route": kv.route, "truncation_n": kv.truncation_n,
                       "tail": {"truncation": kv.tail_truncation,
                                "rounding": kv.tail_rounding}})
    return {"kernel": "evaluated"}, {"pairs": len(pairs), "routes": routes}, rows


def _run_identities(ec: ExperimentConfig):
    rng = np.random.default_rng(ec.seed)
    rows = []
    worst_louck = worst_homo = worst_q = 0.0
    configs = [ec.cfg]
    for _ in range(10):
        J = int(rng.integers(1, 7))
        while True:
            qs = [Fraction(int(rng.integers(0, 24)), 24) for _ in range(J)]
            if len(set(qs)) == J:
                break
        configs.append(BoundaryConfig.from_angles(qs))
    for ci, cfg in enumerate(configs):
        J = cfg.J
        beta = beta_coefficients(cfg)
        m, n, i = np.arange(3 * J + 1), np.arange(2 * J + 1), np.arange(J + 1)
        # h[J + k] holds h_k, k = -J..3J; Louck: sum_j w_j^m / mu_j = h_{m-J+1}
        h = homogeneous_symmetric(np.arange(-J, 3 * J + 1), cfg.conjugates)
        # abs per element is libm's hypot, whose last bit numpy's array abs
        # need not match
        louck = [abs(d) for d in louck_power_sum(m, cfg) - h[m + 1]]
        # sum_{i <= min(m, J)} beta_i h_{m-i} = 0 for m >= 1 (h_k = 0 for k < 0)
        homo = np.abs(h[J + m[1:, None] - i] @ beta)
        # sum_{i <= min(n, J)} beta_i Q_{n-i}(x) = beta_{n+1} (x^{n+1} - 1),
        # the right side 0 for n >= J, at 5 random x per n; row J + k of
        # the table holds Q_k, k = -J..2J
        u = rng.uniform(-1, 1, size=(2 * J + 1, 5, 2)) / math.sqrt(2)
        x = u[..., 0] + 1j * u[..., 1]
        q = decomposition.q_coefficients(np.arange(-J, 2 * J + 1), cfg)
        qx = q[J + n[:, None] - i] @ np.swapaxes(x[..., None] ** i, 1, 2)
        lhs = (np.where(i <= n[:, None], beta, 0.0)[:, None, :] @ qx)[:, 0]
        target = np.zeros_like(lhs)
        target[:J] = beta[1:, None] * (x[:J] ** (n[:J, None] + 1) - 1)
        resid = np.max(np.abs(lhs - target), axis=1)
        for k in m:
            rows.append((int(k), f"louck_residual_cfg{ci}", louck[k]))
            if k >= 1:
                rows.append((int(k), f"homogeneous_sum_residual_cfg{ci}", homo[k - 1]))
        rows += [(int(k), f"q_recursion_residual_cfg{ci}", r) for k, r in zip(n, resid)]
        worst_louck = max(worst_louck, float(np.max(louck)))
        worst_homo = max(worst_homo, float(np.max(homo)))
        worst_q = max(worst_q, float(np.max(resid)))
    ok = max(worst_louck, worst_homo, worst_q) <= TOL_IDENTITY
    meas = {"max_louck_residual": worst_louck,
            "max_homogeneous_sum_residual": worst_homo,
            "max_q_recursion_residual": worst_q}
    return {"identities": "pass" if ok else "fail"}, meas, rows


def _run_domain(ec: ExperimentConfig):
    N = ec.truncations[-1]
    points = ec.points or list(ec.cfg.roots) + [0.0, 0.5]
    rows = []
    verdicts = {}
    for i, z in enumerate(points):
        if isinstance(z, list):
            raise ConfigurationError("domain points must be single values")
        rep = basis_kernel.domain_report(z, ec.cfg, ec.weights, N)
        for c, v in zip(rep.checkpoints, rep.partial_sums):
            rows.append((int(c), f"partial_sum_pt{i}", float(v)))
        verdicts[f"point_{i}"] = rep.verdict
    return verdicts, {"points": len(points)}, rows


RUNNERS = {
    "containment": _run_containment,
    "divergence-example": _run_divergence,
    "decomposition": _run_decomposition,
    "multiplier": _run_multiplier,
    "kernel-eval": _run_kernel_eval,
    "identities": _run_identities,
    "domain": _run_domain,
}
