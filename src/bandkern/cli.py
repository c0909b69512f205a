"""Experiment runner: JSON config in, summary JSON + long-format CSV out.

Usage:
    bandkern run <config.json> [--out PREFIX]
    bandkern plot <series.csv>

Exit codes: 0 success, 2 configuration/schema error, 3 numerical failure
(e.g. an unreachable truncation), 4 a verdict assertion was requested in the
config and the computed verdict did not affirm it.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import basis_kernel, decomposition, multiplier, recursion
from .core import (
    MIN_TRUNCATION,
    BoundaryConfig,
    ConfigurationError,
    DomainError,
    SearchFailureError,
    TruncationError,
    WeightSequence,
    beta_coefficients,
    homogeneous_symmetric,
    louck_power_sum,
)

EXPERIMENTS = (
    "containment",
    "divergence-example",
    "decomposition",
    "multiplier",
    "kernel-eval",
    "identities",
    "domain",
)

# experiments held to MIN_TRUNCATION: the growth verdicts read section norms
# or coefficient blocks from there on; for domain it only validates the input
_GROWTH_EXPERIMENTS = ("containment", "multiplier", "divergence-example", "domain")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_UNAFFIRMED = 4

SUMMARY_SCHEMA = {
    "type": "object",
    "required": ["experiment", "config", "verdicts", "measurements",
                 "series_csv", "status"],
    "properties": {
        "experiment": {"type": "string"},
        "config": {"type": "object"},
        "verdicts": {"type": "object", "values": {"type": "string"}},
        "measurements": {"type": "object"},
        "series_csv": {"type": "string"},
        "status": {"type": "string"},
    },
}


def validate_summary(obj) -> None:
    """Check a summary dict against SUMMARY_SCHEMA (raises ValueError)."""
    if not isinstance(obj, dict):
        raise ValueError("summary must be an object")
    for key in SUMMARY_SCHEMA["required"]:
        if key not in obj:
            raise ValueError(f"summary missing key {key!r}")
    for key in ("experiment", "series_csv", "status"):
        if not isinstance(obj[key], str):
            raise ValueError(f"summary field {key!r} must be a string")
    for key in ("config", "verdicts", "measurements"):
        if not isinstance(obj[key], dict):
            raise ValueError(f"summary field {key!r} must be an object")
    for k, v in obj["verdicts"].items():
        if not isinstance(v, str):
            raise ValueError(f"verdict {k!r} must be a string")


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

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


def _parse_complex(obj, cfg: Optional[BoundaryConfig]) -> complex:
    if isinstance(obj, str):
        if obj.startswith("z") and cfg is not None:
            idx = int(obj[1:]) - 1
            if not 0 <= idx < cfg.J:
                raise ConfigurationError(f"no such root {obj!r}")
            return cfg.roots[idx]
        z = complex(Fraction(obj))
    elif isinstance(obj, dict):
        z = complex(float(obj.get("re", 0.0)), float(obj.get("im", 0.0)))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        z = complex(obj)
    else:
        raise ConfigurationError(f"cannot parse point {obj!r}")
    if not cmath.isfinite(z):
        raise ConfigurationError(f"point {obj!r} is not finite")
    return z


def _parse_weights(obj) -> WeightSequence:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigurationError("weights must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "harmonic":
        return WeightSequence.harmonic(float(obj["p"]),
                                       float(obj.get("offset", 2.0)))
    if kind == "powerlaw":
        return WeightSequence.power_law(float(obj["p"]))
    if kind == "table":
        tail = _parse_weights(obj["tail"])
        values = [
            complex(v["re"], v.get("im", 0.0)) if isinstance(v, dict) else float(v)
            for v in obj["values"]
        ]
        return WeightSequence.from_table(values, tail)
    raise ConfigurationError(f"unknown weight kind {kind!r}")


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    roots = raw.get("roots")
    if isinstance(roots, dict) and "angles" in roots:
        cfg = BoundaryConfig.from_angles([Fraction(str(q)) for q in roots["angles"]])
    elif isinstance(roots, dict) and "points" in roots:
        cfg = BoundaryConfig.from_points(
            [_parse_complex(p, None) for p in roots["points"]])
    else:
        raise ConfigurationError("roots must carry 'angles' or 'points'")
    weights = _parse_weights(raw.get("weights"))
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigurationError(f"unknown experiment {experiment!r}")
    truncations = raw.get("truncations")
    if (not isinstance(truncations, list) or not truncations
            or any(not isinstance(t, int) or t <= 0 for t in truncations)
            or any(b <= a for a, b in zip(truncations, truncations[1:]))):
        raise ConfigurationError("truncations must be a strictly increasing "
                                 "nonempty list of positive integers")
    if experiment in _GROWTH_EXPERIMENTS and truncations[0] < MIN_TRUNCATION:
        raise ConfigurationError(
            f"{experiment} truncations must be at least {MIN_TRUNCATION}: "
            "growth verdicts and domain checkpoints start there")
    tolerance = float(raw.get("tolerance", 1e-8))
    if not 0.0 < tolerance <= 1e-2:
        raise ConfigurationError("tolerance must lie in (0, 1e-2]")
    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigurationError("seed must be an integer >= 0")
    points = raw.get("points", [])
    if not isinstance(points, list):
        raise ConfigurationError("points must be a list of points or pairs")
    points = [[_parse_complex(q, cfg) for q in p]
              if isinstance(p, list) and len(p) == 2 else _parse_complex(p, cfg)
              for p in points]
    trials = raw.get("trials", 5)
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ConfigurationError("trials must be an integer >= 1")
    expect = raw.get("expect_verdict")
    if expect is not None and not isinstance(expect, str):
        raise ConfigurationError("expect_verdict must be a string")
    return ExperimentConfig(
        cfg, weights, experiment, list(truncations), tolerance, seed,
        raw.get("output"), points, expect, trials, raw,
    )


# ---------------------------------------------------------------------------
# experiments (each returns verdicts, measurements, series rows)
# ---------------------------------------------------------------------------

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
        routes.append({"route": kv.route, "rho_order": kv.rho_order,
                       "truncation_n": kv.truncation_n,
                       "tail": {"truncation": kv.tail_truncation,
                                "abel": kv.tail_abel,
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
        h = homogeneous_symmetric(np.arange(-J, 3 * J + 1), cfg.conjugates)
        louck = louck_power_sum(np.arange(3 * J + 1), cfg)
        for m in range(0, 3 * J + 1):     # h[J + k] holds h_k
            r = abs(louck[m] - h[m + 1])
            worst_louck = max(worst_louck, r)
            rows.append((m, f"louck_residual_cfg{ci}", r))
            if m >= 1:
                s = abs(sum(beta[i] * h[J + m - i] for i in range(0, min(m, J) + 1)))
                worst_homo = max(worst_homo, s)
                rows.append((m, f"homogeneous_sum_residual_cfg{ci}", s))
        # row J + k of the table holds Q_k, k = -J..2J
        q = decomposition.q_coefficients(np.arange(-J, 2 * J + 1), cfg)
        for n in range(0, 2 * J + 1):
            k = min(n, J)
            u = rng.uniform(-1, 1, size=(5, 2)) / math.sqrt(2)
            x = u[:, 0] + 1j * u[:, 1]
            qx = q[J + n - k: J + n + 1][::-1] @ x ** np.arange(J + 1)[:, None]
            target = beta[n + 1] * (x ** (n + 1) - 1) if n + 1 <= J else 0.0
            r = float(np.max(np.abs(beta[: k + 1] @ qx - target)))
            worst_q = max(worst_q, r)
            rows.append((n, f"q_recursion_residual_cfg{ci}", r))
    tol = 1e-9
    ok = worst_louck <= tol and worst_homo <= tol and worst_q <= tol
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


_RUNNERS = {
    "containment": _run_containment,
    "divergence-example": _run_divergence,
    "decomposition": _run_decomposition,
    "multiplier": _run_multiplier,
    "kernel-eval": _run_kernel_eval,
    "identities": _run_identities,
    "domain": _run_domain,
}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _write_series(path: str, experiment: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("experiment,index,quantity,value\n")
        for idx, quantity, value in rows:
            fh.write(f"{experiment},{idx},{quantity},{_fmt(value)}\n")


def _strict(obj):
    """Replace non-finite floats (no JSON literal exists) by None."""
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_summary(path: str, summary: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_strict(summary), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def _diagnostic(prefix: Optional[str], code: int, kind: str, message: str) -> None:
    diag = {"status": "error", "error": {"kind": kind, "message": message},
            "exit_code": code}
    sys.stderr.write(json.dumps(diag, sort_keys=True) + "\n")
    if prefix:
        try:
            _write_summary(prefix + ".summary.json", diag)
        except OSError:
            pass


def run(config_path: str, out: Optional[str] = None) -> int:
    """Execute the experiment named in the config file; returns an exit code."""
    prefix = out
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _diagnostic(prefix, EXIT_CONFIG, type(exc).__name__, str(exc))
        return EXIT_CONFIG
    try:
        ec = parse_config(raw)
    except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
        _diagnostic(prefix, EXIT_CONFIG, type(exc).__name__, str(exc))
        return EXIT_CONFIG
    prefix = out or ec.output or os.path.splitext(config_path)[0]
    try:
        verdicts, measurements, rows = _RUNNERS[ec.experiment](ec)
    except (TruncationError, ArithmeticError, np.linalg.LinAlgError) as exc:
        _diagnostic(prefix, EXIT_NUMERICAL, type(exc).__name__, str(exc))
        return EXIT_NUMERICAL
    except (ConfigurationError, DomainError, SearchFailureError, ValueError) as exc:
        # bare ValueError: a library precondition violated by config choices
        _diagnostic(prefix, EXIT_CONFIG, type(exc).__name__, str(exc))
        return EXIT_CONFIG

    series_path = prefix + ".series.csv"
    _write_series(series_path, ec.experiment, rows)
    summary = {
        "experiment": ec.experiment,
        "config": ec.raw,
        "verdicts": verdicts,
        "measurements": measurements,
        "series_csv": os.path.basename(series_path),
        "status": "ok",
    }
    validate_summary(summary)
    _write_summary(prefix + ".summary.json", summary)

    if ec.expect_verdict is not None:
        values = set(verdicts.values())
        if "inconclusive" in values or ec.expect_verdict not in values:
            _diagnostic(prefix, EXIT_UNAFFIRMED, "UnaffirmedVerdict",
                        f"expected {ec.expect_verdict!r}, got {sorted(values)}")
            return EXIT_UNAFFIRMED
    return EXIT_OK


def emit_plot_data(series_path: str) -> int:
    """Split a long-format series CSV into one '<x> <value>' file per quantity."""
    try:
        with open(series_path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        _diagnostic(None, EXIT_CONFIG, type(exc).__name__, str(exc))
        return EXIT_CONFIG
    if not lines or lines[0] != "experiment,index,quantity,value":
        _diagnostic(None, EXIT_CONFIG, "FormatError",
                    f"{series_path} is not a bandkern series file")
        return EXIT_CONFIG
    base = series_path[:-4] if series_path.endswith(".csv") else series_path
    groups: dict = {}
    for line in lines[1:]:
        if not line:
            continue
        _, idx, quantity, value = line.split(",", 3)
        groups.setdefault(quantity, []).append((idx, value))
    for quantity in sorted(groups):
        with open(f"{base}.{quantity}.dat", "w", encoding="utf-8",
                  newline="\n") as fh:
            for idx, value in groups[quantity]:
                fh.write(f"{idx} {value}\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bandkern", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output path prefix")
    p_plot = sub.add_parser("plot", help="emit per-quantity plot data")
    p_plot.add_argument("series")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.out)
    return emit_plot_data(args.series)


if __name__ == "__main__":
    sys.exit(main())
