import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from bandkern import basis_kernel, core, decomposition
from bandkern.cli import emit_plot_data, main, run, validate_summary


def write_config(tmp_path, name, **overrides):
    base = {
        "roots": {"angles": ["0", "1/2"]},
        "weights": {"kind": "powerlaw", "p": 2.0},
        "experiment": "divergence-example",
        "truncations": [256, 512, 1024],
        "tolerance": 1e-8,
        "seed": 7,
    }
    base.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return str(path)


def read_summary(prefix):
    with open(prefix + ".summary.json") as fh:
        return json.load(fh)


def test_divergence_example_run(tmp_path):
    cfgp = write_config(tmp_path, "div.json")
    prefix = str(tmp_path / "out")
    assert run(cfgp, out=prefix) == 0
    summary = read_summary(prefix)
    validate_summary(summary)
    assert summary["verdicts"]["column_growth"] == "likely-unbounded"
    assert summary["measurements"]["c_2_0"] == pytest.approx(-7.0 / 16.0, abs=1e-12)
    lines = open(prefix + ".series.csv").read().splitlines()
    assert lines[0] == "experiment,index,quantity,value"
    c2m = [float(l.split(",")[3]) for l in lines[1:]
           if l.split(",")[2] == "c_2m_0_abs"]
    assert len(c2m) == 200
    assert all(b < a for a, b in zip(c2m, c2m[1:]))     # monotone convergence
    assert c2m[-1] >= 0.3                               # nonzero limit


def test_kernel_eval_run(tmp_path):
    cfgp = write_config(
        tmp_path, "kern.json",
        roots={"angles": ["0"]},
        weights={"kind": "harmonic", "p": 1.0, "offset": 2.0},
        experiment="kernel-eval",
        points=[["z1", "z1"]],
        tolerance=1e-8,
    )
    prefix = str(tmp_path / "kern_out")
    assert run(cfgp, out=prefix) == 0
    lines = open(prefix + ".series.csv").read().splitlines()[1:]
    values = {l.split(",")[2]: float(l.split(",")[3]) for l in lines}
    assert values["kernel_re"] == pytest.approx(math.pi ** 2 / 6 - 1, abs=1e-8)
    assert values["tail_bound"] <= 1e-8


def test_kernel_eval_summary_records_routes(tmp_path):
    cfgp = write_config(
        tmp_path, "kern.json",
        roots={"angles": ["0", "1/3", "2/3"]},
        weights={"kind": "harmonic", "p": 1.0, "offset": 2.0},
        experiment="kernel-eval",
        points=[["z1", "z2"], [{"re": 0.5}, {"re": 0.5}]],
        tolerance=1e-10,
    )
    prefix = str(tmp_path / "kern_out")
    assert run(cfgp, out=prefix) == 0
    routes = json.load(open(prefix + ".summary.json"))["measurements"]["routes"]
    closed, explicit = routes
    assert closed["route"] == "closed_form" and closed["rho_order"] == 3
    assert closed["truncation_n"] == 0
    assert closed["tail"]["truncation"] == closed["tail"]["abel"] == 0.0
    assert 0.0 < closed["tail"]["rounding"] <= 1e-10
    assert explicit["route"] == "explicit" and explicit["rho_order"] is None
    assert explicit["truncation_n"] > 0
    assert explicit["tail"]["abel"] == 0.0
    assert sum(explicit["tail"].values()) <= 1e-10


def test_empty_truncations_is_config_error(tmp_path):
    cfgp = write_config(tmp_path, "bad.json", truncations=[])
    assert run(cfgp, out=str(tmp_path / "bad_out")) == 2


def test_unsorted_truncations_is_config_error(tmp_path):
    cfgp = write_config(tmp_path, "bad2.json", truncations=[512, 256])
    assert run(cfgp, out=str(tmp_path / "bad2_out")) == 2


def test_unknown_experiment_is_config_error(tmp_path):
    cfgp = write_config(tmp_path, "bad3.json", experiment="nope")
    assert run(cfgp, out=str(tmp_path / "bad3_out")) == 2


def test_missing_config_file():
    assert run("/nonexistent/config.json") == 2


def test_numerical_failure_exit_code(tmp_path):
    # boundary kernel value diverges for powerlaw p <= 1/2
    cfgp = write_config(
        tmp_path, "num.json",
        weights={"kind": "powerlaw", "p": 0.4},
        experiment="kernel-eval",
        points=[["z1", "z1"]],
    )
    prefix = str(tmp_path / "num_out")
    assert run(cfgp, out=prefix) == 3
    diag = read_summary(prefix)
    assert diag["status"] == "error"


def test_expect_verdict_unaffirmed(tmp_path):
    cfgp = write_config(tmp_path, "exp.json", expect_verdict="likely-bounded")
    assert run(cfgp, out=str(tmp_path / "exp_out")) == 4


def test_expect_verdict_affirmed(tmp_path):
    cfgp = write_config(
        tmp_path, "exp2.json",
        weights={"kind": "harmonic", "p": 1.0, "offset": 2.0},
        experiment="containment",
        truncations=[128, 256, 512],
        expect_verdict="likely-bounded",
    )
    assert run(cfgp, out=str(tmp_path / "exp2_out")) == 0


def test_determinism_byte_identical(tmp_path):
    cfgp = write_config(
        tmp_path, "det.json",
        experiment="decomposition",
        roots={"angles": ["0", "1/2"]},
        weights={"kind": "harmonic", "p": 1.0, "offset": 2.0},
        truncations=[128, 256],
        seed=123,
        trials=3,
    )
    p1, p2 = str(tmp_path / "det1"), str(tmp_path / "det2")
    assert run(cfgp, out=p1) == 0
    assert run(cfgp, out=p2) == 0
    csv1 = open(p1 + ".series.csv", "rb").read()
    csv2 = open(p2 + ".series.csv", "rb").read()
    assert csv1 == csv2


def test_decomposition_run(tmp_path):
    cfgp = write_config(
        tmp_path, "dec.json",
        experiment="decomposition",
        roots={"angles": ["0", "1/3", "2/3"]},
        weights={"kind": "harmonic", "p": 1.0, "offset": 2.0},
        truncations=[256, 512],
        tolerance=1e-6,
        seed=42,
        trials=4,
    )
    prefix = str(tmp_path / "dec_out")
    assert run(cfgp, out=prefix) == 0
    summary = read_summary(prefix)
    validate_summary(summary)
    assert summary["verdicts"]["roundtrip"] == "pass"
    assert {"gram_cond", "q_bound_constant",
            "max_roundtrip_error"} <= set(summary["measurements"])
    lines = open(prefix + ".series.csv").read().splitlines()[1:]
    cells = [(int(l.split(",")[1]), l.split(",")[2]) for l in lines]
    assert cells == [(t, q) for t in range(4)
                     for q in ("roundtrip_error", "taylor_residual")]


def test_decomposition_run_builds_each_band_once(tmp_path, monkeypatch):
    # reconstruct, decompose and the Gram matrix of one run share one L, one
    # Lhat and one evaluation of each of the J boundary kernel columns
    bands, evaluations = [], []
    init = core.BasisBand.__init__

    def counting_init(self, cfg, weights, N, start=0):
        bands.append("Lhat" if weights is None else "L")
        init(self, cfg, weights, N, start)

    monkeypatch.setattr(core.BasisBand, "__init__", counting_init)
    for module in (basis_kernel, decomposition):
        def counting_eval(*args, _eval=module.eval_f_prefix, **kwargs):
            evaluations.append(args[0])
            return _eval(*args, **kwargs)
        monkeypatch.setattr(module, "eval_f_prefix", counting_eval)
    cfgp = write_config(
        tmp_path, "dec.json",
        experiment="decomposition",
        roots={"angles": ["0", "1/3", "2/3"]},
        weights={"kind": "harmonic", "p": 1.0, "offset": 2.0},
        truncations=[256, 512],
        trials=3,
    )
    assert run(cfgp, out=str(tmp_path / "dec_out")) == 0
    assert sorted(bands) == ["L", "Lhat"]
    assert evaluations == [512] * 3


def test_identities_run(tmp_path):
    cfgp = write_config(
        tmp_path, "ids.json",
        roots={"angles": ["0", "1/3", "2/3"]},
        weights={"kind": "harmonic", "p": 1.0, "offset": 2.0},
        experiment="identities",
        truncations=[64],
        seed=5,
    )
    prefix = str(tmp_path / "ids_out")
    assert run(cfgp, out=prefix) == 0
    summary = read_summary(prefix)
    assert summary["verdicts"]["identities"] == "pass"
    assert summary["measurements"]["max_louck_residual"] <= 1e-9
    # each q_recursion row is the worst residual of its (config, n) cell,
    # not the running maximum over every cell so far
    lines = open(prefix + ".series.csv").read().splitlines()[1:]
    q = [float(l.split(",")[3]) for l in lines
         if l.split(",")[2].startswith("q_recursion_residual_cfg")]
    assert q and max(q) == summary["measurements"]["max_q_recursion_residual"]
    assert any(b < a for a, b in zip(q, q[1:]))


def test_domain_run(tmp_path):
    cfgp = write_config(
        tmp_path, "dom.json",
        roots={"angles": ["0"]},
        weights={"kind": "harmonic", "p": 1.0, "offset": 2.0},
        experiment="domain",
        truncations=[4096],
        points=["z1", {"re": 0.0}],
    )
    prefix = str(tmp_path / "dom_out")
    assert run(cfgp, out=prefix) == 0
    summary = read_summary(prefix)
    assert summary["verdicts"]["point_0"] == "converging"
    assert summary["verdicts"]["point_1"] == "converging"


def test_multiplier_run(tmp_path):
    cfgp = write_config(
        tmp_path, "mul.json",
        roots={"angles": ["0"]},
        weights={"kind": "harmonic", "p": 1.0, "offset": 2.0},
        experiment="multiplier",
        truncations=[128, 256, 512],
    )
    prefix = str(tmp_path / "mul_out")
    assert run(cfgp, out=prefix) == 0
    summary = read_summary(prefix)
    assert summary["verdicts"]["mz_growth"] == "likely-bounded"
    assert summary["measurements"]["constant_sup_error"] <= 1e-6


def test_plot_emission(tmp_path):
    cfgp = write_config(tmp_path, "plot.json", truncations=[128, 256])
    prefix = str(tmp_path / "plot_out")
    assert run(cfgp, out=prefix) == 0
    series = prefix + ".series.csv"
    assert emit_plot_data(series) == 0
    dat = prefix + ".series.c_2m_0_abs.dat"
    assert os.path.exists(dat)
    for line in open(dat).read().splitlines():
        x, y = line.split(" ")
        float(x), float(y)
    assert os.path.exists(prefix + ".series.column0_l2.dat")


def test_plot_missing_series():
    assert emit_plot_data("/nonexistent/series.csv") == 2


def test_main_entrypoint(tmp_path):
    cfgp = write_config(tmp_path, "m.json", truncations=[64, 128])
    assert main(["run", cfgp, "--out", str(tmp_path / "m_out")]) == 0
    assert main(["plot", str(tmp_path / "m_out.series.csv")]) == 0


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("trials", [0, -3, 2.7, True, "5"])
def test_invalid_trials_is_config_error(tmp_path, trials):
    # an empty or fractional number of trials must not yield a vacuous pass
    cfgp = write_config(
        tmp_path, "trials.json",
        experiment="decomposition",
        weights={"kind": "harmonic", "p": 1.0, "offset": 2.0},
        truncations=[128, 256],
        trials=trials,
        expect_verdict="pass",
    )
    prefix = str(tmp_path / "trials_out")
    assert run(cfgp, out=prefix) == 2
    diag = read_summary(prefix)
    assert diag["status"] == "error"
    assert "trials" in diag["error"]["message"]


@pytest.mark.parametrize("experiment", ["decomposition", "containment"])
@pytest.mark.parametrize("seed", [-1, 2.7, True, "3"])
def test_invalid_seed_is_config_error(tmp_path, seed, experiment):
    # a fractional seed must not run as its integer part, and a negative one
    # must be refused also by an experiment that draws nothing from it
    cfgp = write_config(
        tmp_path, "seed.json",
        experiment=experiment,
        weights={"kind": "harmonic", "p": 1.0, "offset": 2.0},
        truncations=[128, 256],
        seed=seed,
    )
    prefix = str(tmp_path / "seed_out")
    assert run(cfgp, out=prefix) == 2
    diag = read_summary(prefix)
    assert diag["error"]["kind"] == "ConfigurationError"
    assert "seed" in diag["error"]["message"]


@pytest.mark.parametrize("experiment", ["containment", "multiplier",
                                        "divergence-example", "domain"])
def test_truncation_below_verdict_floor_is_config_error(tmp_path, experiment):
    # sections below 16 gave verdicts the paper contradicts (multiplier and
    # divergence-example said likely-unbounded on harmonic p=1 at [2, 4]) or
    # that rest on nothing (containment's plateau at [1, 2]); 16 itself runs
    weights = {"kind": "harmonic", "p": 1.0, "offset": 2.0}
    cfgp = write_config(tmp_path, "small.json", experiment=experiment,
                        weights=weights, truncations=[8, 16])
    prefix = str(tmp_path / "small_out")
    assert run(cfgp, out=prefix) == 2
    diag = read_summary(prefix)
    assert diag["error"]["kind"] == "ConfigurationError"
    assert "at least 16" in diag["error"]["message"]
    cfgp = write_config(tmp_path, "floor.json", experiment=experiment,
                        weights=weights, truncations=[16, 32])
    assert run(cfgp, out=str(tmp_path / "floor_out")) == 0


def test_single_truncation_summary_is_strict_json(tmp_path):
    cfgp = write_config(
        tmp_path, "one.json",
        weights={"kind": "harmonic", "p": 1.0, "offset": 2.0},
        experiment="containment",
        truncations=[128],
    )
    prefix = str(tmp_path / "one_out")
    assert run(cfgp, out=prefix) == 0
    with open(prefix + ".summary.json") as fh:
        summary = json.load(fh, parse_constant=_reject_constant)
    assert summary["measurements"]["plateau_rel"] is None
    p_hat = summary["measurements"]["p_hat"]
    assert len(p_hat) == 3 and all(abs(p - 1.0) < 0.05 for p in p_hat)
    assert summary["verdicts"]["containment"] == "likely-bounded"


def test_empty_block_at_the_floor_is_inconclusive(tmp_path):
    # roots +-1 give column 0 of C no odd entries; at N = 16 the l2 rule
    # would need block [1, 2), which is empty, and reports null for it
    cfgp = write_config(
        tmp_path, "floor.json",
        weights={"kind": "harmonic", "p": 1.0, "offset": 2.0},
        experiment="containment",
        truncations=[16],
    )
    prefix = str(tmp_path / "floor_out")
    assert run(cfgp, out=prefix) == 0
    with open(prefix + ".summary.json") as fh:
        summary = json.load(fh, parse_constant=_reject_constant)
    assert summary["verdicts"]["containment"] == "inconclusive"
    p_hat = summary["measurements"]["p_hat"]
    assert p_hat[0] is None and all(isinstance(p, float) for p in p_hat[1:])


@pytest.mark.parametrize("p", [0.25, 0.4])
def test_decomposition_fails_without_containment(tmp_path, p):
    # the round trip is an identity of the finite section and holds for any
    # p; the splitting needs phi in the space, which fails for p < 1/2
    cfgp = write_config(
        tmp_path, "dec_low.json",
        experiment="decomposition",
        roots={"angles": ["0", "1/3", "2/3"]},
        weights={"kind": "harmonic", "p": p, "offset": 2.0},
        truncations=[2048, 4096, 8192, 16384],
        tolerance=1e-6,
        trials=5,
    )
    prefix = str(tmp_path / "dec_low_out")
    assert run(cfgp, out=prefix) == 0
    summary = read_summary(prefix)
    assert summary["measurements"]["max_roundtrip_error"] <= 1e-6
    assert summary["verdicts"]["roundtrip"] == "fail"
    assert all(abs(q - p) < 0.05 for q in summary["measurements"]["p_hat"])


def test_containment_run_beyond_dense_cap(tmp_path):
    # column norms come from the band, so containment runs at any N
    cfgp = write_config(
        tmp_path, "big.json",
        weights={"kind": "harmonic", "p": 1.0, "offset": 2.0},
        experiment="containment",
        truncations=[8192, 16384],
    )
    prefix = str(tmp_path / "big_out")
    assert run(cfgp, out=prefix) == 0
    rows = [line.split(",") for line in
            open(prefix + ".series.csv").read().splitlines()[1:]]
    cols = [int(r[1]) for r in rows if r[2] == "column_l2"]
    assert cols == list(range(16384))
    summary = read_summary(prefix)
    assert summary["verdicts"]["containment"] == "likely-bounded"
    assert 1.0 <= summary["measurements"]["column_norm_cancellation"] <= 100 * 16384


def test_multiplier_run_beyond_dense_cap(tmp_path):
    # M_z norms are matrix-free, so no dense cap applies to them
    cfgp = write_config(
        tmp_path, "big_mz.json",
        weights={"kind": "harmonic", "p": 1.0, "offset": 2.0},
        experiment="multiplier",
        truncations=[8192, 16384],
    )
    prefix = str(tmp_path / "big_mz_out")
    assert run(cfgp, out=prefix) == 0
    rows = [line.split(",") for line in
            open(prefix + ".series.csv").read().splitlines()[1:]]
    norms = [float(r[3]) for r in rows if r[2] == "mz_norm"]
    assert [int(r[1]) for r in rows if r[2] == "mz_norm"] == [8192, 16384]
    assert norms[1] - norms[0] >= -1e-10


@pytest.mark.parametrize("experiment", ["containment", "multiplier"])
def test_summary_reports_norm_residual(tmp_path, experiment):
    cfgp = write_config(
        tmp_path, "res.json",
        weights={"kind": "harmonic", "p": 1.0, "offset": 2.0},
        experiment=experiment,
        truncations=[128, 256],
    )
    prefix = str(tmp_path / "res_out")
    assert run(cfgp, out=prefix) == 0
    measurements = read_summary(prefix)["measurements"]
    assert 0.0 <= measurements["norm_residual_max"] <= 1e-10
    assert 1 <= measurements["norm_steps_max"] <= 256


@pytest.mark.parametrize("experiment,ladders", [
    ("containment", ["norm_estimate"]),
    ("multiplier", ["mz_norm", "mz_norm_minus_shift"]),
])
def test_summary_reports_norm_steps_per_rung(tmp_path, experiment, ladders):
    # one list of bidiagonalization steps per ladder, named by its series
    # and aligned with the truncations; norm_steps_max is their maximum
    truncations = [64, 128, 256]
    cfgp = write_config(
        tmp_path, "steps.json",
        weights={"kind": "harmonic", "p": 1.0, "offset": 2.0},
        experiment=experiment,
        truncations=truncations,
    )
    prefix = str(tmp_path / "steps_out")
    assert run(cfgp, out=prefix) == 0
    measurements = read_summary(prefix)["measurements"]
    steps = measurements["norm_steps"]
    assert sorted(steps) == sorted(ladders)
    for ladder in ladders:
        assert len(steps[ladder]) == len(truncations)
        assert all(1 <= k <= N for k, N in zip(steps[ladder], truncations))
    assert max(max(s) for s in steps.values()) == measurements["norm_steps_max"]


def test_norm_runs_leave_scipy_sparse_unimported(tmp_path):
    # section norms come from the package's own bidiagonalization, so a
    # containment and a multiplier run never load scipy.sparse.linalg (its
    # import time and memory would count in every norms run)
    paths = [write_config(tmp_path, f"{e}.json",
                          weights={"kind": "harmonic", "p": 1.0, "offset": 2.0},
                          experiment=e, truncations=[64, 128])
             for e in ("containment", "multiplier")]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from bandkern.cli import run; "
            "print([run(p, out=p[:-5]) for p in sys.argv[2:]], "
            "'scipy.sparse.linalg' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, src, *paths],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0,", "0]", "False"]


def test_points_object_is_config_error(tmp_path):
    # an object is not a list of points, even when its keys parse as points
    cfgp = write_config(
        tmp_path, "pts.json",
        roots={"angles": ["0"]},
        weights={"kind": "harmonic", "p": 1.0, "offset": 2.0},
        experiment="kernel-eval",
        points={"z1": 1},
    )
    prefix = str(tmp_path / "pts_out")
    assert run(cfgp, out=prefix) == 2
    assert "points" in read_summary(prefix)["error"]["message"]


def test_non_finite_point_is_config_error(tmp_path):
    cfgp = write_config(
        tmp_path, "nan.json",
        roots={"angles": ["0"]},
        weights={"kind": "harmonic", "p": 1.0, "offset": 2.0},
        experiment="domain",
        truncations=[1024],
        points=[{"re": float("nan")}],
    )
    prefix = str(tmp_path / "nan_out")
    assert run(cfgp, out=prefix) == 2
    assert "finite" in read_summary(prefix)["error"]["message"]
