"""bandkern benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload {norms,kernel,splitting} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a bandkern checkout; the package is imported from
``src/``.  The workload's configs are generated from the seed into a
temporary directory under ``.perfbench_out/`` and handed to ``cli.run``,
one call at a time (closed loop, one client, BLAS pinned to one thread).
It makes as many whole passes over the sweep as fit into ``--seconds`` on
the reference machine (``workloads.PASS_SECONDS``); every output of every
run is checked against the oracles afterwards.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and it
carries the per-layer metrics.  The full report (environment, failure
ledger, config hash, per-call figures) is the line before it and is also
written to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
TAIL_BEYOND = 10
OVERRUN = 2  # stop adding passes once a run has measured 2 x --seconds

SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import bandkern.cli as cli; sys.exit(cli.run(sys.argv[2], sys.argv[3]))")

# Layer figures quoted in ROADMAP.md ("Baseline at this re-anchor"), roots
# +-1 and harmonic p=1 at N=2048, single runs (+-20%).
ROADMAP_BASELINE_N2048 = {
    "multiplier.mz_section.s": 4.5,
    "recursion.estimate_norm.s (M_z, 70 iterations)": 3.9,
    "recursion.estimate_norm.s (C, 45 iterations)": 2.5,
    "multiplier.mz_norm_report.s (5 truncations)": 6.0,
    "recursion.containment_report.s": 2.2,
    "recursion.c_section.s": 0.18,
    "basis_kernel.kernel_eval.s (root pair, tol 1e-10)": 0.075,
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "run_s_p50": "s",
              "run_s_tail": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (KeyError, TypeError):
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }


def measure_setup(warmup_path: Path, tmp: Path) -> list:
    """Wall time of fresh interpreters importing bandkern.cli and running
    the warm-up config once."""
    samples = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(warmup_path),
             str(tmp / f"setup{k}")],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=SETUP_TIMEOUT_S, check=False)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("warm-up run failed: "
                               + proc.stderr.decode(errors="replace")[-500:])
    return samples


def write_configs(cases: list, tmp: Path, tag: str) -> tuple:
    paths, prefixes = [], []
    for i, case in enumerate(cases):
        path = tmp / f"{tag}{i:02d}-{case.name}.json"
        path.write_text(json.dumps(case.config, indent=1), encoding="utf-8")
        paths.append(path)
        prefixes.append(tmp / f"{tag}{i:02d}-out")
    return paths, prefixes


def run_pass(cli, paths: list, prefixes: list, tracer=None, pass_id=0) -> list:
    """One closed-loop pass; returns (seconds, exit code, summary, csv)."""
    out = []
    for i, (path, prefix) in enumerate(zip(paths, prefixes)):
        if tracer is not None:
            tracer.run = (pass_id, i)
        crash = None
        with contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                rc = cli.run(str(path), str(prefix))
            except Exception as exc:  # an uncaught error fails the run's outputs
                rc, crash = 1, type(exc).__name__
            dt = time.perf_counter() - t0
        if crash is not None:
            summary = json.dumps({"status": "error", "error": {"kind": crash}})
        else:
            summary = Path(f"{prefix}.summary.json").read_text(encoding="utf-8")
        series = ""
        if rc == 0:
            series = Path(f"{prefix}.series.csv").read_text(encoding="utf-8")
        out.append((dt, rc, summary, series))
    return out


def tail(times: list) -> tuple:
    """Highest percentile with TAIL_BEYOND runs beyond it: (value, pct)."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / n


def check_runs(checks, cases: list, passes: list) -> tuple:
    """Check every output of every run; the first pass against the oracles,
    repeats against the first pass."""
    per_case, refs = [], []
    for i, case in enumerate(cases):
        ref = checks.reference(case)
        refs.append(ref)
        _, rc, summary, series = passes[0][i]
        first = checks.check(case, rc, json.loads(summary), series, ref)
        results = [first]
        for other in passes[1:]:
            if other[i][1:] == passes[0][i][1:]:
                results.append(first)
            else:
                results.append([(label, "output_changed")
                                for label in checks.expected_outputs(case)])
        per_case.append(results)
    return per_case, refs


def end_to_end(setup: list, passes: list, attempted: int, failed: int,
               peak_rss_mb: float) -> tuple:
    times = [run[0] for p in passes for run in p]
    tail_value, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(times) / len(passes),
        "run_s_p50": statistics.median(times),
        "run_s_tail": tail_value,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - failed / attempted,
    }
    notes = {"run_s_tail_percentile": tail_pct, "runs": len(times),
             "passes": len(passes), "setup_samples_s": setup}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bandkern" / "cli.py").is_file():
        print(f"error: no bandkern sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    cases = workloads.generate(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        paths, prefixes = write_configs(cases, tmp, "case")
        warmup = tmp / "warmup.json"
        warmup.write_text(json.dumps(workloads.WARMUP[args.workload]),
                          encoding="utf-8")

        setup = measure_setup(warmup, tmp)
        import bandkern.cli as cli

        with contextlib.redirect_stderr(io.StringIO()):
            if cli.run(str(warmup), str(tmp / "warmup")) != 0:
                raise RuntimeError("warm-up run failed")

        untraced, traced, tracer = [], [], None
        if args.trace:
            tracer = spans.Tracer()
        pass_s = workloads.PASS_SECONDS[args.workload] * (1 + args.trace)
        start = time.perf_counter()
        for _ in range(max(1, int(args.seconds // pass_s))):
            untraced.append(run_pass(cli, paths, prefixes))
            if tracer is not None:
                tracer.install()
                try:
                    traced.append(run_pass(cli, paths, prefixes, tracer,
                                           len(traced)))
                finally:
                    tracer.uninstall()
            if time.perf_counter() - start > OVERRUN * args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            reference = spans.Tracer()
            reference.install()
            try:
                run_pass(cli, *write_configs(workloads.REFERENCE, tmp, "ref"),
                         reference)
            finally:
                reference.uninstall()

        # The oracles (mpmath, dense scipy) load only now, so that neither
        # their imports nor their memory count in the timed phase.
        import checks

        all_passes = untraced + traced
        per_case, refs = check_runs(checks, cases, all_passes)
        flat = [res for results in per_case for res in results]
        attempted = sum(len(res) for res in flat)
        causes = [cause for res in flat for _, cause in res if cause]
        failed = len(causes)
        wrong = sum(1 for cause in causes if cause in checks.WRONG_ANSWER)

        report = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "config_hash": workloads.config_hash(cases),
            "configs": len(cases),
            "environment": environment(),
            "load_model": "closed loop, 1 client, 1 cli.run at a time",
            "attempted": attempted, "failed": failed, "wrong_answers": wrong,
            "ledger": checks.ledger(flat),
            "per_config": [
                {"name": c.name, "exit_codes": sorted({p[i][1] for p in all_passes}),
                 "failed": [label for label, cause in per_case[i][0] if cause],
                 "run_s": [p[i][0] for p in untraced]}
                for i, c in enumerate(cases)],
        }
        if args.trace:
            metrics, notes = spans.per_layer(tracer.spans, cases, refs,
                                             untraced, traced)
            units = spans.LAYER_METRICS
            report["per_layer_notes"] = notes
            report["n2048"] = {
                "measured": spans.figures_at(reference.spans, 2048,
                                             workloads.REFERENCE),
                "roadmap_baseline": ROADMAP_BASELINE_N2048}
        else:
            metrics, notes = end_to_end(setup, untraced, attempted, failed,
                                        peak_rss_mb)
            units = END_TO_END
            report["end_to_end_notes"] = notes
        report["metrics"] = metrics
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1, default=str) + "\n",
                            encoding="utf-8")
    print(json.dumps(report, default=str))
    print(json.dumps({
        "correct": wrong == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
