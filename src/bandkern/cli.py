"""Experiment runner: JSON config in, summary JSON + long-format CSV out.

Usage:
    bandkern run <config.json> [--out PREFIX]
    bandkern plot <series.csv>

Exit codes: 0 success, 2 configuration/schema error (also an output path
that cannot be written), 3 numerical failure (e.g. an unreachable
truncation), 4 a verdict assertion was requested in the config and the
computed verdict did not affirm it.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import (
    MIN_TRUNCATION,
    BoundaryConfig,
    ConfigurationError,
    DomainError,
    SearchFailureError,
    TruncationError,
    WeightSequence,
)
from .experiments import RUNNERS, ExperimentConfig

# experiments held to MIN_TRUNCATION: the growth verdicts read section norms
# or coefficient blocks from there on; for domain it only validates the input
_GROWTH_EXPERIMENTS = ("containment", "multiplier", "divergence-example", "domain")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_UNAFFIRMED = 4

SUMMARY_KEYS = ("experiment", "config", "verdicts", "measurements",
                "series_csv", "status")


def validate_summary(obj) -> None:
    """Check a summary dict: every key of SUMMARY_KEYS, the string and
    object fields of their types, string verdicts (raises ValueError)."""
    if not isinstance(obj, dict):
        raise ValueError("summary must be an object")
    for key in SUMMARY_KEYS:
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

def _number(value, name: str) -> float:
    """A JSON number as a float: int or float, never bool (a Python int)
    or a numeric string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{name} must be a number, not {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigurationError(f"{name} must be a number in float range, "
                                 f"not {value}") from None


def _parse_complex(obj, cfg: Optional[BoundaryConfig]) -> complex:
    if isinstance(obj, str):
        if obj.startswith("z") and cfg is not None:
            idx = int(obj[1:]) - 1
            if not 0 <= idx < cfg.J:
                raise ConfigurationError(f"no such root {obj!r}")
            return cfg.roots[idx]
        z = complex(Fraction(obj))
    elif isinstance(obj, dict):
        z = complex(_number(obj.get("re", 0.0), "point re"),
                    _number(obj.get("im", 0.0), "point im"))
    else:
        z = complex(_number(obj, "point"))
    if not cmath.isfinite(z):
        raise ConfigurationError(f"point {obj!r} is not finite")
    return z


def _parse_weights(obj) -> WeightSequence:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigurationError("weights must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "harmonic":
        return WeightSequence.harmonic(_number(obj["p"], "p"),
                                       _number(obj.get("offset", 2.0), "offset"))
    if kind == "powerlaw":
        return WeightSequence.power_law(_number(obj["p"], "p"))
    if kind == "table":
        tail = _parse_weights(obj["tail"])
        values = [
            complex(_number(v["re"], "table re"),
                    _number(v.get("im", 0.0), "table im"))
            if isinstance(v, dict) else _number(v, "table value")
            for v in obj["values"]
        ]
        return WeightSequence.from_table(values, tail)
    raise ConfigurationError(f"unknown weight kind {kind!r}")


def _roots_list(roots: dict, key: str) -> list:
    # a string would otherwise run as the list of its characters
    if not isinstance(roots[key], list):
        raise ConfigurationError(f"roots.{key} must be a list")
    return roots[key]


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    roots = raw.get("roots")
    if isinstance(roots, dict) and "angles" in roots:
        cfg = BoundaryConfig.from_angles(
            [Fraction(str(q)) for q in _roots_list(roots, "angles")])
    elif isinstance(roots, dict) and "points" in roots:
        cfg = BoundaryConfig.from_points(
            [_parse_complex(p, None) for p in _roots_list(roots, "points")])
    else:
        raise ConfigurationError("roots must carry 'angles' or 'points'")
    weights = _parse_weights(raw.get("weights"))
    experiment = raw.get("experiment")
    if experiment not in RUNNERS:
        raise ConfigurationError(f"unknown experiment {experiment!r}")
    truncations = raw.get("truncations")
    if (not isinstance(truncations, list) or not truncations
            or any(isinstance(t, bool) or not isinstance(t, int) or t <= 0
                   for t in truncations)
            or any(b <= a for a, b in zip(truncations, truncations[1:]))):
        raise ConfigurationError("truncations must be a strictly increasing "
                                 "nonempty list of positive integers")
    if experiment in _GROWTH_EXPERIMENTS and truncations[0] < MIN_TRUNCATION:
        raise ConfigurationError(
            f"{experiment} truncations must be at least {MIN_TRUNCATION}: "
            "growth verdicts and domain checkpoints start there")
    tolerance = _number(raw.get("tolerance", 1e-8), "tolerance")
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
# output
# ---------------------------------------------------------------------------

def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` over whatever the file held, in place.

    The file is opened without ``O_TRUNC`` and cut to the new length only
    after the write. Emptying a file that holds data and writing it again
    costs about eight times the write on ext4 (its default ``auto_da_alloc``
    starts writeback at close of a file truncated to zero, or renamed over),
    and a rerun into the same prefix does that to every output; trimming to
    a nonzero length does not. Links are written through and an existing
    file keeps its mode. No write is atomic: a run killed between the write
    and the trim leaves the new text followed by the old file's tail."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0),
                 0o666)
    with open(fd, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        fh.truncate()


def _write_series(path: str, experiment: str, rows) -> None:
    """The long-format CSV, every row formatted by one %-format and the
    file written at once; values are printed %.17g, so they round-trip."""
    _write_text(path, "experiment,index,quantity,value\n"
                + f"{experiment},%s,%s,%.17g\n" * len(rows)
                % tuple(x for row in rows for x in row))


_encode_str = json.encoder.encode_basestring_ascii


def _encode(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)`` in one
    pass, byte for byte, except that a non-finite float (no JSON literal
    exists) is written as ``null``. ``indent`` is the newline and indent
    that close the value. A non-str key raises TypeError where json.dumps
    would coerce it; every summary key is a str."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return float.__repr__(obj) if math.isfinite(obj) else "null"
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_encode(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(_encode_str(key) + ": " + _encode(obj[key], inner))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(obj).__name__} "
                    "is not JSON serializable")


def _write_summary(path: str, summary: dict) -> None:
    _write_text(path, _encode(summary) + "\n")


def _diagnostic(prefix: Optional[str], code: int, kind: str, message: str,
                summary: Optional[dict] = None) -> None:
    """The JSON diagnostic on stderr, and as ``<prefix>.summary.json``,
    merged into ``summary`` when the run got that far."""
    diag = {"status": "error", "error": {"kind": kind, "message": message},
            "exit_code": code}
    sys.stderr.write(json.dumps(diag, sort_keys=True) + "\n")
    if prefix:
        try:
            _write_summary(prefix + ".summary.json", {**(summary or {}), **diag})
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
        verdicts, measurements, rows = RUNNERS[ec.experiment](ec)
    except (TruncationError, ArithmeticError, np.linalg.LinAlgError) as exc:
        _diagnostic(prefix, EXIT_NUMERICAL, type(exc).__name__, str(exc))
        return EXIT_NUMERICAL
    except (ConfigurationError, DomainError, SearchFailureError, ValueError) as exc:
        # bare ValueError: a library precondition violated by config choices
        _diagnostic(prefix, EXIT_CONFIG, type(exc).__name__, str(exc))
        return EXIT_CONFIG

    series_path = prefix + ".series.csv"
    summary = {
        "experiment": ec.experiment,
        "config": ec.raw,
        "verdicts": verdicts,
        "measurements": measurements,
        "series_csv": os.path.basename(series_path),
        "status": "ok",
    }
    validate_summary(summary)
    values = set(verdicts.values())
    unaffirmed = ec.expect_verdict is not None and (
        "inconclusive" in values or ec.expect_verdict not in values)
    try:
        _write_series(series_path, ec.experiment, rows)
        if not unaffirmed:
            _write_summary(prefix + ".summary.json", summary)
    except OSError as exc:
        # an output prefix that cannot be written is a configuration error
        _diagnostic(prefix, EXIT_CONFIG, type(exc).__name__, str(exc))
        return EXIT_CONFIG
    if unaffirmed:
        # the summary keeps the verdicts and measurements it refused
        _diagnostic(prefix, EXIT_UNAFFIRMED, "UnaffirmedVerdict",
                    f"expected {ec.expect_verdict!r}, got {sorted(values)}",
                    summary)
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
    try:
        for quantity in sorted(groups):
            _write_text(f"{base}.{quantity}.dat",
                        "".join(f"{idx} {value}\n" for idx, value in groups[quantity]))
    except OSError as exc:
        _diagnostic(None, EXIT_CONFIG, type(exc).__name__, str(exc))
        return EXIT_CONFIG
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
