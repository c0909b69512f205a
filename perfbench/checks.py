"""Per-output checks of one ``cli.run`` against the oracles, with a cause
for every failed output.

An output is one checked quantity: a norm at one truncation, a verdict, a
kernel value, a divergence column.  A run that exits non-zero fails every
output its config asks for.  Causes in ``WRONG_ANSWER`` mean bandkern
returned a wrong result; the others mean it returned none, or returned one
without the certificate the config asked for.
"""

from __future__ import annotations

import csv
import io
from collections import Counter

import oracles
from workloads import Case

CAUSES = (
    "exit_code",                 # non-zero exit other than a TruncationError
    "truncation_error",          # exit 3 with TruncationError
    "tail_bound_exceeds_tol",    # a certified kernel value with tail_bound > tol
    "value_outside_tail_bound",  # |value - reference| > tail_bound
    "wrong_verdict",             # verdict contradicts the dichotomy / own check
    "inconclusive_verdict",      # verdict neither bounded nor unbounded
    "oracle_disagreement",       # a number differs from the oracle's
    "output_changed",            # a repeat run wrote different output
)
WRONG_ANSWER = {"value_outside_tail_bound", "wrong_verdict",
                "oracle_disagreement", "output_changed"}

NORM_RTOL = 1e-6      # power iteration stops on a 1e-8 step; allow its lag
COLUMN_RTOL = 1e-10   # forward substitution against a LAPACK solve
DIVERGENCE_ROWS = 200


def expected_outputs(case: Case) -> list:
    cfg = case.config
    exp = cfg["experiment"]
    if exp == "containment":
        return [f"norm_estimate@{N}" for N in cfg["truncations"]] + ["verdict"]
    if exp == "multiplier":
        return [f"mz_norm@{N}" for N in cfg["truncations"]]
    if exp == "kernel-eval":
        return [f"kernel#{i}" for i in range(len(cfg["points"]))]
    if exp == "divergence-example":
        return (["c_2m_0_abs"] + [f"column0_l2@{N}" for N in cfg["truncations"]]
                + ["verdict"])
    return ["verdict"]


def reference(case: Case) -> dict:
    """Oracle values for the outputs of ``case``."""
    cfg = case.config
    exp = cfg["experiment"]
    if exp == "containment":
        return {"norms": oracles.c_section_norms(cfg, cfg["truncations"])}
    if exp == "multiplier":
        return {"norms": oracles.mz_section_norms(cfg, cfg["truncations"])}
    if exp == "kernel-eval":
        angles = oracles.angles_of(cfg)
        kind, p, c = oracles.weight_params(cfg)
        values = []
        for z, w in cfg["points"]:
            if isinstance(z, str) and isinstance(w, str):
                i, j = int(z[1:]) - 1, int(w[1:]) - 1
                values.append(oracles.root_pair_kernel(angles, i, j, kind, p, c))
            else:
                values.append(oracles.interior_kernel(
                    angles, oracles.point_of(z, angles),
                    oracles.point_of(w, angles), kind, p, c))
        return {"kernel": values}
    if exp == "divergence-example":
        Nmax = cfg["truncations"][-1]
        rows = 2 * min(DIVERGENCE_ROWS, (Nmax - 1) // 2) + 1
        head, full = oracles.c_column0(cfg, Nmax, rows)
        return {"head": head, "full": full}
    return {}


def _series(csv_text: str) -> dict:
    out: dict = {}
    for row in csv.DictReader(io.StringIO(csv_text)):
        out.setdefault(row["quantity"], {})[int(row["index"])] = float(row["value"])
    return out


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * max(1.0, abs(ref))


def _verdict_cause(got: str, want: str):
    if got == want:
        return None
    return "inconclusive_verdict" if got == "inconclusive" else "wrong_verdict"


def check(case: Case, rc: int, summary: dict, csv_text: str, ref: dict) -> list:
    """[(output label, cause or None)] for one run of ``case``."""
    labels = expected_outputs(case)
    if rc != 0:
        kind = summary.get("error", {}).get("kind")
        cause = "truncation_error" if kind == "TruncationError" else "exit_code"
        return [(label, cause) for label in labels]
    cfg = case.config
    exp = cfg["experiment"]
    series = _series(csv_text)
    verdicts = summary["verdicts"]
    out = []
    if exp in ("containment", "multiplier"):
        quantity = "norm_estimate" if exp == "containment" else "mz_norm"
        got = series.get(quantity, {})
        for N in cfg["truncations"]:
            ok = N in got and _close(got[N], ref["norms"][N], NORM_RTOL)
            out.append((f"{quantity}@{N}", None if ok else "oracle_disagreement"))
        if exp == "containment":
            out.append(("verdict", _verdict_cause(verdicts.get("containment"),
                                                  case.expect["verdict"])))
    elif exp == "kernel-eval":
        tol = float(cfg["tolerance"])
        re_, im_, tb = (series.get(q, {}) for q in
                        ("kernel_re", "kernel_im", "tail_bound"))
        for i, want in enumerate(ref["kernel"]):
            if i not in tb:
                out.append((f"kernel#{i}", "oracle_disagreement"))
                continue
            err = abs(complex(re_[i], im_[i]) - want)
            if err > tb[i]:
                cause = "value_outside_tail_bound"
            elif tb[i] > tol:
                cause = "tail_bound_exceeds_tol"
            else:
                cause = None
            out.append((f"kernel#{i}", cause))
    elif exp == "divergence-example":
        got = series.get("c_2m_0_abs", {})
        head = ref["head"]
        ok = bool(got) and all(
            2 * m < len(head) and _close(v, abs(head[2 * m]), COLUMN_RTOL)
            for m, v in got.items())
        ok = ok and len(got) == (len(head) - 1) // 2
        out.append(("c_2m_0_abs", None if ok else "oracle_disagreement"))
        l2 = series.get("column0_l2", {})
        csum = (abs(ref["full"]) ** 2).cumsum()
        for N in cfg["truncations"]:
            ok = N in l2 and _close(l2[N], float(csum[N - 1]) ** 0.5, COLUMN_RTOL)
            out.append((f"column0_l2@{N}", None if ok else "oracle_disagreement"))
        out.append(("verdict", _verdict_cause(verdicts.get("column_growth"),
                                              case.expect["verdict"])))
    elif exp == "decomposition":
        out.append(("verdict", None if verdicts.get("roundtrip") == "pass"
                    else "wrong_verdict"))
    elif exp == "identities":
        out.append(("verdict", None if verdicts.get("identities") == "pass"
                    else "wrong_verdict"))
    return out


def ledger(results: list) -> dict:
    """Count failed outputs by cause over [(label, cause)] lists."""
    counts = Counter(cause for res in results for _, cause in res if cause)
    return {cause: counts.get(cause, 0) for cause in CAUSES}
