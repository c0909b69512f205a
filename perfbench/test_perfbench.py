"""Tests of the benchmark's own logic: oracles, checks and span arithmetic.

    python3 -m pytest perfbench
"""

from fractions import Fraction

import mpmath
import numpy as np
import pytest

import checks
import oracles
import run
import spans
import workloads

CUBE = [Fraction(0), Fraction(1, 3), Fraction(2, 3)]


def test_root_pair_closed_form_gives_pi2_over_6_minus_1():
    value = oracles.root_pair_kernel([Fraction(0)], 0, 0, "harmonic", 1.0)
    assert value == pytest.approx(float(mpmath.pi ** 2 / 6 - 1), abs=1e-15)


def _partial_sum_and_tail(angles, i, j, kind, p, N):
    """sum_{n<N} f_n(z_i) conj f_n(z_j) in floats from the factorized
    summand, and a rigorous bound on the discarded tail."""
    z = np.exp(2j * np.pi * np.array([float(q) for q in angles]))
    n = np.arange(N, dtype=float)
    u = p / (n + 2.0) if kind == "harmonic" else (n + 2.0) ** (-p)

    def psi(k):
        out = np.ones(N, dtype=complex)
        for m, zm in enumerate(z):
            if m != k:
                out *= 1 - np.conj(zm) * (1 - u) * z[k]
        return out

    terms = u * u * psi(i) * np.conj(psi(j)) * (z[i] * np.conj(z[j])) ** n
    sup_p = 4.0 ** (len(angles) - 1)
    if kind == "harmonic":
        tail = sup_p * p * p / (N + 1.0)
    else:
        tail = sup_p * (N + 1.0) ** (1 - 2 * p) / (2 * p - 1)
    return complex(np.sum(terms)), tail


@pytest.mark.parametrize("kind,p,N", [("harmonic", 1.0, 1 << 21),
                                      ("powerlaw", 2.0, 1 << 16)])
@pytest.mark.parametrize("i,j", [(0, 0), (0, 1), (1, 0), (1, 2), (2, 2)])
def test_root_pair_closed_form_matches_long_partial_sum(kind, p, N, i, j):
    ref = oracles.root_pair_kernel(CUBE, i, j, kind, p)
    partial, tail = _partial_sum_and_tail(CUBE, i, j, kind, p, N)
    assert abs(ref - partial) <= tail + 1e-13


def test_interior_oracle_matches_float_sum():
    angles = [Fraction(1, 5), Fraction(3, 4)]
    z, w = 0.4 + 0.3j, -0.2 + 0.45j
    n = np.arange(200, dtype=float)
    a = 1 - 0.7 / (n + 2.0)
    conj_roots = np.exp(-2j * np.pi * np.array([0.2, 0.75]))

    def f(x):
        return x ** n * np.prod([1 - c * a * x for c in conj_roots], axis=0)

    expect = complex(np.sum(f(z) * np.conj(f(w))))
    got = oracles.interior_kernel(angles, z, w, "harmonic", 0.7)
    assert abs(got - expect) < 1e-14


def test_column0_oracle_for_one_root_is_minus_one_over_k_plus_one():
    config = {"roots": {"angles": ["0"]},
              "weights": {"kind": "harmonic", "p": 1.0}}
    head, full = oracles.c_column0(config, 4096, 64)
    k = np.arange(1, 4096)
    assert full[0] == pytest.approx(1.0)
    np.testing.assert_allclose(full[1:], -1.0 / (k + 1), rtol=1e-12)
    np.testing.assert_allclose(head, full[:64], rtol=1e-13)


def test_section_norm_oracles_agree_with_dense_svd_above_the_svds_switch():
    config = {"roots": {"angles": ["1/3", "3/4"]},
              "weights": {"kind": "harmonic", "p": 0.75}}
    norms = oracles.c_section_norms(config, [256, 768])
    L, Lhat = oracles.taylor_matrices(config, 768)
    C = np.linalg.solve(L, Lhat)
    assert norms[768] == pytest.approx(np.linalg.norm(C, 2), rel=1e-12)
    assert norms[256] == pytest.approx(np.linalg.norm(C[:256, :256], 2), rel=1e-12)


def test_check_attributes_failures_by_cause():
    case = workloads.Case("k", {"experiment": "kernel-eval", "tolerance": 1e-10,
                                "points": [["z1", "z1"], ["z1", "z2"]]})
    csv_text = ("experiment,index,quantity,value\n"
                "kernel-eval,0,kernel_re,1.0\nkernel-eval,0,kernel_im,0\n"
                "kernel-eval,0,tail_bound,2e-10\n"
                "kernel-eval,1,kernel_re,0.5\nkernel-eval,1,kernel_im,0\n"
                "kernel-eval,1,tail_bound,1e-11\n")
    ref = {"kernel": [1.0 + 1e-11j, 0.5 + 1e-9j]}
    got = checks.check(case, 0, {"verdicts": {}}, csv_text, ref)
    assert got == [("kernel#0", "tail_bound_exceeds_tol"),
                   ("kernel#1", "value_outside_tail_bound")]
    refused = checks.check(case, 3, {"error": {"kind": "TruncationError"}}, "", ref)
    assert [cause for _, cause in refused] == ["truncation_error"] * 2
    assert checks.ledger([got, refused])["truncation_error"] == 2


def _tree():
    # A [0,100] holds B [10,40] (which holds D [15,25]) and C [50,70];
    # E [0,50] holds a nested E [10,20], which must count once.
    return [
        spans.Span("A", 0, 100),
        spans.Span("B", 10, 40, parent=0, info={"bytes": 8}),
        spans.Span("D", 15, 25, parent=1),
        spans.Span("C", 50, 70, parent=0, info={"bytes": 16}),
        spans.Span("E", 200, 250),
        spans.Span("E", 210, 220, parent=4),
    ]


def test_self_and_busy_time_on_hand_built_tree():
    tree = _tree()
    assert spans.busy_ns(tree, "A") == 100
    assert spans.self_ns(tree, "A") == 100 - 30 - 20
    assert spans.busy_ns(tree, "B") == 30
    assert spans.self_ns(tree, "B") == 20
    assert spans.busy_ns(tree, "E") == 50
    assert spans.self_ns(tree, "E") == 40 + 10
    assert spans.busy_ns(tree, "missing") == 0


def test_union_of_overlapping_and_disjoint_intervals():
    assert spans._union_length([(0, 10), (5, 15), (20, 30), (30, 31)]) == 26


def test_tail_is_highest_percentile_with_ten_runs_beyond():
    value, pct = run.tail([float(x) for x in range(25)])
    assert value == 14.0
    assert sum(1 for x in range(25) if x > value) == 10
    assert pct == pytest.approx(60.0)


def test_generator_is_deterministic_and_seeded():
    for name in workloads.WORKLOADS:
        a, b = workloads.generate(name, 7), workloads.generate(name, 7)
        assert workloads.config_hash(a) == workloads.config_hash(b)
        assert workloads.config_hash(a) != workloads.config_hash(
            workloads.generate(name, 8))


def test_generated_rates_stay_away_from_one_half():
    for name in ("norms", "splitting"):
        for case in workloads.generate(name, 0):
            if "verdict" in case.expect:
                assert case.expect["verdict"] in ("likely-bounded",
                                                  "likely-unbounded")
    with pytest.raises(ValueError):
        workloads.dichotomy_verdict("harmonic", 0.5)
