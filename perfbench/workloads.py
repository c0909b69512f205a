"""Seeded generator of bandkern experiment configs for the three workloads.

Every workload is a fixed list of strata and the seed draws the inputs
inside each stratum.  Where the cost of a config depends on the geometry
of its roots (norms, kernel), a stratum fixes a root shape and the seed
draws a rotation of it, which changes every number bandkern reads but not
the work it does; where it does not (splitting), the seed draws the roots
and the decomposition inputs freely.  So the end-to-end figures depend on
the seed only a little, while each seed feeds bandkern inputs it has not
seen.

Configs are plain dicts in bandkern's JSON config schema; ``expect`` holds
what the benchmark's checks need to know about a config and is never
written into the file bandkern reads.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("norms", "kernel", "splitting")

# Seconds one untraced pass over each sweep took on the reference machine
# (2-core Xeon; each report records its environment).  A run makes
# --seconds / PASS_SECONDS passes, so every run of a workload measures the
# same work however fast the machine happens to be at the time.
PASS_SECONDS = {"norms": 12.0, "kernel": 2.0, "splitting": 4.0}

# Weight families named in the workload definitions.
KERNEL_WEIGHTS = [("harmonic", 0.7), ("harmonic", 1.0), ("harmonic", 2.0),
                  ("powerlaw", 0.75), ("powerlaw", 1.0), ("powerlaw", 2.0)]
KERNEL_TOLS = (1e-8, 1e-10)
DIVERGENCE_WEIGHTS = [("harmonic", 0.4), ("harmonic", 1.0), ("harmonic", 2.0),
                      ("powerlaw", 1.0), ("powerlaw", 1.5), ("powerlaw", 2.0)]

MAX_DENOMINATOR = 12


@dataclass
class Case:
    """One generated config plus what its checks need to know."""

    name: str
    config: dict
    expect: dict = field(default_factory=dict)


def weights_obj(kind: str, p: float) -> dict:
    return {"kind": kind, "p": p}


def decay_rate(kind: str, p: float) -> float:
    """lim n (1 - a_n) for the generated weight families."""
    if kind == "harmonic":
        return p
    if p < 1.0:
        return float("inf")
    return 1.0 if p == 1.0 else 0.0


def dichotomy_verdict(kind: str, p: float) -> str:
    """The paper's dichotomy: bounded iff lim n (1 - a_n) > 1/2."""
    rate = decay_rate(kind, p)
    if abs(rate - 0.5) < 0.05:
        raise ValueError("generated rates must stay away from 1/2")
    return "likely-bounded" if rate > 0.5 else "likely-unbounded"


def draw_angles(rng: random.Random, J: int) -> list:
    """J distinct rational angles with denominators at most 12."""
    chosen: list = []
    while len(chosen) < J:
        den = rng.randint(1, MAX_DENOMINATOR)
        q = Fraction(rng.randrange(den), den)
        if q not in chosen:
            chosen.append(q)
    return [str(q) for q in chosen]


def ladder(top: int, rungs: int = 4) -> list:
    return [top >> k for k in range(rungs - 1, -1, -1)]


# Norms strata: (experiment, weights, top truncation, root shape).  The cost
# of a section norm depends on the singular values, which a common rotation
# of the roots leaves alone, and on whether the sections are real, which
# only roots on the quarter lattice allow: shapes avoid D in {1, 2, 4} unless
# every rotation is the same set.
_NORMS_CELLS = [
    ("containment", "harmonic", 0.25, 1024, (5, [0, 1])),
    ("containment", "harmonic", 0.25, 2048, (6, [0, 1, 3])),
    ("containment", "harmonic", 0.4, 1024, (7, [0, 1, 3])),
    ("containment", "harmonic", 0.75, 1024, (12, [0, 1, 5, 8])),
    ("containment", "harmonic", 0.75, 2048, (3, [0])),
    ("containment", "harmonic", 1.0, 1024, (9, [0])),
    ("containment", "harmonic", 2.0, 1024, (8, [0, 1])),
    ("containment", "harmonic", 2.0, 2048, (10, [0, 1, 4])),
    ("containment", "powerlaw", 1.0, 1024, (11, [0, 1, 5])),
    ("containment", "powerlaw", 1.5, 1024, (4, [0, 1, 2, 3])),
    ("containment", "powerlaw", 1.5, 2048, (5, [0])),
    ("containment", "powerlaw", 2.0, 1024, (12, [0, 1])),
    ("multiplier", "harmonic", 0.4, 1024, (6, [0, 1])),
    ("multiplier", "harmonic", 1.0, 1024, (10, [0, 1, 3])),
    ("multiplier", "powerlaw", 1.5, 1024, (12, [0, 1, 5, 7])),
]


def _norms(rng: random.Random) -> list:
    cases = []
    for experiment, kind, p, top, shape in _NORMS_CELLS:
        angles, _ = rotate_shape(rng, shape)
        case = Case(f"{experiment}-{kind}{p}-J{len(angles)}-N{top}",
                    {"roots": {"angles": angles},
                     "weights": weights_obj(kind, p), "experiment": experiment,
                     "truncations": ladder(top), "tolerance": 1e-8, "seed": 0})
        if experiment == "containment":
            case.expect["verdict"] = dichotomy_verdict(kind, p)
        cases.append(case)
    return cases


# Kernel strata, one per (weights, tol) cell: a root shape for the diagonal
# config, a root shape plus the pairs for the off-diagonal config, and a root
# shape for the interior config.  A shape is (D, numerators): roots at
# (n + k)/D for a seeded rotation k.  The length of a root-pair sum, and
# whether it fails, depends on the shape (it jumps by factors of two), while
# a common rotation of roots and points leaves every kernel value and the
# work unchanged; so the seed rotates and the strata fix the work.
_KERNEL_CELLS = [
    ((7, [0]), (4, [0, 1]), [(0, 1), (1, 0)], (3, [0, 1, 2])),
    ((5, [0, 2]), (12, [0, 1, 6]), [(0, 1), (1, 2)], (8, [0, 1, 3, 6])),
    ((3, [0, 1, 2]), (12, [0, 1, 4, 7]), [(0, 1), (2, 3)], (5, [0])),
    ((8, [0, 1, 3, 6]), (2, [0, 1]), [(0, 1), (1, 0)], (6, [0, 1])),
    ((9, [0]), (10, [0, 3, 7]), [(0, 1), (0, 2)], (12, [0, 5, 9])),
    ((6, [0, 1]), (8, [0, 3]), [(0, 1), (1, 0)], (4, [0, 1, 2, 3])),
    ((12, [0, 5]), (3, [0, 1, 2]), [(0, 1), (1, 2)], (5, [0, 2])),
    ((4, [0, 1, 2]), (6, [0, 1]), [(0, 1), (1, 0)], (10, [0, 3, 7])),
    ((12, [0, 1, 4, 7]), (5, [0, 1, 3]), [(0, 1), (1, 2)], (11, [0])),
    ((5, [0]), (12, [0, 5]), [(0, 1), (1, 0)], (12, [0, 1, 4, 7])),
    ((2, [0, 1]), (4, [0, 1, 2, 3]), [(0, 2), (1, 3)], (6, [0, 1, 3])),
    ((10, [0, 3, 7]), (8, [0, 1, 3, 6]), [(0, 3), (1, 2)], (2, [0, 1])),
]


def rotate_shape(rng: random.Random, shape: tuple) -> tuple:
    """Seeded rotation of a root shape: (angle strings, rotation in turns).
    A one-root shape is never rotated onto the root 1."""
    D, nums = shape
    k = rng.randrange(1, D) if len(nums) == 1 else rng.randrange(D)
    return [str(Fraction((n + k) % D, D)) for n in nums], k / D


def _point(radius: float, turns: float) -> dict:
    z = radius * cmath.exp(2j * cmath.pi * turns)
    return {"re": z.real, "im": z.imag}


def _kernel(rng: random.Random) -> list:
    cases = []
    cells = iter(_KERNEL_CELLS)
    for kind, p in KERNEL_WEIGHTS:
        for tol in KERNEL_TOLS:
            diag, off, off_pairs, inner = next(cells)
            tag = f"{kind}{p}-tol{tol:g}"
            base = {"weights": weights_obj(kind, p), "experiment": "kernel-eval",
                    "truncations": [1024], "tolerance": tol, "seed": 0}
            angles, _ = rotate_shape(rng, diag)
            cases.append(Case(f"kernel-diagonal-{tag}-J{len(angles)}", dict(
                base, roots={"angles": angles}, points=[["z1", "z1"]])))
            angles, _ = rotate_shape(rng, off)
            cases.append(Case(f"kernel-offdiagonal-{tag}-J{len(angles)}", dict(
                base, roots={"angles": angles},
                points=[[f"z{i + 1}", f"z{j + 1}"] for i, j in off_pairs])))
            # interior points sit at a fixed place relative to the shape and
            # turn with it: one pair near the boundary, one diagonal pair inside
            angles, turn = rotate_shape(rng, inner)
            near = random.Random(f"interior:{tag}")
            pts = [_point(near.uniform(0.985, 0.995), near.random() + turn),
                   _point(near.uniform(0.985, 0.995), near.random() + turn)]
            mid = _point(near.uniform(0.2, 0.9), near.random() + turn)
            cases.append(Case(f"kernel-interior-{tag}-J{len(angles)}", dict(
                base, roots={"angles": angles}, points=[pts, [mid, mid]])))
    return cases


# Decomposition strata: (weights, N, J).  Six share N and J and are the
# slowest, so the runs around the tail percentile come from one large
# cluster whatever the seed, which keeps run_s_tail from jumping between
# configs.
_DECOMPOSITION_CELLS = [
    (("harmonic", 0.75), 4096, 3), (("harmonic", 1.0), 4096, 3),
    (("harmonic", 2.0), 4096, 3), (("powerlaw", 1.0), 4096, 3),
    (("harmonic", 1.0), 4096, 3), (("harmonic", 2.0), 4096, 3),
    (("harmonic", 0.75), 2048, 1), (("powerlaw", 1.0), 2048, 2),
    (("harmonic", 1.0), 2048, 4),
]


def _splitting(rng: random.Random) -> list:
    cases = []
    for (kind, p), N, J in _DECOMPOSITION_CELLS:
        cases.append(Case(
            f"decomposition-{kind}{p}-J{J}-N{N}",
            {"roots": {"angles": draw_angles(rng, J)},
             "weights": weights_obj(kind, p), "experiment": "decomposition",
             "truncations": [N // 2, N], "tolerance": 1e-6,
             "seed": rng.randrange(1 << 30), "trials": 5}))
    for s, (kind, p) in enumerate(DIVERGENCE_WEIGHTS):
        top = 16384 if s % 2 == 0 else 32768
        J = 1 + s % 4
        cases.append(Case(
            f"divergence-{kind}{p}-J{J}-N{top}",
            {"roots": {"angles": draw_angles(rng, J)},
             "weights": weights_obj(kind, p), "experiment": "divergence-example",
             "truncations": ladder(top), "tolerance": 1e-8, "seed": 0},
            {"verdict": dichotomy_verdict(kind, p)}))
    # bandkern draws further root sets from the config seed; fixing it keeps
    # that work the same for every benchmark seed
    for J in (1, 2, 3, 4):
        cases.append(Case(
            f"identities-J{J}",
            {"roots": {"angles": draw_angles(rng, J)},
             "weights": weights_obj("harmonic", 1.0), "experiment": "identities",
             "truncations": [16], "tolerance": 1e-8, "seed": J}))
    return cases


_GENERATORS = {"norms": _norms, "kernel": _kernel, "splitting": _splitting}

# One small, seed-independent config per workload for the untimed warm-up
# run that setup_s includes.
WARMUP = {
    "norms": {"roots": {"angles": ["0", "1/2"]},
              "weights": weights_obj("harmonic", 1.0),
              "experiment": "containment", "truncations": [64, 128, 256],
              "tolerance": 1e-8, "seed": 0},
    "kernel": {"roots": {"angles": ["0", "1/3", "2/3"]},
               "weights": weights_obj("harmonic", 1.0),
               "experiment": "kernel-eval", "truncations": [1024],
               "tolerance": 1e-8, "seed": 0,
               "points": [["z1", "z2"], [{"re": 0.5}, {"re": 0.5}]]},
    "splitting": {"roots": {"angles": ["0", "1/3", "2/3"]},
                  "weights": weights_obj("harmonic", 1.0),
                  "experiment": "decomposition", "truncations": [256, 512],
                  "tolerance": 1e-6, "seed": 0, "trials": 2},
}


def generate(workload: str, seed: int) -> list:
    """The workload's cases for this seed; the same seed gives the same list."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng)


def config_hash(cases: list) -> str:
    """sha256 over the canonical JSON of every config, in sweep order."""
    blob = json.dumps([c.config for c in cases], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# The configuration the ROADMAP baseline layer figures were measured on
# (roots +-1, harmonic p=1, N=2048).  Traced runs execute it once more, so
# their per-call figures at N=2048 sit next to the quoted ones like for like.
REFERENCE = [
    Case("reference-containment",
         {"roots": {"angles": ["0", "1/2"]}, "weights": weights_obj("harmonic", 1.0),
          "experiment": "containment", "truncations": [256, 512, 1024, 2048],
          "tolerance": 1e-8, "seed": 0}),
    Case("reference-multiplier",
         {"roots": {"angles": ["0", "1/2"]}, "weights": weights_obj("harmonic", 1.0),
          "experiment": "multiplier", "truncations": [128, 256, 512, 1024, 2048],
          "tolerance": 1e-8, "seed": 0}),
    Case("reference-kernel",
         {"roots": {"angles": ["0", "1/2"]}, "weights": weights_obj("harmonic", 1.0),
          "experiment": "kernel-eval", "truncations": [1024],
          "tolerance": 1e-10, "seed": 0, "points": [["z1", "z2"]]}),
]
