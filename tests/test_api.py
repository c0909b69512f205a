"""The public API against the surfaces that carry the paper's claims.

A name exported from ``bandkern`` must be reached from the CLI, a demo, an
acceptance criterion or another module of the package; the demos and the
demo configs, which count as reaching it, must themselves run.
"""

import ast
import runpy
from pathlib import Path

import pytest

from bandkern import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bandkern"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
CONFIGS = sorted((ROOT / "demos" / "configs").glob("*.json"))


def exported_names() -> set:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def referenced_names(path: Path) -> set:
    """Names loaded or read as attributes in a file, each top-level
    definition's references to its own name left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
        out.discard(own)
    return out


# the public API, pinned: a new export is a deliberate edit of this set
PUBLIC_API = {
    "BasisBand", "BoundaryConfig", "ConfigurationError", "ContainmentReport",
    "Decomposition", "DomainError", "DomainReport", "EigenBasis",
    "ExpansionReport", "KernelValue", "NormEstimate", "SearchFailureError",
    "Splitting", "StartingDecayFit", "TruncationError", "WeightSequence",
    "beta_coefficients", "c_column", "companion_limit", "constant_expansion",
    "containment_report", "domain_report", "eigen_basis", "eval_f_prefix",
    "fit_starting_decay", "homogeneous_symmetric", "kernel_eval",
    "louck_power_sum", "mu_search", "mu_weights", "mz_norm_report",
    "nu0_expansion", "polynomial_membership", "product_norm", "q_coefficients",
    "starting_vector",
}


def test_exports_are_the_pinned_api():
    assert len(PUBLIC_API) == 36
    assert exported_names() == PUBLIC_API


def test_every_public_name_is_reached():
    # the package modules include cli.py
    surfaces = [ROOT / "tests" / "test_acceptance.py", *DEMOS]
    surfaces += [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    reached = set().union(*(referenced_names(p) for p in surfaces))
    assert DEMOS
    assert sorted(exported_names() - reached) == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_demo_config_runs(config, tmp_path, capsys):
    prefix = tmp_path / config.stem
    assert cli.run(str(config), str(prefix)) == 0
    assert Path(f"{prefix}.series.csv").stat().st_size > 0
