"""The package surface: every exported name resolves, and the demos and the
README's library quick start run."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import barnesg

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(barnesg.__path__))
DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
README = Path(__file__).parents[1] / "README.md"


EXPORTS = {
    "AccuracyError", "BernoulliTable", "BoundKind", "BoundReport", "DomainError",
    "EULER_GAMMA", "ExpansionResult", "LOG_GLAISHER", "OracleValue", "RangeError",
    "StokesSample", "TerminantEval", "TerminantMethod",
    "bernoulli_number", "best_bound", "certified_eval", "erf_small", "exp_improved_report",
    "exp_integral_e1", "expansion_prefix", "family_bounds", "log_barnes_oracle", "log_gamma",
    "remainder_narrow", "remainder_wide", "sector_factor", "series_coefficient",
    "solve_optimal_angle", "stokes_profile", "terminant",
    "truncated_log_barnes", "zeta_even",
}


def test_exports_are_the_public_surface():
    assert len(barnesg.__all__) == len(EXPORTS) == 32
    assert set(barnesg.__all__) == EXPORTS


def test_star_import_resolves():
    namespace: dict = {}
    exec("from barnesg import *", namespace)
    assert set(barnesg.__all__) <= namespace.keys()


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_exist(name):
    module = importlib.import_module(f"barnesg.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def _child_env():
    """PYTHONPATH for a child interpreter that imports this process's barnesg."""
    src = str(Path(barnesg.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def test_import_leaves_the_cli_and_the_test_oracles_out():
    """import barnesg loads neither click (the CLI's) nor fractions, scipy or mpmath,
    and fills neither the Gauss node cache, the narrow kernel's Li2 table nor the
    zeta-tail memo."""
    code = ("import sys, barnesg; "
            "print(sorted({'click', 'fractions', 'scipy', 'mpmath'} & sys.modules.keys()), "
            "barnesg.quadrature.gauss_nodes.cache_info().currsize, "
            "barnesg.oracle._narrow_dilog.cache_info().currsize, "
            "sys.modules['barnesg.terminant']._zeta_tail.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] 0 0 0"


def test_three_demos_found():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_quick_start_runs():
    """The README's "Library quick start" block runs against the current API."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md quick start", "exec"), {})
