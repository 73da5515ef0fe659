"""The package surface: every exported name resolves, and the demos run."""

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


EXPORTS = {
    "AccuracyError", "BernoulliTable", "BoundKind", "BoundReport", "DomainError",
    "EULER_GAMMA", "ExpansionResult", "LOG_GLAISHER", "OracleValue", "RangeError",
    "RemainderKernel", "StokesSample", "TerminantEval", "TerminantMethod", "TruncationScheme",
    "bernoulli_number", "best_bound", "certified_eval", "erf_small", "exp_improved_report",
    "exp_integral_e1", "expansion_prefix", "family_bounds", "log_barnes_oracle", "log_gamma",
    "remainder_narrow", "remainder_wide", "sector_factor", "series_coefficient",
    "solve_optimal_angle", "stokes_profile", "terminant", "terminant_erf_approx",
    "truncated_log_barnes", "zeta_even",
}


def test_exports_are_the_public_surface():
    assert len(barnesg.__all__) == len(EXPORTS) == 35
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


def test_three_demos_found():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
