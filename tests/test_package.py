"""The package surface: every exported name resolves, the result records keep their
fields, defaults and reprs, the routes load only what they need, and the demos and the
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


def _run_child(code: str) -> str:
    """stdout of a fresh interpreter that runs code against this barnesg."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_leaves_the_cli_and_the_test_oracles_out():
    """import barnesg loads no package outside the standard library (numpy is the
    oracle's; scipy and mpmath are the tests'), nor fractions, and fills neither the
    Gauss rule and node caches, the narrow kernel's weights, the algebraic-row memo nor either
    kernel's integral memo."""
    code = ("import sys; before = set(sys.modules); import barnesg; "
            "new = {m.partition('.')[0] for m in sys.modules.keys() - before}; "
            "loaded = sorted((new - sys.stdlib_module_names - {'barnesg'}) | (new & {'fractions'})); "
            "print(loaded, barnesg.quadrature.gauss_nodes.cache_info().currsize, "
            "barnesg.quadrature.gauss_rule.cache_info().currsize, "
            "barnesg.oracle._narrow_weights.cache_info().currsize, "
            "sys.modules['barnesg.terminant']._algebraic_rows.cache_info().currsize, "
            "barnesg.oracle._narrow_integral.cache_info().currsize, "
            "barnesg.oracle._wide_integral.cache_info().currsize)")
    assert _run_child(code) == "[] 0 0 0 0 0 0"



def test_the_arc_walk_loads_on_first_use():
    """import barnesg and the improved route leave barnesg.arc uncompiled; a Stokes
    profile loads it."""
    code = ("import sys, barnesg as bg; bg.exp_improved_report(3 + 2j); "
            "before = 'barnesg.arc' in sys.modules; bg.stokes_profile(2.0, 1, [1.5]); "
            "print(before, 'barnesg.arc' in sys.modules)")
    assert _run_child(code) == "False True"

def test_certified_and_improved_routes_load_no_numpy():
    """One call of each scalar route and kernel, and of the Gauss-Legendre rule, leaves
    numpy unloaded: only the oracle, poly_periodic and the quadrature module's array
    helpers need it."""
    code = ("import sys, barnesg as bg; "
            "bg.certified_eval(5 + 1j); bg.best_bound(5 + 1j, 3); bg.family_bounds(5 + 1j, 3); "
            "bg.exp_improved_report(3 + 2j); bg.stokes_profile(2.0, 1, [1.3, 1.5, 1.9]); "
            "bg.terminant(3, 2 + 1j); bg.exp_integral_e1(2 + 1j); bg.log_gamma(3 + 1j); "
            "bg.erf_small(1 + 1j); import barnesg.quadrature; barnesg.quadrature.gauss_rule(17); "
            "print('numpy' in sys.modules)")
    assert _run_child(code) == "False"


#: Calls that reach erf_small at 2.5 < |zeta| <= 4, where it once ran a numpy Gauss rule.
ERF_SHELL_CALLS = (
    "sp.erf_small(3 + 0.5j)",
    "sp.erf_small(4j)",
)


@pytest.mark.parametrize("call", ERF_SHELL_CALLS)
def test_erf_past_the_series_disc_loads_no_numpy(call):
    """Each call reaches erf_small with 2.5 < |zeta| <= 4 and leaves numpy unloaded."""
    code = ("import sys, barnesg.special as sp; "
            "seen = []; erf = sp.erf_small; "
            "sp.erf_small = lambda zeta: seen.append(abs(zeta)) or erf(zeta); "
            f"{call}; "
            "print(any(2.5 < a <= 4.0 for a in seen), 'numpy' in sys.modules)")
    assert _run_child(code) == "True False"


def test_scalar_routes_load_no_dataclasses_or_inspect():
    """The result records are named tuples: one call of each scalar route leaves
    dataclasses and inspect (and what they import) unloaded."""
    code = ("import sys, barnesg as bg; "
            "bg.certified_eval(5 + 1j); bg.exp_improved_report(3 + 2j); "
            "bg.stokes_profile(2.0, 1, [1.3, 1.5, 1.9]); bg.terminant(3, 2 + 1j); "
            "print('dataclasses' in sys.modules, 'inspect' in sys.modules)")
    assert _run_child(code) == "False False"


def test_oracle_loads_no_dataclasses():
    # numpy itself imports inspect, so only dataclasses is checked here
    code = ("import sys, barnesg as bg; bg.log_barnes_oracle(3 + 1j); "
            "print('numpy' in sys.modules, 'dataclasses' in sys.modules)")
    assert _run_child(code) == "True False"


def test_cli_asym_eval_loads_no_numpy():
    code = ("import sys; from barnesg.cli import main; "
            "main(['eval', '--z-abs', '8', '--z-arg', '1.0', '--method', 'asym']); "
            "print('numpy' in sys.modules)")
    out = _run_child(code).splitlines()
    assert out[0].startswith("z_re,") and len(out) == 3
    assert out[-1] == "False"


def test_cli_runs_on_the_standard_library_and_numpy():
    """All four subcommands exit 0 in an interpreter that can import no package outside
    the standard library except numpy (which the oracle in `bounds` needs)."""
    argvs = [["eval", "--z-abs", "3", "--z-arg", "1.0", "--method", "hyper"],
             ["bounds", "--z-abs", "5", "--theta-pi", "0.5", "--n-min", "1", "--n-max", "2"],
             ["stokes", "--z-abs", "3", "--theta-min", "1.3", "--theta-max", "1.9",
              "--theta-steps", "3"],
             ["terminant", "--p", "7", "--w-abs", "10", "--w-arg", "1.0"]]
    code = ("import importlib.abc, sys\n"
            "class Deny(importlib.abc.MetaPathFinder):\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.partition('.')[0] not in {*sys.stdlib_module_names, 'barnesg', 'numpy'}:\n"
            "            raise ImportError(f'{name} is outside the standard library')\n"
            "sys.meta_path.insert(0, Deny())\n"
            "from barnesg.cli import main\n"
            f"print('codes', [main(argv) for argv in {argvs!r}])")
    assert _run_child(code).splitlines()[-1] == "codes [0, 0, 0, 0]"


def test_lazy_names_are_listed_and_unknown_names_raise():
    assert set(barnesg.__all__) | {"oracle", "quadrature"} <= set(dir(barnesg))
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(barnesg, "no_such_name")


def test_lazy_oracle_names_read_through_a_patch(monkeypatch):
    """barnesg.log_barnes_oracle is looked up in barnesg.oracle on every access, so it
    follows a patch there and its undo; the package namespace never binds it."""
    original = barnesg.oracle.log_barnes_oracle
    assert barnesg.log_barnes_oracle is original
    monkeypatch.setattr(barnesg.oracle, "log_barnes_oracle", lambda z: "patched")
    assert barnesg.log_barnes_oracle(3.0) == "patched"
    monkeypatch.undo()
    assert barnesg.log_barnes_oracle is original
    assert "log_barnes_oracle" not in vars(barnesg)


#: kernel -> (its first call, whether that call loads numpy)
FIRST_CALLS = {
    "erf_small": ("repr(barnesg.erf_small(3 + 0.5j))", False),
    "poly_periodic": ("repr(barnesg.BernoulliTable().poly_periodic(17, [0.1, 0.5, 2.3]).tolist())",
                      True),
}


@pytest.mark.parametrize("name", FIRST_CALLS)
def test_numpy_kernels_called_first_give_the_same_bits(name):
    """In a fresh interpreter, poly_periodic loads numpy on its first call and
    erf_small past |zeta| = 2.5 does not; each gives the value it gives once numpy
    is loaded."""
    expr, loads_numpy = FIRST_CALLS[name]
    code = (f"import sys, barnesg; before = 'numpy' in sys.modules; "
            f"print(before, {expr}, 'numpy' in sys.modules)")
    import numpy  # loaded here, so the in-process call below is the "after" one
    assert _run_child(code) == f"False {eval(expr)} {loads_numpy}"


def test_three_demos_found():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


_FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st

@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0

def test_passes():
    pass
'''


def test_a_failing_property_test_ends_no_session(tmp_path):
    """Under the repo's pytest config a failing hypothesis test is one failure: the
    session goes on to the next test and exits 1, not 3 with an INTERNALERROR."""
    (tmp_path / "test_child.py").write_text(_FAILING_PROPERTY)
    config = Path(__file__).parents[1] / "pyproject.toml"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(config), "--rootdir", str(tmp_path), "test_child.py"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path,
                          env=_child_env())
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


def test_readme_quick_start_runs():
    """The README's "Library quick start" block runs against the current API."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md quick start", "exec"), {})


#: One record of each type, and its repr as the frozen dataclasses printed it.  The first
#: BoundReport and ExpansionResult leave their defaults (phi_star=None, weak_bound=False,
#: shift=0) unset, so their reprs check them.
RECORD_REPRS = [
    (barnesg.BoundReport(2.5e-10, 1.0, barnesg.BoundKind.SECTOR),
     "BoundReport(bound=2.5e-10, factor=1.0, kind=<BoundKind.SECTOR: 'sector_csc'>, "
     "phi_star=None)"),
    (barnesg.BoundReport(3.0e-8, 1.75, barnesg.BoundKind.OPTIMIZED, 0.375),
     "BoundReport(bound=3e-08, factor=1.75, kind=<BoundKind.OPTIMIZED: 'optimized_angle'>, "
     "phi_star=0.375)"),
    (barnesg.ExpansionResult(1.5 - 0.25j, 7, 1e-15, barnesg.BoundKind.HALF_ANGLE),
     "ExpansionResult(value=(1.5-0.25j), n_trunc=7, bound=1e-15, "
     "bound_kind=<BoundKind.HALF_ANGLE: 'half_angle_sec'>, weak_bound=False, shift=0)"),
    (barnesg.ExpansionResult(-2 + 3j, 20, 4.5e-12, barnesg.BoundKind.OPTIMIZED, True, 11),
     "ExpansionResult(value=(-2+3j), n_trunc=20, bound=4.5e-12, "
     "bound_kind=<BoundKind.OPTIMIZED: 'optimized_angle'>, weak_bound=True, shift=11)"),
    (barnesg.OracleValue(0.125 + 1j, 3e-14), "OracleValue(value=(0.125+1j), est_error=3e-14)"),
    (barnesg.TerminantEval(1e-3 - 2e-3j, barnesg.TerminantMethod.GAMMA_RECURRENCE, 1e-17),
     "TerminantEval(value=(0.001-0.002j), "
     "method=<TerminantMethod.GAMMA_RECURRENCE: 'gamma_recurrence'>, est_error=1e-17)"),
    (barnesg.StokesSample(1.25, 2, 0.01 + 0.02j, 0.03 - 0.01j, 1e-12),
     "StokesSample(theta=1.25, k=2, multiplier=(0.01+0.02j), erf_prediction=(0.03-0.01j), "
     "est_error=1e-12)"),
]
RECORD_IDS = [type(r).__name__ for r, _ in RECORD_REPRS]


@pytest.mark.parametrize("record,text", RECORD_REPRS, ids=RECORD_IDS)
def test_record_repr_is_unchanged(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", [r for r, _ in RECORD_REPRS], ids=RECORD_IDS)
def test_records_are_immutable_hashable_tuples(record):
    """A record is a named tuple: its fields cannot be set, an equal record hashes
    alike, and it unpacks and compares equal to the tuple of its fields."""
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 0.0)
    with pytest.raises(AttributeError):
        record.extra = 1
    copy = type(record)(*record)
    assert copy == record and hash(copy) == hash(record)
    assert tuple(record) == record and list(record) == [getattr(record, f) for f in record._fields]


def test_stokes_sample_properties_are_unchanged():
    # the reprs the frozen dataclass gave, on both sides of the line
    upper = barnesg.StokesSample(1.25, 2, 0.01 + 0.02j, 0.03 - 0.01j, 1e-12)
    assert repr((upper.limit, upper.normalized_multiplier, upper.normalized_prediction)) == (
        "(0.039788735772973836j, (0.5026548245743669-0.25132741228718347j), "
        "(-0.25132741228718347-0.7539822368615503j))")
    lower = barnesg.StokesSample(-1.25, 1, 0.01 + 0.02j, 0.03 - 0.01j, 1e-12)
    assert repr((lower.limit, lower.normalized_multiplier, lower.normalized_prediction)) == (
        "(-0.15915494309189535j, (-0.12566370614359174+0.06283185307179587j), "
        "(0.06283185307179587+0.18849555921538758j))")
