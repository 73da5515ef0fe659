"""The input contract shared by every z-route, both terminant forms and the CLI.

Each route either returns finite numbers or raises a typed library error.
z outside the slit plane (non-finite, zero, on the cut) raises DomainError;
a modulus whose powers leave the binary64 range raises RangeError, and so
does a float overflow inside a route, without a RuntimeWarning.  A terminant
argument w that is zero or not finite, or a branch angle arg_w that is not
finite or not congruent to arg w, raises DomainError; a terminant value or
estimate that is not finite in binary64 raises RangeError.
"""

import cmath
import math
import numbers
import warnings

import mpmath as mp
import pytest
from click.testing import CliRunner

from barnesg import (
    AccuracyError,
    DomainError,
    RangeError,
    best_bound,
    certified_eval,
    exp_improved_report,
    family_bounds,
    log_barnes_oracle,
    remainder_narrow,
    remainder_wide,
    terminant,
    terminant_erf_approx,
)
from barnesg.cli import main

NAN, INF = math.nan, math.inf

ROUTES = {
    "certified_eval": certified_eval,
    "best_bound": lambda z: best_bound(z, 2),
    "family_bounds": lambda z: family_bounds(z, 2),
    "log_barnes_oracle": log_barnes_oracle,
    "remainder_wide": lambda z: remainder_wide(z, 2),
    "remainder_narrow": lambda z: remainder_narrow(z, 2),
    "exp_improved_report": exp_improved_report,
}

OUTSIDE_SLIT_PLANE = [complex(NAN, 0.0), complex(0.0, NAN), complex(INF, 0.0),
                      complex(-INF, 0.0), complex(0.0, INF), 0j, complex(-0.0, 0.0),
                      complex(-2.0, 0.0), complex(-2.0, -0.0)]
TINY_OR_HUGE = [1e-300, 1e200]
NEAR_CUT = complex(-1.0, 1e-15)
# finite moduli at which an intermediate of the route overflows: the improved
# route's z^{-2}, the promotion ladder's z^{-2n}, the wide kernel's
# (t + z)^{2 m_eff}, the narrow prefactor 1/z^{2N}
OVERFLOW_INSIDE = [
    ("exp_improved_report", 1e-160 * cmath.exp(0.3j * math.pi)),
    ("log_barnes_oracle", 1e-30 * cmath.exp(0.3j * math.pi)),
    ("remainder_wide", 1e30),
    ("remainder_wide", 3e-78),
    ("remainder_narrow", 1e-78),
]


# large moduli where the improved route stays finite (polar 1000i: at exactly
# 1000j every w is real)
IMPROVED_LARGE = [300 * cmath.exp(0.3j * math.pi), 1000 * cmath.exp(0.5j * math.pi)]


def _numbers(out):
    """Every number inside a route's result (dataclasses, tuples, dicts of reports)."""
    if isinstance(out, dict):
        out = list(out.values())
    if isinstance(out, (tuple, list)):
        return [x for item in out for x in _numbers(item)]
    if isinstance(out, numbers.Number):
        return [out]
    return [v for v in vars(out).values() if isinstance(v, numbers.Number)]


@pytest.mark.parametrize("z", OUTSIDE_SLIT_PLANE, ids=repr)
@pytest.mark.parametrize("route", ROUTES)
def test_outside_the_slit_plane_raises_domain_error(route, z):
    with pytest.raises(DomainError):
        ROUTES[route](z)


@pytest.mark.parametrize("z", TINY_OR_HUGE, ids=repr)
@pytest.mark.parametrize("route", ROUTES)
def test_modulus_outside_the_float_range_raises_range_error(route, z):
    with pytest.raises(RangeError):
        ROUTES[route](z)


@pytest.mark.parametrize("route,z", OVERFLOW_INSIDE, ids=[f"{r}-{z!r}" for r, z in OVERFLOW_INSIDE])
def test_overflow_inside_a_route_raises_range_error_without_warnings(route, z):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RangeError):
            ROUTES[route](z)


@pytest.mark.parametrize("z", IMPROVED_LARGE, ids=repr)
def test_improved_route_at_large_modulus_is_within_its_estimate(z):
    value, est = exp_improved_report(z)
    assert cmath.isfinite(value) and math.isfinite(est)
    with mp.workdps(30):
        diff = mp.mpc(value) - mp.log(mp.barnesg(mp.mpc(z) + 1))
        diff -= 2j * mp.pi * mp.nint(diff.imag / (2 * mp.pi))  # modulo 2 pi i
        assert abs(diff) <= est


@pytest.mark.parametrize("route", ROUTES)
def test_near_the_cut_gives_a_typed_error_or_finite_numbers(route):
    try:
        out = ROUTES[route](NEAR_CUT)
    except (DomainError, RangeError, AccuracyError):
        return
    values = _numbers(out)
    assert values and all(cmath.isfinite(v) for v in values)


TERMINANT_FORMS = {"terminant": terminant, "terminant_erf_approx": terminant_erf_approx}
# (p, w, arg_w); p sits inside the erf form's window p ~ |w| where w is finite
OFF_BRANCH = [(60, 60.0, 2.0), (5, 5.0, 2.0), (5, 3.0, NAN), (5, 3.0, INF), (5, 3.0, -INF),
              (5, INF, None), (5, complex(0.0, -INF), None), (5, complex(NAN, 1.0), None),
              (5, 0j, None)]


@pytest.mark.parametrize("p,w,arg_w", OFF_BRANCH, ids=repr)
@pytest.mark.parametrize("form", TERMINANT_FORMS)
def test_terminant_off_its_branch_raises_domain_error(form, p, w, arg_w):
    with pytest.raises(DomainError):
        TERMINANT_FORMS[form](p, w, arg_w)


# the partial sums S_m(w) of T_p(w) leave binary64: at 0.1 they become
# inf and nan; at 0.306 e^{i pi/4} one of them has finite parts but |.| > 1.8e308
TERMINANT_OVERFLOW = [(121, 0.1), (140, 0.306 * cmath.exp(0.25j * math.pi))]


@pytest.mark.parametrize("p,w", TERMINANT_OVERFLOW, ids=repr)
def test_terminant_that_overflows_raises_range_error(p, w):
    with pytest.raises(RangeError):
        terminant(p, w)


def _eval(method, re, im="0"):
    return ["eval", "--method", method, "--z-re", re, "--z-im", im]


CLI_METHOD = {"log_barnes_oracle": "oracle", "exp_improved_report": "hyper"}


CLI_CASES = [
    *[(_eval(m, re), 2) for m in ("oracle", "hyper")
      for re in ("nan", "inf", "-inf", "0", "-0.0", "-2", "1e-300", "1e200")],
    (_eval("oracle", "0", "inf"), 2),
    (_eval("hyper", "0", "nan"), 2),
    (_eval("oracle", "-1", "1e-15"), 3),
    (_eval("asym", "-1", "1e-15"), 3),
    (_eval("hyper", "-1", "1e-15"), 0),  # a finite value with its estimate
    *[(["bounds", "--z-abs", r], 2) for r in ("nan", "inf", "0", "1e-300", "1e200")],
    *[(_eval(CLI_METHOD[route], repr(z.real), repr(z.imag)), 2)
      for route, z in OVERFLOW_INSIDE if route in CLI_METHOD],
    *[(_eval("hyper", repr(z.real), repr(z.imag)), 0) for z in IMPROVED_LARGE],
    (["bounds", "--z-abs", "1", "--theta", repr(math.pi - 1e-15)], 3),
    *[(["terminant", "--p", "60", "--w-re", "60", "--w-arg", "2.0", "--method", m], 2)
      for m in ("erf", "recurrence", "auto")],
    *[(["terminant", "--p", "5", "--w-re", "3", "--w-arg", a], 2) for a in ("nan", "inf")],
    (["terminant", "--p", "5", "--w-re", "inf"], 2),
    (["terminant", "--p", "121", "--w-re", "0.1"], 2),  # TERMINANT_OVERFLOW
]


@pytest.mark.parametrize("args,code", CLI_CASES, ids=[" ".join(a) for a, _ in CLI_CASES])
def test_cli_exits_with_the_code_of_the_typed_error(args, code):
    res = CliRunner().invoke(main, args)
    assert res.exit_code == code, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
