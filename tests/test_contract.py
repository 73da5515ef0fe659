"""The input contract shared by every z-route and by the CLI.

Each route either returns finite numbers or raises a typed library error.
z outside the slit plane (non-finite, zero, on the cut) raises DomainError;
a modulus whose powers leave the binary64 range raises RangeError.
"""

import cmath
import math
import numbers

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


@pytest.mark.parametrize("route", ROUTES)
def test_near_the_cut_gives_a_typed_error_or_finite_numbers(route):
    try:
        out = ROUTES[route](NEAR_CUT)
    except (DomainError, RangeError, AccuracyError):
        return
    values = _numbers(out)
    assert values and all(cmath.isfinite(v) for v in values)


def _eval(method, re, im="0"):
    return ["eval", "--method", method, "--z-re", re, "--z-im", im]


CLI_CASES = [
    *[(_eval(m, re), 2) for m in ("oracle", "hyper")
      for re in ("nan", "inf", "-inf", "0", "-0.0", "-2", "1e-300", "1e200")],
    (_eval("oracle", "0", "inf"), 2),
    (_eval("hyper", "0", "nan"), 2),
    (_eval("oracle", "-1", "1e-15"), 3),
    (_eval("asym", "-1", "1e-15"), 3),
    (_eval("hyper", "-1", "1e-15"), 0),  # a finite value with its estimate
    *[(["bounds", "--z-abs", r], 2) for r in ("nan", "inf", "0", "1e-300", "1e200")],
    (["bounds", "--z-abs", "1", "--theta", repr(math.pi - 1e-15)], 3),
]


@pytest.mark.parametrize("args,code", CLI_CASES, ids=[" ".join(a) for a, _ in CLI_CASES])
def test_cli_exits_with_the_code_of_the_typed_error(args, code):
    res = CliRunner().invoke(main, args)
    assert res.exit_code == code, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
