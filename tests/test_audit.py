"""Reference-free audit: every log G route against the recurrence

    log G(z+2) = log G(z+1) + log Gamma(z+1)   (mod 2 pi i),

with no outside value.  A route that returns v(z) with error figure e(z) passes at z
where |v(z+1) - v(z) - log_gamma(z+1)|, reduced modulo 2 pi i, is at most
e(z) + e(z+1) plus _roundoff of the three values.  The grid is |z| = 0.3 * 1.5^i,
i < 12, at 39 angles in [-0.95 pi, 0.95 pi]; the improved route also takes rows above
its shift cap (Re z < -62), where it runs at z and its k-tail is not a bound.
"""

import cmath
import math

import pytest

from barnesg import certified_eval, exp_improved_report, log_barnes_oracle, log_gamma
from barnesg.expansion import _roundoff

GRID = [0.3 * 1.5 ** i * cmath.exp(1j * math.pi * (-0.95 + 0.05 * j))
        for i in range(12) for j in range(39)]
ABOVE_THE_CAP = [complex(re, sign * im) for re in (-62.5, -70.0, -300.0, -1000.0)
                 for im in (3.0, 0.3, 0.03, 0.005) for sign in (1.0, -1.0)]


def _certified(z):
    res = certified_eval(z)
    return res.value, res.bound


ROUTES = {
    "certified_eval": _certified,
    "log_barnes_oracle": log_barnes_oracle,
    "exp_improved_report": exp_improved_report,
}


def _worst_ratio(route, points):
    """The largest |residual| / allowance of the recurrence over points, and its z."""
    worst = (0.0, None)
    for z in points:
        (v0, e0), (v1, e1), lg = route(z), route(z + 1), log_gamma(z + 1)
        residual = v1 - v0 - lg
        residual -= 2j * math.pi * round(residual.imag / (2 * math.pi))
        worst = max(worst, (abs(residual) / (e0 + e1 + _roundoff(v0, v1, lg)), z),
                    key=lambda pair: pair[0])
    return worst


@pytest.mark.parametrize("name", ROUTES)
def test_route_keeps_the_recurrence(name):
    ratio, z = _worst_ratio(ROUTES[name], GRID)
    assert ratio <= 1.0, z


def test_improved_route_keeps_the_recurrence_above_the_shift_cap():
    ratio, z = _worst_ratio(exp_improved_report, ABOVE_THE_CAP)
    assert ratio <= 1.0, z
