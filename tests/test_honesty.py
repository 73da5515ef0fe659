"""Honesty of the reported errors: |value - log G(z+1)| <= reported error, against mpmath.

Rows cover |z| in [1e-8, 50] and |arg z| up to 0.99 pi, with the known hard
points 0.1i, 1.5 e^{0.9 pi i} and 1e-8 i, and every row off the real axis
with its conjugate.  Values are compared modulo 2 pi i, since the principal
logarithm of mpmath's G(z+1) may sit on another branch than the library's
analytic log G; the branch itself is checked on the rows the certified route
shifts across the negative axis, against a form with no principal logarithm
of G.  A route's rows belong here once its report is a bound; there is no
tolerance.
"""

import cmath
import math

import mpmath as mp
import pytest

from barnesg import certified_eval, exp_improved_report
from barnesg.expansion import _certified_shift
from _reference import log_g_error

PI = math.pi

_MODULI = (1e-8, 1e-4, 0.1, 0.5, 1.0, 2.0, 3.5, 5.0, 8.0, 13.0, 25.0, 50.0)
_ANGLES = (0.0, 0.3, 0.6, 0.8, 0.95, 0.99)  # arg z / pi
_UPPER = [0.1j, 1.5 * cmath.exp(0.9j * PI), 1e-8j] + [
    r * cmath.exp(1j * a * PI) for r in _MODULI for a in _ANGLES]
ROWS = _UPPER + [z.conjugate() for z in _UPPER if z.imag]


@pytest.mark.parametrize("z", ROWS, ids=repr)
def test_certified_bound_covers_the_error(z):
    res = certified_eval(z)
    assert log_g_error(res.value, z) <= res.bound


@pytest.mark.parametrize("z", ROWS, ids=repr)
def test_improved_estimate_covers_the_error(z):
    value, est = exp_improved_report(z)
    assert log_g_error(value, z) <= est


#: Rows the certified route shifts by 14 to 52 steps, past the negative axis's
#: integers; mpmath's principal log G(z+1) differs from log G by 2 pi i k there.
_BRANCH_UPPER = [-40 - 1j, -7.5 + 0.001j, 3 * cmath.exp(0.95j * PI), -1.975 + 0.313j]
BRANCH_ROWS = _BRANCH_UPPER + [z.conjugate() for z in _BRANCH_UPPER]


@pytest.mark.parametrize("z", BRANCH_ROWS, ids=repr)
def test_shifted_certified_value_is_on_the_analytic_branch(z):
    # log G(z+1) = z log Gamma(z) + zeta'(-1) - zeta'(-1, z) (Adamchik), with the
    # analytic log Gamma and no reduction modulo 2 pi i
    assert _certified_shift(z) > 0
    res = certified_eval(z)
    with mp.workdps(30):
        w = mp.mpc(z)
        exact = w * mp.loggamma(w) + mp.zeta(-1, 1, 1) - mp.zeta(-1, w, 1)
        assert float(abs(mp.mpc(res.value) - exact)) <= res.bound
