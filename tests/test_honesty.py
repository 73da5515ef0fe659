"""Honesty of the reported errors: |value - log G(z+1)| <= reported error, against mpmath.

Rows cover |z| in [1e-8, 50] and |arg z| up to 0.99 pi, with the known hard
points 0.1i, 1.5 e^{0.9 pi i} and 1e-8 i, and every row off the real axis
with its conjugate.  Values are compared modulo 2 pi i, since the principal
logarithm of mpmath's G(z+1) may sit on another branch than the library's
analytic log G.  A route's rows belong here once its report is a bound;
there is no tolerance.
"""

import cmath
import math

import mpmath as mp
import pytest

from barnesg import certified_eval

PI = math.pi

_MODULI = (1e-8, 1e-4, 0.1, 0.5, 1.0, 2.0, 3.5, 5.0, 8.0, 13.0, 25.0, 50.0)
_ANGLES = (0.0, 0.3, 0.6, 0.8, 0.95, 0.99)  # arg z / pi
_UPPER = [0.1j, 1.5 * cmath.exp(0.9j * PI), 1e-8j] + [
    r * cmath.exp(1j * a * PI) for r in _MODULI for a in _ANGLES]
ROWS = _UPPER + [z.conjugate() for z in _UPPER if z.imag]


def _error(value: complex, z: complex) -> float:
    """|value - log G(z+1)| modulo 2 pi i, at 30 digits."""
    with mp.workdps(30):
        diff = mp.mpc(value) - mp.log(mp.barnesg(mp.mpc(z) + 1))
        diff -= 2j * mp.pi * mp.nint(diff.imag / (2 * mp.pi))
        return float(abs(diff))


@pytest.mark.parametrize("z", ROWS, ids=repr)
def test_certified_bound_covers_the_error(z):
    res = certified_eval(z)
    assert _error(res.value, z) <= res.bound
