"""Bernoulli numbers, Bernoulli polynomials, and associated constants.

Everything downstream (series coefficients, remainder kernels, zeta values
at even integers) is driven by one table of Bernoulli numbers B_0 .. B_64
(first kind, B_1 = -1/2), built at import time from the integer tangent
numbers T_k of Brent and Harvey, "Fast computation of Bernoulli, tangent and
secant numbers" (2011):

    B_{2k} = (-1)^{k-1} 2k T_k / (4^k (4^k - 1)).

The integer quotient is correctly rounded, so every entry is the correctly
rounded binary64 value, and the odd entries beyond B_1 are exactly zero.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, RangeError, _check_order

__all__ = [
    "BernoulliTable",
    "EPS",
    "EULER_GAMMA",
    "LOG_GLAISHER",
    "TWO_PI",
    "DEFAULT_TABLE",
    "bernoulli_number",
    "series_coefficient",
    "zeta_even",
]

#: Euler-Mascheroni constant.
EULER_GAMMA = 0.5772156649015329

#: log of the Glaisher-Kinkelin constant; cross-checked in the test suite
#: against (gamma + log 2*pi)/12 - zeta'(2)/(2*pi^2) evaluated by quadrature.
LOG_GLAISHER = 0.2487544770337843

TWO_PI = 2.0 * math.pi

#: Unit round-off scale of binary64 (machine epsilon), used by the round-off estimates.
EPS = 2.220446049250313e-16

#: Largest index in the Bernoulli table.
MAX_INDEX = 64
MAX_COEFF = MAX_INDEX // 2 - 1  # the largest n of c_n, which reads B_{2n+2}
MAX_FACTORIAL = 170  # the largest n whose n! is finite in binary64


def _generate(max_index: int) -> tuple[float, ...]:
    kmax = max_index // 2
    tangent = [0, 1] + [0] * (kmax - 1)  # T_1 .. T_kmax, Brent-Harvey in-place recurrence
    for k in range(2, kmax + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, kmax + 1):
        for j in range(k, kmax + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    values = [1.0, -0.5] + [0.0] * (max_index - 1)
    for k in range(1, kmax + 1):
        values[2 * k] = (-1) ** (k - 1) * 2 * k * tangent[k] / (4 ** k * (4 ** k - 1))
    return tuple(values)


class BernoulliTable:
    """The fixed table of Bernoulli numbers B_0 .. B_64 and the polynomials built on it.

    Safe for concurrent reads; all lookups are pure.
    """

    values: tuple[float, ...] = _generate(MAX_INDEX)

    def poly_periodic(self, n: int, t: np.ndarray) -> np.ndarray:
        """Periodized B_n(t - floor(t)) via its Fourier series, for n >= 8.

        B_n(x) = -2 n!/(2 pi)^n Re(e^{-i pi n/2} sum_k w^k/k^n), w = e^{2 pi i x},
        over k = 1..K with K the largest k such that k^{-n} >= 1e-18, summed by
        Horner's rule in w: one complex exponential per node.  The absolute
        error is ~1e-14 of the amplitude 2 n!/(2 pi)^n for n >= 8, where the
        binomial sum over the table loses accuracy to cancellation.  Lower
        orders raise DomainError (they would need 10^{18/n} terms), orders past
        MAX_FACTORIAL RangeError; the remainder kernel uses orders 17 .. 63.
        """
        n = _check_order(n, 8, MAX_FACTORIAL, RangeError)
        terms = 1
        while (terms + 1) ** -n >= 1e-18:
            terms += 1
        w = np.exp(1j * (TWO_PI * (t - np.floor(t))))
        acc = np.full_like(w, float(terms) ** -n)
        for k in range(terms - 1, 0, -1):
            acc *= w
            acc += float(k) ** -n
        acc *= w
        pref = -2.0 * math.factorial(n) / TWO_PI ** n
        return pref * (acc * cmath.exp(-0.5j * math.pi * n)).real

    def max_abs_poly(self, n: int) -> float:
        """Upper bound for max_{x in [0,1]} |B_n(x)|, for n >= 3.

        The Fourier series gives max |B_n| <= 2 n! zeta(n) / (2 pi)^n, and the
        factor 1.21 covers zeta(n) <= zeta(3) = 1.202...; DomainError for
        n < 3, where zeta(n) exceeds it (max |B_2| = 1/6), RangeError past MAX_FACTORIAL.
        """
        n = _check_order(n, 3, MAX_FACTORIAL, RangeError)
        return 2.0 * math.factorial(n) / TWO_PI ** n * 1.21


DEFAULT_TABLE = BernoulliTable()


def bernoulli_number(n: int) -> float:
    """Bernoulli number B_n (first kind, B_1 = -1/2); odd indices beyond 1 are exactly zero."""
    return BernoulliTable.values[_check_order(n, 0, MAX_INDEX, RangeError)]


def series_coefficient(n: int) -> float:
    """Coefficient of z^{-2n} in the log-G asymptotic series.

    Equals B_{2n+2} / (2n (2n+1) (2n+2)) for n >= 1.
    """
    n = _check_order(n, 1, MAX_COEFF, RangeError)
    return bernoulli_number(2 * n + 2) / (2 * n * (2 * n + 1) * (2 * n + 2))


def zeta_even(m: int) -> float:
    """Riemann zeta at a positive even integer m, via Bernoulli numbers."""
    m = _check_order(m, 2, MAX_INDEX, RangeError)
    if m % 2:
        raise DomainError("zeta_even requires a positive even integer")
    j = m // 2
    return (-1) ** (j + 1) * bernoulli_number(m) * TWO_PI ** m / (2.0 * math.factorial(m))
