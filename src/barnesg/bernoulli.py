"""Bernoulli numbers, Bernoulli polynomials, and associated constants.

Everything downstream (series coefficients, remainder kernels, zeta values
at even integers) is driven by one table of Bernoulli numbers generated at
import time by the convolution recurrence

    sum_{k=0}^{n} C(n+1, k) B_k = 0,        B_0 = 1,

in the first-kind convention (B_1 = -1/2).  The recurrence runs in exact
rationals and the table stores correctly rounded binary64 values; a pure
float recurrence would leave ~1e-13 noise in the odd entries, which must be
exactly zero.  Indices beyond ~60 lose meaning in binary64 for this
artifact's purposes; the table stops at 64.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError, RangeError

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


def _generate(max_index: int) -> tuple[float, ...]:
    values = [Fraction(0)] * (max_index + 1)
    values[0] = Fraction(1)
    for n in range(1, max_index + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += math.comb(n + 1, k) * values[k]
        values[n] = -acc / (n + 1)
    return tuple(float(v) for v in values)


class BernoulliTable:
    """The fixed table of Bernoulli numbers B_0 .. B_64 and the polynomials built on it.

    Safe for concurrent reads; all lookups are pure.
    """

    values: tuple[float, ...] = _generate(MAX_INDEX)

    def number(self, n: int) -> float:
        """B_n.  Odd indices beyond 1 are exactly zero."""
        if n < 0:
            raise DomainError("Bernoulli index must be non-negative")
        if n > MAX_INDEX:
            raise RangeError(f"Bernoulli index {n} beyond table maximum {MAX_INDEX}")
        return self.values[n]

    def poly_periodic(self, n: int, t: np.ndarray) -> np.ndarray:
        """Periodized B_n(t - floor(t)) via the Fourier sine/cosine series.

        Relative accuracy is ~1 ulp for n >= 8, where the binomial sum
        sum_k C(n,k) B_k x^{n-k} over the table loses absolute accuracy to
        coefficient cancellation; used by the remainder kernel, which promotes
        the index to >= 17.
        """
        if n < 2:
            raise DomainError("periodized evaluation requires n >= 2")
        frac = t - np.floor(t)
        pref = -2.0 * math.factorial(n) / TWO_PI ** n
        acc = np.zeros_like(frac, dtype=float)
        phase = 0.5 * math.pi * n
        k = 1
        while True:
            acc += np.cos(TWO_PI * k * frac - phase) / float(k) ** n
            k += 1
            if k ** -n < 1e-18:
                break
        return pref * acc

    def max_abs_poly(self, n: int) -> float:
        """Upper bound for max_{x in [0,1]} |B_n(x)|, for n >= 3.

        The Fourier series gives max |B_n| <= 2 n! zeta(n) / (2 pi)^n, and the
        factor 1.21 covers zeta(n) <= zeta(3) = 1.202...; DomainError for
        n < 3, where zeta(n) exceeds it (max |B_2| = 1/6).
        """
        if n < 3:
            raise DomainError("max_abs_poly requires n >= 3")
        return 2.0 * math.factorial(n) / TWO_PI ** n * 1.21


DEFAULT_TABLE = BernoulliTable()


def bernoulli_number(n: int) -> float:
    """Bernoulli number B_n from the default table (first kind, B_1 = -1/2)."""
    return DEFAULT_TABLE.number(n)


def series_coefficient(n: int) -> float:
    """Coefficient of z^{-2n} in the log-G asymptotic series.

    Equals B_{2n+2} / (2n (2n+1) (2n+2)) for n >= 1.
    """
    if n < 1:
        raise DomainError("series coefficient index starts at 1")
    return DEFAULT_TABLE.number(2 * n + 2) / (2 * n * (2 * n + 1) * (2 * n + 2))


def zeta_even(m: int) -> float:
    """Riemann zeta at a positive even integer m, via Bernoulli numbers."""
    if m < 2 or m % 2:
        raise DomainError("zeta_even requires a positive even integer")
    j = m // 2
    return (-1) ** (j + 1) * DEFAULT_TABLE.number(m) * TWO_PI ** m / (2.0 * math.factorial(m))
