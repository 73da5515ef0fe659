"""Exception types shared across the library, and the input rules that raise them.

The CLI maps these onto distinct exit codes, so the split matters:
arguments outside a function's mathematical domain raise :class:`DomainError`
(or :class:`RangeError` for table/size limits), while a computation that ran
but could not reach its accuracy target raises :class:`AccuracyError`.

The package takes arg z as math.atan2(z.imag, z.real): that is cmath.phase
without the OverflowError cmath.phase raises where arg z underflows to 0
(at 3 + 5e-324i).
"""

import cmath
import math
import operator


class DomainError(ValueError):
    """Argument lies outside the mathematical domain of the operation."""


class RangeError(ValueError):
    """Argument exceeds a configured table or size limit."""


class AccuracyError(RuntimeError):
    """The computation could not meet its accuracy target within budget."""


def _check_sector(z: complex, cut: bool = True) -> complex:
    """The domain check of every kernel and route: z finite and nonzero, |z| within
    binary64 (else RangeError) and, unless cut is False, z off the cut arg z = pi."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"the argument must be finite, got {z}")
    if not 0.0 < abs(z.imag) < 1e300:  # |z| can overflow only where |Im z| > 1.8e300
        if z == 0:
            raise DomainError("the argument 0 is outside the slit plane")
        if cut and z.imag == 0.0 and z.real < 0.0:
            raise DomainError(f"the argument {z} lies on the branch cut arg = pi")
        if math.hypot(z.real, z.imag) == math.inf:
            raise RangeError(f"|z| exceeds the float range at z = {z}")
    return z


def _check_finite(z: complex, *values: complex) -> None:
    """RangeError unless every value is finite: binary64 overflowed on the way at z."""
    for v in values:
        if not cmath.isfinite(v):
            raise RangeError(f"the result is not finite in binary64 at {z}")


def _check_order(n: int, lo: int, hi: float = math.inf, over: type = DomainError) -> int:
    """n as a plain int via operator.index (bool and numpy ints pass, 2.5 and 4.0 do
    not): DomainError unless it is an integer >= lo, the error type `over` if n > hi."""
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"an order or index must be an integer, got {n!r}") from None
    if not lo <= n <= hi:
        raise (DomainError if n < lo else over)(f"an order or index must lie in [{lo}, {hi}]")
    return n
