"""Special-function kernels: log Gamma, dilogarithm, E1 and erf.  All are
scalar except the dilogarithm, whose kernel evaluates a whole array of
quadrature nodes in one pass.

These are the only transcendental building blocks the rest of the library
needs.  Each has a small validity region chosen for the arguments the
expansion machinery actually produces, and each is cross-checked in the test
suite against an independent oracle (series, quadrature, scipy or mpmath).

E1 has one kernel, _e1_scaled_continued, for h = e^{w} E1(w), and every other
form unscales it: E1 = e^{-w} h.  Its one region rule sums Ein's power series,
a fixed-length Horner kernel over a table built at import, for |w| <= 4 and
near the negative axis up to |w| = 40; past |w| = 32 with |arg w| > 3 pi/4,
outside that, it takes the optimally truncated asymptotic series, and the
scaled Lentz continued fraction everywhere else.

The module imports no numpy: only the oracle's dilogarithm kernel (_li2,
_dilog_exp) needs it, and imports it on its first call.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

from .bernoulli import EPS, EULER_GAMMA, TWO_PI, bernoulli_number
from .errors import AccuracyError, RangeError, _check_finite, _check_sector

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "log_gamma",
    "exp_integral_e1",
    "erf_small",
]

#: log Gamma shifts z upward until Re z >= 9, then sums 12 Stirling terms
#: B_{2n}/(2n(2n-1) z^{2n-1}); round-off, not truncation, sets the error.
_SHIFT_THRESHOLD = 9.0
_STIRLING = tuple((bernoulli_number(2 * n), (2 * n) * (2 * n - 1)) for n in range(1, 13))
#: Below Re z = _SHIFT_THRESHOLD - _MAX_SHIFT = -55 log Gamma reflects instead of shifting.
_MAX_SHIFT = 64
#: Step limit of the Lentz iterations for e^{w} E1(w) and e^{z^2} erfc(z); reaching it
#: raises AccuracyError.
_LENTZ_MAX_STEPS = 2000


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z) on the plane cut along (-inf, 0].

    Upward recurrence shifts z until Re z clears the shift threshold, then
    the Stirling series finishes the job.  Below Re z = -55 the reflection
    (DLMF 5.5.3) log Gamma(z) = log 2 pi - i pi/2 + i pi z - log(1 - e^{2 pi i z})
    - log Gamma(1 - z) for Im z > 0, and its conjugate below the axis, replaces
    the |Re z| shifts.  Relative error is at the round-off level (<= 1e-13)
    for |z| >= 1, up to |z| ~ 1e305.  RangeError when the value is not finite
    in binary64.
    """
    z = _check_sector(z)
    if z.real < _SHIFT_THRESHOLD - _MAX_SHIFT:
        upper = z.imag > 0.0
        u = z if upper else z.conjugate()
        # 1 - e^{2 pi i u} = -expm1(a + ib), with b reduced mod 2 pi exactly; no cancellation
        a, b = -TWO_PI * u.imag, TWO_PI * (u.real - round(u.real))
        one_minus = complex(2.0 * math.sin(0.5 * b) ** 2 - math.expm1(a) * math.cos(b),
                            -math.exp(a) * math.sin(b))
        out = (math.log(TWO_PI) - 0.5j * math.pi + 1j * math.pi * u - cmath.log(one_minus)
               - log_gamma(1.0 - u))
        return out if upper else out.conjugate()
    shift = max(0, math.ceil(_SHIFT_THRESHOLD - z.real))
    zs = z + shift
    out = (zs - 0.5) * cmath.log(zs) - zs + 0.5 * math.log(TWO_PI)
    zs2 = zs * zs
    zpow = zs
    # from |z| = 1e13 on every term after the first lies below an ulp of the value,
    # and the powers z^{2n-1} overflow from |z| ~ 2.5e13: sum the first term only
    for b2n, denom in _STIRLING if abs(zs) < 1e13 else _STIRLING[:1]:
        out += b2n / (denom * zpow)
        zpow *= zs2
    for j in range(shift):
        out -= cmath.log(z + j)
    _check_finite(z, out)
    return out


#: Li2(y) = sum_{n>=1} y^n / n^2 for y <= 1/2: after 47 terms the tail is
#: below 2^-48 / 48^2 < 2e-18, under half an ulp of Li2(1/2).
_LI2_INV_SQUARES = tuple(1.0 / (n * n) for n in range(47, 0, -1))
_PI2_6 = math.pi ** 2 / 6.0
#: Smallest positive double: keeps log(1 - x) finite at x = 1, where the log x
#: factor it multiplies is exactly zero.
_TINY = math.ulp(0.0)


def _li2(x: np.ndarray) -> np.ndarray:
    """Li2 on [0, 1], elementwise: the series in y <= 1/2 by Horner's rule.

    Direct series for x <= 1/2; Euler reflection
    Li2(x) = pi^2/6 - log x log(1-x) - Li2(1-x) otherwise, with the log
    product taken as 0 at x = 1.  No argument check, no warnings on [0, 1].
    1 - x is exact for x >= 1/2, so log(1 - x) needs no log1p.
    Li2(0) = 0 and Li2(1) = pi^2/6 exactly; absolute error is below 1e-15
    on the whole interval.
    """
    import numpy as np

    refl = x > 0.5
    y = np.where(refl, 1.0 - x, x)
    acc = np.full_like(y, _LI2_INV_SQUARES[0])
    for c in _LI2_INV_SQUARES[1:]:
        acc *= y
        acc += c
    series = acc * y
    logs = np.log(np.maximum(x, 0.5)) * np.log(np.maximum(y, _TINY))
    return np.where(refl, _PI2_6 - logs - series, series)


def _dilog_exp(t: np.ndarray) -> np.ndarray:
    """Li2(e^{-2 pi t}) for an array t >= 0 in one vectorised pass.

    The remainder-kernel factor; t = 0 gives pi^2/6 exactly.
    """
    import numpy as np

    return _li2(np.exp(-TWO_PI * t))


# ----------------------------------------------------------------------
# Exponential integral E1
# ----------------------------------------------------------------------

def _ein_tables(r_max: int, tol: float) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Ein's Horner coefficients and term counts, from running products.

    Returns (c_{M-1}, ..., c_1), c_k = (-1)^{k+1}/(k k!), and K(r) for r = 0 .. r_max:
    the smallest K > r whose term r^K/(K K!) is below tol, the first one omitted, and
    M = K(r_max).  K(r) is monotone in r, so one pointer serves every r.
    """
    mags = [0.0]  # mags[k] = 1/(k k!) for k = 1 .. M
    inv_fact = 1.0
    k = 0
    while k <= r_max or float(r_max) ** k * mags[k] >= tol:
        k += 1
        inv_fact /= k
        mags.append(inv_fact / k)
    counts = []
    omitted = 1
    for r in range(r_max + 1):
        omitted = max(omitted, r + 1)
        while float(r) ** omitted * mags[omitted] >= tol:
            omitted += 1
        counts.append(omitted)
    coeffs = tuple(mags[j] if j % 2 else -mags[j] for j in range(k - 1, 0, -1))
    return coeffs, tuple(counts)


#: Ein is summed by Horner's rule for |w| <= _EIN_MAX; past it E1 near the negative
#: axis takes _e1_scaled_continued's asymptotic branch.
_EIN_MAX = 40
_EIN_COEFFS, _EIN_TERMS = _ein_tables(_EIN_MAX, 1e-18)


def _ein(w: complex) -> complex:
    """Entire part: Ein(w) = sum_{k>=1} (-1)^{k+1} w^k / (k k!), for |w| <= 40.

    A fixed-length Horner kernel over the tabulated polynomial (_ein_tables):
    the terms k < K(ceil |w|), 138 at most.  The first omitted term is below
    1e-18, and the ones after it shrink by a factor below 0.3 each; no term
    exceeds e^40, so nothing overflows.
    """
    acc = 0.0 + 0.0j
    # c_{K-1}, ..., c_1: the last K - 1 entries of the table
    for c in _EIN_COEFFS[len(_EIN_COEFFS) + 1 - _EIN_TERMS[math.ceil(abs(w))]:]:
        acc = acc * w + c
    return acc * w


def _e1_lentz_scaled(w: complex) -> complex:
    """Modified Lentz iteration for e^{w} E1(w) (the scaled continued fraction)."""
    tiny = 1e-300
    b = w + 1.0
    d = 1.0 / b if b != 0 else complex(1e308)
    c = complex(1e308)
    h = d
    for i in range(1, _LENTZ_MAX_STEPS):
        a = -float(i * i)
        b = b + 2.0
        d = b + a * d
        if d == 0:
            d = complex(tiny)
        c = b + a / c
        if c == 0:
            c = complex(tiny)
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise AccuracyError("continued fraction for E1 did not converge")


def exp_integral_e1(w: complex) -> complex:
    """Principal-branch exponential integral E1(w) = Gamma(0, w), as e^{-w} h
    (_e1_continued); relative error <= 1e-12 for |w| >= 0.1.  RangeError when
    the value is not finite in binary64 (from about Re w = -709 - log|w|).
    """
    w = _check_sector(w)
    value = _e1_continued(w, math.atan2(w.imag, w.real))[0]
    _check_finite(w, value)
    return value


def _e1_continued(w: complex, arg_w: float) -> tuple[complex, float]:
    """E1 = e^{-w} h on the branch reached by arg w = arg_w (may exceed +-pi), with h
    and the relative error estimate from _e1_scaled_continued.  Where e^{-w}
    overflows (Re w < -709) E1 may still fit: it is exp(log h - w), and RangeError
    where that overflows too.
    """
    h, rel = _e1_scaled_continued(w, arg_w)
    try:
        return h * cmath.exp(-w), rel  # finite: |h| ~ 1/|w| where e^{-w} nears overflow
    except OverflowError:  # e^{-w} beyond binary64
        try:
            return cmath.exp(cmath.log(h) - w), rel
        except OverflowError:
            raise RangeError(f"E1 is not finite in binary64 at {w}") from None


def _e1_scaled_continued(w: complex, arg_w: float) -> tuple[complex, float]:
    """The one E1 kernel: h = e^{w} E1(w) on the branch reached by arg_w, overflow-safe
    for Re w << 0.  Returns (value, relative error estimate).

    The principal value comes from one region rule, spread = |w|(1 + cos arg w):

      * |w| <= 4, or |w| <= _EIN_MAX = 40 with spread <= 7: e^{w} times
        Ein(w) - gamma - log w, whose series cancels like e^{spread};
      * else |w| <= 32 or |arg w| <= 3 pi/4: the scaled Lentz iterate;
      * else: the asymptotic series at w, truncated near its smallest term, with
        relative error 8 eps + |w|^{3/2} e^{-|w|}.  The Stokes term it leaves out,
        2 pi i T_p(w) e^{w} at p ~ |w|, is of the size of the smallest term, at most
        about pi |w| e^{-|w|} relative to h ~ 1/w, so the estimate covers it from
        |w| = pi^2 on; against mpmath at 32 < |w| <= 700 the error stays below half
        of it.

    Continuation across the cut only shifts log w in E1: each winding of arg_w
    subtracts 2 pi i e^{w}, once, from the principal value.
    """
    w = complex(w)
    ph = math.atan2(w.imag, w.real)
    abs_w = abs(w)
    spread = abs_w * (1.0 + math.cos(ph))
    if abs_w <= 4.0 or (abs_w <= _EIN_MAX and spread <= 7.0):
        h = cmath.exp(w) * (_ein(w) - EULER_GAMMA - cmath.log(w))
        rel = 4.0 * EPS * max(4.0, math.exp(spread) / max(1.0, math.sqrt(abs_w)))
    elif abs_w <= 32.0 or abs(ph) <= 0.75 * math.pi:
        h, rel = _e1_lentz_scaled(w), 1e-12 if abs_w <= 32.0 else 1e-13
    else:
        h = 0.0 + 0.0j
        term = 1.0 / w
        j = 0
        while True:
            h += term
            term *= -(j + 1) / w
            j += 1
            # <=, not <: EPS |h| underflows to 0 for |w| > 9e307, and a zero term must stop
            if abs(term) <= EPS * abs(h) or j > abs_w - 2:
                break
        decay = math.exp(-abs_w)  # 0 from |w| ~ 745; |w|^{3/2} overflows from |w| ~ 1e205
        rel = 8 * EPS + (abs_w ** 1.5 * decay if decay else 0.0)
    windings = round((arg_w - ph) / TWO_PI)
    if windings:
        h -= 2j * math.pi * windings * cmath.exp(w)
    return h, rel


# ----------------------------------------------------------------------
# Error function for small complex argument
# ----------------------------------------------------------------------

def erf_small(zeta: complex) -> complex:
    """erf(zeta) for |zeta| <= 4.

    Maclaurin series where its cancellation, about e^{2 (Re zeta)^2}, is
    harmless (|zeta| <= 2.5 or |Re zeta| <= 1.5); elsewhere 1 - erfc(zeta)
    from Laplace's continued fraction for Re zeta > 1.5 and oddness for
    Re zeta < -1.5.  Measured against mpmath the error stays below
    1e-14 max(1, |erf|).
    """
    zeta = complex(zeta)
    try:
        a = abs(zeta)
    except OverflowError:  # |zeta| beyond binary64
        a = math.inf
    if not a <= 4.0:  # NaN fails too
        raise RangeError("erf_small: |zeta| must be <= 4 (callers saturate outside)")
    if a <= 2.5 or abs(zeta.real) <= 1.5:
        total = zeta
        term = zeta
        mz2 = -zeta * zeta
        n = 0
        while True:
            n += 1
            term *= mz2 / n
            add = term / (2 * n + 1)
            total += add
            # stop once |add| <= 2^-53 |sum| (<=: at zeta = 0 all are 0); |sum| < 2^21
            # on this disc, so that needs |add| < 2^-32, and only then is |sum| formed
            size = abs(add)
            if size < 2.0 ** -32 and size <= 0.5 * EPS * abs(total):
                break
        return 2.0 / math.sqrt(math.pi) * total
    if zeta.real < 0.0:
        return -erf_small(-zeta)
    return 1.0 - cmath.exp(-zeta * zeta) * _erfc_lentz_scaled(zeta) / math.sqrt(math.pi)


def _erfc_lentz_scaled(z: complex) -> complex:
    """Modified Lentz iteration for sqrt(pi) e^{z^2} erfc(z), Re z > 0: the even part of
    Laplace's continued fraction (DLMF 7.9.2), 2z/(2z^2+1 - 1*2/(2z^2+5 - 3*4/(2z^2+9 - ...)))."""
    b = 2.0 * z * z + 1.0
    d = 1.0 / b
    c = complex(1e308)
    h = d
    for i in range(1, _LENTZ_MAX_STEPS):
        a = -float((2 * i - 1) * (2 * i))
        b = b + 4.0
        d = 1.0 / (b + a * d)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 2.0 * EPS:
            return 2.0 * z * h
    raise AccuracyError("continued fraction for erfc did not converge")
