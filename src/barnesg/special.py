"""Special-function kernels: log Gamma, dilogarithm, E1, erf, and the
Stokes-geometry function c(phi).  All are scalar except the dilogarithm,
whose kernel evaluates a whole array of quadrature nodes in one pass.

These are the only transcendental building blocks the rest of the library
needs.  Each has a small validity region chosen for the arguments the
expansion machinery actually produces, and each is cross-checked in the test
suite against an independent oracle (series, quadrature, or scipy).

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
#: log_gamma's truncation error, an absolute bound on the Stirling remainder after those
#: 12 terms at Re z >= 9: the first omitted term is at most 3.1e-21 there, and the
#: half-angle factor sec^26(arg z / 2) below 2^13 (Nemes, Proc. Roy. Soc. Edinburgh A 145, 2015).
_STIRLING_TAIL = 3e-17
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

def _ein(w: complex) -> complex:
    """Entire part: Ein(w) = sum_{k>=1} (-1)^{k+1} w^k / (k k!).

    Summed in two phases split at the peak k ~ |w|, with no fixed cap (near
    the negative axis the sum needs about |w| + 9 sqrt(|w|) terms):

      * k <= |w|: the terms grow, so the only test is for a term that is not
        finite; the caller turns that overflow into its log-form fallback;
      * k > |w|: |w/k| < 1, so the terms only shrink, and the sum stops once
        a term falls below 1e-18 max(1, |sum|).  A term can turn infinite
        here only when the peak's modulus already passed binary64 with
        finite parts; the comparison |term| < inf stops on it.
    """
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    k = 1
    aw = abs(w)
    while k <= aw:  # up to the peak
        term *= w / k
        add = term / k if (k % 2) else -term / k
        total += add
        if not cmath.isfinite(add):
            return total
        k += 1
    while True:  # past the peak
        term *= w / k
        add = term / k if (k % 2) else -term / k
        total += add
        size = abs(add)
        # size < 1e-18 max(1, |total|) without forming |total| while size < 1e-18
        if size < 1e-18 or size < 1e-18 * abs(total) or not size < math.inf:
            return total
        k += 1


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
    """Principal-branch exponential integral E1(w) = Gamma(0, w).

    Power series in the small/cancellation-free region, modified Lentz
    continued fraction elsewhere; relative error <= 1e-12 for |w| >= 0.1.
    Where e^{-w} or the series terms overflow (Re w < -709), E1 is formed as
    exp(-w + log(e^{w} E1(w))).  RangeError when the value is not finite in
    binary64.
    """
    w = _check_sector(w)
    arg_w = math.atan2(w.imag, w.real)
    try:
        value = _e1_continued(w, arg_w)[0]
    except OverflowError:  # e^{-w} beyond binary64
        value = complex(math.nan)
    if not cmath.isfinite(value):  # e^{-w} or the series terms overflowed: E1 may still fit
        try:
            value = cmath.exp(cmath.log(_e1_scaled_continued(w, arg_w)[0]) - w)
        except OverflowError:
            raise RangeError(f"E1 is not finite in binary64 at {w}") from None
    _check_finite(w, value)
    return value


def _e1_continued(w: complex, arg_w: float) -> tuple[complex, float]:
    """E1 on the branch reached by arg w = arg_w (may exceed +-pi).

    Returns (value, relative error estimate).  Continuation across the cut
    only shifts the logarithm: each full winding subtracts 2*pi*i.
    """
    w = complex(w)
    ph = math.atan2(w.imag, w.real)
    windings = round((arg_w - ph) / TWO_PI)
    # The power series cancels like e^{|w|(1 + cos arg w)}.  It is safe where that
    # stays small: small |w| and the whole neighbourhood of the negative real axis,
    # where the continued fraction converges poorly.
    spread = abs(w) * (1.0 + math.cos(ph))
    if abs(w) <= 4.0 or spread <= 7.0:
        val = _ein(w) - EULER_GAMMA - cmath.log(w)
        cancel = math.exp(min(42.0, spread))
        rel = 4.0 * EPS * max(4.0, cancel / max(1.0, math.sqrt(abs(w))))
    else:
        val = _e1_lentz_scaled(w) * cmath.exp(-w)
        rel = 1e-12  # continued-fraction plateau near the cut
    return val - 2j * math.pi * windings, rel


def _e1_scaled_continued(w: complex, arg_w: float) -> tuple[complex, float]:
    """e^{w} E1(w) on the continued branch, overflow-safe for Re w << 0.

    Returns (value, relative error estimate).  Three regions:

      * |w| <= 32: the unscaled evaluation times e^{w} (all representable);
      * |w| > 32 away from the negative axis: the scaled Lentz iterate;
      * |w| > 32 near the negative axis: the optimally truncated asymptotic
        series plus the Stokes-switching remainder, which equals
        -2 pi i e^{w} T, approximated by its error-function form.  The
        combined relative error is O(|w|^{3/2} e^{-|w|}).
    """
    w = complex(w)
    ph = math.atan2(w.imag, w.real)
    windings = round((arg_w - ph) / TWO_PI)
    if abs(w) <= 32.0:
        val, rel = _e1_continued(w, arg_w)
        return cmath.exp(w) * val, rel
    if abs(ph) <= 0.75 * math.pi:
        h = _e1_lentz_scaled(w)
        if windings:
            h -= 2j * math.pi * windings * cmath.exp(w)
        return h, 1e-13
    if ph < 0:
        val, rel = _e1_scaled_continued(w.conjugate(), -arg_w)
        return val.conjugate(), rel
    # |w| > 32 with arg in (3 pi/4, pi]: truncate the series near its
    # smallest term and switch the exponentially small remainder on smoothly
    total = 0.0 + 0.0j
    term = 1.0 / w
    j = 0
    while True:
        total += term
        term *= -(j + 1) / w
        j += 1
        # <=, not <: EPS |total| underflows to 0 for |w| > 9e307, and a zero term must stop
        if abs(term) <= EPS * abs(total) or j > abs(w) - 2:
            break
    ew = cmath.exp(w)  # Re w < 0 here
    total -= 2j * math.pi * _erf_switch(ph - math.pi, abs(w)) * ew
    if windings:
        total -= 2j * math.pi * windings * ew
    decay = math.exp(-abs(w))  # 0 from |w| ~ 745; |w|^{3/2} overflows from |w| ~ 1e205
    return total, 8 * EPS + (abs(w) ** 1.5 * decay if decay else 0.0)


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
        n = 0
        while True:
            n += 1
            term *= -zeta * zeta / n
            add = term / (2 * n + 1)
            total += add
            if abs(add) < 1e-18:
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


def _erf_switch(u: float, abs_w: float) -> complex:
    """Smoothed Stokes switch 1/2 + 1/2 erf(zeta), zeta = c(phi) sqrt(|w|/2), taken at
    u = phi - pi; the erf saturates to sign(Re zeta) outside the disc |zeta| <= 4."""
    zeta = _c_branch(u) * math.sqrt(0.5 * abs_w)
    erf = complex(math.copysign(1.0, zeta.real)) if abs(zeta) > 4.0 else erf_small(zeta)
    return 0.5 + 0.5 * erf


# ----------------------------------------------------------------------
# Stokes-geometry function c(phi)
# ----------------------------------------------------------------------

def _c_branch(u: float) -> complex:
    """The transition-zone variable c(phi), taken at u = phi - pi.

    c^2/2 = 1 + i u - e^{i u}, on the branch with c ~ u + (i/6) u^2 near
    u = 0; continuous on |u| < pi because the defining value stays in the
    closed right half-plane, so the principal square root never crosses its
    cut.
    """
    if abs(u) < 1e-3:
        return u + 1j * u * u / 6.0 - u ** 3 / 36.0 - 1j * u ** 4 / 270.0
    root = cmath.sqrt(2.0 * (1.0 + 1j * u - cmath.exp(1j * u)))
    return root if u > 0 else -root
