"""Scalar special-function kernels: log Gamma, dilogarithm, E1, erf, and the
Stokes-geometry function c(phi).

These are the only transcendental building blocks the rest of the library
needs.  Each has a small validity region chosen for the arguments the
expansion machinery actually produces, and each is cross-checked in the test
suite against an independent oracle (series, quadrature, or scipy).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .bernoulli import DEFAULT_TABLE, EPS, EULER_GAMMA, TWO_PI
from .errors import AccuracyError, DomainError, RangeError
from .quadrature import gauss_nodes

__all__ = [
    "log_gamma",
    "dilog",
    "exp_integral_e1",
    "erf_small",
    "c_of_phi",
]

#: log Gamma shifts z upward until Re z >= 9, then sums 12 Stirling terms
#: B_{2n}/(2n(2n-1) z^{2n-1}); round-off, not truncation, sets the error.
_SHIFT_THRESHOLD = 9.0
_STIRLING_TERMS = 12


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z) on the plane cut along (-inf, 0].

    Upward recurrence shifts z until Re z clears the shift threshold, then
    the Stirling series finishes the job.  Relative error is at the
    round-off level (<= 1e-13) for |z| >= 1.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0:
        raise DomainError("log_gamma: pole or branch cut on the non-positive real axis")
    shift = max(0, math.ceil(_SHIFT_THRESHOLD - z.real))
    zs = z + shift
    out = (zs - 0.5) * cmath.log(zs) - zs + 0.5 * math.log(TWO_PI)
    zs2 = zs * zs
    zpow = zs
    for n in range(1, _STIRLING_TERMS + 1):
        out += DEFAULT_TABLE.number(2 * n) / ((2 * n) * (2 * n - 1) * zpow)
        zpow *= zs2
    for j in range(shift):
        out -= cmath.log(z + j)
    return out


def dilog(x: float) -> float:
    """Real dilogarithm Li2(x) on [0, 1].

    Direct series for x <= 1/2; Euler reflection otherwise.  Absolute error
    is below 1e-14 on the whole interval.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError("dilog: argument must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return math.pi ** 2 / 6.0
    if x > 0.5:
        return math.pi ** 2 / 6.0 - math.log(x) * math.log1p(-x) - dilog(1.0 - x)
    total = 0.0
    power = x
    n = 1
    while True:
        term = power / (n * n)
        total += term
        n += 1
        power *= x
        if power / (n * n) < 1e-17 * total:
            break
    return total


def _dilog_exp(t: np.ndarray) -> np.ndarray:
    """Vectorized Li2(e^{-2 pi t}) for t >= 0 (remainder-kernel helper)."""
    return np.array(
        [dilog(math.exp(-TWO_PI * ti)) if ti > 0 else math.pi ** 2 / 6.0 for ti in t]
    )


# ----------------------------------------------------------------------
# Exponential integral E1
# ----------------------------------------------------------------------

def _ein(w: complex) -> complex:
    """Entire part: Ein(w) = sum_{k>=1} (-1)^{k+1} w^k / (k k!)."""
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    k = 1
    aw = abs(w)
    while k < 900:
        term *= w / k
        add = term / k if (k % 2) else -term / k
        total += add
        if abs(add) < 1e-18 * max(1.0, abs(total)) and k > aw:
            break
        k += 1
    return total


def _e1_lentz_scaled(w: complex, itmax: int = 2000) -> complex:
    """Modified Lentz iteration for e^{w} E1(w) (the scaled continued fraction)."""
    tiny = 1e-300
    b = w + 1.0
    d = 1.0 / b if b != 0 else complex(1e308)
    c = complex(1e308)
    h = d
    for i in range(1, itmax):
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


def _use_series(w: complex) -> bool:
    # The power series is safe where cancellation e^{|w|(1 + cos arg w)} stays
    # small; that covers small |w| and the whole neighbourhood of the negative
    # real axis where the continued fraction converges poorly.
    return abs(w) <= 4.0 or abs(w) * (1.0 + math.cos(cmath.phase(w))) <= 7.0


def exp_integral_e1(w: complex) -> complex:
    """Principal-branch exponential integral E1(w) = Gamma(0, w).

    Power series in the small/cancellation-free region, modified Lentz
    continued fraction elsewhere; relative error <= 1e-12 for |w| >= 0.1.
    """
    w = complex(w)
    if w == 0:
        raise DomainError("E1 has a logarithmic singularity at 0")
    if w.imag == 0.0 and w.real < 0.0:
        raise DomainError("E1: branch cut on the negative real axis")
    return _e1_continued(w, cmath.phase(w))[0]


def _e1_continued(w: complex, arg_w: float) -> tuple[complex, float]:
    """E1 on the branch reached by arg w = arg_w (may exceed +-pi).

    Returns (value, relative error estimate).  Continuation across the cut
    only shifts the logarithm: each full winding subtracts 2*pi*i.
    """
    w = complex(w)
    windings = round((arg_w - cmath.phase(w)) / TWO_PI)
    if _use_series(w):
        val = _ein(w) - EULER_GAMMA - cmath.log(w)
        # series cancellation grows like e^{|w|(1 + cos arg w)}
        cancel = math.exp(min(42.0, abs(w) * (1.0 + math.cos(cmath.phase(w)))))
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
    ph = cmath.phase(w)
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
        if abs(term) < EPS * abs(total) or j > abs(w) - 2:
            break
    ew = cmath.exp(w)  # Re w < 0 here
    switch = 0.5 + 0.5 * _erf_saturated(_c_branch(ph - math.pi) * math.sqrt(0.5 * abs(w)))
    total -= 2j * math.pi * switch * ew
    if windings:
        total -= 2j * math.pi * windings * ew
    return total, 8 * EPS + abs(w) ** 1.5 * math.exp(-abs(w))


# ----------------------------------------------------------------------
# Error function for small complex argument
# ----------------------------------------------------------------------

def erf_small(zeta: complex) -> complex:
    """erf(zeta) for |zeta| <= 4.

    Maclaurin series while cancellation is harmless (|zeta| <= 2.5), then a
    straight-path Gauss rule on the defining integral; accuracy is 1e-12
    absolute where erf is O(1) and ~1 ulp relative where it grows.
    """
    zeta = complex(zeta)
    a = abs(zeta)
    if a > 4.0:
        raise RangeError("erf_small: |zeta| must be <= 4 (callers saturate outside)")
    if a <= 2.5:
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
    x, wts = gauss_nodes(64)
    s = 0.5 * (x + 1.0)
    vals = np.exp(-(s * zeta) ** 2)
    integral = 0.5 * complex(np.sum(wts * vals)) * zeta
    return 2.0 / math.sqrt(math.pi) * integral


def _erf_saturated(zeta: complex) -> complex:
    """erf(zeta) for |zeta| <= 4, saturated to sign(Re zeta) outside that disc."""
    if abs(zeta) > 4.0:
        return complex(math.copysign(1.0, zeta.real))
    return erf_small(zeta)


# ----------------------------------------------------------------------
# Stokes-geometry function c(phi)
# ----------------------------------------------------------------------

def _c_branch(u: float) -> complex:
    """c on the branch with c ~ u + i u^2/6 near u = 0 (u = phi - pi)."""
    if abs(u) < 1e-3:
        return u + 1j * u * u / 6.0 - u ** 3 / 36.0 - 1j * u ** 4 / 270.0
    root = cmath.sqrt(2.0 * (1.0 + 1j * u - cmath.exp(1j * u)))
    return root if u > 0 else -root


def c_of_phi(phi: float) -> complex:
    """The transition-zone variable c(phi) with c^2/2 = 1 + i(phi-pi) - e^{i(phi-pi)}.

    Branch fixed by c(phi) ~ (phi - pi) + (i/6)(phi - pi)^2 near phi = pi;
    continuous on (0, 2 pi) because the defining value stays in the closed
    right half-plane, so the principal square root never crosses its cut.
    """
    if not 0.0 < phi < 2.0 * math.pi:
        raise DomainError("c_of_phi: phi must lie in (0, 2 pi)")
    return _c_branch(phi - math.pi)
