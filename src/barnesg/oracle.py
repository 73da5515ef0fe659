"""High-accuracy quadrature evaluation of the expansion remainder R_N(z).

Independent of the bound machinery, this module computes R_N(z) from two
integral representations and serves as ground truth for everything else:

  * dilog kernel (|arg z| < pi/2):
        R_N = z^{-2N} (-1)^N/(2 pi^2) int_0^inf t^{2N-1}/(1+(t/z)^2) Li2(e^{-2 pi t}) dt
  * periodized-Bernoulli kernel (|arg z| < pi):
        R_N = -1/(2N(2N+1)) int_0^inf B_{2N+1}(t - floor t) / (t+z)^{2N} dt

For the wide-sector kernel the truncation index is promoted internally to
N_eff >= 8 through the ladder R_N = c_N z^{-2N} + R_{N+1} (restored exactly
from series coefficients), which turns the t^{-2N} tail into t^{-2 N_eff}
and keeps the truncation point small.  Neither kernel evaluates a
transcendental per term: the periodized polynomial takes the same values on
every unit panel, so it is tabulated once per order at the Gauss nodes of
[0, 1] and evaluated (Horner form of its Fourier series) only on the
sub-panels refined near the pole; the wide truncation point is solved from
its tail bound; and the dilog factor sits at fixed nodes, so it too is
tabulated once on first use.  The test suite keeps further
representations (a nested log kernel, a symmetrized Bernoulli kernel) and the
scanned truncation point as references to compare against.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .bernoulli import DEFAULT_TABLE, MAX_COEFF, TWO_PI
from .errors import (AccuracyError, DomainError, RangeError, _check_finite, _check_order,
                     _check_sector)
from .expansion import (_first_term_magnitude, _half_angle_factor, _prefix, _roundoff, _series,
                        sector_factor)
from .quadrature import geometric_breakpoints, integrate_panels, panel_nodes
from .special import _dilog_exp

__all__ = [
    "OracleValue",
    "remainder_narrow",
    "remainder_wide",
    "log_barnes_oracle",
]


#: Gauss-Legendre order of every oracle panel.
_GAUSS_ORDER = 32
#: Absolute target for the truncated tail of each remainder integral.
_TAIL_TARGET = 1e-13
#: Most unit panels the wide kernels may take before widening their target.
_MAX_INTERVALS = 64


@dataclass(frozen=True)
class OracleValue:
    """Remainder (or log G) value with an error estimate."""

    value: complex
    est_error: float


@contextmanager
def _binary64(z: complex) -> Iterator[None]:
    """A float overflow, division by zero or invalid result in the block
    (Python or numpy) raises RangeError, not a RuntimeWarning or a bare error."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except (FloatingPointError, OverflowError, ZeroDivisionError):
        raise RangeError(f"the remainder kernel leaves the float range at z = {z}") from None


# the dilog kernel decays like e^{-2 pi t}: unit panels up to
# T = ceil(log(1/target)/(2 pi) + 2), graded toward t = 0 below 1
_NARROW_T_STOP = float(math.ceil(max(4.0, math.log(1.0 / _TAIL_TARGET) / TWO_PI + 2.0)))
_NARROW_BREAKS = tuple(geometric_breakpoints()) + tuple(
    float(m) for m in range(2, int(_NARROW_T_STOP) + 1))


@lru_cache(maxsize=1)
def _narrow_dilog() -> np.ndarray:
    """Li2(e^{-2 pi t}) at every node of the narrow kernel, computed on first use.

    The nodes are fixed and fit in one integrate_panels chunk, so the
    integrand receives exactly these nodes on every call.
    """
    return _dilog_exp(panel_nodes(_NARROW_BREAKS, _GAUSS_ORDER))


def _narrow_tail_bound(t_stop: float, n_trunc: int, ell: float) -> float:
    """Tail of int_T^inf t^{2N-1} e^{-2 pi t} dt times the kernel prefactors."""
    k = 2 * n_trunc
    x = TWO_PI * t_stop
    partial = sum(x ** j / math.factorial(j) for j in range(k))
    gamma_tail = math.factorial(k - 1) * math.exp(-x) * partial / TWO_PI ** k
    return ell * (math.pi ** 2 / 6.0) * gamma_tail / (2.0 * math.pi ** 2)


def remainder_narrow(z: complex, n_trunc: int) -> OracleValue:
    """R_N(z) by the dilog-kernel quadrature; |arg z| < pi/2 only.

    The Li2(e^{-2 pi t}) factor decays like e^{-2 pi t}, so truncation at
    T ~ log(1/1e-13)/(2 pi) + 2 leaves an explicitly bounded tail.  The
    nodes do not depend on z or N, so that factor is tabulated once.
    """
    z = _check_sector(z)
    if abs(math.atan2(z.imag, z.real)) >= 0.5 * math.pi:
        raise DomainError("this kernel requires |arg z| < pi/2 strictly")
    n_trunc = _check_order(n_trunc, 1)
    k = 2 * n_trunc

    def integrand(t: np.ndarray) -> np.ndarray:
        return t ** (2 * n_trunc - 1) / (1.0 + (t / z) ** 2) * _narrow_dilog()

    with _binary64(z):
        pref = (-1) ** n_trunc / (2.0 * math.pi ** 2 * z ** k)
        ell = sector_factor(math.atan2(z.imag, z.real))
        tail = _narrow_tail_bound(_NARROW_T_STOP, n_trunc, ell) / abs(z) ** k
        integral, abs_sum = integrate_panels(integrand, _NARROW_BREAKS, _GAUSS_ORDER)
        value = pref * integral
    est = tail + _roundoff(abs_sum * abs(pref))
    _check_finite(z, value, est)
    return OracleValue(value=value, est_error=est)


# ----------------------------------------------------------------------
# Wide-sector kernel
# ----------------------------------------------------------------------

def _wide_tail_bound(t_stop: float, abs_z: float, sec_half: float, m_eff: int,
                     max_kernel: float) -> float:
    """Analytic bound on the neglected tail of the wide-kernel integral; max_kernel is
    DEFAULT_TABLE.max_abs_poly(2 m_eff + 1), which the caller forms once per m_eff."""
    order = 2 * m_eff
    pref = 1.0 / (2 * m_eff * (2 * m_eff + 1))
    integral_tail = (t_stop + abs_z) ** (1 - order) / (order - 1)
    try:
        return pref * max_kernel * sec_half ** order * integral_tail
    except OverflowError:  # sec^order(theta/2) near the cut
        return math.inf


def _wide_t_stop(abs_z: float, sec_half: float, m_eff: int, target: float) -> int | None:
    """The first t in 2 .. _MAX_INTERVALS with _wide_tail_bound(t) <= target, or None.

    The bound is C (t + |z|)^{1 - 2 m_eff} and falls as t grows, so t is
    solved from the logarithm of C / target (the power itself overflows) and
    then settled with the bound's own test, stepping down while the previous
    t passes or up while this one fails.
    """
    order = 2 * m_eff
    max_kernel = DEFAULT_TABLE.max_abs_poly(order + 1)
    log_c = (math.log(max_kernel / (order * (order + 1) * (order - 1)))
             + order * math.log(sec_half))
    log_target = math.log(target) if target > 0.0 else -math.inf
    reach = math.exp(min((log_c - log_target) / (order - 1), 709.0)) - abs_z
    t = max(2, math.ceil(min(reach, _MAX_INTERVALS)))

    def passes(u: int) -> bool:
        return _wide_tail_bound(u, abs_z, sec_half, m_eff, max_kernel) <= target

    if passes(t):
        while t > 2 and passes(t - 1):
            t -= 1
        return t
    return next((u for u in range(t + 1, _MAX_INTERVALS + 1) if passes(u)), None)


def _pole_gap(pole: complex, a: float, b: float) -> float:
    """Distance from the pole to the segment [a, b] of the real axis."""
    if pole.real < a:
        return abs(complex(a, 0) - pole)
    if pole.real > b:
        return abs(complex(b, 0) - pole)
    return abs(pole.imag)


def _wide_breakpoints(t_stop: int, z: complex) -> list[float]:
    """Unit panels on [0, T], refined near the pole at t = -z when it matters.

    Only a panel [m, m+1] within 0.27 of the pole is refined, so only the
    panels with |m - floor(Re(-z))| <= 2 (one panel's margin on each side)
    are tested; the unit runs before and after them are built as ranges.
    """
    pole = -z
    if _pole_gap(pole, 0.0, float(t_stop)) >= 0.27:  # no panel is refined
        return [float(m) for m in range(t_stop + 1)]
    near = math.floor(pole.real)
    lo = min(max(near - 2, 0), t_stop)
    hi = max(min(near + 3, t_stop), lo)
    pts = [float(m) for m in range(lo + 1)]
    for m in range(lo, hi):
        a, b = float(m), float(m + 1)
        dist = _pole_gap(pole, a, b)
        # keep sub-panel half-length below ~1.9 x distance to the pole
        splits = 1 if dist >= 0.27 else min(256, int(math.ceil(0.275 / max(dist, 1e-3))))
        for j in range(1, splits + 1):
            pts.append(a + (b - a) * j / splits)
    pts += [float(m) for m in range(hi + 1, t_stop + 1)]
    return pts


@lru_cache(maxsize=None)
def _unit_periodic(n: int, order: int) -> np.ndarray:
    """B_n(t - floor t) at the Gauss nodes of [0, 1], computed on first use.

    The factor is 1-periodic, so these are its values at the nodes of every
    unit panel [m, m+1] (up to the rounding of the nodes themselves).
    """
    return DEFAULT_TABLE.poly_periodic(n, panel_nodes([0.0, 1.0], order))


def _power(w: np.ndarray, e: int) -> np.ndarray:
    """w**e for an integer e >= 1 by binary powering: faster than numpy's complex
    power, and closer to the exact power on the oracle's nodes."""
    result = None
    while True:
        if e & 1:
            result = w if result is None else result * w
        e >>= 1
        if not e:
            return result
        w = w * w


def _wide_truncation(z: complex, n_trunc: int) -> tuple[int, int, float]:
    """remainder_wide's promotion index M, truncation point T and tail bound at (z, N).

    M is max(N, 8), raised in steps of 2 up to 16 while no truncation point
    meets the absolute, then the relative target; AccuracyError if none does.
    """
    theta = math.atan2(z.imag, z.real)
    abs_z = abs(z)
    sec_half = 1.0 / math.cos(0.5 * theta)
    # the half-angle bound on |R_N| sets the relative fallback target; it is checked even
    # where the absolute target is met, so off binary64 it raises RangeError either way
    rn_est = _half_angle_factor(theta, n_trunc) * _first_term_magnitude(z, n_trunc)
    if rn_est == math.inf:
        raise RangeError(f"the half-angle bound on R_{n_trunc} overflows at z = {z}")
    for m_eff in (*range(max(n_trunc, 8), 16, 2), max(n_trunc, 16)):
        t_stop = _wide_t_stop(abs_z, sec_half, m_eff, _TAIL_TARGET)
        if t_stop is None:
            t_stop = _wide_t_stop(abs_z, sec_half, m_eff, 1e-4 * rn_est)
        if t_stop is not None:
            max_kernel = DEFAULT_TABLE.max_abs_poly(2 * m_eff + 1)
            return m_eff, t_stop, _wide_tail_bound(t_stop, abs_z, sec_half, m_eff, max_kernel)
    raise AccuracyError(
        f"wide-kernel tail cannot reach the tolerance within {_MAX_INTERVALS} panels "
        f"(arg z = {theta:.4f} is too close to the cut)"
    )


def remainder_wide(z: complex, n_trunc: int) -> OracleValue:
    """R_N(z) on the full slit plane |arg z| < pi by the periodized-Bernoulli kernel.

    The requested index is promoted to N_eff >= 8 via the exact ladder.  On
    the unit panels the periodized Bernoulli polynomial is read from its
    table at the Gauss nodes of [0, 1]; on the sub-panels refined near the
    pole it is evaluated per node through its Fourier series in Horner form
    (absolute error ~1e-14 of its amplitude at these orders).  The
    truncation point is solved from the analytic tail bound, which is a
    power of T + |z|; if the absolute target is out of reach within 64 unit
    panels the target falls back to 1e-4 relative to the half-angle bound on
    |R_N|, and failing that the promotion index is escalated before
    reporting an accuracy failure.
    """
    z = _check_sector(z)
    n_trunc = _check_order(n_trunc, 1, MAX_COEFF, RangeError)
    m_eff, t_stop, tail = _wide_truncation(z, n_trunc)
    n_poly, power = 2 * m_eff + 1, 2 * m_eff
    table = _unit_periodic(n_poly, _GAUSS_ORDER)

    def unit_integrand(t: np.ndarray) -> np.ndarray:
        return (table / _power(t + z, power).reshape(-1, len(table))).ravel()

    def refined_integrand(t: np.ndarray) -> np.ndarray:
        return DEFAULT_TABLE.poly_periodic(n_poly, t) / _power(t + z, power)

    # the refined sub-panels, if any, form one run breaks[lo:hi + 1] between
    # two runs of unit panels
    breaks = _wide_breakpoints(t_stop, z)
    lo = hi = t_stop
    if len(breaks) > t_stop + 1:
        fine = np.flatnonzero(np.diff(breaks) < 1.0)
        lo, hi = int(fine[0]), int(fine[-1]) + 1
    runs = ((breaks[:lo + 1], unit_integrand), (breaks[lo:hi + 1], refined_integrand),
            (breaks[hi:], unit_integrand))
    pref = -1.0 / (power * n_poly)

    with _binary64(z):
        integral, abs_sum = 0.0j, 0.0
        for bp, integrand in runs:
            if len(bp) > 1:
                part, part_abs = integrate_panels(integrand, bp, _GAUSS_ORDER)
                integral += part
                abs_sum += part_abs
        remainder_eff = pref * integral
        # exact ladder restoration back down to the requested index
        ladder = _series(z, n_trunc, m_eff)
        value = ladder + remainder_eff
    est = tail + _roundoff(abs_sum * abs(pref), ladder)
    _check_finite(z, value, est)
    return OracleValue(value=value, est_error=est)


def log_barnes_oracle(z: complex) -> OracleValue:
    """log G(z+1) to quadrature accuracy: truncated expansion plus oracle remainder.

    est_error is remainder_wide's estimate plus _roundoff of the prefix's terms
    and of the remainder.
    """
    z = _check_sector(z)
    rem = remainder_wide(z, 1)
    prefix, terms = _prefix(z)
    return OracleValue(value=prefix + rem.value,
                       est_error=rem.est_error + _roundoff(*terms, rem.value))
