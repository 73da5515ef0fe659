"""High-accuracy quadrature evaluation of the expansion remainder R_N(z).

Independent of the bound machinery, this module computes R_N(z) from two
integral representations and serves as ground truth for everything else:

  * dilog kernel (|arg z| < pi/2):
        R_N = z^{-2N} (-1)^N/(2 pi^2) int_0^inf t^{2N-1}/(1+(t/z)^2) Li2(e^{-2 pi t}) dt
  * periodized-Bernoulli kernel (|arg z| < pi):
        R_N = -1/(2N(2N+1)) int_0^inf B_{2N+1}(t - floor t) / (t+z)^{2N} dt

The wide kernel's integrand has a pole at t = -z.  Where it lies within 0.7
of the path [0, inf), or the absolute tail target is out of reach at z, the
kernel integrates at w = z + m with Re w >= 1 (m <= 64) instead, and
R_N(z) = R_N(w) + E(z, m) + sum_{n<N} c_n (w^{-2n} - z^{-2n}), where the
bracket E of expansion._shift_bracket, which every log G route shifts by,
needs only logarithms.  So every panel is a unit panel far enough from the
pole, and nothing is refined.  The truncation index is promoted internally
to M = max(N, 8) through the ladder R_N = c_N w^{-2N} + R_{N+1} (restored
exactly from series coefficients), which turns the t^{-2N} tail into
t^{-2M} and keeps the truncation point T small.  So there is one quadrature
per (z, M), shared by every N <= M; it is memoized with the shift and E for
a few recent z, and a hit is bit-identical to a miss.
Neither kernel evaluates a transcendental per node: the periodized
polynomial takes the same values on every unit panel, so it is tabulated
once per order at the Gauss nodes of [0, 1]; the wide truncation point is
solved from its tail bound; and the dilog factor sits at fixed nodes, so it
too is tabulated once on first use.  The test suite keeps further
representations (a nested log kernel, a symmetrized Bernoulli kernel) and
the scanned truncation point as references to compare against.
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
from .expansion import (_prefix, _roundoff, _series, _shift_bracket, _shift_count,
                        sector_factor)
from .quadrature import geometric_breakpoints, integrate_panels, panel_nodes
from .special import _MAX_SHIFT, _dilog_exp

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
#: Most unit panels the wide kernel may take to meet its target.
_MAX_INTERVALS = 64
#: The wide kernel shifts where the pole t = -z lies closer than this to [0, inf).
_POLE_GAP = 0.7


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


def _wide_plan(z: complex, m_eff: int) -> tuple[int, complex, int, float]:
    """remainder_wide's shift m, the point w = z + m it integrates at, and the
    truncation point T and tail bound there.

    m = 0 unless the pole t = -z lies within _POLE_GAP of [0, inf) or the
    absolute tail target is out of reach at z within _MAX_INTERVALS unit
    panels; then m moves z to Re w >= 1 (_shift_count, m <= 64).  AccuracyError
    where the target is out of reach at the point evaluated.
    """
    def cut(x: complex) -> tuple[int | None, float]:
        sec_half = 1.0 / math.cos(0.5 * math.atan2(x.imag, x.real))
        return _wide_t_stop(abs(x), sec_half, m_eff, _TAIL_TARGET), sec_half

    t_stop, sec_half = cut(z)
    gap = abs(z.imag) if z.real <= 0.0 else abs(z)
    m = _shift_count(z, 1.0) if t_stop is None or gap < _POLE_GAP else 0
    w = z + m if m else z  # z + 0 would turn a part -0.0 into +0.0
    if m:
        t_stop, sec_half = cut(w)
    if t_stop is None:
        raise AccuracyError(
            f"wide-kernel tail cannot reach the tolerance within {_MAX_INTERVALS} panels "
            f"at z = {z}, and no shift of at most {_MAX_SHIFT} steps moves it to Re w >= 1")
    max_kernel = DEFAULT_TABLE.max_abs_poly(2 * m_eff + 1)
    return m, w, t_stop, _wide_tail_bound(t_stop, abs(w), sec_half, m_eff, max_kernel)


@lru_cache(maxsize=16)
def _wide_integral(z: complex, signs: tuple[float, float], m_eff: int, order: int
                   ) -> tuple[int, complex, float, complex, float, complex, tuple[complex, ...]]:
    """remainder_wide's N-independent work at a checked z for M = m_eff: _wide_plan's
    m, w and tail bound, int_0^T B_{2M+1}(t - floor t) / (t+w)^{2M} dt and its sum of
    moduli by Gauss-Legendre of this order on the unit panels of [0, T], and E(z, m)
    with its parts (0 and none where m = 0).  Pure in its arguments, so every N <= M
    at one z shares one entry; signs holds the signs of z's parts, because 0.0 == -0.0
    hash alike.  A raised error is not memoized.
    """
    m, w, t_stop, tail = _wide_plan(z, m_eff)
    table = _unit_periodic(2 * m_eff + 1, order)

    def integrand(t: np.ndarray) -> np.ndarray:
        return (table / _power(t + w, 2 * m_eff).reshape(-1, len(table))).ravel()

    with _binary64(z):
        integral, abs_sum = integrate_panels(integrand, range(t_stop + 1), order)
        bracket, parts = _shift_bracket(z, m) if m else (0j, ())
    return m, w, tail, integral, abs_sum, bracket, parts


def remainder_wide(z: complex, n_trunc: int) -> OracleValue:
    """R_N(z) on the full slit plane |arg z| < pi by the periodized-Bernoulli kernel.

    Where the pole t = -z lies within 0.7 of the path [0, inf) (gap |Im z|
    for Re z <= 0, else |z|), or the absolute tail target is out of reach at
    z within 64 unit panels, the quadrature runs at w = z + m with Re w >= 1
    (m <= 64), and

        R_N(z) = R_N(w) + E(z, m) + sum_{n<N} c_n (w^{-2n} - z^{-2n}),

    with the elementary bracket E of expansion._shift_bracket.  The index is
    promoted to M = max(N, 8), so there is one quadrature per (z, M), shared
    by every N <= M through the exact ladder R_N = c_N w^{-2N} + R_{N+1}:
    repeated calls at one z (as `barnesg bounds` and log_barnes_oracle make)
    reuse the memoized quadrature, shift and bracket (_wide_integral), and a
    hit is bit-identical to a miss.  Every panel is a unit panel, on which
    the periodized Bernoulli polynomial is read from its table at the Gauss
    nodes of [0, 1].  T is solved from the analytic tail bound, which is a
    power of T + |w|.  est_error is that bound plus _roundoff of the
    quadrature and ladder, and where shifted of E's parts and the two sums.
    AccuracyError where no shift of at most 64 reaches the target (Re z < -63
    near the cut).
    """
    z = _check_sector(z)
    n_trunc = _check_order(n_trunc, 1, MAX_COEFF, RangeError)
    m_eff = max(n_trunc, 8)
    m, w, tail, integral, abs_sum, bracket, parts = _wide_integral(
        z, (math.copysign(1.0, z.real), math.copysign(1.0, z.imag)), m_eff, _GAUSS_ORDER)
    pref = -1.0 / (2 * m_eff * (2 * m_eff + 1))

    with _binary64(z):
        ladder = _series(w, n_trunc, m_eff)
        value = ladder + pref * integral
        est = tail + _roundoff(abs_sum * abs(pref), ladder)
        if m:
            head_w, head_z = _series(w, 1, n_trunc), _series(z, 1, n_trunc)
            value += bracket + (head_w - head_z)
            est += _roundoff(*parts, head_w, head_z)
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
