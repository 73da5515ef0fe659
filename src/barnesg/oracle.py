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
t^{-2M} and keeps the truncation point T small.  The wide truncation point is
the first unit panel count whose tail bound meets the target, found by bisection.

Each quadrature is one z-dependent array and one dot product against weights
that hold everything else and are tabulated once, on first use:
  * narrow: the 864 nodes are fixed, so the weights are Gauss weight times
    panel half-width times Li2(e^{-2 pi t}) times t^{2N-1}, one row per
    N = 1..8 (_narrow_weights; a larger N forms its one row on a miss); the
    array is 1/(1 + (t/z)^2);
  * wide: the periodized polynomial takes the same values on every unit
    panel, so the weights are half the Gauss weight times B_{2M+1} at the
    nodes of [0, 1], one vector per (M, order) (_unit_weights); the array is
    1/(t+w)^{2M} on the unit panels of [0, T].
Memoized, for a few recent z and keyed by z with the signs of its parts: the
narrow integrals and sums of moduli of N = 1..8 in one entry per z, and of a
larger N in one of its own (_narrow_integral); and the wide plan (shift, T,
tail bound), integral, sum of moduli and E in one entry per (z, M), shared by
every N <= M (_wide_integral).  An entry holds Python scalars only, so a hit
does no numpy work and enters no np.errstate, and a hit is bit-identical to a
miss.
The test suite keeps further representations (a nested log kernel, a
symmetrized Bernoulli kernel, both integrands evaluated at every node by
integrate_panels) and the scanned truncation point as references to compare
against.
"""

from __future__ import annotations

import bisect
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
from .quadrature import geometric_breakpoints, panel_nodes, panel_weights
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


def _range_error(z: complex) -> RangeError:
    """The error of a kernel whose arithmetic left binary64 at z."""
    return RangeError(f"the remainder kernel leaves the float range at z = {z}")


@contextmanager
def _binary64(z: complex) -> Iterator[None]:
    """Array work: a float overflow, division by zero or invalid result in the block
    raises RangeError, not a RuntimeWarning or a bare error.  Scalar arithmetic
    catches ArithmeticError itself, so a memo hit enters no np.errstate."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except ArithmeticError:
        raise _range_error(z) from None


# the dilog kernel decays like e^{-2 pi t}: unit panels up to
# T = ceil(log(1/target)/(2 pi) + 2), graded toward t = 0 below 1
_NARROW_T_STOP = float(math.ceil(max(4.0, math.log(1.0 / _TAIL_TARGET) / TWO_PI + 2.0)))
_NARROW_BREAKS = tuple(geometric_breakpoints()) + tuple(
    float(m) for m in range(2, int(_NARROW_T_STOP) + 1))
#: remainder_narrow's orders N <= _NARROW_ROWS share one memo entry per z.
_NARROW_ROWS = 8


@lru_cache(maxsize=None)
def _narrow_weights(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The narrow kernel's nodes t_j, its weights W_j = (panel half-width) (Gauss weight)
    Li2(e^{-2 pi t_j}) and the rows W_j t_j^{2N-1} for N = 1 .. _NARROW_ROWS: all of
    the quadrature but 1/(1 + (t/z)^2), computed on first use."""
    t = panel_nodes(_NARROW_BREAKS, order)
    weights = panel_weights(_NARROW_BREAKS, order) * _dilog_exp(t)
    return t, weights, weights * t ** np.arange(1.0, 2 * _NARROW_ROWS, 2.0)[:, None]


@lru_cache(maxsize=16)
def _narrow_integral(z: complex, signs: tuple[float, float], m_eff: int, order: int
                     ) -> tuple[tuple[complex, float], ...]:
    """int_0^T t^{2N-1} Li2(e^{-2 pi t}) / (1 + (t/z)^2) dt and its sum of moduli, by
    Gauss-Legendre of this order on the narrow panels, for N = 1 .. _NARROW_ROWS where
    m_eff = _NARROW_ROWS and for N = m_eff alone where it is larger: one array
    1/(1 + (t/z)^2), and the rows times its parts and its moduli (matrix-vector
    products; a matrix-matrix product raised the peak RSS).  The entry keeps only
    these Python scalars.  signs holds the signs of z's parts, which 0.0 == -0.0 hash
    alike.  A raised error is not memoized."""
    t, weights, rows = _narrow_weights(order)
    with _binary64(z):
        if m_eff > _NARROW_ROWS:
            rows = (weights * t ** (2 * m_eff - 1))[None, :]
        g = 1.0 / (1.0 + t * t * (1.0 / (z * z)))
        sums = [(rows @ part).tolist() for part in (g.real, g.imag, np.abs(g))]
    return tuple((complex(re, im), ab) for re, im, ab in zip(*sums))


def _narrow_tail_bound(t_stop: float, n_trunc: int, ell: float) -> float:
    """Tail of int_T^inf t^{2N-1} e^{-2 pi t} dt times the kernel prefactors.

    The tail integral is Gamma(2N, x)/(2 pi)^{2N} = sum_{j<2N} (2N-1)!/j! x^j e^{-x}/(2 pi)^{2N},
    x = 2 pi T, summed from its last term down by t_{j-1} = t_j j/x, so no factorial
    or power leaves binary64 unless the tail itself does (OverflowError then).
    """
    k = 2 * n_trunc
    x = TWO_PI * t_stop
    term = math.exp((k - 1) * math.log(x) - x - k * math.log(TWO_PI))
    gamma_tail = term
    for j in range(k - 1, 0, -1):
        term *= j / x
        gamma_tail += term
    return ell * (math.pi ** 2 / 6.0) * gamma_tail / (2.0 * math.pi ** 2)


def remainder_narrow(z: complex, n_trunc: int) -> OracleValue:
    """R_N(z) by the dilog-kernel quadrature; |arg z| < pi/2 only.

    The Li2(e^{-2 pi t}) factor decays like e^{-2 pi t}, so truncation at
    T ~ log(1/1e-13)/(2 pi) + 2 leaves an explicitly bounded tail.  The
    nodes do not depend on z or N, so everything but 1/(1 + (t/z)^2) is
    folded into tabulated weights, and the integrals of N = 1..8 at one z
    come from one memoized pass (_narrow_integral); a hit is bit-identical
    to a miss.  est_error is the tail bound plus _roundoff of the quadrature;
    it has no discretisation term.
    """
    z = _check_sector(z)
    theta = math.atan2(z.imag, z.real)
    if abs(theta) >= 0.5 * math.pi:
        raise DomainError("this kernel requires |arg z| < pi/2 strictly")
    n_trunc = _check_order(n_trunc, 1)
    k = 2 * n_trunc
    try:
        pref = (-1) ** n_trunc / (2.0 * math.pi ** 2 * z ** k)
        tail = _narrow_tail_bound(_NARROW_T_STOP, n_trunc, sector_factor(theta)) / abs(z) ** k
        sums = _narrow_integral(z, (math.copysign(1.0, z.real), math.copysign(1.0, z.imag)),
                                max(n_trunc, _NARROW_ROWS), _GAUSS_ORDER)
        integral, abs_sum = sums[n_trunc - 1] if n_trunc <= _NARROW_ROWS else sums[0]
        value = pref * integral
        est = tail + _roundoff(abs_sum * abs(pref))
    except ArithmeticError:
        raise _range_error(z) from None
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

    The bound is C (t + |z|)^{1 - 2 m_eff} and falls as t grows, so the test
    bound <= target is false and then true along the range: bisection finds t.
    """
    max_kernel = DEFAULT_TABLE.max_abs_poly(2 * m_eff + 1)
    stops = range(2, _MAX_INTERVALS + 1)
    i = bisect.bisect_left(stops, True, key=lambda t: _wide_tail_bound(
        t, abs_z, sec_half, m_eff, max_kernel) <= target)
    return stops[i] if i < len(stops) else None


@lru_cache(maxsize=None)
def _unit_weights(n: int, order: int) -> np.ndarray:
    """Half the Gauss weight times B_n(t - floor t) at the Gauss nodes of [0, 1],
    computed on first use.

    The factor is 1-periodic, so these are its weights on every unit panel
    [m, m+1] (up to the rounding of the nodes themselves).
    """
    return panel_weights([0.0, 1.0], order) * DEFAULT_TABLE.poly_periodic(
        n, panel_nodes([0.0, 1.0], order))


@lru_cache(maxsize=None)
def _unit_nodes(order: int) -> np.ndarray:
    """The Gauss nodes of the unit panels [m, m+1], m < _MAX_INTERVALS, one row per panel."""
    return panel_nodes(range(_MAX_INTERVALS + 1), order).reshape(_MAX_INTERVALS, order)


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
    moduli by Gauss-Legendre of this order on the unit panels of [0, T] (the array
    1/(t+w)^{2M} against _unit_weights, panel by panel), and E(z, m) with its parts
    (0 and none where m = 0), all as Python scalars.  Pure in its arguments, so every
    N <= M at one z shares one entry; signs holds the signs of z's parts, because
    0.0 == -0.0 hash alike.  A raised error is not memoized.
    """
    m, w, t_stop, tail = _wide_plan(z, m_eff)
    weights = _unit_weights(2 * m_eff + 1, order)
    with _binary64(z):
        inv = 1.0 / _power(_unit_nodes(order)[:t_stop] + w, 2 * m_eff)
        integral = complex(sum((inv @ weights).tolist()))  # panel sums in panel order
        abs_sum = float(np.abs(inv).sum(axis=0) @ np.abs(weights))
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
    the periodized Bernoulli polynomial is folded into weights tabulated at
    the Gauss nodes of [0, 1].  T is the first unit count whose analytic tail bound,
    a power of T + |w|, meets the target.  est_error is that bound plus _roundoff of the
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

    try:
        ladder = _series(w, n_trunc, m_eff)
        value = ladder + pref * integral
        est = tail + _roundoff(abs_sum * abs(pref), ladder)
        if m:
            head_w, head_z = _series(w, 1, n_trunc), _series(z, 1, n_trunc)
            value += bracket + (head_w - head_z)
            est += _roundoff(*parts, head_w, head_z)
    except ArithmeticError:
        raise _range_error(z) from None
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
