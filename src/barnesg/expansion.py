"""Truncated expansion of log G(z+1) and certified bounds on its remainder.

The central object is

    log G(z+1) = z^2/4 + z log Gamma(z+1) - (z(z+1)/2 + 1/12) log z - log A
                 + sum_{n=1}^{N-1} c_n z^{-2n} + R_N(z),

with c_n = B_{2n+2} / (2n (2n+1) (2n+2)).  Three certified bounds on |R_N|
are provided, all of the form (first omitted term magnitude) x factor(theta, N):

  * sector bound      -- factor 1 for |theta| <= pi/4, else
                         min(|csc 2 theta|, sqrt(e (2N + 5/2)) / 2),
                         valid for |theta| <= pi/2;
  * half-angle bound  -- factor sec^{2N+1}(theta/2), valid for |theta| < pi;
  * optimized bound   -- factor csc(2(theta - phi*)) sec^{2N+1}(phi*) with
                         phi* the unique minimizing rotation angle, valid for
                         pi/4 < |theta| < pi.

On the positive real axis R_N additionally has the sign of the first omitted
term and is strictly smaller in magnitude.

The bounds are sharp where |theta| is small.  Near the cut and at small |z|
a shift to w = z + m moves a point to Re w >= r0, where they are cheap and
close to the first omitted term: certified_eval where its bound at z is weak
(r0 = 12), exp_improved_report wherever Re z < 2 (r0 = 2), and the oracle's
wide kernel where its pole t = -z lies near the path (r0 = 1).  All three
add the expansion at w to prefix(z) plus the elementary bracket E(z, m) of
_shift_bracket.  m is capped at 64; beyond it the route runs at z.

These bound the mathematical remainder.  certified_eval reports the best of
them plus _roundoff, a round-off allowance 8 eps sum |part| over the terms its
binary64 value is summed from (the prefix's terms at z, and where shifted
E's parts); the oracle and improved routes add the same rule to their
quadrature or terminant estimates.  log Gamma is evaluated once per call, at
z + 1, and its truncation error lies below the allowance of the prefix's
terms z^2/4 and log A.  The allowance is a running error estimate, not a
proof: it leaves out the round-off inside log Gamma and log themselves, and
tests/test_honesty.py checks it against mpmath.
"""

from __future__ import annotations

import cmath
import enum
import math
from typing import NamedTuple, Optional

from .bernoulli import EPS, LOG_GLAISHER, MAX_COEFF, series_coefficient
from .errors import (AccuracyError, DomainError, RangeError, _check_finite, _check_order,
                     _check_sector)
from .special import _MAX_SHIFT, log_gamma

__all__ = [
    "BoundKind",
    "BoundReport",
    "ExpansionResult",
    "expansion_prefix",
    "truncated_log_barnes",
    "sector_factor",
    "solve_optimal_angle",
    "best_bound",
    "family_bounds",
    "certified_eval",
]

MAX_TRUNCATION = 20
_WEAK_FACTOR = 1e6
_NEWTON_TOL = 1e-15
#: Bisection alone narrows a bracket (width <= pi/4) below _NEWTON_TOL in 50 steps.
_NEWTON_MAX_STEPS = 64
#: c_n for n = 1 .. MAX_COEFF = 31, every index the Bernoulli table reaches; entry 0 is unused.
_COEFFS = (0.0,) + tuple(series_coefficient(n) for n in range(1, MAX_COEFF + 1))


class BoundKind(enum.Enum):
    """Which bound family produced a certified remainder bound."""

    SECTOR = "sector_csc"
    HALF_ANGLE = "half_angle_sec"
    OPTIMIZED = "optimized_angle"
    POSITIVE_AXIS = "positive_axis_sign"


class BoundReport(NamedTuple):
    """A certified bound |R_N| <= bound = factor * first-omitted-term magnitude."""

    bound: float
    factor: float
    kind: BoundKind
    phi_star: Optional[float] = None


class ExpansionResult(NamedTuple):
    """Truncated expansion value together with its error bound.

    bound is the certified truncation bound of bound_kind on |R_N| plus the
    round-off allowance of value's terms (_roundoff), an estimate that covers
    |value - log G(z+1)| on the rows of tests/test_honesty.py.  shift is the
    m of w = z + m where certified_eval shifts z (0 where it does not); n_trunc,
    bound_kind and weak_bound describe the expansion at w.
    """

    value: complex
    n_trunc: int
    bound: float
    bound_kind: BoundKind
    weak_bound: bool = False
    shift: int = 0


def _roundoff(*parts: complex) -> float:
    """8 eps sum |part|, the round-off of a value summed from these parts (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., 3.3); every route adds it to its error.

    Each part is scaled by 8 eps = 2^-49, which is exact, before its modulus is
    taken, so finite parts give a finite sum even where their moduli overflow.
    """
    return sum(abs(8.0 * EPS * part) for part in parts)


def _q(x: complex) -> complex:
    """x(x+1)/2 + 1/12, the factor of log x in the expansion prefix."""
    return 0.5 * x * (x + 1.0) + 1.0 / 12.0


def _prefix(z: complex) -> tuple[complex, tuple[complex, ...]]:
    """expansion_prefix of a checked z, and the four terms it is summed from."""
    terms = (0.25 * z * z, z * log_gamma(z + 1.0), _q(z) * cmath.log(z), LOG_GLAISHER)
    prefix = terms[0] + terms[1] - terms[2] - terms[3]
    _check_finite(z, prefix)
    return prefix, terms


def expansion_prefix(z: complex) -> complex:
    """The N-independent part: z^2/4 + z log Gamma(z+1) - (z(z+1)/2 + 1/12) log z - log A.

    RangeError when it is not finite in binary64 (from |z| ~ 1e153 on).
    """
    return _prefix(_check_sector(z))[0]


def truncated_log_barnes(z: complex, n_trunc: int) -> complex:
    """Expansion of log G(z+1) truncated before the z^{-2 n_trunc} term.

    The remainder it omits is exactly R_{n_trunc}(z); see the remainder
    oracle module for its quadrature evaluation and family_bounds/best_bound
    for certified bounds.
    """
    z = _check_sector(z)
    n_trunc = _check_order(n_trunc, 1, MAX_TRUNCATION)
    value = _series(z, 1, n_trunc, expansion_prefix(z))
    _check_finite(z, value)
    return value


def _series(z: complex, lo: int, hi: int, total: complex = 0j) -> complex:
    """total + sum_{lo <= n < hi} c_n z^{-2n}, the terms added in order of n.

    An empty sum forms no power of z, so N = 1 stays finite at any modulus;
    otherwise RangeError when z^{-2} or z^{-2 lo} leaves binary64.
    """
    if lo >= hi:
        return total
    try:
        zinv2 = 1.0 / (z * z)
        zpow = zinv2 ** lo
    except (ZeroDivisionError, OverflowError):
        raise RangeError(f"z^-2 leaves the float range at z = {z}") from None
    for n in range(lo, hi):
        total += _COEFFS[n] * zpow
        zpow *= zinv2
    return total


def sector_factor(theta: float) -> float:
    """Piecewise factor: 1 on |theta| <= pi/4, |csc 2 theta| up to pi/2.

    Returns +inf at exactly |theta| = pi/2 (csc is singular there); callers
    take the min with the closed-form alternative.
    """
    a = abs(theta)
    if not a <= 0.5 * math.pi:  # NaN fails too
        raise DomainError("sector_factor: |theta| must be <= pi/2")
    if a <= 0.25 * math.pi:
        return 1.0
    if a == 0.5 * math.pi:
        return math.inf
    return abs(1.0 / math.sin(2.0 * theta))


def _first_term_magnitude(z: complex, n_trunc: int) -> float:
    """|c_N| / |z|^{2N}, 1 <= N <= MAX_COEFF; RangeError unless it is a finite positive float."""
    try:
        term = abs(_COEFFS[n_trunc]) / abs(z) ** (2 * n_trunc)
    except (OverflowError, ZeroDivisionError):
        term = 0.0
    if not 0.0 < term < math.inf:
        raise RangeError(
            f"first omitted term at N = {n_trunc} is outside the float range for z = {z}"
        )
    return term


def _report(factor: float, term: float, kind: BoundKind,
            phi_star: Optional[float] = None) -> BoundReport:
    bound = factor * term
    if bound == math.inf:
        raise RangeError(f"{kind.value} bound overflows; z lies too close to the cut")
    return BoundReport(bound=bound, factor=factor, kind=kind, phi_star=phi_star)


def _sector_factor(theta: float, n_trunc: int) -> float:
    """Sector family factor, for |theta| <= pi/2."""
    return min(sector_factor(theta), 0.5 * math.sqrt(math.e * (2 * n_trunc + 2.5)))


def _half_angle_factor(theta: float, n_trunc: int) -> float:
    """Half-angle family factor sec^{2N+1}(theta/2), for |theta| < pi; +inf on overflow."""
    try:
        return (1.0 / math.cos(0.5 * theta)) ** (2 * n_trunc + 1)
    except OverflowError:
        return math.inf


def _closed_factor(theta: float, n_trunc: int) -> tuple[float, BoundKind]:
    """Smaller of the sector and half-angle factors; a tie goes to the sector."""
    a = abs(theta)
    if a <= 0.25 * math.pi:
        return 1.0, BoundKind.SECTOR  # sec^{2N+1}(theta/2) >= 1
    half = _half_angle_factor(theta, n_trunc)
    if a <= 0.5 * math.pi:
        sector = _sector_factor(theta, n_trunc)
        if sector <= half:
            return sector, BoundKind.SECTOR
    return half, BoundKind.HALF_ANGLE


def _optimized_factor(theta: float, n_trunc: int) -> tuple[float, Optional[float]]:
    """(csc(2(theta - phi*)) sec^{2N+1}(phi*), phi*) for pi/4 < |theta| < pi.

    (inf, None) where phi* cannot be solved for, within about 1e-14 of the
    cut: cos phi* < 1e-14 there, so the factor is astronomically large anyway.
    """
    try:
        phi = solve_optimal_angle(theta, n_trunc)
    except AccuracyError:
        return math.inf, None
    a_phi = abs(phi)
    try:
        factor = 1.0 / (
            math.sin(2.0 * (abs(theta) - a_phi)) * math.cos(a_phi) ** (2 * n_trunc + 1)
        )
    except ZeroDivisionError:
        factor = math.inf
    return factor, phi


def _bracket(theta: float) -> tuple[float, float]:
    """Root bracket for the optimal rotation angle in the upper half-plane."""
    if theta < 0.5 * math.pi:
        return 0.0, theta - 0.25 * math.pi
    if theta < 0.75 * math.pi:
        return theta - 0.5 * math.pi, theta - 0.25 * math.pi
    return theta - 0.5 * math.pi, 0.5 * math.pi


def solve_optimal_angle(theta: float, n_trunc: int) -> float:
    """Minimizing rotation angle phi* for the optimized bound.

    Solves h(phi) = (2N+3) cos(3 phi - 2 theta) - (2N-1) cos(phi - 2 theta) = 0
    inside the bracket that holds the unique minimizer, where h < 0 at the
    left end and h > 0 at the right end.  Newton's method starts at the
    bracket midpoint; every iterate replaces the bracket end on its side of
    the root, and a Newton step that would leave the bracket becomes a
    bisection step.  The iteration stops once a step moves phi by at most
    1e-15, after about five steps.  The result is a pure function of
    (theta, N) and odd in theta.  AccuracyError if h does not change sign
    across the bracket or the iteration fails to settle, RangeError for N > 2^53.
    """
    n_trunc = _check_order(n_trunc, 1, 2 ** 53, RangeError)
    a_th = abs(theta)
    if not 0.25 * math.pi < a_th < math.pi:
        raise DomainError("solve_optimal_angle: need pi/4 < |theta| < pi")
    c3, c1 = 2 * n_trunc + 3, 2 * n_trunc - 1
    two_th = 2.0 * a_th
    lo, hi = _bracket(a_th)
    if not (c3 * math.cos(3 * lo - two_th) - c1 * math.cos(lo - two_th)
            < 0.0 < c3 * math.cos(3 * hi - two_th) - c1 * math.cos(hi - two_th)):
        raise AccuracyError("no sign change inside the optimal-angle bracket")
    phi = 0.5 * (lo + hi)
    for _ in range(_NEWTON_MAX_STEPS):
        u, v = 3 * phi - two_th, phi - two_th
        h = c3 * math.cos(u) - c1 * math.cos(v)
        if h < 0.0:
            lo = phi
        else:
            hi = phi
        slope = c1 * math.sin(v) - 3 * c3 * math.sin(u)
        nxt = phi - h / slope if slope != 0.0 else math.nan
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - phi) <= _NEWTON_TOL:
            return math.copysign(nxt, theta)
        phi = nxt
    raise AccuracyError("optimal-angle iteration did not settle")


def best_bound(z: complex, n_trunc: int) -> BoundReport:
    """Smallest certified bound applicable at (z, n_trunc).

    RangeError when N > MAX_COEFF or the first omitted term or the bound is not
    a finite positive float (|z| too small or too large for N, or z too near the cut).
    """
    z = _check_sector(z)
    n_trunc = _check_order(n_trunc, 1, MAX_COEFF, RangeError)
    theta = math.atan2(z.imag, z.real)
    term = _first_term_magnitude(z, n_trunc)
    if theta == 0.0:
        return BoundReport(bound=term, factor=1.0, kind=BoundKind.POSITIVE_AXIS)
    factor, kind = _closed_factor(theta, n_trunc)
    phi = None
    if 0.25 * math.pi < abs(theta) < math.pi:
        opt, opt_phi = _optimized_factor(theta, n_trunc)
        if opt * term < factor * term:
            factor, kind, phi = opt, BoundKind.OPTIMIZED, opt_phi
    return _report(factor, term, kind, phi)


def family_bounds(z: complex, n_trunc: int) -> dict[BoundKind, BoundReport]:
    """The certified bound of every family that applies at (z, n_trunc).

    Keys, in this order: SECTOR (|arg z| <= pi/2), HALF_ANGLE (always) and
    OPTIMIZED (pi/4 < |arg z| < pi).  best_bound returns the smallest of
    these bounds.  RangeError as for best_bound, and also when one family's
    bound overflows.
    """
    z = _check_sector(z)
    n_trunc = _check_order(n_trunc, 1, MAX_COEFF, RangeError)
    theta = math.atan2(z.imag, z.real)
    a = abs(theta)
    term = _first_term_magnitude(z, n_trunc)
    out = {}
    if a <= 0.5 * math.pi:
        out[BoundKind.SECTOR] = _report(_sector_factor(theta, n_trunc), term, BoundKind.SECTOR)
    out[BoundKind.HALF_ANGLE] = _report(_half_angle_factor(theta, n_trunc), term,
                                        BoundKind.HALF_ANGLE)
    if 0.25 * math.pi < a < math.pi:
        factor, phi = _optimized_factor(theta, n_trunc)
        out[BoundKind.OPTIMIZED] = _report(factor, term, BoundKind.OPTIMIZED, phi)
    return out


def _shift_count(z: complex, r0: float) -> int:
    """Steps m that move z to Re(z + m) >= r0: 0 where Re z >= r0 already, and
    where m would pass _MAX_SHIFT = 64, the reach of log_gamma's own recurrence."""
    if z.real >= r0:
        return 0
    m = math.ceil(r0 - z.real)
    return m if m <= _MAX_SHIFT else 0


def _shift_bracket(z: complex, m: int) -> tuple[complex, tuple[complex, ...]]:
    """E(z, m) = prefix(w) - prefix(z) - sum_{j=1}^{m} log Gamma(z+j), w = z + m, m >= 1,
    and its parts; log G(z+1) = log G(w+1) - sum_j log Gamma(z+j) = prefix(z) + E + the
    expansion at w.  log Gamma and log A cancel, so E needs only principal logarithms of
    points of the slit plane, and stays on the analytic branch:

        E = m(2z + m)/4 + sum_{j=1}^{m-1} (z+j) log(z+j) + (w - q(w)) log w + q(z) log z.
    """
    w = z + m
    parts = ((0.25 * m * (2.0 * z + m),)
             + tuple((z + j) * cmath.log(z + j) for j in range(1, m))
             + ((w - _q(w)) * cmath.log(w), _q(z) * cmath.log(z)))
    return sum(parts), parts


def _shifted_prefix(z: complex, m: int) -> tuple[complex, tuple[complex, ...]]:
    """prefix(z) + E(z, m) for a checked z (prefix(z) where m = 0), and the terms of both."""
    prefix, terms = _prefix(z)
    if not m:
        return prefix, terms
    bracket, parts = _shift_bracket(z, m)
    return prefix + bracket, terms + parts


def _certified_shift(z: complex) -> int:
    """certified_eval's shift: the m that moves z to Re w >= 12 where the unshifted
    bound is weak, else 0.  Weak means, without a best_bound call, that the closed
    factor times the first omitted term at N0 = min(20, ceil(pi |z|)) exceeds
    1e-15 max(1, |z|^2/2 max(1, log |z|)), about 1e-15 of |log G(z+1)|."""
    m = _shift_count(z, 12.0)
    if not m:
        return 0
    r = abs(z)
    n0 = math.ceil(math.pi * r) if math.pi * r < MAX_TRUNCATION else MAX_TRUNCATION
    try:
        size = _closed_factor(math.atan2(z.imag, z.real), n0)[0] * _first_term_magnitude(z, n0)
    except RangeError:  # the term overflows at tiny |z| and underflows at huge |z|
        return m if r < 1.0 else 0
    return m if size > 1e-15 * max(1.0, 0.5 * r * r * max(1.0, math.log(r))) else 0


def _scan(z: complex) -> tuple[int, BoundReport]:
    """The N in 1..20 with the smallest best_bound(z, N) (ties toward smaller N), and
    its report; an N whose bound is not a finite positive float is skipped."""
    chosen, chosen_report = 0, None
    for n in range(1, MAX_TRUNCATION + 1):
        try:
            report = best_bound(z, n)
        except RangeError:
            continue
        if chosen_report is None or report.bound < chosen_report.bound:
            chosen, chosen_report = n, report
    if chosen_report is None:
        raise RangeError(f"no truncation index in 1..{MAX_TRUNCATION} has a "
                         f"finite bound at z = {z}")
    return chosen, chosen_report


def certified_eval(z: complex, n_trunc: Optional[int] = None) -> ExpansionResult:
    """Evaluate the truncated expansion with the best certified bound.

    When n_trunc is omitted the truncation index minimizing the bound over
    1..20 is chosen (ties toward smaller N); an index whose bound is not a
    finite positive float is skipped, and RangeError is raised when none is
    left or the value is not finite.  Where the bound at z is weak (near the
    cut or at small |z|; _certified_shift) the expansion and the N scan run
    at w = z + m with Re w >= 12 and m <= 64, and the value is
    prefix(z) + E(z, m) + sum_{n<N} c_n w^{-2n} (_shift_bracket); n_trunc,
    bound_kind and weak_bound then describe w.  An explicit n_trunc always
    evaluates at z.  Bounds with factor above 1e6 (possible only near the
    cut) are flagged weak rather than suppressed.

    The reported bound is best_bound(w, N).bound plus _roundoff of the
    prefix's four terms at z, of E's parts where shifted, and of the value.
    The allowance is an estimate of the binary64 value's round-off; it also
    covers the rounding of w = z + m, whose effect eps |w|^2 log |w| is below
    that of E's part (w - q(w)) log w.  On the benchmark's accuracy pass and
    on tests/test_honesty.py the bound covers the error against mpmath.
    """
    w = z = _check_sector(z)
    m = 0
    if n_trunc is not None:
        chosen = _check_order(n_trunc, 1, MAX_TRUNCATION)
        report = best_bound(z, chosen)
    else:
        m = _certified_shift(z)
        if m:
            w = z + m
        chosen, report = _scan(w)
    prefix, terms = _shifted_prefix(z, m)
    value = _series(w, 1, chosen, prefix)
    _check_finite(z, value)
    return ExpansionResult(
        value=value,
        n_trunc=chosen,
        bound=report.bound + _roundoff(*terms, value),
        bound_kind=report.kind,
        weak_bound=report.factor > _WEAK_FACTOR,
        shift=m,
    )
