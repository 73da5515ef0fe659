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
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Optional

from .bernoulli import LOG_GLAISHER, MAX_INDEX, series_coefficient
from .errors import AccuracyError, DomainError, RangeError
from .special import log_gamma

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
#: c_n for n = 1 .. 31, every index the Bernoulli table supports; entry 0 is unused.
_COEFFS = (0.0,) + tuple(series_coefficient(n) for n in range(1, MAX_INDEX // 2))


class BoundKind(enum.Enum):
    """Which bound family produced a certified remainder bound."""

    SECTOR = "sector_csc"
    HALF_ANGLE = "half_angle_sec"
    OPTIMIZED = "optimized_angle"
    POSITIVE_AXIS = "positive_axis_sign"


@dataclass(frozen=True)
class BoundReport:
    """A certified bound |R_N| <= bound = factor * first-omitted-term magnitude."""

    bound: float
    factor: float
    kind: BoundKind
    phi_star: Optional[float] = None


@dataclass(frozen=True)
class ExpansionResult:
    """Truncated expansion value together with its certified remainder bound."""

    value: complex
    n_trunc: int
    bound: float
    bound_kind: BoundKind
    weak_bound: bool = False


def _check_sector(z: complex) -> complex:
    """The slit-plane domain check of every z-route: finite, nonzero, off the cut."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError("z must be finite")
    if z == 0:
        raise DomainError("z = 0 is outside the expansion domain")
    if z.imag == 0.0 and z.real < 0.0:
        raise DomainError("z on the branch cut arg z = pi")
    return z


def _check_finite(z: complex, *values: complex) -> None:
    """RangeError unless every value is finite: binary64 overflowed on the way at z."""
    for v in values:
        if not cmath.isfinite(v):
            raise RangeError(f"the result is not finite in binary64 at z = {z}")


def expansion_prefix(z: complex) -> complex:
    """The N-independent part: z^2/4 + z log Gamma(z+1) - (z(z+1)/2 + 1/12) log z - log A.

    RangeError when it is not finite in binary64 (log Gamma fails from |z| ~ 1e15).
    """
    z = _check_sector(z)
    prefix = (
        0.25 * z * z
        + z * log_gamma(z + 1.0)
        - (0.5 * z * (z + 1.0) + 1.0 / 12.0) * cmath.log(z)
        - LOG_GLAISHER
    )
    _check_finite(z, prefix)
    return prefix


def truncated_log_barnes(z: complex, n_trunc: int) -> complex:
    """Expansion of log G(z+1) truncated before the z^{-2 n_trunc} term.

    The remainder it omits is exactly R_{n_trunc}(z); see the remainder
    oracle module for its quadrature evaluation and family_bounds/best_bound
    for certified bounds.
    """
    z = _check_sector(z)
    if not 1 <= n_trunc <= MAX_TRUNCATION:
        raise DomainError(f"n_trunc must lie in [1, {MAX_TRUNCATION}]")
    total = expansion_prefix(z)
    zinv2 = 1.0 / (z * z)
    zpow = zinv2
    for n in range(1, n_trunc):
        total += _COEFFS[n] * zpow
        zpow *= zinv2
    return total


def sector_factor(theta: float) -> float:
    """Piecewise factor: 1 on |theta| <= pi/4, |csc 2 theta| up to pi/2.

    Returns +inf at exactly |theta| = pi/2 (csc is singular there); callers
    take the min with the closed-form alternative.
    """
    a = abs(theta)
    if a > 0.5 * math.pi:
        raise DomainError("sector_factor: |theta| must be <= pi/2")
    if a <= 0.25 * math.pi:
        return 1.0
    if a == 0.5 * math.pi:
        return math.inf
    return abs(1.0 / math.sin(2.0 * theta))


def _first_term_magnitude(z: complex, n_trunc: int) -> float:
    """|c_N| / |z|^{2N}; RangeError unless it is a finite positive float."""
    if n_trunc < 1:
        raise DomainError("n_trunc must be >= 1")
    if n_trunc >= len(_COEFFS):
        raise RangeError(f"n_trunc = {n_trunc} lies beyond the Bernoulli table")
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
    across the bracket or the iteration fails to settle.
    """
    if n_trunc < 1:
        raise DomainError("n_trunc must be >= 1")
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

    RangeError when the first omitted term or the bound is not a finite
    positive float (|z| too small or too large for N, or z too near the cut).
    """
    z = _check_sector(z)
    theta = cmath.phase(z)
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
    theta = cmath.phase(z)
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


def certified_eval(z: complex, n_trunc: Optional[int] = None) -> ExpansionResult:
    """Evaluate the truncated expansion with the best certified bound.

    When n_trunc is omitted the truncation index minimizing the bound over
    1..20 is chosen (ties toward smaller N); an index whose bound is not a
    finite positive float is skipped, and RangeError is raised when none is
    left or the value is not finite.  Bounds with factor above 1e6
    (possible only near the cut) are flagged weak rather than suppressed.
    """
    z = _check_sector(z)
    if n_trunc is None:
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
    else:
        if not 1 <= n_trunc <= MAX_TRUNCATION:
            raise DomainError(f"n_trunc must lie in [1, {MAX_TRUNCATION}]")
        chosen, chosen_report = n_trunc, best_bound(z, n_trunc)
    value = truncated_log_barnes(z, chosen)
    _check_finite(z, value)
    return ExpansionResult(
        value=value,
        n_trunc=chosen,
        bound=chosen_report.bound,
        bound_kind=chosen_report.kind,
        weak_bound=chosen_report.factor > _WEAK_FACTOR,
    )
