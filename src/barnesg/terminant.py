"""Terminant function, exponentially improved expansion, Stokes smoothing.

The scaled terminant

    T_p(w) = e^{i pi p} Gamma(p) / (2 pi i) * Gamma(1 - p, w)

encodes the remainder of an optimally truncated asymptotic series.  For
integer p it is, in closed form, the tail of the asymptotic series of E1:

    T_p(w) e^{w} = (S_{p-1}(w) - e^{w} E1(w)) / (2 pi i),
    S_m(w) = sum_{j<m} (-1)^j j! / w^{j+1},

which is exactly what makes the exponentially improved expansion of
log G(z+1) work:

    log G(z+1) = prefix(z)
               - sum_{k>=1} (2 pi k)^{-2} sum_{n=0}^{N_k-1} (-1)^n 2(2n+1)!/(2 pi k z)^{2n+2}
               - sum_{k>=1} [T_{2N_k+1}(2 pi k i z) e^{2 pi k i z}
                             + T_{2N_k+1}(-2 pi k i z) e^{-2 pi k i z}] / (2 pi i k^2),

an identity for every sequence of non-negative N_k that both sums share.  The route
sums its first K pairs at N_k = 0, where the k-th is (h(w_k) + h(-w_k))/(4 pi^2 k^2),
h = e^{w} E1(w), w_k = 2 pi k i z, and has no algebraic row; every row and pair k > K
takes one order N = N_{K+1}, N_k = round(pi k |z|) capped at 31 (_order_thresholds).
The first double sum converges absolutely and its rows are evaluated completely
(regrouped over n through zeta tails); only the terminant sum is truncated.  A pair
at N is exactly minus the k-th share of the remainder R_{N+1}(z), the dilog kernel
with Li2(e^{-2 pi t}) replaced by e^{-2 pi k t}/k^2, so the remainder's closed bound
factors bound the pairs left out.  K is the first k <= K_MAX whose k-tail is below
1/1024 of the prefix's round-off: where |arg z| <= pi/2 the k-tail is that certified
bound, elsewhere (above the shift cap) the sum of the sizes of the switched
exponentials left out.

Branch bookkeeping: with z in the slit plane the terminant arguments
w = +-2 pi k i z sweep arg w across +-pi, so the function is evaluated on the
continued branch.  Crossing arg w = pi upward adds exactly +1 (the residue of
t^{-p} e^{-t} picked up by the defining contour), crossing -pi downward -1; below
the axis the reflection T_p(conj w) = -conj(T_p(w)), integer p, holds.

The improved route reads the closed form directly.  Past the imaginary axis the
closed form cancels, and the Stokes switch is computed in one place, arc._arc_profile:
at fixed |w| it integrates T_p's exact angular derivative from a closed-form seed
on the imaginary axis, where nothing cancels, as far as the Stokes line, and takes
the angles past it by the derivative's mirror symmetry about the line, with a bound
on every part of the error.  Stokes profiles take it alone; terminant, the one entry
point for T_p(w), takes it or the closed form, whichever reports the smaller error
estimate.

The algebraic rows k > K depend only on K + 1, which takes few values; _algebraic_rows
keeps a bounded table of them per K + 1.  Nothing is kept per z.
"""

from __future__ import annotations

import bisect
import cmath
import enum
import math
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .bernoulli import EPS, MAX_INDEX, TWO_PI, bernoulli_number, zeta_even
from .errors import (AccuracyError, DomainError, RangeError, _check_finite, _check_order,
                     _check_sector)
from .expansion import _closed_factor, _roundoff, _shift_count, _shifted_prefix
from .special import _e1_scaled_continued

__all__ = [
    "TerminantMethod",
    "TerminantEval",
    "StokesSample",
    "terminant",
    "exp_improved_report",
    "stokes_profile",
]

#: Largest terminant order: it keeps every j! of S_{p-1}(w) (j <= p - 2) in binary64,
#: so the terms j!/w^{j+1} stay finite for |w| >= 1.
MAX_ORDER = 171
#: Most terminant pairs exp_improved_report sums: below the shift cap it stops at 1 or 2.
K_MAX = 1024
#: The pair sum stops once its k-tail is below this share of the round-off allowance of
#: the prefix and E.
_TAIL_SHARE = 2.0 ** -10
_LOG_TWO = math.log(2.0)


class TerminantMethod(enum.Enum):
    """The form terminant chose, which TerminantEval.method and the CLI report."""

    #: Names the closed form of _scaled_recurrence; the value, which the CLI prints, is kept.
    GAMMA_RECURRENCE = "gamma_recurrence"
    ARC_INTEGRAL = "arc_integral"


class TerminantEval(NamedTuple):
    value: complex
    method: TerminantMethod
    est_error: float


def _check_branch(w: complex, arg_w: Optional[float]) -> tuple[complex, float]:
    """w through the slit-plane check without the cut, and its branch angle: the
    principal phase plus the whole windings that arg_w (if given; it must equal
    arg w modulo 2 pi) adds to it."""
    w = _check_sector(w, cut=False)
    phase = math.atan2(w.imag, w.real)
    if arg_w is None:
        return w, phase
    if not math.isfinite(arg_w):
        raise DomainError(f"arg_w must be finite, got {arg_w}")
    windings = (arg_w - phase) / TWO_PI
    if abs(windings - round(windings)) > 1e-6:
        raise DomainError("arg_w must equal arg(w) modulo 2 pi")
    return w, phase + TWO_PI * round(windings)


def _scaled_recurrence(p: int, w: complex, arg_w: float) -> tuple[complex, float]:
    """T_p(w) e^{w} in closed form, overflow-safe for Re w << 0.

    For integer p, T_p(w) e^{w} = (S_{p-1}(w) - e^{w} E1(w)) / (2 pi i), where
    S_m(w) = sum_{j<m} (-1)^j j! / w^{j+1} is the truncated asymptotic series
    of h = e^{w} E1(w) on the branch arg_w, past +-pi too; the partial sums
    are built forward, one multiply per term.  The error estimate is the seed
    error seed_rel |h| plus the running bound eps sum_m (|S_m| + 4 m |t_m|) of
    the sum (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    3.3), divided by 2 pi, plus 4 eps of the value: each partial sum S_m is
    rounded once, and the term t_m = (-1)^{m-1} (m-1)!/w^m added at step m
    comes from m steps (1/w, then m - 1 products with -j/w) of relative error at
    most 4 eps each.
    """
    h, seed_rel = _e1_scaled_continued(w, arg_w)
    winv = 1.0 / w
    inv_abs = abs(winv)
    term = winv
    partial = 0.0 + 0.0j
    running = 0.0
    weight = 4.0  # 4 m |t_m| = 4 m! |w|^-m at step m, a real running product
    try:
        for m in range(1, p):
            partial += term
            weight *= m * inv_abs
            running += abs(partial) + weight
            term *= -m * winv
    except OverflowError:  # |S_m| beyond binary64
        raise RangeError(f"T_{p}(w) e^w overflows binary64 at w = {w}") from None
    value = (partial - h) / (2j * math.pi)
    est = (seed_rel * abs(h) + EPS * running) / TWO_PI + 4.0 * EPS * abs(value)
    return value, est


def terminant(p: int, w: complex, arg_w: Optional[float] = None) -> TerminantEval:
    """Scaled terminant T_p(w) for positive integer order p.

    arg_w selects the branch (it may exceed +-pi; defaults to the principal
    phase).  The closed form of _scaled_recurrence always runs.  Past the
    imaginary axis (|arg w| > pi/2) with 4 <= |w| <= 2 MAX_ORDER, where the
    closed form cancels, the arc integral (arc._arc_profile) runs too, at
    |arg w| - pi and mirrored by -conj below the axis; the form with the smaller
    estimate is returned.  RangeError when the closed form is not finite in
    binary64, or p > MAX_ORDER.  AccuracyError where Re w < -709: e^{-w}
    overflows, and only the scaled T_p(w) e^{w} is representable there.
    """
    p = _check_order(p, 1, MAX_ORDER, RangeError)
    w, arg_w = _check_branch(w, arg_w)
    if not -1.5 * math.pi < arg_w < 1.5 * math.pi:
        raise DomainError("arg_w must lie in (-3 pi/2, 3 pi/2)")
    scaled, est = _scaled_recurrence(p, w, arg_w)
    if w.real < -709.0:
        raise AccuracyError(
            "unscaled terminant overflows for Re w < -709; "
            "only the scaled combination T_p(w) e^{w} is representable there"
        )
    emw = cmath.exp(-w)
    value, est = scaled * emw, est * abs(emw)
    method = TerminantMethod.GAMMA_RECURRENCE
    if abs(arg_w) > 0.5 * math.pi and 4.0 <= abs(w) <= 2 * MAX_ORDER:
        arc, arc_est = _arc_profile(p, abs(w), [abs(arg_w) - math.pi])[0]
        if arc_est < est:
            # 0 - conj, not -conj: that would turn a zero part into -0
            value = arc if arg_w > 0.0 else 0.0 - arc.conjugate()
            est, method = arc_est, TerminantMethod.ARC_INTEGRAL
    _check_finite(w, value, est)
    return TerminantEval(value, method, est)


# ----------------------------------------------------------------------
# Exponentially improved expansion
# ----------------------------------------------------------------------

def _algebraic_coeffs() -> tuple[float, ...]:
    """(-1)^n 2 (2n+1)! / (2 pi)^{2n+4} for the exponents 2n + 4 = 4 .. MAX_INDEX,
    the Bernoulli table's reach: _algebraic_sum's coefficients."""
    coeffs, two_fact = [], 2.0  # 2 (2n+1)! at n = 0
    for n in range(MAX_INDEX // 2 - 1):
        coeffs.append((-1) ** n * two_fact / TWO_PI ** (2 * n + 4))
        two_fact *= (2 * n + 2) * (2 * n + 3)
    return tuple(coeffs)


_ALGEBRAIC_COEFFS = _algebraic_coeffs()
#: The improved route's order cap: its algebraic rows are the table's.
_ORDER_CAP = len(_ALGEBRAIC_COEFFS)


def _order_thresholds(abs_z: float, k: int, cap: int = _ORDER_CAP) -> int:
    """N_k, the order rule round(pi k |z|) capped at cap, counted on its thresholds: that
    of n is the least k >= 1 with pi k |z| >= n + 1/2 (ties, and k within 1e-12 below
    one, round up), and N_k is the number of n < cap whose threshold is <= k.  The
    improved route counts N_{K+1} at cap 31, stokes_profile N_k at cap 86.  No other
    code encodes the rule."""
    unit = math.pi * abs_z
    return bisect.bisect_right(range(cap), k, key=lambda n: math.ceil((n + 0.5) / unit - 1e-12)
                               or 1)  # or 1: k >= 1


_EM_BASE = tuple(bernoulli_number(2 * j) / math.factorial(2 * j) for j in range(1, 9))


def _em_coeffs(s: int) -> tuple[float, ...]:
    """B_{2j}/(2j)! (s)_{2j-1} for j = 8 down to 1: _zeta_tail's Euler-Maclaurin corrections."""
    coeffs, rising = [], s
    for j, base in enumerate(_EM_BASE, start=1):
        coeffs.append(base * rising)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return tuple(reversed(coeffs))


# _algebraic_sum asks for the even exponents 4 .. MAX_INDEX
_EM_COEFFS = {s: _em_coeffs(s) for s in range(4, MAX_INDEX + 1, 2)}


def _zeta_tail(exponent: int, k_first: int) -> float:
    """sum_{k >= k_first} k^{-exponent}, accurate relative to its own size.

    Subtracting the head from zeta(exponent) is catastrophic once the zeta
    value rounds to 1.  Instead the terms k < a = k_first + max(8, s/2) are
    summed directly, and the rest by Euler-Maclaurin:

        sum_{k >= a} k^{-s} = a^{1-s}/(s-1) + a^{-s}/2
                              + sum_{j=1}^{8} B_{2j}/(2j)! (s)_{2j-1} a^{-s-2j+1} + R,

    with (s)_n the rising factorial.  From a >= s/2 + 2 the corrections fall
    at least geometrically and R stays below an ulp of the tail; the
    correctly rounded sum of all the parts is within about one ulp.
    """
    if k_first <= 1:
        return zeta_even(exponent)
    stop = k_first + max(8, exponent // 2)
    parts = [float(k) ** -exponent for k in range(k_first, stop)]
    a = float(stop)
    ainv2 = 1.0 / (a * a)
    correction = 0.0
    for coeff in _EM_COEFFS[exponent]:  # Horner in a^{-2}, from j = 8 down
        correction = correction * ainv2 + coeff
    head = a ** (1 - exponent)  # a^{1-s}
    parts += (head / (exponent - 1), 0.5 * head / a, correction * ainv2 * head)
    return math.fsum(parts)


@lru_cache(maxsize=128)
def _algebraic_rows(k_first: int) -> tuple[float, ...]:
    """_ALGEBRAIC_COEFFS[n] _zeta_tail(2n + 4, k_first) for every row n, the algebraic sum's
    coefficients of z^{-2n-2}: built on first use, memoized by k_first alone (LRU)."""
    return tuple(coeff * _zeta_tail(2 * n + 4, k_first)
                 for n, coeff in enumerate(_ALGEBRAIC_COEFFS))


def _algebraic_sum(zinv2: complex, n_rows: int, k_first: int) -> complex:
    """The algebraic double sum over n < n_rows and k >= k_first, regrouped over n.

    The (n, k) term is (-1)^n 2 (2n+1)! / ((2 pi k)^{2n+4} z^{2n+2}); for each
    n the k-sum is the zeta tail sum_{k >= k_first} k^{-2n-4}.  The double sum is
    absolutely convergent, so this regrouping changes nothing; it just avoids
    throwing away the algebraic k-tail when the terminant sum is truncated.  The
    rows are _algebraic_rows' table, summed by Horner in z^{-2}.
    """
    total = 0.0 + 0.0j
    for row in reversed(_algebraic_rows(k_first)[:n_rows]):
        total = (total + row) * zinv2
    return total


def _pair_bound(k: int, n: int, log_abs_z: float, theta: float) -> float:
    """Certified bound on |pair_k| at remainder index n = N_k + 1, for |theta| <= pi/2:

        |pair_k| <= factor(theta, n) 2 (2n-1)! / ((2 pi k)^{2n+2} |z|^{2n}),

    factor from expansion._closed_factor.  The pair is minus R_n's share with the
    kernel e^{-2 pi k t}/k^2, which is positive on [0, inf) and has modulus
    e^{-2 pi k r cos phi} on a ray rotated by phi.  So the factor 1 (|theta| <= pi/4),
    csc 2 theta and the half-angle factor hold for it as for R_n; rotating costs it
    sec^{2n} phi rather than sec^{2n+1} phi, which keeps the sector family's cap
    sqrt(e (2n + 5/2))/2 above its least rotated factor for n <= 41 (the route's n <= 32).
    """
    log_term = (_LOG_TWO + math.lgamma(2 * n) - (2 * n + 2) * math.log(TWO_PI * k)
                - 2 * n * log_abs_z)
    return _closed_factor(theta, n)[0] * math.exp(log_term)


def _terminant_pairs(w: complex, roundoff: float) -> tuple[int, int, complex, float, float]:
    """K, the order N = N_{K+1} of every pair k > K, the sum of the first K terminant
    pairs at N_k = 0, its eval-error, and the k-tail of the pairs k > K at N.

    The k-th pair is (h(w_k) + h(-w_k))/(4 pi^2 k^2), h = _e1_scaled_continued at
    w_k = 2 pi k i w on the branches arg w +- pi/2.  K is the first k <= K_MAX whose
    k-tail is at most _TAIL_SHARE roundoff, and AccuracyError is raised where there is
    none.  Where |arg w| <= pi/2 the k-tail is certified: at index n = N + 1 the
    _pair_bound b_k is b_{K+1} ((K+1)/k)^{2n+2}, so sum_{k>K} b_k <= b_{K+1} (1 +
    (K+1)/(2n+1)) by the integral test.  Elsewhere (above the shift cap) it is the
    geometric sum of the switched exponentials' sizes d^k/(2 pi k^2), d = e^{-2 pi |Im w|}:
    d^{K+1}/(2 pi (K+1)^2 (1-d)).
    """
    theta, abs_w = math.atan2(w.imag, w.real), abs(w)
    log_abs_w, y = math.log(abs_w), TWO_PI * abs(w.imag)
    for last in range(1, K_MAX + 1):
        order = _order_thresholds(abs_w, last + 1)
        if abs(theta) <= 0.5 * math.pi:
            tail = (_pair_bound(last + 1, order + 1, log_abs_w, theta)
                    * (1.0 + (last + 1) / (2 * order + 3)))
        else:
            tail = math.exp(-(last + 1) * y) / (TWO_PI * (last + 1) ** 2 * -math.expm1(-y))
        if tail <= _TAIL_SHARE * roundoff:
            break
    else:
        raise AccuracyError(f"the terminant k-tail at w = {w} stays above its target "
                            f"for every K <= {K_MAX}")
    total, eval_err = 0.0 + 0.0j, 0.0
    for k in range(1, last + 1):
        w_k = TWO_PI * k * 1j * w
        h_up, rel_up = _e1_scaled_continued(w_k, theta + 0.5 * math.pi)
        h_dn, rel_dn = _e1_scaled_continued(-w_k, theta - 0.5 * math.pi)
        scale = TWO_PI * TWO_PI * k * k
        total += (h_up + h_dn) / scale
        eval_err += (rel_up * abs(h_up) + rel_dn * abs(h_dn)) / scale
    return last, order, total, eval_err, tail


def exp_improved_report(z: complex) -> tuple[complex, float]:
    """Improved evaluation plus an error estimate.

    Where Re z < 2 (and m <= 64) the expansion runs at w = z + m with Re w >= 2,
    and the value is prefix(z) + E(z, m) less the algebraic sum and the pairs
    at w (expansion._shift_bracket).  The number K of terminant pairs summed is
    chosen first, as the first K <= K_MAX whose k-tail, the pairs k > K, is at
    most 2^-10 of the round-off allowance of the prefix and E.  Below the shift
    cap that k-tail is a certified bound (at |w| >= 2, K is 1 or 2); above it
    (Re z < -62, where the route runs at z) it is the sum of the sizes of the
    switched exponentials k > K.  The pairs k <= K are summed at N_k = 0
    (_terminant_pairs); the algebraic sum takes the rows k > K, whose inner
    series are all truncated at the order N = round(pi (K+1) |w|), capped at 31
    (_order_thresholds), of the pairs left out.  The estimate is the k-tail, the
    pairs' own evaluation error, and _roundoff of the prefix's terms at z, E's
    parts where shifted, the algebraic sum, the pairs and the value.
    AccuracyError where no K <= K_MAX meets the target: above the shift cap,
    where |Im z| is below about 2e-3 to 3e-3.
    """
    z = _check_sector(z)
    m = _shift_count(z, 2.0)
    w = z + m if m else z  # z + 0 would turn an imaginary part -0.0 into 0.0
    total, terms = _shifted_prefix(z, m)  # RangeError first where the prefix overflows
    last, order, pairs, eval_err, tail = _terminant_pairs(w, _roundoff(*terms))
    alg = _algebraic_sum(1.0 / (w * w), order, last + 1)
    total -= alg
    total -= pairs
    est = tail + eval_err + _roundoff(*terms, alg, pairs, total)
    _check_finite(z, total, est)
    return total, est


# ----------------------------------------------------------------------
# Stokes multiplier profiles
# ----------------------------------------------------------------------

def _arc_profile(p: int, r: float, us: Sequence[float]) -> list[tuple[complex, float]]:
    """arc._arc_profile, which the first call imports and binds to this name in its
    place: the walk compiles on first use, not with `import barnesg`."""
    global _arc_profile
    from .arc import _arc_profile
    return _arc_profile(p, r, us)


class StokesSample(NamedTuple):
    """One point of a Stokes-switching profile.

    multiplier is the computed coefficient of the switching exponential and
    est_error a bound on its error on the same scale, below 1.8e-10 of |limit| for
    |theta -+ pi/2| <= 0.52 at every |z| within MAX_ORDER's reach (arc._arc_profile; the
    largest, 1.74e-10, is at the window's edge at |z| = 22.75, k = 1).
    erf_prediction is the smoothing-law prediction on the same scale.  The
    normalized values divide by the far-side limit -+ 1/(2 pi i k^2), so they
    run from ~0 to ~1 across the transition.  Every field is a Python scalar.
    """

    theta: float
    k: int
    multiplier: complex
    erf_prediction: complex
    est_error: float

    @property
    def limit(self) -> complex:
        return 1.0 / (2j * math.pi * self.k * self.k) * (-1 if self.theta > 0 else 1)

    @property
    def normalized_multiplier(self) -> complex:
        return self.multiplier / self.limit

    @property
    def normalized_prediction(self) -> complex:
        return self.erf_prediction / self.limit


def stokes_profile(
    abs_z: float, k: int, thetas: Sequence[float]
) -> list[StokesSample]:
    """Effective Stokes multiplier against the erf smoothing law.

    The window must sit inside (pi/2 - 1/2, pi/2 + 1/2) or its mirror image
    in the lower half-plane; each angle is taken as a Python float.  The
    terminant T_p(w) of the dominant switching exponential, w = 2 pi k i z, at
    near-optimal order p = 2 N_k + 1, N_k = round(pi k |z|) (the improved
    route's rule, counted by _order_thresholds at the cap 86 rather than 31),
    is integrated along |w| = 2 pi k |z| from
    arg w = pi/2 through the angles left of the Stokes line, and the angles
    right of it are their reflections (arc._arc_profile); the lower window mirrors
    the upper one, T_p(conj w) = -conj T_p(w).  Samples come back in the
    caller's order and depend only on the set of angles.  The prediction is
    1/2 + 1/2 erf((theta -+ pi/2) sqrt(pi k |z|)) on the corresponding side.
    RangeError when the order 2 N_k + 1 exceeds MAX_ORDER.
    """
    if not 1.5 <= abs_z < math.inf:  # false for NaN too
        raise DomainError(f"stokes_profile requires a finite |z| >= 1.5, got {abs_z}")
    k = _check_order(k, 1, MAX_ORDER, RangeError)
    thetas = [float(t) for t in thetas]
    if not thetas:
        return []
    # nominal window is +-1/2 around the line; allow a little slop so that
    # round two-decimal endpoints like 1.07 stay usable
    upper = all(abs(t - 0.5 * math.pi) <= 0.52 for t in thetas)
    if not (upper or all(abs(t + 0.5 * math.pi) <= 0.52 for t in thetas)):
        raise DomainError(
            "thetas must lie within 1/2 of a Stokes line (pi/2 or -pi/2)"
        )
    reach = (MAX_ORDER + 1) // 2  # p = 2 N_k + 1 <= MAX_ORDER while N_k < reach
    n_k = _order_thresholds(abs_z, k, reach)
    if n_k == reach:
        raise RangeError(f"the terminant order at |z| = {abs_z}, k = {k} exceeds {MAX_ORDER}")
    rate = math.sqrt(math.pi * k * abs_z)
    # sign = +1 on the upper line, where w = 2 pi k i z; -1 on the lower, where w = -2 pi k i z
    sign = 1.0 if upper else -1.0
    scale = 2j * math.pi * k * k
    limit = -sign / scale
    us = [sign * theta - 0.5 * math.pi for theta in thetas]  # arg w = pi + u, upper window
    arc = _arc_profile(2 * n_k + 1, TWO_PI * k * abs_z, us)
    per, erf, make = TWO_PI * k * k, math.erf, StokesSample._make  # _make: half the calls' cost
    # u sqrt(pi k |z|): the signed distance past the line; 0 - conj, not -conj: no -0 parts
    return [make((theta, k, -(t_p if upper else 0.0 - t_p.conjugate()) / scale,
                  (0.5 + 0.5 * erf(u * rate)) * limit, est / per))
            for theta, u, (t_p, est) in zip(thetas, us, arc)]
