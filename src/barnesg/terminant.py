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

an identity for every sequence of non-negative N_k.  The first double sum
converges absolutely and is evaluated completely (regrouped over n through
zeta partial sums); only the terminant sum is truncated.  Its k-th pair is
exactly minus the k-th share of the remainder R_{N_k+1}(z), the dilog kernel
with Li2(e^{-2 pi t}) replaced by e^{-2 pi k t}/k^2, so the remainder's closed
bound factors bound each pair too.  Where |arg z| <= pi/2 the sum stops at the
first K <= k_max whose certified k-tail is below 1/1024 of the value's
round-off, and that bound is the reported k-tail; elsewhere (above the shift
cap) k_max pairs are summed and the k-tail is guessed from the last two.

Branch bookkeeping: with z in the slit plane the terminant arguments
w = +-2 pi k i z sweep arg w across +-pi, so the function is evaluated on the
continued branch.  Crossing arg w = pi upward adds exactly +1 (the residue of
t^{-p} e^{-t} picked up by the defining contour), crossing -pi downward -1; the
erf form's lower half is the reflection T_p(conj w) = -conj(T_p(w)), integer p.

terminant, the one entry point for T_p(w), returns the closed form or, at
near-matched order p ~ |w|, the leading erf form, whichever reports the smaller
error estimate; the improved route reads the closed form directly.

The zeta tails of the algebraic sum depend only on an exponent and a first
index, which take few values over a range of |z|; _zeta_tail memoizes them in
a bounded table.  Nothing is kept per z.
"""

from __future__ import annotations

import bisect
import cmath
import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .bernoulli import EPS, MAX_INDEX, TWO_PI, bernoulli_number, zeta_even
from .errors import (AccuracyError, DomainError, RangeError, _check_finite, _check_order,
                     _check_sector)
from .expansion import _closed_factor, _roundoff, _shift_count, _shifted_prefix
from .special import _e1_scaled_continued, _erf_switch

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
#: Terminant pairs that exp_improved_report sums unless told otherwise.
K_MAX = 5
_ORDER_CAP = 40
#: Above the shift cap (Re z < -62) exp_improved_report runs at z itself, where its
#: k-th pair is of size e^{-2 pi k |Im z|}.  Against mpmath, the geometric k-tail guess
#: falls short of the error by up to 2.5x where the first omitted pair,
#: e^{-2 pi (k_max + 1) |Im z|}, is above about 1e-8, and stays below a quarter of it
#: where that pair is below 1e-9.  So the route raises where
#: (k_max + 1) |Im z| < log(1e9) / (2 pi).
_CAP_K_REACH = math.log(1e9) / TWO_PI
#: Below the shift cap the pair sum stops once its certified k-tail is below this share
#: of the round-off allowance of the prefix, E and the algebraic sum.
_TAIL_SHARE = 2.0 ** -10
_LOG_TWO = math.log(2.0)


class TerminantMethod(enum.Enum):
    """The form terminant chose, which TerminantEval.method and the CLI report."""

    #: Names the closed form of _scaled_recurrence; the value, which the CLI prints, is kept.
    GAMMA_RECURRENCE = "gamma_recurrence"
    ERF_ASYMPTOTIC = "erf_asymptotic"


@dataclass(frozen=True)
class TerminantEval:
    value: complex
    method: TerminantMethod
    est_error: float


def _check_branch(w: complex, arg_w: Optional[float]) -> tuple[complex, float]:
    """w through the slit-plane check without the cut, and its branch angle:
    arg_w if given (it must equal arg w modulo 2 pi), else the principal phase."""
    w = _check_sector(w, cut=False)
    if arg_w is None:
        return w, math.atan2(w.imag, w.real)
    if not math.isfinite(arg_w):
        raise DomainError(f"arg_w must be finite, got {arg_w}")
    windings = (arg_w - math.atan2(w.imag, w.real)) / TWO_PI
    if abs(windings - round(windings)) > 1e-6:
        raise DomainError("arg_w must equal arg(w) modulo 2 pi")
    return w, arg_w


def _scaled_recurrence(p: int, w: complex, arg_w: float) -> tuple[complex, float]:
    """T_p(w) e^{w} in closed form, overflow-safe for Re w << 0.

    For integer p, T_p(w) e^{w} = (S_{p-1}(w) - e^{w} E1(w)) / (2 pi i), where
    S_m(w) = sum_{j<m} (-1)^j j! / w^{j+1} is the truncated asymptotic series
    of h = e^{w} E1(w) on the branch arg_w, past +-pi too; the partial sums
    are built forward, one multiply per term.  The error estimate is the seed
    error seed_rel |h| plus 4 eps for every partial difference |h - S_m|,
    divided by 2 pi, plus 4 eps of the value.
    """
    h, seed_rel = _e1_scaled_continued(w, arg_w)
    winv = 1.0 / w
    term = winv
    partial = 0.0 + 0.0j
    spread = 0.0
    try:
        for m in range(1, p):
            partial += term
            spread += abs(h - partial)
            term *= -m * winv
    except OverflowError:  # |h - S_m| beyond binary64
        raise RangeError(f"T_{p}(w) e^w overflows binary64 at w = {w}") from None
    value = (partial - h) / (2j * math.pi)
    est = (seed_rel * abs(h) + 4.0 * EPS * spread) / TWO_PI + 4.0 * EPS * abs(value)
    return value, est


def _exp_minus(w: complex) -> complex:
    if -w.real > 709.0:
        raise AccuracyError(
            "unscaled terminant overflows for Re w < -709; "
            "only the scaled combination T_p(w) e^{w} is representable there"
        )
    return cmath.exp(-w)


def terminant(p: int, w: complex, arg_w: Optional[float] = None) -> TerminantEval:
    """Scaled terminant T_p(w) for positive integer order p.

    arg_w selects the branch (it may exceed +-pi; defaults to the principal
    phase).  The closed form of _scaled_recurrence always runs.  Where
    |p - |w|| <= sqrt|w| the erf form applies too: the Stokes switch
    1/2 + 1/2 erf(c(phi) sqrt(|w|/2)) for arg w >= 0 and its mirror -conj at
    conj w below, with the estimate (1 + |p - |w||)/sqrt|w|.  The form with the
    smaller estimate is returned; a mismatched order keeps the closed form and
    its estimate, however large.  RangeError when the closed form is not finite
    in binary64 and the erf form does not apply, or p > MAX_ORDER.
    AccuracyError where Re w < -709: e^{-w} overflows, and only the scaled
    T_p(w) e^{w} is representable there.
    """
    p = _check_order(p, 1, MAX_ORDER, RangeError)
    w, arg_w = _check_branch(w, arg_w)
    if not -1.5 * math.pi < arg_w < 1.5 * math.pi:
        raise DomainError("arg_w must lie in (-3 pi/2, 3 pi/2)")
    scaled, est = _scaled_recurrence(p, w, arg_w)
    emw = _exp_minus(w)
    value, est = scaled * emw, est * abs(emw)
    mismatch = abs(p - abs(w))
    erf_est = (1.0 + mismatch) / math.sqrt(abs(w))
    if mismatch <= math.sqrt(abs(w)) and erf_est < est:
        value = _erf_switch(abs(arg_w) - math.pi, abs(w))
        if arg_w < 0.0:
            value = 0.0 - value.conjugate()  # not -conj: that turns a saturated 0 into -0
        return TerminantEval(value, TerminantMethod.ERF_ASYMPTOTIC, erf_est)
    _check_finite(w, value, est)
    return TerminantEval(value, TerminantMethod.GAMMA_RECURRENCE, est)


# ----------------------------------------------------------------------
# Exponentially improved expansion
# ----------------------------------------------------------------------

def _order_thresholds(abs_z: float, cap: int = _ORDER_CAP) -> list[int]:
    """The order rule N_k = round(pi k |z|) capped at cap, as thresholds: entry n
    is the least k >= 1 with pi k |z| >= n + 1/2 (ties, and k within 1e-12
    below one, round up), and N_k is the number of entries <= k.  The algebraic
    sum, the terminant pairs and stokes_profile read only this rule, so the
    improved expansion stays an identity at the ties."""
    unit = math.pi * abs_z
    return [math.ceil((n + 0.5) / unit - 1e-12) or 1 for n in range(cap)]  # or 1: k >= 1


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


@lru_cache(maxsize=4096)
def _zeta_tail(exponent: int, k_first: int) -> float:
    """sum_{k >= k_first} k^{-exponent}, accurate relative to its own size.

    A pure function of two integers, memoized on first use: k_first =
    ceil((n + 1/2)/(pi |z|)) takes few values over a range of |z|, so most
    calls are hits.  The memo is bounded (least recently used pairs go) and
    keyed by the integers alone, never by z.

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


def _algebraic_coeffs() -> tuple[float, ...]:
    """(-1)^n 2 (2n+1)! / (2 pi)^{2n+4} for the exponents 2n + 4 = 4 .. MAX_INDEX,
    the Bernoulli table's reach: _algebraic_sum's coefficients."""
    coeffs, two_fact = [], 2.0  # 2 (2n+1)! at n = 0
    for n in range(MAX_INDEX // 2 - 1):
        coeffs.append((-1) ** n * two_fact / TWO_PI ** (2 * n + 4))
        two_fact *= (2 * n + 2) * (2 * n + 3)
    return tuple(coeffs)


_ALGEBRAIC_COEFFS = _algebraic_coeffs()


def _algebraic_sum(zinv2: complex, first_k: list[int]) -> complex:
    """Complete inner double sum, regrouped over n with zeta partial sums.

    The (n, k) term is (-1)^n 2 (2n+1)! / ((2 pi k)^{2n+4} z^{2n+2}); for each
    n the k-sum runs over the k with N_k > n, k >= first_k[n], and equals
    zeta(2n+4) minus the finitely many excluded leading k.  The double sum is
    absolutely convergent, so this regrouping changes nothing; it just avoids
    throwing away the algebraic k-tail when the terminant sum is truncated.
    """
    total = 0.0 + 0.0j
    zpow = zinv2
    for n, coeff in enumerate(_ALGEBRAIC_COEFFS):
        partial = _zeta_tail(2 * n + 4, first_k[n])
        term = coeff * zpow * partial
        total += term
        if abs(term) < 1e-22 * max(1.0, abs(total)):
            break
        zpow *= zinv2
    return total


def _pair_bound(k: int, n: int, log_abs_z: float, theta: float) -> float:
    """Certified bound on |pair_k| at remainder index n = N_k + 1, for |theta| <= pi/2:

        |pair_k| <= factor(theta, n) 2 (2n-1)! / ((2 pi k)^{2n+2} |z|^{2n}),

    factor from expansion._closed_factor.  The pair is minus R_n's share with the
    kernel e^{-2 pi k t}/k^2, which is positive on [0, inf) and has modulus
    e^{-2 pi k r cos phi} on a ray rotated by phi.  So the factor 1 (|theta| <= pi/4),
    csc 2 theta and the half-angle factor hold for it as for R_n; rotating costs it
    sec^{2n} phi rather than sec^{2n+1} phi, which keeps the sector family's cap
    sqrt(e (2n + 5/2))/2 above its least rotated factor for n <= 41.
    """
    log_term = (_LOG_TWO + math.lgamma(2 * n) - (2 * n + 2) * math.log(TWO_PI * k)
                - 2 * n * log_abs_z)
    return _closed_factor(theta, n)[0] * math.exp(log_term)


def _k_tail(last: int, log_abs_z: float, theta: float, first_k: list[int]) -> float:
    """Certified bound on sum_{k > last} |pair_k|, for |theta| <= pi/2.

    The pairs below the order cap are bounded one by one.  From j, the first k at
    the cap, every pair has index n = cap + 1, so its bound is b_j (j/k)^{2n+2}, and
    sum_{k >= j} b_k <= b_j (1 + j/(2n+1)) by the integral test.
    """
    j = first_k[-1]
    tail = sum(_pair_bound(k, bisect.bisect_right(first_k, k) + 1, log_abs_z, theta)
               for k in range(last + 1, j))
    j = max(j, last + 1)
    n = len(first_k) + 1
    return tail + _pair_bound(j, n, log_abs_z, theta) * (1.0 + j / (2 * n + 1))


def _terminant_pairs(z: complex, first_k: list[int], k_max: int,
                     target: float) -> tuple[complex, float, float]:
    """Sum of the first K <= k_max terminant pairs, their eval-error, and the k-tail.

    Where |arg z| <= pi/2 the sum stops at the first K whose certified k-tail
    (_k_tail) is at most target, and that bound is the k-tail.  Elsewhere (above
    the shift cap) all k_max pairs are summed and the k-tail is guessed from the
    ratio of the last two.
    """
    theta = math.atan2(z.imag, z.real)
    certified = abs(theta) <= 0.5 * math.pi
    log_abs_z = math.log(abs(z))
    total = 0.0 + 0.0j
    eval_err = 0.0
    last_mag = 0.0
    prev_mag = 0.0
    for k in range(1, k_max + 1):
        p = 2 * bisect.bisect_right(first_k, k) + 1
        w_up = TWO_PI * k * 1j * z
        s_up, e_up = _scaled_recurrence(p, w_up, theta + 0.5 * math.pi)
        s_dn, e_dn = _scaled_recurrence(p, -w_up, theta - 0.5 * math.pi)
        pair = (s_up + s_dn) / (2j * math.pi * k * k)
        total += pair
        eval_err += (e_up + e_dn) / (TWO_PI * k * k)
        if not certified:
            prev_mag, last_mag = last_mag, abs(pair)
            continue
        tail = _k_tail(k, log_abs_z, theta, first_k)
        if tail <= target:
            break
    if certified:
        return total, eval_err, tail
    if prev_mag > 0.0 and last_mag > 0.0:
        ratio = min(0.9, max(1e-6, last_mag / prev_mag))
    else:
        ratio = 0.5
    return total, eval_err, last_mag * ratio / (1.0 - ratio)


def exp_improved_report(z: complex, k_max: int = K_MAX) -> tuple[complex, float]:
    """Improved evaluation plus an error estimate.

    Where Re z < 2 (and m <= 64) the expansion runs at w = z + m with Re w >= 2,
    and the value is prefix(z) + E(z, m) less the algebraic sum and the pairs
    at w (expansion._shift_bracket).  At w the k-th exponential's inner series
    is truncated at N_k = round(pi k |w|), capped at 40 (_order_thresholds).
    k_max >= 1 is the most terminant pairs summed: below the shift cap the sum
    stops at the first K whose certified bound on the pairs k > K is at most
    2^-10 of the round-off allowance of the prefix, E and the algebraic sum
    (at |w| >= 2, K is 1 or 2), and that bound is the k-tail.  Above the cap
    (Re z < -62, where the route runs at z) all k_max pairs are summed and the
    k-tail is a geometric-ratio guess.  The estimate is the k-tail, the pairs'
    own evaluation error, and _roundoff of the prefix's terms at z, E's parts
    where shifted, the algebraic sum, the pairs and the value.  AccuracyError
    above the shift cap where |Im z| < (log 1e9)/(2 pi (k_max + 1)): there the
    k-tail guess cannot be trusted (_CAP_K_REACH).
    """
    k_max = _check_order(k_max, 1)
    z = _check_sector(z)
    m = _shift_count(z, 2.0)
    w = z + m if m else z  # z + 0 would turn an imaginary part -0.0 into 0.0
    total, terms = _shifted_prefix(z, m)  # RangeError first where the prefix overflows
    if not m and z.real < 2.0 and k_max + 1 < _CAP_K_REACH / abs(z.imag):  # Im z != 0 here
        raise AccuracyError(
            f"the terminant k-tail cannot be bounded at z = {z}: above the shift cap, "
            f"{k_max} pairs leave a first omitted pair above 1e-9")
    first_k = _order_thresholds(abs(w))  # |w| >= 2: Re w >= 2, or Re w < -62 unshifted
    alg = _algebraic_sum(1.0 / (w * w), first_k)
    total -= alg
    pairs, eval_err, tail = _terminant_pairs(w, first_k, k_max,
                                             _TAIL_SHARE * _roundoff(*terms, alg))
    total -= pairs
    est = tail + eval_err + _roundoff(*terms, alg, pairs, total)
    _check_finite(z, total, est)
    return total, est


# ----------------------------------------------------------------------
# Stokes multiplier profiles
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StokesSample:
    """One point of a Stokes-switching profile.

    multiplier is the computed coefficient of the switching exponential and
    est_error the terminant's error estimate on the same scale.  Once
    2 pi k |z| passes about 33 the closed form cancels and terminant takes the
    erf form: multiplier is then the leading-order switch itself, and est_error,
    a fifth to two fifths of |limit| on the line, says how far to trust it.
    erf_prediction is the smoothing-law prediction on the same scale.  The
    normalized values divide by the far-side limit -+ 1/(2 pi i k^2), so they
    run from ~0 to ~1 across the transition.
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
    in the lower half-plane.  At each angle the terminant of the dominant
    switching exponential is evaluated by terminant, which picks the closed
    or the erf form by their estimates, at near-optimal order
    N_k = round(pi k |z|) (the improved route's rule, uncapped), and the
    prediction is 1/2 + 1/2 erf((theta -+ pi/2) sqrt(pi k |z|)) on the
    corresponding side.  RangeError when the order 2 N_k + 1 exceeds MAX_ORDER.
    """
    if not 1.5 <= abs_z < math.inf:  # false for NaN too
        raise DomainError(f"stokes_profile requires a finite |z| >= 1.5, got {abs_z}")
    k = _check_order(k, 1, MAX_ORDER, RangeError)
    thetas = list(thetas)
    if not thetas:
        return []
    # nominal window is +-1/2 around the line; allow a little slop so that
    # round two-decimal endpoints like 1.07 stay usable
    upper = all(abs(t - 0.5 * math.pi) <= 0.52 for t in thetas)
    lower = all(abs(t + 0.5 * math.pi) <= 0.52 for t in thetas)
    if not (upper or lower):
        raise DomainError(
            "thetas must lie within 1/2 of a Stokes line (pi/2 or -pi/2)"
        )
    reach = (MAX_ORDER + 1) // 2  # p = 2 N_k + 1 <= MAX_ORDER while N_k < reach
    n_k = bisect.bisect_right(_order_thresholds(abs_z, reach), k)
    if n_k == reach:
        raise RangeError(f"the terminant order at |z| = {abs_z}, k = {k} exceeds {MAX_ORDER}")
    p = 2 * n_k + 1
    rate = math.sqrt(math.pi * k * abs_z)
    # sign = +1 on the upper line, where w = 2 pi k i z; -1 on the lower, where w = -2 pi k i z
    sign = 1.0 if upper else -1.0
    limit = -sign / (2j * math.pi * k * k)
    samples: list[StokesSample] = []
    for theta in thetas:
        z = abs_z * cmath.exp(1j * theta)
        ev = terminant(p, sign * TWO_PI * k * 1j * z, arg_w=theta + sign * 0.5 * math.pi)
        x = sign * (theta - sign * 0.5 * math.pi) * rate  # signed distance past the line
        pred_norm = 0.5 + 0.5 * math.erf(x)
        samples.append(
            StokesSample(
                theta=theta,
                k=k,
                multiplier=-ev.value / (2j * math.pi * k * k),
                erf_prediction=pred_norm * limit,
                est_error=ev.est_error / (TWO_PI * k * k),
            )
        )
    return samples
