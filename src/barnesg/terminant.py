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
h = e^{w} E1(w), w_k = 2 pi k i z, and has no algebraic row; the rows and pairs k > K
take N_k = round(pi k |z|), which _order_thresholds writes once, as a list that the
route reads capped at 40 and stokes_profile capped at ceil(pi k |z|) + 1.  The first
double sum converges absolutely and its rows are evaluated completely (regrouped over
n through zeta partial sums); only the terminant sum is truncated.  A pair at N_k is
exactly minus the k-th share of the remainder R_{N_k+1}(z), the dilog kernel with
Li2(e^{-2 pi t}) replaced by e^{-2 pi k t}/k^2, so the remainder's closed bound
factors bound the pairs left out.  Where |arg z| <= pi/2, K is the first k <= k_max
whose certified k-tail is below 1/1024 of the prefix's round-off, and that bound is
the reported k-tail; elsewhere (above the shift cap) K = k_max, with a guessed k-tail.

Branch bookkeeping: with z in the slit plane the terminant arguments
w = +-2 pi k i z sweep arg w across +-pi, so the function is evaluated on the
continued branch.  Crossing arg w = pi upward adds exactly +1 (the residue of
t^{-p} e^{-t} picked up by the defining contour), crossing -pi downward -1; below
the axis the reflection T_p(conj w) = -conj(T_p(w)), integer p, holds.

The improved route reads the closed form directly.  Past the imaginary axis the
closed form cancels, and the Stokes switch is computed in one place, _arc_profile:
at fixed |w| it integrates T_p's exact angular derivative from a closed-form seed
on the imaginary axis, where nothing cancels, as far as the Stokes line, and takes
the angles past it by the derivative's mirror symmetry about the line, with a bound
on every part of the error.  Stokes profiles take it alone; terminant, the one entry
point for T_p(w), takes it or the closed form, whichever reports the smaller error
estimate.

The zeta tails of the algebraic sum depend only on an exponent and a first
index, which take few values over a range of |z|; _zeta_tail memoizes them in
a bounded table.  Nothing is kept per z.
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
#: of the round-off allowance of the prefix and E.
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
    closed form cancels, the arc integral (_arc_profile) runs too, at
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

def _order_thresholds(abs_z: float, cap: int = _ORDER_CAP) -> list[int]:
    """The order rule N_k = round(pi k |z|) capped at cap, as thresholds: entry n
    is the least k >= 1 with pi k |z| >= n + 1/2 (ties, and k within 1e-12
    below one, round up), and N_k is the number of entries <= k.  The improved
    route's algebraic rows and k-tail read it at cap 40, stokes_profile at
    min(86, ceil(pi k |z|) + 1): every entry past pi k |z| is above k.  No other code
    encodes the rule, so the k-tail bounds the pairs the rows leave out at the ties."""
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


def _terminant_pairs(w: complex, first_k: list[int], k_max: int,
                     roundoff: float) -> tuple[int, complex, float, float]:
    """K <= k_max, the sum of the first K terminant pairs at N_k = 0, its eval-error,
    and the k-tail of the pairs k > K at the orders of first_k.

    The k-th pair is (h(w_k) + h(-w_k))/(4 pi^2 k^2), h = _e1_scaled_continued at
    w_k = 2 pi k i w on the branches arg w +- pi/2.  Where |arg w| <= pi/2, K is the
    first k whose certified k-tail (_k_tail) is at most _TAIL_SHARE roundoff, and that
    bound is the k-tail.  Elsewhere (above the shift cap) K = k_max, and the k-tail is
    guessed from the sizes e^{-2 pi k |Im w|}/(2 pi k^2) of the switched exponentials.
    """
    theta = math.atan2(w.imag, w.real)
    if abs(theta) <= 0.5 * math.pi:
        log_abs_w = math.log(abs(w))
        for last in range(1, k_max + 1):
            tail = _k_tail(last, log_abs_w, theta, first_k)
            if tail <= _TAIL_SHARE * roundoff:
                break
    else:
        last = k_max
        ratio = math.exp(-TWO_PI * abs(w.imag)) * (1.0 - 1.0 / last) ** 2
        ratio = min(0.9, max(1e-6, ratio)) if last > 1 else 0.5
        switched = math.exp(-TWO_PI * last * abs(w.imag)) / (TWO_PI * last * last)
        tail = switched * ratio / (1.0 - ratio)
    total, eval_err = 0.0 + 0.0j, 0.0
    for k in range(1, last + 1):
        w_k = TWO_PI * k * 1j * w
        h_up, rel_up = _e1_scaled_continued(w_k, theta + 0.5 * math.pi)
        h_dn, rel_dn = _e1_scaled_continued(-w_k, theta - 0.5 * math.pi)
        scale = TWO_PI * TWO_PI * k * k
        total += (h_up + h_dn) / scale
        eval_err += (rel_up * abs(h_up) + rel_dn * abs(h_dn)) / scale
    return last, total, eval_err, tail


def exp_improved_report(z: complex, k_max: int = K_MAX) -> tuple[complex, float]:
    """Improved evaluation plus an error estimate.

    Where Re z < 2 (and m <= 64) the expansion runs at w = z + m with Re w >= 2,
    and the value is prefix(z) + E(z, m) less the algebraic sum and the pairs
    at w (expansion._shift_bracket).  k_max >= 1 is the most terminant pairs
    summed, and their number K is chosen first: below the shift cap it is the
    first K whose certified bound on the pairs k > K is at most 2^-10 of the
    round-off allowance of the prefix and E (at |w| >= 2, K is 1 or 2), and that
    bound is the k-tail.  Above the cap (Re z < -62, where the route runs at z)
    K = k_max and the k-tail is a geometric-ratio guess.  The pairs k <= K are
    summed at N_k = 0 (_terminant_pairs); the algebraic sum takes the rows k > K,
    whose inner series are truncated at N_k = round(pi k |w|), capped at 40
    (_order_thresholds).  The estimate is the k-tail, the pairs' own evaluation
    error, and _roundoff of the prefix's terms at z, E's parts where shifted,
    the algebraic sum, the pairs and the value.  AccuracyError
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
    last, pairs, eval_err, tail = _terminant_pairs(w, first_k, k_max, _roundoff(*terms))
    alg = _algebraic_sum(1.0 / (w * w), [max(t, last + 1) for t in first_k])
    total -= alg
    total -= pairs
    est = tail + eval_err + _roundoff(*terms, alg, pairs, total)
    _check_finite(z, total, est)
    return total, est


# ----------------------------------------------------------------------
# Stokes multiplier profiles
# ----------------------------------------------------------------------

#: Four-point Gauss-Legendre rule on [-1, 1] in closed form, as (node, weight).
_GAUSS4 = tuple((s * math.sqrt((3.0 + t * 2.0 * math.sqrt(1.2)) / 7.0),
                 (18.0 - t * math.sqrt(30.0)) / 36.0) for t in (-1.0, 1.0) for s in (-1.0, 1.0))


def _arc_bound(h: float, r: float, p: int, log_a: float) -> float:
    """Error bound of _GAUSS4 on a panel of half-width h of the arc integrand dT_p/du.

    On the panel's Bernstein ellipse E_rho, |Im u| <= beta = h (rho - 1/rho)/2, where the
    integrand's log-modulus, convex in Im u, is at most log M = log A + max(r (e^{-beta} - 1)
    + (p - 1) beta, r (e^{beta} - 1) - (p - 1) beta).  So n = 4 nodes err by at most
    (64/15) M rho^{-2(n-1)}/(rho^2 - 1) h (Trefethen, SIAM Rev. 50 (2008) 67-87, Thm 4.5,
    stated for n + 1 nodes).  rho = sqrt(32/r)/h minimises e^{r beta^2/2} rho^{-8}, the
    bound at p - 1 = r; it is within 11 % of the best rho for r = 9.4 .. 170.  inf where
    M overflows binary64 (from p - 1 >> r, e.g. T_171 at r = 4).
    """
    rho = max(2.0, math.sqrt(32.0 / r) / h)
    beta = 0.5 * h * (rho - 1.0 / rho)
    log_m = max(r * math.expm1(-beta) + (p - 1) * beta, r * math.expm1(beta) - (p - 1) * beta)
    try:
        return 64.0 / 15.0 * h * math.exp(log_a + log_m) * rho ** -6 / (rho * rho - 1.0)
    except OverflowError:
        return math.inf


def _arc_nodes(p: int, h: float) -> tuple[complex, ...]:
    """_arc_sum's constants for panels of half-width h: e^{i h x_j} and
    log(h w_j) + i (1 - p) h x_j for each node x_j and weight w_j of _GAUSS4."""
    out: list[complex] = []
    for x, weight in _GAUSS4:
        out += (cmath.rect(1.0, h * x), complex(math.log(h * weight), (1 - p) * h * x))
    return tuple(out)


def _arc_sum(p: int, r: float, log_a: float, lo: float, hi: float, panels: int,
             nodes: Optional[tuple[complex, ...]] = None) -> tuple[complex, float]:
    """_GAUSS4 on `panels` equal panels of [lo, hi] applied to the arc integrand
    dT_p/du = exp(log A + r (e^{iu} - 1) + i (1 - p) u): the sum and the sum of moduli.

    One exp per node: at u = mid + h x_j the term is
    exp(log A - r + i (1 - p) mid + log(h w_j) + i (1 - p) h x_j + r e^{i mid} e^{i h x_j}),
    with r e^{i mid} once per panel and the rest per panel width (nodes, from _arc_nodes
    when not given).
    """
    h = 0.5 * (hi - lo) / panels
    e0, d0, e1, d1, e2, d2, e3, d3 = nodes or _arc_nodes(p, h)
    shift, phase = log_a - r, float(1 - p)
    exp, rect = cmath.exp, cmath.rect
    total, mass = 0.0 + 0.0j, 0.0
    for i in range(panels):
        mid = lo + (2 * i + 1) * h
        c = rect(r, mid)
        base = complex(shift, phase * mid)
        t0 = exp(base + d0 + c * e0)
        t1 = exp(base + d1 + c * e1)
        t2 = exp(base + d2 + c * e2)
        t3 = exp(base + d3 + c * e3)
        total += t0 + t1 + t2 + t3
        mass += abs(t0) + abs(t1) + abs(t2) + abs(t3)
    return total, mass


def _arc_profile(p: int, r: float, us: Sequence[float]) -> list[tuple[complex, float]]:
    """T_p(W) and a bound on its error at W = r e^{i(pi + u)} for each u of us, in order.

    On the continued branch dT_p/du = F(u) = exp(log A + r (e^{iu} - 1) + i (1 - p) u)
    exactly, log A = lgamma(p) + (1 - p) log r + r - log 2 pi: a near-Gaussian bump of width
    r^{-1/2} and mass 1 at u = 0.  From the seed T_p(i r) at u = -pi/2, where |e^{-W}| = 1
    and nothing cancels, the walk visits only the sorted distinct -|u| (and 0 when some
    u > 0), adding _arc_sum over panels no wider than min(0.05, 0.3/sqrt r) for each step.
    log A, r and p are real, so F(-u) = conj F(u), and every u > 0 is the reflection
    T(u) = T(0) + conj(T(0) - T(-u)) of the walk; a window symmetric about the line costs
    one walk over its left half.  The bound at u <= 0 is the seed's estimate, plus
    _arc_bound per panel, plus round-off: each term is good to
    rel = eps (lgamma(p) + (p - 1)(2 log r + pi) + 8 r + 4) for |u| <= pi/2 (log A;
    r e^{i mid}, e^{i h x_j} and their product, each good to about eps r per part; the
    phase (1 - p) u; the rounding of mid times r + p - 1; and the exp), and each addition
    to one eps of the running sum.  At u > 0 it is the bound at 0 plus the panel bounds,
    term round-off and additions of the stretch [-u, 0], plus two additions for the
    reflection.  For |u| <= 0.52 the bound stays below 3.7e-10 up to r = 171.
    """
    seed, est = _scaled_recurrence(p, r * 1j, 0.5 * math.pi)
    total = seed * cmath.exp(-r * 1j)
    log_a = math.lgamma(p) + (1 - p) * math.log(r) + r - math.log(TWO_PI)
    rel = EPS * (math.lgamma(p) + (p - 1) * (2.0 * math.log(r) + math.pi) + 8.0 * r + 4.0)
    width = min(0.05, 0.3 / math.sqrt(r))
    per_width: dict[float, tuple] = {}  # panel bound and nodes: the linspace gaps take few
    left = {-abs(u) for u in us}
    if max(us, default=0.0) > 0.0:
        left.add(0.0)
    lo, mass, terms = -0.5 * math.pi, 0.0, 0
    walk = {}  # -|u| -> (T, its bound, seed estimate plus panel bounds, mass, additions)
    for hi in sorted(left):
        panels = math.ceil((hi - lo) / width)
        h = 0.5 * (hi - lo) / panels
        if h not in per_width:
            per_width[h] = (_arc_bound(h, r, p, log_a), _arc_nodes(p, h))
        bound, nodes = per_width[h]
        part, part_mass = _arc_sum(p, r, log_a, lo, hi, panels, nodes)
        total, mass, terms = total + part, mass + part_mass, terms + 4 * panels + 1
        est += panels * bound
        walk[hi] = (total, est + rel * mass + terms * EPS * (abs(seed) + mass), est, mass, terms)
        lo = hi
    out = []
    for u in us:
        value, bound, est_u, mass_u, terms_u = walk[-abs(u)]
        if u > 0.0:
            t_0, bound_0, est_0, mass_0, terms_0 = walk[0.0]
            value = t_0 + (t_0 - value).conjugate()
            if bound < math.inf:  # an infinite panel bound stays so (inf - inf is nan)
                bound = (bound_0 + (est_0 - est_u) + rel * (mass_0 - mass_u)
                         + (terms_0 - terms_u + 2) * EPS * (abs(seed) + mass_0))
        out.append((value, bound))
    return out


class StokesSample(NamedTuple):
    """One point of a Stokes-switching profile.

    multiplier is the computed coefficient of the switching exponential and
    est_error a bound on its error on the same scale, at most about 3.7e-10 of
    |limit| at every |z| within MAX_ORDER's reach (_arc_profile).
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
    route's rule: the entries <= k of _order_thresholds' list, capped at
    ceil(pi k |z|) + 1 rather than 40), is integrated along |w| = 2 pi k |z| from
    arg w = pi/2 through the angles left of the Stokes line, and the angles
    right of it are their reflections (_arc_profile); the lower window mirrors
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
    lower = all(abs(t + 0.5 * math.pi) <= 0.52 for t in thetas)
    if not (upper or lower):
        raise DomainError(
            "thetas must lie within 1/2 of a Stokes line (pi/2 or -pi/2)"
        )
    reach = (MAX_ORDER + 1) // 2  # p = 2 N_k + 1 <= MAX_ORDER while N_k < reach
    # every threshold past pi k |z| is above k; min first: pi k |z| may overflow to inf
    cap = min(reach, math.ceil(min(math.pi * k * abs_z, reach)) + 1)
    n_k = bisect.bisect_right(_order_thresholds(abs_z, cap), k)
    if n_k == reach:
        raise RangeError(f"the terminant order at |z| = {abs_z}, k = {k} exceeds {MAX_ORDER}")
    rate = math.sqrt(math.pi * k * abs_z)
    # sign = +1 on the upper line, where w = 2 pi k i z; -1 on the lower, where w = -2 pi k i z
    sign = 1.0 if upper else -1.0
    scale = 2j * math.pi * k * k
    limit = -sign / scale
    us = [sign * theta - 0.5 * math.pi for theta in thetas]  # arg w = pi + u, upper window
    arc = _arc_profile(2 * n_k + 1, TWO_PI * k * abs_z, us)
    # u sqrt(pi k |z|): the signed distance past the line; 0 - conj, not -conj: no -0 parts
    return [StokesSample(theta, k, -(t_p if upper else 0.0 - t_p.conjugate()) / scale,
                         (0.5 + 0.5 * math.erf(u * rate)) * limit, est / (TWO_PI * k * k))
            for theta, u, (t_p, est) in zip(thetas, us, arc)]
