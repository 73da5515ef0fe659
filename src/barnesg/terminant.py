"""Terminant function, exponentially improved expansion, Stokes smoothing.

The scaled terminant

    T_p(w) = e^{i pi p} Gamma(p) / (2 pi i) * Gamma(1 - p, w)

encodes the remainder of an optimally truncated asymptotic series.  For the
odd integer orders used here it reduces, by the downward incomplete-gamma
recurrence, to the tail of the asymptotic series of E1 -- which is exactly
what makes the exponentially improved expansion of log G(z+1) work:

    log G(z+1) = prefix(z)
               - sum_{k>=1} (2 pi k)^{-2} sum_{n=0}^{N_k-1} (-1)^n 2(2n+1)!/(2 pi k z)^{2n+2}
               - sum_{k>=1} [T_{2N_k+1}(2 pi k i z) e^{2 pi k i z}
                             + T_{2N_k+1}(-2 pi k i z) e^{-2 pi k i z}] / (2 pi i k^2),

an identity for every sequence of non-negative N_k.  The first double sum
converges absolutely and is evaluated completely (regrouped over n through
zeta partial sums); only the terminant sum is truncated, at k_max, leaving
the exponentially small k-tail that is reported as the error estimate.

Branch bookkeeping: with z in the slit plane the terminant arguments
w = +-2 pi k i z sweep arg w across +-pi, so the function is evaluated on the
continued branch.  Crossing arg w = pi upward adds exactly +1 (the residue of
t^{-p} e^{-t} picked up by the defining contour), and the lower half-plane
follows from the reflection T_p(conj w) = -conj(T_p(w)) for integer p.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bernoulli import EPS, TWO_PI, zeta_even
from .errors import AccuracyError, DomainError, RangeError
from .expansion import _check_finite, _check_sector, expansion_prefix
from .quadrature import integrate_panels
from .special import _c_branch, _e1_scaled_continued, _erf_saturated

__all__ = [
    "TerminantMethod",
    "TerminantEval",
    "TruncationScheme",
    "StokesSample",
    "terminant",
    "terminant_erf_approx",
    "exp_improved_log_barnes",
    "exp_improved_report",
    "stokes_profile",
]

MAX_ORDER = 171  # Gamma(p) overflows beyond this
_OPTIMAL_CAP = 40


class TerminantMethod(enum.Enum):
    GAMMA_RECURRENCE = "gamma_recurrence"
    DIRECT_QUADRATURE = "direct_quadrature"
    ERF_ASYMPTOTIC = "erf_asymptotic"


@dataclass(frozen=True)
class TerminantEval:
    value: complex
    method: TerminantMethod
    est_error: float


def _normalize_arg(p: int, w: complex, arg_w: Optional[float]) -> tuple[complex, float]:
    if p < 1 or p > MAX_ORDER:
        raise RangeError(f"terminant order must lie in [1, {MAX_ORDER}]")
    w = complex(w)
    if w == 0:
        raise DomainError("terminant undefined at w = 0")
    if arg_w is None:
        arg_w = cmath.phase(w)
    else:
        windings = (arg_w - cmath.phase(w)) / TWO_PI
        if abs(windings - round(windings)) > 1e-6:
            raise DomainError("arg_w must equal arg(w) modulo 2 pi")
    if not -1.5 * math.pi < arg_w < 1.5 * math.pi:
        raise DomainError("arg_w must lie in (-3 pi/2, 3 pi/2)")
    return w, arg_w


def _scaled_recurrence(p: int, w: complex, arg_w: float) -> tuple[complex, float]:
    """T_p(w) e^{w} by the downward recurrence, overflow-safe.

    Works on g_m = e^{w} Gamma(-m, w), for which the recurrence is
    g_m = (g_{m-1} - w^{-m}) / (-m) with seed g_0 = e^{w} E1(w).  The error
    estimate combines the seed accuracy with the worst intermediate
    cancellation accumulated along the recurrence.
    """
    if arg_w <= -math.pi:
        val, est = _scaled_recurrence(p, w.conjugate(), -arg_w)
        return -val.conjugate(), est
    g, seed_rel = _e1_scaled_continued(w, arg_w)
    err_acc = seed_rel * abs(g)
    fact = 1.0
    for m in range(1, p):
        g = (g - w ** (-m)) / (-m)
        fact *= m
        err_acc += 4.0 * EPS * abs(g) * fact
    value = cmath.exp(1j * math.pi * p) * math.gamma(p) / (2j * math.pi) * g
    est = err_acc / TWO_PI + 4.0 * EPS * abs(value)
    return value, est


def _scaled_quadrature(p: int, w: complex, arg_w: float) -> tuple[complex, float]:
    """T_p(w) e^{w} by quadrature of the defining integral; |arg w| < pi only."""
    if abs(arg_w) >= math.pi:
        raise DomainError("direct quadrature requires |arg w| < pi")
    abs_w = abs(w)
    direction = cmath.exp(1j * arg_w)
    span = (p + 40.0 * math.sqrt(p + 1.0) + 60.0) / abs_w
    panel = min(32.0 / abs_w, max(abs(math.sin(arg_w)), 0.05) / 2.0, span / 8.0)
    n_panels = int(math.ceil(span / panel))
    breaks = np.linspace(0.0, span, n_panels + 1)

    def integrand(s: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            log_mag = (p - 1) * np.log(np.maximum(s, 1e-300)) - abs_w * s
        return np.exp(log_mag) / (direction + s)

    integral, abs_sum = integrate_panels(integrand, breaks)
    value = cmath.exp(1j * math.pi * p) * direction ** (1 - p) * integral / (2j * math.pi)
    est = 8.0 * EPS * abs_sum / TWO_PI
    return value, est


def _exp_minus(w: complex) -> complex:
    if -w.real > 709.0:
        raise AccuracyError(
            "unscaled terminant overflows for Re w < -709; "
            "only the scaled combination T_p(w) e^{w} is representable there"
        )
    return cmath.exp(-w)


def terminant(
    p: int,
    w: complex,
    arg_w: Optional[float] = None,
    method: Optional[TerminantMethod] = None,
) -> TerminantEval:
    """Scaled terminant T_p(w) for positive integer order p.

    arg_w selects the branch (it may exceed +-pi; defaults to the principal
    phase).  The default path is the incomplete-gamma recurrence, switching
    to the erf form when p ~ |w| >= 50 where the recurrence has lost too much
    to cancellation; direct quadrature is available inside |arg w| < pi as an
    independent check.
    """
    w, arg_w = _normalize_arg(p, w, arg_w)
    if method is None:
        if abs(w) >= 50.0 and abs(p - abs(w)) <= 0.2 * abs(w):
            method = TerminantMethod.ERF_ASYMPTOTIC
        else:
            method = TerminantMethod.GAMMA_RECURRENCE
    if method is TerminantMethod.ERF_ASYMPTOTIC:
        return terminant_erf_approx(p, w, arg_w)
    if method is TerminantMethod.DIRECT_QUADRATURE:
        scaled, est = _scaled_quadrature(p, w, arg_w)
    else:
        scaled, est = _scaled_recurrence(p, w, arg_w)
    emw = _exp_minus(w)
    return TerminantEval(value=scaled * emw, method=method, est_error=est * abs(emw))


def terminant_erf_approx(
    p: int, w: complex, arg_w: Optional[float] = None
) -> TerminantEval:
    """Error-function form of the terminant near optimal order (p ~ |w|).

    Upper form, for arg w in (-pi, 3 pi):   1/2 + 1/2 erf(c(phi) sqrt(|w|/2));
    lower form, for arg w in (-3 pi, pi):  -1/2 + 1/2 erf(-conj(c(-phi)) sqrt(|w|/2)),
    with saturation to the limiting values when the erf argument leaves the
    small-argument disc.  The error estimate carries the O(|w|^{-1/2}) scale.
    """
    w = complex(w)
    if w == 0:
        raise DomainError("terminant undefined at w = 0")
    if arg_w is None:
        arg_w = cmath.phase(w)
    if abs(p - abs(w)) > 0.2 * abs(w):
        raise DomainError("erf form requires p within 20% of |w|")
    scale = math.sqrt(0.5 * abs(w))
    if arg_w >= 0.0:
        if not -math.pi + 0.1 <= arg_w <= 3.0 * math.pi - 0.1:
            raise DomainError("arg w outside the upper erf-form range")
        zeta = _c_branch(arg_w - math.pi) * scale
        base, sign = 0.5, 0.5
    else:
        if not -3.0 * math.pi + 0.1 <= arg_w <= math.pi - 0.1:
            raise DomainError("arg w outside the lower erf-form range")
        zeta = -_c_branch(-arg_w - math.pi).conjugate() * scale
        base, sign = -0.5, 0.5
    return TerminantEval(
        value=base + sign * _erf_saturated(zeta),
        method=TerminantMethod.ERF_ASYMPTOTIC,
        est_error=1.0 / math.sqrt(abs(w)),
    )


# ----------------------------------------------------------------------
# Exponentially improved expansion
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TruncationScheme:
    """Per-exponential truncation orders N_k for the improved expansion.

    optimal mode: N_k = round(pi k |z|) capped at 40 (near-smallest-term
    truncation of each inner series); uniform mode: N_k = uniform_n for all
    k, which reproduces the plain truncated expansion plus its convergent
    terminant remainder series.  k_max truncates the terminant sum only.
    """

    mode: str = "optimal"
    uniform_n: Optional[int] = None
    k_max: int = 5

    def __post_init__(self) -> None:
        if self.mode not in ("optimal", "uniform"):
            raise DomainError("mode must be 'optimal' or 'uniform'")
        if self.k_max < 1:
            raise DomainError("k_max must be >= 1")
        if self.mode == "uniform":
            if self.uniform_n is None or self.uniform_n < 0:
                raise DomainError("uniform mode requires uniform_n >= 0")
            if self.uniform_n > 30:
                raise RangeError("uniform_n beyond 30 exceeds the Bernoulli table")

    @classmethod
    def optimal(cls, k_max: int = 5) -> "TruncationScheme":
        return cls(mode="optimal", k_max=k_max)

    @classmethod
    def uniform(cls, n: int, k_max: int = 5) -> "TruncationScheme":
        return cls(mode="uniform", uniform_n=n, k_max=k_max)

    def order(self, k: int, abs_z: float) -> int:
        if self.mode == "uniform":
            return self.uniform_n  # type: ignore[return-value]
        return min(_OPTIMAL_CAP, int(math.floor(math.pi * k * abs_z + 0.5)))


DEFAULT_SCHEME = TruncationScheme()


def _zeta_tail(exponent: int, k_first: int) -> float:
    """sum_{k >= k_first} k^{-exponent}, accurate relative to its own size.

    Subtracting the head from zeta(exponent) is catastrophic once the zeta
    value rounds to 1; the direct tail sum (plus a midpoint-rule integral
    remainder) keeps full relative accuracy at any k_first.
    """
    if k_first <= 1:
        return zeta_even(exponent)
    total = 0.0
    k = k_first
    while k < k_first + 600:
        term = float(k) ** -exponent
        total += term
        k += 1
        if term < 1e-18 * total:
            break
    total += (k - 0.5) ** (1 - exponent) / (exponent - 1)
    return total


def _algebraic_sum(z: complex, scheme: TruncationScheme) -> complex:
    """Complete inner double sum, regrouped over n with zeta partial sums.

    The (n, k) term is (-1)^n 2 (2n+1)! / ((2 pi k)^{2n+4} z^{2n+2}); for each
    n the k-sum runs over the k with N_k >= n+1 and equals zeta(2n+4) minus
    the finitely many excluded leading k.  The double sum is absolutely
    convergent, so this regrouping changes nothing; it just avoids throwing
    away the algebraic k-tail when the terminant sum is truncated.
    """
    abs_z = abs(z)
    total = 0.0 + 0.0j
    try:
        zinv2 = 1.0 / (z * z)
    except ZeroDivisionError:
        raise RangeError(f"z^2 underflows to zero at z = {z}") from None
    if scheme.mode == "uniform":
        n_stop = scheme.uniform_n or 0
    else:
        n_stop = _OPTIMAL_CAP
    two_fact = 2.0  # 2 * (2n+1)! at n = 0
    zpow = zinv2
    for n in range(n_stop):
        exponent = 2 * n + 4
        if exponent > 64:
            break
        if scheme.mode == "uniform":
            k_first = 1
        else:
            # N_k = round(pi k |z|) >= n+1  <=>  k >= (n + 1/2) / (pi |z|)
            k_first = max(1, math.ceil((n + 0.5) / (math.pi * abs_z) - 1e-12))
        partial = _zeta_tail(exponent, k_first)
        term = (-1) ** n * two_fact / TWO_PI ** exponent * zpow * partial
        total += term
        if abs(term) < 1e-22 * max(1.0, abs(total)):
            break
        two_fact *= (2 * n + 2) * (2 * n + 3)
        zpow *= zinv2
    return total


def _terminant_pairs(
    z: complex, scheme: TruncationScheme
) -> tuple[complex, float, float]:
    """Sum of the k <= k_max terminant pairs, their eval-error, and a k-tail estimate."""
    theta = cmath.phase(z)
    abs_z = abs(z)
    total = 0.0 + 0.0j
    eval_err = 0.0
    last_mag = 0.0
    prev_mag = 0.0
    for k in range(1, scheme.k_max + 1):
        n_k = scheme.order(k, abs_z)
        p = 2 * n_k + 1
        w_up = TWO_PI * k * 1j * z
        s_up, e_up = _scaled_recurrence(p, w_up, theta + 0.5 * math.pi)
        s_dn, e_dn = _scaled_recurrence(p, -w_up, theta - 0.5 * math.pi)
        pair = (s_up + s_dn) / (2j * math.pi * k * k)
        total += pair
        eval_err += (e_up + e_dn) / (TWO_PI * k * k)
        prev_mag, last_mag = last_mag, abs(pair)
    if prev_mag > 0.0 and last_mag > 0.0:
        ratio = min(0.9, max(1e-6, last_mag / prev_mag))
    else:
        ratio = 0.5
    tail = last_mag * ratio / (1.0 - ratio)
    return total, eval_err, tail


def exp_improved_log_barnes(
    z: complex, scheme: TruncationScheme = DEFAULT_SCHEME
) -> complex:
    """Exponentially improved evaluation of log G(z+1) on |arg z| < pi."""
    value, _ = exp_improved_report(z, scheme)
    return value


def exp_improved_report(
    z: complex, scheme: TruncationScheme = DEFAULT_SCHEME
) -> tuple[complex, float]:
    """Improved evaluation plus an error estimate (terminant k-tail + round-off)."""
    z = _check_sector(z)
    total = expansion_prefix(z)
    total -= _algebraic_sum(z, scheme)
    pairs, eval_err, tail = _terminant_pairs(z, scheme)
    total -= pairs
    est = tail + eval_err + 8.0 * EPS * abs(total)
    _check_finite(z, total, est)
    return total, est


# ----------------------------------------------------------------------
# Stokes multiplier profiles
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StokesSample:
    """One point of a Stokes-switching profile.

    multiplier is the computed coefficient of the switching exponential;
    erf_prediction the smoothing-law prediction on the same scale.  The
    normalized values divide by the far-side limit -+ 1/(2 pi i k^2), so they
    run from ~0 to ~1 across the transition.
    """

    theta: float
    k: int
    multiplier: complex
    erf_prediction: complex

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
    switching exponential is evaluated at near-optimal order
    N_k = round(pi k |z|), and the prediction is
    1/2 + 1/2 erf((theta -+ pi/2) sqrt(pi k |z|)) on the corresponding side.
    """
    if abs_z < 1.5:
        raise DomainError("stokes_profile requires |z| >= 1.5")
    if k < 1:
        raise DomainError("k must be a positive integer")
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
    n_k = int(math.floor(math.pi * k * abs_z + 0.5))
    p = 2 * n_k + 1
    rate = math.sqrt(math.pi * k * abs_z)
    # sign = +1 on the upper line, where w = 2 pi k i z; -1 on the lower, where w = -2 pi k i z
    sign = 1.0 if upper else -1.0
    limit = -sign / (2j * math.pi * k * k)
    samples: list[StokesSample] = []
    for theta in thetas:
        z = abs_z * cmath.exp(1j * theta)
        ev = terminant(p, sign * TWO_PI * k * 1j * z, arg_w=theta + sign * 0.5 * math.pi,
                       method=TerminantMethod.GAMMA_RECURRENCE)
        x = sign * (theta - sign * 0.5 * math.pi) * rate  # signed distance past the line
        pred_norm = 0.5 + 0.5 * _erf_saturated(complex(x)).real
        samples.append(
            StokesSample(
                theta=theta,
                k=k,
                multiplier=-ev.value / (2j * math.pi * k * k),
                erf_prediction=pred_norm * limit,
            )
        )
    return samples
