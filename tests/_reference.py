"""Second evaluation paths that the library does not need, kept as test references.

Each computes a quantity the library also computes, by another formula:

  * bernoulli_exact -- B_n by the convolution recurrence in exact rationals,
    the reference for the table built from tangent numbers;
  * bernoulli_poly -- B_n(x) by the compensated binomial sum over the table,
    the reference for the Fourier form BernoulliTable.poly_periodic;
  * terminant_quadrature -- the scaled terminant by quadrature of its
    defining integral, the reference for the closed form (S_{p-1}(w) -
    e^{w} E1(w)) / (2 pi i);
  * remainder_symmetrized -- R_N(z) by the symmetrized Bernoulli kernel at
    the point remainder_wide evaluates, the reference for remainder_wide's
    periodized kernel;
  * remainder_wide_per_node -- R_N(z) by remainder_wide's own unit panels
    with the periodized polynomial evaluated at every node and (t+w)^{2M}
    by **, the reference for its unit-panel table and binary powering;
  * remainder_narrow_per_panel -- R_N(z) by remainder_narrow's panels with
    the integrand t^{2N-1} Li2(e^{-2 pi t}) / (1 + (t/z)^2) evaluated at every
    node by integrate_panels, the reference for its folded weights;
  * wide_t_stop_scan -- remainder_wide's truncation point by scanning
    t = 2, 3, ..., the reference for the point solved from the tail bound;
  * ein_one_loop -- Ein(w) by one loop that tests convergence and
    finiteness at every term, the reference for the loop split at the peak;
  * improved_uniform -- log G(z+1) by the improved expansion with one order
    N_k = n for every k, the reference for exp_improved_report's
    near-optimal orders (the expansion is an identity for every order
    sequence);
  * improved_route_orders -- log G(z+1) by the improved expansion at
    exp_improved_report's point and orders N_k = round(pi k |w|) for every k,
    the pairs it sums by _scaled_recurrence, the reference for the route's
    summed pairs at N_k = 0 and its one order N_{K+1} for the rest;
  * terminant_pair -- the k-th terminant pair of the improved expansion from
    mpmath's incomplete gamma, the reference for the pairs' certified bound;
  * log_g_error -- |value - log G(z+1)| against mpmath's barnesg modulo
    2 pi i, the reference for every log G route;
  * remainder_reference, remainder_error -- R_N(z) as mpmath's log G minus
    the truncated expansion on the analytic branch, and a value's distance
    from it, the reference for remainder_wide;
  * gauss_legendre_mp -- the n-point Gauss-Legendre rule at mpmath's working
    precision, the reference for gauss_rule and the exact rule the arc walk's
    panel bounds are checked with.
"""

import cmath
import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from barnesg import bernoulli_number, oracle, truncated_log_barnes
from barnesg.bernoulli import DEFAULT_TABLE, EPS, TWO_PI
from barnesg.expansion import _series, _shift_bracket, _shift_count, _shifted_prefix
from barnesg.quadrature import gauss_rule, integrate_panels
from barnesg.special import _dilog_exp
from barnesg.terminant import (_ALGEBRAIC_COEFFS, _order_thresholds, _scaled_recurrence,
                               _zeta_tail)


def bernoulli_exact(max_index):
    """B_0 .. B_max_index as Fractions, first kind (B_1 = -1/2), from

        sum_{k=0}^{n} C(n+1, k) B_k = 0,        B_0 = 1.
    """
    values = [Fraction(1)]
    for n in range(1, max_index + 1):
        values.append(-sum(math.comb(n + 1, k) * values[k] for k in range(n)) / (n + 1))
    return values


def bernoulli_poly(n, x):
    """Bernoulli polynomial B_n(x) for x in [0, 1] by the binomial expansion.

    The argument is reflected onto [0, 1/2] through the exact symmetry
    B_n(x) = (-1)^n B_n(1-x), which keeps the binomial terms small and makes
    the symmetry hold to the last bit; the sum of C(n,k) B_k x^{n-k} is
    Neumaier-compensated.
    """
    sign = 1.0
    if 0.5 < x <= 1.0:
        x = 1.0 - x
        sign = (-1.0) ** n
    total = 0.0
    comp = 0.0
    xpow = 1.0
    for k in range(n, -1, -1):
        term = math.comb(n, k) * bernoulli_number(k) * xpow
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        xpow *= x
    return sign * (total + comp)


def terminant_quadrature(p, w):
    """(T_p(w), error estimate) on the principal branch |arg w| < pi, by quadrature of

        T_p(w) e^{w} = e^{i pi p} e^{i(1-p) arg w}/(2 pi i) int_0^inf s^{p-1} e^{-|w| s}/(e^{i arg w} + s) ds

    on equal panels over a span that holds the integrand's mass.
    """
    w = complex(w)
    arg_w = cmath.phase(w)
    abs_w = abs(w)
    direction = cmath.exp(1j * arg_w)
    span = (p + 40.0 * math.sqrt(p + 1.0) + 60.0) / abs_w
    panel = min(32.0 / abs_w, max(abs(math.sin(arg_w)), 0.05) / 2.0, span / 8.0)
    breaks = np.linspace(0.0, span, int(math.ceil(span / panel)) + 1)

    def integrand(s):
        with np.errstate(divide="ignore"):
            log_mag = (p - 1) * np.log(np.maximum(s, 1e-300)) - abs_w * s
        return np.exp(log_mag) / (direction + s)

    integral, abs_sum = integrate_panels(integrand, breaks)
    scaled = cmath.exp(1j * math.pi * p) * direction ** (1 - p) * integral / (2j * math.pi)
    emw = cmath.exp(-w)
    return scaled * emw, 8.0 * EPS * abs_sum / TWO_PI * abs(emw)


def _at_shift(z, n_trunc, remainder_at):
    """R_N(z) from remainder_at(w, M) = R_M(w) at remainder_wide's shifted point w = z + m
    and promoted index M = max(N, 8): the ladder down to N at w, then back to z
    by expansion._shift_bracket and the series difference."""
    z = complex(z)
    m_eff = max(n_trunc, 8)
    m, w = oracle._wide_plan(z, m_eff)[:2]
    value = _series(w, n_trunc, m_eff) + remainder_at(w, m_eff)
    if m:
        value += _shift_bracket(z, m)[0] + _series(w, 1, n_trunc) - _series(z, 1, n_trunc)
    return value


def remainder_symmetrized(z, n_trunc):
    """R_N(z) on |arg z| < pi by the symmetrized Bernoulli kernel at remainder_wide's point w:

        R_M(w) = -1/((2M+1)(2M+2)) int_0^inf (B_{2M+2}(t - floor t) - B_{2M+2}) / (t+w)^{2M+1} dt

    on unit panels, brought to R_N(z) by _at_shift.  The integral stops where the
    kernel's amplitude bound puts the tail below the oracle's absolute tail target.
    """
    def remainder_at(w, m):
        order = 2 * m + 1
        pref = 1.0 / ((2 * m + 1) * (2 * m + 2))
        const = bernoulli_number(2 * m + 2)
        amplitude = DEFAULT_TABLE.max_abs_poly(2 * m + 2) + abs(const)
        sec_half = 1.0 / math.cos(0.5 * cmath.phase(w))
        t_stop = next(t for t in range(2, oracle._MAX_INTERVALS + 1)
                      if pref * amplitude * sec_half ** order * (t + abs(w)) ** (1 - order)
                      / (order - 1) <= oracle._TAIL_TARGET)

        def integrand(t):
            return (DEFAULT_TABLE.poly_periodic(2 * m + 2, t) - const) / (t + w) ** order

        integral, _ = integrate_panels(integrand, range(t_stop + 1), oracle._GAUSS_ORDER)
        return -pref * integral

    return _at_shift(z, n_trunc, remainder_at)


def remainder_wide_per_node(z, n_trunc):
    """R_N(z) at remainder_wide's point w, promotion index and unit panels, with the integrand

        B_{2M+1}(t - floor t) / (t+w)^{2M}

    evaluated by poly_periodic at every node and numpy's complex power.
    """
    def remainder_at(w, m):
        t_stop = oracle._wide_plan(w, m)[2]

        def integrand(t):
            return DEFAULT_TABLE.poly_periodic(2 * m + 1, t) / (t + w) ** (2 * m)

        integral, _ = integrate_panels(integrand, range(t_stop + 1), oracle._GAUSS_ORDER)
        return -integral / (2 * m * (2 * m + 1))

    return _at_shift(z, n_trunc, remainder_at)


def remainder_narrow_per_panel(z, n_trunc):
    """R_N(z) = z^{-2N} (-1)^N/(2 pi^2) int_0^T t^{2N-1} Li2(e^{-2 pi t}) / (1 + (t/z)^2) dt
    on remainder_narrow's panels, with the whole integrand evaluated at every node and
    the panel sums added by integrate_panels."""
    z = complex(z)

    def integrand(t):
        return t ** (2 * n_trunc - 1) / (1.0 + (t / z) ** 2) * _dilog_exp(t)

    integral, _ = integrate_panels(integrand, oracle._NARROW_BREAKS, oracle._GAUSS_ORDER)
    return (-1) ** n_trunc / (2.0 * math.pi ** 2 * z ** (2 * n_trunc)) * integral


def wide_t_stop_scan(abs_z, sec_half, m_eff, target):
    """The first t in 2 .. 64 whose wide-kernel tail bound meets target, or None."""
    return next((t for t in range(2, oracle._MAX_INTERVALS + 1)
                 if oracle._wide_tail_bound(t, abs_z, sec_half, m_eff,
                                            DEFAULT_TABLE.max_abs_poly(2 * m_eff + 1))
                 <= target), None)


def ein_one_loop(w):
    """Ein(w) = sum_{k>=1} (-1)^{k+1} w^k / (k k!), stopped at the first term that
    is not finite or, past k = |w|, below 1e-18 max(1, |sum|)."""
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    k = 1
    aw = abs(w)
    while True:
        term *= w / k
        add = term / k if (k % 2) else -term / k
        total += add
        if abs(add) < 1e-18 * max(1.0, abs(total)) and k > aw or not cmath.isfinite(add):
            break
        k += 1
    return total


def improved_uniform(z, n, k_max):
    """The improved expansion of log G(z+1) with N_k = n for every k:

        truncated_log_barnes(z, n+1) - sum_{k<=k_max} (s_up + s_dn) / (2 pi i k^2),

    s_up, s_dn = T_{2n+1}(w) e^{w} at w = +-2 pi k i z, on the branches
    arg w = arg z +- pi/2.  With one order for every k the algebraic double
    sum is exactly the series truncated after n terms, and the terminant sum
    converges to the remainder R_{n+1}(z) as k_max grows.
    """
    z = complex(z)
    theta = cmath.phase(z)
    pairs = 0.0 + 0.0j
    for k in range(1, k_max + 1):
        w_up = TWO_PI * k * 1j * z
        s_up, _ = _scaled_recurrence(2 * n + 1, w_up, theta + 0.5 * math.pi)
        s_dn, _ = _scaled_recurrence(2 * n + 1, -w_up, theta - 0.5 * math.pi)
        pairs += (s_up + s_dn) / (2j * math.pi * k * k)
    return truncated_log_barnes(z, n + 1) - pairs


def improved_route_orders(z, pairs):
    """log G(z+1) by the improved expansion at exp_improved_report's point w = z + m
    (Re w >= 2, or w = z above the shift cap), with N_k = round(pi k |w|) for every k:

        prefix(z) + E(z, m) - (complete algebraic sum) - sum_{k<=pairs} pair_k,

    each pair_k = (s_up + s_dn) / (2 pi i k^2), s = T_{2N_k+1}(+-2 pi k i w) e^{+-2 pi k i w}
    by _scaled_recurrence on the branches arg w +- pi/2.  Row n of the algebraic sum runs
    over the k with N_k > n, k >= first_k[n] (_order_thresholds).  The route sums its
    pairs at N_k = 0 instead, with no algebraic row, and gives every row k > K the one
    order N_{K+1}; the expansion is an identity for all of these.
    """
    z = complex(z)
    m = _shift_count(z, 2.0)
    w = z + m if m else z
    abs_w = abs(w)
    first_k = [next(k for k in itertools.count(1) if _order_thresholds(abs_w, k) > n)
               for n in range(len(_ALGEBRAIC_COEFFS))]
    zinv2 = 1.0 / (w * w)
    rows = sum(c * zinv2 ** (n + 1) * _zeta_tail(2 * n + 4, k_first)
               for n, (c, k_first) in enumerate(zip(_ALGEBRAIC_COEFFS, first_k, strict=True)))
    total = _shifted_prefix(z, m)[0] - rows
    theta = cmath.phase(w)
    for k in range(1, pairs + 1):
        p = 2 * _order_thresholds(abs_w, k) + 1
        w_up = TWO_PI * k * 1j * w
        s_up, _ = _scaled_recurrence(p, w_up, theta + 0.5 * math.pi)
        s_dn, _ = _scaled_recurrence(p, -w_up, theta - 0.5 * math.pi)
        total -= (s_up + s_dn) / (2j * math.pi * k * k)
    return total


def terminant_pair(k, p, z):
    """(T_p(w) e^{w} + T_p(-w) e^{-w}) / (2 pi i k^2) at w = 2 pi k i z, on the branches
    arg z +- pi/2, as an mpc: T_p from mpmath's principal Gamma(1-p, w), plus one unit
    per crossing of the negative axis.  mpmath raises its working precision where the
    incomplete gamma cancels, so 20 digits suffice."""
    theta = cmath.phase(z)
    with mp.workdps(20):
        total = mp.mpc(0)
        for w, arg_w in ((TWO_PI * k * 1j * z, theta + 0.5 * math.pi),
                         (-TWO_PI * k * 1j * z, theta - 0.5 * math.pi)):
            wm = mp.mpc(w)
            t_p = (-1) ** p * mp.factorial(p - 1) / (2j * mp.pi) * mp.gammainc(1 - p, wm)
            t_p += round((arg_w - float(mp.arg(wm))) / TWO_PI)
            total += t_p * mp.exp(wm)
        return total / (2j * mp.pi * k * k)


def log_g_error(value, z):
    """|value - log G(z+1)| modulo 2 pi i, at 30 digits.  The principal logarithm of
    mpmath's G(z+1) may sit on another branch than the library's analytic log G."""
    with mp.workdps(30):
        diff = mp.mpc(value) - mp.log(mp.barnesg(mp.mpc(z) + 1))
        diff -= 2j * mp.pi * mp.nint(diff.imag / (2 * mp.pi))
        return float(abs(diff))


def remainder_reference(z, n_trunc):
    """R_N(z) = log G(z+1) minus the expansion truncated before z^{-2N}, as an mpc.
    R_N has no 2 pi i ambiguity, so log G is taken on the analytic branch,
    z log Gamma(z) + zeta'(-1) - zeta'(-1, z) (Adamchik), at 30 digits beyond the
    cancellation between it and the expansion."""
    zm = mp.mpc(z)
    with mp.workdps(30):
        cancel = max(abs(zm * mp.log(zm)) ** 2, 1) * abs(zm) ** (2 * n_trunc)
        dps = 30 + max(0, int(mp.ceil(mp.log10(cancel / abs(mp.bernoulli(2 * n_trunc + 2))))))
    with mp.workdps(dps):
        rn = (zm * mp.loggamma(zm) + mp.zeta(-1, 1, 1) - mp.zeta(-1, zm, 1)
              - zm * zm / 4 - zm * mp.loggamma(zm + 1)
              + (zm * (zm + 1) / 2 + mp.mpf(1) / 12) * mp.log(zm) + mp.log(mp.glaisher))
        for n in range(1, n_trunc):
            rn -= mp.bernoulli(2 * n + 2) / (2 * n * (2 * n + 1) * (2 * n + 2) * zm ** (2 * n))
        return rn


def remainder_error(value, z, n_trunc):
    """|value - R_N(z)| against remainder_reference."""
    return float(abs(mp.mpc(value) - remainder_reference(z, n_trunc)))


def gauss_legendre_mp(n):
    """The n-point Gauss-Legendre rule as (node, weight) mpf pairs at mpmath's working
    precision: three Newton steps on the three-term recurrence from gauss_rule's nodes,
    each of which doubles the digits (16 to 128), and weights 2 / ((1 - x^2) P_n'(x)^2)
    at the roots."""
    rule = []
    for x0, _ in gauss_rule(n):
        x = mp.mpf(x0)
        for _ in range(3):
            p0, p1 = mp.mpf(1), x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            slope = n * (p0 - x * p1) / (1 - x * x)
            x -= p1 / slope
        rule.append((x, 2 / ((1 - x * x) * slope ** 2)))
    return rule
