"""Second evaluation paths that the library does not need, kept as test references.

Each computes a quantity the library also computes, by another formula:

  * bernoulli_exact -- B_n by the convolution recurrence in exact rationals,
    the reference for the table built from tangent numbers;
  * bernoulli_poly -- B_n(x) by the compensated binomial sum over the table,
    the reference for the Fourier form BernoulliTable.poly_periodic;
  * terminant_quadrature -- the scaled terminant by quadrature of its
    defining integral, the reference for the closed form (S_{p-1}(w) -
    e^{w} E1(w)) / (2 pi i);
  * remainder_symmetrized -- R_N(z) by the symmetrized Bernoulli kernel, the
    reference for remainder_wide's periodized kernel;
  * remainder_wide_per_node -- R_N(z) by remainder_wide's own panels with
    the periodized polynomial evaluated at every node and (t+z)^{2M} by **,
    the reference for its unit-panel table and binary powering;
  * wide_t_stop_scan -- remainder_wide's truncation point by scanning
    t = 2, 3, ..., the reference for the point solved from the tail bound;
  * wide_breakpoints_every_panel -- remainder_wide's breakpoints by testing
    every unit panel's distance to the pole, the reference for the
    breakpoints that test only the panels next to it;
  * ein_one_loop -- Ein(w) by one loop that tests convergence and
    finiteness at every term, the reference for the loop split at the peak;
  * improved_uniform -- log G(z+1) by the improved expansion with one order
    N_k = n for every k, the reference for exp_improved_report's
    near-optimal orders (the expansion is an identity for every order
    sequence);
  * log_g_error -- |value - log G(z+1)| against mpmath's barnesg modulo
    2 pi i, the reference for every log G route.
"""

import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from barnesg import bernoulli_number, oracle, truncated_log_barnes
from barnesg.bernoulli import DEFAULT_TABLE, EPS, TWO_PI
from barnesg.expansion import _COEFFS, _series
from barnesg.quadrature import integrate_panels
from barnesg.terminant import _scaled_recurrence


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


def remainder_symmetrized(z, n_trunc):
    """R_N(z) on |arg z| < pi by the symmetrized Bernoulli kernel:

        R_M = -1/((2M+1)(2M+2)) int_0^inf (B_{2M+2}(t - floor t) - B_{2M+2}) / (t+z)^{2M+1} dt

    at M = max(N, 8), brought down to N by the ladder R_N = c_N z^{-2N} + R_{N+1}.
    The integral stops where the kernel's amplitude bound puts the tail below
    the oracle's absolute tail target.
    """
    z = complex(z)
    m = max(n_trunc, 8)
    order = 2 * m + 1
    pref = 1.0 / ((2 * m + 1) * (2 * m + 2))
    const = bernoulli_number(2 * m + 2)
    amplitude = DEFAULT_TABLE.max_abs_poly(2 * m + 2) + abs(const)
    sec_half = 1.0 / math.cos(0.5 * cmath.phase(z))
    t_stop = next(t for t in range(2, oracle._MAX_INTERVALS + 1)
                  if pref * amplitude * sec_half ** order * (t + abs(z)) ** (1 - order)
                  / (order - 1) <= oracle._TAIL_TARGET)

    def integrand(t):
        return (DEFAULT_TABLE.poly_periodic(2 * m + 2, t) - const) / (t + z) ** order

    integral, _ = integrate_panels(integrand, oracle._wide_breakpoints(t_stop, z),
                                   oracle._GAUSS_ORDER)
    ladder = sum(_COEFFS[n] * z ** (-2 * n) for n in range(n_trunc, m))
    return ladder - pref * integral


def remainder_wide_per_node(z, n_trunc):
    """R_N(z) at remainder_wide's promotion index and panels, with the integrand

        B_{2M+1}(t - floor t) / (t+z)^{2M}

    evaluated by poly_periodic at every node and numpy's complex power.
    """
    z = complex(z)
    m_eff, t_stop, _ = oracle._wide_truncation(z, n_trunc)

    def integrand(t):
        return DEFAULT_TABLE.poly_periodic(2 * m_eff + 1, t) / (t + z) ** (2 * m_eff)

    integral, _ = integrate_panels(integrand, oracle._wide_breakpoints(t_stop, z),
                                   oracle._GAUSS_ORDER)
    return _series(z, n_trunc, m_eff) - integral / (2 * m_eff * (2 * m_eff + 1))


def wide_t_stop_scan(abs_z, sec_half, m_eff, target):
    """The first t in 2 .. 64 whose wide-kernel tail bound meets target, or None."""
    return next((t for t in range(2, oracle._MAX_INTERVALS + 1)
                 if oracle._wide_tail_bound(t, abs_z, sec_half, m_eff,
                                            DEFAULT_TABLE.max_abs_poly(2 * m_eff + 1))
                 <= target), None)


def wide_breakpoints_every_panel(t_stop, z):
    """Unit panels on [0, T], each split into ceil(0.275/gap) sub-panels (at most
    256) when its gap to the pole -z is below 0.27."""
    pole = -z
    pts = [0.0]
    for m in range(t_stop):
        a, b = float(m), float(m + 1)
        dist = oracle._pole_gap(pole, a, b)
        splits = 1 if dist >= 0.27 else min(256, int(math.ceil(0.275 / max(dist, 1e-3))))
        for j in range(1, splits + 1):
            pts.append(a + (b - a) * j / splits)
    return pts


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


def log_g_error(value, z):
    """|value - log G(z+1)| modulo 2 pi i, at 30 digits.  The principal logarithm of
    mpmath's G(z+1) may sit on another branch than the library's analytic log G."""
    with mp.workdps(30):
        diff = mp.mpc(value) - mp.log(mp.barnesg(mp.mpc(z) + 1))
        diff -= 2j * mp.pi * mp.nint(diff.imag / (2 * mp.pi))
        return float(abs(diff))
