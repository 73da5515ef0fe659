"""Second evaluation paths that the library does not need, kept as test references.

Each computes a quantity the library also computes, by another formula:

  * bernoulli_poly -- B_n(x) by the compensated binomial sum over the table,
    the reference for the Fourier form BernoulliTable.poly_periodic;
  * terminant_quadrature -- the scaled terminant by quadrature of its
    defining integral, the reference for the incomplete-gamma recurrence;
  * remainder_symmetrized -- R_N(z) by the symmetrized Bernoulli kernel, the
    reference for remainder_wide's periodized kernel.
"""

import cmath
import math

import numpy as np

from barnesg import bernoulli_number, oracle
from barnesg.bernoulli import DEFAULT_TABLE, EPS, TWO_PI
from barnesg.expansion import _COEFFS
from barnesg.quadrature import integrate_panels


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
    const = DEFAULT_TABLE.number(2 * m + 2)
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
