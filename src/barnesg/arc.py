"""The arc walk: T_p(W) at fixed |W| = r from its exact angular derivative.

On the continued branch, dT_p/du = exp(log A + r (e^{iu} - 1) + i (1 - p) u) at
W = r e^{i(pi + u)}, log A = lgamma(p) + (1 - p) log r + r - log 2 pi.  _arc_profile
integrates it from a closed-form seed on the imaginary axis, where nothing cancels,
through the angles asked for, and reflects the angles past the Stokes line; every part
of its error is bounded.  Its Gauss-Legendre rules are quadrature.gauss_rule's, and
_arc_sum sums every panel of any rule in one loop.  terminant.stokes_profile takes it
alone, terminant.terminant past the imaginary axis where it reports the smaller estimate.
terminant._arc_profile imports this module on first use, so `import barnesg` does not
compile it.  The seed
comes from terminant._scaled_recurrence, looked up on the module at each call, where
perfbench's tracer patches it.
"""

from __future__ import annotations

import cmath
import math
from importlib import import_module
from typing import Optional, Sequence

from .bernoulli import EPS, TWO_PI
from .quadrature import gauss_rule

# the package binds the name terminant to the function; the module is reached by name
terminant = import_module(".terminant", __package__)


#: The window's rule: four nodes per panel.
_GAUSS4 = gauss_rule(4)
#: Checkpoints of the walk, and the ends of a run of panels of a width already in use,
#: this close to where the walk stands are taken as reached: u = theta -+ pi/2 is rounded
#: at |theta| < 2.1 (an ulp is 4.4e-16), so an angle and its mirror land a few ulps apart.
_MERGE = 2.0 ** -48
#: Ellipse parameters tried for the seed leg's one panel (_seed_leg).
_SEED_RHOS = (2.0, 3.0)


def _arc_bound(h: float, r: float, p: int, log_a: float, mids: Sequence[float],
               rho: Optional[float] = None) -> list[float]:
    """Error bounds of _GAUSS4 on panels of half-width h centred at mids, one per panel, for
    the arc integrand dT_p/du = exp(log A + r (e^{iu} - 1) + i (1 - p) u).

    On a panel's Bernstein ellipse E_rho, |Im u| <= beta = h (rho - 1/rho)/2 and Re u lies
    within reach = h (rho + 1/rho)/2 of mid.  Where that range stays inside (-pi, pi) clear
    of 0, cos Re u <= c = max(0, cos(|mid| - reach)), its value at the point nearest u = 0;
    where the range reaches 0 (or leaves (-pi, pi)), c = 1.  The integrand's log-modulus
    log A + r (c e^{-Im u} - 1) + (p - 1) Im u is then convex in Im u, so it is at most
    log M = log A + max(r (c e^{-beta} - 1) + (p - 1) beta, r (c e^{beta} - 1) - (p - 1) beta),
    and n nodes err by at most (64/15) M rho^{-2(n-1)}/(rho^2 - 1) h (Trefethen, SIAM Rev.
    50 (2008) 67-87, Thm 4.5, stated for n + 1 nodes): n = 4 here, and each further node
    divides the bound by rho^2.  The default rho = sqrt(32/r)/h minimises
    e^{r beta^2/2} rho^{-8}, the bound at the peak at p - 1 = r; it is within 11 % of the
    best rho there for r = 9.4 .. 170.  inf where M overflows binary64 (from p - 1 >> r,
    e.g. T_171 at r = 4).
    """
    rho = rho or max(2.0, math.sqrt(32.0 / r) / h)
    beta, reach = 0.5 * h * (rho - 1.0 / rho), 0.5 * h * (rho + 1.0 / rho)
    # log M = max(low + c r e^{-beta}, high + c r e^{beta}), the exponentials as r + r expm1
    low, high = log_a + (p - 1) * beta - r, log_a - (p - 1) * beta - r
    down, up = r + r * math.expm1(-beta), r + r * math.expm1(beta)
    clear = math.pi - 2.0 * reach  # 0 < |mid| - reach < clear: the range is clear of 0 and +-pi
    scale = 64.0 / 15.0 * h * rho ** -6 / (rho * rho - 1.0)  # below 1: rho > 1.2, h < pi
    out = []
    for mid in mids:
        near = abs(mid) - reach
        c = max(0.0, math.cos(near)) if 0.0 < near < clear else 1.0
        log_m = max(low + c * down, high + c * up)
        out.append(scale * math.exp(log_m) if log_m < 709.0 else math.inf)
    return out


def _arc_sum(p: int, r: float, log_a: float,
             runs: Sequence[tuple]) -> list[tuple[complex, float]]:
    """A Gauss-Legendre rule applied to the arc integrand
    dT_p/du = exp(log A + r (e^{iu} - 1) + i (1 - p) u) on consecutive runs (lo, panels, h,
    rule) of equal panels of half-width h from lo, rule a gauss_rule: the running sum and
    sum of moduli after each panel.

    One exp per node: at u = mid + h x_j the term is
    exp(log A - r + i (1 - p) mid + log(h w_j) + i (1 - p) h x_j + r e^{i mid} e^{i h x_j}),
    with r e^{i mid} once per panel and e^{i h x_j}, log(h w_j) + i (1 - p) h x_j once per
    run.
    """
    shift, phase = log_a - r, float(1 - p)
    exp, rect = cmath.exp, cmath.rect
    total, mass, out = 0.0 + 0.0j, 0.0, []
    for lo, panels, h, rule in runs:
        nodes = [(rect(1.0, h * x), complex(math.log(h * weight), phase * h * x))
                 for x, weight in rule]
        for i in range(panels):
            mid = lo + (2 * i + 1) * h
            c = rect(r, mid)
            base = complex(shift, phase * mid)
            for e, d in nodes:
                t = exp(base + d + c * e)
                total += t
                mass += abs(t)
            out.append((total, mass))
    return out


def _seed_leg(r: float, p: int, log_a: float, end: float, width: float) -> tuple[tuple, float]:
    """The walk's first run, from the seed at u = -pi/2 to end <= 0, and its bound.

    ceil(length/width) _GAUSS4 panels are charged at most their number times the bound
    of one at the peak, where the integrand is largest.  The run is one panel of the
    fewest Gauss-Legendre nodes, at most 64, whose position-aware _arc_bound is within
    half that, for the better rho of _SEED_RHOS: each node past four divides the bound by
    rho^2.  Where none is (p far from r, or M overflows), it is those _GAUSS4 panels.
    """
    half = 0.5 * (end + 0.5 * math.pi)
    most = math.ceil(2.0 * half / width)
    peak = most * _arc_bound(half / most, r, p, log_a, (0.0,))[0]
    nodes, bound = 65, peak
    for rho in _SEED_RHOS if peak < math.inf else ():
        four = _arc_bound(half, r, p, log_a, (end - half,), rho)[0]
        need = max(1, 4 + math.ceil(math.log(2.0 * four / peak) / (2.0 * math.log(rho)))
                   if four < math.inf else 65)
        if need < nodes:
            nodes, bound = need, four * rho ** (8 - 2 * need)
    if nodes > 64:
        return (-0.5 * math.pi, most, half / most, _GAUSS4), peak
    return (-0.5 * math.pi, 1, half, gauss_rule(nodes)), bound


def _arc_profile(p: int, r: float, us: Sequence[float]) -> list[tuple[complex, float]]:
    """T_p(W) and a bound on its error at W = r e^{i(pi + u)} for each u of us, in order.

    On the continued branch dT_p/du = F(u) = exp(log A + r (e^{iu} - 1) + i (1 - p) u)
    exactly, log A = lgamma(p) + (1 - p) log r + r - log 2 pi: a near-Gaussian bump of width
    r^{-1/2}, mass 1 and height at most A at u = 0.  From the seed T_p(i r) at u = -pi/2,
    where |e^{-W}| = 1 and nothing cancels, one pass walks the sorted distinct -|u| (and 0
    when some u > 0) and sums every panel in one _arc_sum.  The seed leg, up to the first
    -|u|, is one Gauss-Legendre panel sized by the position-aware _arc_bound (_seed_leg;
    far from the optimal order, _GAUSS4 panels no wider than min(0.05, 0.3/sqrt r));
    every later step takes _GAUSS4 panels no wider than that, and keeps
    their width while the steps differ only by rounding.  A checkpoint within _MERGE of
    where the walk stands is taken from there, and so is the end of a step that kept the
    width: the miss d is charged A d.  log A, r and p are real, so F(-u) = conj F(u), and
    every u > 0 is the reflection T(u) = T(0) + conj(T(0) - T(-u)) of the walk; a window
    symmetric about the line costs one walk over its left half, and each place the walk
    stands gives the samples at -u and u.  The bound at u <= 0 is the seed's estimate,
    plus _arc_bound for the panels walked, plus round-off: each term is good to
    rel = eps (lgamma(p) + (p - 1)(2 log r + pi) + 8 r + 8) for |u| <= pi/2 (log A;
    r e^{i mid}, e^{i h x_j} and their product, each good to about eps r per part; the
    phase (1 - p) u; the rounding of mid times r + p - 1; _GAUSS4's nodes and weights;
    and the exp), n^2 eps more for the seed panel's n weights (gauss_rule's are good to
    0.28 n^2 eps), and each addition to one eps of the running sum; plus the miss.  At
    u > 0 it is the bound at 0 plus the panel bounds, term round-off and additions of the
    stretch [-u, 0], two additions for the reflection, and the misses at -u and 0.
    """
    seed, est = terminant._scaled_recurrence(p, r * 1j, 0.5 * math.pi)
    seed *= cmath.exp(-r * 1j)
    log_a = math.lgamma(p) + (1 - p) * math.log(r) + r - math.log(TWO_PI)
    rel = EPS * (math.lgamma(p) + (p - 1) * (2.0 * math.log(r) + math.pi) + 8.0 * r + 8.0)
    width = min(0.05, 0.3 / math.sqrt(r))
    offsets = list(map(abs, us))
    right = max(us) > 0.0
    ahead = sorted(set(offsets) | {0.0} if right else set(offsets), reverse=True)
    # the seed leg, then runs (start, panels, h, rule) of one width; where the walk stood
    # (panels, additions to the running sum and estimate so far), and the miss
    pos, end = -0.5 * math.pi, -ahead[0]
    runs, stands, misses, at, walked, adds, h = [], [(0, 0, est)], [end - pos], {}, 0, 0, 0.0
    if end - pos > _MERGE:
        run, bound = _seed_leg(r, p, log_a, end, width)
        runs.append(run)
        _, walked, half, rule = run
        pos += 2 * walked * half
        adds, est = walked * len(rule), est + bound
        stands, misses = [(walked, adds, est)], [abs(end - pos)]
    start, count, stand, merge = pos, 0, 0, _MERGE  # h = 0: the window opens a run
    for offset in ahead:
        gap = -offset - pos
        if gap > merge:
            panels = 1 if gap <= width else math.ceil(gap / width)
            if abs(gap - 2 * panels * h) > merge:  # a new width, a new run
                if count:
                    runs.append((start, count, h, _GAUSS4))
                start, count, h = pos, 0, 0.5 * gap / panels
                step, = _arc_bound(h, r, p, log_a, (0.0,))
            count += panels
            walked += panels
            adds += 4 * panels
            pos = start + 2 * count * h
            est += panels * step
            stands.append((walked, adds, est))
            misses.append(abs(offset + pos))
            stand += 1
        else:
            misses[-1] = max(misses[-1], abs(offset + pos))
        at[offset] = stand
    if count:
        runs.append((start, count, h, _GAUSS4))
    sums = [(0.0 + 0.0j, 0.0)] + _arc_sum(p, r, log_a, runs)
    # round-off of the sums: rel per term, n^2 eps more on the seed panel's n weights
    # (gauss_rule), and one eps per addition
    size, peak = abs(seed), math.exp(log_a)
    weights = len(runs[0][3]) ** 2 * EPS * sums[1][1] if stands[0][0] == 1 else 0.0
    walked_0, adds_0, est_0 = stands[-1]
    total_0, mass_0 = sums[walked_0]
    t_0, miss_0 = seed + total_0, misses[-1]
    bound_0 = (est_0 + rel * mass_0 + weights + (adds_0 + 1) * EPS * (size + mass_0)
               + peak * miss_0)
    # at u > 0: bound_0 + (est_0 - est) + rel (mass_0 - mass) + peak (miss + miss_0)
    #           + (adds_0 - adds + 2) eps (size + mass_0); an infinite panel
    # bound stays so (inf - inf is nan)
    finite = bound_0 < math.inf
    base_0 = bound_0 + est_0 + rel * mass_0 + peak * miss_0 + (adds_0 + 2) * EPS * (size + mass_0)
    per_add, eps_size = EPS * (size + mass_0), EPS * size
    pairs = []
    for (walked, adds, est), miss in zip(stands, misses):
        total, mass = sums[walked]
        # (T(-u), bound) and, where some u > 0, (T(u), bound)
        pairs.append(((seed + total, est + rel * mass + weights
                       + (adds + 1) * (eps_size + EPS * mass) + peak * miss),
                      right and (t_0 + (total_0 - total).conjugate(),
                                 base_0 - est - rel * mass - adds * per_add + peak * miss
                                 if finite else math.inf)))
    return [pairs[at[offset]][u > 0.0] for u, offset in zip(us, offsets)]
