"""Panel-based Gauss-Legendre quadrature helpers, and the package's one Gauss-Legendre rule.

All oracle integrals in this library are smooth on each panel, so fixed-order
Gauss-Legendre per panel converges spectrally.  Panels are graded
geometrically toward an endpoint singularity where needed (integrands with
t^a log t behaviour near 0).

gauss_rule builds every rule in the package, in scalars, so the module imports no
numpy: the oracle reads the rule as arrays (gauss_nodes, which imports numpy, as
the other array helpers do), the Stokes walk (barnesg.arc) as (node, weight) pairs.
The oracle folds everything but its z-dependent factor into a weight vector
(panel_weights times a tabulated factor at panel_nodes), so each of its
integrals is one dot product.  integrate_panels, which calls an integrand
on the nodes of many panels in vectorised passes, is used only by the test
suite's reference integrals and by the benchmark's tracer.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import RangeError, _check_order

if TYPE_CHECKING:
    import numpy as np

__all__ = ["gauss_rule", "gauss_nodes", "panel_nodes", "panel_weights", "integrate_panels",
           "geometric_breakpoints"]

#: Most nodes handed to one integrand call: 64 kB per complex temporary, however
#: many panels an integral has.
_CHUNK_NODES = 4096


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_n'(x) for |x| < 1 by the three-term recurrence."""
    p0, p1 = 1.0, x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (p0 - x * p1) / (1.0 - x * x)


@lru_cache(maxsize=64, typed=True)
def gauss_rule(n: int) -> tuple[tuple[float, float], ...]:
    """The n-point Gauss-Legendre rule on [-1, 1] as (node, weight) pairs, nodes ascending,
    for n in [1, 64]; the cache is typed, so 4.0 raises even where 4 is cached.

    Newton's method on the three-term recurrence from Tricomi's approximations to the
    roots of P_n (Hale and Townsend, SIAM J. Sci. Comput. 35, 2013, A652-A674), all
    nodes stepped together until the largest step is below 1e-15, weights
    2 / ((1 - x^2) P_n'(x)^2), both made symmetric.  Against rules refined at 32 digits,
    for every n the nodes are within 0.43 eps (at n = 58) and the weights within
    0.28 n^2 eps relative (at n = 3; 25.4 eps at n = 32, 417 eps at n = 64): near +-1 a
    weight's log-derivative is about n^2, so that is what half an ulp of node costs.
    """
    n = _check_order(n, 1, 64, RangeError)
    xs = [(1.0 - (n - 1) / (8.0 * n ** 3)) * math.cos(math.pi * (4 * k - 1) / (4 * n + 2))
          for k in range(n, 0, -1)]
    for _ in range(100):
        steps = [p / dp for p, dp in (_legendre(n, x) for x in xs)]
        xs = [x - dx for x, dx in zip(xs, steps)]
        if max(map(abs, steps)) < 1e-15:  # quadratic convergence: x is settled
            break
    dps = [_legendre(n, x)[1] for x in xs]
    ws = [2.0 / ((1.0 - x * x) * dp * dp) for x, dp in zip(xs, dps)]
    return tuple((0.5 * (x - y), 0.5 * (w + v))
                 for x, y, w, v in zip(xs, reversed(xs), ws, reversed(ws)))


@lru_cache(maxsize=8, typed=True)
def gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """gauss_rule(order) as arrays: cached nodes (ascending) and weights on [-1, 1]."""
    import numpy as np

    x, w = zip(*gauss_rule(order))
    return np.array(x), np.array(w)


def panel_nodes(breakpoints: Sequence[float], order: int = 32) -> np.ndarray:
    """The Gauss-Legendre nodes of consecutive panels, flattened in panel order.

    These are the nodes integrate_panels hands to its integrand, bit for bit,
    for the panels of one chunk.
    """
    import numpy as np

    x, _ = gauss_nodes(order)
    bp = np.asarray(breakpoints, dtype=float)
    a, b = bp[:-1], bp[1:]
    return (0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * x).ravel()


def panel_weights(breakpoints: Sequence[float], order: int = 32) -> np.ndarray:
    """The Gauss-Legendre weights of consecutive panels times their half-widths, flattened
    in panel order: sum(panel_weights * f(panel_nodes)) integrates f over the panels."""
    import numpy as np

    _, w = gauss_nodes(order)
    bp = np.asarray(breakpoints, dtype=float)
    return (0.5 * (bp[1:] - bp[:-1])[:, None] * w).ravel()


def integrate_panels(
    f: Callable[[np.ndarray], np.ndarray],
    breakpoints: Sequence[float],
    order: int = 32,
) -> tuple[complex, float]:
    """Integrate f over consecutive panels; returns (integral, sum of |w f|).

    f is called once per chunk of at most _CHUNK_NODES nodes (whole panels,
    at least one), on the flattened nodes of those panels, so it must be
    elementwise.  The panel sums are added in panel order, which keeps the
    result bit-identical to integrating one panel at a time.  The second value
    feeds round-off estimates: the float error of the panel sums is bounded by
    a small multiple of eps times it, plus the weights' own error (gauss_rule:
    25.4 eps relative at order 32) times it.
    """
    import numpy as np

    _, w = gauss_nodes(order)
    bp = np.asarray(breakpoints, dtype=float)
    per_chunk = max(1, _CHUNK_NODES // order)
    total = 0.0 + 0.0j
    abs_sum = 0.0
    for start in range(0, len(bp) - 1, per_chunk):
        chunk = bp[start:min(start + per_chunk, len(bp) - 1) + 1]
        half = 0.5 * (chunk[1:] - chunk[:-1])
        wv = w * f(panel_nodes(chunk, order)).reshape(len(half), order)
        for s, m in zip((half * wv.sum(axis=1)).tolist(),
                        (half * np.abs(wv).sum(axis=1)).tolist()):
            total += s
            abs_sum += m
    return np.complex128(total), abs_sum


def geometric_breakpoints(smallest_exp: int = -20) -> list[float]:
    """[0, 2^smallest_exp, ..., 1/2, 1]: dyadic grading toward t = 0."""
    return [0.0] + [2.0 ** k for k in range(smallest_exp, 1)]
