"""Panel-based Gauss-Legendre quadrature helpers.

All oracle integrals in this library are smooth on each panel, so fixed-order
Gauss-Legendre per panel converges spectrally.  Panels are graded
geometrically toward an endpoint singularity where needed (integrands with
t^a log t behaviour near 0).

The oracle folds everything but its z-dependent factor into a weight vector
(panel_weights times a tabulated factor at panel_nodes), so each of its
integrals is one dot product.  integrate_panels, which calls an integrand
on the nodes of many panels in vectorised passes, is used only by the test
suite's reference integrals and by the benchmark's tracer.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

__all__ = ["gauss_nodes", "panel_nodes", "panel_weights", "integrate_panels",
           "geometric_breakpoints"]

#: Most nodes handed to one integrand call: 64 kB per complex temporary, however
#: many panels an integral has.
_CHUNK_NODES = 4096


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) for |x| < 1 by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (p0 - x * p1) / (1.0 - x * x)


@lru_cache(maxsize=8)
def gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on the three-term recurrence from Tricomi's approximations
    to the roots of P_n (Hale and Townsend, SIAM J. Sci. Comput. 35, 2013,
    A652-A674), weights 2 / ((1 - x^2) P_n'(x)^2), both made symmetric.  Against
    40-digit roots the weights err by under an eps at orders 32 and 64 (numpy's
    leggauss: 1.8 and 10 eps).  No eigenvalue solver runs and numpy.polynomial is
    not imported, which lowers an oracle process's peak RSS by about 0.9 MB.
    """
    k = np.arange(order, 0, -1)
    x = (1.0 - (order - 1) / (8.0 * order ** 3)) * np.cos(np.pi * (4 * k - 1) / (4 * order + 2))
    for _ in range(100):
        p, dp = _legendre(order, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:  # quadratic convergence: x is settled
            break
    _, dp = _legendre(order, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def panel_nodes(breakpoints: Sequence[float], order: int = 32) -> np.ndarray:
    """The Gauss-Legendre nodes of consecutive panels, flattened in panel order.

    These are the nodes integrate_panels hands to its integrand, bit for bit,
    for the panels of one chunk.
    """
    x, _ = gauss_nodes(order)
    bp = np.asarray(breakpoints, dtype=float)
    a, b = bp[:-1], bp[1:]
    return (0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * x).ravel()


def panel_weights(breakpoints: Sequence[float], order: int = 32) -> np.ndarray:
    """The Gauss-Legendre weights of consecutive panels times their half-widths, flattened
    in panel order: sum(panel_weights * f(panel_nodes)) integrates f over the panels."""
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
    a small multiple of eps times it.
    """
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
