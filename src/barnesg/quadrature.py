"""Panel-based Gauss-Legendre quadrature helpers.

All oracle integrals in this library are smooth on each panel, so fixed-order
Gauss-Legendre per panel converges spectrally.  Panels are graded
geometrically toward an endpoint singularity where needed (integrands with
t^a log t behaviour near 0).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["gauss_nodes", "integrate_panels", "geometric_breakpoints"]


@lru_cache(maxsize=8)
def gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes and weights on [-1, 1]."""
    return leggauss(order)


def integrate_panels(
    f: Callable[[np.ndarray], np.ndarray],
    breakpoints: Sequence[float],
    order: int = 32,
) -> tuple[complex, float]:
    """Integrate f over consecutive panels; returns (integral, sum of |w f|).

    The second value feeds round-off estimates: the float error of the panel
    sums is bounded by a small multiple of eps times it.
    """
    x, w = gauss_nodes(order)
    total = 0.0 + 0.0j
    abs_sum = 0.0
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        vals = f(mid + half * x)
        wv = w * vals
        total += half * wv.sum()
        abs_sum += half * float(np.abs(wv).sum())
    return total, abs_sum


def geometric_breakpoints(stop: float = 1.0, smallest_exp: int = -20) -> list[float]:
    """[0, 2^smallest_exp, ..., 1/2, stop]: dyadic grading toward t = 0."""
    pts = [0.0]
    pts.extend(2.0 ** k for k in range(smallest_exp, 0))
    if stop > pts[-1]:
        pts.append(stop)
    return pts
