"""Panel-based Gauss-Legendre quadrature helpers.

All oracle integrals in this library are smooth on each panel, so fixed-order
Gauss-Legendre per panel converges spectrally.  Panels are graded
geometrically toward an endpoint singularity where needed (integrands with
t^a log t behaviour near 0).

Integrands are evaluated in vectorised passes: the nodes of many panels go to
one call, so an integrand must act elementwise on a 1-D array of nodes and
return an array of the same shape.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["gauss_nodes", "panel_nodes", "integrate_panels", "geometric_breakpoints"]

#: Most nodes handed to one integrand call: 64 kB per complex temporary, however
#: many panels an integral has (twice that raised the oracle's peak RSS).
_CHUNK_NODES = 4096


@lru_cache(maxsize=8)
def gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes and weights on [-1, 1]."""
    return leggauss(order)


def panel_nodes(breakpoints: Sequence[float], order: int = 32) -> np.ndarray:
    """The Gauss-Legendre nodes of consecutive panels, flattened in panel order.

    These are the nodes integrate_panels hands to its integrand, bit for bit,
    for the panels of one chunk.
    """
    x, _ = gauss_nodes(order)
    bp = np.asarray(breakpoints, dtype=float)
    a, b = bp[:-1], bp[1:]
    return (0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * x).ravel()


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


def geometric_breakpoints(stop: float = 1.0, smallest_exp: int = -20) -> list[float]:
    """[0, 2^smallest_exp, ..., 1/2, stop]: dyadic grading toward t = 0."""
    pts = [0.0]
    pts.extend(2.0 ** k for k in range(smallest_exp, 0))
    if stop > pts[-1]:
        pts.append(stop)
    return pts
