"""The Gauss-Legendre rule against mpmath and scipy, the vectorised panel sum against
the panel-at-a-time loop, the flattened panel weights against it, and the import
footprint of the package."""

import cmath
import inspect
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.special import roots_legendre

import barnesg
from barnesg.arc import _GAUSS4
from barnesg.bernoulli import DEFAULT_TABLE
from barnesg.errors import DomainError, RangeError
from barnesg.oracle import _GAUSS_ORDER, _NARROW_BREAKS
from barnesg.quadrature import (_CHUNK_NODES, gauss_nodes, gauss_rule, integrate_panels,
                                 panel_nodes, panel_weights)
from barnesg.special import _dilog_exp
from _reference import gauss_legendre_mp

EPS = np.finfo(float).eps

# every order in use: the remainder oracles' fixed order, the integrate_panels
# default (the reference terminant quadrature), 64, twice the oracles' order,
# which tests/test_oracle.py's self-consistency check runs, and the Stokes window's 4
ORDERS = sorted({
    _GAUSS_ORDER,
    inspect.signature(integrate_panels).parameters["order"].default,
    64,
    len(_GAUSS4),
})


@pytest.mark.parametrize("n", range(1, 65))
def test_rule_matches_mpmath(n):
    # against the rule refined at 32 digits: nodes within half an eps, and weights within
    # the n^2 eps relative that the Stokes walk charges its seed panel (gauss_rule states
    # 0.43 eps and 0.28 n^2 eps); the rule is symmetric and its nodes ascend
    rule = gauss_rule(n)
    assert [x for x, _ in rule] == sorted(-x for x, _ in rule)
    assert [w for _, w in rule] == [w for _, w in reversed(rule)]
    with mp.workdps(32):
        for (x, w), (xr, wr) in zip(rule, gauss_legendre_mp(n), strict=True):
            assert abs(x - xr) <= 0.5 * EPS
            assert abs(w - wr) <= n * n * EPS * wr


@pytest.mark.parametrize("order", ORDERS)
def test_nodes_and_weights_match_scipy(order):
    x, w = gauss_nodes(order)
    xs, ws = roots_legendre(order)
    # nodes lie in [-1, 1]: one ulp of 1; weights sum to 2: a few dozen ulps
    assert np.max(np.abs(x - xs)) <= EPS
    assert np.max(np.abs(w - ws)) <= 32 * EPS
    assert abs(w.sum() - 2.0) <= 32 * EPS


@pytest.mark.parametrize("order,error", [(0, DomainError), (-3, DomainError),
                                         (2.5, DomainError), (4.0, DomainError),
                                         (65, RangeError)])
def test_bad_order_raises_a_typed_error(order, error):
    # the rule's cache is typed: a cached order 4 lets no 4.0 through
    gauss_nodes(4)
    with pytest.raises(error):
        gauss_nodes(order)
    with pytest.raises(error):
        panel_nodes([0.0, 1.0], order)


def test_import_does_not_load_scipy():
    code = "import sys, barnesg; sys.exit('scipy' in sys.modules)"
    # the child must import the same barnesg as this process, from wherever it was found
    src = str(Path(barnesg.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


def _integrate_panel_by_panel(f, breakpoints, order=32):
    """Reference: one integrand call and one sum per panel, in panel order."""
    x, w = gauss_nodes(order)
    total = 0.0 + 0.0j
    abs_sum = 0.0
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        wv = w * f(mid + half * x)
        total += half * wv.sum()
        abs_sum += half * float(np.abs(wv).sum())
    return total, abs_sum


def _narrow_case():
    z, n = 2.5 * cmath.exp(0.3j), 3
    return (lambda t: t ** (2 * n - 1) / (1.0 + (t / z) ** 2) * _dilog_exp(t)), _NARROW_BREAKS


def _wide_case():
    # the wide kernel's integrand with its pole 0.09 off [0, 1], which is split in eighths
    z, m = 0.3 * cmath.exp(0.9j * math.pi), 8
    breaks = [j / 8 for j in range(8)] + [float(t) for t in range(1, 13)]
    return (lambda t: DEFAULT_TABLE.poly_periodic(2 * m + 1, t) / (t + z) ** (2 * m)), breaks


def _many_panels_case():
    order = 32
    n_panels = 3 * (_CHUNK_NODES // order) + 7
    return (lambda s: np.exp(-s) / (0.5j + s)), np.linspace(0.0, 40.0, n_panels + 1)


CASES = {
    "narrow": _narrow_case,
    "wide_pole_refined": _wide_case,
    "more_panels_than_a_chunk": _many_panels_case,
    "single_panel": lambda: ((lambda t: np.cos(3.0 * t) + 1j * t), [0.25, 1.75]),
}


@pytest.mark.parametrize("case", CASES)
def test_vectorised_sum_equals_the_panel_loop_bit_for_bit(case):
    f, breaks = CASES[case]()
    for order in (32, 64):
        value, abs_sum = integrate_panels(f, breaks, order)
        ref_value, ref_abs_sum = _integrate_panel_by_panel(f, breaks, order)
        assert value == ref_value
        assert abs_sum == ref_abs_sum


def test_integrand_sees_at_most_one_chunk_per_call():
    f, breaks = _many_panels_case()
    sizes = []

    def recording(t):
        sizes.append(t.size)
        return f(t)

    integrate_panels(recording, breaks)
    assert max(sizes) <= _CHUNK_NODES
    assert sum(sizes) == 32 * (len(breaks) - 1)
    assert len(sizes) == math.ceil((len(breaks) - 1) / (_CHUNK_NODES // 32))


def test_memory_stays_bounded_for_many_panels():
    breaks = np.linspace(0.0, 1.0, 10 ** 5 + 1)
    tracemalloc.start()
    try:
        integrate_panels(lambda t: np.exp(-t) + 1j * t, breaks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one pass over all 3.2e6 nodes would hold ~50 MB per complex array
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("case", CASES)
def test_panel_weights_integrate_like_the_panel_loop(case):
    """One dot product of panel_weights with f at panel_nodes gives integrate_panels'
    integral to round-off, and the weights are the half-widths times the Gauss weights."""
    f, breaks = CASES[case]()
    weights = panel_weights(breaks)
    _, w = gauss_nodes(32)
    half = 0.5 * np.diff(np.asarray(breaks, dtype=float))
    assert np.array_equal(weights, (half[:, None] * w).ravel())
    value, abs_sum = integrate_panels(f, breaks)
    assert abs(np.dot(weights, f(panel_nodes(breaks))) - value) <= 64 * EPS * abs_sum
