"""Gauss-Legendre nodes against scipy, and the import footprint of the package."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import roots_legendre

import barnesg
from barnesg import QuadraturePolicy
from barnesg.quadrature import gauss_nodes, integrate_panels

EPS = np.finfo(float).eps

# every order the library asks for: the policy default (remainder oracles),
# the integrate_panels default (terminant quadrature) and 64 (erf_small)
ORDERS = sorted({
    QuadraturePolicy().nodes_per_interval,
    inspect.signature(integrate_panels).parameters["order"].default,
    64,
})


@pytest.mark.parametrize("order", ORDERS)
def test_nodes_and_weights_match_scipy(order):
    x, w = gauss_nodes(order)
    xs, ws = roots_legendre(order)
    # nodes lie in [-1, 1]: one ulp of 1; weights sum to 2: a few dozen ulps
    assert np.max(np.abs(x - xs)) <= EPS
    assert np.max(np.abs(w - ws)) <= 32 * EPS
    assert abs(w.sum() - 2.0) <= 32 * EPS


def test_import_does_not_load_scipy():
    code = "import sys, barnesg; sys.exit('scipy' in sys.modules)"
    # the child must import the same barnesg as this process, from wherever it was found
    src = str(Path(barnesg.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
