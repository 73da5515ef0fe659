"""Property-based invariants over randomized inputs."""

import cmath
import math

import pytest

try:
    from hypothesis import given, settings, strategies as st

    HAS_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAS_HYPOTHESIS = False

from barnesg import (
    best_bound,
    certified_eval,
    exp_improved_report,
    log_barnes_oracle,
    log_gamma,
    remainder_wide,
    sector_factor,
    terminant,
)
from barnesg.expansion import (_certified_shift, _prefix, _roundoff, _shift_bracket,
                               _shift_count)

pytestmark = pytest.mark.skipif(not HAS_HYPOTHESIS, reason="hypothesis not installed")

PI = math.pi


@given(st.floats(min_value=-PI / 2, max_value=PI / 2))
@settings(max_examples=300, deadline=None)
def test_sector_factor_even_and_at_least_one(theta):
    f = sector_factor(theta)
    assert f >= 1.0
    assert f == sector_factor(-theta)


@given(
    st.floats(min_value=1.0, max_value=25.0),
    st.floats(min_value=-0.9 * PI, max_value=0.9 * PI),
)
@settings(max_examples=60, deadline=None)
def test_log_gamma_conjugate_reflection(r, theta):
    z = r * cmath.exp(1j * theta)
    assert abs(log_gamma(z.conjugate()) - log_gamma(z).conjugate()) <= 1e-12 * max(
        1.0, abs(log_gamma(z))
    )


@given(
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=5.0, max_value=25.0),
    st.floats(min_value=-0.75 * PI, max_value=0.75 * PI),
)
@settings(max_examples=40, deadline=None)
def test_terminant_reflection(p, r, phase):
    w = r * cmath.exp(1j * phase)
    a = terminant(p, w.conjugate())
    b = terminant(p, w)
    tol = max(1e-11, 10.0 * (a.est_error + b.est_error))
    assert abs(a.value + b.value.conjugate()) <= tol


@given(
    st.floats(min_value=2.0, max_value=10.0),
    st.floats(min_value=-0.8 * PI, max_value=0.8 * PI),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=25, deadline=None)
def test_certified_bound_dominates_oracle(r, theta, n):
    z = r * cmath.exp(1j * theta)
    oracle = remainder_wide(z, n)
    bound = best_bound(z, n).bound
    assert abs(oracle.value) <= bound + oracle.est_error + 1e-10


@given(
    st.floats(min_value=-8.0, max_value=4.0),
    st.floats(min_value=-0.99 * PI, max_value=0.99 * PI),
)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_every_log_g_route_counts_the_prefix_roundoff(log_r, theta):
    # certified_eval and exp_improved_report start from prefix(z), plus the bracket
    # E(z, m) where they shift to w = z + m, so their reported error includes
    # _roundoff of the prefix's terms at z, of E's parts and of the value.
    # certified_eval's bound is exactly the truncation bound at w plus that floor,
    # shifted or not.  The oracle counts the parts of its own sums, whose moduli
    # can add up to less than |value|, so it is held to _roundoff of the prefix's
    # terms.  No route raises on this range, except the oracle's AccuracyError near
    # the cut, so the oracle is asked only up to |arg z| = 0.95 pi.
    z = 10.0 ** log_r * cmath.exp(1j * theta)

    def terms(m):
        return _prefix(z)[1] + (_shift_bracket(z, m)[1] if m else ())

    res = certified_eval(z)
    m = _certified_shift(z)
    truncation = best_bound(z + m if m else z, res.n_trunc).bound
    assert res.bound == truncation + _roundoff(*terms(m), res.value)
    value, est = exp_improved_report(z)
    assert est >= _roundoff(*terms(_shift_count(z, 2.0)), value)
    if abs(theta) <= 0.95 * PI:
        assert log_barnes_oracle(z).est_error >= _roundoff(*_prefix(z)[1])
