"""Honesty of the reported errors: |value - log G(z+1)| <= reported error, against mpmath.

Rows cover |z| in [1e-8, 50] and |arg z| up to 0.99 pi, with the known hard
points 0.1i, 1.5 e^{0.9 pi i} and 1e-8 i, two shifted points where the
benchmark's accuracy pass once had its largest errors, and every row off
the real axis with its conjugate.  Values are compared modulo 2 pi i, since the principal
logarithm of mpmath's G(z+1) may sit on another branch than the library's
analytic log G; the branch itself is checked on the rows the certified route
shifts across the negative axis, against a form with no principal logarithm
of G.  A route's rows belong here once its report is a bound; there is no
tolerance.  remainder_wide's rows for N = 1..4 compare R_N(z) with mpmath's
log G minus the truncated expansion; near the cut above the oracle's shift
cap (Re z < -63) the oracle raises AccuracyError instead.  Above its own cap
(Re z < -62) the improved route runs at z, and it raises only where no K <= 1024
pairs meet its k-tail target, within about 2e-3 to 3e-3 of the cut.
"""

import cmath
import importlib
import math

import mpmath as mp
import pytest

from barnesg import (AccuracyError, certified_eval, exp_improved_report, log_barnes_oracle,
                     remainder_narrow, remainder_wide)
from barnesg.expansion import _certified_shift, _roundoff, _shifted_prefix
from _reference import log_g_error, remainder_error

# the package's `terminant` is the function; the module is reached by name
terminant_module = importlib.import_module("barnesg.terminant")

PI = math.pi

_MODULI = (1e-8, 1e-4, 0.1, 0.5, 1.0, 2.0, 3.5, 5.0, 8.0, 13.0, 25.0, 50.0)
_ANGLES = (0.0, 0.3, 0.6, 0.8, 0.95, 0.99)  # arg z / pi
#: shifted points where the certified and the improved route had their largest relative
#: error on the benchmark's accuracy pass before they shifted through the bracket E(z, m)
_WORST_SHIFTED = [1.5917151021382578 + 1.4713663058453768j,
                  -0.05736693857000825 + 0.8102240367611614j]
_UPPER = [0.1j, 1.5 * cmath.exp(0.9j * PI), 1e-8j] + _WORST_SHIFTED + [
    r * cmath.exp(1j * a * PI) for r in _MODULI for a in _ANGLES]
ROWS = _UPPER + [z.conjugate() for z in _UPPER if z.imag]


@pytest.mark.parametrize("z", ROWS, ids=repr)
def test_certified_bound_covers_the_error(z):
    res = certified_eval(z)
    assert log_g_error(res.value, z) <= res.bound


@pytest.mark.parametrize("z", ROWS, ids=repr)
def test_improved_estimate_covers_the_error(z):
    value, est = exp_improved_report(z)
    assert log_g_error(value, z) <= est


@pytest.mark.parametrize("z", ROWS, ids=repr)
def test_oracle_estimate_covers_the_error(z):
    res = log_barnes_oracle(z)
    assert log_g_error(res.value, z) <= res.est_error


@pytest.mark.parametrize("n", (1, 2, 3, 4))
@pytest.mark.parametrize("z", ROWS, ids=repr)
def test_wide_remainder_estimate_covers_the_error(z, n):
    res = remainder_wide(z, n)
    assert remainder_error(res.value, z, n) <= res.est_error


#: remainder_wide at N = 8 .. 31 on |z| in {1.5, 2.5, 5, 8} x arg z/pi in {0, 0.3, 0.6, 0.8,
#: 0.9}: rows whose error is up to 82 times 8 eps of the Gauss sum, and which only the
#: charge for gauss_rule's weight error, 0.28 n^2 eps, and for the node's rounding in
#: (t + w)^{-2M} covers (largest error/estimate 0.96, at 1.5 e^{0.9 pi i}, N = 31).
_WIDE_HIGH_N = [(1.5, 0.0, 20), (1.5, 0.0, 24), (1.5, 0.0, 28), (1.5, 0.0, 31),
                (1.5, 0.3, 20), (1.5, 0.3, 24), (1.5, 0.3, 28), (1.5, 0.3, 31), (1.5, 0.6, 28),
                (1.5, 0.8, 16), (1.5, 0.9, 20), (1.5, 0.9, 31), (2.5, 0.0, 24), (2.5, 0.0, 28),
                (2.5, 0.0, 31), (2.5, 0.3, 28), (2.5, 0.3, 31), (2.5, 0.9, 12), (5.0, 0.9, 24),
                (5.0, 0.9, 28), (5.0, 0.9, 31)]
#: The rest of the grid's under-reports: the order-2M pole t = -z lies 0.77 to 1.43 from the
#: path, outside _POLE_GAP = 0.7, and est_error has no discretisation term (ROADMAP item 5c).
#: error/estimate is 1.9 at 1.5 e^{0.6 pi i}, N = 31, 155 to 2.6e7 at 1.5 e^{0.8 pi i} and
#: 726 to 1.3e10 at 2.5 e^{0.9 pi i}.  Strict: a fix shows as XPASS.
_WIDE_DISCRETISATION = pytest.mark.xfail(
    strict=True, reason="remainder_wide has no discretisation term (ROADMAP item 5c)")
_WIDE_UNDER = [(1.5, 0.6, 31)] + [(1.5, 0.8, n) for n in (20, 24, 28, 31)] + [
    (2.5, 0.9, n) for n in (16, 20, 24, 28, 31)]


@pytest.mark.parametrize("r,a,n", _WIDE_HIGH_N + [
    pytest.param(*row, marks=_WIDE_DISCRETISATION) for row in _WIDE_UNDER],
    ids=repr)
def test_wide_remainder_estimate_covers_the_error_up_to_the_table(r, a, n):
    z = r * cmath.exp(1j * a * PI)
    res = remainder_wide(z, n)
    assert remainder_error(res.value, z, n) <= res.est_error


#: The narrow kernel's est_error has no discretisation term, and where the poles t = +-iz
#: of 1/(1 + (t/z)^2) approach the path it under-reports; error/estimate for N = 1 is
#: 1.7e5, 1.5e10 and 52 at these rows.  Strict: a fix shows as XPASS.  At e^{0.47 pi i}
#: the charge for the rule's weight error covers it (error/estimate 0.52, 19 without it).
_NARROW_UNDER = [cmath.exp(0.49j * PI), 0.1 * cmath.exp(0.49j * PI),
                 1e-8 * cmath.exp(0.3j * PI)]
_NARROW_DISCRETISATION = pytest.mark.xfail(
    strict=True, reason="remainder_narrow under-reports near arg z = pi/2")


@pytest.mark.parametrize("z", [cmath.exp(0.47j * PI)] + [
    pytest.param(z, marks=_NARROW_DISCRETISATION) for z in _NARROW_UNDER], ids=repr)
def test_narrow_remainder_estimate_covers_the_error(z):
    res = remainder_narrow(z, 1)
    assert remainder_error(res.value, z, 1) <= res.est_error


#: Re z < -63 and 0.006 from the cut: the wide kernel's tail target is out of reach
#: at z, and a shift to Re w >= 1 would take more than 64 steps.
ABOVE_THE_CAP = 70 * cmath.exp(0.998j * PI)


@pytest.mark.parametrize("route", [log_barnes_oracle, lambda z: remainder_wide(z, 1)],
                         ids=["log_barnes_oracle", "remainder_wide"])
def test_oracle_above_the_shift_cap_near_the_cut_raises(route):
    with pytest.raises(AccuracyError):
        route(ABOVE_THE_CAP)


#: Re z < -62: the improved route runs at z, above its shift cap, and its k-tail sums the
#: sizes of the switched exponentials left out.  The first five rows, arg z within 1e-3
#: of the cut (|Im z| 0.007 to 0.2), once under-reported (error/estimate 1.1 to 1.9
#: against mpmath) and then raised under a fixed pair count; the route now picks K from
#: its target (16 to 443 there).  Then a grid of Re z and |Im z| from 0.005 to 3 (K up
#: to 618).
_IMPROVED_CAP_UPPER = [r * cmath.exp(1j * (PI - d)) for r, d in (
    (70, 1e-3), (66, 1e-3), (100, 1e-3), (200, 1e-3), (70, 1e-4), (70, 0.01), (70, 0.05))] + [
    complex(-70, 0.3)] + [complex(re, im) for re in (-62.5, -70.0, -300.0, -1000.0)
                          for im in (3.0, 1.0, 0.55, 0.3, 0.1, 0.03, 0.005)]


@pytest.mark.parametrize("z", _IMPROVED_CAP_UPPER + [z.conjugate() for z in _IMPROVED_CAP_UPPER],
                         ids=repr)
def test_improved_above_the_shift_cap_covers_the_error(z):
    value, est = exp_improved_report(z)
    assert log_g_error(value, z) <= est


#: Closer to the cut no K <= K_MAX = 1024 meets the k-tail's target.
_IMPROVED_CAP_RAISES = [complex(re, im) for re in (-62.5, -70.0, -200.0, -1000.0)
                        for im in (1e-3, 1e-8)]


@pytest.mark.parametrize("z", _IMPROVED_CAP_RAISES + [z.conjugate() for z in _IMPROVED_CAP_RAISES],
                         ids=repr)
def test_improved_above_the_shift_cap_near_the_cut_raises(z):
    with pytest.raises(AccuracyError):
        exp_improved_report(z)


def _reach_edge(re, reach):
    """The |Im z| at Re z = re, above the shift cap, where the k-tail after `reach` pairs,
    d^{K+1}/(2 pi (K+1)^2 (1 - d)) with d = e^{-2 pi |Im z|}, meets its target: _TAIL_SHARE
    of the round-off allowance of the prefix."""
    lo, hi = 1e-3, 10.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        y = 2 * PI * mid
        tail = math.exp(-(reach + 1) * y) / (2 * PI * (reach + 1) ** 2 * -math.expm1(-y))
        lo, hi = (lo, mid) if tail <= terminant_module._TAIL_SHARE * _roundoff(
            *_shifted_prefix(complex(re, mid), 0)[1]) else (mid, hi)
    return hi


@pytest.mark.parametrize("re", [-66.0, -100.0])
def test_improved_above_the_shift_cap_at_the_reach(monkeypatch, re):
    # |Im z| a part in 1e3 either side of where the k-tail after 8 pairs meets its target.
    # With K_MAX = 8 the route raises below it and serves above it with all 8 pairs (7 are
    # too few there), where the k-tail is the largest share of the estimate; the full reach
    # serves both points, and each is within its estimate
    edge = _reach_edge(re, 8)
    for sign in (1.0, -1.0):
        below, above = complex(re, sign * 0.999 * edge), complex(re, sign * 1.001 * edge)
        full = exp_improved_report(below), exp_improved_report(above)
        with monkeypatch.context() as patch:
            patch.setattr(terminant_module, "K_MAX", 8)
            with pytest.raises(AccuracyError):
                exp_improved_report(below)
            assert exp_improved_report(above) == full[1]
            patch.setattr(terminant_module, "K_MAX", 7)
            with pytest.raises(AccuracyError):
                exp_improved_report(above)
        for z, (value, est) in zip((below, above), full):
            assert log_g_error(value, z) <= est


#: exp_improved_report's outcomes at three rows above the cap (K = 5, 1 and 12) and, with
#: the imaginary part's sign flipped, at their conjugates; these reprs pin the pair count
#: and the k-tail there.
_IMPROVED_CAP_REPRS = {
    70 * cmath.exp(1j * (PI - 0.01)): ("(6820.196174355437{}7536.5740204456715j)",
                                       "8.175530069080983e-11"),
    70 * cmath.exp(1j * (PI - 0.05)): ("(7391.585985126268{}6867.259259782473j)",
                                       "8.126211343632756e-11"),
    complex(-70, 0.3): ("(6723.222772784199{}7628.6310879186585j)", "8.18119888986131e-11"),
}


@pytest.mark.parametrize("z", list(_IMPROVED_CAP_REPRS), ids=repr)
def test_improved_above_the_shift_cap_is_unchanged(z):
    value, est = _IMPROVED_CAP_REPRS[z]
    for point, sign in ((z, "+"), (z.conjugate(), "-")):
        assert repr(exp_improved_report(point)) == f"({value.format(sign)}, {est})"


#: Rows the certified route shifts by 14 to 52 steps, past the negative axis's
#: integers; mpmath's principal log G(z+1) differs from log G by 2 pi i k there.
_BRANCH_UPPER = [-40 - 1j, -7.5 + 0.001j, 3 * cmath.exp(0.95j * PI), -1.975 + 0.313j]
BRANCH_ROWS = _BRANCH_UPPER + [z.conjugate() for z in _BRANCH_UPPER]


@pytest.mark.parametrize("z", BRANCH_ROWS, ids=repr)
def test_shifted_certified_value_is_on_the_analytic_branch(z):
    # log G(z+1) = z log Gamma(z) + zeta'(-1) - zeta'(-1, z) (Adamchik), with the
    # analytic log Gamma and no reduction modulo 2 pi i
    assert _certified_shift(z) > 0
    res = certified_eval(z)
    with mp.workdps(30):
        w = mp.mpc(z)
        exact = w * mp.loggamma(w) + mp.zeta(-1, 1, 1) - mp.zeta(-1, w, 1)
        assert float(abs(mp.mpc(res.value) - exact)) <= res.bound
