"""The input contract shared by every z-route, the kernels below them, the
terminant, stokes_profile and the CLI.

Each call either returns finite numbers or raises a typed library error.
z outside the slit plane (non-finite, zero, on the cut) raises DomainError;
a modulus whose powers leave the binary64 range raises RangeError, and so
does a float overflow inside a route, without a RuntimeWarning.  A terminant
argument w that is zero or not finite, or a branch angle arg_w that is not
finite or not congruent to arg w, raises DomainError; a terminant value or
estimate that is not finite in binary64 raises RangeError.  A |z| for
stokes_profile that is not finite raises DomainError.  An integer argument
(an order, index or count) that is not an integer or lies below its least
value raises DomainError, and one beyond a table or float reach RangeError.
A hypothesis property checks the contract for every numeric public callable
over the whole binary64 range and every kind of integer argument; fixed rows
pin the inputs that once leaked an untyped error, a NaN or a silent result.
"""

import cmath
import enum
import math
import numbers
import signal
import sys
import warnings
from contextlib import contextmanager

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from barnesg import (
    AccuracyError,
    BernoulliTable,
    DomainError,
    RangeError,
    bernoulli_number,
    best_bound,
    certified_eval,
    erf_small,
    exp_improved_report,
    exp_integral_e1,
    expansion_prefix,
    family_bounds,
    log_barnes_oracle,
    log_gamma,
    remainder_narrow,
    remainder_wide,
    sector_factor,
    series_coefficient,
    solve_optimal_angle,
    stokes_profile,
    terminant,
    truncated_log_barnes,
    zeta_even,
)
from barnesg.cli import MAX_THETA_STEPS
from barnesg.expansion import _roundoff
from barnesg.quadrature import gauss_nodes
from _reference import log_g_error, remainder_error
from _cli import invoke

NAN, INF = math.nan, math.inf

ROUTES = {
    "certified_eval": certified_eval,
    "best_bound": lambda z: best_bound(z, 2),
    "family_bounds": lambda z: family_bounds(z, 2),
    "log_barnes_oracle": log_barnes_oracle,
    "remainder_wide": lambda z: remainder_wide(z, 2),
    "remainder_narrow": lambda z: remainder_narrow(z, 2),
    "exp_improved_report": exp_improved_report,
}

OUTSIDE_SLIT_PLANE = [complex(NAN, 0.0), complex(0.0, NAN), complex(INF, 0.0),
                      complex(-INF, 0.0), complex(0.0, INF), 0j, complex(-0.0, 0.0),
                      complex(-2.0, 0.0), complex(-2.0, -0.0)]
TINY_OR_HUGE = [1e-300, 1e200]
#: The certified, improved and oracle routes shift a tiny z to Re w >= 12, 2 or 1 and
#: return log G(1+z) ~ 0 with its error; every other route raises RangeError there.
SHIFTED_ROUTES = ("certified_eval", "exp_improved_report", "log_barnes_oracle")
MODULUS_OUT_OF_RANGE = [(route, z) for z in TINY_OR_HUGE for route in ROUTES
                        if not (route in SHIFTED_ROUTES and z < 1.0)]
TINY = [1e-300, 5e-324, 1e-160 * cmath.exp(0.3j * math.pi)]
NEAR_CUT = complex(-1.0, 1e-15)
# finite moduli at which an intermediate of the route overflows: the wide kernel's
# (t + z)^{2 m_eff}, the narrow prefactor 1/z^{2N}
OVERFLOW_INSIDE = [
    ("remainder_wide", 1e30),
    ("remainder_narrow", 1e-78),
]
# small moduli where the oracle's unshifted quadrature once overflowed or went
# wrong; shifted to Re w >= 1 they give finite values within their error
ORACLE_SHIFTED = [
    ("log_barnes_oracle", 1e-30 * cmath.exp(0.3j * math.pi), None),
    ("remainder_wide", 3e-78, 2),
    ("remainder_wide", -9.510565162951535e-06 + 3.0901699437494755e-06j, 25),
]


# large moduli where the improved route stays finite (polar 1000i: at exactly
# 1000j every w is real)
IMPROVED_LARGE = [300 * cmath.exp(0.3j * math.pi), 1000 * cmath.exp(0.5j * math.pi)]


@contextmanager
def _deadline(seconds):
    """TimeoutError if the block runs longer than seconds (a loop without end fails, not hangs).

    Every library call of this module runs inside _deadline(5.0).  The slowest
    of them took 4 ms on a 2-vCPU Xeon VM, so 5 s is headroom, not a bound."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _numbers(out):
    """Every number inside a route's result: the result records are named tuples, so
    records, tuples, lists, dicts of reports and arrays are searched through.  None (an
    unset phi_star) and enum members (a bound kind or a method) hold no number; any
    other leaf raises, so no number a route returns is passed over."""
    if isinstance(out, np.ndarray):
        return list(out.ravel())
    if isinstance(out, dict):
        out = list(out.values())
    if isinstance(out, (tuple, list)):
        return [x for item in out for x in _numbers(item)]
    if isinstance(out, numbers.Number):
        return [out]
    if out is None or isinstance(out, enum.Enum):
        return []
    raise TypeError(f"no numbers rule for {type(out).__name__}")


@pytest.mark.parametrize("z", OUTSIDE_SLIT_PLANE, ids=repr)
@pytest.mark.parametrize("route", ROUTES)
def test_outside_the_slit_plane_raises_domain_error(route, z):
    with _deadline(5.0), pytest.raises(DomainError):
        ROUTES[route](z)


@pytest.mark.parametrize("route,z", MODULUS_OUT_OF_RANGE,
                         ids=[f"{r}-{z!r}" for r, z in MODULUS_OUT_OF_RANGE])
def test_modulus_outside_the_float_range_raises_range_error(route, z):
    with _deadline(5.0), pytest.raises(RangeError):
        ROUTES[route](z)


@pytest.mark.parametrize("z", TINY, ids=repr)
@pytest.mark.parametrize("route", SHIFTED_ROUTES)
def test_tiny_modulus_is_within_its_error_of_mpmath(route, z):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with _deadline(5.0):
            out = ROUTES[route](z)
    value, err = out if route == "exp_improved_report" else (
        out.value, out.bound if route == "certified_eval" else out.est_error)
    assert abs(value) < 1e-12 and log_g_error(value, z) <= err


@pytest.mark.parametrize("route,z", OVERFLOW_INSIDE, ids=[f"{r}-{z!r}" for r, z in OVERFLOW_INSIDE])
def test_overflow_inside_a_route_raises_range_error_without_warnings(route, z):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with _deadline(5.0), pytest.raises(RangeError):
            ROUTES[route](z)


@pytest.mark.parametrize("route,z,n", ORACLE_SHIFTED,
                         ids=[f"{r}-{z!r}-{n}" for r, z, n in ORACLE_SHIFTED])
def test_shifted_oracle_at_small_modulus_is_within_its_error_of_mpmath(route, z, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with _deadline(5.0):
            out = log_barnes_oracle(z) if n is None else remainder_wide(z, n)
    error = log_g_error(out.value, z) if n is None else remainder_error(out.value, z, n)
    assert error <= out.est_error


@pytest.mark.parametrize("z", IMPROVED_LARGE, ids=repr)
def test_improved_route_at_large_modulus_is_within_its_estimate(z):
    with _deadline(5.0):
        value, est = exp_improved_report(z)
    assert cmath.isfinite(value) and math.isfinite(est)
    with mp.workdps(30):
        diff = mp.mpc(value) - mp.log(mp.barnesg(mp.mpc(z) + 1))
        diff -= 2j * mp.pi * mp.nint(diff.imag / (2 * mp.pi))  # modulo 2 pi i
        assert abs(diff) <= est


# just below |z| = 1e153 the prefix is finite while the sum of its terms' moduli
# is not (on the real axis the terms add up to about 3 times |prefix|); the
# routes that return a value there must report a finite error with it
PREFIX_EDGE = [("certified_eval", 6.5e152),
               ("certified_eval", 6.5e152 * cmath.exp(0.125j * math.pi)),
               ("exp_improved_report", 6.5e152)]


@pytest.mark.parametrize("route,z", PREFIX_EDGE, ids=[f"{r}-{z!r}" for r, z in PREFIX_EDGE])
def test_round_off_allowance_stays_finite_at_the_prefix_overflow_edge(route, z):
    with _deadline(5.0):
        values = _numbers(ROUTES[route](z))
    assert values and all(cmath.isfinite(v) for v in values)


def test_round_off_allowance_of_a_part_whose_modulus_overflows_is_finite():
    assert math.isfinite(_roundoff(complex(BIG, BIG), -BIG))


@pytest.mark.parametrize("route", ROUTES)
def test_near_the_cut_gives_a_typed_error_or_finite_numbers(route):
    try:
        with _deadline(5.0):
            out = ROUTES[route](NEAR_CUT)
    except (DomainError, RangeError, AccuracyError):
        return
    values = _numbers(out)
    assert values and all(cmath.isfinite(v) for v in values)


# (p, w, arg_w); p ~ |w| where w is finite, the order at which the arc integral would run
OFF_BRANCH = [(60, 60.0, 2.0), (5, 5.0, 2.0), (5, 3.0, NAN), (5, 3.0, INF), (5, 3.0, -INF),
              (5, INF, None), (5, complex(0.0, -INF), None), (5, complex(NAN, 1.0), None),
              (5, 0j, None)]


@pytest.mark.parametrize("p,w,arg_w", OFF_BRANCH,
                         ids=["terminant-" + "-".join(map(repr, row)) for row in OFF_BRANCH])
def test_terminant_off_its_branch_raises_domain_error(p, w, arg_w):
    with _deadline(5.0), pytest.raises(DomainError):
        terminant(p, w, arg_w)


# the partial sums S_m(w) of T_p(w) leave binary64: at 0.1 they become
# inf and nan; at 0.306 e^{i pi/4} one of them has finite parts but |.| > 1.8e308
TERMINANT_OVERFLOW = [(121, 0.1), (140, 0.306 * cmath.exp(0.25j * math.pi))]


@pytest.mark.parametrize("p,w", TERMINANT_OVERFLOW, ids=repr)
def test_terminant_that_overflows_raises_range_error(p, w):
    with _deadline(5.0), pytest.raises(RangeError):
        terminant(p, w)


@pytest.mark.parametrize("abs_z", [NAN, INF], ids=repr)
def test_stokes_profile_at_non_finite_modulus_raises_domain_error(abs_z):
    with _deadline(5.0), pytest.raises(DomainError):
        stokes_profile(abs_z, 1, [1.57])


TYPED = (DomainError, RangeError, AccuracyError)
BIG = sys.float_info.max
HUGE_INT = 10 ** 400
TABLE = BernoulliTable()

# inputs at which a public callable once raised an untyped error, returned NaN
# or looped without end; each now raises the typed error given
PROBES = [
    ("log_gamma(nan)", lambda: log_gamma(NAN), DomainError),
    ("log_gamma(inf)", lambda: log_gamma(INF), DomainError),
    ("log_gamma(inf i)", lambda: log_gamma(complex(0.0, INF)), DomainError),
    ("log_gamma(1e306)", lambda: log_gamma(1e306), RangeError),
    ("exp_integral_e1(-1e8+i)", lambda: exp_integral_e1(-1e8 + 1j), RangeError),
    ("exp_integral_e1(-740+5i)", lambda: exp_integral_e1(-740 + 5j), RangeError),  # |E1| > max
    ("erf_small(nan)", lambda: erf_small(NAN), RangeError),
    ("erf_small(max+max i)", lambda: erf_small(complex(BIG, BIG)), RangeError),
    ("sector_factor(nan)", lambda: sector_factor(NAN), DomainError),
    ("stokes_profile(1e308)", lambda: stokes_profile(1e308, 1, [1.5]), RangeError),
    ("terminant(5, -1e300+1e-300i)", lambda: terminant(5, complex(-1e300, 1e-300)), AccuracyError),
    ("terminant(60, -max)", lambda: terminant(60, -BIG), AccuracyError),
    ("truncated_log_barnes(1e-300, 3)", lambda: truncated_log_barnes(1e-300, 3), RangeError),
    ("truncated_log_barnes(5e-324, 3)", lambda: truncated_log_barnes(5e-324, 3), RangeError),
    ("expansion_prefix(-1e300+1e-300i)", lambda: expansion_prefix(complex(-1e300, 1e-300)),
     RangeError),
    ("exp_improved_report(-1e300+1e-300i)",
     lambda: exp_improved_report(complex(-1e300, 1e-300)), RangeError),
    ("remainder_wide(max+max i, 1)", lambda: remainder_wide(complex(BIG, BIG), 1), RangeError),
    ("log_barnes_oracle(max+max i)", lambda: log_barnes_oracle(complex(BIG, BIG)), RangeError),
    # an integer argument that is not an integer once leaked TypeError ...
    ("terminant(7.5, 10i)", lambda: terminant(7.5, 10j), DomainError),
    ("truncated_log_barnes(3, 2.5)", lambda: truncated_log_barnes(3, 2.5), DomainError),
    ("best_bound(3i, 2.5)", lambda: best_bound(3j, 2.5), DomainError),
    ("family_bounds(3i, 2.5)", lambda: family_bounds(3j, 2.5), DomainError),
    ("remainder_wide(2i, 1.5)", lambda: remainder_wide(2j, 1.5), DomainError),
    ("remainder_narrow(2, 1.5)", lambda: remainder_narrow(2, 1.5), DomainError),
    ("bernoulli_number(2.5)", lambda: bernoulli_number(2.5), DomainError),
    ("series_coefficient(2.5)", lambda: series_coefficient(2.5), DomainError),
    ("zeta_even(4.0)", lambda: zeta_even(4.0), DomainError),
    ("poly_periodic(8.5, t)", lambda: TABLE.poly_periodic(8.5, np.array([0.25])), DomainError),
    # ... a huge one OverflowError ...
    ("solve_optimal_angle(2, 10**400)", lambda: solve_optimal_angle(2.0, HUGE_INT), RangeError),
    ("stokes_profile(3, 10**400)", lambda: stokes_profile(3, HUGE_INT, [1.5]), RangeError),
    ("terminant(10**400, 60i)", lambda: terminant(HUGE_INT, 60j), RangeError),
    # ... and a non-integer was taken without complaint
    ("stokes_profile(3, 1.5)", lambda: stokes_profile(3, 1.5, [1.5]), DomainError),
    ("solve_optimal_angle(2, 2.5)", lambda: solve_optimal_angle(2.0, 2.5), DomainError),
    ("terminant(60.5, 60i)", lambda: terminant(60.5, 60j), DomainError),
]


@pytest.mark.parametrize("name,call,error", PROBES, ids=[p[0] for p in PROBES])
def test_probe_raises_its_typed_error(name, call, error):
    with _deadline(5.0), pytest.raises(error):
        call()


def test_numpy_int_order_gives_plain_numbers():
    with _deadline(5.0):
        value, report = truncated_log_barnes(3, np.int64(4)), best_bound(3, np.int64(4))
    assert type(value) is complex and type(report.bound) is float


# the Stirling powers z^{2n-1} overflow from |z| ~ 2.5e13; log Gamma reaches |z| ~ 1e305
LOG_GAMMA_HUGE = [1e14, 1e20j, 3e100 * cmath.exp(0.3j), 1e150, 1e153, 1e300j, 1e200, 1e16 + 1j]


@pytest.mark.parametrize("z", LOG_GAMMA_HUGE, ids=repr)
def test_log_gamma_at_huge_modulus_matches_mpmath(z):
    with _deadline(5.0):
        value = log_gamma(z)
    with mp.workdps(40):
        ref = mp.loggamma(mp.mpc(z))
        assert abs(mp.mpc(value) - ref) <= 1e-15 * abs(ref)


# Re w < -709: e^{-w} (or the series terms) overflow, but E1 itself fits in binary64
E1_LARGE = [-710 + 100j, -715 + 150j, -712 + 60j]


@pytest.mark.parametrize("w", E1_LARGE, ids=repr)
def test_e1_where_e_to_the_minus_w_overflows_matches_mpmath(w):
    with _deadline(5.0):
        value = exp_integral_e1(w)
    with mp.workdps(30):
        ref = mp.expint(1, mp.mpc(w))
        assert abs(mp.mpc(value) - ref) <= 1e-13 * abs(ref)


# arg z, or the arg of a terminant argument +-2 pi k i z, underflows to 0 at
# these points (cmath.phase raises there); each call returns the value at the
# nearby axis point to rounding
UNDERFLOWING_ARG = {
    "certified_eval": (lambda z: certified_eval(z).value, complex(3.0, 5e-324), 3.0),
    "remainder_wide": (lambda z: remainder_wide(z, 2).value, complex(3.0, -5e-324), 3.0),
    "terminant": (lambda z: terminant(5, z).value, complex(3.0, 5e-324), 3.0),
    "exp_improved_report": (lambda z: exp_improved_report(z)[0], complex(5e-324, 2.0), 2j),
}


@pytest.mark.parametrize("name", UNDERFLOWING_ARG)
def test_arg_that_underflows_gives_the_axis_value(name):
    call, z, on_axis = UNDERFLOWING_ARG[name]
    with _deadline(5.0):
        near, on = call(z), call(on_axis)
    assert cmath.isclose(near, on, rel_tol=1e-15)


# Re z on both sides of -55, where log_gamma switches from upward shifts to
# the reflection; the far-left points would take |Re z| shifts without it
REFLECTION_RE = [-54.5, -55.0, -55.25, -64.5, -65.0, -65.3, -99.75, -1e5 - 0.7, -1e8 + 0.1,
                 -1e12 - 0.5]
REFLECTION_IM = [1e-12, -1e-9, 0.3, -1.0, 50.0, -1e3]


@pytest.mark.parametrize("re", REFLECTION_RE, ids=repr)
def test_log_gamma_far_left_matches_mpmath(re):
    for im in REFLECTION_IM:
        z = complex(re, im)
        with _deadline(5.0):
            value = log_gamma(z)
        with mp.workdps(40):
            ref = mp.loggamma(mp.mpc(z))
            assert abs(mp.mpc(value) - ref) <= 1e-15 * abs(ref), z


# the whole binary64 line: NaN, +-inf, +-0, subnormals, huge values, and
# ordinary floats; points also on the cut and at moderate modulus
EDGES = [0.0, -0.0, NAN, INF, -INF, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-160,
         1e-30, 1e15, 1e200, 1e300, BIG, -BIG, -1.0, -60.5, 1.0]
REALS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(EDGES))
POINTS = st.one_of(
    st.builds(complex, REALS, REALS),
    st.builds(lambda r, a: r * cmath.exp(1j * a), st.floats(1e-3, 1e3),
              st.floats(-math.pi, math.pi)),
    st.builds(lambda x, s: complex(-abs(x), s), REALS, st.sampled_from([0.0, -0.0])),
)


def _integers(valid, largest=HUGE_INT):
    """An integer argument (N, p, k): an int drawn by `valid`, one of 0, -1,
    -10**400 and `largest`, a float (integral or not, NaN, +-inf), a bool or a numpy int."""
    return st.one_of(valid, st.sampled_from([0, -1, -HUGE_INT, largest]), valid.map(float),
                     st.floats(), st.booleans(), valid.map(np.int64))


N = _integers(st.integers(1, 31))  # MAX_COEFF, the cap of every fixed-N call
ORDERS = _integers(st.one_of(st.integers(1, 171), st.integers(-3, 400)))


@st.composite
def _terminant_args(draw):
    w = draw(POINTS)
    near_branch = st.integers(-1, 1).map(lambda j: math.atan2(w.imag, w.real) + 2 * math.pi * j)
    return draw(ORDERS), w, draw(st.one_of(st.none(), REALS, near_branch))


STOKES_WINDOW = st.floats(0.5 * math.pi - 0.52, 0.5 * math.pi + 0.52).flatmap(
    lambda t: st.sampled_from([t, -t]))
CALLABLES = {
    "certified_eval": (certified_eval, st.tuples(POINTS)),
    "best_bound": (best_bound, st.tuples(POINTS, N)),
    "family_bounds": (family_bounds, st.tuples(POINTS, N)),
    "log_barnes_oracle": (log_barnes_oracle, st.tuples(POINTS)),
    "remainder_wide": (remainder_wide, st.tuples(POINTS, N)),
    "remainder_narrow": (remainder_narrow, st.tuples(POINTS, N)),
    "exp_improved_report": (exp_improved_report, st.tuples(POINTS)),
    "log_gamma": (log_gamma, st.tuples(POINTS)),
    "exp_integral_e1": (exp_integral_e1, st.tuples(POINTS)),
    "erf_small": (erf_small, st.tuples(POINTS)),
    "expansion_prefix": (expansion_prefix, st.tuples(POINTS)),
    "truncated_log_barnes": (truncated_log_barnes, st.tuples(POINTS, N)),
    "sector_factor": (sector_factor, st.tuples(REALS)),
    "solve_optimal_angle": (solve_optimal_angle, st.tuples(REALS, N)),
    "terminant": (terminant, _terminant_args()),
    "stokes_profile": (stokes_profile, st.tuples(
        st.one_of(REALS, st.floats(1.5, 40.0)), _integers(st.integers(1, 2)),
        st.one_of(st.lists(REALS, min_size=1, max_size=3),
                  st.lists(STOKES_WINDOW, min_size=1, max_size=3)))),
    "bernoulli_number": (bernoulli_number, st.tuples(_integers(st.integers(-2, 70)))),
    "series_coefficient": (series_coefficient, st.tuples(_integers(st.integers(-2, 35)))),
    "zeta_even": (zeta_even, st.tuples(_integers(st.integers(-2, 70)))),
    "max_abs_poly": (TABLE.max_abs_poly, st.tuples(_integers(st.integers(0, 200)))),
    "gauss_nodes": (gauss_nodes, st.tuples(_integers(st.integers(1, 64)))),
    # the nodes t of a quadrature are finite; the order n is the argument under test
    "poly_periodic": (TABLE.poly_periodic, st.tuples(
        _integers(st.integers(5, 200)),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                 max_size=3).map(np.array))),
}


@pytest.mark.parametrize("name", CALLABLES)
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_full_binary64_range_gives_finite_numbers_or_a_typed_error(name, data):
    call, arguments = CALLABLES[name]
    args = data.draw(arguments)
    try:
        with _deadline(5.0):
            out = call(*args)
    except TYPED:
        return
    values = _numbers(out)
    assert all(cmath.isfinite(v) for v in values), (args, out)


def _eval(method, re, im="0"):
    return ["eval", "--method", method, "--z-re", re, "--z-im", im]


CLI_METHOD = {"log_barnes_oracle": "oracle", "exp_improved_report": "hyper"}


CLI_CASES = [
    *[(_eval(m, re), 2) for m in ("oracle", "hyper")
      for re in ("nan", "inf", "-inf", "0", "-0.0", "-2", "1e200")],
    # the oracle and improved routes shift a tiny z and return log G(1+z) ~ 0
    (_eval("oracle", "1e-300"), 0),
    *[(_eval("hyper", *parts), 0) for parts in (("1e-300",), ("5e-324",),
                                               (repr(TINY[2].real), repr(TINY[2].imag)))],
    (_eval("oracle", repr(ORACLE_SHIFTED[0][1].real), repr(ORACLE_SHIFTED[0][1].imag)), 0),
    (_eval("oracle", "0", "inf"), 2),
    (_eval("hyper", "0", "nan"), 2),
    # shifted to Re w >= 1, 12 and 2: a finite value with its error
    *[(_eval(m, "-1", "1e-15"), 0) for m in ("oracle", "asym", "hyper")],
    *[(["bounds", "--z-abs", r], 2) for r in ("nan", "inf", "0", "1e-300", "1e200")],
    *[(_eval(CLI_METHOD[route], repr(z.real), repr(z.imag)), 2)
      for route, z in OVERFLOW_INSIDE if route in CLI_METHOD],
    *[(_eval("hyper", repr(z.real), repr(z.imag)), 0) for z in IMPROVED_LARGE],
    # near the cut the oracle shifts to Re w >= 1, but not by more than 64 steps
    (["bounds", "--z-abs", "1", "--theta", repr(math.pi - 1e-15)], 0),
    (["bounds", "--z-abs", "70", "--theta", repr(math.pi - 1e-15)], 3),
    (["terminant", "--p", "60", "--w-re", "60", "--w-arg", "2.0"], 2),
    *[(["terminant", "--p", "5", "--w-re", "3", "--w-arg", a], 2) for a in ("nan", "inf")],
    (["terminant", "--p", "5", "--w-re", "inf"], 2),
    (["terminant", "--p", "121", "--w-re", "0.1"], 2),  # TERMINANT_OVERFLOW
    *[(["stokes", "--z-abs", r, "--theta-min", "1.5", "--theta-max", "1.6", "--theta-steps", "2"], 2)
      for r in ("nan", "inf")],
    # an angle count past the cap exits before the angle list is built
    *[(["stokes", "--z-abs", "3", "--theta-min", "1.5", "--theta-max", "1.6", "--theta-steps", s], 2)
      for s in (str(MAX_THETA_STEPS + 1), "1000000000000")],
    # a point or an angle given two ways
    (["eval", "--method", "asym", "--z-re", "3", "--z-abs", "5", "--z-arg", "1"], 2),
    (["eval", "--method", "asym", "--z-abs", "5", "--z-arg", "1", "--z-arg-pi", "0.3"], 2),
    (["bounds", "--z-abs", "3", "--theta", "1", "--theta-pi", "0.3"], 2),
    (["terminant", "--p", "7", "--w-re", "3", "--w-abs", "5"], 2),
    (["eval", "--method", "asym", "--z-re", "3", "--z-arg", "1"], 2),
    # a polar modulus that is not > 0: once evaluated at -z or at arg z - pi
    (["eval", "--method", "asym", "--z-abs", "-2", "--z-arg", "0.5"], 2),
    (["bounds", "--z-abs", "-2", "--theta", "0.5"], 2),
    (["bounds", "--z-abs", "2,-2"], 2),
    (["terminant", "--p", "7", "--w-abs", "-10", "--w-arg", "1"], 2),
    # --w-arg selects the continued branch of a w given by --w-re/--w-im
    (["terminant", "--p", "7", "--w-re", "-3", "--w-im", "-0.1",
      "--w-arg", repr(cmath.phase(complex(-3, -0.1)) + 2 * math.pi)], 0),
]


@pytest.mark.parametrize("args,code", CLI_CASES, ids=[" ".join(a) for a, _ in CLI_CASES])
def test_cli_exits_with_the_code_of_the_typed_error(args, code):
    with _deadline(5.0):
        res = invoke(args)
    assert res.exit_code == code, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(method=st.sampled_from(["asym", "oracle", "hyper"]), re=REALS, im=REALS)
def test_cli_eval_exits_with_0_2_or_3(method, re, im):
    with _deadline(5.0):
        res = invoke(_eval(method, repr(re), repr(im)))
    assert res.exit_code in (0, 2, 3), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
