"""Truncated expansion, the three bound families, and the optimal-angle solver."""

import cmath
import math
import random

import mpmath as mp
import numpy as np
import pytest

from barnesg import (
    LOG_GLAISHER,
    BoundKind,
    DomainError,
    RangeError,
    bernoulli_number,
    best_bound,
    certified_eval,
    family_bounds,
    log_barnes_oracle,
    remainder_narrow,
    sector_factor,
    series_coefficient,
    solve_optimal_angle,
    truncated_log_barnes,
)
from barnesg import expansion
from barnesg.expansion import (MAX_TRUNCATION, _bracket, _certified_shift, _prefix, _roundoff,
                               _scan, _shift)
from barnesg.special import _STIRLING_TAIL
from _reference import log_g_error

PI = math.pi


def barnes_series_coefficient(n):
    """Coefficient of z^{-2n} in Barnes' composed series: B_{2n+2}/(2n (2n+2))."""
    return bernoulli_number(2 * n + 2) / (2 * n * (2 * n + 2))


def barnes_style_series(z, n_trunc):
    """Barnes' composed form of the truncated expansion (uncertified cross-check).

    Equivalent to substituting the standard log-Gamma series into
    truncated_log_barnes; the series coefficients become B_{2n+2}/(2n(2n+2)).
    """
    z = complex(z)
    total = (
        -0.75 * z * z
        + 0.5 * z * math.log(2.0 * math.pi)
        + (0.5 * z * z - 1.0 / 12.0) * cmath.log(z)
        + 1.0 / 12.0
        - LOG_GLAISHER
    )
    zinv2 = 1.0 / (z * z)
    zpow = zinv2
    for n in range(1, n_trunc):
        total += barnes_series_coefficient(n) * zpow
        zpow *= zinv2
    return total


def _h(phi, theta, n):
    """Optimal-angle equation (2N+3) cos(3 phi - 2 theta) - (2N-1) cos(phi - 2 theta)."""
    return (2 * n + 3) * math.cos(3 * phi - 2 * theta) - (2 * n - 1) * math.cos(phi - 2 * theta)


def bisect_optimal_angle(theta, n):
    """Reference solver: bisection to 1e-13, then two Newton polishing steps."""
    a_th = abs(theta)
    lo, hi = _bracket(a_th)
    h_lo = _h(lo, a_th, n)
    assert h_lo * _h(hi, a_th, n) <= 0.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if h_lo * _h(mid, a_th, n) <= 0.0:
            hi = mid
        else:
            lo = mid
            h_lo = _h(lo, a_th, n)
    phi = 0.5 * (lo + hi)
    m = 2 * n
    for _ in range(2):
        slope = -3 * (m + 3) * math.sin(3 * phi - 2 * a_th) + (m - 1) * math.sin(phi - 2 * a_th)
        if slope != 0.0:
            phi -= _h(phi, a_th, n) / slope
    return math.copysign(phi, theta)


# bracket switches at pi/2 and 3 pi/4 (and either side), the ends of the
# domain to within 1e-9, and an even grid between
SOLVER_THETAS = sorted(
    {PI / 4 + 1e-9, PI / 2, 0.75 * PI, PI - 1e-9}
    | {t + d for t in (PI / 2, 0.75 * PI) for d in (-1e-12, 1e-12)}
    | set(np.linspace(0.26 * PI, 0.99 * PI, 30).tolist())
)


class TestTruncatedExpansion:
    def test_anchor_z3_n1(self):
        # G(4) = Gamma(3) Gamma(2) Gamma(1) G(1) = 2, so log G(4) = log 2 and
        # the N=1 truncation (prefix only) differs from it by exactly R_1(3)
        value = truncated_log_barnes(3.0, 1)
        r1 = remainder_narrow(3.0, 1)
        assert abs(value + r1.value - math.log(2.0)) < 1e-12

    def test_partial_sum_step(self):
        # adding one term changes the value by exactly c_1 / 3^2
        delta = truncated_log_barnes(3.0, 2) - truncated_log_barnes(3.0, 1)
        assert delta.real == pytest.approx(series_coefficient(1) / 9.0, rel=1e-14)
        assert series_coefficient(1) / 9.0 == pytest.approx(-1.0 / 6480.0, rel=1e-13)

    def test_oracle_within_bound(self):
        z = 10.0 + 0.0j
        value = truncated_log_barnes(z, 4)
        oracle = log_barnes_oracle(z)
        bound = best_bound(z, 4).bound
        assert abs(value - oracle.value) <= bound + oracle.est_error

    def test_real_input_real_output(self):
        assert truncated_log_barnes(7.0, 3).imag == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            truncated_log_barnes(0.0, 1)
        with pytest.raises(DomainError):
            truncated_log_barnes(-4.0, 1)
        with pytest.raises(DomainError):
            truncated_log_barnes(3.0, 0)
        with pytest.raises(DomainError):
            truncated_log_barnes(3.0, 21)


class TestBarnesStyleSeries:
    def test_coefficient_via_difference(self):
        # composed-series coefficient at n=1 is B_4/(2*4) = -1/240
        z = 5.0
        delta = barnes_style_series(z, 2) - barnes_style_series(z, 1)
        assert delta.real == pytest.approx(-1.0 / 240.0 / z ** 2, rel=1e-13)

    def test_against_oracle_at_8(self):
        # no certified bound exists for this series; check against twice the
        # first-omitted-term magnitude, the heuristic such series obey here
        z = 8.0
        value = barnes_style_series(z, 3)
        oracle = log_barnes_oracle(z)
        first_omitted = abs(bernoulli_number(8) / (6 * 8)) / z ** 6
        assert abs(value - oracle.value) <= 2.0 * first_omitted

    def test_real_axis_real(self):
        assert barnes_style_series(6.0, 4).imag == 0.0

    def test_consistency_with_main_expansion(self):
        # both series approximate the same function; at large z with several
        # terms they agree far below either truncation error
        z = 30.0
        a = truncated_log_barnes(z, 5)
        b = barnes_style_series(z, 5)
        assert abs(a - b) < 1e-12 * abs(a)


class TestSectorFactor:
    def test_inner_sector(self):
        assert sector_factor(0.0) == 1.0
        assert sector_factor(0.2) == 1.0
        assert sector_factor(-PI / 4) == 1.0

    def test_outer_sector(self):
        assert sector_factor(3 * PI / 8) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert sector_factor(-3 * PI / 8) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_seam_continuity(self):
        # csc(2 theta) -> 1 as theta -> pi/4, matching the inner branch
        assert sector_factor(PI / 4) == 1.0
        assert sector_factor(PI / 4 + 1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_sentinel_at_boundary(self):
        assert sector_factor(PI / 2) == math.inf

    def test_domain(self):
        with pytest.raises(DomainError):
            sector_factor(0.51 * PI)


class TestClosedFormBounds:
    def test_real_axis_factor_one(self):
        z = 4.0
        report = family_bounds(z, 2)[BoundKind.SECTOR]
        assert report.factor == 1.0
        assert report.kind is BoundKind.SECTOR
        expected = abs(bernoulli_number(6)) / (4 * 5 * 6) / abs(z) ** 4
        assert report.bound == pytest.approx(expected, rel=1e-14)

    def test_imaginary_axis_closed_factor(self):
        report = family_bounds(2.0j, 1)[BoundKind.SECTOR]
        assert report.factor == pytest.approx(0.5 * math.sqrt(math.e * 4.5), rel=1e-13)

    def test_both_families_coincide_at_zero_angle(self):
        z = 6.0
        families = family_bounds(z, 3)
        half_angle = (1.0 / math.cos(0.0)) ** 7 * abs(series_coefficient(3)) / z ** 6
        assert list(families) == [BoundKind.SECTOR, BoundKind.HALF_ANGLE]
        for report in families.values():
            assert report.bound == pytest.approx(half_angle, rel=1e-14)

    def test_prior_art_comparison(self):
        # the sector factor never exceeds sec^{2N} theta on |theta| < pi/2
        for theta in np.linspace(-0.49 * PI, 0.49 * PI, 21):
            for n in range(1, 7):
                if abs(theta) <= 0.25 * PI:
                    ours = 1.0
                else:
                    ours = min(sector_factor(theta), 0.5 * math.sqrt(math.e * (2 * n + 2.5)))
                prior = (1.0 / math.cos(theta)) ** (2 * n)
                assert ours <= prior * (1 + 1e-12)


class TestFamilyBounds:
    """family_bounds holds the one implementation of each family."""

    THETAS = sorted({0.0, PI / 4, PI / 2, 0.75 * PI, PI / 4 + 1e-9, PI / 2 + 1e-9}
                    | set(np.linspace(-0.95 * PI, 0.95 * PI, 39).tolist()))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 20])
    def test_bound_functions_read_their_family(self, n):
        for theta in self.THETAS:
            z = 3.0 * cmath.exp(1j * theta)
            families = family_bounds(z, n)
            a = abs(cmath.phase(z))
            want = [BoundKind.SECTOR] if a <= PI / 2 else []
            want += [BoundKind.HALF_ANGLE]
            want += [BoundKind.OPTIMIZED] if PI / 4 < a else []
            assert list(families) == want
            assert best_bound(z, n).bound == min(r.bound for r in families.values())


class TestOptimalAngle:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_imaginary_axis_closed_form(self, n):
        # on arg z = pi/2 the minimizer is arctan(1/sqrt(2N+2))
        expected = math.atan(1.0 / math.sqrt(2 * n + 2))
        assert solve_optimal_angle(PI / 2, n) == pytest.approx(expected, abs=1e-12)

    def test_mirror_antisymmetry(self):
        for theta in (0.3 * PI, 0.55 * PI, 0.8 * PI):
            for n in (1, 3):
                assert solve_optimal_angle(-theta, n) == pytest.approx(
                    -solve_optimal_angle(theta, n), abs=1e-14
                )

    def test_residual_on_grid(self):
        for theta in np.linspace(0.26 * PI, 0.99 * PI, 25):
            for n in range(1, 11):
                phi = solve_optimal_angle(theta, n)
                residual = (2 * n + 3) * math.cos(3 * phi - 2 * theta) - (
                    2 * n - 1
                ) * math.cos(phi - 2 * theta)
                assert abs(residual) <= 1e-12

    def test_bracket_membership(self):
        for theta, lo_fn, hi_fn in (
            (0.35 * PI, lambda t: 0.0, lambda t: t - 0.25 * PI),
            (0.6 * PI, lambda t: t - 0.5 * PI, lambda t: t - 0.25 * PI),
            (0.9 * PI, lambda t: t - 0.5 * PI, lambda t: 0.5 * PI),
        ):
            phi = solve_optimal_angle(theta, 2)
            assert lo_fn(theta) < phi < hi_fn(theta)

    def test_domain(self):
        with pytest.raises(DomainError):
            solve_optimal_angle(0.2 * PI, 1)
        with pytest.raises(DomainError):
            solve_optimal_angle(PI, 1)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_newton_matches_reference_bisection(self, n):
        for theta in SOLVER_THETAS:
            lo, hi = _bracket(theta)
            # h changes sign across every bracket, so no fallback scan is needed
            assert _h(lo, theta, n) < 0.0 < _h(hi, theta, n)
            phi = solve_optimal_angle(theta, n)
            assert lo <= phi <= hi
            assert solve_optimal_angle(-theta, n) == -phi
            assert abs(phi - bisect_optimal_angle(theta, n)) <= 1e-15
            assert abs(_h(phi, theta, n)) <= 1e-12


class TestOptimizedBound:
    def test_imaginary_axis_factor_value(self):
        # closed-form chain: factor = (1 + 1/(2N+2))^{N+1} sqrt(2N+3) / 2
        report = family_bounds(2.5j, 1)[BoundKind.OPTIMIZED]
        algebraic = 0.5 * (1.0 + 0.25) ** 2 * math.sqrt(5.0)
        assert report.factor == pytest.approx(algebraic, rel=1e-12)
        assert report.phi_star == pytest.approx(math.atan(0.5), abs=1e-13)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_factor_capped_by_closed_form(self, n):
        # the optimized factor on the imaginary axis never exceeds
        # sqrt(e (2N + 5/2))/2, and approaches it from below
        phi = solve_optimal_angle(PI / 2, n)
        factor = 1.0 / (math.sin(2 * (PI / 2 - phi)) * math.cos(phi) ** (2 * n + 1))
        cap = 0.5 * math.sqrt(math.e * (2 * n + 2.5))
        assert factor <= cap
        assert factor > 0.95 * cap

    def test_runtime_comparison_with_half_angle(self):
        z = 3.0 * cmath.exp(0.6j * PI)
        families = family_bounds(z, 2)
        chosen = best_bound(z, 2)
        assert chosen.bound == min(families[BoundKind.OPTIMIZED].bound,
                                   families[BoundKind.HALF_ANGLE].bound)

    def test_phi_star_recorded_with_sign(self):
        down = family_bounds(3.0 * cmath.exp(-0.6j * PI), 2)[BoundKind.OPTIMIZED]
        up = family_bounds(3.0 * cmath.exp(0.6j * PI), 2)[BoundKind.OPTIMIZED]
        assert down.phi_star == pytest.approx(-up.phi_star, abs=1e-14)
        assert down.bound == pytest.approx(up.bound, rel=1e-14)


class TestCertifiedEval:
    def test_positive_axis_sign_source(self):
        res = certified_eval(10.0)
        assert res.bound_kind is BoundKind.POSITIVE_AXIS
        assert res.bound > 0

    def test_wide_sector_uses_smaller_bound(self):
        z = 2.0 * cmath.exp(0.8j * PI)
        res = certified_eval(z, 3)
        bound = min(r.bound for r in family_bounds(z, 3).values())
        assert res.bound == pytest.approx(bound, rel=1e-14)
        assert res.bound_kind in (BoundKind.HALF_ANGLE, BoundKind.OPTIMIZED)

    def test_chosen_bound_no_worse_than_n1(self):
        res = certified_eval(20.0)
        n1 = certified_eval(20.0, 1)
        assert res.bound <= n1.bound

    def test_reflection_of_bounds(self):
        for z in (2.0 * cmath.exp(0.3j * PI), 5.0 * cmath.exp(0.77j * PI)):
            up = certified_eval(z, 4)
            down = certified_eval(z.conjugate(), 4)
            assert down.bound == pytest.approx(up.bound, rel=1e-15)
            assert down.value == pytest.approx(up.value.conjugate(), rel=1e-13)

    def test_near_cut_weak_flag(self):
        res = certified_eval(2.0 * cmath.exp(1j * (PI - 5e-3)), 6)
        assert math.isfinite(res.bound)
        assert res.weak_bound

    def test_domain(self):
        with pytest.raises(DomainError):
            certified_eval(0.0)
        with pytest.raises(DomainError):
            certified_eval(-1.5)

    def test_auto_n_is_the_argmin_of_best_bound(self):
        # at w = z + m, where certified_eval shifts z (m > 0), else at w = z
        rng = random.Random(2535)
        points = [50.0 * cmath.exp(0.95j * PI), 50.0 * cmath.exp(-0.95j * PI),
                  2.0 * cmath.exp(0.95j * PI), 2.0 * cmath.exp(-0.95j * PI)]
        for _ in range(150):
            r = math.exp(rng.uniform(math.log(2.0), math.log(50.0)))
            points.append(r * cmath.exp(1j * rng.uniform(-0.95 * PI, 0.95 * PI)))
        shifted = 0
        for z in points:
            m = _certified_shift(z)
            w = z + m if m else z
            reports = [best_bound(w, n) for n in range(1, MAX_TRUNCATION + 1)]
            n = 1 + min(range(len(reports)), key=lambda i: reports[i].bound)
            want = reports[n - 1]
            res = certified_eval(z)
            # the bound is the truncation bound plus the round-off of the value's terms,
            # and where shifted of S's terms and log Gamma's truncation error
            value = truncated_log_barnes(w, n)
            bound = want.bound + _roundoff(*_prefix(w)[1], value)
            if m:
                shifted += 1
                s, parts = _shift(z, m)
                value -= s
                bound += _roundoff(*parts, s, value) + _STIRLING_TAIL * (abs(w) + m)
            assert (res.n_trunc, res.bound, res.bound_kind) == (n, bound, want.kind)
            assert res.value == value
            assert res.weak_bound == (want.factor > 1e6)
        assert 0 < shifted < len(points)

    def test_shifted_call_scans_once_through_best_bound(self, monkeypatch):
        # a shifted call still makes one N scan of 20 best_bound calls (at w) and
        # no second certified_eval call
        calls = {"best_bound": 0, "certified_eval": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(expansion, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(expansion, name, counted)
        for z in (3.0 * cmath.exp(0.95j * PI), -1.0 + 1e-15j, 1e-300):
            assert _certified_shift(z) > 0
            calls.update(best_bound=0, certified_eval=0)
            expansion.certified_eval(z)
            assert calls == {"best_bound": MAX_TRUNCATION, "certified_eval": 1}

    #: certified_eval(z, N) at points whose automatic N shifts, as printed before the
    #: shift existed: an explicit N still evaluates at z itself
    EXPLICIT_N = [
        (complex(-40, -1), 20, "ExpansionResult(value=(1837.6176384007024-2404.813405890221j), "
         "n_trunc=20, bound=1.1031171651619252e+18, bound_kind=<BoundKind.OPTIMIZED: "
         "'optimized_angle'>, weak_bound=True)"),
        (complex(-7.5, 0.001), 20, "ExpansionResult(value=(12.45484481759355+88.08812067051826j), "
         "n_trunc=20, bound=3.876905433410816e+142, bound_kind=<BoundKind.OPTIMIZED: "
         "'optimized_angle'>, weak_bound=True)"),
        (3.0 * cmath.exp(0.95j * PI), 6, "ExpansionResult(value=(-0.7087579611617367+"
         "13.500455744313658j), n_trunc=6, bound=3468.3258012111983, bound_kind=<BoundKind."
         "OPTIMIZED: 'optimized_angle'>, weak_bound=True)"),
        (2.0 * cmath.exp(-0.95j * PI), 3, "ExpansionResult(value=(-2.03097777710157-"
         "6.211083609038734j), n_trunc=3, bound=43.559915846402305, bound_kind=<BoundKind."
         "OPTIMIZED: 'optimized_angle'>, weak_bound=True)"),
        (complex(-1, 1e-12), 1, "ExpansionResult(value=(-27.629775592962343+1.3089969390235388j), "
         "n_trunc=1, bound=1.1104068579671991e+34, bound_kind=<BoundKind.HALF_ANGLE: "
         "'half_angle_sec'>, weak_bound=True)"),
    ]

    @pytest.mark.parametrize("z,n,text", EXPLICIT_N, ids=[repr(z) for z, _, _ in EXPLICIT_N])
    def test_explicit_n_keeps_its_unshifted_result(self, z, n, text):
        assert _certified_shift(z) > 0
        assert repr(certified_eval(z, n)) == text


class TestTypedErrors:
    """Inputs at the edges of binary64 give a finite result or a typed error."""

    def test_tiny_modulus_skips_underflowing_orders(self):
        # |z|^{40} underflows at N = 20; smaller N still have finite bounds, and the
        # N scan at z skips the rest.  The automatic N shifts to Re w >= 12 instead.
        n, report = _scan(1e-9j)
        assert n < MAX_TRUNCATION and 0.0 < report.bound < math.inf
        with pytest.raises(RangeError):
            best_bound(1e-9j, MAX_TRUNCATION)
        res = certified_eval(1e-9j)
        assert log_g_error(res.value, 1e-9j) <= res.bound

    @pytest.mark.parametrize("z", [1e-300, 5e-324, 1e200, complex(1e308, 1e308)])
    def test_no_finite_bound_raises_range_error(self, z):
        # no N has a finite bound at z itself, so every explicit N raises; past
        # |z| = 1 the automatic N does not shift (Re z >= 12) and raises too
        with pytest.raises(RangeError):
            _scan(z)
        for n in range(1, MAX_TRUNCATION + 1):
            with pytest.raises(RangeError):
                certified_eval(z, n)
        if abs(z) > 1.0:
            with pytest.raises(RangeError):
                certified_eval(z)

    @pytest.mark.parametrize("z", [1e-300, 5e-324])
    def test_tiny_modulus_shifts_to_log_g_near_zero(self, z):
        # log G(1+z) ~ z (log 2 pi - 1)/2: the value at w = z + 12 less S
        res = certified_eval(z)
        assert abs(res.value) < 1e-12 and log_g_error(res.value, z) <= res.bound

    def test_huge_modulus(self):
        with pytest.raises(RangeError):
            best_bound(1e200, 4)
        # N = 1 has a finite bound; the value must be finite too, or RangeError
        try:
            res = certified_eval(1e150)
        except RangeError:
            return
        assert cmath.isfinite(res.value) and 0.0 < res.bound < math.inf

    def test_bound_overflow_near_the_cut(self):
        # sec^{2N+1}(theta/2) overflows for large N within 1e-12 of the cut; an
        # explicit N keeps its weak bound at z, the automatic N shifts to Re w >= 12
        z = -1.0 + 1e-12j
        with pytest.raises(RangeError):
            family_bounds(z, 20)
        res = certified_eval(z, 1)
        assert 0.0 < res.bound < math.inf and res.weak_bound
        res = certified_eval(z)
        assert not res.weak_bound and log_g_error(res.value, z) <= res.bound

    @pytest.mark.parametrize("z", [3.0 * cmath.exp(1j * (PI - 1e-14)), -1.0 + 1e-15j], ids=repr)
    def test_auto_n_next_to_the_cut(self, z):
        # phi* has no solution at N = 20 here; best_bound falls back to the
        # closed factors, which overflow at N = 20.  The automatic N shifts to
        # Re w >= 12, where the bound is neither weak nor large.
        with pytest.raises(RangeError):
            best_bound(z, MAX_TRUNCATION)
        res = certified_eval(z)
        assert _certified_shift(z) > 0 and not res.weak_bound
        assert cmath.isfinite(res.value) and 0.0 < res.bound < 1e-10
        with mp.workdps(30):
            diff = mp.mpc(res.value) - mp.log(mp.barnesg(mp.mpc(z) + 1))
            diff -= 2j * mp.pi * mp.nint(diff.imag / (2 * mp.pi))  # modulo 2 pi i
            assert abs(diff) <= res.bound

    @pytest.mark.parametrize("z", [math.inf, -math.inf, complex(1.0, math.nan),
                                   complex(math.nan, 0.0), complex(3.0, -math.inf)])
    def test_non_finite_z(self, z):
        with pytest.raises(DomainError):
            certified_eval(z)
        with pytest.raises(DomainError):
            best_bound(z, 4)

    def test_order_beyond_bernoulli_table(self):
        with pytest.raises(RangeError):
            best_bound(3.0, 32)
        with pytest.raises(DomainError):
            best_bound(3.0, 0)
