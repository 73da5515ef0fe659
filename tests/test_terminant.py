"""Terminant paths, branch bookkeeping, improved expansion, Stokes profiles."""

import bisect
import cmath
import importlib
import math
import random

import mpmath as mp
import numpy as np
import pytest

from barnesg import (
    AccuracyError,
    DomainError,
    RangeError,
    TerminantMethod,
    erf_small,
    exp_improved_report,
    log_barnes_oracle,
    stokes_profile,
    terminant,
    truncated_log_barnes,
)
from barnesg import special
from barnesg.special import _c_branch, _erf_switch
from barnesg.terminant import _order_thresholds, _pair_bound, _zeta_tail
from _reference import ein_one_loop, improved_uniform, terminant_pair, terminant_quadrature

# the package's `terminant` is the function; the module is reached by name
terminant_module = importlib.import_module("barnesg.terminant")

PI = math.pi
REC = TerminantMethod.GAMMA_RECURRENCE
ERF = TerminantMethod.ERF_ASYMPTOTIC


class TestTerminantPaths:
    def test_dual_path_example(self):
        w = 10.0 * cmath.exp(1j * PI / 3)
        a = terminant(7, w)
        b, _ = terminant_quadrature(7, w)
        assert abs(a.value - b) < 1e-9
        assert a.method is REC

    def test_dual_path_randomized_with_floor(self):
        """Agreement within max(1e-9, the recurrence's self-reported floor).

        Near |arg w| ~ 0.8 pi with |w| ~ 30 the closed form loses
        e^{-Re w} eps to cancellation; est_error reports exactly that.
        """
        rng = np.random.default_rng(17)
        for _ in range(60):
            p = int(rng.integers(1, 16))
            r = float(rng.uniform(5.0, 30.0))
            ph = float(rng.uniform(-0.8, 0.8)) * PI
            w = r * cmath.exp(1j * ph)
            a = terminant(p, w)
            b, b_err = terminant_quadrature(p, w)
            tol = max(1e-9, 5.0 * (a.est_error + b_err))
            assert abs(a.value - b) <= tol

    def test_reflection_identity(self):
        # T_p(conj w) = -conj(T_p(w)) for integer p, on both paths
        p, w = 5, 8.0 * cmath.exp(0.4j)
        for path in (lambda v: terminant(p, v).value,
                     lambda v: terminant_quadrature(p, v)[0]):
            a = path(w.conjugate())
            b = path(w)
            assert abs(a + b.conjugate()) < 1e-13

    def test_stokes_line_approaches_half(self):
        # p ~ |w| on arg w = pi: T - 1/2 is O(|w|^{-1/2}) with small constant
        w = 30.0 * cmath.exp(1j * PI)
        ev = terminant(31, w, arg_w=PI)
        assert abs(ev.value - 0.5) < 0.15 / math.sqrt(30.0)

    def test_continuation_jump_is_one(self):
        # crossing arg w = pi upward adds exactly +1 to the principal value
        for r, du in ((10.0, 0.2), (12.0, 0.45)):
            w = r * cmath.exp(1j * (PI + du))
            continued = terminant(9, w, arg_w=PI + du).value
            principal = terminant(9, w).value
            assert abs(continued - (principal + 1.0)) < 1e-10

    def test_lower_continuation_mirror(self):
        # arg w slightly below -pi mirrors the upper continuation
        r, du = 10.0, 0.25
        w_up = r * cmath.exp(1j * (PI + du))
        up = terminant(9, w_up, arg_w=PI + du).value
        down = terminant(9, w_up.conjugate(), arg_w=-(PI + du)).value
        assert abs(down + up.conjugate()) < 1e-12

    def test_auto_prefers_erf_at_large_matched_order(self):
        ev = terminant(61, 60.0 * cmath.exp(1j * PI), arg_w=PI)
        assert ev.method is ERF

    def test_est_error_reported(self):
        ev = terminant(7, 10.0 * cmath.exp(1j * PI / 3))
        assert math.isfinite(ev.est_error) and ev.est_error > 0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            terminant(5, 0.0)
        with pytest.raises(DomainError):  # below the least order, as for every order argument
            terminant(0, 3.0)
        with pytest.raises(RangeError):
            terminant(200, 3.0)
        with pytest.raises(DomainError):
            terminant(5, 3.0, arg_w=1.6 * PI)
        with pytest.raises(DomainError):
            terminant(5, 3.0, arg_w=0.5)  # inconsistent with arg(w) = 0


def _terminant_mp(p, w, arg_w):
    """T_p(w) on the branch arg_w from mpmath's principal Gamma(1-p, w), plus one
    unit per crossing of the negative axis."""
    with mp.workdps(40):
        val = (-1) ** p * mp.factorial(p - 1) / (2j * mp.pi) * mp.gammainc(1 - p, mp.mpc(w))
        return complex(val) + round((arg_w - cmath.phase(w)) / (2 * PI))


class TestTerminantAgainstMpmath:
    @pytest.mark.parametrize("abs_w", [0.8, 2.0, 5.0, 12.0, 25.0, 33.7, 38.1, 40.0, 79.0])
    def test_near_optimal_order_error_within_estimate(self, abs_w):
        p = 2 * round(abs_w / 2) + 1
        for a in (0.5, -0.5, 0.9, -0.9, 0.0, 1.0, 1.1, -1.1, 1.45, -1.45):
            w = abs_w * cmath.exp(1j * a * PI)
            ev = terminant(p, w, arg_w=a * PI)
            ref = _terminant_mp(p, w, a * PI)
            assert abs(ev.value - ref) <= ev.est_error, (p, a)

    @pytest.mark.parametrize("p,abs_w,a", [(42, 50.0, 1.0), (42, 50.0, -1.0), (48, 50.0, 1.0),
                                           (47, 55.0, 1.0)])
    def test_mismatched_order_on_the_cut_within_estimate(self, p, abs_w, a):
        # the erf form's error grows with |p - |w||: inside the window sqrt|w| its estimate
        # (1 + |p - |w||)/sqrt|w| covers it (T_48(50 e^{i pi})), outside it the closed form
        # is kept with its own, large, estimate (T_42, T_47)
        w = abs_w * cmath.exp(1j * a * PI)
        ev = terminant(p, w, arg_w=a * PI)
        assert abs(ev.value - _terminant_mp(p, w, a * PI)) <= ev.est_error

    def test_top_order_at_one(self):
        # T_171(1) is nearly imaginary; a rotation by p * 1.2e-16 rad of the
        # value once put a real part ten times the estimate into it
        ev = terminant(171, 1.0)
        assert abs(ev.value - _terminant_mp(171, 1.0, 0.0)) <= ev.est_error


@pytest.mark.parametrize("s", range(4, 65, 2))
def test_zeta_tail_within_four_ulp(s):
    # mpmath's own Hurwitz zeta is off by up to 1e-9 at dps 40-120 for
    # s >= 40 and K >= 1000, so the reference runs at dps 260.  Up to K = 100
    # it is zeta(s) minus the head, which cancels at most 130 of those digits.
    with mp.workdps(260):
        refs = {}
        tail = mp.zeta(s)
        for k in range(1, 101):
            tail -= mp.mpf(k) ** -s
            refs[k + 1] = tail
        refs.update((k, mp.zeta(s, k)) for k in (1000, 10**4, 16_000_000))
        for k in [*range(2, 61), 100, 1000, 10**4, 16_000_000]:
            got = _zeta_tail(s, k)
            assert abs(mp.mpf(got) - refs[k]) <= 4 * math.ulp(float(refs[k])), k


class TestErfForm:
    def test_exactly_half_on_stokes_line(self):
        ev = terminant(61, 60.0 * cmath.exp(1j * PI), arg_w=PI)
        assert ev.value == 0.5
        assert ev.method is ERF

    def test_against_recurrence_past_the_cut(self):
        # truth past the cut: principal quadrature plus the unit jump.
        # The closed form at |w| = 40 with Re w = -38 sits at its binary64
        # cancellation floor (e^{-Re w} eps scale), so terminant takes the erf
        # form there, held to its own estimate; the switch itself meets 0.1.
        w = 40.0 * cmath.exp(1j * (PI + 0.3))
        truth = terminant_quadrature(41, w)[0] + 1.0
        ev = terminant(41, w, arg_w=PI + 0.3)
        assert ev.method is ERF
        assert abs(ev.value - truth) <= ev.est_error
        assert abs(_erf_switch(0.3, 40.0) - truth) < 0.1

    def test_lower_mirror_formula(self):
        # for arg w < 0 the lower form applies:
        # -1/2 + 1/2 erf(-conj(c(-phi)) sqrt(|w|/2))
        phi = -PI + 0.3
        w = 40.0 * cmath.exp(1j * phi)
        ev = terminant(41, w, arg_w=phi)
        assert ev.method is ERF
        zeta = -_c_branch(-phi - PI).conjugate() * math.sqrt(20.0)
        expected = -0.5 + 0.5 * (
            erf_small(zeta) if abs(zeta) <= 4 else math.copysign(1.0, zeta.real)
        )
        assert abs(ev.value - expected) < 1e-14
        truth = terminant_quadrature(41, w)[0]
        assert abs(ev.value - truth) < 0.1

    def test_saturation(self):
        # far past the transition zone the multiplier has fully switched on
        ev = terminant(95, 100.0 * cmath.exp(1j * (PI + 0.9)), arg_w=PI + 0.9)
        assert ev.method is ERF
        assert ev.value == pytest.approx(1.0, abs=1e-12)

    def test_order_mismatch_rejected(self):
        # p = 5 is far outside the window |p - |w|| <= sqrt|w|: the closed form is kept
        w = 30.0 * cmath.exp(1j * PI)
        ev = terminant(5, w, arg_w=PI)
        assert ev.method is REC
        assert abs(ev.value - _terminant_mp(5, w, PI)) <= ev.est_error


class TestTruncationOrders:
    def test_k_max_validation(self):
        for k_max in (0, -1):
            with pytest.raises(DomainError):
                exp_improved_report(2.0, k_max)

    def test_orders(self):
        # N_k is the number of the order rule's thresholds <= k
        assert bisect.bisect_right(_order_thresholds(2.5), 1) == 8
        assert bisect.bisect_right(_order_thresholds(4.0), 5) == 40  # capped


class TestImprovedExpansion:
    def test_uniform_reproduces_truncated_plus_remainder_series(self):
        # with N_k = N-1 the algebraic part is exactly the truncated series,
        # and the terminant sum converges to the remainder
        z = 2.0 * cmath.exp(0.3j * PI)
        oracle = log_barnes_oracle(z)
        value = improved_uniform(z, 2, k_max=40)
        assert abs(value - oracle.value) < 1e-12
        # k_max = 2 already separates the truncated series from the oracle by
        # only the k >= 3 terminant tail
        short = improved_uniform(z, 2, k_max=2)
        tail = abs(short - oracle.value)
        plain = abs(truncated_log_barnes(z, 3) - oracle.value)
        assert tail < plain

    @pytest.mark.parametrize(
        "z",
        [
            2.0 * cmath.exp(0.3j * PI),
            2.5 * cmath.exp(0.55j * PI),
            3.0 * cmath.exp(-0.5j * PI),
        ],
    )
    def test_identity_exactness(self, z):
        oracle = log_barnes_oracle(z)
        value = improved_uniform(z, 2, k_max=40)
        assert abs(value - oracle.value) <= 1e-9 + oracle.est_error

    def test_scheme_independence(self):
        a = exp_improved_report(2.5, k_max=20)[0]
        b = improved_uniform(2.5, 3, k_max=20)
        assert abs(a - b) < 1e-9

    def test_real_axis_correction_real(self):
        value = exp_improved_report(2.5, 3)[0]
        assert abs(value.imag) < 1e-14

    def test_exponential_improvement_on_stokes_line(self):
        z = 2.5j
        oracle = log_barnes_oracle(z)
        hyper = exp_improved_report(z, 3)[0]
        plain_best = min(
            abs(truncated_log_barnes(z, n) - oracle.value) for n in range(1, 21)
        )
        assert abs(hyper - oracle.value) < plain_best / 10.0

    def test_report_estimate_covers_error(self):
        z = 2.0 * cmath.exp(0.45j * PI)
        oracle = log_barnes_oracle(z)
        value, est = exp_improved_report(z, 4)
        assert abs(value - oracle.value) <= est + oracle.est_error + 1e-12

    @pytest.mark.parametrize("a", [0.3, 0.5])
    @pytest.mark.parametrize("abs_z", [0.47746482927568595, 1.1140846016432673], ids=repr)
    def test_estimate_covers_the_error_at_an_order_tie(self, abs_z, a):
        # |z| is 1.5/pi and 3.5/pi to an ulp, so pi |z| + 1/2 is an integer to rounding;
        # the algebraic sum and the terminant pairs must round N_1 alike, or the identity breaks
        z = abs_z * cmath.exp(1j * PI * a)
        value, est = exp_improved_report(z)
        with mp.workdps(30):
            diff = mp.mpc(value) - mp.log(mp.barnesg(mp.mpc(z) + 1))
            diff -= 2j * mp.pi * mp.nint(diff.imag / (2 * mp.pi))  # modulo 2 pi i
            assert abs(diff) <= est

    def test_domain(self):
        with pytest.raises(DomainError):
            exp_improved_report(0.0)
        with pytest.raises(DomainError):
            exp_improved_report(-2.0)


class TestCertifiedKTail:
    """Where |arg w| <= pi/2 the improved route sums pairs only until the certified bound
    on the rest falls below its round-off, and reports that bound as the k-tail."""

    @pytest.mark.parametrize("abs_w", [2.0, 3.0, 6.0, 20.0])
    def test_pair_bound_covers_the_pair(self, abs_w):
        # pi/4 is where the bound is tightest (within 1e-4 at |w| = 20, k = 6); at +-pi/2
        # it takes the sector family's cap
        first_k = _order_thresholds(abs_w)
        for a in (-0.5, 0.25, 0.5):
            w = abs_w * cmath.exp(1j * PI * a)
            for k in range(1, 7):
                n_k = bisect.bisect_right(first_k, k)
                bound = _pair_bound(k, n_k + 1, math.log(abs_w), cmath.phase(w))
                assert abs(terminant_pair(k, 2 * n_k + 1, w)) <= bound, (a, k)

    def test_sector_cap_holds_for_each_pair(self):
        # a pair's integral rotated by phi costs sec^{2n} phi; at arg w = pi/2, the worst
        # angle, its least factor sec^{2n} phi / sin 2 phi is below the cap up to the order cap
        phi = np.linspace(1e-4, PI / 4, 20001)
        for n in range(1, 42):
            assert (np.cos(phi) ** (-2 * n) / np.sin(2 * phi)).min() <= 0.5 * math.sqrt(
                math.e * (2 * n + 2.5))

    @staticmethod
    def _route(monkeypatch, z):
        """exp_improved_report(z)'s point w, its order thresholds, the orders p of its
        _scaled_recurrence calls and its k-tail."""
        seen, orders = {}, []
        pairs, recurrence = terminant_module._terminant_pairs, terminant_module._scaled_recurrence

        def spy_pairs(w, first_k, k_max, target):
            out = pairs(w, first_k, k_max, target)
            seen.update(w=w, first_k=first_k, tail=out[2])
            return out

        def spy_recurrence(p, w, arg_w):
            orders.append(p)
            return recurrence(p, w, arg_w)

        monkeypatch.setattr(terminant_module, "_terminant_pairs", spy_pairs)
        monkeypatch.setattr(terminant_module, "_scaled_recurrence", spy_recurrence)
        exp_improved_report(z)
        return seen["w"], seen["first_k"], orders, seen["tail"]

    @pytest.mark.parametrize("z", [3.0, 2 + 4j, 2.5 + 30j, 0.5 - 1j], ids=repr)
    def test_tail_covers_the_pairs_left_out(self, monkeypatch, z):
        # the pairs K < k <= 40 at the route's orders, from mpmath, as improved_uniform
        # sums them with k_max = 40
        w, first_k, orders, tail = self._route(monkeypatch, z)
        summed = len(orders) // 2
        left_out = sum(terminant_pair(k, 2 * bisect.bisect_right(first_k, k) + 1, w)
                       for k in range(summed + 1, 41))
        assert abs(left_out) <= tail

    def test_one_pair_at_three(self, monkeypatch):
        # at w = 3 the pairs k >= 2 are bounded by 2.3e-19, below 1/1024 of the round-off
        assert self._route(monkeypatch, 3.0)[2] == [19, 19]


class TestStokesProfile:
    def test_midpoint_and_limits(self):
        thetas = np.linspace(PI / 2 - 0.5, PI / 2 + 0.5, 51)
        prof = stokes_profile(3.0, 1, thetas)
        mid = prof[25]
        assert abs(mid.normalized_multiplier - 0.5) < 0.05
        assert mid.est_error < 1e-6 * abs(mid.limit)  # 2 pi |z| ~ 19: the closed form holds
        assert abs(prof[0].normalized_multiplier) < 0.1
        assert abs(prof[-1].normalized_multiplier - 1.0) < 0.1

    def test_erf_prediction_tracks_multiplier(self):
        thetas = np.linspace(PI / 2 - 0.5, PI / 2 + 0.5, 51)
        prof = stokes_profile(3.0, 1, thetas)
        worst = max(
            abs(s.normalized_multiplier - s.normalized_prediction) for s in prof
        )
        assert worst <= 0.05

    def test_monotone_transition(self):
        thetas = np.arange(PI / 2 - 0.4, PI / 2 + 0.4, 0.02)
        prof = stokes_profile(3.0, 1, thetas)
        reals = [s.normalized_multiplier.real for s in prof]
        assert all(b >= a - 1e-9 for a, b in zip(reals[:-1], reals[1:]))

    def test_antisymmetry_about_the_line(self):
        thetas = np.linspace(PI / 2 - 0.3, PI / 2 + 0.3, 31)
        prof = stokes_profile(3.0, 1, thetas)
        for i in range(15):
            total = (
                prof[i].normalized_multiplier.real
                + prof[30 - i].normalized_multiplier.real
            )
            assert abs(total - 1.0) < 0.05

    def test_lower_half_mirror_window(self):
        thetas = np.linspace(-PI / 2 - 0.4, -PI / 2 + 0.4, 21)
        prof = stokes_profile(3.0, 1, thetas)
        # switched-on side is theta < -pi/2 here
        assert abs(prof[0].normalized_multiplier - 1.0) < 0.1
        assert abs(prof[-1].normalized_multiplier) < 0.1
        assert abs(prof[10].normalized_multiplier - 0.5) < 0.05

    def test_multiplier_magnitude_invariant(self):
        thetas = np.linspace(PI / 2 - 0.5, PI / 2 + 0.5, 11)
        for k in (1, 2):
            for s in stokes_profile(2.0, k, thetas):
                assert abs(s.multiplier) <= 1.5 / (2 * PI * k * k)

    @pytest.mark.parametrize("abs_z,k", [(7.0, 1), (8.0, 1), (20.0, 1), (3.5, 2)])
    def test_multiplier_on_the_line_within_estimate(self, abs_z, k):
        # past 2 pi k |z| ~ 33 the closed form cancels, so terminant takes the erf
        # form; its estimate stays below |limit| and covers the error against mpmath
        sample = stokes_profile(abs_z, k, [PI / 2])[0]
        p = 2 * bisect.bisect_right(_order_thresholds(abs_z, 86), k) + 1
        w = -2 * PI * k * abs_z + 0j  # w = 2 pi k i z with arg w = pi on the upper line
        ref = -_terminant_mp(p, w, PI) / (2j * PI * k * k)
        assert sample.est_error < abs(sample.limit)
        assert abs(sample.multiplier - ref) <= sample.est_error

    @pytest.mark.parametrize("abs_z,k", [(2.685, 2), (3.036, 2), (3.879, 2)])
    def test_whole_profile_within_estimate(self, abs_z, k):
        # |w| = 2 pi k |z| = 33.7, 38.1, 48.7: near the negative axis the seed e^{w} E1(w)
        # sums Ein's series up to |w| = 40 and the asymptotic series past it.  The lower
        # window mirrors the upper one: its w is conj w, and T_p(conj w) = -conj T_p(w).
        thetas = [PI / 2 - 0.5 + i / 10 for i in range(11)]
        p = 2 * bisect.bisect_right(_order_thresholds(abs_z, 86), k) + 1
        upper = stokes_profile(abs_z, k, thetas)
        lower = stokes_profile(abs_z, k, [-t for t in thetas])
        for theta, up, low in zip(thetas, upper, lower, strict=True):
            w = 2 * PI * k * 1j * abs_z * cmath.exp(1j * theta)
            t_p = _terminant_mp(p, w, theta + PI / 2)
            assert abs(up.multiplier + t_p / (2j * PI * k * k)) <= up.est_error, theta
            assert abs(low.multiplier - t_p.conjugate() / (2j * PI * k * k)) <= low.est_error, theta

    def test_domain(self):
        with pytest.raises(DomainError):
            stokes_profile(1.0, 1, [PI / 2])
        with pytest.raises(DomainError):
            stokes_profile(3.0, 0, [PI / 2])
        with pytest.raises(DomainError):
            stokes_profile(3.0, 1, [0.1])  # not near a Stokes line
        with pytest.raises(DomainError):
            stokes_profile(3.0, 1, [PI / 2, -PI / 2])  # mixed windows


def _outcome(fn, *args):
    """fn's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (AccuracyError, DomainError, RangeError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestMemoizedRoute:
    """The improved route gives, bit for bit, what it gives with the zeta tails
    computed afresh on every call, and within its estimates what it gives with
    the one-loop Ein."""

    @staticmethod
    def _points():
        rng = random.Random(1616)
        points = [0.1j, 1.5 * cmath.exp(0.9j * PI), 1e-8j]
        for lo in (1e-150, 0.25):  # the whole range, then the part where the loops run long
            for _ in range(200):
                r = lo * (50.0 / lo) ** rng.random()
                points.append(r * cmath.exp(1j * rng.uniform(-0.95 * PI, 0.95 * PI)))
        return points

    PROFILES = [(abs_z, k, line) for abs_z in (1.5, 4.0, 20.0, 27.0) for k in (1, 2)
                for line in (PI / 2, -PI / 2)]

    def _run(self):
        improved = [_outcome(exp_improved_report, z) for z in self._points()]
        profiles = [_outcome(stokes_profile, abs_z, k, np.linspace(line - 0.5, line + 0.5, 21))
                    for abs_z, k, line in self.PROFILES]
        return improved, profiles

    def test_identical_to_the_unmemoized_tails(self, monkeypatch):
        shipped = repr(self._run())
        warm = repr(self._run())  # every zeta tail now comes from the memo
        monkeypatch.setattr(terminant_module, "_zeta_tail", _zeta_tail.__wrapped__)
        assert warm == shipped
        assert repr(self._run()) == shipped

    def test_one_loop_ein_within_the_estimates(self, monkeypatch):
        shipped = self._run()
        monkeypatch.setattr(special, "_ein", ein_one_loop)
        reference = self._run()
        improved, profiles = shipped
        for ours, ref in zip(improved, reference[0], strict=True):
            if isinstance(ours, str):
                assert ours == ref
            else:
                assert abs(ours[0] - ref[0]) <= ours[1]
        for ours, ref in zip(profiles, reference[1], strict=True):
            if isinstance(ours, str):
                assert ours == ref
                continue
            for a, b in zip(ours, ref, strict=True):
                assert (a.theta, a.k, a.erf_prediction) == (b.theta, b.k, b.erf_prediction)
                assert abs(a.multiplier - b.multiplier) <= a.est_error
        assert any("RangeError" in o for o in profiles if isinstance(o, str))  # |z| = 20, 27, k = 2

    def test_memo_is_bounded_and_returns_the_computed_tails(self, monkeypatch):
        fresh = {}
        returned = []

        def record(exponent, k_first):
            key = (exponent, k_first)
            if key not in fresh:
                fresh[key] = _zeta_tail.__wrapped__(exponent, k_first)
            value = _zeta_tail(exponent, k_first)
            returned.append((key, value))
            return value

        monkeypatch.setattr(terminant_module, "_zeta_tail", record)
        rng = random.Random(1617)
        hits = _zeta_tail.cache_info().hits
        for _ in range(5000):
            r = 1e-12 * 1e15 ** rng.random()
            exp_improved_report(r * cmath.exp(1j * rng.uniform(-0.95 * PI, 0.95 * PI)))
        info = _zeta_tail.cache_info()
        assert isinstance(info.maxsize, int) and info.currsize <= info.maxsize
        assert info.hits > hits
        assert all(repr(value) == repr(fresh[key]) for key, value in returned)
