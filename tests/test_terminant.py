"""Terminant paths, branch bookkeeping, improved expansion, Stokes profiles."""

import cmath
import importlib
import itertools
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
    exp_improved_report,
    log_barnes_oracle,
    stokes_profile,
    terminant,
    truncated_log_barnes,
)
from barnesg import special
from barnesg.bernoulli import EPS
from barnesg.terminant import (_ALGEBRAIC_COEFFS, _algebraic_rows, _order_thresholds,
                               _pair_bound, _scaled_recurrence, _zeta_tail)
from _reference import (ein_one_loop, gauss_legendre_mp, improved_route_orders,
                        improved_uniform, log_g_error, terminant_pair, terminant_quadrature)

# the package's `terminant` is the function; the module is reached by name
terminant_module = importlib.import_module("barnesg.terminant")
arc_module = importlib.import_module("barnesg.arc")

PI = math.pi
REC = TerminantMethod.GAMMA_RECURRENCE
ARC = TerminantMethod.ARC_INTEGRAL


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

    def test_auto_prefers_arc_at_large_matched_order(self):
        ev = terminant(61, 60.0 * cmath.exp(1j * PI), arg_w=PI)
        assert ev.method is ARC

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
    """T_p(w) on the branch arg_w from mpmath's principal E1, plus one unit per crossing
    of the negative axis.

    For integer order, Gamma(1-p, w) = (-1)^{p-1}/(p-1)! [E1(w) - e^{-w} S_{p-1}(w)],
    S_m(w) = sum_{k<m} (-1)^k k!/w^{k+1}, so T_p(w) = (e^{-w} S_{p-1}(w) - E1(w))/(2 pi i).
    The 40 + |w|/2.3 + p digits cover the cancellation, up to e^{|w|}, and the growth of k!.
    """
    with mp.workdps(40 + int(abs(w) / 2.3) + p):
        x = mp.mpc(w)
        partial = mp.fsum((-1) ** k * mp.factorial(k) / x ** (k + 1) for k in range(p - 1))
        val = (mp.exp(-x) * partial - mp.e1(x)) / (2j * mp.pi)
        return complex(val) + round((arg_w - cmath.phase(w)) / (2 * PI))


def _terminant_mp_gammainc(p, w):
    """Principal T_p(w) from mpmath's Gamma(1-p, w) at 40 digits."""
    with mp.workdps(40):
        return complex((-1) ** p * mp.factorial(p - 1) / (2j * mp.pi) * mp.gammainc(1 - p, mp.mpc(w)))


@pytest.mark.parametrize("p,w", [(7, 10.0 * cmath.exp(1j * PI / 3)), (39, 38.15 * cmath.exp(2.9j)),
                                 (171, 1.0)], ids=repr)
def test_reference_matches_gammainc(p, w):
    # the E1 form of the mpmath reference against mpmath's incomplete gamma
    assert _terminant_mp(p, w, cmath.phase(w)) == _terminant_mp_gammainc(p, w)


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
                                           (47, 55.0, 1.0), (39, 38.15, 1 - 0.2 / PI),
                                           (39, 38.15, -1 + 0.2 / PI), (39, 38.15, 1 + 0.2 / PI),
                                           (61, 60.0, 1.0), (171, 170.0, 1.0)])
    def test_stokes_side_within_a_small_estimate(self, p, abs_w, a):
        # past |w| ~ 33 near the negative axis the closed form cancels; the arc integral
        # holds, with a small estimate, at matched (T_39, T_48, T_61, T_171) and mismatched
        # (T_42, T_47) order.  A leading-order erf switch was off by up to 5e5 of |T| here.
        w = abs_w * cmath.exp(1j * a * PI)
        ev = terminant(p, w, arg_w=a * PI)
        ref = _terminant_mp(p, w, a * PI)
        assert abs(ev.value - ref) <= ev.est_error <= 1e-7 * abs(ref)

    @pytest.mark.parametrize("p", [101, 131, 151, 171])
    @pytest.mark.parametrize("abs_w", [1.0, 2.0, 4.0, 8.0])
    def test_far_above_the_optimal_order_within_estimate(self, p, abs_w):
        # p >> |w|: the last terms of S_{p-1} dominate, each built by p - 2 products; the
        # closed form's running bound covers them (an estimate of 4 eps per partial
        # difference fell short by up to 7x on this grid)
        for a in (0.6, -1.2, 2.5, -3.0):
            w = abs_w * cmath.exp(1j * a)
            ev = terminant(p, w)
            assert abs(ev.value - _terminant_mp(p, w, a)) <= ev.est_error, a

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


class TestArcForm:
    def test_against_quadrature_past_the_cut(self):
        # truth past the cut: principal quadrature plus the unit jump.  The closed
        # form at |w| = 40 with Re w = -38 sits at its binary64 cancellation floor
        # (e^{-Re w} eps scale), so terminant takes the arc integral there
        w = 40.0 * cmath.exp(1j * (PI + 0.3))
        truth = terminant_quadrature(41, w)[0] + 1.0
        ev = terminant(41, w, arg_w=PI + 0.3)
        assert ev.method is ARC
        assert abs(ev.value - truth) <= ev.est_error

    def test_branch_angle_is_read_from_w(self):
        # arg_w only selects the branch: an angle 3e-6 off arg w still walks to w itself
        w = 38.15 * cmath.exp(1j * (PI - 0.2))
        ev = terminant(39, w, arg_w=PI - 0.2 + 3e-6)
        assert ev.method is ARC
        assert abs(ev.value - _terminant_mp(39, w, PI - 0.2)) <= ev.est_error

    def test_saturation(self):
        # far past the transition zone the multiplier has fully switched on
        ev = terminant(95, 100.0 * cmath.exp(1j * (PI + 0.9)), arg_w=PI + 0.9)
        assert ev.method is ARC
        assert ev.value == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_order_keeps_the_closed_form(self):
        # T_5(30 e^{i pi}) is of size 2e6, and the closed form's estimate is the smaller
        w = 30.0 * cmath.exp(1j * PI)
        ev = terminant(5, w, arg_w=PI)
        assert ev.method is REC
        assert abs(ev.value - _terminant_mp(5, w, PI)) <= ev.est_error

    def test_bound_is_inf_where_it_overflows(self):
        # T_171 at |w| = 4: the panel bound's e^{log A + log M} leaves binary64, and the
        # closed form is kept
        log_a = math.lgamma(171) - 170 * math.log(4.0) + 4.0 - math.log(2 * PI)
        assert arc_module._arc_bound(0.025, 4.0, 171, log_a, [0.0]) == [math.inf]
        ev = terminant(171, -4.0 + 0j, arg_w=PI)
        assert ev.method is REC
        ref = _terminant_mp(171, -4.0 + 0j, PI)
        assert abs(ev.value - ref) <= 1e-13 * abs(ref)

    def test_closed_form_estimate_at_far_mismatched_order(self):
        # T_171(2 e^{0.6i}): term j of S_170 carries about j eps; an estimate of 4 eps
        # per partial difference |h - S_m| was a seventh of the error here
        w = 2.0 * cmath.exp(0.6j)
        ev = terminant(171, w)
        assert abs(ev.value - _terminant_mp(171, w, 0.6)) <= ev.est_error


class TestTruncationOrders:
    def test_pair_count_is_no_option(self):
        # the route picks K itself from its error target
        with pytest.raises(TypeError):
            exp_improved_report(2.0, 3)
        with pytest.raises(TypeError):
            exp_improved_report(2.0, k_max=3)

    def test_orders(self):
        # N_k is the number of the order rule's thresholds <= k
        assert _order_thresholds(2.5, 1) == 8
        assert _order_thresholds(4.0, 5) == 31  # capped

    def test_profile_reads_the_order_rule_at_the_ties(self, monkeypatch):
        # stokes_profile integrates at p = 2 N_k + 1 with N_k counted on the improved route's
        # thresholds: at pi k |z| = n + 1/2, within an ulp or two of it, and where pi k |z|
        # overflows.  RangeError exactly where N_k reaches 86, past MAX_ORDER = 171.
        orders = []

        def spy(p, r, us):
            orders.append(p)
            return [(0j, 0.0)] * len(us)

        monkeypatch.setattr(terminant_module, "_arc_profile", spy)
        points = [1e308]
        for n in range(86):
            for k in (1, 2, 3):
                tie = (n + 0.5) / (PI * k)
                points += [tie, math.nextafter(tie, 0.0), math.nextafter(tie, math.inf),
                           tie * (1.0 - 4e-16), tie * (1.0 + 4e-16)]
        raised = 0
        for abs_z in (z for z in points if z >= 1.5):
            for k in (1, 2, 3):
                n_k = _order_thresholds(abs_z, k, 86)
                if n_k == 86:
                    with pytest.raises(RangeError):
                        stokes_profile(abs_z, k, [0.5 * PI])
                    raised += 1
                else:
                    stokes_profile(abs_z, k, [0.5 * PI])
                    assert orders.pop() == 2 * n_k + 1, (abs_z, k)
        assert raised and not orders


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
        a = exp_improved_report(2.5)[0]
        b = improved_uniform(2.5, 3, k_max=20)
        assert abs(a - b) < 1e-9

    def test_real_axis_correction_real(self):
        value = exp_improved_report(2.5)[0]
        assert abs(value.imag) < 1e-14

    def test_exponential_improvement_on_stokes_line(self):
        z = 2.5j
        oracle = log_barnes_oracle(z)
        hyper = exp_improved_report(z)[0]
        plain_best = min(
            abs(truncated_log_barnes(z, n) - oracle.value) for n in range(1, 21)
        )
        assert abs(hyper - oracle.value) < plain_best / 10.0

    def test_report_estimate_covers_error(self):
        z = 2.0 * cmath.exp(0.45j * PI)
        oracle = log_barnes_oracle(z)
        value, est = exp_improved_report(z)
        assert abs(value - oracle.value) <= est + oracle.est_error + 1e-12

    @pytest.mark.parametrize("a", [0.3, 0.5])
    @pytest.mark.parametrize("abs_z", [0.47746482927568595, 1.1140846016432673], ids=repr)
    def test_estimate_covers_the_error_at_an_order_tie(self, abs_z, a):
        # |z| is 1.5/pi and 3.5/pi to an ulp, so pi |z| + 1/2 is an integer to rounding; the
        # route shifts these z to Re w >= 2, and ties of |w| itself are in _RETIRED_ROWS
        z = abs_z * cmath.exp(1j * PI * a)
        value, est = exp_improved_report(z)
        with mp.workdps(30):
            diff = mp.mpc(value) - mp.log(mp.barnesg(mp.mpc(z) + 1))
            diff -= 2j * mp.pi * mp.nint(diff.imag / (2 * mp.pi))  # modulo 2 pi i
            assert abs(diff) <= est

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("z", [2 + 1j, 2.5, 3 + 2j, 2 + 4j])
    def test_pair_cancels_its_algebraic_row(self, z, k):
        # reference-free: the k-th pair's truncated series S_{2N_k}(+-w) is minus the k-th
        # row A_k of the algebraic sum, so pair_k + A_k = (h(w) + h(-w))/(4 pi^2 k^2),
        # h = e^w E1(w) on the route's branches, to within the pair's eval-error
        theta = cmath.phase(z)
        n_k = _order_thresholds(abs(z), k)
        w = 2 * PI * k * 1j * z
        s_up, e_up = _scaled_recurrence(2 * n_k + 1, w, theta + 0.5 * PI)
        s_dn, e_dn = _scaled_recurrence(2 * n_k + 1, -w, theta - 0.5 * PI)
        pair, eval_err = (s_up + s_dn) / (2j * PI * k * k), (e_up + e_dn) / (2 * PI * k * k)
        row = sum(c * z ** (-2 * n - 2) * k ** -(2 * n + 4)
                  for n, c in enumerate(_ALGEBRAIC_COEFFS[:n_k]))
        h = (special._e1_scaled_continued(w, theta + 0.5 * PI)[0]
             + special._e1_scaled_continued(-w, theta - 0.5 * PI)[0])
        assert abs(pair + row - h / (4 * PI * PI * k * k)) <= eval_err

    @pytest.mark.parametrize("z", [1e150, 3e100j], ids=repr)
    def test_huge_modulus_is_within_its_estimate(self, z):
        # the pairs' E1 runs the continued fraction at |w| = 2 pi |z|, where its step can
        # stay half an ulp from 1 (TestExpIntegral)
        value, est = exp_improved_report(z)
        assert log_g_error(value, z) <= est

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
        # each pair at its own N_k, and each pair k > K + 1 at the route's one order
        # N_{K+1}, K = 1, 2.  pi/4 is where the bound is tightest (within 1e-4 at |w| = 20,
        # k = 6); at +-pi/2 it takes the sector family's cap
        for a in (-0.5, 0.25, 0.5):
            w = abs_w * cmath.exp(1j * PI * a)
            for k in range(1, 7):
                for j in {k, 2, 3} & set(range(1, k + 1)):
                    n_j = _order_thresholds(abs_w, j)
                    bound = _pair_bound(k, n_j + 1, math.log(abs_w), cmath.phase(w))
                    assert abs(terminant_pair(k, 2 * n_j + 1, w)) <= bound, (a, k, j)

    def test_sector_cap_holds_for_each_pair(self):
        # a pair's integral rotated by phi costs sec^{2n} phi; at arg w = pi/2, the worst
        # angle, its least factor sec^{2n} phi / sin 2 phi is below the cap up to the order cap
        phi = np.linspace(1e-4, PI / 4, 20001)
        for n in range(1, 42):
            assert (np.cos(phi) ** (-2 * n) / np.sin(2 * phi)).min() <= 0.5 * math.sqrt(
                math.e * (2 * n + 2.5))

    @staticmethod
    def _route(monkeypatch, z):
        """exp_improved_report(z): its value and estimate, its point w, the order N of
        the pairs it leaves out, the number K of pairs it sums (two E1 calls each) and
        its k-tail."""
        seen, e1_args = {}, []
        pairs, e1 = terminant_module._terminant_pairs, terminant_module._e1_scaled_continued

        def spy_pairs(w, roundoff):
            out = pairs(w, roundoff)
            seen.update(w=w, last=out[0], order=out[1], tail=out[4])
            return out

        def spy_e1(w, arg_w):
            e1_args.append(w)
            return e1(w, arg_w)

        monkeypatch.setattr(terminant_module, "_terminant_pairs", spy_pairs)
        monkeypatch.setattr(terminant_module, "_e1_scaled_continued", spy_e1)
        value, est = exp_improved_report(z)
        assert len(e1_args) == 2 * seen["last"]
        return value, est, seen["w"], seen["order"], seen["last"], seen["tail"]

    @pytest.mark.parametrize("z", [3.0, 2 + 4j, 2.5 + 30j, 0.5 - 1j], ids=repr)
    def test_tail_covers_the_pairs_left_out(self, monkeypatch, z):
        # the pairs K < k <= 40 at the route's one order N, from mpmath, as
        # improved_uniform sums them with k_max = 40
        _, _, w, order, summed, tail = self._route(monkeypatch, z)
        left_out = sum(terminant_pair(k, 2 * order + 1, w) for k in range(summed + 1, 41))
        assert abs(left_out) <= tail

    @pytest.mark.parametrize("j", [2, 3])
    def test_rows_and_k_tail_share_one_order_at_the_ties(self, monkeypatch, j):
        # at w = |w| >= 2 with pi j |w| = n + 1/2 to an ulp, with the route's own K and
        # with K = 1 (a target every k-tail meets): the rows k > K run to N = N_{K+1},
        # counted on the order rule's thresholds, and the k-tail bounds the pairs k > K
        # at that N; at K + 1 = j the tie rounds up, N = min(n + 1, 31)
        rows, bounds, e1_args = [], [], []
        alg, bound = terminant_module._algebraic_sum, terminant_module._pair_bound
        e1 = terminant_module._e1_scaled_continued

        def spy_alg(zinv2, n_rows, k_first):
            rows.append((n_rows, k_first))
            return alg(zinv2, n_rows, k_first)

        def spy_bound(k, n, log_abs_z, theta):
            bounds.append((k, n))
            return bound(k, n, log_abs_z, theta)

        def spy_e1(w, arg_w):
            e1_args.append(w)
            return e1(w, arg_w)

        monkeypatch.setattr(terminant_module, "_algebraic_sum", spy_alg)
        monkeypatch.setattr(terminant_module, "_pair_bound", spy_bound)
        monkeypatch.setattr(terminant_module, "_e1_scaled_continued", spy_e1)
        at_j = 0
        for n in range(math.ceil(2 * PI * j - 0.5), 40):
            tie = (n + 0.5) / (PI * j)
            for abs_w, share in itertools.product(
                    (tie, math.nextafter(tie, 0.0), math.nextafter(tie, math.inf)),
                    (terminant_module._TAIL_SHARE, math.inf)):
                for log in (rows, bounds, e1_args):
                    log.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(terminant_module, "_TAIL_SHARE", share)
                    exp_improved_report(abs_w)
                (n_rows, k_first), = rows
                assert k_first == len(e1_args) // 2 + 1, abs_w
                assert n_rows == _order_thresholds(abs_w, k_first), abs_w
                assert bounds[-1] == (k_first, n_rows + 1), abs_w
                if k_first == j:
                    assert n_rows == min(n + 1, len(_ALGEBRAIC_COEFFS)), abs_w
                    at_j += 1
        assert at_j

    def test_one_pair_at_three(self, monkeypatch):
        # at w = 3 the pairs k >= 2 are bounded by 2.3e-19, below 1/1024 of the round-off
        assert self._route(monkeypatch, 3.0)[4] == 1

    #: Order ties at Re w >= 2 past the K pairs summed (pi k |w| + 1/2 in Z to an ulp at
    #: k = 3, 3 and 2; K = 2, 1, 1), the shifted ties of
    #: test_estimate_covers_the_error_at_an_order_tie, other shifted points, and rows
    #: above the shift cap that test_honesty pins (K = 5, 1 and 12), each in both
    #: half-planes.
    _RETIRED_ROWS = [z for z0 in [
        6.5 / PI, 10.5 / PI * cmath.exp(0.2j * PI), 21.5 / (2 * PI) * cmath.exp(0.2j * PI),
        0.47746482927568595 * cmath.exp(0.3j * PI), 1.1140846016432673j, 0.5 + 1j,
        1.5 * cmath.exp(0.9j * PI), 0.1j, 2.5 + 30j, 70 * cmath.exp(1j * (PI - 0.01)),
        70 * cmath.exp(1j * (PI - 0.05)), complex(-70, 0.3)]
        for z in (z0, complex(z0).conjugate())]

    @pytest.mark.parametrize("z", _RETIRED_ROWS, ids=repr)
    def test_pairs_at_order_zero_match_the_route_orders(self, monkeypatch, z):
        # the same K pairs at N_k = round(pi k |w|), each via _scaled_recurrence, less the
        # complete algebraic sum: the route's value within its estimate
        value, est, _, _, summed, _ = self._route(monkeypatch, z)
        assert abs(value - improved_route_orders(z, summed)) <= est

    @pytest.mark.parametrize("z", _RETIRED_ROWS, ids=repr)
    def test_route_builds_no_truncated_series(self, monkeypatch, z):
        def forbidden(*args):
            raise AssertionError("exp_improved_report called _scaled_recurrence")

        monkeypatch.setattr(terminant_module, "_scaled_recurrence", forbidden)
        exp_improved_report(z)


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

    @pytest.mark.parametrize("abs_z,k", [(7.0, 1), (8.0, 1), (20.0, 1), (26.0, 1), (3.5, 2)])
    def test_multiplier_on_the_line_within_estimate(self, abs_z, k):
        # 2 pi k |z| = 44 .. 163, where the closed form cancels: the arc integral's
        # bound covers the error against mpmath, and the normalized multiplier is
        # within 1e-4 of mpmath's (the leading-order switch said 1/2 + ~0i there)
        sample = stokes_profile(abs_z, k, [PI / 2])[0]
        p = 2 * _order_thresholds(abs_z, k, 86) + 1
        w = -2 * PI * k * abs_z + 0j  # w = 2 pi k i z with arg w = pi on the upper line
        ref = -_terminant_mp(p, w, PI) / (2j * PI * k * k)
        assert sample.est_error < abs(sample.limit)
        assert abs(sample.multiplier - ref) <= sample.est_error
        assert abs(sample.normalized_multiplier - ref / sample.limit) <= 1e-4

    @staticmethod
    def _within_estimate_of_mpmath(abs_z, k, thetas):
        """Each upper sample and its mirror below are within est_error of mpmath: the lower
        window's w is conj w, and T_p(conj w) = -conj T_p(w).  Returns both profiles."""
        p = 2 * _order_thresholds(abs_z, k, 86) + 1
        upper = stokes_profile(abs_z, k, thetas)
        lower = stokes_profile(abs_z, k, [-t for t in thetas])
        for theta, up, low in zip(thetas, upper, lower, strict=True):
            w = 2 * PI * k * 1j * abs_z * cmath.exp(1j * theta)
            t_p = _terminant_mp(p, w, theta + PI / 2)
            assert abs(up.multiplier + t_p / (2j * PI * k * k)) <= up.est_error, theta
            assert abs(low.multiplier - t_p.conjugate() / (2j * PI * k * k)) <= low.est_error, theta
        return upper + lower

    @pytest.mark.parametrize("abs_z,k", [(2.685, 2), (3.036, 2), (3.879, 2)])
    def test_whole_profile_within_estimate(self, abs_z, k):
        # |w| = 2 pi k |z| = 33.7, 38.1, 48.7, where the closed form at w cancels
        self._within_estimate_of_mpmath(abs_z, k, [PI / 2 - 0.5 + i / 10 for i in range(11)])

    @pytest.mark.parametrize("abs_z,k", [(1.5, 1), (4.0, 2), (8.0, 2), (20.0, 1), (27.0, 1)])
    def test_every_sample_within_its_bound(self, abs_z, k):
        # 2 pi k |z| = 9.4 .. 170, p = 11 .. 171: within est_error of mpmath, and
        # est_error is at most 1e-9 of |limit|
        thetas = [PI / 2 - 0.4, PI / 2 - 0.1, PI / 2 + 0.2, PI / 2 + 0.5]
        samples = self._within_estimate_of_mpmath(abs_z, k, thetas)
        window = np.linspace(PI / 2 - 0.52, PI / 2 + 0.52, 51)
        for s in stokes_profile(abs_z, k, window) + samples:
            assert 0.0 < s.est_error <= 1e-9 * abs(s.limit)

    @pytest.mark.parametrize("abs_z,k,line", [(3.0, 1, PI / 2), (20.0, 1, -PI / 2), (4.0, 2, PI / 2)])
    def test_samples_depend_only_on_the_set_of_angles(self, abs_z, k, line):
        thetas = [line - 0.5 + i / 25 for i in range(26)]
        rng = random.Random(29)
        shuffled = thetas + rng.sample(thetas, 9)
        rng.shuffle(shuffled)
        by_theta = {repr(s.theta): repr(s) for s in stokes_profile(abs_z, k, thetas)}
        got = stokes_profile(abs_z, k, shuffled)
        assert [s.theta for s in got] == shuffled
        assert [repr(s) for s in got] == [by_theta[repr(t)] for t in shuffled]

    def test_numpy_angles_give_python_scalars(self):
        # each angle is taken as a float on entry, so an array and a list give the same records
        thetas = np.linspace(PI / 2 - 0.5, PI / 2 + 0.5, 21)
        from_array = stokes_profile(3.0, 1, thetas)
        from_list = stokes_profile(3.0, 1, thetas.tolist())
        assert [repr(s) for s in from_array] == [repr(s) for s in from_list]
        for s in from_array:
            assert [type(v) for v in s] == [float, int, complex, complex, float]
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                stokes_profile(3.0, 1, np.array([PI / 2, bad]))

    @pytest.mark.parametrize("abs_z,k", [(1.5, 1), (3.879, 2), (20.0, 1)])
    @pytest.mark.parametrize("offsets", [
        [0.05, 0.21, 0.43],                      # right of the line: every angle reflects
        [-0.47, -0.2, -0.013],                   # left of it: the walk alone
        [0.31, -0.17, 0.31, -0.42, 0.08, -0.17, -0.29],  # shuffled, with duplicates
        [0.3],                                   # one angle: walk to -0.3 and 0, reflect
    ], ids=["right", "left", "shuffled", "single"])
    def test_reflected_rows_within_estimate(self, abs_z, k, offsets):
        # no angle of these windows is the bitwise mirror of another, so each right-hand
        # row is T(0) + conj(T(0) - T(-u)) from a stretch walked for it alone
        thetas = [PI / 2 + d for d in offsets]
        us = {t - PI / 2 for t in thetas}
        assert not us & {-u for u in us}
        self._within_estimate_of_mpmath(abs_z, k, thetas)

    @pytest.mark.parametrize("abs_w", [12.0, 50.0])
    @pytest.mark.parametrize("a", [1.1, 1.3, 1.45, -1.1, -1.3, -1.45])
    def test_terminant_past_the_axis_reflects_within_estimate(self, abs_w, a):
        # |arg w| - pi = u > 0: the arc runs to -u and 0 and reflects; both terminant and the
        # arc row itself lie within their estimates of mpmath
        p = 2 * round(abs_w / 2) + 1
        w = abs_w * cmath.exp(1j * a * PI)
        ref = _terminant_mp(p, w, a * PI)
        ev = terminant(p, w, arg_w=a * PI)
        assert abs(ev.value - ref) <= ev.est_error
        arc, arc_est = terminant_module._arc_profile(p, abs_w, [(abs(a) - 1.0) * PI])[0]
        if a < 0:
            arc = 0.0 - arc.conjugate()
        assert abs(arc - ref) <= arc_est

    def test_berry_law_on_the_line(self):
        # Berry's law, with no reference: on arg z = pi/2 (arg w = pi) T_p has real part 1/2
        # exactly, and Im T_p sqrt(2 pi |w|) = rho - 2/3 + O(1/sqrt |w|), rho = p - |w|.
        # Over this grid the largest residual is 1.86e-3; 2.5e-3 leaves a margin of a third.
        for abs_z in np.linspace(5.0, 26.9, 200).tolist():
            s = stokes_profile(abs_z, 1, [PI / 2])[0]
            m = s.normalized_multiplier
            abs_w = 2 * PI * abs_z
            rho = 2 * round(PI * abs_z) + 1 - abs_w
            assert abs(m.real - 0.5) <= s.est_error / abs(s.limit), abs_z
            assert abs(m.imag * math.sqrt(2 * PI * abs_w) - (rho - 2 / 3)) <= 2.5e-3, abs_z

    @pytest.mark.parametrize("p,r", [(51, 8 * PI * 2.0), (127, 2 * PI * 20.0)])
    def test_arc_integrand_has_unit_mass_over_one_winding(self, p, r):
        # dT_p/du integrated over u in [-pi, pi] is the residue of one winding, 1, within
        # the round-off bound eps (lgamma(p) + (p - 1) log r + 2 r + p) times the sum of moduli
        log_a = math.lgamma(p) + (1 - p) * math.log(r) + r - math.log(2 * PI)
        panels = math.ceil(2 * PI / min(0.05, 0.3 / math.sqrt(r)))
        run = (-PI, panels, PI / panels, arc_module._GAUSS4)
        total, mass = arc_module._arc_sum(p, r, log_a, [run])[-1]
        rel = 2.0 ** -53 * (math.lgamma(p) + (p - 1) * math.log(r) + 2 * r + p)
        assert abs(total - 1.0) <= rel * mass

    def test_domain(self):
        with pytest.raises(DomainError):
            stokes_profile(1.0, 1, [PI / 2])
        with pytest.raises(DomainError):
            stokes_profile(3.0, 0, [PI / 2])
        with pytest.raises(DomainError):
            stokes_profile(3.0, 1, [0.1])  # not near a Stokes line
        with pytest.raises(DomainError):
            stokes_profile(3.0, 1, [PI / 2, -PI / 2])  # mixed windows



def _rule_error_mp(p, r, lo, panels, h, nodes):
    """|the nodes-point Gauss-Legendre rule on `panels` panels of half-width h from lo - the
    integral| of the arc integrand dT_p/du = exp(log A + r (e^{iu} - 1) + i (1 - p) u), both
    at 30 digits: the rule's own error, with no round-off."""
    with mp.workdps(30):
        log_a = mp.loggamma(p) + (1 - p) * mp.log(r) + r - mp.log(2 * mp.pi)

        def f(u):
            return mp.exp(log_a + r * (mp.expj(u) - 1) + 1j * (1 - p) * u)

        rule = gauss_legendre_mp(nodes)
        mids = [mp.mpf(lo) + (2 * i + 1) * mp.mpf(h) for i in range(panels)]
        total = mp.fsum(w * h * f(mid + h * x) for mid in mids for x, w in rule)
        return float(abs(total - mp.quad(f, [lo] + [mid + h for mid in mids])))


def _odd(x):
    return 2 * round((x - 1) / 2) + 1


_PANEL_CASES = [(r, _odd(r + d)) for r in (2 * PI * 1.5, 50.0, 170.0, 342.0) for d in (-5, 1, 20)]


class TestArcWalk:
    """The walk's panel bounds against the integral, and its samples against each other."""

    @pytest.mark.parametrize("r,p", _PANEL_CASES, ids=repr)
    def test_panel_bound_covers_the_rule(self, r, p):
        # single _GAUSS4 panels of dT_p/du: on the seed leg, where the bound takes cos Re u
        # at the ellipse's point nearest u = 0, in the window, and one whose ellipse
        # reaches past u = 0, where it takes cos Re u <= 1
        log_a = math.lgamma(p) + (1 - p) * math.log(r) + r - math.log(2 * PI)
        for mid, h in ((-1.2, 0.05), (-0.9, 0.15), (-0.3, 0.01), (-0.005, 0.01)):
            bound, = arc_module._arc_bound(h, r, p, log_a, [mid])
            assert _rule_error_mp(p, r, mid - h, 1, h, 4) <= bound, (mid, h)

    @pytest.mark.parametrize("r,p", _PANEL_CASES, ids=repr)
    def test_seed_leg_bound_covers_the_rule(self, r, p):
        # the seed leg to the edge of the +-0.5 window and to a single angle near the line:
        # one Gauss-Legendre panel up to r = 170, where p is within 20 of r; at r = 342, p
        # past the order reach, the four-node panels where no panel of 64 nodes meets the
        # budget
        log_a = math.lgamma(p) + (1 - p) * math.log(r) + r - math.log(2 * PI)
        for end in (-0.5, -0.05):
            (lo, panels, h, rule), bound = arc_module._seed_leg(
                r, p, log_a, end, min(0.05, 0.3 / math.sqrt(r)))
            assert lo == -PI / 2 and bound < math.inf and (panels == 1 or r > 170)
            assert _rule_error_mp(p, r, lo, panels, h, len(rule)) <= bound, end

    @pytest.mark.parametrize("abs_z,k", [(1.5, 1), (1.5, 2), (2.5, 1), (2.5, 2), (4.0, 1),
                                         (4.0, 2), (20.0, 1)])  # k = 2 at |z| = 20 is past 171
    @pytest.mark.parametrize("line", [PI / 2, -PI / 2])
    def test_sample_alone_agrees_with_its_window(self, abs_z, k, line):
        # reference-free: one angle walked alone takes another layout than the 51-angle
        # window (its seed leg ends at the angle, and nothing merges or keeps a width), so
        # the two samples agree within the sum of their estimates
        window = [line - 0.5 + i / 50 for i in range(51)]
        for theta, sample in zip(window, stokes_profile(abs_z, k, window), strict=True):
            alone, = stokes_profile(abs_z, k, [theta])
            assert abs(alone.multiplier - sample.multiplier) <= alone.est_error + sample.est_error

    @pytest.mark.parametrize("abs_z,k,panels,ratio", [(1.5, 1, 51, 4.65e-13), (4.0, 2, 55, 1.61e-10),
                                                      (27.0, 1, 76, 2.69e-10)])
    def test_pinned_window_work_and_estimate(self, monkeypatch, abs_z, k, panels, ratio):
        # the +-0.52 window of 51 angles at r = 9.4, 50.3, 169.6: at most the panels the
        # walk of _GAUSS4 panels no wider than min(0.05, 0.3/sqrt r) took, at most four nodes
        # per such panel, and a largest est_error/|limit| at most that walk's
        runs, arc_sum = [], arc_module._arc_sum

        def spy(p, r, log_a, walked):
            runs.extend(walked)
            return arc_sum(p, r, log_a, walked)

        monkeypatch.setattr(arc_module, "_arc_sum", spy)
        samples = stokes_profile(abs_z, k, np.linspace(PI / 2 - 0.52, PI / 2 + 0.52, 51))
        assert sum(n for _, n, _, _ in runs) <= panels
        assert sum(n * len(rule) for _, n, _, rule in runs) <= 4 * panels
        assert max(s.est_error / abs(s.limit) for s in samples) <= ratio


def _outcome(fn, *args):
    """fn's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (AccuracyError, DomainError, RangeError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestMemoizedRoute:
    """The improved route gives, bit for bit, what it gives with the algebraic rows
    built afresh on every call, and within its estimates what it gives with
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

    def test_identical_to_the_unmemoized_rows(self, monkeypatch):
        shipped = repr(self._run())
        warm = repr(self._run())  # every table now comes from the memo
        monkeypatch.setattr(terminant_module, "_algebraic_rows", _algebraic_rows.__wrapped__)
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

    def test_memo_is_bounded_and_returns_the_computed_rows(self, monkeypatch):
        fresh = {}
        returned = []

        def record(k_first):
            if k_first not in fresh:
                fresh[k_first] = _algebraic_rows.__wrapped__(k_first)
            value = _algebraic_rows(k_first)
            returned.append((k_first, value))
            return value

        monkeypatch.setattr(terminant_module, "_algebraic_rows", record)
        rng = random.Random(1617)
        hits = _algebraic_rows.cache_info().hits
        for _ in range(5000):
            r = 1e-12 * 1e15 ** rng.random()
            exp_improved_report(r * cmath.exp(1j * rng.uniform(-0.95 * PI, 0.95 * PI)))
        info = _algebraic_rows.cache_info()
        assert isinstance(info.maxsize, int) and info.currsize <= info.maxsize
        assert info.hits > hits
        assert all(repr(value) == repr(fresh[k_first]) for k_first, value in returned)


@pytest.mark.parametrize("n_rows", [0, 1, 13, 31])
@pytest.mark.parametrize("k_first", [2, 3, 4, 17, 1025])
def test_algebraic_sum_against_the_double_sum(k_first, n_rows):
    # the rows n < n_rows of sum_n (-1)^n 2 (2n+1)!/(2 pi)^{2n+4} zeta(2n+4, k_first) z^{-2n-2}
    # at dps 60, within the 8 eps |alg| that exp_improved_report charges the sum
    with mp.workdps(60):
        coeffs = [(-1) ** n * 2 * mp.factorial(2 * n + 1) / (2 * mp.pi) ** (2 * n + 4)
                  * mp.zeta(2 * n + 4, k_first) for n in range(n_rows)]
        for abs_w, a in itertools.product((2.0, 2.5, 5.0, 12.0, 70.0, 1000.0),
                                          (0.0, 0.2, 0.45, 0.5, 0.9, 0.999)):
            w = abs_w * cmath.exp(1j * a * PI)
            zinv2 = 1.0 / (w * w)
            got = terminant_module._algebraic_sum(zinv2, n_rows, k_first)
            ref = mp.fsum(c * mp.mpc(zinv2) ** (n + 1) for n, c in enumerate(coeffs))
            assert abs(mp.mpc(got) - ref) <= 8 * EPS * abs(got), (w, got)
