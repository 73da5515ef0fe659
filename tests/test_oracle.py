"""Remainder oracles: kernel agreement, anchors, functional equation, tails."""

import cmath
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

from barnesg import (
    AccuracyError,
    DomainError,
    RangeError,
    bernoulli_number,
    log_barnes_oracle,
    log_gamma,
    remainder_narrow,
    remainder_wide,
    series_coefficient,
    truncated_log_barnes,
)
from barnesg import oracle
from barnesg.bernoulli import DEFAULT_TABLE, BernoulliTable
from barnesg.quadrature import gauss_nodes, integrate_panels, panel_nodes, panel_weights
from barnesg.special import _dilog_exp
from _reference import (bernoulli_poly, remainder_error, remainder_narrow_per_panel,
                        remainder_symmetrized, remainder_wide_per_node, wide_t_stop_scan)

PI = math.pi


def remainder_log_kernel(z, n_trunc):
    """R_N(z) by the nested log-kernel quadrature, |arg z| < pi/2 (cross-check only):

        R_N = z^{-2N} (-1)^{N+1}/pi int_0^inf (int_0^1 s^{2N-1}/(1+(st/z)^2) ds)
                                         t^{2N} log(1 - e^{-2 pi t}) dt

    The inner integral is one Gauss rule on [0, 1] for all outer nodes at once.
    """
    x, w = gauss_nodes(oracle._GAUSS_ORDER)
    s = 0.5 * (x + 1.0)
    s_weights = 0.5 * w * s ** (2 * n_trunc - 1)

    def integrand(t):
        inner = (s_weights / (1.0 + (np.outer(t, s) / z) ** 2)).sum(axis=1)
        return inner * t ** (2 * n_trunc) * np.log(-np.expm1(-2.0 * PI * t))

    integral, _ = integrate_panels(integrand, oracle._NARROW_BREAKS, oracle._GAUSS_ORDER)
    return (-1) ** (n_trunc + 1) / (PI * z ** (2 * n_trunc)) * integral


class TestNarrowKernel:
    def test_exact_anchor_z3(self):
        # log G(4) = log 2 exactly, so R_1(3) = log 2 - truncated(3, 1)
        exact = math.log(2.0) - truncated_log_barnes(3.0, 1).real
        got = remainder_narrow(3.0, 1)
        assert abs(got.value - exact) < 1e-12

    def test_real_axis_sign(self):
        for z in (2.0, 5.0, 9.0):
            for n in (1, 2, 3):
                val = remainder_narrow(z, n).value
                assert abs(val.imag) < 1e-16
                assert math.copysign(1.0, val.real) == math.copysign(
                    1.0, bernoulli_number(2 * n + 2)
                )

    def test_agrees_with_wide(self):
        a = remainder_narrow(5.0, 2)
        b = remainder_wide(5.0, 2)
        assert abs(a.value - b.value) < 1e-11

    @pytest.mark.parametrize("n", [85, 86])
    def test_order_past_the_factorial_range(self, n):
        # the tail bound's (2N-1)! is 169! at N = 85 and 171! at N = 86, past binary64;
        # taken as a float on its own it once made every N >= 86 raise RangeError
        res = remainder_narrow(30.0, n)
        assert cmath.isfinite(res.value) and math.isfinite(res.est_error)
        assert remainder_error(res.value, 30.0, n) <= res.est_error

    def test_domain(self):
        with pytest.raises(DomainError):
            remainder_narrow(2.0j, 1)  # on the boundary arg z = pi/2
        with pytest.raises(DomainError):
            remainder_narrow(2.0 * cmath.exp(0.6j * PI), 1)


class TestLogKernelCrossCheck:
    @pytest.mark.parametrize("z,n", [(3.0, 1), (5.0 + 2.0j, 2), (8.0, 3)])
    def test_matches_dilog_kernel(self, z, n):
        a = remainder_log_kernel(z, n)
        b = remainder_narrow(z, n)
        assert abs(a - b.value) < 1e-12


class TestWideKernel:
    def test_wide_sector_point(self):
        z = 2.0 * cmath.exp(0.75j * PI)
        out = remainder_wide(z, 1)
        assert out.est_error < 1e-10
        half_angle = (1.0 / math.cos(0.375 * PI)) ** 3 * abs(
            bernoulli_number(4)
        ) / 24.0 / abs(z) ** 2
        assert abs(out.value) <= half_angle

    def test_agrees_with_narrow_at_3(self):
        a = remainder_wide(3.0, 1)
        b = remainder_narrow(3.0, 1)
        assert abs(a.value - b.value) < 1e-11

    def test_conjugate_symmetry(self):
        z = 4.0 * cmath.exp(0.6j * PI)
        up = remainder_wide(z, 1)
        down = remainder_wide(z.conjugate(), 1)
        assert abs(down.value - up.value.conjugate()) < 1e-13

    def test_symmetrized_kernel_agrees(self):
        for z, n in ((3.0, 1), (2.0 * cmath.exp(0.75j * PI), 1), (5.0, 2)):
            a = remainder_symmetrized(z, n)
            b = remainder_wide(z, n)
            assert abs(a - b.value) < 1e-11

    def test_representation_agreement_random(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            r = rng.uniform(2.0, 12.0)
            theta = rng.uniform(-0.44, 0.44) * PI
            z = r * cmath.exp(1j * theta)
            n = int(rng.integers(1, 4))
            a = remainder_narrow(z, n)
            b = remainder_wide(z, n)
            assert abs(a.value - b.value) <= 1e-10

    def test_scaling_law_along_rays(self):
        # |R_N| |z|^{2N} stays bounded along each ray; the certified factors
        # provide the explicit ceiling
        for theta in (0.0, 0.6 * PI):
            for n in (1, 3):
                cap = abs(series_coefficient(n)) * (
                    1.0 if theta == 0.0 else (1.0 / math.cos(0.5 * theta)) ** (2 * n + 1)
                )
                for r in (2.0, 5.0, 12.0, 25.0, 50.0):
                    z = r * cmath.exp(1j * theta)
                    scaled = abs(remainder_wide(z, n).value) * r ** (2 * n)
                    assert scaled <= cap * (1.0 + 1e-6)

    def test_quadrature_self_consistency(self, monkeypatch):
        cases = ((3.0, 1), (2.0 * cmath.exp(0.7j * PI), 2))
        default = [remainder_wide(z, n) for z, n in cases]
        monkeypatch.setattr(oracle, "_GAUSS_ORDER", 2 * oracle._GAUSS_ORDER)
        for (z, n), a in zip(cases, default):
            b = remainder_wide(z, n)
            assert abs(a.value - b.value) < a.est_error

    def test_near_cut_accuracy_error(self):
        """Near the cut the target is out of reach at z; at Re z = -2 the shift to
        Re w >= 1 reaches it, while at Re z = -70 a shift would pass 64 steps."""
        assert math.isfinite(remainder_wide(2.0 * cmath.exp(1j * (PI - 1e-4)), 1).est_error)
        with pytest.raises(AccuracyError):
            remainder_wide(70.0 * cmath.exp(1j * (PI - 1e-4)), 1)


class TestWideTailCut:
    """The truncation point solved from the tail bound is the scan's first passing t."""

    ABS_Z = [1e-20, 1e-8, 1e-3, 0.1, 0.5, 1.0, 2.5, 7.0, 20.0, 33.3, 60.0, 61.5, 63.0,
             100.0, 1e3, 1e6, 1e10]
    ARGS = [0.0, 0.5, 1.5, 2.5, 3.0, 3.1, 3.14, PI - 1e-6, PI - 1e-9, PI - 1e-12]
    TARGETS = [oracle._TAIL_TARGET, 1e-300, 1e300, 5e-324]

    @pytest.mark.parametrize("target", TARGETS)
    def test_solved_equals_scan(self, target):
        for abs_z in self.ABS_Z:
            for arg in self.ARGS:
                sec_half = 1.0 / math.cos(0.5 * arg)
                for m_eff in range(8, 21):
                    assert (oracle._wide_t_stop(abs_z, sec_half, m_eff, target)
                            == wide_t_stop_scan(abs_z, sec_half, m_eff, target)), \
                        (abs_z, arg, m_eff)

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_settling_decides_when_the_estimate_is_off(self, monkeypatch, scale):
        """A bound 1e3 below or above the estimate makes the settling step down or up."""
        bound = oracle._wide_tail_bound
        monkeypatch.setattr(oracle, "_wide_tail_bound", lambda *args: scale * bound(*args))
        for abs_z in self.ABS_Z:
            for arg in self.ARGS:
                sec_half = 1.0 / math.cos(0.5 * arg)
                for m_eff in (8, 13, 20):
                    assert (oracle._wide_t_stop(abs_z, sec_half, m_eff, oracle._TAIL_TARGET)
                            == wide_t_stop_scan(abs_z, sec_half, m_eff, oracle._TAIL_TARGET))


class TestNarrowWeights:
    """remainder_narrow folds everything but 1/(1 + (t/z)^2) into tabulated weights."""

    def test_nodes_are_the_integrate_panels_nodes(self):
        seen = []

        def record(t):
            seen.append(t.copy())
            return np.zeros_like(t)

        integrate_panels(record, oracle._NARROW_BREAKS, oracle._GAUSS_ORDER)
        assert len(seen) == 1
        assert np.array_equal(oracle._narrow_weights(oracle._GAUSS_ORDER)[0], seen[0])

    def test_weights_hold_the_dilog_factor(self):
        t, weights, _ = oracle._narrow_weights(oracle._GAUSS_ORDER)
        assert np.array_equal(
            weights, panel_weights(oracle._NARROW_BREAKS, oracle._GAUSS_ORDER) * _dilog_exp(t))

    @pytest.mark.parametrize("n", range(1, oracle._NARROW_ROWS + 1))
    def test_rows_integrate_the_moments(self, n):
        """int_0^T t^{2n-1} Li2(e^{-2 pi t}) dt = sum_k gamma(2n, 2 pi k T) / ((2 pi k)^{2n} k^2),
        termwise from Li2(x) = sum_k x^k / k^2 (lower incomplete gamma)."""
        rows = oracle._narrow_weights(oracle._GAUSS_ORDER)[2]
        x = 2 * mp.pi * oracle._NARROW_T_STOP
        exact = float(mp.nsum(lambda k: mp.gammainc(2 * n, 0, k * x)
                              / ((2 * mp.pi * k) ** (2 * n) * k ** 2), [1, mp.inf]))
        assert rows[n - 1].sum() == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9])
    @pytest.mark.parametrize("z", [3.0, 5.0 + 2.0j, 0.3 * cmath.exp(0.4j * PI),
                                   1e-3 * cmath.exp(-0.2j * PI), 40.0 * cmath.exp(0.45j * PI)],
                             ids=repr)
    def test_agrees_with_the_per_panel_integrand(self, z, n):
        """The weights change the order of the sums, not the rule: round-off only."""
        got = remainder_narrow(z, n)
        assert abs(got.value - remainder_narrow_per_panel(z, n)) <= got.est_error


class TestWideUnitTable:
    """remainder_wide reads B_{2M+1}({t}) on unit panels from one table per order."""

    UNSHIFTED = (2.0 * cmath.exp(0.6j * PI), 1)
    # pole -z within 0.7 of [0, inf): the quadrature runs at w = z + 2
    SHIFTED = (0.3 * cmath.exp(0.9j * PI), 1)
    SHIFTED_NEAR_POLE = (complex(-0.5, 1e-3), 4)

    @pytest.mark.parametrize("m", [0, 7, 63])
    def test_weights_hold_the_periodic_factor_on_every_unit_panel(self, m):
        """Each node of [m, m+1] is m plus the matching node of [0, 1] up to about
        ulp(m+1)/2 of rounding; |B_n'| <= 2 pi max_abs_poly(n) prices that
        shift, and 1e-14 covers poly_periodic's own error and the division."""
        t = panel_nodes([float(m), float(m + 1)], oracle._GAUSS_ORDER)
        gauss = panel_weights([0.0, 1.0], oracle._GAUSS_ORDER)
        for n in range(17, 64, 2):
            table = oracle._unit_weights(n, oracle._GAUSS_ORDER) / gauss
            tol = DEFAULT_TABLE.max_abs_poly(n) * (1e-14 + PI * math.ulp(m + 1.0))
            assert np.max(np.abs(table - DEFAULT_TABLE.poly_periodic(n, t))) <= tol, n

    def test_unit_nodes_are_the_panel_nodes(self):
        nodes = oracle._unit_nodes(oracle._GAUSS_ORDER)
        assert nodes.shape == (oracle._MAX_INTERVALS, oracle._GAUSS_ORDER)
        for m in range(oracle._MAX_INTERVALS):
            assert np.array_equal(nodes[m], panel_nodes([m, m + 1], oracle._GAUSS_ORDER))

    @pytest.mark.parametrize("z,n,m", [(*UNSHIFTED, 0), (*SHIFTED, 2), (*SHIFTED_NEAR_POLE, 2)])
    def test_shift_count(self, z, n, m):
        assert oracle._wide_plan(z, max(n, 8))[0] == m

    @pytest.mark.parametrize("z,n", [UNSHIFTED, SHIFTED, SHIFTED_NEAR_POLE, (3.0, 4), (5 + 2j, 9),
                                     (1e-8j, 2)])
    def test_agrees_with_the_per_node_kernel(self, z, n):
        got = remainder_wide(z, n)
        assert abs(got.value - remainder_wide_per_node(z, n)) <= got.est_error

    @pytest.mark.parametrize("z,n", [UNSHIFTED, SHIFTED, SHIFTED_NEAR_POLE])
    def test_poly_periodic_sees_only_the_refined_nodes(self, monkeypatch, z, n):
        """Every panel is a unit panel, so no node is refined: once the table is
        filled, a fresh quadrature calls poly_periodic on no node at all."""
        remainder_wide(z, n)  # fills the table
        seen = []
        original = BernoulliTable.poly_periodic

        def record(self, order, t):
            seen.append(t.copy())
            return original(self, order, t)

        monkeypatch.setattr(BernoulliTable, "poly_periodic", record)
        oracle._wide_integral.cache_clear()  # a memo hit would run no quadrature
        remainder_wide(z, n)
        assert oracle._wide_integral.cache_info().misses == 1
        assert seen == []


def _outcome(f, *args):
    """repr of (value, est_error), or the raised type's name."""
    try:
        res = f(*args)
    except Exception as exc:  # the raised type is the outcome
        return type(exc).__name__
    return repr((res.value, res.est_error))


class TestWideIntegralMemo:
    """Every remainder_wide(z, N) with one promoted index shares one memoized
    quadrature; a hit must give exactly what a fresh quadrature gives."""

    POINTS = [complex(2.0, 0.0), complex(2.0, -0.0), complex(-0.0, 1.5), complex(0.0, 1.5),
              TestWideUnitTable.UNSHIFTED[0], TestWideUnitTable.SHIFTED[0],
              TestWideUnitTable.SHIFTED_NEAR_POLE[0], 1e-8j, 0.1j, cmath.rect(2.0, PI - 1e-7),
              cmath.rect(70.0, PI - 1e-7)]  # AccuracyError: the shift would pass 64 steps
    ORDERS = {"ascending": range(1, 9), "descending": range(8, 0, -1),
              "interleaved": (1, 8, 2, 7, 3, 6, 4, 5)}

    @staticmethod
    def calls(z, orders):
        out = [(log_barnes_oracle, z)]
        for n in orders:
            out += [(remainder_wide, z, n), (log_barnes_oracle, z)]
        return out

    @staticmethod
    def fresh(f, *args):
        oracle._wide_integral.cache_clear()
        return _outcome(f, *args)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("z", POINTS, ids=repr)
    def test_hits_equal_fresh_calls(self, z, order):
        calls = self.calls(z, self.ORDERS[order])
        expected = [self.fresh(*call) for call in calls]
        oracle._wide_integral.cache_clear()
        assert [_outcome(*call) for call in calls] == expected

    def test_points_in_turn_equal_fresh_calls(self):
        """All points in turn, so entries of different z (2 + 0j and 2 - 0j
        among them) sit in the memo together."""
        calls = [(remainder_wide, z, n) for n in range(1, 9) for z in self.POINTS]
        expected = [self.fresh(*call) for call in calls]
        oracle._wide_integral.cache_clear()
        assert [_outcome(*call) for call in calls] == expected

    @pytest.mark.parametrize("pair", [(complex(2.0, 0.0), complex(2.0, -0.0)),
                                      (complex(-0.0, 1.5), complex(0.0, 1.5))], ids=repr)
    def test_signed_zeros_are_separate_entries(self, pair):
        oracle._wide_integral.cache_clear()
        for z in pair:
            remainder_wide(z, 1)
        assert oracle._wide_integral.cache_info().misses == 2

    @pytest.mark.parametrize("z", [TestWideUnitTable.UNSHIFTED[0], TestWideUnitTable.SHIFTED[0]],
                             ids=repr)
    def test_log_barnes_oracle_shares_the_entry_of_the_first_four_orders(self, z):
        oracle._wide_integral.cache_clear()
        log_barnes_oracle(z)
        for n in range(1, 5):
            remainder_wide(z, n)
        info = oracle._wide_integral.cache_info()
        assert (info.misses, info.hits) == (1, 4)

    def test_raising_quadrature_raises_again_and_is_not_stored(self):
        """At z = 1e20 the quadrature itself overflows (t + z)^16."""
        oracle._wide_integral.cache_clear()
        for _ in range(2):
            with pytest.raises(RangeError):
                remainder_wide(1e20, 1)
        info = oracle._wide_integral.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 0, 0)

    @pytest.mark.parametrize("kernel,memo", [(remainder_wide, "_wide_integral"),
                                             (remainder_narrow, "_narrow_integral")])
    def test_memo_is_bounded(self, kernel, memo):
        for k in range(40):
            kernel(complex(2.0 + 0.1 * k, 1.0), 1)
        info = getattr(oracle, memo).cache_info()
        assert isinstance(info.maxsize, int)
        assert info.currsize <= info.maxsize


class TestNarrowIntegralMemo:
    """remainder_narrow's orders N <= 8 at one z share one memoized pass; a hit must
    give exactly what a fresh pass gives."""

    POINTS = [complex(2.0, 0.0), complex(2.0, -0.0), complex(5.0, 2.0), 0.3 * cmath.exp(0.4j * PI),
              1e-3 * cmath.exp(-0.2j * PI), 40.0 * cmath.exp(0.45j * PI),
              1e-160 * cmath.exp(0.3j * PI)]  # RangeError: 1/z^{2N} overflows
    ORDERS = {"ascending": range(1, 11), "descending": range(10, 0, -1),
              "interleaved": (1, 9, 2, 8, 3, 10, 4, 5)}

    @staticmethod
    def fresh(*args):
        oracle._narrow_integral.cache_clear()
        return _outcome(remainder_narrow, *args)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("z", POINTS, ids=repr)
    def test_hits_equal_fresh_calls(self, z, order):
        calls = [(z, n) for n in self.ORDERS[order]]
        expected = [self.fresh(*call) for call in calls]
        oracle._narrow_integral.cache_clear()
        assert [_outcome(remainder_narrow, *call) for call in calls] == expected

    def test_orders_one_to_four_make_one_miss(self):
        oracle._narrow_integral.cache_clear()
        for n in range(1, 5):
            remainder_narrow(5.0 + 2.0j, n)
        info = oracle._narrow_integral.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_signed_zeros_are_separate_entries(self):
        oracle._narrow_integral.cache_clear()
        for z in (complex(2.0, 0.0), complex(2.0, -0.0)):
            remainder_narrow(z, 1)
        assert oracle._narrow_integral.cache_info().misses == 2

    @pytest.mark.parametrize("z", [1.0, 0.5, 2.0, cmath.exp(0.3j)], ids=repr)
    def test_huge_order_raises_range_error_without_rows(self, z):
        """N = 10^300 ends in RangeError, without a RuntimeWarning and without
        building a row per order: the calls together allocate less than 1 MB."""
        signs = (1.0, math.copysign(1.0, complex(z).imag))
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(RangeError):
                    remainder_narrow(z, 10 ** 300)
                with pytest.raises(RangeError):
                    oracle._narrow_integral(complex(z), signs, 10 ** 300, oracle._GAUSS_ORDER)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


@pytest.mark.parametrize("z", [3.0, 5.0 + 2.0j, 0.3 * cmath.exp(0.9j * PI), 1e-8j], ids=repr)
def test_memo_hits_enter_no_errstate(monkeypatch, z):
    """Once both memos hold z, the kernels and log_barnes_oracle run pure Python."""
    narrow = abs(cmath.phase(z)) < 0.5 * PI
    calls = [(log_barnes_oracle, z)] + [(remainder_wide, z, n) for n in range(1, 5)]
    calls += [(remainder_narrow, z, n) for n in range(1, 5)] if narrow else []
    warm = [_outcome(*call) for call in calls]

    def no_errstate(**kwargs):
        raise AssertionError("np.errstate entered on a memo hit")

    monkeypatch.setattr(np, "errstate", no_errstate)
    assert [_outcome(*call) for call in calls] == warm


class TestKernelSignStructure:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shifted_kernel_one_signed(self, n):
        """Both shifted combinations keep one sign on the whole line.

        (-1)^N (B_{2N+2} + B_{2N+2}(frac t)) >= 0 by the Fourier form with
        1 + cos >= 0, and the kernel actually integrated, which carries
        B_{2N+2} - B_{2N+2}(frac t), is one-signed via 1 - cos >= 0.
        """
        b = bernoulli_number(2 * n + 2)
        for t in np.arange(0.0, 3.0001, 0.01):
            frac = t - math.floor(t)
            val = bernoulli_poly(2 * n + 2, frac)
            assert (-1) ** n * (b + val) >= -1e-15
            assert (-1) ** n * (b - val) >= -1e-15


class TestLogBarnesOracle:
    def test_anchor_values(self):
        assert abs(log_barnes_oracle(1.0).value) < 1e-10
        assert abs(log_barnes_oracle(2.0).value) < 1e-10
        assert abs(log_barnes_oracle(3.0).value - math.log(2.0)) < 1e-10

    def test_recurrence_products(self):
        # G(n+1) = prod_{k=1}^{n-1} k!  -- check z = 8 against log(prod k!)
        log_g9 = sum(math.lgamma(k + 1) for k in range(1, 8))
        assert log_barnes_oracle(8.0).value.real == pytest.approx(log_g9, abs=1e-10)

    @pytest.mark.parametrize("z", [6.5, 4.0 + 3.0j])
    def test_functional_equation(self, z):
        lhs = log_barnes_oracle(z).value - log_barnes_oracle(z - 1).value
        assert abs(lhs - log_gamma(z)) <= 1e-9

    def test_est_error_bound(self):
        out = log_barnes_oracle(5.0 * cmath.exp(0.5j * PI))
        assert out.est_error <= 10 * oracle._TAIL_TARGET
