"""Remainder oracles: kernel agreement, anchors, functional equation, tails."""

import cmath
import math
import random

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
from barnesg.quadrature import _CHUNK_NODES, gauss_nodes, integrate_panels, panel_nodes
from barnesg.special import _dilog_exp
from _reference import (bernoulli_poly, remainder_symmetrized, remainder_wide_per_node,
                        wide_breakpoints_every_panel, wide_t_stop_scan)

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
        with pytest.raises(AccuracyError):
            remainder_wide(2.0 * cmath.exp(1j * (PI - 1e-4)), 1)


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


class TestNarrowDilogTable:
    def test_narrow_nodes_fit_one_chunk(self):
        assert (len(oracle._NARROW_BREAKS) - 1) * oracle._GAUSS_ORDER <= _CHUNK_NODES

    def test_table_is_dilog_at_the_integrand_nodes(self):
        seen = []

        def record(t):
            seen.append(t.copy())
            return np.zeros_like(t)

        integrate_panels(record, oracle._NARROW_BREAKS, oracle._GAUSS_ORDER)
        assert len(seen) == 1
        table = oracle._narrow_dilog()
        assert table.shape == seen[0].shape
        assert np.array_equal(table, _dilog_exp(seen[0]))


class TestWideUnitTable:
    """remainder_wide reads B_{2M+1}({t}) on unit panels from one table per order."""

    UNREFINED = (2.0 * cmath.exp(0.6j * PI), 1)
    REFINED = (0.3 * cmath.exp(0.9j * PI), 1)
    # pole 1e-3 off the axis: 256 sub-panels, more than one integrate_panels chunk
    CHUNKED = (complex(-0.5, 1e-3), 4)

    @pytest.mark.parametrize("m", [0, 7, 63])
    def test_table_is_the_periodic_factor_on_every_unit_panel(self, m):
        """Each node of [m, m+1] is m plus the matching node of [0, 1] up to about
        ulp(m+1)/2 of rounding; |B_n'| <= 2 pi max_abs_poly(n) prices that
        shift, and 1e-14 covers poly_periodic's own error."""
        t = panel_nodes([float(m), float(m + 1)], oracle._GAUSS_ORDER)
        for n in range(17, 64, 2):
            table = oracle._unit_periodic(n, oracle._GAUSS_ORDER)
            tol = DEFAULT_TABLE.max_abs_poly(n) * (1e-14 + PI * math.ulp(m + 1.0))
            assert np.max(np.abs(table - DEFAULT_TABLE.poly_periodic(n, t))) <= tol, n

    def test_chunked_point_spans_chunks(self):
        z, n = self.CHUNKED
        breaks = oracle._wide_breakpoints(oracle._wide_truncation(z, n)[1], z)
        assert np.sum(np.diff(breaks) < 1.0) * oracle._GAUSS_ORDER > _CHUNK_NODES

    @pytest.mark.parametrize("z,n", [UNREFINED, REFINED, CHUNKED])
    def test_agrees_with_the_per_node_kernel(self, z, n):
        got = remainder_wide(z, n)
        assert abs(got.value - remainder_wide_per_node(z, n)) <= got.est_error

    @pytest.mark.parametrize("z,n", [UNREFINED, REFINED, CHUNKED])
    def test_poly_periodic_sees_only_the_refined_nodes(self, monkeypatch, z, n):
        remainder_wide(z, n)  # fills the table
        seen = []
        original = BernoulliTable.poly_periodic

        def record(self, order, t):
            seen.append(t.copy())
            return original(self, order, t)

        monkeypatch.setattr(BernoulliTable, "poly_periodic", record)
        oracle._wide_integral.cache_clear()  # a memo hit would run no quadrature
        remainder_wide(z, n)
        breaks = oracle._wide_breakpoints(oracle._wide_truncation(z, n)[1], z)
        fine = [breaks[i:i + 2] for i in np.flatnonzero(np.diff(breaks) < 1.0)]
        if not fine:
            assert seen == []
            return
        expected = np.concatenate([panel_nodes(bp, oracle._GAUSS_ORDER) for bp in fine])
        assert np.array_equal(np.concatenate(seen), expected)


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
              TestWideUnitTable.UNREFINED[0], TestWideUnitTable.REFINED[0],
              TestWideUnitTable.CHUNKED[0], 1e-8j, 0.1j,
              cmath.rect(2.0, PI - 1e-7)]  # AccuracyError below N = 8
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

    def test_raising_quadrature_raises_again_and_is_not_stored(self):
        """At z = 1e20 the quadrature itself overflows (t + z)^16."""
        oracle._wide_integral.cache_clear()
        for _ in range(2):
            with pytest.raises(RangeError):
                remainder_wide(1e20, 1)
        info = oracle._wide_integral.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 0, 0)

    def test_memo_is_bounded(self):
        for k in range(40):
            remainder_wide(complex(2.0 + 0.1 * k, 1.0), 1)
        info = oracle._wide_integral.cache_info()
        assert isinstance(info.maxsize, int)
        assert info.currsize <= info.maxsize


def test_breakpoints_equal_the_every_panel_loop():
    """Testing only the panels next to the pole gives the every-panel loop's
    breakpoints, also with the pole on a panel end or 0.27 +- 1 ulp away."""
    rng = random.Random(1619)
    gaps = [0.27, math.nextafter(0.27, 0.0), math.nextafter(0.27, 1.0)]
    for _ in range(20_000):
        t_stop = rng.randint(2, oracle._MAX_INTERVALS)
        kind = rng.randrange(4)
        if kind == 0:  # anywhere near [0, T]
            pole = complex(rng.uniform(-1.5, t_stop + 1.5), rng.uniform(-0.6, 0.6))
        elif kind == 1:  # on a panel end
            pole = complex(rng.randint(-1, t_stop + 1), rng.choice([0.0, 1e-4, *gaps, 0.5]))
        elif kind == 2:  # straight above a panel, 0.27 +- 1 ulp off the axis
            pole = complex(rng.uniform(0.0, t_stop), rng.choice(gaps) * rng.choice((1, -1)))
        else:  # beside a panel end on the axis, 0.27 +- 1 ulp away
            end = rng.randint(0, t_stop)
            pole = complex(end + rng.choice(gaps) * rng.choice((1, -1)), 0.0)
        z = -pole
        assert oracle._wide_breakpoints(t_stop, z) == wide_breakpoints_every_panel(t_stop, z), \
            (t_stop, z)


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
