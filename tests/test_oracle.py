"""Remainder oracles: kernel agreement, anchors, functional equation, tails."""

import cmath
import math

import numpy as np
import pytest

from barnesg import (
    AccuracyError,
    DomainError,
    bernoulli_number,
    log_barnes_oracle,
    log_gamma,
    remainder_narrow,
    remainder_wide,
    series_coefficient,
    truncated_log_barnes,
)
from barnesg import oracle
from barnesg.quadrature import _CHUNK_NODES, gauss_nodes, integrate_panels
from barnesg.special import _dilog_exp
from _reference import bernoulli_poly, remainder_symmetrized, wide_t_stop_scan

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
