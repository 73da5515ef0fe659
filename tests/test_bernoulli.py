"""Bernoulli table, polynomials, series coefficients, and stored constants."""

import math

import mpmath as mp
import numpy as np
import pytest

from barnesg import (
    EULER_GAMMA,
    LOG_GLAISHER,
    DomainError,
    RangeError,
    bernoulli_number,
    series_coefficient,
    zeta_even,
)
from barnesg.bernoulli import DEFAULT_TABLE, EPS
from barnesg.quadrature import geometric_breakpoints, integrate_panels, panel_nodes
from test_expansion import barnes_series_coefficient
from _reference import bernoulli_exact, bernoulli_poly

TWO_PI = 2.0 * math.pi


class TestBernoulliNumbers:
    def test_b0_is_one(self):
        assert bernoulli_number(0) == 1.0

    def test_b1_is_minus_half(self):
        assert bernoulli_number(1) == -0.5

    def test_odd_entries_vanish(self):
        for n in range(3, 63, 2):
            assert bernoulli_number(n) == 0.0

    def test_b3_is_zero(self):
        assert bernoulli_number(3) == 0.0

    def test_b4_matches_recurrence_oracle(self):
        oracle = float(bernoulli_exact(4)[4])
        assert oracle == pytest.approx(-1.0 / 30.0, rel=1e-14)
        assert bernoulli_number(4) == pytest.approx(oracle, rel=1e-14)

    def test_every_entry_is_the_correctly_rounded_rational(self):
        """The tangent-number table equals the exact convolution recurrence, rounded once."""
        exact = bernoulli_exact(64)
        assert [bernoulli_number(n) for n in range(65)] == [float(b) for b in exact]
        assert all(math.copysign(1.0, bernoulli_number(n)) == 1.0 for n in range(3, 65, 2))

    def test_sign_alternation(self):
        for n in range(1, 30):
            assert (-1) ** (n + 1) * bernoulli_number(2 * n) > 0

    def test_recurrence_residual(self):
        """|sum_k C(n+1,k) B_k| stays below 1e-12 relative to the largest summand."""
        for n in range(1, 31):
            terms = [math.comb(n + 1, k) * bernoulli_number(k) for k in range(n + 1)]
            residual = abs(sum(terms))
            scale = max(abs(t) for t in terms)
            assert residual <= 1e-12 * scale

    def test_index_beyond_table_raises(self):
        with pytest.raises(RangeError):
            bernoulli_number(65)

    def test_negative_index_raises(self):
        with pytest.raises(DomainError):
            bernoulli_number(-1)


class TestBernoulliPolynomials:
    def test_b3_at_zero(self):
        assert bernoulli_poly(3, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_b3_at_half(self):
        # odd-order polynomials vanish at 1/2 by the reflection symmetry
        assert bernoulli_poly(3, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_b2_at_quarter(self):
        # independent evaluation of x^2 - x + 1/6
        x = 0.25
        assert bernoulli_poly(2, x) == pytest.approx(x * x - x + 1.0 / 6.0, abs=1e-15)

    def test_reflection_symmetry(self):
        for n in range(0, 21):
            for x in np.linspace(0.0, 1.0, 11):
                a = bernoulli_poly(n, x)
                b = (-1) ** n * bernoulli_poly(n, 1.0 - x)
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_periodic_fourier_matches_binomial(self):
        table = DEFAULT_TABLE
        for n in (9, 10, 13, 17, 18):
            xs = np.array([0.05, 0.3, 0.5, 0.77, 0.99])
            fourier = table.poly_periodic(n, xs)
            binomial = np.array([bernoulli_poly(n, x) for x in xs])
            # absolute scale: both evaluations are exact to rounding on the
            # polynomial's amplitude, which is what matters to the kernels
            assert np.max(np.abs(fourier - binomial)) < 1e-12 * table.max_abs_poly(n)

    @pytest.mark.parametrize("n", [17, 18, 21, 33, 41])
    def test_periodic_fourier_matches_mpmath(self, n):
        """On the Gauss nodes of a first and a far panel, as the wide kernel uses them."""
        t = np.concatenate([panel_nodes([0.0, 1.0]), panel_nodes([37.0, 38.0])])
        got = DEFAULT_TABLE.poly_periodic(n, t)
        with mp.workdps(40):
            ref = [float(mp.bernpoly(n, mp.mpf(float(x)))) for x in t - np.floor(t)]
        assert np.max(np.abs(got - ref)) <= 64 * EPS * DEFAULT_TABLE.max_abs_poly(n)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_periodic_fourier_rejects_low_orders(self, n):
        # the series would need 10^{18/n} terms: 7.6 s at n = 3
        with pytest.raises(DomainError):
            DEFAULT_TABLE.poly_periodic(n, np.array([0.25]))

    def test_max_abs_poly_bounds_the_polynomial(self):
        xs = np.linspace(0.0, 1.0, 201)
        for n in range(3, 65):
            peak = max(abs(bernoulli_poly(n, x)) for x in xs)
            assert peak <= DEFAULT_TABLE.max_abs_poly(n)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_max_abs_poly_rejects_low_orders(self, n):
        # zeta(2) = 1.645 exceeds the 1.21 factor: max |B_2| = 1/6 > 0.1226
        with pytest.raises(DomainError):
            DEFAULT_TABLE.max_abs_poly(n)

    def test_periodic_fourier_periodicity(self):
        table = DEFAULT_TABLE
        xs = np.array([0.2, 0.6])
        np.testing.assert_allclose(
            table.poly_periodic(9, xs), table.poly_periodic(9, xs + 3.0), rtol=1e-13
        )


class TestSeriesCoefficients:
    def test_first_coefficient(self):
        # oracle: B_4 from the recurrence divided by 2*3*4
        b4 = float(bernoulli_exact(4)[4])
        assert series_coefficient(1) == pytest.approx(b4 / 24.0, rel=1e-14)
        assert series_coefficient(1) == pytest.approx(-1.0 / 720.0, rel=1e-13)

    def test_second_coefficient(self):
        b6 = float(bernoulli_exact(6)[6])
        assert b6 == pytest.approx(1.0 / 42.0, rel=1e-13)
        assert series_coefficient(2) == pytest.approx(b6 / 120.0, rel=1e-14)
        assert series_coefficient(2) == pytest.approx(1.0 / 5040.0, rel=1e-13)

    def test_signs_alternate_starting_negative(self):
        signs = [math.copysign(1.0, series_coefficient(n)) for n in range(1, 12)]
        assert signs == [(-1.0) ** n for n in range(1, 12)]

    def test_barnes_coefficient(self):
        # composing the expansion with the log-Gamma series: B_4/(2*4) = -1/240
        assert barnes_series_coefficient(1) == pytest.approx(-1.0 / 240.0, rel=1e-13)

    def test_index_zero_rejected(self):
        with pytest.raises(DomainError):
            series_coefficient(0)


class TestConstants:
    def test_log_glaisher_digits(self):
        # the displayed reference truncates after 8 decimals
        assert abs(LOG_GLAISHER - 0.24875447) < 1e-8

    def test_euler_gamma_digits(self):
        assert abs(EULER_GAMMA - 0.57721566) < 1e-8
        assert EULER_GAMMA == pytest.approx(float(np.euler_gamma), abs=1e-16)

    def test_zeta_even_values(self):
        assert zeta_even(2) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-15)
        assert zeta_even(4) == pytest.approx(math.pi ** 4 / 90.0, rel=1e-15)
        assert zeta_even(6) == pytest.approx(math.pi ** 6 / 945.0, rel=1e-14)


class TestIntegralIdentity:
    """B_{2n+2}/((2n+1)(2n+2)) equals the log-kernel moment integral."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_moment_integral(self, n):
        breaks = geometric_breakpoints(smallest_exp=-40)
        breaks.extend(float(m) for m in range(2, 9))

        def integrand(t):
            out = np.zeros_like(t)
            pos = t > 0
            out[pos] = t[pos] ** (2 * n) * np.log(-np.expm1(-TWO_PI * t[pos]))
            return out

        integral, _ = integrate_panels(integrand, breaks)
        lhs = bernoulli_number(2 * n + 2) / ((2 * n + 1) * (2 * n + 2))
        rhs = (-1) ** (n + 1) / math.pi * integral.real
        assert abs(lhs - rhs) < 1e-10
