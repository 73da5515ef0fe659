"""Scalar special-function kernels against independent oracles."""

import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp

from barnesg import (
    DomainError,
    RangeError,
    erf_small,
    exp_integral_e1,
    log_gamma,
)
from barnesg import special
from barnesg.bernoulli import EPS, TWO_PI
from barnesg.oracle import _GAUSS_ORDER, _NARROW_BREAKS
from barnesg.quadrature import gauss_nodes, panel_nodes
from barnesg.special import _dilog_exp, _li2


class TestLogGamma:
    def test_at_one(self):
        assert abs(log_gamma(1.0)) < 1e-14

    def test_at_five(self):
        assert log_gamma(5.0).real == pytest.approx(math.log(24.0), rel=1e-14)

    def test_at_half(self):
        assert log_gamma(0.5).real == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_recurrence_grid(self):
        """log Gamma(z+1) = log z + log Gamma(z) to 1e-12 relative."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            r = rng.uniform(1.0, 30.0)
            th = rng.uniform(-0.9, 0.9) * math.pi
            z = r * cmath.exp(1j * th)
            lhs = log_gamma(z + 1.0)
            rhs = cmath.log(z) + log_gamma(z)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_against_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            r = rng.uniform(0.5, 40.0)
            th = rng.uniform(-0.95, 0.95) * math.pi
            z = r * cmath.exp(1j * th)
            ours = log_gamma(z)
            ref = sp.loggamma(z)
            assert abs(ours - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_pole_raises(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-2.0)


class TestDilog:
    def test_at_zero(self):
        assert _li2(np.array([0.0]))[0] == 0.0

    def test_at_one(self):
        assert _li2(np.array([1.0]))[0] == pytest.approx(math.pi ** 2 / 6.0, rel=1e-15)

    def test_at_half_series_oracle(self):
        # oracle: sum the defining series directly at x = 1/2 to 1e-15
        x, total, power, n = 0.5, 0.0, 0.5, 1
        while power / (n * n) > 1e-18:
            total += power / (n * n)
            n += 1
            power *= x
        half = _li2(np.array([0.5]))[0]
        assert half == pytest.approx(total, abs=1e-14)
        closed = math.pi ** 2 / 12.0 - 0.5 * math.log(2.0) ** 2
        assert half == pytest.approx(closed, abs=1e-14)

    def test_euler_reflection(self):
        xs = np.arange(0.1, 0.95, 0.1)
        lhs = _li2(xs) + _li2(1.0 - xs)
        rhs = math.pi ** 2 / 6.0 - np.log(xs) * np.log(1.0 - xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_against_scipy_spence(self):
        xs = np.linspace(0.001, 0.999, 101)
        assert np.max(np.abs(_li2(xs) - sp.spence(1.0 - xs))) < 5e-15


def _narrow_nodes():
    """Every quadrature node t of the dilog-kernel remainder oracle."""
    return panel_nodes(_NARROW_BREAKS, _GAUSS_ORDER)


def _li2_ref(x):
    with mp.workdps(40):
        return float(mp.polylog(2, mp.mpf(x)))


class TestLi2Kernel:
    """The vectorised Li2 kernel behind _dilog_exp, against mpmath."""

    EDGES = [2.0 ** -1074, 0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0),
             1.0 - 2.0 ** -53]

    def test_dilog_exp_on_the_narrow_nodes(self):
        t = _narrow_nodes()
        got = _dilog_exp(t)
        with mp.workdps(40):
            ref = [float(mp.polylog(2, mp.exp(-2 * mp.pi * mp.mpf(ti)))) for ti in t]
        assert np.max(np.abs(got - ref)) <= 1e-15

    def test_dilog_on_the_narrow_node_arguments_and_edges(self):
        xs = [float(x) for x in np.exp(-TWO_PI * _narrow_nodes())] + self.EDGES
        worst = max(abs(_li2(np.array([x]))[0] - _li2_ref(x)) for x in xs)
        assert worst <= 1e-15

    def test_endpoints_are_exact_and_quiet(self, recwarn):
        assert _li2(np.array([0.0]))[0] == 0.0
        assert _li2(np.array([1.0]))[0] == math.pi ** 2 / 6.0
        assert _dilog_exp(np.array([0.0]))[0] == math.pi ** 2 / 6.0
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def e1_series_oracle(w):
    """Independent oracle: E1(w) = -gamma - log w + sum (-1)^{k+1} w^k/(k k!)."""
    total = 0.0
    term = 1.0
    for k in range(1, 60):
        term *= w / k
        total += (-1) ** (k + 1) * term / k
    return -float(np.euler_gamma) - math.log(w) + total


class TestExpIntegral:
    def test_at_one_series_oracle(self):
        oracle = e1_series_oracle(1.0)
        assert exp_integral_e1(1.0).real == pytest.approx(oracle, abs=1e-15)
        assert exp_integral_e1(1.0).real == pytest.approx(0.2193839344, abs=1e-10)

    def test_asymptotic_product_at_50(self):
        # w e^w E1(w) = 1 - 1/w + 2/w^2 - ...; at w=50 the product sits within
        # 2e-2 of 1 (the 1/w term dominates the gap)
        w = 50.0
        product = w * math.exp(w) * exp_integral_e1(w).real
        assert abs(product - 1.0) < 2.0e-2
        assert abs(product - 1.0) > 1.5e-2  # the gap really is ~1/50

    def test_conjugation(self):
        w = 2.0 + 3.0j
        assert exp_integral_e1(w.conjugate()) == pytest.approx(
            exp_integral_e1(w).conjugate(), rel=1e-13
        )

    def test_against_scipy_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            r = rng.uniform(0.1, 60.0)
            th = rng.uniform(-0.97, 0.97) * math.pi
            w = r * cmath.exp(1j * th)
            ours = exp_integral_e1(w)
            ref = sp.exp1(complex(w))
            assert abs(ours - ref) <= 1e-12 * abs(ref)

    def test_quadrature_oracle(self):
        # independent oracle: E1(w) = e^{-w} int_0^inf e^{-u}/(u+w) du
        x, wts = gauss_nodes(32)
        for w in (1.5, 4.0, 6.0 + 1.0j, 12.0 * cmath.exp(0.6j)):
            total = 0.0
            for a in range(0, 80):
                u = a + 0.5 * (x + 1.0)
                total += 0.5 * np.sum(wts * np.exp(-u) / (u + w))
            oracle = cmath.exp(-complex(w)) * total
            assert abs(exp_integral_e1(w) - oracle) <= 1e-12 * abs(oracle)

    @pytest.mark.parametrize("w", [-709.5 + 1j, -700 + 60j, -715 + 1j, -716 + 3j], ids=repr)
    def test_near_the_negative_axis_where_e_to_the_minus_w_overflows(self, w):
        # past |w| = 40 E1 near the negative axis is the scaled asymptotic value
        # times e^{-w}; from Re w = -709.8 e^{-w} overflows, and the log form
        # exp(-w + log(e^{w} E1)) gives E1, which still fits in binary64
        with mp.workdps(30):
            ref = mp.e1(mp.mpc(w))
            assert abs(mp.mpc(exp_integral_e1(w)) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("w", [-715 + 1j, -710 + 100j], ids=repr)
    def test_one_kernel_call_where_e_to_the_minus_w_overflows(self, monkeypatch, w):
        # E1 = exp(log h - w) there, from the one h = e^{w} E1(w) already computed
        calls = []
        kernel = special._e1_scaled_continued

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(special, "_e1_scaled_continued", counted)
        exp_integral_e1(w)
        assert len(calls) == 1

    def test_continued_fraction_converges_at_huge_modulus(self):
        # from |w| ~ 3e16 the Lentz step delta can stay at 1 - 2^-53, half an ulp from 1,
        # for every step; a stop test below an ulp then raised AccuracyError
        rng = random.Random(34)
        for _ in range(2000):
            w = cmath.rect(10.0 ** rng.uniform(1.5, 300.0), rng.uniform(-0.75, 0.75) * math.pi)
            special._e1_scaled_continued(w, cmath.phase(w))
        assert cmath.isfinite(exp_integral_e1(6.283e150j))  # the public entry raised there too

    @pytest.mark.parametrize("w", [6.283e150j, 1e17, 3e40 * cmath.exp(-2j),
                                   1e300 * cmath.exp(0.7j)], ids=repr)
    def test_scaled_value_at_huge_modulus(self, w):
        # e^w E1(w) = 1/w (1 - 1/w + 2/w^2 - ...), and the terms left out are below eps
        h, _ = special._e1_scaled_continued(w, cmath.phase(w))
        winv = 1.0 / w
        assert abs(h - winv * (1.0 - winv + 2.0 * winv * winv)) <= 4.0 * EPS * abs(winv)

    def test_past_binary64_raises(self):
        with pytest.raises(RangeError):  # |E1(-800 + i)| ~ e^800 / 800
            exp_integral_e1(-800 + 1j)

    def test_domain(self):
        with pytest.raises(DomainError):
            exp_integral_e1(0.0)
        with pytest.raises(DomainError):
            exp_integral_e1(-3.0)


class TestEinKernel:
    """_ein's tabulated Horner kernel, and E1 around it, against mpmath."""

    def test_tables(self):
        # K(r): the smallest K > r whose term r^K/(K K!) is below 1e-18, the first one
        # omitted, monotone in r; each coefficient within a few ulps of (-1)^{k+1}/(k k!)
        counts, coeffs = special._EIN_TERMS, special._EIN_COEFFS[::-1]
        assert len(counts) == special._EIN_MAX + 1
        assert list(counts) == sorted(counts) and len(coeffs) == counts[-1] - 1

        def term(r, k):
            return Fraction(r) ** k / (k * math.factorial(k))

        for r, k in enumerate(counts):
            assert k > r and term(r, k) < Fraction(1e-18)
            assert k == r + 1 or term(r, k - 1) >= Fraction(1e-18)
        for k, c in enumerate(coeffs, start=1):
            exact = Fraction((-1) ** (k + 1), k * math.factorial(k))
            assert abs(Fraction(c) - exact) <= 8 * 2.0 ** -53 * abs(exact)

    @staticmethod
    def _grid():
        rng = random.Random(1618)
        grid = []
        for _ in range(2000):
            r = 1e-3 * 4e4 ** rng.random()  # |w| in [1e-3, 40]
            grid.append(r * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
        for _ in range(1000):  # near the negative axis, where the terms do not alternate
            r = 1e-3 * 4e4 ** rng.random()
            gap = 1e-12 * 3e11 ** rng.random()  # pi - |arg w| in [1e-12, 0.3]
            grid.append(r * cmath.exp(1j * rng.choice((1, -1)) * (math.pi - gap)))
        for i in range(19):  # |w| in [4, 40] x pi - |arg w| in [1e-3, 0.9], both signs
            r = 4.0 * 10.0 ** (i / 18)
            for gap in (1e-3, 3e-3, 0.01, 0.03, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9):
                grid += [r * cmath.exp(1j * s * (math.pi - gap)) for s in (1, -1)]
        for i in range(12):  # |w| in (40, 700] x pi - |arg w| in [1e-6, pi/4], both signs
            r = 40.0 * 17.5 ** ((i + 1) / 12)
            for gap in (1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.5, 0.7, math.pi / 4):
                grid += [r * cmath.exp(1j * s * (math.pi - gap)) for s in (1, -1)]
        for r in (1e-3, 0.5, 1.0, 4.0, 12.0, 31.999, 32.0, 40.0):  # on the axes, signed zeros
            grid += [complex(r, 0.0), complex(-r, 0.0), complex(-r, -0.0),
                     complex(0.0, r), complex(-0.0, -r)]
        return grid

    @pytest.fixture(scope="class")
    def references(self):
        refs = []
        with mp.workdps(30):
            for w in self._grid():
                ref = mp.e1(mp.mpc(w))
                # mpmath reads -r - 0i as -r + 0i, at arg pi; at arg -pi E1 is the conjugate
                refs.append((w, mp.conj(ref) if math.atan2(w.imag, w.real) == -math.pi else ref))
        return refs

    @pytest.mark.parametrize("scaled", [False, True], ids=["e1", "scaled"])
    def test_error_within_the_estimate(self, references, scaled):
        """_e1_continued and _e1_scaled_continued on |w| <= 40, where Ein serves
        near the negative axis, and past it up to |w| = 700, where the asymptotic
        series omits the Stokes term: mpmath's error is at most the returned estimate."""
        fn = special._e1_scaled_continued if scaled else special._e1_continued
        worst = 0.0
        with mp.workdps(30):
            for w, ref in references:
                if scaled:
                    ref *= mp.exp(mp.mpc(w))
                value, rel = fn(w, math.atan2(w.imag, w.real))
                worst = max(worst, float(abs(mp.mpc(value) - ref) / abs(ref)) / rel)
        assert worst <= 1.0

    def test_handoff_past_forty(self):
        # |w| > 40 near the negative axis leaves Ein for the asymptotic branch
        worst = 0.0
        with mp.workdps(30):
            for i in range(65):
                r = 32.0 + 16.0 * (i + 0.5) / 65  # 32 < |w| <= 48
                for gap in (1e-6, 1e-3, 0.01, 0.1, 0.3, 0.6, 1.0):
                    for s in (1, -1):
                        w = r * cmath.exp(1j * s * (math.pi - gap))
                        ref = mp.e1(mp.mpc(w))
                        worst = max(worst, abs(mp.mpc(exp_integral_e1(w)) - ref) / abs(ref))
        assert worst <= 1e-12


def erf_path_oracle(zeta, order=48, panels=8):
    """Independent oracle: (2/sqrt(pi)) int_0^zeta e^{-t^2} dt on a straight path."""
    x, wts = gauss_nodes(order)
    total = 0.0j
    for j in range(panels):
        lo, hi = j / panels, (j + 1) / panels
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        s = mid + half * x
        total += half * np.sum(wts * np.exp(-(s * zeta) ** 2))
    return 2.0 / math.sqrt(math.pi) * total * zeta


class TestErfSmall:
    def test_at_zero(self):
        assert erf_small(0.0) == 0.0

    def test_at_one_quadrature_oracle(self):
        oracle = erf_path_oracle(1.0)
        assert erf_small(1.0).real == pytest.approx(oracle.real, abs=1e-13)
        assert erf_small(1.0).real == pytest.approx(0.8427007929, abs=1e-10)

    def test_oddness(self):
        z = 0.3 + 0.2j
        assert erf_small(-z) == pytest.approx(-erf_small(z), rel=1e-14)

    def test_random_against_path_quadrature(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            r = rng.uniform(0.05, 3.0)
            th = rng.uniform(-math.pi, math.pi)
            zeta = r * cmath.exp(1j * th)
            assert abs(erf_small(zeta) - erf_path_oracle(zeta)) < 1e-10

    def test_shell_region_against_scipy(self):
        for zeta in (3.5, 4.0, 2.4 + 3.2j, 4.0j, 3.9 * cmath.exp(0.7j)):
            ours = erf_small(zeta)
            ref = sp.erf(complex(zeta))
            assert abs(ours - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_range_error(self):
        with pytest.raises(RangeError):
            erf_small(4.5)

    def test_shell_against_mpmath(self):
        """2.5 <= |zeta| <= 4 on a 41 x 361 polar grid: the series for |Re zeta| <= 1.5,
        the continued fraction for erfc beyond."""
        worst = 0.0
        for i in range(41):
            r = 2.5 + 1.5 * i / 40
            for j in range(361):
                zeta = r * cmath.exp(1j * (-math.pi + j * math.pi / 180))
                ref = complex(mp.erf(mp.mpc(zeta.real, zeta.imag)))
                worst = max(worst, abs(erf_small(zeta) - ref) / max(1.0, abs(ref)))
        assert worst <= 1e-13

    # erf_small on |zeta| <= 2.5, printed by the Maclaurin loop with its relative stop
    # |add| <= 2^-53 |sum|; each value lies within 1e-14 max(1, |erf|) of mpmath
    SERIES_BITS = [
        (0j, 0j),
        (1e-300j, 1.1283791670955126e-300j),
        ((0.1+0j), (0.1124629160182849+0j)),
        ((-0.3+0.2j), (-0.34123748147213856+0.2085288378827689j)),
        ((1+0j), (0.8427007929497148+0j)),
        (1j, 1.6504257587975424j),
        ((1.2-0.7j), (1.0663700129803377-0.12024336401600978j)),
        ((-1.9+0.4j), (-1.0010133313322285+0.008290159860182956j)),
        ((2+1.4j), (0.9713149952686856-0.004019581318358296j)),
        ((1.5+1.9j), (0.11469904093055215+0.21194451191453295j)),
        ((-0.8-2.3j), (2.329892691331323+25.55586573797967j)),
        ((2.5+0j), (0.99959304798256+0j)),
        ((-2.5+0j), (-0.99959304798256+0j)),
        (2.5j, 130.39575501324694j),
        ((1.9121054682112213+1.6105442180942275j), (0.933403902260471+0.03685000467314537j)),
        ((-1.4712527931383645-2.0212410095489752j), (0.34477321934108823-0.7806547205781174j)),
        ((1.7674+1.7674j), (0.826069699546215+0.13903422753758432j)),
    ]

    @pytest.mark.parametrize("zeta,value", SERIES_BITS)
    def test_series_disc_keeps_its_bits(self, zeta, value):
        assert repr(erf_small(zeta)) == repr(value)
        with mp.workdps(30):
            ref = complex(mp.erf(mp.mpc(zeta)))
        assert abs(value - ref) <= 1e-14 * max(1.0, abs(ref))
