"""Acceptance gate: the binding criteria, one test each, at stated tolerances.

Each test prints a single PASS line on success (run pytest -s to see them);
failures carry the offending values.  Runtime ceilings are asserted where
the criterion states one.
"""

import cmath
import math
import time

import numpy as np
import pytest

from barnesg import (
    LOG_GLAISHER,
    EULER_GAMMA,
    TerminantMethod,
    TruncationScheme,
    bernoulli_number,
    best_bound,
    exp_improved_report,
    family_bounds,
    log_barnes_oracle,
    log_gamma,
    remainder_wide,
    series_coefficient,
    solve_optimal_angle,
    stokes_profile,
    terminant,
    truncated_log_barnes,
)
from barnesg.quadrature import geometric_breakpoints, integrate_panels
from _reference import terminant_quadrature

PI = math.pi
TWO_PI = 2.0 * math.pi


def report(name: str, detail: str = "") -> None:
    print(f"PASS {name}" + (f": {detail}" if detail else ""))


def test_criterion_01_exact_value_anchors():
    """G(2) = G(3) = 1 and G(4) = 2 via the functional equation."""
    start = time.monotonic()
    targets = {1.0: 0.0, 2.0: 0.0, 3.0: math.log(2.0)}
    worst = 0.0
    for z, target in targets.items():
        got = log_barnes_oracle(z).value
        worst = max(worst, abs(got - target))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10, f"anchor error {worst:.3e}"
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
    report("criterion 1 (exact-value anchors)", f"max err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_functional_equation_sweep():
    """log G(z+1) - log G(z) = log Gamma(z) on 25 sector points."""
    start = time.monotonic()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(25):
        r = float(rng.uniform(2.0, 10.0))
        theta = float(rng.uniform(-0.7, 0.7)) * PI
        z = r * cmath.exp(1j * theta)
        resid = (
            log_barnes_oracle(z).value
            - log_barnes_oracle(z - 1.0).value
            - log_gamma(z)
        )
        worst = max(worst, abs(resid))
    elapsed = time.monotonic() - start
    assert worst <= 1e-9, f"functional-equation residual {worst:.3e}"
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s"
    report("criterion 2 (functional equation)", f"max resid {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_bound_validity():
    """Oracle |R_N| never exceeds any applicable certified bound (slack 1e-10)."""
    start = time.monotonic()
    angles = [0.0]
    for a in (PI / 6, PI / 4, 0.45 * PI, 0.5 * PI, 0.6 * PI, 0.8 * PI):
        angles.extend((a, -a))
    checks = violations = 0
    min_ratio = math.inf
    for r in (2.0, 5.0, 10.0):
        for theta in angles:
            z = r * cmath.exp(1j * theta)
            for n in range(1, 7):
                oracle = remainder_wide(z, n)
                abs_rn = abs(oracle.value)
                slack = 1e-10 + oracle.est_error
                for bound in (r.bound for r in family_bounds(z, n).values()):
                    checks += 1
                    min_ratio = min(min_ratio, bound / max(abs_rn, 1e-300))
                    if abs_rn > bound + slack:
                        violations += 1
    elapsed = time.monotonic() - start
    assert violations == 0, f"{violations} bound violations out of {checks}"
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s"
    report(
        "criterion 3 (bound validity)",
        f"{checks} checks, 0 violations, min bound/|R_N| = {min_ratio:.6f}, {elapsed:.1f}s",
    )


def test_criterion_04_positive_axis_sign_and_majorization():
    """On z > 0, R_N carries the sign of B_{2N+2} and is strictly smaller."""
    for z in (1.5, 2.0, 5.0, 10.0, 50.0):
        for n in range(1, 7):
            value = remainder_wide(z, n).value
            first = series_coefficient(n) / z ** (2 * n)
            assert abs(value.imag) <= 1e-14 * max(1.0, abs(value.real))
            assert math.copysign(1.0, value.real) == math.copysign(
                1.0, bernoulli_number(2 * n + 2)
            ), f"sign flip at z={z}, N={n}"
            assert abs(value) < abs(first), f"majorization fails at z={z}, N={n}"
    report("criterion 4 (sign and majorization on the positive axis)")


def test_criterion_05_optimal_angle_correctness():
    """Closed form at arg z = pi/2 and implicit-equation residuals elsewhere."""
    for n in range(1, 11):
        got = solve_optimal_angle(PI / 2, n)
        want = math.atan(1.0 / math.sqrt(2 * n + 2))
        assert abs(got - want) <= 1e-12, f"N={n}: {got} vs {want}"
    worst = 0.0
    for theta in np.linspace(0.26 * PI, 0.99 * PI, 40):
        for sign in (1.0, -1.0):
            for n in range(1, 11):
                phi = solve_optimal_angle(sign * theta, n)
                resid = (2 * n + 3) * math.cos(3 * phi - 2 * sign * theta) - (
                    2 * n - 1
                ) * math.cos(phi - 2 * sign * theta)
                worst = max(worst, abs(resid))
    assert worst <= 1e-12, f"implicit-equation residual {worst:.3e}"
    report("criterion 5 (optimal angle)", f"max residual {worst:.2e}")


def test_criterion_06_exact_expansion_identity():
    """The improved expansion is an identity: uniform orders reproduce the
    oracle, and the order sequence does not matter."""
    uniform = TruncationScheme.uniform(2, k_max=40)
    for z in (
        2.0 * cmath.exp(0.3j * PI),
        2.5 * cmath.exp(0.55j * PI),
        3.0 * cmath.exp(-0.5j * PI),
    ):
        oracle = log_barnes_oracle(z)
        value = exp_improved_report(z, uniform)[0]
        assert abs(value - oracle.value) <= 1e-9 + oracle.est_error, (
            f"z={z}: {abs(value - oracle.value):.3e}"
        )
    a = exp_improved_report(2.5, TruncationScheme.optimal(k_max=20))[0]
    b = exp_improved_report(2.5, TruncationScheme.uniform(3, k_max=20))[0]
    assert abs(a - b) <= 1e-9, f"scheme dependence {abs(a - b):.3e}"
    report("criterion 6 (expansion identity)", f"scheme gap {abs(a - b):.2e}")


def test_criterion_07_exponential_improvement_on_stokes_line():
    """At z = 2.5i the improved evaluation beats the optimally truncated
    plain series by at least a factor of ten."""
    z = 2.5j
    oracle = log_barnes_oracle(z)
    hyper_err = abs(
        exp_improved_report(z, TruncationScheme.optimal(5))[0] - oracle.value
    )
    plain_err = min(
        abs(truncated_log_barnes(z, n) - oracle.value) for n in range(1, 21)
    )
    # the plain floor is the half-switched subdominant exponential, of order
    # e^{-5 pi}/(4 pi) ~ 1.2e-8
    assert plain_err == pytest.approx(math.exp(-5 * PI) / (4 * PI), rel=0.5)
    assert hyper_err <= plain_err / 10.0, (
        f"hyper {hyper_err:.3e} vs plain/10 {plain_err / 10:.3e}"
    )
    report(
        "criterion 7 (exponential improvement)",
        f"hyper {hyper_err:.2e} vs plain {plain_err:.2e}",
    )


def test_criterion_08_berry_smoothing():
    """Normalized multiplier tracks erf((theta - pi/2) sqrt(pi |z|)) to 0.05."""
    start = time.monotonic()
    thetas = np.linspace(PI / 2 - 0.5, PI / 2 + 0.5, 51)
    profile = stokes_profile(3.0, 1, thetas)
    worst = max(
        abs(s.normalized_multiplier - s.normalized_prediction) for s in profile
    )
    mid = profile[25].normalized_multiplier
    elapsed = time.monotonic() - start
    assert worst <= 0.05, f"max deviation {worst:.4f}"
    assert abs(mid - 0.5) <= 0.05, f"midpoint {mid}"
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s"
    report(
        "criterion 8 (Berry smoothing)",
        f"max dev {worst:.4f}, midpoint {abs(mid - 0.5):.4f} from 1/2, {elapsed:.1f}s",
    )


def test_criterion_09_terminant_dual_path_agreement():
    """Recurrence and direct quadrature agree to 1e-9 on 20 random points."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        p = int(rng.integers(1, 16))
        r = float(rng.uniform(5.0, 30.0))
        phase = float(rng.uniform(-0.8, 0.8)) * PI
        w = r * cmath.exp(1j * phase)
        a = terminant(p, w, method=TerminantMethod.GAMMA_RECURRENCE)
        b, _ = terminant_quadrature(p, w)
        worst = max(worst, abs(a.value - b))
    assert worst <= 1e-9, f"dual-path disagreement {worst:.3e}"
    report("criterion 9 (dual-path terminant)", f"max gap {worst:.2e}")


def test_criterion_10_bernoulli_and_constant_checks():
    """Moment-integral identity and the zeta'(2) form of log A by quadrature."""
    # B_{2n+2}/((2n+1)(2n+2)) = (-1)^{n+1}/pi int t^{2n} log(1-e^{-2 pi t}) dt
    for n in (1, 2, 3):
        breaks = geometric_breakpoints(smallest_exp=-40)
        breaks.extend(float(m) for m in range(2, 9))

        def integrand(t, n=n):
            out = np.zeros_like(t)
            pos = t > 0
            out[pos] = t[pos] ** (2 * n) * np.log(-np.expm1(-TWO_PI * t[pos]))
            return out

        integral, _ = integrate_panels(integrand, breaks)
        lhs = bernoulli_number(2 * n + 2) / ((2 * n + 1) * (2 * n + 2))
        rhs = (-1) ** (n + 1) / PI * integral.real
        assert abs(lhs - rhs) <= 1e-10, f"moment identity n={n}: {abs(lhs - rhs):.3e}"

    # stored log A against (gamma + log 2 pi)/12 - zeta'(2)/(2 pi^2), with
    # zeta'(2) from an independent quadrature:
    #   int_0^inf t ln t / (e^{2 pi t} - 1) dt
    #     = (zeta(2(1 - gamma - ln 2 pi) + zeta'(2)) / (4 pi^2)
    breaks = geometric_breakpoints(smallest_exp=-48)
    breaks.extend(float(m) for m in range(2, 10))

    def tlnt_kernel(t):
        out = np.zeros_like(t)
        pos = t > 0
        tp = t[pos]
        out[pos] = tp * np.log(tp) * np.exp(-TWO_PI * tp) / (-np.expm1(-TWO_PI * tp))
        return out

    integral, _ = integrate_panels(tlnt_kernel, breaks)
    zeta2 = PI ** 2 / 6.0
    zeta_prime_2 = 4.0 * PI ** 2 * integral.real - zeta2 * (
        1.0 - EULER_GAMMA - math.log(TWO_PI)
    )
    log_a_expr = (EULER_GAMMA + math.log(TWO_PI)) / 12.0 - zeta_prime_2 / (2.0 * PI ** 2)
    assert abs(log_a_expr - LOG_GLAISHER) <= 1e-10, (
        f"log A via zeta'(2): {log_a_expr!r} vs stored {LOG_GLAISHER!r}"
    )
    report(
        "criterion 10 (constants)",
        f"zeta'(2) = {zeta_prime_2:.12f}, log A gap {abs(log_a_expr - LOG_GLAISHER):.2e}",
    )
