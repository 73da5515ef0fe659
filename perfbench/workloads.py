"""Seeded inputs and per-item runners for the three benchmark workloads.

Inputs come in *passes*.  A pass starts with the workload's fixed rows (the
four corners of its (|z|, arg z) range, plus the known-failing points named
in the ROADMAP where they apply) and continues with a stratified grid: one
point inside each cell of a GRID_R x GRID_A grid over (log |z|, arg z), in
shuffled order.  Stratifying keeps the cost mix of a pass nearly the same
from seed to seed, so timings vary little between seeds while every seed
still gives other points.

The first pass of every run is the accuracy pass.  It takes the cell
centres and a fixed order, so it is the same for every seed: round-off
level errors vary by 10-20 % from one random point set to the next, and a
fixed set makes the accuracy columns an exact property of the code, and
lets its mpmath references be computed once.  The later passes jitter each
point uniformly inside its cell, from a generator seeded by the run's seed.

Nothing here imports barnesg: the runners take the package module as an
argument, so the cold-start child can time the import itself, and the
tracer's patched bindings are picked up at call time.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

ARG_MAX = 0.95 * math.pi
GRID_R = 20
GRID_A = 20
AUDIT_ORDERS = (1, 2, 3, 4)
PROFILE_EVERY = 25
PROFILE_ANGLES = 51
PROFILE_R = (1.5, 4.0)

#: Points where the ROADMAP records a wrong value or an under-reported error.
KNOWN_FAILING = (0.1j, 1.5 * cmath.exp(0.9j * math.pi), 1e-8j)

#: Exact values log G(z+1) checked through every route before timing.
ANCHORS = ((1.0, 0.0), (2.0, 0.0), (3.0, math.log(2.0)))


@dataclass(frozen=True)
class Point:
    z: complex

    points = 1


@dataclass(frozen=True)
class Profile:
    abs_z: float
    k: int
    thetas: tuple[float, ...]

    @property
    def points(self) -> int:
        return len(self.thetas)


# One outcome per library call: (route, n, value, err, failure), where
# failure is None, the name of the exception raised, or "NonFinite".  The
# route's kind says how value and err are checked against the reference.
ROUTE_KIND = {
    "certified_eval": "logg",       # log G(z+1) value and its certified bound
    "log_barnes_oracle": "logg",    # log G(z+1) value and its est_error
    "exp_improved_report": "logg",  # log G(z+1) value and its error estimate
    "remainder_wide": "rn",         # R_n(z) value and its est_error
    "remainder_narrow": "rn",
    "best_bound": "bound",          # certified bound on |R_n(z)|, no value
    "stokes_profile": "profile",    # multipliers and erf predictions, no error
}
Outcome = tuple


def _finite(x) -> bool:
    if isinstance(x, tuple):
        return all(_finite(v) for v in x)
    return x is None or cmath.isfinite(x)


def _call(route: str, n: int, fn: Callable, extract: Callable) -> Outcome:
    try:
        value, err = extract(fn())
    except Exception as exc:  # every raised type is counted, none aborts the run
        return (route, n, None, None, type(exc).__name__)
    if not (_finite(value) and _finite(err)):
        return (route, n, value, err, "NonFinite")
    return (route, n, value, err, None)


def _value_bound(res):
    return res.value, res.bound


def _value_est(res):
    return res.value, res.est_error


def _bound_only(res):
    return None, res.bound


def _pair(res):
    return res


def _multipliers(samples):
    return tuple(s.multiplier for s in samples) + tuple(s.erf_prediction for s in samples), None


def _run_certify(bg, item: Point) -> list[Outcome]:
    z = item.z
    return [_call("certified_eval", 0, lambda: bg.certified_eval(z), _value_bound)]


def _run_audit(bg, item: Point) -> list[Outcome]:
    """One `barnesg bounds` row set plus the narrow-kernel cross-check."""
    z = item.z
    out = [_call("log_barnes_oracle", 0, lambda: bg.log_barnes_oracle(z), _value_est)]
    narrow = abs(cmath.phase(z)) < 0.5 * math.pi
    for n in AUDIT_ORDERS:
        out.append(_call("remainder_wide", n, lambda: bg.remainder_wide(z, n), _value_est))
        out.append(_call("best_bound", n, lambda: bg.best_bound(z, n), _bound_only))
        if narrow:
            out.append(_call("remainder_narrow", n, lambda: bg.remainder_narrow(z, n), _value_est))
    return out


def _run_improved(bg, item) -> list[Outcome]:
    if isinstance(item, Profile):
        return [_call("stokes_profile", item.k,
                      lambda: bg.stokes_profile(item.abs_z, item.k, item.thetas),
                      _multipliers)]
    z = item.z
    return [_call("exp_improved_report", 0, lambda: bg.exp_improved_report(z), _pair)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    r_lo: float
    r_hi: float
    known_failing: tuple[complex, ...]
    run: Callable
    rn_orders: tuple[int, ...]  # orders whose R_n needs a reference
    cli_args: tuple[str, ...]   # subcommand timed in a cold `barnesg` process
    with_profiles: bool = False

    def fixed_rows(self) -> list[complex]:
        corners = [r * cmath.exp(1j * s * ARG_MAX) for r in (self.r_lo, self.r_hi) for s in (1, -1)]
        return corners + list(self.known_failing)

    def passes(self, seed: int) -> Iterator[list]:
        """The accuracy pass, then endless jittered passes drawn from seed."""
        yield self._one_pass(random.Random(f"{self.name}:accuracy"), jitter=False)
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield self._one_pass(rng, jitter=True)

    def _one_pass(self, rng: random.Random, jitter: bool) -> list:
        grid = stratified(rng, self.r_lo, self.r_hi, -ARG_MAX, ARG_MAX, jitter)
        items: list = [Point(z) for z in self.fixed_rows() + grid]
        if not self.with_profiles:
            return items
        n_profiles = len(items) // PROFILE_EVERY
        profiles = stokes_windows(rng, n_profiles, jitter)
        out: list = []
        for i, item in enumerate(items, start=1):
            out.append(item)
            if i % PROFILE_EVERY == 0:
                out.append(profiles[i // PROFILE_EVERY - 1])
        return out


def _cell(rng: random.Random, index: int, count: int, jitter: bool) -> float:
    """A point of cell index of count equal cells of [0, 1]: uniform or the centre."""
    return (index + (rng.random() if jitter else 0.5)) / count


def stratified(rng: random.Random, r_lo: float, r_hi: float, a_lo: float, a_hi: float,
               jitter: bool, n_r: int = GRID_R, n_a: int = GRID_A) -> list[complex]:
    """One point per cell of an n_r x n_a grid, log-uniform in |z|, shuffled."""
    lo, span = math.log(r_lo), math.log(r_hi) - math.log(r_lo)
    pts = []
    for i in range(n_r):
        for j in range(n_a):
            r = math.exp(lo + span * _cell(rng, i, n_r, jitter))
            a = a_lo + (a_hi - a_lo) * _cell(rng, j, n_a, jitter)
            pts.append(r * cmath.exp(1j * a))
    rng.shuffle(pts)
    return pts


def stokes_windows(rng: random.Random, count: int, jitter: bool) -> list[Profile]:
    """Profiles over 51 angles spanning +-1/2 around +-pi/2; k in {1, 2}.

    |z| is stratified log-uniformly over PROFILE_R; k and the Stokes line
    cycle so every pass has each combination.
    """
    lo, span = math.log(PROFILE_R[0]), math.log(PROFILE_R[1]) - math.log(PROFILE_R[0])
    out = []
    for j in range(count):
        abs_z = math.exp(lo + span * _cell(rng, j, count, jitter))
        k = 1 + j % 2
        line = 0.5 * math.pi if (j // 2) % 2 == 0 else -0.5 * math.pi
        thetas = tuple(line - 0.5 + i / (PROFILE_ANGLES - 1) for i in range(PROFILE_ANGLES))
        out.append(Profile(abs_z, k, thetas))
    rng.shuffle(out)
    return out


CERTIFY = Workload(
    name="certify_sweep",
    why="certified_eval with automatic N: the 20-step N scan and the optimal-angle "
        "bisection dominate; no quadrature or terminant code runs",
    r_lo=2.0, r_hi=50.0, known_failing=(), run=_run_certify, rn_orders=(),
    cli_args=("eval", "--method", "asym", "--z-abs", "{r}", "--z-arg", "{a}"),
)
ORACLE = Workload(
    name="oracle_audit",
    why="oracle plus remainder_wide/best_bound for N=1..4 and the narrow kernel: "
        "dilog, poly_periodic and integrate_panels dominate; no terminant code runs",
    r_lo=0.25, r_hi=8.0, known_failing=KNOWN_FAILING, run=_run_audit, rn_orders=AUDIT_ORDERS,
    cli_args=("bounds", "--z-abs", "{r}", "--theta", "{a}", "--n-min", "1", "--n-max", "4"),
)
IMPROVED = Workload(
    name="improved_sweep",
    why="exp_improved_report with a 51-angle stokes_profile after every 25th call: "
        "the terminant recurrence, E1 and the zeta tails dominate; no quadrature runs",
    r_lo=0.25, r_hi=4.0, known_failing=KNOWN_FAILING, run=_run_improved, rn_orders=(),
    cli_args=("eval", "--method", "hyper", "--z-abs", "{r}", "--z-arg", "{a}"),
    with_profiles=True,
)
WORKLOADS = {w.name: w for w in (CERTIFY, ORACLE, IMPROVED)}


def cli_argv(workload: Workload) -> list[str]:
    """Subcommand for the cold CLI run, at mid-range |z| and arg z = pi/3."""
    r, a = repr(math.sqrt(workload.r_lo * workload.r_hi)), repr(math.pi / 3)
    return [arg.format(r=r, a=a) for arg in workload.cli_args]


def check_anchors(bg) -> list[tuple[str, float, float, float]]:
    """Evaluate every route at the exact anchors: (route, z, |value - exact|, err).

    A call that fails gives an infinite error and a NaN reported error.
    """
    rows = []
    for z, exact in ANCHORS:
        for route, extract in (("certified_eval", _value_bound),
                               ("log_barnes_oracle", _value_est),
                               ("exp_improved_report", _pair)):
            _, _, value, err, failure = _call(route, 0, lambda: getattr(bg, route)(z), extract)
            rows.append((route, z, math.inf, math.nan) if failure
                        else (route, z, abs(value - exact), err))
    return rows
