"""Command-line frontend: evaluation, bound sweeps, Stokes profiles, terminants.

Every subcommand emits machine-readable rows (CSV with a header, or
JSON-lines) carrying the full input tuple, so any row can be re-run.
Numeric values are rendered with 17 significant digits, which round-trips
binary64 exactly.  Exit codes: 0 success, 2 domain/usage error, 3 accuracy
failure.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import sys
from typing import Callable, Optional

import click

from .errors import AccuracyError, DomainError, RangeError, _check_order
from .expansion import BoundKind, best_bound, certified_eval, family_bounds
from .oracle import log_barnes_oracle, remainder_wide
from .terminant import K_MAX, exp_improved_report, stokes_profile, terminant

EXIT_DOMAIN = 2
EXIT_ACCURACY = 3
#: Most angles one `stokes` profile may take (the angle list is built in memory).
MAX_THETA_STEPS = 100_000


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit(rows: list[dict], fmt: str) -> None:
    if not rows:
        return
    if fmt == "csv":
        keys = list(rows[0].keys())
        click.echo(",".join(keys))
        for row in rows:
            click.echo(",".join(_fmt(row[k]) for k in keys))
    else:
        for row in rows:
            click.echo(json.dumps(row))


def _point(name: str, re: Optional[float], im: Optional[float], abs_: Optional[float],
           arg: Optional[float]) -> tuple[complex, Optional[float]]:
    """The point given by --{name}-re/--{name}-im or by --{name}-abs/--{name}-arg, and its
    angle: arg (0 if omitted) in the polar form, the --{name}-arg given (or None) otherwise.
    DomainError when neither form or both are given, or when --{name}-abs is not > 0."""
    if abs_ is None:
        if re is None:
            raise DomainError(f"specify {name} via --{name}-re/--{name}-im or "
                              f"--{name}-abs/--{name}-arg")
        return complex(re, im or 0.0), arg
    if re is not None or im is not None:
        raise DomainError(f"give {name} by --{name}-re/--{name}-im or by --{name}-abs, not both")
    if not abs_ > 0.0:  # NaN fails too
        raise DomainError(f"--{name}-abs must be > 0, got {abs_}")
    arg = arg or 0.0
    return abs_ * cmath.exp(1j * arg), arg


def _either(name: str, radians: object, pi_multiples: object) -> None:
    """DomainError when an angle is given both as --{name} and as --{name}-pi."""
    if radians is not None and pi_multiples is not None:
        raise DomainError(f"give --{name} or --{name}-pi, not both")


@click.group()
@click.version_option(version="0.1.0", prog_name="barnesg")
def main() -> None:
    """Barnes G-function asymptotics: certified evaluation and diagnostics."""


def _subcommand(name: str) -> Callable[[Callable], click.Command]:
    """Register the decorated function as subcommand `name`, with --format as
    its last option.  A ValueError (DomainError, RangeError, a malformed
    number) exits with 2, an AccuracyError with 3."""

    def register(fn: Callable) -> click.Command:
        @main.command(name)
        @functools.wraps(fn)
        def run(**kwargs) -> None:
            try:
                fn(**kwargs)
            except ValueError as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(EXIT_DOMAIN)
            except AccuracyError as exc:
                click.echo(f"accuracy failure: {exc}", err=True)
                sys.exit(EXIT_ACCURACY)

        run.params.append(click.Option(["--format", "fmt"], type=click.Choice(["csv", "json"]),
                                       default="csv"))
        return run

    return register


@_subcommand("eval")
@click.option("--z-re", type=float, default=None, help="Re z")
@click.option("--z-im", type=float, default=None, help="Im z")
@click.option("--z-abs", type=float, default=None, help="|z|")
@click.option("--z-arg", type=float, default=None, help="arg z in radians")
@click.option("--z-arg-pi", type=float, default=None, help="arg z in multiples of pi")
@click.option("--method", type=click.Choice(["asym", "oracle", "hyper"]), required=True)
@click.option("--n", "n_trunc", type=int, default=None, help="truncation index (asym)")
@click.option("--k-max", type=int, default=K_MAX, show_default=True,
              help="terminant sum cutoff (hyper)")
def cmd_eval(z_re, z_im, z_abs, z_arg, z_arg_pi, method, n_trunc, k_max, fmt) -> None:
    """Evaluate log G(z+1) by the chosen route."""
    _either("z-arg", z_arg, z_arg_pi)
    z, arg = _point("z", z_re, z_im, z_abs, z_arg if z_arg_pi is None else z_arg_pi * math.pi)
    if z_abs is None and arg is not None:
        raise DomainError("--z-arg and --z-arg-pi need --z-abs: the routes take no branch of z")
    if method == "asym":
        res = certified_eval(z, n_trunc)
        value, err, err_kind, n_used = res.value, res.bound, res.bound_kind.value, res.n_trunc
    elif method == "oracle":
        out = log_barnes_oracle(z)
        value, err, err_kind, n_used = out.value, out.est_error, "est_error", 1
    else:
        value, err = exp_improved_report(z, k_max)
        err_kind, n_used = "est_error", k_max
    _emit(
        [
            {
                "z_re": z.real,
                "z_im": z.imag,
                "method": method,
                "value_re": value.real,
                "value_im": value.imag,
                "err": err,
                "err_kind": err_kind,
                "n_used": n_used,
            }
        ],
        fmt,
    )


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


@_subcommand("bounds")
@click.option("--z-abs", "z_abs_list", type=str, required=True,
              help="comma-separated |z| grid, e.g. 2,5,10")
@click.option("--theta", "theta_list", type=str, default=None,
              help="comma-separated arg z grid in radians")
@click.option("--theta-pi", "theta_pi_list", type=str, default=None,
              help="comma-separated arg z grid in multiples of pi")
@click.option("--n-min", type=int, default=1)
@click.option("--n-max", type=int, default=4)
def cmd_bounds(z_abs_list, theta_list, theta_pi_list, n_min, n_max, fmt) -> None:
    """Sweep certified bounds against the remainder oracle; exit 3 on violation."""
    _either("theta", theta_list, theta_pi_list)
    radii = _parse_floats(z_abs_list)
    if theta_pi_list is not None:
        thetas = [t * math.pi for t in _parse_floats(theta_pi_list)]
    elif theta_list is not None:
        thetas = _parse_floats(theta_list)
    else:
        thetas = [0.0]
    _check_order(n_max, _check_order(n_min, 1))  # 1 <= n-min <= n-max
    rows = []
    violated = False
    for r in radii:
        for theta in thetas:
            z, _ = _point("z", None, None, r, theta)
            for n in range(n_min, n_max + 1):
                oracle = remainder_wide(z, n)
                abs_rn = abs(oracle.value)
                families = family_bounds(z, n)
                sector = families.get(BoundKind.SECTOR)
                opt = families.get(BoundKind.OPTIMIZED)
                best = best_bound(z, n).bound
                ratio = best / abs_rn if abs_rn > 0 else math.inf
                if abs_rn > best + oracle.est_error:
                    violated = True
                rows.append(
                    {
                        "z_abs": r,
                        "theta": theta,
                        "n": n,
                        "oracle_abs_rn": abs_rn,
                        "oracle_err": oracle.est_error,
                        "bound_sector": sector.bound if sector else math.nan,
                        "bound_half_angle": families[BoundKind.HALF_ANGLE].bound,
                        "bound_optimized": opt.bound if opt else math.nan,
                        "phi_star": opt.phi_star if opt else math.nan,
                        "best_bound": best,
                        "ratio": ratio,
                    }
                )
    _emit(rows, fmt)
    if violated:
        raise AccuracyError("certified bound violated beyond oracle slack")


@_subcommand("stokes")
@click.option("--z-abs", type=float, required=True)
@click.option("--k", type=int, default=1)
@click.option("--theta-min", type=float, required=True)
@click.option("--theta-max", type=float, required=True)
@click.option("--theta-steps", type=int, required=True)
def cmd_stokes(z_abs, k, theta_min, theta_max, theta_steps, fmt) -> None:
    """Stokes-multiplier transition profile against the erf smoothing law."""
    if theta_min > theta_max:
        raise DomainError("theta-min must not exceed theta-max")
    _check_order(theta_steps, 1, MAX_THETA_STEPS, RangeError)
    if theta_steps == 1:
        thetas = [theta_min]
    else:
        step = (theta_max - theta_min) / (theta_steps - 1)
        thetas = [theta_min + i * step for i in range(theta_steps)]
    rows = []
    for s in stokes_profile(z_abs, k, thetas):
        rows.append(
            {
                "theta": s.theta,
                "k": s.k,
                "z_abs": z_abs,
                "multiplier_re": s.multiplier.real,
                "multiplier_im": s.multiplier.imag,
                "normalized_re": s.normalized_multiplier.real,
                "normalized_im": s.normalized_multiplier.imag,
                "erf_prediction": s.normalized_prediction.real,
                "est_error": s.est_error,
            }
        )
    _emit(rows, fmt)


@_subcommand("terminant")
@click.option("--p", type=int, required=True, help="terminant order (positive integer)")
@click.option("--w-re", type=float, default=None)
@click.option("--w-im", type=float, default=None)
@click.option("--w-abs", type=float, default=None)
@click.option("--w-arg", type=float, default=None,
              help="arg w in radians; may exceed pi to select the continued branch")
def cmd_terminant(p, w_re, w_im, w_abs, w_arg, fmt) -> None:
    """Evaluate the scaled terminant; the method column names the form chosen."""
    w, arg_w = _point("w", w_re, w_im, w_abs, w_arg)
    ev = terminant(p, w, arg_w)
    _emit(
        [
            {
                "p": p,
                "w_re": w.real,
                "w_im": w.imag,
                "arg_w": arg_w if arg_w is not None else math.atan2(w.imag, w.real),
                "method": ev.method.value,
                "value_re": ev.value.real,
                "value_im": ev.value.imag,
                "est_error": ev.est_error,
            }
        ],
        fmt,
    )


if __name__ == "__main__":
    main()
