"""Command-line frontend: evaluation, bound sweeps, Stokes profiles, terminants.

Every subcommand emits machine-readable rows (CSV with a header, or
JSON-lines) carrying the full input tuple, so any row can be re-run.
Numeric values are rendered with 17 significant digits, which round-trips
binary64 exactly.  Exit codes: 0 success, 2 domain/usage error, 3 accuracy
failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from typing import Optional

from . import __version__
from .errors import AccuracyError, DomainError, RangeError, _check_order
from .expansion import BoundKind, certified_eval, family_bounds
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
        print(",".join(keys))
        for row in rows:
            print(",".join(_fmt(row[k]) for k in keys))
    else:
        for row in rows:
            print(json.dumps(row))


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


def _grid(text: str) -> list[float]:
    """argparse type of a comma-separated list of floats: empty entries are skipped, but a
    list with none left is a usage error (exit 2), as is a malformed number."""
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"no number in the grid {text!r}")
    return values


def _pi_grid(text: str) -> list[float]:
    return [t * math.pi for t in _grid(text)]


def _pi_multiple(text: str) -> float:
    return float(text) * math.pi


def cmd_eval(z_re, z_im, z_abs, z_arg, method, n_trunc, fmt) -> None:
    """Evaluate log G(z+1) by the chosen route."""
    z, arg = _point("z", z_re, z_im, z_abs, z_arg)
    if z_abs is None and arg is not None:
        raise DomainError("--z-arg and --z-arg-pi need --z-abs: the routes take no branch of z")
    if n_trunc is not None and method != "asym":
        raise DomainError("--n applies to --method asym only")
    if method == "asym":
        res = certified_eval(z, n_trunc)
        value, err, err_kind, n_used = res.value, res.bound, res.bound_kind.value, res.n_trunc
    else:  # the oracle and the improved route both return (value, est_error)
        if method == "oracle":
            from .oracle import log_barnes_oracle  # here, not at the top: it loads numpy
        value, err = log_barnes_oracle(z) if method == "oracle" else exp_improved_report(z)
        err_kind, n_used = "est_error", 1 if method == "oracle" else K_MAX
    row = dict(z_re=z.real, z_im=z.imag, method=method, value_re=value.real,
               value_im=value.imag, err=err, err_kind=err_kind, n_used=n_used)
    if method == "asym":
        row["shift"] = res.shift  # the m of w = z + m, where n_used is N
    _emit([row], fmt)


def cmd_bounds(radii, thetas, n_min, n_max, fmt) -> None:
    """Sweep certified bounds against the remainder oracle; exit 3 where they disagree."""
    from .oracle import remainder_wide  # here, not at the top: the oracle loads numpy

    _check_order(n_max, _check_order(n_min, 1))  # 1 <= n-min <= n-max
    rows = []
    disagreement = None
    for r in radii:
        for theta in thetas:
            z, _ = _point("z", None, None, r, theta)
            for n in range(n_min, n_max + 1):
                oracle = remainder_wide(z, n)
                abs_rn = abs(oracle.value)
                families = family_bounds(z, n)
                sector = families.get(BoundKind.SECTOR)
                opt = families.get(BoundKind.OPTIMIZED)
                best = min(report.bound for report in families.values())
                if disagreement is None and abs_rn > best + oracle.est_error:
                    disagreement = (
                        f"the remainder oracle and the certified bound disagree at z = {z!r}, "
                        f"N = {n}: oracle |R_N| = {_fmt(abs_rn)} with est_error "
                        f"{_fmt(oracle.est_error)}, bound {_fmt(best)}")
                rows.append(dict(
                    z_abs=r, theta=theta, n=n, oracle_abs_rn=abs_rn, oracle_err=oracle.est_error,
                    bound_sector=sector.bound if sector else math.nan,
                    bound_half_angle=families[BoundKind.HALF_ANGLE].bound,
                    bound_optimized=opt.bound if opt else math.nan,
                    phi_star=opt.phi_star if opt else math.nan, best_bound=best,
                    ratio=best / abs_rn if abs_rn > 0 else math.inf))
    _emit(rows, fmt)
    if disagreement:
        raise AccuracyError(disagreement)


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
    _emit([dict(theta=s.theta, k=s.k, z_abs=z_abs, multiplier_re=s.multiplier.real,
                multiplier_im=s.multiplier.imag, normalized_re=s.normalized_multiplier.real,
                normalized_im=s.normalized_multiplier.imag,
                erf_prediction=s.normalized_prediction.real, est_error=s.est_error)
           for s in stokes_profile(z_abs, k, thetas)], fmt)


def cmd_terminant(p, w_re, w_im, w_abs, w_arg, fmt) -> None:
    """Evaluate the scaled terminant; the method column names the form chosen."""
    w, arg_w = _point("w", w_re, w_im, w_abs, w_arg)
    ev = terminant(p, w, arg_w)
    _emit([dict(p=p, w_re=w.real, w_im=w.imag,
                arg_w=arg_w if arg_w is not None else math.atan2(w.imag, w.real),
                method=ev.method.value, value_re=ev.value.real, value_im=ev.value.imag,
                est_error=ev.est_error)], fmt)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barnesg", allow_abbrev=False,
        description="Barnes G-function asymptotics: certified evaluation and diagnostics.")
    parser.add_argument("--version", action="version", version=f"barnesg, version {__version__}")
    commands = parser.add_subparsers(required=True, metavar="COMMAND")

    def command(name, run):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub

    ev = command("eval", cmd_eval)
    ev.add_argument("--z-re", type=float, help="Re z")
    ev.add_argument("--z-im", type=float, help="Im z")
    ev.add_argument("--z-abs", type=float, help="|z|")
    arg = ev.add_mutually_exclusive_group()
    arg.add_argument("--z-arg", type=float, help="arg z in radians")
    arg.add_argument("--z-arg-pi", dest="z_arg", type=_pi_multiple,
                     help="arg z in multiples of pi")
    ev.add_argument("--method", choices=["asym", "oracle", "hyper"], required=True)
    ev.add_argument("--n", dest="n_trunc", type=int,
                    help="truncation index (asym); an explicit N evaluates at z unshifted")
    bd = command("bounds", cmd_bounds)
    bd.add_argument("--z-abs", dest="radii", type=_grid, required=True,
                    help="comma-separated |z| grid, e.g. 2,5,10")
    theta = bd.add_mutually_exclusive_group()
    theta.add_argument("--theta", dest="thetas", type=_grid, default=[0.0],
                       help="comma-separated arg z grid in radians (default 0)")
    theta.add_argument("--theta-pi", dest="thetas", type=_pi_grid,
                       help="comma-separated arg z grid in multiples of pi")
    bd.add_argument("--n-min", type=int, default=1)
    bd.add_argument("--n-max", type=int, default=4)
    st = command("stokes", cmd_stokes)
    st.add_argument("--z-abs", type=float, required=True)
    st.add_argument("--k", type=int, default=1)
    for name in ("--theta-min", "--theta-max"):
        st.add_argument(name, type=float, required=True)
    st.add_argument("--theta-steps", type=int, required=True)
    tm = command("terminant", cmd_terminant)
    tm.add_argument("--p", type=int, required=True, help="terminant order (positive integer)")
    for name in ("--w-re", "--w-im", "--w-abs"):
        tm.add_argument(name, type=float)
    tm.add_argument("--w-arg", type=float,
                    help="arg w in radians; may exceed pi to select the continued branch")
    for sub in (ev, bd, st, tm):
        sub.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
    return parser


def _joined(argv: list[str]) -> list[str]:
    """argv with each `--opt value` pair written `--opt=value`: argparse would read a value
    such as -1e-15, -inf or -0.8,-0.5 as an option.  Every option but --help and --version
    takes exactly one value, so the pairs are unambiguous."""
    out: list[str] = []
    for arg in argv:
        last = out[-1] if out else ""
        if last.startswith("--") and "=" not in last and last not in ("--", "--help", "--version"):
            out[-1] = f"{last}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    """Run one subcommand and return its exit code: 2 for a ValueError (DomainError,
    RangeError, a malformed number), 3 for an AccuracyError.  A malformed command line
    makes argparse exit with 2 itself."""
    args = vars(_parser().parse_args(_joined(sys.argv[1:] if argv is None else argv)))
    run = args.pop("run")
    try:
        run(**args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    return 0


if __name__ == "__main__":
    sys.exit(main())
