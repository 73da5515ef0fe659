"""How tight are the certified remainder bounds?

Evaluates the truncated expansion of log G(z+1) at a few points, computes the
true remainder with the quadrature oracle, and prints each certified bound
next to it.  The optimized-angle bound is usually within a few percent of the
true remainder magnitude.

Run:  python demos/certified_bounds_demo.py
"""

import cmath
import math

from barnesg import (
    BoundKind,
    best_bound,
    certified_eval,
    family_bounds,
    log_barnes_oracle,
    remainder_wide,
)

PI = math.pi


def main() -> None:
    print("certified bounds vs the true remainder |R_N(z)|")
    print("=" * 76)
    header = f"{'z':>22} {'N':>2} {'|R_N| (oracle)':>14} {'closed form':>12} {'optimized':>12} {'ratio':>7}"
    print(header)
    print("-" * 76)
    for r, theta_over_pi in ((5.0, 0.0), (5.0, 0.3), (5.0, 0.5), (2.0, 0.8)):
        z = r * cmath.exp(1j * theta_over_pi * PI)
        for n in (1, 3, 5):
            oracle = abs(remainder_wide(z, n).value)
            families = family_bounds(z, n)
            # closed form: the smaller of the sector and half-angle bounds
            closed = min(families[k].bound for k in (BoundKind.SECTOR, BoundKind.HALF_ANGLE)
                         if k in families)
            if BoundKind.OPTIMIZED in families:
                opt_text = f"{families[BoundKind.OPTIMIZED].bound:12.3e}"
            else:
                opt_text = f"{'-':>12}"
            bound = best_bound(z, n).bound
            label = f"{r:g} exp({theta_over_pi:g} pi i)"
            print(
                f"{label:>22} {n:>2} {oracle:14.3e} {closed:12.3e} {opt_text} "
                f"{bound / oracle:7.3f}"
            )
    print()
    print("automatic truncation choice (bound minimized over N <= 20; where the bound")
    print("at z is weak, N and the bound belong to w = z + m with Re w >= 12):")
    for z in (10.0, 2.5j, 3.0 * cmath.exp(0.7j * PI)):
        res = certified_eval(z)
        check = log_barnes_oracle(z)
        err = abs(res.value - check.value)
        print(
            f"  z = {z}: N = {res.n_trunc:2d}, certified bound {res.bound:.3e} "
            f"({res.bound_kind.value}), actual error {err:.3e}"
        )


if __name__ == "__main__":
    main()
