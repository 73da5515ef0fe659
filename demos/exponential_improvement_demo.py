"""Exponentially improved evaluation on the Stokes line.

On arg z = pi/2 the plain asymptotic series, truncated at its smallest term,
bottoms out at the scale of the half-switched subdominant exponential
e^{-2 pi |z|} / (4 pi).  The improved route has no such floor: it moves z to
w = z + 2 (Re w >= 2, log G(z+1) = log G(w+1) - log Gamma(z+1) - log Gamma(z+2)),
where one terminant pair already reaches quadrature-oracle accuracy.  The route
picks the number of pairs itself: it stops once a certified bound on the rest is
below its round-off, after one or two pairs at Re w >= 2.

Run:  python demos/exponential_improvement_demo.py
"""

import math

from barnesg import exp_improved_report, log_barnes_oracle, truncated_log_barnes


def main() -> None:
    for radius in (1.5, 2.5, 4.0):
        z = radius * 1j
        oracle = log_barnes_oracle(z)
        print(f"z = {radius} i   (log G(z+1) = {oracle.value:.12g})")
        errs = [
            (n, abs(truncated_log_barnes(z, n) - oracle.value)) for n in range(1, 21)
        ]
        n_best, plain = min(errs, key=lambda t: t[1])
        floor = math.exp(-2 * math.pi * radius) / (4 * math.pi)
        print(f"  plain series, best truncation N = {n_best:2d}: error {plain:.3e}"
              f"   (predicted floor e^(-2 pi |z|)/(4 pi) = {floor:.3e})")
        improved, est = exp_improved_report(z)
        err = abs(improved - oracle.value)
        print(f"  improved expansion:                error {err:.3e}   (estimate {est:.3e})")
        print()


if __name__ == "__main__":
    main()
