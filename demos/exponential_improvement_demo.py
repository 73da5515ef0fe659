"""Exponentially improved evaluation on the Stokes line.

On arg z = pi/2 the plain asymptotic series, truncated at its smallest term,
bottoms out at the scale of the half-switched subdominant exponential
e^{-2 pi |z|} / (4 pi).  Adding the terminant corrections removes that floor:
the improved evaluation reaches quadrature-oracle accuracy with a handful of
terms.

Run:  python demos/exponential_improvement_demo.py
"""

import math

from barnesg import (
    TruncationScheme,
    exp_improved_report,
    log_barnes_oracle,
    truncated_log_barnes,
)


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
        for k_max in (1, 2, 3):
            improved, _ = exp_improved_report(z, TruncationScheme.optimal(k_max))
            err = abs(improved - oracle.value)
            print(f"  improved, k_max = {k_max}: error {err:.3e}")
        print()


if __name__ == "__main__":
    main()
