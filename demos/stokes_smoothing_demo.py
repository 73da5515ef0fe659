"""The Berry transition: smooth switching of the Stokes multiplier.

Crossing arg z = pi/2, the coefficient of the subdominant exponential
e^{2 pi i z} in the expansion of log G(z+1) does not jump; at optimal
truncation it follows an error-function profile.  This prints the computed
normalized multiplier against 1/2 + 1/2 erf((theta - pi/2) sqrt(pi |z|)) as
an ASCII strip chart, at |z| = 3 and at |z| = 20 (order p = 127), with the
largest error bound of each profile.

Run:  python demos/stokes_smoothing_demo.py
"""

import math

import numpy as np

from barnesg import stokes_profile

PI = math.pi


def strip_chart(abs_z: float, k: int) -> None:
    thetas = np.linspace(PI / 2 - 0.5, PI / 2 + 0.5, 41)
    profile = stokes_profile(abs_z, k, thetas)
    print(f"Stokes multiplier switching at |z| = {abs_z}, k = {k}")
    print(f"{'theta/pi':>9} {'computed':>9} {'erf law':>9}  profile ('*' computed, '|' erf prediction)")
    width = 44
    worst = 0.0
    for s in profile:
        got = s.normalized_multiplier.real
        pred = s.normalized_prediction.real
        worst = max(worst, abs(s.normalized_multiplier - s.normalized_prediction))
        bar = [" "] * (width + 1)
        bar[max(0, min(width, round(pred * width)))] = "|"
        bar[max(0, min(width, round(got * width)))] = "*"
        print(f"{s.theta / PI:9.4f} {got:9.4f} {pred:9.4f}  {''.join(bar)}")
    print(f"\nmax |computed - erf law| = {worst:.4f} "
          f"(error scale (pi k |z|)^(-1/2) = {1 / math.sqrt(PI * k * abs_z):.3f})")
    largest = max(s.est_error / abs(s.limit) for s in profile)
    print(f"largest est_error = {largest:.1e} of |limit|\n")


def main() -> None:
    strip_chart(3.0, 1)
    strip_chart(20.0, 1)


if __name__ == "__main__":
    main()
