"""The Berry transition: smooth switching of the Stokes multiplier.

Crossing arg z = pi/2, the coefficient of the subdominant exponential
e^{2 pi i z} in the expansion of log G(z+1) does not jump; at optimal
truncation it follows an error-function profile.  This prints the computed
normalized multiplier against 1/2 + 1/2 erf((theta - pi/2) sqrt(pi |z|)) as
an ASCII strip chart, at |z| = 3 and at |z| = 20 (order p = 127), with the
largest error bound of each profile.  On the line itself it also prints
Berry's law for the terminant, T_p = 1/2 + i (rho - 2/3)/sqrt(2 pi |w|) with
|w| = 2 pi k |z| and rho = p - |w|, next to the computed normalized multiplier.

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
    print(f"largest est_error = {largest:.1e} of |limit|")
    on_line = stokes_profile(abs_z, k, [PI / 2])[0].normalized_multiplier
    abs_w = 2 * PI * k * abs_z
    rho = 2 * round(PI * k * abs_z) + 1 - abs_w
    berry = 0.5 + 1j * (rho - 2 / 3) / math.sqrt(2 * PI * abs_w)
    print(f"on the line: computed {on_line.real:.6f}{on_line.imag:+.6f}i, "
          f"Berry's law {berry.real:.6f}{berry.imag:+.6f}i (rho = {rho:.4f})\n")


def main() -> None:
    strip_chart(3.0, 1)
    strip_chart(20.0, 1)


if __name__ == "__main__":
    main()
