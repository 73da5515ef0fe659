"""Independent mpmath references for the accuracy columns.

``ref(z) = mp.log(mp.barnesg(z + 1))`` at BASE_DPS digits or more.  The
principal logarithm can differ from the analytic log G(z+1) by 2 pi i k.
The stored reference is moved onto the analytic branch, with k fixed by the
Hurwitz-zeta form log G(1+z) = z log Gamma(z) + zeta'(-1) - zeta'(-1, z),
which mpmath continues analytically on the slit plane:

* a returned log G value is still compared modulo 2 pi i k, taking the k
  nearest to the value; the analytic reference gives the |ref| that scales
  the relative error;
* the remainder references R_n = log G(z+1) - (truncated expansion) need
  the analytic branch, since R_n itself has no 2 pi i ambiguity and can be
  large at small |z|.  R_n is evaluated with GUARD_DIGITS digits beyond the
  cancellation between log G and the expansion, so it keeps full relative
  accuracy.

References are stored as double-double pairs (hi + lo) and every
difference is formed in exact rational arithmetic, so the comparison adds
no rounding of its own.  Nothing here is timed.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from pathlib import Path

import mpmath as mp

BASE_DPS = 30
BRANCH_DPS = 15
GUARD_DIGITS = 25
CACHE_VERSION = 1

with mp.workdps(40):
    _TWO_PI = Fraction(float(2 * mp.pi)) + Fraction(float(2 * mp.pi - float(2 * mp.pi)))


def _dd(x) -> list[float]:
    """mpc -> [re_hi, re_lo, im_hi, im_lo]."""
    re, im = mp.re(x), mp.im(x)
    re_hi, im_hi = float(re), float(im)
    return [re_hi, float(re - re_hi), im_hi, float(im - im_hi)]


def _series_coefficient(n: int):
    return mp.bernoulli(2 * n + 2) / (2 * n * (2 * n + 1) * (2 * n + 2))


def _truncated(zm, n_trunc: int):
    """Truncated expansion of log G(z+1) before the z^{-2 n_trunc} term."""
    total = (zm * zm / 4 + zm * mp.loggamma(zm + 1)
             - (zm * (zm + 1) / 2 + mp.mpf(1) / 12) * mp.log(zm) - mp.log(mp.glaisher))
    for n in range(1, n_trunc):
        total += _series_coefficient(n) / zm ** (2 * n)
    return total


def reference_row(z: complex, orders: tuple[int, ...]) -> dict:
    """log G(z+1) and, for each n in orders, R_n(z) as double-double values."""
    zm = mp.mpc(z.real, z.imag)  # exact: binary64 inputs convert without rounding
    row: dict = {"z": [z.real, z.imag]}
    with mp.workdps(BRANCH_DPS):  # only an integer comes out of this
        analytic = zm * mp.loggamma(zm) + mp.zeta(-1, 1, 1) - mp.zeta(-1, zm, 1)
    with mp.workdps(BASE_DPS):
        principal = mp.log(mp.barnesg(zm + 1))
        turns = int(mp.nint(mp.im(analytic - principal) / (2 * mp.pi)))
        ref = principal + 2j * mp.pi * turns
        row["logg"] = _dd(ref)
        if not orders:
            return row
        smallest = min(abs(_series_coefficient(n) / zm ** (2 * n)) for n in orders)
        ratio = max(abs(ref), 1) / smallest
        dps = max(BASE_DPS, GUARD_DIGITS + int(mp.ceil(mp.log10(ratio))))
    with mp.workdps(dps):
        ref = mp.log(mp.barnesg(zm + 1)) + 2j * mp.pi * turns
        row["rn"] = {str(n): _dd(ref - _truncated(zm, n)) for n in orders}
    return row


def references(points: list[complex], orders: tuple[int, ...],
               cache: Path | None = None) -> list[dict]:
    """Reference rows for points, read from / written to cache when given.

    A cache file is used only when it holds exactly these points and orders.
    """
    key = {"version": CACHE_VERSION, "orders": list(orders),
           "points": [[z.real, z.imag] for z in points]}
    if cache is not None and cache.exists():
        with open(cache) as fh:
            stored = json.load(fh)
        if stored.get("key") == key:
            return stored["rows"]
    rows = [reference_row(z, orders) for z in points]
    if cache is not None:
        cache.parent.mkdir(parents=True, exist_ok=True)
        tmp = cache.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump({"key": key, "rows": rows}, fh)
        os.replace(tmp, cache)
    return rows


def error_mod_2pi(value: complex, ref: list[float]) -> float:
    """|value - (ref + 2 pi i k)| for the k nearest to value, exactly rounded."""
    re_hi, re_lo, im_hi, im_lo = ref
    turns = round((value.imag - im_hi) / (2 * math.pi))
    d_re = Fraction(value.real) - Fraction(re_hi) - Fraction(re_lo)
    d_im = Fraction(value.imag) - Fraction(im_hi) - Fraction(im_lo) - turns * _TWO_PI
    return math.hypot(float(d_re), float(d_im))


def magnitude(ref: list[float]) -> float:
    """|ref| of a double-double reference."""
    return math.hypot(ref[0] + ref[1], ref[2] + ref[3])
