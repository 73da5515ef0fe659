"""One timed sweep over a workload's passes, in a fresh interpreter.

    python3 perfbench/sweep.py <workload> <seed> <budget_s> <passes>

With passes = 0 the sweep runs whole passes until it holds at least
MIN_ITEMS items and another pass would overrun budget_s; otherwise it runs
exactly that many passes.  It prints one JSON object: the number of passes,
each item's scaled latency, a digest of each item's outputs, the calls
attempted and failed, the peak RSS after the first pass, the raw and
scaled loop time, and the outputs of the first pass (the accuracy pass).
run.py starts one sweep after another and puts the checkout's src/ first
on PYTHONPATH.  Whole runs of the same code sat about 6 % apart in speed,
at the same calibrated machine speed; with each sweep in its own process
and every item keeping its fastest time over the sweeps, one slow sweep
does not set the result.
"""

from __future__ import annotations

import json
import resource
import sys
import zlib
from collections import Counter
from time import perf_counter_ns

import calibration
import workloads

MIN_ITEMS = 1000  # so that at least ten latency samples lie beyond p99
CALIBRATE_EVERY_NS = 5_000_000


class Loop:
    """Runs items, timing each; counts calls attempted and failures by type.

    The calibration kernel runs before the first item, then between items
    every CALIBRATE_EVERY_NS, and after the last item.  The items timed
    between two calibrations are scaled by the mean of the two scales, so a
    change of machine speed inside a block is split between its ends.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter = Counter()
        self.raw_ns = 0
        self.scaled_ns = 0.0

    def run(self, bg, wl, items) -> tuple[list[float], list]:
        """Run items in order; return each one's scaled latency in ns and its outcomes."""
        run, latency, outcomes = wl.run, [], []
        block, scale_before = 0, calibration.scale()
        next_calibration = perf_counter_ns() + CALIBRATE_EVERY_NS
        for item in items:
            t0 = perf_counter_ns()
            out = run(bg, item)
            t1 = perf_counter_ns()
            latency.append(t1 - t0)
            outcomes.append(out)
            self.attempted += len(out)
            for o in out:
                if o[4] is not None:
                    self.failures[o[4]] += 1
            if t1 >= next_calibration:
                scale_before = self._scale_block(latency, block, scale_before)
                block = len(latency)
                next_calibration = perf_counter_ns() + CALIBRATE_EVERY_NS
        self._scale_block(latency, block, scale_before)
        return latency, outcomes

    def _scale_block(self, latency: list, start: int, scale_before: float) -> float:
        scale_after = calibration.scale()
        scale = 0.5 * (scale_before + scale_after)
        for i in range(start, len(latency)):
            self.raw_ns += latency[i]
            latency[i] *= scale
            self.scaled_ns += latency[i]
        return scale_after

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def digest(outcomes: list) -> int:
    """Stable across processes (unlike hash() of a str)."""
    return zlib.crc32(repr(outcomes).encode())


def encode(outcomes: list) -> list:
    """JSON form of one item's outcomes; complex values become [re, im].

    Stokes profiles carry no error to check, so their values are dropped.
    """
    return [[route, n, [v.real, v.imag] if isinstance(v, complex) else None, err, failure]
            for route, n, v, err, failure in outcomes]


def decode(encoded: list) -> list:
    return [(route, n, complex(*v) if v is not None else None, err, failure)
            for route, n, v, err, failure in encoded]


def sweep(bg, wl, seed: int, budget_s: float, passes: int) -> dict:
    gen = wl.passes(seed)
    first = next(gen)
    wl.run(bg, first[0])  # fill lazy caches before timing
    loop = Loop()
    start = perf_counter_ns()
    latency, outcomes = loop.run(bg, wl, first)
    # read after the fixed work of the first pass, so that the sweep's own
    # lists, which grow with the number of items run, do not count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digests = [digest(o) for o in outcomes]
    done = 1
    while True:
        if passes:
            if done >= passes:
                break
        else:
            elapsed = perf_counter_ns() - start
            if len(latency) >= MIN_ITEMS and elapsed * (done + 1) / done > budget_s * 1e9:
                break
        lat, out = loop.run(bg, wl, next(gen))
        latency += lat
        digests += [digest(o) for o in out]
        done += 1
    return {
        "passes": done, "latency_ns": latency, "digests": digests,
        "attempted": loop.attempted, "failures": dict(loop.failures),
        "peak_rss_mb": peak_rss_mb, "raw_ns": loop.raw_ns, "scaled_ns": loop.scaled_ns,
        "first_pass": [encode(o) for o in outcomes],
    }


def main(argv: list[str]) -> None:
    name, seed, budget_s, passes = argv
    import barnesg

    result = sweep(barnesg, workloads.WORKLOADS[name], int(seed), float(budget_s), int(passes))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
