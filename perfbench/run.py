#!/usr/bin/env python3
"""Benchmark of barnesg's evaluation routes, end to end and layer by layer.

    python3 perfbench/run.py --workload certify_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its src/.
One thread drives a closed loop: each call starts when the previous one
returned.  Workloads: certify_sweep, oracle_audit,
improved_sweep (see workloads.py and README.md).

--trace 0 prints the end-to-end metrics: throughput and latency of
untraced sweeps in fresh processes (sweep.py), set-up time of fresh
interpreters, peak RSS, failures and the accuracy columns against mpmath.  --trace 1 prints the per-layer metrics:
every pass runs untraced and then traced, the outputs of the two must be
bit-identical, and the difference in time is the tracing overhead.  All
times are scaled to the reference machine speed of calibration.py.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 whenever the
benchmark ran, also when outputs were found wrong (correct is then false);
it is 2 when the checkout holds no barnesg sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import calibration
import sweep
import workloads
from sweep import Loop
from workloads import ROUTE_KIND, WORKLOADS, Point

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
COLD_REPS = 5
REPEATS = 3  # sweeps, each in a fresh process; every item keeps its fastest time
SPAWN_TIMEOUT_S = 120
#: Slack of the hard anchor gate: round-off of an O(1) binary64 result.
ANCHOR_SLACK = 64 * 2.220446049250313e-16

E2E_UNITS = {
    "points_per_s": "1/s", "call_p50_us": "us", "call_p99_us": "us", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "fraction", "honest_frac": "fraction",
    "max_rel_err": "1", "p50_rel_err": "1",
}


# ----------------------------------------------------------------------
# fresh processes
# ----------------------------------------------------------------------

def _spawn(argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=SPAWN_TIMEOUT_S)
    return proc, time.perf_counter() - t0


def _child_json(script: str, argv: list[str]) -> dict:
    proc, _ = _spawn([sys.executable, str(Path(__file__).with_name(script)), *argv])
    if proc.returncode != 0:
        raise RuntimeError(f"{script} {argv} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _scaled_median(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] * r["scale"] for r in rows)


def cold_metrics(wl, seed: int, layers: bool) -> dict[str, float]:
    """Medians over COLD_REPS fresh interpreters, started one at a time."""
    setup = [_child_json("cold.py", ["setup", wl.name, str(seed)]) for _ in range(COLD_REPS)]
    out = {"setup_s": _scaled_median(setup, "setup_s")}
    if not layers:
        return out
    out["setup.import_s"] = _scaled_median(setup, "import_s")
    out["setup.first_call_s"] = _scaled_median(setup, "first_call_s")
    scipy = [_child_json("cold.py", ["scipy"]) for _ in range(COLD_REPS)]
    out["setup.import_scipy_s"] = _scaled_median(scipy, "import_scipy_s")
    walls = []
    for _ in range(COLD_REPS):
        proc, wall = _spawn([sys.executable, "-m", "barnesg.cli", *workloads.cli_argv(wl)])
        if proc.returncode not in (0, 3):  # 3: the CLI's own accuracy verdict
            raise RuntimeError(f"barnesg CLI exited {proc.returncode}:\n{proc.stderr}")
        walls.append(wall * calibration.scale(calibration.ONE_OFF_REPS))
    out["cli.cold_s"] = statistics.median(walls)
    return out


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def percentile(sorted_values: list, q: float):
    """Nearest-rank q-quantile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# ----------------------------------------------------------------------
# accuracy
# ----------------------------------------------------------------------

def accuracy(items: list, outcomes: list, refs: list[dict]) -> dict:
    """Honesty and error columns over the first pass's points."""
    from reference import error_mod_2pi, magnitude

    pairs = under = 0
    rel: list[float] = []
    by_route: Counter = Counter()
    fixed: list[tuple] = []
    rows = iter(refs)
    for item, outs in zip(items, outcomes):
        if not isinstance(item, Point):
            continue
        row = next(rows)
        for route, n, value, err, failure in outs:
            kind = ROUTE_KIND[route]
            if failure is not None:
                continue
            if kind == "bound":
                e = magnitude(row["rn"][str(n)])
            else:
                ref = row["logg"] if kind == "logg" else row["rn"][str(n)]
                e = error_mod_2pi(value, ref)
                rel.append(e / max(1.0, magnitude(ref)))
            pairs += 1
            if e > err:
                under += 1
                by_route[route] += 1
            if item.z in workloads.KNOWN_FAILING and kind == "logg":
                fixed.append((item.z, route, e, err))
    return {
        "pairs": pairs, "under": under, "by_route": dict(by_route),
        "underreport_frac": under / pairs if pairs else 0.0,
        "max_rel_err": max(rel) if rel else 0.0,
        "p50_rel_err": statistics.median(rel) if rel else 0.0,
        "known_failing_rows": fixed,
    }


def anchor_gate(bg) -> tuple[bool, list[str]]:
    """Anchors through every route: hard gate plus the strict honesty check."""
    ok, notes = True, []
    for route, z, e, err in workloads.check_anchors(bg):
        if not (math.isfinite(e) and e <= err + ANCHOR_SLACK):
            ok = False
            notes.append(f"WRONG {route} z={z:g}: |error| {e:.3g} > reported {err:.3g}")
        elif e > err:
            notes.append(f"under-reported {route} z={z:g}: |error| {e:.3g} > reported {err:.3g}")
    return ok, notes


# ----------------------------------------------------------------------
# the two modes
# ----------------------------------------------------------------------

def end_to_end(wl, seed: int, seconds: float, cold: dict) -> tuple[dict, dict]:
    """Untraced closed loop: REPEATS sweeps over the same items (sweep.py).

    The first sweep runs whole passes (so every statistic is over complete
    stratified passes) until it has MIN_ITEMS items and another pass would
    overrun seconds / REPEATS; the later sweeps run as many passes.  Each
    item keeps its fastest time, as other tenants of the machine only ever
    add time, and every sweep must reproduce the first one's outputs.
    """
    runs = [_child_json("sweep.py", [wl.name, str(seed), repr(seconds / REPEATS), "0"])]
    n_passes = str(runs[0]["passes"])
    runs += [_child_json("sweep.py", [wl.name, str(seed), "0", n_passes])
             for _ in range(REPEATS - 1)]
    best = [min(times) for times in zip(*(r["latency_ns"] for r in runs))]
    deterministic = all(r["digests"] == runs[0]["digests"] for r in runs)
    total = Loop()
    for r in runs:
        total.attempted += r["attempted"]
        total.failures.update(r["failures"])
        total.raw_ns += r["raw_ns"]
        total.scaled_ns += r["scaled_ns"]

    from reference import references  # mpmath is loaded only after the timed sweeps

    gen = wl.passes(seed)
    first = next(gen)
    points = [item.z for item in first if isinstance(item, Point)]
    refs = references(points, wl.rn_orders, OUT / "refs" / f"{wl.name}.json")
    acc = accuracy(first, [sweep.decode(o) for o in runs[0]["first_pass"]], refs)
    n_points = sum(item.points for item in first)
    n_points += sum(item.points for _ in range(runs[0]["passes"] - 1) for item in next(gen))

    lat = sorted(best)
    p99 = percentile(lat, 0.99)
    metrics = {
        "points_per_s": n_points / (sum(lat) * 1e-9),
        "call_p50_us": percentile(lat, 0.50) * 1e-3,
        "call_p99_us": p99 * 1e-3,
        "setup_s": cold["setup_s"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "ok_frac": 1.0 - total.failed / total.attempted,
        "honest_frac": 1.0 - acc["underreport_frac"],
        "max_rel_err": acc["max_rel_err"],
        "p50_rel_err": acc["p50_rel_err"],
    }
    info = {"loop": total, "acc": acc, "samples": len(lat), "identical": deterministic,
            "beyond_p99": sum(1 for x in lat if x > p99), "passes": runs[0]["passes"]}
    return metrics, info


def per_layer(bg, wl, seed: int, seconds: float, cold: dict,
              spans_path: Path) -> tuple[dict, dict]:
    """Each pass untraced, then traced, until seconds have passed."""
    from tracer import Tracer

    passes = wl.passes(seed)
    items = next(passes)
    wl.run(bg, items[0])
    loop = Loop()
    tracer = Tracer()
    per_pass: list[dict] = []
    identical = True
    deadline = perf_counter_ns() + int(seconds * 1e9)
    while True:
        plain_lat, plain = loop.run(bg, wl, items)
        tracer.reset()
        raw_before, scaled_before = loop.raw_ns, loop.scaled_ns
        with tracer:
            traced_lat, traced = loop.run(bg, wl, items)
        traced_ns = loop.scaled_ns - scaled_before
        identical = identical and repr(plain) == repr(traced)
        # spans hold raw times; scale them by the pass's mean calibration
        layer = tracer.layer_metrics(traced_ns, traced_ns / (loop.raw_ns - raw_before))
        layer["trace.overhead_frac"] = sum(traced_lat) / sum(plain_lat) - 1.0
        per_pass.append(layer)
        if len(per_pass) == 1:
            tracer.write(spans_path)
        if perf_counter_ns() >= deadline:
            break
        items = next(passes)

    # work counts of the first pass (the accuracy pass) repeat exactly for
    # every seed; times and fractions vary, so take their median over passes
    metrics = dict(per_pass[0])
    for key in metrics:
        if key.endswith(("_s", "_frac")):
            metrics[key] = statistics.median(p[key] for p in per_pass)
    first = per_pass[0]

    def ratio(num: str, den: str) -> float:
        d = sum(first[k] for k in den.split("+"))
        return first[num] / d if d else 0.0

    metrics["expansion.bound_evals_per_eval"] = ratio("expansion.best_bound.calls",
                                                      "expansion.certified_eval.calls")
    metrics["oracle.panels_per_call"] = ratio(
        "quadrature.panels", "oracle.remainder_wide.calls+oracle.remainder_narrow.calls")
    metrics["special.e1.lentz_frac"] = ratio("special.e1.lentz", "special.e1.calls")
    metrics["quadrature.gauss_nodes.misses"] = bg.quadrature.gauss_nodes.cache_info().misses
    metrics.update({k: v for k, v in cold.items() if k != "setup_s"})
    return metrics, {"loop": loop, "identical": identical, "passes": len(per_pass)}


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_per_eval"):
        return "calls/eval"
    if name.endswith("_per_call"):
        return "panels/call"
    return "count"


# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "barnesg" / "__init__.py").is_file():
        print(f"error: no barnesg sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    cold = cold_metrics(wl, args.seed, layers=bool(args.trace))

    import barnesg as bg

    anchors_ok, notes = anchor_gate(bg)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        metrics, info = per_layer(bg, wl, args.seed, args.seconds, cold,
                                  OUT / f"spans-{wl.name}-{args.seed}.tsv")
    else:
        metrics, info = end_to_end(wl, args.seed, args.seconds, cold)
    loop = info["loop"]
    correct = anchors_ok and info["identical"]

    print(f"# workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  (closed loop, one thread, one process at a time)")
    print(f"# {wl.why}")
    print(f"# times scaled by calibration: mean factor {loop.scaled_ns / loop.raw_ns:.3f} "
          f"(raw loop time {loop.raw_ns * 1e-9:.2f} s)")
    for note in notes:
        print(f"# anchor {note}")
    if args.trace:
        print(f"# traced passes {info['passes']}; traced outputs bit-identical: "
              f"{info['identical']}")
    else:
        acc = info["acc"]
        print(f"# {info['passes']} passes, {info['samples']} items, fastest of {REPEATS} "
              f"sweeps each; {info['beyond_p99']} beyond p99; sweeps reproduce outputs: "
              f"{info['identical']}")
        print(f"fail_frac = {loop.failed / loop.attempted:.6g} -  "
              f"({loop.failed}/{loop.attempted} calls; by type {dict(loop.failures)})")
        print(f"underreport_frac = {acc['underreport_frac']:.6g} -  "
              f"({acc['under']}/{acc['pairs']} pairs; by route {acc['by_route']})")
        for z, route, e, err in acc["known_failing_rows"]:
            print(f"# known-failing row z={z:.6g}: {route} |error| {e:.3g}, reported {err:.3g}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
