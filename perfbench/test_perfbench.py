"""Tests of the benchmark itself: seeded inputs, accuracy columns, tracing.

Run with the library's sources on the path, e.g.
    PYTHONPATH=src python -m pytest -q perfbench
"""

import cmath
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import barnesg
import run
import workloads
from reference import references
from tracer import Tracer

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _first_passes(name, seed, count=2):
    gen = workloads.WORKLOADS[name].passes(seed)
    return [next(gen) for _ in range(count)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_points_other_seed_other_points(name):
    a, b = _first_passes(name, 7, 3), _first_passes(name, 8, 3)
    assert a == _first_passes(name, 7, 3)
    assert a[0] == b[0]  # the accuracy pass is the same for every seed
    n_fixed = len(workloads.WORKLOADS[name].fixed_rows())
    assert a[1][:n_fixed] == b[1][:n_fixed]  # fixed rows start every pass
    assert a[1][n_fixed:] != b[1][n_fixed:]
    assert a[1] != a[2]  # later passes draw new points


def test_points_stay_in_range():
    for wl in workloads.WORKLOADS.values():
        for items in _first_passes(wl.name, 3):
            grid = [it.z for it in items[len(wl.fixed_rows()):]
                    if isinstance(it, workloads.Point)]
            assert len(grid) == workloads.GRID_R * workloads.GRID_A
            for z in grid:
                assert wl.r_lo <= abs(z) <= wl.r_hi
                assert abs(cmath.phase(z)) <= workloads.ARG_MAX


def test_improved_sweep_interleaves_profiles():
    items = next(workloads.IMPROVED.passes(1))
    kinds = [isinstance(it, workloads.Profile) for it in items]
    assert kinds[workloads.PROFILE_EVERY] and not any(kinds[:workloads.PROFILE_EVERY])
    profiles = [it for it in items if isinstance(it, workloads.Profile)]
    assert {(p.k, p.thetas[25] > 0) for p in profiles} == {(1, True), (1, False),
                                                          (2, True), (2, False)}
    assert all(p.points == workloads.PROFILE_ANGLES for p in profiles)


def _accuracy_columns(seed, count=8):
    wl = workloads.ORACLE
    items = next(wl.passes(seed))[:count]
    outcomes = [wl.run(barnesg, it) for it in items]
    refs = references([it.z for it in items], wl.rn_orders)
    return run.accuracy(items, outcomes, refs)


def test_accuracy_columns_repeat_exactly():
    first = _accuracy_columns(5)
    assert first == _accuracy_columns(5)
    assert first == _accuracy_columns(6)  # the accuracy pass does not depend on the seed
    assert first["pairs"] > 0


def test_reference_cache_round_trip(tmp_path):
    pts = [w.z for w in next(workloads.CERTIFY.passes(2))[:3]]
    cache = tmp_path / "refs.json"
    fresh = references(pts, (), cache)
    assert references(pts, (), cache) == fresh
    # a cache written for other points is not used
    assert references(pts[:2], (), cache) == fresh[:2]


def test_tracing_preserves_outputs_and_restores_bindings():
    originals = {m: dict(vars(m)) for m in (barnesg, barnesg.special, barnesg.expansion,
                                            barnesg.oracle, barnesg.terminant)}
    poly = vars(barnesg.bernoulli.BernoulliTable)["poly_periodic"]
    for wl in workloads.WORKLOADS.values():
        items = next(wl.passes(4))[:30]
        plain = [wl.run(barnesg, it) for it in items]
        tracer = Tracer()
        with tracer:
            traced = [wl.run(barnesg, it) for it in items]
        assert repr(traced) == repr(plain)
        assert tracer.spans and all(s is not None for s in tracer.spans)
    for mod, before in originals.items():
        assert {k: v for k, v in vars(mod).items() if k in before} == before
    assert vars(barnesg.bernoulli.BernoulliTable)["poly_periodic"] is poly


def test_traced_run_reports_the_declared_layer_metrics(tmp_path):
    cold = {name: 1.0 for name in ("setup.import_s", "setup.first_call_s",
                                   "setup.import_scipy_s", "cli.cold_s")}
    metrics, info = run.per_layer(barnesg, workloads.CERTIFY, 1, 0.0, cold,
                                  tmp_path / "spans.tsv")
    assert info["identical"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["expansion.bound_evals_per_eval"] == 20
    for m in BENCHMARK["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"]
    assert (tmp_path / "spans.tsv").stat().st_size > 0


def test_end_to_end_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.E2E_UNITS
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: wl.why for name, wl in workloads.WORKLOADS.items()}


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "certify_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_anchor_gate_passes_the_library_and_fails_a_raising_route():
    assert run.anchor_gate(barnesg)[0]

    class Raising:
        def __getattr__(self, name):
            def call(*args):
                raise ValueError(name)
            return call

    ok, notes = run.anchor_gate(Raising())
    assert not ok
    assert len(notes) == 3 * len(workloads.ANCHORS)
