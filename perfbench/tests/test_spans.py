"""Tests for the traced wrappers, the layer predictions and the
benchmark's contract files.

Run from the repository root::

    python3 -m pytest -q perfbench/tests

The workloads run here are scaled-down subclasses of the benchmark's
own, so every layer a workload crosses is still crossed, in seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run
from perfbench.layers import EXACT_COUNTERS, LAYER_METRICS
from perfbench.spans import (TARGETS, WRAPPED_MARK, Instrumentation,
                             Tracer, installed_wrappers, span_table)
from perfbench.workloads import IngestStream, ServeHttp, SweepDense

ROOT = Path(__file__).resolve().parents[2]
SD, SH, IS = "sweep_dense", "serve_http", "ingest_stream"


class TinySweep(SweepDense):
    SCALE = 0.002
    QUERY_TRAJECTORIES = 2


class TinyHttp(ServeHttp):
    SCALE = 0.01


class TinyStream(IngestStream):
    BASE_TRAJECTORIES = 20
    BASE_STEPS = 101


TINY = {SD: TinySweep, SH: TinyHttp, IS: TinyStream}
#: one block each: a full d-sweep round, one request per d, 6 epochs.
TINY_OPS = {SD: SweepDense.OPS_PER_ROUND, SH: ServeHttp.BLOCK, IS: 6}

#: span name -> the workloads whose traced run must record it.
FIRES = {
    "gateway.http": {SH},
    "gateway": {SH},
    "sharding": {SH},
    "service": {SH, IS},
    "service.write": {IS},
    "core.planner": {SH},
    "ingest.overlay": {IS},
    "engines.build": {SD, SH, IS},
    "engines.gpu_temporal": {SD, IS},
    "engines.gpu_spatiotemporal": {SD},
    "engines.cpu_rtree": {SD},
    "engines.cpu_scan": {IS},
    "indexes.rtree.build": {SD},
    "indexes.rtree.query": {SD},
    "core.distance.coefficients": {SD, SH, IS},
    "core.distance.solve": {SD, SH, IS},
    "gpu.kernel": {SD, IS},
    "ingest.compact": {IS},
    "durability.wal.append": {IS},
    "durability.checkpoint": {IS},
    "standing.process": {IS},
}
#: counter-only wrappers -> the workloads where they must count.
COUNTS = {"gpu.h2d_bytes": {SD, IS}, "gpu.d2h_bytes": {SD}}


def _traced(name: str, tmp: Path, seed: int = 3):
    workload = TINY[name](seed, tmp / name)
    try:
        return run.traced_session(workload, TINY_OPS[name])
    finally:
        workload.teardown()


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return {name: _traced(name, tmp) for name in TINY}


def test_wrappers_patch_the_callers_lookup():
    import repro.core.distance as distance
    import repro.core.planner as planner
    import repro.engines.base as base
    import repro.service.scheduler as scheduler
    before = (scheduler.plan_search, base.pair_coefficients,
              base.solve_intervals, distance.pair_coefficients)
    with Instrumentation(Tracer()) as inst:
        assert inst.missing == []
        for fn in (scheduler.plan_search, base.pair_coefficients,
                   base.solve_intervals):
            assert getattr(fn, WRAPPED_MARK, False)
        # The defining module's own binding of plan_search is left
        # alone: the service looks the name up in its own module.
        assert planner.plan_search is before[0]
        assert len(installed_wrappers()) == len(TARGETS)
    after = (scheduler.plan_search, base.pair_coefficients,
             base.solve_intervals, distance.pair_coefficients)
    assert after == before
    assert installed_wrappers() == []


def test_every_wrapper_has_a_firing_prediction():
    names = {t[2] for t in TARGETS if isinstance(t[2], str)}
    engine_spans = {n for n in FIRES if n.startswith("engines.")
                    and n != "engines.build"}
    # gateway.http is the HTTP client's own root span, not a wrapper.
    assert names | engine_spans | {"gateway.http"} == set(FIRES)


@pytest.mark.parametrize("span", sorted(FIRES))
def test_wrapper_fires_where_predicted(traced, span):
    for name in FIRES[span]:
        table = span_table(traced[name][1].spans)
        assert table.get(span, {}).get("calls", 0) > 0, (span, name)


@pytest.mark.parametrize("counter", sorted(COUNTS))
def test_counter_fires_where_predicted(traced, counter):
    for name in COUNTS[counter]:
        assert traced[name][1].counters[counter] > 0, (counter, name)


@pytest.mark.parametrize("metric", [m for m in LAYER_METRICS if m[4]],
                         ids=lambda m: m[0])
def test_bypassed_layers_read_zero(traced, metric):
    name, _unit, _better, _moves, zero_on = metric
    for workload in zero_on:
        metrics = traced[workload][3]
        if name in metrics:  # latency entries are added by the runner
            assert metrics[name] == 0, (name, workload)


def test_layers_bypassed_by_design_read_zero(traced):
    assert traced[SD][3]["core.planner.calls"] == 0
    assert traced[IS][3]["core.planner.calls"] == 0
    assert traced[SD][3]["durability.wal.records"] == 0
    assert traced[SH][3]["durability.wal.records"] == 0
    for workload in (SD, IS):
        gateway = {k: v for k, v in traced[workload][3].items()
                   if k.startswith("gateway.")}
        assert gateway and not any(gateway.values())


def test_no_wrapper_survives_a_traced_session(traced):
    assert installed_wrappers() == []


def test_layer_self_times_account_for_the_root_time(traced):
    for name, (_phase, _tracer, _missing, metrics) in traced.items():
        assert metrics["trace.accounted_frac"] == pytest.approx(
            1.0, abs=0.02), name


def test_referee_passes_on_the_traced_sessions(traced):
    for name, (phase, *_rest) in traced.items():
        assert phase.mismatched == 0 and phase.failed == 0, (
            name, phase.notes)


@pytest.mark.parametrize("name", sorted(TINY))
def test_exact_counters_repeat_for_a_seed(traced, tmp_path, name):
    again = _traced(name, tmp_path)[3]
    first = traced[name][3]
    drift = {k: (first[k], again[k]) for k in EXACT_COUNTERS
             if first[k] != again[k]}
    assert drift == {}


def test_self_time_is_duration_minus_covered_children():
    spans = [[0, "root", 0.0, 10.0, None, "r"],
             [1, "a", 1.0, 4.0, 0, "r"],
             [2, "b", 3.0, 6.0, 0, "r"],   # overlaps a: union is 1..6
             [3, "c", 2.0, 3.0, 1, "r"]]
    table = span_table(spans)
    assert table["root"]["self_s"] == pytest.approx(5.0)
    assert table["a"]["self_s"] == pytest.approx(2.0)
    assert table["root"]["root_s"] == pytest.approx(10.0)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == pytest.approx(90.0)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == \
        [m[0] for m in LAYER_METRICS]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {m[0]: m[1] for m in LAYER_METRICS}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.E2E_UNITS
    assert [w["name"] for w in spec["workloads"]] == [SD, SH, IS]
    readme = (ROOT / "perfbench" / "README.md").read_text()
    for metric in spec["per_layer"] + spec["end_to_end"]:
        assert f"`{metric['name']}`" in readme, metric["name"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", SD,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
