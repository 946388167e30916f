"""Per-layer metrics derived from a traced run, and what each should move.

``LAYER_METRICS`` is the single list of per-layer metrics: name, unit,
which direction is better, the end-to-end metric (and workload) each is
predicted to move, and the workloads where it should read 0 because the
workload bypasses the layer.  ``BENCHMARK.json`` lists the same names;
the tests hold the two together and check the zero predictions.
"""

from __future__ import annotations

from .spans import Tracer, child_counts, span_table

SD, SH, IS = "sweep_dense", "serve_http", "ingest_stream"

#: (name, unit, better, moves [(e2e metric, workload)], zero on).
LAYER_METRICS: list[tuple] = [
    ("gateway.http.self_s", "s", "lower",
     [("search_p50_ms", SH)], (SD, IS)),
    ("gateway.http.bytes_in", "bytes", "lower",
     [("search_p50_ms", SH)], (SD, IS)),
    ("gateway.http.bytes_out", "bytes", "lower",
     [("search_p50_ms", SH)], (SD, IS)),
    ("gateway.queue_wait_s", "s", "lower",
     [("search_tail_ms", SH)], (SD, IS)),
    ("gateway.refused", "count", "lower",
     [("answered_frac", SH)], (SD, IS)),
    ("sharding.self_s", "s", "lower",
     [("search_p50_ms", SH)], (SD, IS)),
    ("sharding.legs", "count", "lower",
     [("search_p50_ms", SH)], (SD, IS)),
    ("service.self_s", "s", "lower",
     [("search_p50_ms", SH), ("search_p50_ms", IS)], (SD,)),
    ("service.write_self_s", "s", "lower",
     [("ops_per_s", IS)], (SD, SH)),
    ("service.engine_builds", "count", "lower",
     [("setup_s", SH), ("setup_s", IS), ("ops_per_s", IS)], (SD,)),
    ("service.cache_lookups", "count", "lower", [], (SD,)),
    ("service.cache_hit_ratio", "ratio", "higher",
     [("setup_s", SH), ("setup_s", IS), ("ops_per_s", IS)], (SD,)),
    ("core.planner.busy_s", "s", "lower",
     [("search_p50_ms", SH), ("ops_per_s", SH)], (SD, IS)),
    ("core.planner.calls", "count", "lower",
     [("search_p50_ms", SH), ("ops_per_s", SH)], (SD, IS)),
    ("engines.gpu_temporal.busy_s", "s", "lower",
     [("ops_per_s", SD)], ()),
    ("engines.gpu_spatiotemporal.busy_s", "s", "lower",
     [("ops_per_s", SD)], (IS,)),
    ("engines.cpu_rtree.busy_s", "s", "lower",
     [("ops_per_s", SD)], (IS,)),
    ("engines.cpu_scan.busy_s", "s", "lower",
     [("search_p50_ms", IS)], (SD,)),
    ("engines.build_s", "s", "lower",
     [("setup_s", SD), ("ops_per_s", IS)], ()),
    ("indexes.rtree.build_s", "s", "lower", [("setup_s", SD)], (IS,)),
    ("indexes.rtree.query_s", "s", "lower", [("ops_per_s", SD)], (IS,)),
    ("indexes.rtree.node_visits", "count", "lower",
     [("ops_per_s", SD)], (IS,)),
    ("core.distance.coefficients_s", "s", "lower",
     [("ops_per_s", SD), ("search_tail_ms", SD), ("search_p50_ms", IS)],
     ()),
    ("core.distance.solve_s", "s", "lower",
     [("ops_per_s", SD), ("search_tail_ms", SD), ("search_p50_ms", IS)],
     ()),
    ("core.distance.pairs_solved", "count", "lower",
     [("ops_per_s", SD), ("search_tail_ms", SD), ("search_p50_ms", IS)],
     ()),
    ("core.distance.hits", "count", "higher", [], ()),
    ("core.distance.hit_ratio", "ratio", "higher",
     [("ops_per_s", SD), ("search_tail_ms", SD), ("search_p50_ms", IS)],
     ()),
    ("gpu.kernel.busy_s", "s", "lower", [("ops_per_s", SD)], ()),
    ("gpu.kernel.launches", "count", "lower", [("modeled_s", "all")], ()),
    ("gpu.kernel.comparisons", "count", "lower",
     [("modeled_s", "all")], ()),
    ("gpu.h2d_bytes", "bytes", "lower", [("modeled_s", "all")], ()),
    ("gpu.d2h_bytes", "bytes", "lower", [("modeled_s", "all")], ()),
    ("ingest.overlay_s", "s", "lower", [("search_p50_ms", IS)], (SD, SH)),
    ("ingest.delta_rows_scanned", "count", "lower",
     [("search_p50_ms", IS)], (SD, SH)),
    ("ingest.compact_s", "s", "lower", [("write_tail_ms", IS)], (SD, SH)),
    ("ingest.compactions", "count", "lower",
     [("write_tail_ms", IS)], (SD, SH)),
    ("durability.wal.append_s", "s", "lower",
     [("write_p50_ms", IS)], (SD, SH)),
    ("durability.wal.records", "count", "lower",
     [("write_p50_ms", IS)], (SD, SH)),
    ("durability.wal.bytes_per_user_byte", "ratio", "lower",
     [("write_p50_ms", IS)], (SD, SH)),
    ("durability.checkpoint.busy_s", "s", "lower",
     [("write_tail_ms", IS)], (SD, SH)),
    ("durability.checkpoint.count", "count", "lower",
     [("write_tail_ms", IS)], (SD, SH)),
    ("durability.checkpoint.bytes", "bytes", "lower",
     [("write_tail_ms", IS)], (SD, SH)),
    ("standing.process_s", "s", "lower", [("write_p50_ms", IS)], (SD, SH)),
    ("standing.affected", "count", "lower",
     [("write_p50_ms", IS)], (SD, SH)),
    ("standing.skipped", "count", "higher",
     [("write_p50_ms", IS)], (SD, SH)),
    ("standing.affected_ratio", "ratio", "lower",
     [("write_p50_ms", IS)], (SD, SH)),
    # Mutation latency, untraced: only ingest_stream writes.
    ("write_p50_ms", "ms", "lower", [("ops_per_s", IS)], (SD, SH)),
    ("write_tail_ms", "ms", "lower", [("ops_per_s", IS)], (SD, SH)),
    # The traced run beside the untraced one over the same schedule.
    ("untraced.search_p50_ms", "ms", "lower", [], ()),
    ("untraced.ops_per_s", "1/s", "higher", [], ()),
    ("traced.search_p50_ms", "ms", "lower", [], ()),
    ("traced.ops_per_s", "1/s", "higher", [], ()),
    ("trace.overhead_frac", "ratio", "lower", [], ()),
    ("trace.root_s", "s", "lower", [], ()),
    ("trace.unwrapped_s", "s", "lower", [], ()),
    ("trace.accounted_frac", "ratio", "higher", [], ()),
]

#: counters that must repeat exactly for one seed (the self-check).
#: ``gateway.http.bytes_out`` is left out: every response carries the
#: service's wall-clock fields, whose printed length varies run to run.
EXACT_COUNTERS = (
    "gpu.kernel.launches", "gpu.kernel.comparisons", "gpu.h2d_bytes",
    "gpu.d2h_bytes", "indexes.rtree.node_visits",
    "core.distance.pairs_solved", "core.distance.hits",
    "durability.wal.records", "durability.checkpoint.count",
    "ingest.compactions", "standing.affected", "standing.skipped",
    "gateway.http.bytes_in",
)

#: the benchmark's own per-operation root spans: their self time is
#: the part of an operation no wrapped layer accounts for.
ROOT_SPANS = ("op.search", "op.ingest", "op.delete")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, *, cache_hits: int, cache_misses: int,
                  bytes_in: int, bytes_out: int) -> dict[str, float]:
    """Every per-layer metric of one traced run (names as listed in
    :data:`LAYER_METRICS`, minus the latency entries the caller adds)."""
    table = span_table(tracer.spans)
    c = tracer.counters

    def busy(name: str) -> float:
        return table.get(name, {}).get("busy_s", 0.0)

    def self_(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return table.get(name, {}).get("calls", 0)

    root_s = sum(row["root_s"] for row in table.values())
    unwrapped = sum(self_(n) for n in ROOT_SPANS)
    layer_self = sum(row["self_s"] for n, row in table.items()
                     if n not in ROOT_SPANS)
    lookups = cache_hits + cache_misses
    return {
        "gateway.http.self_s": self_("gateway.http"),
        "gateway.http.bytes_in": bytes_in,
        "gateway.http.bytes_out": bytes_out,
        "gateway.queue_wait_s": self_("gateway"),
        "gateway.refused": c["gateway.refused"],
        "sharding.self_s": self_("sharding"),
        "sharding.legs": child_counts(tracer.spans, "sharding",
                                      "service"),
        "service.self_s": self_("service"),
        "service.write_self_s": self_("service.write"),
        "service.engine_builds": cache_misses,
        "service.cache_lookups": lookups,
        "service.cache_hit_ratio": _ratio(cache_hits, lookups),
        "core.planner.busy_s": busy("core.planner"),
        "core.planner.calls": calls("core.planner"),
        "engines.gpu_temporal.busy_s": busy("engines.gpu_temporal"),
        "engines.gpu_spatiotemporal.busy_s":
            busy("engines.gpu_spatiotemporal"),
        "engines.cpu_rtree.busy_s": busy("engines.cpu_rtree"),
        "engines.cpu_scan.busy_s": busy("engines.cpu_scan"),
        "engines.build_s": busy("engines.build"),
        "indexes.rtree.build_s": busy("indexes.rtree.build"),
        "indexes.rtree.query_s": busy("indexes.rtree.query"),
        "indexes.rtree.node_visits": c["indexes.rtree.node_visits"],
        "core.distance.coefficients_s":
            busy("core.distance.coefficients"),
        "core.distance.solve_s": busy("core.distance.solve"),
        "core.distance.pairs_solved": c["core.distance.pairs_solved"],
        "core.distance.hits": c["core.distance.hits"],
        "core.distance.hit_ratio": _ratio(c["core.distance.hits"],
                                          c["core.distance.pairs_solved"]),
        "gpu.kernel.busy_s": busy("gpu.kernel"),
        "gpu.kernel.launches": c["gpu.kernel.launches"],
        "gpu.kernel.comparisons": c["gpu.kernel.comparisons"],
        "gpu.h2d_bytes": c["gpu.h2d_bytes"],
        "gpu.d2h_bytes": c["gpu.d2h_bytes"],
        "ingest.overlay_s": busy("ingest.overlay"),
        "ingest.delta_rows_scanned": c["ingest.delta_rows_scanned"],
        "ingest.compact_s": busy("ingest.compact"),
        "ingest.compactions": c["ingest.compactions"],
        "durability.wal.append_s": busy("durability.wal.append"),
        "durability.wal.records": c["durability.wal.records"],
        "durability.wal.bytes_per_user_byte":
            _ratio(c["durability.wal.bytes"],
                   c["durability.wal.user_bytes"]),
        "durability.checkpoint.busy_s": busy("durability.checkpoint"),
        "durability.checkpoint.count": c["durability.checkpoint.count"],
        "durability.checkpoint.bytes": c["durability.checkpoint.bytes"],
        "standing.process_s": busy("standing.process"),
        "standing.affected": c["standing.affected"],
        "standing.skipped": c["standing.skipped"],
        "standing.affected_ratio": _ratio(
            c["standing.affected"],
            c["standing.affected"] + c["standing.skipped"]),
        "trace.root_s": root_s,
        "trace.unwrapped_s": unwrapped,
        "trace.accounted_frac": _ratio(layer_self + unwrapped, root_s),
    }


def self_time_table(tracer: Tracer) -> list[tuple[str, int, float,
                                                  float]]:
    """``(span, calls, busy_s, self_s)`` rows, largest self time
    first — the human-readable breakdown the run prints."""
    table = span_table(tracer.spans)
    rows = [(name, row["calls"], row["busy_s"], row["self_s"])
            for name, row in table.items()]
    return sorted(rows, key=lambda r: -r[3])
