"""The benchmark's metrics: names, units, direction and what they move.

``END_TO_END`` is what an untraced run prints; ``PER_LAYER`` is what a
traced run prints.  Every run prints every metric of its kind, so a
layer a workload does not exercise reads 0 there.

Each per-layer entry names the end-to-end metric it should move and on
which workload, written down before any optimisation is measured.
"""

from __future__ import annotations

from typing import Dict, Tuple

PLANTED = "planted-4shard"
HOT = "hot-http"
INGEST = "ingest-process"

#: name -> (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "qps": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p95_ms": ("ms", "lower"),
    "success_rate": ("ratio", "higher"),
    "memory_mb": ("MiB", "lower"),
}

#: name -> (unit, better, what it should move)
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    # repro.rangesearch: report_triangles / count_triangles self time.
    # Traced spans in thread execution; in process execution the
    # worker's MatchStats (range_search stage, one report per iteration).
    "rangesearch.ms_per_query": ("ms", "lower", f"qps, latency_p50_ms on {PLANTED}; latency_p95_ms on {HOT}"),
    "rangesearch.calls_per_query": ("count", "lower", f"qps, latency_p50_ms on {PLANTED}"),
    "rangesearch.triangles_per_call": ("count", "lower", f"qps, latency_p50_ms on {PLANTED}"),
    "rangesearch.points_per_call": ("count", "lower", f"qps, latency_p50_ms on {PLANTED}"),
    # repro.core.matcher: MatchStats summed over the shards of a query.
    "matcher.iterations_per_query": ("count", "lower", f"qps, latency_p50_ms on {PLANTED}"),
    "matcher.vertices_processed_per_query": ("count", "lower", f"qps, latency_p50_ms on {PLANTED}"),
    "matcher.candidates_per_query": ("count", "lower", f"qps, latency_p50_ms on {PLANTED}"),
    "matcher.normalize_ms": ("ms", "lower", f"qps, latency_p50_ms on {PLANTED}"),
    "matcher.calibrate_ms": ("ms", "lower", f"qps, latency_p50_ms on {PLANTED}"),
    "matcher.range_search_ms": ("ms", "lower", f"qps, latency_p50_ms on {PLANTED}"),
    "matcher.filter_ms": ("ms", "lower", f"qps, latency_p50_ms on {PLANTED}"),
    "matcher.exact_measures_ms": ("ms", "lower", f"qps, latency_p50_ms on {PLANTED}"),
    "matcher.useful_vertex_share": ("ratio", "higher", f"qps, latency_p50_ms on {PLANTED}"),
    # repro.service.shards
    "shards.straggler_ratio": ("ratio", "lower", f"latency_p95_ms on {PLANTED}"),
    "shards.merge_ms": ("ms", "lower", f"latency_p95_ms on {PLANTED}"),
    # repro.service.service; the overhead includes waiting for a free
    # pool thread and, in process execution, the pre-query sync.
    "service.overhead_ms": ("ms", "lower", f"latency_p50_ms on {PLANTED} and {INGEST}"),
    "service.cache_hit_share": ("ratio", "higher", f"latency_p50_ms, qps on {HOT}"),
    # repro.service.procpool
    "procpool.ipc_ms_per_call": ("ms", "lower", f"latency_p50_ms on {INGEST}"),
    # Sync stalls hit about 2% of ingest-process reads (above its p95),
    # so they move its qps rather than its p95.
    "procpool.sync_ms_per_round": ("ms", "lower", f"qps on {INGEST}"),
    "procpool.delta_rounds": ("count", "higher", f"qps on {INGEST}"),
    "procpool.full_rounds": ("count", "lower", f"qps on {INGEST}"),
    "procpool.delta_bytes_per_round": ("bytes", "lower", f"qps on {INGEST}"),
    "procpool.full_bytes_per_round": ("bytes", "lower", f"qps on {INGEST}"),
    # repro.service.ingest and repro.core.shapebase; the open-loop
    # ingest latencies are timed from each batch's due time.  Folds and
    # pending delta are the parent's counters: in process execution the
    # parent keeps no range index (workers fold after each delta), so
    # they read 0 on ingest-process until that changes.
    "ingest_p50_ms": ("ms", "lower", f"write latency seen by the ingest client on {INGEST}"),
    "ingest_p95_ms": ("ms", "lower", f"write latency seen by the ingest client on {INGEST}"),
    "ingest_shapes_per_s": ("1/s", "higher", f"write throughput seen by the ingest client on {INGEST}"),
    "ingest.generator_lag_ms": ("ms", "lower", f"ingest_p95_ms on {INGEST}"),
    "ingest.add_ms_per_shape": ("ms", "lower", f"ingest_p50_ms, ingest_p95_ms, latency_p95_ms on {INGEST}"),
    "ingest.backpressure_waits": ("count", "lower", f"ingest_p50_ms, ingest_p95_ms on {INGEST}"),
    "ingest.folds": ("count", "lower", f"ingest_p50_ms, ingest_p95_ms on {INGEST}"),
    "ingest.fold_ms": ("ms", "lower", f"ingest_p50_ms, ingest_p95_ms on {INGEST}"),
    "ingest.peak_pending_delta": ("count", "lower", f"ingest_p50_ms, ingest_p95_ms on {INGEST}"),
    # repro.service.http: replica server, wire and balancer.
    "http.wire_ms": ("ms", "lower", f"latency_p50_ms on {HOT}"),
    "http.server_p50_ms": ("ms", "lower", f"latency_p50_ms on {HOT}"),
    "http.server_p95_ms": ("ms", "lower", f"latency_p95_ms on {HOT}"),
    "http.attempts_per_request": ("count", "lower", f"latency_p50_ms on {HOT}"),
    "http.balancer_self_ms": ("ms", "lower", f"latency_p50_ms on {HOT}"),
    # Set-up and repro.storage.persist.
    "setup.build_s": ("s", "lower", "setup_s on every workload"),
    "setup.warm_s": ("s", "lower", f"setup_s on {PLANTED} and {INGEST}"),
    "persist.save_s": ("s", "lower", f"setup_s on {HOT}"),
    "persist.snapshot_bytes": ("bytes", "lower", f"setup_s on {HOT}"),
    "http.fleet_start_s": ("s", "lower", f"setup_s on {HOT}"),
    # Tracing cost: requests alternate between traced and untraced
    # two-second windows of the same traced run.
    "trace.qps_traced": ("1/s", "higher", "none (tracing cost)"),
    "trace.qps_untraced": ("1/s", "higher", "none (tracing cost)"),
    "trace.overhead": ("ratio", "lower", "none (untraced qps over traced qps)"),
}
