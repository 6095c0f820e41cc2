"""The three workloads of the benchmark.

Each workload builds its corpus from the seed, sets the program up
``SETUP_REPEATS`` times (reporting the median set-up time), warms it,
drives it for the requested seconds with at most two client threads,
and then referees the answers.  ``run`` returns an :class:`Outcome`;
``run.py`` turns it into the result line.

* ``planted-4shard`` — in-process service, 4 shards, exact tier, k=1;
  every query is a stored shape under a random similarity.  The range
  search kernel and the per-shard stop rule carry the time.
* ``hot-http`` — a 2-replica HTTP fleet behind the balancer, served
  from one saved snapshot, with result caches on; a Zipf-skewed pool
  of distorted sketches, each re-sent under a fresh similarity.  The
  wire, balancer, cache and snapshot load carry the time.
* ``ingest-process`` — in-process service in process execution with
  streaming ingest: an open-loop writer beside one closed-loop reader
  of freshly written shapes.  Copy-on-write append, delta publication
  and process IPC carry the time.  One 8-shape batch a second keeps
  the writer's share of the host small: the reader gets the capacity
  the writer leaves, so a heavier writer turns small swings in host
  load into large swings in read throughput.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from common import (POOL, QUERIES, ROOT, SIMILARITY, STREAM, SeededStream,
                    ZipfSampler, build_base, make_corpus, mean, median,
                    nearest_rank, percentile, pss_mb, similar, similarity,
                    stream_rng, transformed)
from tracer import Tracer, self_time

clock = time.perf_counter

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3
#: Closed-loop client threads (the host budget is two cores).
CLIENTS = 2
#: Traced runs trace requests that start in even windows of this
#: length and leave the odd ones untraced.  A multiple of the ingest
#: period, so both kinds of window see the same number of writes.
TRACE_WINDOW_S = 2.0

# planted-4shard
PLANTED_PRIME = 4            # untimed first-touch queries
PLANTED_SAMPLE = 8           # first timed queries re-answered unsharded

# hot-http
HOT_REPLICAS = 2
HOT_CACHE = 32               # per-replica result cache entries
HOT_POOL = 128               # distinct sketches, 4x the cache
HOT_ZIPF_S = 1.1
HOT_K = 5
HOT_WARMUP_CAP_S = 40.0      # give up waiting for full caches after this
HOT_REFEREE_HOT = 4          # hottest ranks (cached) in the referee sample
HOT_REFEREE_COLD = 4         # uniform ranks in the referee sample
#: Answers computed for two similar copies of one sketch (a cache hit
#: serves the first copy's answer) agree to float rounding only.
HOT_DISTANCE_TOL = 1e-9

# ingest-process
INGEST_PERIOD_S = 1.0
INGEST_BATCH = 8
INGEST_RECENT = 64           # reads target the last 64 acknowledged shapes
INGEST_PRIME = 4
INGEST_REFEREE = 8


@dataclass
class Outcome:
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    #: phase -> {"sent", "succeeded", "failed"}
    phases: Dict[str, Dict[str, int]] = field(default_factory=dict)
    wrong: List[str] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)

    def count(self, phase: str, ok: bool) -> None:
        row = self.phases.setdefault(
            phase, {"sent": 0, "succeeded": 0, "failed": 0})
        row["sent"] += 1
        row["succeeded" if ok else "failed"] += 1


def _request(tracer: Optional[Tracer], name: str, sketch, traced: bool):
    if tracer is None:
        return nullcontext(None)
    return tracer.request(name, sketch, traced)


def _traced_window(elapsed: float) -> bool:
    return int(elapsed / TRACE_WINDOW_S) % 2 == 0


def drive(one: Callable[[bool], dict], seconds: Optional[float] = None,
          until: Optional[Callable[[], bool]] = None, cap: float = 0.0,
          tracer: Optional[Tracer] = None, clients: int = CLIENTS):
    """Closed loop: ``clients`` threads call ``one(traced)`` back to back.

    Runs for ``seconds``, or until ``until()`` (polled twice a second)
    holds or ``cap`` seconds pass.  ``one`` returns a record dict with
    at least ``ok``; the loop adds ``start``/``end``/``traced``, and an
    exception becomes a failed record.  Returns ``(t0, t_end, records)``
    where ``t_end`` is when the loop stopped issuing requests.
    """
    t0 = clock()
    limit = t0 + (seconds if seconds is not None else cap)
    stop = threading.Event()
    records: List[dict] = []
    lock = threading.Lock()

    def client() -> None:
        while not stop.is_set():
            start = clock()
            if start >= limit:
                return
            traced = tracer is not None and _traced_window(start - t0)
            try:
                record = one(traced)
            except Exception as exc:  # a failed operation, not a crash
                record = {"ok": False, "error": f"{type(exc).__name__}: "
                                                f"{exc}"}
            record.update(start=start, end=clock(), traced=traced)
            with lock:
                records.append(record)

    threads = [threading.Thread(target=client, name=f"perfbench-client-{i}")
               for i in range(clients)]
    for thread in threads:
        thread.start()
    t_end = limit
    try:
        if until is not None:
            while clock() < limit and not until():
                time.sleep(0.5)
            stop.set()
            t_end = min(clock(), limit)
    finally:
        for thread in threads:
            thread.join()
    return t0, t_end, records


def _closed_loop_metrics(outcome: Outcome, t0: float, t_end: float,
                         records: List[dict], phase: str = "timed") -> None:
    """qps, latency percentiles and success rate of a timed phase.

    Requests completing after the window closed count toward success
    but not toward qps or latency."""
    for record in records:
        outcome.count(phase, record["ok"])
    done = [r for r in records if r["ok"] and r["end"] <= t_end]
    if not done:
        raise RuntimeError(f"no request completed in the {phase} phase")
    latencies = [(r["end"] - r["start"]) * 1e3 for r in done]
    outcome.e2e["qps"] = len(done) / (t_end - t0)
    outcome.e2e["latency_p50_ms"] = percentile(latencies, 50)
    outcome.e2e["latency_p95_ms"] = percentile(latencies, 95)
    outcome.e2e["success_rate"] = (sum(r["ok"] for r in records)
                                   / len(records))
    outcome.info["timed_samples"] = len(done)


def _trace_overhead(outcome: Outcome, t0: float, t_end: float,
                    records: List[dict]) -> None:
    traced_time = untraced_time = 0.0
    edge = t0
    while edge < t_end:
        nxt = min(edge + TRACE_WINDOW_S, t_end)
        if _traced_window(edge - t0 + 1e-9):
            traced_time += nxt - edge
        else:
            untraced_time += nxt - edge
        edge = nxt
    done = [r for r in records if r["ok"] and r["end"] <= t_end]
    traced = sum(1 for r in done if r["traced"]) / traced_time
    untraced = (sum(1 for r in done if not r["traced"]) / untraced_time
                if untraced_time else 0.0)
    outcome.layers["trace.qps_traced"] = traced
    outcome.layers["trace.qps_untraced"] = untraced
    outcome.layers["trace.overhead"] = untraced / traced if traced else 0.0


def _median_setup(outcome: Outcome, setups: List[Dict[str, float]]) -> None:
    """setup_s is the median total; its parts are their own medians."""
    for setup in setups:
        outcome.count("setup", True)
    outcome.e2e["setup_s"] = median([s["total"] for s in setups])
    outcome.info["setup_s_all"] = [s["total"] for s in setups]
    for name in ("setup.build_s", "setup.warm_s", "persist.save_s",
                 "persist.snapshot_bytes", "http.fleet_start_s"):
        outcome.layers[name] = median([s.get(name, 0.0) for s in setups])


# ----------------------------------------------------------------------
# Referees
# ----------------------------------------------------------------------
def rank1_is(matches, shape_id: int) -> bool:
    """A planted query's first answer is the shape it was made from."""
    return bool(matches) and matches[0].shape_id == shape_id


def same_matches(got, want) -> bool:
    """Bit-for-bit equal ranked answers (entry ids may differ between
    differently built bases, so they are not compared)."""
    def key(match):
        return (match.shape_id, match.image_id, match.distance,
                match.approximate)
    return [key(m) for m in got] == [key(m) for m in want]


def same_wire_matches(got: List[dict], want, tol: float) -> bool:
    """An HTTP answer equals an in-process one: identical shapes,
    images and tiers, distances within ``tol``."""
    return len(got) == len(want) and all(
        g["shape_id"] == w.shape_id and g["image_id"] == w.image_id
        and g["approximate"] == w.approximate
        and abs(g["distance"] - w.distance) <= tol
        for g, w in zip(got, want))


def rebuilt_matcher(shards, beta: float):
    """An unsharded matcher over a base rebuilt from scratch, shape for
    shape, from the live shards' corpus."""
    from repro import ShapeBase
    from repro.core.matcher import GeometricSimilarityMatcher
    rows = sorted((int(sid), shape, shard.base.shape_image[sid])
                  for shard in shards
                  for sid, shape in shard.base.shapes.items())
    rebuilt = ShapeBase(alpha=0.1)
    rebuilt.add_shapes([shape for _, shape, _ in rows],
                       image_ids=[image for _, _, image in rows],
                       shape_ids=[sid for sid, _, _ in rows])
    return GeometricSimilarityMatcher(rebuilt, beta=beta)


# ----------------------------------------------------------------------
# Tracing of the in-process service stack
# ----------------------------------------------------------------------
def _record_shard(span, args, result) -> None:
    matches, stats = result
    span.attrs.update(
        shape_ids=[m.shape_id for m in matches],
        iterations=stats.iterations,
        vertices_processed=stats.vertices_processed,
        candidates=stats.candidates_evaluated,
        triangles=stats.triangles_queried,
        reported=stats.vertices_reported,
        timings=dict(stats.timings))


def install_service_tracing(tracer: Tracer, process: bool) -> None:
    """Spans on the public entry points the service query path calls."""
    import repro.rangesearch as rangesearch
    import repro.service.service as service_module
    from repro.service import ProcessShardView, ProcessWorkerPool, Shard
    from repro.service.shards import ShardSet

    def sketch_arg(args):
        return args[1]

    if process:
        tracer.wrap(ProcessShardView, "query", "shard.query",
                    link=sketch_arg, record=_record_shard)
        tracer.wrap(ProcessWorkerPool, "sync", "procpool.sync",
                    record=lambda span, args, result:
                    span.attrs.update(round=bool(result)))
    else:
        tracer.wrap(Shard, "query", "shard.query", link=sketch_arg,
                    record=_record_shard)
        for cls in (rangesearch.TriangleRangeIndex, rangesearch.KdTreeIndex,
                    rangesearch.BruteForceIndex,
                    rangesearch.IncrementalIndex,
                    rangesearch.LayeredRangeTreeIndex):
            if "report_triangles" in cls.__dict__:
                tracer.wrap(cls, "report_triangles", "rangesearch",
                            outermost=True,
                            record=lambda span, args, result: span.attrs
                            .update(triangles=len(args[1]),
                                    points=int(result.size)))
            if "count_triangles" in cls.__dict__:
                tracer.wrap(cls, "count_triangles", "rangesearch",
                            outermost=True,
                            record=lambda span, args, result: span.attrs
                            .update(triangles=len(args[1]),
                                    points=int(np.sum(result))))
    tracer.wrap(service_module, "merge_topk", "shards.merge")
    tracer.wrap(ShardSet, "add_shapes", "shardset.add_shapes",
                record=lambda span, args, result:
                span.attrs.update(shapes=len(result)))


def service_layer_metrics(tracer: Tracer, outcome: Outcome,
                          process: bool) -> None:
    """Per-layer metrics of traced ``service.retrieve`` requests."""
    layers = outcome.layers
    totals = {key: 0.0 for key in (
        "iterations", "vertices", "useful", "candidates", "range_ms",
        "range_calls", "range_triangles", "range_points", "merge_ms")}
    stages = {stage: 0.0 for stage in ("normalize", "calibrate",
                                       "range_search", "filter",
                                       "exact_measures")}
    stragglers, overheads, ipc = [], [], []
    queries = 0
    for spans in tracer.by_request().values():
        root = next(s for s in spans if s.parent is None)
        if root.name != "service.retrieve":
            continue
        queries += 1
        shard_spans = [s for s in spans if s.name == "shard.query"]
        top = set(root.attrs.get("top", ()))
        for span in shard_spans:
            totals["iterations"] += span.attrs["iterations"]
            totals["vertices"] += span.attrs["vertices_processed"]
            totals["candidates"] += span.attrs["candidates"]
            if top & set(span.attrs["shape_ids"]):
                totals["useful"] += span.attrs["vertices_processed"]
            for stage in stages:
                stages[stage] += span.attrs["timings"].get(stage, 0.0) * 1e3
            if process:
                # The worker reports only matcher time; the rest of the
                # view call is encode, pipe and decode.
                worker_s = sum(span.attrs["timings"].values())
                ipc.append((span.duration - worker_s) * 1e3)
                totals["range_ms"] += \
                    span.attrs["timings"].get("range_search", 0.0) * 1e3
                totals["range_calls"] += span.attrs["iterations"]
                totals["range_triangles"] += span.attrs["triangles"]
                totals["range_points"] += span.attrs["reported"]
        for span in spans:
            if span.name == "rangesearch":
                totals["range_ms"] += span.duration * 1e3
                totals["range_calls"] += 1
                totals["range_triangles"] += span.attrs["triangles"]
                totals["range_points"] += span.attrs["points"]
            elif span.name == "shards.merge":
                totals["merge_ms"] += span.duration * 1e3
        if shard_spans:
            durations = [s.duration for s in shard_spans]
            stragglers.append(max(durations) / median(durations))
            overheads.append((root.duration - max(durations)) * 1e3)
    if not queries:
        raise RuntimeError("no traced request")
    calls = totals["range_calls"]
    layers.update({
        "rangesearch.ms_per_query": totals["range_ms"] / queries,
        "rangesearch.calls_per_query": calls / queries,
        "rangesearch.triangles_per_call":
            totals["range_triangles"] / calls if calls else 0.0,
        "rangesearch.points_per_call":
            totals["range_points"] / calls if calls else 0.0,
        "matcher.iterations_per_query": totals["iterations"] / queries,
        "matcher.vertices_processed_per_query":
            totals["vertices"] / queries,
        "matcher.candidates_per_query": totals["candidates"] / queries,
        "matcher.useful_vertex_share":
            totals["useful"] / totals["vertices"]
            if totals["vertices"] else 0.0,
        "shards.straggler_ratio": median(stragglers) if stragglers else 0.0,
        "shards.merge_ms": totals["merge_ms"] / queries,
        "service.overhead_ms": median(overheads) if overheads else 0.0,
        "procpool.ipc_ms_per_call": mean(ipc),
    })
    for stage, total in stages.items():
        layers[f"matcher.{stage}_ms"] = total / queries
    outcome.info["traced_queries"] = queries


# ----------------------------------------------------------------------
# planted-4shard
# ----------------------------------------------------------------------
def planted_4shard(seed: int, seconds: float,
                   tracer: Optional[Tracer]) -> Outcome:
    from repro.core.matcher import GeometricSimilarityMatcher
    from repro.service import RetrievalService, ServiceConfig

    outcome = Outcome()
    _, shapes, image_ids = make_corpus(seed)
    config = ServiceConfig(num_shards=4, workers=2, cache_capacity=0)
    queries = SeededStream(
        lambda index, rng: _planted(shapes, rng), stream_rng(seed, QUERIES))

    service = None
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            if service is not None:
                service.close()
            started = clock()
            base, ids = build_base(shapes, image_ids)
            built = clock()
            service = RetrievalService.from_base(base, config)
            ready = clock()
            setups.append({"total": ready - started,
                           "setup.build_s": built - started,
                           "setup.warm_s": ready - built})
        _median_setup(outcome, setups)
        outcome.info["corpus"] = {"shapes": len(shapes),
                                  "entries": base.num_entries}

        sample: Dict[int, tuple] = {}

        def one(traced: bool) -> dict:
            index, (position, sketch) = queries.next()
            planted = ids[position]
            with _request(tracer, "service.retrieve", sketch,
                          traced) as span:
                result = service.retrieve(sketch, k=1)
            if span is not None:
                span.attrs["top"] = [m.shape_id for m in result.matches]
            if PLANTED_PRIME <= index < PLANTED_PRIME + PLANTED_SAMPLE:
                sample[index] = (sketch, result.matches)
            ok = result.ok and not result.degraded
            if not rank1_is(result.matches, planted):
                outcome.wrong.append(f"query {index}: rank 1 is not the "
                                     f"planted shape {planted}")
                ok = False
            return {"ok": ok}

        for _ in range(PLANTED_PRIME):
            record = one(False)
            outcome.count("warmup", record["ok"])
        if tracer is not None:
            install_service_tracing(tracer, process=False)
        t0, t_end, records = drive(one, seconds=seconds, tracer=tracer)
        outcome.e2e["memory_mb"] = pss_mb([os.getpid()])
        if tracer is not None:
            tracer.uninstall()
        _closed_loop_metrics(outcome, t0, t_end, records)

        # Referee: the sharded answers equal an unsharded matcher's.
        matcher = GeometricSimilarityMatcher(base, beta=config.beta)
        for index in sorted(sample):
            sketch, got = sample[index]
            want, _ = matcher.query(sketch, k=1)
            same = same_matches(got, want)
            outcome.count("referee", same)
            if not same:
                outcome.wrong.append(f"query {index}: sharded answer "
                                     f"differs from the unsharded matcher")
        if tracer is not None:
            service_layer_metrics(tracer, outcome, process=False)
            _trace_overhead(outcome, t0, t_end, records)
    finally:
        if service is not None:
            service.close()
    return outcome


def _planted(shapes, rng):
    position = int(rng.integers(len(shapes)))
    return position, similar(shapes[position], rng)


# ----------------------------------------------------------------------
# hot-http
# ----------------------------------------------------------------------
def _replica_stats(endpoint) -> dict:
    conn = http.client.HTTPConnection(*endpoint, timeout=10.0)
    try:
        conn.request("GET", "/stats")
        response = conn.getresponse()
        return json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def _fleet_counters(endpoints) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for endpoint in endpoints:
        counters = _replica_stats(endpoint)["counters"]
        for name in ("queries.total", "queries.cache_hits"):
            totals[name] = totals.get(name, 0) + counters.get(name, 0)
    return totals


def hot_http(seed: int, seconds: float,
             tracer: Optional[Tracer]) -> Outcome:
    from repro.imaging.synthesis import make_query_set
    from repro.service import Balancer, ReplicaSet, ServiceConfig
    from repro.storage.persist import save_base

    outcome = Outcome()
    workload, shapes, image_ids = make_corpus(seed)
    pool = [query for query, _ in make_query_set(
        workload, HOT_POOL, stream_rng(seed, POOL), noise=0.015)]
    zipf = ZipfSampler(HOT_POOL, HOT_ZIPF_S)
    requests = SeededStream(
        lambda index, rng: _hot_request(pool, zipf, rng),
        stream_rng(seed, QUERIES))
    config = ServiceConfig(num_shards=2, workers=2,
                           cache_capacity=HOT_CACHE)
    workdir = _workdir("hot-http")
    snapshot = os.path.join(workdir, "corpus.gsb")

    fleet = balancer = None
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            if balancer is not None:
                balancer.close()
                fleet.stop()
            started = clock()
            base, _ = build_base(shapes, image_ids)
            built = clock()
            snapshot_bytes = save_base(base, snapshot)
            saved = clock()
            fleet = ReplicaSet(snapshot, replicas=HOT_REPLICAS,
                               config=config).start()
            balancer = Balancer(fleet.endpoints())
            ready = clock()
            setups.append({"total": ready - started,
                           "setup.build_s": built - started,
                           "persist.save_s": saved - built,
                           "persist.snapshot_bytes": snapshot_bytes,
                           "http.fleet_start_s": ready - saved})
        _median_setup(outcome, setups)
        endpoints = fleet.endpoints()

        # Every answer to one pool sketch must name the same shapes,
        # cached or not, on either replica.
        first_answer: Dict[int, list] = {}
        answers_lock = threading.Lock()

        def one(traced: bool) -> dict:
            index, (rank, sketch) = requests.next()
            with _request(tracer, "balancer.query", sketch,
                          traced) as span:
                response = balancer.query(sketch, k=HOT_K)
            payload = response.payload
            ok = (response.status_code == 200
                  and payload.get("status") == "ok"
                  and not payload.get("degraded"))
            record = {"ok": ok, "attempts": response.attempts,
                      "cached": bool(payload.get("cached")),
                      "server_ms": payload.get("latency_ms")}
            if span is not None:
                span.attrs["server_ms"] = payload.get("latency_ms")
            if ok:
                ids = [m["shape_id"] for m in payload["matches"]]
                with answers_lock:
                    expected = first_answer.setdefault(rank, ids)
                if ids != expected:
                    outcome.wrong.append(f"request {index}: pool sketch "
                                         f"{rank} answered {ids}, earlier "
                                         f"{expected}")
                    record["ok"] = False
            return record

        # Warm-up: run the same stream until both caches are full.
        def caches_full() -> bool:
            return all(_replica_stats(e)["gauges"]["cache.size"]
                       >= HOT_CACHE for e in endpoints)

        w0, w_end, warm = drive(one, until=caches_full,
                                cap=HOT_WARMUP_CAP_S)
        for record in warm:
            outcome.count("warmup", record["ok"])
        outcome.info["warmup_s"] = w_end - w0
        outcome.info["warmup_filled"] = caches_full()

        before = _fleet_counters(endpoints)
        if tracer is not None:
            tracer.wrap(Balancer, "_http", "http.attempt")
        t0, t_end, records = drive(one, seconds=seconds, tracer=tracer)
        if tracer is not None:
            tracer.uninstall()
        outcome.e2e["memory_mb"] = pss_mb([os.getpid()] + fleet.pids())
        after = _fleet_counters(endpoints)
        _closed_loop_metrics(outcome, t0, t_end, records)
        hits = after["queries.cache_hits"] - before["queries.cache_hits"]
        total = after["queries.total"] - before["queries.total"]
        outcome.info["hit_share"] = hits / total if total else 0.0
        outcome.info.update(_hit_miss_split(records, t_end))

        _hot_referee(outcome, seed, pool, balancer, snapshot, config)
        if tracer is not None:
            _http_layer_metrics(tracer, outcome)
            outcome.layers["service.cache_hit_share"] = \
                outcome.info["hit_share"]
            _trace_overhead(outcome, t0, t_end, records)
    finally:
        if balancer is not None:
            balancer.close()
        if fleet is not None:
            fleet.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    return outcome


def _hot_request(pool, zipf: ZipfSampler, rng):
    rank = zipf.draw(rng)
    return rank, similar(pool[rank], rng)


def _hit_miss_split(records: List[dict], t_end: float) -> dict:
    """Whether the p50 sample is a cache hit and the p95 sample a miss."""
    done = sorted((r for r in records if r["ok"] and r["end"] <= t_end),
                  key=lambda r: r["end"] - r["start"])
    hits = [r for r in done if r["cached"]]
    misses = [r for r in done if not r["cached"]]
    return {"p50_sample_cached": done[nearest_rank(len(done), 50)]["cached"],
            "p95_sample_cached": done[nearest_rank(len(done), 95)]["cached"],
            "hit_p50_ms": percentile([(r["end"] - r["start"]) * 1e3
                                      for r in hits], 50) if hits else None,
            "miss_p50_ms": percentile([(r["end"] - r["start"]) * 1e3
                                       for r in misses], 50)
            if misses else None}


def _hot_referee(outcome: Outcome, seed: int, pool, balancer, snapshot,
                 config) -> None:
    """A fixed sample through the fleet equals an in-process service
    over the same snapshot.  The hottest ranks are cached by now, so
    the sample includes cached answers."""
    from dataclasses import replace
    from repro.service import RetrievalService
    rng = stream_rng(seed, SIMILARITY)
    ranks = list(range(HOT_REFEREE_HOT)) + [
        int(r) for r in rng.integers(HOT_REFEREE_HOT, len(pool),
                                     HOT_REFEREE_COLD)]
    sketches = [similar(pool[rank], rng) for rank in ranks]
    responses = [balancer.query(sketch, k=HOT_K) for sketch in sketches]
    outcome.info["referee_cached"] = sum(
        bool(r.payload.get("cached")) for r in responses)
    reference_config = replace(config, cache_capacity=0)
    with RetrievalService.from_snapshot(snapshot,
                                        reference_config) as reference:
        for rank, sketch, response in zip(ranks, sketches, responses):
            want = reference.retrieve(sketch, k=HOT_K).matches
            got = response.payload.get("matches", [])
            same = response.status_code == 200 and same_wire_matches(
                got, want, HOT_DISTANCE_TOL)
            outcome.count("referee", same)
            if not same:
                outcome.wrong.append(f"pool sketch {rank}: fleet answer "
                                     f"differs from the in-process service")


def _http_layer_metrics(tracer: Tracer, outcome: Outcome) -> None:
    wire, server, attempts, balancer_self = [], [], [], []
    for spans in tracer.by_request().values():
        root = next(s for s in spans if s.parent is None)
        if root.name != "balancer.query" or root.attrs.get("server_ms") \
                is None:
            continue
        children = [s for s in spans if s.parent == root.id]
        attempts.append(len(children))
        balancer_self.append(self_time(root, children) * 1e3)
        server.append(root.attrs["server_ms"])
        wire.append(root.duration * 1e3 - root.attrs["server_ms"])
    if not server:
        raise RuntimeError("no traced request")
    outcome.layers.update({
        "http.wire_ms": median(wire),
        "http.server_p50_ms": percentile(server, 50),
        "http.server_p95_ms": percentile(server, 95),
        "http.attempts_per_request": mean(attempts),
        "http.balancer_self_ms": median(balancer_self),
    })
    outcome.info["traced_queries"] = len(server)


# ----------------------------------------------------------------------
# ingest-process
# ----------------------------------------------------------------------
def ingest_process(seed: int, seconds: float,
                   tracer: Optional[Tracer]) -> Outcome:
    from repro.service import RetrievalService, ServiceConfig

    outcome = Outcome()
    _, shapes, image_ids = make_corpus(seed)
    batches = int(np.ceil(seconds / INGEST_PERIOD_S))
    fresh = _stream_shapes(seed, batches * INGEST_BATCH)
    reads = SeededStream(
        lambda index, rng: (int(rng.integers(INGEST_RECENT)),
                            similarity(rng)),
        stream_rng(seed, QUERIES))
    workdir = _workdir("ingest-process")

    service = None
    setups = []
    try:
        for repeat in range(SETUP_REPEATS):
            if service is not None:
                service.close()
            config = ServiceConfig(
                num_shards=1, workers=1, cache_capacity=0,
                execution="process", processes=1, streaming=True,
                snapshot_dir=os.path.join(workdir, f"publish-{repeat}"))
            started = clock()
            base, ids = build_base(shapes, image_ids)
            built = clock()
            service = RetrievalService.from_base(base, config)
            ready = clock()
            setups.append({"total": ready - started,
                           "setup.build_s": built - started,
                           "setup.warm_s": ready - built})
        _median_setup(outcome, setups)

        acked = list(zip(ids[-INGEST_RECENT:], shapes[-INGEST_RECENT:]))
        acked_lock = threading.Lock()
        peak_delta = [service.shards.delta_points]

        def one(traced: bool) -> dict:
            index, (offset, params) = reads.next()
            with acked_lock:
                planted, shape = acked[-1 - offset % len(acked)]
            sketch = transformed(shape, params)
            with _request(tracer, "service.retrieve", sketch,
                          traced) as span:
                result = service.retrieve(sketch, k=1)
            if span is not None:
                span.attrs["top"] = [m.shape_id for m in result.matches]
            ok = result.ok and not result.degraded
            if not rank1_is(result.matches, planted):
                outcome.wrong.append(f"read {index}: rank 1 is not the "
                                     f"planted shape {planted}")
                ok = False
            return {"ok": ok}

        for _ in range(INGEST_PRIME):
            outcome.count("warmup", one(False)["ok"])

        writes: List[dict] = []

        def writer(t0: float) -> None:
            for batch in range(batches):
                due = t0 + batch * INGEST_PERIOD_S
                pause = due - clock()
                if pause > 0:
                    time.sleep(pause)
                sent = clock()
                take = fresh[batch * INGEST_BATCH:
                             (batch + 1) * INGEST_BATCH]
                record = {"due": due, "sent": sent, "shapes": len(take)}
                traced = tracer is not None and _traced_window(due - t0)
                try:
                    with _request(tracer, "ingest.batch", None, traced):
                        new_ids = service.ingest(
                            take, image_id=1_000_000 + batch)
                    record["ok"] = len(new_ids) == len(take)
                except Exception as exc:  # a failed write, not a crash
                    record["ok"] = False
                    record["error"] = f"{type(exc).__name__}: {exc}"
                    new_ids = []
                record["done"] = clock()
                peak_delta[0] = max(peak_delta[0],
                                    service.shards.delta_points)
                with acked_lock:
                    acked.extend(zip(new_ids, take))
                writes.append(record)

        if tracer is not None:
            install_service_tracing(tracer, process=True)
        sync_before = dict(service.procpool.info()["sync"])
        ingest_before = dict(service.snapshot()["ingest"])
        write_thread = threading.Thread(target=writer, args=(clock(),),
                                        name="perfbench-ingest")
        write_thread.start()
        try:
            t0, t_end, records = drive(one, seconds=seconds, tracer=tracer,
                                       clients=1)
        finally:
            write_thread.join()
        outcome.e2e["memory_mb"] = pss_mb(
            [os.getpid()] + service.procpool.worker_pids())
        if tracer is not None:
            tracer.uninstall()
        sync_after = dict(service.procpool.info()["sync"])
        ingest_after = service.snapshot()["ingest"]
        _closed_loop_metrics(outcome, t0, t_end, records)
        for record in writes:
            outcome.count("ingest", record["ok"])
        operations = records + writes
        outcome.e2e["success_rate"] = (sum(r["ok"] for r in operations)
                                       / len(operations))
        ingest_ms = [(r["done"] - r["due"]) * 1e3 for r in writes]
        outcome.info["ingest_batches"] = len(writes)

        # Referee: quiesce, then the live answers equal those of a base
        # rebuilt from scratch over the same corpus.
        service.quiesce_ingest()
        _ingest_referee(outcome, seed, service, acked)

        if tracer is not None:
            service_layer_metrics(tracer, outcome, process=True)
            _trace_overhead(outcome, t0, t_end, records)
            layers = outcome.layers
            syncs = [s for s in tracer.spans
                     if s.name == "procpool.sync" and s.attrs.get("round")]
            adds = [s for s in tracer.spans
                    if s.name == "shardset.add_shapes"]
            added = sum(s.attrs["shapes"] for s in adds)
            delta_rounds = sync_after["delta_rounds"] - \
                sync_before["delta_rounds"]
            full_rounds = sync_after["full_rounds"] - \
                sync_before["full_rounds"]
            ok_writes = [r for r in writes if r["ok"]]
            fold_ms = ingest_after.get("fold_ms") or {}
            layers.update({
                "procpool.sync_ms_per_round":
                    sum(s.duration for s in syncs) * 1e3 / len(syncs)
                    if syncs else 0.0,
                "procpool.delta_rounds": delta_rounds,
                "procpool.full_rounds": full_rounds,
                "procpool.delta_bytes_per_round":
                    (sync_after["delta_bytes"] - sync_before["delta_bytes"])
                    / delta_rounds if delta_rounds else 0.0,
                "procpool.full_bytes_per_round":
                    (sync_after["full_bytes"] - sync_before["full_bytes"])
                    / full_rounds if full_rounds else 0.0,
                "ingest_p50_ms": percentile(ingest_ms, 50),
                "ingest_p95_ms": percentile(ingest_ms, 95),
                "ingest_shapes_per_s":
                    sum(r["shapes"] for r in ok_writes)
                    / (max(r["done"] for r in writes) - writes[0]["due"]),
                "ingest.generator_lag_ms":
                    max((r["sent"] - r["due"]) * 1e3 for r in writes),
                "ingest.add_ms_per_shape":
                    sum(s.duration for s in adds) * 1e3 / added
                    if added else 0.0,
                "ingest.backpressure_waits":
                    ingest_after["backpressure_waits"]
                    - ingest_before["backpressure_waits"],
                "ingest.folds":
                    ingest_after["folds"] - ingest_before["folds"],
                "ingest.fold_ms": fold_ms.get("p50", 0.0),
                "ingest.peak_pending_delta": peak_delta[0],
            })
    finally:
        if service is not None:
            service.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return outcome


def _stream_shapes(seed: int, count: int) -> list:
    """``count`` fresh shapes from a separately seeded workload."""
    images = count // 3 + 4
    while True:
        _, shapes, _ = make_corpus(seed, tag=STREAM, images=images)
        if len(shapes) >= count:
            return shapes[:count]
        images *= 2


def _ingest_referee(outcome: Outcome, seed: int, service, acked) -> None:
    matcher = rebuilt_matcher(service.shards, service.config.beta)
    rng = stream_rng(seed, SIMILARITY)
    picks = [acked[-1 - int(i)] for i in rng.integers(len(acked),
                                                      size=INGEST_REFEREE)]
    for planted, shape in picks:
        sketch = similar(shape, rng)
        live = service.retrieve(sketch, k=1)
        want, _ = matcher.query(sketch, k=1)
        same = live.ok and same_matches(live.matches, want)
        outcome.count("referee", same)
        if not same:
            outcome.wrong.append(f"shape {planted}: live answer differs "
                                 f"from the rebuilt base")


# ----------------------------------------------------------------------
def _workdir(name: str) -> str:
    """A scratch directory inside the checkout (removed afterwards)."""
    path = ROOT / ".perfbench_out" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return str(path)


WORKLOADS = {
    "planted-4shard": planted_4shard,
    "hot-http": hot_http,
    "ingest-process": ingest_process,
}
