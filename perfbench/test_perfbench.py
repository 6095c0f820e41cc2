"""Self-tests of the benchmark's helpers, tracer and referees.

    python3 -m pytest perfbench/test_perfbench.py -q

The referee tests feed each check a real answer of the program and the
same answer deliberately perturbed; the end-to-end ones run a workload
in miniature against a program patched to answer wrongly.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

import common

common.bootstrap()

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from common import (  # noqa: E402
    SeededStream, ZipfSampler, percentile, similar, stream_rng)
from tracer import Tracer, self_time  # noqa: E402


# -- statistics and input streams ------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 21))[::-1]
    assert percentile(values, 50) == 10
    assert percentile(values, 95) == 19
    assert percentile(values, 100) == 20
    assert percentile(values, 0) == 1
    assert percentile([7.5], 95) == 7.5
    assert percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_zipf_stream_repeats_and_skews():
    sampler = ZipfSampler(128, 1.1)
    rng_a, rng_b = stream_rng(3, common.QUERIES), stream_rng(3, common.QUERIES)
    a = [sampler.draw(rng_a) for _ in range(2000)]
    b = [sampler.draw(rng_b) for _ in range(2000)]
    assert a == b
    other = stream_rng(4, common.QUERIES)
    assert a != [sampler.draw(other) for _ in range(2000)]
    assert 0 <= min(a) and max(a) < 128
    counts = np.bincount(a, minlength=128)
    assert counts[0] == counts.max() and counts[0] > 10 * counts[64:].mean()


def _shape_bytes(shape):
    return np.asarray(shape.vertices).tobytes()


def test_sketch_streams_repeat_exactly_across_threads():
    _, shapes, _ = common.make_corpus(5, images=6)

    def make(index, rng):
        return workloads._planted(shapes, rng)

    serial = SeededStream(make, stream_rng(5, common.QUERIES))
    expected = [serial.next() for _ in range(40)]

    threaded = SeededStream(make, stream_rng(5, common.QUERIES))
    taken, lock = [], threading.Lock()

    def consume():
        for _ in range(20):
            item = threaded.next()
            with lock:
                taken.append(item)

    threads = [threading.Thread(target=consume) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    taken.sort(key=lambda item: item[0])
    assert [i for i, _ in taken] == list(range(40))
    for (i, (pos, sketch)), (j, (pos2, sketch2)) in zip(expected, taken):
        assert (i, pos) == (j, pos2)
        assert _shape_bytes(sketch) == _shape_bytes(sketch2)


def test_corpus_and_pool_repeat_exactly():
    a = common.make_corpus(9, images=5)
    b = common.make_corpus(9, images=5)
    assert a[2] == b[2]
    assert [_shape_bytes(s) for s in a[1]] == [_shape_bytes(s) for s in b[1]]
    zipf = ZipfSampler(16, 1.1)
    pool = a[1][:16]
    ra, rb = stream_rng(9, common.QUERIES), stream_rng(9, common.QUERIES)
    for _ in range(10):
        (rank_a, s_a), (rank_b, s_b) = (workloads._hot_request(pool, zipf, ra),
                                        workloads._hot_request(pool, zipf, rb))
        assert rank_a == rank_b and _shape_bytes(s_a) == _shape_bytes(s_b)


# -- tracer ------------------------------------------------------------------
def test_self_time_counts_overlapping_children_once():
    tracer = Tracer()
    root = tracer._open("root", None)
    root.start, root.end = 0.0, 10.0
    children = []
    for start, end in ((1.0, 4.0), (2.0, 5.0), (8.0, 12.0)):
        child = tracer._open("child", root)
        child.start, child.end = start, end
        children.append(child)
    assert self_time(root, children) == pytest.approx(10.0 - 4.0 - 2.0)


def test_wrappers_link_foreign_threads_and_uninstall():
    class Target:
        def work(self, sketch):
            return sketch * 2

    original = Target.__dict__["work"]
    tracer = Tracer()
    tracer.wrap(Target, "work", "work", link=lambda args: args[1],
                record=lambda span, args, result:
                span.attrs.update(result=result))
    sketch = object.__new__(type("Sketch", (), {"__mul__":
                                                lambda self, n: n}))
    target = Target()
    assert target.work(sketch) == 2          # no request: untraced
    with tracer.request("req", sketch) as root:
        worker = threading.Thread(target=target.work, args=(sketch,))
        worker.start()
        worker.join(timeout=10)
    with tracer.request("req", sketch, traced=False) as none:
        target.work(sketch)
    assert none is None
    spans = tracer.by_request()[root.id]
    assert sorted(s.name for s in spans) == ["req", "work"]
    work = next(s for s in spans if s.name == "work")
    assert work.parent == root.id and work.attrs["result"] == 2
    tracer.uninstall()
    assert Target.__dict__["work"] is original


# -- referees ---------------------------------------------------------------
@pytest.fixture(scope="module")
def small_service():
    from repro.service import RetrievalService, ServiceConfig
    _, shapes, image_ids = common.make_corpus(2, images=6)
    base, ids = common.build_base(shapes, image_ids)
    service = RetrievalService.from_base(
        base, ServiceConfig(num_shards=2, workers=1, cache_capacity=0))
    sketch = similar(shapes[3], stream_rng(2, common.SIMILARITY))
    yield service, ids[3], sketch
    service.close()


def _nudged(match):
    from dataclasses import replace
    return replace(match, distance=float(np.nextafter(match.distance, 1.0)))


def test_rank1_referee_catches_a_wrong_first_answer(small_service):
    service, planted, sketch = small_service
    matches = service.retrieve(sketch, k=2).matches
    assert workloads.rank1_is(matches, planted)
    assert not workloads.rank1_is(matches[::-1], planted)
    assert not workloads.rank1_is([], planted)


def test_rebuilt_referee_catches_a_one_ulp_change(small_service):
    service, _, sketch = small_service
    live = service.retrieve(sketch, k=2).matches
    want, _ = workloads.rebuilt_matcher(service.shards, 0.25).query(sketch,
                                                                    k=2)
    assert workloads.same_matches(live, want)
    assert not workloads.same_matches([_nudged(live[0])] + live[1:], want)
    assert not workloads.same_matches(live[:1], want)


def test_wire_referee_catches_a_perturbed_distance(small_service):
    from repro.service.http import result_payload
    service, _, sketch = small_service
    result = service.retrieve(sketch, k=2)
    wire = json.loads(json.dumps(result_payload(result)))["matches"]
    tol = workloads.HOT_DISTANCE_TOL
    assert workloads.same_wire_matches(wire, result.matches, tol)
    wire[1]["distance"] += 10 * tol
    assert not workloads.same_wire_matches(wire, result.matches, tol)
    wire[1]["distance"] -= 10 * tol
    wire[0]["image_id"] += 1
    assert not workloads.same_wire_matches(wire, result.matches, tol)


# -- workloads in miniature against a perturbed program ---------------------
@pytest.fixture
def miniature(monkeypatch):
    monkeypatch.setattr(common, "CORPUS_IMAGES", 8)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "HOT_WARMUP_CAP_S", 3.0)


def _perturb_retrieve(monkeypatch, change):
    from repro.service import RetrievalService
    original = RetrievalService.retrieve

    def perturbed(self, sketch, k=1, deadline=None):
        result = original(self, sketch, k=k, deadline=deadline)
        result.matches = change(list(result.matches))
        return result

    monkeypatch.setattr(RetrievalService, "retrieve", perturbed)


def test_planted_workload_passes_and_catches_wrong_rank1(miniature,
                                                         monkeypatch):
    clean = workloads.planted_4shard(1, 1.0, Tracer())
    assert not clean.wrong and clean.e2e["success_rate"] == 1.0
    assert set(clean.e2e) == set(metrics.END_TO_END)
    _perturb_retrieve(monkeypatch, lambda ms: ms[1:] + ms[:1]
                      if len(ms) > 1 else [_nudged(m) for m in ms])
    outcome = workloads.planted_4shard(1, 1.0, None)
    assert outcome.wrong


def test_planted_referee_catches_a_one_ulp_change(miniature, monkeypatch):
    _perturb_retrieve(monkeypatch, lambda ms: [_nudged(m) for m in ms])
    outcome = workloads.planted_4shard(1, 1.0, None)
    assert outcome.phases["referee"]["failed"] == workloads.PLANTED_SAMPLE
    assert outcome.phases["timed"]["failed"] == 0


def test_ingest_referee_catches_a_one_ulp_change(miniature, monkeypatch):
    _perturb_retrieve(monkeypatch, lambda ms: [_nudged(m) for m in ms])
    outcome = workloads.ingest_process(1, 1.0, None)
    assert outcome.phases["referee"]["failed"] == workloads.INGEST_REFEREE
    assert outcome.phases["ingest"]["failed"] == 0


def test_hot_referee_catches_a_perturbed_wire_answer(miniature, monkeypatch):
    import repro.service.http as http_module
    original = http_module.result_payload

    def perturbed(result):
        payload = original(result)
        for match in payload["matches"]:
            match["distance"] += 1e-6
        return payload

    # Replicas are forked after the patch, so only the fleet answers
    # wrongly; the in-process reference does not use the wire format.
    monkeypatch.setattr(http_module, "result_payload", perturbed)
    outcome = workloads.hot_http(1, 1.0, None)
    assert outcome.phases["referee"]["failed"] == (
        workloads.HOT_REFEREE_HOT + workloads.HOT_REFEREE_COLD)


# -- the result line and BENCHMARK.json agree ------------------------------
def test_result_line_and_benchmark_json_name_the_same_metrics():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == dict(metrics.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == {name: (unit, better)
            for name, (unit, better, _) in metrics.PER_LAYER.items()}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    outcome = workloads.Outcome(e2e={"qps": 1.5})
    outcome.count("timed", True)
    outcome.count("timed", False)
    line, missing = run.result_line(outcome, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(metrics.END_TO_END)
    assert (line["attempted"], line["failed"]) == (2, 1)
    assert "qps" not in missing and "setup_s" in missing
