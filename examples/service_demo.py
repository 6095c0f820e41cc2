"""Service layer: batch retrieval through the sharded concurrent tier.

Builds a synthetic base, serves it with `repro.service.RetrievalService`
(sharded corpus, worker pool, query-result cache, per-query deadlines),
then walks through batch retrieval, cache behaviour under repeated
sketches, ingest-triggered invalidation, graceful degradation, and the
metrics snapshot the service keeps about all of it.

Run:  python examples/service_demo.py
"""

import numpy as np

from repro import Shape, ShapeBase
from repro.service import RetrievalService, ServiceConfig


def make_random_shape(rng: np.random.Generator, num_vertices: int) -> Shape:
    """A random simple (star-shaped) polygon."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, num_vertices))
    radii = rng.uniform(0.5, 1.5, num_vertices)
    return Shape(np.column_stack([radii * np.cos(angles),
                                  radii * np.sin(angles)]))


def noisy_view(rng: np.random.Generator, shape: Shape) -> Shape:
    """A transformed, slightly distorted copy — a plausible sketch."""
    jittered = Shape(shape.vertices +
                     rng.normal(0, 0.008, shape.vertices.shape))
    return jittered.rotated(rng.uniform(0, 2 * np.pi)) \
                   .scaled(rng.uniform(0.5, 3.0)) \
                   .translated(rng.uniform(-5, 5), rng.uniform(-5, 5))


def main() -> None:
    rng = np.random.default_rng(17)

    # 1. A base of 30 shapes, served through 4 shards and 2 workers.
    base = ShapeBase(alpha=0.1)
    shapes = [make_random_shape(rng, int(rng.integers(10, 20)))
              for _ in range(30)]
    base.add_shapes(shapes, image_ids=list(range(len(shapes))))

    config = ServiceConfig(num_shards=4, workers=2, cache_capacity=128)
    with RetrievalService.from_base(base, config) as service:
        print(f"service: {service!r}")
        print(f"per-shard shapes: {service.shards.shape_counts()}")

        # 2. Batch retrieval: sketches fan out over the worker pool and
        #    come back in input order.
        targets = [3, 11, 19, 26]
        sketches = [noisy_view(rng, shapes[t]) for t in targets]
        results = service.retrieve_batch(sketches, k=2)
        print("\nbatch of", len(sketches), "sketches:")
        for target, result in zip(targets, results):
            best = result.best
            hit = "hit" if best.shape_id == target else "MISS"
            print(f"  sketch of shape {target:>2d} -> shape "
                  f"{best.shape_id:>2d} (distance {best.distance:.5f}, "
                  f"method {result.method}) {hit}")

        # 3. The cache keys on a similarity-invariant signature, so a
        #    rotated/scaled copy of a served sketch is a cache hit.
        again = service.retrieve(sketches[0].rotated(0.9).scaled(2.0), k=2)
        print(f"\nre-query (transformed sketch): cached={again.cached}, "
              f"latency {again.latency * 1e3:.2f} ms")

        # 4. Ingest invalidates: the next query recomputes against the
        #    corpus that now contains the new shape.
        novel = make_random_shape(rng, 14)
        [novel_id] = service.ingest([novel], image_id=99)
        fresh = service.retrieve(noisy_view(rng, novel), k=1)
        print(f"after ingest: sketch of the new shape -> "
              f"shape {fresh.best.shape_id} (expected {novel_id}), "
              f"cached={fresh.cached}")

        # 5. Graceful degradation: an expired deadline abandons the
        #    envelope search and answers from the hashing tier.
        rushed = service.retrieve(sketches[1], k=1, deadline=0.0)
        print(f"deadline 0s: method={rushed.method}, "
              f"degraded={rushed.degraded}")

        # 6. The metrics registry saw all of it.
        snapshot = service.snapshot()
        print("\nmetrics snapshot:")
        for name, value in snapshot["counters"].items():
            print(f"  {name:<22s} {value}")
        rates = snapshot["rates"]
        print(f"  cache hit ratio        {rates['cache_hit_ratio']:.3f}")
        print(f"  fallback ratio         {rates['fallback_ratio']:.3f}")
        latency = snapshot["histograms"]["latency.total"]
        print(f"  latency p50 / p99      {latency['p50'] * 1e3:.2f} / "
              f"{latency['p99'] * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
