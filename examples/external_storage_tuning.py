"""External storage tuning: layouts, buffers and I/O accounting.

A miniature of the paper's Section 4 experiments: build the shape base,
externalize it under each layout policy, replay a real query's access
trace and compare device reads; then sweep the buffer size.

Run:  python examples/external_storage_tuning.py
"""

import numpy as np

from repro import GeometricSimilarityMatcher, ShapeBase
from repro.hashing import HashCurveFamily
from repro.imaging import generate_workload, make_query_set
from repro.storage import (ExternalShapeStore, compute_signatures,
                           rehash_cost_localopt, rehash_cost_sorted)


def main() -> None:
    rng = np.random.default_rng(404)
    workload = generate_workload(40, rng, shapes_per_image=5.5,
                                 noise=0.01)
    base = ShapeBase(alpha=0.1)
    base.add_shapes(workload.all_shapes(), image_ids=workload.image_ids())
    signatures = compute_signatures(base, HashCurveFamily(50))
    print(f"base: {base.num_entries} normalized copies")

    # Record the candidate-access trace of a few real queries.
    matcher = GeometricSimilarityMatcher(base)
    queries = make_query_set(workload, 5, np.random.default_rng(1),
                             noise=0.012)
    traces = []
    for query, _ in queries:
        trace = []
        matcher.query(query, k=2,
                      on_candidate=lambda e: trace.append(e.entry_id))
        traces.append(trace)
    print(f"recorded {len(traces)} query traces "
          f"(avg {np.mean([len(t) for t in traces]):.0f} accesses each)")

    # Compare the four layout policies at a 100-block buffer.
    print("\navg I/O per query by layout (100-block buffer):")
    for layout in ("mean", "lexicographic", "median", "localopt"):
        store = ExternalShapeStore(base, layout=layout,
                                   buffer_blocks=100,
                                   signatures=signatures)
        ios = [store.replay_trace(t, reset_buffer=True) for t in traces]
        stats = store.stats()
        print(f"  {layout:14s} {np.mean(ios):7.1f} reads   "
              f"({stats.num_blocks} blocks, "
              f"{stats.entries_per_block:.1f} records/block)")

    # Buffer sweep for the mean-curve layout.
    print("\nbuffer sweep (mean-curve layout):")
    for buffer_blocks in (1, 5, 10, 25, 50, 100):
        store = ExternalShapeStore(base, layout="mean",
                                   buffer_blocks=buffer_blocks,
                                   signatures=signatures)
        ios = [store.replay_trace(t, reset_buffer=True) for t in traces]
        print(f"  {buffer_blocks:4d} blocks -> {np.mean(ios):7.1f} reads "
              f"(hit ratio {store.buffer.stats.hit_ratio:.0%})")

    # The rehash trade-off the paper quotes.
    n = base.num_entries
    print(f"\nrehash cost model at N={n}: "
          f"sorted={rehash_cost_sorted(n):,.0f} units, "
          f"localopt={rehash_cost_localopt(n):,.0f} units")


if __name__ == "__main__":
    main()
