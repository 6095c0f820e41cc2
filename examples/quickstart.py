"""Quickstart: build a shape base, retrieve by geometric similarity.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import GeometricSimilarityMatcher, Shape, ShapeBase


def make_random_shape(rng: np.random.Generator, num_vertices: int) -> Shape:
    """A random simple (star-shaped) polygon."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, num_vertices))
    radii = rng.uniform(0.5, 1.5, num_vertices)
    return Shape(np.column_stack([radii * np.cos(angles),
                                  radii * np.sin(angles)]))


def main() -> None:
    rng = np.random.default_rng(7)

    # 1. Populate the base.  Every shape is normalized about its
    #    alpha-diameters and stored in several canonical copies
    #    (Section 2.4 of the paper).
    base = ShapeBase(alpha=0.1)
    shapes = [make_random_shape(rng, int(rng.integers(10, 22)))
              for _ in range(25)]
    base.add_shapes(shapes, image_ids=list(range(len(shapes))))
    print(f"base: {base.num_shapes} shapes -> {base.num_entries} "
          f"normalized copies, {base.total_vertices} indexed vertices")

    # 2. Query with a rotated / scaled / translated / noisy version of
    #    a stored shape.  Retrieval is similarity-transform invariant.
    target = shapes[13]
    query = Shape(target.vertices +
                  rng.normal(0, 0.01, target.vertices.shape))
    query = query.rotated(1.1).scaled(3.0).translated(40.0, -7.0)

    matcher = GeometricSimilarityMatcher(base)
    matches, stats = matcher.query(query, k=3)

    print(f"\nquery resolved in {stats.iterations} envelope iterations "
          f"({stats.vertices_processed} vertices touched, "
          f"{stats.candidates_evaluated} candidates measured)")
    for rank, match in enumerate(matches, start=1):
        marker = "  <-- the planted answer" if match.shape_id == 13 else ""
        print(f"  #{rank}: shape {match.shape_id} (image {match.image_id}) "
              f"at average distance {match.distance:.5f}{marker}")

    # 3. Threshold retrieval: everything within a distance budget.
    similar, _ = matcher.query_threshold(query, distance_threshold=0.05)
    print(f"\nshapes within distance 0.05 of the query: "
          f"{sorted(m.shape_id for m in similar)}")


if __name__ == "__main__":
    main()
