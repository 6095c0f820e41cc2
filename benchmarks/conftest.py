"""Shared infrastructure for the paper-reproduction benchmarks.

Scale knobs (environment variables):

``REPRO_BENCH_IMAGES``   images in the synthetic base (default 60;
                         the paper used 10,000 — see EXPERIMENTS.md for
                         the scaling rationale)
``REPRO_BENCH_QUERIES``  queries per experiment set (default 8; paper 15)

Every experiment writes its printed table to ``benchmarks/results/`` so
the series can be inspected after a run, and also echoes it to stdout.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro import GeometricSimilarityMatcher, ShapeBase
from repro.imaging import generate_workload, make_query_set

BENCH_IMAGES = int(os.environ.get("REPRO_BENCH_IMAGES", "60"))
BENCH_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", "8"))
RESULTS_DIR = Path(__file__).parent / "results"


def write_table(name: str, lines):
    """Persist one experiment's table and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines) + "\n"
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    print()
    print(text)


@pytest.fixture(scope="session")
def bench_rng():
    return np.random.default_rng(20020604)      # ICDE 2002 vintage seed


@pytest.fixture(scope="session")
def workload(bench_rng):
    """The scaled stand-in for the paper's 10,000-image base."""
    return generate_workload(BENCH_IMAGES, bench_rng,
                             shapes_per_image=5.5, vertices_mean=20.0,
                             noise=0.01, num_prototypes=14)


@pytest.fixture(scope="session")
def base(workload):
    shape_base = ShapeBase(alpha=0.1)
    shape_base.add_shapes(workload.all_shapes(),
                          image_ids=workload.image_ids())
    shape_base.index            # force the build outside timed regions
    return shape_base


@pytest.fixture(scope="session")
def matcher(base):
    return GeometricSimilarityMatcher(base)


@pytest.fixture(scope="session")
def query_set(workload, bench_rng):
    """The experiment query set (paper: 15 representative queries)."""
    return make_query_set(workload, BENCH_QUERIES,
                          np.random.default_rng(7), noise=0.012)


@pytest.fixture(scope="session")
def query_traces(matcher, query_set):
    """Candidate-evaluation traces per (query index, k).

    The storage experiments replay these against different layouts; the
    traces are computed once because each matcher run is the expensive
    part.
    """
    ks = (1, 2, 3, 5, 7, 10)
    traces = {}
    for index, (query, _) in enumerate(query_set):
        for k in ks:
            trace = []
            matcher.query(query, k=k,
                          on_candidate=lambda e: trace.append(e.entry_id))
            traces[(index, k)] = trace
    return traces
