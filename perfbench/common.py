"""Shared helpers of the end-to-end benchmark: inputs, statistics, host.

Every input is a pure function of ``--seed``: each stream draws from
its own ``numpy`` generator seeded with ``(seed, stream tag)``, so two
streams never share draws and adding a stream never shifts another.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys
import threading
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Stream tags of ``stream_rng`` (one per independently seeded input).
CORPUS, QUERIES, POOL, SIMILARITY, STREAM = range(5)

#: Every corpus: 40 generated images, ~4 shapes each, 1% vertex noise.
CORPUS_IMAGES = 40
SHAPES_PER_IMAGE = 4.0
CORPUS_NOISE = 0.01
#: The prototype vocabulary is the same for every seed.  Per-query cost
#: follows the prototypes' vertex counts and families, so redrawing
#: them with the seed would make runs differ by more than any change
#: worth detecting; the seed draws the images, placements, distortions
#: and queries built from them.
VOCABULARY_SEED = 0


def bootstrap() -> None:
    """Put the checkout's ``src`` first on ``sys.path``.

    Exits with code 2 (and no result line) when the checkout holds no
    program to measure, so a bare copy of the benchmark fails loudly
    instead of measuring some other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def stream_rng(seed: int, tag: int) -> np.random.Generator:
    """The generator of one input stream of one seed."""
    return np.random.default_rng([int(seed), int(tag)])


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def make_corpus(seed: int, tag: int = CORPUS, images: Optional[int] = None):
    """``(workload, shapes, image_ids)`` of one generated corpus
    (``CORPUS_IMAGES`` images unless ``images`` says otherwise)."""
    from repro.imaging.synthesis import generate_workload, prototype_pool
    vocabulary = prototype_pool(np.random.default_rng(VOCABULARY_SEED))
    workload = generate_workload(images or CORPUS_IMAGES,
                                 stream_rng(seed, tag),
                                 shapes_per_image=SHAPES_PER_IMAGE,
                                 noise=CORPUS_NOISE, prototypes=vocabulary)
    shapes = [shape for image in workload.images for shape in image.shapes]
    image_ids = [image.image_id for image in workload.images
                 for _ in image.shapes]
    return workload, shapes, image_ids


def build_base(shapes, image_ids):
    """Bulk-build a shape base; returns ``(base, shape ids)``."""
    from repro import ShapeBase
    base = ShapeBase(alpha=0.1)
    ids = base.add_shapes(shapes, image_ids=image_ids)
    return base, ids


def similarity(rng: np.random.Generator) -> tuple:
    """A random rotation, scale in [0.5, 2] and translation."""
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    scale = float(rng.uniform(0.5, 2.0))
    dx, dy = (float(v) for v in rng.uniform(-50.0, 50.0, 2))
    return angle, scale, dx, dy


def transformed(shape, params: tuple):
    angle, scale, dx, dy = params
    return shape.rotated(angle).scaled(scale).translated(dx, dy)


def similar(shape, rng: np.random.Generator):
    """``shape`` under a random similarity — a query the
    similarity-invariant matcher must map back onto ``shape``."""
    return transformed(shape, similarity(rng))


class ZipfSampler:
    """Draws ranks in ``[0, n)`` with P(r) ∝ 1 / (r + 1)^s."""

    def __init__(self, n: int, s: float):
        weights = 1.0 / np.arange(1, n + 1, dtype=float) ** s
        self.cdf = np.cumsum(weights / weights.sum())

    def draw(self, rng: np.random.Generator) -> int:
        return min(int(np.searchsorted(self.cdf, rng.random(),
                                       side="right")), len(self.cdf) - 1)


class SeededStream:
    """A thread-safe, lazily drawn input stream.

    The i-th item depends only on the seed and ``i`` — never on which
    client thread takes it or when — so a closed loop of several
    clients consumes exactly the same inputs on every run.
    """

    def __init__(self, make_item, rng: np.random.Generator):
        self._make_item = make_item
        self._rng = rng
        self._lock = threading.Lock()
        self.taken = 0

    def next(self):
        with self._lock:
            index = self.taken
            self.taken += 1
            return index, self._make_item(index, self._rng)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def nearest_rank(count: int, q: float) -> int:
    """Index, in ``count`` sorted samples, of the smallest sample with
    at least ``q`` percent of the samples at or below it."""
    if count < 1:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    return max(1, math.ceil(q / 100.0 * count)) - 1


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), q)]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


# ----------------------------------------------------------------------
# Host and process tree
# ----------------------------------------------------------------------
def pss_mb(pids: Iterable[Optional[int]]) -> float:
    """Summed proportional set size of ``pids`` in MiB.

    PSS splits shared pages among the processes mapping them, so a
    snapshot mapped by several replicas counts once in the sum.
    """
    total_kb = 0
    for pid in pids:
        if pid is None:
            continue
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def _commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git;
    ``None`` outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_fingerprint(seed: int) -> Dict[str, object]:
    """Where and on what a result was measured."""
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
        "seed": int(seed),
        "commit": _commit(),
    }
