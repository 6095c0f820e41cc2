"""Counters and latency histograms for the retrieval service.

A deliberately small, dependency-free metrics registry: named
monotonic counters, windowed histograms with percentile readout, and
gauge callbacks for values owned elsewhere (queue depth, cache size).
Everything is exposed through :meth:`MetricsRegistry.as_dict` — a plain
dict that the CLI prints and the benchmarks serialize as JSON.

The registry is thread-safe: the worker pool records latencies from
many threads concurrently.
"""

from __future__ import annotations

import threading
from bisect import insort
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from ..storage.buffer import BufferPool


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Interpolated q-th percentile (``q`` in [0, 100]) of an
    already-sorted sequence; 0.0 when it is empty."""
    if not sorted_values:
        return 0.0
    position = (len(sorted_values) - 1) * (q / 100.0)
    lo = int(position)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = position - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def increment(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self._value})"


class Histogram:
    """Latency/size distribution with percentile readout.

    Observations are kept in sorted order (capped at ``max_samples``
    by uniform decimation) so percentiles are exact for small services
    and approximate under sustained load.  ``reset_window`` clears the
    observations while keeping the lifetime count — the per-window
    reporting pattern the service uses.
    """

    def __init__(self, name: str, max_samples: int = 8192):
        self.name = name
        self.max_samples = int(max_samples)
        self._sorted: List[float] = []
        self._total_count = 0
        self._stride = 1          # keep every _stride-th observation
        self._phase = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._total_count += 1
            self._phase += 1
            if self._phase < self._stride:
                return
            self._phase = 0
            insort(self._sorted, float(value))
            if len(self._sorted) > self.max_samples:
                # Halve both the retained samples and the future
                # sampling rate.  Halving only the window would skew it
                # toward recent observations (old samples decimated
                # repeatedly, new ones arriving at full rate); halving
                # the intake too keeps density uniform over the stream,
                # so percentiles stay representative.
                self._sorted = self._sorted[::2]
                self._stride *= 2

    def percentile(self, q: float) -> float:
        """The q-th percentile (``q`` in [0, 100]) of the window."""
        with self._lock:
            return percentile(self._sorted, q)

    @property
    def count(self) -> int:
        return self._total_count

    @property
    def window_count(self) -> int:
        return len(self._sorted)

    @property
    def mean(self) -> float:
        with self._lock:
            if not self._sorted:
                return 0.0
            return sum(self._sorted) / len(self._sorted)

    def reset_window(self) -> None:
        with self._lock:
            self._sorted = []
            self._stride = 1
            self._phase = 0

    @property
    def window_sum(self) -> float:
        with self._lock:
            return sum(self._sorted)

    def summary(self) -> Dict[str, float]:
        """Latency quantiles ready for ``/stats`` — no client-side math.

        ``p50``/``p95``/``p99`` are the SLO trio; ``sum`` and
        ``window_count`` let a scraper compute rates across windows.
        """
        return {
            "count": self.count,
            "window_count": self.window_count,
            "sum": self.window_sum,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
            "max": self.percentile(100.0),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, count={self.count})"


class MetricsRegistry:
    """All of a service's instrumentation under one roof.

    ``counter(name)`` / ``histogram(name)`` create on first use and
    return the same object afterwards, so call sites never need to
    pre-register.  Buffer pools (the storage tier's own instrument) can
    be attached; their hit ratios appear in the snapshot and are rolled
    by :meth:`reset_window` via :meth:`BufferPool.reset_stats`.
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._gauges: Dict[str, Callable[[], float]] = {}
        self._buffer_pools: Dict[str, BufferPool] = {}
        self._lock = threading.Lock()

    # -- registration ---------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name)
            return self._counters[name]

    def histogram(self, name: str, max_samples: int = 8192) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name, max_samples)
            return self._histograms[name]

    def gauge(self, name: str, read: Callable[[], float]) -> None:
        """Register a callback sampled at snapshot time."""
        with self._lock:
            self._gauges[name] = read

    @contextmanager
    def timer(self, name: str):
        """Context manager observing the block's wall time (seconds)
        into ``histogram(name)``."""
        histogram = self.histogram(name)
        started = perf_counter()
        try:
            yield
        finally:
            histogram.observe(perf_counter() - started)

    def attach_buffer_pool(self, name: str, pool: BufferPool) -> None:
        """Expose a storage buffer pool's hit ratio in snapshots."""
        with self._lock:
            self._buffer_pools[name] = pool

    # -- readout --------------------------------------------------------
    def as_dict(self) -> dict:
        """One plain-dict snapshot of everything (CLI/benchmark output)."""
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
            gauges = dict(self._gauges)
            pools = dict(self._buffer_pools)
        out: dict = {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "histograms": {n: h.summary()
                           for n, h in sorted(histograms.items())},
        }
        if gauges:
            out["gauges"] = {n: float(read())
                             for n, read in sorted(gauges.items())}
        if pools:
            out["buffer_pools"] = {
                n: {"hits": p.stats.hits, "misses": p.stats.misses,
                    "hit_ratio": p.stats.hit_ratio}
                for n, p in sorted(pools.items())}
        return out

    def ratio(self, numerator: str, denominator: str) -> float:
        """``counter[numerator] / counter[denominator]`` (0 when empty)."""
        denom = self.counter(denominator).value
        if denom == 0:
            return 0.0
        return self.counter(numerator).value / denom

    def counters_with_prefix(self, prefix: str) -> Dict[str, int]:
        """Values of every counter named ``prefix<suffix>``, by suffix.

        The registry creates counters on first use, so a family like
        the service's per-tier counters (``queries.tier_exact``,
        ``queries.tier_ann``, ...) only contains the members that have
        actually fired; this collects whichever exist without the
        caller having to enumerate them.
        """
        with self._lock:
            counters = dict(self._counters)
        return {name[len(prefix):]: counter.value
                for name, counter in sorted(counters.items())
                if name.startswith(prefix)}

    def reset_window(self) -> dict:
        """Close the current reporting window; returns its snapshot.

        Histograms drop their observations (lifetime counts survive)
        and attached buffer pools roll their hit/miss stats via
        :meth:`BufferPool.reset_stats`; counters are lifetime
        monotonic and are left untouched.
        """
        snapshot = self.as_dict()
        with self._lock:
            histograms = list(self._histograms.values())
            pools = list(self._buffer_pools.values())
        for histogram in histograms:
            histogram.reset_window()
        for pool in pools:
            pool.reset_stats()
        return snapshot
