"""Zero-dependency runtime metrics: counters, gauges, histograms, spans.

The paper's evaluation (Sections 7.5–7.7) is built on measured
quantities — per-stage processing cost, synopsis memory, top-k churn —
that a deployment needs to surface from a *running* synopsis, not just
from offline benchmark scripts.  This module is the instrumentation
substrate: a :class:`MetricsRegistry` holding three numpy-backed
instrument kinds plus a :meth:`~MetricsRegistry.span` timing context,
and a :class:`NullRegistry` no-op twin that is the process-wide default.

Design constraints, in order:

1. **One code path, metrics on or off.**  Every instrumented stage runs
   one body under ``registry.span(...)`` and the registry's instruments.
   The default registry is :data:`NULL_REGISTRY`, whose factories return
   one inert instrument, so code that never opts in pays a few no-op
   calls per stage (about 1 µs per ingest micro-batch) — `bench_obs.py`
   measures the live path against it.  ``registry.enabled`` is read only
   to skip work that nothing but a live instrument consumes.
2. **Zero dependencies.**  Counters and gauges are plain Python numbers;
   histograms are fixed-bucket int64 arrays (`numpy`, already a core
   dependency).  There is no background thread, no socket, no client
   library — exporters (:mod:`repro.obs.export`) render on demand.
3. **Metrics never change estimates.**  No instrument touches sketch
   state, and nothing here is serialised into snapshots; attaching,
   detaching, or swapping a registry cannot alter any counter the
   synopsis owns (pinned by ``tests/test_obs.py``).

Pull instruments: a counter or gauge constructed with ``fn=...`` reads
its value from the callback at collection time instead of storing one —
zero hot-path cost for state-derived metrics (non-zero virtual streams,
counter L2 mass, top-k deleted mass).  Registering a name again with a
new callback rebinds it (last owner wins), which is what lets a restored
or rebuilt synopsis take over its gauges.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "BYTE_BUCKETS",
    "COUNT_BUCKETS",
    "LATENCY_BUCKETS",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "Registry",
    "Span",
    "get_default_registry",
    "set_default_registry",
    "use_registry",
]

#: Default span buckets: half-decade log spacing, 10 µs … 10 s.
LATENCY_BUCKETS: tuple[float, ...] = (
    1e-05, 3.162e-05, 1e-04, 3.162e-04, 1e-03, 3.162e-03,
    1e-02, 3.162e-02, 1e-01, 3.162e-01, 1.0, 3.162, 10.0,
)

#: Buckets for small cardinalities (batch sizes, patterns per tree).
COUNT_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
)

#: Buckets for payload sizes in bytes, 1 KiB … 256 MiB.
BYTE_BUCKETS: tuple[float, ...] = tuple(
    float(1 << exp) for exp in range(10, 29, 2)
)


class Counter:  # sketchlint: thread-safe
    """A monotonically increasing total (or a pull callback thereof).

    ``inc`` is atomic under the instrument's own lock, so totals are
    exact even when every thread in the process increments the same
    counter (pinned by ``tests/test_thread_safety.py``).
    """

    __slots__ = ("name", "help", "_value", "_fn", "_lock")

    def __init__(
        self, name: str, help: str = "", fn: Callable[[], float] | None = None
    ):
        self.name = name
        self.help = help
        self._value = 0.0
        self._fn = fn
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def rebind(self, fn: Callable[[], float]) -> None:
        """Atomically rebind a pull counter's callback (last owner wins)."""
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        """Current total; pull counters read their callback instead."""
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Gauge:  # sketchlint: thread-safe
    """A point-in-time value, set directly or pulled from a callback."""

    __slots__ = ("name", "help", "_value", "_fn", "_lock")

    def __init__(
        self, name: str, help: str = "", fn: Callable[[], float] | None = None
    ):
        self.name = name
        self.help = help
        self._value = 0.0
        self._fn = fn
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def rebind(self, fn: Callable[[], float]) -> None:
        """Atomically rebind a pull gauge's callback (last owner wins)."""
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Histogram:  # sketchlint: thread-safe
    """A fixed-bucket histogram over non-negative observations.

    ``buckets`` are the inclusive upper bounds (Prometheus ``le``
    semantics); one implicit ``+Inf`` bucket catches the overflow.  The
    per-bucket counts live in one int64 array, so ``observe`` is a
    single ``searchsorted`` plus an increment.
    """

    __slots__ = (
        "name", "help", "bounds", "bucket_counts", "total", "count", "_lock"
    )

    def __init__(self, name: str, buckets: tuple[float, ...], help: str = ""):
        bounds = np.asarray(buckets, dtype=np.float64)
        if len(bounds) == 0:
            raise ConfigError(f"histogram {name!r} needs at least one bucket")
        if np.any(np.diff(bounds) <= 0):
            raise ConfigError(
                f"histogram {name!r} buckets must be strictly increasing"
            )
        self.name = name
        self.help = help
        self.bounds = bounds
        self.bucket_counts = np.zeros(len(bounds) + 1, dtype=np.int64)
        self.total = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = int(np.searchsorted(self.bounds, value, side="left"))
        with self._lock:
            self.bucket_counts[index] += 1
            self.total += float(value)
            self.count += 1

    def observe_batch(self, values: "np.ndarray | Sequence[float]") -> None:
        """Record many observations with one bucket pass and one acquire.

        Equivalent to calling :meth:`observe` per value, but the bucket
        search is a single vectorised ``searchsorted`` and the lock is
        taken once — what per-element instrumentation inside ingest
        loops must use instead (sketchlint SKL305).
        """
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            return
        indices = np.searchsorted(self.bounds, arr, side="left")
        increments = np.bincount(indices, minlength=len(self.bucket_counts))
        with self._lock:
            self.bucket_counts += increments
            self.total += float(arr.sum())
            self.count += int(arr.size)

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last."""
        with self._lock:
            running = np.cumsum(self.bucket_counts)
        pairs = [
            (float(bound), int(running[i])) for i, bound in enumerate(self.bounds)
        ]
        pairs.append((float("inf"), int(running[-1])))
        return pairs


class Span:  # sketchlint: thread-confined
    """A ``with``-block timer recording its duration into a histogram.

    Thread-confined by construction: a Span is created, entered, and
    exited by one thread; only the Histogram it records into is shared
    (and that is locked).
    """

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram):
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


class _NullInstrument:
    """Accepts every instrument and span operation; records nothing."""

    __slots__ = ()

    value = 0.0

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_batch(self, values: object) -> None:
        pass

    def __enter__(self) -> "_NullInstrument":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:  # sketchlint: thread-safe
    """A live registry: instruments are created on first use by name.

    Re-requesting a name returns the existing instrument (its buckets
    and help text are fixed by the first registration); passing a new
    ``fn`` rebinds a pull instrument's callback (last owner wins).

    Thread-safe: a registration lock makes each get-or-create atomic, so
    two threads requesting the same name always receive the same
    instrument; the instruments themselves carry their own locks.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # -- instruments ---------------------------------------------------
    def counter(
        self, name: str, help: str = "", fn: Callable[[], float] | None = None
    ) -> Counter:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name, help, fn)
            elif fn is not None:
                counter.rebind(fn)
            return counter

    def gauge(
        self, name: str, help: str = "", fn: Callable[[], float] | None = None
    ) -> Gauge:
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge(name, help, fn)
            elif fn is not None:
                gauge.rebind(fn)
            return gauge

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
        help: str = "",
    ) -> Histogram:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(name, buckets, help)
            return histogram

    def span(
        self, name: str, buckets: tuple[float, ...] = LATENCY_BUCKETS
    ) -> Span:
        """A timing context recording into histogram ``name``."""
        return Span(self.histogram(name, buckets=buckets))

    # -- collection ----------------------------------------------------
    def all_counters(self) -> list[Counter]:
        with self._lock:
            return [self._counters[name] for name in sorted(self._counters)]

    def all_gauges(self) -> list[Gauge]:
        with self._lock:
            return [self._gauges[name] for name in sorted(self._gauges)]

    def all_histograms(self) -> list[Histogram]:
        with self._lock:
            return [self._histograms[name] for name in sorted(self._histograms)]


class NullRegistry:
    """The no-op twin and the only off switch: instrumented code runs the
    same body on it as on a live registry, and nothing is recorded.

    Every factory returns one shared inert instrument, which is also the
    context manager :meth:`span` hands out.  ``enabled`` is ``False``.
    """

    enabled = False

    def counter(
        self, name: str, help: str = "", fn: Callable[[], float] | None = None
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(
        self, name: str, help: str = "", fn: Callable[[], float] | None = None
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
        help: str = "",
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def span(
        self, name: str, buckets: tuple[float, ...] = LATENCY_BUCKETS
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def all_counters(self) -> list[Counter]:
        return []

    def all_gauges(self) -> list[Gauge]:
        return []

    def all_histograms(self) -> list[Histogram]:
        return []


#: Either registry flavour; what instrumented code accepts.
Registry = MetricsRegistry | NullRegistry

#: The process-wide default when no registry is attached explicitly.
NULL_REGISTRY = NullRegistry()

_default_registry: Registry = NULL_REGISTRY

#: Guards the process-wide default; swaps are rare and never on a hot path.
_DEFAULT_LOCK = threading.Lock()


def get_default_registry() -> Registry:
    """The registry newly-constructed components attach to by default."""
    return _default_registry


def set_default_registry(registry: Registry | None) -> Registry:
    """Install a process-wide default registry; returns the previous one.

    ``None`` restores :data:`NULL_REGISTRY`.  Only components constructed
    *after* the call pick the new default up — existing synopses keep the
    registry they were built with (re-attach via
    ``SketchTree.set_metrics``).
    """
    global _default_registry
    with _DEFAULT_LOCK:
        previous = _default_registry
        _default_registry = registry if registry is not None else NULL_REGISTRY
        return previous


@contextmanager
def use_registry(registry: Registry | None) -> Iterator[Registry]:
    """Scope a default registry to a ``with`` block (always restores)."""
    previous = set_default_registry(registry)
    try:
        yield get_default_registry()
    finally:
        set_default_registry(previous)
