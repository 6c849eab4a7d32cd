"""Ingest shards: one bounded queue, one drain thread, one synopsis.

Each :class:`IngestShard` owns a private
:class:`~repro.core.sketchtree.SketchTree` and the *only* thread that
ever mutates it — the drain loop — so the synopsis' single-writer
contract (docs/concurrency.md) holds by construction.  Producers (HTTP
handler threads) talk to the shard exclusively through its bounded
``queue.Queue``: a full queue is backpressure (the API answers 503),
never an unbounded buffer.

Quiescing uses the queue's task accounting: :meth:`IngestShard.drain`
is ``Queue.join()``, which returns only when every enqueued batch has
been *applied* to the synopsis, not merely dequeued.  That is what lets
the service layer run exact ``merge()`` queries and checkpoints against
shard synopses with no in-flight updates.
"""

from __future__ import annotations

import queue
import threading

from repro.core.config import SketchTreeConfig
from repro.core.sketchtree import SketchTree
from repro.core.window import WindowedSketchTree
from repro.errors import ConfigError, ReproError
from repro.obs.registry import Registry
from repro.trees.tree import LabeledTree

__all__ = ["IngestShard", "ShardFaultError"]

#: How often the drain loop re-checks its stop flag while idle (seconds).
_IDLE_POLL_SECONDS = 0.05


class ShardFaultError(ReproError):
    """Ingest refused by a shard whose drain thread has faulted."""

    def __init__(self, index: int, fault: BaseException):
        super().__init__(
            f"shard {index} faulted ({type(fault).__name__}: {fault}) "
            "and accepts no more ingest"
        )
        self.index = index


class IngestShard:  # sketchlint: thread-safe
    """A single-writer ingest lane: bounded queue → drain thread → synopsis.

    Thread-safe surface: any thread may :meth:`submit`, :meth:`drain`,
    :meth:`stop`, or read :attr:`pending`/:meth:`error` concurrently —
    the queue carries its own synchronisation and the one mutable flag
    (:attr:`_error`) is lock-guarded.  The ``synopsis`` attribute itself
    is assigned once in the constructor and mutated only by the drain
    thread; readers (the query tier) follow the synopsis' own
    single-writer read contract.

    Parameters
    ----------
    index:
        Shard number (naming for threads, checkpoints, logs).
    config:
        The shared synopsis configuration — every shard of a service
        must use the same config/seed for ``merge()`` and summed
        estimates to be sound.
    max_pending:
        Queue capacity in *batches*; a full queue raises ``queue.Full``
        to the submitter (backpressure), bounding shard memory.
    synopsis:
        A restored synopsis to adopt (checkpoint resume); ``None``
        builds a fresh one from ``config``.
    window:
        An optional :class:`~repro.core.window.WindowedSketchTree` the
        drain thread feeds alongside the whole-stream synopsis — the
        shard's slice of the service's sliding window.  Same
        single-writer contract: only the drain thread mutates it.
    """

    def __init__(
        self,
        index: int,
        config: SketchTreeConfig,
        metrics: Registry | None = None,
        max_pending: int = 64,
        synopsis: SketchTree | None = None,
        window: WindowedSketchTree | None = None,
    ):
        if max_pending < 1:
            raise ConfigError(f"max_pending must be >= 1, got {max_pending}")
        if synopsis is not None and synopsis.config != config:
            raise ConfigError(
                f"restored synopsis for shard {index} was built with a "
                "different config than the service's"
            )
        self.index = index
        self.config = config
        self.synopsis = (
            synopsis if synopsis is not None else SketchTree(config, metrics=metrics)
        )
        if synopsis is not None and metrics is not None:
            self.synopsis.set_metrics(metrics)
        if window is not None and window.config != config:
            raise ConfigError(
                f"window for shard {index} was built with a different "
                "config than the service's"
            )
        self.window = window
        self._queue: queue.Queue[list[LabeledTree]] = queue.Queue(
            maxsize=max_pending
        )
        self._stop = threading.Event()
        self._started = threading.Event()
        self._lock = threading.Lock()
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._drain_loop, name=f"sketchtree-shard-{index}", daemon=True
        )

    # ------------------------------------------------------------------
    # Producer side (any thread)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the drain thread (idempotent-unsafe: call exactly once)."""
        self._thread.start()
        self._started.wait()

    def submit(self, trees: list[LabeledTree]) -> None:
        """Enqueue one batch without blocking.

        Raises ``queue.Full`` when the shard is saturated — the caller
        surfaces that as 503 backpressure rather than buffering
        unboundedly — and :class:`~repro.errors.ConfigError` after
        :meth:`stop`.  A faulted shard drops what it is given; the
        service refuses to route to one (:class:`ShardFaultError`).
        """
        if self._stop.is_set():
            raise ConfigError(f"shard {self.index} is stopped")
        self._queue.put_nowait(trees)

    def drain(self) -> None:
        """Block until every batch enqueued so far has been *applied*."""
        self._queue.join()

    def stop(self, drain: bool = True) -> None:
        """Stop the drain thread, by default after emptying the queue."""
        if drain and self._thread.is_alive():
            self._queue.join()
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    # ------------------------------------------------------------------
    # Drain side (the shard's own thread — the synopsis' single writer)
    # ------------------------------------------------------------------
    def _drain_loop(self) -> None:
        """Apply queued batches to the synopsis until stopped.

        The one writer of ``self.synopsis`` (and of ``self.window``,
        when the service configured one).  A batch that raises is
        recorded as the shard's fault (surfaced through ``/healthz``)
        and the shard stops *applying* — but keeps consuming and
        acknowledging batches, so ``Queue.join()``-based quiescing can
        never deadlock on a faulted shard.  The service routes it no
        new ones.
        """
        self._started.set()
        while True:
            try:
                batch = self._queue.get(timeout=_IDLE_POLL_SECONDS)
            except queue.Empty:
                if self._stop.is_set():
                    return
                continue
            try:
                if self.error() is None:
                    self.synopsis.update_batch(batch)
                    if self.window is not None:
                        self.window.update_batch(batch)
            except BaseException as exc:  # noqa: BLE001 — recorded, not raised
                with self._lock:
                    self._error = exc
            finally:
                self._queue.task_done()

    # ------------------------------------------------------------------
    # Introspection (any thread)
    # ------------------------------------------------------------------
    def error(self) -> BaseException | None:
        """The first ingest fault, or ``None`` while healthy."""
        with self._lock:
            return self._error

    @property
    def started(self) -> bool:
        return self._started.is_set()

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    @property
    def pending(self) -> int:
        """Batches enqueued but not yet applied (approximate, racy read)."""
        return self._queue.qsize()

    @property
    def capacity(self) -> int:
        return self._queue.maxsize

    def __repr__(self) -> str:
        return (
            f"IngestShard({self.index}, trees={self.synopsis.n_trees}, "
            f"pending={self.pending}/{self.capacity}, "
            f"alive={self.alive})"
        )
