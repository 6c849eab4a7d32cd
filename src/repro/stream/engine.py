"""Driving trees through synopses, with instrumentation and recovery.

The paper's Sections 7.6/7.7 report stream-processing *cost ratios*
(doubling ``s1`` multiplied processing time by ≈2.3; growing top-k was
nearly free).  :class:`StreamProcessor` captures the timings those claims
are checked against, and — for long-running deployments — can checkpoint
the synopsis crash-safely while the stream flows and resume an
interrupted run from the last checkpoint
(:mod:`repro.core.snapshot`).  Windowed consumers
(:class:`~repro.core.window.WindowedSketchTree`) checkpoint the same
way: the snapshot layer writes their multi-bucket container format and
restores the right class on resume.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.errors import ConfigError
from repro.obs.registry import (
    COUNT_BUCKETS,
    Registry,
    get_default_registry,
)
from repro.trees.tree import LabeledTree

if TYPE_CHECKING:
    from repro.core.snapshot import CheckpointManager


@dataclass
class ProcessingStats:
    """Wall-clock accounting of one streaming run."""

    n_trees: int = 0
    total_nodes: int = 0
    elapsed_seconds: float = 0.0
    checkpoint_results: list = field(default_factory=list)
    #: Snapshot files written during the run, in order.
    snapshot_paths: list = field(default_factory=list)
    #: Trees recovered from a checkpoint (skipped, not reprocessed) when
    #: the run was started by :meth:`StreamProcessor.resume`.
    resumed_from: int = 0

    @property
    def stream_position(self) -> int:
        """Absolute position in the stream: restored + processed trees.

        Checkpoint/snapshot boundaries and ``on_checkpoint`` arguments
        are expressed in this coordinate, so a resumed run fires events
        exactly where an uninterrupted run would.
        """
        return self.resumed_from + self.n_trees

    @property
    def trees_per_second(self) -> float:
        """Throughput of the run; 0.0 for an empty or unmeasured run."""
        if self.n_trees <= 0 or self.elapsed_seconds <= 0:
            return 0.0
        return self.n_trees / self.elapsed_seconds


class StreamProcessor:  # sketchlint: single-writer
    """Feeds a tree stream into one or more synopses.

    Single-writer: one thread drives :meth:`run`/:meth:`resume`; the
    consumers it feeds follow the same ownership contract (see
    docs/concurrency.md).

    Parameters
    ----------
    consumers:
        Objects with an ``update(tree)`` method, all fed every tree.
    checkpoint_every:
        Fire ``on_checkpoint`` after every this many trees (0 = never).
    on_checkpoint:
        ``callback(n_trees_so_far) -> result``; results are collected in
        the returned stats.  This is the Figure 2 "issue a count query at
        time t" hook.
    snapshot_every:
        Write a crash-safe snapshot of the *first* consumer after every
        this many trees (0 = never).  Requires ``checkpoints`` and a
        first consumer with ``to_bytes()`` (a
        :class:`~repro.core.sketchtree.SketchTree`).
    checkpoints:
        The :class:`~repro.core.snapshot.CheckpointManager` that owns the
        snapshot directory, retention, and recovery.
    batch_trees:
        Cross-tree micro-batch size (1 = the classic per-tree loop).
        Consumers exposing ``update_batch(trees)`` (a
        :class:`~repro.core.sketchtree.SketchTree`) receive whole
        micro-batches — bit-identical state, much less per-tree
        dispatch; consumers with only ``update`` are fed tree by tree
        inside the batch.  Checkpoint and snapshot boundaries are
        preserved exactly: a micro-batch is flushed early rather than
        ever straddling a ``checkpoint_every``/``snapshot_every``
        multiple, so callbacks observe the same tree counts and synopsis
        states as an unbatched run.
    """

    def __init__(
        self,
        consumers: Sequence,
        checkpoint_every: int = 0,
        on_checkpoint: Callable[[int], object] | None = None,
        snapshot_every: int = 0,
        checkpoints: "CheckpointManager | None" = None,
        batch_trees: int = 1,
        metrics: Registry | None = None,
    ):
        if not consumers:
            raise ConfigError("at least one consumer is required")
        for consumer in consumers:
            if not hasattr(consumer, "update"):
                raise ConfigError(
                    f"consumer {type(consumer).__name__} has no update() method"
                )
        if checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0")
        if snapshot_every < 0:
            raise ConfigError("snapshot_every must be >= 0")
        if batch_trees < 1:
            raise ConfigError("batch_trees must be >= 1")
        if snapshot_every and checkpoints is None:
            raise ConfigError(
                "snapshot_every needs a CheckpointManager (checkpoints=...)"
            )
        if checkpoints is not None and not hasattr(consumers[0], "to_bytes"):
            raise ConfigError(
                "checkpointing snapshots the first consumer, which must "
                f"support to_bytes(); {type(consumers[0]).__name__} does not"
            )
        self.consumers = list(consumers)
        self.checkpoint_every = checkpoint_every
        self.on_checkpoint = on_checkpoint
        self.snapshot_every = snapshot_every
        self.checkpoints = checkpoints
        self.batch_trees = batch_trees
        self.metrics = metrics if metrics is not None else get_default_registry()

    def run(self, trees: Iterable[LabeledTree]) -> ProcessingStats:
        """Process the whole stream; returns timing statistics.

        Only the consumers' ``update``/``update_batch`` calls are inside
        the timed region, so neither generator cost nor snapshot I/O
        pollutes the processing-cost ratios.
        """
        return self._run(trees, resumed_from=0)

    def _run(
        self, trees: Iterable[LabeledTree], resumed_from: int
    ) -> ProcessingStats:
        """The shared run loop; ``resumed_from`` offsets every boundary.

        Flush limits, checkpoint/snapshot modulos, and the
        ``on_checkpoint`` argument all use the *absolute* stream position
        (``resumed_from + n_trees``), so a resumed run fires events at
        the same tree counts, with the same callback arguments, as the
        uninterrupted run it replaces.
        """
        stats = ProcessingStats(resumed_from=resumed_from)
        chunk: list[LabeledTree] = []
        for tree in trees:
            chunk.append(tree)
            if len(chunk) >= self._flush_limit(stats.stream_position):
                self._flush(chunk, stats)
        if chunk:
            self._flush(chunk, stats)
        return stats

    def _flush_limit(self, position: int) -> int:
        """Trees the current micro-batch may hold before flushing.

        Capped so that no batch ever straddles a checkpoint or snapshot
        boundary: those events must observe the exact tree counts the
        per-tree loop would have produced.  ``position`` is the absolute
        stream position (restored + processed trees), so the cap aligns
        with the original stream even after a resume.
        """
        limit = self.batch_trees
        for every in (self.checkpoint_every, self.snapshot_every):
            if every:
                limit = min(limit, every - position % every)
        return limit

    def _flush(self, chunk: list[LabeledTree], stats: ProcessingStats) -> None:
        """Feed one micro-batch to every consumer; fire boundary events."""
        clock = time.perf_counter
        n_chunk = len(chunk)
        start = clock()
        for consumer in self.consumers:
            update_batch = getattr(consumer, "update_batch", None)
            if update_batch is not None and n_chunk > 1:
                update_batch(chunk)
            else:
                for tree in chunk:
                    consumer.update(tree)
        elapsed = clock() - start
        stats.elapsed_seconds += elapsed
        stats.n_trees += n_chunk
        stats.total_nodes += sum(tree.n_nodes for tree in chunk)
        chunk.clear()
        obs = self.metrics
        obs.histogram("stream_flush_seconds").observe(elapsed)
        obs.histogram(
            "stream_batch_trees", buckets=COUNT_BUCKETS
        ).observe(n_chunk)
        obs.counter(
            "stream_trees_total", help="trees fed to the consumers"
        ).inc(n_chunk)
        position = stats.stream_position
        if (
            self.checkpoint_every
            and self.on_checkpoint is not None
            and position % self.checkpoint_every == 0
        ):
            with obs.span("stream_checkpoint_seconds"):
                result = self.on_checkpoint(position)
            stats.checkpoint_results.append(result)
        if (
            self.snapshot_every
            and self.checkpoints is not None
            and position % self.snapshot_every == 0
        ):
            with obs.span("stream_snapshot_seconds"):
                path = self.snapshot_now()
            stats.snapshot_paths.append(path)

    def snapshot_now(self) -> Path:
        """Checkpoint the first consumer immediately (crash-safe write)."""
        if self.checkpoints is None:
            raise ConfigError("no CheckpointManager configured")
        return self.checkpoints.save(self.consumers[0])

    def resume(self, trees: Iterable[LabeledTree]) -> ProcessingStats:
        """Recover from the latest checkpoint, then continue the run.

        ``trees`` must replay the *same stream in the same order* as the
        interrupted run (the deterministic-replay model: regenerate the
        dataset, re-read the log, re-parse the forest).  The newest valid
        checkpoint replaces the first consumer — read it back from
        ``processor.consumers[0]`` afterwards — and exactly the
        ``n_trees`` trees it already absorbed are skipped, so the
        finished synopsis is identical to an uninterrupted run.  Flush,
        checkpoint and snapshot boundaries — and the ``on_checkpoint``
        argument — are offset by the restored tree count, so the resumed
        run fires events at the same *absolute* stream positions as an
        uninterrupted run (read them off
        :attr:`ProcessingStats.stream_position`).  With no checkpoint on
        disk this is simply :meth:`run`.

        Any additional consumers are *not* restored; they see only the
        suffix of the stream.  Keep auxiliary consumers out of resumed
        runs or restore them yourself.
        """
        if self.checkpoints is None:
            raise ConfigError("resume() needs a CheckpointManager")
        expected = getattr(self.consumers[0], "config", None)
        restored = self.checkpoints.load_latest(expected_config=expected)
        if restored is None:
            return self.run(trees)
        skip = restored.n_trees
        self.consumers[0] = restored
        iterator = iter(trees)
        skipped = 0
        while skipped < skip and next(iterator, None) is not None:
            skipped += 1
        return self._run(iterator, resumed_from=skipped)
