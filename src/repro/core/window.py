"""Sliding-window pattern counting over the most recent trees.

The paper counts over the *whole* stream; a natural deployment question
(and a classic stream-processing extension) is "how often did this
pattern occur in the last W documents?".  Because the synopsis is a
linear projection, exact landmark differences are trivial — but an exact
sliding window would require storing per-tree deltas.  The standard
bucket compromise implemented here keeps memory bounded:

* time is divided into *buckets* of ``bucket_trees`` consecutive trees;
* each bucket holds its own :class:`~repro.core.sketchtree.SketchTree`
  (sharing one configuration, and therefore one ξ family per seed, and
  one pattern encoder);
* only the most recent ``n_buckets = ceil(window_trees / bucket_trees)``
  **complete** buckets plus the in-progress bucket are retained; older
  buckets are dropped whole;
* a query reads the retained buckets' counters summed per virtual
  stream (:class:`~repro.core.view.CounterView`) — linearity again — so
  the answered window is the last ``W′`` trees where
  ``window_trees ≤ W′ < window_trees + bucket_trees``; the exact
  boundary is quantised to a bucket, the usual accuracy/memory trade of
  bucketed windows.

Memory: ``(n_buckets + 1) ×`` one synopsis.  Virtual streams work
unchanged.  Top-k tracking (Section 5.2) runs **per bucket**: each
bucket's synopsis folds its own heavy hitters out of its counters, and
each bucket's tracker compensates the queries for its own deletions, so
windowed queries keep the self-join-size reduction exactly where skew
matters most (trending patterns).  On bucket expiry
the tracked state composes through the fold/unfold protocol of
:mod:`repro.core.topk` (*merge-on-expiry*): the expiring bucket's
tracker is unfolded — its counters are discarded anyway, but the
unfold yields the candidate heavy hitters it knew — and the surviving
oldest bucket's tracker is unfolded and *refolded* over the union of
both candidate sets, so a pattern that was hot in the expired bucket
keeps being watched if it is still heavy in the surviving window.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Iterable

from repro.core.config import SketchTreeConfig
from repro.core.memory import MemoryReport
from repro.core.sketchtree import SketchTree
from repro.core.view import CounterView, Queries
from repro.errors import ConfigError
from repro.obs.registry import Registry, get_default_registry
from repro.trees.tree import LabeledTree


class WindowedSketchTree(Queries):  # sketchlint: single-writer
    """Approximate pattern counts over a sliding window of trees.

    Single-writer: one thread drives :meth:`update`/:meth:`update_batch`
    (in the serving tier, the shard's drain thread); query threads read
    concurrently under the racy-but-benign counter semantics of
    docs/concurrency.md.  The bucket *list* itself is the one structure
    a rotation mutates non-atomically, so rotations and reader snapshots
    of it serialise on a small internal lock.

    Parameters
    ----------
    config:
        Configuration for the per-bucket synopses.  ``topk_size > 0``
        runs one tracker per bucket per virtual stream, merged across
        bucket expiry via the fold/unfold protocol (module docstring).
    window_trees:
        Target window length in trees.
    bucket_trees:
        Bucket granularity; smaller buckets track the window boundary
        more tightly at proportionally more memory.
    """

    def __init__(
        self,
        config: SketchTreeConfig,
        window_trees: int,
        bucket_trees: int | None = None,
    ):
        if window_trees < 1:
            raise ConfigError(f"window_trees must be >= 1, got {window_trees}")
        if bucket_trees is None:
            bucket_trees = max(1, window_trees // 8)
        if not 1 <= bucket_trees <= window_trees:
            raise ConfigError(
                f"bucket_trees must be in [1, window_trees], got {bucket_trees}"
            )
        self.config = config
        self.window_trees = window_trees
        self.bucket_trees = bucket_trees
        self.n_buckets = -(-window_trees // bucket_trees)  # ceil
        self._complete: deque[SketchTree] = deque()
        self._current = SketchTree(config)
        self._lock = threading.Lock()
        self.n_trees_seen = 0
        #: Merge-on-expiry churn (plain ints, always on — surfaced as
        #: pull counters by :meth:`set_metrics`): trackers refolded and
        #: candidate values replayed through ``bulk_build``.
        self.n_refolds = 0
        self.n_refold_candidates = 0

    # ------------------------------------------------------------------
    # Stream side
    # ------------------------------------------------------------------
    def update(self, tree: LabeledTree) -> None:
        """Process one arriving tree; rotates buckets as they fill."""
        self.update_batch((tree,))

    def update_batch(self, trees: Iterable[LabeledTree]) -> None:
        """Process several arriving trees as one micro-batch.

        Bit-identical to calling :meth:`update` per tree: the batch is
        cut into segments at bucket boundaries, so every bucket's
        :class:`~repro.core.sketchtree.SketchTree` receives exactly the
        trees the per-tree loop would have given it — via its own
        ``update_batch``, which is itself bit-identical to per-tree
        updates.  This is what lets
        :class:`~repro.stream.engine.StreamProcessor` with
        ``batch_trees > 1`` feed windowed consumers through the columnar
        pipeline instead of degrading to per-tree dispatch.
        """
        pending = list(trees)
        start = 0
        while start < len(pending):
            room = self.bucket_trees - self._current.n_trees
            segment = pending[start : start + room]
            self._current.update_batch(segment)
            self.n_trees_seen += len(segment)
            start += len(segment)
            if self._current.n_trees >= self.bucket_trees:
                self._rotate()

    def _rotate(self) -> None:
        """Retire the full in-progress bucket and expire the oldest.

        The structural swap happens under the lock (readers snapshot the
        bucket list); the merge-on-expiry work — tracker unfold/refold —
        runs after it, outside the lock, under the same racy-benign
        read semantics as ingest itself.
        """
        expired: list[SketchTree] = []
        with self._lock:
            self._complete.append(self._current)
            self._current = self._current.empty_like()
            while len(self._complete) > self.n_buckets:
                expired.append(self._complete.popleft())
            successor = self._complete[0]
        for bucket in expired:
            self._merge_on_expiry(bucket, successor)

    def _merge_on_expiry(self, expired: SketchTree, successor: SketchTree) -> None:
        """Fold the expiring bucket's tracked state into the successor.

        Per stream: :meth:`~repro.core.topk.TopKTracker.unfold` the
        expiring bucket's tracker (its counters leave the window either
        way; the unfold yields its candidate heavy hitters), unfold the
        surviving oldest bucket's tracker — restoring that bucket's pure
        linear counters — and refold it over the union of both candidate
        sets.  A value the expired bucket was tracking survives exactly
        when it is still heavy in the successor's sub-stream; per-bucket
        ``adjustment()`` compensation keeps working because each
        bucket's tracker still describes precisely its own deletions.
        """
        survivors = dict(successor.streams.iter_trackers())
        for residue, tracker in expired.streams.iter_trackers():
            candidates = tracker.unfold()
            if not candidates:
                continue
            union = dict.fromkeys(candidates)
            union.update(dict.fromkeys(survivors[residue].unfold()))
            successor.streams.refold_tracker(residue, union)
            self.n_refolds += 1
            self.n_refold_candidates += len(union)

    def ingest(
        self, trees: Iterable[LabeledTree], batch_trees: int = 64
    ) -> "WindowedSketchTree":
        """Stream an iterable through :meth:`update_batch` in micro-batches."""
        if batch_trees < 1:
            raise ConfigError(f"batch_trees must be >= 1, got {batch_trees}")
        chunk: list[LabeledTree] = []
        for tree in trees:
            chunk.append(tree)
            if len(chunk) >= batch_trees:
                self.update_batch(chunk)
                chunk.clear()
        if chunk:
            self.update_batch(chunk)
        return self

    # ------------------------------------------------------------------
    # Query side
    # ------------------------------------------------------------------
    def _live_buckets(self) -> list[SketchTree]:
        """A stable snapshot of the retained buckets, oldest first."""
        with self._lock:
            buckets = list(self._complete)
            current = self._current
        if current.n_trees:
            buckets.append(current)
        return buckets

    def view(self) -> CounterView:
        """The live buckets' summed counters, which every ``estimate_*``
        reads: with top-k off, they answer exactly as :meth:`merged`."""
        return CounterView(self._live_buckets() or [self._current])

    def merged(self) -> SketchTree:
        """The live buckets collapsed into one fresh synopsis.

        One :meth:`~repro.core.sketchtree.SketchTree.merge` over every
        live bucket — per-bucket top-k state included, via the
        fold/unfold protocol — gives a synopsis equivalent to one fed
        the window's trees (bit-identical counters once unfolded; each
        stream's tracker is refolded once over the buckets' tracked
        values).  The returned synopsis is a snapshot-in-time copy —
        later window updates do not flow into it.
        """
        return SketchTree.merge(*(self._live_buckets() or [self._current]))

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def set_metrics(self, metrics: Registry | None) -> None:
        """Register pull instruments over live window state on a
        metrics registry (``None`` → the process default).

        Same semantics as :meth:`SketchTree.set_metrics` (re-registering
        rebinds; nothing here mutates window state).
        """
        obs = metrics if metrics is not None else get_default_registry()
        obs.gauge(
            "window_live_buckets",
            help="buckets currently retained (complete + in-progress)",
            fn=lambda: self.n_live_buckets,
        )
        obs.gauge(
            "window_trees_covered",
            help="trees currently covered by the retained buckets",
            fn=lambda: self.window_size_actual,
        )
        if self.config.topk_size:
            obs.counter(
                "window_topk_refolds_total",
                help="per-stream trackers refolded on bucket expiry",
                fn=lambda: self.n_refolds,
            )
            obs.counter(
                "window_topk_refold_candidates_total",
                help="candidate values replayed through refolds on expiry",
                fn=lambda: self.n_refold_candidates,
            )
            obs.gauge(
                "window_topk_deleted_self_join_mass",
                help="self-join mass deleted by the live buckets' trackers",
                fn=lambda: float(self.deleted_self_join_mass()),
            )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    @property
    def n_trees(self) -> int:
        """Absolute stream position: every tree ever seen, expired or not.

        This is what checkpoint naming and
        :meth:`~repro.stream.engine.StreamProcessor.resume` skip counts
        key on — a resumed window must skip all consumed trees, not just
        the retained ones (:attr:`window_size_actual`).
        """
        return self.n_trees_seen

    def to_bytes(self) -> bytes:
        """Serialise the whole window (every retained bucket, including
        per-bucket tracker state) into the versioned container format of
        :mod:`repro.core.snapshot`."""
        from repro.core.snapshot import window_to_bytes

        return window_to_bytes(self)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "WindowedSketchTree":
        """Restore a window serialised with :meth:`to_bytes`.

        Raises a typed :class:`~repro.errors.SnapshotError` for corrupt,
        truncated, or version-mismatched blobs.
        """
        from repro.core.snapshot import window_from_bytes

        return window_from_bytes(blob)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def window_size_actual(self) -> int:
        """Trees currently covered by the retained buckets."""
        return sum(b.n_trees for b in self._live_buckets())

    @property
    def n_live_buckets(self) -> int:
        return len(self._complete) + (1 if self._current.n_trees else 0)

    def memory_report(self) -> MemoryReport:
        """Aggregate paper-style memory across live buckets (at least
        the in-progress one); the buckets share one ξ seed draw."""
        one = MemoryReport.of(self.config)
        n = max(1, len(self._live_buckets()))
        return MemoryReport(
            provisioned_sketch_bytes=n * one.provisioned_sketch_bytes,
            provisioned_topk_bytes=n * one.provisioned_topk_bytes,
            seed_bytes=one.seed_bytes,
        )

    def __repr__(self) -> str:
        return (
            f"WindowedSketchTree(window={self.window_trees}, "
            f"bucket={self.bucket_trees}, live={self.n_live_buckets}, "
            f"covering={self.window_size_actual})"
        )
