"""The SketchTree synopsis: the paper's primary contribution, end to end.

Per arriving tree (Algorithm 1): EnumTree enumerates every pattern
occurrence with 1..k edges; each becomes extended Prüfer sequences, then a
one-dimensional value (Rabin residue or pairing value); the value routes
to a virtual stream by residue mod ``p`` and updates that stream's
``s1 × s2`` AMS instances; optionally, top-k tracking (Algorithm 4) runs
per value.

Per query (Algorithm 2 + extensions): the query pattern(s) are encoded
identically, the relevant virtual-stream sketches are summed, deleted
top-k mass of queried values is compensated, and the median-of-means
estimator answers — for single patterns, unordered patterns (Section 3.3),
sums of distinct patterns (Theorem 2), arithmetic expressions (Section 4),
and ``*``/``//`` queries resolved against a structural summary
(Section 6.2).  The estimator bodies live on
:class:`~repro.core.view.CounterView`, which windows and shards read
through too; :meth:`SketchTree.view` is this synopsis' own.

Every ingestion path — :meth:`update` (tree at a time), the cross-tree
micro-batched :meth:`update_batch`, :meth:`update_from_patterns` (the
SAX hook), :meth:`delete_tree` (negative counts) and the bulk loaders
:meth:`ingest_counts` / :meth:`ingest_value_counts` — now funnels
through one columnar carrier (:class:`~repro.core.batch.EncodedBatch`):
patterns are encoded in a batch, routed to virtual streams with a
single grouped pass, and applied with one vectorised sketch update per
touched stream.  Because the AMS projection is linear and counters are
exact int64 sums, every path produces bit-identical sketch state for
the same occurrence multiset; top-k processing (Algorithm 4) is the one
order-sensitive part, so batched paths replay it per tree segment in
arrival order (streaming paths) or emulate it per stream
(:meth:`ingest_counts`, which experiments use to sweep configurations).
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from repro.core.batch import EncodedBatch
from repro.core.config import TOPK_RNG_SALT, XI_SEED_OFFSET, SketchTreeConfig
from repro.core.encoding import PatternEncoder
from repro.core.memory import MemoryReport
from repro.core.topk import fold_vector
from repro.core.view import CounterView, Queries, coerce_pattern
from repro.core.virtual import VirtualStreams
from repro.enumtree.enumerate import PatternTableMemo, collect_forest_patterns
from repro.errors import ConfigError
from repro.obs.registry import COUNT_BUCKETS, Registry, get_default_registry
from repro.query.summary import StructuralSummary
from repro.sketch.ams import _CHUNK
from repro.trees.tree import LabeledTree, Nested

#: ``coerce_pattern`` lives with the estimators in :mod:`repro.core.view`.
__all__ = ["SketchTree", "coerce_pattern"]

#: Rows per ξ window on the tracked ingest path: the window's int8 block
#: holds eight ``_CHUNK``-row blocks, one byte per instance and row
#: (11 MiB at 350 instances).
_WINDOW_ROWS = 8 * _CHUNK

#: Accepted values per :meth:`VirtualStreams.track_rows` call: its stacked
#: int64 counters, a round's gathered counters and their change take at
#: most the bytes of one ``_CHUNK``-row int8 block each, and its int8
#: rows an eighth of that.
_TRACK_ROWS = _CHUNK // 8


class SketchTree(Queries):  # sketchlint: single-writer
    """The streaming synopsis for approximate tree pattern counts.

    >>> st = SketchTree(SketchTreeConfig(s1=30, s2=5, max_pattern_edges=3,
    ...                                  n_virtual_streams=31, seed=7))
    >>> from repro.trees import from_sexpr
    >>> st.update(from_sexpr("(A (B) (C))"))
    >>> round(st.estimate_ordered("(A (B))"))
    1

    **Thread-ownership contract (single-writer).**  One ingest thread
    owns all mutation of a synopsis (``update*``, ``ingest*``,
    ``delete_tree``); any number of threads may call ``estimate_*``
    concurrently with it.  Concurrent reads of the int64 counters are
    racy but benign: an estimate computed mid-batch is an estimate of a
    valid prefix of the stream, because counter updates are pure
    additions (AMS linearity) — there is no invalid intermediate state
    to observe.  The internally locked components (the pattern encoder,
    per-stream top-k trackers, metrics) stay consistent on their own.
    Cross-thread *combination* happens through a
    :class:`~repro.core.view.CounterView` (summed reads, same racy-benign
    semantics), :meth:`merge` over quiesced shards, or snapshots.  See
    docs/concurrency.md for the full model; sketchlint's SKL2xx phase
    enforces the declarations.
    """

    def __init__(
        self,
        config: SketchTreeConfig | None = None,
        metrics: Registry | None = None,
        **overrides,
    ):
        if config is None:
            config = SketchTreeConfig(**overrides)
        elif overrides:
            raise ConfigError("pass either a config object or keyword overrides")
        self.config = config
        encoder_seed = (
            config.encoder_seed if config.encoder_seed is not None else config.seed
        )
        self._encoder = PatternEncoder(
            mapping=config.mapping,
            degree=config.fingerprint_degree,
            seed=encoder_seed,
        )
        self._streams = VirtualStreams(
            n_streams=config.n_virtual_streams,
            s1=config.s1,
            s2=config.s2,
            independence=config.independence,
            seed=config.seed + XI_SEED_OFFSET,
            topk_size=config.topk_size,
            xi_family=config.xi_family,
        )
        self._rng = np.random.default_rng(config.seed ^ TOPK_RNG_SALT)
        # Canonical-subtree → pattern-table cache shared across every tree
        # this synopsis ingests.  Pure enumeration speedup (bit-identical
        # output); owned by the single ingest thread, never serialised.
        self._enum_memo = PatternTableMemo()
        self.summary: StructuralSummary | None = (
            StructuralSummary() if config.maintain_summary else None
        )
        self.n_trees = 0
        self.n_values = 0  # pattern occurrences processed ("sequences")
        self.set_metrics(metrics)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def set_metrics(self, metrics: Registry | None) -> None:
        """Attach a metrics registry (``None`` → the process default).

        Metrics are pure observation: nothing here touches sketch state,
        and the registry is not serialised into snapshots — a restored
        synopsis starts on the process default and can be re-attached
        with this method.  The pull instruments of
        :func:`register_synopsis_metrics` are registered over this
        synopsis alone; re-registering the same names rebinds them, so
        the last registration owns them (the registry keeps the synopsis
        alive through those callbacks).
        """
        self._obs = metrics if metrics is not None else get_default_registry()
        register_synopsis_metrics(self._obs, (self,))

    @property
    def metrics(self) -> Registry:
        """The attached metrics registry (the no-op default unless set)."""
        return self._obs

    # ------------------------------------------------------------------
    # Stream side
    # ------------------------------------------------------------------
    def update(self, tree: LabeledTree) -> None:
        """Process one arriving tree (paper Algorithm 1)."""
        self.update_batch((tree,))

    def update_batch(self, trees: Iterable[LabeledTree]) -> None:
        """Process several arriving trees as one cross-tree micro-batch.

        Bit-identical to calling :meth:`update` per tree with the same
        seed: counters are exact int64 sums (linearity — grouping is
        free), and the order-sensitive parts are replayed faithfully —
        top-k processing runs per tree segment in arrival order against
        counters that include exactly the trees seen so far, and the
        sampling RNG draws one vector per segment, consuming the stream
        identically to the per-value draws.  The win is everywhere else:
        one batched encode, one grouped routing pass, and one vectorised
        sketch update per touched stream per batch (with top-k off) or
        per tree (with top-k on).
        """
        trees = list(trees)
        if not trees:
            return
        obs = self._obs
        with obs.span("ingest_enumerate_seconds"):
            patterns, offsets = collect_forest_patterns(
                trees, self.config.max_pattern_edges, self._enum_memo
            )
        if obs.enabled:  # np.diff is work only a live histogram reads
            obs.histogram(
                "ingest_patterns_per_tree", buckets=COUNT_BUCKETS
            ).observe_batch(np.diff(offsets))
        batch = self._encode_batch(patterns, tree_offsets=offsets)
        self._ingest_batch(batch, track=True)
        self.n_trees += len(trees)
        self.n_values += len(batch)
        if self.summary is not None:
            for tree in trees:
                self.summary.add_tree(tree)

    def update_from_patterns(self, patterns: Iterable[Nested]) -> None:
        """Process one tree given its already-enumerated pattern multiset.

        The public hook for external enumerators (the SAX-style streaming
        path in :mod:`repro.stream.sax`, custom parsers, test harnesses):
        callers hand over exactly what ``EnumTree(T, k)`` would have
        produced for one arriving tree, and the synopsis advances as if
        :meth:`update` had seen the tree — same sketch state, same top-k
        processing, same bookkeeping.  The structural summary (which
        needs whole trees) is not updated on this path.
        """
        patterns = list(patterns)
        batch = self._encode_batch(patterns, tree_offsets=[0, len(patterns)])
        self._ingest_batch(batch, track=True)
        self.n_trees += 1
        self.n_values += len(batch)

    def delete_tree(self, tree: LabeledTree) -> None:
        """Remove a previously streamed tree from the synopsis.

        Exploits AMS deletability (Section 3): the same batch path runs
        with negative counts.  Top-k tracked frequencies are *not*
        revised (they remain estimates of what was deleted when tracking
        ran); the structural summary, being monotone, is also left
        unchanged.
        """
        patterns, offsets = collect_forest_patterns(
            (tree,), self.config.max_pattern_edges, self._enum_memo
        )
        batch = self._encode_batch(patterns, count=-1, tree_offsets=offsets)
        self._ingest_batch(batch, track=False)
        self.n_trees -= 1
        self.n_values -= len(batch)

    def ingest(
        self, trees: Iterable[LabeledTree], batch_trees: int = 64
    ) -> "SketchTree":
        """Stream a whole iterable of trees in micro-batches.

        Bit-identical to looping :meth:`update` (see
        :meth:`update_batch`); ``batch_trees`` only sets how much
        encoding and routing work is amortised per pass.
        """
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

    def ingest_counts(
        self,
        counts: dict[Nested, int] | Counter,
        n_trees: int = 0,
    ) -> "SketchTree":
        """Bulk-load a pattern → occurrence-count table.

        The sketch state equals streaming the same occurrences one at a
        time (linearity of the AMS projection).  When top-k is enabled,
        Algorithm 4 is emulated per stream with
        :meth:`~repro.core.topk.TopKTracker.bulk_build` — by the end of a
        real stream the tracker likewise holds the values with the largest
        estimated frequencies, so the emulation preserves the strategy's
        effect (the self-join-size reduction) without replaying every
        occurrence.
        """
        patterns = list(counts.keys())
        values = self._encoder.encode_batch(patterns)
        by_value: dict[int, int] = {}
        for value, count in zip(values, counts.values()):
            by_value[value] = by_value.get(value, 0) + count
        return self.ingest_value_counts(by_value, n_trees=n_trees)

    def ingest_value_counts(
        self, counts_by_value: dict[int, int], n_trees: int = 0
    ) -> "SketchTree":
        """Bulk-load an already-encoded value → count table.

        Advanced path for harnesses that pre-encode a stream once (with a
        pinned ``encoder_seed``) and replay it under many sketch seeds.
        The caller is responsible for having produced the values with an
        encoder identical to this synopsis' (same mapping, degree and
        encoder seed) — otherwise queries will not line up.
        """
        raw = list(counts_by_value.keys())
        counts = np.fromiter(
            counts_by_value.values(), dtype=np.int64, count=len(raw)
        )
        batch = EncodedBatch.build(
            raw, self.config.n_virtual_streams, self._streams.xi, counts=counts
        )
        self._streams.update_batch(batch)
        self.n_trees += n_trees
        self.n_values += batch.total_count()
        if self.config.topk_size:
            # Algorithm 4 emulation, per touched stream, over that
            # stream's distinct values in first-seen order — the same
            # residue grouping the sketch update used.
            for residue, indices in batch.iter_residue_groups():
                self._streams.tracker(residue).bulk_build(
                    [raw[i] for i in indices]
                )
        return self

    # ------------------------------------------------------------------
    # The shared columnar ingest path
    # ------------------------------------------------------------------
    def _encode_batch(
        self,
        patterns: list[Nested],
        count: int = 1,
        tree_offsets: list[int] | None = None,
    ) -> EncodedBatch:
        """Encode a pattern multiset into a routed columnar batch."""
        with self._obs.span("ingest_encode_seconds"):
            raw = self._encoder.encode_batch(patterns)
            return EncodedBatch.build(
                raw,
                self.config.n_virtual_streams,
                self._streams.xi,  # the ξ family owns value → field reduction
                count=count,
                tree_offsets=tree_offsets,
            )

    def _ingest_batch(self, batch: EncodedBatch, track: bool) -> None:
        """Apply a batch to the virtual streams (+ optional top-k).

        With top-k off (or ``track=False``) the whole batch is applied
        in one grouped pass — linearity makes any grouping bit-identical.
        With top-k on, Algorithm 4 reads the counters mid-stream, so the
        batch is walked per tree segment: apply a tree's values, then
        run its (sampled) top-k processing, exactly as the per-tree
        streaming loop would.  Tracking time is reported apart from the
        counter updates (``ingest_track_seconds``).
        """
        obs = self._obs
        began = time.perf_counter()
        tracking = self._apply_batch(batch, track)
        elapsed = time.perf_counter() - began
        obs.histogram("ingest_apply_seconds").observe(elapsed - (tracking or 0.0))
        if tracking is not None:
            obs.histogram("ingest_track_seconds").observe(tracking)
        obs.counter(
            "ingest_values_total",
            help="encoded pattern occurrences applied to the sketches",
        ).inc(len(batch))

    def _apply_batch(self, batch: EncodedBatch, track: bool) -> float | None:
        """Apply (and with top-k on, track) a batch; returns the seconds
        spent tracking, or ``None`` when no tracking ran.

        The tracked path evaluates ξ once per window of whole trees over
        the window's distinct values, as an int8 block whose rows serve
        both each tree's counter update and its Algorithm 4 block.  A
        window spans at most ``8 · _CHUNK`` rows; a tree longer than
        that gets no block, and its update and tracking evaluate ξ per
        chunk instead.

        Memory, in units of one ``(_CHUNK, n_instances)`` int8 row
        block ``R`` (1.4 MiB at 350 instances; the untracked path peaks
        near ``2R``: one block plus the kernel's uint64 tiles): the
        window's block and a tree's rows gathered from it take at most
        ``8R`` each, and while a tree is applied its deduplicated rows
        add at most ``8R`` more — the per-stream sums read the int8
        rows without an int64 copy — so a tree that fills the window
        peaks near ``24R``.  Tracking runs ``_TRACK_ROWS`` values at a
        time, whose stacked int64 counters, round counters and round
        change add at most ``R`` each.
        """
        if not (track and self.config.topk_size and len(batch)):
            self._streams.update_batch(batch)
            return None
        streams = self._streams
        clock = time.perf_counter
        tracking = 0.0
        for window in batch.tree_windows(_WINDOW_ROWS):
            lo, hi = window[0][0], window[-1][1]
            block = index = None
            if hi - lo <= _WINDOW_ROWS:
                distinct, index = np.unique(batch.values[lo:hi], return_inverse=True)
                block = streams.xi.sign_rows(distinct)
            for start, stop in window:
                segment = batch.segment(start, stop)
                signs = None
                if block is not None:
                    signs = block[index[start - lo : stop - lo]]
                streams.update_batch(segment, signs)
                began = clock()
                self._track_segment(segment, signs)
                tracking += clock() - began
        return tracking

    def _track_segment(
        self, segment: EncodedBatch, signs: np.ndarray | None
    ) -> None:
        """Top-k processing for one tree's values (Algorithm 4 + sampling).

        One vectorised RNG draw decides every acceptance for the
        segment; the draw consumes the generator stream exactly as the
        legacy per-value ``random()`` calls did, so decisions are
        bit-identical under the same seed.  (``topk_probability >= 1``
        draws nothing, also matching the legacy path.)  The accepted
        values run through :meth:`VirtualStreams.track_rows` in arrival
        order, ``_TRACK_ROWS`` at a time; ``signs`` holds the segment's ξ
        rows when the caller has them.
        """
        n = len(segment)
        if n == 0:
            return
        probability = self.config.topk_probability
        if probability >= 1.0:
            accepted = np.arange(n)
        else:
            accepted = np.flatnonzero(self._rng.random(n) < probability)
        streams = self._streams
        xi = streams.xi
        raw = np.array(segment.raw, dtype=object)  # exact ints, any width
        for lo in range(0, len(accepted), _TRACK_ROWS):
            rows = accepted[lo : lo + _TRACK_ROWS]
            streams.track_rows(
                segment.residues[rows],
                raw[rows],
                xi.sign_rows(segment.values[rows]) if signs is None else signs[rows],
            )

    # ------------------------------------------------------------------
    # Query side
    # ------------------------------------------------------------------
    def view(self) -> CounterView:
        """This synopsis' counters as a :class:`~repro.core.view.CounterView`.

        The view hands back this synopsis' own matrices, uncopied; every
        ``estimate_*`` method reads through it.
        """
        return CounterView((self,))

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    def memory_report(self) -> MemoryReport:
        """Paper-style memory accounting (see :mod:`repro.core.memory`)."""
        return MemoryReport.of(self.config)

    @property
    def streams(self) -> VirtualStreams:
        """The underlying virtual-stream partition (read-mostly access)."""
        return self._streams

    @property
    def encoder(self) -> PatternEncoder:
        """The pattern → value encoder (shared with analyses)."""
        return self._encoder

    def empty_like(self) -> "SketchTree":
        """An empty synopsis with this one's config and pattern encoder.

        The two compose (:func:`~repro.core.view.check_composable`):
        under ``mapping="pairing"`` only synopses sharing one encoder
        map a pattern to the same value.
        """
        twin = type(self)(self.config)
        twin._encoder = self._encoder
        return twin

    def merge(self, *others: "SketchTree") -> "SketchTree":
        """One synopsis over this one's and ``others``' sub-streams.

        Every operand must share this one's config and seed and cover a
        disjoint sub-stream (distributed ingest, window buckets, serving
        shards).  The result shares this synopsis' encoder; pairing
        operands must share one (:class:`~repro.errors.ConfigError`
        otherwise), since each pairing encoder numbers labels in
        first-seen order.  Operands are never mutated, and must be
        quiesced: the serving tier's admin thread merges idle shards.

        Counters are exact int64 sums over one ξ family, so they are
        bit-identical to one run over the concatenated stream (AMS
        linearity, pinned by ``tests/test_thread_safety.py``).  Top-k
        state composes through the fold/unfold protocol
        (:mod:`repro.core.topk`) once over all operands: tracked
        frequencies add per value (:meth:`CounterView.tracked`), that
        sum is *unfolded* into the merged copy, restoring the linear
        counters, and each stream's tracker is *refolded* once over the
        union of the operands' tracked values.  A refold is not
        associative: ``a.merge(b).merge(c)`` refolds twice and may
        track other values than ``a.merge(b, c)``.
        """
        sources = (self, *others)
        view = CounterView(sources)
        merged = self.empty_like()
        for source in sources:
            merged._streams.counters += source._streams.counters
        candidates: dict[int, dict[int, int]] = {}
        for value, freq in view.tracked().items():
            candidates.setdefault(merged._streams.residue(value), {})[value] = freq
        for residue, state in candidates.items():
            sketch = merged._streams.sketch(residue)
            sketch.counters += fold_vector(sketch, state)  # unfold
            merged._streams.refold_tracker(residue, state)
        merged.n_trees = sum(source.n_trees for source in sources)
        merged.n_values = sum(source.n_values for source in sources)
        for source in sources:
            # The dataguide of a union of streams is the union of the
            # tries (one config: every operand keeps one or none does).
            if merged.summary is not None and source.summary is not None:
                merged.summary.update(source.summary)
        return merged

    def to_bytes(self) -> bytes:
        """Serialise the synopsis (counters, top-k state, summary,
        bookkeeping) into the versioned, pickle-free snapshot format of
        :mod:`repro.core.snapshot`."""
        from repro.core.snapshot import snapshot_to_bytes

        return snapshot_to_bytes(self)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SketchTree":
        """Restore a synopsis serialised with :meth:`to_bytes`.

        Raises a typed :class:`~repro.errors.SnapshotError` for corrupt,
        truncated, or version-mismatched blobs.
        """
        from repro.core.snapshot import snapshot_from_bytes

        return snapshot_from_bytes(blob)

    def __repr__(self) -> str:
        return (
            f"SketchTree(trees={self.n_trees}, values={self.n_values}, "
            f"{self._streams!r})"
        )


def register_synopsis_metrics(obs: Registry, synopses: Sequence[SketchTree]) -> None:
    """Register the synopsis pull instruments over ``synopses``' live state.

    Each instrument reads the sum over ``synopses`` of what it reads on
    one synopsis (docs/observability.md), so one registration covers
    every shard of a service.  All of them share one config.
    """
    obs.gauge(
        "virtual_streams_nonzero",
        help="virtual streams whose counters are not all zero",
        fn=lambda: sum(s.streams.n_nonzero for s in synopses),
    )
    obs.gauge(
        "sketch_counter_l2_mass",
        help="sum of squared AMS counters across all streams",
        fn=lambda: sum(
            float(np.square(s.streams.counters, dtype=np.float64).sum())
            for s in synopses
        ),
    )
    obs.counter(
        "encoder_cache_hits_total",
        help="pattern encodings served from the LRU memo",
        fn=lambda: sum(s.encoder.cache_hits for s in synopses),
    )
    obs.counter(
        "encoder_cache_misses_total",
        help="pattern encodings computed (LRU misses)",
        fn=lambda: sum(s.encoder.cache_misses for s in synopses),
    )
    obs.gauge(
        "encoder_cache_size",
        help="distinct patterns currently memoised",
        fn=lambda: sum(s.encoder.cache_size for s in synopses),
    )
    obs.gauge(
        "encoder_label_cache_size",
        help="distinct labels currently memoised by the label hash",
        fn=lambda: sum(s.encoder.label_cache_size for s in synopses),
    )
    obs.counter(
        "enum_memo_hits_total",
        help="node tables reused across structurally identical subtrees",
        fn=lambda: sum(s._enum_memo.hits for s in synopses),
    )
    obs.counter(
        "enum_memo_misses_total",
        help="node tables built fresh (first sight of a subtree shape)",
        fn=lambda: sum(s._enum_memo.misses for s in synopses),
    )
    obs.gauge(
        "enum_memo_shapes",
        help="distinct subtree shapes currently interned",
        fn=lambda: sum(s._enum_memo.n_shapes for s in synopses),
    )
    if synopses[0].config.topk_size:
        obs.counter(
            "topk_evictions_total",
            help="tracked values evicted by larger newcomers (Algorithm 4)",
            fn=lambda: sum(
                t.n_evictions for s in synopses for _, t in s.streams.iter_trackers()
            ),
        )
        obs.counter(
            "topk_rearrivals_total",
            help="re-arrivals of already-tracked values (Algorithm 4)",
            fn=lambda: sum(
                t.n_rearrivals for s in synopses for _, t in s.streams.iter_trackers()
            ),
        )
        obs.gauge(
            "topk_deleted_self_join_mass",
            help="self-join mass currently deleted from the sketches",
            fn=lambda: sum(s.deleted_self_join_mass() for s in synopses),
        )
