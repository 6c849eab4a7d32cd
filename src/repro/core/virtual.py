"""Virtual streams: partitioning the value stream to shrink self-join size.

Section 5.3: the one-dimensional stream ``S`` is split into ``p`` (prime)
disjoint virtual streams by residue ``t mod p``, each sketched separately
— like COUNT-sketch buckets.  Every per-stream sketch shares one ξ family
("the sketches can share the same random seed"), so the sketch of a union
of streams is simply the sum of their counters; that is how queries whose
values land in different streams (sums, products, unordered counts) are
served.

Every stream is allocated at construction, as the paper's memory totals
provision them (Section 7.5): one ``(p, s1·s2)`` int64 array holds all
counters, and each stream's :class:`~repro.sketch.ams.SketchMatrix` is a
view of one row.  When top-k tracking is enabled there is one tracker per
virtual stream, built at the same time, as the paper prescribes for the
combined strategy.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro.core.topk import EXACT_SUM_LIMIT, TopKTracker, _group_sums, refold
from repro.core.view import CounterReads

if TYPE_CHECKING:
    from repro.core.batch import EncodedBatch
from repro.errors import ConfigError
from repro.sketch.ams import _CHUNK, SketchMatrix, median_of_means
from repro.sketch.xi import XiGenerator


def is_prime(n: int) -> bool:
    """Deterministic primality check by trial division (small n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def next_prime(n: int) -> int:
    """Smallest prime ``>= n``."""
    candidate = max(2, n)
    while not is_prime(candidate):
        candidate += 1
    return candidate


class VirtualStreams(CounterReads):  # sketchlint: single-writer
    """``p`` per-residue sketch matrices + top-k trackers over one array.

    Single-writer: the owning shard's ingest thread performs all counter
    mutation and tracker replacement; query threads only read counters
    (see docs/concurrency.md) through the
    :class:`~repro.core.view.CounterReads` methods, which this class
    shares with summed views.  Nothing is allocated after construction,
    so no reader ever iterates a table that grows.

    Parameters
    ----------
    n_streams:
        The prime ``p``; 1 means a single (non-partitioned) stream.
    s1, s2:
        Sketch-matrix dimensions, shared by every stream.
    independence, seed:
        ξ-family parameters; one generator is built and shared.
    topk_size:
        Per-stream top-k capacity; 0 disables tracking.
    """

    def __init__(
        self,
        n_streams: int,
        s1: int,
        s2: int,
        independence: int = 4,
        seed: int = 0,
        topk_size: int = 0,
        xi_family: str = "polynomial",
    ):
        if n_streams > 1 and not is_prime(n_streams):
            raise ConfigError(f"n_streams must be prime, got {n_streams}")
        if n_streams < 1:
            raise ConfigError(f"n_streams must be >= 1, got {n_streams}")
        self.n_streams = n_streams
        self.s1 = s1
        self.s2 = s2
        self.topk_size = topk_size
        if xi_family == "polynomial":
            self.xi = XiGenerator(s1 * s2, independence=independence, seed=seed)
        elif xi_family == "bch":
            from repro.sketch.bch import BchXiGenerator

            self.xi = BchXiGenerator(s1 * s2, seed=seed)
        else:
            raise ConfigError(f"unknown xi_family {xi_family!r}")
        #: Every stream's counters: row ``r`` is stream ``r``'s.
        self.counters = np.zeros((n_streams, s1 * s2), dtype=np.int64)
        self._matrices = tuple(
            SketchMatrix._over(row, s1, s2, self.xi) for row in self.counters
        )
        #: Every tracker's mutex: :meth:`track_rows` decides all touched
        #: streams under one acquisition.
        self._tracker_lock = threading.Lock()
        #: One tracker per stream with top-k on; :meth:`refold_tracker`
        #: replaces items, so the list never changes length.
        self._trackers = (
            [TopKTracker(topk_size, m, self._tracker_lock) for m in self._matrices]
            if topk_size
            else []
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def residue(self, value: int) -> int:
        """Which virtual stream ``value`` belongs to."""
        return value % self.n_streams

    def sketch(self, residue: int) -> SketchMatrix:
        """The sketch of stream ``residue``: a view of its counter row."""
        return self._matrices[residue]

    #: Alias of :meth:`sketch`, still called by ``benchmarks/suite``.
    sketch_if_allocated = sketch

    def update_batch(
        self, batch: "EncodedBatch", signs: np.ndarray | None = None
    ) -> None:
        """Route a whole :class:`~repro.core.batch.EncodedBatch` at once.

        One ``lexsort`` over (residue, value) replaces both the per-value
        dict dispatch of the legacy path and the per-group ``np.unique``
        of the first columnar pass: duplicate (residue, value) rows are
        collapsed into single rows with summed counts (ξ depends only on
        the field value, so ``c1·ξ(v) + c2·ξ(v) = (c1+c2)·ξ(v)`` exactly
        in int64, and real streams repeat values heavily), ξ is evaluated
        once over the deduplicated rows, ``_CHUNK`` values at a time, as
        int8 rows (:meth:`~repro.sketch.xi.XiGenerator.sign_rows`, the
        same bound as :meth:`SketchMatrix.update_batch`), and each
        touched stream adds ``counts[g] @ rows[g]`` for its group ``g``
        of every chunk it appears in
        (:meth:`~repro.sketch.ams.SketchMatrix.apply_rows`, no int64 copy
        of the rows).  Counters are exact int64 sums, so the result is
        bit-identical to per-value updates in any order and grouping.

        ``signs`` optionally carries the batch's int8 ξ rows already
        evaluated (one row per batch row); the top-k path passes them so
        ξ is evaluated once per value for both the update and
        Algorithm 4.  They stand in for the chunk's ``sign_rows`` block;
        the per-stream sums are the same.
        """
        n = len(batch)
        if n == 0:
            return
        order = np.lexsort((batch.values, batch.residues))
        values = batch.values[order]
        counts = batch.counts[order]
        residues = batch.residues[order]
        # Row starts of distinct (residue, value) pairs in the sorted view.
        fresh = np.empty(n, dtype=bool)
        fresh[0] = True
        np.not_equal(values[1:], values[:-1], out=fresh[1:])
        fresh[1:] |= residues[1:] != residues[:-1]
        starts = np.flatnonzero(fresh)
        values = values[starts]
        residues = residues[starts]
        counts = np.add.reduceat(counts, starts)
        rows = None if signs is None else signs[order[starts]]
        xi = self.xi
        sketch = self.sketch
        for lo in range(0, len(values), _CHUNK):
            hi = min(lo + _CHUNK, len(values))
            chunk_residues = residues[lo:hi]
            change = np.flatnonzero(chunk_residues[1:] != chunk_residues[:-1]) + 1
            # Group edges [0, *change, hi - lo] without growing an array
            # per iteration (this is the ingest hot loop).
            edges = np.empty(len(change) + 2, dtype=np.int64)
            edges[0] = 0
            edges[1:-1] = change
            edges[-1] = hi - lo
            block = xi.sign_rows(values[lo:hi]) if rows is None else rows[lo:hi]
            for g in range(len(edges) - 1):
                first, stop = int(edges[g]), int(edges[g + 1])
                sketch(int(chunk_residues[first])).apply_rows(
                    counts[lo + first : lo + stop], block[first:stop]
                )

    def track_rows(
        self, residues: np.ndarray, raw: np.ndarray, signs: np.ndarray
    ) -> None:
        """Algorithm 4 for arrivals already applied by :meth:`update_batch`.

        ``residues``, ``raw`` (the encoded values, an object array of
        Python ints) and ``signs`` (int8 ξ rows) are parallel, in
        arrival order.  Bit-identical to ``tracker(r).process(v)`` per
        row: streams share no counters and no tracked state, so only the
        order of arrivals within a stream matters.  The touched streams'
        counters are gathered once, and round ``r`` decides the ``r``-th
        arrival of every stream that has one, all at once
        (:meth:`_rounds`); the counters are written back once, at the
        end.  Rounds run while at least two streams remain.  The stream
        left over runs its tail through
        :meth:`~repro.core.topk.TopKTracker._process_block` on the live
        counters, and so does every stream, from the round on, once an
        arrival's group sums could leave the exact range; that path
        falls back to per-value ``process`` where they do.

        The stream table's one tracker lock is held for the whole call,
        so no reader sees a tracked map before its counter change is
        written.
        """
        m = len(raw)
        if m == 0:
            return
        # Rows grouped by stream, each stream's in arrival order.
        order = np.argsort(residues, kind="stable")
        ordered = residues[order]
        fresh = np.empty(m + 1, dtype=bool)
        fresh[0] = fresh[m] = True
        np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:m])
        edges = np.flatnonzero(fresh)  # every stream's first row, then m
        starts = edges[:-1]
        lengths = edges[1:] - starts
        index = ordered[starts]  # the touched streams
        touched = index.tolist()
        trackers = [self._trackers[residue] for residue in touched]
        counters = self.counters[index]
        # max|C| per stream; the uint64 view keeps |INT64_MIN| exact.
        bounds = np.abs(counters).view(np.uint64).max(axis=1).tolist()
        with self._tracker_lock:
            done = 0
            if len(trackers) > 1:
                done = self._rounds(
                    trackers, counters, bounds, order, starts, lengths, raw, signs
                )
                self.counters[index] = counters
            tails = np.flatnonzero(lengths > done).tolist()
            for t in tails:
                tail = order[starts[t] + done : starts[t] + lengths[t]]
                tail_signs = signs[tail]
                sums = _group_sums(tail_signs, counters[t], self.s2, self.s1)
                trackers[t]._process_block(
                    raw[tail].tolist(), tail_signs, sums.tolist(), bounds[t]
                )

    def _rounds(  # sketchlint: guarded-by=_tracker_lock
        self,
        trackers: list[TopKTracker],
        counters: np.ndarray,
        bounds: list[int],
        order: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        raw: np.ndarray,
        signs: np.ndarray,
    ) -> int:
        """:meth:`track_rows`' wavefront over the gathered ``counters``.

        Each round gives every arrival its group sums from one exact
        int64 product, adds each re-arrival's tracked frequency back as
        ``f·s1`` (``ξ² = 1``), boosts them all in one
        :func:`~repro.sketch.ams.median_of_means`, takes the decisions
        (:meth:`~repro.core.topk.TopKTracker._decide`), and applies the
        counter changes and evictee add-backs in one scatter.  A round
        runs only if ``s1·(bound + f)`` stays below
        :data:`~repro.core.topk.EXACT_SUM_LIMIT` for every arrival, so
        every sum, and every mean formed from it, is exact.  Updates
        ``counters`` and the per-stream ``bounds`` on ``max|C|`` in
        place; returns the number of rounds run.
        """
        s1, s2 = self.s1, self.s2
        limit = EXACT_SUM_LIMIT // s1
        xi = self.xi
        stream = np.repeat(np.arange(len(trackers)), lengths)
        rank = np.arange(len(stream)) - starts[stream]  # place in its stream
        n_rounds = int(np.partition(lengths, -2)[-2])
        # Round-major rows: every stream's r-th arrival, then the (r+1)-th.
        wave = np.argsort(rank, kind="stable")
        edges = [0, *np.cumsum(np.bincount(rank)[:n_rounds]).tolist()]
        wave = wave[: edges[-1]]
        wave_stream = stream[wave]
        wave_ids = wave_stream.tolist()
        wave_values = raw[order[wave]].tolist()
        wave_signs = signs[order[wave]].reshape(-1, s2, s1)
        grouped = counters.reshape(len(trackers), s2, s1)
        # Per-arrival counter changes and evictee frequencies of a round.
        changes = np.empty(len(trackers), dtype=np.int64)
        evicted_freqs = np.empty(len(trackers), dtype=np.int64)
        for done in range(n_rounds):
            lo, hi = edges[done], edges[done + 1]
            ids = wave_ids[lo:hi]
            arrivals = wave_values[lo:hi]
            tracked = [trackers[t]._stored(v) for t, v in zip(ids, arrivals)]
            if any(bounds[t] + f >= limit for t, f in zip(ids, tracked)):
                return done
            rows = wave_signs[lo:hi]
            index = wave_stream[lo:hi]
            block = grouped[index]
            sums = np.einsum("ngi,ngi->ng", block, rows)
            sums += np.multiply(tracked, s1)[:, None]
            estimates = median_of_means(sums, s1).tolist()
            evicted_at, evictees = [], []
            for i, (t, value, f, estimate) in enumerate(
                zip(ids, arrivals, tracked, estimates)
            ):
                deleted, evicted = trackers[t]._decide(value, f, round(estimate))
                changes[i] = f - deleted
                bounds[t] += f + deleted
                if evicted is not None:
                    evicted_freqs[len(evictees)] = evicted[1]
                    evicted_at.append(i)
                    evictees.append(evicted[0])
                    bounds[t] += evicted[1]
            block += rows * changes[: hi - lo, None, None]
            if evictees:
                back = xi.sign_rows(xi.to_field(evictees, count=len(evictees)))
                back = back * evicted_freqs[: len(evictees), None]
                block[evicted_at] += back.reshape(-1, s2, s1)
            grouped[index] = block
        return n_rounds

    def tracker(self, residue: int) -> TopKTracker | None:
        """The stream's top-k tracker, or ``None`` with top-k off."""
        return self._trackers[residue] if self._trackers else None

    def refold_tracker(
        self, residue: int, candidates: Iterable[int]
    ) -> TopKTracker:
        """Replace stream ``residue``'s tracker via the fold/unfold
        protocol (:func:`repro.core.topk.refold`).

        The caller must have restored the stream's counters to pure
        linear sums first (every contributing tracker unfolded) — this
        is the merge/expiry composition point, writer-side only.
        """
        if not self.topk_size:
            raise ConfigError("refold_tracker needs topk_size > 0")
        tracker = refold(
            self.sketch(residue), candidates, self.topk_size, self._tracker_lock
        )
        self._trackers[residue] = tracker
        return tracker

    def adjustment(self, residue: int, values: list[int]) -> np.ndarray | None:
        if not self._trackers:
            return None
        return self._trackers[residue].adjustment(values)

    #: The union-of-streams sketch, under the name query pipelines call.
    view = CounterReads.combined

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_nonzero(self) -> int:
        """Streams whose counters are not all zero."""
        return int(np.count_nonzero(self.counters.any(axis=1)))

    def iter_sketches(self) -> Iterator[tuple[int, SketchMatrix]]:
        """Yield ``(residue, SketchMatrix)`` for every stream."""
        return enumerate(self._matrices)

    def iter_trackers(self) -> Iterator[tuple[int, TopKTracker]]:
        """Yield ``(residue, TopKTracker)`` for every stream (none with
        top-k off)."""
        return enumerate(self._trackers)

    def __repr__(self) -> str:
        return (
            f"VirtualStreams(p={self.n_streams}, nonzero={self.n_nonzero}, "
            f"s1={self.s1}, s2={self.s2}, topk={self.topk_size})"
        )
