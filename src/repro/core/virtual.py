"""Virtual streams: partitioning the value stream to shrink self-join size.

Section 5.3: the one-dimensional stream ``S`` is split into ``p`` (prime)
disjoint virtual streams by residue ``t mod p``, each sketched separately
— like COUNT-sketch buckets.  Every per-stream sketch shares one ξ family
("the sketches can share the same random seed"), so the sketch of a union
of streams is simply the sum of their counters; that is how queries whose
values land in different streams (sums, products, unordered counts) are
served.

When top-k tracking is enabled there is one tracker per virtual stream,
as the paper prescribes for the combined strategy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.core.topk import TopKTracker, refold
from repro.core.view import CounterReads

if TYPE_CHECKING:
    from repro.core.batch import EncodedBatch
from repro.errors import ConfigError
from repro.sketch.ams import _CHUNK, SketchMatrix
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
    """``p`` lazily-allocated per-residue sketch matrices + top-k trackers.

    Single-writer: the owning shard's ingest thread performs all
    allocation and counter mutation; query threads only combine already
    allocated counters (see docs/concurrency.md) through the
    :class:`~repro.core.view.CounterReads` methods, which this class
    shares with summed views.  :meth:`tracker` is deliberately
    non-allocating so the query path never mutates the stream table.

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
        self._sketches: dict[int, SketchMatrix] = {}
        self._trackers: dict[int, TopKTracker] = {}

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def residue(self, value: int) -> int:
        """Which virtual stream ``value`` belongs to."""
        return value % self.n_streams

    def sketch(self, residue: int) -> SketchMatrix:
        """The sketch of stream ``residue``, allocating it on first use."""
        matrix = self._sketches.get(residue)
        if matrix is None:
            matrix = SketchMatrix(self.s1, self.s2, xi=self.xi)
            self._sketches[residue] = matrix
            if self.topk_size:
                self._trackers[residue] = TopKTracker(self.topk_size, matrix)
        return matrix

    def sketch_if_allocated(self, residue: int) -> SketchMatrix | None:
        return self._sketches.get(residue)

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
        row: streams never share counters, so each stream's arrivals run
        as one :meth:`~repro.core.topk.TopKTracker.process_block` in
        their own order.  The group sums every block starts from are one
        vectorised product of the rows with their own stream's counters;
        ``max|C|`` over those counters is each block's starting bound
        (past :data:`~repro.core.topk.EXACT_SUM_LIMIT` the blocks fall
        back to the per-value path).
        """
        m = len(raw)
        if m == 0:
            return
        order = np.argsort(residues, kind="stable")
        ordered = residues[order]
        edges = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
        starts = [0, *edges.tolist()]
        stops = [*edges.tolist(), m]
        trackers = [self._trackers[int(ordered[start])] for start in starts]
        counters = np.stack([tracker.sketch.counters for tracker in trackers])
        bound = max(int(counters.max()), -int(counters.min()))
        signs = signs[order]
        sizes = [stop - start for start, stop in zip(starts, stops)]
        sums = counters.repeat(sizes, axis=0)
        sums *= signs
        sums = sums.reshape(m, self.s2, self.s1).sum(axis=2).tolist()
        values = raw[order].tolist()
        for tracker, lo, hi in zip(trackers, starts, stops):
            tracker.process_block(values[lo:hi], signs[lo:hi], sums[lo:hi], bound)

    def set_counters(self, residue: int, counters: np.ndarray) -> None:
        """Install counters for stream ``residue`` (snapshot restore path).

        Allocates the stream if needed and validates residue range, shape
        and dtype, so a malformed snapshot cannot plant a matrix whose
        estimates silently broadcast or truncate.
        """
        if not 0 <= residue < self.n_streams:
            raise ConfigError(
                f"residue {residue} outside [0, {self.n_streams})"
            )
        counters = np.asarray(counters)
        if counters.shape != (self.s1 * self.s2,):
            raise ConfigError(
                f"counters for stream {residue} have shape {counters.shape}, "
                f"expected ({self.s1 * self.s2},)"
            )
        self.sketch(residue).counters = counters.astype(np.int64).copy()

    def tracker(self, residue: int) -> TopKTracker | None:
        """The stream's top-k tracker, or ``None`` when disabled/unused.

        Non-allocating: an unallocated stream has tracked nothing, so
        queries get ``None`` (no compensation) without mutating the
        stream table — ingest allocates via :meth:`sketch` first.
        """
        if not self.topk_size:
            return None
        return self._trackers.get(residue)

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
        tracker = refold(self.sketch(residue), candidates, self.topk_size)
        self._trackers[residue] = tracker
        return tracker

    def adjustment(self, residue: int, values: list[int]) -> np.ndarray | None:
        tracker = self._trackers.get(residue)
        return tracker.adjustment(values) if tracker is not None else None

    #: The union-of-streams sketch, under the name query pipelines call.
    view = CounterReads.combined

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_allocated(self) -> int:
        """Streams that have received at least one value."""
        return len(self._sketches)

    def iter_sketches(self):
        """Yield ``(residue, SketchMatrix)`` for allocated streams."""
        return iter(self._sketches.items())

    def iter_trackers(self):
        """Yield ``(residue, TopKTracker)`` for allocated trackers."""
        return iter(self._trackers.items())

    def __repr__(self) -> str:
        return (
            f"VirtualStreams(p={self.n_streams}, allocated={len(self._sketches)}, "
            f"s1={self.s1}, s2={self.s2}, topk={self.topk_size})"
        )
