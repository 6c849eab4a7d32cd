"""Tracking top-k frequent tree patterns (paper Algorithm 4).

Theorems 1 and 2 tie SketchTree's accuracy to the stream's self-join size
``SJ(S) = Σ f_i²``, which a few very frequent patterns dominate under
skew.  The strategy: estimate each incoming value's frequency from the
sketches; keep the ``k`` largest estimates in a min-heap ``H`` with their
values in a map ``L``; and *delete* a tracked value's estimated
occurrences from the sketches (AMS deletion = subtract ``f·ξ``), so the
sketched residual stream has a much smaller self-join size.

The **delete condition** invariant: at all times, if value ``v`` is
tracked with stored frequency ``f_v``, then exactly ``f_v`` occurrences
of ``v`` have been deleted from the sketches.  Every transition below
re-establishes it:

* re-arrival of a tracked value → add its ``f_v`` back, untrack,
  re-estimate, possibly re-track with the fresh estimate;
* eviction (heap full, newcomer larger) → add the evictee's ``f_r`` back;
* insertion → delete ``est`` occurrences and store exactly ``est``.

At query time the deleted occurrences of *queried* values must be
compensated: :meth:`adjustment` returns the per-instance vector
``d = Σ_{q ∈ L ∩ query} ξ_q · f_q`` which the estimator adds to the
counters (the paper's modification of Algorithm 2).

The fold/unfold protocol
------------------------

Tracking *folds* frequent mass out of the counters; the inverse,
:meth:`TopKTracker.unfold`, adds every tracked ``f_v · ξ(v)`` back.
Because AMS counters are exact int64 sums and the delete condition
guarantees exactly ``f_v`` occurrences of ``v`` were subtracted,
unfolding restores counters **bit-identical** to a ``topk_size=0`` run
of the same stream — pure linearity again.  On linear counters every
composition the paper proves for plain sketches works: summing across
shards, summing across window buckets, differencing landmarks.  The
module-level :func:`refold` then rebuilds a tracker over any candidate
value set via :meth:`TopKTracker.bulk_build`, re-deleting the (now
combined) heavy mass and re-establishing the delete condition.  This is
what makes top-k state *mergeable*: unfold each operand, sum the linear
counters, refold over the union of previously tracked values.
"""

from __future__ import annotations

import heapq
import threading
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.sketch.ams import SketchMatrix

#: Group sums are taken as exact while ``s1 · max|C|`` stays below this:
#: every partial float64 sum of a group is then an integer below 2^53.
EXACT_SUM_LIMIT = 1 << 52

#: :meth:`TopKTracker.bulk_build` replays Algorithm 4 on this many
#: candidates per tracked slot, largest estimates first.
BULK_CANDIDATE_FACTOR = 2


def _group_sums(
    signs: np.ndarray, counters: np.ndarray, s2: int, s1: int
) -> np.ndarray:
    """``S_g = Σ_{i∈g} ξ_i·C_i`` per row of ``signs``: int64, exact."""
    products = signs * counters
    return products.reshape(*products.shape[:-1], s2, s1).sum(axis=-1)


def fold_vector(sketch: SketchMatrix, state: Mapping[int, int]) -> np.ndarray:
    """The per-instance counter mass a tracked state has deleted.

    ``Σ_{v ∈ state} ξ(v) · f_v`` over ``sketch``'s ξ family — exactly
    what Algorithm 4's deletions subtracted (delete condition), so
    *adding* it to counters undoes the fold.  Exact int64 arithmetic:
    callers on the bit-identity path (merge, unfold) rely on that.
    """
    signs = sketch.xi.xi_values(list(state))
    freqs = np.asarray(list(state.values()), dtype=np.int64)
    return signs @ freqs


class TopKTracker:  # sketchlint: thread-safe
    """Top-k frequent-value tracking bound to one sketch matrix.

    Parameters
    ----------
    size:
        ``k``: number of frequent values tracked.
    sketch:
        The :class:`SketchMatrix` this tracker deletes from / adds back
        to.  With virtual streams there is one tracker per stream
        (Section 5.3's combination note).
    lock:
        The mutex to serialise on; by default the tracker's own.
        :class:`~repro.core.virtual.VirtualStreams` passes one lock to
        all of a stream table's trackers, so it can decide many streams'
        arrivals under a single acquisition.

    Thread-safe: one mutex serialises Algorithm 4's transitions with the
    query-time :meth:`adjustment` and the :meth:`snapshot` /
    :meth:`restore` pair, so the delete-condition invariant (tracked
    frequency ⇔ deleted occurrences) is never observed half-applied.
    """

    def __init__(
        self, size: int, sketch: SketchMatrix, lock: threading.Lock | None = None
    ):
        if size < 1:
            raise ConfigError(f"top-k size must be >= 1, got {size}")
        self.size = size
        self.sketch = sketch
        self._freq: dict[int, int] = {}  # the paper's L and H values
        self._heap: list[tuple[int, int]] = []  # (freq, value); lazy deletion
        self._lock = threading.Lock() if lock is None else lock
        #: Lifetime churn accounting (plain ints, always on — surfaced as
        #: pull counters by repro.obs; not part of snapshot state).
        self.n_evictions = 0
        self.n_rearrivals = 0

    # ------------------------------------------------------------------
    # Streaming (Algorithm 4)
    # ------------------------------------------------------------------
    def process(self, value: int) -> None:
        """One invocation of Algorithm 4 for an arriving value.

        ξ(value) is evaluated once and reused for the add-back, the
        estimate, and the deletion — the hot path of bulk construction.
        """
        with self._lock:
            self._process(value)

    def _process(self, value: int) -> None:  # sketchlint: guarded-by=_lock
        sketch = self.sketch
        signs = sketch.xi.xi(value)
        tracked = self._freq.get(value, 0)
        if tracked:
            sketch.counters += tracked * signs  # add back (lines 1-7)
        estimate = int(round(sketch.boost(signs * sketch.counters)))
        deleted, evicted = self._decide(value, tracked, estimate)
        if evicted is not None:
            sketch.update(*evicted)
        if deleted:
            sketch.counters -= deleted * signs

    def _stored(self, value: int) -> int:  # sketchlint: guarded-by=_lock
        """``value``'s tracked frequency, 0 when it is not tracked."""
        return self._freq.get(value, 0)

    def _decide(  # sketchlint: guarded-by=_lock
        self, value: int, tracked: int, estimate: int
    ) -> tuple[int, tuple[int, int] | None]:
        """Algorithm 4's transition for an arrival whose estimate is known.

        The one decision every path takes (lines 8-18).  ``tracked`` is
        the arrival's stored frequency (:meth:`_stored`), already added
        back into ``estimate``.  Updates the map, the heap and the churn
        counts; returns the occurrences of ``value`` deleted from now
        on — ``estimate`` if it is tracked afterwards, else 0 — and the
        ``(value, frequency)`` it evicted, if any.  The caller owns the
        counter side: change the counters by
        ``(tracked - deleted)·ξ(value)`` and add the evictee's frequency
        back.

        A re-arrival is untracked first, which leaves at most ``k - 1``
        entries, so it never evicts.
        """
        if tracked:
            del self._freq[value]
            self.n_rearrivals += 1
        if estimate <= 0:
            return 0, None
        self._prune()
        evicted = None
        if len(self._freq) >= self.size:
            root_freq, root_value = self._heap[0]
            if estimate <= root_freq:
                return 0, None
            # Evict the least frequent tracked value (lines 10-13).
            self.n_evictions += 1
            heapq.heappop(self._heap)
            del self._freq[root_value]
            evicted = (root_value, root_freq)
            self._prune()
        # Track the arrival (lines 14-18).
        self._freq[value] = estimate
        heapq.heappush(self._heap, (estimate, value))
        return estimate, evicted

    def _process_block(  # sketchlint: guarded-by=_lock
        self,
        values: Sequence[int],
        signs: np.ndarray,
        sums: list[list[int]],
        bound: int,
    ) -> None:
        """Algorithm 4 for a run of arrivals, the caller holding the lock.

        Bit-identical to calling :meth:`process` on ``values`` in order —
        same decisions, same churn counts, same final counters — without
        evaluating ξ once per value.  With ``m`` arrivals:

        * ``signs[j]`` is ``ξ(values[j])`` as an int8 ±1 row;
        * ``sums[j][g]`` is the exact group sum
          ``S_g = Σ_{i∈g} ξ_i(values[j])·C[i]`` against the counters as
          they stand on entry;
        * ``bound >= max|C|`` on entry.

        Each arrival's estimate is :meth:`SketchMatrix.boost_sums` of its
        group sums.  They come from ``sums`` until the block first
        changes the counters (an add-back, an insertion or an eviction);
        from then on every later arrival computes its own from the
        counters, still in exact integers.  ``bound`` grows with every
        change; once ``s1 · bound`` could reach :data:`EXACT_SUM_LIMIT`
        the rest of the block runs through :meth:`process`'s per-value
        path, the only one whose float sums are then authoritative.
        """
        sketch = self.sketch
        s1, s2 = sketch.s1, sketch.s2
        limit = EXACT_SUM_LIMIT // s1
        live = False  # the counters have moved since ``sums`` was taken
        for j, value in enumerate(values):
            tracked = self._freq.get(value, 0)
            if bound + tracked >= limit:
                for rest in values[j:]:
                    self._process(rest)
                return
            if live:
                row = _group_sums(signs[j], sketch.counters, s2, s1).tolist()
            else:
                row = sums[j]
            if tracked:
                # Re-arrival: add the tracked frequency back (ξ_i² = 1).
                row = [total + tracked * s1 for total in row]
            estimate = round(sketch.boost_sums(row))
            deleted, evicted = self._decide(value, tracked, estimate)
            change = tracked - deleted
            bound += tracked + deleted
            if change:
                sketch.counters += np.multiply(signs[j], change, dtype=np.int64)
                live = True
            if evicted is not None:
                # Only an insertion evicts, and it has set ``live``.
                sketch.update(*evicted)
                bound += evicted[1]

    def bulk_build(self, values: list[int]) -> None:
        """Emulate the end-of-stream tracker state over distinct values.

        Estimates every value's frequency in one vectorised pass, then
        replays Algorithm 4 on the top :data:`BULK_CANDIDATE_FACTOR` ×
        ``size`` candidates in descending estimated order.  By the end of
        a real stream, the tracker holds the values with the largest
        estimated frequencies — exactly what this produces — without
        paying the per-occurrence cost; the experiment sweeps rely on it.
        """
        if not values:
            return
        arr = self.sketch.xi.to_field(values, count=len(values))
        with self._lock:
            estimates = self.sketch.estimate_batch(arr)
            order = np.argsort(-estimates)
            limit = min(len(values), BULK_CANDIDATE_FACTOR * self.size)
            for index in order[:limit]:
                if estimates[index] <= 0:
                    break
                self._process(values[int(index)])

    def _prune(self) -> None:  # sketchlint: guarded-by=_lock
        """Drop heap entries invalidated by untracking / re-insertion."""
        heap = self._heap
        while heap and self._freq.get(heap[0][1]) != heap[0][0]:
            heapq.heappop(heap)

    # ------------------------------------------------------------------
    # Query-time compensation
    # ------------------------------------------------------------------
    def adjustment(self, query_values: Iterable[int]) -> np.ndarray | None:
        """Per-instance vector ``d = Σ ξ_q f_q`` over tracked query values.

        ``None`` when no queried value is tracked (the common case) so
        callers can skip the add.
        """
        with self._lock:
            relevant = [(q, self._freq[q]) for q in dict.fromkeys(query_values)
                        if q in self._freq]
            if not relevant:
                return None
            signs = self.sketch.xi.xi_values([q for q, _ in relevant])
            freqs = np.asarray([f for _, f in relevant], dtype=np.int64)
            return signs @ freqs

    # ------------------------------------------------------------------
    # Fold/unfold protocol (see the module docstring)
    # ------------------------------------------------------------------
    def unfold(self) -> dict[int, int]:
        """Add every tracked frequency back and clear the tracker.

        The inverse of the fold Algorithm 4 performs: afterwards the
        bound sketch holds the **pure linear counters** of the stream it
        saw — bit-identical to a ``topk_size=0`` run (the delete
        condition guarantees exactly the returned frequencies were
        deleted, and int64 addition is exact).  Returns the tracked
        value → frequency map that was folded, which callers typically
        feed to :func:`refold` (possibly unioned with other unfolds)
        after combining counters.
        """
        with self._lock:
            state = self._freq
            self._freq = {}
            self._heap = []
            if state:
                self.sketch.counters += fold_vector(self.sketch, state)
            return state

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[int, int]:
        """The tracker's complete serialisable state.

        A plain value → deleted-frequency map; together with the bound
        sketch's counters (from which exactly these frequencies have been
        deleted) it captures everything :meth:`restore` needs.
        """
        with self._lock:
            return dict(self._freq)

    def restore(self, state: Mapping[int, int]) -> None:
        """Install state captured by :meth:`snapshot`, replacing any
        current state.

        Re-establishes the delete-condition invariant on the tracker's
        side: the heap is rebuilt to agree exactly with the frequency
        map, so every future eviction adds back precisely the stored
        frequency.  The *counter* side of the invariant is the caller's
        contract — the bound sketch must hold counters from which these
        frequencies were already deleted (i.e. restored from the same
        snapshot as ``state``).

        Raises :class:`~repro.errors.ConfigError` for states this tracker
        cannot have produced (non-positive frequencies, more entries than
        ``size``).
        """
        freq: dict[int, int] = {}
        for value, count in state.items():
            value, count = int(value), int(count)
            if count <= 0:
                raise ConfigError(
                    f"tracked frequency must be positive, got {count} for "
                    f"value {value}"
                )
            freq[value] = count
        if len(freq) > self.size:
            raise ConfigError(
                f"state tracks {len(freq)} values, tracker size is {self.size}"
            )
        heap = [(count, value) for value, count in freq.items()]
        heapq.heapify(heap)
        with self._lock:
            self._freq = freq
            self._heap = heap

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tracked(self) -> dict[int, int]:
        """Copy of the tracked value → deleted-frequency map."""
        with self._lock:
            return dict(self._freq)

    @property
    def n_tracked(self) -> int:
        with self._lock:
            return len(self._freq)

    def deleted_self_join_mass(self) -> int:
        """``Σ f_v²`` over tracked values — the self-join mass removed."""
        with self._lock:
            return sum(f * f for f in self._freq.values())

    def memory_bytes(self) -> int:
        """Paper-style accounting: 16 bytes per tracked slot (value +
        frequency), for ``size`` slots."""
        return self.size * 16

    def __repr__(self) -> str:
        return f"TopKTracker(size={self.size}, tracked={self.n_tracked})"


def refold(
    sketch: SketchMatrix,
    candidates: Iterable[int],
    size: int,
    lock: threading.Lock | None = None,
) -> TopKTracker:
    """Build a fresh tracker over *linear* counters from candidate values.

    The second half of the fold/unfold protocol: given a sketch whose
    counters are pure sums (every contributing tracker unfolded), replay
    :meth:`TopKTracker.bulk_build` over the union of candidate values —
    typically the values the unfolded trackers had been tracking, which
    by construction include every heavy hitter either operand knew
    about.  The returned tracker has re-deleted the top estimates, so
    the delete-condition invariant holds on the combined stream exactly
    as it would had one tracker watched it end to end.  ``lock`` is the
    new tracker's mutex (see :class:`TopKTracker`).
    """
    tracker = TopKTracker(size, sketch, lock)
    distinct = [int(value) for value in dict.fromkeys(candidates)]
    tracker.bulk_build(distinct)
    return tracker
