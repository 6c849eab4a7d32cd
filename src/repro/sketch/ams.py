"""AMS (tug-of-war) sketches with median-of-means boosting.

An AMS sketch of a stream ``S`` of integer values is the randomized linear
projection ``X = Σ_i f_i ξ_i`` of the stream's frequency vector, where the
``ξ_i ∈ {−1, +1}`` are four-wise independent (Alon, Matias & Szegedy).
``ξ_q · X`` is then an unbiased estimator of the frequency ``f_q`` with
variance at most the stream's self-join size, and accuracy/confidence are
boosted by averaging ``s1`` independent instances and taking the median of
``s2`` such averages (Section 3 of the paper).

Two classes:

* :class:`AmsSketch` — a single counter; the textbook object, used in unit
  tests and documentation examples.
* :class:`SketchMatrix` — ``s2 × s1`` instances updated in lock-step with
  vectorised numpy arithmetic; this is what SketchTree deploys.  Because a
  linear projection is additive, updates commute, deletions are negative
  updates, and two matrices built with the *same* ξ family can be merged
  by adding counters — the properties the paper's top-k strategy
  (Section 5.2) and virtual streams (Section 5.3) rely on.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from repro.errors import ConfigError
from repro.sketch.xi import XiGenerator

#: Batch size for chunked ξ evaluation; bounds peak memory of an update to
#: one ``(_CHUNK, n_instances)`` int8 row block plus the kernel's tiles.
_CHUNK = 4096


def median_of_means(sums: np.ndarray, s1: int) -> np.ndarray:
    """:meth:`SketchMatrix.boost_sums` of every row of an int64 ``(g, s2)``
    array of group sums at once: a float64 array of ``g`` estimates.

    Each group's mean is its exact int64 sum divided by ``s1``.  When
    every group sum stays below ``2^53`` in magnitude, numpy's division
    and Python's int true division both round the exact quotient
    correctly, and the sort and the middle pick are the same float
    operations, so row ``i`` is bit-identical to ``boost_sums(sums[i])``.
    """
    means = sums / s1
    means.sort(axis=1)
    s2 = means.shape[1]
    middle = s2 >> 1
    if s2 & 1:
        return means[:, middle]
    return (means[:, middle - 1] + means[:, middle]) / 2.0


def boost_rows(per_instance: np.ndarray, s1: int, s2: int) -> np.ndarray:
    """:meth:`SketchMatrix._boost` of every row of an int64 ``(g, s1 · s2)``
    array at once: a float64 array of ``g`` estimates.

    The group sums are exact int64 sums; while they stay below ``2^53``
    in magnitude, row ``i`` is bit-identical to
    ``_boost(per_instance[i])`` (see :func:`median_of_means`).
    """
    sums = per_instance.reshape(len(per_instance), s2, s1).sum(axis=2)
    return median_of_means(sums, s1)


class AmsSketch:
    """A single AMS counter — one randomized linear projection.

    Mostly pedagogical; SketchTree itself uses :class:`SketchMatrix`.
    """

    def __init__(self, independence: int = 4, seed: int = 0):
        self._xi = XiGenerator(1, independence=independence, seed=seed)
        self.counter = 0

    def update(self, value: int, count: int = 1) -> None:
        """Add ``count`` occurrences of ``value`` (negative = delete)."""
        self.counter += count * int(self._xi.xi(value)[0])

    def estimate(self, value: int) -> float:
        """Unbiased estimate of the frequency of ``value``."""
        return float(self._xi.xi(value)[0] * self.counter)


class SketchMatrix:  # sketchlint: single-writer
    """``s2`` groups of ``s1`` AMS instances sharing one value domain.

    Single-writer: counters are mutated by exactly one thread at a time —
    the ingest thread of the owning synopsis, or the constructing thread
    of a fresh merge/refold copy that no other thread can reach yet.
    Readers see racy-but-benign int64 sums (docs/concurrency.md).

    Parameters
    ----------
    s1:
        Instances per group; controls estimation *accuracy* (Theorem 1).
    s2:
        Number of groups; controls estimation *confidence*.
    independence:
        k-wise independence of the ξ families (ignored when ``xi`` given).
    seed:
        Seed for the ξ coefficient draw (ignored when ``xi`` given).
    xi:
        An externally shared :class:`XiGenerator`.  Virtual streams pass
        the same generator to every per-stream matrix so their counters
        can be added together (Section 5.3: "the sketches can share the
        same random seed").
    """

    def __init__(
        self,
        s1: int,
        s2: int,
        independence: int = 4,
        seed: int = 0,
        xi: XiGenerator | None = None,
    ):
        if s1 < 1 or s2 < 1:
            raise ConfigError(f"s1 and s2 must be >= 1, got s1={s1}, s2={s2}")
        self.s1 = s1
        self.s2 = s2
        if xi is None:
            xi = XiGenerator(s1 * s2, independence=independence, seed=seed)
        elif xi.n_instances != s1 * s2:
            raise ConfigError(
                f"shared XiGenerator has {xi.n_instances} instances, "
                f"need s1*s2 = {s1 * s2}"
            )
        self.xi = xi
        self.counters = np.zeros(s1 * s2, dtype=np.int64)

    @classmethod
    def _over(
        cls, counters: np.ndarray, s1: int, s2: int, xi: XiGenerator
    ) -> SketchMatrix:
        """A matrix holding ``counters`` itself, uncopied, with no zeros
        built first: a stream's row of a shared array, a summed read, a
        copy.  The caller vouches that ``xi`` and ``counters`` have
        ``s1 · s2`` instances."""
        matrix = cls.__new__(cls)
        matrix.s1, matrix.s2, matrix.xi, matrix.counters = s1, s2, xi, counters
        return matrix

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update(self, value: int, count: int = 1) -> None:
        """Add ``count`` occurrences of ``value`` to every instance."""
        self.counters += count * self.xi.xi(value)

    def delete(self, value: int, count: int = 1) -> None:
        """Remove ``count`` occurrences — the AMS deletability property."""
        self.update(value, -count)

    def update_batch(
        self, values: np.ndarray, counts: np.ndarray | None = None
    ) -> None:
        """Add a batch of (value, count) pairs in vectorised chunks.

        Equivalent to calling :meth:`update` per pair; the chunking keeps
        peak memory bounded while amortising numpy call overhead, which is
        what makes streaming whole trees cheap.  Every pair updates *this*
        matrix: routing across virtual streams is
        :meth:`~repro.core.virtual.VirtualStreams.update_batch`.

        Memory bound: each chunk materialises one ``(_CHUNK,
        n_instances)`` int8 ξ row block (:meth:`XiGenerator.sign_rows`,
        one byte per cell) beside the kernel's two ``(256,
        n_instances)`` uint64 tiles, and :meth:`apply_rows` adds them
        without an int64 copy: peak extra memory is ``s1 · s2 · (_CHUNK
        + 2 · 256 · 8)`` bytes — ≈ 2.7 MiB at the defaults (``s1=50,
        s2=7, _CHUNK=4096``) — independent of batch length.
        """
        values = np.asarray(values, dtype=np.int64)
        if counts is None:
            counts = np.ones(len(values), dtype=np.int64)
        else:
            counts = np.asarray(counts, dtype=np.int64)
        if len(values) != len(counts):
            raise ConfigError("values and counts must have equal length")
        for start in range(0, len(values), _CHUNK):
            rows = self.xi.sign_rows(values[start : start + _CHUNK])
            self.apply_rows(counts[start : start + _CHUNK], rows)

    def apply_rows(self, counts: np.ndarray, rows: np.ndarray) -> None:
        """Add ``counts @ rows`` to the counters: ``counts[i]``
        occurrences of the value whose int8 ξ row is ``rows[i]``.

        ``np.einsum`` casts the int8 rows to int64 a buffer at a time,
        where a ``@`` of mixed dtypes would first copy the whole block
        to int64; the sum itself is the same exact int64 arithmetic.
        """
        self.counters += np.einsum("i,ij->j", counts, rows)

    def update_counts(self, counts_by_value: dict[int, int]) -> None:
        """Add a whole frequency table at once (order-independent)."""
        if not counts_by_value:
            return
        values = self.xi.to_field(counts_by_value, count=len(counts_by_value))
        counts = np.fromiter(
            counts_by_value.values(), dtype=np.int64, count=len(counts_by_value)
        )
        self.update_batch(values, counts)

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def _boost(self, per_instance: np.ndarray) -> float:
        """Median over ``s2`` groups of the mean over ``s1`` instances.

        Sort-based median: ``s2`` is a handful of groups, and sorting a
        tiny vector avoids :func:`numpy.median`'s per-call overhead on
        the top-k hot path.
        """
        groups = per_instance.reshape(self.s2, self.s1).mean(axis=1)
        groups.sort()
        middle = self.s2 >> 1
        if self.s2 & 1:
            return float(groups[middle])
        return float((groups[middle - 1] + groups[middle]) / 2.0)

    def boost_sums(self, sums: list[int]) -> float:
        """:meth:`_boost` from exact integer group sums ``S_g``.

        ``sums[g]`` is ``Σ_{i∈g} z_i`` over group ``g``'s ``s1``
        instances.  When every partial sum of a group stays below
        ``2^53`` in magnitude, the float64 sum ``_boost`` forms is exact
        whatever its order, so its group mean is ``float(S_g) / s1``
        correctly rounded — which is what Python's int true division
        computes.  The sort and the median are the same float
        operations, so the result is bit-identical to ``_boost`` on the
        per-instance products.  The top-k block path relies on this.
        """
        s1 = self.s1
        means = sorted([total / s1 for total in sums])
        middle = self.s2 >> 1
        if self.s2 & 1:
            return means[middle]
        return (means[middle - 1] + means[middle]) / 2.0

    def estimate(self, value: int, adjust: np.ndarray | None = None) -> float:
        """Boosted estimate of the frequency of ``value``.

        ``adjust`` is an optional per-instance additive correction to the
        counters, used by the top-k strategy to temporarily "add back"
        deleted frequent values at query time (Section 5.2).
        """
        counters = self.counters if adjust is None else self.counters + adjust
        return self._boost(self.xi.xi(value) * counters)

    def estimate_batch(
        self, values: np.ndarray, adjust: np.ndarray | None = None
    ) -> np.ndarray:
        """Boosted estimates for many values at once: float64 array (m,).

        Equivalent to calling :meth:`estimate` per value; used by bulk
        top-k construction and by analyses that rank the whole domain.
        """
        values = np.asarray(values, dtype=np.int64)
        counters = self.counters if adjust is None else self.counters + adjust
        out = np.empty(len(values), dtype=np.float64)
        for start in range(0, len(values), _CHUNK):
            vs = values[start : start + _CHUNK]
            z = self.xi.xi_batch(vs) * counters[:, None]  # (S, chunk)
            grouped = z.reshape(self.s2, self.s1, -1).mean(axis=1)
            out[start : start + len(vs)] = np.median(grouped, axis=0)
        return out

    def estimate_sum(self, values, adjust: np.ndarray | None = None) -> float:
        """Boosted estimate of ``Σ_j f_{values[j]}`` for *distinct* values.

        Implements the Section 3.2 estimator ``X · Σ_j ξ_{q_j}``, whose
        variance bound ``2(t−1)·SJ(S)`` (Theorem 2) beats estimating each
        value separately and summing.
        """
        xi_sum = self.xi.xi_values(values).sum(axis=1)
        counters = self.counters if adjust is None else self.counters + adjust
        return self._boost(xi_sum * counters)

    def estimate_product(self, values, adjust: np.ndarray | None = None) -> float:
        """Boosted estimate of ``Π_j f_{values[j]}`` for *distinct* values.

        Implements the Section 4 estimator ``(X^d / d!) · Π_j ξ_{q_j}``.
        Unbiasedness requires the ξ families to be at least ``2d``-wise
        independent (Appendix C: each surviving expansion term touches up
        to ``2d`` distinct ξ variables); a :class:`~repro.errors.ConfigError`
        is raised when the generator's independence is insufficient.
        """
        values = list(values)
        degree = len(values)
        if self.xi.independence < 2 * degree:
            raise ConfigError(
                f"product of {degree} counts needs >= {2 * degree}-wise "
                f"independent xi, generator has {self.xi.independence}-wise"
            )
        xi_prod = self.xi.xi_values(values).prod(axis=1)
        counters = self.counters if adjust is None else self.counters + adjust
        x_pow = counters.astype(np.float64) ** degree
        return self._boost(x_pow / float(factorial(degree)) * xi_prod)

    def estimate_self_join_size(self, adjust: np.ndarray | None = None) -> float:
        """Boosted estimate of the sketched stream's self-join size.

        This is the estimator AMS sketches were originally built for
        (the second frequency moment ``F2 = Σ f_i²``): ``E[X²] = F2``
        for four-wise independent ξ, boosted by the same median-of-means
        scheme.  SketchTree uses it to report its *own* error bars —
        Theorem 1's bound depends on ``SJ(S)``, which the synopsis can
        thus estimate without any extra state.
        """
        counters = self.counters if adjust is None else self.counters + adjust
        squared = counters.astype(np.float64) ** 2
        return self._boost(squared)

    def boost(self, per_instance: np.ndarray) -> float:
        """Public median-of-means reducer for externally built Z arrays."""
        return self._boost(np.asarray(per_instance, dtype=np.float64))

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def merge(self, other: "SketchMatrix") -> "SketchMatrix":
        """Return a new matrix sketching the union of the two streams.

        Requires both matrices to share the same ξ family (same generator
        object), which is how virtual streams are combined for queries.
        """
        if other.xi is not self.xi:
            raise ConfigError("can only merge sketches sharing one XiGenerator")
        counters = self.counters + other.counters
        return SketchMatrix._over(counters, self.s1, self.s2, self.xi)

    def copy(self) -> "SketchMatrix":
        """Deep copy (counters copied, ξ family shared)."""
        counters = self.counters.copy()
        return SketchMatrix._over(counters, self.s1, self.s2, self.xi)

    @property
    def n_instances(self) -> int:
        return self.s1 * self.s2

    def memory_bytes(self) -> int:
        """Bytes held by the counters (the paper's sketch-memory unit)."""
        return self.counters.nbytes

    def __repr__(self) -> str:
        return f"SketchMatrix(s1={self.s1}, s2={self.s2})"
