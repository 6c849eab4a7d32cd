"""COUNT sketch (Charikar, Chen & Farach-Colton 2002).

The paper cites COUNT sketches as the other off-the-shelf point estimator
its reduction could plug into (Section 2.2), and its virtual-streams idea
is explicitly "similar to using a set of buckets in COUNT SKETCHES".  We
implement it both as a baseline for the ablation benches and to validate
that SketchTree's reduction is estimator-agnostic.

Structure: ``depth`` rows × ``width`` buckets.  Row ``r`` hashes a value
to bucket ``h_r(v)`` (pairwise-independent) and adds ``s_r(v) ∈ {−1, +1}``
(four-wise independent).  The estimate of ``f_v`` is the median over rows
of ``s_r(v) · C[r, h_r(v)]``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.sketch.xi import MERSENNE_31, XiGenerator

_CHUNK = 4096


class CountSketch:
    """A COUNT sketch supporting updates, deletions and point estimates."""

    def __init__(self, width: int, depth: int, seed: int = 0):
        if width < 1 or depth < 1:
            raise ConfigError(f"width and depth must be >= 1, got {width}, {depth}")
        self.width = width
        self.depth = depth
        self.counters = np.zeros((depth, width), dtype=np.int64)
        rng = np.random.default_rng(seed)
        # Pairwise-independent bucket hash per row: (a*v + b) mod p mod width.
        self._bucket_a = rng.integers(1, MERSENNE_31, size=depth, dtype=np.int64)
        self._bucket_b = rng.integers(0, MERSENNE_31, size=depth, dtype=np.int64)
        # Four-wise independent signs per row.
        self._sign = XiGenerator(depth, independence=4, seed=int(rng.integers(2**31)))

    def _buckets(self, values: np.ndarray) -> np.ndarray:
        """Bucket index per (row, value): shape (depth, m)."""
        v = values % MERSENNE_31
        h = (self._bucket_a[:, None] * v[None, :] + self._bucket_b[:, None]) % MERSENNE_31
        return h % self.width

    def update(self, value: int, count: int = 1) -> None:
        """Add ``count`` occurrences of ``value`` (negative = delete)."""
        self.update_batch(np.asarray([int(value) % MERSENNE_31], dtype=np.int64),
                          np.asarray([count], dtype=np.int64))

    def update_batch(self, values: np.ndarray, counts: np.ndarray | None = None) -> None:
        """Vectorised batch update."""
        values = np.asarray(values, dtype=np.int64)
        if counts is None:
            counts = np.ones(len(values), dtype=np.int64)
        else:
            counts = np.asarray(counts, dtype=np.int64)
        rows = np.arange(self.depth)
        for start in range(0, len(values), _CHUNK):
            vs = values[start : start + _CHUNK]
            cs = counts[start : start + _CHUNK]
            buckets = self._buckets(vs)  # (depth, chunk)
            signs = self._sign.sign_rows(vs)  # (chunk, depth) int8
            for r in rows:  # scatter-add per row (buckets may repeat)
                np.add.at(self.counters[r], buckets[r], signs[:, r] * cs)

    def update_counts(self, counts_by_value: dict[int, int]) -> None:
        """Add a whole frequency table at once."""
        if not counts_by_value:
            return
        values = np.fromiter(
            (v % MERSENNE_31 for v in counts_by_value), dtype=np.int64,
            count=len(counts_by_value),
        )
        counts = np.fromiter(
            counts_by_value.values(), dtype=np.int64, count=len(counts_by_value)
        )
        self.update_batch(values, counts)

    def estimate(self, value: int) -> float:
        """Median-over-rows point estimate of the frequency of ``value``.

        ``value`` may be an arbitrary-precision pairing code; it is reduced
        mod p *before* entering the int64 domain, matching ``update_counts``.
        """
        v = np.asarray([int(value) % MERSENNE_31], dtype=np.int64)
        buckets = self._buckets(v)[:, 0]
        signs = self._sign.xi_batch(v)[:, 0]
        rows = np.arange(self.depth)
        return float(np.median(signs * self.counters[rows, buckets]))

    def memory_bytes(self) -> int:
        """Bytes held by the counter table."""
        return self.counters.nbytes

    def __repr__(self) -> str:
        return f"CountSketch(width={self.width}, depth={self.depth})"
