"""Columnar carrier for the encoded ingest pipeline.

The paper's Algorithm 1 is value-at-a-time: each enumerated pattern
becomes one encoded value, routed to one virtual stream, updating one
sketch.  Because the AMS projection is *linear* — counters are exact
int64 sums of ``count × ξ(value)`` terms, and int64 addition is
associative and commutative — any regrouping of the same (value, count)
multiset produces bit-identical counters.  :class:`EncodedBatch`
exploits exactly that freedom: it carries a whole batch of encoded
pattern occurrences as parallel int64 columns so every downstream layer
(virtual-stream routing, ξ evaluation, sketch updates) can run
vectorised, one numpy call per touched stream instead of one Python
dispatch per value.

Columns
-------

``values``
    Field-reduced encoded values (the ξ family's canonical domain, via
    ``xi.to_field``), ready for :meth:`XiGenerator.sign_rows`.
``counts``
    Signed occurrence counts (negative = deletion).
``residues``
    The virtual-stream routing key ``raw_value mod p``, computed from
    the *unreduced* encoded value — routing and field reduction use
    different moduli, so the residue must be taken before narrowing.

``raw`` keeps the original Python-int encoded values alongside the
columns: the top-k tracker (Algorithm 4) keys its frequency map by the
exact encoded value, and pairing-mode values are arbitrary-precision
integers that do not fit any fixed dtype.  ``tree_offsets`` optionally
records per-tree segment boundaries so order-sensitive consumers (top-k
tracking) can walk a multi-tree batch tree by tree.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import ConfigError

__all__ = ["EncodedBatch", "FieldReducer"]


@runtime_checkable
class FieldReducer(Protocol):
    """What a ξ family must expose for batch building: the canonical
    value → field-domain reduction, scalar-iterable and vectorised."""

    def to_field(self, values: Iterable[int], count: int = -1) -> np.ndarray:
        ...  # pragma: no cover - protocol

    def to_field_array(self, values: np.ndarray) -> np.ndarray:
        ...  # pragma: no cover - protocol


class EncodedBatch:
    """A batch of encoded pattern occurrences in columnar form.

    Construct via :meth:`build` (from raw encoded values) rather than
    directly; the constructor trusts its inputs.
    """

    __slots__ = ("values", "counts", "residues", "raw", "tree_offsets")

    def __init__(
        self,
        values: np.ndarray,
        counts: np.ndarray,
        residues: np.ndarray,
        raw: Sequence[int],
        tree_offsets: np.ndarray | None = None,
    ):
        self.values = values
        self.counts = counts
        self.residues = residues
        self.raw = raw
        self.tree_offsets = tree_offsets

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        raw_values: Sequence[int],
        n_streams: int,
        xi: FieldReducer,
        counts: np.ndarray | Sequence[int] | None = None,
        count: int = 1,
        tree_offsets: Sequence[int] | None = None,
    ) -> "EncodedBatch":
        """Build the columns from raw encoded values.

        Parameters
        ----------
        raw_values:
            The encoder's output, as Python ints.  Rabin-mode values are
            bounded (< 2^61) and take a fully vectorised path; pairing
            values may be arbitrary-precision and fall back to exact
            per-value Python arithmetic — in both cases the residue is
            computed from the *unreduced* value, so routing is identical.
        n_streams:
            The virtual-stream prime ``p`` (1 = unpartitioned).
        xi:
            The ξ family whose ``to_field`` / ``to_field_array`` defines
            the canonical value → field reduction for the sketch side.
        counts:
            Per-value signed counts; default is ``count`` for every value.
        count:
            Scalar count used when ``counts`` is omitted.
        tree_offsets:
            Optional cumulative per-tree boundaries (``offsets[t]`` is
            the first row of tree ``t``; length ``n_trees + 1``).
        """
        n = len(raw_values)
        try:
            arr = np.asarray(raw_values, dtype=np.int64)
        except OverflowError:
            # Pairing-mode big integers: reduce exactly in Python first
            # (mod p for routing, to_field for the sketch domain) and only
            # then narrow — never the other way around.
            residues = np.fromiter(
                (v % n_streams for v in raw_values), dtype=np.int64, count=n
            )
            values = xi.to_field(raw_values, count=n)
        else:
            residues = arr % n_streams
            values = xi.to_field_array(arr)
        if counts is None:
            counts = np.full(n, count, dtype=np.int64)
        else:
            counts = np.asarray(counts, dtype=np.int64)
            if len(counts) != n:
                raise ConfigError(
                    f"counts has length {len(counts)}, expected {n}"
                )
        offsets = (
            None
            if tree_offsets is None
            else np.asarray(tree_offsets, dtype=np.int64)
        )
        if offsets is not None and (
            len(offsets) < 1 or offsets[0] != 0 or offsets[-1] != n
        ):
            raise ConfigError(
                f"tree_offsets must run from 0 to {n}, got {offsets!r}"
            )
        return cls(values, counts, residues, raw_values, offsets)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.values)

    @property
    def n_trees(self) -> int:
        """Trees represented (0 when no per-tree boundaries were kept)."""
        if self.tree_offsets is None:
            return 0
        return len(self.tree_offsets) - 1

    def total_count(self) -> int:
        """Signed sum of the count column (the ``n_values`` delta)."""
        return int(self.counts.sum())

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def segment(self, start: int, stop: int) -> "EncodedBatch":
        """A zero-copy row-range view (numpy slices share memory)."""
        return EncodedBatch(
            self.values[start:stop],
            self.counts[start:stop],
            self.residues[start:stop],
            self.raw[start:stop],
            None,
        )

    def tree_segments(self) -> Iterator[tuple[int, int]]:
        """Per-tree ``(start, stop)`` row ranges, in arrival order."""
        if self.tree_offsets is None:
            raise ConfigError("batch was built without tree_offsets")
        offsets = self.tree_offsets
        for t in range(len(offsets) - 1):
            yield int(offsets[t]), int(offsets[t + 1])

    def tree_windows(self, rows: int) -> Iterator[list[tuple[int, int]]]:
        """:meth:`tree_segments` grouped into consecutive windows.

        Each window spans at most ``rows`` rows, except that a tree
        longer than ``rows`` forms a window of its own.
        """
        window: list[tuple[int, int]] = []
        for start, stop in self.tree_segments():
            if window and stop - window[0][0] > rows:
                yield window
                window = []
            window.append((start, stop))
        if window:
            yield window

    def iter_residue_groups(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(residue, row_indices)`` for each touched stream.

        One stable argsort over the residue column replaces the
        per-value dict routing of the legacy path; ``row_indices`` keeps
        each group's rows in arrival order, so order-sensitive consumers
        (top-k bulk emulation) see the same sequence the per-value loop
        produced.  Counter updates are order-independent regardless
        (exact int64 sums).
        """
        n = len(self.residues)
        if n == 0:
            return
        order = np.argsort(self.residues, kind="stable")
        sorted_residues = self.residues[order]
        boundaries = np.flatnonzero(sorted_residues[1:] != sorted_residues[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [n]))
        for start, stop in zip(starts, stops):
            yield int(sorted_residues[start]), order[start:stop]

    def __repr__(self) -> str:
        return (
            f"EncodedBatch(n={len(self)}, trees={self.n_trees or '?'}, "
            f"streams={len(np.unique(self.residues)) if len(self) else 0})"
        )
