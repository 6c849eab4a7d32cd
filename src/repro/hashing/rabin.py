"""Rabin fingerprints: bounded-size mappings for long sequences.

Section 6.1 of the paper: when the pairing-function value of a long
(LPS, NPS) tuple no longer fits a machine word, SketchTree instead treats
the concatenated sequence as a bit string — the coefficient vector of a
polynomial over GF(2) — and takes its residue modulo a random irreducible
polynomial ``p_irr`` of degree 31.  The residue fits a 32-bit word and two
distinct sequences collide with probability at most roughly
``len_bits / 2^degree`` (Broder 1993).

:class:`RabinFingerprint` implements this with a byte-fed, table-driven
reduction (the classic CRC trick), plus helpers for integer sequences and
label strings.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from repro.errors import HashingError
from repro.hashing.gf2 import gf2_degree, gf2_mod, is_irreducible, random_irreducible

#: Default degree used in all the paper's experiments.
DEFAULT_DEGREE = 31


@lru_cache(maxsize=256)
def _byte_table(poly: int) -> tuple[int, ...]:
    """:class:`RabinFingerprint`'s byte table, a pure function of the
    polynomial memoised per process: every synopsis builds two."""
    degree = gf2_degree(poly)
    return tuple(gf2_mod(t << degree, poly) for t in range(256))


class RabinFingerprint:  # sketchlint: thread-confined
    """Fingerprints of byte strings / integer sequences modulo ``p_irr``.

    Thread-confined: the lazily grown position tables are serialised by
    the owning :class:`~repro.core.encoding.PatternEncoder`'s lock; a
    fingerprint is never shared across encoders.

    Parameters
    ----------
    poly:
        An irreducible polynomial over GF(2), encoded as an int with its
        top bit at position ``degree``.  When omitted, a random irreducible
        polynomial of ``degree`` is drawn from ``seed``.
    degree:
        Degree of the modulus when ``poly`` is omitted (default 31, as in
        the paper).
    seed:
        Seed for the random polynomial draw; fingerprints are fully
        deterministic given ``(poly)`` or ``(degree, seed)``.  ``None``
        falls back to :data:`repro.core.config.DEFAULT_SEED` — there is
        deliberately no irreproducible path.
    rng:
        Alternatively, an already-seeded :class:`numpy.random.Generator`
        to draw the polynomial from (takes precedence over ``seed``).
    """

    def __init__(
        self,
        poly: int | None = None,
        degree: int = DEFAULT_DEGREE,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
    ):
        if poly is None:
            poly = random_irreducible(degree, rng if rng is not None else seed)
        elif not is_irreducible(poly):
            raise HashingError(f"polynomial {poly:#x} is not irreducible")
        self.poly = poly
        self.degree = gf2_degree(poly)
        if self.degree < 8:
            raise HashingError("fingerprint degree must be at least 8")
        self._mask = (1 << self.degree) - 1
        # table[t] = (t << degree) mod poly, for the byte-at-a-time feed:
        # state' = ((state << 8) | byte) mod poly
        #        = ((state & mask_low) << 8 | byte) XOR table[state >> (degree-8)]
        self._table = _byte_table(poly)
        # Lazily grown (n_shifts, 256) table for the vectorised batch
        # path: _pos_tables[s][b] = (b << 8s) mod poly.
        self._pos_tables: np.ndarray | None = None

    # -- core feeds ------------------------------------------------------
    def feed_byte(self, state: int, byte: int) -> int:
        """Advance the fingerprint state by one byte."""
        top = state >> (self.degree - 8)
        return (((state << 8) | byte) & self._mask) ^ self._table[top]

    def of_bytes(self, data: bytes, state: int = 0) -> int:
        """Fingerprint of a byte string (optionally continuing ``state``)."""
        feed = self.feed_byte
        for byte in data:
            state = feed(state, byte)
        return state

    def of_ints(self, values: Iterable[int], state: int = 0) -> int:
        """Fingerprint of a sequence of integers in ``[0, 2^32)``.

        Each value is fed as 4 big-endian bytes, so the mapping is
        prefix-free per element; callers concerned about whole-sequence
        extension attacks should use :meth:`of_sequence`, which prefixes
        the length.
        """
        feed = self.feed_byte
        for value in values:
            if not 0 <= value < (1 << 32):
                raise HashingError(f"sequence element {value} outside [0, 2^32)")
            state = feed(state, (value >> 24) & 0xFF)
            state = feed(state, (value >> 16) & 0xFF)
            state = feed(state, (value >> 8) & 0xFF)
            state = feed(state, value & 0xFF)
        return state

    def of_sequence(self, values: Sequence[int]) -> int:
        """Length-prefixed fingerprint of an integer sequence.

        This is the mapping SketchTree applies to the concatenated
        ``LPS.NPS`` encoding: the sequence length is fed first so that a
        sequence and any proper extension of it cannot share a state by
        construction alone.
        """
        state = self.of_ints((len(values),))
        return self.of_ints(values, state)

    # -- vectorised batch feed -------------------------------------------
    def _position_tables(self, n_shifts: int) -> np.ndarray:
        """``(n_shifts, 256)`` int64 table with ``T[s][b] = (b << 8s) mod p``.

        Grown on demand and cached; row ``s`` is derived from row
        ``s − 1`` by feeding one zero byte (``(v << 8) mod p``), so each
        new level costs 256 table-driven reductions.
        """
        tables = self._pos_tables
        have = 0 if tables is None else tables.shape[0]
        if have >= n_shifts:
            return tables
        grown = np.empty((n_shifts, 256), dtype=np.int64)
        if have:
            grown[:have] = tables
        else:
            # degree >= 8, so every byte is already reduced.
            grown[0] = np.arange(256, dtype=np.int64)
            have = 1
        feed = self.feed_byte
        for s in range(have, n_shifts):
            previous = grown[s - 1]
            grown[s] = [feed(int(v), 0) for v in previous]
        self._pos_tables = grown
        return grown

    def of_sequences(self, sequences: Sequence[Sequence[int]]) -> np.ndarray:
        """Length-prefixed fingerprints of many integer sequences at once.

        The vectorised counterpart of :meth:`of_sequence`: bit-identical
        results (tested), one int64 array out.  Rabin fingerprints are
        GF(2)-linear in the message, so the fingerprint of an ``L``-byte
        message is the XOR of per-byte contributions
        ``(byte_j << 8(L−1−j)) mod p``; sequences are grouped by length
        and each group resolved with ``L`` table gathers instead of
        ``4L`` Python-level byte feeds per sequence.
        """
        out = np.zeros(len(sequences), dtype=np.int64)
        if not len(sequences):
            return out
        by_length: dict[int, list[int]] = {}
        for index, seq in enumerate(sequences):
            by_length.setdefault(len(seq), []).append(index)
        for length, indices in by_length.items():
            rows = np.empty((len(indices), length + 1), dtype=np.int64)
            rows[:, 0] = length  # the of_sequence length prefix
            try:
                for r, index in enumerate(indices):
                    rows[r, 1:] = sequences[index]
            except OverflowError as exc:
                raise HashingError(
                    f"sequence element outside [0, 2^32): {exc}"
                ) from exc
            if rows.size and (rows.min() < 0 or rows.max() >= (1 << 32)):
                bad = rows[(rows < 0) | (rows >= (1 << 32))][0]
                raise HashingError(
                    f"sequence element {int(bad)} outside [0, 2^32)"
                )
            data = rows.astype(">u4").view(np.uint8)  # (m, 4·(length+1))
            n_bytes = data.shape[1]
            tables = self._position_tables(n_bytes)
            acc = np.zeros(len(indices), dtype=np.int64)
            for j in range(n_bytes):
                acc ^= tables[n_bytes - 1 - j][data[:, j]]
            out[np.asarray(indices)] = acc
        return out

    def of_str(self, text: str) -> int:
        """Fingerprint of a UTF-8 encoded string (used for node labels)."""
        return self.of_bytes(text.encode("utf-8"))

    def __repr__(self) -> str:
        return f"RabinFingerprint(degree={self.degree}, poly={self.poly:#x})"
