"""Pattern → integer encoding: the paper's two-stage mapping.

Stage 1 (Section 2.3): a pattern becomes its extended Prüfer sequences
``LPS`` and ``NPS``, which together identify it uniquely.

Stage 2: the concatenated ``hash(LPS).NPS`` tuple becomes a single
integer, via either

* Rabin fingerprints (Section 6.1; degree-31 residues, the experimental
  configuration) — bounded values, vanishing collision probability; or
* exact Cantor pairing (Section 2.2) — lossless but growing into big
  integers; used for validation and small demos.

Encodings are memoised per distinct pattern in a *bounded* LRU, because
real streams repeat the same patterns millions of times (Table 1: DBLP
has 11.3M *distinct* patterns against vastly more occurrences) but the
distinct-pattern universe itself can outgrow memory on an unbounded
stream.  Eviction only ever costs recomputation — the encoding is a pure
function of the pattern, so the cache policy cannot change any value.

:meth:`PatternEncoder.encode_batch` is the batch pipeline's entry point:
cache hits resolve in one dict probe each, and the distinct misses are
encoded together through the vectorised Rabin fingerprint
(:meth:`~repro.hashing.rabin.RabinFingerprint.of_sequences`) or the
batched pairing fold.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterable, Sequence, cast

from repro.core.config import LABEL_SEED_OFFSET
from repro.errors import ConfigError
from repro.hashing.labels import LabelHasher
from repro.hashing.pairing import pair_sequences
from repro.hashing.rabin import RabinFingerprint
from repro.prufer.sequences import _extended_postorder
from repro.trees.tree import Nested

#: Distinct patterns a PatternEncoder memoises before evicting the least
#: recently used.
PATTERN_CACHE_LIMIT = 1 << 20


class PatternEncoder:  # sketchlint: thread-safe
    """Maps nested-tuple patterns to one-dimensional integer values.

    Deterministic given ``(mapping, degree, seed)``; two encoders built
    with the same parameters agree on every pattern, which is what lets a
    query-time encoder reproduce stream-time values.  The LRU memo holds
    at most :data:`PATTERN_CACHE_LIMIT` patterns; its size never affects
    an encoded value.

    Thread-safe: one mutex serialises the whole probe → encode → insert →
    stats sequence, taken **once per call** — so :meth:`encode_batch`
    pays a single uncontended acquire per batch on the ingest hot path
    (see docs/concurrency.md).  The lock also confines the lazy tables
    inside the owned :class:`RabinFingerprint` / :class:`LabelHasher`.
    """

    def __init__(
        self,
        mapping: str = "rabin",
        degree: int = 31,
        seed: int = 0,
    ):
        if mapping not in ("rabin", "pairing"):
            raise ConfigError(f"unknown mapping {mapping!r}")
        self.mapping = mapping
        if mapping == "rabin":
            # Independent polynomials for the sequence and the labels, both
            # derived from the master seed.
            self._sequence_fp = RabinFingerprint(degree=degree, seed=seed)
            self._labels = LabelHasher("rabin", seed=seed + LABEL_SEED_OFFSET)
        else:
            self._sequence_fp = None
            self._labels = LabelHasher("enumerate")
        self._cache: OrderedDict[Nested, int] = OrderedDict()
        self._lock = threading.Lock()
        #: Lifetime LRU accounting (plain ints, always on — one addition
        #: per encode call; surfaced as pull counters by repro.obs).
        self.cache_hits = 0
        self.cache_misses = 0

    def encode(self, pattern: Nested) -> int:
        """The one-dimensional value of a pattern (LRU-memoised)."""
        with self._lock:
            cache = self._cache
            value = cache.get(pattern)
            if value is None:
                self.cache_misses += 1
                value = self._encode_distinct([pattern])[0]
                self._remember(pattern, value)
            else:
                self.cache_hits += 1
                cache.move_to_end(pattern)
            return value

    def _remember(self, pattern: Nested, value: int) -> None:  # sketchlint: guarded-by=_lock
        cache = self._cache
        cache[pattern] = value
        if len(cache) > PATTERN_CACHE_LIMIT:
            cache.popitem(last=False)

    def _sequence_of(self, pattern: Nested) -> list[int]:
        """The concatenated ``hash(LPS).NPS`` integer sequence.

        Works on the raw postorder ``(labels, parents)`` arrays directly:
        ``NPS[i] = parents[i]`` and ``LPS[i] = labels[parents[i] − 1]``
        for ``i < n − 1`` (see :mod:`repro.prufer.sequences`), so
        materialising a :class:`PruferSequences` per distinct pattern on
        the encode hot path would only add tuple/dataclass churn.
        """
        raw_labels, parents = _extended_postorder(pattern)
        # Parents are always internal (original) nodes, never dummies, so
        # the labels indexed below are real strings — only dummy entries
        # carry None.
        labels = cast("list[str]", raw_labels)
        label_hash = self._labels
        nps = parents[:-1]
        values = [label_hash(labels[p - 1]) for p in nps]
        values.extend(nps)
        return values

    def _encode_distinct(self, patterns: Sequence[Nested]) -> list[int]:
        """Encode patterns assumed distinct and uncached, in order."""
        sequences = [self._sequence_of(pattern) for pattern in patterns]
        if self.mapping == "rabin":
            return [int(v) for v in self._sequence_fp.of_sequences(sequences)]
        return pair_sequences(sequences)

    def encode_batch(self, patterns: Iterable[Nested]) -> list[int]:
        """Encode a whole batch of patterns, preserving order.

        Cache hits cost one dict probe; the distinct misses are encoded
        together through the vectorised fingerprint.  Returns exactly
        the values :meth:`encode` would (tested bit-identical); only the
        LRU's internal recency order may differ, which affects eviction
        choices but never a value.

        The mutex is taken once for the whole batch, so the per-pattern
        cost of thread safety is amortised to nothing on the hot path.
        """
        patterns = patterns if isinstance(patterns, list) else list(patterns)
        # Placeholder zeros are always overwritten: every index is either
        # a cache hit (filled now) or recorded in `misses` (filled below).
        values: list[int] = [0] * len(patterns)
        misses: dict[Nested, list[int]] = {}
        with self._lock:
            cache = self._cache
            for index, pattern in enumerate(patterns):
                value = cache.get(pattern)
                if value is None:
                    misses.setdefault(pattern, []).append(index)
                else:
                    cache.move_to_end(pattern)
                    values[index] = value
            n_missed = 0
            if misses:
                n_missed = sum(len(indices) for indices in misses.values())
                fresh = self._encode_distinct(list(misses))
                for pattern, value in zip(misses, fresh):
                    self._remember(pattern, value)
                    for index in misses[pattern]:
                        values[index] = value
            self.cache_hits += len(patterns) - n_missed
            self.cache_misses += n_missed
        return values

    def lookup_values(self, values: Iterable[int]) -> dict[int, Nested]:
        """Best-effort reverse lookup: encoded value → pattern.

        The encoding is one-way (a fingerprint), so the only names this
        encoder knows are the patterns currently in its LRU memo; the
        returned map covers exactly the requested values found there.
        Callers (the top-k trend surfaces) treat a missing value as "no
        longer nameable", never as an error — eviction costs a label,
        not correctness.  One scan of the memo under the lock, without
        touching recency order (a reverse lookup is not a use of the
        forward mapping and must not perturb eviction choices).
        """
        wanted = set(values)
        if not wanted:
            return {}
        found: dict[int, Nested] = {}
        with self._lock:
            for pattern, value in self._cache.items():
                if value in wanted:
                    found[value] = pattern
                    if len(found) == len(wanted):
                        break
        return found

    def label_numbering(self) -> list[str] | None:
        """The pairing mapping's label numbering, in numbering order
        (``None`` under Rabin, whose label hash is stateless).

        Pairing numbers labels in first-seen order, so the values of a
        synopsis' patterns hold only under the numbering it built;
        snapshots carry it for :meth:`restore_label_numbering`.
        """
        with self._lock:
            if self.mapping == "rabin":
                return None
            return self._labels.numbering()

    def restore_label_numbering(self, labels: list[str]) -> None:
        """Install a :meth:`label_numbering` into a pairing encoder that
        has numbered no label yet (raises :class:`ConfigError` otherwise)."""
        with self._lock:
            if self.mapping == "rabin":
                raise ConfigError("a Rabin encoder has no label numbering")
            self._labels.renumber(labels)

    @property
    def cache_size(self) -> int:
        """Distinct patterns currently memoised (at most
        :data:`PATTERN_CACHE_LIMIT`)."""
        return len(self._cache)

    @property
    def label_cache_size(self) -> int:
        """Distinct labels the label hash currently memoises (bounded by
        :data:`~repro.hashing.labels.RABIN_CACHE_LIMIT` under Rabin)."""
        return self._labels.n_labels_seen

    def __repr__(self) -> str:
        return f"PatternEncoder(mapping={self.mapping!r}, cached={len(self._cache)})"
