"""Online node-label → integer mapping.

Section 2.2 assumes ``hash(X)`` returns a unique number per label;
Section 6.1 lifts the assumption by fingerprinting the label's bit string
with the same irreducible-polynomial machinery.  Two modes are provided:

* ``"rabin"`` (default) — stateless Rabin fingerprint of the UTF-8 bytes.
  Collisions are possible but their probability is tiny for degree 31 and
  realistic label lengths; this is the paper's experimental configuration.
* ``"enumerate"`` — assign consecutive integers on first sight.  Exactly
  collision-free (matching the Section 2.2 assumption) but stateful; used
  with the exact pairing-function pipeline in tests.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.hashing.rabin import RabinFingerprint

_MODES = ("rabin", "enumerate")

#: Rabin-mode labels memoised before the cache is cleared.  The hash is
#: stateless, so a flush costs recomputation, never a value, and an
#: unbounded label alphabet cannot grow the cache without bound.
RABIN_CACHE_LIMIT = 1 << 16


class LabelHasher:  # sketchlint: thread-confined
    """Maps label strings to non-negative integers, deterministically.

    Thread-confined: the enumeration cache mutates only under the owning
    encoder's critical section (see docs/concurrency.md).

    Parameters
    ----------
    mode:
        ``"rabin"`` or ``"enumerate"`` (see module docstring).
    fingerprint:
        The :class:`RabinFingerprint` to use in ``"rabin"`` mode.  When
        omitted one is constructed from ``seed``.
    seed:
        Seed for the fingerprint polynomial draw.
    """

    def __init__(
        self,
        mode: str = "rabin",
        fingerprint: RabinFingerprint | None = None,
        seed: int | None = 0,
    ):
        if mode not in _MODES:
            raise ConfigError(f"unknown label hashing mode {mode!r}; expected {_MODES}")
        self.mode = mode
        if mode == "rabin":
            self._fingerprint = fingerprint or RabinFingerprint(seed=seed)
        else:
            self._fingerprint = None
        self._cache: dict[str, int] = {}

    def __call__(self, label: str) -> int:
        """Integer for ``label`` (stable for the hasher's lifetime).

        Enumerate mode keeps every label: its numbering is state.  Rabin
        mode memoises at most :data:`RABIN_CACHE_LIMIT` labels, clearing
        the cache when a new label would pass the bound, as
        :class:`~repro.enumtree.enumerate.PatternTableMemo` flushes its
        table.
        """
        value = self._cache.get(label)
        if value is None:
            if self.mode == "rabin":
                value = self._fingerprint.of_str(label)
                if len(self._cache) >= RABIN_CACHE_LIMIT:
                    self._cache.clear()
            else:
                value = len(self._cache)
            self._cache[label] = value
        return value

    def numbering(self) -> list[str]:
        """``"enumerate"`` mode's labels in the order they were numbered
        (label ``i`` of the list maps to ``i``)."""
        if self.mode != "enumerate":
            raise ConfigError("only enumerate-mode labels carry a numbering")
        return list(self._cache)

    def renumber(self, labels: list[str]) -> None:
        """Restore a :meth:`numbering` into a hasher that has numbered
        nothing yet, so it maps every label as the one that wrote it."""
        if self.mode != "enumerate":
            raise ConfigError("only enumerate-mode labels carry a numbering")
        if self._cache:
            raise ConfigError("cannot renumber a hasher that has numbered labels")
        if not all(isinstance(label, str) for label in labels):
            raise ConfigError("a label numbering must list strings")
        numbering = {label: index for index, label in enumerate(labels)}
        if len(numbering) != len(labels):
            raise ConfigError("a label numbering must not repeat a label")
        self._cache = numbering

    @property
    def n_labels_seen(self) -> int:
        """Distinct labels currently cached: every label numbered so far
        in enumerate mode, at most :data:`RABIN_CACHE_LIMIT` in Rabin
        mode."""
        return len(self._cache)

    def __repr__(self) -> str:
        return f"LabelHasher(mode={self.mode!r}, seen={len(self._cache)})"
