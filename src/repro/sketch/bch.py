"""Four-wise independent ±1 variables from BCH parity-check matrices.

The paper (and AMS [3]) generate their ξ families "by constructing
parity check matrices of the binary BCH codes".  Concretely: the dual of
the extended double-error-correcting BCH code over ``GF(2^m)`` yields an
*exactly* four-wise independent bit family of size ``2^m`` from a
``2m + 1``-bit seed ``(s0, s1, s2)``:

    bit(i) = s0 ⊕ ⟨s1, i⟩ ⊕ ⟨s2, i³⟩,        ξ(i) = 2·bit(i) − 1

where ``i³`` is computed in ``GF(2^m)`` (polynomial arithmetic modulo an
irreducible polynomial of degree ``m``) and ``⟨a, b⟩`` is the GF(2)
inner product — the parity of ``a & b``.

This is the faithful counterpart to the polynomial-hash family in
:mod:`repro.sketch.xi`; both are four-wise independent, and the test
suite verifies this construction's independence *exhaustively* for small
``m``.  It plugs into :class:`~repro.sketch.ams.SketchMatrix` unchanged
(the matrix only needs ``xi`` / ``sign_rows`` / ``xi_batch`` /
``independence``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.hashing.gf2 import gf2_mulmod, random_irreducible
from repro.hashing.rng import default_generator
from repro.sketch.xi import _TILE

#: Field values whose cube is memoised before the cache is cleared.  A
#: cube is a pure function of the value, so a flush costs recomputation,
#: never a ξ sign, and an unbounded value stream cannot grow the cache
#: without bound.
CUBE_CACHE_LIMIT = 1 << 16


class BchXiGenerator:
    """A family of BCH-derived four-wise independent ξ mappings.

    Parameters
    ----------
    n_instances:
        Independent seeds drawn, one ξ mapping per sketch instance.
    m:
        Field degree: the domain is ``[0, 2^m)``.  31 matches the Rabin
        fingerprint residues used throughout (values < 2^31).
    seed:
        Seed for the ``(s0, s1, s2)`` draws and the field polynomial.
    """

    #: This construction is exactly four-wise independent — no more.
    independence = 4

    def __init__(self, n_instances: int, m: int = 31, seed: int = 0):
        if n_instances < 1:
            raise ConfigError(f"n_instances must be >= 1, got {n_instances}")
        if not 2 <= m <= 62:
            raise ConfigError(f"m must be in [2, 62], got {m}")
        self.n_instances = n_instances
        self.m = m
        self.seed = seed
        rng = default_generator(seed)
        self._poly = random_irreducible(m, rng)
        bound = 1 << m
        self._s0 = rng.integers(0, 2, size=n_instances, dtype=np.int64)
        self._s1 = rng.integers(0, bound, size=n_instances, dtype=np.int64)
        self._s2 = rng.integers(0, bound, size=n_instances, dtype=np.int64)
        self._cube_cache: dict[int, int] = {}

    def _cube(self, value: int) -> int:
        """``value³`` in GF(2^m), memoised (streams and queries repeat
        values) up to :data:`CUBE_CACHE_LIMIT` values."""
        cache = self._cube_cache
        cached = cache.get(value)
        if cached is None:
            square = gf2_mulmod(value, value, self._poly)
            cached = gf2_mulmod(square, value, self._poly)
            if len(cache) >= CUBE_CACHE_LIMIT:
                cache.clear()
            cache[value] = cached
        return cached

    def xi(self, value: int) -> np.ndarray:
        """ξ(value) for every instance: ±1 int64 array, shape (n,)."""
        return self.xi_values([value])[:, 0]

    def sign_rows(self, values: np.ndarray) -> np.ndarray:
        """ξ for an int64 value batch as int8 ±1 rows, (m, n_instances).

        Values are reduced into the field domain ``[0, 2^m)`` first, so
        any non-negative 63-bit input is accepted (mirroring
        :class:`~repro.sketch.xi.XiGenerator`).  ``_TILE`` values at a
        time, the two seed inner products are combined before one
        popcount — ``popcount(u) + popcount(v) ≡ popcount(u ^ v)``
        (mod 2) — and the parity is written straight into the int8 rows.
        """
        reduced = self.to_field_array(values)
        cubes = np.fromiter(
            (self._cube(int(v)) for v in reduced),
            dtype=np.int64,
            count=len(reduced),
        )
        m, n = len(reduced), self.n_instances
        rows = np.empty((m, n), dtype=np.int8)
        size = min(_TILE, m)
        linear = np.empty((size, n), dtype=np.int64)
        cubic = np.empty((size, n), dtype=np.int64)
        for lo in range(0, m, _TILE):
            hi = min(lo + _TILE, m)
            word, other, out = linear[: hi - lo], cubic[: hi - lo], rows[lo:hi]
            np.bitwise_and(reduced[lo:hi, None], self._s1, out=word)
            np.bitwise_and(cubes[lo:hi, None], self._s2, out=other)
            word ^= other
            np.bitwise_count(word, out=out, casting="unsafe")
            out += self._s0
            out &= 1
            out *= 2
            out -= 1
        return rows

    def xi_batch(self, values: np.ndarray) -> np.ndarray:
        """ξ for an int64 value batch: ±1 int64 array, (n_instances, m).

        The read side's view of :meth:`sign_rows`, transposed and
        widened.
        """
        return self.sign_rows(values).T.astype(np.int64)

    def to_field(self, values, count: int = -1) -> np.ndarray:
        """Canonical value → field-domain conversion (``[0, 2^m)``).

        The BCH counterpart of :meth:`XiGenerator.to_field`: masking in
        Python accepts arbitrary-precision values and agrees with the
        reduction :meth:`sign_rows` applies to int64 batches.
        """
        mask = (1 << self.m) - 1
        return np.fromiter(
            (int(v) & mask for v in values), dtype=np.int64, count=count
        )

    def to_field_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`to_field` for int64 value arrays (``& mask``)."""
        mask = (1 << self.m) - 1
        return np.asarray(values, dtype=np.int64) & mask

    def xi_values(self, values) -> np.ndarray:
        """ξ for an iterable of Python ints (convenience wrapper)."""
        return self.xi_batch(self.to_field(values))

    def __repr__(self) -> str:
        return (
            f"BchXiGenerator(n_instances={self.n_instances}, m={self.m}, "
            f"seed={self.seed})"
        )
