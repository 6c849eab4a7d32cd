"""k-wise independent ±1 random variables, one family per sketch instance.

AMS sketches need, for every sketch instance, a mapping
``ξ : dom(S) → {−1, +1}`` that is four-wise independent (or k-wise for the
generalised query expressions of Section 4).  The paper generates them
from parity-check matrices of BCH codes; the textbook-equivalent
construction used here evaluates a uniformly random polynomial of degree
``k − 1`` over the prime field ``GF(2^31 − 1)`` and takes the low bit:

    h_a(t) = a_{k−1} t^{k−1} + … + a_1 t + a_0  (mod p),    ξ(t) = 2·(h & 1) − 1

A random degree-``<k`` polynomial over a field gives exactly k-wise
independent, uniformly distributed values; taking a parity bit of a value
uniform on ``[0, p)`` with odd ``p`` introduces a bias of ``1/p ≈ 4.7e-10``,
negligible against the estimator variance at any realistic sketch size.

Everything is vectorised across the whole family of sketch instances:
:meth:`XiGenerator.sign_rows` evaluates ξ for all ``s1 × s2`` instances,
for a batch of values, as one int8 row per value — the one batch kernel
of this family, and the trick that makes a pure-Python SketchTree fast
enough to replay the paper's experiments.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import ConfigError

#: The Mersenne prime ``2^31 − 1`` — field size for the polynomial hash.
#: Chosen so every Horner step ``h * t + a`` fits comfortably in int64.
MERSENNE_31 = (1 << 31) - 1

#: Values per tile of the batch kernels: a ``(_TILE, n_instances)``
#: uint64 tile is 0.7 MiB at the paper's 350 instances, so it stays in
#: cache while every pass over it runs.
_TILE = 256

#: Products ``a_j · t^j`` summed between reductions mod ``M``.  Each is
#: at most ``(M − 1)²`` and the running sum starts below ``M``, so
#: ``M + 3(M − 1)² < 2^64``: no uint64 sum wraps, whatever the
#: independence, and independence up to 4 needs one modulo per cell.
_GROUP = 3

#: ``M`` as a uint64 scalar, so the kernel's tile arithmetic stays unsigned.
_MODULUS = np.uint64(MERSENNE_31)


class XiGenerator:
    """A family of ``n_instances`` independent k-wise independent ξ mappings.

    Parameters
    ----------
    n_instances:
        Number of sketch instances (``s1 × s2`` for a sketch matrix); one
        independent polynomial is drawn per instance.
    independence:
        ``k``: the independence degree.  4 suffices for point and sum
        queries (Theorems 1 and 2); product expressions need more (see
        :mod:`repro.core.expressions`).
    seed:
        Seed for the coefficient draw.  The generator is the *only* state
        AMS needs besides the counters, matching the paper's observation
        that ξ is recomputed from the random seed at query time rather
        than stored.
    """

    def __init__(self, n_instances: int, independence: int = 4, seed: int = 0):
        if n_instances < 1:
            raise ConfigError(f"n_instances must be >= 1, got {n_instances}")
        if independence < 2:
            raise ConfigError(f"independence must be >= 2, got {independence}")
        self.n_instances = n_instances
        self.independence = independence
        self.seed = seed
        rng = np.random.default_rng(seed)
        # Shape (k, n_instances): coefficient j of every instance, laid out
        # so Horner's rule broadcasts cleanly against a batch of values.
        self._coeffs = rng.integers(
            0, MERSENNE_31, size=(independence, n_instances), dtype=np.int64
        )

    def xi(self, value: int) -> np.ndarray:
        """ξ(value) for every instance: an int64 array of ±1, shape (n,).

        Dedicated scalar path (no broadcast/copy): the top-k tracker
        calls this once per Algorithm 4 invocation.
        """
        t = int(value) % MERSENNE_31
        coeffs = self._coeffs
        h = coeffs[-1]
        for j in range(self.independence - 2, -1, -1):
            h = (h * t + coeffs[j]) % MERSENNE_31
        return (h & 1) * 2 - 1

    def sign_rows(self, values: np.ndarray) -> np.ndarray:
        """ξ for a batch of values as int8 ±1 rows, shape (m, n_instances).

        Row ``i`` is ``ξ(values[i])`` for every instance.  Each value is
        reduced to its field element ``t`` and its powers ``t^j mod M``
        are taken once; then, ``_TILE`` values at a time, ``h = Σ_j
        a_j t^j`` is accumulated as uint64 matrix products (sums of
        outer products of the powers with the coefficient rows),
        reduced mod ``M`` after every ``_GROUP`` products, and its
        parity is written straight into the int8 rows.  ``h`` is the
        residue Horner's rule computes, so the signs are bit-identical
        to it.  Scratch: two ``(_TILE, n_instances)`` uint64 tiles,
        allocated once per call; the last tile uses views of them.
        """
        t = self.to_field_array(values).view(np.uint64)
        m, n = len(t), self.n_instances
        degree = self.independence - 1
        coeffs = self._coeffs.view(np.uint64)  # non-negative: same values
        powers = np.empty((m, degree), dtype=np.uint64)  # t^(j+1) mod M
        powers[:, 0] = t
        for j in range(1, degree):
            np.multiply(powers[:, j - 1], t, out=powers[:, j])
            powers[:, j] %= _MODULUS
        rows = np.empty((m, n), dtype=np.int8)
        size = min(_TILE, m)
        sums = np.empty((size, n), dtype=np.uint64)
        parts = np.empty((size, n), dtype=np.uint64)
        for lo in range(0, m, _TILE):
            hi = min(lo + _TILE, m)
            acc, out = sums[: hi - lo], rows[lo:hi]
            np.matmul(powers[lo:hi, :_GROUP], coeffs[1 : _GROUP + 1], out=acc)
            acc += coeffs[0]
            for j in range(_GROUP, degree, _GROUP):
                acc %= _MODULUS
                part = parts[: hi - lo]
                np.matmul(
                    powers[lo:hi, j : j + _GROUP],
                    coeffs[j + 1 : j + 1 + _GROUP],
                    out=part,
                )
                acc += part
            acc %= _MODULUS
            acc &= np.uint64(1)
            np.copyto(out, acc, casting="unsafe")
            out *= 2
            out -= 1
        return rows

    def xi_batch(self, values: np.ndarray) -> np.ndarray:
        """ξ for a batch of values: ±1 int64 array, shape (n_instances, m).

        The read side's view of :meth:`sign_rows`, transposed and
        widened; ingest applies the int8 rows themselves.  ``values``
        must be an int64 array; entries are reduced modulo the field
        size, so any non-negative 63-bit representation works.
        """
        return self.sign_rows(values).T.astype(np.int64)

    def to_field(self, values: Iterable[int], count: int = -1) -> np.ndarray:
        """The canonical value → field-element conversion, as int64 array.

        Every path that turns Python-int stream values into a numpy array
        for this family goes through here — the *single* reduction point
        into ``GF(2^31 − 1)``.  Reducing in Python keeps pairing-mode
        values (arbitrary-precision ints, Section 2.2) from overflowing
        the int64 conversion; ξ is invariant under the reduction, so
        estimates are unchanged.
        """
        return np.fromiter(
            (int(v) % MERSENNE_31 for v in values), dtype=np.int64, count=count
        )

    def to_field_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`to_field` for values already held as int64.

        The batch pipeline's fast path: when every raw value fits int64
        (Rabin-mode encodings), the reduction is one numpy modulo instead
        of a per-value Python loop.  Agrees with :meth:`to_field`
        exactly — numpy's ``%`` matches Python's for non-negative
        operands.
        """
        return np.asarray(values, dtype=np.int64) % MERSENNE_31

    def xi_values(self, values: Iterable[int]) -> np.ndarray:
        """ξ for an iterable of Python ints (convenience wrapper)."""
        return self.xi_batch(self.to_field(values))

    def spawn(self, seed_offset: int) -> "XiGenerator":
        """An independent generator with a derived seed (for extra runs)."""
        return XiGenerator(self.n_instances, self.independence, self.seed + seed_offset)

    def __repr__(self) -> str:
        return (
            f"XiGenerator(n_instances={self.n_instances}, "
            f"independence={self.independence}, seed={self.seed})"
        )
