"""Polynomial arithmetic over GF(2), polynomials encoded as Python ints.

Bit ``i`` of the integer is the coefficient of ``x^i``; e.g. ``0b1011``
is ``x^3 + x + 1``.  These primitives back Rabin fingerprinting
(:mod:`repro.hashing.rabin`): random irreducible polynomial generation and
the irreducibility test (Rabin's criterion).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import HashingError
from repro.hashing.rng import default_generator, random_bits


def gf2_degree(poly: int) -> int:
    """Degree of the polynomial; ``-1`` for the zero polynomial."""
    return poly.bit_length() - 1


def gf2_mul(a: int, b: int) -> int:
    """Carry-less (GF(2)) product of two polynomials."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


def gf2_mod(a: int, m: int) -> int:
    """Remainder of ``a`` modulo ``m`` over GF(2)."""
    if m == 0:
        raise HashingError("division by the zero polynomial")
    deg_m = gf2_degree(m)
    deg_a = gf2_degree(a)
    while deg_a >= deg_m:
        a ^= m << (deg_a - deg_m)
        deg_a = gf2_degree(a)
    return a


def gf2_mulmod(a: int, b: int, m: int) -> int:
    """``(a * b) mod m`` over GF(2), reducing as it goes."""
    deg_m = gf2_degree(m)
    a = gf2_mod(a, m)
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if gf2_degree(a) >= deg_m:
            a ^= m
    return result


def gf2_gcd(a: int, b: int) -> int:
    """Greatest common divisor over GF(2) (Euclid's algorithm)."""
    while b:
        a, b = b, gf2_mod(a, b)
    return a


def _x_pow_pow2(exponent_log: int, m: int) -> int:
    """Compute ``x^(2^exponent_log) mod m`` by repeated squaring."""
    value = gf2_mod(0b10, m)  # the polynomial x
    for _ in range(exponent_log):
        value = gf2_mulmod(value, value, m)
    return value


def _prime_factors(n: int) -> list[int]:
    factors: list[int] = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def is_irreducible(poly: int) -> bool:
    """Rabin's irreducibility test over GF(2).

    ``f`` of degree ``n`` is irreducible iff ``x^(2^n) ≡ x (mod f)`` and
    for every prime divisor ``q`` of ``n``,
    ``gcd(x^(2^(n/q)) − x, f) = 1``.
    """
    n = gf2_degree(poly)
    if n <= 0:
        return False
    if n == 1:
        return True  # x and x+1
    x = 0b10
    if _x_pow_pow2(n, poly) != gf2_mod(x, poly):
        return False
    for q in _prime_factors(n):
        h = _x_pow_pow2(n // q, poly) ^ x
        if gf2_gcd(poly, gf2_mod(h, poly)) != 1:
            return False
    return True


def random_irreducible(
    degree: int, rng: np.random.Generator | int | None = None
) -> int:
    """Draw a uniformly random irreducible polynomial of the given degree.

    As in Rabin's fingerprinting scheme: candidates of the exact degree
    (with non-zero constant term, a cheap necessary condition for
    ``degree >= 1``) are sampled until one passes the irreducibility test.
    Roughly one in ``degree`` monic polynomials is irreducible, so this
    terminates quickly.

    ``rng`` is an injectable seeded :class:`numpy.random.Generator`; an
    int is taken as a seed, and ``None`` falls back to the repository-wide
    :data:`~repro.core.config.DEFAULT_SEED` so the draw is reproducible
    run-to-run either way.  With a seed the result is a pure function of
    ``(degree, seed)``, memoised per process: every synopsis construction
    (window rotation, merge, snapshot restore) draws its encoder's
    polynomials this way.  A generator's draws advance it, so that path
    searches every time.
    """
    if degree < 1:
        raise HashingError(f"degree must be >= 1, got {degree}")
    if isinstance(rng, np.random.Generator):
        return _search_irreducible(degree, rng)
    return _seeded_irreducible(degree, rng)


@lru_cache(maxsize=256)
def _seeded_irreducible(degree: int, seed: int | None) -> int:
    return _search_irreducible(degree, default_generator(seed))


def _search_irreducible(degree: int, rng: np.random.Generator) -> int:
    high_bit = 1 << degree
    while True:
        candidate = high_bit | random_bits(rng, degree) | 1
        if is_irreducible(candidate):
            return candidate
