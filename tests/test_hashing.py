"""Tests for pairing functions, GF(2) arithmetic, Rabin fingerprints."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import HashingError
from repro.hashing import (
    LabelHasher,
    RabinFingerprint,
    gf2_degree,
    gf2_gcd,
    gf2_mod,
    gf2_mul,
    gf2_mulmod,
    is_irreducible,
    pair2,
    pair_sequence,
    random_irreducible,
    unpair2,
    unpair_sequence,
)
from repro.hashing.labels import RABIN_CACHE_LIMIT
from repro.hashing.pairing import fold_to_width


class TestPairing:
    def test_paper_formula(self):
        # PF2(x, y) = (x^2 + 2xy + y^2 + 3x + y) / 2, verified directly.
        for x in range(6):
            for y in range(6):
                assert pair2(x, y) == (x * x + 2 * x * y + y * y + 3 * x + y) // 2

    def test_is_bijection_on_small_grid(self):
        values = {pair2(x, y) for x in range(40) for y in range(40)}
        assert len(values) == 1600

    def test_rejects_negative(self):
        with pytest.raises(HashingError):
            pair2(-1, 0)
        with pytest.raises(HashingError):
            unpair2(-1)

    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    def test_unpair_inverts_pair(self, x, y):
        assert unpair2(pair2(x, y)) == (x, y)

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=6))
    def test_sequence_roundtrip(self, values):
        assert unpair_sequence(pair_sequence(values)) == tuple(values)

    def test_sequences_of_different_lengths_never_collide(self):
        # (0,) vs (0, 0) vs (0, 0, 0): padding-free length disambiguation.
        codes = {pair_sequence((0,) * n) for n in range(1, 6)}
        assert len(codes) == 5

    def test_empty_sequence_rejected(self):
        with pytest.raises(HashingError):
            pair_sequence(())

    def test_doubly_exponential_growth_guarded(self):
        # ~30 x 31-bit elements would need a >1-gigabit integer; the fold
        # must fail fast instead of hanging (Section 6.1's motivation).
        with pytest.raises(HashingError):
            pair_sequence([2**30] * 30)

    def test_fold_to_width(self):
        big = pair_sequence((10**6, 10**6, 10**6))
        folded = fold_to_width(big, bits=61)
        assert 0 <= folded < (1 << 61) - 1


class TestGf2:
    def test_degree(self):
        assert gf2_degree(0) == -1
        assert gf2_degree(1) == 0
        assert gf2_degree(0b1011) == 3

    def test_mul_known(self):
        # (x + 1)(x + 1) = x^2 + 1 over GF(2).
        assert gf2_mul(0b11, 0b11) == 0b101

    def test_mod_known(self):
        # x^3 mod (x^2 + 1) = x  (since x^3 = x(x^2+1) + x).
        assert gf2_mod(0b1000, 0b101) == 0b10

    def test_mulmod_matches_mul_then_mod(self):
        modulus = 0b10011  # x^4 + x + 1 (irreducible)
        for a in range(1, 16):
            for b in range(1, 16):
                assert gf2_mulmod(a, b, modulus) == gf2_mod(gf2_mul(a, b), modulus)

    def test_gcd(self):
        # gcd((x+1)^2, (x+1)x) = x+1.
        a = gf2_mul(0b11, 0b11)
        b = gf2_mul(0b11, 0b10)
        assert gf2_gcd(a, b) == 0b11

    def test_mod_by_zero_rejected(self):
        with pytest.raises(HashingError):
            gf2_mod(0b101, 0)

    @pytest.mark.parametrize(
        "poly,expected",
        [
            (0b111, True),        # x^2 + x + 1: the only irreducible quadratic
            (0b101, False),       # x^2 + 1 = (x+1)^2
            (0b1011, True),       # x^3 + x + 1
            (0b1101, True),       # x^3 + x^2 + 1
            (0b1111, False),      # x^3 + x^2 + x + 1 = (x+1)(x^2+1)
            (0b10011, True),      # x^4 + x + 1
            (0b11111, True),      # x^4 + x^3 + x^2 + x + 1
            (0b10101, False),     # x^4 + x^2 + 1 = (x^2+x+1)^2
            (0b100011011, True),  # x^8 + x^4 + x^3 + x + 1 (AES polynomial)
        ],
    )
    def test_is_irreducible_known_cases(self, poly, expected):
        assert is_irreducible(poly) is expected

    def test_irreducible_count_degree_4(self):
        # There are exactly 3 irreducible polynomials of degree 4 over GF(2).
        count = sum(
            1 for candidate in range(16, 32) if is_irreducible(candidate)
        )
        assert count == 3

    def test_random_irreducible_deterministic(self):
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        assert random_irreducible(31, rng_a) == random_irreducible(31, rng_b)

    def test_random_irreducible_accepts_int_seed(self):
        assert random_irreducible(31, 5) == random_irreducible(
            31, np.random.default_rng(5)
        )

    def test_random_irreducible_unseeded_default_is_reproducible(self):
        # None falls back to repro.core.config.DEFAULT_SEED, never OS entropy.
        assert random_irreducible(31) == random_irreducible(31)

    def test_seeded_search_runs_once_per_process(self, monkeypatch):
        """A second encoder with the same seed runs no irreducibility
        test and gets the same polynomials as the first."""
        from repro.core.encoding import PatternEncoder
        from repro.hashing import gf2

        tested = []
        real = gf2.is_irreducible
        monkeypatch.setattr(
            gf2, "is_irreducible", lambda poly: tested.append(poly) or real(poly)
        )
        first = PatternEncoder(seed=90210)  # a seed no other test draws
        searched = len(tested)
        second = PatternEncoder(seed=90210)
        assert searched > 0
        assert len(tested) == searched
        assert second._sequence_fp.poly == first._sequence_fp.poly
        assert (
            second._labels._fingerprint.poly == first._labels._fingerprint.poly
        )

    def test_random_irreducible_has_requested_degree(self):
        poly = random_irreducible(16, np.random.default_rng(1))
        assert gf2_degree(poly) == 16
        assert is_irreducible(poly)

    def test_random_irreducible_rejects_degree_zero(self):
        with pytest.raises(HashingError):
            random_irreducible(0)


class TestRabinFingerprint:
    def test_deterministic_given_seed(self):
        a, b = RabinFingerprint(seed=3), RabinFingerprint(seed=3)
        assert a.poly == b.poly
        assert a.of_bytes(b"hello") == b.of_bytes(b"hello")

    def test_different_seeds_different_polys(self):
        assert RabinFingerprint(seed=1).poly != RabinFingerprint(seed=2).poly

    def test_table_feed_matches_direct_mod(self):
        # Feeding bytes through the CRC-style table must equal reducing the
        # whole bit string at once.
        fp = RabinFingerprint(seed=7)
        data = bytes(range(40))
        as_int = int.from_bytes(data, "big")
        assert fp.of_bytes(data) == gf2_mod(as_int, fp.poly)

    def test_byte_table_built_once_per_polynomial(self, monkeypatch):
        """A second fingerprint with the same polynomial runs no
        ``gf2_mod``: its byte table and its polynomial are memoised."""
        from repro.hashing import gf2, rabin

        calls = []
        for module in (gf2, rabin):
            real = module.gf2_mod
            monkeypatch.setattr(
                module,
                "gf2_mod",
                lambda a, m, real=real: calls.append(m) or real(a, m),
            )
        first = RabinFingerprint(seed=4711)  # a seed no other test draws
        built = len(calls)
        second = RabinFingerprint(seed=4711)
        assert built >= 256
        assert len(calls) == built
        assert second._table is first._table
        assert second.of_bytes(b"hello") == first.of_bytes(b"hello")

    def test_values_bounded_by_degree(self):
        fp = RabinFingerprint(seed=0, degree=31)
        for payload in (b"", b"x", bytes(100)):
            assert 0 <= fp.of_bytes(payload) < (1 << 31)

    def test_of_sequence_length_prefixed(self):
        fp = RabinFingerprint(seed=1)
        assert fp.of_sequence([0]) != fp.of_sequence([0, 0])

    def test_of_ints_rejects_out_of_range(self):
        fp = RabinFingerprint(seed=1)
        with pytest.raises(HashingError):
            fp.of_ints([1 << 32])
        with pytest.raises(HashingError):
            fp.of_ints([-1])

    def test_explicit_poly_validated(self):
        with pytest.raises(HashingError):
            RabinFingerprint(poly=0b100000001)  # x^8 + 1 is reducible

    def test_small_degree_rejected(self):
        with pytest.raises(HashingError):
            RabinFingerprint(poly=0b111)  # degree 2 < 8

    def test_collision_rate_on_random_sequences(self):
        fp = RabinFingerprint(seed=11)
        rng = random.Random(0)
        seqs = {
            tuple(rng.randrange(1 << 20) for _ in range(rng.randrange(1, 8)))
            for _ in range(3000)
        }
        prints = {fp.of_sequence(list(s)) for s in seqs}
        # Expected collisions ~ |S|^2 * len / 2^32 << 1; allow a couple.
        assert len(seqs) - len(prints) <= 2

    @given(st.binary(max_size=50), st.binary(max_size=50))
    def test_streaming_concatenation(self, a, b):
        fp = RabinFingerprint(seed=5)
        assert fp.of_bytes(a + b) == fp.of_bytes(b, state=fp.of_bytes(a))


class TestLabelHasher:
    def test_rabin_mode_deterministic(self):
        a, b = LabelHasher("rabin", seed=4), LabelHasher("rabin", seed=4)
        assert a("NP") == b("NP")

    def test_rabin_mode_cached(self):
        hasher = LabelHasher("rabin", seed=4)
        first = hasher("VP")
        assert hasher("VP") == first
        assert hasher.n_labels_seen == 1

    def test_rabin_cache_is_bounded_and_values_unchanged(self):
        hasher = LabelHasher("rabin", seed=4)
        labels = [f"label-{i}" for i in range(RABIN_CACHE_LIMIT + 100)]
        values = [hasher(label) for label in labels]
        assert hasher.n_labels_seen <= RABIN_CACHE_LIMIT
        fresh = LabelHasher("rabin", seed=4)
        assert values == [fresh(label) for label in labels]
        assert [hasher(label) for label in labels[:50]] == values[:50]

    def test_enumerate_numbering_is_never_flushed(self):
        hasher = LabelHasher("enumerate")
        for i in range(RABIN_CACHE_LIMIT + 100):
            hasher(f"label-{i}")
        assert hasher.n_labels_seen == RABIN_CACHE_LIMIT + 100
        assert hasher("label-0") == 0

    def test_enumerate_mode_sequential(self):
        hasher = LabelHasher("enumerate")
        assert hasher("A") == 0
        assert hasher("B") == 1
        assert hasher("A") == 0

    def test_unknown_mode_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            LabelHasher("md5")

    def test_distinct_labels_distinct_hashes(self):
        hasher = LabelHasher("rabin", seed=9)
        labels = [f"tag_{i}" for i in range(500)]
        assert len({hasher(label) for label in labels}) == 500
