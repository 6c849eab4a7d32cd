"""Tests for the pattern → integer encoder (both mapping modes)."""

import pytest
from hypothesis import given, settings

from repro.core import PatternEncoder
from repro.errors import ConfigError
from tests.strategies import count_nodes, nested_trees


class TestEncoder:
    def test_deterministic_across_instances(self):
        a = PatternEncoder(seed=7)
        b = PatternEncoder(seed=7)
        pattern = ("A", (("B", ()), ("C", ())))
        assert a.encode(pattern) == b.encode(pattern)

    def test_different_seeds_usually_differ(self):
        pattern = ("A", (("B", ()),))
        values = {PatternEncoder(seed=s).encode(pattern) for s in range(8)}
        assert len(values) > 1

    def test_caching(self):
        encoder = PatternEncoder(seed=1)
        pattern = ("A", (("B", ()),))
        encoder.encode(pattern)
        encoder.encode(pattern)
        assert encoder.cache_size == 1

    def test_encode_batch_preserves_order(self):
        encoder = PatternEncoder(seed=1)
        patterns = [("A", ()), ("B", ()), ("A", ())]
        values = encoder.encode_batch(patterns)
        assert values[0] == values[2]
        assert values[0] != values[1]

    def test_rabin_values_bounded(self):
        encoder = PatternEncoder(mapping="rabin", degree=31, seed=2)
        value = encoder.encode(("A", (("B", ()), ("C", ()))))
        assert 0 <= value < (1 << 31)

    def test_pairing_mode_exact(self):
        encoder = PatternEncoder(mapping="pairing")
        a = encoder.encode(("A", (("B", ()),)))
        b = encoder.encode(("A", (("C", ()),)))
        assert a != b

    def test_unknown_mapping_rejected(self):
        with pytest.raises(ConfigError):
            PatternEncoder(mapping="sha256")

    def test_sibling_order_distinguished(self):
        encoder = PatternEncoder(seed=3)
        assert encoder.encode(("A", (("B", ()), ("C", ())))) != encoder.encode(
            ("A", (("C", ()), ("B", ())))
        )

    def test_label_vs_structure_distinguished(self):
        encoder = PatternEncoder(seed=3)
        chain = ("A", (("B", (("C", ()),)),))
        flat = ("A", (("B", ()), ("C", ())))
        assert encoder.encode(chain) != encoder.encode(flat)

    def test_many_patterns_no_collisions_rabin(self):
        # 31-bit residues over a few thousand distinct patterns: expected
        # collisions ~ n^2/2^32 < 0.01.
        encoder = PatternEncoder(mapping="rabin", seed=5)
        patterns = [
            (f"L{i}", ((f"L{j}", ()),)) for i in range(60) for j in range(60)
        ]
        values = encoder.encode_batch(patterns)
        assert len(set(values)) == len(patterns)

    def test_unicode_labels(self):
        encoder = PatternEncoder(seed=4)
        a = encoder.encode(("café", (("中文", ()),)))
        b = encoder.encode(("cafe", (("中文", ()),)))
        assert a != b
        assert encoder.encode(("café", (("中文", ()),))) == a

    # Pairing values grow *doubly exponentially* with pattern size (the
    # paper's own argument against them, Section 6.1) — a pattern of just
    # ~10 nodes already needs a multi-megabit integer.  The property is
    # therefore checked on tiny patterns only; injectivity for larger
    # inputs follows from the Prüfer round-trip property plus the integer
    # pairing inverse, both tested exhaustively elsewhere.
    @given(
        nested_trees(max_nodes=4).filter(lambda p: count_nodes(p) <= 4),
        nested_trees(max_nodes=4).filter(lambda p: count_nodes(p) <= 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_pairing_mode_injective(self, a, b):
        encoder = PatternEncoder(mapping="pairing")
        if a != b:
            assert encoder.encode(a) != encoder.encode(b)

    @given(nested_trees(max_nodes=8))
    @settings(max_examples=40, deadline=None)
    def test_rabin_deterministic_property(self, pattern):
        assert PatternEncoder(seed=9).encode(pattern) == PatternEncoder(
            seed=9
        ).encode(pattern)
