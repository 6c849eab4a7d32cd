"""Tests for the BCH parity-check ξ construction.

Includes an *exhaustive* verification of exact four-wise independence:
the construction's bits are four-wise independent iff for every four
distinct domain points the four vectors ``(1, i, i³)`` over GF(2)^(2m+1)
are linearly independent (then the seed inner products are uniform on
{0,1}⁴) — we check both the linear-independence fact for a whole small
field and the uniformity directly by enumerating every seed.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.hashing.gf2 import gf2_mulmod, random_irreducible
from repro.sketch import BchXiGenerator, SketchMatrix
from repro.sketch.ams import _CHUNK
from repro.sketch.xi import _TILE


def parent_signs(gen: BchXiGenerator, values) -> np.ndarray:
    """The family's int64 ``(n_instances, m)`` signs as evaluated before
    its int8 kernel — two popcounts summed with ``s0`` — kept here as
    the oracle for :meth:`BchXiGenerator.sign_rows`."""
    mask = (1 << gen.m) - 1
    reduced = np.asarray(values, dtype=np.int64) & mask
    cubes = np.fromiter(
        (gen._cube(int(v)) for v in reduced), dtype=np.int64, count=len(reduced)
    )
    bits = (
        np.bitwise_count(gen._s1[:, None] & reduced[None, :])
        + np.bitwise_count(gen._s2[:, None] & cubes[None, :])
        + gen._s0[:, None]
    ) & 1
    return bits.astype(np.int64) * 2 - 1


class TestBasics:
    def test_values_plus_minus_one(self):
        gen = BchXiGenerator(64, m=31, seed=1)
        signs = gen.xi_batch(np.arange(200, dtype=np.int64))
        assert set(np.unique(signs)) <= {-1, 1}

    def test_deterministic(self):
        a, b = BchXiGenerator(8, seed=3), BchXiGenerator(8, seed=3)
        assert np.array_equal(a.xi(12345), b.xi(12345))

    def test_scalar_matches_batch(self):
        gen = BchXiGenerator(16, seed=5)
        batch = gen.xi_batch(np.asarray([7, 11], dtype=np.int64))
        assert np.array_equal(gen.xi(7), batch[:, 0])
        assert np.array_equal(gen.xi(11), batch[:, 1])

    def test_values_reduced_into_domain(self):
        gen = BchXiGenerator(8, m=10, seed=2)
        assert np.array_equal(gen.xi(3 + (1 << 10)), gen.xi(3))

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            BchXiGenerator(0)
        with pytest.raises(ConfigError):
            BchXiGenerator(4, m=1)

    def test_declares_fourwise(self):
        assert BchXiGenerator(4).independence == 4

    def test_statistics(self):
        gen = BchXiGenerator(4000, m=31, seed=7)
        assert abs(gen.xi(42).mean()) < 0.06
        assert abs((gen.xi(42) * gen.xi(43)).mean()) < 0.06
        product = gen.xi(1) * gen.xi(2) * gen.xi(3) * gen.xi(4)
        assert abs(product.mean()) < 0.06


class TestSignRowsKernel:
    """``sign_rows`` is bit-identical to the family's int64 signs."""

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.sampled_from([5, 31, 62]),
        n_instances=st.sampled_from([1, 7, 350]),
        length=st.sampled_from([0, 1, _TILE - 1, _TILE, _TILE + 1, _CHUNK + 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_parent_signs(self, m, n_instances, length, seed):
        gen = BchXiGenerator(n_instances, m=m, seed=seed)
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 2**63 - 1, size=length, dtype=np.int64, endpoint=True)
        edges = [0, (1 << m) - 1, 1 << m, (1 << m) + 1, 2**63 - 1]
        planted = min(length, len(edges))
        values[rng.choice(length, size=planted, replace=False)] = edges[:planted]
        rows = gen.sign_rows(values)
        assert rows.dtype == np.int8
        assert rows.shape == (length, n_instances)
        np.testing.assert_array_equal(rows.T, parent_signs(gen, values))
        np.testing.assert_array_equal(gen.xi_batch(values), rows.T)


class TestExactFourwiseIndependence:
    """The construction's defining property, verified exhaustively."""

    M = 5  # domain 32; gcd(3, 2^5 - 1) = 1 so cubing is a bijection

    def _vectors(self, poly):
        """(1, i, i³) for every i, packed into one integer per point."""
        m = self.M
        out = []
        for i in range(1 << m):
            cube = gf2_mulmod(gf2_mulmod(i, i, poly), i, poly)
            out.append((1 << (2 * m)) | (i << m) | cube)
        return out

    @staticmethod
    def _independent(vectors):
        basis = []
        for vector in vectors:
            for b in basis:
                vector = min(vector, vector ^ b)
            if vector == 0:
                return False
            basis.append(vector)
        return True

    def test_any_four_columns_linearly_independent(self):
        poly = random_irreducible(self.M, np.random.default_rng(0))
        vectors = self._vectors(poly)
        for subset in combinations(range(1 << self.M), 4):
            assert self._independent([vectors[i] for i in subset])

    def test_bits_uniform_over_all_seeds(self):
        """For sample 4-tuples, enumerating every (s0, s1, s2) seed gives
        a perfectly uniform joint bit distribution — exact independence,
        not just statistical."""
        from collections import Counter

        m = 4
        poly = random_irreducible(m, np.random.default_rng(1))

        def cube(i):
            return gf2_mulmod(gf2_mulmod(i, i, poly), i, poly)

        for points in [(0, 1, 2, 3), (1, 5, 9, 14), (2, 7, 8, 15)]:
            joint = Counter()
            for s0 in range(2):
                for s1 in range(1 << m):
                    for s2 in range(1 << m):
                        bits = tuple(
                            (s0 ^ bin(s1 & i).count("1") ^ bin(s2 & cube(i)).count("1")) & 1
                            for i in points
                        )
                        joint[bits] += 1
            assert len(joint) == 16
            assert len(set(joint.values())) == 1  # perfectly uniform


class TestSketchIntegration:
    def test_sketch_matrix_accepts_bch(self):
        matrix = SketchMatrix(40, 5, xi=BchXiGenerator(200, seed=2))
        matrix.update_counts({5: 120})
        assert matrix.estimate(5) == 120.0

    def test_product_degree_limit_enforced(self):
        matrix = SketchMatrix(10, 2, xi=BchXiGenerator(20, seed=2))
        with pytest.raises(ConfigError):
            matrix.estimate_product([1, 2, 3])  # needs 6-wise

    def test_sketchtree_bch_family(self):
        from repro import SketchTree, SketchTreeConfig
        from repro.trees import from_sexpr

        config = SketchTreeConfig(
            s1=40, s2=5, max_pattern_edges=2, n_virtual_streams=31,
            xi_family="bch", seed=4,
        )
        synopsis = SketchTree(config)
        for _ in range(10):
            synopsis.update(from_sexpr("(A (B) (C))"))
        assert synopsis.estimate_ordered("(A (B))") == pytest.approx(10.0, abs=4)

    def test_config_rejects_bch_with_high_independence(self):
        from repro import SketchTreeConfig
        from repro.errors import ConfigError as CE

        with pytest.raises(CE):
            SketchTreeConfig(xi_family="bch", independence=6)
        with pytest.raises(CE):
            SketchTreeConfig(xi_family="fourier")

    def test_unbiasedness_over_draws(self):
        counts = {1: 30, 2: 20, 3: 10}
        estimates = []
        for seed in range(200):
            matrix = SketchMatrix(1, 1, xi=BchXiGenerator(1, seed=seed))
            matrix.update_counts(counts)
            estimates.append(matrix.estimate(2))
        assert abs(np.mean(estimates) - 20) < 6
