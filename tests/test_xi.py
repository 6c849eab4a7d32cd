"""Tests for the k-wise independent ±1 random variable generators."""

from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.sketch import MERSENNE_31, XiGenerator
from repro.sketch.ams import _CHUNK
from repro.sketch.xi import _TILE

#: Batch lengths around the kernel's tile and chunk edges.
LENGTHS = [0, 1, _TILE - 1, _TILE, _TILE + 1, _CHUNK + 3]
#: Values at the field's edges and the int64 limit.
EDGE_VALUES = [0, MERSENNE_31 - 1, MERSENNE_31, MERSENNE_31 + 1, 2**63 - 1]


def horner_signs(gen: XiGenerator, values) -> np.ndarray:
    """ξ by Horner's rule over an int64 ``(n_instances, m)`` block.

    The batch evaluation :meth:`XiGenerator.sign_rows` replaced, kept
    here as its oracle: three int64 passes per coefficient, every
    intermediate reduced below ``2^31``.
    """
    t = np.asarray(values, dtype=np.int64) % MERSENNE_31
    coeffs = gen._coeffs
    h = np.broadcast_to(coeffs[-1][:, None], (gen.n_instances, t.shape[0])).copy()
    for j in range(gen.independence - 2, -1, -1):
        h *= t[None, :]
        h += coeffs[j][:, None]
        h %= MERSENNE_31
    return (h & 1) * 2 - 1


def planted_values(length: int, seed: int) -> np.ndarray:
    """Random non-negative int64 values with the edge values planted at
    random positions (as many as fit)."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2**63 - 1, size=length, dtype=np.int64, endpoint=True)
    planted = min(length, len(EDGE_VALUES))
    positions = rng.choice(length, size=planted, replace=False)
    values[positions] = EDGE_VALUES[:planted]
    return values


class TestBasics:
    def test_values_are_plus_minus_one(self):
        gen = XiGenerator(50, seed=1)
        signs = gen.xi_batch(np.arange(200, dtype=np.int64))
        assert set(np.unique(signs)) <= {-1, 1}

    def test_deterministic_given_seed(self):
        a, b = XiGenerator(10, seed=3), XiGenerator(10, seed=3)
        assert np.array_equal(a.xi(12345), b.xi(12345))

    def test_different_seeds_differ(self):
        a, b = XiGenerator(64, seed=1), XiGenerator(64, seed=2)
        assert not np.array_equal(
            a.xi_batch(np.arange(64)), b.xi_batch(np.arange(64))
        )

    def test_scalar_matches_batch(self):
        gen = XiGenerator(20, seed=5)
        batch = gen.xi_batch(np.asarray([7, 11], dtype=np.int64))
        assert np.array_equal(gen.xi(7), batch[:, 0])
        assert np.array_equal(gen.xi(11), batch[:, 1])

    def test_big_integer_values_reduced(self):
        gen = XiGenerator(5, seed=2)
        huge = 10**30 + 7
        assert np.array_equal(gen.xi(huge), gen.xi(huge % MERSENNE_31))

    def test_xi_values_accepts_python_ints(self):
        gen = XiGenerator(5, seed=2)
        out = gen.xi_values([10**30, 3])
        assert out.shape == (5, 2)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            XiGenerator(0)
        with pytest.raises(ConfigError):
            XiGenerator(4, independence=1)

    def test_spawn_derives_independent_generator(self):
        gen = XiGenerator(16, seed=1)
        spawned = gen.spawn(100)
        assert spawned.seed == 101
        assert not np.array_equal(
            gen.xi_batch(np.arange(16)), spawned.xi_batch(np.arange(16))
        )

    @given(st.integers(0, 2**31 - 2))
    def test_matches_explicit_horner(self, value):
        # Independent reimplementation of the polynomial hash.
        gen = XiGenerator(3, independence=4, seed=9)
        coeffs = gen._coeffs  # (k, n)
        for instance in range(3):
            h = 0
            for degree in range(3, -1, -1):
                h = (h * value + int(coeffs[degree, instance])) % MERSENNE_31
            expected = (h & 1) * 2 - 1
            assert gen.xi(value)[instance] == expected


class TestSignRowsKernel:
    """``sign_rows`` is bit-identical to Horner's rule."""

    @settings(max_examples=60, deadline=None)
    @given(
        independence=st.integers(2, 8),
        n_instances=st.sampled_from([1, 7, 350]),
        length=st.sampled_from(LENGTHS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_horner(self, independence, n_instances, length, seed):
        gen = XiGenerator(n_instances, independence=independence, seed=seed)
        values = planted_values(length, seed)
        rows = gen.sign_rows(values)
        assert rows.dtype == np.int8
        assert rows.shape == (length, n_instances)
        np.testing.assert_array_equal(rows.T, horner_signs(gen, values))

    @pytest.mark.parametrize("independence", range(2, 9))
    def test_edge_values_equal_horner_and_scalar(self, independence):
        gen = XiGenerator(350, independence=independence, seed=independence)
        rows = gen.sign_rows(np.asarray(EDGE_VALUES, dtype=np.int64))
        np.testing.assert_array_equal(rows.T, horner_signs(gen, EDGE_VALUES))
        for row, value in zip(rows, EDGE_VALUES):
            np.testing.assert_array_equal(row, gen.xi(value))

    @staticmethod
    def overflowing_point(degree: int) -> int:
        """A field element ``t`` with ``(M − 1)·Σ_{j=1..degree} t^j``
        (powers reduced mod M) at least ``2^64``."""
        m = MERSENNE_31
        for t in count(1 << 30):
            powers = [pow(t, j, m) for j in range(1, degree + 1)]
            if (m - 1) * sum(powers) >= 1 << 64:
                return t
        raise AssertionError("unreachable")

    @pytest.mark.parametrize("independence", [6, 7, 8])
    def test_unreduced_sum_past_two_to_the_64(self, independence):
        # Every coefficient above a_0 is M − 1 and t's powers are large,
        # so Σ_j a_j t^j without the intermediate reduction passes 2^64.
        # 2^64 ≡ 4 (mod M) and M is odd, so a uint64 wrap-around moves
        # the residue r to r − 4 + M — flipping its parity exactly when
        # r < 4.  a_0 sets r = 0, 1, 2, 3 across the instances.
        m = MERSENNE_31
        degree = independence - 1
        t = self.overflowing_point(degree)
        powers = [pow(t, j, m) for j in range(1, degree + 1)]
        gen = XiGenerator(8, independence=independence, seed=0)
        for instance in range(gen.n_instances):
            residue = instance % 4
            gen._coeffs[1:, instance] = m - 1
            gen._coeffs[0, instance] = (residue - (m - 1) * sum(powers)) % m
        unreduced = int(gen._coeffs[0, 0]) + (m - 1) * sum(powers)
        assert unreduced >= 1 << 64
        expected = np.asarray([1 if i % 4 & 1 else -1 for i in range(8)])
        row = gen.sign_rows(np.asarray([t], dtype=np.int64))[0]
        np.testing.assert_array_equal(row, expected)
        np.testing.assert_array_equal(gen.xi(t), expected)
        np.testing.assert_array_equal(horner_signs(gen, [t])[:, 0], expected)


class TestStatisticalProperties:
    """Empirical checks of the (approximate) k-wise independence.

    These use many instances so the law of large numbers applies across
    the *family*; tolerances are loose enough to be deterministic for the
    fixed seeds used.
    """

    N = 4000

    def test_zero_mean(self):
        gen = XiGenerator(self.N, seed=7)
        for value in (0, 1, 12345, MERSENNE_31 - 1):
            mean = gen.xi(value).mean()
            assert abs(mean) < 0.06

    def test_pairwise_uncorrelated(self):
        gen = XiGenerator(self.N, seed=8)
        base = gen.xi(42)
        for other in (43, 1000, 999983):
            correlation = (base * gen.xi(other)).mean()
            assert abs(correlation) < 0.06

    def test_fourwise_product_zero_mean(self):
        gen = XiGenerator(self.N, seed=9)
        product = (
            gen.xi(1) * gen.xi(2) * gen.xi(3) * gen.xi(4)
        ).mean()
        assert abs(product) < 0.06

    def test_squares_are_one(self):
        gen = XiGenerator(100, seed=10)
        assert np.array_equal(gen.xi(77) ** 2, np.ones(100, dtype=np.int64))

    def test_higher_independence_supported(self):
        gen = XiGenerator(self.N, independence=8, seed=11)
        values = [gen.xi(v) for v in range(6)]
        product = np.prod(values, axis=0).mean()
        assert abs(product) < 0.06
