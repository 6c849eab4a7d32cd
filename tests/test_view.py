"""Tests for the counter view, the one read path every estimate takes."""

import dataclasses
import functools
import random

import pytest

from repro.core import SketchTree, SketchTreeConfig, VirtualStreams
from repro.core.view import CounterReads, CounterView
from repro.datasets import DblpGenerator, TreebankGenerator
from repro.enumtree.enumerate import collect_forest_patterns
from repro.errors import ConfigError
from repro.sketch.ams import _CHUNK
from repro.trees import from_sexpr

from .estimate_kinds import CONFIG, KINDS, STREAM, SUM_CONFIGS

TREES = [from_sexpr(text) for text in STREAM]


def synopsis(trees, config=CONFIG):
    built = SketchTree(config)
    built.update_batch(trees)
    return built


def counter_bytes(*synopses):
    return [
        {r: m.counters.tobytes() for r, m in s.streams.iter_sketches()}
        for s in synopses
    ]


class TestSingleSource:
    def test_hands_back_own_matrices_uncopied(self):
        single = synopsis(TREES)
        view = single.view()
        for residue, matrix in single.streams.iter_sketches():
            assert view.sketch(residue) is matrix
        assert view.summary is single.summary

    def test_virtual_streams_share_the_view_code(self):
        """``VirtualStreams`` keeps its query-side names, but the bodies
        are the view's: one definition for one and several sources."""
        assert VirtualStreams.view is CounterReads.combined
        for name in ("combined", "estimate_sum_grouped", "combined_counters"):
            assert getattr(VirtualStreams, name) is getattr(CounterReads, name)
            assert getattr(CounterView, name) is getattr(CounterReads, name)


class TestSeveralSources:
    def parts(self):
        return synopsis(TREES[:25]), synopsis(TREES[25:40]), synopsis(TREES[40:])

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_every_kind_matches_merge(self, kind):
        a, b, c = self.parts()
        assert KINDS[kind](CounterView([a, b, c])) == KINDS[kind](a.merge(b).merge(c))

    def test_never_writes_counters(self):
        parts = self.parts()
        before = counter_bytes(*parts)
        view = CounterView(parts)
        for call in KINDS.values():
            call(view)
        assert counter_bytes(*parts) == before

    def test_sums_only_on_read(self):
        """Nothing is cached: counters that move after the view is made
        show up in its next answer."""
        a, b, _ = self.parts()
        view = CounterView([a, b])
        before = view.estimate_ordered("(E (E1))")
        b.update_batch([from_sexpr("(E (E1))")] * 30)
        assert view.estimate_ordered("(E (E1))") > before

    def test_refuses_other_configs_and_no_sources(self):
        a = synopsis(TREES[:5])
        b = synopsis(TREES[:5], dataclasses.replace(CONFIG, seed=CONFIG.seed + 1))
        with pytest.raises(ConfigError, match="identical configs"):
            CounterView([a, b])
        with pytest.raises(ConfigError):
            CounterView([])


class TestPairingEncoding:
    CONFIG = SketchTreeConfig(
        s1=30, s2=5, max_pattern_edges=2, n_virtual_streams=31, seed=3,
        mapping="pairing",
    )

    def test_independent_encoders_refuse_to_combine(self):
        """Each pairing encoder numbers labels in first-seen order, so
        the same pattern gets different values in the two synopses."""
        a = synopsis([from_sexpr("(A (B))")] * 20, self.CONFIG)
        b = synopsis([from_sexpr("(Y (Z))")] * 20, self.CONFIG)
        assert a.encoder.encode(("A", (("B", ()),))) != b.encoder.encode(
            ("A", (("B", ()),))
        )
        with pytest.raises(ConfigError, match="encoder"):
            a.merge(b)
        with pytest.raises(ConfigError, match="encoder"):
            CounterView([a, b])

    def test_shared_encoder_combines(self):
        a = synopsis([from_sexpr("(A (B))")] * 20, self.CONFIG)
        b = a.empty_like()
        b.update_batch([from_sexpr("(Y (Z))")] * 20)
        merged = a.merge(b)
        assert merged.encoder is a.encoder
        for query in ["(A (B))", "(Y (Z))"]:
            answer = CounterView([a, b]).estimate_ordered(query)
            assert answer == merged.estimate_ordered(query)
            assert answer == pytest.approx(20, abs=2)


def per_residue_sum(reads: CounterReads, values) -> float:
    """One Theorem 2 estimate per residue, added in residue order: the
    loop the grouped pass replaced, kept here as its oracle."""
    by_residue = reads._by_residue(values)
    total = 0.0
    for residue in sorted(by_residue):
        matrix = reads.sketch(residue)
        if matrix is None:
            continue
        stream_values = by_residue[residue]
        adjust = reads.adjustment(residue, stream_values)
        total += matrix.estimate_sum(stream_values, adjust=adjust)
    return total


SUM_CORPORA = {"dblp": DblpGenerator, "treebank": TreebankGenerator}


@functools.lru_cache(maxsize=None)
def sum_fixture(name: str, corpus: str):
    """A synopsis of 40 generated trees under ``SUM_CONFIGS[name]``, the
    counter reads to check (its streams, its view and, where the encoding
    lets synopses compose, a two-source view), and its encoded values."""
    config = SUM_CONFIGS[name]
    trees = list(SUM_CORPORA[corpus](seed=4).generate(40))
    whole = synopsis(trees, config)
    reads = [whole.streams, whole.view()]
    if config.mapping != "pairing":
        reads.append(CounterView([synopsis(trees[:15], config), synopsis(trees[15:], config)]))
    patterns, _ = collect_forest_patterns(trees, config.max_pattern_edges)
    values = list(dict.fromkeys(whole.encoder.encode_batch(patterns)))
    return whole, reads, values


class TestGroupedSum:
    """``estimate_sum_grouped``'s one pass equals the per-residue loop
    bit for bit, across configurations and corpora."""

    @pytest.mark.parametrize("corpus", sorted(SUM_CORPORA))
    @pytest.mark.parametrize("name", sorted(SUM_CONFIGS))
    def test_matches_per_residue_loop(self, name, corpus):
        whole, reads, values = sum_fixture(name, corpus)
        tracked = list(whole.tracked())
        assert tracked or not whole.config.topk_size
        rng = random.Random(f"{name}-{corpus}")
        for _ in range(40):
            size = rng.choice([1, 2, 3, 8, 40, 200])
            chosen = rng.sample(values, min(size, len(values)))
            chosen += rng.sample(tracked, min(rng.randint(0, 3), len(tracked)))
            chosen += [rng.getrandbits(40) for _ in range(rng.randint(0, 2))]
            for counter_reads in reads:
                got = counter_reads.estimate_sum_grouped(chosen)
                assert got.hex() == per_residue_sum(counter_reads, chosen).hex()

    @pytest.mark.parametrize("name", ["topk", "even_s2", "pairing"])
    def test_spans_several_xi_chunks(self, name):
        """More values than one ``sign_rows`` chunk: groups straddle the
        chunk boundary."""
        whole, reads, values = sum_fixture(name, "dblp")
        rng = random.Random(name)
        chosen = values + [rng.getrandbits(40) for _ in range(_CHUNK + 50 - len(values))]
        rng.shuffle(chosen)
        assert len(chosen) > _CHUNK
        for counter_reads in reads:
            got = counter_reads.estimate_sum_grouped(chosen)
            assert got.hex() == per_residue_sum(counter_reads, chosen).hex()

    def test_no_allocated_stream_is_zero(self):
        empty = SketchTree(SUM_CONFIGS["default"])
        assert empty.streams.estimate_sum_grouped([1, 2, 3]) == 0.0
        assert empty.view().estimate_sum_grouped([]) == 0.0
