"""End-to-end tests for the SketchTree synopsis."""

import numpy as np
import pytest

from repro import (
    Count,
    ExactCounter,
    QueryNode,
    SketchTree,
    SketchTreeConfig,
)
from repro.errors import ConfigError, QueryError
from repro.trees import from_sexpr

CONFIG = SketchTreeConfig(
    s1=60, s2=7, max_pattern_edges=3, n_virtual_streams=31, seed=7
)

STREAM = [
    "(A (B) (C))",
    "(A (C) (B))",
    "(A (B (C)))",
    "(A (B) (C))",
    "(X (A (B)))",
    "(A (B) (B))",
]


def build(config=CONFIG, repeat=10):
    synopsis = SketchTree(config)
    exact = ExactCounter(config.max_pattern_edges)
    for _ in range(repeat):
        for text in STREAM:
            tree = from_sexpr(text)
            synopsis.update(tree)
            exact.update(tree)
    return synopsis, exact


class TestEndToEnd:
    def test_ordered_estimates_match_exact(self):
        synopsis, exact = build()
        for sexpr in ["(A (B) (C))", "(A (B (C)))", "(A (B))", "(X (A))"]:
            pattern = from_sexpr(sexpr).to_nested()
            estimate = synopsis.estimate_ordered(pattern)
            actual = exact.count_ordered(pattern)
            assert abs(estimate - actual) <= max(5, 0.3 * actual)

    def test_absent_pattern_near_zero(self):
        synopsis, _ = build()
        assert abs(synopsis.estimate_ordered("(Z (Q))")) < 10

    def test_unordered(self):
        synopsis, exact = build()
        pattern = from_sexpr("(A (B) (C))").to_nested()
        estimate = synopsis.estimate_unordered(pattern)
        actual = exact.count_unordered(pattern)
        assert abs(estimate - actual) <= max(5, 0.3 * actual)

    def test_sum(self):
        synopsis, exact = build()
        patterns = [
            from_sexpr("(A (B))").to_nested(),
            from_sexpr("(A (C))").to_nested(),
        ]
        estimate = synopsis.estimate_sum(patterns)
        actual = exact.count_sum(patterns)
        assert abs(estimate - actual) <= max(6, 0.3 * actual)

    def test_sum_accepts_a_generator(self):
        # estimate_sum takes Iterable: a one-shot generator must give
        # the same answer as the equivalent list (SKL301 bug class).
        synopsis, _ = build()
        patterns = [
            from_sexpr("(A (B))").to_nested(),
            from_sexpr("(A (C))").to_nested(),
        ]
        from_list = synopsis.estimate_sum(patterns)
        from_generator = synopsis.estimate_sum(p for p in patterns)
        assert from_generator == from_list

    def test_sum_rejects_duplicates(self):
        synopsis, _ = build(repeat=1)
        with pytest.raises(QueryError):
            synopsis.estimate_sum(["(A (B))", "(A (B))"])

    def test_or_query(self):
        synopsis, exact = build()
        estimate = synopsis.estimate_or("(A (B|C))")
        actual = exact.count_sum(
            [("A", (("B", ()),)), ("A", (("C", ()),))]
        )
        assert abs(estimate - actual) <= max(6, 0.3 * actual)

    def test_expression(self):
        synopsis, exact = build()
        expression = Count("(A (B))") - Count("(A (C))")
        estimate = synopsis.estimate_expression(expression)
        actual = exact.evaluate_expression(expression)
        assert abs(estimate - actual) <= 20

    def test_product_expression_needs_independence(self):
        synopsis, _ = build(repeat=1)
        product3 = Count("(A (B))") * Count("(A (C))") * Count("(X (A))")
        with pytest.raises(ConfigError):
            synopsis.estimate_expression(product3)

    def test_product_expression_with_independence(self):
        config = SketchTreeConfig(
            s1=120, s2=7, max_pattern_edges=3, n_virtual_streams=31,
            independence=6, seed=7,
        )
        synopsis = SketchTree(config)
        exact = ExactCounter(3)
        for _ in range(20):
            for text in STREAM:
                tree = from_sexpr(text)
                synopsis.update(tree)
                exact.update(tree)
        expression = Count("(A (B))") * Count("(A (C))")
        estimate = synopsis.estimate_expression(expression)
        actual = exact.evaluate_expression(expression)
        assert actual > 0
        assert abs(estimate - actual) <= 0.8 * actual

    def test_query_too_large_rejected(self):
        synopsis, _ = build(repeat=1)
        synopsis.estimate_ordered("(A (B (C (D))))")  # 3 edges: allowed
        with pytest.raises(QueryError):
            synopsis.estimate_ordered("(A (B (C (D (E)))))")  # 4 edges

    def test_zero_edge_query_rejected(self):
        synopsis, _ = build(repeat=1)
        with pytest.raises(QueryError):
            synopsis.estimate_ordered("A")

    def test_query_coercion_forms(self):
        synopsis, _ = build()
        tree = from_sexpr("(A (B))")
        nested = tree.to_nested()
        node = QueryNode.from_sexpr("(A (B))")
        values = {
            synopsis.estimate_ordered("(A (B))"),
            synopsis.estimate_ordered(tree),
            synopsis.estimate_ordered(nested),
            synopsis.estimate_ordered(node),
        }
        assert len(values) == 1

    def test_bad_query_type(self):
        synopsis, _ = build(repeat=1)
        with pytest.raises(QueryError):
            synopsis.estimate_ordered(42)


class TestIngestionPaths:
    def test_bulk_counts_equals_streaming(self):
        a = SketchTree(CONFIG)
        exact = ExactCounter(CONFIG.max_pattern_edges)
        for text in STREAM:
            tree = from_sexpr(text)
            a.update(tree)
            exact.update(tree)
        b = SketchTree(CONFIG)
        b.ingest_counts(exact.counts, n_trees=exact.n_trees)
        for residue, matrix in a.streams.iter_sketches():
            other = b.streams.sketch(residue)
            assert other is not None
            assert np.array_equal(matrix.counters, other.counters)
        assert a.n_values == b.n_values
        assert a.n_trees == b.n_trees

    def test_ingest_value_counts_with_pinned_encoder(self):
        from repro.core import PatternEncoder

        config = SketchTreeConfig(
            s1=40, s2=5, max_pattern_edges=2, n_virtual_streams=31,
            seed=1, encoder_seed=99,
        )
        encoder = PatternEncoder(seed=99)
        pattern = ("A", (("B", ()),))
        synopsis = SketchTree(config)
        synopsis.ingest_value_counts({encoder.encode(pattern): 25})
        assert synopsis.estimate_ordered(pattern) == pytest.approx(25.0)

    def test_update_from_patterns_matches_update(self):
        from repro.enumtree import enumerate_patterns

        tree = from_sexpr("(A (B) (C (D)))")
        k = CONFIG.max_pattern_edges
        via_tree = SketchTree(CONFIG)
        via_tree.update(tree)
        via_patterns = SketchTree(CONFIG)
        via_patterns.update_from_patterns(enumerate_patterns(tree, k))
        for residue, matrix in via_tree.streams.iter_sketches():
            other = via_patterns.streams.sketch(residue)
            assert other is not None
            assert np.array_equal(matrix.counters, other.counters)
        assert via_patterns.n_trees == 1
        assert via_patterns.n_values == via_tree.n_values

    def test_update_from_patterns_empty_document_counts_tree(self):
        synopsis = SketchTree(CONFIG)
        synopsis.update_from_patterns([])  # a single-node document
        assert synopsis.n_trees == 1
        assert synopsis.n_values == 0

    def test_delete_tree_inverts_update(self):
        synopsis = SketchTree(CONFIG)
        tree = from_sexpr("(A (B) (C))")
        other = from_sexpr("(A (B (C)))")
        synopsis.update(other)
        snapshot = {
            r: m.counters.copy() for r, m in synopsis.streams.iter_sketches()
        }
        synopsis.update(tree)
        synopsis.delete_tree(tree)
        for residue, matrix in synopsis.streams.iter_sketches():
            before = snapshot.get(residue)
            if before is None:
                assert not matrix.counters.any()
            else:
                assert np.array_equal(matrix.counters, before)
        assert synopsis.n_trees == 1

    def test_config_kwargs_constructor(self):
        synopsis = SketchTree(s1=10, s2=3, n_virtual_streams=31)
        assert synopsis.config.s1 == 10
        with pytest.raises(ConfigError):
            SketchTree(CONFIG, s1=10)


class TestTopKIntegration:
    def test_topk_improves_small_count_estimates(self):
        # One dominant pattern plus rare ones: with top-k the rare
        # estimates tighten because the heavy value leaves the sketch.
        heavy = from_sexpr("(H (H1) (H2))")
        rare = from_sexpr("(R (R1))")
        trees = [heavy] * 300 + [rare] * 5
        base = dict(s1=15, s2=5, max_pattern_edges=2, n_virtual_streams=1)
        errors = {}
        for topk in (0, 3):
            per_seed = []
            for seed in range(5):
                synopsis = SketchTree(
                    SketchTreeConfig(**base, topk_size=topk, seed=seed)
                )
                synopsis.ingest(trees)
                estimate = synopsis.estimate_ordered("(R (R1))")
                per_seed.append(abs(estimate - 5))
            errors[topk] = np.mean(per_seed)
        assert errors[3] <= errors[0]

    def test_tracked_query_compensated(self):
        heavy = from_sexpr("(H (H1))")
        config = SketchTreeConfig(
            s1=40, s2=5, max_pattern_edges=2, n_virtual_streams=31,
            topk_size=2, seed=3,
        )
        synopsis = SketchTree(config)
        for _ in range(200):
            synopsis.update(heavy)
        # The heavy pattern is (almost surely) tracked and deleted; the
        # query-time adjustment must restore its count.
        estimate = synopsis.estimate_ordered("(H (H1))")
        assert estimate == pytest.approx(200.0, abs=20)


class TestPersistence:
    def test_serde_roundtrip(self):
        synopsis, _ = build()
        clone = SketchTree.from_bytes(synopsis.to_bytes())
        assert clone.n_trees == synopsis.n_trees
        assert clone.estimate_ordered("(A (B))") == synopsis.estimate_ordered(
            "(A (B))"
        )

    def test_serde_preserves_topk(self):
        config = SketchTreeConfig(
            s1=40, s2=5, max_pattern_edges=2, n_virtual_streams=31,
            topk_size=2, seed=3,
        )
        synopsis = SketchTree(config)
        for _ in range(100):
            synopsis.update(from_sexpr("(H (H1))"))
        clone = SketchTree.from_bytes(synopsis.to_bytes())
        assert clone.estimate_ordered("(H (H1))") == synopsis.estimate_ordered(
            "(H (H1))"
        )

    def test_merge(self):
        half_a = [from_sexpr(s) for s in STREAM[:3]]
        half_b = [from_sexpr(s) for s in STREAM[3:]]
        a = SketchTree(CONFIG).ingest(half_a)
        b = SketchTree(CONFIG).ingest(half_b)
        whole = SketchTree(CONFIG).ingest(half_a + half_b)
        merged = a.merge(b)
        assert merged.estimate_ordered("(A (B))") == whole.estimate_ordered(
            "(A (B))"
        )
        assert merged.n_trees == whole.n_trees

    def test_merge_requires_same_config(self):
        a = SketchTree(CONFIG)
        b = SketchTree(SketchTreeConfig(s1=10, s2=3, n_virtual_streams=31))
        with pytest.raises(ConfigError):
            a.merge(b)

    def test_merge_accepts_topk(self):
        """The fold/unfold protocol makes top-k operands mergeable; the
        detailed semantics live in tests/test_topk_merge.py."""
        config = SketchTreeConfig(
            s1=20, s2=3, n_virtual_streams=31, topk_size=2, seed=4
        )
        a, b = SketchTree(config), SketchTree(config)
        a.update(from_sexpr("(A (B))"))
        b.update(from_sexpr("(A (C))"))
        merged = a.merge(b)
        assert merged.n_trees == 2


class TestExtendedQueries:
    def test_extended_query_via_own_summary(self):
        config = SketchTreeConfig(
            s1=60, s2=7, max_pattern_edges=3, n_virtual_streams=31,
            maintain_summary=True, seed=2,
        )
        synopsis = SketchTree(config)
        exact = ExactCounter(3)
        for _ in range(20):
            for text in ["(A (B (C)))", "(A (C))", "(A (D))"]:
                tree = from_sexpr(text)
                synopsis.update(tree)
                exact.update(tree)
        query = QueryNode.from_sexpr("(A (//C))")
        estimate = synopsis.estimate_extended(query)
        actual = exact.count_sum(
            [("A", (("C", ()),)), ("A", (("B", (("C", ()),)),))]
        )
        assert abs(estimate - actual) <= max(6, 0.3 * actual)

    def test_extended_query_requires_summary(self):
        synopsis = SketchTree(CONFIG)
        with pytest.raises(QueryError):
            synopsis.estimate_extended(QueryNode.from_sexpr("(A (//C))"))

    def test_extended_query_external_summary(self):
        from repro import StructuralSummary

        synopsis, _ = build()
        summary = StructuralSummary()
        for text in STREAM:
            summary.add_tree(from_sexpr(text))
        estimate = synopsis.estimate_extended(
            QueryNode.from_sexpr("(A (*))"), summary=summary
        )
        assert estimate > 0

    def test_unresolvable_extended_query_is_zero(self):
        config = SketchTreeConfig(
            s1=10, s2=3, n_virtual_streams=31, maintain_summary=True
        )
        synopsis = SketchTree(config)
        synopsis.update(from_sexpr("(A (B))"))
        assert synopsis.estimate_extended(QueryNode.from_sexpr("(Z (//Q))")) == 0.0
