"""Tests for the structural summary and * / // query resolution."""

import functools
import math
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.query.summary as summary_module
from repro.datasets import DblpGenerator, TreebankGenerator, XMarkGenerator
from repro.errors import PatternError, QueryError
from repro.query import QueryNode, StructuralSummary, parse_xpath
from repro.query.pattern import MAX_PATTERNS, pattern_edges
from repro.query.summary import WILDCARD
from repro.trees import from_sexpr


def summary_of(*sexprs: str) -> StructuralSummary:
    summary = StructuralSummary()
    summary.add_trees(from_sexpr(s) for s in sexprs)
    return summary


class TestQueryNode:
    def test_from_sexpr_plain(self):
        query = QueryNode.from_sexpr("(A (B) (C))")
        assert query.label == "A"
        assert [c.label for c in query.children] == ["B", "C"]
        assert query.is_plain()

    def test_from_sexpr_descendant_and_wildcard(self):
        query = QueryNode.from_sexpr("(A (//B) (*))")
        assert query.children[0].edge == "descendant"
        assert query.children[1].label == "*"
        assert not query.is_plain()

    def test_descendant_prefix_requires_label(self):
        with pytest.raises(PatternError):
            QueryNode.from_sexpr("(A (//))")

    def test_to_pattern_plain_only(self):
        assert QueryNode.from_sexpr("(A (B))").to_pattern() == ("A", (("B", ()),))
        with pytest.raises(QueryError):
            QueryNode.from_sexpr("(A (//B))").to_pattern()
        with pytest.raises(QueryError):
            QueryNode.from_sexpr("(* (B))").to_pattern()

    def test_invalid_edge_kind(self):
        with pytest.raises(PatternError):
            QueryNode("A", edge="sibling")


class TestSummaryConstruction:
    def test_counts_distinct_paths(self):
        summary = summary_of("(A (B) (C))", "(A (B (D)))")
        # Paths: A, A/B, A/C, A/B/D.
        assert summary.n_paths == 4

    def test_incremental(self):
        summary = StructuralSummary()
        summary.add_tree(from_sexpr("(A (B))"))
        assert summary.n_paths == 2
        summary.add_tree(from_sexpr("(A (B))"))
        assert summary.n_paths == 2  # no new paths
        summary.add_tree(from_sexpr("(X (B))"))
        assert summary.n_paths == 4


class TestResolution:
    def test_paper_figure7_wildcard(self):
        # Summary: A with children B and C, B with child C.
        summary = summary_of("(A (B (C)) (C))")
        query = QueryNode.from_sexpr("(A (*))")
        resolved = summary.resolve(query)
        assert resolved == {
            ("A", (("B", ()),)),
            ("A", (("C", ()),)),
        }

    def test_paper_figure7_descendant(self):
        # Q2 = A//C resolves to A/C and A/B/C, materialising B.
        summary = summary_of("(A (B (C)) (C))")
        query = QueryNode.from_sexpr("(A (//C))")
        resolved = summary.resolve(query)
        assert resolved == {
            ("A", (("C", ()),)),
            ("A", (("B", (("C", ()),)),)),
        }

    def test_query_anchors_anywhere(self):
        summary = summary_of("(R (A (B)))")
        resolved = summary.resolve(QueryNode.from_sexpr("(A (B))"))
        assert resolved == {("A", (("B", ()),))}

    def test_unmatchable_query_empty(self):
        summary = summary_of("(A (B))")
        assert summary.resolve(QueryNode.from_sexpr("(A (Z))")) == set()

    def test_wildcard_root(self):
        summary = summary_of("(A (X))", "(B (X))")
        resolved = summary.resolve(QueryNode.from_sexpr("(* (X))"))
        assert resolved == {("A", (("X", ()),)), ("B", (("X", ()),))}

    def test_descendant_with_wildcard_target(self):
        summary = summary_of("(A (B (C)))")
        resolved = summary.resolve(QueryNode.from_sexpr("(A (//*))"))
        assert resolved == {
            ("A", (("B", ()),)),
            ("A", (("B", (("C", ()),)),)),
        }

    def test_multi_branch(self):
        summary = summary_of("(A (B) (C))")
        resolved = summary.resolve(QueryNode.from_sexpr("(A (*) (*))"))
        # Each wildcard child resolves independently to B or C.
        assert ("A", (("B", ()), ("C", ()))) in resolved

    def test_max_edges_enforced(self):
        summary = summary_of("(A (B (C (D (E)))))")
        query = QueryNode.from_sexpr("(A (//E))")
        with pytest.raises(QueryError):
            summary.resolve(query, max_edges=2)

    def test_resolved_patterns_consistent_with_data(self):
        # Resolution must never invent patterns the summary cannot contain.
        summary = summary_of("(A (B (C)))", "(A (D))")
        resolved = summary.resolve(QueryNode.from_sexpr("(A (//C))"))
        assert resolved == {("A", (("B", (("C", ()),)),))}

    def test_resolution_total_count_identity(self):
        """Sum of resolved-pattern counts equals the extended query's
        ground-truth count (single-branch case, the paper's identity)."""
        from repro.core import ExactCounter

        trees = [
            from_sexpr("(A (B (C)) (C))"),
            from_sexpr("(A (C))"),
            from_sexpr("(A (B (C)))"),
        ]
        summary = StructuralSummary()
        summary.add_trees(trees)
        exact = ExactCounter(3).ingest(trees)
        resolved = summary.resolve(QueryNode.from_sexpr("(A (//C))"))
        total = exact.count_sum(resolved)
        # Direct count: A/C occurs in trees 1 and 2 (2 total) and A/B/C in
        # trees 1 and 3 (2 total).
        assert total == 2 + 2


# ---------------------------------------------------------------------------
# The full-walk resolver the label index replaced, kept as its oracle
# ---------------------------------------------------------------------------


def full_walk_resolve(summary, query, max_edges=None):
    """Every trie node is a candidate start and every child dict is
    scanned: the resolver before the label index, unchanged."""
    out = set()
    starts = []
    stack = list(summary._roots.values())
    while stack:
        node = stack.pop()
        if query.label == WILDCARD or node.label == query.label:
            starts.append(node)
        stack.extend(node.children.values())
    for start in starts:
        out.update(_full_walk_expand(query, start))
    if max_edges is not None:
        oversize = [p for p in out if pattern_edges(p) > max_edges]
        if oversize:
            raise QueryError(f"{len(oversize)} pattern(s) larger than k={max_edges}")
    return out


def _full_walk_expand(query, trie):
    label = trie.label
    child_option_sets = []
    for q_child in query.children:
        options = set()
        if q_child.edge == "child":
            for t_child in trie.children.values():
                if q_child.label in (WILDCARD, t_child.label):
                    options.update(_full_walk_expand(q_child, t_child))
        else:
            for chain, t_node in _full_walk_descendants(trie):
                if q_child.label in (WILDCARD, t_node.label):
                    for sub in _full_walk_expand(q_child, t_node):
                        for interior in reversed(chain):
                            sub = (interior, (sub,))
                        options.add(sub)
        if not options:
            return set()
        child_option_sets.append(options)
    out = set()
    _full_walk_product(label, child_option_sets, (), out)
    return out


def _full_walk_descendants(trie):
    stack = [((), child) for child in trie.children.values()]
    while stack:
        chain, node = stack.pop()
        yield chain, node
        for child in node.children.values():
            stack.append((chain + (node.label,), child))


def _full_walk_product(label, option_sets, prefix, out):
    if not option_sets:
        out.add((label, prefix))
        return
    for option in option_sets[0]:
        _full_walk_product(label, option_sets[1:], prefix + (option,), out)


CORPORA = {"dblp": DblpGenerator, "treebank": TreebankGenerator, "xmark": XMarkGenerator}
ABSENT = "no-such-label"


@functools.lru_cache(maxsize=None)
def corpus_summary(corpus: str, variant: str) -> StructuralSummary:
    """60 generated trees' summary: built online, unioned from two halves
    with ``merge()``, or round-tripped through ``to_dict``/``from_dict``."""
    trees = list(CORPORA[corpus](seed=2).generate(60))
    if variant == "merged":
        first, second = StructuralSummary(), StructuralSummary()
        first.add_trees(trees[:30])
        second.add_trees(trees[30:])
        return first.merge(second)
    built = StructuralSummary()
    built.add_trees(trees)
    if variant == "round_tripped":
        return StructuralSummary.from_dict(built.to_dict())
    return built


def summary_labels(summary: StructuralSummary) -> tuple[list[str], list[str]]:
    """(labels of nodes with children, labels of leaves), from ``to_dict``."""
    inner, leaves = set(), set()
    stack = [summary.to_dict()]
    while stack:
        packed = stack.pop()
        for label, sub in packed.items():
            (inner if sub else leaves).add(label)
            stack.append(sub)
    return sorted(inner), sorted(leaves - inner)


@st.composite
def extended_queries(draw, inner: list[str], leaves: list[str]) -> QueryNode:
    """Up to four query nodes: ``*`` roots and children, ``//`` edges,
    present labels and an absent one."""
    label = st.one_of(
        st.just(WILDCARD),
        st.sampled_from(inner),
        st.sampled_from(leaves),
        st.just(ABSENT),
    )
    n_nodes = draw(st.integers(1, 4))
    parents = [draw(st.integers(0, index - 1)) for index in range(1, n_nodes)]
    labels = [draw(label) for _ in range(n_nodes)]
    edges = [draw(st.sampled_from(("child", "descendant"))) for _ in range(n_nodes)]

    def build(index: int) -> QueryNode:
        kids = [i for i in range(1, n_nodes) if parents[i - 1] == index]
        return QueryNode(labels[index], tuple(build(kid) for kid in kids), edges[index])

    return build(0)


class TestIndexedResolution:
    """The label-index resolver returns exactly the full walk's set, and
    refuses exactly the resolutions the full walk refuses or returns
    over :data:`~repro.query.pattern.MAX_PATTERNS`."""

    @pytest.mark.parametrize("variant", ["built", "merged", "round_tripped"])
    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_matches_full_walk(self, corpus, variant, data):
        summary = corpus_summary(corpus, variant)
        inner, leaves = summary_labels(summary)
        for _ in range(3):
            query = data.draw(extended_queries(inner, leaves))
            max_edges = data.draw(st.sampled_from([None, 3]))
            try:
                expected = full_walk_resolve(summary, query, max_edges)
            except QueryError:
                expected = None
            if expected is None or len(expected) > MAX_PATTERNS:
                with pytest.raises(QueryError):
                    summary.resolve(query, max_edges)
            else:
                assert summary.resolve(query, max_edges) == expected

    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_every_node_indexed_and_linked(self, corpus):
        """The index invariant, for every way a node can be created."""
        for variant in ("built", "merged", "round_tripped"):
            summary = corpus_summary(corpus, variant)
            seen = 0
            stack = [(None, root) for root in summary._roots.values()]
            while stack:
                parent, node = stack.pop()
                seen += 1
                assert node.parent is parent
                assert any(entry is node for entry in summary._by_label[node.label])
                stack.extend((node, child) for child in node.children.values())
            assert seen == summary.n_paths
            assert sum(map(len, summary._by_label.values())) == summary.n_paths

    def test_wildcard_root_anchors_on_a_concrete_child(self):
        summary = summary_of("(R (A (X) (Y)) (B (X)) (C (Y)))")
        resolved = summary.resolve(parse_xpath("*[*]/X"))
        assert resolved == {
            ("A", (("X", ()), ("X", ()))),
            ("A", (("Y", ()), ("X", ()))),
            ("B", (("X", ()), ("X", ()))),
        }

    def test_wildcard_root_absent_anchor_is_empty(self):
        summary = summary_of("(R (A (X)))")
        assert summary.resolve(parse_xpath(f"*[*]/{ABSENT}")) == set()


class TestResolutionCap:
    def dblp_summary(self):
        summary = StructuralSummary()
        summary.add_trees(DblpGenerator(seed=1).generate(200))
        return summary

    def test_shared_with_arrangements(self):
        from repro.query.pattern import arrangements

        assert arrangements.__defaults__ == (MAX_PATTERNS,)

    def test_refused_before_its_product_is_built(self, monkeypatch):
        summary = self.dblp_summary()
        built = []

        def counting_product(*option_sets):
            built.append(math.prod(len(options) for options in option_sets))
            return product(*option_sets)

        product = summary_module.product
        monkeypatch.setattr(summary_module, "product", counting_product)
        with pytest.raises(QueryError, match=f"more than {MAX_PATTERNS}"):
            summary.resolve(parse_xpath("*[*][*]/*"))
        assert built and max(built) <= MAX_PATTERNS

    def test_union_over_the_cap_is_refused(self):
        """No single product passes the cap, but the union over start
        nodes does."""
        leaves = " ".join(f"(C{j})" for j in range(20))
        summary = summary_of(*(f"(R{i} {leaves})" for i in range(30)))
        query = parse_xpath("*[*]/*")
        assert len(full_walk_resolve(summary, query)) == 30 * 20 * 20 > MAX_PATTERNS
        with pytest.raises(QueryError, match=f"more than {MAX_PATTERNS}"):
            summary.resolve(query)

    def test_empty_sibling_outranks_an_oversize_one(self):
        """An oversize branch beside one the data cannot hold resolves to
        nothing, as the full walk does."""
        wide = " ".join(f"(C{i})" for i in range(25))
        summary = summary_of(f"(R (N {wide}))")
        query = QueryNode(
            "R",
            (
                QueryNode("N", (QueryNode(WILDCARD),) * 3),
                QueryNode(ABSENT),
            ),
        )
        assert full_walk_resolve(summary, query) == set()
        assert summary.resolve(query) == set()


def spin_until(condition, seconds: float = 60.0) -> None:
    """Busy-wait for ``condition()``; raise ``TimeoutError`` past ``seconds``."""
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            raise TimeoutError("the other thread stopped making progress")


class TestConcurrentReaders:
    """One writer grows the summary while a reader resolves and unions:
    readers iterate only snapshots, so nothing raises mid-growth."""

    PRELOAD = 1500
    ROUNDS = 50
    PER_ROUND = 10

    def test_reads_race_the_writer_safely(self):
        # New paths in both places a reader iterates: under one hub node
        # and among the roots.  The preload makes every read long enough
        # for writes to land inside it.
        trees = [
            from_sexpr(f"(a (c{i} (g)))" if i % 2 else f"(r{i} (b))")
            for i in range(self.PRELOAD + self.ROUNDS * self.PER_ROUND)
        ]
        summary = StructuralSummary()
        summary.add_trees(trees[: self.PRELOAD])
        growth = trees[self.PRELOAD :]
        queries = [parse_xpath("a//g"), parse_xpath("*/b")]
        started, written = [-1], [-1]
        errors = []

        def writer():
            # Batch r goes in while the reader runs round r.
            try:
                for round_ in range(self.ROUNDS):
                    spin_until(lambda r=round_: started[0] >= r)
                    lo = round_ * self.PER_ROUND
                    for tree in growth[lo : lo + self.PER_ROUND]:
                        summary.add_tree(tree)
                    written[0] = round_
            except Exception as exc:
                errors.append(exc)
            finally:
                written[0] = self.ROUNDS

        def reader():
            try:
                for round_ in range(self.ROUNDS):
                    spin_until(lambda r=round_: written[0] >= r - 1)
                    started[0] = round_
                    for query in queries:
                        summary.resolve(query)
                    StructuralSummary().update(summary)
            except Exception as exc:
                errors.append(exc)
            finally:
                started[0] = self.ROUNDS

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        serial = StructuralSummary()
        serial.add_trees(trees)
        for query in queries:
            assert summary.resolve(query) == serial.resolve(query)
            assert summary.resolve(query) == full_walk_resolve(serial, query)
