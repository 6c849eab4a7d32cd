"""Tests for the labeled-tree substrate (nodes, trees, builders, stats)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import TreeError
from repro.trees import (
    ForestStatistics,
    LabeledTree,
    TreeNode,
    TreeStatistics,
    from_nested,
    from_sexpr,
    to_sexpr,
)
from repro.trees.builders import SEXPR_TOKEN, pattern_from_sexpr
from tests.strategies import labeled_trees, nested_trees


def char_loop_tokens(text: str) -> list[str]:
    """The character-loop tokenizer the compiled lexer replaced."""
    tokens: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def recursive_sexpr(text: str) -> tuple:
    """The recursive-descent parse ``from_sexpr`` used to run, to nested
    form: the oracle for :func:`pattern_from_sexpr`, messages included."""
    tokens = char_loop_tokens(text)
    if not tokens:
        raise TreeError("empty s-expression")
    pos = 0

    def parse_node() -> tuple:
        nonlocal pos
        if tokens[pos] == "(":
            pos += 1
            if pos >= len(tokens) or tokens[pos] in "()":
                raise TreeError("expected a label after '('")
            label, kids = tokens[pos], []
            pos += 1
            while pos < len(tokens) and tokens[pos] != ")":
                kids.append(parse_node())
            if pos >= len(tokens):
                raise TreeError("unbalanced s-expression: missing ')'")
            pos += 1  # consume ')'
            return (label, tuple(kids))
        if tokens[pos] == ")":
            raise TreeError("unexpected ')'")
        pos += 1
        return (tokens[pos - 1], ())

    root = parse_node()
    if pos != len(tokens):
        raise TreeError(f"trailing tokens after tree: {tokens[pos:]!r}")
    return root


def outcome(parse, text: str):
    try:
        return "ok", parse(text)
    except TreeError as exc:
        return "error", str(exc)


#: S-expression-ish strings: parentheses, assorted Unicode whitespace and
#: short labels (some with characters ``str.isspace`` rejects).
sexpr_texts = st.lists(
    st.one_of(
        st.sampled_from(["(", ")", "((", "))"]),
        st.sampled_from([" ", "\t", "\n", "\x0b", "\x1c", "\x85", "\u2003", "\u3000"]),
        st.sampled_from(["A", "B", "NP", "//C", "*", "a|b", "\u00e9", "\u200b", "x-1"]),
    ),
    max_size=14,
).map("".join)


class TestTreeNode:
    def test_label_and_children(self):
        node = TreeNode("A")
        child = node.add("B")
        assert node.label == "A"
        assert node.children == [child]
        assert child.is_leaf

    def test_rejects_empty_label(self):
        with pytest.raises(TreeError):
            TreeNode("")

    def test_rejects_non_string_label(self):
        with pytest.raises(TreeError):
            TreeNode(42)

    def test_rejects_non_node_child(self):
        with pytest.raises(TreeError):
            TreeNode("A").add_child("B")

    def test_size(self):
        node = TreeNode("A")
        node.add("B").add("C")
        node.add("D")
        assert node.size() == 4

    def test_preorder(self):
        node = TreeNode("A")
        b = node.add("B")
        b.add("C")
        node.add("D")
        assert [n.label for n in node.iter_preorder()] == ["A", "B", "C", "D"]

    def test_to_nested(self):
        node = TreeNode("A", [TreeNode("B"), TreeNode("C")])
        assert node.to_nested() == ("A", (("B", ()), ("C", ())))

    def test_copy_is_deep(self):
        node = TreeNode("A")
        node.add("B")
        clone = node.copy()
        clone.children[0].label = "X"
        assert node.children[0].label == "B"

    def test_deep_tree_to_nested_no_recursion_error(self):
        root = TreeNode("A")
        tip = root
        for _ in range(5000):
            tip = tip.add("A")
        nested = root.to_nested()
        depth = 0
        while nested[1]:
            nested = nested[1][0]
            depth += 1
        assert depth == 5000


class TestLabeledTree:
    def test_postorder_numbering_matches_paper_convention(self):
        # Figure 6(a)-style: nodes numbered in postorder, root last.
        tree = from_sexpr("(A (B) (C (D) (E)))")
        assert tree.labels == ("B", "D", "E", "C", "A")
        assert tree.root == 5
        assert tree.label_of(5) == "A"

    def test_parents(self):
        tree = from_sexpr("(A (B) (C (D) (E)))")
        assert tree.parents == (5, 4, 4, 5, 0)

    def test_children_document_order(self):
        tree = from_sexpr("(A (B) (C (D) (E)))")
        assert tree.children_of(5) == (1, 4)
        assert tree.children_of(4) == (2, 3)
        assert tree.children_of(1) == ()

    def test_single_node(self):
        tree = from_nested("A")
        assert tree.n_nodes == 1
        assert tree.n_edges == 0
        assert tree.depth() == 0
        assert tree.is_leaf(1)

    def test_iter_edges(self):
        tree = from_sexpr("(A (B) (C))")
        assert sorted(tree.iter_edges()) == [(3, 1), (3, 2)]

    def test_depth_and_fanout(self):
        tree = from_sexpr("(A (B (C (D))) (E))")
        assert tree.depth() == 3
        assert tree.max_fanout() == 2
        assert tree.leaf_count() == 2

    def test_label_path(self):
        tree = from_sexpr("(A (B (C)))")
        assert tree.label_path(1) == ("A", "B", "C")
        assert tree.label_path(tree.root) == ("A",)

    def test_equality_and_hash(self):
        a = from_sexpr("(A (B) (C))")
        b = from_sexpr("(A (B) (C))")
        c = from_sexpr("(A (C) (B))")
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_postorder_number_out_of_range(self):
        tree = from_sexpr("(A (B))")
        with pytest.raises(TreeError):
            tree.label_of(0)
        with pytest.raises(TreeError):
            tree.label_of(3)

    def test_to_node_roundtrip(self):
        tree = from_sexpr("(A (B (C) (D)) (E))")
        assert LabeledTree(tree.to_node()) == tree

    def test_constructor_copies_builder(self):
        node = TreeNode("A")
        node.add("B")
        tree = LabeledTree(node)
        node.add("C")  # mutating the builder must not affect the tree
        assert tree.n_nodes == 2

    def test_rejects_non_node_root(self):
        with pytest.raises(TreeError):
            LabeledTree("A")

    @given(labeled_trees())
    def test_nested_roundtrip(self, tree):
        assert from_nested(tree.to_nested()) == tree

    @given(labeled_trees())
    def test_parents_consistent_with_children(self, tree):
        for num in tree.iter_postorder():
            for kid in tree.children_of(num):
                assert tree.parent_of(kid) == num

    @given(labeled_trees())
    def test_postorder_parent_always_larger(self, tree):
        for parent, child in tree.iter_edges():
            assert parent > child

    @given(labeled_trees())
    def test_leaf_plus_internal_counts(self, tree):
        internal = sum(1 for n in tree.iter_postorder() if not tree.is_leaf(n))
        assert internal + tree.leaf_count() == tree.n_nodes


class TestBuilders:
    def test_from_nested_string_shorthand(self):
        assert from_nested("A").labels == ("A",)

    def test_from_nested_rejects_garbage(self):
        with pytest.raises(TreeError):
            from_nested(("A", "not-a-tuple"))
        with pytest.raises(TreeError):
            from_nested(123)

    def test_sexpr_single_label_without_parens(self):
        assert from_sexpr("A").labels == ("A",)

    def test_sexpr_nested(self):
        tree = from_sexpr("(A (B (C)) (D))")
        assert tree.to_nested() == ("A", (("B", (("C", ()),)), ("D", ())))

    def test_sexpr_unbalanced(self):
        with pytest.raises(TreeError):
            from_sexpr("(A (B)")

    def test_sexpr_trailing_tokens(self):
        with pytest.raises(TreeError):
            from_sexpr("(A) (B)")

    def test_sexpr_empty(self):
        with pytest.raises(TreeError):
            from_sexpr("   ")

    def test_sexpr_missing_label(self):
        with pytest.raises(TreeError):
            from_sexpr("(())")

    @given(labeled_trees())
    def test_sexpr_roundtrip(self, tree):
        assert from_sexpr(to_sexpr(tree)) == tree

    def test_sexpr_bare_child_label(self):
        assert pattern_from_sexpr("(A B (C D))") == (
            "A",
            (("B", ()), ("C", (("D", ()),))),
        )

    def test_sexpr_depth_beyond_recursion_limit(self):
        depth = 5000
        nested = pattern_from_sexpr("(A " * depth + ")" * depth)
        for _ in range(depth - 1):
            nested = nested[1][0]
        assert nested == ("A", ())


class TestOnePatternParser:
    """``pattern_from_sexpr`` parses exactly as the recursive parser it
    replaced, malformed input and error messages included."""

    @settings(max_examples=1500)
    @given(sexpr_texts)
    @example("(A) (B)")
    @example("(A (B")
    @example("((")
    @example(")")
    @example("A B")
    @example("(A B C)")
    def test_matches_recursive_parser(self, text):
        assert outcome(pattern_from_sexpr, text) == outcome(recursive_sexpr, text)

    @given(sexpr_texts)
    def test_from_sexpr_builds_the_parsed_tree(self, text):
        expected = outcome(recursive_sexpr, text)
        got = outcome(lambda t: from_sexpr(t).to_nested(), text)
        assert got == expected

    def test_lexer_drops_exactly_isspace(self):
        """The compiled lexer and ``str.isspace`` agree on every code
        point: the characters no token keeps are the whitespace ones."""
        text = "".join(map(chr, range(0x110000)))
        kept = set("".join(SEXPR_TOKEN.findall(text)))
        assert set(text) - kept == {ch for ch in text if ch.isspace()}


class TestStatistics:
    def test_tree_statistics(self):
        stats = TreeStatistics.of(from_sexpr("(A (B (C)) (B))"))
        assert stats.n_nodes == 4
        assert stats.n_edges == 3
        assert stats.depth == 2
        assert stats.max_fanout == 2
        assert stats.leaf_count == 2
        assert stats.n_distinct_labels == 3

    def test_forest_statistics(self):
        trees = [from_sexpr("(A (B))"), from_sexpr("(A (B (C)) (D))")]
        stats = ForestStatistics.of(trees)
        assert stats.n_trees == 2
        assert stats.total_nodes == 6
        assert stats.mean_nodes == 3.0
        assert stats.max_depth == 2
        assert stats.n_distinct_labels == 4

    def test_forest_statistics_empty(self):
        stats = ForestStatistics.of([])
        assert stats.n_trees == 0
        assert stats.total_nodes == 0
