"""Online structural summary and ``*`` / ``//`` query resolution.

Section 6.2 of the paper: SketchTree itself only counts parent-child
patterns, but when a structural summary of the data can be maintained in
limited space, queries with wildcard nodes (``*``) and ancestor-descendant
edges (``//``) can be *resolved* into a set of distinct parent-child-only
patterns whose total frequency equals the original query's frequency —
which Theorem 2 already knows how to estimate.

The summary here is a dataguide-style trie: one node per distinct
root-to-node *label path* occurring in the stream, built incrementally as
trees arrive.  Its size is bounded by the number of distinct label paths,
which for real XML is tiny compared to the data (the usual dataguide
argument).

Queries are expressed with :class:`QueryNode`: a label (``"*"`` allowed),
children, and per-child edge kind (``"child"`` or ``"descendant"``).
Resolution walks the summary, materialising the concrete labels along
every possible descendant path, exactly as the paper's Figure 7 resolves
``A//C`` into ``A/C`` and ``A/B/C``.

Caveat (inherited from the paper): for patterns with *multiple* branches
under a ``//``, occurrences in which branches share interior nodes are
counted per resolved pattern; the paper's "sum of frequencies" identity is
exact for the single-branch resolutions it presents, and we keep the same
semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Iterable

from repro.errors import PatternError, QueryError
from repro.query.pattern import MAX_PATTERNS, pattern_edges
from repro.trees.builders import pattern_from_sexpr
from repro.trees.tree import LabeledTree, Nested

WILDCARD = "*"

_EDGE_KINDS = ("child", "descendant")


@dataclass(frozen=True)
class QueryNode:
    """One node of an extended query (``*`` labels, ``//`` edges).

    ``edge`` describes the edge *above* this node: ``"child"`` (``/``) or
    ``"descendant"`` (``//``).  The root's ``edge`` is ignored.
    """

    label: str
    children: tuple["QueryNode", ...] = ()
    edge: str = "child"

    def __post_init__(self):
        if not self.label:
            raise PatternError("query node label must be non-empty")
        if self.edge not in _EDGE_KINDS:
            raise PatternError(f"unknown edge kind {self.edge!r}")

    @classmethod
    def from_sexpr(cls, text: str) -> "QueryNode":
        """Parse ``"(A (//B (*)) (C))"``: a ``//`` prefix on a label marks
        a descendant edge; a bare ``*`` is a wildcard node."""

        def convert(nested: Nested) -> "QueryNode":
            label, kids = nested
            edge = "child"
            if label.startswith("//"):
                label, edge = label[2:], "descendant"
                if not label:
                    raise PatternError("'//' must prefix a label or '*'")
            return cls(label, tuple(convert(kid) for kid in kids), edge)

        return convert(pattern_from_sexpr(text))

    def to_xpath(self) -> str:
        """Render back into the XPath subset of :mod:`repro.query.xpath`.

        The first child continues the path (``/`` or ``//``); remaining
        children become predicates.  ``parse_xpath(node.to_xpath())``
        reproduces an equivalent query (round-trip property in tests) up
        to the representation choice of path-vs-predicate for the first
        child.
        """
        return self._render(top=True)

    def _render(self, top: bool) -> str:
        out = self.label
        children = self.children
        if not children:
            return out
        # All but the last child render as predicates; the last continues
        # the path, matching how the parser builds chains.
        for child in children[:-1]:
            prefix = "//" if child.edge == "descendant" else ""
            out += f"[{prefix}{child._render(top=False)}]"
        last = children[-1]
        axis = "//" if last.edge == "descendant" else "/"
        return out + axis + last._render(top=False)

    def is_plain(self) -> bool:
        """True when the query uses no wildcards and no descendant edges."""
        if self.label == WILDCARD:
            return False
        return all(c.edge == "child" and c.is_plain() for c in self.children)

    def to_pattern(self) -> Nested:
        """Convert a plain query to a nested-tuple pattern."""
        if self.label == WILDCARD:
            raise QueryError("wildcard query cannot become a plain pattern")
        kids = []
        for child in self.children:
            if child.edge != "child":
                raise QueryError("descendant edge cannot become a plain pattern")
            kids.append(child.to_pattern())
        return (self.label, tuple(kids))


class _TrieNode:
    """One distinct label path: its last label, its one-label extensions
    keyed by label, and the path one label shorter (``None`` at a root)."""

    __slots__ = ("label", "children", "parent")

    def __init__(self, label: str, parent: _TrieNode | None):
        self.label = label
        self.children: dict[str, _TrieNode] = {}
        self.parent = parent


class StructuralSummary:  # sketchlint: single-writer
    """A dataguide: the trie of distinct root-to-node label paths.

    Build it online with :meth:`add_tree` as the stream flows, then call
    :meth:`resolve` to turn an extended query into the set of distinct
    parent-child patterns whose counts sum to the query's count.

    Beside the trie the summary keeps a label index: every trie node is
    in its label's list and links to its parent.  The index is derived
    state — :meth:`from_dict` rebuilds it and :meth:`to_dict` never
    writes it — and lets :meth:`resolve` start from the nodes a query
    names instead of walking the whole trie.

    Single-writer: the ingest thread owns all trie mutation.  Query
    threads may resolve and union concurrently: they iterate only
    snapshots of the children dicts (``tuple(d.values())``, one C-level
    call the interpreter does not interrupt) or the append-only index
    lists, never a live dict (see docs/concurrency.md).
    """

    def __init__(self):
        self._roots: dict[str, _TrieNode] = {}
        self._by_label: dict[str, list[_TrieNode]] = {}
        self._n_paths = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _new_node(
        self, children: dict[str, _TrieNode], label: str, parent: _TrieNode | None
    ) -> _TrieNode:
        """Create, link and index the path ``parent`` + ``label``.

        The node is complete before ``children`` publishes it, so a
        concurrent reader sees either no node or a linked one.
        """
        node = _TrieNode(label, parent)
        children[label] = node
        nodes = self._by_label.get(label)
        if nodes is None:
            self._by_label[label] = [node]
        else:
            nodes.append(node)
        self._n_paths += 1
        return node

    def add_tree(self, tree: LabeledTree) -> None:
        """Fold one tree's label paths into the summary."""
        root_label = tree.label_of(tree.root)
        node = self._roots.get(root_label)
        if node is None:
            node = self._new_node(self._roots, root_label, None)
        # Walk the tree top-down, tracking the matching trie node.
        stack = [(tree.root, node)]
        while stack:
            data_num, trie = stack.pop()
            for kid in tree.children_of(data_num):
                label = tree.label_of(kid)
                child = trie.children.get(label)
                if child is None:
                    child = self._new_node(trie.children, label, trie)
                stack.append((kid, child))

    def add_trees(self, trees: Iterable[LabeledTree]) -> None:
        for tree in trees:
            self.add_tree(tree)

    @property
    def n_paths(self) -> int:
        """Number of distinct label paths recorded (the summary's size)."""
        return self._n_paths

    # ------------------------------------------------------------------
    # Persistence and merging
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, dict]:
        """JSON-serialisable form: nested label → children mappings.

        Each trie node becomes the dict of its children keyed by label
        (the node's own label is its key in the parent); the result maps
        root labels to their subtrees.  Round-trips via :meth:`from_dict`.
        """
        out: dict[str, dict] = {}
        stack: list[tuple[_TrieNode, dict[str, dict]]] = []
        for label, node in tuple(self._roots.items()):
            packed: dict[str, dict] = {}
            out[label] = packed
            stack.append((node, packed))
        while stack:
            node, packed = stack.pop()
            for label, child in tuple(node.children.items()):
                child_packed: dict[str, dict] = {}
                packed[label] = child_packed
                stack.append((child, child_packed))
        return out

    @classmethod
    def from_dict(cls, data: dict[str, dict]) -> "StructuralSummary":
        """Rebuild a summary serialised with :meth:`to_dict`.

        Raises :class:`~repro.errors.PatternError` when the mapping is
        not of the nested ``{label: {label: ...}}`` shape.
        """
        summary = cls()
        if not isinstance(data, dict):
            raise PatternError(
                f"summary must be a mapping, got {type(data).__name__}"
            )
        stack: list[tuple[_TrieNode | None, dict]] = [(None, data)]
        while stack:
            parent, packed = stack.pop()
            children = summary._roots if parent is None else parent.children
            for label, sub in packed.items():
                if not isinstance(label, str) or not label:
                    raise PatternError(
                        f"summary labels must be non-empty strings, got {label!r}"
                    )
                if not isinstance(sub, dict):
                    raise PatternError(
                        f"summary subtree for {label!r} must be a mapping, "
                        f"got {type(sub).__name__}"
                    )
                node = summary._new_node(children, label, parent)
                stack.append((node, sub))
        return summary

    def update(self, other: "StructuralSummary") -> None:
        """Fold every label path of ``other`` into this summary in place.

        The dataguide of a union of streams is the union of the tries, so
        after updating, this summary resolves queries exactly as if it
        had seen both streams' trees — the merge the distributed-ingest
        scenario needs.  ``other`` is only read, so it may be a live
        summary that its own ingest thread is still growing.
        """
        stack: list[tuple[_TrieNode, _TrieNode]] = []
        for label, theirs in tuple(other._roots.items()):
            mine = self._roots.get(label)
            if mine is None:
                mine = self._new_node(self._roots, label, None)
            stack.append((mine, theirs))
        while stack:
            mine, theirs = stack.pop()
            for their_child in tuple(theirs.children.values()):
                label = their_child.label
                my_child = mine.children.get(label)
                if my_child is None:
                    my_child = self._new_node(mine.children, label, mine)
                stack.append((my_child, their_child))

    def merge(self, other: "StructuralSummary") -> "StructuralSummary":
        """A new summary holding the union of both tries (inputs unchanged)."""
        merged = StructuralSummary.from_dict(self.to_dict())
        merged.update(other)
        return merged

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(
        self, query: QueryNode, max_edges: int | None = None
    ) -> set[Nested]:
        """Resolve a ``*`` / ``//`` query into distinct plain patterns.

        Every returned pattern uses only parent-child edges and concrete
        labels, and is consistent with the summary (so patterns the data
        cannot contain are never produced).  Raises
        :class:`~repro.errors.QueryError` when the resolution holds more
        than :data:`~repro.query.pattern.MAX_PATTERNS` patterns — checked
        before each product of child options is built, so no product
        larger than the cap is ever built — and, with ``max_edges``, when
        a resolved pattern exceeds SketchTree's enumeration bound ``k``:
        the paper's stated applicability condition.
        """
        out: set[Nested] = set()
        for start in self._starts(query):
            patterns = self._expand(query, start)
            if patterns is None:
                raise _too_many()
            out |= patterns
            if len(out) > MAX_PATTERNS:
                raise _too_many()
        if max_edges is not None:
            oversize = [p for p in out if pattern_edges(p) > max_edges]
            if oversize:
                raise QueryError(
                    f"query resolves to {len(oversize)} pattern(s) larger than "
                    f"k={max_edges}; the paper's simple-sum technique does not "
                    f"apply (Section 6.2)"
                )
        return out

    def _starts(self, query: QueryNode) -> list[_TrieNode]:
        """The trie nodes ``query``'s root can match.

        A concrete root takes its label's nodes from the index.  A ``*``
        root with a concrete child edge takes the parents of that
        child label's nodes (the rarest such label's): only they have the
        child.  Only an all-wildcard root considers every node.
        """
        index = self._by_label
        if query.label != WILDCARD:
            return list(index.get(query.label, ()))
        anchors = [
            index.get(child.label, [])
            for child in query.children
            if child.edge == "child" and child.label != WILDCARD
        ]
        if anchors:
            return [
                node.parent for node in min(anchors, key=len) if node.parent is not None
            ]
        return [node for nodes in tuple(index.values()) for node in nodes]

    def _expand(self, query: QueryNode, trie: _TrieNode) -> set[Nested] | None:
        """Concrete patterns for ``query`` anchored at summary node ``trie``:
        empty when the data cannot hold it, ``None`` when there are more
        than :data:`~repro.query.pattern.MAX_PATTERNS`.

        Each child's options are a disjoint union (distinct trie nodes
        are distinct label paths), so the result has exactly the product
        of the option counts: that is checked before building it.  An
        oversize child still lets a later empty sibling make the whole
        result empty.
        """
        option_sets: list[set[Nested]] = []
        oversize = False
        for q_child in query.children:
            options = self._options(q_child, trie)
            if options is None:
                oversize = True
            elif not options:
                return set()  # this branch cannot occur in the data
            else:
                option_sets.append(options)
        if oversize or prod(len(options) for options in option_sets) > MAX_PATTERNS:
            return None
        label = trie.label  # wildcard resolved to the concrete label
        return {(label, combo) for combo in product(*option_sets)}

    def _options(self, q_child: QueryNode, trie: _TrieNode) -> set[Nested] | None:
        """Every concrete pattern ``q_child`` can take below ``trie``
        (``None`` past the cap).  A concrete child edge is one dict
        lookup; a ``//`` edge walks ``trie``'s subtree."""
        matches: list[tuple[tuple[str, ...], _TrieNode]]
        if q_child.edge == "descendant":
            label = q_child.label
            matches = [
                (chain, node)
                for chain, node in _descendants(trie)
                if label == WILDCARD or node.label == label
            ]
        elif q_child.label == WILDCARD:
            matches = [((), node) for node in tuple(trie.children.values())]
        else:
            node = trie.children.get(q_child.label)
            matches = [] if node is None else [((), node)]
        options: set[Nested] = set()
        for chain, node in matches:
            patterns = self._expand(q_child, node)
            if patterns is None:
                return None
            if chain:
                patterns = {_wrap_chain(chain, pattern) for pattern in patterns}
            options |= patterns
            if len(options) > MAX_PATTERNS:
                return None
        return options


def _too_many() -> QueryError:
    return QueryError(
        f"query resolves to more than {MAX_PATTERNS} patterns; Theorem 2's "
        f"variance bound grows with the number of summed patterns, so the "
        f"sum would not be a useful estimate (Section 6.2)"
    )


def _descendants(trie: _TrieNode):
    """Yield ``(interior_label_chain, node)`` for each proper descendant.

    The chain holds the labels strictly between ``trie`` and ``node``
    (empty for a direct child), which the resolution must materialise
    as real pattern nodes.
    """
    stack: list[tuple[tuple[str, ...], _TrieNode]] = [
        ((), child) for child in tuple(trie.children.values())
    ]
    while stack:
        chain, node = stack.pop()
        yield chain, node
        inner = chain + (node.label,)
        stack.extend((inner, child) for child in tuple(node.children.values()))


def _wrap_chain(chain: tuple[str, ...], pattern: Nested) -> Nested:
    """Wrap ``pattern`` in a chain of single-child interior nodes."""
    for label in reversed(chain):
        pattern = (label, (pattern,))
    return pattern
