"""The memoised EnumTree algorithm (paper Algorithm 3).

Let ``P(i, j)`` be the list of ordered tree patterns rooted at node ``i``
with exactly ``j`` edges.  To build ``P(i, j)``, choose ``t`` of ``i``'s
child edges (``1 ≤ t ≤ min(fanout, j)``, preserving sibling order), then
distribute the remaining ``j − t`` edges over the chosen children with a
composition ``x_1 + … + x_t = j − t, x_m ≥ 0``, and take the cartesian
product ``P(c_1, x_1) × … × P(c_t, x_t)``.  ``P(c, 0)`` is the paper's
``⊥``: the child is present as a bare leaf.

Because trees are processed in postorder, every child's table is complete
before its parent's — the memoisation is an explicit bottom-up pass rather
than recursion, so deep trees cannot overflow the interpreter stack.  The
same bottom-up structure powers the event-driven (SAX-style) enumerator
in :mod:`repro.stream.sax`, which shares :func:`node_table`.

Patterns are emitted in canonical nested-tuple form
``(label, (child, …))``.  Sub-patterns are *shared* between the patterns
that contain them, keeping the memory footprint close to the output size.
The result is a multiset: each element is one pattern occurrence, which is
exactly what the sketch must count.

Real corpora repeat the same subtree *shapes* constantly (DBLP especially),
so the per-node tables themselves are highly redundant across trees.
:class:`PatternTableMemo` interns each shape ``(label, child shapes)`` and
shares the finished table across every structurally identical subtree in a
stream — the "canonical-subtree → pattern-batch" cache from the ROADMAP.
Because ``node_table`` is a pure function of the label and the children's
tables, a memoised table is element-for-element the table the unmemoised
pass would have built, so emission order and content are bit-identical.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from repro.errors import ConfigError
from repro.trees.tree import LabeledTree, Nested

#: A node's table: ``table[j]`` lists the patterns rooted at the node
#: with exactly ``j`` edges (``table[0]`` is the single bare-leaf entry).
NodeTable = list  # list[list[Nested]]

#: Subtree shapes a :class:`PatternTableMemo` interns before it flushes
#: (between trees, so by at most one tree's nodes past the bound).
MEMO_SHAPE_LIMIT = 1 << 16


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` non-negative integers summing to ``total``.

    >>> sorted(compositions(2, 2))
    [(0, 2), (1, 1), (2, 0)]
    """
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


#: Memoised ``compositions`` results: the argument space is tiny (both
#: bounded by ``k``) while ``_patterns_of_size`` asks for the same splits
#: for every node, so the recursive generator ran millions of times on
#: long streams.  Single-writer like the rest of the enumeration state:
#: only ingest paths reach it (see docs/concurrency.md).
_COMPOSITIONS_CACHE: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}


def _compositions_cached(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    key = (total, parts)
    cached = _COMPOSITIONS_CACHE.get(key)
    if cached is None:
        cached = _COMPOSITIONS_CACHE[key] = tuple(compositions(total, parts))
    return cached


class PatternTableMemo:  # sketchlint: single-writer
    """Shares ``node_table`` results across structurally identical subtrees.

    Each subtree shape is interned to a dense integer id keyed by
    ``(k, label, child shape ids)``; the id indexes the finished
    :data:`NodeTable`.  Later occurrences of the shape — within one tree
    or across a whole stream — reuse the table outright, skipping the
    combinations/compositions/product work entirely and emitting the
    *same tuple objects*, which also keeps the encoder's LRU probes and
    the pattern multiset's memory footprint small.

    The memo may only be reset **between** trees: ids are dense per
    generation, and clearing mid-tree would let a fresh id collide with a
    stale child reference.  :meth:`tables_of` therefore flushes on entry
    (i.e. between trees by construction) once the interned shape universe
    exceeds :data:`MEMO_SHAPE_LIMIT`.

    Single-writer, like the synopsis that owns it: only ingest paths
    (``update*`` / ``delete_tree``) touch the memo, never ``estimate_*``.
    """

    __slots__ = ("hits", "misses", "flushes", "_ids", "_tables")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.flushes = 0
        self._ids: dict[tuple, int] = {}
        self._tables: list[NodeTable] = []

    @property
    def n_shapes(self) -> int:
        """Distinct subtree shapes currently interned."""
        return len(self._ids)

    def tables_of(self, tree: LabeledTree, k: int) -> list[NodeTable]:
        """The per-node tables of ``tree``, shared through the memo.

        Bit-identical to building each table with :func:`node_table`:
        every memo hit returns a table produced by ``node_table`` on an
        identical ``(label, child tables)`` input.
        """
        if len(self._ids) > MEMO_SHAPE_LIMIT:
            self._ids.clear()
            self._tables.clear()
            self.flushes += 1
        ids = self._ids
        by_id = self._tables
        labels = tree.labels
        children = tree.children
        shapes: list[int] = []
        tables: list[NodeTable] = []
        for num in range(len(labels)):
            label = labels[num]
            kids = children[num]
            key = (k, label, tuple(shapes[kid - 1] for kid in kids))
            sid = ids.get(key)
            if sid is None:
                sid = len(by_id)
                ids[key] = sid
                table = node_table(
                    label, [tables[kid - 1] for kid in kids], k
                )
                by_id.append(table)
                self.misses += 1
            else:
                table = by_id[sid]
                self.hits += 1
            shapes.append(sid)
            tables.append(table)
        return tables


def enumerate_patterns(tree: LabeledTree, k: int) -> list[Nested]:
    """Every ordered tree pattern occurrence in ``tree`` with 1..k edges.

    Returns a list (multiset) of nested-tuple patterns; duplicates mean
    multiple occurrences of the same pattern.  ``k = 0`` yields an empty
    list — the paper's patterns have at least one edge.
    """
    return list(iter_pattern_multiset(tree, k))


def iter_pattern_multiset(
    tree: LabeledTree, k: int, memo: PatternTableMemo | None = None
) -> Iterator[Nested]:
    """Generator version of :func:`enumerate_patterns`.

    The per-node tables are still materialised (they are reused across
    parents), but the final union over nodes and sizes streams out lazily.
    With a ``memo``, tables are shared across structurally identical
    subtrees (bit-identical output — see :class:`PatternTableMemo`).
    """
    if k < 0:
        raise ConfigError(f"k must be >= 0, got {k}")
    if k == 0 or tree.n_nodes == 0:
        return
    if memo is not None:
        tables = memo.tables_of(tree, k)
    else:
        labels = tree.labels
        children = tree.children
        tables = []
        for num in range(len(labels)):  # postorder: children first
            child_tables = [tables[kid - 1] for kid in children[num]]
            tables.append(node_table(labels[num], child_tables, k))
    for table in tables:
        for j in range(1, k + 1):
            yield from table[j]


def collect_forest_patterns(
    trees, k: int, memo: PatternTableMemo | None = None
) -> tuple[list[Nested], list[int]]:
    """Materialise the pattern multisets of several trees into one list.

    The generator → array collection step of the batch pipeline: the
    per-tree generators are drained into a single flat list plus
    cumulative ``offsets`` (``offsets[t] .. offsets[t+1]`` are tree
    ``t``'s rows, ``len(offsets) == n_trees + 1``), which is exactly the
    shape :meth:`repro.core.batch.EncodedBatch.build` expects for its
    ``tree_offsets``.  Element order within each tree matches
    :func:`iter_pattern_multiset`, with or without the ``memo``.
    """
    patterns: list[Nested] = []
    offsets = [0]
    for tree in trees:
        patterns.extend(iter_pattern_multiset(tree, k, memo))
        offsets.append(len(patterns))
    return patterns, offsets


def node_table(label: str, child_tables: list[NodeTable], k: int) -> NodeTable:
    """Build ``P(node, 0..k)`` from the node's children's tables.

    ``child_tables`` must be in document (left-to-right) order and fully
    built — the bottom-up contract both the whole-tree and the SAX-style
    enumerators satisfy.
    """
    table: NodeTable = [[(label, ())]]
    for j in range(1, k + 1):
        table.append(_patterns_of_size(label, child_tables, j))
    return table


def _patterns_of_size(
    label: str, child_tables: list[NodeTable], j: int
) -> list[Nested]:
    """``P(i, j)`` for ``j >= 1`` given the children's finished tables."""
    out: list[Nested] = []
    fanout = len(child_tables)
    if fanout == 0:
        return out
    indices = range(fanout)
    for t in range(1, min(fanout, j) + 1):
        splits = _compositions_cached(j - t, t)
        for chosen in combinations(indices, t):
            for split in splits:
                _emit_products(label, chosen, split, child_tables, out)
    return out


def _emit_products(
    label: str,
    chosen: tuple[int, ...],
    split: tuple[int, ...],
    child_tables: list[NodeTable],
    out: list[Nested],
) -> None:
    """Append every pattern from one (child subset, composition) choice."""
    option_lists = []
    for child_index, size in zip(chosen, split):
        table = child_tables[child_index]
        if size >= len(table):
            return  # composition asks for more edges than the subtree has
        options = table[size]
        if not options:
            return  # the paper's P(.) = ∅ case: whole product is empty
        option_lists.append(options)
    n_lists = len(option_lists)
    if n_lists == 1:
        # The overwhelmingly common case (one chosen child): no product.
        # The stack below emits a single list back to front (LIFO), which
        # is part of the pinned emission order — keep it reversed.
        out.extend((label, (option,)) for option in reversed(option_lists[0]))
        return
    # Cartesian product, iteratively (child count is small).  The LIFO
    # stack order is part of the pinned emission order — do not "fix"
    # this to itertools.product.
    stack: list[tuple[int, tuple[Nested, ...]]] = [(0, ())]
    while stack:
        index, prefix = stack.pop()
        if index == n_lists:
            out.append((label, prefix))
            continue
        for option in option_lists[index]:
            stack.append((index + 1, prefix + (option,)))
