"""Builders converting compact textual/structural forms into trees.

Two interchange forms are supported:

* **nested tuples** — ``("A", (("B", ()), ("C", ())))``; this is the
  canonical :data:`~repro.trees.tree.Nested` form used for tree patterns
  everywhere in the library.  A bare label with no children may be written
  ``("A", ())`` or simply ``"A"`` (string shorthand accepted on input).
* **s-expressions** — ``"(A (B) (C))"``; convenient in tests and examples.
"""

from __future__ import annotations

import re

from repro.errors import TreeError
from repro.trees.node import TreeNode
from repro.trees.tree import LabeledTree, Nested


def from_nested(nested: Nested | str) -> LabeledTree:
    """Build a :class:`LabeledTree` from nested-tuple form.

    Accepts ``(label, (child, ...))`` where each child is again nested form,
    or a bare label string as shorthand for a single-node tree.

    >>> from_nested(("A", (("B", ()), ("C", ())))).labels
    ('B', 'C', 'A')
    """
    return LabeledTree(node_from_nested(nested))


def node_from_nested(nested: Nested | str) -> TreeNode:
    """Build a mutable :class:`TreeNode` structure from nested-tuple form."""
    root_label, root_kids = _split(nested)
    root = TreeNode(root_label)
    stack = [(root, root_kids)]
    while stack:
        node, kids = stack.pop()
        for kid in kids:
            label, grandkids = _split(kid)
            child = node.add(label)
            stack.append((child, grandkids))
    return root


def _split(nested: Nested | str) -> tuple[str, tuple]:
    """Normalise one nested element into ``(label, children_tuple)``."""
    if isinstance(nested, str):
        return nested, ()
    if (
        isinstance(nested, tuple)
        and len(nested) == 2
        and isinstance(nested[0], str)
        and isinstance(nested[1], tuple)
    ):
        return nested[0], nested[1]
    raise TreeError(f"not a valid nested tree form: {nested!r}")


#: The s-expression lexer: parentheses, and labels running until
#: whitespace or a parenthesis.  ``\s`` matches exactly the code points
#: ``str.isspace`` accepts, so labels split where they always did.
SEXPR_TOKEN = re.compile(r"\(|\)|[^()\s]+")


def pattern_from_sexpr(text: str) -> Nested:
    """Parse an s-expression such as ``"(A (B) (C (D)))"`` into nested form.

    Labels run until whitespace or a parenthesis; backslash escapes are not
    supported (labels with spaces should use nested-tuple form instead).
    A bare label without parentheses denotes a single-node tree, and so
    does a bare label among a node's children: ``"(A B)"`` is
    ``"(A (B))"``.  Raises :class:`~repro.errors.TreeError` on malformed
    input.  The parse keeps an explicit stack, so nesting depth is
    bounded by memory, not the recursion limit.
    """
    tokens = SEXPR_TOKEN.findall(text)
    if not tokens:
        raise TreeError("empty s-expression")
    n = len(tokens)
    first = tokens[0]
    if first == ")":
        raise TreeError("unexpected ')'")
    if first != "(":
        if n > 1:
            raise TreeError(f"trailing tokens after tree: {tokens[1:]!r}")
        return (first, ())
    # Each open node is its label and the children parsed so far; ``pos``
    # always sits on the "(" that opens the next node.
    stack: list[tuple[str, list[Nested]]] = []
    pos = 0
    while True:
        pos += 1
        if pos >= n or tokens[pos] == "(" or tokens[pos] == ")":
            raise TreeError("expected a label after '('")
        stack.append((tokens[pos], []))
        pos += 1
        while True:
            if pos >= n:
                raise TreeError("unbalanced s-expression: missing ')'")
            token = tokens[pos]
            if token == "(":
                break
            pos += 1
            if token != ")":
                stack[-1][1].append((token, ()))
                continue
            label, kids = stack.pop()
            node = (label, tuple(kids))
            if not stack:
                if pos != n:
                    raise TreeError(f"trailing tokens after tree: {tokens[pos:]!r}")
                return node
            stack[-1][1].append(node)


def from_sexpr(text: str) -> LabeledTree:
    """Parse an s-expression into a tree: :func:`pattern_from_sexpr`'s
    nested form, built by :func:`from_nested`."""
    return from_nested(pattern_from_sexpr(text))


def to_sexpr(tree: LabeledTree) -> str:
    """Serialise a tree back into s-expression form (inverse of parse).

    Round-trip property: ``from_sexpr(to_sexpr(t)) == t`` for every tree
    whose labels contain no whitespace or parentheses.
    """
    parts: list[str] = []
    # Iterative preorder with explicit close markers.
    stack: list[object] = [tree.root]
    while stack:
        item = stack.pop()
        if item is None:
            parts.append(")")
            continue
        parts.append(f"({tree.label_of(item)}")
        stack.append(None)
        for kid in reversed(tree.children_of(item)):
            stack.append(kid)
    return " ".join(parts).replace("( ", "(").replace(" )", ")")
