"""Helpers over nested-tuple query patterns.

A query pattern is an ordered labeled tree in the canonical nested-tuple
form ``(label, (child, …))`` — the same form EnumTree emits, so a query
matches the stream exactly when the identical tuple was enumerated.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable

from repro.errors import PatternError
from repro.trees.builders import pattern_from_sexpr as pattern_from_sexpr
from repro.trees.tree import Nested


def validate_pattern(pattern: Nested) -> None:
    """Raise :class:`~repro.errors.PatternError` unless ``pattern`` is a
    well-formed nested tuple with non-empty string labels."""
    stack = [pattern]
    while stack:
        node = stack.pop()
        ok = (
            isinstance(node, tuple)
            and len(node) == 2
            and isinstance(node[0], str)
            and node[0]
            and isinstance(node[1], tuple)
        )
        if not ok:
            raise PatternError(f"malformed pattern node: {node!r}")
        stack.extend(node[1])


def pattern_nodes(pattern: Nested) -> int:
    """Number of nodes in the pattern."""
    count = 0
    stack = [pattern]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node[1])
    return count


def pattern_edges(pattern: Nested) -> int:
    """Number of edges in the pattern (``nodes − 1``)."""
    return pattern_nodes(pattern) - 1


#: Most distinct patterns one query may expand into: an unordered
#: pattern's arrangements, or a ``*`` / ``//`` query's resolution.
#: Theorem 2's variance bound grows with the number of summed patterns,
#: so a larger sum is not a useful estimate.
MAX_PATTERNS = 10_000


def arrangements(pattern: Nested, limit: int | None = MAX_PATTERNS) -> set[Nested]:
    """All *distinct* ordered arrangements of an unordered pattern.

    Section 3.3: ``COUNT(Q)`` is the sum of ``COUNT_ord`` over the
    distinct ordered tree patterns obtained by permuting children at every
    node.  Identical sibling subtrees make some permutations coincide;
    returning a set deduplicates them, which is what keeps the Theorem 2
    estimator applicable (it requires *distinct* patterns).

    The result size is bounded by the product of factorials of fanouts,
    so bushy asymmetric patterns explode combinatorially; ``limit``
    (default :data:`MAX_PATTERNS`) raises
    :class:`~repro.errors.PatternError` instead of silently consuming
    memory.  Pass ``limit=None`` to disable.
    """
    validate_pattern(pattern)
    out = _arrangements(pattern, limit)
    return out


def _arrangements(pattern: Nested, limit: int | None) -> set[Nested]:
    label, children = pattern
    if not children:
        return {pattern}
    child_sets = [_arrangements(child, limit) for child in children]
    out: set[Nested] = set()
    for order in permutations(range(len(children))):
        _combine(label, [child_sets[i] for i in order], (), out)
        if limit is not None and len(out) > limit:
            raise PatternError(
                f"unordered pattern has more than {limit} distinct ordered "
                f"arrangements; estimate them in batches or raise the limit"
            )
    return out


def _combine(
    label: str, option_sets: list[set[Nested]], prefix: tuple, out: set[Nested]
) -> None:
    if not option_sets:
        out.add((label, prefix))
        return
    for option in option_sets[0]:
        _combine(label, option_sets[1:], prefix + (option,), out)


#: Separator for OR predicates in labels, as in the paper's ``VBD|VBP|VBZ``.
OR_SEPARATOR = "|"


def expand_or_labels(pattern: Nested) -> list[Nested]:
    """Expand OR predicates into a list of distinct plain patterns.

    Example 5 of the paper: a node labeled ``"VBD|VBP|VBZ"`` stands for
    three queries, one per operand; the count of the OR query is the sum
    of the counts of the expanded queries.  Expansion is cartesian across
    all OR nodes.  Duplicate operands within one label are deduplicated so
    the result patterns stay distinct (a Theorem 2 requirement).
    """
    validate_pattern(pattern)
    return list(_expand(pattern))


def _expand(pattern: Nested) -> list[Nested]:
    label, children = pattern
    labels = list(dict.fromkeys(label.split(OR_SEPARATOR)))  # dedup, keep order
    if any(not part for part in labels):
        raise PatternError(f"empty OR operand in label {label!r}")
    child_options = [_expand(child) for child in children]
    out: list[Nested] = []
    for lab in labels:
        _combine_lists(lab, child_options, (), out)
    # Cartesian expansion of distinct operands cannot produce duplicates,
    # but guard anyway so downstream sum estimators stay sound.
    return list(dict.fromkeys(out))


def _combine_lists(
    label: str, option_lists: list[list[Nested]], prefix: tuple, out: list[Nested]
) -> None:
    if not option_lists:
        out.append((label, prefix))
        return
    for option in option_lists[0]:
        _combine_lists(label, option_lists[1:], prefix + (option,), out)
