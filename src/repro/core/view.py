"""One read path: every estimate reads summed per-stream counters.

Virtual streams share one ξ family (Section 5.3), and so do synopses
built from one config: summed per stream, the int64 counters of a
window's buckets or of the serving tier's shards are exactly those of
one synopsis over all their trees, and each source's top-k
``adjustment`` adds back exactly what its own tracker deleted.
:class:`CounterView` carries every estimator once over such sums (or
over one synopsis' own matrices, uncopied), and every union of the
sources' tracked state (frequencies add per value); :class:`Queries`
gives synopses and windows their ``estimate_*`` and ``tracked*``
names.  The sum needs one encoding: pairing numbers labels in
first-seen order per encoder, so pairing synopses compose only when
they share one (:func:`check_composable`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import factorial
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.core.encoding import PatternEncoder
from repro.core.expressions import Expression, required_independence
from repro.core.intervals import Interval, chebyshev_half_width
from repro.core.topk import TopKTracker
from repro.errors import ConfigError, QueryError
from repro.query.pattern import (
    OR_SEPARATOR,
    arrangements,
    expand_or_labels,
    pattern_edges,
    validate_pattern,
)
from repro.query.summary import QueryNode, StructuralSummary
from repro.query.xpath import parse_xpath
from repro.sketch.ams import _CHUNK, SketchMatrix, boost_rows
from repro.trees.builders import pattern_from_sexpr
from repro.trees.tree import LabeledTree, Nested

if TYPE_CHECKING:
    from repro.core.sketchtree import SketchTree
    from repro.sketch.xi import XiGenerator


def coerce_pattern(query) -> Nested:
    """Accept a nested tuple, s-expression string, tree, or plain
    :class:`QueryNode`, and return the canonical nested-tuple pattern."""
    if isinstance(query, str):
        return pattern_from_sexpr(query)
    if isinstance(query, LabeledTree):
        return query.to_nested()
    if isinstance(query, QueryNode):
        return query.to_pattern()
    if isinstance(query, tuple):
        return query
    raise QueryError(f"cannot interpret {type(query).__name__} as a tree pattern")


def _any_label_has_or(pattern: Nested) -> bool:
    stack = [pattern]
    while stack:
        label, children = stack.pop()
        if OR_SEPARATOR in label:
            return True
        stack.extend(children)
    return False


def _sum_optional(parts: Iterable[np.ndarray | None]) -> np.ndarray | None:
    """Sum of the arrays among ``parts`` (``None`` when there are none)."""
    total: np.ndarray | None = None
    for part in parts:
        if part is not None:
            total = part if total is None else total + part
    return total


def check_composable(first: "SketchTree", other: "SketchTree") -> None:
    """Raise :class:`~repro.errors.ConfigError` unless the two synopses'
    counters may be added: one config (hence one ξ family) and one
    encoding."""
    if other.config != first.config:
        raise ConfigError("can only combine synopses with identical configs")
    if first.config.mapping == "pairing" and other.encoder is not first.encoder:
        raise ConfigError(
            "pairing-encoded synopses combine only when they share one "
            "pattern encoder: each encoder numbers labels in first-seen order"
        )


class CounterReads:
    """What a query builds from several virtual streams, defined once.

    Subclasses supply :meth:`residue`, :meth:`sketch` and
    :meth:`adjustment`: :class:`~repro.core.virtual.VirtualStreams` from
    its own tables, :class:`CounterView` summed across synopses.
    """

    xi: "XiGenerator"
    s1: int
    s2: int

    def residue(self, value: int) -> int:
        """Which virtual stream ``value`` belongs to."""
        raise NotImplementedError

    def sketch(self, residue: int) -> SketchMatrix:
        """Stream ``residue``'s counters."""
        raise NotImplementedError

    def adjustment(self, residue: int, values: list[int]) -> np.ndarray | None:
        """Top-k compensation ``Σ ξ_q f_q`` of stream ``residue`` for the
        query values (``None`` when none of them is tracked)."""
        raise NotImplementedError

    def _by_residue(self, values: Iterable[int]) -> dict[int, list[int]]:
        by_residue: dict[int, list[int]] = {}
        for value in dict.fromkeys(values):
            by_residue.setdefault(self.residue(value), []).append(value)
        return by_residue

    def combined_counters(self, residues: Iterable[int]) -> np.ndarray:
        """Sum of the counters of the given streams (zeros when empty).

        Valid because all streams share one ξ family: the sum sketches
        the union of the streams.
        """
        total = np.zeros(self.s1 * self.s2, dtype=np.int64)
        for residue in dict.fromkeys(residues):
            total += self.sketch(residue).counters
        return total

    def combined_adjustment(self, values: Iterable[int]) -> np.ndarray | None:
        """Top-k compensation across all streams touched by the query
        values (``None`` when nothing is tracked)."""
        return _sum_optional(
            self.adjustment(residue, stream_values)
            for residue, stream_values in self._by_residue(values).items()
        )

    def combined(self, residues: Iterable[int], values: Iterable[int]) -> SketchMatrix:
        """A temporary sketch over the union of streams, with top-k
        compensation for the given query values already applied."""
        counters = self.combined_counters(residues)
        adjust = self.combined_adjustment(values)
        if adjust is not None:
            counters = counters + adjust
        return SketchMatrix._over(counters, self.s1, self.s2, self.xi)

    def estimate_sum_grouped(self, values: Iterable[int]) -> float:
        """Estimate ``Σ f_q`` by per-stream partial sums.

        Query values are grouped by residue and each group is estimated
        with *its own* stream's Theorem 2 estimator (top-k compensated);
        the partial estimates are added.  This is never worse than summing
        counters first: it keeps every estimate's variance bounded by its
        own stream's (small) self-join size instead of the union's, while
        remaining unbiased — a refinement the partitioning of Section 5.3
        makes available for purely linear queries.

        The float partials are added in residue order: callers often
        pass values in ``set`` order, which varies with the process's
        string-hash seed, and float addition is not associative.

        All groups share one pass: the values' ξ rows come from
        :meth:`~repro.sketch.xi.XiGenerator.sign_rows` (one call per
        ``_CHUNK`` values), ``np.add.reduceat`` sums them per residue, and
        one :func:`~repro.sketch.ams.boost_rows` runs over
        the stacked, top-k compensated counters.  Each group's estimate
        equals :meth:`~repro.sketch.ams.SketchMatrix.estimate_sum` on its
        own stream bit for bit: the ξ sums and products are exact int64,
        and so is every group sum below ``2^53``.
        """
        by_residue = self._by_residue(values)
        if not by_residue:
            return 0.0
        ordered: list[int] = []
        offsets: list[int] = []  # where each group starts in ``ordered``
        counters: list[np.ndarray] = []
        for residue in sorted(by_residue):
            matrix = self.sketch(residue)
            stream_values = by_residue[residue]
            adjust = self.adjustment(residue, stream_values)
            offsets.append(len(ordered))
            ordered.extend(stream_values)
            counters.append(
                matrix.counters if adjust is None else matrix.counters + adjust
            )
        field = self.xi.to_field(ordered, count=len(ordered))
        xi_sums = np.zeros((len(offsets), self.s1 * self.s2), dtype=np.int64)
        for lo in range(0, len(field), _CHUNK):
            rows = self.xi.sign_rows(field[lo : lo + _CHUNK])
            # Groups first..last-1 overlap this chunk; the first may have
            # begun in an earlier one.
            first = bisect_right(offsets, lo) - 1
            last = bisect_left(offsets, lo + len(rows))
            starts = [max(offset - lo, 0) for offset in offsets[first:last]]
            xi_sums[first:last] += np.add.reduceat(
                rows, starts, axis=0, dtype=np.int64
            )
        partials = boost_rows(xi_sums * np.stack(counters), self.s1, self.s2)
        # 0.0 + p_0 + p_1 + …, left to right: cumsum never reassociates.
        return float(np.concatenate(([0.0], partials)).cumsum()[-1])


class CounterView(CounterReads):
    """Read-only summed counters of synopses sharing a config and encoding.

    Per virtual stream: one source's own matrix, uncopied, or a fresh
    sum of several sources' counters; never a counter write.  Reads race
    the sources' ingest threads benignly (docs/concurrency.md).
    """

    def __init__(self, sources: Sequence["SketchTree"]):
        if not sources:
            raise ConfigError("a counter view needs at least one synopsis")
        first = sources[0]
        for other in sources[1:]:
            check_composable(first, other)
        self.sources = tuple(sources)
        self.config = first.config
        self.encoder: PatternEncoder = first.encoder
        self._streams = tuple(source.streams for source in self.sources)
        self.xi, self.s1, self.s2 = first.streams.xi, self.config.s1, self.config.s2

    def residue(self, value: int) -> int:
        return self._streams[0].residue(value)

    def sketch(self, residue: int) -> SketchMatrix:
        if len(self._streams) == 1:
            return self._streams[0].sketch(residue)
        summed = np.add.reduce([s.counters[residue] for s in self._streams])
        return SketchMatrix._over(summed, self.s1, self.s2, self.xi)

    def adjustment(self, residue: int, values: list[int]) -> np.ndarray | None:
        return _sum_optional(s.adjustment(residue, values) for s in self._streams)

    @property
    def summary(self) -> StructuralSummary | None:
        """The sources' union structural summary (``None`` unless every
        source keeps one); several sources' tries are unioned per call."""
        summaries = [source.summary for source in self.sources]
        if any(summary is None for summary in summaries):
            return None
        if len(summaries) == 1:
            return summaries[0]
        union = StructuralSummary()
        for summary in summaries:
            union.update(summary)
        return union

    def _trackers(self) -> list[TopKTracker]:
        """Every source's top-k trackers (none with ``topk_size=0``)."""
        return [t for streams in self._streams for _, t in streams.iter_trackers()]

    def tracked(self) -> dict[int, int]:
        """Tracked value → deleted frequency, summed per value across the
        sources, each of which deleted its own count (empty with
        ``topk_size=0``); :meth:`tracked_patterns` ranks and names it."""
        total: dict[int, int] = {}
        for tracker in self._trackers():
            for value, freq in tracker.tracked.items():
                total[value] = total.get(value, 0) + freq
        return total

    def deleted_self_join_mass(self) -> int:
        """``Σ f_v²`` over every source's tracked values: the self-join
        mass the trackers hold out of the counters (what the Section 5.2
        optimisation bought).  0 with ``topk_size=0``."""
        return sum(tracker.deleted_self_join_mass() for tracker in self._trackers())

    def lookup_values(self, values: Iterable[int]) -> dict[int, Nested]:
        """Value → pattern names from the sources' encoders, each distinct
        one asked once, in source order, for the values still unnamed
        (best effort: :meth:`PatternEncoder.lookup_values`)."""
        missing = list(dict.fromkeys(values))
        names: dict[int, Nested] = {}
        for encoder in dict.fromkeys(source.encoder for source in self.sources):
            if not missing:
                break
            names.update(encoder.lookup_values(missing))
            missing = [value for value in missing if value not in names]
        return names

    def tracked_patterns(self, limit: int | None = None) -> list[dict]:
        """The first ``limit`` :meth:`tracked` values, most frequent
        first: each entry's ``value``, ``frequency`` and ``pattern``
        (``None`` once no source encoder names it: still servable)."""
        ranked = sorted(self.tracked().items(), key=lambda kv: (-kv[1], kv[0]))
        ranked = ranked[:limit]
        names = self.lookup_values(value for value, _ in ranked)
        return [
            {"value": value, "frequency": freq, "pattern": names.get(value)}
            for value, freq in ranked
        ]

    def estimate_ordered(self, query) -> float:
        """Approximate ``COUNT_ord(Q)`` (Theorem 1 estimator)."""
        value = self.encoder.encode(self._checked(query))
        residue = self.residue(value)
        matrix = self.sketch(residue)
        return matrix.estimate(value, adjust=self.adjustment(residue, [value]))

    def estimate_ordered_interval(self, query, confidence: float = 0.9) -> Interval:
        """``COUNT_ord(Q)`` with a self-reported Chebyshev error bar.

        The half-width comes from Theorem 1's variance bound with the
        *residual* self-join size of the query's virtual stream, which
        the sketch estimates about itself (AMS's original F2 purpose) —
        no extra state, conservative by construction.  Top-k
        compensation moves the point estimate only: the residual
        counters are what the bound measures after the Section 5.2
        optimisation.  See :mod:`repro.core.intervals`.
        """
        value = self.encoder.encode(self._checked(query))
        residue = self.residue(value)
        matrix = self.sketch(residue)
        estimate = matrix.estimate(value, adjust=self.adjustment(residue, [value]))
        self_join = max(0.0, matrix.estimate_self_join_size())
        half_width = chebyshev_half_width(self_join, self.config.s1, confidence)
        return Interval(estimate, half_width, confidence, self_join)

    def estimate_self_join_size(self) -> float:
        """Self-reported residual ``SJ(S) = Σ_r SJ(S_r)`` across streams.

        "Residual" because top-k-deleted mass is excluded — which is
        exactly the quantity Theorem 1's error bound depends on after the
        Section 5.2 optimisation.  A stream's counters are summed across
        sources first (``SJ`` is quadratic in frequencies, which add).
        The float sum runs in residue order, on every path.
        """
        total = 0.0
        for residue in range(self.config.n_virtual_streams):
            total += max(0.0, self.sketch(residue).estimate_self_join_size())
        return total

    def estimate_unordered(self, query) -> float:
        """Approximate ``COUNT(Q)``: the Section 3.3 sum over the distinct
        ordered arrangements of the pattern."""
        shapes = arrangements(self._checked(query))
        return self.estimate_sum_grouped([self.encoder.encode(p) for p in shapes])

    def estimate_sum(self, queries: Iterable) -> float:
        """Approximate ``Σ_j COUNT_ord(Q_j)`` for distinct patterns
        (Theorem 2 estimator — a single combined sketch product, not a sum
        of per-pattern estimates)."""
        patterns = [self._checked(q) for q in queries]
        distinct = list(dict.fromkeys(patterns))
        if len(distinct) != len(patterns):
            raise QueryError(
                "estimate_sum requires distinct patterns (Theorem 2); "
                "duplicates were passed"
            )
        return self.estimate_sum_grouped([self.encoder.encode(p) for p in distinct])

    def estimate_or(self, query) -> float:
        """Approximate the count of a pattern with ``|`` OR-predicates in
        its labels (paper Example 5): the sum over the expanded distinct
        patterns."""
        expanded = expand_or_labels(coerce_pattern(query))
        for pattern in expanded:
            self._check_size(pattern)
        return self.estimate_sum_grouped([self.encoder.encode(p) for p in expanded])

    def estimate_expression(self, expression: Expression | str) -> float:
        """Approximate a Section 4 query expression (``+``, ``−``, ``×``).

        Accepts an :class:`~repro.core.expressions.Expression` or a
        string such as ``"COUNT(A/B) * COUNT(A/C) - COUNT(B/C)"``
        (parsed by :func:`~repro.core.expressions.parse_expression`).
        Raises :class:`~repro.errors.ConfigError` when the configured ξ
        independence is below the expression's requirement
        (:func:`~repro.core.expressions.required_independence`).
        """
        if isinstance(expression, str):
            from repro.core.expressions import parse_expression

            expression = parse_expression(expression)
        needed = required_independence(expression)
        if self.config.independence < needed:
            raise ConfigError(
                f"expression needs {needed}-wise independent xi; synopsis was "
                f"built with independence={self.config.independence}"
            )
        terms = expression.expand()
        atoms = expression.atoms()
        for atom in atoms:
            self._check_size(atom)
        atom_values = {atom: self.encoder.encode(atom) for atom in atoms}
        values = list(atom_values.values())
        combined = self.combined([self.residue(v) for v in values], values)
        counters = combined.counters.astype(np.float64)
        z = np.zeros_like(counters)
        for coeff, term_atoms in terms:
            degree = len(term_atoms)
            xi_prod = combined.xi.xi_values(
                [atom_values[a] for a in term_atoms]
            ).prod(axis=1)
            z += coeff * (counters**degree) / factorial(degree) * xi_prod
        return combined.boost(z)

    def estimate_extended(
        self, query: QueryNode, summary: StructuralSummary | None = None
    ) -> float:
        """Approximate the count of a ``*`` / ``//`` query (Section 6.2).

        Resolves the query against the structural summary (the
        synopses' own when built with ``maintain_summary=True``, or one
        supplied by the caller) into distinct parent-child patterns and
        estimates their total frequency.
        """
        summary = summary if summary is not None else self.summary
        if summary is None:
            raise QueryError(
                "extended queries need a structural summary: construct the "
                "synopsis with maintain_summary=True or pass one explicitly"
            )
        resolved = summary.resolve(query, max_edges=self.config.max_pattern_edges)
        return self.estimate_sum_grouped([self.encoder.encode(p) for p in resolved])

    def estimate_xpath(self, text: str) -> float:
        """Approximate the count of an XPath-subset query.

        Parses ``text`` with :func:`repro.query.xpath.parse_xpath` and
        dispatches: plain paths (names and predicates only) go through
        the ordered estimator (with OR-label expansion, Example 5);
        queries using ``*`` or ``//`` go through the Section 6.2
        resolution and therefore need a structural summary.

        Remember the paper's semantic note: this is the *pattern
        occurrence* count, not XPath's target-node count.
        """
        query = parse_xpath(text)
        if not query.is_plain():
            return self.estimate_extended(query)
        pattern = query.to_pattern()
        if _any_label_has_or(pattern):
            return self.estimate_or(pattern)
        return self.estimate_ordered(pattern)

    def _checked(self, query) -> Nested:
        pattern = coerce_pattern(query)
        self._check_size(pattern)
        return pattern

    def _check_size(self, pattern: Nested) -> None:
        validate_pattern(pattern)
        edges = pattern_edges(pattern)
        if edges < 1 or edges > self.config.max_pattern_edges:
            raise QueryError(
                f"pattern has {edges} edges; this synopsis counts patterns "
                f"with 1..{self.config.max_pattern_edges} edges "
                f"(larger patterns are the paper's stated future work)"
            )


class Queries:
    """The read surface of anything with a ``view()``: each ``estimate_*``
    and tracked-state call runs the :class:`CounterView` method
    documented there."""

    def view(self) -> CounterView:
        """The summed counters every estimate reads."""
        raise NotImplementedError

    def tracked(self) -> dict[int, int]:
        """:meth:`CounterView.tracked` on :meth:`view`."""
        return self.view().tracked()

    def deleted_self_join_mass(self) -> int:
        """:meth:`CounterView.deleted_self_join_mass` on :meth:`view`."""
        return self.view().deleted_self_join_mass()

    def tracked_patterns(self, limit: int | None = None) -> list[dict]:
        """:meth:`CounterView.tracked_patterns` on :meth:`view`."""
        return self.view().tracked_patterns(limit)

    def estimate_ordered(self, query) -> float:
        """:meth:`CounterView.estimate_ordered` on :meth:`view`."""
        return self.view().estimate_ordered(query)

    def estimate_ordered_interval(self, query, confidence: float = 0.9) -> Interval:
        """:meth:`CounterView.estimate_ordered_interval` on :meth:`view`."""
        return self.view().estimate_ordered_interval(query, confidence)

    def estimate_self_join_size(self) -> float:
        """:meth:`CounterView.estimate_self_join_size` on :meth:`view`."""
        return self.view().estimate_self_join_size()

    def estimate_unordered(self, query) -> float:
        """:meth:`CounterView.estimate_unordered` on :meth:`view`."""
        return self.view().estimate_unordered(query)

    def estimate_sum(self, queries: Iterable) -> float:
        """:meth:`CounterView.estimate_sum` on :meth:`view`."""
        return self.view().estimate_sum(queries)

    def estimate_or(self, query) -> float:
        """:meth:`CounterView.estimate_or` on :meth:`view`."""
        return self.view().estimate_or(query)

    def estimate_expression(self, expression: Expression | str) -> float:
        """:meth:`CounterView.estimate_expression` on :meth:`view`."""
        return self.view().estimate_expression(expression)

    def estimate_extended(
        self, query: QueryNode, summary: StructuralSummary | None = None
    ) -> float:
        """:meth:`CounterView.estimate_extended` on :meth:`view`."""
        return self.view().estimate_extended(query, summary)

    def estimate_xpath(self, text: str) -> float:
        """:meth:`CounterView.estimate_xpath` on :meth:`view`."""
        return self.view().estimate_xpath(text)
