"""The ``query-mix`` workload: read-only, closed loop, one caller.

Set-up streams generated dblp trees into a synopsis that maintains the
structural summary, and the stream's tail into a sliding window of
eight buckets.  The query set comes from ``generate_workload``'s
selectivity buckets over exact counts and reaches the library as text
— s-expressions, or XPath for the ``xpath`` kind, half of which use
``*`` or ``//``.  Six kinds are called round-robin, one call each per
query, after one untimed warm-up pass: ordered, unordered, sum (three
patterns), xpath, interval (``estimate_ordered_interval``) and window
(``WindowedSketchTree.estimate_ordered``).  Ingest is bypassed
entirely, so only read-path changes move this workload.

The traced run alternates public passes with passes that split every
call into its layers — parse (``coerce_pattern``/``parse_xpath`` and
validation), encode (``PatternEncoder.encode``), route
(``VirtualStreams.residue``/``view``) and estimate
(``SketchMatrix.estimate``, ``VirtualStreams.estimate_sum_grouped``,
``StructuralSummary.resolve``) — and requires each split call to
return exactly the public call's value.  Unordered and sum queries
route inside ``estimate_sum_grouped``, and the window kind has no
public per-bucket seam yet, so their routing is counted as estimate.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from harness import (
    BATCH_TREES,
    REL_ERROR_GATE,
    ZERO_LAYER_COUNTS,
    LayerClock,
    Result,
    RunParams,
    Schedule,
    SpreadSetups,
    config_fields,
    counters_digest,
    floats_digest,
    mean_relative_error,
    median,
    overhead_pct,
    paper_config,
    peak_rss_mb,
    percentile,
    position_medians,
)

from repro import ExactCounter, SketchTree
from repro.core.intervals import Interval, chebyshev_half_width
from repro.core.sketchtree import coerce_pattern
from repro.core.window import WindowedSketchTree
from repro.datasets import DblpGenerator
from repro.errors import QueryError
from repro.query.pattern import arrangements, pattern_edges, validate_pattern
from repro.query.summary import WILDCARD, QueryNode
from repro.query.xpath import parse_xpath
from repro.trees import from_nested, to_sexpr
from repro.workload.generator import generate_workload

SIZES = {
    "full": {"stream_trees": 800, "window_trees": 400, "bucket_trees": 50, "per_band": 60},
    "smoke": {"stream_trees": 150, "window_trees": 100, "bucket_trees": 25, "per_band": 4},
}
#: Selectivity bands the queries are drawn from; the first is the
#: frequent band the accuracy metric is computed over.
BANDS = ((1e-3, 1.0), (1e-4, 1e-3))
KINDS = ("ordered", "unordered", "sum", "xpath", "interval", "window")
PATTERNS_PER_SUM = 3
#: ``estimate_ordered_interval``'s default confidence.
CONFIDENCE = 0.9
TAIL_PERCENTILE = 90


@dataclass
class _State:
    synopsis: SketchTree
    window: WindowedSketchTree


def _build(seed: int, sizes: dict) -> tuple[list, _State]:
    """Set-up: generate the stream, build the synopsis and the window.

    The window is fed only the stream's last ``window_trees`` trees: with
    bucket-aligned sizes its live buckets then hold exactly what feeding
    the whole stream would leave live.
    """
    trees = list(DblpGenerator(seed=seed).generate(sizes["stream_trees"]))
    synopsis = SketchTree(paper_config(seed, maintain_summary=True))
    synopsis.ingest(trees, batch_trees=BATCH_TREES)
    window = WindowedSketchTree(
        paper_config(seed), sizes["window_trees"], sizes["bucket_trees"]
    )
    window.ingest(trees[-sizes["window_trees"] :], batch_trees=BATCH_TREES)
    return trees, _State(synopsis, window)


def _sexpr(pattern) -> str:
    return to_sexpr(from_nested(pattern))


def _xpath_variant(query: QueryNode) -> QueryNode:
    """A ``//`` or ``*`` form of a plain query: skip the first interior
    node behind a descendant edge when there is one, else wildcard the
    root."""
    for index, child in enumerate(query.children):
        if child.children:
            grandchild = child.children[0]
            skipped = QueryNode(grandchild.label, grandchild.children, "descendant")
            rest = query.children[:index] + (skipped,) + query.children[index + 1 :]
            return QueryNode(query.label, rest)
    return QueryNode(WILDCARD, query.children)


def _resolvable(synopsis: SketchTree, query: QueryNode) -> bool:
    """Whether ``query`` resolves to at least one pattern of at most k
    edges (a variant that does not keeps its plain form)."""
    try:
        return bool(
            synopsis.summary.resolve(query, max_edges=synopsis.config.max_pattern_edges)
        )
    except QueryError:
        return False


def query_set(
    exact: ExactCounter, synopsis: SketchTree, seed: int, per_band: int, bands=BANDS
):
    """Per kind, the argument of every call in one pass, plus the
    ground truth of the first (frequent) band's ordered queries."""
    workload = generate_workload(exact, bands, max_per_bucket=per_band, seed=seed)
    patterns = [q.pattern for q in workload.all_queries()]
    frequent = list(workload.queries_by_bucket[0])
    texts = [_sexpr(p) for p in patterns]
    rng = np.random.default_rng(seed)
    sums = [
        [texts[int(i)] for i in rng.choice(len(texts), PATTERNS_PER_SUM, replace=False)]
        for _ in texts
    ]
    xpaths = []
    for index, text in enumerate(texts):
        query = QueryNode.from_sexpr(text)
        if index % 2:
            variant = _xpath_variant(query)
            if _resolvable(synopsis, variant):
                query = variant
        xpaths.append(query.to_xpath())
    arguments = {
        "ordered": texts,
        "unordered": texts,
        "sum": sums,
        "xpath": xpaths,
        "interval": texts,
        "window": texts,
    }
    return arguments, frequent


def _public_calls(state: _State) -> dict[str, Callable]:
    synopsis, window = state.synopsis, state.window
    return {
        "ordered": synopsis.estimate_ordered,
        "unordered": synopsis.estimate_unordered,
        "sum": synopsis.estimate_sum,
        "xpath": synopsis.estimate_xpath,
        "interval": synopsis.estimate_ordered_interval,
        "window": window.estimate_ordered,
    }


class _Decomposed:
    """Each kind's public call split at the layer boundaries, timed.

    Mirrors the ``SketchTree.estimate_*`` bodies through public entry
    points only, so every split call must return the public value.
    """

    def __init__(self, state: _State, clock: LayerClock):
        self.synopsis = state.synopsis
        self.window = state.window
        self.clock = clock
        self.k = state.synopsis.config.max_pattern_edges

    def _checked(self, query) -> tuple:
        pattern = coerce_pattern(query)
        validate_pattern(pattern)
        if not 1 <= pattern_edges(pattern) <= self.k:
            raise QueryError(f"query outside 1..{self.k} edges: {query!r}")
        return pattern

    def _point(self, pattern, start: float) -> float:
        """Encode, route and estimate one ordered pattern."""
        now = time.perf_counter
        streams = self.synopsis.streams
        t1 = now()
        self.clock.add("parse", t1 - start)
        value = self.synopsis.encoder.encode(pattern)
        t2 = now()
        view = streams.view([streams.residue(value)], [value])
        t3 = now()
        estimate = view.estimate(value)
        t4 = now()
        self.clock.add("encode", t2 - t1)
        self.clock.add("route", t3 - t2)
        self.clock.add("estimate", t4 - t3)
        return estimate

    def _grouped(self, patterns, resolve_s: float = 0.0) -> float:
        """Encode distinct patterns, then one grouped Theorem 2 estimate
        (``resolve_s``: time already spent resolving, counted as estimate)."""
        now = time.perf_counter
        t1 = now()
        values = [self.synopsis.encoder.encode(p) for p in patterns]
        t2 = now()
        estimate = self.synopsis.streams.estimate_sum_grouped(values) if values else 0.0
        t3 = now()
        self.clock.add("encode", t2 - t1)
        self.clock.add("estimate", t3 - t2 + resolve_s)
        return estimate

    def ordered(self, text: str) -> float:
        start = time.perf_counter()
        return self._point(self._checked(text), start)

    def unordered(self, text: str) -> float:
        start = time.perf_counter()
        shapes = arrangements(self._checked(text))
        self.clock.add("parse", time.perf_counter() - start)
        return self._grouped(shapes)

    def sum(self, texts: list[str]) -> float:
        start = time.perf_counter()
        patterns = [self._checked(t) for t in texts]
        distinct = list(dict.fromkeys(patterns))
        if len(distinct) != len(patterns):
            raise QueryError("estimate_sum requires distinct patterns")
        self.clock.add("parse", time.perf_counter() - start)
        return self._grouped(distinct)

    def xpath(self, text: str) -> float:
        now = time.perf_counter
        start = now()
        query = parse_xpath(text)
        if query.is_plain():
            return self._point(self._checked(query.to_pattern()), start)
        t1 = now()
        self.clock.add("parse", t1 - start)
        resolved = self.synopsis.summary.resolve(query, max_edges=self.k)
        t2 = now()
        return self._grouped(resolved, resolve_s=t2 - t1)

    def interval(self, text: str) -> Interval:
        now = time.perf_counter
        start = now()
        pattern = self._checked(text)
        t1 = now()
        value = self.synopsis.encoder.encode(pattern)
        t2 = now()
        streams = self.synopsis.streams
        matrix = streams.sketch_if_allocated(streams.residue(value))
        t3 = now()
        if matrix is None:
            interval = Interval(0.0, 0.0, CONFIDENCE, 0.0)
        else:
            estimate = matrix.estimate(value)
            self_join = max(0.0, matrix.estimate_self_join_size())
            half_width = chebyshev_half_width(self_join, self.synopsis.config.s1, CONFIDENCE)
            interval = Interval(estimate, half_width, CONFIDENCE, self_join)
        t4 = now()
        self.clock.add("parse", t1 - start)
        self.clock.add("encode", t2 - t1)
        self.clock.add("route", t3 - t2)
        self.clock.add("estimate", t4 - t3)
        return interval

    def window_ordered(self, text: str) -> float:
        start = time.perf_counter()
        estimate = self.window.estimate_ordered(text)
        self.clock.add("estimate", time.perf_counter() - start)
        return estimate

    def calls(self) -> dict[str, Callable]:
        return {
            "ordered": self.ordered,
            "unordered": self.unordered,
            "sum": self.sum,
            "xpath": self.xpath,
            "interval": self.interval,
            "window": self.window_ordered,
        }


def _pass(calls: dict[str, Callable], arguments: dict, samples: list | None):
    """One round-robin pass: query ``i`` of every kind, for every ``i``.

    Returns the pass duration and the values, per kind, in call order;
    ``samples`` collects every call's latency in call order.
    """
    now = time.perf_counter
    values: dict[str, list] = {kind: [] for kind in KINDS}
    n_queries = len(arguments["ordered"])
    start = now()
    for index in range(n_queries):
        for kind in KINDS:
            t0 = now()
            value = calls[kind](arguments[kind][index])
            if samples is not None:
                samples.append(now() - t0)
            values[kind].append(value)
    return now() - start, values


def run(params: RunParams) -> Result:
    sizes = SIZES[params.scale]
    setups = SpreadSetups(
        lambda: _build(params.seed, sizes),
        key=lambda built: counters_digest(built[1].synopsis.streams),
        seconds=params.seconds,
    )
    trees, state = setups.first()
    config = state.synopsis.config
    result = Result(sizes=dict(sizes), config=config_fields(config))

    start = time.perf_counter()
    exact = ExactCounter(config.max_pattern_edges).ingest(trees)
    arguments, frequent = query_set(exact, state.synopsis, params.seed, sizes["per_band"])
    oracle_s = time.perf_counter() - start
    calls_per_pass = len(KINDS) * len(arguments["ordered"])

    public = _public_calls(state)
    _, reference = _pass(public, arguments, None)  # warm-up pass
    n_frequent = len(frequent)
    estimates = reference["ordered"][:n_frequent]
    rel_error = mean_relative_error(estimates, [q.actual for q in frequent])
    finite = [
        math.isfinite(v.estimate if isinstance(v, Interval) else v)
        for kind in KINDS
        for v in reference[kind]
    ]
    result.checks["estimates_finite"] = n_frequent > 0 and all(finite)
    result.checks["rel_error"] = rel_error <= REL_ERROR_GATE
    # Unordered arrangements and `*`/`//` resolutions are sets, so the
    # float sum order of those kinds follows string hashing, which
    # differs between processes: keep them out of the digest.
    deterministic = [
        value
        for kind in KINDS
        if kind not in ("unordered", "xpath")
        for value in (
            (v.estimate, v.half_width) if isinstance(v, Interval) else (v,)
            for v in reference[kind]
        )
    ]
    result.digests["estimates"] = floats_digest(x for pair in deterministic for x in pair)

    passes: list[list[float]] = []
    schedule = Schedule(params.seconds, params.trace)
    layers = LayerClock()
    decomposed = _Decomposed(state, layers).calls()
    encoder = state.synopsis.encoder
    hits0, misses0 = encoder.cache_hits, encoder.cache_misses
    stable = True
    matches = True
    gc.collect()
    for traced in schedule:
        if traced:
            seconds, values = _pass(decomposed, arguments, None)
            matches &= values == reference
        else:
            passes.append([])
            seconds, values = _pass(public, arguments, passes[-1])
            stable &= values == reference
        schedule.record(traced, seconds)
        setups.between_rounds(schedule.elapsed)
    setup_s = setups.finish()
    result.checks["setup_repeatable"] = setups.repeatable
    result.checks["repeatable"] = stable
    result.attempted = schedule.rounds * calls_per_pass

    # Each call's latency is its median over the passes; call j of a
    # pass is of kind KINDS[j % len(KINDS)].
    calls = position_medians(passes)
    by_kind = {kind: calls[i :: len(KINDS)] for i, kind in enumerate(KINDS)}
    result.details.update(
        {
            "setup_times_s": setups.times,
            "oracle_s": oracle_s,
            "queries_per_kind": len(arguments["ordered"]),
            "frequent_queries": n_frequent,
            "public_passes": len(schedule.untraced),
            "latency_samples": sum(map(len, passes)),
            "tail_percentile": TAIL_PERCENTILE,
            "query.rel_error_mean": rel_error,
            **{
                f"query.{kind}_p{q}_us": 1e6 * percentile(by_kind[kind], q)
                for kind in KINDS
                for q in (50, TAIL_PERCENTILE)
            },
        }
    )
    if not params.trace:
        result.metrics = {
            "setup_s": setup_s,
            "throughput_per_s": calls_per_pass / median(schedule.untraced),
            "latency_p50_ms": 1e3 * percentile(calls, 50),
            "latency_tail_ms": 1e3 * percentile(calls, TAIL_PERCENTILE),
            "peak_rss_mb": peak_rss_mb(),
        }
        return result

    result.checks["decomposition_matches"] = matches
    hits = encoder.cache_hits - hits0
    misses = encoder.cache_misses - misses0
    result.metrics = {
        **ZERO_LAYER_COUNTS,
        **layers.shares(sum(schedule.traced)),
        "trace.us_per_op": 1e6 * median(schedule.traced) / calls_per_pass,
        "trace_overhead_pct": overhead_pct(schedule.traced, schedule.untraced),
        "encode.cache_hit_ratio": hits / max(1, hits + misses),
        "encode.misses": misses / schedule.rounds,
        "estimate.rel_error_mean": rel_error,
    }
    result.details["traced_passes"] = len(schedule.traced)
    result.details["layer_us_per_call"] = {
        layer: 1e6 * s / (len(schedule.traced) * calls_per_pass)
        for layer, s in layers.seconds.items()
    }
    return result
