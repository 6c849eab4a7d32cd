"""Stream-processing cost ratios (the Sections 7.6/7.7 text claims).

The paper reports, for the faithful streaming path:

* doubling ``s1`` (25 → 50 on TREEBANK) multiplied processing time by
  ≈ 2.3; raising it 50 → 75 on DBLP by ≈ 1.6 — sketch updates dominate
  and scale with ``s1``;
* growing the top-k size barely moved processing time (≈ 4–10%).

We time :class:`~repro.stream.engine.StreamProcessor` runs over a slice
of the stream at both ``s1`` values and two top-k sizes — the fastest
of ``ROUNDS`` interleaved passes each, with the garbage collector kept
out of the timed region — and report the ratios.  Absolute times are
host-dependent; the *ratios* are the claim.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

from repro.core.config import SketchTreeConfig
from repro.core.sketchtree import SketchTree
from repro.experiments import data as expdata
from repro.experiments.report import format_table
from repro.experiments.scale import DEFAULT, ExperimentScale
from repro.stream.engine import StreamProcessor


#: Timed passes per configuration, interleaved across configurations.
#: Each point is its configuration's fastest pass, so a burst of host
#: load slows one pass of one configuration rather than skewing a ratio.
ROUNDS = 3


@dataclass(frozen=True)
class CostPoint:
    s1: int
    topk_size: int
    seconds: float


@dataclass(frozen=True)
class CostResult:
    dataset: str
    n_trees: int
    points: tuple[CostPoint, ...]

    def seconds(self, s1: int, topk_size: int) -> float:
        for point in self.points:
            if point.s1 == s1 and point.topk_size == topk_size:
                return point.seconds
        raise KeyError((s1, topk_size))

    def s1_ratio(self, low_s1: int, high_s1: int, topk_size: int) -> float:
        """Processing-time ratio when s1 grows (paper: ≈2.3 for 25→50)."""
        return self.seconds(high_s1, topk_size) / self.seconds(low_s1, topk_size)

    def topk_ratio(self, s1: int, low_topk: int, high_topk: int) -> float:
        """Processing-time ratio when top-k grows (paper: ≈1.04–1.10)."""
        return self.seconds(s1, high_topk) / self.seconds(s1, low_topk)


def run(
    dataset: str = "treebank",
    scale: ExperimentScale = DEFAULT,
    n_trees: int = 150,
    topk_sizes: tuple[int, int] = (1, 8),
    topk_probability: float = 0.05,
) -> CostResult:
    """Time the faithful streaming path at both s1 values × two top-k sizes.

    ``topk_probability`` follows the paper's suggestion of invoking top-k
    processing probabilistically per pattern when per-pattern invocation
    is infeasible — which it is for a pure Python substrate.
    """
    prepared = expdata.prepared(dataset, scale)
    trees = prepared.trees[:n_trees]
    warmup = prepared.trees[n_trees : n_trees + 10] or trees[:10]
    s1_values = scale.treebank_s1 if dataset == "treebank" else scale.dblp_s1
    configs = [
        SketchTreeConfig(
            s1=s1,
            s2=7,
            max_pattern_edges=prepared.k,
            n_virtual_streams=scale.n_virtual_streams,
            topk_size=topk,
            topk_probability=topk_probability,
            seed=5,
        )
        for s1 in s1_values
        for topk in topk_sizes
    ]
    best = [float("inf")] * len(configs)
    for _ in range(ROUNDS):
        for index, config in enumerate(configs):
            synopsis = SketchTree(config)
            # Untimed warmup: fills the encoder cache and numpy's lazy
            # initialisation so the first configuration isn't penalised.
            for tree in warmup:
                synopsis.update(tree)
            # Time the stream alone: one collector pass over a large
            # heap can outlast a whole smoke-scale run.
            gc.collect()
            gc.disable()
            try:
                stats = StreamProcessor([synopsis]).run(trees)
            finally:
                gc.enable()
            best[index] = min(best[index], stats.elapsed_seconds)
    points = [
        CostPoint(config.s1, config.topk_size, seconds)
        for config, seconds in zip(configs, best)
    ]
    return CostResult(dataset.upper(), len(trees), tuple(points))


def render(result: CostResult) -> str:
    table = format_table(
        ["s1", "Top-k", "Stream Time (s)"],
        [(p.s1, p.topk_size, p.seconds) for p in result.points],
        title=f"Stream Processing Cost ({result.dataset}, {result.n_trees} trees)",
    )
    s1_values = sorted({p.s1 for p in result.points})
    topk_values = sorted({p.topk_size for p in result.points})
    lines = [table, ""]
    lines.append(
        f"s1 {s1_values[0]} -> {s1_values[1]} ratio (topk={topk_values[0]}): "
        f"{result.s1_ratio(s1_values[0], s1_values[1], topk_values[0]):.2f}x "
        f"(paper: ~2.3x TREEBANK / ~1.6x DBLP)"
    )
    lines.append(
        f"topk {topk_values[0]} -> {topk_values[1]} ratio (s1={s1_values[0]}): "
        f"{result.topk_ratio(s1_values[0], topk_values[0], topk_values[1]):.2f}x "
        f"(paper: ~1.04-1.10x)"
    )
    return "\n".join(lines)
