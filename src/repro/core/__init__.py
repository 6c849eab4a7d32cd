"""SketchTree core: the paper's primary contribution.

* :class:`~repro.core.sketchtree.SketchTree` — the synopsis: update it
  with every arriving tree, then estimate ordered/unordered pattern
  counts, sums, and arithmetic expressions of counts at any moment.
* :class:`~repro.core.config.SketchTreeConfig` — all tuning knobs
  (``s1``, ``s2``, ``k``, virtual streams, top-k, mapping function).
* :class:`~repro.core.exact.ExactCounter` — the deterministic strawman of
  Section 1 (one counter per distinct pattern); doubles as the
  ground-truth oracle in experiments.
* :mod:`~repro.core.expressions` — the Section 4 query-expression algebra
  (``+``, ``−``, ``×`` over ``COUNT_ord`` atoms) with unbiased estimators.
* :class:`~repro.core.view.CounterView` — the one read path: every
  estimator, over one synopsis' counters or several synopses' sums.
"""

from repro.core.batch import EncodedBatch
from repro.core.config import SketchTreeConfig
from repro.core.encoding import PatternEncoder
from repro.core.exact import ExactCounter
from repro.core.expressions import (
    Count,
    Expression,
    parse_expression,
    required_independence,
)
from repro.core.intervals import (
    ConfigRecommendation,
    Interval,
    chebyshev_half_width,
    recommend_config,
)
from repro.core.memory import MemoryReport
from repro.core.sketchtree import SketchTree
from repro.core.snapshot import (
    FORMAT_VERSION,
    CheckpointManager,
    config_fingerprint,
    load_snapshot,
    save_snapshot,
    snapshot_from_bytes,
    snapshot_to_bytes,
)
from repro.core.topk import TopKTracker
from repro.core.view import CounterView
from repro.core.window import WindowedSketchTree
from repro.core.virtual import VirtualStreams, is_prime, next_prime

__all__ = [
    "CheckpointManager",
    "ConfigRecommendation",
    "Count",
    "CounterView",
    "ExactCounter",
    "FORMAT_VERSION",
    "Interval",
    "chebyshev_half_width",
    "config_fingerprint",
    "load_snapshot",
    "parse_expression",
    "recommend_config",
    "save_snapshot",
    "snapshot_from_bytes",
    "snapshot_to_bytes",
    "EncodedBatch",
    "Expression",
    "MemoryReport",
    "PatternEncoder",
    "SketchTree",
    "SketchTreeConfig",
    "TopKTracker",
    "VirtualStreams",
    "WindowedSketchTree",
    "is_prime",
    "next_prime",
    "required_independence",
]
