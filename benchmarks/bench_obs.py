"""Observability-overhead benchmark: metrics enabled vs. disabled ingest.

The :mod:`repro.obs` layer promises that every instrumented stage runs
one body whatever the registry, so the null default pays only a few
no-op instrument calls per stage, and that enabling a full
:class:`~repro.obs.MetricsRegistry` stays within a few percent of that
throughput.  This bench measures both ends of that claim on one
generated stream:

* **disabled** — :class:`~repro.stream.engine.StreamProcessor` feeding a
  :class:`~repro.core.sketchtree.SketchTree` with the process-default
  :data:`~repro.obs.NULL_REGISTRY` (exactly what every pre-existing
  caller gets).
* **enabled** — the same run with an explicit
  :class:`~repro.obs.MetricsRegistry` wired through the processor and
  the synopsis, so every span, histogram, and pull instrument is live.

Both runs ingest the *same* trees into identically-configured synopses;
the script asserts the final sketch counters are bit-identical before
reporting any number, so "low overhead" is never bought with a different
answer.  Timing uses ``ProcessingStats.elapsed_seconds`` (consumer-only
timed region — generator cost excluded); after one untimed warm-up per
side the repeats *interleave* disabled and enabled runs and the minimum
per side is kept, so scheduler noise, cache state, and frequency scaling
hit both sides alike.  Results are
written as JSON — by default ``BENCH_obs.json`` at the repo root, which
CI uploads as an artifact — and the script exits non-zero when the
enabled-path overhead exceeds ``--max-overhead-pct``.

Run::

    PYTHONPATH=src python benchmarks/bench_obs.py --trees 120
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro import SketchTree, SketchTreeConfig
from repro.datasets import DblpGenerator, TreebankGenerator
from repro.obs import MetricsRegistry, Registry, to_json_dict
from repro.stream import StreamProcessor

REPO_ROOT = Path(__file__).resolve().parent.parent

GENERATORS = {"treebank": TreebankGenerator, "dblp": DblpGenerator}


def make_config(seed: int) -> SketchTreeConfig:
    """The paper's experimental configuration (Section 7.1)."""
    return SketchTreeConfig(
        s1=50, s2=7, max_pattern_edges=4, n_virtual_streams=229, seed=seed
    )


def ingest_once(
    trees: list, batch_trees: int, seed: int, metrics: Registry | None
) -> tuple[float, SketchTree]:
    """One full ingest; returns the consumer-only elapsed time."""
    synopsis = SketchTree(make_config(seed), metrics=metrics)
    processor = StreamProcessor(
        [synopsis], batch_trees=batch_trees, metrics=metrics
    )
    stats = processor.run(trees)
    return stats.elapsed_seconds, synopsis


def best_of_interleaved(
    repeats: int, trees: list, batch_trees: int, seed: int, registry: Registry
) -> tuple[float, float, SketchTree, SketchTree]:
    """Minimum elapsed time per side over ``repeats`` interleaved ingests.

    One untimed warm-up per side first, then disabled/enabled runs
    alternate — strictly sequential sides let interpreter warm-up,
    cache state, and frequency scaling bias whichever side runs first,
    which on small CI streams dwarfs the effect being measured.  Every
    repeat builds a fresh synopsis; the last pair is returned for the
    bit-identity check (all repeats are deterministic, so any would do).
    """
    ingest_once(trees, batch_trees, seed, None)  # warm-up, untimed
    ingest_once(trees, batch_trees, seed, registry)
    best_disabled = best_enabled = float("inf")
    disabled_st = enabled_st = None
    for _ in range(repeats):
        elapsed, disabled_st = ingest_once(trees, batch_trees, seed, None)
        best_disabled = min(best_disabled, elapsed)
        elapsed, enabled_st = ingest_once(trees, batch_trees, seed, registry)
        best_enabled = min(best_enabled, elapsed)
    assert disabled_st is not None and enabled_st is not None
    return best_disabled, best_enabled, disabled_st, enabled_st


def counters_of(synopsis: SketchTree) -> list[np.ndarray]:
    """Every virtual stream's counter matrix, in residue order."""
    streams = synopsis.streams
    return [streams.sketch(r).counters for r in range(streams.n_streams)]


def run_dataset(
    name: str, n_trees: int, batch_trees: int, seed: int, repeats: int
) -> dict:
    trees = list(GENERATORS[name](seed=seed + 1).generate(n_trees))

    registry = MetricsRegistry()
    disabled_seconds, enabled_seconds, disabled_st, enabled_st = (
        best_of_interleaved(repeats, trees, batch_trees, seed, registry)
    )

    identical = disabled_st.n_values == enabled_st.n_values and all(
        np.array_equal(a, b)
        for a, b in zip(counters_of(disabled_st), counters_of(enabled_st))
    )
    overhead_pct = (
        (enabled_seconds - disabled_seconds) / disabled_seconds * 100.0
        if disabled_seconds > 0
        else 0.0
    )
    exported = to_json_dict(registry)
    return {
        "dataset": name,
        "n_trees": n_trees,
        "n_values": enabled_st.n_values,
        "batch_trees": batch_trees,
        "repeats": repeats,
        "bit_identical": bool(identical),
        "disabled": {
            "seconds": round(disabled_seconds, 6),
            "trees_per_second": round(n_trees / disabled_seconds, 2),
        },
        "enabled": {
            "seconds": round(enabled_seconds, 6),
            "trees_per_second": round(n_trees / enabled_seconds, 2),
            "n_counters": len(exported["counters"]),
            "n_gauges": len(exported["gauges"]),
            "n_histograms": len(exported["histograms"]),
        },
        "overhead_pct": round(overhead_pct, 2),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--trees", type=int, default=120, help="trees per dataset (default 120)"
    )
    parser.add_argument(
        "--datasets",
        nargs="+",
        choices=sorted(GENERATORS),
        default=sorted(GENERATORS),
        help="datasets to ingest (default: both)",
    )
    parser.add_argument(
        "--batch-trees",
        type=int,
        default=32,
        help="cross-tree micro-batch size (default 32)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="ingests per side; minimum elapsed is reported (default 3)",
    )
    parser.add_argument("--seed", type=int, default=7, help="master seed")
    parser.add_argument(
        "--max-overhead-pct",
        type=float,
        default=5.0,
        help="fail (exit 1) when metrics-enabled ingest is more than this "
        "many percent slower than disabled (default 5.0)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_obs.json",
        help="output JSON path (default: BENCH_obs.json at the repo root)",
    )
    args = parser.parse_args(argv)

    runs = []
    for name in args.datasets:
        result = run_dataset(
            name, args.trees, args.batch_trees, args.seed, args.repeats
        )
        runs.append(result)
        print(
            f"{name:>9}: {result['n_trees']} trees / {result['n_values']} values  "
            f"disabled {result['disabled']['seconds']:.3f}s  "
            f"enabled {result['enabled']['seconds']:.3f}s  "
            f"overhead {result['overhead_pct']:+.1f}%  "
            f"bit_identical={result['bit_identical']}"
        )

    report = {
        "benchmark": "obs_overhead",
        "config": {"s1": 50, "s2": 7, "k": 4, "p": 229, "seed": args.seed},
        "max_overhead_pct": args.max_overhead_pct,
        "runs": runs,
        "worst_overhead_pct": max(r["overhead_pct"] for r in runs),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    if not all(r["bit_identical"] for r in runs):
        print(
            "FAIL: metrics-enabled counters diverged from the disabled path",
            file=sys.stderr,
        )
        return 1
    if report["worst_overhead_pct"] > args.max_overhead_pct:
        print(
            f"FAIL: metrics overhead {report['worst_overhead_pct']:.1f}% exceeds "
            f"the {args.max_overhead_pct:.1f}% budget",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
