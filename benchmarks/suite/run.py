"""The benchmark suite's one command.

Run from the repository root::

    python3 benchmarks/suite/run.py --workload ingest-dblp --seed 1 \\
        --trace 0 [--seconds S] [--scale smoke] [--repeats r] [--out DIR]

``--workload`` is one of ``ingest-dblp``, ``ingest-treebank-topk``,
``query-mix``, ``serve-mixed`` or ``all``.  Inputs are generated from
``--seed`` during set-up; the library only ever sees the generated
trees and queries.  Each run measures for about ``--seconds`` seconds
(default: ``run_seconds`` in ``BENCHMARK.json``), applies its
correctness checks, prints every metric as ``name value unit`` and ends
with one JSON line::

    {"correct": true, "attempted": 7000, "failed": 0, "metrics": {...}}

With ``--repeats r`` each metric in that line is the median of its r
runs; with ``--workload all`` its names are prefixed ``<workload>/``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` (or a bare ``--trace``) reports its per-layer metrics
from a run in which the benchmark drives each layer's public entry
point itself.  ``--out DIR`` also writes a JSON report per run (with
provenance, digests and every detail measured), which ``compare.py``
reads.  The exit code is 0 when every check passed, 1 when one failed
and 2 when the library source is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
WORKLOADS = ("ingest-dblp", "ingest-treebank-topk", "query-mix", "serve-mixed")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="SketchTree benchmark suite")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="measured time per run (default: run_seconds in BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument(
        "--scale",
        choices=("full", "smoke"),
        default="full",
        help="input sizes; smoke is for the suite's own tests",
    )
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None, help="report directory")
    args = parser.parse_args(argv)
    if (args.seconds is not None and args.seconds <= 0) or args.repeats < 1:
        parser.error("--seconds must be > 0 and --repeats >= 1")
    return args


def load_contract() -> dict:
    """``BENCHMARK.json``: metric names, units and directions."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def contract_units(contract: dict, trace: bool) -> dict[str, str]:
    section = contract["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def run_workload(name: str, params):
    """Dispatch to the workload module (imported once src is on the path)."""
    if name in ("ingest-dblp", "ingest-treebank-topk"):
        import ingest

        return ingest.run(name, params)
    if name == "query-mix":
        import querymix

        return querymix.run(params)
    import servemixed

    return servemixed.run(params)


def report_of(name: str, args: argparse.Namespace, result, units: dict) -> dict:
    """The full JSON report of one run."""
    import harness

    missing = sorted(set(units) - set(result.metrics))
    extra = sorted(set(result.metrics) - set(units))
    if missing or extra:
        raise RuntimeError(
            f"{name} emitted the wrong metric set: missing {missing}, extra {extra}"
        )
    bad = [k for k, v in result.metrics.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"{name} emitted non-finite metrics: {bad}")
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "sizes": result.sizes,
        "config": result.config,
        "provenance": harness.provenance(),
        "digests": result.digests,
        "checks": result.checks,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            metric: {"value": float(result.metrics[metric]), "unit": unit}
            for metric, unit in units.items()
        },
        "details": result.details,
    }


def print_report(report: dict) -> None:
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']}")
    for metric, entry in report["metrics"].items():
        print(f"{metric} {entry['value']!r} {entry['unit']}")
    for check, passed in report["checks"].items():
        print(f"# check {check}: {'ok' if passed else 'FAILED'}")


def final_result(reports: list[dict]) -> dict:
    """The result line over every run: each metric is its median over
    the workload's repeats, keyed ``<workload>/<metric>`` when more than
    one workload ran."""
    by_workload: dict[str, list[dict]] = {}
    for report in reports:
        by_workload.setdefault(report["workload"], []).append(report)
    prefixed = len(by_workload) > 1
    metrics = {}
    for workload, group in by_workload.items():
        for metric, entry in group[0]["metrics"].items():
            key = f"{workload}/{metric}" if prefixed else metric
            values = [r["metrics"][metric]["value"] for r in group]
            metrics[key] = {"value": statistics.median(values), "unit": entry["unit"]}
    return {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import harness

    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    units = contract_units(contract, bool(args.trace))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports: list[dict] = []
    harness.WORK_DIR.mkdir(exist_ok=True)
    for repeat in range(args.repeats):
        for name in names:
            workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=harness.WORK_DIR))
            try:
                params = harness.RunParams(
                    seed=args.seed,
                    seconds=args.seconds,
                    trace=bool(args.trace),
                    scale=args.scale,
                    workdir=workdir,
                )
                result = run_workload(name, params)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            report = report_of(name, args, result, units)
            reports.append(report)
            print_report(report)
            if args.out is not None:
                args.out.mkdir(parents=True, exist_ok=True)
                stem = f"{name}-s{args.seed}-t{args.trace}-r{repeat}"
                (args.out / f"{stem}.json").write_text(
                    json.dumps(report, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8",
                )
    if not any(harness.WORK_DIR.iterdir()):
        harness.WORK_DIR.rmdir()
    final = final_result(reports)
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
