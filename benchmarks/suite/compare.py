"""Paired comparison of two sets of benchmark reports.

Compare report sets already on disk (directories of ``run.py --out``
reports, searched recursively)::

    python3 benchmarks/suite/compare.py BASE_REPORTS NEW_REPORTS

or run interleaved pairs first — BASE and NEW are then two source
checkouts, each measured with its own (identical) copy of the suite for
the ``run_seconds`` its ``BENCHMARK.json`` fixes, alternating which
side runs first::

    python3 benchmarks/suite/compare.py BASE_TREE NEW_TREE --run \\
        --workload ingest-dblp --pairs 10 --seed 7 --out /tmp/cmp

Per workload and metric it prints each side's median and quartiles, the
change of the median, the pairs the new side won, and a verdict
(``choosing-metrics`` §8):

* ``regressed`` — the new median is worse than the base median by more
  than the metric's bound in ``BENCHMARK.json``;
* ``improved`` — the new side won at least nine pairs in ten (ties
  count for neither) and the medians differ by more than the base
  side's interquartile distance;
* ``unresolved`` — the base side's own spread is wider than the bound,
  unless every new run beat every base run;
* ``unchanged`` — none of the above.

Per-layer metrics have no bound and get no verdict.  A change of any
correctness digest is flagged.  Reports whose seed, sizes, config,
run length or mode differ are refused.  Exit status: 0 when nothing
regressed, 1 when something did, 2 when the sets cannot be compared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parent.parent
#: Report fields two sets must agree on before they are compared.
IDENTITY = ("workload", "seed", "seconds", "trace", "scale", "sizes", "config")


class Incomparable(Exception):
    """The two report sets do not measure the same thing."""


def load_reports(directory: Path) -> dict[str, list[dict]]:
    """Reports under ``directory`` by workload, in path order (= pair order)."""
    out: dict[str, list[dict]] = {}
    for path in sorted(directory.rglob("*.json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        if "workload" in report and "metrics" in report:
            out.setdefault(report["workload"], []).append(report)
    return out


def check_comparable(base: list[dict], new: list[dict]) -> None:
    reports = base + new
    fields = [
        key
        for key in IDENTITY
        if len({json.dumps(r.get(key), sort_keys=True) for r in reports}) > 1
    ]
    if fields:
        raise Incomparable(f"reports differ in {', '.join(fields)}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> dict:
    """The §8 verdict for one metric from paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    spread = (b3 - b1) / abs(bm) if bm else 0.0
    worse = sign * (bm - nm) / abs(bm) if bm else 0.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    all_better = min(new) > max(base) if sign > 0 else max(new) < min(base)
    if spread > bound and not all_better:
        label = "unresolved"
    elif worse > bound:
        label = "regressed"
    elif (all_better or wins >= 0.9 * len(pairs)) and abs(nm - bm) > (b3 - b1):
        label = "improved"
    else:
        label = "unchanged"
    return {
        "base": (b1, bm, b3),
        "new": (n1, nm, n3),
        "change": (nm - bm) / abs(bm) if bm else 0.0,
        "spread": spread,
        "wins": wins,
        "pairs": len(pairs),
        "verdict": label,
    }


def compare(base: dict[str, list[dict]], new: dict[str, list[dict]], contract: dict):
    """Yield ``(workload, metric, unit, row)``; ``row['verdict']`` is
    ``n/a`` for per-layer metrics and ``digest`` rows flag changes."""
    bounds = {m["name"]: m for m in contract["end_to_end"]}
    layers = {m["name"]: m for m in contract["per_layer"]}
    for workload in sorted(set(base) & set(new)):
        check_comparable(base[workload], new[workload])
        digests = {
            side: {json.dumps(r["digests"], sort_keys=True) for r in reports}
            for side, reports in (("base", base[workload]), ("new", new[workload]))
        }
        if digests["base"] != digests["new"]:
            yield workload, "digests", "", {"verdict": "DIGEST CHANGED"}
        for metric in base[workload][0]["metrics"]:
            base_values = [r["metrics"][metric]["value"] for r in base[workload]]
            new_values = [r["metrics"][metric]["value"] for r in new[workload]]
            unit = base[workload][0]["metrics"][metric]["unit"]
            if metric in bounds:
                spec = bounds[metric]
                row = verdict(base_values, new_values, spec["better"], spec["bound"])
            else:
                spec = layers.get(metric, {"better": "lower"})
                row = verdict(base_values, new_values, spec["better"], float("inf"))
                row["verdict"] = "n/a"
            yield workload, metric, unit, row


def render(rows) -> tuple[str, bool]:
    lines = [
        f"{'workload':<22} {'metric':<26} {'base median [q1, q3]':<34} "
        f"{'new median [q1, q3]':<34} {'change':>8} {'wins':>6}  verdict"
    ]
    regressed = False
    for workload, metric, unit, row in rows:
        if metric == "digests":
            lines.append(f"{workload:<22} {metric:<26} {row['verdict']}")
            continue
        b1, bm, b3 = row["base"]
        n1, nm, n3 = row["new"]
        regressed |= row["verdict"] == "regressed"
        lines.append(
            f"{workload:<22} {metric:<26} "
            f"{f'{bm:.4g} [{b1:.4g}, {b3:.4g}] {unit}':<34} "
            f"{f'{nm:.4g} [{n1:.4g}, {n3:.4g}] {unit}':<34} "
            f"{100 * row['change']:>+7.1f}% {row['wins']:>2}/{row['pairs']:<3}  {row['verdict']}"
        )
    return "\n".join(lines), regressed


def suite_hash(tree: Path) -> str:
    """sha256 over the suite's Python sources in a checkout."""
    digest = hashlib.sha256()
    for path in sorted((tree / "benchmarks" / "suite").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_pairs(base: Path, new: Path, args: argparse.Namespace) -> tuple[Path, Path]:
    """Interleaved pairs, alternating which side runs first."""
    if suite_hash(base) != suite_hash(new):
        raise Incomparable("the two checkouts carry different benchmark code")
    sides = {"base": base, "new": new}
    for pair in range(args.pairs):
        order = ("base", "new") if pair % 2 == 0 else ("new", "base")
        for side in order:
            tree = sides[side]
            command = [
                sys.executable,
                str(tree / "benchmarks" / "suite" / "run.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--out", str(args.out / side / f"pair{pair:03d}"),
            ]
            done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
            if done.returncode != 0:
                raise RuntimeError(f"{side} pair {pair} failed:\n{done.stderr[-2000:]}")
            print(f"pair {pair} {side}: {done.stdout.splitlines()[-1][:120]}", flush=True)
    return args.out / "base", args.out / "new"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="paired benchmark comparison")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--run", action="store_true", help="run pairs in two checkouts")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=Path("compare-out"))
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        base_dir, new_dir = (
            run_pairs(args.base.resolve(), args.new.resolve(), args)
            if args.run
            else (args.base, args.new)
        )
        text, regressed = render(
            compare(load_reports(base_dir), load_reports(new_dir), contract)
        )
    except Incomparable as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
