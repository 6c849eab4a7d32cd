"""Tests of the benchmark suite itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/suite

The smoke runs take well under a minute together.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys

import compare
import ingest
import pytest
import run


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_of_every_workload(tmp_path, trace):
    done = subprocess.run(
        [
            sys.executable, str(run.ROOT / "benchmarks" / "suite" / "run.py"),
            "--workload", "all", "--scale", "smoke", "--seconds", "1",
            "--trace", str(trace), "--out", str(tmp_path),
        ],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    final = json.loads(done.stdout.splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0
    reports = compare.load_reports(tmp_path)
    assert sorted(reports) == sorted(run.WORKLOADS)

    # Schema: every metric the contract names, with its unit, and no other.
    section = run.load_contract()["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    for workload, (report,) in reports.items():
        emitted = {name: entry["unit"] for name, entry in report["metrics"].items()}
        assert emitted == expected, workload
        assert report["attempted"] >= 1 and report["correct"], workload
        assert report["provenance"]["nproc"] >= 1
        assert report["digests"], workload
        if not trace:
            assert all(e["value"] > 0 for e in report["metrics"].values()), workload


def test_corrupted_digest_fails_the_run(monkeypatch, capsys):
    """A digest that differs from the oracle's must fail the run."""
    calls = itertools.count()
    real = ingest.counters_digest
    monkeypatch.setattr(
        ingest, "counters_digest", lambda streams: f"{real(streams)}-{next(calls)}"
    )
    status = run.main(
        ["--workload", "ingest-dblp", "--scale", "smoke", "--seconds", "0.5"]
    )
    final = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 1
    assert final["correct"] is False


def test_repeats_report_the_median_of_each_metric(tmp_path, capsys):
    status = run.main(
        ["--workload", "ingest-treebank-topk", "--scale", "smoke", "--seconds", "0.3",
         "--repeats", "3", "--out", str(tmp_path)]
    )
    final = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 0
    (reports,) = compare.load_reports(tmp_path).values()
    assert len(reports) == 3
    assert final["attempted"] == sum(r["attempted"] for r in reports)
    for metric, entry in final["metrics"].items():
        values = sorted(r["metrics"][metric]["value"] for r in reports)
        assert entry["value"] == values[1], metric


def test_missing_source_exits_without_a_result(tmp_path):
    """Outside a checkout (no src/) the command fails and prints no result."""
    suite = tmp_path / "benchmarks" / "suite"
    suite.mkdir(parents=True)
    (suite / "run.py").write_bytes((run.ROOT / "benchmarks" / "suite" / "run.py").read_bytes())
    done = subprocess.run(
        [sys.executable, str(suite / "run.py"), "--workload", "ingest-dblp"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# ---------------------------------------------------------------------------
# compare.py on synthetic reports
# ---------------------------------------------------------------------------

def _report(values: dict[str, float], seed: int = 1, digest: str = "d") -> dict:
    return {
        "workload": "ingest-dblp",
        "seed": seed,
        "seconds": 15.0,
        "trace": 0,
        "scale": "full",
        "sizes": {"trees_per_round": 1000},
        "config": {"s1": 50},
        "digests": {"oracle": digest},
        "metrics": {
            name: {"value": value, "unit": "1/s" if name.startswith("through") else "ms"}
            for name, value in values.items()
        },
    }


def _rows(base: list[dict], new: list[dict]) -> dict[str, str]:
    rows = compare.compare(
        {"ingest-dblp": base}, {"ingest-dblp": new}, run.load_contract()
    )
    return {metric: row["verdict"] for _, metric, _, row in rows}


def test_compare_verdicts():
    base = [_report({"throughput_per_s": 100 + i % 3, "latency_p50_ms": 10.0 + (i % 3) / 10})
            for i in range(10)]
    faster = [_report({"throughput_per_s": 130 + i % 3, "latency_p50_ms": 10.0 + (i % 3) / 10})
              for i in range(10)]
    slower = [_report({"throughput_per_s": 70 + i % 3, "latency_p50_ms": 13.0 + (i % 3) / 10})
              for i in range(10)]
    assert _rows(base, faster) == {
        "throughput_per_s": "improved", "latency_p50_ms": "unchanged"
    }
    assert _rows(base, slower) == {
        "throughput_per_s": "regressed", "latency_p50_ms": "regressed"
    }
    noisy = [_report({"throughput_per_s": 60 + 40 * (i % 3), "latency_p50_ms": 10.0})
             for i in range(10)]
    assert _rows(noisy, noisy)["throughput_per_s"] == "unresolved"


def test_compare_flags_digests_and_refuses_other_seeds():
    base = [_report({"latency_p50_ms": 10.0})]
    assert _rows(base, [_report({"latency_p50_ms": 10.0}, digest="e")])["digests"] == (
        "DIGEST CHANGED"
    )
    with pytest.raises(compare.Incomparable, match="seed"):
        _rows(base, [_report({"latency_p50_ms": 10.0}, seed=2)])
