"""Serving-tier smoke: boot, ingest, query, scrape, clean SIGTERM.

Starts the sharded HTTP service as a *real subprocess*
(``python -m repro.serve --port 0``), exactly as an operator would, and
drives one full lifecycle against it:

1. parse the printed ``serving on http://...`` line for the ephemeral
   port;
2. wait for ``/readyz``;
3. ingest a small stream across the shards, with a drain to quiesce;
4. query the lock-free read path and the quiesced admin path, and
   check that both answers equal a single-threaded reference synopsis
   built in this process, bit for bit (AMS linearity over HTTP);
5. scrape ``/metrics`` and verify the exposition text parses (including
   the deliberately multi-line HELP string of ``serve_queue_depth``);
6. send SIGTERM and verify the graceful path: exit code 0, final
   checkpoints written, ``stopped cleanly`` on stdout.

A second boot then exercises the mergeable-top-k surface
(``--topk 4 --window-trees 16``): per-shard trackers and sliding
windows run freely, ``/window/topk`` serves the live trending-pattern
list, ``/admin/topk`` the exact-merged whole-stream one, the windows
answer ordered and xpath estimates, and ``/metrics`` exports the top-k
gauges.  (No bit-identity assertion on
this boot: the admin merge *refolds* trackers over the shards' union of
heavy hitters, which legitimately differs from a single-threaded
tracker's history — the counters, once unfolded, are what's
bit-identical, and tests/test_topk_merge.py pins that.)

Run:  python examples/serving_smoke.py
"""

import json
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro import SketchTree, SketchTreeConfig
from repro.trees import from_sexpr

STREAM = [
    "(article (author) (title))",
    "(article (author (name)) (year))",
    "(book (author) (title) (year))",
    "(article (title) (year))",
] * 8

QUERY = "(article (author))"
XPATH = "/article/author"

CONFIG = SketchTreeConfig(
    s1=40, s2=5, max_pattern_edges=3, n_virtual_streams=31, seed=11
)


def post(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as resp:
        return json.loads(resp.read())


def get(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as resp:
        return resp.read().decode()


def boot(extra_args):
    """Start ``python -m repro.serve`` and return (process, base URL)."""
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve",
            "--port", "0", "--shards", "3",
            "--s1", str(CONFIG.s1), "--s2", str(CONFIG.s2),
            "--streams", str(CONFIG.n_virtual_streams),
            "--seed", str(CONFIG.seed),
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    line = server.stdout.readline()
    match = re.search(r"serving on (http://[\d.]+:\d+)", line)
    assert match, f"no address line, got: {line!r}"
    base = match.group(1)
    deadline = time.monotonic() + 30
    while True:
        try:
            get(base, "/readyz")
            return server, base
        except (urllib.error.URLError, urllib.error.HTTPError):
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)


def topk_window_smoke() -> None:
    """Second lifecycle: per-shard top-k trackers + sliding windows."""
    server, base = boot(["--topk", "4", "--window-trees", "16",
                         "--bucket-trees", "4"])
    try:
        print(f"top-k server up at {base}")
        for start in range(0, len(STREAM), 4):
            post(base, "/ingest", {"trees": STREAM[start : start + 4]})
        drained = post(base, "/admin/drain", {})
        assert drained["n_trees"] == len(STREAM), drained

        windowed = json.loads(get(base, "/window/topk?limit=3"))
        assert windowed["patterns"], windowed
        assert windowed["trees_covered"] <= len(STREAM), windowed
        top = windowed["patterns"][0]
        assert top["frequency"] >= 1 and top["pattern"], top
        print(
            f"/window/topk over {windowed['trees_covered']} recent trees: "
            f"{top['pattern']} x{top['frequency']}"
        )

        merged = json.loads(get(base, "/admin/topk?limit=3"))
        assert merged["merged"] and merged["n_trees"] == len(STREAM), merged
        assert merged["patterns"], merged
        print(
            "/admin/topk (exact merge): "
            + ", ".join(
                f"{e['pattern']} x{e['frequency']}" for e in merged["patterns"]
            )
        )

        estimate = post(base, "/window/estimate/ordered", {"query": QUERY})
        assert estimate["window_trees"] == 16, estimate
        print(f"window estimate for {QUERY}: {estimate['estimate']:.1f}")
        xpath = post(base, "/window/estimate/xpath", {"query": XPATH})
        assert xpath["estimate"] > 0, xpath
        print(f"window estimate for {XPATH}: {xpath['estimate']:.1f}")

        metrics = get(base, "/metrics")
        for gauge in (
            "repro_serve_topk_deleted_self_join_mass",
            "repro_serve_window_topk_refolds_total",
            "repro_serve_window_topk_deleted_self_join_mass",
        ):
            assert gauge in metrics, f"{gauge} missing from /metrics"
        print("top-k gauges present on /metrics")

        server.send_signal(signal.SIGTERM)
        out, _ = server.communicate(timeout=60)
        assert server.returncode == 0, f"exit {server.returncode}: {out}"
        assert "stopped cleanly" in out, out
        print("top-k boot: clean SIGTERM shutdown")
    finally:
        if server.poll() is None:
            server.kill()


def main() -> int:
    checkpoint_dir = Path(tempfile.mkdtemp(prefix="serve-smoke-"))
    server, base = boot(["--checkpoint-dir", str(checkpoint_dir)])
    try:
        print(f"server up at {base}")

        for start in range(0, len(STREAM), 4):
            post(base, "/ingest", {"trees": STREAM[start : start + 4]})
        drained = post(base, "/admin/drain", {})
        assert drained["n_trees"] == len(STREAM), drained
        print(f"ingested and drained {drained['n_trees']} trees")

        lockfree = post(base, "/estimate/ordered", {"query": QUERY})
        admin = post(base, "/admin/estimate/ordered", {"query": QUERY})
        reference = SketchTree(CONFIG)
        reference.update_batch([from_sexpr(text) for text in STREAM])
        expected = reference.estimate_ordered(QUERY)
        assert lockfree["estimate"] == admin["estimate"] == expected, (
            lockfree, admin, expected,
        )
        print(
            f"estimates for {QUERY}: lock-free {lockfree['estimate']:.1f} "
            f"== admin {admin['estimate']:.1f} == reference (bit-identical)"
        )

        metrics = get(base, "/metrics")
        for text_line in metrics.splitlines():
            assert text_line and not text_line.startswith(" "), repr(text_line)
        assert "repro_serve_trees_total" in metrics
        assert "\\n" in metrics  # the multi-line HELP arrives escaped
        print(f"/metrics parses ({len(metrics.splitlines())} lines)")

        server.send_signal(signal.SIGTERM)
        out, _ = server.communicate(timeout=60)
        assert server.returncode == 0, f"exit {server.returncode}: {out}"
        assert "stopped cleanly" in out, out
        checkpoints = sorted(checkpoint_dir.glob("shard*.sktsnap"))
        assert len(checkpoints) >= 3, checkpoints
        print(
            f"clean SIGTERM shutdown; {len(checkpoints)} final checkpoints "
            f"in {checkpoint_dir}"
        )
    finally:
        if server.poll() is None:
            server.kill()
    topk_window_smoke()
    return 0


if __name__ == "__main__":
    sys.exit(main())
