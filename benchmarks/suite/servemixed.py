"""The ``serve-mixed`` workload: writes beside reads over real HTTP.

The server is a subprocess, ``python -m repro.serve --port 0 --shards 2
--k 4 --summary``, and the benchmark process talks to it over exactly
two keep-alive connections:

* **A** ingests a pool of generated dblp trees as s-expressions in
  50-tree batches, closed loop: each pass posts every batch, then
  ``/admin/drain`` waits until the shards have applied them.  A pass
  never queues more batches than the shard queues hold, so no request
  is refused; a 503 would still count as a failed attempt, with a
  20 ms back-off before the retry.
* **B** sends ``/estimate/{ordered,unordered,sum,xpath}`` open loop at
  15 requests per second from its own thread, each request timed from
  when it was due, so a stall counts against every request behind it.

This is the only workload with queue wait, drain and transport, and its
estimates run while the shards ingest.  No transport setting is
changed: an idle keep-alive estimate pays the same delayed-ACK floor
any HTTP/1.1 client of this server pays.

Checks: every drain reports as many trees as were submitted, and
``/admin/estimate/{ordered,sum}`` equals, bit for bit, the estimate of a
serial ``SketchTree`` built over the pool and merged with itself once
per pass (AMS linearity); ``unordered`` and ``xpath`` agree within float
rounding (see ``HASH_ORDERED_KINDS``).
The traced run also scrapes ``/metrics`` on connection A every few
batches for the queue depth and takes the server's own ingest spans
from it, and after the drain compares idle HTTP estimates with the
same estimates made in process.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from harness import (
    BATCH_TREES,
    REL_ERROR_GATE,
    ROOT,
    SETUP_REPEATS,
    SRC,
    ZERO_LAYER_COUNTS,
    LayerClock,
    Result,
    RunParams,
    Schedule,
    config_fields,
    counters_digest,
    mean_relative_error,
    median,
    overhead_pct,
    paper_config,
    percentile,
)
from querymix import query_set

from repro import ExactCounter, SketchTree
from repro.datasets import DblpGenerator
from repro.trees import to_sexpr

SIZES = {
    "full": {"pool_trees": 1000, "queries": 20},
    "smoke": {"pool_trees": 100, "queries": 4},
}
SHARDS = 2
ESTIMATE_RATE = 15.0
ESTIMATE_KINDS = ("ordered", "unordered", "sum", "xpath")
FREQUENT_BAND = ((1e-3, 1.0),)
#: The estimate-latency tail (~300 samples per run, 30 beyond it).
TAIL_PERCENTILE = 90
BACKOFF_S = 0.02
#: Traced passes scrape /metrics after every this many batches (and
#: after the last).
SCRAPE_EVERY = 5
#: Queries per kind whose admin estimate is checked against the reference.
ADMIN_CHECKS = 5
#: Kinds whose estimate sums per-stream partial estimates in the
#: iteration order of a set of patterns (unordered arrangements, ``*``/
#: ``//`` resolutions); that order follows string hashing, which differs
#: between processes, so the last bits may differ.
HASH_ORDERED_KINDS = ("unordered", "xpath")
START_TIMEOUT_S = 60.0


class _Client:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int):
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def request(self, method: str, path: str, body: bytes | None = None):
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        return response.status, response.read()

    def post_json(self, path: str, payload: object) -> tuple[int, object]:
        status, raw = self.request("POST", path, json.dumps(payload).encode())
        return status, json.loads(raw)

    def close(self) -> None:
        self.connection.close()


class _Server:
    """The serving tier as a child process."""

    def __init__(self, seed: int):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        command = [
            sys.executable, "-m", "repro.serve", "--port", "0",
            "--shards", str(SHARDS), "--k", "4", "--summary", "--seed", str(seed),
        ]
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        line = self.process.stdout.readline()
        if not line.startswith("serving on http://"):
            _, err = self.stop()
            raise RuntimeError(f"server did not start: {line!r} {err}")
        self.port = int(line.split()[2].rsplit(":", 1)[1])

    def wait_ready(self) -> None:
        deadline = time.perf_counter() + START_TIMEOUT_S
        client = _Client(self.port)
        try:
            while client.request("GET", "/readyz")[0] != 200:
                if time.perf_counter() > deadline:
                    raise RuntimeError("server never became ready")
                time.sleep(0.01)
        finally:
            client.close()

    def peak_rss_mb(self) -> float:
        """The server's VmHWM (peak resident set), in MiB."""
        with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> tuple[str, str]:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.terminate()
        try:
            return self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            return self.process.communicate()


def _start_server(seed: int) -> _Server:
    server = _Server(seed)
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    return server


@dataclass
class _OpenLoop:
    """Connection B's record."""

    latencies: list[float] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    sent: int = 0
    failed: int = 0
    error: BaseException | None = None


def _estimate_loop(
    client: _Client, requests: list, start: float, deadline: float, record: _OpenLoop
) -> None:
    """Open loop: request ``i`` is due at ``start + i / rate``."""
    interval = 1.0 / ESTIMATE_RATE
    try:
        index = 0
        while start + index * interval < deadline:
            due = start + index * interval
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            path, body = requests[index % len(requests)]
            status, _ = client.request("POST", path, body)
            done = time.perf_counter()
            record.sent += 1
            record.lateness.append(sent - due)
            if status == 200:
                record.latencies.append(done - due)
            else:
                record.failed += 1
            index += 1
    except Exception as exc:  # noqa: BLE001 — re-raised by the main thread
        record.error = exc


def _metrics_text(client: _Client) -> dict[str, float]:
    """``/metrics`` as a name → value map (sample lines only)."""
    _, raw = client.request("GET", "/metrics")
    values = {}
    for line in raw.decode().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


@dataclass
class _Pass:
    seconds: float
    drain_s: float
    acks: list[float]
    refused: int
    n_trees: int


def _ingest_pass(client: _Client, bodies: list[bytes], depths: list | None) -> _Pass:
    """Post every batch, then drain; ``depths`` collects queue-depth
    scrapes when the pass is traced."""
    clock = time.perf_counter
    acks: list[float] = []
    refused = 0
    start = clock()
    for index, body in enumerate(bodies):
        while True:
            t0 = clock()
            status, raw = client.request("POST", "/ingest", body)
            if status == 202:
                acks.append(clock() - t0)
                break
            if status != 503:
                raise RuntimeError(f"ingest answered {status}: {raw[:200]!r}")
            refused += 1
            time.sleep(BACKOFF_S)
        scrape = index % SCRAPE_EVERY == SCRAPE_EVERY - 1 or index == len(bodies) - 1
        if depths is not None and scrape:
            depths.append(_metrics_text(client)["repro_serve_queue_depth"])
    drain_start = clock()
    status, raw = client.request("POST", "/admin/drain")
    end = clock()
    if status != 200:
        raise RuntimeError(f"drain answered {status}")
    n_trees = json.loads(raw)["n_trees"]
    return _Pass(end - start, end - drain_start, acks, refused, n_trees)


def _requests(arguments: dict) -> list[tuple[str, bytes]]:
    """B's request cycle: query ``i`` of every kind, for every ``i``."""
    out = []
    for index in range(len(arguments["ordered"])):
        for kind in ESTIMATE_KINDS:
            key = "queries" if kind == "sum" else "query"
            body = json.dumps({key: arguments[kind][index]}).encode()
            out.append((f"/estimate/{kind}", body))
    return out


def _setup(seed: int, n_trees: int):
    """The pool as request bodies, and a ready server."""
    trees = list(DblpGenerator(seed=seed).generate(n_trees))
    bodies = [
        json.dumps({"trees": [to_sexpr(t) for t in trees[i : i + BATCH_TREES]]}).encode()
        for i in range(0, n_trees, BATCH_TREES)
    ]
    return trees, bodies, _start_server(seed)


def run(params: RunParams) -> Result:
    sizes = SIZES[params.scale]
    n_trees = sizes["pool_trees"]
    config = paper_config(params.seed, maintain_summary=True)
    result = Result(
        sizes={**sizes, "shards": SHARDS, "estimate_rate": ESTIMATE_RATE},
        config=config_fields(config),
    )
    setup_times: list[float] = []
    server: _Server | None = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            start = time.perf_counter()
            trees, bodies, server = _setup(params.seed, n_trees)
            setup_times.append(time.perf_counter() - start)
        assert server is not None
        _measure(params, config, trees, bodies, server, result)
    finally:
        if server is not None:
            server.stop()
    result.details["setup_times_s"] = setup_times
    if not params.trace:
        result.metrics["setup_s"] = median(setup_times)
    return result


def _measure(params, config, trees, bodies, server: _Server, result: Result) -> None:
    # Reference: one serial synopsis over the pool, and exact counts.
    start = time.perf_counter()
    reference = SketchTree(config).ingest(trees, batch_trees=BATCH_TREES)
    exact = ExactCounter(config.max_pattern_edges).ingest(trees)
    arguments, frequent = query_set(
        exact, reference, params.seed, SIZES[params.scale]["queries"], FREQUENT_BAND
    )
    result.digests["pool"] = counters_digest(reference.streams)
    result.details["oracle_s"] = time.perf_counter() - start
    requests = _requests(arguments)

    ingest = _Client(server.port)
    estimates = _Client(server.port)
    try:
        warm = _ingest_pass(ingest, bodies, None)
        for path, body in requests[: len(ESTIMATE_KINDS)]:
            estimates.request("POST", path, body)
        spans_before = _metrics_text(ingest) if params.trace else {}

        record = _OpenLoop()
        schedule = Schedule(params.seconds, params.trace)
        history = [warm]
        depths: list[float] = []
        t0 = time.perf_counter()
        reader = threading.Thread(
            target=_estimate_loop,
            args=(estimates, requests, t0, t0 + params.seconds, record),
            name="estimate-open-loop",
            daemon=True,
        )
        reader.start()
        for scraped in schedule:
            done = _ingest_pass(ingest, bodies, depths if scraped else None)
            history.append(done)
            schedule.record(scraped, done.seconds)
        reader.join(timeout=params.seconds + 120)
        if reader.is_alive():
            raise RuntimeError("estimate loop did not finish")
        if record.error is not None:
            raise record.error
        spans_after = _metrics_text(ingest) if params.trace else {}

        n_passes = len(history)
        result.checks["drained_all"] = all(
            p.n_trees == (i + 1) * len(trees) for i, p in enumerate(history)
        )
        merged = reference
        for _ in range(n_passes - 1):
            merged = merged.merge(reference)
        result.checks["admin_matches_serial"] = _admin_matches(ingest, merged, arguments)
        truths = [q.actual * n_passes for q in frequent]
        ordered = [merged.estimate_ordered(t) for t in arguments["ordered"][: len(frequent)]]
        rel_error = mean_relative_error(ordered, truths)
        result.checks["estimates_finite"] = bool(frequent) and all(map(math.isfinite, ordered))
        result.checks["rel_error"] = rel_error <= REL_ERROR_GATE
        idle = _idle_latencies(estimates, arguments) if params.trace else []
        rss = server.peak_rss_mb()
    finally:
        ingest.close()
        estimates.close()

    timed = history[1:]
    refused = sum(p.refused for p in timed)
    result.attempted = sum(len(bodies) + p.refused for p in timed) + record.sent
    result.failed = refused + record.failed
    result.checks["no_failed_requests"] = result.failed == 0
    timed_trees = len(timed) * len(trees)
    acks = [a for p in timed for a in p.acks]
    result.details.update(
        {
            "timed_passes": len(timed),
            "estimate_samples": len(record.latencies),
            "tail_percentile": TAIL_PERCENTILE,
            "serve.ingest_trees_per_s": timed_trees / sum(p.seconds for p in timed),
            "serve.estimate_p50_ms": 1e3 * percentile(record.latencies, 50),
            f"serve.estimate_p{TAIL_PERCENTILE}_ms": 1e3
            * percentile(record.latencies, TAIL_PERCENTILE),
            "serve.ingest_ack_p50_ms": 1e3 * percentile(acks, 50),
            "serve.ingest_503_total": refused,
            "serve.drain_tail_s": median([p.drain_s for p in timed]),
            "serve.generator_late_p95_ms": 1e3 * percentile(record.lateness, 95),
            "serve.rel_error_mean": rel_error,
        }
    )
    if not params.trace:
        result.metrics = {
            "throughput_per_s": result.details["serve.ingest_trees_per_s"],
            "latency_p50_ms": 1e3 * percentile(record.latencies, 50),
            "latency_tail_ms": 1e3 * percentile(record.latencies, TAIL_PERCENTILE),
            "peak_rss_mb": rss,
        }
        return

    inproc = []
    for text in arguments["ordered"]:
        t_start = time.perf_counter()
        merged.estimate_ordered(text)
        inproc.append(time.perf_counter() - t_start)
    # The server's own ingest spans (its encode span includes routing).
    # Shard threads overlap, so the spans are shared out among
    # themselves rather than against the client's wall time.
    layers = LayerClock()
    for layer in ("enumerate", "encode", "apply"):
        name = f"repro_ingest_{layer}_seconds_sum"
        layers.add(layer, spans_after[name] - spans_before[name])
    values = spans_after["repro_ingest_values_total"] - spans_before["repro_ingest_values_total"]
    result.metrics = {
        **ZERO_LAYER_COUNTS,
        **layers.shares(sum(layers.seconds.values())),
        "trace.us_per_op": 1e6 * median(schedule.traced) / len(trees),
        "trace_overhead_pct": overhead_pct(schedule.traced, schedule.untraced),
        "enumerate.patterns": values / len(timed),
        "estimate.rel_error_mean": rel_error,
        "queue.depth_max": max(depths),
        "queue.depth_mean": sum(depths) / len(depths),
        "serve.transport_share": 1.0 - median(inproc) / median(idle),
        "serve.generator_late_share": percentile(record.lateness, 95) * ESTIMATE_RATE,
        "serve.drain_tail_share": median([p.drain_s for p in timed])
        / median([p.seconds for p in timed]),
    }
    result.details.update(
        {
            "serve.idle_estimate_p50_ms": 1e3 * median(idle),
            "serve.synopsis_estimate_p50_us": 1e6 * median(inproc),
            "server_span_seconds": dict(layers.seconds),
        }
    )


def _admin_matches(client: _Client, merged: SketchTree, arguments: dict) -> bool:
    """The quiesce-and-merge answer against the serial reference."""
    calls = {
        "ordered": merged.estimate_ordered,
        "unordered": merged.estimate_unordered,
        "sum": merged.estimate_sum,
        "xpath": merged.estimate_xpath,
    }
    ok = True
    for kind in ESTIMATE_KINDS:
        key = "queries" if kind == "sum" else "query"
        for argument in arguments[kind][:ADMIN_CHECKS]:
            status, payload = client.post_json(f"/admin/estimate/{kind}", {key: argument})
            expected = calls[kind](argument)
            got = payload.get("estimate") if status == 200 else None
            if kind in HASH_ORDERED_KINDS:
                ok &= got is not None and math.isclose(got, expected, rel_tol=1e-9)
            else:
                ok &= got is not None and got.hex() == expected.hex()
    return ok


def _idle_latencies(client: _Client, arguments: dict) -> list[float]:
    """Ordered estimates over B once the shards are idle."""
    out = []
    for text in arguments["ordered"]:
        body = json.dumps({"query": text}).encode()
        start = time.perf_counter()
        client.request("POST", "/estimate/ordered", body)
        out.append(time.perf_counter() - start)
    return out
