"""Integration tests for the sharded serving tier (:mod:`repro.serve`).

The load-bearing assertion is the merge contract over HTTP: after
concurrent multi-shard ingest with estimate queries in flight, the
quiesced ``/admin/estimate/*`` answers must be **bit-identical** to a
single-threaded :class:`SketchTree` fed the concatenated stream — AMS
linearity end to end, through the queue/drain/merge machinery.

The suite boots real servers on ephemeral ports (``http.server`` in a
background thread) — no sockets are mocked.
"""

import dataclasses
import http.client
import json
import queue
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SketchTreeConfig
from repro.core.sketchtree import SketchTree
from repro.datasets.dblp import DblpGenerator
from repro.errors import ConfigError, ReproError
from repro.obs.registry import MetricsRegistry
import repro.serve.api as api_module
from repro.serve.api import make_server
from repro.serve.app import ServerApp, build_parser, run_from_args
from repro.serve.models import (
    ESTIMATE_KINDS,
    ApiError,
    parse_estimate_request,
    parse_ingest_request,
)
from repro.serve.service import ShardedService
from repro.serve.shards import IngestShard, ShardFaultError
from repro.trees import from_sexpr, to_sexpr

from .estimate_kinds import CONFIG as KINDS_CONFIG
from .estimate_kinds import HTTP_REQUESTS, KINDS
from .estimate_kinds import STREAM as KINDS_STREAM
from .strategies import labeled_trees

CONFIG = SketchTreeConfig(
    s1=40, s2=5, max_pattern_edges=3, n_virtual_streams=31, seed=7
)

STREAM = [
    "(A (B) (C))",
    "(A (C) (B))",
    "(A (B (C)))",
    "(A (B) (C))",
    "(X (A (B)))",
    "(A (B) (B))",
    "(A (B (C) (B)))",
    "(X (A (C)))",
] * 6

QUERIES = ["(A (B))", "(A (C))", "(X (A))", "(A (B (C)))"]


def reference_synopsis(texts=STREAM):
    synopsis = SketchTree(CONFIG)
    synopsis.update_batch([from_sexpr(text) for text in texts])
    return synopsis


class Client:
    """A tiny JSON client over urllib (raises nothing on 4xx/5xx)."""

    def __init__(self, port):
        self.base = f"http://127.0.0.1:{port}"

    def get(self, path):
        try:
            with urllib.request.urlopen(self.base + path, timeout=30) as resp:
                return resp.status, resp.read().decode()
        except urllib.error.HTTPError as error:
            return error.code, error.read().decode()

    def post(self, path, payload):
        request = urllib.request.Request(
            self.base + path,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())


def raw_exchange(port, request: bytes, timeout: float = 30) -> tuple[int, dict, dict]:
    """Send ``request`` bytes on a fresh socket and read until the server
    closes it: the status, the headers and the JSON body of its answer."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode().split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    return int(status_line.split()[1]), headers, json.loads(body)


def fail_once(synopsis):
    """Make ``synopsis.update_batch`` raise on its next call only."""
    apply = synopsis.update_batch
    calls = []

    def update_batch(trees):
        calls.append(len(calls))
        if len(calls) == 1:
            raise RuntimeError("injected ingest fault")
        apply(trees)

    synopsis.update_batch = update_batch


@pytest.fixture
def server(tmp_path):
    """A started 3-shard server on an ephemeral port, stopped afterwards."""
    service = ShardedService(
        CONFIG, n_shards=3, checkpoint_dir=tmp_path / "ckpts"
    )
    app = ServerApp(service, port=0)
    app.start()
    yield app, Client(app.port)
    app.request_stop()
    app.shutdown()


# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------


class TestModels:
    def test_ingest_parses_sexprs(self):
        trees = parse_ingest_request({"trees": ["(A (B))", "(C)"]})
        # The root is the last node in postorder.
        assert [tree.labels[-1] for tree in trees] == ["A", "C"]

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {},
            {"trees": []},
            {"trees": "not-a-list"},
            {"trees": [42]},
            {"trees": ["(unclosed"]},
        ],
    )
    def test_ingest_rejections_are_400(self, payload):
        with pytest.raises(ApiError) as excinfo:
            parse_ingest_request(payload)
        assert excinfo.value.status == 400

    def test_ingest_oversize_is_413(self):
        with pytest.raises(ApiError) as excinfo:
            parse_ingest_request({"trees": ["(A)"] * 10_001})
        assert excinfo.value.status == 413

    def test_ingest_error_names_the_position(self):
        with pytest.raises(ApiError, match=r"trees\[1\]"):
            parse_ingest_request({"trees": ["(A)", "(("]})

    def test_estimate_unknown_kind_is_404(self):
        with pytest.raises(ApiError) as excinfo:
            parse_estimate_request("median", {"query": "(A)"})
        assert excinfo.value.status == 404

    def test_estimate_sum_takes_queries_list(self):
        assert parse_estimate_request("sum", {"queries": ["(A)"]}) == ["(A)"]
        with pytest.raises(ApiError):
            parse_estimate_request("sum", {"query": "(A)"})

    def test_estimate_single_takes_query_string(self):
        assert parse_estimate_request("ordered", {"query": "(A)"}) == "(A)"
        with pytest.raises(ApiError):
            parse_estimate_request("ordered", {"queries": ["(A)"]})


#: S-expressions, whole or cut anywhere.
SEXPRS = st.builds(
    lambda text, at: text[: round(at * len(text))],
    labeled_trees(6).map(to_sexpr),
    st.just(1.0) | st.floats(0, 1),
)
#: Any JSON value, with strings leaning towards s-expressions.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
    | SEXPRS,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=12,
)


def _body(key: str, many: bool) -> st.SearchStrategy:
    """A body whose ``key`` holds s-expressions, or any JSON value."""
    value = SEXPRS | JSON_VALUES
    if many:
        value = st.lists(value, min_size=1, max_size=4) | JSON_VALUES
    return st.fixed_dictionaries({key: value}) | JSON_VALUES


class TestModelsRaiseOnlyTypedErrors:
    """Any decoded JSON body is accepted or refused with a
    :class:`ReproError`; nothing else escapes to the transport."""

    @given(_body("trees", many=True))
    @settings(max_examples=300, deadline=None)
    def test_ingest_payloads(self, payload):
        try:
            trees = parse_ingest_request(payload)
        except ReproError:
            return
        assert trees

    @given(
        st.sampled_from([*ESTIMATE_KINDS, "median", ""]),
        _body("query", many=False) | _body("queries", many=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_estimate_payloads(self, kind, payload):
        try:
            parse_estimate_request(kind, payload)
        except ReproError:
            pass


# ---------------------------------------------------------------------------
# Shards
# ---------------------------------------------------------------------------


class TestIngestShard:
    def test_drain_means_applied(self):
        shard = IngestShard(0, CONFIG)
        shard.start()
        shard.submit([from_sexpr(text) for text in STREAM])
        shard.drain()
        assert shard.synopsis.n_trees == len(STREAM)
        shard.stop()

    def test_full_queue_backpressures(self):
        shard = IngestShard(0, CONFIG, max_pending=1)  # never started
        shard.submit([from_sexpr("(A)")])
        with pytest.raises(queue.Full):
            shard.submit([from_sexpr("(A)")])

    def test_submit_after_stop_is_refused(self):
        shard = IngestShard(0, CONFIG)
        shard.start()
        shard.stop()
        with pytest.raises(ConfigError):
            shard.submit([from_sexpr("(A)")])

    def test_fault_is_recorded_and_quiesce_survives(self):
        shard = IngestShard(0, CONFIG)
        shard.start()
        shard._queue.put_nowait(object())  # not a batch: the writer faults
        shard.submit([from_sexpr("(A)")])  # still consumed and acked
        shard.drain()  # must not deadlock on the faulted shard
        assert shard.error() is not None
        shard.stop()

    def test_restored_synopsis_config_must_match(self):
        other = SketchTree(
            SketchTreeConfig(s1=10, s2=3, n_virtual_streams=31, seed=1)
        )
        with pytest.raises(ConfigError):
            IngestShard(0, CONFIG, synopsis=other)


# ---------------------------------------------------------------------------
# Service (no HTTP)
# ---------------------------------------------------------------------------


class TestShardedService:
    def test_accepts_topk_config(self):
        """Fold/unfold merging lifts the old shard-level topk ban."""
        service = ShardedService(
            SketchTreeConfig(
                s1=10, s2=3, n_virtual_streams=31, topk_size=2, seed=3
            ),
            n_shards=2,
        )
        assert service.stats()["config"]["topk_size"] == 2

    def test_rejects_negative_window_trees(self):
        with pytest.raises(ConfigError):
            ShardedService(CONFIG, window_trees=-1)

    def test_rejects_resume_without_dir(self):
        with pytest.raises(ConfigError):
            ShardedService(CONFIG, resume=True)

    def test_rejects_pairing(self):
        """Shards encode independently; pairing values would not add."""
        with pytest.raises(ConfigError, match="pairing"):
            ShardedService(dataclasses.replace(CONFIG, mapping="pairing"))

    def test_round_robin_covers_all_shards(self):
        service = ShardedService(CONFIG, n_shards=3)
        service.start()
        for text in STREAM:
            service.submit([from_sexpr(text)])
        service.drain()
        assert [s.synopsis.n_trees for s in service.shards] == [16, 16, 16]
        service.stop()

    def test_merged_is_bit_identical_to_serial_run(self):
        service = ShardedService(CONFIG, n_shards=4)
        service.start()
        service.submit([from_sexpr(text) for text in STREAM])
        merged = service.merged_synopsis()
        reference = reference_synopsis()
        for query in QUERIES:
            assert merged.estimate_ordered(query) == reference.estimate_ordered(
                query
            )
        service.stop()

    def test_stop_is_idempotent_and_refuses_ingest(self):
        service = ShardedService(CONFIG, n_shards=2)
        service.start()
        service.stop()
        assert service.stop() == []
        with pytest.raises(ApiError):
            service.submit([from_sexpr("(A)")])

    def test_faulted_shard_refuses_its_batches(self):
        service = ShardedService(CONFIG, n_shards=2)
        fail_once(service.shards[0].synopsis)
        service.start()
        try:
            assert service.submit([from_sexpr("(A (B))")])["shard"] == 0
            service.drain()
            ready = service.ready()
            assert not ready["ready"] and ready["faults"] == 1
            assert service.submit([from_sexpr("(A (B))")])["shard"] == 1
            with pytest.raises(ShardFaultError) as refused:
                service.submit([from_sexpr("(A (B))")])
            assert refused.value.index == 0
            service.drain()
            assert [s.synopsis.n_trees for s in service.shards] == [0, 1]
            answer = service.estimate("ordered", "(A (B))")
            assert answer["faulted_shards"] == [0]
            assert service.admin_estimate("ordered", "(A (B))")["faulted_shards"] == [0]
        finally:
            service.stop()

    def test_synopsis_metrics_cover_every_shard(self):
        """Every shard synopsis registers the synopsis instruments under
        the same names; the service's registration over all of them wins."""
        registry = MetricsRegistry()
        config = dataclasses.replace(CONFIG, topk_size=2)
        service = ShardedService(config, n_shards=3, metrics=registry)
        trees = list(DblpGenerator(seed=3).generate(20))
        service.start()
        try:
            for size in (3, 7, 20):  # round robin: shard i gets batch i
                service.submit(trees[:size])
            service.drain()
        finally:
            service.stop()
        synopses = [shard.synopsis for shard in service.shards]
        trackers = [t for s in synopses for _, t in s.streams.iter_trackers()]
        expected = {
            "encoder_cache_hits_total": sum(s.encoder.cache_hits for s in synopses),
            "encoder_cache_misses_total": sum(
                s.encoder.cache_misses for s in synopses
            ),
            "enum_memo_hits_total": sum(s._enum_memo.hits for s in synopses),
            "enum_memo_misses_total": sum(s._enum_memo.misses for s in synopses),
            "topk_evictions_total": sum(t.n_evictions for t in trackers),
            "topk_rearrivals_total": sum(t.n_rearrivals for t in trackers),
        }
        counters = {c.name: c.value for c in registry.all_counters()}
        assert {name: counters[name] for name in expected} == expected
        last = synopses[-1]
        assert expected["encoder_cache_misses_total"] > last.encoder.cache_misses
        assert expected["topk_evictions_total"] > sum(
            t.n_evictions for _, t in last.streams.iter_trackers()
        )
        gauges = {g.name: g.value for g in registry.all_gauges()}
        assert gauges["encoder_label_cache_size"] == sum(
            s.encoder.label_cache_size for s in synopses
        )
        assert gauges["topk_deleted_self_join_mass"] == (
            service.view().deleted_self_join_mass()
        )

    def test_health_and_ready_derive_from_gauges(self):
        registry = MetricsRegistry()
        service = ShardedService(CONFIG, n_shards=2, metrics=registry)
        assert not service.ready()["ready"]  # drain threads not started
        service.start()
        assert service.ready()["ready"]
        assert service.health()["status"] == "ok"
        assert registry.gauge("serve_shards_alive").value == 2
        service.stop()
        assert not service.ready()["ready"]


# ---------------------------------------------------------------------------
# HTTP integration
# ---------------------------------------------------------------------------


class TestHttpIntegration:
    def test_concurrent_ingest_then_merged_estimates_bit_identical(
        self, server
    ):
        """The acceptance test: ≥2 shards, concurrent ingest with reads
        in flight, then quiesced merge answers == single-threaded run."""
        app, client = server
        chunks = [STREAM[i : i + 4] for i in range(0, len(STREAM), 4)]
        read_errors = []
        stop_reading = threading.Event()

        def reader():
            while not stop_reading.is_set():
                status, body = client.post(
                    "/estimate/ordered", {"query": "(A (B))"}
                )
                if status != 200 or "estimate" not in body:
                    read_errors.append((status, body))

        def writer(chunk):
            status, body = client.post("/ingest", {"trees": chunk})
            assert status == 202, body

        readers = [threading.Thread(target=reader) for _ in range(2)]
        for thread in readers:
            thread.start()
        writers = [
            threading.Thread(target=writer, args=(chunk,)) for chunk in chunks
        ]
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop_reading.set()
        for thread in readers:
            thread.join()
        assert not read_errors

        status, drained = client.post("/admin/drain", {})
        assert status == 200 and drained["n_trees"] == len(STREAM)
        reference = reference_synopsis()
        for query in QUERIES:
            status, body = client.post(
                "/admin/estimate/ordered", {"query": query}
            )
            assert status == 200
            assert body["estimate"] == reference.estimate_ordered(query)
        status, body = client.post(
            "/admin/estimate/sum", {"queries": QUERIES}
        )
        assert body["estimate"] == reference.estimate_sum(QUERIES)

    def test_xpath_estimates_serve(self, server):
        app, client = server
        client.post("/ingest", {"trees": STREAM})
        client.post("/admin/drain", {})
        status, body = client.post("/estimate/xpath", {"query": "/A/B"})
        assert status == 200 and body["estimate"] > 0

    def test_oversize_resolution_is_a_bad_request(self, tmp_path):
        """A ``*`` query resolving past the pattern cap is refused with
        400 instead of holding a handler thread while it expands."""
        config = dataclasses.replace(CONFIG, maintain_summary=True)
        service = ShardedService(config, n_shards=2, checkpoint_dir=tmp_path / "ckpts")
        app = ServerApp(service, port=0)
        app.start()
        try:
            client = Client(app.port)
            wide = " ".join(f"(C{i})" for i in range(25))  # 25³ > 10,000
            client.post("/ingest", {"trees": [f"(R {wide})"]})
            client.post("/admin/drain", {})
            status, body = client.post("/estimate/xpath", {"query": "*[*][*]/*"})
            assert status == 400 and "more than 10000 patterns" in body["error"]
            status, body = client.post("/estimate/xpath", {"query": "*[*]/C1"})
            assert status == 200, body
        finally:
            app.request_stop()
            app.shutdown()

    def test_keepalive_round_trips_do_not_wait_for_delayed_acks(self, server):
        # Headers and body in two sends with Nagle on stall each
        # response on the client's delayed ACK (about 40 ms on Linux).
        app, _ = server
        connection = http.client.HTTPConnection("127.0.0.1", app.port, timeout=30)

        def round_trip():
            began = time.perf_counter()
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            assert response.status == 200
            return time.perf_counter() - began

        try:
            round_trip()  # warm-up: connect, first request
            elapsed = [round_trip() for _ in range(10)]
        finally:
            connection.close()
        assert statistics.median(elapsed) < 0.020

    def test_health_ready_and_stats(self, server):
        app, client = server
        assert client.get("/healthz")[0] == 200
        assert client.get("/readyz")[0] == 200
        client.post("/ingest", {"trees": STREAM[:8]})
        client.post("/admin/drain", {})
        stats = json.loads(client.get("/stats")[1])
        assert stats["n_trees"] == 8
        assert len(stats["shards"]) == 3
        assert stats["config"]["seed"] == CONFIG.seed

    def test_metrics_endpoint_parses_with_multiline_help(self, server):
        """The live /metrics text must scan line-by-line even though
        serve_queue_depth's HELP is deliberately multi-line."""
        app, client = server
        client.post("/ingest", {"trees": STREAM[:8]})
        client.post("/admin/drain", {})
        status, text = client.get("/metrics")
        assert status == 200
        helps = {}
        for line in text.splitlines():
            assert line, "blank line in exposition output"
            if line.startswith("# HELP "):
                name, escaped = line[len("# HELP "):].split(" ", 1)
                helps[name] = escaped
            elif line.startswith("# TYPE "):
                assert line.split(" ")[-1] in ("counter", "gauge", "histogram")
            else:
                float(line.rsplit(" ", 1)[1])
        assert "\\n" in helps["repro_serve_queue_depth"]  # escaped, not raw
        assert "repro_serve_trees_total 8" in text
        assert "repro_serve_shards 3" in text

    def test_error_mapping(self, server):
        app, client = server
        assert client.post("/ingest", {"trees": []})[0] == 400
        assert client.post("/estimate/median", {"query": "(A)"})[0] == 404
        assert client.get("/nope")[0] == 404
        assert client.post("/nope", {})[0] == 404
        # An invalid pattern reaches the synopsis and maps to a 400.
        status, body = client.post(
            "/estimate/ordered", {"query": "(A (B (C (D (E)))))"}
        )
        assert status == 400 and "error" in body

    def test_faulted_shard_is_503_naming_it(self, server):
        app, client = server
        fail_once(app.service.shards[0].synopsis)
        assert client.post("/ingest", {"trees": ["(A (B))"]})[0] == 202
        client.post("/admin/drain", {})
        status, body = client.get("/readyz")
        assert status == 503 and json.loads(body)["faults"] == 1
        assert client.post("/ingest", {"trees": ["(A (B))"]})[0] == 202
        assert client.post("/ingest", {"trees": ["(A (B))"]})[0] == 202
        status, body = client.post("/ingest", {"trees": ["(A (B))"]})
        assert status == 503 and body["shard"] == 0
        assert "shard 0" in body["error"]
        status, body = client.post("/estimate/ordered", {"query": "(A (B))"})
        assert status == 200 and body["faulted_shards"] == [0]

    def test_non_numeric_content_length_is_400(self, server):
        app, _ = server
        status, headers, body = raw_exchange(
            app.port,
            b"POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: ten\r\n\r\n",
        )
        assert status == 400 and "Content-Length" in body["error"]
        assert headers["Connection"] == "close"

    def test_short_body_times_out_with_400(self, server, monkeypatch):
        app, _ = server
        monkeypatch.setattr(api_module, "BODY_READ_TIMEOUT", 0.2)
        began = time.perf_counter()
        status, headers, body = raw_exchange(
            app.port,
            b"POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n"
            b'{"trees": ',
        )
        assert status == 400 and "Content-Length" in body["error"]
        assert headers["Connection"] == "close"
        assert time.perf_counter() - began < 10

    def test_idle_keepalive_outlives_the_body_timeout(self, server, monkeypatch):
        app, _ = server
        monkeypatch.setattr(api_module, "BODY_READ_TIMEOUT", 0.1)
        connection = http.client.HTTPConnection("127.0.0.1", app.port, timeout=30)
        try:
            for _ in range(2):
                connection.request(
                    "POST", "/estimate/ordered", body=json.dumps({"query": "(A (B))"})
                )
                response = connection.getresponse()
                response.read()
                assert response.status == 200
                time.sleep(0.3)  # idle for three body timeouts
        finally:
            connection.close()

    def test_backpressure_is_503_with_retry_after(self, tmp_path):
        service = ShardedService(CONFIG, n_shards=1, max_pending=1)
        # Shards deliberately NOT started: the queue can only fill.
        httpd = make_server(service)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        client = Client(httpd.server_address[1])
        try:
            assert client.post("/ingest", {"trees": ["(A)"]})[0] == 202
            status, body = client.post("/ingest", {"trees": ["(A)"]})
            assert status == 503
            assert "retry" in body["error"].lower()
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_snapshot_resume_round_trip(self, tmp_path):
        first = ShardedService(
            CONFIG, n_shards=2, checkpoint_dir=tmp_path / "ck"
        )
        app = ServerApp(first, port=0)
        app.start()
        client = Client(app.port)
        client.post("/ingest", {"trees": STREAM})
        status, body = client.post("/admin/snapshot", {})
        assert status == 200 and len(body["checkpoints"]) == 2
        app.request_stop()
        app.wait_for_signal()
        finals = app.shutdown()
        assert len(finals) == 2  # SIGTERM path writes final checkpoints

        second = ShardedService(
            CONFIG, n_shards=2, checkpoint_dir=tmp_path / "ck", resume=True
        )
        second.start()
        reference = reference_synopsis()
        merged = second.merged_synopsis()
        for query in QUERIES:
            assert merged.estimate_ordered(query) == reference.estimate_ordered(
                query
            )
        second.stop()

    def test_snapshot_without_dir_is_409(self):
        service = ShardedService(CONFIG, n_shards=1)
        service.start()
        httpd = make_server(service)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            assert Client(httpd.server_address[1]).post(
                "/admin/snapshot", {}
            )[0] == 409
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.stop()

    def test_graceful_stop_applies_queued_batches(self, tmp_path):
        service = ShardedService(CONFIG, n_shards=2)
        app = ServerApp(service, port=0)
        app.start()
        client = Client(app.port)
        client.post("/ingest", {"trees": STREAM})
        app.request_stop()
        app.wait_for_signal()
        app.shutdown()  # must drain before joining the drain threads
        total = sum(shard.synopsis.n_trees for shard in service.shards)
        assert total == len(STREAM)
        # The listener is closed: new connections are refused.
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{app.port}/healthz", timeout=2
            )


@pytest.fixture(scope="class")
def kinds_server():
    """A quiesced 3-shard windowed server over the parity stream, and a
    serial synopsis fed the same trees."""
    service = ShardedService(
        KINDS_CONFIG, n_shards=3, window_trees=40, bucket_trees=10
    )
    app = ServerApp(service, port=0)
    app.start()
    client = Client(app.port)
    for start in range(0, len(KINDS_STREAM), 4):
        client.post("/ingest", {"trees": KINDS_STREAM[start : start + 4]})
    client.post("/admin/drain", {})
    serial = SketchTree(KINDS_CONFIG)
    serial.update_batch([from_sexpr(text) for text in KINDS_STREAM])
    yield app, client, serial
    app.request_stop()
    app.shutdown()


class TestOneReadPath:
    """Every estimate reads one counter view, so over quiesced shards
    the lock-free answer, the admin answer and a serial synopsis agree
    bit for bit (``topk_size=0``)."""

    @pytest.mark.parametrize("name", sorted(HTTP_REQUESTS))
    def test_quiesced_estimates_match_admin_and_serial(self, kinds_server, name):
        app, client, serial = kinds_server
        kind, body = HTTP_REQUESTS[name]
        status, lockfree = client.post(f"/estimate/{kind}", body)
        assert status == 200, lockfree
        status, admin = client.post(f"/admin/estimate/{kind}", body)
        assert status == 200, admin
        assert lockfree["estimate"] == admin["estimate"] == KINDS[name](serial)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_view_matches_merged_and_serial(self, kinds_server, kind):
        app, _, serial = kinds_server
        answer = KINDS[kind](app.service.view())
        assert answer == KINDS[kind](app.service.merged_synopsis())
        assert answer == KINDS[kind](serial)

    def test_window_estimate_answers_xpath(self, kinds_server):
        app, client, _ = kinds_server
        for query in ["/A/B", "/A//C"]:
            status, body = client.post("/window/estimate/xpath", {"query": query})
            assert status == 200 and body["estimate"] > 0, body


class TestTopKNaming:
    def test_value_only_the_second_shard_saw_is_named(self):
        """Both top-k surfaces name a tracked value from whichever shard
        encoder memoises it, here the second shard's alone."""
        config = dataclasses.replace(CONFIG, topk_size=3)
        service = ShardedService(config, n_shards=2, window_trees=40, bucket_trees=10)
        app = ServerApp(service, port=0)
        app.start()
        client = Client(app.port)
        try:
            # Round-robin: the first batch goes to shard 0, the second to 1.
            client.post("/ingest", {"trees": ["(A (B))"] * 20})
            client.post("/ingest", {"trees": ["(Q (R))"] * 20})
            client.post("/admin/drain", {})
            value = SketchTree(config).encoder.encode(("Q", (("R", ()),)))
            first, second = service.shards
            assert first.synopsis.encoder.lookup_values([value]) == {}
            assert first.window.view().lookup_values([value]) == {}
            assert second.synopsis.encoder.lookup_values([value])
            for path in ("/window/topk", "/admin/topk"):
                status, text = client.get(path)
                assert status == 200, text
                names = {
                    entry["value"]: entry["pattern"]
                    for entry in json.loads(text)["patterns"]
                }
                assert names[str(value)] == "(Q (R))", path
        finally:
            app.request_stop()
            app.shutdown()


# ---------------------------------------------------------------------------
# CLI entry points
# ---------------------------------------------------------------------------


class TestCli:
    def test_module_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.port == 8080 and args.shards == 4

    def test_experiments_cli_has_serve_subcommand(self):
        from repro.cli import build_parser as experiments_parser

        args = experiments_parser().parse_args(
            ["serve", "--port", "0", "--shards", "2"]
        )
        assert args.experiment == "serve" and args.shards == 2

    def test_run_from_args_serves_and_stops_on_signal(self, capsys):
        args = build_parser().parse_args(
            ["--port", "0", "--shards", "2", "--s1", "20", "--streams", "31"]
        )
        # Drive run_from_args from a helper thread: install_signal_handlers
        # requires the main thread, so patch it out and stop via the app.
        import repro.serve.app as app_module

        original_wait = app_module.ServerApp.wait_for_signal
        original_install = app_module.ServerApp.install_signal_handlers

        def wait_and_record(self):
            self.request_stop()
            original_wait(self)

        app_module.ServerApp.install_signal_handlers = lambda self: None
        app_module.ServerApp.wait_for_signal = wait_and_record
        try:
            assert run_from_args(args) == 0
        finally:
            app_module.ServerApp.install_signal_handlers = original_install
            app_module.ServerApp.wait_for_signal = original_wait
        out = capsys.readouterr().out
        assert "serving on http://" in out
        assert "stopped cleanly" in out
