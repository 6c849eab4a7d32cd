"""The HTTP transport: routing, JSON codec, error mapping.

A thin adapter from :class:`http.server.ThreadingHTTPServer` onto
:class:`~repro.serve.service.ShardedService` — the handler owns *no*
state of its own beyond the request it is parsing, which is what makes
the one-handler-instance-per-request model of ``http.server`` safe:
every shared object the handler touches (the service, the registry)
carries its own thread-safety contract.

Endpoints::

    GET  /healthz                 liveness (200 ok / 503 failing)
    GET  /readyz                  readiness (200 ready / 503 not yet)
    GET  /metrics                 Prometheus text exposition, live
    GET  /stats                   per-shard JSON introspection
    GET  /window/topk[?limit=N]   the live window's trending patterns
    GET  /admin/topk[?limit=N]    quiesce + merge(): whole-stream top-k
    POST /ingest                  {"trees": ["(A (B))", ...]}
    POST /estimate/<kind>         lock-free: the shards' summed counters
    POST /window/estimate/<kind>  same, over the shards' sliding windows
    POST /admin/estimate/<kind>   quiesce, then the same counter view
    POST /admin/drain             quiesce only (apply every queued batch)
    POST /admin/snapshot          quiesce + checkpoint every shard

``<kind>`` is one of ``ordered``, ``unordered``, ``sum``, ``xpath``, on
all three estimate routes: each reads one
:class:`~repro.core.view.CounterView`, so over quiesced shards the
lock-free and admin answers are the same float.  The top-k and window
surfaces need the service configured with ``--topk`` /
``--window-trees`` — without them those routes answer 409.

Error mapping (one place, for every route): :class:`ApiError` carries
its own status; ``queue.Full`` is 503 backpressure with a
``Retry-After``; :class:`~repro.serve.shards.ShardFaultError` is 503
naming the faulted shard; other :class:`~repro.errors.ReproError`
subtypes are 400s (the request named an invalid pattern/config) except
:class:`~repro.errors.SnapshotError`, which is a 500 (the server failed
the durable part).
"""

from __future__ import annotations

import json
import queue
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.errors import ReproError, SnapshotError
from repro.obs.export import to_prometheus_text
from repro.serve.models import (
    ApiError,
    parse_estimate_request,
    parse_ingest_request,
    parse_topk_limit,
)
from repro.serve.service import ShardedService
from repro.serve.shards import ShardFaultError

__all__ = ["ApiHandler", "ServingHTTPServer", "make_server"]

#: Largest request body accepted, in bytes (64 MiB) — bounds one
#: handler thread's parse memory before tree validation even starts.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Longest wait, in seconds, for the next bytes of a request body.  A
#: body shorter than its ``Content-Length`` is answered 400 after this
#: wait instead of holding a handler thread forever.  Only the body read
#: waits: an idle keep-alive connection between requests never times out.
BODY_READ_TIMEOUT = 10.0


class ServingHTTPServer(ThreadingHTTPServer):  # sketchlint: thread-safe
    """A ``ThreadingHTTPServer`` carrying the service it fronts.

    Thread-safe: the two attributes added here are assigned once before
    ``serve_forever`` and only read by handler threads.
    """

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: ShardedService):
        super().__init__(address, ApiHandler)
        self.service = service


class ApiHandler(BaseHTTPRequestHandler):  # sketchlint: thread-confined
    """One instance per request, on that request's handler thread.

    Thread-confined by the ``http.server`` model; all sharing goes
    through ``self.server.service`` (thread-safe) and the registry.
    """

    server: ServingHTTPServer
    protocol_version = "HTTP/1.1"
    #: One send per response: the writer is buffered (``wbufsize = -1``),
    #: ``handle_one_request`` flushes it after every request and
    #: ``finish`` on close, and ``TCP_NODELAY`` sends the flush at once.
    #: Headers and body in two sends would let Nagle hold the body until
    #: the client's delayed ACK of the headers — about 40 ms on every
    #: keep-alive request.
    wbufsize = -1
    disable_nagle_algorithm = True
    #: Quiet by default; ``repro.serve.app`` flips this for ``--verbose``.
    log_requests = False

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — http.server's naming
        try:
            parts = urlsplit(self.path)
            path, params = parts.path, parse_qs(parts.query)
            if path == "/healthz":
                health = self.server.service.health()
                self._send_json(
                    health, status=200 if health["status"] == "ok" else 503
                )
            elif path == "/readyz":
                ready = self.server.service.ready()
                self._send_json(ready, status=200 if ready["ready"] else 503)
            elif path == "/metrics":
                self._send_text(
                    to_prometheus_text(self.server.service.metrics),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            elif path == "/stats":
                self._send_json(self.server.service.stats())
            elif path == "/window/topk":
                limit = parse_topk_limit(params)
                self._send_json(self.server.service.window_topk(limit))
            elif path == "/admin/topk":
                limit = parse_topk_limit(params)
                self._send_json(self.server.service.topk(limit))
            else:
                self._send_json({"error": f"no such path {path!r}"}, 404)
        except Exception as exc:  # noqa: BLE001 — boundary: map, don't crash
            self._send_error(exc)

    def do_POST(self) -> None:  # noqa: N802 — http.server's naming
        try:
            service = self.server.service
            if self.path == "/ingest":
                trees = parse_ingest_request(self._read_json())
                self._send_json(service.submit(trees), status=202)
            elif self.path.startswith("/estimate/"):
                kind = self.path[len("/estimate/"):]
                parsed = parse_estimate_request(kind, self._read_json())
                self._send_json(service.estimate(kind, parsed))
            elif self.path.startswith("/window/estimate/"):
                kind = self.path[len("/window/estimate/"):]
                parsed = parse_estimate_request(kind, self._read_json())
                self._send_json(service.window_estimate(kind, parsed))
            elif self.path.startswith("/admin/estimate/"):
                kind = self.path[len("/admin/estimate/"):]
                parsed = parse_estimate_request(kind, self._read_json())
                self._send_json(service.admin_estimate(kind, parsed))
            elif self.path == "/admin/drain":
                self._send_json(service.drain())
            elif self.path == "/admin/snapshot":
                paths = service.snapshot()
                self._send_json({"checkpoints": [str(p) for p in paths]})
            else:
                self._send_json({"error": f"no such path {self.path!r}"}, 404)
        except Exception as exc:  # noqa: BLE001 — boundary: map, don't crash
            self._send_error(exc)

    # ------------------------------------------------------------------
    # Codec
    # ------------------------------------------------------------------
    def _read_json(self) -> object:
        """The request body, decoded as JSON.

        A body this handler does not read in full leaves the connection
        out of step with the client's next request, so those answers
        close it: an unparsable ``Content-Length``, a body over
        :data:`MAX_BODY_BYTES`, and a body that stops arriving for
        :data:`BODY_READ_TIMEOUT` seconds.
        """
        text = self.headers.get("Content-Length") or "0"
        if not (text.isascii() and text.strip().isdigit()):
            self.close_connection = True
            raise ApiError(f"Content-Length is not a byte count: {text!r}")
        length = int(text)
        if length == 0:
            raise ApiError("request needs a JSON body (Content-Length > 0)")
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise ApiError(
                f"request body over {MAX_BODY_BYTES} bytes", status=413
            )
        self.connection.settimeout(BODY_READ_TIMEOUT)
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            raw = b""
        finally:
            self.connection.settimeout(self.timeout)
        if len(raw) < length:
            self.close_connection = True
            raise ApiError(
                f"request body ended before its Content-Length of {length} bytes"
            )
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise ApiError(f"request body is not valid JSON: {exc}") from exc

    def _send_json(
        self, payload: dict, status: int = 200, extra_headers: dict | None = None
    ) -> None:
        body = (json.dumps(payload) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (extra_headers or {}).items():
            self.send_header(key, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, text: str, content_type: str) -> None:
        body = text.encode()
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, exc: Exception) -> None:
        """The one error-mapping table for every route."""
        if isinstance(exc, ApiError):
            self._send_json({"error": str(exc)}, status=exc.status)
        elif isinstance(exc, queue.Full):
            self._send_json(
                {"error": "ingest queue full, retry with backoff"},
                status=503,
                extra_headers={"Retry-After": "1"},
            )
        elif isinstance(exc, ShardFaultError):
            self._send_json({"error": str(exc), "shard": exc.index}, status=503)
        elif isinstance(exc, SnapshotError):
            self._send_json({"error": f"checkpoint failed: {exc}"}, status=500)
        elif isinstance(exc, ReproError):
            self._send_json({"error": str(exc)}, status=400)
        else:
            self._send_json(
                {"error": f"internal error: {type(exc).__name__}: {exc}"},
                status=500,
            )

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if self.log_requests:
            super().log_message(format, *args)


def make_server(
    service: ShardedService, host: str = "127.0.0.1", port: int = 0
) -> ServingHTTPServer:
    """Bind a serving socket (``port=0`` picks an ephemeral port).

    Starts nothing: the caller starts the shards and runs
    ``serve_forever`` (see :mod:`repro.serve.app`); the actually bound
    port is ``server.server_address[1]``.
    """
    return ServingHTTPServer((host, port), service)
