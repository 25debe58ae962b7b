"""The HTTP/1.1 front door over a :class:`QueryService`.

Stdlib-asyncio only — requests are parsed straight off the stream reader
(the repo bakes in no web framework), in the thin-web-layer shape of the
slicer servers: translate the wire request into an engine call, return
structured JSON carrying the engine's full plan metadata.  The server
holds no queue, worker pool or scheduler of its own: past the per-client
rate limit a request goes straight into ``QueryService.submit`` /
``submit_many`` / ``submit_stream`` with the client id and priority it
was sent, and waits in the service's queue.

Routes
------
* ``POST /v1/query`` — one query through the rate limit into the
  service; ``{"result": ...}`` on 200, typed error envelopes otherwise.
* ``POST /v1/query/batch`` — ``{"queries": [...]}`` through
  ``submit_many`` (one micro-batch candidate); ``{"results": [...]}``.
* ``POST /v1/query/stream`` — chunked NDJSON stream of verified top-k
  prefix frames and one final frame (see :mod:`repro.net.stream`).
* ``GET /healthz`` — liveness (200 as long as the loop serves).
* ``GET /metrics`` — Prometheus text exposition of the service's merged
  registry view (``net.*``, ``serve.*`` and every layer beneath).
* ``GET /v1/stats`` — the same view as a flat JSON ``{name: value}``.
* ``GET /v1/functions`` — names in the server's function registry.

Request headers ``X-Client-Id`` and ``X-Priority`` (or body fields
``client_id`` / ``priority``, which win) select the token bucket, the
fair-share queue and the priority class.  Failures map to typed status
codes via :data:`repro.net.protocol.ERROR_STATUS` — 429 with
``Retry-After`` for an exhausted token bucket, 503 with ``Retry-After``
for a full service queue (``ServiceConfig.max_pending``), 504 for
deadline misses, 400 for malformed requests (an envelope field of the
wrong type too) — and degraded (partial) answers are flagged in the
response envelope.  A request is parsed once, its answer encoded once.
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from repro.net.protocol import (
    PROTOCOL_VERSION,
    FunctionRegistry,
    ProtocolError,
    RateLimitedError,
    decode_priority,
    decode_query,
    encode_error,
    encode_result,
    read_head,
    retry_after_of,
    status_of,
)
from repro.net.ratelimit import TokenBucketLimiter
from repro.net.stream import error_frame, final_frame, prefix_frame
from repro.obs.metrics import MetricsRegistry
from repro.serve.batcher import DEFAULT_PRIORITY

#: Client id assumed when neither header nor body names one.
_DEFAULT_CLIENT_ID = "anonymous"

#: Envelope fields a request may set, with the JSON type each must have.
_ENVELOPE_TYPES = (("client_id", str, "a string"), ("priority", str, "a string"),
                   ("allow_partial", bool, "a boolean"))

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error", 503: "Service Unavailable",
            504: "Gateway Timeout"}


#: The head of almost every answer, built once (see ``_send_raw``).
_OK_JSON_HEAD = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                 b"Content-Length: %d\r\nConnection: keep-alive\r\n\r\n")


@dataclass(eq=False)
class _Connection:
    """One accepted socket; ``close()`` may drop it while it is ``idle``,
    i.e. awaiting a request head."""

    task: asyncio.Task
    writer: asyncio.StreamWriter
    idle: bool = True


class _Unframed(Exception):
    """A request head that cannot be framed: answered with the HTTP
    ``status``, then closed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class NetConfig:
    """Tunables of the HTTP tier."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: ephemeral, read the bound port off ``server.port``
    #: Default token-bucket rate (requests/second) and burst per client;
    #: ``rate=None`` disables rate limiting for clients without explicit
    #: overrides (``TokenBucketLimiter.configure``).
    rate: Optional[float] = None
    burst: float = 10.0
    max_body_bytes: int = 8 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.max_body_bytes <= 0:
            raise ValueError("max_body_bytes must be positive")


class QueryServer:
    """Serve a :class:`~repro.serve.service.QueryService` over a socket.

    Usage::

        async with QueryService(engine) as service:
            async with QueryServer(service, NetConfig(port=0)) as server:
                ...  # server.port is the bound port

    ``functions`` (a :class:`~repro.net.protocol.FunctionRegistry`) lets
    clients rank by registered name; structural function encodings work
    without one.  ``metrics`` defaults to the service's registry so one
    scrape covers ``net.*``, ``serve.*``, and the engine.

    The server owns every connection it accepted (``net.connections``
    counts them) and serves requests on each until the peer closes it or
    sends ``Connection: close``.  :meth:`close` stops the listener, closes
    the idle connections at once, lets a busy one finish its answer (sent
    with ``Connection: close``) and returns when no handler is left.
    """

    def __init__(self, service, config: Optional[NetConfig] = None, *,
                 functions: Optional[FunctionRegistry] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.service = service
        self.config = config or NetConfig()
        self.functions = functions
        self._clock = clock
        self.metrics = service.metrics
        self.limiter = TokenBucketLimiter(self.config.rate, self.config.burst,
                                          clock=clock)
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[_Connection] = set()
        self._closing = False
        self._m_connections = self.metrics.counter("net.connections")
        self._m_requests = self.metrics.counter("net.requests")
        self._m_rate_limited = self.metrics.counter("net.rate_limited")
        self._m_errors = self.metrics.counter("net.errors")
        self._m_streams = self.metrics.counter("net.streams")
        self._m_stream_frames = self.metrics.counter("net.stream_frames")
        self._m_active = self.metrics.gauge("net.active_connections")
        self._class_latency: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "QueryServer":
        if self._server is not None:
            raise RuntimeError("QueryServer is already started")
        self._closing = False
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        return self

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` ephemeral binds)."""
        if self._server is None:
            raise RuntimeError("QueryServer is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self.config.host

    async def close(self) -> None:
        if self._server is None:
            return
        self._closing = True
        self._server.close()
        # A handler parked on a keep-alive peer would otherwise outlive the
        # server (holding service and engine) and, from Python 3.12 on,
        # keep ``wait_closed`` waiting for good.
        for connection in self._connections:
            if connection.idle:
                connection.writer.close()
        await asyncio.gather(*(c.task for c in self._connections),
                             return_exceptions=True)
        await self._server.wait_closed()
        self._server = None

    async def __aenter__(self) -> "QueryServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # metrics helpers
    # ------------------------------------------------------------------
    def _observe_latency(self, priority: str, seconds: float) -> None:
        histogram = self._class_latency.get(priority)
        if histogram is None:
            histogram = self.metrics.histogram(
                f"net.latency_seconds.{priority}")
            self._class_latency[priority] = histogram
        histogram.observe(seconds)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        connection = _Connection(asyncio.current_task(), writer)
        self._connections.add(connection)
        self._m_connections.inc()
        self._m_active.inc(1.0)
        try:
            while not self._closing:
                connection.idle = True
                try:
                    request = await self._read_request(reader)
                except _Unframed as bad:
                    # The body was never read, so the stream cannot be
                    # resynchronised: answer once and close.
                    self._m_errors.inc()
                    payload = encode_error(ProtocolError(str(bad)))
                    payload["error"]["status"] = bad.status
                    await self._send_json(writer, bad.status, payload,
                                          keep_alive=False)
                    return
                method, path, headers, body = request
                connection.idle = False
                keep_alive = headers.get("connection", "").lower() != "close"
                done = await self._dispatch_http(method, path, headers, body,
                                                 writer, keep_alive)
                if not done or not keep_alive:
                    return
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # the peer went away: EOF at or inside a head, or a reset
        finally:
            self._connections.discard(connection)
            self._m_active.inc(-1.0)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Tuple[str, str, Dict[str, str], bytes]:
        try:
            line, headers = await read_head(reader)
        except asyncio.LimitOverrunError:
            raise _Unframed(431, "request head exceeds the reader's limit")
        try:
            method, target, _version = line.split(None, 2)
        except ValueError:
            raise _Unframed(400, "malformed request line")
        declared = headers.get("content-length", "0") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise _Unframed(400, f"malformed Content-Length {declared!r}")
        length = int(declared)
        if length > self.config.max_body_bytes:
            raise _Unframed(
                413, f"request body of {length} bytes exceeds the "
                     f"{self.config.max_body_bytes}-byte limit")
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return method.upper(), path, headers, body

    @staticmethod
    def _error_headers(exc: Exception) -> Dict[str, str]:
        retry_after = retry_after_of(exc)
        if retry_after is None:
            return {}
        # Retry-After is integer delta-seconds on the wire; the exact
        # float rides in the JSON envelope.
        return {"Retry-After": str(max(int(math.ceil(retry_after)), 1))}

    async def _send_json(self, writer: asyncio.StreamWriter, status: int,
                         payload: dict, *, keep_alive: bool = True,
                         extra_headers: Optional[Dict[str, str]] = None,
                         content_type: str = "application/json") -> None:
        body = json.dumps(payload).encode("utf-8")
        await self._send_raw(writer, status, body, content_type,
                             keep_alive=keep_alive,
                             extra_headers=extra_headers)

    async def _send_raw(self, writer: asyncio.StreamWriter, status: int,
                        body: bytes, content_type: str, *,
                        keep_alive: bool = True,
                        extra_headers: Optional[Dict[str, str]] = None
                        ) -> None:
        # A closing server's last answer on a connection says so.
        keep_alive = keep_alive and not self._closing
        if (status == 200 and keep_alive and not extra_headers
                and content_type == "application/json"):
            head = _OK_JSON_HEAD % len(body)
        else:
            reason = _REASONS.get(status, "OK")
            lines = [f"HTTP/1.1 {status} {reason}",
                     f"Content-Type: {content_type}",
                     f"Content-Length: {len(body)}",
                     f"Connection: {'keep-alive' if keep_alive else 'close'}"]
            for name, value in (extra_headers or {}).items():
                lines.append(f"{name}: {value}")
            head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # HTTP routing
    # ------------------------------------------------------------------
    async def _dispatch_http(self, method: str, path: str,
                             headers: Dict[str, str], body: bytes,
                             writer: asyncio.StreamWriter,
                             keep_alive: bool) -> bool:
        """Route one request; returns False when the connection was taken
        over (streaming) and the keep-alive loop must stop."""
        self._m_requests.inc()
        try:
            if path == "/healthz":
                await self._send_json(writer, 200, {
                    "status": "ok", "protocol_version": PROTOCOL_VERSION,
                    "pending": float(len(self.service.batcher))},
                    keep_alive=keep_alive)
                return True
            if path == "/metrics":
                text = MetricsRegistry.merged(
                    self.service.observed()).render_prometheus()
                await self._send_raw(writer, 200, text.encode("utf-8"),
                                     "text/plain; version=0.0.4",
                                     keep_alive=keep_alive)
                return True
            if path == "/v1/stats":
                await self._send_json(writer, 200,
                                      self.service.metrics_snapshot(),
                                      keep_alive=keep_alive)
                return True
            if path == "/v1/functions":
                names = self.functions.names() if self.functions else []
                await self._send_json(writer, 200, {"functions": names},
                                      keep_alive=keep_alive)
                return True
            if path in ("/v1/query", "/v1/query/batch", "/v1/query/stream"):
                if method != "POST":
                    await self._send_json(
                        writer, 405,
                        encode_error(ProtocolError(f"{path} requires POST")),
                        keep_alive=keep_alive)
                    return True
                return await self._serve_query(path, headers, body, writer,
                                               keep_alive)
            await self._send_json(
                writer, 404,
                encode_error(ProtocolError(f"unknown path {path!r}")),
                keep_alive=keep_alive)
            return True
        except Exception as exc:  # noqa: BLE001 — typed at the boundary
            self._m_errors.inc()
            status = status_of(exc)
            await self._send_json(writer, status, encode_error(exc),
                                  keep_alive=keep_alive,
                                  extra_headers=self._error_headers(exc))
            return True

    def _parse_envelope(self, body: bytes) -> dict:
        """One request envelope: the JSON object of an HTTP body."""
        try:
            envelope = json.loads(body.decode("utf-8") or "{}")
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise ProtocolError(f"request is not valid JSON: {exc}")
        if not isinstance(envelope, dict):
            raise ProtocolError("request must be a JSON object")
        return envelope

    def _request_context(self, headers: Dict[str, str], envelope: dict
                         ) -> Tuple[Dict[str, object], Optional[bool]]:
        """The service-call keywords of one request, and ``allow_partial``.

        The keywords are ``client_id``, ``priority`` and — only when the
        envelope names one — ``timeout``: a request that names none
        leaves the keyword out, so ``ServiceConfig.default_timeout``
        applies over the wire exactly as it does in process.  Each field
        is checked here, once: one of the wrong type (``timeout`` must be
        a finite positive number) is a :class:`ProtocolError` naming it.
        """
        get = envelope.get
        for name, kind, what in _ENVELOPE_TYPES:
            if (value := get(name)) is not None and not isinstance(value, kind):
                raise ProtocolError(f"{name!r} must be {what}")
        call: Dict[str, object] = {
            "client_id": (get("client_id") or headers.get("x-client-id")
                          or _DEFAULT_CLIENT_ID),
            "priority": decode_priority(get("priority")
                                        or headers.get("x-priority"),
                                        default=DEFAULT_PRIORITY)}
        timeout = get("timeout")
        if timeout is not None:
            # An int above the float range fails the bound, not float().
            if (type(timeout) not in (int, float)
                    or not 0 < timeout <= sys.float_info.max):
                raise ProtocolError("'timeout' must be a finite positive number")
            call["timeout"] = float(timeout)
        return call, get("allow_partial")

    def _check_rate(self, client_id: str) -> None:
        allowed, retry_after = self.limiter.check(client_id)
        if not allowed:
            self._m_rate_limited.inc()
            raise RateLimitedError(
                f"client {client_id!r} exceeded its request rate",
                retry_after=retry_after)

    async def _serve_query(self, path: str, headers: Dict[str, str],
                           body: bytes, writer: asyncio.StreamWriter,
                           keep_alive: bool) -> bool:
        envelope = self._parse_envelope(body)
        call, allow_partial = self._request_context(headers, envelope)
        started = self._clock()
        try:
            self._check_rate(call["client_id"])
            if path == "/v1/query/stream":
                query = decode_query(envelope.get("query"), self.functions)
                await self._serve_stream(query, call, writer)
                return False  # connection taken over; loop must not reuse it
            if path == "/v1/query/batch":
                results = await self._submit_many(envelope, call,
                                                  allow_partial)
                payload = {"results": [encode_result(r) for r in results]}
            else:
                query = decode_query(envelope.get("query"), self.functions)
                result = await self.service.submit(
                    query, allow_partial=allow_partial, **call)
                payload = {"result": encode_result(result)}
        finally:
            self._observe_latency(call["priority"], self._clock() - started)
        await self._send_json(writer, 200, payload, keep_alive=keep_alive)
        return True

    async def _submit_many(self, envelope: dict, call: Dict[str, object],
                           allow_partial: Optional[bool]):
        raw = envelope.get("queries")
        if not isinstance(raw, (list, tuple)):
            raise ProtocolError("'queries' must be a JSON array")
        return await self.service.submit_many(
            [decode_query(q, self.functions) for q in raw],
            allow_partial=allow_partial, **call)

    async def _serve_stream(self, query, call: Dict[str, object],
                            writer: asyncio.StreamWriter) -> None:
        """Chunked NDJSON: one frame per chunk, flushed as verified."""
        self._m_streams.inc()
        head = ("HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Transfer-Encoding: chunked\r\n"
                "Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head)
        await writer.drain()

        async def send_frame(frame: dict) -> None:
            data = (json.dumps(frame) + "\n").encode("utf-8")
            writer.write(f"{len(data):x}\r\n".encode("latin-1")
                         + data + b"\r\n")
            self._m_stream_frames.inc()
            await writer.drain()

        try:
            async for frame in self.service.submit_stream(query, **call):
                if frame[0] == "prefix":
                    await send_frame(prefix_frame(frame[1], frame[2]))
                else:
                    await send_frame(final_frame(frame[1]))
        except (ConnectionError, OSError):
            return  # client went away mid-stream
        except Exception as exc:  # noqa: BLE001 — typed on the wire
            self._m_errors.inc()
            try:
                await send_frame(error_frame(exc))
            except (ConnectionError, OSError):
                return
        writer.write(b"0\r\n\r\n")
        await writer.drain()


__all__ = ["NetConfig", "QueryServer"]
