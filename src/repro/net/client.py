"""Asyncio client for the :mod:`repro.net` serving tier.

:class:`AsyncQueryClient` speaks the same hand-rolled HTTP/1.1 dialect as
:class:`~repro.net.server.QueryServer`, decodes result envelopes back into
the engine's native :class:`~repro.query.QueryResult` / ``SkylineResult``
objects, and re-raises typed errors
(:class:`~repro.net.protocol.RateLimitedError`,
:class:`~repro.serve.errors.ServiceOverloadedError`, ...) exactly as an
in-process caller of :meth:`QueryService.submit` would see them — so
tests and benchmarks can assert wire parity with ``==``, not "close
enough".
"""

from __future__ import annotations

import asyncio
import json
from typing import AsyncIterator, List, Mapping, Optional, Sequence, Tuple

from repro.net.protocol import (
    ProtocolError,
    RemoteServerError,
    decode_error,
    decode_result,
    encode_query,
    read_head,
)
from repro.net.stream import StreamAssembler

#: Idle keep-alive connections one client keeps; a burst of concurrent
#: calls may open more, the surplus is closed as the calls finish.
MAX_IDLE_CONNECTIONS = 16


class _NoReply(RemoteServerError):
    """The peer closed the connection before the first byte of a reply."""


def _content_length(headers: Mapping[str, str]) -> Optional[int]:
    """The declared body length, ``None`` when absent; anything but ASCII
    digits is a :class:`ProtocolError`, as the server answers a request."""
    declared = headers.get("content-length")
    if not declared:
        return None
    if not (declared.isascii() and declared.isdigit()):
        raise ProtocolError(f"malformed Content-Length {declared!r}")
    return int(declared)


class AsyncQueryClient:
    """One logical client (one ``client_id``) against one server.

    Plain request/response calls reuse keep-alive connections: a call
    takes an idle connection (or opens one), owns it until its response
    is read to the last byte, and hands it back only if that response was
    ``Content-Length``-framed and not ``Connection: close``.  So
    ``asyncio.gather`` over one client is safe — N concurrent calls hold N
    connections and no caller reads another's answer.  A kept connection
    the server closed while it idled (EOF or a reset before the first
    response byte) is dropped and the request re-sent once on a fresh one;
    that is safe because no wire route writes — a future write route must
    not be retried this way.  ``await client.close()`` / ``async with``
    closes what is idle.  :meth:`stream` (a chunked NDJSON response)
    opens and closes a socket of its own.
    """

    def __init__(self, host: str, port: int, *,
                 client_id: Optional[str] = None,
                 priority: Optional[str] = None,
                 timeout: Optional[float] = None) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.priority = priority
        self.timeout = timeout
        self._idle: List[Tuple[asyncio.StreamReader,
                               asyncio.StreamWriter]] = []
        # The head after the request line, built once: two requests of
        # one client differ only in their Content-Length.
        named = "".join(f"{name}: {value}\r\n" for name, value in
                        (("X-Client-Id", client_id), ("X-Priority", priority))
                        if value is not None)
        self._head = (f"Host: {host}:{port}\r\nContent-Type: application/json"
                      f"\r\nContent-Length: ".encode("latin-1"), f"\r\n"
                      f"Connection: keep-alive\r\n{named}\r\n".encode("latin-1"))

    async def close(self) -> None:
        """Close the idle connections; a later call opens a new one."""
        while self._idle:
            await self._discard(self._idle.pop()[1])

    async def __aenter__(self) -> "AsyncQueryClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # low-level HTTP
    # ------------------------------------------------------------------
    async def _open(self) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        return await asyncio.open_connection(self.host, self.port)

    def _headers(self, body: bytes) -> bytes:
        """The head of a request carrying ``body``, after its first line."""
        return b"%s%d%s" % (self._head[0], len(body), self._head[1])

    async def _request(self, method: str, path: str,
                       payload: Optional[Mapping] = None
                       ) -> Tuple[int, Mapping[str, str], bytes]:
        body = json.dumps(payload).encode("utf-8") if payload is not None \
            else b""
        message = (f"{method} {path} HTTP/1.1\r\n".encode("latin-1")
                   + self._headers(body) + body)
        kept = bool(self._idle)
        reader, writer = self._idle.pop() if kept else await self._open()
        reusable = False
        try:
            try:
                status, headers = await self._send(reader, writer, message)
            except (_NoReply, ConnectionError):
                if not kept:
                    raise
                # The server closed this connection while it idled; nothing
                # of a response arrived, so the request goes out once more.
                await self._discard(writer)
                reader, writer = await self._open()
                status, headers = await self._send(reader, writer, message)
            if headers.get("transfer-encoding", "").lower() == "chunked":
                chunks = [chunk async for chunk in self._iter_chunks(reader)]
                return status, headers, b"".join(chunks)
            declared = _content_length(headers)
            data = await reader.readexactly(declared) if declared is not None \
                else await reader.read()
            reusable = (declared is not None
                        and len(self._idle) < MAX_IDLE_CONNECTIONS
                        and headers.get("connection", "").lower() != "close")
            return status, headers, data
        finally:
            # Kept only after a complete, length-framed answer: unread bytes
            # on a kept connection would hand the next caller this answer.
            if reusable:
                self._idle.append((reader, writer))
            else:
                await self._discard(writer)

    @classmethod
    async def _send(cls, reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter, message: bytes
                    ) -> Tuple[int, Mapping[str, str]]:
        """Write one request, read the head of its response."""
        writer.write(message)
        await writer.drain()
        return await cls._read_head(reader)

    @staticmethod
    async def _discard(writer: asyncio.StreamWriter) -> None:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    @staticmethod
    async def _read_head(reader: asyncio.StreamReader
                         ) -> Tuple[int, Mapping[str, str]]:
        try:
            line, headers = await read_head(reader)
        except asyncio.IncompleteReadError as eof:
            if eof.partial:
                raise RemoteServerError("server closed the connection "
                                        "inside a response head")
            raise _NoReply("server closed the connection "
                           "before sending a status line")
        except asyncio.LimitOverrunError:
            raise ProtocolError("response head exceeds the reader's limit")
        parts = line.split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ProtocolError(f"malformed status line {line!r}")
        return int(parts[1]), headers

    @staticmethod
    async def _iter_chunks(reader: asyncio.StreamReader
                           ) -> AsyncIterator[bytes]:
        while True:
            size_line = await reader.readline()
            digits = size_line.strip() or b"0"
            if digits.strip(b"0123456789abcdefABCDEF"):
                raise ProtocolError(f"malformed chunk size {digits!r}")
            size = int(digits, 16)
            if size == 0:
                await reader.readline()  # trailing CRLF of the last chunk
                return
            chunk = await reader.readexactly(size)
            await reader.readexactly(2)  # CRLF after each chunk
            yield chunk

    @staticmethod
    def _raise_for_status(status: int, body: bytes) -> None:
        if status < 400:
            return
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise RemoteServerError(
                f"HTTP {status} with an undecodable body", status=status)
        raise decode_error(payload, status)

    def _envelope(self, *, timeout: Optional[float],
                  priority: Optional[str],
                  allow_partial: Optional[bool]) -> dict:
        envelope: dict = {}
        effective_timeout = self.timeout if timeout is None else timeout
        if effective_timeout is not None:
            envelope["timeout"] = float(effective_timeout)
        effective_priority = priority or self.priority
        if effective_priority is not None:
            envelope["priority"] = effective_priority
        if self.client_id is not None:
            envelope["client_id"] = self.client_id
        if allow_partial is not None:
            envelope["allow_partial"] = bool(allow_partial)
        return envelope

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    async def query(self, query, *, timeout: Optional[float] = None,
                    priority: Optional[str] = None,
                    allow_partial: Optional[bool] = None):
        """Submit one query; returns the decoded result object."""
        envelope = self._envelope(timeout=timeout, priority=priority,
                                  allow_partial=allow_partial)
        envelope["query"] = encode_query(query)
        status, _headers, body = await self._request("POST", "/v1/query",
                                                     envelope)
        self._raise_for_status(status, body)
        return decode_result(json.loads(body.decode("utf-8"))["result"])

    async def query_many(self, queries: Sequence, *,
                         timeout: Optional[float] = None,
                         priority: Optional[str] = None,
                         allow_partial: Optional[bool] = None) -> List:
        """Submit a batch through ``/v1/query/batch`` (one fused group
        candidate server-side); returns decoded results in order."""
        envelope = self._envelope(timeout=timeout, priority=priority,
                                  allow_partial=allow_partial)
        envelope["queries"] = [encode_query(q) for q in queries]
        status, _headers, body = await self._request(
            "POST", "/v1/query/batch", envelope)
        self._raise_for_status(status, body)
        return [decode_result(entry) for entry
                in json.loads(body.decode("utf-8"))["results"]]

    async def stream(self, query, *, timeout: Optional[float] = None,
                     priority: Optional[str] = None,
                     on_prefix=None):
        """Stream one query; returns ``(result, streamed_pairs)``.

        ``on_prefix(start, entries)`` is invoked per verified prefix
        frame as it arrives.  The assembled result is checked against
        the streamed prefixes (:class:`StreamAssembler`) and the typed
        error re-raised if the stream ends in an error frame.
        """
        envelope = self._envelope(timeout=timeout, priority=priority,
                                  allow_partial=None)
        envelope["query"] = encode_query(query)
        body = json.dumps(envelope).encode("utf-8")
        reader, writer = await self._open()
        assembler = StreamAssembler()
        try:
            status, headers = await self._send(
                reader, writer, b"POST /v1/query/stream HTTP/1.1\r\n"
                + self._headers(body) + body)
            if status != 200:
                length = _content_length(headers)
                data = await reader.readexactly(length) if length \
                    else await reader.read()
                self._raise_for_status(status, data)
            buffer = b""
            async for chunk in self._iter_chunks(reader):
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if not line.strip():
                        continue
                    frame = json.loads(line.decode("utf-8"))
                    done = assembler.feed(frame)
                    if frame.get("frame") == "prefix" and on_prefix:
                        on_prefix(frame["start"], frame["entries"])
                    if done:
                        break
        finally:
            await self._discard(writer)
        if assembler.error is not None:
            raise assembler.error
        if not assembler.done:
            raise RemoteServerError("stream ended without a final frame")
        return assembler.result, list(assembler.pairs)

    async def healthz(self) -> Mapping:
        status, _headers, body = await self._request("GET", "/healthz")
        self._raise_for_status(status, body)
        return json.loads(body.decode("utf-8"))

    async def metrics_text(self) -> str:
        status, _headers, body = await self._request("GET", "/metrics")
        self._raise_for_status(status, body)
        return body.decode("utf-8")

    async def stats(self) -> Mapping:
        status, _headers, body = await self._request("GET", "/v1/stats")
        self._raise_for_status(status, body)
        return json.loads(body.decode("utf-8"))

    async def functions(self) -> List[str]:
        status, _headers, body = await self._request("GET", "/v1/functions")
        self._raise_for_status(status, body)
        return list(json.loads(body.decode("utf-8"))["functions"])


__all__ = ["AsyncQueryClient"]
