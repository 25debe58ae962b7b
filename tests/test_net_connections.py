"""Connections of the HTTP tier: reuse, ownership, bounded heads.

Everything here is pinned by a count, an identity or an answer — never by
a clock:

* **reuse** — ``net.connections`` counts the sockets the server accepted,
  so "the client kept its connection" is ``== 1`` after 50 calls, and a
  connection that must *not* be kept (a cancelled or failed exchange, a
  ``Connection: close`` or unframed answer) shows as one more;
* **no crossed answers** — every query of these tests names itself in its
  answer (``k``), so a caller that was handed another caller's response
  fails an ``==``;
* **stale and closing connections** — one reconnect when the server
  closed an idle kept connection, none after response bytes arrived;
  ``QueryServer.close()`` returns with keep-alive peers idle and leaves no
  handler task, no open connection and no reference to the engine;
* **bounded heads** — an oversized or flooded request head is a ``431``
  envelope after a bounded number of bytes read, an EOF inside a head a
  silent close.
"""

from __future__ import annotations

import asyncio
import gc
import json
import logging
import socket
import time
import weakref

import pytest

from repro.engine import Executor
from repro.functions import LinearFunction
from repro.net import AsyncQueryClient, NetConfig, QueryServer
from repro.net.protocol import RemoteServerError, decode_result, encode_query
from repro.query import Predicate, QueryResult, TopKQuery
from repro.serve import QueryService, RequestTimeoutError
from repro.workloads import SyntheticSpec, generate_relation
from tests.test_net import run_served
from tests.test_serve import HeldEngine


def query_of(k: int) -> TopKQuery:
    return TopKQuery(Predicate.of(), LinearFunction(["N1"], [1.0]), k)


class EchoEngine:
    """Answers a query with its own ``k`` as the only tid; the first call
    may take ``delay`` seconds."""

    def __init__(self, delay: float = 0.0) -> None:
        self.delay = delay

    def execute_many(self, queries):
        if self.delay:
            time.sleep(self.delay)
            self.delay = 0.0
        return [QueryResult(tids=(query.k,), scores=(float(query.k),))
                for query in queries]

    def execute(self, query):
        return self.execute_many([query])[0]


class HeldEchoEngine(HeldEngine):
    """``HeldEngine`` (the first call blocks until released) whose answers
    name their query."""

    def execute_many(self, queries):
        super().execute_many(queries)
        return EchoEngine().execute_many(queries)


def connections(server: QueryServer) -> float:
    return server.metrics.counter("net.connections").value


def serve(scenario, *, engine=EchoEngine, **kwargs):
    """``test_net.run_served`` over an engine whose answers name their
    query."""
    return run_served(scenario, engine=engine, **kwargs)


# ----------------------------------------------------------------------
# reuse, pinned by counts
# ----------------------------------------------------------------------
class TestReuse:
    def test_fifty_sequential_calls_share_one_connection(self):
        relation = generate_relation(SyntheticSpec(
            num_tuples=600, num_selection_dims=2, num_ranking_dims=2,
            cardinality=4, seed=19))

        def build():
            return Executor.for_relation(relation, block_size=64,
                                         with_signature=False,
                                         with_skyline=False)

        function = LinearFunction(["N1", "N2"], [1.0, 2.0])
        queries = [TopKQuery(Predicate.of(A1=i % 4), function, 1 + i % 7)
                   for i in range(50)]
        direct = [build().execute(query) for query in queries]

        async def scenario(service, server, client):
            answers = [await client.query(query) for query in queries]
            return answers, connections(server)

        answers, opened = serve(scenario, engine=build())
        assert opened == 1
        assert [(a.tids, a.scores) for a in answers] \
            == [(d.tids, d.scores) for d in direct]

    def test_gathered_calls_each_get_their_own_answer(self):
        async def scenario(service, server, client):
            gathered = await asyncio.gather(
                *(client.query(query_of(k)) for k in range(1, 17)))
            after_gather = connections(server)
            sequential = [await client.query(query_of(k))
                          for k in range(17, 33)]
            return gathered, after_gather, sequential, connections(server)

        gathered, after_gather, sequential, after_all = serve(scenario)
        assert [r.tids for r in gathered] == [(k,) for k in range(1, 17)]
        assert [r.tids for r in sequential] == [(k,) for k in range(17, 33)]
        assert 1 <= after_gather <= 16
        assert after_all == after_gather  # sixteen more calls opened none

    def test_a_cancelled_call_does_not_hand_its_connection_back(self):
        async def scenario(service, server, client):
            engine = service.engine
            first = asyncio.ensure_future(client.query(query_of(1)))
            await engine.busy.wait()  # request 1 is inside the engine
            first.cancel()
            with pytest.raises(asyncio.CancelledError):
                await first
            engine.release.set()
            # Had the connection gone back to the idle list, this call
            # would read request 1's answer off it.
            second = await client.query(query_of(2))
            return second.tids, connections(server)

        assert serve(scenario, engine=HeldEchoEngine) == ((2,), 2)

    def test_a_timed_out_call_leaves_the_next_its_own_answer(self):
        async def scenario(service, server, client):
            with pytest.raises(RequestTimeoutError):
                await client.query(query_of(1), timeout=0.05)
            return (await client.query(query_of(2))).tids

        assert serve(scenario, engine=EchoEngine(delay=0.3)) == (2,)

    def test_answers_that_close_are_not_kept(self):
        class BadLength(AsyncQueryClient):
            def _headers(self, body):
                return super()._headers(body).replace(
                    b"Content-Length: %d" % len(body), b"Content-Length: abc")

        async def scenario(service, server, client):
            opened = []
            await client.healthz()
            opened.append(connections(server))  # 1, kept
            envelope = {"query": encode_query(query_of(3))}
            # 413: the envelope is longer than max_body_bytes.
            status, headers, _ = await client._request(
                "POST", "/v1/query", dict(envelope, pad="x" * 400))
            assert (status, headers["connection"]) == (413, "close")
            await client.healthz()
            opened.append(connections(server))  # the 413 rode 1; this is 2
            # A chunked stream through the request/response path.
            status, headers, _ = await client._request(
                "POST", "/v1/query/stream", envelope)
            assert (status, headers["connection"]) == (200, "close")
            await client.healthz()
            opened.append(connections(server))  # the stream rode 2; now 3
            async with BadLength("127.0.0.1", server.port) as bad:
                for _ in range(2):  # each unframed 400 costs a connection
                    status, headers, _ = await bad._request(
                        "POST", "/v1/query", envelope)
                    assert (status, headers["connection"]) == (400, "close")
            opened.append(connections(server))
            return opened

        assert serve(scenario, net_config=NetConfig(max_body_bytes=256)) \
            == [1, 2, 3, 5]


# ----------------------------------------------------------------------
# stale and closing connections
# ----------------------------------------------------------------------
class TestStaleAndClosing:
    # First, and under a timeout: every later test exits ``async with
    # QueryServer`` next to an idle peer and would hang where this fails.
    def test_close_returns_with_an_idle_keep_alive_peer(self):
        async def main():
            engine = EchoEngine()
            service = QueryService(engine)
            await service.start()
            server = QueryServer(service, NetConfig())
            await server.start()
            client = AsyncQueryClient("127.0.0.1", server.port)
            assert (await client.query(query_of(4))).tids == (4,)
            assert connections(server) == 1
            active = server.metrics.gauge("net.active_connections")
            assert active.value == 1  # the client idles on its connection
            # Python 3.12's wait_closed() waits for every connection: a
            # server that left the idle one open would hang here for good.
            await asyncio.wait_for(server.close(), 5)
            await service.close()
            handlers = [task for task in asyncio.all_tasks()
                        if "_handle_connection" in repr(task)]
            alive = weakref.ref(engine)
            del engine, service, server
            gc.collect()
            gone = alive() is None
            await client.close()  # only now does the peer let go
            return handlers, active.value, gone

        assert asyncio.run(main()) == ([], 0, True)

    def test_one_reconnect_after_the_server_closed_an_idle_connection(self):
        async def main():
            async with QueryService(EchoEngine()) as service:
                async with QueryServer(service, NetConfig()) as old:
                    client = AsyncQueryClient("127.0.0.1", old.port)
                    await client.query(query_of(1))
            # The kept connection is now closed at the far end.  A new
            # server listens where the old one did; its service brings its
            # own metrics registry.
            async with QueryService(EchoEngine()) as service:
                async with QueryServer(service,
                                       NetConfig(port=client.port)) as new:
                    answers = [(await client.query(query_of(k))).tids
                               for k in (2, 3)]
                    await client.close()
                    return answers, connections(new)

        assert asyncio.run(main()) == ([(2,), (3,)], 1)

    @pytest.mark.parametrize("sent, raised", [
        pytest.param(30, RemoteServerError, id="dies-inside-the-head"),
        pytest.param(-5, asyncio.IncompleteReadError,
                     id="dies-inside-the-body"),
    ])
    def test_half_a_response_raises_and_is_not_retried(self, sent, raised):
        body = json.dumps({"status": "ok"}).encode()
        whole = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                 b"Content-Length: %d\r\nConnection: keep-alive\r\n\r\n"
                 % len(body)) + body

        async def main():
            accepted = []

            async def dying(reader, writer):
                accepted.append(writer)
                await reader.readuntil(b"\r\n\r\n")
                writer.write(whole)         # request 1: a whole answer
                await reader.readuntil(b"\r\n\r\n")
                writer.write(whole[:sent])  # request 2: half of one
                writer.close()

            server = await asyncio.start_server(dying, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with AsyncQueryClient("127.0.0.1", port) as client:
                assert await client.healthz() == {"status": "ok"}
                with pytest.raises(raised):
                    await client.healthz()
            server.close()
            await server.wait_closed()
            return len(accepted)

        # Request 2 rode the kept connection and, response bytes having
        # arrived, was not sent again on a second one.
        assert asyncio.run(main()) == 1

    def test_a_request_in_flight_during_close_gets_its_whole_answer(self):
        async def main():
            async with QueryService(HeldEchoEngine()) as service:
                server = await QueryServer(service, NetConfig()).start()
                async with AsyncQueryClient("127.0.0.1",
                                            server.port) as client:
                    idle = AsyncQueryClient("127.0.0.1", server.port)
                    await idle.healthz()
                    sent = asyncio.ensure_future(client._request(
                        "POST", "/v1/query",
                        {"query": encode_query(query_of(9))}))
                    await service.engine.busy.wait()
                    closing = asyncio.ensure_future(server.close())
                    await asyncio.sleep(0)  # close() is now waiting on it
                    assert not closing.done()
                    service.engine.release.set()
                    status, headers, body = await sent
                    await asyncio.wait_for(closing, 5)
                    await idle.close()
                    return (status, headers["connection"],
                            decode_result(json.loads(body)["result"]).tids,
                            server.metrics.gauge(
                                "net.active_connections").value)

        assert asyncio.run(main()) == (200, "close", (9,), 0)


# ----------------------------------------------------------------------
# bounded request heads (ROADMAP 6b)
# ----------------------------------------------------------------------
READER_LIMIT = 2 ** 16   # asyncio.start_server's default StreamReader limit
ONE_RECV = 256 * 1024    # what the selector transport reads at most at once


def metered(fed: list):
    """A ``QueryServer._handle_connection`` that appends to ``fed`` the
    size of every chunk its connection's reader is fed."""
    handle = QueryServer._handle_connection

    async def handle_metered(self, reader, writer):
        feed = reader.feed_data

        def feed_metered(data):
            fed.append(len(data))
            feed(data)

        reader.feed_data = feed_metered
        await handle(self, reader, writer)

    return handle_metered


async def raw_exchange(port: int, payload: bytes, *,
                       half_close: bool = False) -> bytes:
    """Send ``payload`` on a bare socket and read to EOF.  A bare socket
    because a server that stops reading a flood answers and closes with
    bytes unread, which resets the connection *after* its answer — a
    ``StreamReader`` would raise the reset instead of returning the
    answer it already holds."""
    loop = asyncio.get_running_loop()
    sock = socket.create_connection(("127.0.0.1", port))
    sock.setblocking(False)
    received = b""
    try:
        try:
            await loop.sock_sendall(sock, payload)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except ConnectionError:
            pass  # the server had answered and closed before the last byte
        while True:
            try:
                data = await asyncio.wait_for(loop.sock_recv(sock, 65536), 10)
            except ConnectionError:
                break
            if not data:
                break
            received += data
    finally:
        sock.close()
    return received


class TestBoundedHeads:
    @pytest.mark.parametrize("head", [
        pytest.param(b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000
                     + b"\r\n\r\n", id="one-70kB-header-line"),
        pytest.param(b"GET /healthz HTTP/1.1\r\n" + b"X-a: b\r\n" * 200_000
                     + b"\r\n", id="200k-header-lines"),
    ])
    def test_an_oversized_head_is_a_431_after_a_bounded_read(
            self, head, caplog, monkeypatch):
        chunks = []
        monkeypatch.setattr(QueryServer, "_handle_connection",
                            metered(chunks))

        async def scenario(service, server, client):
            answer = await raw_exchange(server.port, head)
            fed = sum(chunks)  # before the next connection adds its own
            healthy = await client.healthz()  # on a new connection
            return answer, healthy["status"], fed

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            answer, healthy, fed = serve(scenario)
        raw_head, _, body = answer.partition(b"\r\n\r\n")
        lines = raw_head.decode("latin-1").split("\r\n")
        assert lines[0] == "HTTP/1.1 431 Request Header Fields Too Large"
        assert "Connection: close" in lines
        error = json.loads(body)["error"]
        assert (error["type"], error["status"]) == ("ProtocolError", 431)
        assert healthy == "ok"
        assert fed <= min(len(head), READER_LIMIT + ONE_RECV)
        assert not [record for record in caplog.records
                    if "Unhandled" in record.getMessage()]

    def test_eof_inside_a_head_is_a_silent_close(self, caplog):
        async def scenario(service, server, client):
            answer = await raw_exchange(
                server.port, b"GET /healthz HTTP/1.1\r\nHos", half_close=True)
            return (answer, (await client.healthz())["status"],
                    server.metrics.counter("net.errors").value)

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            assert serve(scenario) == (b"", "ok", 0)
        assert not caplog.records
