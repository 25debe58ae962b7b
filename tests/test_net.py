"""The HTTP serving tier: wire parity, admission fairness, limits, streams.

Covers the network-tier acceptance gates:

* **wire parity** — every query shape of the oracle-parity corpus
  round-trips JSON → HTTP → decode bit-identically to an in-process
  ``QueryService.submit`` against the same engine, unsharded and over
  shard counts {1, 2, 7} (tids *and* scores compared with ``==``, no
  tolerance), and the result codec reproduces every envelope field;
* **typed errors over the wire** — 400 / 404 / 405 / 429 / 503 / 504
  map back to the same exception classes in-process callers catch, with
  ``Retry-After`` on 429 (token bucket) and 503 (queue full), and the
  degraded-answer flag riding the response envelope;
* **fair share** — weighted interleaving across priority classes,
  round-robin across clients inside a class, by the service's one queue
  (``X-Client-Id`` / ``X-Priority`` are its inputs, not a second queue);
* **streaming** — verified top-k prefixes arrive before the final frame,
  the assembled answer is bit-identical to the non-streaming one, and a
  mid-stream failure surfaces as a typed error frame — over chunked
  HTTP and over the websocket.

Like ``test_serve``, asyncio is driven through plain ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import base64
import json
import logging
import struct
import time

import pytest

from repro.engine import CostModel, Executor
from repro.functions import (
    Add,
    Const,
    ConstrainedFunction,
    ExpressionFunction,
    LinearFunction,
    ManhattanDistanceFunction,
    Mul,
    SquaredDistanceFunction,
    Sub,
    Var,
    WeightedAverageFunction,
)
from repro.net import (
    AsyncQueryClient,
    FunctionRegistry,
    NetConfig,
    ProtocolError,
    QueryServer,
    RateLimitedError,
    StreamAssembler,
    WebSocketSession,
    decode_function,
    decode_query,
    decode_result,
    encode_function,
    encode_query,
    encode_result,
)

from repro.net.protocol import (
    PROTOCOL_VERSION,
    decode_error,
    decode_priority,
    encode_error,
    encode_predicate,
    decode_predicate,
    ws_accept,
)
from repro.net.ratelimit import TokenBucket, TokenBucketLimiter
from repro.net.stream import error_frame, final_frame, prefix_frame
from repro.query import Predicate, QueryResult, SkylineQuery, TopKQuery
from repro.serve import (
    MicroBatcher,
    QueryService,
    QueuedRequest,
    RequestTimeoutError,
    ServiceConfig,
    ServiceOverloadedError,
)
from repro.workloads import SyntheticSpec, generate_relation
from tests.test_serve import BACKLOG, BACKLOG_ORDER, URGENT, HeldEngine
from tests.test_parity_oracle import (
    SHARD_COUNTS,
    SPECS,
    _slim_shard_factory,
    _skyline_queries,
    _topk_queries,
)


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


# ----------------------------------------------------------------------
# protocol codec units
# ----------------------------------------------------------------------
class TestProtocolCodec:
    def roundtrip(self, function):
        encoded = json.loads(json.dumps(encode_function(function)))
        return decode_function(encoded)

    def test_linear_function_roundtrips_bit_identically(self):
        function = LinearFunction(["N1", "N2"], [0.1, 0.7], 2.5)
        back = self.roundtrip(function)
        assert back.dims == function.dims
        assert back.weights == function.weights
        assert back.constant == function.constant

    def test_weighted_average_encodes_as_equivalent_linear(self):
        function = WeightedAverageFunction(["N1", "N2", "N3"],
                                           [1.0, 2.0, 3.0])
        back = self.roundtrip(function)
        assert back.dims == function.dims
        assert back.weights == function.weights

    def test_distance_functions_roundtrip(self):
        for cls in (SquaredDistanceFunction, ManhattanDistanceFunction):
            function = cls(["N1", "N2"], [0.25, 0.5], [1.0, 3.0])
            back = self.roundtrip(function)
            assert type(back) is cls
            assert back.dims == function.dims
            assert back.targets == function.targets
            assert back.weights == function.weights

    def test_constrained_and_expression_functions_roundtrip(self):
        base = LinearFunction(["N1", "N2"], [1.0, 1.0])
        constrained = ConstrainedFunction(base, "N1", 0.2, 0.8)
        back = self.roundtrip(constrained)
        assert back.constrained_dim == "N1"
        assert (back.window.low, back.window.high) == (0.2, 0.8)
        assert back.base.weights == base.weights

        expr = Add(Mul(Var("N1"), Var("N1")), Var("N2"))
        function = ExpressionFunction(expr, dims=["N1", "N2"])
        back = self.roundtrip(function)
        assert back.dims == function.dims
        assert back.shape == function.shape
        # Equivalent evaluation is what the wire must preserve.
        values = {"N1": 0.3, "N2": 0.9}
        assert back.expr.value(values) == expr.value(values)

        # A constant travels as its number: same scores on both sides.
        shifted = ExpressionFunction(
            Add(Mul(Const(0.1), Var("N1")), Sub(Var("N2"), Const(-2.5))),
            dims=["N1", "N2"])
        back = self.roundtrip(shifted)
        for row in ([0.3, 0.9], [0.0, 0.0], [1.0, 0.125], [0.7, 1e-9]):
            assert back.evaluate(row) == shifted.evaluate(row)

    def test_ref_function_needs_a_registry(self):
        registry = FunctionRegistry()
        function = LinearFunction(["N1"], [2.0])
        registry.register("blessed", function)
        assert decode_function({"kind": "ref", "name": "blessed"},
                               registry) is function
        with pytest.raises(ProtocolError):
            decode_function({"kind": "ref", "name": "blessed"})
        with pytest.raises(ProtocolError):
            decode_function({"kind": "ref", "name": "unknown"}, registry)

    def test_string_function_encodes_as_ref(self):
        assert encode_function("blessed") == {"kind": "ref",
                                              "name": "blessed"}

    def test_predicate_roundtrip_and_validation(self):
        predicate = Predicate.of(A1=3, A2=0)
        assert decode_predicate(encode_predicate(predicate)) == predicate
        assert decode_predicate(None) == Predicate.of()
        with pytest.raises(ProtocolError):
            decode_predicate({"A1": "three"})
        with pytest.raises(ProtocolError):
            decode_predicate({"A1": True})

    def test_query_roundtrip_both_kinds(self):
        topk = TopKQuery(Predicate.of(A1=1),
                         LinearFunction(["N1", "N2"], [1.0, 2.0]), 7)
        back = decode_query(json.loads(json.dumps(encode_query(topk))))
        assert back.predicate == topk.predicate
        assert back.k == topk.k
        assert back.function.weights == topk.function.weights

        skyline = SkylineQuery(Predicate.of(A1=2), ("N1", "N2"),
                               targets=(0.5, 0.25))
        back = decode_query(json.loads(json.dumps(encode_query(skyline))))
        assert back.predicate == skyline.predicate
        assert back.preference_dims == skyline.preference_dims
        assert back.targets == skyline.targets

    def test_result_codec_preserves_every_field(self):
        result = QueryResult(
            tids=(5, 3, 11), scores=(0.1, 0.30000000000000004, 1.7),
            disk_accesses=9, states_generated=4, peak_heap_size=3,
            tuples_evaluated=77, elapsed_seconds=0.001953125,
            extra={"batch_size": 2.0, "plan": "grid", "degraded": 1.0,
                   "completeness": 0.75})
        encoded = json.loads(json.dumps(encode_result(result)))
        assert encoded["degraded"] is True
        back = decode_result(encoded)
        assert back.tids == result.tids
        assert back.scores == result.scores  # floats exact through JSON
        assert back.disk_accesses == result.disk_accesses
        assert back.states_generated == result.states_generated
        assert back.peak_heap_size == result.peak_heap_size
        assert back.tuples_evaluated == result.tuples_evaluated
        assert back.elapsed_seconds == result.elapsed_seconds
        assert back.extra == result.extra

    def test_scores_travel_as_the_doubles_themselves(self):
        scores = (-0.0, 5e-324, 0.1 + 0.2, 1.7976931348623157e308,
                  float("inf"))
        result = QueryResult(tids=(4, 0, 9, 2, 7), scores=scores)
        # Standard JSON: no ``Infinity`` token, whatever the scores are.
        wire = json.dumps(encode_result(result), allow_nan=False)
        packed = json.loads(wire)["scores"]
        assert base64.b64decode(packed) == struct.pack("<5d", *scores)
        back = decode_result(json.loads(wire))
        assert back.tids == result.tids
        assert ([struct.pack("<d", s) for s in back.scores]
                == [struct.pack("<d", s) for s in scores])  # -0.0 stays -0.0
        empty = decode_result(json.loads(json.dumps(
            encode_result(QueryResult(tids=(), scores=())))))
        assert (empty.tids, empty.scores) == ((), ())

    @pytest.mark.parametrize("field, value", [
        ("tids", [1, 2.5]),            # int() used to truncate it to 2
        ("tids", [1, True]),           # ... and to read ``true`` as 1
        ("tids", "12"),
        ("tids", None),
        ("scores", [0.5, 0.75]),       # the protocol-1 JSON array
        ("scores", None),
        ("scores", "not base64!"),
        ("scores", "AAAAAAAA4D8"),     # valid characters, bad padding
        ("scores", base64.b64encode(b"\0" * 15).decode()),  # not whole doubles
        ("scores", base64.b64encode(b"\0" * 24).decode()),  # 3 scores, 2 tids
    ])
    def test_decode_result_checks_what_it_is_handed(self, field, value):
        envelope = json.loads(json.dumps(encode_result(
            QueryResult(tids=(1, 2), scores=(0.5, 0.75)))))
        assert decode_result(envelope).scores == (0.5, 0.75)
        envelope[field] = value
        with pytest.raises(ProtocolError):
            decode_result(envelope)
        skyline = {"result_kind": "skyline", "tids": [3, 1.0]}
        with pytest.raises(ProtocolError):
            decode_result(skyline)

    def test_error_envelope_rebuilds_typed_exceptions(self):
        exc = ServiceOverloadedError("queue full", retry_after=1.25)
        envelope = json.loads(json.dumps(encode_error(exc)))
        assert envelope["error"]["status"] == 503
        back = decode_error(envelope, 503)
        assert isinstance(back, ServiceOverloadedError)
        assert back.retry_after == 1.25

        back = decode_error(json.loads(json.dumps(
            encode_error(RateLimitedError("slow down", retry_after=0.5)))),
            429)
        assert isinstance(back, RateLimitedError)
        assert back.retry_after == 0.5

        back = decode_error({"error": {"type": "SomethingNovel",
                                       "message": "boom"}}, 500)
        assert "boom" in str(back)

    def test_priority_validation(self):
        assert decode_priority(None) == "interactive"
        assert decode_priority("background") == "background"
        with pytest.raises(ProtocolError):
            decode_priority("urgent")


# ----------------------------------------------------------------------
# token bucket units
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill_with_exact_retry_after(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, now=clock())
        assert [bucket.take(clock())[0] for _ in range(3)] == [True] * 3
        allowed, retry_after = bucket.take(clock())
        assert not allowed
        assert retry_after == 0.5  # one token at 2 tokens/s
        clock.t = 0.5
        allowed, _ = bucket.take(clock())
        assert allowed

    def test_limiter_disabled_without_rate_or_overrides(self):
        limiter = TokenBucketLimiter(clock=FakeClock())
        assert not limiter.enabled
        assert limiter.check("anyone") == (True, 0.0)

    def test_limiter_overrides_pin_specific_clients(self):
        clock = FakeClock()
        limiter = TokenBucketLimiter(rate=None, clock=clock)
        limiter.configure("crawler", rate=1.0, burst=2.0)
        assert limiter.enabled
        assert limiter.check("crawler")[0]
        assert limiter.check("crawler")[0]
        allowed, retry_after = limiter.check("crawler")
        assert not allowed and retry_after == 1.0
        # Unthrottled peers are untouched while the crawler is throttled.
        assert all(limiter.check("dashboard")[0] for _ in range(50))


# ----------------------------------------------------------------------
# fair-share scheduler units (the micro-batcher is the scheduler)
# ----------------------------------------------------------------------
def queued(priority: str, client: str, tag: int) -> QueuedRequest:
    return QueuedRequest(query=tag, future=None, enqueued_at=0.0,
                         priority=priority, client_id=client)


def scheduler(*requests: QueuedRequest) -> MicroBatcher:
    """A batcher holding ``requests`` whose drains pop up to a dozen."""
    batcher = MicroBatcher(max_batch_size=12, max_linger=0.0,
                           clock=FakeClock())
    for request in requests:
        batcher.append(request)
    return batcher


class TestFairShareScheduler:
    def test_weighted_interleave_favors_interactive(self):
        batcher = scheduler(*(queued(priority, client, i)
                              for i in range(12)
                              for priority, client in (("interactive", "a"),
                                                       ("background", "b"))))
        order = [request.priority for request in batcher.drain()]
        assert len(order) == 12
        # 8:1 weights — the first stretch is dominated by interactive,
        # yet background is never starved out of the first dozen slots.
        assert order.count("interactive") >= 9
        assert "background" in order

    def test_round_robin_across_clients_within_a_class(self):
        batcher = scheduler(*(queued("batch", "chatty", 10 + i)
                              for i in range(3)),
                            queued("batch", "quiet", 99))
        clients = [request.client_id for request in batcher.drain()]
        # The quiet client is served second, not behind the whole backlog.
        assert clients == ["chatty", "quiet", "chatty", "chatty"]

    def test_single_class_degrades_to_fifo(self):
        batcher = scheduler(*(queued("interactive", "a", i)
                              for i in range(5)))
        assert [request.query for request in batcher.drain()] \
            == list(range(5))
        assert batcher.drain(force=True) == []

    def test_unknown_class_is_rejected(self):
        with pytest.raises(ValueError):
            scheduler(queued("urgent", "a", 0))


# ----------------------------------------------------------------------
# stream assembler units
# ----------------------------------------------------------------------
class TestStreamAssembler:
    def final(self, pairs):
        return final_frame(QueryResult(
            tids=tuple(t for t, _ in pairs),
            scores=tuple(s for _, s in pairs)))

    def test_accepts_gap_free_prefixes_matching_the_final(self):
        assembler = StreamAssembler()
        assert not assembler.feed(prefix_frame(0, [(5, 0.1), (3, 0.2)]))
        assert not assembler.feed(prefix_frame(2, [(9, 0.7)]))
        assert assembler.feed(self.final([(5, 0.1), (3, 0.2), (9, 0.7),
                                          (1, 0.9)]))
        assert assembler.result.tids == (5, 3, 9, 1)
        assert assembler.pairs == [(5, 0.1), (3, 0.2), (9, 0.7)]

    def test_rejects_gapped_prefixes(self):
        assembler = StreamAssembler()
        assembler.feed(prefix_frame(0, [(5, 0.1)]))
        with pytest.raises(ProtocolError):
            assembler.feed(prefix_frame(2, [(9, 0.7)]))

    def test_rejects_final_disagreeing_with_prefixes(self):
        assembler = StreamAssembler()
        assembler.feed(prefix_frame(0, [(5, 0.1)]))
        with pytest.raises(ProtocolError):
            assembler.feed(self.final([(6, 0.1), (9, 0.7)]))

    def test_error_frame_terminates_with_typed_error(self):
        assembler = StreamAssembler()
        assert assembler.feed(error_frame(RequestTimeoutError("too slow")))
        assert isinstance(assembler.error, RequestTimeoutError)


# ----------------------------------------------------------------------
# retry-after hints (satellite: principled Retry-After everywhere)
# ----------------------------------------------------------------------
class TestRetryAfterHints:
    def test_overload_error_carries_retry_after(self):
        exc = ServiceOverloadedError("full", retry_after=2.5)
        assert exc.retry_after == 2.5
        assert ServiceOverloadedError("full").retry_after is None

    def test_admission_hint_tracks_depth_over_drain_rate(self):
        clock = FakeClock()
        service = QueryService(SlowStubEngine(), clock=clock)
        assert service.retry_after_hint() is None  # no history
        for _ in range(20):
            service.stats.record_completion(0.0, 0.0)
        clock.t = 10.0  # 2 completions/s
        for i in range(3):
            service.batcher.append(queued("batch", "c", i))
        assert service.retry_after_hint() == pytest.approx(1.5)

    def test_service_hint_clamped_and_none_before_history(self):
        relation = generate_relation(SyntheticSpec(
            num_tuples=60, num_selection_dims=1, num_ranking_dims=2,
            cardinality=2, seed=31))
        engine = Executor.for_relation(relation, block_size=32,
                                       with_signature=False,
                                       with_skyline=False)
        service = QueryService(engine)
        assert service.retry_after_hint() is None

        async def run():
            async with QueryService(engine) as live:
                await live.submit(TopKQuery(
                    Predicate.of(), LinearFunction(["N1"], [1.0]), 3))
                hint = live.retry_after_hint()
                assert hint is None or 0.05 <= hint <= 60.0

        asyncio.run(run())


# ----------------------------------------------------------------------
# wire parity against the oracle corpus
# ----------------------------------------------------------------------
#: Spec subset replayed over HTTP: the corpus' query *shapes* (linear and
#: distance functions, empty/selective/absent predicates, boundary k,
#: skylines with and without targets) all occur within these three, and
#: each shape re-runs against 4 engines x the whole spec — more specs add
#: socket round trips, not shape coverage.
PARITY_SPEC_INDICES = (0, 3, 4)


def parity_rig(spec_index):
    import numpy as np

    relation = generate_relation(SPECS[spec_index], name=f"N{spec_index}")
    # The slim stack (grid + scan top-k + scan skyline) serves every
    # corpus query shape without the R-tree/signature build cost.
    engines = {0: _slim_shard_factory(relation)}
    from repro.shard import (
        HashShardingPolicy,
        RangeShardingPolicy,
        ScatterGatherExecutor,
        ShardManager,
    )
    for count in SHARD_COUNTS:
        if count == 2:
            policy = RangeShardingPolicy(relation,
                                         relation.selection_dims[0], count)
        else:
            policy = HashShardingPolicy(count)
        manager = ShardManager(relation, policy,
                               executor_factory=_slim_shard_factory)
        engines[count] = ScatterGatherExecutor(manager)
    rng = np.random.default_rng(7000 + spec_index)
    queries = _topk_queries(rng, relation) + _skyline_queries(rng, relation)
    return engines, queries


@pytest.mark.parametrize("spec_index", PARITY_SPEC_INDICES)
def test_http_wire_parity_unsharded_and_sharded(spec_index):
    """JSON → HTTP → decode answers bit-identical to in-process submit.

    Every corpus query runs twice against the same served engine — once
    through ``service.submit`` in process, once through the HTTP client —
    and the answers must agree exactly: same tids, same float scores (JSON
    round-trips IEEE doubles exactly), same skyline memberships.
    """
    engines, queries = parity_rig(spec_index)

    async def serve_one(engine):
        config = ServiceConfig(max_linger=0.001, max_batch_size=32)
        async with QueryService(engine, config) as service:
            async with QueryServer(service, NetConfig()) as server:
                expected = await asyncio.gather(
                    *(service.submit(query) for query in queries))
                async with AsyncQueryClient(
                        "127.0.0.1", server.port,
                        client_id=f"parity{spec_index}") as client:
                    remote = await asyncio.gather(
                        *(client.query(query) for query in queries))
                return expected, remote

    for count, engine in engines.items():
        expected, remote = asyncio.run(serve_one(engine))
        for query, local, wire in zip(queries, expected, remote):
            label = (count, query)
            assert wire.tids == local.tids, label
            if isinstance(query, TopKQuery):
                assert wire.scores == local.scores, label
            # The full envelope decodes losslessly: re-encoding the wire
            # result reproduces the local result's encoding except for
            # per-request serving metadata.
            volatile = ("queue_wait", "batch_size", "fused_group_size",
                        "plans_reused", "result_cache")
            local_env = encode_result(local)
            wire_env = encode_result(wire)
            for env in (local_env, wire_env):
                for key in volatile:
                    env["extra"].pop(key, None)
                env.pop("elapsed_seconds", None)
            assert wire_env == local_env, label


def test_http_batch_endpoint_matches_submit_many():
    engines, queries = parity_rig(PARITY_SPEC_INDICES[0])
    engine = engines[0]
    batch = [q for q in queries if isinstance(q, TopKQuery)][:8]

    async def run():
        async with QueryService(engine) as service:
            async with QueryServer(service, NetConfig()) as server:
                expected = await service.submit_many(batch)
                async with AsyncQueryClient("127.0.0.1",
                                            server.port) as client:
                    remote = await client.query_many(batch)
                return expected, remote

    expected, remote = asyncio.run(run())
    assert len(remote) == len(batch)
    for local, wire in zip(expected, remote):
        assert wire.tids == local.tids
        assert wire.scores == local.scores


# ----------------------------------------------------------------------
# typed errors over the wire
# ----------------------------------------------------------------------
class SlowStubEngine:
    """A duck-typed engine whose answers take a configurable wall time."""

    def __init__(self, delay: float = 0.0, extra=None) -> None:
        self.delay = delay
        self.extra = dict(extra or {})

    def _result(self):
        return QueryResult(tids=(1, 2), scores=(0.5, 0.7),
                           extra=dict(self.extra))

    def execute(self, query):
        if self.delay:
            time.sleep(self.delay)
        return self._result()

    def execute_many(self, queries):
        if self.delay:
            time.sleep(self.delay)
        return [self._result() for _ in queries]


def simple_query():
    return TopKQuery(Predicate.of(), LinearFunction(["N1"], [1.0]), 2)


def run_served(handler, *, engine=None, net_config=None, service_config=None):
    """Stand up service + server around ``engine`` and run ``handler``.

    ``engine`` may be a class (``HeldEngine``): it is then built inside
    the running loop, which its asyncio event needs.
    """
    engine = engine if engine is not None else SlowStubEngine()

    async def main():
        built = engine() if isinstance(engine, type) else engine
        async with QueryService(built, service_config) as service:
            async with QueryServer(service, net_config or NetConfig()) \
                    as server:
                async with AsyncQueryClient("127.0.0.1",
                                            server.port) as client:
                    return await handler(service, server, client)

    return asyncio.run(main())


class TestHttpErrorMapping:
    def test_malformed_json_and_unknown_routes(self):
        async def handler(service, server, client):
            reader, writer = await client._open()
            writer.write(b"POST /v1/query HTTP/1.1\r\n"
                         b"Content-Length: 9\r\n\r\nnot json!")
            await writer.drain()
            status, _, body = (await client._read_head(reader))[0], None, None
            writer.close()
            statuses = {"bad_json": status}
            statuses["not_found"] = (await client._request("GET", "/nope"))[0]
            statuses["bad_method"] = (
                await client._request("GET", "/v1/query"))[0]
            return statuses

        statuses = run_served(handler)
        assert statuses == {"bad_json": 400, "not_found": 404,
                            "bad_method": 405}

    @pytest.mark.parametrize("declared, status", [
        (b"abc", 400), (b"-5", 400), (b"99999999999", 413)])
    def test_unframeable_content_length_is_answered_then_closed(
            self, declared, status):
        async def handler(service, server, client):
            reader, writer = await client._open()
            writer.write(b"POST /v1/query HTTP/1.1\r\nContent-Length: "
                         + declared + b"\r\n\r\n{}")
            await writer.drain()
            got, headers = await client._read_head(reader)
            body = json.loads(await reader.readexactly(
                int(headers["content-length"])))
            closed = await reader.read() == b""
            writer.close()
            # The server survived: a well-formed request still answers.
            healthy = (await client._request("GET", "/healthz"))[0]
            return got, headers["connection"], body["error"], closed, healthy

        got, connection, error, closed, healthy = run_served(handler)
        assert (got, connection, closed, healthy) == (status, "close", True, 200)
        assert (error["type"], error["status"]) == ("ProtocolError", status)

    @pytest.mark.parametrize("function, field", [
        (b'"dims": ["N1", "N2"], "weights": [NaN, 2]', "weights"),
        (b'"dims": ["N1", "N2"], "weights": [1, 2], "constant": 1e309',
         "constant"),
        (b'"dims": ["N1", "N2"], "weights": [1' + b"0" * 400 + b', 2]',
         "weights"),
        (b'"dims": [{}, "N2"], "weights": [1, 2]', "dims"),
    ], ids=["nan-weight", "infinite-constant", "huge-int-weight",
            "non-string-dim"])
    def test_a_number_or_dim_outside_the_domain_is_a_typed_400(
            self, function, field):
        """Scores must stay comparable: a NaN or infinite coefficient is
        refused at decode (it answered 200 with NaN / inf scores), and so
        are an int beyond the float range and a non-string dim (500)."""
        relation = generate_relation(SyntheticSpec(
            num_tuples=300, num_selection_dims=2, num_ranking_dims=2,
            cardinality=4, seed=9))
        engine = Executor.for_relation(relation, block_size=50,
                                       with_signature=False,
                                       with_skyline=False)
        body = (b'{"query": {"type": "topk", "k": 3, "function": '
                b'{"kind": "linear", ' + function + b'}}}')

        async def handler(service, server, client):
            reader, writer = await client._open()
            writer.write(b"POST /v1/query HTTP/1.1\r\nContent-Length: "
                         + str(len(body)).encode() + b"\r\n\r\n" + body)
            await writer.drain()
            status, headers = await client._read_head(reader)
            reply = json.loads(await reader.readexactly(
                int(headers["content-length"])))
            writer.close()
            return status, reply["error"]

        status, error = run_served(handler, engine=engine)
        assert (status, error["type"]) == (400, "ProtocolError")
        assert field in error["message"]

    def test_unknown_function_priority_and_query_shape_are_400(self):
        async def handler(service, server, client):
            statuses = []
            for payload in (
                    {"query": {"type": "nonsense"}},
                    {"query": {"type": "topk", "function":
                               {"kind": "ref", "name": "nope"}, "k": 1}},
                    {"query": encode_query(simple_query()),
                     "priority": "urgent"},
                    {"query": encode_query(simple_query()), "timeout": -1}):
                status, _, body = await client._request(
                    "POST", "/v1/query", payload)
                statuses.append(status)
            return statuses

        assert run_served(handler) == [400, 400, 400, 400]

    def test_rate_limited_client_gets_429_while_peers_sail(self):
        async def handler(service, server, client):
            server.limiter.configure("crawler", rate=0.5, burst=2.0)
            crawler = AsyncQueryClient("127.0.0.1", server.port,
                                       client_id="crawler")
            dashboard = AsyncQueryClient("127.0.0.1", server.port,
                                         client_id="dashboard")
            served = bounced = 0
            retry_after = None
            header_value = None
            for _ in range(6):
                try:
                    await crawler.query(simple_query())
                    served += 1
                except RateLimitedError as exc:
                    bounced += 1
                    retry_after = exc.retry_after
            # Raw request to inspect the Retry-After header itself.
            envelope = {"query": encode_query(simple_query()),
                        "client_id": "crawler"}
            status, headers, _ = await crawler._request(
                "POST", "/v1/query", envelope)
            if status == 429:
                header_value = headers.get("retry-after")
            unthrottled = [await dashboard.query(simple_query())
                           for _ in range(6)]
            await crawler.close()
            await dashboard.close()
            return served, bounced, retry_after, header_value, unthrottled

        served, bounced, retry_after, header_value, unthrottled = \
            run_served(handler)
        assert served == 2  # exactly the burst
        assert bounced == 4
        assert retry_after is not None and retry_after > 0
        assert header_value is not None and int(header_value) >= 1
        assert len(unthrottled) == 6  # no peer ever saw a 429

    def test_admission_overflow_is_503_with_retry_after(self):
        engine = SlowStubEngine(delay=0.2)

        async def handler(service, server, client):
            sent = [asyncio.create_task(client.query(simple_query()))
                    for _ in range(8)]
            outcomes = await asyncio.gather(*sent, return_exceptions=True)
            return outcomes

        outcomes = run_served(
            engine=engine, service_config=ServiceConfig(max_pending=1),
            handler=handler)
        overloaded = [o for o in outcomes
                      if isinstance(o, ServiceOverloadedError)]
        succeeded = [o for o in outcomes if isinstance(o, QueryResult)]
        assert overloaded, "saturation never produced a 503"
        assert succeeded, "at least the in-flight requests must answer"

    def test_timeout_is_504_with_typed_error(self):
        engine = SlowStubEngine(delay=0.5)

        async def handler(service, server, client):
            with pytest.raises(RequestTimeoutError):
                await client.query(simple_query(), timeout=0.05)
            status, _, _ = await client._request(
                "POST", "/v1/query",
                {"query": encode_query(simple_query()), "timeout": 0.05})
            return status

        assert run_served(handler, engine=engine) == 504

    def test_service_default_timeout_applies_over_the_wire(self):
        """A request naming no timeout gets the service's, not "forever"."""
        engine = SlowStubEngine(delay=0.4)

        async def handler(service, server, client):
            with pytest.raises(RequestTimeoutError):
                await service.submit(simple_query())
            status, _, body = await client._request(
                "POST", "/v1/query", {"query": encode_query(simple_query())})
            return status, json.loads(body.decode())["error"]["type"]

        assert run_served(
            handler, engine=engine,
            service_config=ServiceConfig(default_timeout=0.05)
        ) == (504, "RequestTimeoutError")

    def test_degraded_answer_is_flagged_in_the_envelope(self):
        engine = SlowStubEngine(extra={"degraded": 1.0, "completeness": 0.5,
                                       "shards_failed": 1.0})

        async def handler(service, server, client):
            status, _, body = await client._request(
                "POST", "/v1/query",
                {"query": encode_query(simple_query()),
                 "allow_partial": True})
            result = await client.query(simple_query(), allow_partial=True)
            return status, json.loads(body.decode()), result

        status, payload, result = run_served(handler, engine=engine)
        assert status == 200
        assert payload["result"]["degraded"] is True
        assert result.extra["degraded"] == 1.0
        assert result.extra["completeness"] == 0.5


class TestBacklogOrderOverHttp:
    """``tests/test_serve.py::TestBacklogOrder`` driven through the socket."""

    def test_client_and_priority_headers_feed_the_one_scheduler(self):
        names = ["primer"] + [name for name, _, _ in BACKLOG + URGENT]
        k_of = {name: k for k, name in enumerate(names, start=1)}

        async def handler(service, server, client):
            engine = service.engine

            async def send(name, priority="interactive", client_id="primer"):
                async with AsyncQueryClient("127.0.0.1", server.port,
                                            client_id=client_id,
                                            priority=priority) as caller:
                    query = TopKQuery(Predicate.of(),
                                      LinearFunction(["N1"], [1.0]),
                                      k_of[name])
                    # A raw request: the body names neither client nor
                    # class, only the X-Client-Id / X-Priority headers do.
                    return await caller._request(
                        "POST", "/v1/query", {"query": encode_query(query)})

            async def admitted(depth):
                while len(service.batcher) < depth:
                    await asyncio.sleep(0)

            tasks = [asyncio.ensure_future(send("primer"))]
            await engine.busy.wait()  # the engine's one slot is held
            for depth, (name, priority, client_id) in enumerate(
                    BACKLOG + URGENT, start=1):
                tasks.append(asyncio.ensure_future(
                    send(name, priority, client_id)))
                # One at a time, so the queue sees them in this order.
                await asyncio.wait_for(admitted(depth), timeout=10.0)
            engine.release.set()
            responses = await asyncio.gather(*tasks)
            return ([status for status, _, _ in responses],
                    [query.k for query in engine.executed])

        statuses, executed = run_served(
            handler, engine=HeldEngine,
            service_config=ServiceConfig(max_batch_size=4, max_linger=0.0))
        assert statuses == [200] * len(names)
        assert executed == [k_of[name] for name in ["primer"] + BACKLOG_ORDER]


# ----------------------------------------------------------------------
# streaming over chunked HTTP and the websocket
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stream_rig():
    relation = generate_relation(SyntheticSpec(
        num_tuples=2000, num_selection_dims=2, num_ranking_dims=2,
        cardinality=5, seed=55))
    # The grid streams; the first cost model's constants keep it chosen.
    engine = Executor.for_relation(relation, block_size=64,
                                   with_signature=False, with_skyline=False,
                                   cost_model=CostModel(**CostModel.PAPER))
    # An identical twin answers the reference queries so the served
    # engine's result cache stays cold for the streaming runs.
    twin = Executor.for_relation(relation, block_size=64,
                                 with_signature=False, with_skyline=False,
                                 cost_model=CostModel(**CostModel.PAPER))
    function = LinearFunction(["N1", "N2"], [1.0, 2.0])
    queries = [TopKQuery(Predicate.of(), function, 12),
               TopKQuery(Predicate.of(A1=1), function, 5),
               TopKQuery(Predicate.of(A1=0, A2=2), function, 3)]
    return engine, twin, queries


class TestStreaming:
    def test_http_stream_prefixes_verified_and_final_bit_identical(
            self, stream_rig):
        engine, twin, queries = stream_rig
        reference = [twin.execute(query) for query in queries]

        async def handler(service, server, client):
            outcomes = []
            for query in queries:
                seen = []
                result, pairs = await client.stream(
                    query, on_prefix=lambda s, e: seen.append((s, len(e))))
                outcomes.append((result, pairs, seen))
            return outcomes

        outcomes = run_served(handler, engine=engine)
        streamed_any = False
        for (result, pairs, seen), expected in zip(outcomes, reference):
            assert result.tids == expected.tids
            assert result.scores == expected.scores
            assert result.extra["streamed"] == 1.0
            # The assembler already proved prefix/final agreement; pin
            # the prefix ordering here too.
            assert pairs == list(zip(result.tids,
                                     result.scores))[:len(pairs)]
            streamed_any = streamed_any or bool(pairs)
        assert streamed_any, "no query streamed a single verified prefix"

    def test_websocket_query_and_stream_match_plain_http(self, stream_rig):
        engine, twin, queries = stream_rig
        expected = twin.execute(queries[1])

        async def handler(service, server, client):
            async with client.websocket() as ws:
                plain = await ws.query(queries[1])
                streamed, pairs = await ws.stream(queries[1])
                return plain, streamed, pairs

        plain, streamed, pairs = run_served(handler, engine=engine)
        assert plain.tids == expected.tids
        assert plain.scores == expected.scores
        assert streamed.tids == expected.tids
        assert streamed.scores == expected.scores
        assert pairs == list(zip(streamed.tids,
                                 streamed.scores))[:len(pairs)]

    def test_stream_timeout_surfaces_as_typed_error_frame(self):
        engine = SlowStubEngine(delay=0.5)

        async def handler(service, server, client):
            with pytest.raises(RequestTimeoutError):
                await client.stream(simple_query(), timeout=0.05)
            return True

        assert run_served(handler, engine=engine)

    def test_stream_at_the_high_water_mark_gets_one_typed_error_frame(self):
        """A stream is a request: it counts against ``max_pending``."""
        async def handler(service, server, client):
            engine = service.engine
            held = [asyncio.ensure_future(service.submit("primer"))]
            await engine.busy.wait()
            held.append(asyncio.ensure_future(service.submit("waiting")))
            await asyncio.sleep(0)  # queue depth 1 == max_pending
            status, _, body = await client._request(
                "POST", "/v1/query/stream",
                {"query": encode_query(simple_query())})
            frames = [json.loads(line) for line in body.splitlines()]
            async with client.websocket() as ws:
                with pytest.raises(ServiceOverloadedError):
                    await ws.stream(simple_query())
            engine.release.set()
            await asyncio.gather(*held)
            return status, frames, engine.executed

        status, frames, executed = run_served(
            handler, engine=HeldEngine,
            service_config=ServiceConfig(max_pending=1, max_linger=0.0))
        assert status == 200
        assert [frame["frame"] for frame in frames] == ["error"]
        assert frames[0]["error"]["type"] == "ServiceOverloadedError"
        assert executed == ["primer", "waiting"]  # no stream reached it

    def test_websocket_error_frames_carry_request_ids(self):
        async def handler(service, server, client):
            async with client.websocket() as ws:
                bad = TopKQuery(Predicate.of(), "unregistered", 3)
                with pytest.raises(ProtocolError):
                    await ws.query(bad)
                # The session survives the failed request.
                result = await ws.query(simple_query())
                return result

        result = run_served(handler)
        assert result.tids == (1, 2)


class _FakeWriter:
    """The write half of a socket that goes nowhere."""

    def write(self, data: bytes) -> None:
        pass

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


def _answering(raw: bytes) -> AsyncQueryClient:
    """A client whose every connection reads ``raw`` as the server's reply."""
    client = AsyncQueryClient("127.0.0.1", 9)

    async def fake_open():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return reader, _FakeWriter()

    client._open = fake_open
    return client


class TestClientFraming:
    """A reply the client cannot frame is a :class:`ProtocolError` — the
    server answers the same malformed framing in a request with a 400."""

    @pytest.mark.parametrize("raw", [
        pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n{}",
                     id="content-length-abc"),
        pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n{}",
                     id="content-length-negative"),
        pytest.param(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                     b"zz\r\n{}\r\n0\r\n\r\n", id="chunk-size-zz"),
    ])
    def test_malformed_reply_framing_is_a_protocol_error(self, raw):
        async def main():
            async with _answering(raw) as client:
                with pytest.raises(ProtocolError):
                    await client.healthz()

        asyncio.run(main())

    def test_a_wrong_websocket_accept_is_a_protocol_error(self):
        raw = (b"HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\n"
               b"Connection: Upgrade\r\nSec-WebSocket-Accept: "
               + ws_accept("not the key the client sent").encode("latin-1")
               + b"\r\n\r\n")

        async def main():
            with pytest.raises(ProtocolError, match="Sec-WebSocket-Accept"):
                async with _answering(raw).websocket():
                    pass

        asyncio.run(main())


def _fragment(opcode: int, payload: bytes, fin: bool) -> bytes:
    frame = WebSocketSession._frame(opcode, payload)
    return frame if fin else bytes([frame[0] & 0x7F]) + frame[1:]


class TestWebsocketFraming:
    """Unframeable websocket input is answered with a close code."""

    @pytest.mark.parametrize("raw, code", [
        pytest.param(_fragment(0x3, b"x", True), 1002, id="bad-opcode"),
        pytest.param(_fragment(0x1, b"\xff\xfe\xfd", True), 1007,
                     id="not-utf8"),
        # Refused from the declared length: no payload is ever sent.
        pytest.param(bytes([0x81, 0x80 | 127]) + (1 << 40).to_bytes(8, "big"),
                     1009, id="frame-of-2^40-bytes"),
        # Each fragment fits max_body_bytes (64 below); their sum does not.
        pytest.param(_fragment(0x1, b"a" * 40, False)
                     + _fragment(0x0, b"a" * 40, True)[:2],
                     1009, id="fragments-above-the-limit"),
    ])
    def test_close_frame_then_close_and_the_server_survives(
            self, raw, code, caplog):
        async def handler(service, server, client):
            async with client.websocket() as ws:
                ws._writer.write(raw)
                await ws._writer.drain()
                head = await asyncio.wait_for(ws._reader.readexactly(2),
                                              timeout=10.0)
                payload = await ws._reader.readexactly(head[1] & 0x7F)
                closed = await ws._reader.read() == b""
            healthy = (await client._request("GET", "/healthz"))[0]
            return head[0], int.from_bytes(payload[:2], "big"), closed, healthy

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            got = run_served(handler,
                             net_config=NetConfig(max_body_bytes=64))
        assert got == (0x88, code, True, 200)
        assert not [record for record in caplog.records
                    if "Unhandled" in record.getMessage()]


# ----------------------------------------------------------------------
# observability endpoints
# ----------------------------------------------------------------------
class TestOpsEndpoints:
    def test_healthz_metrics_and_stats(self):
        async def handler(service, server, client):
            await client.query(simple_query())
            health = await client.healthz()
            metrics = await client.metrics_text()
            stats = await client.stats()
            return health, metrics, stats

        health, metrics, stats = run_served(handler)
        assert health["status"] == "ok"
        assert health["protocol_version"] == PROTOCOL_VERSION
        assert "repro_net_requests" in metrics
        assert "repro_net_latency_seconds_interactive" in metrics
        assert "repro_serve_completed" in metrics
        assert stats["serve.completed"] >= 1.0
        assert stats["serve.pending.interactive"] == 0.0

    def test_one_view_two_renderings_on_a_sharded_stack(self):
        """``/v1/stats`` serves ``metrics_snapshot()`` and ``/metrics``
        renders the same merged registry: on a 3-shard stack every counter
        and gauge reads the same in both, the shard engines' ``engine.*``
        series and the front door's result cache included."""
        from repro.obs.metrics import MetricsRegistry, _prometheus_name
        from repro.shard import (HashShardingPolicy, ScatterGatherExecutor,
                                 ShardManager)

        relation = generate_relation(SyntheticSpec(
            num_tuples=600, num_selection_dims=2, num_ranking_dims=2,
            cardinality=4, seed=31))
        manager = ShardManager(relation, HashShardingPolicy(3),
                               block_size=60, with_signature=False,
                               with_skyline=False,
                               cost_model=CostModel(**CostModel.PAPER))
        function = LinearFunction(["N1", "N2"], [1.0, 2.0])
        queries = [TopKQuery(Predicate.of(A1=value), function, 4)
                   for value in range(3)]

        async def handler(service, server, client):
            await client.query_many(queries)  # one fused group
            await client.query(queries[0])  # a front-door result-cache hit
            stats = await client.stats()
            scraped = dict(line.rsplit(" ", 1) for line
                           in (await client.metrics_text()).splitlines()
                           if not line.startswith("#"))
            for name in ("repro_engine_queries", "repro_engine_fused_queries",
                         "repro_shard_result_hits"):
                assert float(scraped.get(name, 0.0)) > 0.0, name
            view = MetricsRegistry.merged(service.observed()).state()
            return stats, scraped, view

        stats, scraped, view = run_served(
            handler, engine=ScatterGatherExecutor(manager))
        for kind in ("counters", "gauges"):
            for name, value in view[kind].items():
                assert float(scraped[_prometheus_name(name)]) == value, name
                # A request counts itself in net.requests before it is
                # answered, and the scrape came one request after the stats.
                assert stats[name] == value - (name == "net.requests"), name
