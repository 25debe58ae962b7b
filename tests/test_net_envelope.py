"""The request envelope and the response body, each handled in one pass.

* **envelope fields** — ``timeout`` must be a finite positive number,
  ``priority`` and ``client_id`` strings, ``allow_partial`` a boolean and
  a batch's ``queries`` an array; anything else is a ``ProtocolError``
  400 naming the field, on every POST route alike (a list,
  a string, an int beyond the float range or a NaN ``timeout`` used to
  answer 500, or 504 "timed out after nans");
* **response bytes** — the server encodes a result's ``extra`` in one
  pass, passing JSON scalars through as they are; the bytes it sends
  must equal ``json.dumps`` of the recursive walk it replaced, which is
  kept here as the reference.
"""

from __future__ import annotations

import asyncio
import json
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.plan import QueryPlan
from repro.net import AsyncQueryClient, NetConfig, QueryServer, encode_query
from repro.net.protocol import decode_result, encode_result
from repro.query import QueryResult
from repro.serve import QueryService
from repro.skyline.engine import SkylineResult
from tests.test_net import SlowStubEngine, run_served, simple_query


def reference_jsonable(value):
    """The recursive ``extra`` walk the response encoder used to make."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [reference_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): reference_jsonable(v) for k, v in value.items()}
    return str(value)


def reference_body(result) -> bytes:
    """What the server sent for ``result`` before the one-pass encoder."""
    encoded = encode_result(result)
    encoded["extra"] = reference_jsonable(result.extra)
    return json.dumps({"result": encoded}).encode("utf-8")


# ----------------------------------------------------------------------
# envelope fields
# ----------------------------------------------------------------------
BAD_FIELDS = [
    ("timeout", [1.0]), ("timeout", "x"), ("timeout", 10 ** 400),
    ("timeout", float("nan")), ("timeout", "NaN"), ("timeout", float("inf")),
    ("timeout", True), ("timeout", 0), ("priority", ["batch"]),
    ("priority", 1), ("client_id", 7), ("client_id", {"id": "a"}),
    ("allow_partial", "no"), ("allow_partial", 1),
]
BAD_IDS = ["timeout-list", "timeout-string", "timeout-huge-int",
           "timeout-nan", "timeout-nan-string", "timeout-inf",
           "timeout-bool", "timeout-zero", "priority-list", "priority-int",
           "client-id-int", "client-id-object", "allow-partial-string",
           "allow-partial-int"]


class TestEnvelopeFields:
    @pytest.mark.parametrize("field, value", BAD_FIELDS, ids=BAD_IDS)
    def test_a_field_of_the_wrong_type_is_a_400_naming_it(self, field,
                                                          value):
        envelope = {"query": encode_query(simple_query()), field: value}

        async def handler(service, server, client):
            status, _, body = await client._request("POST", "/v1/query",
                                                    envelope)
            stream_status, _, stream_body = await client._request(
                "POST", "/v1/query/stream", envelope)
            batch = dict(envelope, queries=[envelope.pop("query")])
            batch_status = (await client._request(
                "POST", "/v1/query/batch", batch))[0]
            healthy = (await client._request("GET", "/healthz"))[0]
            return (status, json.loads(body)["error"], stream_status,
                    json.loads(stream_body)["error"], batch_status, healthy)

        status, error, stream_status, stream_error, batch_status, healthy = \
            run_served(handler)
        assert (status, error["type"], batch_status, healthy) == (
            400, "ProtocolError", 400, 200)
        assert repr(field) in error["message"]
        # The stream route refuses the envelope before its chunked head.
        assert (stream_status, stream_error["type"]) == (400, "ProtocolError")
        assert repr(field) in stream_error["message"]

    @pytest.mark.parametrize("queries", [{"q": 1}, "x", 3])
    def test_a_batch_whose_queries_are_not_an_array_is_a_400(self, queries):
        async def handler(service, server, client):
            status, _, body = await client._request(
                "POST", "/v1/query/batch", {"queries": queries})
            return status, json.loads(body)["error"]

        status, error = run_served(handler)
        assert (status, error["type"]) == (400, "ProtocolError")
        assert "'queries'" in error["message"]

    @pytest.mark.parametrize("timeout", [0.5, 2, 1e300],
                             ids=["float", "int", "huge-float"])
    def test_a_finite_positive_timeout_still_answers(self, timeout):
        async def handler(service, server, client):
            status, _, body = await client._request("POST", "/v1/query", {
                "query": encode_query(simple_query()), "timeout": timeout,
                "priority": "batch", "client_id": "c", "allow_partial": False})
            return status, decode_result(json.loads(body)["result"]).tids

        assert run_served(handler) == (200, (1, 2))


# ----------------------------------------------------------------------
# response bytes
# ----------------------------------------------------------------------
PLAN = QueryPlan("ranking-cube", "topk", "top-3 routed to ranking-cube",
                 {"k": 3, "covering_cuboids": "A1", "estimated_cost": 1.5},
                 ("ranking-cube", "table-scan"), "cost",
                 (("ranking-cube", 1.5), ("table-scan", 9.0)))

scalars = st.one_of(
    st.text(max_size=6), st.integers(min_value=-10 ** 20,
                                     max_value=10 ** 20),
    st.floats(), st.booleans(), st.none(),
    st.floats().map(np.float64), st.integers(-5, 5).map(np.int64),
    st.just(PLAN))
keys = st.one_of(st.text(max_size=4), st.integers(-3, 3),
                 st.floats(allow_nan=False), st.booleans(), st.none())
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3).map(tuple),
        st.lists(children, max_size=3),
        st.dictionaries(keys, children, max_size=3)),
    max_leaves=12)
extras = st.dictionaries(keys, values, max_size=8)


class TestResponseBytes:
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(extra=extras, skyline=st.booleans())
    def test_the_one_pass_body_is_the_walked_body(self, extra, skyline):
        result = (SkylineResult(tids=(3, 1), extra=extra) if skyline else
                  QueryResult(tids=(3, 1), scores=(0.25, 0.5), extra=extra))
        body = json.dumps({"result": encode_result(result)}).encode("utf-8")
        assert body == reference_body(result)

    def test_a_live_server_sends_the_walked_body(self):
        engine = SlowStubEngine(extra={
            "plan": PLAN, "backend": "ranking-cube", 7: (1, 2.5, None),
            "nested": {1: {"x": (np.float64(0.5),)}, None: True},
            "count": np.int64(4), "share": np.float64(0.125)})
        answered = []
        make = engine._result

        def result():
            answered.append(make())
            return answered[-1]

        engine._result = result

        async def handler(service, server, client):
            return await client._request(
                "POST", "/v1/query", {"query": encode_query(simple_query())})

        status, _, body = run_served(handler, engine=engine)
        assert status == 200 and len(answered) == 1
        # The service annotated the very object it answered with.
        assert "queue_wait" in answered[0].extra
        assert body == reference_body(answered[0])
