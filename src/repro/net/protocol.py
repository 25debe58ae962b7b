"""The wire protocol: JSON encodings of queries, results, and errors.

Everything that crosses the HTTP/websocket boundary is encoded here, in
one place, so the server and the async client cannot drift apart:

* **predicates** — a plain ``{dim: value}`` object (conditions are
  equality over coded integer values, exactly :class:`~repro.query.Predicate`);
* **ranking functions** — either structurally (``linear``,
  ``squared_distance``, ``manhattan_distance``, ``constrained``, and full
  ``expression`` trees) or by registered name (``{"kind": "ref",
  "name": ...}`` against the server's :class:`FunctionRegistry`);
* **queries** — ``topk`` and ``skyline`` envelopes mirroring
  :class:`~repro.query.TopKQuery` / :class:`~repro.query.SkylineQuery`;
* **results** — every field of :class:`~repro.query.QueryResult` /
  :class:`~repro.skyline.engine.SkylineResult` including the engine's
  full ``extra`` plan metadata, plus a top-level ``degraded`` flag
  mirroring the fault layer's ``extra["degraded"]`` contract;
* **errors** — a typed envelope (``type`` / ``status`` / ``message`` /
  optional ``retry_after``) that the client maps back to the *same*
  exception classes the in-process serving layer raises, so remote
  callers can ``except RequestTimeoutError`` exactly like local ones.

Bit-identical round trips are a hard requirement (the wire-parity suite
enforces them).  A top-k result's ``"scores"`` — the one field whose size
grows with ``k`` — travel as the doubles themselves: one base64 string of
little-endian IEEE-754 doubles, rank order, exact by construction (``±inf``
and ``NaN`` included, and the envelope stays standard JSON).  To read them::

    raw = base64.b64decode(result["scores"])
    scores = struct.unpack("<%dd" % (len(raw) // 8), raw)  # or numpy.frombuffer(raw, "<f8")

``tids`` stay JSON integers.  The few floats written as JSON numbers
(weights, targets, a stream's prefix entries) survive too: Python's
``json`` emits floats via ``repr``, which round-trips every finite double.
"""

from __future__ import annotations

import base64
import hashlib
import struct
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import QueryError, ReproError
from repro.functions.base import FunctionShape, RankingFunction, finite
from repro.functions.distance import (
    ManhattanDistanceFunction,
    SquaredDistanceFunction,
)
from repro.functions.expression import (
    Abs,
    Add,
    Const,
    ConstrainedFunction,
    Expr,
    ExpressionFunction,
    Mul,
    Pow,
    Sub,
    Var,
)
from repro.functions.linear import LinearFunction
from repro.query import Predicate, QueryResult, SkylineQuery, TopKQuery
from repro.serve.batcher import DEFAULT_PRIORITY, PRIORITY_CLASSES
from repro.serve.errors import (
    RequestTimeoutError,
    ServeError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShardUnavailableError,
)
from repro.skyline.engine import SkylineResult

PROTOCOL_VERSION = 2


def decode_priority(value, default: str = DEFAULT_PRIORITY) -> str:
    """Validate a request's priority class (400 on an unknown name)."""
    if value is None:
        return default
    name = str(value)
    if name not in PRIORITY_CLASSES:
        raise ProtocolError(
            f"unknown priority class {name!r}; expected one of "
            f"{', '.join(PRIORITY_CLASSES)}")
    return name


class ProtocolError(ReproError):
    """A request (or response) violates the wire protocol."""


class RateLimitedError(ReproError):
    """The per-client token bucket is exhausted (HTTP 429).

    ``retry_after`` is the seconds until the bucket refills enough to
    admit one request — surfaced as the ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class RemoteServerError(ReproError):
    """The server reported a failure with no richer local type (HTTP 500)."""

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


async def read_head(reader) -> Tuple[str, Dict[str, str]]:
    """One bounded read of an HTTP/1.1 head: ``(first line, headers)``.

    Header names are lower-cased and the last duplicate wins.  The read is
    bounded by the ``StreamReader``'s limit, and what ``readuntil`` raises
    is the caller's to map: ``IncompleteReadError`` for an EOF (an empty
    ``partial`` means before the first byte), ``LimitOverrunError`` for a
    head above the limit — raised before any of it is parsed.
    """
    head = await reader.readuntil(b"\r\n\r\n")
    first, *lines = head.decode("latin-1").split("\r\n")
    headers: Dict[str, str] = {}
    for line in lines:
        if line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    return first, headers


#: RFC 6455 §1.3: the GUID a handshake's ``Sec-WebSocket-Accept`` hashes.
WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"


def ws_accept(key: str) -> str:
    """The ``Sec-WebSocket-Accept`` answering ``Sec-WebSocket-Key: key``."""
    return base64.b64encode(hashlib.sha1(
        (key + WS_GUID).encode("latin-1")).digest()).decode("latin-1")


def ws_mask(payload: bytes, mask: bytes) -> bytes:
    """``payload`` XOR the 4-byte ``mask`` repeated (RFC 6455 §5.3; its own
    inverse), as one big-integer XOR: a byte at a time costs 1.5 ms per
    8.8 kB message."""
    size = len(payload)
    key = (mask * (size // 4 + 1))[:size]
    return (int.from_bytes(payload, "big")
            ^ int.from_bytes(key, "big")).to_bytes(size, "big")


# ----------------------------------------------------------------------
# predicates
# ----------------------------------------------------------------------
def encode_predicate(predicate: Predicate) -> Dict[str, int]:
    """``Predicate`` → ``{dim: coded value}``."""
    return {dim: int(value) for dim, value in predicate.conditions}


def decode_predicate(obj) -> Predicate:
    if obj is None:
        return Predicate.of()
    if not isinstance(obj, Mapping):
        raise ProtocolError("predicate must be a {dim: value} object")
    conditions: Dict[str, int] = {}
    for dim, value in obj.items():
        if not isinstance(dim, str):
            raise ProtocolError("predicate dimensions must be strings")
        if isinstance(value, bool) or not isinstance(value, int):
            raise ProtocolError(
                f"predicate value for {dim!r} must be an integer code")
        conditions[dim] = value
    return Predicate.of(conditions)


# ----------------------------------------------------------------------
# ranking functions
# ----------------------------------------------------------------------
class FunctionRegistry:
    """Server-side names for ranking functions (``{"kind": "ref"}``).

    A deployment registers its blessed scoring functions once; clients
    then rank by name instead of shipping weights — the thin-web-layer
    shape of the slicer servers this tier is modeled on.
    """

    def __init__(self) -> None:
        self._functions: Dict[str, RankingFunction] = {}

    def register(self, name: str, function: RankingFunction) -> None:
        if not isinstance(name, str) or not name:
            raise ProtocolError("function names must be non-empty strings")
        self._functions[name] = function

    def get(self, name: str) -> RankingFunction:
        function = self._functions.get(name)
        if function is None:
            raise ProtocolError(
                f"no ranking function registered under {name!r} "
                f"(known: {sorted(self._functions) or 'none'})")
        return function

    def names(self) -> List[str]:
        return sorted(self._functions)


def _encode_expr(expr: Expr) -> dict:
    if isinstance(expr, Var):
        return {"op": "var", "name": expr.name}
    if isinstance(expr, Const):
        return {"op": "const", "value": expr.value({})}
    if isinstance(expr, Add):
        return {"op": "add", "left": _encode_expr(expr.left),
                "right": _encode_expr(expr.right)}
    if isinstance(expr, Sub):
        return {"op": "sub", "left": _encode_expr(expr.left),
                "right": _encode_expr(expr.right)}
    if isinstance(expr, Mul):
        return {"op": "mul", "left": _encode_expr(expr.left),
                "right": _encode_expr(expr.right)}
    if isinstance(expr, Pow):
        return {"op": "pow", "base": _encode_expr(expr.base),
                "exponent": int(expr.exponent)}
    if isinstance(expr, Abs):
        return {"op": "abs", "inner": _encode_expr(expr.inner)}
    raise ProtocolError(f"cannot encode expression node {type(expr).__name__}")


def _decode_expr(obj) -> Expr:
    if not isinstance(obj, Mapping) or "op" not in obj:
        raise ProtocolError("expression nodes must be objects with an 'op'")
    op = obj["op"]
    if op == "var":
        return Var(str(obj["name"]))
    if op == "const":
        return Const(obj["value"])
    if op in ("add", "sub", "mul"):
        node = {"add": Add, "sub": Sub, "mul": Mul}[op]
        return node(_decode_expr(obj["left"]), _decode_expr(obj["right"]))
    if op == "pow":
        return Pow(_decode_expr(obj["base"]), int(obj["exponent"]))
    if op == "abs":
        return Abs(_decode_expr(obj["inner"]))
    raise ProtocolError(f"unknown expression op {op!r}")


def encode_function(function: RankingFunction) -> dict:
    """A structural encoding of ``function`` (see :func:`decode_function`).

    Linear subclasses (including the weighted average) encode as plain
    ``linear`` over their stored weights, which evaluates bit-identically.
    A bare string encodes as a ``ref`` against the server's registry, so
    clients may put a registered name where a query takes a function.
    """
    if isinstance(function, str):
        return {"kind": "ref", "name": function}
    if isinstance(function, LinearFunction):
        return {"kind": "linear", "dims": list(function.dims),
                "weights": list(function.weights),
                "constant": function.constant}
    if isinstance(function, SquaredDistanceFunction):
        return {"kind": "squared_distance", "dims": list(function.dims),
                "targets": list(function.targets),
                "weights": list(function.weights)}
    if isinstance(function, ManhattanDistanceFunction):
        return {"kind": "manhattan_distance", "dims": list(function.dims),
                "targets": list(function.targets),
                "weights": list(function.weights)}
    if isinstance(function, ConstrainedFunction):
        return {"kind": "constrained",
                "base": encode_function(function.base),
                "dim": function.constrained_dim,
                "low": function.window.low, "high": function.window.high}
    if isinstance(function, ExpressionFunction):
        return {"kind": "expression", "expr": _encode_expr(function.expr),
                "dims": list(function.dims),
                "shape": function.shape.name.lower()}
    raise ProtocolError(
        f"cannot encode ranking function {type(function).__name__}; "
        f"register it by name and send a 'ref' instead")


def _dims(values) -> List[str]:
    """A query's dimension names: a non-string one is a 400, not a 500."""
    if not all(isinstance(dim, str) for dim in values):
        raise ProtocolError("dims must be strings")
    return list(values)


def decode_function(obj, registry: Optional[FunctionRegistry] = None
                    ) -> RankingFunction:
    if not isinstance(obj, Mapping) or "kind" not in obj:
        raise ProtocolError("function must be an object with a 'kind'")
    kind = obj["kind"]
    try:
        if kind == "ref":
            if registry is None:
                raise ProtocolError(
                    "this endpoint has no function registry; send the "
                    "function structurally")
            return registry.get(str(obj["name"]))
        if kind == "linear":
            return LinearFunction(_dims(obj["dims"]), list(obj["weights"]),
                                  obj.get("constant", 0.0))
        if kind == "squared_distance":
            return SquaredDistanceFunction(_dims(obj["dims"]),
                                           list(obj["targets"]),
                                           obj.get("weights"))
        if kind == "manhattan_distance":
            return ManhattanDistanceFunction(_dims(obj["dims"]),
                                             list(obj["targets"]),
                                             obj.get("weights"))
        if kind == "constrained":
            return ConstrainedFunction(decode_function(obj["base"], registry),
                                       str(obj["dim"]),
                                       float(obj["low"]), float(obj["high"]))
        if kind == "expression":
            shape_name = str(obj.get("shape", "general")).upper()
            try:
                shape = FunctionShape[shape_name]
            except KeyError:
                raise ProtocolError(f"unknown function shape {shape_name!r}")
            dims = obj.get("dims")
            return ExpressionFunction(_decode_expr(obj["expr"]),
                                      dims=_dims(dims) if dims else None,
                                      shape=shape)
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed {kind!r} function: {exc}") from exc
    raise ProtocolError(f"unknown function kind {kind!r}")


# ----------------------------------------------------------------------
# queries
# ----------------------------------------------------------------------
def encode_query(query) -> dict:
    if isinstance(query, TopKQuery):
        return {"type": "topk",
                "predicate": encode_predicate(query.predicate),
                "function": encode_function(query.function),
                "k": int(query.k)}
    if isinstance(query, SkylineQuery):
        return {"type": "skyline",
                "predicate": encode_predicate(query.predicate),
                "dims": list(query.preference_dims),
                "targets": (list(query.targets)
                            if query.targets is not None else None)}
    raise ProtocolError(f"cannot encode query {type(query).__name__}")


def decode_query(obj, registry: Optional[FunctionRegistry] = None):
    if not isinstance(obj, Mapping) or "type" not in obj:
        raise ProtocolError("query must be an object with a 'type'")
    kind = obj["type"]
    try:
        if kind == "topk":
            return TopKQuery(decode_predicate(obj.get("predicate")),
                             decode_function(obj["function"], registry),
                             int(obj["k"]))
        if kind == "skyline":
            targets = obj.get("targets")
            return SkylineQuery(
                decode_predicate(obj.get("predicate")),
                tuple(_dims(obj["dims"])),
                targets=(finite(targets, "targets")
                         if targets is not None else None))
    except (ProtocolError, QueryError):
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed {kind!r} query: {exc}") from exc
    raise ProtocolError(f"unknown query type {kind!r}")


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
def _jsonable(value):
    """Make an ``extra`` value JSON-safe (tuples become lists)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def is_degraded(result) -> bool:
    """Whether the fault layer marked ``result`` as a partial answer."""
    return bool(result.extra.get("degraded"))


def _pack_scores(scores: Sequence[float]) -> str:
    """Doubles → base64 of their little-endian IEEE-754 bytes."""
    return base64.b64encode(
        struct.pack("<%dd" % len(scores), *scores)).decode("ascii")


def _unpack_scores(packed) -> Tuple[float, ...]:
    """Inverse of :func:`_pack_scores`; anything else is a ``ProtocolError``."""
    if not isinstance(packed, str):
        raise ProtocolError(
            "scores must be one base64 string of little-endian doubles")
    try:
        raw = base64.b64decode(packed, validate=True)
    except ValueError as exc:  # binascii.Error is one
        raise ProtocolError(f"scores are not valid base64: {exc}") from exc
    if len(raw) % 8:
        raise ProtocolError(
            f"scores hold {len(raw)} bytes, not a whole number of doubles")
    return struct.unpack("<%dd" % (len(raw) // 8), raw)


def _decode_tids(tids) -> Tuple[int, ...]:
    # Exact type, checked at C speed: ``1.5`` and ``true`` are not tids.
    if not isinstance(tids, list) or not set(map(type, tids)) <= {int}:
        raise ProtocolError("tids must be an array of integers")
    return tuple(tids)


def encode_result(result) -> dict:
    """``QueryResult`` / ``SkylineResult`` → response-envelope object."""
    if isinstance(result, QueryResult):
        return {"result_kind": "topk",
                "tids": list(result.tids),
                "scores": _pack_scores(result.scores),
                "disk_accesses": int(result.disk_accesses),
                "states_generated": int(result.states_generated),
                "peak_heap_size": int(result.peak_heap_size),
                "tuples_evaluated": int(result.tuples_evaluated),
                "elapsed_seconds": result.elapsed_seconds,
                "extra": _jsonable(result.extra),
                "degraded": is_degraded(result)}
    if isinstance(result, SkylineResult):
        return {"result_kind": "skyline",
                "tids": list(result.tids),
                "disk_accesses": int(result.disk_accesses),
                "signature_accesses": int(result.signature_accesses),
                "peak_heap_size": int(result.peak_heap_size),
                "nodes_expanded": int(result.nodes_expanded),
                "elapsed_seconds": result.elapsed_seconds,
                "extra": _jsonable(result.extra),
                "degraded": is_degraded(result)}
    raise ProtocolError(f"cannot encode result {type(result).__name__}")


def decode_result(obj):
    if not isinstance(obj, Mapping) or "result_kind" not in obj:
        raise ProtocolError("result must be an object with a 'result_kind'")
    kind = obj["result_kind"]
    if kind == "topk":
        tids = _decode_tids(obj.get("tids"))
        scores = _unpack_scores(obj.get("scores"))
        if len(tids) != len(scores):
            raise ProtocolError(
                f"result carries {len(tids)} tids but {len(scores)} scores")
        return QueryResult(
            tids=tids,
            scores=scores,
            disk_accesses=int(obj.get("disk_accesses", 0)),
            states_generated=int(obj.get("states_generated", 0)),
            peak_heap_size=int(obj.get("peak_heap_size", 0)),
            tuples_evaluated=int(obj.get("tuples_evaluated", 0)),
            elapsed_seconds=float(obj.get("elapsed_seconds", 0.0)),
            extra=dict(obj.get("extra") or {}))
    if kind == "skyline":
        return SkylineResult(
            tids=_decode_tids(obj.get("tids")),
            disk_accesses=int(obj.get("disk_accesses", 0)),
            signature_accesses=int(obj.get("signature_accesses", 0)),
            peak_heap_size=int(obj.get("peak_heap_size", 0)),
            nodes_expanded=int(obj.get("nodes_expanded", 0)),
            elapsed_seconds=float(obj.get("elapsed_seconds", 0.0)),
            extra=dict(obj.get("extra") or {}))
    raise ProtocolError(f"unknown result kind {kind!r}")


# ----------------------------------------------------------------------
# errors  ↔  HTTP status codes
# ----------------------------------------------------------------------
#: Ordered (class, status) pairs; the first ``isinstance`` match wins, so
#: subclasses must precede their bases.  This is the table
#: ``docs/network_serving.md`` documents.
ERROR_STATUS: Tuple[Tuple[type, int], ...] = (
    (RateLimitedError, 429),
    (ServiceOverloadedError, 503),
    (ShardUnavailableError, 503),
    (RequestTimeoutError, 504),
    (ServiceClosedError, 503),
    (ProtocolError, 400),
    (QueryError, 400),
)

_ERROR_TYPES: Dict[str, Callable[..., Exception]] = {
    cls.__name__: cls for cls, _ in ERROR_STATUS
}


def status_of(exc: Exception) -> int:
    """HTTP status for ``exc`` (500 for anything unmapped)."""
    for cls, status in ERROR_STATUS:
        if isinstance(exc, cls):
            return status
    return 500


def retry_after_of(exc: Exception) -> Optional[float]:
    value = getattr(exc, "retry_after", None)
    return float(value) if value is not None else None


def encode_error(exc: Exception) -> dict:
    """``exc`` → the ``{"error": ...}`` envelope body."""
    payload: Dict[str, object] = {
        "type": type(exc).__name__,
        "status": status_of(exc),
        "message": str(exc),
    }
    retry_after = retry_after_of(exc)
    if retry_after is not None:
        payload["retry_after"] = retry_after
    return {"error": payload}


def decode_error(body: Mapping, status: int) -> Exception:
    """Rebuild the typed exception a response envelope describes.

    Types the client knows (the :data:`ERROR_STATUS` table) come back as
    themselves — ``except RequestTimeoutError`` works identically against
    the wire and in process.  Anything else degrades to
    :class:`RemoteServerError` carrying the server's message.
    """
    payload = body.get("error") if isinstance(body, Mapping) else None
    if not isinstance(payload, Mapping):
        return RemoteServerError(f"HTTP {status} with no error envelope")
    name = str(payload.get("type", ""))
    message = str(payload.get("message", f"HTTP {status}"))
    retry_after = payload.get("retry_after")
    cls = _ERROR_TYPES.get(name)
    if cls is None:
        return RemoteServerError(f"{name or 'unknown error'}: {message}")
    if cls in (RateLimitedError, ServiceOverloadedError):
        return cls(message, retry_after=(float(retry_after)
                                         if retry_after is not None else None))
    return cls(message)


__all__ = [
    "ERROR_STATUS",
    "FunctionRegistry",
    "PRIORITY_CLASSES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RateLimitedError",
    "RemoteServerError",
    "WS_GUID",
    "decode_error",
    "decode_function",
    "decode_predicate",
    "decode_priority",
    "decode_query",
    "decode_result",
    "encode_error",
    "encode_function",
    "encode_predicate",
    "encode_query",
    "encode_result",
    "is_degraded",
    "read_head",
    "retry_after_of",
    "status_of",
    "ws_accept",
    "ws_mask",
]
