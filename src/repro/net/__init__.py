"""repro.net — the HTTP serving tier over ``repro.serve``.

The network front door of the ranking-cube engine: JSON queries in,
full result envelopes (plan metadata included) out, with per-client
token-bucket rate limits and streamed verified top-k prefixes.  The tier
queues nothing: client id and priority class ride into ``QueryService``,
whose queue bounds and schedules the request.  See
``docs/network_serving.md``.
"""

from repro.net.client import AsyncQueryClient
from repro.net.protocol import (
    PROTOCOL_VERSION,
    FunctionRegistry,
    ProtocolError,
    RateLimitedError,
    RemoteServerError,
    decode_error,
    decode_function,
    decode_query,
    decode_result,
    encode_error,
    encode_function,
    encode_query,
    encode_result,
    status_of,
)
from repro.net.ratelimit import TokenBucket, TokenBucketLimiter
from repro.net.server import NetConfig, QueryServer
from repro.net.stream import StreamAssembler

__all__ = [
    "PROTOCOL_VERSION",
    "AsyncQueryClient",
    "FunctionRegistry",
    "NetConfig",
    "ProtocolError",
    "QueryServer",
    "RateLimitedError",
    "RemoteServerError",
    "StreamAssembler",
    "TokenBucket",
    "TokenBucketLimiter",
    "decode_error",
    "decode_function",
    "decode_query",
    "decode_result",
    "encode_error",
    "encode_function",
    "encode_query",
    "encode_result",
    "status_of",
]
