"""The scheduling service: solve/paging/exact queries over HTTP.

This package puts a non-blocking network front-end on the same code
paths the CLI runs offline, aimed at the ROADMAP's "serve heavy traffic"
north star:

``repro.service.protocol``
    the wire-level view of the typed solver API (:mod:`repro.api`):
    request dataclasses, validation, stable error codes and content
    addressing all live there — this module (de)serializes them;
``repro.service.pool``
    the persistent worker pool executing validated micro-batches;
``repro.service.server``
    the asyncio JSON-over-HTTP server — micro-batching, bounded
    admission queue (backpressure), in-flight + cache-backed dedup,
    ``/metrics``;
``repro.service.wire``
    the length-framed binary content type: tree buffers as raw int64
    columns (offsets, parents, weights) plus a compact binary header, with
    zero JSON on the tree path (negotiated per request, JSON stays the
    default);
``repro.service.client``
    a synchronous Python client (also behind ``repro-ioschedule submit``);
``repro.service.aioclient``
    the asyncio client — keep-alive connection pool + request
    pipelining, for burst-throughput workloads.

Start a server with ``repro-ioschedule serve`` and query it with
``repro-ioschedule submit``, :class:`ServiceClient`, or
:class:`AsyncServiceClient`.
"""

from .aioclient import AsyncServiceClient
from .client import ServiceClient, ServiceError
from .pool import WorkerPool
from .protocol import (
    ERROR_CODES,
    PROTOCOL_VERSION,
    ProtocolError,
    parse_request,
)
from .server import ServerConfig, ServerThread, ServiceServer, running_server
from .wire import (
    WIRE_CONTENT_TYPE,
    WIRE_VERSION,
    decode_request_frame,
    decode_response_frame,
    encode_request_frame,
    encode_response_frame,
)

__all__ = [
    "AsyncServiceClient",
    "ERROR_CODES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServerConfig",
    "ServerThread",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "WIRE_CONTENT_TYPE",
    "WIRE_VERSION",
    "WorkerPool",
    "decode_request_frame",
    "decode_response_frame",
    "encode_request_frame",
    "encode_response_frame",
    "parse_request",
    "running_server",
]
