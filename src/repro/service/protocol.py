"""Wire schema of the scheduling service — a thin view of :mod:`repro.api`.

Since the typed solver API became the one request model for every
surface, this module no longer owns any validation or key-derivation
code: the request dataclasses, :func:`parse_request` and the stable
error vocabulary live in :mod:`repro.api.requests` /
:mod:`repro.api.errors`, and the success/error envelopes in
:mod:`repro.api.outcome`.  What remains here is the wire-level surface
the server and its clients share:

* :data:`PROTOCOL_VERSION` — echoed in every response; bumped on
  incompatible wire-format changes;
* :data:`HTTP_STATUS` / :data:`ERROR_CODES` — the status each stable
  code maps to (clients dispatch on the *code*, never the message);
* :func:`ok_envelope` / :func:`error_envelope` — the uniform response
  bodies (exactly the canonical half of an
  :class:`~repro.api.outcome.Outcome` plus cache provenance);
* the request types and :func:`parse_request`, re-exported so existing
  imports keep working;
* the binary frame codec of :mod:`repro.service.wire`
  (:data:`~repro.service.wire.WIRE_VERSION`,
  :data:`~repro.service.wire.WIRE_CONTENT_TYPE` and the four
  encode/decode functions), re-exported here because frames are as much
  "the wire schema" as the JSON envelopes are.

A request's content address (:meth:`key`) is the same buffer digest the
batch engine's work units use — one canonicalisation, computed once
by the server and carried to the worker with the request — so
identical requests collapse onto one computation and one
cache entry on every surface, and bumping
:data:`~repro.api.requests.ENGINE_VERSION` invalidates served results
and offline shards alike.

.. deprecated:: 1.2.0
    Import the request types, ``parse_request``, ``ProtocolError`` and
    the envelope helpers from :mod:`repro.api`; these re-exports remain
    for backwards compatibility (removal no earlier than 2.0).
"""

from __future__ import annotations

from ..api.errors import ERROR_CODES, HTTP_STATUS, ProtocolError
from ..api.outcome import PROTOCOL_VERSION, error_envelope, ok_envelope
from ..api.requests import (
    DEFAULT_PAGING_POLICIES,
    MAX_NODES,
    ExactRequest,
    PagingRequest,
    Request,
    SolveRequest,
    parse_request,
)
from .wire import (
    WIRE_CONTENT_TYPE,
    WIRE_VERSION,
    decode_request_frame,
    decode_response_frame,
    encode_request_frame,
    encode_response_frame,
)

__all__ = [
    "DEFAULT_PAGING_POLICIES",
    "ERROR_CODES",
    "HTTP_STATUS",
    "MAX_NODES",
    "PROTOCOL_VERSION",
    "WIRE_CONTENT_TYPE",
    "WIRE_VERSION",
    "decode_request_frame",
    "decode_response_frame",
    "encode_request_frame",
    "encode_response_frame",
    "ProtocolError",
    "Request",
    "SolveRequest",
    "PagingRequest",
    "ExactRequest",
    "parse_request",
    "error_envelope",
    "ok_envelope",
]
