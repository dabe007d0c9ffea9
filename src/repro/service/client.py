"""Synchronous Python client for the scheduling service.

Thin by design: one :class:`http.client.HTTPConnection` per call, the
protocol's stable error codes surfaced as :class:`ServiceError`, and
transparent wire negotiation — ``wire="auto"`` (the default) submits
requests as binary frames (:mod:`repro.service.wire`) and falls back to
JSON per request when a request cannot be framed, or stickily when the
server turns out not to speak frames at all (an old server answers
``bad_json`` to a frame body it tried to parse as JSON).  For
high-throughput pipelined submission use
:class:`~repro.service.aioclient.AsyncServiceClient` instead.

::

    client = ServiceClient(port=8177)
    client.wait_ready()
    result = client.solve(tree, memory=6, algorithm="FullRecExpand")
    print(result["io_volume"])
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Mapping, Sequence

from ..api.errors import ApiError, ProtocolError
from ..core.tree import TaskTree
from .wire import (
    JSON_CONTENT_TYPE,
    WIRE_CONTENT_TYPE,
    WireEncodeError,
    decode_response_frame,
    encode_request_frame,
    media_type,
)

__all__ = ["ServiceClient", "ServiceError"]

#: error codes that mean "this server did not understand a binary frame"
#: — an old server ignores Content-Type and tries the frame as JSON
#: (``bad_json``); a future server may refuse the media type outright.
_WIRE_UNSUPPORTED_CODES = frozenset({"bad_json", "unsupported_media_type"})


class ServiceError(ApiError, RuntimeError):
    """An error envelope from the service (or a transport-level failure).

    Part of the unified taxonomy (:mod:`repro.api.errors`): as an
    :class:`~repro.api.errors.ApiError` it carries the derived
    ``exit_code``, so the CLI maps served rejections onto the same exit
    contract as local validation failures.  Still a
    :class:`RuntimeError` — its base until 1.2 — so pre-existing
    ``except RuntimeError`` callers keep working.

    Attributes
    ----------
    code:
        the protocol's stable error code (``queue_full``, ``timeout``,
        ``bad_field``, …) or ``transport`` for connection-level failures.
    status:
        the HTTP status, 0 when the request never reached the server.
    """

    def __init__(self, code: str, message: str, status: int = 0):
        super().__init__(code, message, status=status)


def _tree_payload(tree: TaskTree | Mapping[str, Sequence[int]]) -> dict[str, Any]:
    if isinstance(tree, TaskTree):
        return tree.to_dict()
    return {"parents": list(tree["parents"]), "weights": list(tree["weights"])}


def _with_ambient_trace(request: Mapping[str, Any]) -> Mapping[str, Any]:
    """``request`` carrying the active :func:`repro.obs.trace_context` id.

    A request that names its own ``trace`` keeps it; without an active
    trace the request is returned unchanged.
    """
    if "trace" not in request:
        from ..obs.trace import current_trace_id

        trace_id = current_trace_id()
        if trace_id is not None:
            return dict(request, trace=trace_id)
    return request


def _parse_envelope(status: int, content_type: str | None, raw: bytes) -> Any:
    """One response body (a frame or JSON) as its envelope.

    An error envelope raises :class:`ServiceError` with its code and
    the HTTP status; an undecodable body raises it as ``transport``.
    """
    if media_type(content_type) == WIRE_CONTENT_TYPE:
        try:
            envelope: Any = decode_response_frame(raw)
        except ProtocolError as exc:
            raise ServiceError(
                "transport",
                f"undecodable frame response (HTTP {status}): {exc.message}",
                status,
            ) from exc
    else:
        try:
            envelope = json.loads(raw)
        except ValueError as exc:
            raise ServiceError(
                "transport", f"non-JSON response (HTTP {status})", status
            ) from exc
    if isinstance(envelope, dict) and envelope.get("ok") is False:
        error = envelope.get("error", {})
        raise ServiceError(
            str(error.get("code", "internal")),
            str(error.get("message", "unknown error")),
            status,
        )
    return envelope


class ServiceClient:
    """Talk to one ``repro-ioschedule serve`` instance.

    ``wire`` selects the submit encoding: ``"auto"`` (binary frames with
    transparent JSON fallback — the default), ``"binary"`` (frames only;
    unframable requests raise), or ``"json"`` (the pre-frame behaviour,
    byte-for-byte).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8177,
        *,
        timeout: float = 120.0,
        wire: str = "auto",
    ):
        if wire not in ("auto", "binary", "json"):
            raise ValueError(f"wire must be auto, binary or json, not {wire!r}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.wire = wire
        # sticky: flipped off the first time the server proves it does
        # not speak frames, so every later submit goes straight to JSON
        self._wire_ok = wire != "json"

    # ---------------------------------------------------------------- #
    # transport
    # ---------------------------------------------------------------- #

    def _request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        *,
        content_type: str = JSON_CONTENT_TYPE,
        accept: str | None = None,
    ) -> dict[str, Any]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            headers = {"Content-Type": content_type} if body else {}
            if accept is not None:
                headers["Accept"] = accept
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                status = response.status
                response_type = response.getheader("Content-Type")
            except (OSError, http.client.HTTPException) as exc:
                raise ServiceError("transport", f"{type(exc).__name__}: {exc}") from exc
            return _parse_envelope(status, response_type, raw)
        finally:
            conn.close()

    def _post(self, path: str, obj: Mapping[str, Any]) -> dict[str, Any]:
        return self._request("POST", path, json.dumps(obj).encode("utf-8"))

    # ---------------------------------------------------------------- #
    # API
    # ---------------------------------------------------------------- #

    def submit(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """Submit a raw request dict; returns the full success envelope.

        When the calling context holds an active trace
        (:func:`repro.obs.trace_context`) and the request does not name
        its own trace id, the context's id rides along — the server and
        its workers then stamp the response envelope with the
        per-stage timing breakdown.
        """
        request = _with_ambient_trace(request)
        if self._wire_ok:
            try:
                frame = encode_request_frame(request)
            except WireEncodeError:
                if self.wire == "binary":
                    raise
                frame = None  # this request rides JSON; the mode stays auto
            if frame is not None:
                try:
                    return self._request(
                        "POST",
                        "/v1/submit",
                        frame,
                        content_type=WIRE_CONTENT_TYPE,
                        accept=WIRE_CONTENT_TYPE,
                    )
                except ServiceError as exc:
                    if self.wire == "auto" and exc.code in _WIRE_UNSUPPORTED_CODES:
                        self._wire_ok = False  # old server: stay on JSON
                    else:
                        raise
        return self._post("/v1/submit", request)

    def solve(
        self,
        tree: TaskTree | Mapping[str, Sequence[int]],
        memory: int,
        *,
        algorithm: str = "RecExpand",
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Schedule one tree; returns the ``result`` block (io_volume, …)."""
        request: dict[str, Any] = {
            "kind": "solve",
            "tree": _tree_payload(tree),
            "memory": memory,
            "algorithm": algorithm,
        }
        if timeout is not None:
            request["timeout"] = timeout
        return self.submit(request)["result"]

    def paging(
        self,
        tree: TaskTree | Mapping[str, Sequence[int]],
        memory: int,
        *,
        algorithm: str = "RecExpand",
        page_size: int = 1,
        policies: Sequence[str] | None = None,
        seed: int = 0,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Page-policy comparison; returns the ``result`` block."""
        request: dict[str, Any] = {
            "kind": "paging",
            "tree": _tree_payload(tree),
            "memory": memory,
            "algorithm": algorithm,
            "page_size": page_size,
            "seed": seed,
        }
        if policies is not None:
            request["policies"] = list(policies)
        if timeout is not None:
            request["timeout"] = timeout
        return self.submit(request)["result"]

    def exact(
        self,
        tree: TaskTree | Mapping[str, Sequence[int]],
        memory: int,
        *,
        max_states: int = 2_000_000,
        node_limit: int = 24,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Exact optimum + heuristic gaps; returns the ``result`` block."""
        request: dict[str, Any] = {
            "kind": "exact",
            "tree": _tree_payload(tree),
            "memory": memory,
            "max_states": max_states,
            "node_limit": node_limit,
        }
        if timeout is not None:
            request["timeout"] = timeout
        return self.submit(request)["result"]

    def metrics(self) -> dict[str, Any]:
        """Scrape ``/metrics`` (queue depth, cache counters, latency pcts)."""
        return self._request("GET", "/metrics")

    def health(self) -> dict[str, Any]:
        return self._request("GET", "/healthz")

    def wait_ready(self, deadline: float = 15.0, poll: float = 0.05) -> bool:
        """Poll ``/healthz`` until the service answers (or the deadline passes)."""
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            try:
                if self.health().get("ok"):
                    return True
            except ServiceError:
                time.sleep(poll)
        return False
