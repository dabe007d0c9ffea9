"""One error taxonomy for every execution surface.

The CLI, the batch engine and the service used to fail in three
dialects: ``argparse``/``ValueError`` exits, :class:`ProtocolError`
codes behind HTTP statuses, and a client-side ``ServiceError`` whose
status the CLI re-mapped onto its exit-code contract.  This module is
the single vocabulary underneath all of them:

* :data:`ERROR_CODES` — the stable machine-readable codes (part of the
  wire protocol; messages are for humans and may change);
* :data:`HTTP_STATUS` — the HTTP status the service maps each code to;
* :data:`EXIT_BAD_INPUT` / :data:`EXIT_TRANSPORT` — the CLI contract
  (2 = your request was wrong, 1 = transport/overload/internal trouble);
* :class:`ApiError` — the common exception carrying ``code``,
  ``status`` and the derived ``exit_code``, so the *same* invalid
  request fails identically whether it is rejected locally, by an
  embedded worker pool, or by a remote server.

Every error class here keeps the invariant ``exit_code ==
exit_code_for_status(status)``: client-fault statuses (4xx validation
rejections, including 422 ``unsolvable``) exit 2, everything else —
transport failures, overload, timeouts, internal errors — exits 1.
"""

from __future__ import annotations

__all__ = [
    "ApiError",
    "BackendError",
    "CLIENT_FAULT_STATUSES",
    "ERROR_CODES",
    "EXIT_BAD_INPUT",
    "EXIT_OK",
    "EXIT_TRANSPORT",
    "HTTP_STATUS",
    "ProtocolError",
    "TransportError",
    "api_error",
    "exit_code_for_status",
]

#: the CLI exit-code contract (also honoured by ``main``'s handlers).
EXIT_OK = 0
EXIT_TRANSPORT = 1  # transport, overload, timeout, internal failure
EXIT_BAD_INPUT = 2  # bad arguments or an invalid request

#: the stable error vocabulary.  Values are the HTTP statuses the server
#: maps each code to; clients should dispatch on the *code*, never on the
#: message text.
HTTP_STATUS: dict[str, int] = {
    "bad_json": 400,        # body is not a JSON object
    "bad_request": 400,     # envelope-level problem (not a dict, missing kind)
    "unknown_kind": 400,    # kind not in {solve, paging, exact}
    "bad_field": 400,       # a field has the wrong type/range
    "invalid_tree": 400,    # parents/weights do not define a valid tree
    "unknown_algorithm": 400,
    "unknown_policy": 400,
    "bad_frame": 400,       # binary frame is malformed (truncated, lying lengths…)
    "unsupported_wire_version": 400,  # frame speaks a different frame layout
    "version_skew": 400,    # frame built against another protocol/engine version
    "not_found": 404,       # no such endpoint
    "method_not_allowed": 405,
    "payload_too_large": 413,
    "unsupported_media_type": 415,  # Content-Type is neither JSON nor the frame type
    "unsolvable": 422,      # validation passed but the solver refused/failed
    "queue_full": 429,      # backpressure: admission queue at capacity
    "internal": 500,
    "timeout": 504,         # per-request deadline elapsed before completion
}

ERROR_CODES = frozenset(HTTP_STATUS)

#: statuses that mean "your request was wrong" (exit 2), as opposed to
#: transport/overload/internal trouble (exit 1).
CLIENT_FAULT_STATUSES = frozenset({400, 404, 405, 413, 415, 422})


def exit_code_for_status(status: int) -> int:
    """Map an HTTP status (0 = never reached a server) onto the exit contract."""
    return EXIT_BAD_INPUT if status in CLIENT_FAULT_STATUSES else EXIT_TRANSPORT


class ApiError(Exception):
    """Base of every request failure, on any backend.

    Attributes
    ----------
    code:
        a stable code from :data:`ERROR_CODES` (or ``transport`` for
        connection-level failures that never produced an envelope).
    status:
        the HTTP status the service maps the code to; 0 when the failure
        happened before any server was involved.
    message:
        the human-readable detail (free to change between versions).
    exit_code:
        the CLI exit code the failure maps to (see module docstring).
    """

    def __init__(self, code: str, message: str, status: int | None = None) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.status = HTTP_STATUS.get(code, 0) if status is None else status

    @property
    def exit_code(self) -> int:
        return exit_code_for_status(self.status)


class ProtocolError(ApiError, ValueError):
    """A request that violates the schema; carries a stable error code.

    A :class:`ValueError` subclass, so callers catching ``ValueError``
    keep working.  Restricted to client-fault codes at
    construction, so ``exit_code`` is :data:`EXIT_BAD_INPUT` through
    the base invariant rather than an override that could contradict it.
    """

    def __init__(self, code: str, message: str) -> None:
        assert HTTP_STATUS.get(code) in CLIENT_FAULT_STATUSES, code
        super().__init__(code, message)


class BackendError(ApiError):
    """A failure reported by a backend's execution side (worker, server)."""


class TransportError(BackendError):
    """The backend could not be reached at all (connection-level failure)."""

    def __init__(self, message: str) -> None:
        super().__init__("transport", message, status=0)


def api_error(code: str, message: str, status: int | None = None) -> ApiError:
    """The canonical exception for an error code, on any surface.

    Validation-style client faults come back as :class:`ProtocolError`
    (so ``except ValueError`` call sites keep working); everything else
    — overload, timeouts, internal failures — as :class:`BackendError`.
    ``transport`` maps to :class:`TransportError`.
    """
    if code == "transport":
        return TransportError(message)
    resolved = HTTP_STATUS.get(code, 500) if status is None else status
    if code in ERROR_CODES and resolved in CLIENT_FAULT_STATUSES:
        return ProtocolError(code, message)
    return BackendError(code, message, status=resolved)
