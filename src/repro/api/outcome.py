"""The uniform result envelope every backend returns.

One request, one :class:`Outcome` — whether the request ran in-process,
on an embedded worker pool, or behind a remote server.  The dataclass
splits cleanly into two halves:

* the **canonical** half (``ok``, ``key``, ``result`` / error code +
  message) — byte-identical for identical requests on every backend
  (:meth:`Outcome.canonical` is the comparison form the equivalence
  harness asserts on);
* the **provenance** half (``cached``, ``deduped``, ``backend``,
  ``elapsed_seconds``) — where the answer came from and how long it
  took, legitimately different between a cold compute and a warm cache
  hit.

The wire format of the service is exactly the canonical half plus the
cache provenance: :func:`ok_envelope` / :func:`error_envelope` build
it, :meth:`Outcome.from_envelope` / :meth:`Outcome.to_envelope` convert
losslessly, so the service's wire codecs stay thin (de)serializers of
this model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..datasets.store import canonical_json
from .errors import ApiError, api_error

__all__ = [
    "Outcome",
    "PROTOCOL_VERSION",
    "error_envelope",
    "ok_envelope",
]

#: bump on incompatible wire-format changes; echoed in every response.
PROTOCOL_VERSION = 1


def error_envelope(code: str, message: str) -> dict[str, Any]:
    """The uniform error response body."""
    return {
        "ok": False,
        "protocol": PROTOCOL_VERSION,
        "error": {"code": code, "message": message},
    }


def ok_envelope(
    result: Mapping[str, Any],
    *,
    key: str,
    cached: bool = False,
    deduped: bool = False,
    timings: Mapping[str, float] | None = None,
) -> dict[str, Any]:
    """The uniform success response body.

    ``cached`` — served from the on-disk result cache; ``deduped`` —
    coalesced onto an identical in-flight request's computation;
    ``timings`` — the per-stage timing breakdown of a traced request
    (provenance: the key is absent entirely when tracing is off, so
    untraced envelopes are byte-identical to the historical shape).
    """
    envelope = {
        "ok": True,
        "protocol": PROTOCOL_VERSION,
        "key": key,
        "cached": cached,
        "deduped": deduped,
        "result": dict(result),
    }
    if timings:
        envelope["timings"] = dict(timings)
    return envelope


@dataclass(frozen=True)
class Outcome:
    """What became of one request, on whichever backend ran it."""

    ok: bool
    key: str
    result: Mapping[str, Any] | None = None
    error_code: str | None = None
    error_message: str | None = None
    #: the HTTP status the serving side attached to the error, when one
    #: did (``None`` for locally produced errors, whose status derives
    #: from the code table).  Kept out of :meth:`canonical` — it is
    #: transport detail, but it preserves the wire classification for
    #: codes this client version does not know.
    error_status: int | None = None
    #: provenance — excluded from :meth:`canonical`
    cached: bool = False
    deduped: bool = False
    backend: str = ""
    elapsed_seconds: float = 0.0
    #: per-stage timing breakdown of a traced request (``decode``,
    #: ``queue``, ``solve``, ``cache``, ``encode`` — seconds per stage);
    #: ``None`` unless the request carried a trace id.
    timings: Mapping[str, float] | None = None

    @classmethod
    def from_envelope(
        cls,
        envelope: Mapping[str, Any],
        *,
        key: str = "",
        backend: str = "",
        elapsed_seconds: float = 0.0,
        error_status: int | None = None,
    ) -> "Outcome":
        """Lift a wire/worker envelope into the typed model.

        ``key`` backfills error envelopes (which carry none on the
        wire); a key present in the envelope always wins.
        ``error_status`` is the HTTP status a transport observed, when
        the envelope came over one.
        """
        if envelope.get("ok"):
            timings = envelope.get("timings")
            return cls(
                ok=True,
                key=str(envelope.get("key", key)),
                result=dict(envelope["result"]),
                cached=bool(envelope.get("cached", False)),
                deduped=bool(envelope.get("deduped", False)),
                backend=backend,
                elapsed_seconds=elapsed_seconds,
                timings=dict(timings) if timings else None,
            )
        error = envelope.get("error", {})
        return cls(
            ok=False,
            key=str(envelope.get("key", key)),
            error_code=str(error.get("code", "internal")),
            error_message=str(error.get("message", "unknown error")),
            error_status=error_status,
            backend=backend,
            elapsed_seconds=elapsed_seconds,
        )

    def to_envelope(self) -> dict[str, Any]:
        """The service's wire form of this outcome (lossless round-trip
        with :meth:`from_envelope` up to provenance the wire carries)."""
        if self.ok:
            assert self.result is not None
            return ok_envelope(
                self.result,
                key=self.key,
                cached=self.cached,
                deduped=self.deduped,
                timings=self.timings,
            )
        return error_envelope(self.error_code or "internal", self.error_message or "")

    def canonical(self) -> bytes:
        """The backend-independent identity of this outcome.

        Canonical JSON bytes of the envelope *minus* provenance
        (``cached``/``deduped``/``backend``/timings): identical requests
        must produce identical bytes on every backend, cold or warm.
        """
        if self.ok:
            body: dict[str, Any] = {
                "ok": True,
                "protocol": PROTOCOL_VERSION,
                "key": self.key,
                "result": dict(self.result or {}),
            }
        else:
            body = {
                "ok": False,
                "protocol": PROTOCOL_VERSION,
                "error": {"code": self.error_code, "message": self.error_message},
            }
        return canonical_json(body).encode("utf-8")

    def raise_for_error(self) -> "Outcome":
        """Raise the taxonomy's exception for an error outcome; else return self."""
        if not self.ok:
            raise self.error
        return self

    @property
    def error(self) -> ApiError | None:
        """The typed error this outcome maps to, or ``None`` on success."""
        if self.ok:
            return None
        return api_error(
            self.error_code or "internal",
            self.error_message or "unknown error",
            status=self.error_status,
        )

    # ------------------------------------------------------------------ #
    # convenience accessors over the kind-specific result payloads
    # ------------------------------------------------------------------ #

    @property
    def io_volume(self) -> int | None:
        """The schedule's I/O volume, when the result carries one."""
        if self.result is None:
            return None
        value = self.result.get("io_volume")
        return None if value is None else int(value)

    @property
    def schedule(self) -> tuple[int, ...] | None:
        """The task schedule, when the result carries one."""
        if self.result is None or "schedule" not in self.result:
            return None
        return tuple(self.result["schedule"])
