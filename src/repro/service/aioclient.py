"""Asynchronous pipelined client for the scheduling service (stdlib asyncio).

Where :class:`~repro.service.client.ServiceClient` opens one connection
per call, this client keeps a small pool of HTTP/1.1 keep-alive
connections and **pipelines** requests over them: many submissions are
in flight per connection at once, responses are matched back to their
futures in FIFO order (HTTP/1.1 pipelining answers strictly in request
order per connection), and the caller awaits each submission
independently — completions surface in whatever order the server
finishes them across the pool.

The combination with the binary wire path (:mod:`repro.service.wire`)
is what the ``bench_service.py`` burst gate measures: no per-request
TCP setup, no request/response round-trip stalls, no JSON on the tree
path.

Failure semantics are built on the service's idempotence: requests are
content-addressed and side-effect-free, so when a connection dies (or
the server hangs up at its keep-alive horizon) every submission still
awaiting a response is transparently resubmitted on a fresh connection,
a bounded number of times.  Cancelling a caller's ``await`` never
desynchronises the stream: the slot stays in the connection's FIFO and
the eventual response is read and discarded.

::

    async with AsyncServiceClient(port=8177) as client:
        outcomes = await asyncio.gather(
            *(client.submit(r) for r in requests)
        )
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from collections import deque
from typing import Any, Mapping

from .client import (
    ServiceError,
    _WIRE_UNSUPPORTED_CODES,
    _parse_envelope,
    _with_ambient_trace,
)
from .wire import (
    JSON_CONTENT_TYPE,
    WIRE_CONTENT_TYPE,
    WireEncodeError,
    encode_request_frame,
)

__all__ = ["AsyncServiceClient"]


class _Pending:
    """One in-flight submission: its future and what it takes to retry it."""

    __slots__ = ("future", "raw", "retries")

    def __init__(self, future: asyncio.Future, raw: bytes, retries: int):
        self.future = future
        self.raw = raw
        self.retries = retries


class _Connection:
    __slots__ = ("reader", "writer", "pending", "task", "alive", "outbox")

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.pending: deque[_Pending] = deque()
        self.task: asyncio.Task | None = None
        self.alive = True
        # write cork: requests queued in the same loop iteration leave
        # in one syscall (see AsyncServiceClient._send)
        self.outbox: list[bytes] = []


class AsyncServiceClient:
    """Pipelined asyncio client for one ``repro-ioschedule serve`` instance.

    Parameters
    ----------
    wire:
        ``"auto"`` (binary frames, transparent JSON fallback — default),
        ``"binary"`` (frames only) or ``"json"``.
    max_connections:
        pool size; submissions spread over the least-loaded live
        connection and new ones are opened lazily while every live one
        is busy.
    retries:
        how many times an unanswered submission is resubmitted after a
        connection loss (safe: requests are idempotent).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8177,
        *,
        timeout: float = 120.0,
        wire: str = "auto",
        max_connections: int = 4,
        retries: int = 2,
    ):
        if wire not in ("auto", "binary", "json"):
            raise ValueError(f"wire must be auto, binary or json, not {wire!r}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.wire = wire
        self.max_connections = max(1, max_connections)
        self.retries = max(0, retries)
        self._wire_ok = wire != "json"
        self._conns: set[_Connection] = set()
        self._lock = asyncio.Lock()
        self._closed = False

    # ---------------------------------------------------------------- #
    # lifecycle
    # ---------------------------------------------------------------- #

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def close(self) -> None:
        """Tear the pool down; outstanding submissions fail as transport."""
        self._closed = True
        conns, self._conns = list(self._conns), set()
        for conn in conns:
            conn.alive = False
            if conn.task is not None:
                conn.task.cancel()
        for conn in conns:
            if conn.task is not None:
                with contextlib.suppress(asyncio.CancelledError, Exception):
                    await conn.task
            with contextlib.suppress(Exception):
                conn.writer.close()
                await conn.writer.wait_closed()
            while conn.pending:
                entry = conn.pending.popleft()
                if not entry.future.done():
                    entry.future.set_exception(
                        ServiceError("transport", "client closed")
                    )

    # ---------------------------------------------------------------- #
    # the connection pool
    # ---------------------------------------------------------------- #

    async def _acquire(self) -> _Connection:
        if self._closed:
            raise ServiceError("transport", "client is closed")
        async with self._lock:
            live = [c for c in self._conns if c.alive]
            best = min(live, key=lambda c: len(c.pending), default=None)
            if best is not None and (
                not best.pending or len(live) >= self.max_connections
            ):
                return best
            try:
                reader, writer = await asyncio.open_connection(self.host, self.port)
            except OSError as exc:
                raise ServiceError(
                    "transport", f"{type(exc).__name__}: {exc}"
                ) from exc
            conn = _Connection(reader, writer)
            conn.task = asyncio.create_task(self._read_loop(conn))
            self._conns.add(conn)
            return conn

    async def _read_loop(self, conn: _Connection) -> None:
        """Match responses to pending futures, FIFO; recover on loss."""
        orderly_close = False
        try:
            while True:
                status, headers, raw = await self._read_response(conn.reader)
                if not conn.pending:
                    break  # a response we never asked for: poisoned stream
                entry = conn.pending.popleft()
                if not entry.future.done():  # cancelled waiters just drain
                    try:
                        entry.future.set_result(
                            _parse_envelope(status, headers.get("content-type"), raw)
                        )
                    except ServiceError as exc:
                        entry.future.set_exception(exc)
                if headers.get("connection", "").strip().lower() == "close":
                    orderly_close = True
                    break
        except (
            ConnectionError,
            OSError,
            asyncio.IncompleteReadError,
            ValueError,
        ):
            pass  # connection died (or spoke garbage); recovery below
        except asyncio.CancelledError:
            raise
        finally:
            conn.alive = False
            self._conns.discard(conn)
            with contextlib.suppress(Exception):
                conn.writer.close()
            # an orderly keep-alive close answered everything it chose
            # to; the rest were never attempted — resubmitting them is
            # not a *retry*, so it does not spend the retry budget
            # (progress is guaranteed: a close header rides a response)
            self._recover(conn, charge=not orderly_close)

    def _recover_if_dead(self, conn: _Connection) -> None:
        """Close the race where a connection died before an entry landed.

        The reader task's cleanup only recovers entries present when it
        ran; an entry appended to an already-dead connection (the pool
        handed it out just as the server hung up) would otherwise wait
        out the full client timeout.
        """
        if not conn.alive and (conn.task is None or conn.task.done()):
            self._recover(conn)

    def _recover(self, conn: _Connection, *, charge: bool = True) -> None:
        """Resubmit (or fail) everything the dead connection still owed."""
        while conn.pending:
            entry = conn.pending.popleft()
            if entry.future.done():
                continue
            if self._closed or (charge and entry.retries <= 0):
                entry.future.set_exception(
                    ServiceError(
                        "transport", "connection lost before a response arrived"
                    )
                )
                continue
            if charge:
                entry.retries -= 1
            task = asyncio.ensure_future(self._resubmit(entry))
            # a failure inside the resubmission lands on entry.future;
            # keep the task referenced until then
            task.add_done_callback(lambda _t: None)

    def _send(self, conn: _Connection, raw: bytes) -> None:
        """Queue bytes for the connection; flush once per loop iteration.

        Pipelined submissions issued in the same iteration (a gather, a
        burst of workers) leave in a single ``write`` instead of one
        syscall each.
        """
        conn.outbox.append(raw)
        if len(conn.outbox) == 1:
            asyncio.get_running_loop().call_soon(self._flush, conn)

    def _flush(self, conn: _Connection) -> None:
        data = b"".join(conn.outbox)
        conn.outbox.clear()
        if data and conn.alive:
            try:
                conn.writer.write(data)
            except (ConnectionError, OSError, RuntimeError):
                conn.alive = False
        self._recover_if_dead(conn)

    async def _resubmit(self, entry: _Pending) -> None:
        try:
            conn = await self._acquire()
            conn.pending.append(entry)
            self._send(conn, entry.raw)
        except ServiceError as exc:
            if not entry.future.done():
                entry.future.set_exception(exc)
        except asyncio.CancelledError:
            if not entry.future.done():
                entry.future.set_exception(
                    ServiceError("transport", "client closed")
                )
            raise

    # ---------------------------------------------------------------- #
    # HTTP plumbing
    # ---------------------------------------------------------------- #

    def _encode_http(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        *,
        content_type: str = JSON_CONTENT_TYPE,
        accept: str | None = None,
    ) -> bytes:
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if body:
            head += f"Content-Type: {content_type}\r\n"
        if accept is not None:
            head += f"Accept: {accept}\r\n"
        return (head + "\r\n").encode("ascii") + body

    @staticmethod
    async def _read_response(
        reader: asyncio.StreamReader,
    ) -> tuple[int, dict[str, str], bytes]:
        head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
        lines = head.split("\r\n")
        parts = lines[0].split()
        if len(parts) < 2 or not parts[1].isdigit():
            raise ValueError(f"malformed status line: {lines[0]!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = await reader.readexactly(length) if length else b""
        return status, headers, body

    async def _roundtrip(self, raw: bytes) -> dict[str, Any]:
        conn = await self._acquire()
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        conn.pending.append(_Pending(future, raw, self.retries))
        self._send(conn, raw)
        # a plain call_later deadline, not wait_for: no wrapper task per
        # submission, and cancelling the caller still cancels `future`
        # (the reader drains the abandoned slot either way)
        handle = loop.call_later(self.timeout, self._expire, future, self.timeout)
        try:
            return await future
        finally:
            handle.cancel()

    @staticmethod
    def _expire(future: asyncio.Future, timeout: float) -> None:
        if not future.done():
            future.set_exception(
                ServiceError("transport", f"no response within {timeout:.1f}s")
            )

    # ---------------------------------------------------------------- #
    # API
    # ---------------------------------------------------------------- #

    async def submit(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """Submit one raw request dict; returns the full success envelope.

        Concurrency is the caller's: ``asyncio.gather`` many ``submit``
        coroutines and they pipeline over the pool.

        Like the synchronous client, an active
        :func:`repro.obs.trace_context` id rides along on requests that
        do not name their own, so the response envelope carries the
        per-stage timing breakdown.
        """
        request = _with_ambient_trace(request)
        if self._wire_ok:
            frame: bytes | None
            try:
                frame = encode_request_frame(request)
            except WireEncodeError:
                if self.wire == "binary":
                    raise
                frame = None
            if frame is not None:
                try:
                    return await self._roundtrip(self._encode_http(
                        "POST", "/v1/submit", frame,
                        content_type=WIRE_CONTENT_TYPE, accept=WIRE_CONTENT_TYPE,
                    ))
                except ServiceError as exc:
                    if self.wire == "auto" and exc.code in _WIRE_UNSUPPORTED_CODES:
                        self._wire_ok = False  # old server: stay on JSON
                    else:
                        raise
        body = json.dumps(request).encode("utf-8")
        return await self._roundtrip(self._encode_http("POST", "/v1/submit", body))

    async def solve(
        self, tree: Mapping[str, Any], memory: int, *, algorithm: str = "RecExpand"
    ) -> dict[str, Any]:
        """Schedule one tree; returns the ``result`` block."""
        envelope = await self.submit({
            "kind": "solve", "tree": dict(tree),
            "memory": memory, "algorithm": algorithm,
        })
        return envelope["result"]

    async def metrics(self) -> dict[str, Any]:
        return await self._roundtrip(self._encode_http("GET", "/metrics"))

    async def health(self) -> dict[str, Any]:
        return await self._roundtrip(self._encode_http("GET", "/healthz"))
