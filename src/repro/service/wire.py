"""The binary wire protocol: length-framed buffers, zero JSON on the tree path.

``bench_service.py``'s large-batch burst showed the service wire — not
compute — as the bottleneck: every tree round-tripped as a JSON element
list, parsed and re-validated element by element on the server's event
loop.  This module is the binary alternative, negotiated per request via
``Content-Type`` / ``Accept`` (see :data:`WIRE_CONTENT_TYPE`); JSON
clients keep working unchanged against the same endpoint.

Frame layout (everything little-endian)::

    offset  size  field
    0       4     magic  b"RIOW"
    4       1     wire version        (u8,  = WIRE_VERSION)
    5       1     frame kind          (u8,  1 = request, 2 = response)
    6       2     protocol version    (u16, = outcome.PROTOCOL_VERSION)
    8       4     engine version      (u32, = requests.ENGINE_VERSION)
    12      4     header length H     (u32)
    16      8     payload length P    (u64)
    24      H     header  — one value in the binary codec below
    24+H    P     payload — packed tree columns (requests; empty for
                  responses): [n_trees, total] + offsets + parents +
                  weights, int64 LE — exactly the canonical
                  :meth:`repro.core.forest.ArrayForest.pack` layout

The **header codec** is a small deterministic binary encoding of the
JSON value universe (it exists so request *fields* and response
*envelopes* need no JSON either, and so golden-bytes tests can pin the
format).  One tag byte per value:

====  =========================================================
tag   encoding
====  =========================================================
``N`` none
``T`` / ``F``  booleans
``i`` int64: 8 bytes signed LE
``I`` big int: u32 length + signed-LE magnitude bytes
``f`` float64: 8 bytes LE (exact bit round-trip)
``s`` str: u32 length + UTF-8 bytes
``a`` int column: u32 count + count×8 bytes int64 LE (decodes
      to a plain list of ints — the schedule/io fast path)
``l`` list: u32 count + encoded items (non-int64 content)
``m`` map: u32 count + sorted (u32 key length + UTF-8 key,
      encoded value) pairs; keys must be strings
====  =========================================================

Every decoder is strict and total: truncated, length-lying,
version-skewed or bit-flipped frames raise
:class:`~repro.api.errors.ProtocolError` with one of the frame-level
codes (``bad_frame`` / ``unsupported_wire_version`` / ``version_skew``)
— never a crash, hang or partial decode.  The conformance suite in
``tests/test_wire_conformance.py`` fuzzes exactly that contract and
pins the golden bytes.

Version policy: :data:`WIRE_VERSION` names the *frame layout* and only
changes when these offsets/tags do; the embedded protocol and engine
versions are the ones every JSON response already echoes, and a
mismatch in either is rejected as ``version_skew`` so a client's cache
keys can never silently disagree with the server's.
"""

from __future__ import annotations

import struct
from typing import Any, Mapping

import numpy as np

from ..api.errors import ProtocolError
from ..api.outcome import PROTOCOL_VERSION
from ..api.requests import (
    ENGINE_VERSION,
    Request,
    check_tree_columns,
    parse_request,
)

__all__ = [
    "FRAME_REQUEST",
    "FRAME_RESPONSE",
    "JSON_CONTENT_TYPE",
    "WIRE_CONTENT_TYPE",
    "WIRE_VERSION",
    "WireEncodeError",
    "accepts_wire",
    "decode_request_frame",
    "decode_response_frame",
    "encode_request_frame",
    "encode_response_frame",
    "media_type",
    "request_from_frame",
]

#: bump only when the frame layout below changes incompatibly.
WIRE_VERSION = 1

#: the negotiated content types.  A request body in the binary frame
#: format is posted with the wire content type; a client that wants a
#: binary *response* says so in ``Accept``.  Anything JSON-ish keeps
#: today's behaviour.
WIRE_CONTENT_TYPE = "application/x-repro-frame"
JSON_CONTENT_TYPE = "application/json"

FRAME_REQUEST = 1
FRAME_RESPONSE = 2

_MAGIC = b"RIOW"
_HEAD = struct.Struct("<4sBBHIIQ")  # magic, wire, kind, protocol, engine, H, P
_HEAD_SIZE = _HEAD.size  # 24

#: nesting bound for the header codec (far above any real envelope; a
#: hostile frame cannot recurse the decoder into a stack overflow).
_MAX_DEPTH = 32


class WireEncodeError(ValueError):
    """This value cannot ride a binary frame (caller falls back to JSON)."""


def _bad(message: str) -> ProtocolError:
    return ProtocolError("bad_frame", message)


def media_type(value: str | None) -> str:
    """The bare media type of a ``Content-Type`` header (no parameters)."""
    return (value or "").split(";", 1)[0].strip().lower()


def accepts_wire(accept: str | None) -> bool:
    """Whether an ``Accept`` header asks for binary frame responses."""
    return WIRE_CONTENT_TYPE in (
        part.split(";", 1)[0].strip().lower() for part in (accept or "").split(",")
    )


# --------------------------------------------------------------------- #
# the header codec
# --------------------------------------------------------------------- #


def _encode_value(obj: Any, out: list[bytes], depth: int) -> None:
    if depth > _MAX_DEPTH:
        raise WireEncodeError("value nesting too deep for a frame header")
    if obj is None:
        out.append(b"N")
    elif isinstance(obj, bool):
        out.append(b"T" if obj else b"F")
    elif isinstance(obj, int):
        if -(2**63) <= obj < 2**63:
            out.append(b"i" + obj.to_bytes(8, "little", signed=True))
        else:
            raw = obj.to_bytes(obj.bit_length() // 8 + 1, "little", signed=True)
            out.append(b"I" + len(raw).to_bytes(4, "little") + raw)
    elif isinstance(obj, float):
        out.append(b"f" + struct.pack("<d", obj))
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out.append(b"s" + len(raw).to_bytes(4, "little") + raw)
    elif isinstance(obj, Mapping):
        keys = list(obj)
        if any(not isinstance(k, str) for k in keys):
            raise WireEncodeError("frame maps require string keys")
        keys.sort()
        out.append(b"m" + len(keys).to_bytes(4, "little"))
        for key in keys:
            raw = key.encode("utf-8")
            out.append(len(raw).to_bytes(4, "little") + raw)
            _encode_value(obj[key], out, depth + 1)
    elif isinstance(obj, (list, tuple)):
        if all(type(x) is int for x in obj):
            try:
                column = np.asarray(obj, dtype="<i8")
            except (OverflowError, ValueError):
                column = None  # beyond int64: the generic list handles it
            if column is not None:
                out.append(b"a" + len(obj).to_bytes(4, "little") + column.tobytes())
                return
        out.append(b"l" + len(obj).to_bytes(4, "little"))
        for item in obj:
            _encode_value(item, out, depth + 1)
    else:
        raise WireEncodeError(f"cannot wire-encode a {type(obj).__name__}")


def _encode(obj: Any) -> bytes:
    out: list[bytes] = []
    _encode_value(obj, out, 0)
    return b"".join(out)


_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


def _decode_value(buf, pos: int, end: int, depth: int) -> tuple[Any, int]:
    """One bounds-checked value off ``buf[pos:end]``; returns (value, pos).

    A flat offset walk rather than a cursor object: this runs once per
    header value on both sides of every binary exchange, so call and
    attribute overhead is the dominant cost at burst rates.
    """
    if depth > _MAX_DEPTH:
        raise _bad("frame header nests deeper than the codec allows")
    if pos >= end:
        raise _bad("truncated frame: value tag needs 1 bytes, 0 remain")
    tag = buf[pos]
    pos += 1
    if tag == 0x6D:  # m
        if end - pos < 4:
            raise _bad(f"truncated frame: map count needs 4 bytes, {end - pos} remain")
        count = _U32.unpack_from(buf, pos)[0]
        pos += 4
        if count > end - pos:
            raise _bad(f"map of {count} entries cannot fit {end - pos} bytes")
        result: dict[str, Any] = {}
        for _ in range(count):
            if end - pos < 4:
                raise _bad(f"truncated frame: map key length needs 4 bytes, "
                           f"{end - pos} remain")
            length = _U32.unpack_from(buf, pos)[0]
            pos += 4
            if length > end - pos:
                raise _bad(f"truncated frame: map key needs {length} bytes, "
                           f"{end - pos} remain")
            try:
                key = str(buf[pos : pos + length], "utf-8")
            except UnicodeDecodeError as exc:
                raise _bad(f"map key is not valid UTF-8: {exc}") from None
            pos += length
            result[key], pos = _decode_value(buf, pos, end, depth + 1)
        return result, pos
    if tag == 0x73:  # s
        if end - pos < 4:
            raise _bad(f"truncated frame: string length needs 4 bytes, "
                       f"{end - pos} remain")
        length = _U32.unpack_from(buf, pos)[0]
        pos += 4
        if length > end - pos:
            raise _bad(f"truncated frame: string needs {length} bytes, "
                       f"{end - pos} remain")
        try:
            return str(buf[pos : pos + length], "utf-8"), pos + length
        except UnicodeDecodeError as exc:
            raise _bad(f"string is not valid UTF-8: {exc}") from None
    if tag == 0x69:  # i
        if end - pos < 8:
            raise _bad(f"truncated frame: int64 needs 8 bytes, {end - pos} remain")
        return _I64.unpack_from(buf, pos)[0], pos + 8
    if tag == 0x61:  # a
        if end - pos < 4:
            raise _bad(f"truncated frame: int-column count needs 4 bytes, "
                       f"{end - pos} remain")
        count = _U32.unpack_from(buf, pos)[0]
        pos += 4
        if count * 8 > end - pos:
            raise _bad(f"truncated frame: int column needs {count * 8} bytes, "
                       f"{end - pos} remain")
        column = np.frombuffer(buf, dtype="<i8", count=count, offset=pos).tolist()
        return column, pos + count * 8
    if tag == 0x4E:  # N
        return None, pos
    if tag == 0x54:  # T
        return True, pos
    if tag == 0x46:  # F
        return False, pos
    if tag == 0x66:  # f
        if end - pos < 8:
            raise _bad(f"truncated frame: float64 needs 8 bytes, {end - pos} remain")
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if tag == 0x49:  # I
        if end - pos < 4:
            raise _bad(f"truncated frame: big-int length needs 4 bytes, "
                       f"{end - pos} remain")
        length = _U32.unpack_from(buf, pos)[0]
        pos += 4
        if length > end - pos:
            raise _bad(f"truncated frame: big int needs {length} bytes, "
                       f"{end - pos} remain")
        return (
            int.from_bytes(buf[pos : pos + length], "little", signed=True),
            pos + length,
        )
    if tag == 0x6C:  # l
        if end - pos < 4:
            raise _bad(f"truncated frame: list count needs 4 bytes, "
                       f"{end - pos} remain")
        count = _U32.unpack_from(buf, pos)[0]
        pos += 4
        if count > end - pos:  # each item costs at least its tag byte
            raise _bad(f"list of {count} items cannot fit {end - pos} bytes")
        items = []
        for _ in range(count):
            item, pos = _decode_value(buf, pos, end, depth + 1)
            items.append(item)
        return items, pos
    raise _bad(f"unknown value tag 0x{tag:02x}")


def _decode(section: memoryview, what: str) -> Any:
    value, pos = _decode_value(section, 0, len(section), 0)
    if pos != len(section):
        raise _bad(f"{what} carries {len(section) - pos} bytes of trailing junk")
    return value


# --------------------------------------------------------------------- #
# frames
# --------------------------------------------------------------------- #


def _frame(kind: int, header: bytes, payload: bytes = b"") -> bytes:
    head = _HEAD.pack(
        _MAGIC, WIRE_VERSION, kind, PROTOCOL_VERSION, ENGINE_VERSION,
        len(header), len(payload),
    )
    return head + header + payload


def _split_frame(data, expect_kind: int) -> tuple[memoryview, memoryview]:
    view = memoryview(bytes(data) if not isinstance(data, (bytes, bytearray, memoryview)) else data)
    if len(view) < _HEAD_SIZE:
        raise _bad(
            f"frame of {len(view)} bytes is shorter than the {_HEAD_SIZE}-byte head"
        )
    magic, version, kind, protocol, engine, hlen, plen = _HEAD.unpack_from(view, 0)
    if magic != _MAGIC:
        raise _bad(f"bad magic {bytes(magic)!r}; expected {_MAGIC!r}")
    if version != WIRE_VERSION:
        raise ProtocolError(
            "unsupported_wire_version",
            f"frame speaks wire version {version}; this side speaks {WIRE_VERSION}",
        )
    if kind != expect_kind:
        raise _bad(f"expected frame kind {expect_kind}, got {kind}")
    if protocol != PROTOCOL_VERSION or engine != ENGINE_VERSION:
        raise ProtocolError(
            "version_skew",
            f"frame was built for protocol {protocol} / engine {engine}; "
            f"this side runs protocol {PROTOCOL_VERSION} / engine {ENGINE_VERSION}",
        )
    if _HEAD_SIZE + hlen + plen != len(view):
        raise _bad(
            f"frame lengths lie: head declares {hlen}+{plen} body bytes, "
            f"{len(view) - _HEAD_SIZE} are present"
        )
    return view[_HEAD_SIZE : _HEAD_SIZE + hlen], view[_HEAD_SIZE + hlen :]


def _tree_columns(payload: Mapping[str, Any]) -> tuple[np.ndarray, np.ndarray]:
    """The request's tree as int64 columns, or :class:`WireEncodeError`."""
    tree = payload.get("tree")
    if not isinstance(tree, Mapping):
        raise WireEncodeError("request has no 'tree' object to frame")
    columns = []
    for name in ("parents", "weights"):
        col = tree.get(name)
        if col is None or isinstance(col, (str, bytes, Mapping)):
            raise WireEncodeError(f"'tree.{name}' is not an integer column")
        try:
            arr = np.asarray(col)
        except (TypeError, ValueError, OverflowError) as exc:
            raise WireEncodeError(f"'tree.{name}' is not an integer column: {exc}")
        if arr.ndim != 1 or arr.dtype == np.bool_ or not np.issubdtype(
            arr.dtype, np.integer
        ):
            # beyond-int64 weights, floats, bools, ragged input: the JSON
            # path (and its exact validation vocabulary) handles those
            raise WireEncodeError(f"'tree.{name}' is not an int64 column")
        columns.append(np.asarray(arr, dtype="<i8"))
    parents, weights = columns
    if len(parents) != len(weights):
        raise WireEncodeError(
            f"tree columns disagree on size: {len(parents)} != {len(weights)}"
        )
    if len(parents) == 0:
        raise WireEncodeError("tree has no nodes")
    return parents, weights


def encode_request_frame(payload: Mapping[str, Any]) -> bytes:
    """Frame one wire request (the dict shape :func:`parse_request` takes).

    The scalar fields ride the header codec; the tree rides the payload
    section as packed canonical columns.  Raises
    :class:`WireEncodeError` when the request cannot be framed (no tree,
    beyond-int64 weights, non-codec field values) — callers fall back to
    JSON, which accepts everything the schema does.
    """
    parents, weights = _tree_columns(payload)
    fields = {k: v for k, v in payload.items() if k != "tree"}
    n = len(parents)
    head = np.array([1, n, 0, n], dtype="<i8")  # n_trees, total, offsets
    body = head.tobytes() + parents.tobytes() + weights.tobytes()
    return _frame(FRAME_REQUEST, _encode(fields), body)


def decode_request_frame(data) -> tuple[dict[str, Any], np.ndarray, np.ndarray]:
    """Split a request frame into scalar fields and raw tree columns.

    Returns ``(fields, parents, weights)`` — the fields dict has no
    ``tree`` entry; the columns are int64 numpy views, **not yet
    validated as a tree** (see :func:`request_from_frame` for the
    server-side path that is).  Raises
    :class:`~repro.api.errors.ProtocolError` on any malformation.
    """
    header, payload = _split_frame(data, FRAME_REQUEST)
    fields = _decode(header, "request header")
    if not isinstance(fields, dict):
        raise _bad("request header must decode to a field map")
    if len(payload) % 8:
        raise _bad(f"tree payload of {len(payload)} bytes is not int64-aligned")
    words = np.frombuffer(payload, dtype="<i8")
    if len(words) < 2:
        raise _bad("tree payload too short for its [n_trees, total] head")
    n_trees, total = int(words[0]), int(words[1])
    if n_trees != 1:
        raise _bad(f"request frames carry exactly one tree, got n_trees={n_trees}")
    if total < 0 or len(words) != 2 + (n_trees + 1) + 2 * total:
        raise _bad(
            f"tree payload of {len(words)} words does not match its head "
            f"(n_trees={n_trees}, total={total})"
        )
    offsets = words[2 : 2 + n_trees + 1]
    if int(offsets[0]) != 0 or int(offsets[-1]) != total:
        raise _bad(
            f"tree offsets {offsets.tolist()} do not span [0, {total}]"
        )
    parents = words[4 : 4 + total]
    weights = words[4 + total :]
    return fields, parents, weights


def request_from_frame(data) -> Request:
    """Decode **and validate** a request frame into a typed request.

    This is the server's binary fast path: the tree's int64 views are
    validated once, vectorised, by
    :func:`~repro.api.requests.check_tree_columns` — the same check, and
    the same ``invalid_tree`` messages, as the JSON path — and then
    handed to :func:`~repro.api.requests.parse_request` as a *trusted*
    column pair: no JSON, no per-element type checks, no second
    validation.
    """
    fields, parents, weights = decode_request_frame(data)
    return parse_request(fields, trusted_tree=check_tree_columns(parents, weights))


def encode_response_frame(envelope: Mapping[str, Any]) -> bytes:
    """Frame one response envelope (success or error, provenance included)."""
    return _frame(FRAME_RESPONSE, _encode(envelope))


def decode_response_frame(data) -> dict[str, Any]:
    """Decode a response frame back into the envelope dict.

    The result is value-identical to what the JSON path's
    ``json.loads`` would have produced for the same envelope — ints stay
    ints, floats round-trip bit-exact — which is what makes canonical
    outcome comparison across encodings byte-identical.
    """
    header, payload = _split_frame(data, FRAME_RESPONSE)
    if len(payload):
        raise _bad(f"response frames carry no payload, got {len(payload)} bytes")
    envelope = _decode(header, "response header")
    if not isinstance(envelope, dict) or "ok" not in envelope:
        raise _bad("response header must decode to an envelope with 'ok'")
    return envelope
