"""Persist and reload tree collections, plus the experiment result cache.

The paper-scale datasets take minutes to build (symbolic analysis of
many matrices); this module caches them as JSON-lines — one tree per
line, each a self-contained object with its metadata — so experiment
re-runs and external tools can share exactly the same instances.

Format (one per line)::

    {"name": "grid2d-16/nd", "parents": [...], "weights": [...],
     "meta": {...}}

``load_trees`` streams; a truncated or hand-edited file fails loudly
with the offending line number.

The second half of the module is :class:`ResultCache`, the
content-addressed on-disk store underneath the batch experiment engine
(:mod:`repro.experiments.batch`), the scheduling service, and every
:mod:`repro.api` backend: each completed work unit (a shard of figure
instances, a counterexample, or one solve/paging/exact request) is
keyed by a SHA-256 digest of its *inputs* — tree structure, memory
bound, algorithm list, scale — derived through the one canonical path
in :mod:`repro.api.requests`, so re-running ``repro-ioschedule report``
only recomputes units whose inputs changed and a cache written by any
execution surface serves warm hits to all the others.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import os
import pathlib
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from ..core.tree import TaskTree

__all__ = [
    "StoredTree",
    "save_trees",
    "load_trees",
    "iter_trees",
    "ResultCache",
    "cache_key",
    "cache_key_buffers",
    "canonical_json",
]


@dataclass(frozen=True)
class StoredTree:
    """A tree plus its provenance metadata."""

    name: str
    tree: TaskTree
    meta: Mapping[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "parents": list(self.tree.parents),
            "weights": list(self.tree.weights),
            "meta": dict(self.meta),
        }
        return json.dumps(payload, separators=(",", ":"))

    @staticmethod
    def from_json(line: str) -> "StoredTree":
        obj = json.loads(line)
        return StoredTree(
            name=str(obj["name"]),
            tree=TaskTree(obj["parents"], obj["weights"]),
            meta=obj.get("meta", {}),
        )


def save_trees(
    path: str | pathlib.Path,
    trees: Iterable[StoredTree | TaskTree],
) -> int:
    """Write a collection as JSON-lines; returns the number written.

    Bare :class:`TaskTree` items are wrapped with an index-based name.
    """
    path = pathlib.Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as fh:
        for item in trees:
            if isinstance(item, TaskTree):
                item = StoredTree(name=f"tree-{count}", tree=item)
            fh.write(item.to_json())
            fh.write("\n")
            count += 1
    return count


def iter_trees(path: str | pathlib.Path) -> Iterator[StoredTree]:
    """Stream a JSON-lines collection, validating every line."""
    path = pathlib.Path(path)
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield StoredTree.from_json(line)
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad tree record") from exc


def load_trees(path: str | pathlib.Path) -> list[StoredTree]:
    """The whole collection as a list (see :func:`iter_trees` to stream)."""
    return list(iter_trees(path))


def canonical_json(payload: Mapping[str, Any]) -> str:
    """The canonical JSON form every cache key hashes: sorted keys,
    fixed separators — logically equal payloads serialise identically
    regardless of insertion order.

    Exposed so hot paths can canonicalise **once** and reuse the string
    for both the key and any payload they persist, instead of
    re-serialising million-element columns per use.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cache_key(payload: Mapping[str, Any], *, canonical: str | None = None) -> str:
    """Content-address a work unit: SHA-256 of its canonical JSON.

    Parameters
    ----------
    payload:
        A JSON-serialisable description of everything that determines the
        unit's *output* — tree parents/weights, memory bound, algorithm
        names, scale, engine version.
    canonical:
        The precomputed :func:`canonical_json` of ``payload``, if the
        caller already has it (skips re-serialising large payloads).

    Returns
    -------
    str
        A 64-character lowercase hex digest, usable as a filename.

    For payloads dominated by large integer columns prefer
    :func:`cache_key_buffers`, which hashes the raw int64 buffers and
    skips JSON entirely.
    """
    if canonical is None:
        canonical = canonical_json(payload)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _canonical_int64(values: Any) -> bytes:
    """Canonical little-endian int64 bytes of an integer column.

    Accepts anything :func:`numpy.asarray` can make an integer array of
    — lists, tuples, ``array('q')``, numpy arrays — and produces
    identical bytes for equal *values*, regardless of container type or
    host byte order (so digests are portable across cache directories).

    Columns with values beyond int64 (TaskTree supports
    arbitrary-precision weights) get a canonical decimal encoding
    instead — see :func:`_canonical_bigint` — so such trees are content-
    addressable too; int64-representable values always take the byte
    path whatever container they arrive in, keeping digests stable.
    """
    arr = np.asarray(values)
    if arr.dtype != np.int64:
        if arr.dtype == object:
            return _canonical_bigint(arr)
        if not (np.issubdtype(arr.dtype, np.integer) or arr.size == 0):
            raise TypeError(
                f"buffer column must be integral, got dtype {arr.dtype}"
            )
        if (
            arr.size
            and np.issubdtype(arr.dtype, np.unsignedinteger)
            and int(arr.max()) > np.iinfo(np.int64).max
        ):
            # uint64 values past int64 max would *wrap* under astype,
            # aliasing distinct columns onto one digest — decimal-encode
            # them like any other beyond-int64 column instead
            return _canonical_bigint(arr.astype(object))
        arr = arr.astype(np.int64)
    return np.ascontiguousarray(arr).astype("<i8", copy=False).tobytes()


def _canonical_bigint(arr: Any) -> bytes:
    """Canonical bytes of an integer column that overflows int64.

    A ``bigint:``-prefixed comma-joined decimal rendering: container-
    independent like the byte path, and structurally unambiguous
    against it — int64-path data is always a whole number of 8-byte
    words, so the bigint encoding is padded to a length that is *never*
    a multiple of 8 and the two can share no byte string.  Object
    columns whose values *do* fit int64 are routed back to the byte
    path, so equal values digest equally no matter how they were boxed;
    non-integer elements keep raising ``TypeError``.
    """
    items = arr.tolist()
    if not all(type(v) is int for v in items):
        raise TypeError(
            f"buffer column must be integral, got dtype {arr.dtype}"
        )
    try:
        narrowed = np.array(items, dtype=np.int64)
    except OverflowError:
        data = b"bigint:" + ",".join(map(str, items)).encode("ascii")
        if len(data) % 8 == 0:
            data += b";"
        return data
    return np.ascontiguousarray(narrowed).astype("<i8", copy=False).tobytes()


def cache_key_buffers(
    payload: Mapping[str, Any], buffers: Mapping[str, Any]
) -> str:
    """Content-address a unit whose identity is mostly integer columns.

    ``payload`` carries the small JSON-able parameters (kind, engine
    version, memory bound, algorithm names, ...); ``buffers`` maps
    column names to integer sequences (tree parents/weights, forest
    offsets).  The digest covers the canonical JSON of ``payload`` plus
    every buffer's canonical little-endian int64 bytes, framed by name
    and length so distinct column layouts can never collide.

    Hashing buffers instead of JSON-marshalled lists is what makes
    content-addressing cheap at forest scale: a million-node column is
    one ``memcpy``-sized pass, not a million ``int``→decimal
    conversions.  Equal values give equal digests no matter the
    container (list, tuple, ``array``, numpy) on any host.
    """
    h = hashlib.sha256()
    h.update(canonical_json(payload).encode("utf-8"))
    for name in sorted(buffers):
        data = _canonical_int64(buffers[name])
        h.update(b"\x00")
        h.update(name.encode("utf-8"))
        h.update(b"\x00")
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


#: a segment record's header: magic, key length, payload length, and the
#: CRC32 of key + payload; the key and the payload follow it
_RECORD = struct.Struct("<4sHII")
#: 0xFF never occurs in a UTF-8 key or in ASCII JSON, so past a damaged
#: record a scan finds the next record start by searching for it
_MAGIC = b"\xffRC1"
_SEGMENT_SUFFIX = ".seg"
_SCAN_CHUNK = 1 << 16


def _read_record(fh: Any, pos: int) -> tuple[str, int, int, int] | None:
    """The record at byte ``pos`` of a segment as ``(key, offset,
    length, crc)`` — ``offset``/``length`` span key + payload — or
    ``None`` if it is damaged or not (yet) whole."""
    fh.seek(pos)
    head = fh.read(_RECORD.size)
    if len(head) < _RECORD.size:
        return None
    magic, key_len, payload_len, crc = _RECORD.unpack(head)
    if magic != _MAGIC:
        return None
    body = fh.read(key_len + payload_len)
    if len(body) < key_len + payload_len or zlib.crc32(body) != crc:
        return None
    try:
        key = body[:key_len].decode("utf-8")
    except UnicodeDecodeError:
        return None
    return key, pos + _RECORD.size, key_len + payload_len, crc


def _next_record(fh: Any, pos: int) -> int | None:
    """The start of the first whole record after byte ``pos``, if any."""
    pos += 1
    while True:
        fh.seek(pos)
        chunk = fh.read(_SCAN_CHUNK)
        at = chunk.find(_MAGIC)
        if at < 0:
            if len(chunk) < _SCAN_CHUNK:
                return None
            pos += len(chunk) - len(_MAGIC) + 1
        elif _read_record(fh, pos + at) is not None:
            return pos + at
        else:
            pos += at + 1


class ResultCache:
    """Content-addressed on-disk cache of completed experiment work units.

    Entries live in append-only segment files ``<root>/<pid>-<random>.seg``,
    one per writer (a cache instance in one process; a forked child
    opens its own).  Each record is a header — magic, key length,
    payload length, CRC32 of key + payload — then the key (the
    :func:`cache_key` of the unit's inputs), then the value's canonical
    JSON (sorted keys).  Values are plain dictionaries; the cache never
    interprets them.

    Readers keep an in-memory index from key to record.  A key the
    index lacks triggers a rescan of only the bytes segments have
    gained since the last scan, so entries other processes append stay
    visible.  A record whose CRC fails, or a torn tail, reads as a miss
    and is recomputed, never trusted — the framing gives the atomicity
    a write + rename would.  :meth:`put_many` writes a whole batch with
    one ``os.write``, which is what keeps storage cost per batch rather
    than per entry.

    The instance counts hits and misses (a ``get`` that finds nothing);
    :meth:`stats` is what the batch engine surfaces into the report JSON.

    Parameters
    ----------
    root:
        Directory holding the cache; created lazily on first ``put``.
    """

    def __init__(self, root: str | pathlib.Path):
        self.root = pathlib.Path(root)
        self.hits = 0
        self.misses = 0
        self._hit_counter = None  # registry mirrors, see bind_registry()
        self._miss_counter = None
        # guards the index, the scan offsets and the writer's segment
        self._lock = threading.Lock()
        # key -> (segment name, offset, length, crc) of a record of it;
        # offset and length span the key and the payload
        self._index: dict[str, tuple[str, int, int, int]] = {}
        # segment name -> (where its next scan starts, size last seen)
        self._scanned: dict[str, tuple[int, int]] = {}
        self._segment: Any = None  # this writer's open segment file
        self._segment_pid = 0

    def bind_registry(self, registry) -> None:
        """Mirror hits/misses into a :class:`repro.obs.MetricsRegistry`.

        Hits count as ``cache_hits_total{tier="disk"}`` (the in-memory
        memo tier in front of this cache reports its own hits); the
        plain :attr:`hits`/:attr:`misses` attributes keep working for
        the batch engine's report provenance.
        """
        self._hit_counter = registry.counter(
            "cache_hits_total", "result-cache hits by tier"
        ).labels(tier="disk")
        self._miss_counter = registry.counter(
            "cache_misses_total", "result-cache misses"
        )

    def get(self, key: str) -> dict[str, Any] | None:
        """Return the cached value for ``key``, or ``None`` (a miss)."""
        value = self.peek(key)
        if value is None:
            self.misses += 1
            if self._miss_counter is not None:
                self._miss_counter.inc()
        else:
            self.hits += 1
            if self._hit_counter is not None:
                self._hit_counter.inc()
        return value

    def peek(self, key: str) -> dict[str, Any] | None:
        """:meth:`get` without moving the hit/miss counters."""
        location = self._index.get(key)
        if location is None:
            with self._lock:
                self._refresh()
                location = self._index.get(key)
            if location is None:
                return None
        value = self._read(key, location)
        if value is None:
            with self._lock:  # damaged since it was indexed: forget it
                if self._index.get(key) == location:
                    del self._index[key]
        return value

    def put(self, key: str, value: Mapping[str, Any]) -> None:
        """Store ``value`` under ``key``; see :meth:`put_many`."""
        self.put_many([(key, value)])

    def put_many(self, items: Iterable[tuple[str, Mapping[str, Any]]]) -> None:
        """Append one record per ``(key, value)`` with a single write.

        A short write raises ``OSError`` like any other write error;
        the segment is then abandoned (its torn tail reads as a miss)
        and the next write opens a fresh one.
        """
        parts: list[bytes] = []
        records: list[tuple[str, int, int]] = []  # (key, length, crc)
        for key, value in items:
            key_bytes = key.encode("utf-8")
            payload = json.dumps(dict(value), sort_keys=True).encode("utf-8")
            crc = zlib.crc32(payload, zlib.crc32(key_bytes))
            parts += (
                _RECORD.pack(_MAGIC, len(key_bytes), len(payload), crc),
                key_bytes,
                payload,
            )
            records.append((key, len(key_bytes) + len(payload), crc))
        if not records:
            return
        data = b"".join(parts)
        with self._lock:
            segment = self._writer()
            try:
                written = segment.write(data)
                if written != len(data):
                    raise OSError(
                        errno.EIO,
                        f"short write: {written} of {len(data)} bytes",
                        segment.name,
                    )
                # O_APPEND: the write landed just before the new position
                pos = segment.tell() - written
            except OSError:
                self._segment = None
                segment.close()
                raise
            name = os.path.basename(segment.name)
            for key, length, crc in records:
                self._index[key] = (name, pos + _RECORD.size, length, crc)
                pos += _RECORD.size + length
            self._scanned[name] = (pos, pos)

    def _writer(self) -> Any:
        """This writer's segment, opened on first use and after a fork."""
        pid = os.getpid()
        if self._segment is None or self._segment_pid != pid:
            self.root.mkdir(parents=True, exist_ok=True)
            path = self.root / f"{pid}-{os.urandom(4).hex()}{_SEGMENT_SUFFIX}"
            self._segment = open(
                path, "ab", buffering=0,
                opener=lambda p, flags: os.open(p, flags | os.O_EXCL, 0o644),
            )
            self._segment_pid = pid
        return self._segment

    def _refresh(self) -> None:
        """Index what every segment gained since the last scan."""
        try:
            entries = list(os.scandir(self.root))
        except OSError:  # no cache yet, or not a directory: all misses
            return
        for entry in entries:
            name = entry.name
            if not name.endswith(_SEGMENT_SUFFIX):
                continue
            resume, seen = self._scanned.get(name, (0, 0))
            with contextlib.suppress(OSError):  # deleted under us
                size = entry.stat().st_size
                if size > seen:
                    self._scanned[name] = (self._scan(name, resume), size)

    def _scan(self, name: str, pos: int) -> int:
        """Index segment ``name`` from byte ``pos``; return where the
        next scan starts (a torn tail may still be being written)."""
        with open(self.root / name, "rb", buffering=_SCAN_CHUNK) as fh:
            while True:
                record = _read_record(fh, pos)
                if record is None:
                    after = _next_record(fh, pos)
                    if after is None:
                        return pos
                    pos = after
                    continue
                key, offset, length, crc = record
                self._index[key] = (name, offset, length, crc)
                pos = offset + length

    def _read(
        self, key: str, location: tuple[str, int, int, int]
    ) -> dict[str, Any] | None:
        name, offset, length, crc = location
        try:
            fd = os.open(self.root / name, os.O_RDONLY)
            try:
                body = os.pread(fd, length, offset)
            finally:
                os.close(fd)
        except OSError:
            return None
        key_bytes = key.encode("utf-8")
        if zlib.crc32(body) != crc or not body.startswith(key_bytes):
            return None
        try:
            return json.loads(body[len(key_bytes):])
        except ValueError:
            return None

    def stats(self) -> dict[str, int]:
        """Hit/miss counters since construction, for report provenance."""
        return {"hits": self.hits, "misses": self.misses}

    def __len__(self) -> int:
        """Number of distinct keys currently on disk."""
        with self._lock:
            self._refresh()
            return len(self._index)
