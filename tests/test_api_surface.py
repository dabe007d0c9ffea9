"""Public-API snapshot: the typed solver surface must not drift by accident.

``repro.api`` is the stable contract every surface (CLI, batch engine,
service, external callers) builds on.  This test pins

* ``repro.api.__all__`` (the exported names),
* the field names of every request dataclass and of ``Outcome``,
* the error-code vocabulary and the exit-code contract,
* the content address of one request of each kind,
* the lazily re-exported names on the top-level ``repro`` package,
* the ``py.typed`` marker (PEP 561 — the package ships its types).

Changing any of these is an API change: update the snapshot *and* the
migration notes (README / docs/architecture.md) deliberately, never as
a side effect.
"""

from __future__ import annotations

import dataclasses
import pathlib

import repro
import repro.api as api

# --------------------------------------------------------------------- #
# the snapshots (sorted, so diffs read cleanly)
# --------------------------------------------------------------------- #

API_ALL = [
    "ApiError",
    "Backend",
    "BackendError",
    "BatchRequest",
    "CLIENT_FAULT_STATUSES",
    "CanonicalRequest",
    "DEFAULT_PAGING_POLICIES",
    "ENGINE_VERSION",
    "ERROR_CODES",
    "EXIT_BAD_INPUT",
    "EXIT_OK",
    "EXIT_TRANSPORT",
    "ExactRequest",
    "HTTP_STATUS",
    "LocalBackend",
    "MAX_NODES",
    "MEMORY_POLICIES",
    "Outcome",
    "PROTOCOL_VERSION",
    "PagingRequest",
    "PoolBackend",
    "ProtocolError",
    "RemoteBackend",
    "Request",
    "SolveRequest",
    "TransportError",
    "api_error",
    "build_tree",
    "error_envelope",
    "execute_batch",
    "execute_request",
    "exit_code_for_status",
    "ok_envelope",
    "parse_request",
    "run_exact",
    "run_paging",
    "run_solve",
    "unit_seed",
]

REQUEST_FIELDS = {
    api.SolveRequest: [
        "parents", "weights", "memory", "algorithm", "timeout",
        "trace_schedule", "trace",
    ],
    api.PagingRequest: [
        "parents", "weights", "memory", "algorithm", "page_size",
        "policies", "seed", "timeout", "trace",
    ],
    api.ExactRequest: [
        "parents", "weights", "memory", "max_states", "node_limit",
        "timeout", "trace",
    ],
    api.BatchRequest: [
        "trees", "algorithms", "bound", "memory", "forest",
    ],
}

OUTCOME_FIELDS = [
    "ok", "key", "result", "error_code", "error_message", "error_status",
    "cached", "deduped", "backend", "elapsed_seconds", "timings",
]

ERROR_CODES = [
    "bad_field", "bad_frame", "bad_json", "bad_request", "internal",
    "invalid_tree", "method_not_allowed", "not_found", "payload_too_large",
    "queue_full", "timeout", "unknown_algorithm", "unknown_kind",
    "unknown_policy", "unsolvable", "unsupported_media_type",
    "unsupported_wire_version", "version_skew",
]


class TestApiSurface:
    def test_all_is_pinned(self):
        assert sorted(api.__all__) == API_ALL
        # every exported name must actually resolve
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_request_fields_are_pinned(self):
        for cls, fields in REQUEST_FIELDS.items():
            assert [f.name for f in dataclasses.fields(cls)] == fields, cls

    def test_outcome_fields_are_pinned(self):
        assert [f.name for f in dataclasses.fields(api.Outcome)] == OUTCOME_FIELDS

    def test_error_vocabulary_is_pinned(self):
        assert sorted(api.ERROR_CODES) == ERROR_CODES
        assert api.ERROR_CODES == frozenset(api.HTTP_STATUS)
        assert (api.EXIT_OK, api.EXIT_TRANSPORT, api.EXIT_BAD_INPUT) == (0, 1, 2)

    def test_request_kinds_are_pinned(self):
        assert api.SolveRequest.kind == "solve"
        assert api.PagingRequest.kind == "paging"
        assert api.ExactRequest.kind == "exact"
        assert api.BatchRequest.kind == "batch"


class TestTopLevelReexports:
    def test_api_names_reachable_from_repro(self):
        for name in repro._API_EXPORTS:
            assert getattr(repro, name) is getattr(api, name)
        assert set(repro._API_EXPORTS) <= set(repro.__all__)

    def test_service_is_importable_as_promised(self):
        # the package docstring promises repro.service; it must resolve
        assert repro.service.ServiceClient is not None

    def test_unknown_attribute_still_raises(self):
        try:
            repro.definitely_not_a_name
        except AttributeError as exc:
            assert "definitely_not_a_name" in str(exc)
        else:  # pragma: no cover - defends the lazy __getattr__ hook
            raise AssertionError("expected AttributeError")


#: one request of each kind and the content address 1.2.0 gave it: a
#: cached result is found again only while these stay put.
_TREE = ((-1, 0, 0, 1, 1), (3, 4, 2, 5, 1))
PINNED_KEYS = [
    (
        api.SolveRequest(
            parents=_TREE[0], weights=_TREE[1], memory=9, algorithm="RecExpand"
        ),
        "f013ea4f30f535d84e77faf485516af735060518c105479ac467022822024cbd",
    ),
    (
        api.PagingRequest(
            parents=_TREE[0], weights=_TREE[1], memory=9, algorithm="OptMinMem",
            page_size=2, policies=("belady", "lru"), seed=3,
        ),
        "460edf348fbe32889e381cdc7348871309f3552cc21e58240f6a15badea5840b",
    ),
    (
        api.ExactRequest(
            parents=_TREE[0], weights=_TREE[1], memory=9, max_states=1000,
            node_limit=12,
        ),
        "ca1774fd15ea6b36056e6287254fe0b0c3a2e451e40c8391862b6e1a4a5b266d",
    ),
    (
        api.BatchRequest(
            trees=(_TREE, ((-1, 0), (2, 7))),
            algorithms=("OptMinMem", "PostOrderMinIO"),
            bound="Mmid",
        ),
        "4756562cecb212f72656de08fb342b697d2dded737b790d3a3f5a74d0aede1f5",
    ),
]


class TestRequestKeysArePinned:
    def test_keys_match_the_1_2_cache(self):
        for request, key in PINNED_KEYS:
            assert request.key() == key, type(request).__name__

    def test_a_1_2_payload_keeps_its_key(self):
        # a 1.x client still sends "engine"; it is ignored, key included
        request, key = PINNED_KEYS[0]
        payload = dict(request.to_payload(), engine="object")
        assert api.parse_request(payload).key() == key


class TestTypingMarker:
    def test_py_typed_ships_with_the_package(self):
        marker = pathlib.Path(repro.__file__).with_name("py.typed")
        assert marker.is_file()

    def test_py_typed_is_declared_package_data(self):
        pyproject = pathlib.Path(repro.__file__).parents[2] / "pyproject.toml"
        assert 'py.typed' in pyproject.read_text(encoding="utf-8")
