"""``repro.api`` — the one typed solver API behind every surface.

The paper's contribution is a set of strategies all evaluated through
one fair lens (schedule → FiF-optimal I/O, Theorem 1).  This package is
that lens as a stable public API: **one request model, one result
envelope, one error taxonomy, pluggable execution backends** — the CLI,
the batch experiment engine and the HTTP service are all thin layers
over it.

Quick start (the paper's Figure 2b instance: ``M = 6`` forces 3 units
of I/O)::

    from repro.api import LocalBackend, parse_request

    request = parse_request({
        "kind": "solve",
        "tree": {"parents": [1, 2, 3, 8, 5, 6, 7, 8, -1],
                 "weights": [6, 2, 5, 3, 6, 2, 5, 3, 1]},
        "memory": 6,
        "algorithm": "RecExpand",
    })
    with LocalBackend() as backend:
        outcome = backend.submit(request).raise_for_error()
    print(outcome.io_volume, outcome.schedule)   # 3 (0, 1, ..., 8)

The same ``request`` — same content-addressed :meth:`key`, same
byte-identical canonical outcome — runs unchanged on a
:class:`PoolBackend` (embedded worker processes) or a
:class:`RemoteBackend` (a running ``repro-ioschedule
serve`` instance), and a result cache written by any of them serves
warm hits to all.

Module map
----------
``repro.api.requests``   typed ``SolveRequest`` / ``PagingRequest`` /
                         ``ExactRequest`` / ``BatchRequest`` + the one
                         validation and buffer-digest key path
``repro.api.outcome``    the uniform ``Outcome`` envelope + wire helpers
``repro.api.errors``     stable error codes, HTTP statuses and CLI exit
                         codes in one taxonomy
``repro.api.execution``  the runner cores shared by every backend
``repro.api.backends``   the ``Backend`` protocol and the three
                         interchangeable implementations
"""

from .backends import Backend, LocalBackend, PoolBackend, RemoteBackend
from .errors import (
    ApiError,
    BackendError,
    CLIENT_FAULT_STATUSES,
    ERROR_CODES,
    EXIT_BAD_INPUT,
    EXIT_OK,
    EXIT_TRANSPORT,
    HTTP_STATUS,
    ProtocolError,
    TransportError,
    api_error,
    exit_code_for_status,
)
from .execution import (
    build_tree,
    execute_batch,
    execute_request,
    run_exact,
    run_paging,
    run_solve,
)
from .outcome import Outcome, PROTOCOL_VERSION, error_envelope, ok_envelope
from .requests import (
    BatchRequest,
    CanonicalRequest,
    DEFAULT_PAGING_POLICIES,
    ENGINE_VERSION,
    ExactRequest,
    MAX_NODES,
    MEMORY_POLICIES,
    PagingRequest,
    Request,
    SolveRequest,
    parse_request,
    unit_seed,
)

__all__ = [
    # requests
    "BatchRequest",
    "CanonicalRequest",
    "DEFAULT_PAGING_POLICIES",
    "ENGINE_VERSION",
    "ExactRequest",
    "MAX_NODES",
    "MEMORY_POLICIES",
    "PagingRequest",
    "Request",
    "SolveRequest",
    "parse_request",
    "unit_seed",
    # outcome
    "Outcome",
    "PROTOCOL_VERSION",
    "error_envelope",
    "ok_envelope",
    # errors
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
    # execution
    "build_tree",
    "execute_batch",
    "execute_request",
    "run_exact",
    "run_paging",
    "run_solve",
    # backends
    "Backend",
    "LocalBackend",
    "PoolBackend",
    "RemoteBackend",
]
