"""Out-of-core task-tree scheduling: minimising I/O volume.

A complete reproduction of

    Loris Marchal, Samuel McCauley, Bertrand Simon, Frédéric Vivien.
    *Minimizing I/Os in Out-of-Core Task Tree Scheduling.*
    INRIA Research Report RR-9025 / hal-01462213, 2017.

Quick start (the paper's Figure 2b instance)::

    from repro import TaskTree, rec_expand, memory_bounds

    tree = TaskTree(parents=[1, 2, 3, 8, 5, 6, 7, 8, -1],
                    weights=[6, 2, 5, 3, 6, 2, 5, 3, 1])
    memory = memory_bounds(tree).mid      # 6: inside the I/O regime
    result = rec_expand(tree, memory)
    print(result.io_volume, result.traversal.schedule)   # 3 (0, 1, ..., 8)

Package map
-----------
``repro.core``        tree structure, traversals, FiF simulator, expansion
``repro.algorithms``  OptMinMem (Liu), best postorders, RecExpand, exact
                      branch-and-bound, brute-force oracles
``repro.datasets``    SYNTH generator, sparse-matrix/elimination-tree
                      pipeline (incl. nested dissection), paper instances
``repro.analysis``    memory bounds, I/O lower bounds, performance metric,
                      Dolan–Moré profiles, bootstrap/permutation statistics
``repro.io``          page-granular paging substrate + disk timing model
``repro.parallel``    parallel out-of-core engine, activation windows
``repro.viz``         SVG/ASCII rendering of profiles, timelines and trees
``repro.experiments`` dataset assembly, figure regeneration, full reports;
                      ``experiments.batch`` shards the evaluation across
                      worker processes with content-addressed result
                      caching (see ``repro-ioschedule report --jobs``)
``repro.api``         the typed solver API: ``SolveRequest`` /
                      ``PagingRequest`` / ``ExactRequest`` /
                      ``BatchRequest``, the uniform ``Outcome``
                      envelope, one error taxonomy, and the pluggable
                      ``LocalBackend`` / ``PoolBackend`` /
                      ``RemoteBackend`` execution backends every
                      surface shares; imported lazily, with its main
                      names re-exported here
``repro.service``     asyncio JSON-over-HTTP scheduling service with
                      request micro-batching, a persistent worker pool
                      and cache-backed dedup (``repro-ioschedule serve``
                      / ``submit``); imported lazily via
                      ``repro.service``

Typed-API quick start (the paper's Figure 2b instance)::

    from repro import LocalBackend, parse_request

    request = parse_request({
        "kind": "solve",
        "tree": {"parents": [1, 2, 3, 8, 5, 6, 7, 8, -1],
                 "weights": [6, 2, 5, 3, 6, 2, 5, 3, 1]},
        "memory": 6,
        "algorithm": "RecExpand",
    })
    outcome = LocalBackend().submit(request).raise_for_error()
    print(outcome.io_volume, outcome.schedule)   # 3 (0, 1, ..., 8)
"""

from .algorithms.brute_force import min_io_brute, min_peak_brute
from .algorithms.exact import ExactResult, exact_min_io, optimality_gap
from .algorithms.homogeneous import homogeneous_labels, optimal_io
from .algorithms.liu import min_peak_memory, opt_min_mem
from .algorithms.local_search import LocalSearchResult, local_search
from .algorithms.postorder import postorder_min_io, postorder_min_mem
from .algorithms.rec_expand import RecExpandResult, full_rec_expand, rec_expand
from .analysis.bounds import MemoryBounds, memory_bounds
from .analysis.io_bounds import io_lower_bound, peak_io_lower_bound
from .analysis.metrics import performance
from .analysis.profiles import PerformanceProfile, build_profile, render_ascii
from .analysis.regime import IOCurve, io_curve
from .core.trace import TraceEvent, replay, traversal_trace
from .core.expansion import ExpansionTree, expand_tree
from .core.simulator import (
    InfeasibleSchedule,
    SimulationResult,
    fif_io_volume,
    fif_traversal,
    schedule_peak_memory,
    simulate_fif,
)
from .core.traversal import InvalidTraversal, Traversal, is_postorder, validate
from .core.tree import TaskTree, TreeError, balanced_binary_tree, chain_tree, star_tree
from .io import PageMap, paged_io

__version__ = "2.5.0"

#: ``repro.api`` names served lazily through module ``__getattr__`` —
#: available as ``repro.<name>`` without paying the import cost (the
#: algorithm registry, the service client, the backends) unless used.
_API_EXPORTS = (
    "ApiError",
    "Backend",
    "BatchRequest",
    "ExactRequest",
    "LocalBackend",
    "Outcome",
    "PagingRequest",
    "PoolBackend",
    "ProtocolError",
    "RemoteBackend",
    "Request",
    "SolveRequest",
    "TransportError",
    "parse_request",
)


def __getattr__(name: str):
    """Lazy attribute access: subpackages and the ``repro.api`` facade.

    ``repro.service`` and ``repro.api`` are deliberately not imported at
    package-import time (the service pulls in asyncio/executor machinery
    no offline user needs); this hook makes ``repro.service`` /
    ``repro.api`` — and the re-exported API names above — resolve on
    first use instead of raising ``AttributeError``.
    """
    if name in ("api", "service"):
        import importlib

        return importlib.import_module(f".{name}", __name__)
    if name in _API_EXPORTS:
        from . import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_API_EXPORTS) | {"api", "service"})


__all__ = [
    "api",
    "service",
    *_API_EXPORTS,
    "TaskTree",
    "TreeError",
    "chain_tree",
    "star_tree",
    "balanced_binary_tree",
    "Traversal",
    "InvalidTraversal",
    "validate",
    "is_postorder",
    "simulate_fif",
    "fif_io_volume",
    "fif_traversal",
    "schedule_peak_memory",
    "SimulationResult",
    "InfeasibleSchedule",
    "ExpansionTree",
    "expand_tree",
    "opt_min_mem",
    "min_peak_memory",
    "postorder_min_io",
    "postorder_min_mem",
    "rec_expand",
    "full_rec_expand",
    "RecExpandResult",
    "homogeneous_labels",
    "optimal_io",
    "min_io_brute",
    "min_peak_brute",
    "ExactResult",
    "exact_min_io",
    "optimality_gap",
    "MemoryBounds",
    "memory_bounds",
    "io_lower_bound",
    "peak_io_lower_bound",
    "performance",
    "build_profile",
    "render_ascii",
    "PerformanceProfile",
    "PageMap",
    "paged_io",
    "LocalSearchResult",
    "local_search",
    "IOCurve",
    "io_curve",
    "TraceEvent",
    "replay",
    "traversal_trace",
    "__version__",
]
