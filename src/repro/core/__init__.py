"""Model substrate: trees, traversals, the FiF simulator and node expansion.

Two interchangeable kernel engines back the core computations: the
list cores of :mod:`repro.core.kernels` (on a :class:`TaskTree`'s
cached lists or an :class:`ArrayTree`'s columns — the default) and the
object engine (per-node Python structures, the cross-validation
reference); see :mod:`repro.core.engine` for how one is selected.
"""

from .arraytree import ArrayTree, as_array_tree
from .forest import ArrayForest
from .engine import (
    ENGINES,
    default_engine,
    engine_scope,
    resolve_engine,
    set_default_engine,
)
from .execution import ExecutionReport, MachineModel, execute_traversal
from .expansion import ExpansionTree, Role, expand_tree
from .simulator import (
    InfeasibleSchedule,
    SimulationResult,
    StepTrace,
    fif_io_volume,
    fif_traversal,
    schedule_peak_memory,
    simulate_fif,
)
from .traversal import InvalidTraversal, Traversal, is_postorder, validate
from .tree import TaskTree, TreeError, balanced_binary_tree, chain_tree, star_tree

__all__ = [
    "TaskTree",
    "TreeError",
    "ArrayTree",
    "as_array_tree",
    "ArrayForest",
    "ENGINES",
    "default_engine",
    "engine_scope",
    "resolve_engine",
    "set_default_engine",
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
    "StepTrace",
    "InfeasibleSchedule",
    "ExpansionTree",
    "Role",
    "expand_tree",
    "MachineModel",
    "ExecutionReport",
    "execute_traversal",
]
