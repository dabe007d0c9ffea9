"""Model substrate: trees, traversals, the FiF simulator and node expansion.

The core computations run on the list cores of :mod:`repro.core.kernels`
over a tree's ``core_lists()``: a :class:`TaskTree`'s cached lists, an
:class:`ArrayTree`'s columns, or an :class:`ExpansionTree`'s own lists.
Two object loops remain, for what the cores do not cover and as the
references the cross-validation tests compare the cores against: the
traced FiF simulation and the child-key postorder.
"""

from .arraytree import ArrayTree, as_array_tree
from .forest import ArrayForest
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
