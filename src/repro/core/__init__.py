"""Model substrate: trees, traversals, the FiF simulator and node expansion.

A traversal's event stream and its one walk are :mod:`repro.core.trace`;
timing is :mod:`repro.io.device`'s and :mod:`repro.parallel`'s.

The core computations run on the list cores of :mod:`repro.core.kernels`
over a tree's ``core_lists()``: a :class:`TaskTree`'s cached lists, an
:class:`ArrayTree`'s columns, or an :class:`ExpansionTree`'s own lists.
Traced FiF runs and the child-key postorders run those cores too.
"""

from .arraytree import ArrayTree, as_array_tree
from .forest import ArrayForest
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
]
