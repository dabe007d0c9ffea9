"""Scheduling algorithms: the paper's strategies plus exact oracles."""

from .brute_force import (
    SearchBudgetExceeded,
    iter_postorders,
    iter_topological_orders,
    min_io_brute,
    min_io_postorder_brute,
    min_peak_brute,
    min_peak_postorder_brute,
)
from .homogeneous import HomogeneousLabels, homogeneous_labels, optimal_io, postorder_schedule
from .integral_io import (
    integrality_gap,
    min_whole_node_io_brute,
    min_whole_node_io_given_schedule,
    whole_node_fif,
)
from .io_function import schedule_for_io_function
from .liu import min_peak_memory, opt_min_mem
from .postorder import PostorderResult, postorder_min_io, postorder_min_mem
from .rec_expand import RecExpandResult, full_rec_expand, rec_expand

__all__ = [
    "opt_min_mem",
    "min_peak_memory",
    "PostorderResult",
    "postorder_min_io",
    "postorder_min_mem",
    "rec_expand",
    "full_rec_expand",
    "RecExpandResult",
    "homogeneous_labels",
    "postorder_schedule",
    "optimal_io",
    "HomogeneousLabels",
    "schedule_for_io_function",
    "min_io_brute",
    "min_peak_brute",
    "min_io_postorder_brute",
    "min_peak_postorder_brute",
    "iter_topological_orders",
    "iter_postorders",
    "SearchBudgetExceeded",
    "whole_node_fif",
    "min_whole_node_io_given_schedule",
    "min_whole_node_io_brute",
    "integrality_gap",
]
