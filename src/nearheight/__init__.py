"""Optimal binary search trees under a near-minimal height bound.

Constructs the minimum weighted-path-length search tree with height at
most h_min(n) + delta via a stagewise decision process over rightmost-path
occupancy states, in O(n^2) time for fixed delta.
"""

from .instance import (
    DecisionSequence,
    External,
    InfeasibleDecisionError,
    InstanceError,
    Internal,
    ProblemInstance,
    build_tree_from_decisions,
    format_weight,
    generate_random_instance,
    h_min,
    parse_weight,
    tree_height,
    tree_to_dot,
    weighted_path_length,
)
from .solver import (
    InfeasibleHeightError,
    Solution,
    StageTables,
    backward_pass,
    forward_pass,
    solve,
    solve_with_max_height,
)

__all__ = [
    "DecisionSequence",
    "External",
    "InfeasibleDecisionError",
    "InfeasibleHeightError",
    "InstanceError",
    "Internal",
    "ProblemInstance",
    "Solution",
    "StageTables",
    "backward_pass",
    "build_tree_from_decisions",
    "format_weight",
    "forward_pass",
    "generate_random_instance",
    "h_min",
    "parse_weight",
    "solve",
    "solve_with_max_height",
    "tree_height",
    "tree_to_dot",
    "weighted_path_length",
]
