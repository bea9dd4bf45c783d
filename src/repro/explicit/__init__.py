"""Explicit-state engine: flat edge arrays, reachability and SCC detection."""

from .graph import TransitionView, backward_reachable, forward_reachable
from .scc import cyclic_sccs, cyclic_sccs_after_addition

__all__ = [
    "TransitionView",
    "backward_reachable",
    "cyclic_sccs",
    "cyclic_sccs_after_addition",
    "forward_reachable",
]
