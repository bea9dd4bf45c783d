"""Symbolic (BDD) engine: encoding, images, SCCs, ranking and synthesis."""

from .encode import CLUSTER_SIZE, SymbolicProtocol, SymbolicSpace
from .engine import (
    SymbolicSynthesisResult,
    SymbolicSynthesisState,
    add_strong_convergence_symbolic,
)
from .image import (
    backward_closure,
    forward_closure,
    post_and,
    post_diff,
    postimage,
    postimage_union,
    pre_and,
    pre_diff,
    preimage,
    preimage_union,
    relation_links,
)
from .partition import Partition, make_partition
from .ranking import (
    SymbolicRanking,
    compute_pim_groups_symbolic,
    compute_ranks_symbolic,
)
from .scc import (
    SymbolicInternalError,
    cycle_core,
    gentilini_sccs,
    lockstep_sccs,
    xie_beerel_sccs,
)

__all__ = [
    "CLUSTER_SIZE",
    "Partition",
    "SymbolicInternalError",
    "SymbolicProtocol",
    "SymbolicRanking",
    "SymbolicSpace",
    "SymbolicSynthesisResult",
    "SymbolicSynthesisState",
    "add_strong_convergence_symbolic",
    "backward_closure",
    "compute_pim_groups_symbolic",
    "compute_ranks_symbolic",
    "cycle_core",
    "forward_closure",
    "gentilini_sccs",
    "lockstep_sccs",
    "make_partition",
    "post_and",
    "post_diff",
    "postimage",
    "postimage_union",
    "pre_and",
    "pre_diff",
    "preimage",
    "preimage_union",
    "relation_links",
    "xie_beerel_sccs",
]
