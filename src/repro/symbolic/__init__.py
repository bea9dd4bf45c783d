"""Symbolic (BDD) engine: encoding, images, SCCs, ranking and synthesis."""

from .encode import RELATION_MODES, SymbolicProtocol, SymbolicSpace
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
    SCC_ALGORITHMS,
    SymbolicInternalError,
    cycle_core,
    gentilini_sccs,
    lockstep_sccs,
    scc_algorithm_by_name,
    xie_beerel_sccs,
)

__all__ = [
    "RELATION_MODES",
    "Partition",
    "SCC_ALGORITHMS",
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
    "scc_algorithm_by_name",
    "xie_beerel_sccs",
]
