"""Symbolic ``ComputeRanks`` — backward BFS over BDD state sets.

The symbolic twin of :mod:`repro.core.ranking`: same ``p_im`` construction
(group bookkeeping stays explicit — candidate group *sets* are tiny even
when the state space is astronomically large), state sets become BDDs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bdd import ZERO
from ..trace.tracer import NullTracer, Tracer, current_tracer
from .encode import SymbolicProtocol
from .image import preimage_union


def compute_pim_groups_symbolic(
    sp: SymbolicProtocol, invariant: int
) -> list[set[tuple[int, int]]]:
    """Groups of ``p_im``: δp plus every candidate group whose source
    cylinder misses ``I`` (the symbolic twin of ``compute_pim_groups``)."""
    protocol = sp.protocol
    bdd = sp.sym.bdd
    pim: list[set[tuple[int, int]]] = []
    for j, table in enumerate(protocol.tables):
        groups = set(protocol.groups[j])
        for rcode in range(table.n_rvals):
            if bdd.and_(sp.rcube(j, rcode), invariant) != ZERO:
                continue
            self_w = int(table.self_wcode[rcode])
            for wcode in range(table.n_wvals):
                if wcode != self_w:
                    groups.add((rcode, wcode))
        pim.append(groups)
    return pim


@dataclass
class SymbolicRanking:
    """Rank predicates as BDDs: ``ranks[i]`` is Rank[i] (``ranks[0]`` = I)."""

    sp: SymbolicProtocol
    invariant: int
    ranks: list[int]
    unreachable: int
    pim_groups: list[set[tuple[int, int]]]

    @property
    def max_rank(self) -> int:
        return len(self.ranks) - 1

    def admits_stabilization(self) -> bool:
        return self.unreachable == ZERO

    def n_unreachable(self) -> int:
        return self.sp.sym.count_states(self.unreachable)

    def rank_sizes(self) -> list[int]:
        return [self.sp.sym.count_states(r) for r in self.ranks]


def compute_ranks_symbolic(
    sp: SymbolicProtocol,
    invariant: int,
    *,
    tracer: Tracer | NullTracer | None = None,
) -> SymbolicRanking:
    """Backward BFS from ``I`` over the per-process ``p_im`` relations.

    ``tracer`` defaults to the process-wide current tracer; a traced run
    records one ``symbolic.rank.backward_bfs`` span covering the fixpoint.
    """
    tracer = tracer if tracer is not None else current_tracer()
    sym = sp.sym
    pim = compute_pim_groups_symbolic(sp, invariant)
    relations = sp.clustered_partitions(pim)
    tracer.counter_set("symbolic.partition_count", len(relations))
    invariant = sym.bdd.and_(invariant, sym.domain_cur)
    ranks = [invariant]
    explored = invariant
    with tracer.span(
        "symbolic.rank.backward_bfs", partition_count=len(relations)
    ) as span:
        while True:
            # one fused multi-relation sweep per rank frontier: every
            # partition cluster, the domain window and the explored-set
            # subtraction run in a single kernel call
            frontier = preimage_union(
                sym,
                relations,
                ranks[-1],
                within=sym.domain_cur,
                subtract=explored,
            )
            if frontier == ZERO:
                break
            ranks.append(frontier)
            explored = sym.bdd.or_(explored, frontier)
        span["max_rank"] = len(ranks) - 1
    unreachable = sym.bdd.diff(sym.domain_cur, explored)
    return SymbolicRanking(
        sp=sp,
        invariant=invariant,
        ranks=ranks,
        unreachable=unreachable,
        pim_groups=pim,
    )
