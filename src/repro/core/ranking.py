"""``ComputeRanks`` — the approximation of convergence (Section IV, Fig. 2).

Builds the intermediate protocol ``p_im`` (the input protocol plus *every*
transition group all of whose sources lie outside ``I``) and computes, by
backward BFS from ``I`` over ``p_im``, the rank of every state: the length of
the shortest computation prefix reaching ``I``.  Rank ∞ (stored as ``-1``)
means no stabilizing version exists at all (Theorem IV.1).  The BFS takes
pre-images on the mixed-radix state tensor and never lists ``p_im``'s
transitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..explicit.graph import TensorPreImage
from ..metrics.stats import SynthesisStats
from ..protocol.groups import ProcessGroupTable
from ..protocol.predicate import Predicate
from ..protocol.protocol import Protocol

#: rank value used to represent ∞ (no computation prefix reaches I).
INF_RANK = -1


def rvals_intersecting(table: ProcessGroupTable, mask: np.ndarray) -> np.ndarray:
    """``out[rcode]`` — does any state with readable valuation ``rcode`` satisfy ``mask``?

    Used both for the ``p_im`` construction ("groups whose sources never
    intersect I") and for constraint C1 ("groups with a groupmate starting in
    I are ruled out") — the two are the same test because a group's source
    set is exactly the rcode's cylinder: one ``any`` over the unread axes of
    the state tensor.
    """
    tensor = mask.reshape(table.space.tensor_shape)
    return table.tensor_rcodes(tensor.any(axis=table.unread_axes))


def compute_pim_groups(
    protocol: Protocol, invariant: Predicate
) -> list[set[tuple[int, int]]]:
    """Groups of ``p_im``: ``δp`` plus every candidate group with no source in I."""
    pim: list[set[tuple[int, int]]] = []
    for j, table in enumerate(protocol.tables):
        groups = set(protocol.groups[j])
        touches_i = rvals_intersecting(table, invariant.mask)
        for rcode in np.flatnonzero(~touches_i):
            rcode = int(rcode)
            self_w = int(table.self_wcode[rcode])
            for wcode in range(table.n_wvals):
                if wcode != self_w:
                    groups.add((rcode, wcode))
        pim.append(groups)
    return pim


@dataclass
class RankingResult:
    """Output of :func:`compute_ranks`.

    ``rank[s]`` is the shortest-prefix distance from ``s`` to ``I`` over
    ``p_im`` (0 for states in I, :data:`INF_RANK` for unreachable states).
    """

    protocol: Protocol
    invariant: Predicate
    rank: np.ndarray
    max_rank: int
    pim_groups: list[set[tuple[int, int]]]

    @property
    def space(self):
        return self.protocol.space

    def rank_mask(self, i: int) -> np.ndarray:
        """Boolean mask of ``Rank[i]`` (``i == 0`` is the invariant itself)."""
        return self.rank == i

    def rank_predicate(self, i: int) -> Predicate:
        return Predicate(self.space, self.rank_mask(i))

    @property
    def infinite_mask(self) -> np.ndarray:
        return self.rank == INF_RANK

    @property
    def n_infinite(self) -> int:
        return int(self.infinite_mask.sum())

    def admits_stabilization(self) -> bool:
        """Theorem IV.1: a stabilizing version exists iff no state has rank ∞."""
        return self.n_infinite == 0

    def pim_protocol(self) -> Protocol:
        """``p_im`` as a protocol (the weakly stabilizing candidate)."""
        return self.protocol.with_groups(
            self.pim_groups, name=f"{self.protocol.name}_pim"
        )

    def rank_histogram(self) -> dict[int, int]:
        """Number of states per rank (∞ included under :data:`INF_RANK`)."""
        out: dict[int, int] = {}
        values, counts = np.unique(self.rank, return_counts=True)
        for v, c in zip(values.tolist(), counts.tolist()):
            out[int(v)] = int(c)
        return out


def compute_ranks(
    protocol: Protocol,
    invariant: Predicate,
    *,
    pim_groups: Sequence[set[tuple[int, int]]] | None = None,
    stats: SynthesisStats | None = None,
) -> RankingResult:
    """Backward-BFS ranking of all states over ``p_im`` (paper Fig. 2).

    Level-synchronised: iteration ``i`` discovers exactly ``Rank[i]`` as the
    :class:`~repro.explicit.graph.TensorPreImage` of ``Rank[i - 1]`` minus
    the states already ranked.  Each image is one broadcast AND and OR per
    ``(process, wcode)`` term over the state tensor; no edge list is built.
    """
    stats = stats if stats is not None else SynthesisStats()
    with stats.timer("ranking"):
        if pim_groups is None:
            pim_list = compute_pim_groups(protocol, invariant)
        else:
            pim_list = [set(g) for g in pim_groups]
        space = protocol.space
        pre = TensorPreImage(space, protocol.tables, pim_list)
        with stats.tracer.span("rank.backward_bfs") as span:
            rank = pre.distances(invariant.mask)
            max_rank = int(rank.max(initial=0))
            span["max_rank"] = max_rank
            span["states"] = int(space.size)
            n_infinite = int((rank == INF_RANK).sum())
            span["infinite"] = n_infinite
            span["image_terms"] = pre.n_terms
        stats.bump("rank_levels", max_rank)
        stats.bump("rank_states_explored", int(space.size) - n_infinite)
    return RankingResult(
        protocol=protocol,
        invariant=invariant,
        rank=rank,
        max_rank=max_rank,
        pim_groups=pim_list,
    )
