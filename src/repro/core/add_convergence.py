"""``Add_Convergence`` / ``Add_Recovery`` / ``Identify_Resolve_Cycles``.

Direct implementations of the routines in Figure 3 of the paper, operating
on a mutable :class:`SynthesisState`.  Recovery transitions are added *per
group* (atomicity under read restrictions), under the pass-specific
``ruledOutTrans`` constraints:

* constraint C1 — a candidate group is ruled out when any of its transitions
  starts in ``I`` (evaluated per rcode: the group's source set is the rcode's
  cylinder, so this is one precomputed boolean per (process, rcode));
* constraint C4 (pass 1 only) — ruled out when any of its transitions
  reaches a *current* deadlock state;
* constraint C3 — after tentative addition, any added group with a
  transition inside a cyclic SCC of ``pss ∪ added`` restricted to ``¬I`` is
  discarded (``Identify_Resolve_Cycles``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..explicit.graph import TransitionView
from ..explicit.scc import GrowingGraph
from ..metrics.stats import SynthesisStats
from ..protocol.groups import GroupId
from ..protocol.predicate import Predicate
from ..protocol.protocol import Protocol
from .ranking import rvals_intersecting


@dataclass
class SynthesisState:
    """Mutable state of one heuristic run: ``pss`` under construction."""

    protocol: Protocol
    invariant: Predicate
    stats: SynthesisStats
    #: ablation hook — False skips Identify_Resolve_Cycles (unsound)
    resolve_cycles: bool = True

    #: Cycle-resolution mode:
    #: * "batch" (default) — the paper's literal semantics: all candidate
    #:   groups of a process are cycle-checked jointly and every group
    #:   touching an SCC is dropped.  A batch can reject two groups that only
    #:   *jointly* cycle.
    #: * "sequential" — greedy: each group is committed or rejected alone.
    #:   Commits early groups that may block later ones.
    #: * "hybrid" — batch resolution followed by a sequential retry of the
    #:   batch-rejected groups.
    #: No mode dominates (TR K=5,|D|=5 needs sequential; matching needs
    #: batch), so the Synthesizer driver runs a portfolio over modes and
    #: schedules — the paper's one-instance-per-configuration strategy
    #: (Figure 1).
    cycle_resolution_mode: str = "batch"
    #: schedule-independent precomputed inputs (shared across a portfolio);
    #: ``init_out_counts`` is copied, ``init_rcode_touches_i`` is read-only
    init_out_counts: np.ndarray | None = None
    init_rcode_touches_i: list[np.ndarray] | None = None
    pss_groups: list[set[tuple[int, int]]] = field(init=False)
    added_groups: list[set[tuple[int, int]]] = field(init=False)
    removed_groups: list[set[tuple[int, int]]] = field(init=False)
    out_counts: np.ndarray = field(init=False)
    #: per process: rcodes whose cylinder intersects I (constraint C1 cache)
    rcode_touches_i: list[np.ndarray] = field(init=False)
    not_i: np.ndarray = field(init=False)
    #: ``pss | ¬I`` with its kept CSR — built on first use, extended by
    #: ``commit_group``, dropped by ``remove_group``
    _pss_graph: GrowingGraph | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        self.not_i = ~self.invariant.mask
        self.pss_groups = [set(g) for g in self.protocol.groups]
        self.added_groups = [set() for _ in self.protocol.groups]
        self.removed_groups = [set() for _ in self.protocol.groups]
        self.out_counts = (
            self.init_out_counts.copy()
            if self.init_out_counts is not None
            else self.protocol.out_counts()
        )
        self.rcode_touches_i = (
            list(self.init_rcode_touches_i)
            if self.init_rcode_touches_i is not None
            else [
                rvals_intersecting(table, self.invariant.mask)
                for table in self.protocol.tables
            ]
        )

    # ------------------------------------------------------------------
    @property
    def space(self):
        return self.protocol.space

    def deadlock_mask(self) -> np.ndarray:
        """Deadlock states: no outgoing transition and outside I (Prop. II.1)."""
        return (self.out_counts == 0) & self.not_i

    def n_deadlocks(self) -> int:
        return int(self.deadlock_mask().sum())

    def pss_view(self, extra: Sequence[GroupId] = ()) -> TransitionView:
        return TransitionView.of_groups(
            self.protocol.tables, self.pss_groups, extra
        )

    def pss_graph(self) -> GrowingGraph:
        """``pss | ¬I`` as a :class:`GrowingGraph` (views of one buffer)."""
        if self._pss_graph is None:
            self._pss_graph = GrowingGraph(
                self.space.size, *self.pss_view().edge_arrays(self.not_i)
            )
        return self._pss_graph

    # ------------------------------------------------------------------
    def commit_group(self, j: int, rcode: int, wcode: int) -> None:
        table = self.protocol.tables[j]
        src = table.sources(rcode)
        self.pss_groups[j].add((rcode, wcode))
        self.added_groups[j].add((rcode, wcode))
        self.out_counts[src] += 1
        if self._pss_graph is not None:
            dst = src + table.deltas[rcode, wcode]
            keep = self.not_i[src] & self.not_i[dst]
            self._pss_graph.append(src[keep], dst[keep])
        self.stats.bump("groups_added")

    def remove_group(self, j: int, rcode: int, wcode: int) -> None:
        """Remove an *original* group (preprocessing cycle elimination only)."""
        table = self.protocol.tables[j]
        src = table.sources(rcode)
        self.pss_groups[j].discard((rcode, wcode))
        self.removed_groups[j].add((rcode, wcode))
        self.out_counts[src] -= 1
        self._pss_graph = None
        self.stats.bump("groups_removed")

    def result_protocol(self, name: str | None = None) -> Protocol:
        return self.protocol.with_groups(
            self.pss_groups, name=name or f"{self.protocol.name}_ss"
        )


def identify_resolve_cycles(
    state: SynthesisState, candidates: list[GroupId]
) -> set[GroupId]:
    """Figure 3's ``Identify_Resolve_Cycles``: groups to drop from ``candidates``.

    Detects the cyclic SCCs of ``pss ∪ candidates`` restricted to ``¬I`` and
    returns every candidate group owning a transition with both endpoints in
    one SCC.  ``pss`` is acyclic in ``¬I`` by induction, so a batch whose
    targets lead nowhere new is settled by one forward level, and any other
    batch by one compiled SCC pass (:meth:`GrowingGraph.scc_labels_with`).
    """
    if not candidates:
        return set()
    state.stats.bump("identify_resolve_cycles_calls")
    with state.stats.timer("scc"), state.stats.tracer.span(
        "identify_resolve_cycles", n_candidates=len(candidates)
    ) as span:
        add_src, add_dst, owner = TransitionView(
            state.protocol.tables, candidates
        ).indexed_edge_arrays(state.not_i)
        labels, sizes = state.pss_graph().scc_labels_with(add_src, add_dst)
        state.stats.record_sccs(sizes.tolist())
        span["n_sccs"] = len(sizes)
        if not len(sizes):
            return set()
        state.stats.bump("cycles_resolved", len(sizes))
        l0, l1 = labels[add_src], labels[add_dst]
        inside = np.bincount(
            owner[(l0 >= 0) & (l0 == l1)], minlength=len(candidates)
        )
        bad = {candidates[i] for i in np.flatnonzero(inside)}
        if bad:
            state.stats.bump("groups_rejected_cycles", len(bad))
    return bad


def add_recovery(
    state: SynthesisState,
    from_mask: np.ndarray,
    to_mask: np.ndarray,
    process: int,
    *,
    rule_out_deadlock_targets: bool,
    deadlock_mask: np.ndarray | None = None,
) -> int:
    """Figure 3's ``Add_Recovery`` for one process; returns #groups committed.

    Candidate groups of ``process`` not already in ``pss`` that (a) contain a
    transition from ``from_mask`` to ``to_mask``, (b) have no groupmate
    starting in ``I`` (C1), and (c) under pass 1 have no groupmate reaching a
    deadlock state (C4) are gathered, cycle-resolved as one batch, and the
    survivors committed.
    """
    table = state.protocol.tables[process]
    touches_i = state.rcode_touches_i[process]
    pss_j = state.pss_groups[process]
    if rule_out_deadlock_targets and deadlock_mask is None:
        deadlock_mask = state.deadlock_mask()

    candidates: list[GroupId] = []
    offsets = table.unread_offsets
    for rcode in range(table.n_rvals):
        if touches_i[rcode]:
            continue  # C1: some groupmate would start in I
        src = table.bases[rcode] + offsets
        src_in_from = from_mask[src]
        if not src_in_from.any():
            continue
        self_w = int(table.self_wcode[rcode])
        for wcode in range(table.n_wvals):
            if wcode == self_w or (rcode, wcode) in pss_j:
                continue
            dst = src + table.deltas[rcode, wcode]
            if not (src_in_from & to_mask[dst]).any():
                continue
            if rule_out_deadlock_targets and bool(deadlock_mask[dst].any()):
                continue  # C4
            candidates.append((process, rcode, wcode))

    if not candidates:
        return 0
    committed = 0
    if not state.resolve_cycles:
        for gid in candidates:
            state.commit_group(*gid)
        return len(candidates)
    mode = state.cycle_resolution_mode
    if mode not in ("batch", "sequential", "hybrid"):
        raise ValueError(f"unknown cycle_resolution_mode {mode!r}")
    rejected: list[GroupId] = []
    if mode in ("batch", "hybrid"):
        bad = identify_resolve_cycles(state, candidates)
        for gid in candidates:
            if gid in bad:
                rejected.append(gid)
            else:
                state.commit_group(*gid)
                committed += 1
    else:
        rejected = list(candidates)
    if mode in ("sequential", "hybrid"):
        # Sequential greedy over the (remaining) candidates: each commit
        # preserves the acyclicity invariant, so later candidates are checked
        # against everything kept so far.
        for gid in rejected:
            if identify_resolve_cycles(state, [gid]):
                continue
            state.commit_group(*gid)
            committed += 1
    return committed


def add_convergence(
    state: SynthesisState,
    from_mask: np.ndarray,
    to_mask: np.ndarray,
    schedule: Sequence[int],
    pass_no: int,
) -> bool:
    """Figure 3's ``Add_Convergence``: one sweep over the recovery schedule.

    Returns ``True`` as soon as no deadlock states remain.  Under pass 1 the
    deadlock component of ``ruledOutTrans`` is refreshed after every
    process's additions (line 4 of the pseudocode).
    """
    deadlocks = state.deadlock_mask()
    stats = state.stats
    for j in schedule:
        before = int(deadlocks.sum())
        with stats.tracer.span(
            "add_recovery", process=j, pass_no=pass_no
        ) as span:
            committed = add_recovery(
                state,
                from_mask,
                to_mask,
                j,
                rule_out_deadlock_targets=(pass_no == 1),
                deadlock_mask=deadlocks,
            )
            deadlocks = state.deadlock_mask()
            resolved = before - int(deadlocks.sum())
            span["committed"] = committed
            span["deadlocks_resolved"] = resolved
        if resolved:
            stats.bump(f"pass{pass_no}_deadlocks_resolved", resolved)
        if not deadlocks.any():
            return True
    return False
