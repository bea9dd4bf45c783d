"""Symbolic (BDD) verification — for results too large to check explicitly.

The explicit checker in this package is the primary oracle, but it
materialises per-state arrays; beyond :data:`repro.protocol.state_space.EXPLICIT_LIMIT`
only BDDs can represent the state sets.  This module re-states the
Proposition II.1 checks symbolically, so e.g. a coloring result at 3^12+
states can still be *independently* verified (with a fresh
:class:`SymbolicProtocol`, not the synthesis engine's own structures).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bdd import ZERO
from ..protocol.protocol import Protocol
from ..symbolic.encode import SymbolicProtocol
from ..symbolic.image import backward_closure, postimage_union
from ..symbolic.scc import cycle_core


@dataclass(frozen=True)
class SymbolicVerdict:
    """Symbolic twin of :class:`StabilizationVerdict` (counts are state counts)."""

    closed: bool
    n_deadlocks: int
    has_cycles: bool
    n_unrecoverable: int

    @property
    def strongly_stabilizing(self) -> bool:
        return self.closed and self.n_deadlocks == 0 and not self.has_cycles

    @property
    def weakly_stabilizing(self) -> bool:
        return self.closed and self.n_unrecoverable == 0


def analyze_stabilization_symbolic(
    protocol: Protocol,
    invariant_bdd: int,
    *,
    sp: SymbolicProtocol | None = None,
) -> SymbolicVerdict:
    """Closure + deadlocks + cycles + weak reachability, all on BDDs.

    ``invariant_bdd`` must be a current-bits state set over ``sp.sym``
    (pass the ``sp`` used to build it, or a fresh one plus a BDD built with
    the case studies' ``*_invariant_bdd`` helpers).
    """
    sp = sp if sp is not None else SymbolicProtocol(protocol)
    sym = sp.sym
    invariant = sym.bdd.and_(invariant_bdd, sym.domain_cur)
    not_i = sym.bdd.diff(sym.domain_cur, invariant)
    relations = sp.clustered_partitions(protocol.groups)

    # closure: post(I) ⊆ I
    escaped = sym.bdd.diff(
        sym.bdd.and_(postimage_union(sym, relations, invariant), sym.domain_cur),
        invariant,
    )
    closed = escaped == ZERO

    # deadlocks: ¬I states with no enabled group (enabled set = union of rcubes)
    enabled = sym.bdd.or_all(
        sp.rcube(j, rcode)
        for j, gs in enumerate(protocol.groups)
        for (rcode, _w) in gs
    )
    deadlocks = sym.bdd.diff(not_i, enabled)

    # non-progress cycles in δp | ¬I: only their existence matters, and
    # the trimmed core of ¬I is empty exactly when there is none
    has_cycles = cycle_core(sym, relations, not_i) != ZERO

    # weak convergence: backward closure of I covers the space
    reach = backward_closure(sym, relations, invariant)
    unrecoverable = sym.bdd.diff(sym.domain_cur, reach)

    return SymbolicVerdict(
        closed=closed,
        n_deadlocks=sym.count_states(deadlocks),
        has_cycles=has_cycles,
        n_unrecoverable=sym.count_states(unrecoverable),
    )
