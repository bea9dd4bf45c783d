"""Non-progress cycle detection and concrete cycle extraction.

A non-progress cycle is a cycle of ``δp | ¬I`` (Proposition II.1).  Besides
the boolean verdict, :func:`extract_cycle` produces a concrete state/process
trace through one SCC — this is how the repo demonstrates the flaw in the
manually designed Gouda–Acharya matching protocol (Section VI-A).
"""

from __future__ import annotations

import numpy as np

from ..core.exceptions import SoundnessError
from ..explicit.graph import TransitionView
from ..explicit.scc import scc_labels, scc_members
from ..protocol.predicate import Predicate
from ..protocol.protocol import Protocol


def nonprogress_sccs(
    protocol: Protocol,
    invariant: Predicate,
    *,
    view: TransitionView | None = None,
) -> list[np.ndarray]:
    """Cyclic SCCs of ``δp`` restricted to ``¬I`` (state-index arrays).

    ``view`` lets callers share one prebuilt transition view across checks.
    """
    return scc_members(*nonprogress_scc_labels(protocol, invariant, view=view))


def nonprogress_scc_labels(
    protocol: Protocol,
    invariant: Predicate,
    *,
    view: TransitionView | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`nonprogress_sccs` as per-state labels (``-1``: none) and sizes."""
    if view is None:
        view = TransitionView.of_protocol(protocol)
    src, dst = view.edge_arrays(~invariant.mask)
    return scc_labels(src, dst, protocol.space.size)


def has_nonprogress_cycles(protocol: Protocol, invariant: Predicate) -> bool:
    return bool(len(nonprogress_scc_labels(protocol, invariant)[1]))


def extract_cycle(
    protocol: Protocol, scc: np.ndarray, invariant: Predicate
) -> list[tuple[int, int]]:
    """A concrete cycle inside ``scc`` as ``[(state, acting process), ...]``.

    The cycle is returned in execution order; the acting process of entry
    ``i`` moves the protocol from ``state_i`` to ``state_{i+1 mod n}``.
    """
    members = set(int(s) for s in scc)
    not_i = ~invariant.mask
    start = int(scc[0])
    path: list[tuple[int, int]] = []
    seen_at: dict[int, int] = {}
    state = start
    while state not in seen_at:
        seen_at[state] = len(path)
        nxt = None
        proc = None
        for j, rcode, wcode in protocol.enabled_groups(state):
            target = int(state + protocol.tables[j].deltas[rcode, wcode])
            if target in members and not_i[target]:
                nxt, proc = target, j
                break
        if nxt is None:
            raise SoundnessError(
                f"SCC member {protocol.space.format_state(state)} has no "
                f"intra-SCC successor — SCC detection bug",
                state=state,
            )
        path.append((state, proc))
        state = nxt
    # Trim the lasso stem: keep only the cyclic suffix.
    return path[seen_at[state]:]


def format_cycle(
    protocol: Protocol, cycle: list[tuple[int, int]]
) -> str:
    """Human-readable rendering of an extracted cycle."""
    space = protocol.space
    lines = []
    for state, proc in cycle:
        name = protocol.topology[proc].name
        lines.append(f"{space.format_state(state)}  --[{name}]-->")
    lines.append(space.format_state(cycle[0][0]) + "  (cycle closes)")
    return "\n".join(lines)
