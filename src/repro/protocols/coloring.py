"""Three Coloring on a ring (paper Section VI-B).

K processes; each owns a colour ``c_i`` with a three-value domain and reads
both neighbours.  The input protocol is empty; the synthesized protocol must
strongly stabilize to

    I_coloring = forall i: c_{i-1} != c_i

(proper colouring of the ring).  The paper's synthesized solution gives
``P0`` no actions, ``P1`` fires when it clashes with either neighbour, and
``P_i`` (i > 1) fires only when it clashes with both — our heuristic's output
is checked against that shape in the tests.

This is the paper's *locally-correctable* case study and its scalability
star: STSyn reached 40 processes (3^40 states, symbolic engine only).
"""

from __future__ import annotations

from ..protocol import (
    Predicate,
    Protocol,
    StateSpace,
    local_conjunction,
    make_variables,
    ring_topology,
)

COLOR_LABELS = ("red", "green", "blue")


def coloring_space(k: int, colors: int = 3) -> StateSpace:
    labels = COLOR_LABELS if colors == 3 else None
    return StateSpace(make_variables("c", k, colors, labels=labels))


def coloring_invariant(space: StateSpace, k: int) -> Predicate:
    """Every adjacent pair differs (ring indices mod K)."""

    def lc(i: int):
        def expr(**vs):
            return vs[f"c{(i - 1) % k}"] != vs[f"c{i}"]

        return expr

    return local_conjunction(space, [lc(i) for i in range(k)])


def coloring(k: int = 5, colors: int = 3) -> tuple[Protocol, Predicate]:
    """The (empty) non-stabilizing TC protocol and ``I_coloring``.

    A ring with an odd K is not 2-colourable, so ``colors >= 3`` keeps the
    invariant non-empty for every K.
    """
    if k < 3:
        raise ValueError("coloring on a ring needs K >= 3")
    if colors < 3:
        raise ValueError("ring colouring needs >= 3 colours for odd K")
    space = coloring_space(k, colors)
    topology = ring_topology(space, list(range(k)), read_left=True, read_right=True)
    protocol = Protocol.empty(space, topology, name=f"coloring_k{k}_c{colors}")
    return protocol, coloring_invariant(space, k)


def coloring_invariant_bdd(sym, k: int) -> int:
    """``I_coloring`` directly as a BDD (scales to the paper's K = 40,
    where the explicit predicate cannot be materialised)."""
    return sym.bdd.and_all(sym.neq_vars((i - 1) % k, i) for i in range(k))


def coloring_symbolic(k: int, colors: int = 3):
    """Symbolic-engine setup: ``(protocol, SymbolicProtocol, invariant_bdd)``."""
    from ..symbolic.encode import SymbolicProtocol

    if k < 3:
        raise ValueError("coloring on a ring needs K >= 3")
    if colors < 3:
        raise ValueError("ring colouring needs >= 3 colours for odd K")
    space = coloring_space(k, colors)
    topology = ring_topology(space, list(range(k)), read_left=True, read_right=True)
    protocol = Protocol.empty(space, topology, name=f"coloring_k{k}_c{colors}")
    sp = SymbolicProtocol(protocol)
    return protocol, sp, coloring_invariant_bdd(sp.sym, k)
