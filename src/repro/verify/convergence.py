"""Convergence verification (Section II definitions).

* *weak* convergence to ``I``: from every state some computation reaches
  ``I`` — equivalently, backward reachability from ``I`` covers the space.
* *strong* convergence to ``I``: every computation from every state reaches
  ``I`` — equivalently (Proposition II.1), no deadlock states in ``¬I`` and
  no non-progress cycles in ``δp | ¬I``.
"""

from __future__ import annotations

from ..explicit.graph import TransitionView, backward_reachable, bfs_layers
from ..protocol.predicate import Predicate
from ..protocol.protocol import Protocol
from .cycles import nonprogress_scc_labels
from .deadlock import deadlock_states


def weakly_converges(
    protocol: Protocol,
    invariant: Predicate,
    *,
    view: TransitionView | None = None,
) -> bool:
    """Every state can reach ``I`` along some computation."""
    if view is None:
        view = TransitionView.of_protocol(protocol)
    reach = backward_reachable(view, invariant.mask, protocol.space.size)
    return bool(reach.all())


def unrecoverable_states(
    protocol: Protocol,
    invariant: Predicate,
    *,
    view: TransitionView | None = None,
) -> Predicate:
    """States from which no computation reaches ``I`` (weak-convergence gap)."""
    if view is None:
        view = TransitionView.of_protocol(protocol)
    reach = backward_reachable(view, invariant.mask, protocol.space.size)
    return Predicate(protocol.space, ~reach)


def strongly_converges(
    protocol: Protocol,
    invariant: Predicate,
    *,
    view: TransitionView | None = None,
) -> bool:
    """No deadlocks in ``¬I`` and no non-progress cycles (Proposition II.1)."""
    if deadlock_states(protocol, invariant, view=view):
        return False
    _labels, sizes = nonprogress_scc_labels(protocol, invariant, view=view)
    return not len(sizes)


def convergence_steps_bound(protocol: Protocol, invariant: Predicate) -> int:
    """Longest shortest-path distance from any state to ``I`` (∞ → ``-1``).

    A cheap quantitative companion to the verdicts: the number of backward
    BFS levels needed to cover the space.
    """
    src, dst = TransitionView.of_protocol(protocol).edge_arrays()
    visited = invariant.mask.copy()
    level = sum(1 for _layer in bfs_layers(dst, src, visited))
    return level if bool(visited.all()) else -1
