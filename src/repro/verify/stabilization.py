"""Full self-stabilization verdicts and Problem III.1 solution checking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..explicit.graph import TransitionView
from ..protocol.predicate import Predicate
from ..protocol.protocol import Protocol
from .closure import is_closed
from .convergence import strongly_converges, unrecoverable_states, weakly_converges
from .cycles import nonprogress_scc_labels
from .deadlock import deadlock_states


@dataclass(frozen=True)
class StabilizationVerdict:
    """Everything Proposition II.1 and the definitions of Section II ask for."""

    closed: bool
    n_deadlocks: int
    n_cycle_states: int
    n_unrecoverable: int

    @property
    def weakly_stabilizing(self) -> bool:
        return self.closed and self.n_unrecoverable == 0

    @property
    def strongly_stabilizing(self) -> bool:
        return self.closed and self.n_deadlocks == 0 and self.n_cycle_states == 0

    def describe(self) -> str:
        return (
            f"closed={self.closed} deadlocks={self.n_deadlocks} "
            f"cycle-states={self.n_cycle_states} "
            f"unrecoverable={self.n_unrecoverable} -> "
            + (
                "strongly stabilizing"
                if self.strongly_stabilizing
                else "weakly stabilizing"
                if self.weakly_stabilizing
                else "NOT stabilizing"
            )
        )


def analyze_stabilization(
    protocol: Protocol, invariant: Predicate
) -> StabilizationVerdict:
    """Compute the full verdict for a protocol w.r.t. ``invariant``.

    One :class:`~repro.explicit.graph.TransitionView` is built and shared
    by all four checks (closure, deadlocks, SCCs, unrecoverable) — the view
    itself is cheap, but building it four times re-enumerates the group-id
    list and defeats any caching a caller layered on top.
    """
    view = TransitionView.of_protocol(protocol)
    closed = is_closed(protocol, invariant, view=view)
    deadlocks = deadlock_states(protocol, invariant, view=view).count()
    _labels, sizes = nonprogress_scc_labels(protocol, invariant, view=view)
    cycle_states = int(sizes.sum())
    unrecoverable = unrecoverable_states(protocol, invariant, view=view).count()
    return StabilizationVerdict(
        closed=closed,
        n_deadlocks=deadlocks,
        n_cycle_states=cycle_states,
        n_unrecoverable=unrecoverable,
    )


@dataclass(frozen=True)
class SolutionCheck:
    """Does ``pss`` solve Problem III.1 for input ``p`` and invariant ``I``?"""

    invariant_closed: bool
    behavior_inside_i_unchanged: bool
    converges: bool
    mode: str  # "strong" or "weak"
    invariant_unchanged: bool = True

    @property
    def ok(self) -> bool:
        return (
            self.invariant_unchanged
            and self.invariant_closed
            and self.behavior_inside_i_unchanged
            and self.converges
        )


def check_solution(
    original: Protocol,
    synthesized: Protocol,
    invariant: Predicate,
    *,
    mode: str = "strong",
    synthesized_invariant: Predicate | None = None,
) -> SolutionCheck:
    """Independent check of the three output constraints of Problem III.1:

    (1) ``I`` unchanged — compared as *state sets* when the synthesis
        pipeline hands back its own invariant object
        (``synthesized_invariant``), so independently reconstructed
        invariants are actually checked rather than assumed equal;
    (2) ``δpss | I  =  δp | I``;
    (3) ``pss`` strongly/weakly converges to ``I`` (and ``I`` is closed in it).
    """
    if mode not in ("strong", "weak"):
        raise ValueError(f"mode must be 'strong' or 'weak', got {mode!r}")
    if synthesized_invariant is None or synthesized_invariant is invariant:
        same_invariant = True
    else:
        space_a, space_b = invariant.space, synthesized_invariant.space
        same_invariant = (
            space_a.size == space_b.size
            and list(map(int, space_a.radices)) == list(map(int, space_b.radices))
            and bool(
                np.array_equal(invariant.mask, synthesized_invariant.mask)
            )
        )
    view = TransitionView.of_protocol(synthesized)
    closed = is_closed(synthesized, invariant, view=view)
    same_inside = original.restricted_transition_set(
        invariant
    ) == synthesized.restricted_transition_set(invariant)
    if mode == "strong":
        conv = strongly_converges(synthesized, invariant, view=view)
    else:
        conv = weakly_converges(synthesized, invariant, view=view)
    return SolutionCheck(
        invariant_closed=closed,
        behavior_inside_i_unchanged=same_inside,
        converges=conv,
        mode=mode,
        invariant_unchanged=same_invariant,
    )
