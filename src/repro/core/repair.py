"""Automated repair of flawed self-stabilizing protocols.

An application the paper's discussion points at (Section VIII: integrating
the heuristics with model checkers so designers are not left alone with a
counterexample): when a *manually designed* SS protocol turns out to be
flawed — like the Gouda–Acharya matching protocol — feeding it straight
into the heuristic acts as a repair procedure:

1. preprocessing removes the cycle-forming groups (legal only when they lie
   entirely outside ``I``; otherwise repair is impossible without changing
   fault-free behaviour, and that is reported),
2. the passes re-add recovery for the deadlocks the removal exposed,
3. the result is re-verified end to end.

The :class:`RepairReport` presents the repair as a reviewable diff of
guarded commands.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..protocol.predicate import Predicate
from ..protocol.protocol import Protocol
from .synthesizer import PortfolioResult, synthesize


@dataclass
class RepairReport:
    """Outcome of a repair attempt, with a printable action diff."""

    original: Protocol
    portfolio: PortfolioResult

    @property
    def success(self) -> bool:
        return self.portfolio.success

    @property
    def repaired(self) -> Protocol:
        return self.portfolio.result.protocol

    @property
    def was_already_correct(self) -> bool:
        return self.success and self.portfolio.result.pass_completed == 0

    def diff(self) -> str:
        """Removed/added behaviour as guarded commands (unified-diff style)."""
        from ..dsl.pretty import process_actions

        result = self.portfolio.result
        lines: list[str] = []
        for j in range(self.original.n_processes):
            removed = result.removed_groups[j]
            added = result.added_groups[j]
            if not removed and not added:
                continue
            lines.append(f"{self.original.topology[j].name}:")
            for action in process_actions(self.original, j, removed):
                lines.append(f"  - {action}")
            for action in process_actions(self.repaired, j, added):
                lines.append(f"  + {action}")
        return "\n".join(lines) if lines else "(no changes)"

    def summary(self) -> str:
        result = self.portfolio.result
        if self.was_already_correct:
            return f"{self.original.name!r} was already stabilizing; no repair needed"
        status = "REPAIRED" if self.success else "REPAIR FAILED"
        return (
            f"{status}: -{result.n_removed} groups removed, "
            f"+{result.n_added} recovery groups added "
            f"(pass {result.pass_completed})\n" + self.diff()
        )


def repair(
    protocol: Protocol,
    invariant: Predicate,
    *,
    max_attempts: int | None = None,
) -> RepairReport:
    """Repair a (possibly flawed) protocol into a verified stabilizing one.

    Raises :class:`UnresolvableCycleError` when a non-progress cycle's
    groups have groupmates inside ``I`` — removing them would change the
    fault-free behaviour, so no repair satisfying Problem III.1 exists.
    """
    portfolio = synthesize(protocol, invariant, max_attempts=max_attempts)
    return RepairReport(original=protocol, portfolio=portfolio)
