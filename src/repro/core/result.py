"""Synthesis result object."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..metrics.stats import SynthesisStats
from ..protocol.predicate import Predicate
from ..protocol.protocol import Protocol
from .ranking import RankingResult

if TYPE_CHECKING:
    from ..cert.certificate import ConvergenceCertificate


@dataclass
class SynthesisResult:
    """Outcome of one strong-convergence heuristic run (one schedule).

    ``success`` implies the returned ``protocol`` is correct by construction;
    the synthesizer (:func:`~repro.core.synthesizer.check_winner`) also
    emits its strong certificate and has the independent certificate checker
    accept it before reporting it, then keeps that certificate here.
    """

    success: bool
    protocol: Protocol
    invariant: Predicate
    ranking: RankingResult
    stats: SynthesisStats
    schedule: tuple[int, ...]
    #: groups added for recovery, per process
    added_groups: list[set[tuple[int, int]]]
    #: original groups removed during preprocessing cycle elimination
    removed_groups: list[set[tuple[int, int]]]
    #: 0 = resolved in preprocessing, else the pass (1-3) that finished
    pass_completed: int
    #: deadlock states remaining on failure
    remaining_deadlocks: Predicate | None = None
    verified: bool = False
    #: the unmodified input protocol — what a certificate is checked against
    input_protocol: Protocol | None = None
    #: the strong certificate ``check_winner`` emitted and checked;
    #: :meth:`certificate` returns it instead of emitting again
    checked_certificate: "ConvergenceCertificate | None" = None

    @property
    def n_added(self) -> int:
        return sum(len(g) for g in self.added_groups)

    @property
    def n_removed(self) -> int:
        return sum(len(g) for g in self.removed_groups)

    def added_group_ids(self) -> list[tuple[int, int, int]]:
        return [
            (j, r, w)
            for j, gs in enumerate(self.added_groups)
            for (r, w) in sorted(gs)
        ]

    def removed_group_ids(self) -> list[tuple[int, int, int]]:
        return [
            (j, r, w)
            for j, gs in enumerate(self.removed_groups)
            for (r, w) in sorted(gs)
        ]

    def certificate(self):
        """The :class:`~repro.cert.ConvergenceCertificate` of this run.

        Only available on success.  The witness is the longest-path ranking
        over the synthesized ``pss`` (not the BFS rank — pass 3 may add
        transitions that climb in BFS rank).  A winner of ``synthesize`` or
        of a portfolio worker returns the certificate its winner check
        kept; a bare heuristic result emits one here.
        """
        from ..cert.emit import CertificateEmissionError, emit_certificate

        if self.checked_certificate is not None:
            return self.checked_certificate
        if not self.success:
            raise CertificateEmissionError(
                "cannot certify an unsuccessful synthesis result"
            )
        original = self.input_protocol
        if original is None:
            # reconstruct the input from the recorded delta
            original = self.protocol.with_groups(
                [
                    (set(gs) - self.added_groups[j]) | self.removed_groups[j]
                    for j, gs in enumerate(self.protocol.groups)
                ],
                name=self.protocol.name,
            )
        return emit_certificate(
            original,
            self.invariant,
            self.protocol,
            mode="strong",
            schedule=self.schedule,
            added=self.added_group_ids(),
            removed=self.removed_group_ids(),
        )

    def summary(self) -> str:
        space = self.protocol.space
        lines = [
            f"protocol          : {self.protocol.name}",
            f"state space       : {space.size} states, "
            f"{self.protocol.n_processes} processes",
            f"outcome           : "
            + ("SUCCESS" if self.success else "FAILURE"),
            f"pass completed    : {self.pass_completed}",
            f"recovery groups   : +{self.n_added} added, "
            f"-{self.n_removed} removed",
            f"max rank (M)      : {self.ranking.max_rank}",
        ]
        if self.remaining_deadlocks is not None and not self.success:
            lines.append(
                f"remaining deadlocks: {self.remaining_deadlocks.count()}"
            )
        lines.append(self.stats.summary())
        return "\n".join(lines)
