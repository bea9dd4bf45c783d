"""Sound and complete synthesis of *weak* convergence (Theorem IV.1).

``p_im`` — the input protocol plus all groups entirely outside I — is weakly
stabilizing iff every state has a finite rank.  This module packages that
fact as a synthesis routine, plus a minimisation pass that prunes groups a
weakly-converging protocol does not need (the paper returns ``p_im`` as-is;
pruning is our quality-of-life extension, clearly flagged).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..metrics.stats import SynthesisStats
from ..protocol.predicate import Predicate
from ..protocol.protocol import Protocol
from .exceptions import NoStabilizingVersionError, NotClosedError
from .ranking import RankingResult, compute_ranks

if TYPE_CHECKING:
    from ..cert.certificate import ConvergenceCertificate


def check_closure(protocol: Protocol, invariant: Predicate) -> None:
    """Raise :class:`NotClosedError` unless ``I`` is closed in the protocol."""
    mask = invariant.mask
    for gid in protocol.iter_group_ids():
        src, dst = protocol.group_pairs(gid)
        escaping = mask[src] & ~mask[dst]
        if escaping.any():
            pos = int(np.argmax(escaping))
            s0, s1 = int(src[pos]), int(dst[pos])
            space = protocol.space
            raise NotClosedError(
                f"I is not closed in {protocol.name!r}: transition "
                f"{space.format_state(s0)} -> {space.format_state(s1)} "
                f"(group {gid}) leaves I",
                transition=(s0, s1),
            )


@dataclass
class WeakSynthesisResult:
    """A weakly stabilizing protocol together with its ranking evidence."""

    protocol: Protocol
    ranking: RankingResult
    stats: SynthesisStats
    #: the weak certificate ``check_winner`` emitted and checked;
    #: :meth:`certificate` returns it instead of emitting again
    checked_certificate: "ConvergenceCertificate | None" = None

    def certificate(self):
        """The weak :class:`~repro.cert.ConvergenceCertificate`.

        The BFS rank of ``ComputeRanks`` *is* a valid weak witness here:
        every ranked state keeps its shortest-path decreasing successor in
        the result (``p_im`` contains all of them; the minimised variant
        keeps every group that contributes one).  A result of
        :func:`synthesize_weak` returns the certificate its check kept.
        """
        if self.checked_certificate is not None:
            return self.checked_certificate
        from ..cert.emit import emit_certificate

        original = self.ranking.protocol
        added = [
            (j, r, w)
            for j, gs in enumerate(self.protocol.groups)
            for (r, w) in sorted(set(gs) - set(original.groups[j]))
        ]
        return emit_certificate(
            original,
            self.ranking.invariant,
            self.protocol,
            mode="weak",
            schedule=None,
            added=added,
            removed=[],
            rank=self.ranking.rank,
        )


def synthesize_weak(
    protocol: Protocol,
    invariant: Predicate,
    *,
    minimize: bool = False,
    stats: SynthesisStats | None = None,
) -> WeakSynthesisResult:
    """Add weak convergence to ``I`` — sound and complete.

    Raises :class:`NoStabilizingVersionError` when states with rank ∞ exist
    (then *no* stabilizing version exists, weak or strong).  With
    ``minimize`` the result keeps, per state, only groups that contain at
    least one rank-decreasing transition, yielding a much smaller — still
    weakly converging — protocol (extension; the paper returns ``p_im``).

    The result is checked by its weak certificate through
    :func:`~repro.core.synthesizer.check_winner` and keeps it; a
    certificate the checker rejects raises :class:`SoundnessError`.
    """
    stats = stats if stats is not None else SynthesisStats()
    with stats.timer("total"):
        check_closure(protocol, invariant)
        ranking = compute_ranks(protocol, invariant, stats=stats)
        if not ranking.admits_stabilization():
            raise NoStabilizingVersionError(
                f"{ranking.n_infinite} states cannot reach I under any "
                f"read/write-respecting recovery; no stabilizing version of "
                f"{protocol.name!r} exists (Theorem IV.1)",
                n_unreachable=ranking.n_infinite,
            )
        if not minimize:
            with stats.tracer.span("weak.pim_protocol"):
                result = ranking.pim_protocol()
        else:
            with stats.tracer.span("weak.minimize") as span:
                rank = ranking.rank
                kept: list[set[tuple[int, int]]] = []
                for j, gs in enumerate(ranking.pim_groups):
                    table = protocol.tables[j]
                    keep: set[tuple[int, int]] = set(protocol.groups[j])
                    for rcode, wcode in gs:
                        if (rcode, wcode) in keep:
                            continue
                        src, dst = table.pairs(rcode, wcode)
                        decreasing = (rank[src] > 0) & (rank[dst] == rank[src] - 1)
                        if decreasing.any():
                            keep.add((rcode, wcode))
                    kept.append(keep)
                span["kept_groups"] = sum(len(g) for g in kept)
                result = protocol.with_groups(kept, name=f"{protocol.name}_weak")
        weak = WeakSynthesisResult(protocol=result, ranking=ranking, stats=stats)
        # local import: the synthesizer reaches this module via the heuristic
        from .synthesizer import check_winner

        check_winner(protocol, invariant, weak, "mode=weak", stats.tracer)
    return weak
