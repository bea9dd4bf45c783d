"""Exceptions raised by the synthesis core."""

from __future__ import annotations


class SynthesisError(Exception):
    """Base class for synthesis problems."""


class NotClosedError(SynthesisError):
    """The given invariant ``I`` is not closed in the input protocol.

    Problem III.1 requires closure as a precondition; the offending
    transition is reported for diagnosis.
    """

    def __init__(self, message: str, transition: tuple[int, int] | None = None):
        super().__init__(message)
        self.transition = transition


class NoStabilizingVersionError(SynthesisError):
    """``ComputeRanks`` found states with rank ∞.

    By Theorem IV.1 this is a *complete* negative answer: no (weakly or
    strongly) stabilizing version of the input protocol exists under the
    given read/write restrictions.
    """

    def __init__(self, message: str, n_unreachable: int = 0):
        super().__init__(message)
        self.n_unreachable = n_unreachable


class UnresolvableCycleError(SynthesisError):
    """The input protocol has a non-progress cycle in ``¬I`` whose transitions
    have groupmates in ``δp|I`` — removing them would change ``δp|I``, so the
    heuristic exits (preprocessing step, Section V)."""


class SoundnessError(SynthesisError):
    """An internal consistency check failed: a bug, never an answer.

    Raised when a strong winner the heuristic claimed has no strong
    certificate, or when a strong or weak winner's certificate fails the
    independent checker (``violation`` holds the
    :class:`~repro.cert.CertificateViolation`, with its kind and
    counterexample), and when a state reported inside a cyclic SCC has no
    successor in that SCC (``state`` holds it).  Winners are checked by
    their certificate only; ``check_solution`` runs for ``stsyn verify``
    and ``analyze`` and in the test and fuzz oracles.
    """

    def __init__(self, message: str, *, violation=None, state: int | None = None):
        super().__init__(message)
        self.violation = violation
        self.state = state


class SynthesisCancelled(SynthesisError):
    """The run observed its cancellation token at a pass/rank boundary.

    Raised cooperatively by :func:`~repro.core.heuristic.add_strong_convergence`
    when the portfolio scheduler signals that a winner has been verified (or a
    soft deadline expired), so losing workers stop burning CPU without waiting
    for a hard ``pool.terminate``.
    """

    def __init__(self, message: str, reason: str = "cancelled"):
        super().__init__(message)
        self.reason = reason


class PortfolioError(SynthesisError):
    """The portfolio race ended without a single reportable outcome.

    Raised instead of an opaque ``IndexError`` when every run was dropped as
    race-cancelled (or crashed out before producing anything), so callers can
    distinguish "the race broke" from "the heuristic failed".
    """


class TransportError(SynthesisError):
    """A worker transport failed at the infrastructure level.

    Raised by :mod:`repro.parallel.transport` for connection loss, torn or
    oversized frames, unserialisable jobs and reconnect exhaustion.  Unlike
    the heuristic's *answer* exceptions (:class:`NotClosedError`,
    :class:`NoStabilizingVersionError`, ...) a transport error never means
    the synthesis question was answered — the supervisor treats it like a
    crash and requeues the config instead of re-raising.
    """


class HeuristicFailure(SynthesisError):
    """All three passes completed but deadlock states remain.

    The heuristic is sound but incomplete (Section V, "Comment on
    completeness"); a stabilizing version may still exist, e.g. under a
    different recovery schedule.
    """

    def __init__(self, message: str, remaining_deadlocks: int = 0):
        super().__init__(message)
        self.remaining_deadlocks = remaining_deadlocks
