"""The three-pass strong-convergence heuristic (Section V).

Preprocessing
    * fail if ``δp`` has a non-progress cycle in ``¬I`` whose transitions
      have groupmates in ``δp|I`` (they could never be removed);
    * otherwise eliminate input cycles by removing the participating groups
      (they lie entirely outside I, so ``δp|I`` is untouched) — the paper's
      text only covers the failing case; this removal is the unique way to
      satisfy Proposition II.1 without touching ``δp|I`` and is flagged in
      DESIGN.md;
    * run ``ComputeRanks``; rank-∞ states mean *no* stabilizing version
      exists (complete negative answer).

Pass 1  adds recovery from deadlock states in ``Rank[i]`` to ``Rank[i-1]``
        under constraints C1-C4.
Pass 2  relaxes C4 (groupmates may reach deadlock states).
Pass 3  relaxes C2 (recovery from remaining deadlocks to anywhere).

Each pass returns as soon as all deadlocks are resolved; if deadlocks remain
after pass 3 the heuristic declares failure (it is sound, not complete).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..explicit.scc import scc_labels
from ..faults.runtime import fault_point
from ..metrics.stats import SynthesisStats
from ..protocol.predicate import Predicate
from ..protocol.protocol import Protocol
from .add_convergence import SynthesisState, add_convergence
from .exceptions import (
    HeuristicFailure,
    NoStabilizingVersionError,
    SynthesisCancelled,
    UnresolvableCycleError,
)
from .ranking import compute_ranks
from .result import SynthesisResult
from .schedules import paper_default_schedule, validate_schedule
from .weak import check_closure


@dataclass(frozen=True)
class HeuristicOptions:
    """Knobs for ablation studies; defaults reproduce the paper's heuristic."""

    enable_pass1: bool = True
    enable_pass2: bool = True
    enable_pass3: bool = True
    #: resolve cycles of the *input* protocol by removing their groups
    remove_input_cycles: bool = True
    #: skip Identify_Resolve_Cycles entirely (unsound; ablation only)
    disable_cycle_resolution: bool = False
    #: cycle-resolution mode: "batch" (default, the paper's literal
    #: semantics), "sequential" or "hybrid" — see SynthesisState
    cycle_resolution_mode: str = "batch"
    #: raise on failure instead of returning a failed result
    raise_on_failure: bool = False
    #: artificial delay (seconds) before the run starts — simulates the
    #: paper's heterogeneous one-machine-per-schedule setting; used by the
    #: parallel-portfolio cancellation tests and benchmarks
    stall_seconds: float = 0.0


def _check_cancel(cancel) -> None:
    """Raise :class:`SynthesisCancelled` if the token has fired.

    ``cancel`` is any object with ``is_set() -> bool`` (a
    ``multiprocessing.Event``, a :class:`repro.parallel.CancelToken`, ...)
    and optionally a ``reason`` attribute/method naming why.
    """
    if cancel is None or not cancel.is_set():
        return
    reason = getattr(cancel, "reason", "cancelled")
    if callable(reason):
        reason = reason()
    raise SynthesisCancelled(
        f"synthesis cancelled cooperatively ({reason})", reason=str(reason)
    )


def _interruptible_sleep(seconds: float, cancel) -> None:
    """``time.sleep`` in short slices so a stalled run still observes
    cancellation (the paper's slow heterogeneous machines should not need a
    hard kill to stop)."""
    deadline = time.monotonic() + seconds
    while True:
        _check_cancel(cancel)
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return
        time.sleep(min(0.05, remaining))


def find_input_cycle_offenders(state: SynthesisState) -> list[tuple[int, int, int]]:
    """Groups of ``δp`` participating in a non-progress cycle in ``¬I``.

    Raises :class:`UnresolvableCycleError` when such a group has groupmates
    starting in ``I`` (it could never be removed without changing ``δp|I``).
    Schedule-independent — the portfolio precompute runs this once and ships
    the offender list to every worker.
    """
    with state.stats.timer("scc"):
        src, dst = state.pss_view().edge_arrays(state.not_i)
        comp_id, sizes = scc_labels(src, dst, state.space.size)
    if not len(sizes):
        return []
    state.stats.record_sccs(sizes.tolist())
    # a transition is on a cycle only when both endpoints are in the *same*
    # cyclic SCC — endpoints in two different SCCs merely connect them
    offenders: list[tuple[int, int, int]] = []
    for j, gs in enumerate(list(state.pss_groups)):
        table = state.protocol.tables[j]
        for rcode, wcode in sorted(gs):
            src, dst = table.pairs(rcode, wcode)
            src_comp = comp_id[src]
            inside = (src_comp >= 0) & (src_comp == comp_id[dst])
            if not inside.any():
                continue
            if state.rcode_touches_i[j][rcode]:
                raise UnresolvableCycleError(
                    f"input protocol {state.protocol.name!r} has a "
                    f"non-progress cycle in ¬I through group "
                    f"({j},{rcode},{wcode}), whose groupmates start in I — "
                    f"cannot be removed without changing δp|I"
                )
            offenders.append((j, rcode, wcode))
    return offenders


def _preprocess_input_cycles(
    state: SynthesisState,
    options: HeuristicOptions,
    offenders: Sequence[tuple[int, int, int]] | None = None,
) -> None:
    """Detect/eliminate non-progress cycles already present in ``δp | ¬I``.

    ``offenders`` short-circuits detection with a precomputed list (the
    shared-precompute portfolio path); removal stays per-run because it is
    gated on each config's ``options.remove_input_cycles``.
    """
    if offenders is None:
        offenders = find_input_cycle_offenders(state)
    if not offenders:
        return
    if not options.remove_input_cycles:
        raise UnresolvableCycleError(
            f"input protocol {state.protocol.name!r} has non-progress "
            f"cycles in ¬I and cycle removal is disabled"
        )
    for j, rcode, wcode in offenders:
        state.remove_group(j, rcode, wcode)


def add_strong_convergence(
    protocol: Protocol,
    invariant: Predicate,
    *,
    schedule: Sequence[int] | None = None,
    options: HeuristicOptions | None = None,
    stats: SynthesisStats | None = None,
    precompute=None,
    cancel=None,
) -> SynthesisResult:
    """Run the full heuristic for one recovery schedule.

    Raises :class:`~repro.core.exceptions.NotClosedError` if ``I`` is not
    closed in ``protocol``; :class:`NoStabilizingVersionError` /
    :class:`UnresolvableCycleError` on the complete negative answers.  A
    plain heuristic failure is returned as a result with
    ``success == False`` (or raised, with ``options.raise_on_failure``).

    ``precompute`` (a :class:`repro.parallel.PortfolioPrecompute` or anything
    shaped like one) supplies the schedule-independent preprocessing — closure
    check, input-cycle offenders, C1 cache, out-degree counts and the full
    ``ComputeRanks`` result — so portfolio members skip straight to the
    schedule-specific passes.  ``cancel`` is a cooperative cancellation token
    (``is_set() -> bool``) observed at pass and rank-level boundaries;
    tripping it raises :class:`SynthesisCancelled`.
    """
    options = options or HeuristicOptions()
    stats = stats if stats is not None else SynthesisStats()
    k = protocol.n_processes
    schedule = (
        validate_schedule(schedule, k)
        if schedule is not None
        else paper_default_schedule(k)
    )

    if options.stall_seconds > 0:
        _interruptible_sleep(options.stall_seconds, cancel)

    with stats.timer("total"):
        if precompute is None:
            check_closure(protocol, invariant)
        state = SynthesisState(
            protocol,
            invariant,
            stats,
            resolve_cycles=not options.disable_cycle_resolution,
            cycle_resolution_mode=options.cycle_resolution_mode,
            init_out_counts=(
                precompute.out_counts if precompute is not None else None
            ),
            init_rcode_touches_i=(
                precompute.rcode_touches_i if precompute is not None else None
            ),
        )

        # ---------------- preprocessing ----------------
        with stats.tracer.span("heuristic.preprocess"):
            _preprocess_input_cycles(
                state,
                options,
                offenders=(
                    precompute.offenders if precompute is not None else None
                ),
            )
        if precompute is not None:
            ranking = precompute.ranking
            stats.bump("precompute_reused")
        else:
            ranking = compute_ranks(protocol, invariant, stats=stats)
        if not ranking.admits_stabilization():
            raise NoStabilizingVersionError(
                f"{ranking.n_infinite} states have rank ∞; no stabilizing "
                f"version of {protocol.name!r} exists (Theorem IV.1)",
                n_unreachable=ranking.n_infinite,
            )

        def make_result(success: bool, pass_no: int) -> SynthesisResult:
            remaining = Predicate(state.space, state.deadlock_mask())
            return SynthesisResult(
                success=success,
                protocol=state.result_protocol(),
                invariant=invariant,
                ranking=ranking,
                stats=stats,
                schedule=schedule,
                added_groups=[set(g) for g in state.added_groups],
                removed_groups=[set(g) for g in state.removed_groups],
                pass_completed=pass_no,
                remaining_deadlocks=remaining if not success else None,
                input_protocol=protocol,
            )

        if not state.deadlock_mask().any():
            # Preprocessing alone may leave the protocol converging (e.g. a
            # protocol that was already stabilizing).
            return make_result(True, 0)

        # ---------------- passes 1 and 2 ----------------
        for pass_no, enabled in ((1, options.enable_pass1), (2, options.enable_pass2)):
            if not enabled:
                continue
            _check_cancel(cancel)
            fault_point(f"pass.{pass_no}")
            stats.bump(f"pass{pass_no}_runs")
            done = False
            with stats.tracer.span(f"heuristic.pass{pass_no}") as span:
                for i in range(1, ranking.max_rank + 1):
                    _check_cancel(cancel)
                    from_mask = state.deadlock_mask() & ranking.rank_mask(i)
                    if not from_mask.any():
                        continue
                    if add_convergence(
                        state, from_mask, ranking.rank_mask(i - 1), schedule, pass_no
                    ):
                        done = True
                        break
                done = done or not state.deadlock_mask().any()
                span["done"] = done
            if done:
                return make_result(True, pass_no)

        # ---------------- pass 3 ----------------
        if options.enable_pass3:
            _check_cancel(cancel)
            fault_point("pass.3")
            stats.bump("pass3_runs")
            with stats.tracer.span("heuristic.pass3") as span:
                from_mask = state.deadlock_mask()
                to_mask = np.ones(state.space.size, dtype=bool)
                done = add_convergence(state, from_mask, to_mask, schedule, pass_no=3)
                done = done or not state.deadlock_mask().any()
                span["done"] = done
            if done:
                return make_result(True, 3)

        result = make_result(False, 3)
    if options.raise_on_failure:
        raise HeuristicFailure(
            f"{result.remaining_deadlocks.count()} deadlock states remain "
            f"after all passes for {protocol.name!r} "
            f"(schedule {schedule})",
            remaining_deadlocks=result.remaining_deadlocks.count(),
        )
    return result
