"""STSyn driver: a portfolio of heuristic instances (paper Figure 1).

From one illegitimate state several recovery schedules may lead to a
solution; the lightweight method instantiates one heuristic run per schedule
(the paper suggests one machine per schedule).  Our driver generalises the
portfolio to (schedule × cycle-resolution mode) configurations, runs them
until the first verified success, and reports the best failure otherwise.
:mod:`repro.parallel` fans the same portfolio out over worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from ..metrics.stats import SynthesisStats
from ..protocol.predicate import Predicate
from ..protocol.protocol import Protocol
from ..trace.tracer import NullTracer, Tracer
from .exceptions import HeuristicFailure, SoundnessError
from .heuristic import HeuristicOptions, add_strong_convergence
from .result import SynthesisResult
from .schedules import Schedule, paper_default_schedule, rotation_schedules


@dataclass(frozen=True)
class SynthesisConfig:
    """One portfolio entry: a schedule plus heuristic options."""

    schedule: Schedule
    options: HeuristicOptions

    def describe(self) -> str:
        return (
            f"schedule={self.schedule} "
            f"mode={self.options.cycle_resolution_mode}"
        )


def default_portfolio(
    k: int,
    *,
    schedules: Sequence[Schedule] | None = None,
    modes: Sequence[str] = ("batch", "sequential"),
    base_options: HeuristicOptions | None = None,
) -> list[SynthesisConfig]:
    """The default configuration portfolio.

    Modes vary fastest (the cheap re-run), then schedules: the paper's
    default schedule first, then the remaining rotations.
    """
    base = base_options or HeuristicOptions()
    if schedules is None:
        first = paper_default_schedule(k)
        rest = [s for s in rotation_schedules(k) if s != first]
        schedules = [first, *rest]
    return [
        SynthesisConfig(tuple(s), replace(base, cycle_resolution_mode=m))
        for s in schedules
        for m in modes
    ]


@dataclass
class PortfolioResult:
    """Outcome of a portfolio run: the winner plus every attempted config."""

    result: SynthesisResult
    config: SynthesisConfig
    attempts: list[tuple[SynthesisConfig, bool, int]]

    @property
    def success(self) -> bool:
        return self.result.success

    def summary(self) -> str:
        lines = [
            f"portfolio attempts: {len(self.attempts)}",
            f"winning config    : {self.config.describe()}"
            if self.success
            else "no configuration succeeded",
        ]
        lines.append(self.result.summary())
        return "\n".join(lines)


def check_winner(
    protocol: Protocol,
    invariant: Predicate,
    result,
    where: str,
    tracer: Tracer | NullTracer,
) -> None:
    """Certify a claimed success: emit its certificate and have the
    independent checker (:func:`repro.cert.check_certificate`) accept it.

    ``result`` is a strong :class:`SynthesisResult`, whose longest-path
    rank is the one proof that ``δpss|¬I`` is acyclic and deadlock-free,
    or a :class:`~repro.core.weak.WeakSynthesisResult`, whose BFS rank
    proves every state reaches I.  The checker re-checks the rank per
    transition, pinned to the result's groups.  The result keeps the
    certificate, so its ``certificate()`` returns it without emitting
    again.

    A winner without a strong ranking, or whose certificate the checker
    rejects, is a bug, never a failed attempt: it raises
    :class:`SoundnessError` (``where`` names the run) in the sequential
    portfolio, in every parallel worker and in weak synthesis alike.
    """
    from ..cert import (
        CertificateEmissionError,
        CertificateViolation,
        check_certificate,
    )

    try:
        with tracer.span("cert.emit"):
            cert = result.certificate()
    except CertificateEmissionError as exc:
        raise SoundnessError(
            f"synthesis claimed success but {exc} under {where}"
        ) from exc
    tracer.count("cert.emitted")
    try:
        with tracer.span("cert.check"):
            check_certificate(
                protocol, invariant, cert, expected_pss=result.protocol.groups
            )
    except CertificateViolation as violation:
        raise SoundnessError(
            f"synthesis claimed success but its certificate was rejected: "
            f"[{violation.kind}] {violation} under {where}",
            violation=violation,
        ) from violation
    result.checked_certificate = cert


def synthesize(
    protocol: Protocol,
    invariant: Predicate,
    *,
    configs: Iterable[SynthesisConfig] | None = None,
    max_attempts: int | None = None,
    raise_on_failure: bool = False,
    tracer: Tracer | NullTracer | None = None,
) -> PortfolioResult:
    """Run heuristic instances until one produces a verified solution.

    Every claimed success is certified and re-checked by
    :func:`check_winner` — "correct by construction" is nice, "correct by
    construction *and* checked" is nicer.  The failure result returned
    when the whole portfolio fails is the attempt with the fewest
    remaining deadlock states.  A ``tracer`` profiles every attempt
    (one ``portfolio.attempt`` span each, with the per-pass spans nested
    under the attempt's stats).

    The schedule-independent preprocessing (closure check, input-cycle SCC
    pass, C1 cache, ``ComputeRanks``) is computed **once** and shared across
    all attempts — the same :class:`~repro.parallel.PortfolioPrecompute` the
    multi-process portfolio ships to its workers.
    """
    from ..parallel.precompute import precompute_portfolio

    config_list = (
        list(configs)
        if configs is not None
        else default_portfolio(protocol.n_processes)
    )
    if max_attempts is not None:
        config_list = config_list[:max_attempts]
    if not config_list:
        raise ValueError("empty portfolio")

    precompute = precompute_portfolio(
        protocol, invariant, stats=SynthesisStats.traced(tracer)
    )

    attempts: list[tuple[SynthesisConfig, bool, int]] = []
    best: tuple[int, SynthesisResult, SynthesisConfig] | None = None
    for index, config in enumerate(config_list):
        stats = SynthesisStats.traced(tracer)
        with stats.tracer.span(
            "portfolio.attempt", index=index, config=config.describe()
        ) as span:
            result = add_strong_convergence(
                protocol,
                invariant,
                schedule=config.schedule,
                options=replace(config.options, raise_on_failure=False),
                stats=stats,
                precompute=precompute,
            )
            if result.success:
                check_winner(
                    protocol, invariant, result, config.describe(), stats.tracer
                )
            remaining = (
                0
                if result.success
                else result.remaining_deadlocks.count()
            )
            span["success"] = result.success
            span["remaining_deadlocks"] = remaining
        stats.bump("portfolio_attempts")
        attempts.append((config, result.success, remaining))
        if result.success:
            return PortfolioResult(result=result, config=config, attempts=attempts)
        if best is None or remaining < best[0]:
            best = (remaining, result, config)

    assert best is not None
    if raise_on_failure:
        raise HeuristicFailure(
            f"all {len(attempts)} portfolio configurations failed for "
            f"{protocol.name!r}; best left {best[0]} deadlocks",
            remaining_deadlocks=best[0],
        )
    return PortfolioResult(result=best[1], config=best[2], attempts=attempts)
