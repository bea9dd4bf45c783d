"""Synthesis core: ranking, weak synthesis, and the three-pass heuristic."""

from .add_convergence import (
    SynthesisState,
    add_convergence,
    add_recovery,
    identify_resolve_cycles,
)
from .exceptions import (
    HeuristicFailure,
    NoStabilizingVersionError,
    NotClosedError,
    SoundnessError,
    SynthesisError,
    UnresolvableCycleError,
)
from .heuristic import HeuristicOptions, add_strong_convergence
from .ranking import INF_RANK, RankingResult, compute_pim_groups, compute_ranks
from .repair import RepairReport, repair
from .result import SynthesisResult
from .synthesizer import (
    PortfolioResult,
    SynthesisConfig,
    default_portfolio,
    synthesize,
)
from .schedules import (
    Schedule,
    all_schedules,
    identity_schedule,
    paper_default_schedule,
    random_schedules,
    reversed_schedule,
    rotation_schedules,
    validate_schedule,
)
from .weak import WeakSynthesisResult, check_closure, synthesize_weak

__all__ = [
    "HeuristicFailure",
    "HeuristicOptions",
    "INF_RANK",
    "NoStabilizingVersionError",
    "NotClosedError",
    "PortfolioResult",
    "RankingResult",
    "RepairReport",
    "Schedule",
    "SynthesisConfig",
    "SoundnessError",
    "SynthesisError",
    "SynthesisResult",
    "SynthesisState",
    "UnresolvableCycleError",
    "WeakSynthesisResult",
    "add_convergence",
    "add_recovery",
    "add_strong_convergence",
    "all_schedules",
    "check_closure",
    "compute_pim_groups",
    "compute_ranks",
    "default_portfolio",
    "identify_resolve_cycles",
    "identity_schedule",
    "paper_default_schedule",
    "random_schedules",
    "repair",
    "reversed_schedule",
    "rotation_schedules",
    "synthesize",
    "synthesize_weak",
    "validate_schedule",
]
