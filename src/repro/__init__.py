"""repro — a reproduction of "A Lightweight Method for Automated Design of
Convergence" (Ebnenasir & Farahat, IPDPS 2011): the STSyn convergence
synthesizer, its protocol model, verification engine, BDD substrate and
case-study library.

Quickstart::

    from repro import token_ring, add_strong_convergence, check_solution

    protocol, invariant = token_ring(k=4, domain=3)
    result = add_strong_convergence(protocol, invariant)
    assert result.success
    assert check_solution(protocol, result.protocol, invariant).ok
"""

from .cert import (
    CertificateError,
    CertificateViolation,
    ConvergenceCertificate,
    check_certificate,
    check_certificate_symbolic,
    emit_certificate,
    validate_certificate,
)
from .core import (
    HeuristicFailure,
    PortfolioResult,
    HeuristicOptions,
    NoStabilizingVersionError,
    NotClosedError,
    RankingResult,
    SoundnessError,
    SynthesisError,
    SynthesisResult,
    UnresolvableCycleError,
    add_strong_convergence,
    compute_ranks,
    paper_default_schedule,
    synthesize,
    synthesize_weak,
)
from .metrics import SynthesisStats
from .trace import NULL_TRACER, Tracer, current_tracer, trace_report, use_tracer
from .protocol import (
    Action,
    Predicate,
    ProcessSpec,
    Protocol,
    StateSpace,
    Topology,
    Variable,
    make_variables,
    ring_topology,
)
from .protocols import (
    coloring,
    dijkstra_stabilizing_token_ring,
    gouda_acharya_matching,
    matching,
    token_ring,
    two_ring,
)
from .verify import (
    analyze_stabilization,
    check_solution,
    strongly_converges,
    weakly_converges,
)

__version__ = "1.0.0"

__all__ = [
    "Action",
    "CertificateError",
    "CertificateViolation",
    "ConvergenceCertificate",
    "HeuristicFailure",
    "NULL_TRACER",
    "Tracer",
    "HeuristicOptions",
    "NoStabilizingVersionError",
    "NotClosedError",
    "Predicate",
    "ProcessSpec",
    "Protocol",
    "PortfolioResult",
    "RankingResult",
    "SoundnessError",
    "StateSpace",
    "SynthesisError",
    "SynthesisResult",
    "SynthesisStats",
    "Topology",
    "UnresolvableCycleError",
    "Variable",
    "__version__",
    "add_strong_convergence",
    "analyze_stabilization",
    "check_certificate",
    "check_certificate_symbolic",
    "check_solution",
    "coloring",
    "emit_certificate",
    "compute_ranks",
    "current_tracer",
    "dijkstra_stabilizing_token_ring",
    "gouda_acharya_matching",
    "make_variables",
    "matching",
    "paper_default_schedule",
    "ring_topology",
    "strongly_converges",
    "synthesize",
    "synthesize_weak",
    "token_ring",
    "trace_report",
    "two_ring",
    "use_tracer",
    "validate_certificate",
    "weakly_converges",
]
