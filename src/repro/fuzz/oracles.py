"""The differential oracle bank.

Each oracle inspects one redundancy seam of the system and reports
:class:`Finding`s when the two sides of the seam disagree:

``verdict``      explicit vs symbolic full stabilization verdict
                 (closure, deadlocks, cycles, unrecoverable states);
``ranks``        ``ComputeRanks`` rank partition, explicit vs symbolic;
``sccs``         cyclic SCCs of ``δp | ¬I``: compiled Tarjan vs Gentilini
                 vs Xie-Beerel vs lockstep, and vs the Identify_Resolve_Cycles
                 path on a seeded split into an acyclic base and candidates;
``strong_weak``  Theorem IV.1 consistency: weak synthesis succeeds iff the
                 ranking admits stabilization, strong success implies weak,
                 weak winners re-verified;
``engines``      single-config strong synthesis, explicit vs symbolic —
                 same outcome, same pass, same synthesized group sets;
``cert``         every winner certified, the certificate accepted by the
                 independent checker on *both* engines, and the winner
                 re-verified by ``check_solution``; strong emission on the
                 *input* protocol fails iff ``check_solution`` says it does
                 not strongly converge (the cycle and deadlock branches);
``daemons``      synthesized strong winners must converge from every probed
                 state under random, round-robin and adversarial daemons
                 within ``|S|`` steps (acyclicity outside ``I`` bounds every
                 schedule);
``portfolio``    serial portfolio vs multi-process supervised race — same
                 success verdict (opt-in: spawns worker processes).

Oracles share one per-instance memo (``instance.cache``) so the expensive
artifacts — symbolic encoding, rankings, synthesis runs — are computed once
per instance no matter how many oracles consume them.

Deliberate corruption for the mutation-sanity suite enters through
``OracleContext.mutate(site, value)``: a planted
:class:`~repro.fuzz.mutants.Mutation` intercepts a named site (a winner's
group sets, a certificate payload, a symbolic rank partition) and the
suite asserts the oracles catch it.  With no mutation installed the hooks
are identity functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core.exceptions import (
    HeuristicFailure,
    NoStabilizingVersionError,
    NotClosedError,
    UnresolvableCycleError,
)
from ..core.heuristic import add_strong_convergence
from ..core.weak import synthesize_weak
from ..explicit.graph import TransitionView
from ..explicit.scc import (
    cyclic_sccs,
    scc_labels_after_addition,
    scc_members,
)
from ..faults.daemons import daemon_portfolio
from ..faults.simulator import run as simulate
from ..symbolic import (
    SymbolicProtocol,
    add_strong_convergence_symbolic,
    compute_ranks_symbolic,
    cycle_core,
    gentilini_sccs,
    lockstep_sccs,
    xie_beerel_sccs,
)
from ..verify import (
    analyze_stabilization,
    analyze_stabilization_symbolic,
    check_solution,
)
from ..verify.closure import is_closed
from .generate import FuzzInstance

#: exceptions that are *answers* (complete negative results), not crashes —
#: both engines must raise the same one on the same input
_ANSWER_ERRORS = (
    NotClosedError,
    NoStabilizingVersionError,
    UnresolvableCycleError,
    HeuristicFailure,
)


@dataclass(frozen=True)
class Finding:
    """One oracle disagreement on one instance."""

    oracle: str
    message: str
    seed: int = -1
    instance: str = ""

    def describe(self) -> str:
        return f"[{self.oracle}] seed={self.seed} {self.instance}: {self.message}"


@dataclass
class OracleContext:
    """Per-run context handed to every oracle."""

    mutation: "object | None" = None  # a repro.fuzz.mutants.Mutation
    #: cap on simulator steps (defaults to |S| + 1 per run)
    max_sim_steps: int | None = None
    #: start-state sample size for the daemon oracle
    daemon_probes: int = 12
    #: workers used by the (opt-in) portfolio oracle
    portfolio_workers: int = 2

    def mutate(self, site: str, instance: FuzzInstance, value):
        if self.mutation is None:
            return value
        return self.mutation.apply(site, instance, value)


Oracle = Callable[[FuzzInstance, OracleContext], list[Finding]]


def _finding(instance: FuzzInstance, oracle: str, message: str) -> Finding:
    return Finding(
        oracle=oracle,
        message=message,
        seed=instance.seed,
        instance=instance.describe(),
    )


# ----------------------------------------------------------------------
# shared per-instance artifacts (memoised on instance.cache)
# ----------------------------------------------------------------------
def _memo(instance: FuzzInstance, key: str, build: Callable[[], object]):
    if key not in instance.cache:
        instance.cache[key] = build()
    return instance.cache[key]


def _sp(instance: FuzzInstance) -> tuple[SymbolicProtocol, int]:
    def build():
        sp = SymbolicProtocol(instance.protocol)
        return sp, sp.sym.from_predicate(instance.invariant)

    return _memo(instance, "sp", build)


def _explicit_ranking(instance: FuzzInstance):
    from ..core.ranking import compute_ranks

    return _memo(
        instance,
        "ranking",
        lambda: compute_ranks(instance.protocol, instance.invariant),
    )


def _outcome(fn: Callable[[], object]) -> tuple[str, object]:
    """Run an engine entry point; fold answer-class errors into the outcome."""
    try:
        return ("ok", fn())
    except _ANSWER_ERRORS as exc:
        return (type(exc).__name__, exc)


def _strong_explicit(instance: FuzzInstance) -> tuple[str, object]:
    return _memo(
        instance,
        "strong_explicit",
        lambda: _outcome(
            lambda: add_strong_convergence(instance.protocol, instance.invariant)
        ),
    )


def _strong_symbolic(instance: FuzzInstance) -> tuple[str, object]:
    def build():
        # a fresh encoding: the oracle must not share synthesis state with
        # the verdict/rank checks done on the memoised SymbolicProtocol
        sp = SymbolicProtocol(instance.protocol)
        inv = sp.sym.from_predicate(instance.invariant)
        return _outcome(
            lambda: add_strong_convergence_symbolic(
                instance.protocol, inv, sp=sp
            )
        )

    return _memo(instance, "strong_symbolic", build)


def _weak_outcome(instance: FuzzInstance) -> tuple[str, object]:
    return _memo(
        instance,
        "weak",
        lambda: _outcome(
            lambda: synthesize_weak(
                instance.protocol, instance.invariant, minimize=True
            )
        ),
    )


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def oracle_verdict(
    instance: FuzzInstance, ctx: OracleContext
) -> list[Finding]:
    """Full stabilization verdict: explicit vs symbolic engine."""
    protocol, invariant = instance.protocol, instance.invariant
    explicit = analyze_stabilization(protocol, invariant)
    sp, inv = _sp(instance)
    symbolic = analyze_stabilization_symbolic(protocol, inv, sp=sp)
    findings = []
    if explicit.closed != symbolic.closed:
        findings.append(
            _finding(
                instance,
                "verdict",
                f"closure disagrees: explicit={explicit.closed} "
                f"symbolic={symbolic.closed}",
            )
        )
    if explicit.n_deadlocks != symbolic.n_deadlocks:
        findings.append(
            _finding(
                instance,
                "verdict",
                f"deadlock count disagrees: explicit={explicit.n_deadlocks} "
                f"symbolic={symbolic.n_deadlocks}",
            )
        )
    if bool(explicit.n_cycle_states) != symbolic.has_cycles:
        findings.append(
            _finding(
                instance,
                "verdict",
                f"cycle detection disagrees: explicit sees "
                f"{explicit.n_cycle_states} cycle states, symbolic "
                f"has_cycles={symbolic.has_cycles}",
            )
        )
    if explicit.n_unrecoverable != symbolic.n_unrecoverable:
        findings.append(
            _finding(
                instance,
                "verdict",
                f"unrecoverable count disagrees: "
                f"explicit={explicit.n_unrecoverable} "
                f"symbolic={symbolic.n_unrecoverable}",
            )
        )
    return findings


def oracle_ranks(instance: FuzzInstance, ctx: OracleContext) -> list[Finding]:
    """``ComputeRanks``: identical p_im groups and rank partition."""
    explicit = _explicit_ranking(instance)
    sp, inv = _sp(instance)
    symbolic = compute_ranks_symbolic(sp, inv)
    findings = []
    if symbolic.pim_groups != explicit.pim_groups:
        findings.append(
            _finding(instance, "ranks", "p_im group sets differ between engines")
        )
    sym_masks = [sp.sym.to_mask(r) for r in symbolic.ranks]
    sym_masks = ctx.mutate("ranks.symbolic_masks", instance, sym_masks)
    if len(sym_masks) - 1 != explicit.max_rank:
        findings.append(
            _finding(
                instance,
                "ranks",
                f"max rank differs: explicit={explicit.max_rank} "
                f"symbolic={len(sym_masks) - 1}",
            )
        )
    for i, mask in enumerate(sym_masks):
        if i > explicit.max_rank or not np.array_equal(
            mask, explicit.rank_mask(i)
        ):
            findings.append(
                _finding(
                    instance,
                    "ranks",
                    f"Rank[{i}] state set differs between engines",
                )
            )
            break
    if not np.array_equal(
        sp.sym.to_mask(symbolic.unreachable), explicit.infinite_mask
    ):
        findings.append(
            _finding(instance, "ranks", "rank-infinity set differs between engines")
        )
    return findings


def _explicit_scc_sets(instance: FuzzInstance) -> set[frozenset[int]]:
    protocol, invariant = instance.protocol, instance.invariant
    view = TransitionView.of_protocol(protocol)
    sccs = cyclic_sccs(view, protocol.space.size, ~invariant.mask)
    return {frozenset(map(int, c)) for c in sccs}


def _split_scc_sets(instance: FuzzInstance) -> set[frozenset[int]]:
    """Cyclic SCCs of ``δp | ¬I`` by the Identify_Resolve_Cycles path: the
    edges that descend in a seeded permutation of the states form an
    acyclic base, and the remaining edges are the candidates (corpus
    instances, seeded -1, use seed 0)."""
    protocol, invariant = instance.protocol, instance.invariant
    size = protocol.space.size
    src, dst = TransitionView.of_protocol(protocol).edge_arrays(~invariant.mask)
    position = np.random.default_rng(max(instance.seed, 0)).permutation(size)
    down = position[src] > position[dst]
    labels, sizes = scc_labels_after_addition(
        src[down], dst[down], src[~down], dst[~down], size
    )
    return {frozenset(map(int, c)) for c in scc_members(labels, sizes)}


def oracle_sccs(instance: FuzzInstance, ctx: OracleContext) -> list[Finding]:
    """Cyclic SCCs of ``δp | ¬I``: Tarjan vs Gentilini vs Xie-Beerel vs
    lockstep, the trimmed cycle core that all three start from, and the
    Identify_Resolve_Cycles path on a split of the same edges."""
    explicit = _explicit_scc_sets(instance)
    findings = []
    split = _split_scc_sets(instance)
    if split != explicit:
        findings.append(
            _finding(
                instance,
                "sccs",
                f"Identify_Resolve_Cycles path SCCs differ from Tarjan: "
                f"{len(split - explicit)} only-split, "
                f"{len(explicit - split)} only-Tarjan",
            )
        )
    sp, inv = _sp(instance)
    sym = sp.sym
    not_i = sym.bdd.diff(sym.domain_cur, inv)
    relations = sp.relations_for(instance.protocol.groups)
    # the core must contain every cyclic SCC and be empty iff there are none
    core = sym.to_mask(cycle_core(sym, relations, not_i))
    missed = sum(1 for c in explicit if not core[list(c)].all())
    if missed or core.any() != bool(explicit):
        findings.append(
            _finding(
                instance,
                "sccs",
                f"cycle core has {int(core.sum())} states and misses "
                f"{missed} of {len(explicit)} Tarjan cyclic SCC(s)",
            )
        )
    for name, algorithm in (
        ("gentilini", gentilini_sccs),
        ("xie_beerel", xie_beerel_sccs),
        ("lockstep", lockstep_sccs),
    ):
        sccs = algorithm(sym, relations, not_i)
        symbolic = {
            frozenset(np.flatnonzero(sym.to_mask(c)).tolist()) for c in sccs
        }
        symbolic = ctx.mutate("sccs.symbolic", instance, symbolic)
        if symbolic != explicit:
            only_sym = len(symbolic - explicit)
            only_exp = len(explicit - symbolic)
            findings.append(
                _finding(
                    instance,
                    "sccs",
                    f"{name} SCCs differ from Tarjan: "
                    f"{only_sym} only-symbolic, {only_exp} only-explicit",
                )
            )
    return findings


def oracle_strong_weak(
    instance: FuzzInstance, ctx: OracleContext
) -> list[Finding]:
    """Theorem IV.1 consistency between the strong and weak passes."""
    protocol, invariant = instance.protocol, instance.invariant
    closed = is_closed(protocol, invariant)
    weak_kind, weak = _weak_outcome(instance)
    strong_kind, strong = _strong_explicit(instance)
    findings = []

    if not closed:
        # both paths must refuse with NotClosedError, never "succeed"
        for label, kind in (("weak", weak_kind), ("strong", strong_kind)):
            if kind not in ("NotClosedError",):
                findings.append(
                    _finding(
                        instance,
                        "strong_weak",
                        f"I not closed but {label} synthesis returned "
                        f"{kind} instead of NotClosedError",
                    )
                )
        return findings

    ranking = _explicit_ranking(instance)
    admits = ranking.admits_stabilization()
    weak_success = weak_kind == "ok"
    if weak_success != admits:
        findings.append(
            _finding(
                instance,
                "strong_weak",
                f"weak synthesis {weak_kind} but ranking admits_stabilization"
                f"={admits} (Theorem IV.1 violated)",
            )
        )
    if strong_kind == "ok" and strong.success and not admits:
        findings.append(
            _finding(
                instance,
                "strong_weak",
                "strong synthesis succeeded on an instance whose ranking "
                "proves no stabilizing version exists",
            )
        )
    if weak_success:
        check = check_solution(
            protocol, weak.protocol, invariant, mode="weak"
        )
        if not check.ok:
            findings.append(
                _finding(
                    instance,
                    "strong_weak",
                    f"weak winner failed independent verification: {check}",
                )
            )
    return findings


def oracle_engines(
    instance: FuzzInstance, ctx: OracleContext
) -> list[Finding]:
    """Single-config strong synthesis: explicit vs symbolic, exact match."""
    exp_kind, explicit = _strong_explicit(instance)
    sym_kind, symbolic = _strong_symbolic(instance)
    findings = []
    if exp_kind != sym_kind:
        findings.append(
            _finding(
                instance,
                "engines",
                f"outcome class differs: explicit={exp_kind} "
                f"symbolic={sym_kind}",
            )
        )
        return findings
    if exp_kind != "ok":
        return findings  # same complete negative answer on both engines
    if explicit.success != symbolic.success:
        findings.append(
            _finding(
                instance,
                "engines",
                f"success differs: explicit={explicit.success} "
                f"symbolic={symbolic.success}",
            )
        )
        return findings
    if explicit.pass_completed != symbolic.pass_completed:
        findings.append(
            _finding(
                instance,
                "engines",
                f"pass_completed differs: explicit={explicit.pass_completed} "
                f"symbolic={symbolic.pass_completed}",
            )
        )
    if explicit.success and symbolic.pss_groups != explicit.protocol.groups:
        findings.append(
            _finding(
                instance,
                "engines",
                "synthesized group sets differ between engines",
            )
        )
    return findings


def oracle_cert(instance: FuzzInstance, ctx: OracleContext) -> list[Finding]:
    """Certificate round-trip: emit, check on both engines, re-verify winner;
    and emission on the input protocol agrees with ``check_solution``."""
    from ..cert import (
        CertificateEmissionError,
        CertificateError,
        CertificateViolation,
        ConvergenceCertificate,
        check_certificate_symbolic,
        longest_path_ranks,
        validate_certificate,
    )

    protocol, invariant = instance.protocol, instance.invariant
    findings = []
    converges = check_solution(protocol, protocol, invariant).converges
    try:
        longest_path_ranks(protocol, invariant)
        emitted = True
    except CertificateEmissionError:
        emitted = False
    if emitted != converges:
        outcome = "succeeded" if emitted else "failed"
        findings.append(
            _finding(
                instance,
                "cert",
                f"strong emission on the input {outcome} but "
                f"check_solution says converges={converges}",
            )
        )
    winners = []
    strong_kind, strong = _strong_explicit(instance)
    if strong_kind == "ok" and strong.success:
        groups = [set(g) for g in strong.protocol.groups]
        groups = ctx.mutate("winner.groups", instance, groups)
        winners.append(("strong", strong, protocol.with_groups(groups)))
    weak_kind, weak = _weak_outcome(instance)
    if weak_kind == "ok":
        winners.append(("weak", weak, weak.protocol))

    for mode, result, winner_protocol in winners:
        expected_pss = [set(g) for g in winner_protocol.groups]
        check = check_solution(
            protocol, winner_protocol, invariant, mode=mode
        )
        if not check.ok:
            findings.append(
                _finding(
                    instance,
                    "cert",
                    f"{mode} winner rejected by check_solution: {check}",
                )
            )
        try:
            payload = result.certificate().to_payload()
        except Exception as exc:  # emission must never fail on a winner
            findings.append(
                _finding(
                    instance,
                    "cert",
                    f"{mode} certificate emission failed: {exc!r}",
                )
            )
            continue
        payload = ctx.mutate("cert.payload", instance, payload)
        try:
            cert = ConvergenceCertificate.from_payload(payload)
        except CertificateError as exc:
            findings.append(
                _finding(
                    instance,
                    "cert",
                    f"{mode} certificate payload unreadable: {exc}",
                )
            )
            continue
        check_exp, violation = validate_certificate(
            protocol, invariant, cert, expected_pss=expected_pss
        )
        if violation is not None:
            findings.append(
                _finding(
                    instance,
                    "cert",
                    f"{mode} certificate rejected by explicit checker: "
                    f"{violation.describe()}",
                )
            )
        sym_ok = True
        try:
            check_certificate_symbolic(
                protocol, invariant, cert, expected_pss=expected_pss
            )
        except (CertificateViolation, CertificateError) as exc:
            sym_ok = False
            sym_detail = str(exc)
        if sym_ok != (violation is None):
            findings.append(
                _finding(
                    instance,
                    "cert",
                    f"{mode} certificate verdict differs between checker "
                    f"engines: explicit_ok={violation is None} "
                    f"symbolic_ok={sym_ok}",
                )
            )
        elif not sym_ok and violation is None:  # pragma: no cover
            findings.append(
                _finding(instance, "cert", f"symbolic rejection: {sym_detail}")
            )
    return findings


def oracle_daemons(
    instance: FuzzInstance, ctx: OracleContext
) -> list[Finding]:
    """Randomized daemons as fuzz schedules over strong winners.

    Strong convergence means *every* maximal computation from every state
    reaches ``I``; since ``pss | ¬I`` is acyclic, any daemon must reach the
    invariant within ``|S|`` steps.  Probes a deterministic sample of start
    states under each daemon of :func:`repro.faults.daemons.daemon_portfolio`.
    """
    strong_kind, strong = _strong_explicit(instance)
    if strong_kind != "ok" or not strong.success:
        return []
    winner = strong.protocol
    invariant = instance.invariant
    space = winner.space
    findings = []
    n_probes = min(ctx.daemon_probes, space.size)
    stride = max(1, space.size // n_probes)
    probes = list(range(0, space.size, stride))[:n_probes]
    max_steps = ctx.max_sim_steps or (space.size + 1)
    for daemon_name, daemon in daemon_portfolio(
        invariant.mask, seed=instance.seed & 0x7FFFFFFF
    ):
        for start in probes:
            daemon.reset()
            trace = simulate(
                winner,
                start,
                invariant=invariant,
                daemon=daemon,
                max_steps=max_steps,
            )
            if not trace.converged:
                findings.append(
                    _finding(
                        instance,
                        "daemons",
                        f"strong winner failed to converge from state "
                        f"{space.format_state(start)} under the "
                        f"{daemon_name} daemon within {max_steps} steps",
                    )
                )
                break  # one counterexample per daemon is enough
    return findings


def oracle_portfolio(
    instance: FuzzInstance, ctx: OracleContext
) -> list[Finding]:
    """Serial portfolio vs the supervised multi-process race (opt-in)."""
    from ..core.synthesizer import synthesize
    from ..parallel import synthesize_parallel
    from .generate import compile_instance

    protocol, invariant = instance.protocol, instance.invariant
    serial_kind, serial = _memo(
        instance,
        "serial_portfolio",
        lambda: _outcome(lambda: synthesize(protocol, invariant)),
    )
    parallel_kind, parallel = _outcome(
        lambda: synthesize_parallel(
            compile_instance,
            (instance.source,),
            n_workers=ctx.portfolio_workers,
        )
    )
    findings = []
    if serial_kind != parallel_kind:
        findings.append(
            _finding(
                instance,
                "portfolio",
                f"outcome class differs: serial={serial_kind} "
                f"parallel={parallel_kind}",
            )
        )
        return findings
    if serial_kind != "ok":
        return findings
    winner, _completed = parallel
    if serial.success != winner.success:
        findings.append(
            _finding(
                instance,
                "portfolio",
                f"winner disagrees: serial success={serial.success} "
                f"parallel success={winner.success}",
            )
        )
    elif winner.success:
        check = check_solution(
            protocol,
            protocol.with_groups([set(map(tuple, g)) for g in winner.pss_groups]),
            invariant,
        )
        if not check.ok:
            findings.append(
                _finding(
                    instance,
                    "portfolio",
                    f"parallel winner failed independent verification: {check}",
                )
            )
    return findings


#: the full bank; iteration order is the (deterministic) execution order
ORACLES: dict[str, Oracle] = {
    "verdict": oracle_verdict,
    "ranks": oracle_ranks,
    "sccs": oracle_sccs,
    "strong_weak": oracle_strong_weak,
    "engines": oracle_engines,
    "cert": oracle_cert,
    "daemons": oracle_daemons,
    "portfolio": oracle_portfolio,
}

#: in-process oracles run on every iteration by default; ``portfolio``
#: spawns worker processes and is opt-in (``--oracle all`` / ``portfolio``)
DEFAULT_ORACLES: tuple[str, ...] = (
    "verdict",
    "ranks",
    "sccs",
    "strong_weak",
    "engines",
    "cert",
    "daemons",
)


def resolve_oracles(names: Sequence[str] | None) -> list[str]:
    """Expand CLI oracle selections (``default``, ``all``, or explicit);
    an entry may list several names separated by commas."""
    if not names:
        return list(DEFAULT_ORACLES)
    out: list[str] = []
    for name in (part for entry in names for part in entry.split(",")):
        if name == "default":
            out.extend(DEFAULT_ORACLES)
        elif name == "all":
            out.extend(ORACLES)
        elif name in ORACLES:
            out.append(name)
        else:
            raise ValueError(
                f"unknown oracle {name!r}; known: {', '.join(ORACLES)}"
            )
    seen: set[str] = set()
    return [n for n in out if not (n in seen or seen.add(n))]


def run_oracles(
    instance: FuzzInstance,
    oracle_names: Sequence[str],
    ctx: OracleContext | None = None,
) -> list[Finding]:
    """Run the named oracles; engine crashes become findings too."""
    ctx = ctx or OracleContext()
    findings: list[Finding] = []
    for name in oracle_names:
        try:
            findings.extend(ORACLES[name](instance, ctx))
        except Exception as exc:
            findings.append(
                _finding(
                    instance,
                    name,
                    f"oracle crashed: {type(exc).__name__}: {exc}",
                )
            )
    return findings
