"""The symbolic synthesis engine — STSyn as the paper actually built it.

Mirrors :mod:`repro.core` (same passes, same constraints, same portfolio
semantics) with every *state set* represented as a BDD; transition-group
bookkeeping stays explicit because candidate group sets are tiny (hundreds)
even when the state space is ``3^40``.  Cross-engine equivalence on small
instances is enforced by the test suite.

The transition relation flows through the engine as frameless clustered
partitions (:meth:`SymbolicProtocol.clustered_partitions`, see
:mod:`repro.symbolic.partition`) and cycles are detected with Gentilini
et al.'s algorithm, the paper's ``Detect_SCC``.  ``Add_Recovery`` builds
one process's recovery candidates (Fig. 3) as a single relational product
over its read bits and next write bits and reads the groups off that small
BDD.  Pass boundaries run a mark-and-sweep GC rooted at the live synthesis
state (:meth:`SymbolicSynthesisState.gc_roots`) plus the ranking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Sequence

from ..bdd import ZERO
from ..core.exceptions import (
    HeuristicFailure,
    NoStabilizingVersionError,
    UnresolvableCycleError,
)
from ..core.heuristic import HeuristicOptions
from ..core.schedules import paper_default_schedule, validate_schedule
from ..metrics.stats import SynthesisStats
from ..protocol.groups import GroupId
from ..protocol.protocol import Protocol
from ..trace.tracer import record_bdd_counters, use_tracer
from .encode import SymbolicProtocol
from .image import backward_closure, forward_closure, relation_links
from .partition import Partition
from .ranking import SymbolicRanking, compute_ranks_symbolic
from .scc import gentilini_sccs


@dataclass
class SymbolicSynthesisState:
    """Symbolic twin of :class:`repro.core.add_convergence.SynthesisState`."""

    sp: SymbolicProtocol
    invariant: int
    stats: SynthesisStats
    cycle_resolution_mode: str = "batch"
    pss_groups: list[set[tuple[int, int]]] = field(init=False)
    added_groups: list[set[tuple[int, int]]] = field(init=False)
    removed_groups: list[set[tuple[int, int]]] = field(init=False)
    #: pss transition relation, one :class:`Partition` per process
    #: cluster, kept incrementally
    relations: list[Partition] = field(init=False)
    #: states with at least one outgoing transition (= union of rcubes)
    enabled: int = field(init=False)

    def __post_init__(self) -> None:
        protocol = self.sp.protocol
        sym = self.sp.sym
        self.invariant = sym.bdd.and_(self.invariant, sym.domain_cur)
        self.pss_groups = [set(g) for g in protocol.groups]
        self.added_groups = [set() for _ in protocol.groups]
        self.removed_groups = [set() for _ in protocol.groups]
        self._rebuild_relations()
        self._touch_cache: list[dict[int, bool]] = [
            {} for _ in range(protocol.n_processes)
        ]
        self._rcube2_cache: dict[tuple[int, int, int], int] = {}

    def _rebuild_relations(self) -> None:
        sym = self.sp.sym
        self.relations = self.sp.clustered_partitions(self.pss_groups)
        self.enabled = sym.bdd.or_all(
            self.sp.rcube(j, rcode)
            for j, gs in enumerate(self.pss_groups)
            for (rcode, _w) in gs
        )

    # ------------------------------------------------------------------
    @property
    def not_i(self) -> int:
        sym = self.sp.sym
        return sym.bdd.diff(sym.domain_cur, self.invariant)

    def deadlocks(self) -> int:
        sym = self.sp.sym
        return sym.bdd.diff(self.not_i, self.enabled)

    def rcode_touches_i(self, j: int, rcode: int) -> bool:
        cached = self._touch_cache[j].get(rcode)
        if cached is None:
            cached = (
                self.sp.sym.bdd.and_(self.sp.rcube(j, rcode), self.invariant)
                != ZERO
            )
            self._touch_cache[j][rcode] = cached
        return cached

    def rcube_after_write(self, j: int, rcode: int, wcode: int) -> int:
        """Cube of the readable valuation *after* the group's write."""
        key = (j, rcode, wcode)
        cached = self._rcube2_cache.get(key)
        if cached is None:
            table = self.sp.protocol.tables[j]
            values = list(table.values_of_rcode(rcode))
            wvals = table.values_of_wcode(wcode)
            for pos, v in enumerate(table.write_vars):
                values[table.read_vars.index(v)] = wvals[pos]
            sym = self.sp.sym
            cached = sym.bdd.and_all(
                sym.value_cube(v, val)
                for v, val in zip(table.read_vars, values)
            )
            self._rcube2_cache[key] = cached
        return cached

    def commit_group(self, j: int, rcode: int, wcode: int) -> None:
        sym = self.sp.sym
        gid = (j, rcode, wcode)
        self.pss_groups[j].add((rcode, wcode))
        self.added_groups[j].add((rcode, wcode))
        ci = self.sp.cluster_index(j)
        part = self.relations[ci]
        lifted = sym.bdd.and_(
            self.sp.group_partition(gid).rel, self.sp.cluster_lift(j, ci)
        )
        self.relations[ci] = part.merged(sym.bdd.or_(part.rel, lifted))
        self.enabled = sym.bdd.or_(self.enabled, self.sp.rcube(j, rcode))
        self.stats.bump("groups_added")

    def remove_group(self, j: int, rcode: int, wcode: int) -> None:
        self.pss_groups[j].discard((rcode, wcode))
        self.removed_groups[j].add((rcode, wcode))
        self.stats.bump("groups_removed")
        self._rebuild_relations()

    def gc_roots(self):
        """Every node id the synthesis state (and its protocol/space
        caches) still needs — the root set for pass-boundary GC."""
        yield from self.sp.gc_roots()
        yield self.invariant
        yield self.enabled
        for part in self.relations:
            yield part.rel
        yield from self._rcube2_cache.values()

    def collect_garbage(self, extra_roots: Sequence[int] = ()) -> int:
        """Mark-and-sweep the BDD manager with this state's roots
        (called between synthesis passes; returns #nodes collected)."""
        sym = self.sp.sym
        roots = list(self.gc_roots())
        roots.extend(extra_roots)
        collected = sym.bdd.collect_garbage(roots)
        self.stats.bump("gc_passes")
        return collected


def identify_resolve_cycles_symbolic(
    state: SymbolicSynthesisState, candidates: list[GroupId]
) -> set[GroupId]:
    """Symbolic ``Identify_Resolve_Cycles``: region-restricted SCC search."""
    if not candidates:
        return set()
    sym = state.sp.sym
    state.stats.bump("identify_resolve_cycles_calls")
    with state.stats.timer("scc"), state.stats.tracer.span(
        "identify_resolve_cycles", n_candidates=len(candidates)
    ) as span:
        not_i = state.not_i
        cand_rels = [state.sp.group_partition(g) for g in candidates]
        srcs = sym.bdd.and_(
            sym.bdd.or_all(state.sp.rcube(g[0], g[1]) for g in candidates),
            not_i,
        )
        dsts = sym.bdd.and_(
            sym.bdd.or_all(
                state.rcube_after_write(*g) for g in candidates
            ),
            not_i,
        )
        # For the closures and the SCC search the candidates are folded
        # straight into copies of the committed cluster partitions —
        # every symbolic step pays one traversal per disjunct, so
        # candidate count must not inflate the relation list.  Lifting
        # each process's frameless relation with the cluster's partial
        # frame keeps the union well-formed, so the step cost stays at the
        # cluster count.
        by_proc: dict[int, list[GroupId]] = {}
        for g in candidates:
            by_proc.setdefault(g[0], []).append(g)
        aug: dict[int, int] = {}
        for j, gs in by_proc.items():
            ci = state.sp.cluster_index(j)
            lifted = sym.bdd.and_(
                state.sp.partition_of(j, gs).rel,
                state.sp.cluster_lift(j, ci),
            )
            aug[ci] = sym.bdd.or_(aug.get(ci, ZERO), lifted)
        relations = [
            part
            if ci not in aug
            else part.merged(sym.bdd.or_(part.rel, aug[ci]))
            for ci, part in enumerate(state.relations)
        ]
        # Any new cycle contains a candidate edge (s, t) with t reaching s,
        # so it is confined to backward(srcs) ∩ forward(dsts).  The backward
        # closure is computed first: candidate sources are deadlock-ish
        # states with few incoming paths, so it is usually tiny and the
        # ``dsts ∩ B = ∅`` test resolves most calls without the (much
        # larger) forward closure.
        bwd = backward_closure(sym, relations, srcs, within=not_i)
        if sym.bdd.and_(bwd, dsts) == ZERO:
            state.stats.bump("scc_skipped_by_backward_check")
            return set()
        fwd = forward_closure(sym, relations, dsts, within=not_i)
        region = sym.bdd.and_(fwd, bwd)
        if region == ZERO:
            return set()
        with use_tracer(state.stats.tracer):
            sccs = gentilini_sccs(sym, relations, region)
        span["n_sccs"] = len(sccs)
        state.stats.record_sccs(
            [sym.count_states(c) for c in sccs],
            [sym.bdd.size(c) for c in sccs],
        )
        if sccs:
            state.stats.bump("cycles_resolved", len(sccs))
        if not sccs:
            return set()
        bad: set[GroupId] = set()
        for gid, rel in zip(candidates, cand_rels):
            for scc in sccs:
                if relation_links(sym, rel, scc, scc):
                    bad.add(gid)
                    state.stats.bump("groups_rejected_cycles")
                    break
    return bad


def _group_codes(sym, table, f: int) -> set[tuple[int, int]]:
    """The ``(rcode, wcode)`` pairs of ``f``, a BDD over one process's
    read bits (current copy) and write bits (next copy)."""
    columns = [
        (sym.cur_levels[v], sym.space.variables[v].domain_size)
        for v in table.read_vars
    ] + [
        (sym.next_levels[v], sym.space.variables[v].domain_size)
        for v in table.write_vars
    ]
    n_read = len(table.read_vars)
    codes = set()
    for path in sym.bdd.iter_sat(f):
        choices = []
        for bits, domain in columns:
            # (bit weight, polarity) of the bits the path fixes
            fixed = [
                (len(bits) - 1 - i, path[b])
                for i, b in enumerate(bits)
                if b in path
            ]
            choices.append(
                [
                    val
                    for val in range(domain)
                    if all(bool(val >> shift & 1) == pol for shift, pol in fixed)
                ]
            )
        for values in product(*choices):
            codes.add(
                (
                    table.rcode_of_values(values[:n_read]),
                    table.wcode_of_values(values[n_read:]),
                )
            )
    return codes


def recovery_candidates(
    state: SymbolicSynthesisState,
    from_set: int,
    to_set: int,
    process: int,
    *,
    rule_out_deadlock_targets: bool,
    deadlocks: int | None = None,
) -> list[GroupId]:
    """The groups ``Add_Recovery`` offers for one process, in
    ``(rcode, wcode)`` order: each has a transition from ``from_set`` into
    ``to_set`` and passes C1, C4 (when ``rule_out_deadlock_targets``), is
    no self write and is not yet in ``pss``."""
    sym = state.sp.sym
    bdd = sym.bdd
    table = state.sp.protocol.tables[process]
    read = set(table.read_vars)
    unread_bits = [
        b for v, bits in enumerate(sym.cur_levels) if v not in read for b in bits
    ]
    w_to_next = {
        c: n
        for v in table.write_vars
        for c, n in zip(sym.cur_levels[v], sym.next_levels[v])
    }
    # Fig. 3's candidate set as one relational product over j's read bits
    # and next write bits: (r, w') such that some unreadable valuation u
    # has (r, u) in from_set and (r[W := w'], u) in to_set
    cand = bdd.and_exists(from_set, bdd.rename(to_set, w_to_next), unread_bits)
    if rule_out_deadlock_targets:
        if deadlocks is None:
            deadlocks = state.deadlocks()
        # C4: no deadlock state has the readable valuation after the write
        cand = bdd.diff(
            cand, bdd.rename(bdd.exists(unread_bits, deadlocks), w_to_next)
        )
    pss_j = state.pss_groups[process]
    return [
        (process, rcode, wcode)
        for rcode, wcode in sorted(_group_codes(sym, table, cand))
        if wcode != table.self_wcode[rcode]
        and (rcode, wcode) not in pss_j
        and not state.rcode_touches_i(process, rcode)  # C1
    ]


def add_recovery_symbolic(
    state: SymbolicSynthesisState,
    from_set: int,
    to_set: int,
    process: int,
    *,
    rule_out_deadlock_targets: bool,
    deadlocks: int | None = None,
) -> int:
    """Symbolic ``Add_Recovery`` for one process; returns #groups committed."""
    candidates = recovery_candidates(
        state,
        from_set,
        to_set,
        process,
        rule_out_deadlock_targets=rule_out_deadlock_targets,
        deadlocks=deadlocks,
    )
    if not candidates:
        return 0
    committed = 0
    mode = state.cycle_resolution_mode
    rejected: list[GroupId] = []
    if mode in ("batch", "hybrid"):
        bad = identify_resolve_cycles_symbolic(state, candidates)
        for gid in candidates:
            if gid in bad:
                rejected.append(gid)
            else:
                state.commit_group(*gid)
                committed += 1
    else:
        rejected = list(candidates)
    if mode in ("sequential", "hybrid"):
        for gid in rejected:
            if identify_resolve_cycles_symbolic(state, [gid]):
                continue
            state.commit_group(*gid)
            committed += 1
    return committed


def add_convergence_symbolic(
    state: SymbolicSynthesisState,
    from_set: int,
    to_set: int,
    schedule: Sequence[int],
    pass_no: int,
) -> bool:
    deadlocks = state.deadlocks()
    stats = state.stats
    sym = state.sp.sym
    for j in schedule:
        # Deadlock *counting* (a model-count over the BDD) is only worth
        # paying for when a tracer is attached; the untraced fast path
        # keeps the historical behaviour.
        if stats.tracer.enabled:
            before = sym.count_states(deadlocks)
            with stats.tracer.span(
                "add_recovery", process=j, pass_no=pass_no
            ) as span:
                committed = add_recovery_symbolic(
                    state,
                    from_set,
                    to_set,
                    j,
                    rule_out_deadlock_targets=(pass_no == 1),
                    deadlocks=deadlocks,
                )
                deadlocks = state.deadlocks()
                resolved = before - sym.count_states(deadlocks)
                span["committed"] = committed
                span["deadlocks_resolved"] = resolved
            if resolved:
                stats.bump(f"pass{pass_no}_deadlocks_resolved", resolved)
        else:
            add_recovery_symbolic(
                state,
                from_set,
                to_set,
                j,
                rule_out_deadlock_targets=(pass_no == 1),
                deadlocks=deadlocks,
            )
            deadlocks = state.deadlocks()
        if deadlocks == ZERO:
            return True
    return False


@dataclass
class SymbolicSynthesisResult:
    """Outcome of one symbolic heuristic run."""

    success: bool
    sp: SymbolicProtocol
    pss_groups: list[set[tuple[int, int]]]
    added_groups: list[set[tuple[int, int]]]
    removed_groups: list[set[tuple[int, int]]]
    ranking: SymbolicRanking
    stats: SynthesisStats
    schedule: tuple[int, ...]
    pass_completed: int
    remaining_deadlocks: int  # BDD of deadlock states left (ZERO on success)

    def to_protocol(self, name: str | None = None) -> Protocol:
        """The synthesized protocol as a plain (group-set) protocol object."""
        base = self.sp.protocol
        return base.with_groups(
            self.pss_groups, name=name or f"{base.name}_ss"
        )

    @property
    def n_added(self) -> int:
        return sum(len(g) for g in self.added_groups)

    def certificate(self):
        """Emit the :class:`~repro.cert.ConvergenceCertificate` of this run.

        Recomputes the longest-path levels by symbolic backward induction
        and stores them as per-rank value-cube lists; the artifact checks
        under either engine.  Small spaces only (the fingerprint needs the
        explicit invariant mask).
        """
        from ..cert.emit import (
            CertificateEmissionError,
            emit_certificate_symbolic,
        )

        if not self.success:
            raise CertificateEmissionError(
                "cannot certify an unsuccessful synthesis result"
            )
        return emit_certificate_symbolic(
            self.sp,
            self.ranking.invariant,
            self.pss_groups,
            schedule=self.schedule,
            added=[
                (j, r, w)
                for j, gs in enumerate(self.added_groups)
                for (r, w) in sorted(gs)
            ],
            removed=[
                (j, r, w)
                for j, gs in enumerate(self.removed_groups)
                for (r, w) in sorted(gs)
            ],
        )

    def record_space_metrics(self) -> None:
        """Fill ``stats.bdd_nodes`` with the paper's space metrics:
        total program size (shared BDD of the pss relations) and manager
        total."""
        sym = self.sp.sym
        relations = self.sp.process_relations(self.pss_groups)
        self.stats.bdd_nodes["total_program_size"] = sym.bdd.size_many(relations)
        self.stats.bdd_nodes["manager_nodes"] = sym.bdd.num_nodes()


def _closure_check_symbolic(
    state: SymbolicSynthesisState,
) -> None:
    sym = state.sp.sym
    from ..core.exceptions import NotClosedError
    from .image import postimage_union

    escaped = sym.bdd.diff(
        postimage_union(sym, state.relations, state.invariant),
        state.invariant,
    )
    if sym.bdd.and_(escaped, sym.domain_cur) != ZERO:
        raise NotClosedError(
            f"I is not closed in {state.sp.protocol.name!r} (symbolic check)"
        )


def _preprocess_cycles_symbolic(
    state: SymbolicSynthesisState, options: HeuristicOptions
) -> None:
    sym = state.sp.sym
    if all(part.rel == ZERO for part in state.relations):
        return  # an empty relation has no cycles (common: empty input protocol)
    with state.stats.timer("scc"), use_tracer(state.stats.tracer):
        sccs = gentilini_sccs(sym, state.relations, state.not_i)
    if not sccs:
        return
    state.stats.record_sccs(
        [sym.count_states(c) for c in sccs],
        [sym.bdd.size(c) for c in sccs],
    )
    offenders: list[GroupId] = []
    for j, gs in enumerate(state.pss_groups):
        for rcode, wcode in sorted(gs):
            rel = state.sp.group_partition((j, rcode, wcode))
            for scc in sccs:
                if relation_links(sym, rel, scc, scc):
                    if state.rcode_touches_i(j, rcode):
                        raise UnresolvableCycleError(
                            f"input protocol has a non-progress cycle through "
                            f"group ({j},{rcode},{wcode}) whose groupmates "
                            f"start in I"
                        )
                    offenders.append((j, rcode, wcode))
                    break
    if not options.remove_input_cycles:
        raise UnresolvableCycleError("input cycles present and removal disabled")
    for gid in offenders:
        state.remove_group(*gid)


def add_strong_convergence_symbolic(
    protocol: Protocol,
    invariant: int,
    *,
    sp: SymbolicProtocol | None = None,
    schedule: Sequence[int] | None = None,
    options: HeuristicOptions | None = None,
    stats: SynthesisStats | None = None,
) -> SymbolicSynthesisResult:
    """The three-pass heuristic, fully symbolic.

    ``invariant`` is a BDD over ``sp.sym`` (build it with the case studies'
    ``*_invariant_bdd`` helpers or ``SymbolicSpace.from_predicate``).
    """
    options = options or HeuristicOptions()
    stats = stats if stats is not None else SynthesisStats()
    sp = sp if sp is not None else SymbolicProtocol(protocol)
    k = protocol.n_processes
    schedule = (
        validate_schedule(schedule, k)
        if schedule is not None
        else paper_default_schedule(k)
    )

    with stats.timer("total"):
        state = SymbolicSynthesisState(
            sp,
            invariant,
            stats,
            cycle_resolution_mode=options.cycle_resolution_mode,
        )
        if options.disable_cycle_resolution:
            raise ValueError(
                "disable_cycle_resolution is an explicit-engine-only ablation"
            )
        with stats.tracer.span("heuristic.preprocess"):
            _closure_check_symbolic(state)
            _preprocess_cycles_symbolic(state, options)

        with stats.timer("ranking"):
            ranking = compute_ranks_symbolic(
                sp, state.invariant, tracer=stats.tracer
            )
        if not ranking.admits_stabilization():
            raise NoStabilizingVersionError(
                f"{ranking.n_unreachable()} states have rank ∞; no "
                f"stabilizing version exists (Theorem IV.1)",
                n_unreachable=ranking.n_unreachable(),
            )

        def make_result(success: bool, pass_no: int) -> SymbolicSynthesisResult:
            record_bdd_counters(stats.tracer, sp.sym.bdd)
            stats.tracer.counter_set(
                "symbolic.partition_count", len(state.relations)
            )
            return SymbolicSynthesisResult(
                success=success,
                sp=sp,
                pss_groups=[set(g) for g in state.pss_groups],
                added_groups=[set(g) for g in state.added_groups],
                removed_groups=[set(g) for g in state.removed_groups],
                ranking=ranking,
                stats=stats,
                schedule=schedule,
                pass_completed=pass_no,
                remaining_deadlocks=state.deadlocks(),
            )

        if state.deadlocks() == ZERO:
            return make_result(True, 0)

        sym = sp.sym
        # ranking roots beyond what the state itself tracks: the passes
        # read every rank, and nothing else keeps them alive
        gc_extra = (ranking.unreachable, *ranking.ranks)
        # Dead intermediates of the closure/SCC/ranking phases are the bulk
        # of the manager at this point; sweep them before the passes start
        # and again at every pass boundary so no pass drags the previous
        # one's garbage through its image computations.
        state.collect_garbage(gc_extra)
        for pass_no, enabled in ((1, options.enable_pass1), (2, options.enable_pass2)):
            if not enabled:
                continue
            stats.bump(f"pass{pass_no}_runs")
            done = False
            with stats.tracer.span(f"heuristic.pass{pass_no}") as span:
                for i in range(1, ranking.max_rank + 1):
                    from_set = sym.bdd.and_(state.deadlocks(), ranking.ranks[i])
                    if from_set == ZERO:
                        continue
                    if add_convergence_symbolic(
                        state, from_set, ranking.ranks[i - 1], schedule, pass_no
                    ):
                        done = True
                        break
                done = done or state.deadlocks() == ZERO
                span["done"] = done
            if done:
                return make_result(True, pass_no)
            state.collect_garbage(gc_extra)

        if options.enable_pass3:
            stats.bump("pass3_runs")
            with stats.tracer.span("heuristic.pass3") as span:
                done = add_convergence_symbolic(
                    state, state.deadlocks(), sym.domain_cur, schedule, pass_no=3
                )
                done = done or state.deadlocks() == ZERO
                span["done"] = done
            if done:
                return make_result(True, 3)

        result = make_result(False, 3)
    if options.raise_on_failure:
        raise HeuristicFailure(
            f"deadlock states remain after all passes (symbolic) for "
            f"{protocol.name!r}",
            remaining_deadlocks=sp.sym.count_states(result.remaining_deadlocks),
        )
    return result
