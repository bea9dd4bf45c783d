"""Cross-engine equivalence: the symbolic heuristic must produce exactly the
same synthesized protocols as the explicit one on every small case study and
on random protocols."""

import random

import pytest

from repro.core import (
    HeuristicOptions,
    NoStabilizingVersionError,
    add_strong_convergence,
)
from repro.protocols import coloring, matching, token_ring
from repro.protocols.coloring import coloring_symbolic
from repro.symbolic import (
    SymbolicProtocol,
    add_strong_convergence_symbolic,
    postimage_union,
    preimage_union,
)
from repro.verify import check_solution

from conftest import make_closed_invariant, make_random_protocol


def run_both(protocol, invariant, **kwargs):
    explicit = add_strong_convergence(protocol, invariant, **kwargs)
    sp = SymbolicProtocol(protocol)
    inv = sp.sym.from_predicate(invariant)
    symbolic = add_strong_convergence_symbolic(protocol, inv, sp=sp, **kwargs)
    return explicit, symbolic


class TestCaseStudyEquivalence:
    def test_token_ring(self):
        protocol, invariant = token_ring(4, 3)
        explicit, symbolic = run_both(protocol, invariant)
        assert symbolic.success == explicit.success is True
        assert symbolic.pss_groups == explicit.protocol.groups
        assert symbolic.pass_completed == explicit.pass_completed == 2

    def test_matching(self):
        protocol, invariant = matching(4)
        explicit, symbolic = run_both(protocol, invariant)
        assert symbolic.success == explicit.success
        assert symbolic.pss_groups == explicit.protocol.groups

    def test_coloring_via_symbolic_invariant(self):
        protocol, sp, inv = coloring_symbolic(5)
        symbolic = add_strong_convergence_symbolic(protocol, inv, sp=sp)
        pe, invariant = coloring(5)
        explicit = add_strong_convergence(pe, invariant)
        assert symbolic.pss_groups == explicit.protocol.groups
        check = check_solution(pe, symbolic.to_protocol(), invariant)
        assert check.ok

    def test_sequential_mode_equivalence(self):
        protocol, invariant = token_ring(4, 3)
        options = HeuristicOptions(cycle_resolution_mode="sequential")
        explicit, symbolic = run_both(protocol, invariant, options=options)
        assert symbolic.pss_groups == explicit.protocol.groups


class TestRelationModeEquivalence:
    """The engine's clustered partitions must synthesize what the explicit
    engine does, and must keep the images of the full-frame references
    (per-process relations and their union, built here on the engine's
    space) on the synthesized protocol."""

    # matching(4): a full cluster plus a singleton; coloring(5): a full
    # cluster plus a partial one; K=3: one whole-ring cluster
    CASES = {
        "matching": lambda: matching(4),
        "coloring": lambda: coloring(5),
        "matching-3": lambda: matching(3),
        "coloring-3": lambda: coloring(3),
    }

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    @pytest.mark.parametrize("reference", ["monolithic", "process"])
    def test_modes_match_explicit(self, case, reference):
        protocol, invariant = case()
        explicit = add_strong_convergence(protocol, invariant)
        sp = SymbolicProtocol(protocol)
        sym = sp.sym
        inv = sym.from_predicate(invariant)
        symbolic = add_strong_convergence_symbolic(protocol, inv, sp=sp)
        assert symbolic.success == explicit.success
        assert symbolic.pss_groups == explicit.protocol.groups
        assert symbolic.pass_completed == explicit.pass_completed
        ref = sp.process_relations(symbolic.pss_groups)
        if reference == "monolithic":
            ref = [sym.bdd.or_all(ref)]
        parts = sp.clustered_partitions(symbolic.pss_groups)
        for states in (inv, sym.bdd.diff(sym.domain_cur, inv)):
            assert preimage_union(sym, parts, states) == preimage_union(
                sym, ref, states
            )
            assert postimage_union(sym, parts, states) == postimage_union(
                sym, ref, states
            )

    def test_auto_reorder_run_matches_default(self):
        """Synthesis with sifting enabled must not change the result."""
        protocol, invariant = matching(4)
        sp = SymbolicProtocol(protocol)
        sp.sym.bdd.auto_reorder = True
        sp.sym.bdd.reorder_threshold = 2_000
        inv = sp.sym.from_predicate(invariant)
        with_reorder = add_strong_convergence_symbolic(protocol, inv, sp=sp)
        explicit = add_strong_convergence(protocol, invariant)
        assert with_reorder.pss_groups == explicit.protocol.groups


class TestRandomEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_same_outcome_and_groups(self, seed):
        rng = random.Random(7000 + seed)
        protocol = make_random_protocol(rng, group_density=0.1)
        invariant = make_closed_invariant(rng, protocol)
        try:
            explicit = add_strong_convergence(protocol, invariant)
            explicit_error = None
        except NoStabilizingVersionError as e:
            explicit, explicit_error = None, e
        sp = SymbolicProtocol(protocol)
        inv = sp.sym.from_predicate(invariant)
        try:
            symbolic = add_strong_convergence_symbolic(protocol, inv, sp=sp)
            symbolic_error = None
        except NoStabilizingVersionError as e:
            symbolic, symbolic_error = None, e
        assert (explicit_error is None) == (symbolic_error is None)
        if explicit is not None:
            assert symbolic.success == explicit.success
            assert symbolic.pss_groups == explicit.protocol.groups
            assert symbolic.pass_completed == explicit.pass_completed


class TestResultObject:
    def test_to_protocol_and_metrics(self):
        protocol, invariant = token_ring(4, 3)
        sp = SymbolicProtocol(protocol)
        inv = sp.sym.from_predicate(invariant)
        res = add_strong_convergence_symbolic(protocol, inv, sp=sp)
        out = res.to_protocol()
        assert check_solution(protocol, out, invariant).ok
        res.record_space_metrics()
        assert res.stats.bdd_nodes["total_program_size"] > 2
        assert res.stats.bdd_nodes["manager_nodes"] > 0
        assert res.n_added == 9
