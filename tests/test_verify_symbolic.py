"""Symbolic verification vs. the explicit oracle."""

import random

import pytest

from repro.core import add_strong_convergence
from repro.protocols import (
    dijkstra_stabilizing_token_ring,
    gouda_acharya_matching,
    token_ring,
)
from repro.protocols.coloring import coloring_symbolic
from repro.symbolic import (
    SymbolicProtocol,
    add_strong_convergence_symbolic,
    gentilini_sccs,
)
from repro.trace.tracer import Tracer, use_tracer
from repro.verify import analyze_stabilization
from repro.verify.symbolic import analyze_stabilization_symbolic

from conftest import make_closed_invariant, make_random_protocol


def both_verdicts(protocol, invariant):
    explicit = analyze_stabilization(protocol, invariant)
    sp = SymbolicProtocol(protocol)
    symbolic = analyze_stabilization_symbolic(
        protocol, sp.sym.from_predicate(invariant), sp=sp
    )
    return explicit, symbolic


class TestAgainstExplicit:
    def test_dijkstra_is_strongly_stabilizing(self):
        protocol, invariant = dijkstra_stabilizing_token_ring(4, 3)
        explicit, symbolic = both_verdicts(protocol, invariant)
        assert symbolic.strongly_stabilizing
        assert symbolic.strongly_stabilizing == explicit.strongly_stabilizing

    def test_token_ring_input_counts_match(self):
        protocol, invariant = token_ring(4, 3)
        explicit, symbolic = both_verdicts(protocol, invariant)
        assert symbolic.closed == explicit.closed is True
        assert symbolic.n_deadlocks == explicit.n_deadlocks == 18
        assert symbolic.n_unrecoverable == explicit.n_unrecoverable
        assert not symbolic.has_cycles

    def test_gouda_acharya_cycles_detected(self):
        protocol, invariant = gouda_acharya_matching(5)
        explicit, symbolic = both_verdicts(protocol, invariant)
        assert symbolic.has_cycles
        assert not symbolic.strongly_stabilizing

    @pytest.mark.parametrize("seed", range(8))
    def test_random_protocols_agree(self, seed):
        rng = random.Random(9000 + seed)
        protocol = make_random_protocol(rng, group_density=0.2)
        invariant = make_closed_invariant(rng, protocol)
        explicit, symbolic = both_verdicts(protocol, invariant)
        assert symbolic.closed == explicit.closed
        assert symbolic.n_deadlocks == explicit.n_deadlocks
        assert symbolic.has_cycles == (explicit.n_cycle_states > 0)
        assert symbolic.n_unrecoverable == explicit.n_unrecoverable
        assert symbolic.strongly_stabilizing == explicit.strongly_stabilizing
        assert symbolic.weakly_stabilizing == explicit.weakly_stabilizing


class TestEndToEndSymbolic:
    def test_symbolic_synthesis_symbolically_verified(self):
        """Full BDD pipeline: synthesize coloring symbolically, verify the
        result with a *fresh* symbolic checker (no shared caches biasing
        anything — a new manager is used)."""
        protocol, sp, inv = coloring_symbolic(6)
        res = add_strong_convergence_symbolic(protocol, inv, sp=sp)
        assert res.success
        synthesized = res.to_protocol()

        from repro.protocols.coloring import coloring_invariant_bdd

        sp2 = SymbolicProtocol(synthesized)
        inv2 = coloring_invariant_bdd(sp2.sym, 6)
        verdict = analyze_stabilization_symbolic(synthesized, inv2, sp=sp2)
        assert verdict.strongly_stabilizing

    def test_synthesized_tr_verified_symbolically(self):
        protocol, invariant = token_ring(4, 3)
        result = add_strong_convergence(protocol, invariant)
        sp = SymbolicProtocol(result.protocol)
        verdict = analyze_stabilization_symbolic(
            result.protocol, sp.sym.from_predicate(invariant), sp=sp
        )
        assert verdict.strongly_stabilizing

    def test_acyclicity_is_decided_without_decomposition(self):
        """The verifier tests the trimmed cycle core for emptiness and
        never runs the SCC decomposition."""
        from repro.protocols.coloring import coloring_invariant_bdd

        protocol, sp, inv = coloring_symbolic(9)
        res = add_strong_convergence_symbolic(protocol, inv, sp=sp)
        assert res.success
        pss = res.to_protocol()
        sp2 = SymbolicProtocol(pss)
        inv2 = coloring_invariant_bdd(sp2.sym, 9)
        tracer = Tracer(None)
        with use_tracer(tracer):
            verdict = analyze_stabilization_symbolic(pss, inv2, sp=sp2)
        assert verdict.strongly_stabilizing
        spans = {r["name"] for r in tracer.records if r["type"] == "span"}
        assert "scc.gentilini" not in spans
        assert "scc.gentilini_tasks" not in tracer.counters
        # the tracer is live: the decomposition it skipped would show
        sym = sp2.sym
        with use_tracer(tracer):
            gentilini_sccs(
                sym,
                sp2.relations_for(pss.groups),
                sym.bdd.diff(sym.domain_cur, inv2),
            )
        assert "scc.gentilini" in {
            r["name"] for r in tracer.records if r["type"] == "span"
        }
