"""Differential tests: symbolic images, reachability, SCCs and ranking
against their explicit twins on random protocols."""

import random

import numpy as np
import pytest

from repro.bdd import ZERO
from repro.core.ranking import compute_ranks
from repro.explicit.graph import TransitionView, backward_reachable, forward_reachable
from repro.explicit.scc import cyclic_sccs
from repro.protocols import token_ring
from repro.verify.cycles import nonprogress_scc_labels
from repro.symbolic import (
    SymbolicProtocol,
    backward_closure,
    compute_ranks_symbolic,
    cycle_core,
    forward_closure,
    gentilini_sccs,
    lockstep_sccs,
    postimage,
    preimage,
    xie_beerel_sccs,
)

from conftest import make_closed_invariant, make_random_protocol


def setup_random(seed, density=0.15):
    rng = random.Random(seed)
    protocol = make_random_protocol(rng, group_density=density)
    sp = SymbolicProtocol(protocol)
    return rng, protocol, sp


class TestImages:
    @pytest.mark.parametrize("seed", range(8))
    def test_pre_post_match_explicit(self, seed):
        rng, protocol, sp = setup_random(seed)
        sym = sp.sym
        rel = sp.relation_of(protocol.iter_group_ids())
        mask = np.zeros(protocol.space.size, dtype=bool)
        for s in rng.sample(range(protocol.space.size), 3):
            mask[s] = True
        states = sym.from_mask(mask)

        pre_mask = sym.to_mask(sym.bdd.and_(preimage(sym, rel, states), sym.domain_cur))
        post_mask = sym.to_mask(
            sym.bdd.and_(postimage(sym, rel, states), sym.domain_cur)
        )
        expected_pre = np.zeros(protocol.space.size, dtype=bool)
        expected_post = np.zeros(protocol.space.size, dtype=bool)
        for s0, s1 in protocol.transition_set():
            if mask[s1]:
                expected_pre[s0] = True
            if mask[s0]:
                expected_post[s1] = True
        assert np.array_equal(pre_mask, expected_pre)
        assert np.array_equal(post_mask, expected_post)


class TestClosures:
    @pytest.mark.parametrize("seed", range(8))
    def test_forward_backward_closures_match_explicit(self, seed):
        rng, protocol, sp = setup_random(100 + seed)
        sym = sp.sym
        relations = sp.process_relations(protocol.groups)
        start = rng.randrange(protocol.space.size)
        start_bdd = sym.state_cube(protocol.space.decode(start))
        view = TransitionView.of_protocol(protocol)

        fwd = sym.to_mask(forward_closure(sym, relations, start_bdd))
        exp_fwd = forward_reachable(
            view, np.array([start], dtype=np.int64), protocol.space.size
        )
        assert np.array_equal(fwd, exp_fwd)

        bwd = sym.to_mask(backward_closure(sym, relations, start_bdd))
        exp_bwd = backward_reachable(
            view, np.array([start], dtype=np.int64), protocol.space.size
        )
        assert np.array_equal(bwd, exp_bwd)

    @pytest.mark.parametrize("seed", range(4))
    def test_closure_with_within_restriction(self, seed):
        rng, protocol, sp = setup_random(200 + seed)
        sym = sp.sym
        relations = sp.process_relations(protocol.groups)
        within_mask = np.zeros(protocol.space.size, dtype=bool)
        within_mask[rng.sample(range(protocol.space.size), protocol.space.size // 2)] = (
            True
        )
        start = rng.randrange(protocol.space.size)
        start_bdd = sym.state_cube(protocol.space.decode(start))
        within_bdd = sym.from_mask(within_mask)
        got = sym.to_mask(
            forward_closure(sym, relations, start_bdd, within=within_bdd)
        )
        view = TransitionView.of_protocol(protocol)
        expected = forward_reachable(
            view,
            np.array([start], dtype=np.int64),
            protocol.space.size,
            within=within_mask,
        )
        assert np.array_equal(got, expected)


class TestSymbolicSccs:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize(
        "algorithm", [xie_beerel_sccs, gentilini_sccs, lockstep_sccs]
    )
    def test_matches_explicit_sccs(self, seed, algorithm):
        rng, protocol, sp = setup_random(300 + seed, density=0.25)
        sym = sp.sym
        relations = sp.process_relations(protocol.groups)
        got = {
            frozenset(np.flatnonzero(sym.to_mask(c)).tolist())
            for c in algorithm(sym, relations, sym.domain_cur)
        }
        view = TransitionView.of_protocol(protocol)
        expected = {
            frozenset(c.tolist())
            for c in cyclic_sccs(view, protocol.space.size, None)
        }
        assert got == expected

    def test_acyclic_graph_yields_nothing(self):
        protocol, invariant = token_ring(3, 3)
        sp = SymbolicProtocol(protocol)
        sym = sp.sym
        relations = sp.process_relations(protocol.groups)
        not_i = sym.bdd.diff(sym.domain_cur, sym.from_predicate(invariant))
        # TR restricted to ¬I is acyclic (Section V)
        assert gentilini_sccs(sym, relations, not_i) == []
        assert xie_beerel_sccs(sym, relations, not_i) == []
        assert lockstep_sccs(sym, relations, not_i) == []


class TestCycleCore:
    def test_core_decides_nonprogress_cycles(self):
        """cycle_core(¬I) is empty iff Tarjan finds no cyclic SCC of
        δp|¬I, and it contains every Tarjan cyclic SCC."""
        seen = set()
        for seed in range(12):
            rng, protocol, sp = setup_random(500 + seed, density=0.25)
            invariant = make_closed_invariant(rng, protocol)
            sym = sp.sym
            not_i = sym.bdd.diff(sym.domain_cur, sym.from_predicate(invariant))
            core = cycle_core(sym, sp.process_relations(protocol.groups), not_i)
            labels, sizes = nonprogress_scc_labels(protocol, invariant)
            cyclic = len(sizes) > 0
            assert (core != ZERO) == cyclic
            assert not ((labels >= 0) & ~sym.to_mask(core)).any()
            seen.add(cyclic)
        assert seen == {True, False}  # both outcomes were exercised


class TestSymbolicRanking:
    @pytest.mark.parametrize("seed", range(8))
    def test_ranks_match_explicit(self, seed):
        rng = random.Random(400 + seed)
        protocol = make_random_protocol(rng)
        invariant = make_closed_invariant(rng, protocol)
        explicit = compute_ranks(protocol, invariant)
        sp = SymbolicProtocol(protocol)
        sym = sp.sym
        symbolic = compute_ranks_symbolic(sp, sym.from_predicate(invariant))
        assert symbolic.pim_groups == explicit.pim_groups
        assert symbolic.max_rank == explicit.max_rank
        for i, rank_bdd in enumerate(symbolic.ranks):
            assert np.array_equal(sym.to_mask(rank_bdd), explicit.rank_mask(i))
        assert np.array_equal(
            sym.to_mask(symbolic.unreachable), explicit.infinite_mask
        )

    def test_token_ring_ranks(self):
        protocol, invariant = token_ring(4, 3)
        sp = SymbolicProtocol(protocol)
        sym = sp.sym
        ranking = compute_ranks_symbolic(sp, sym.from_predicate(invariant))
        assert ranking.max_rank == 2
        assert ranking.admits_stabilization()
        assert ranking.rank_sizes() == [12, 48, 21]
