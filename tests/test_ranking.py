"""Tests for ComputeRanks (paper Fig. 2, Section IV), including the paper's
structural lemmas, cross-checked against networkx shortest paths."""

import random

import networkx as nx
import numpy as np
import pytest

from repro.core.ranking import (
    INF_RANK,
    compute_pim_groups,
    compute_ranks,
    rvals_intersecting,
)
from repro.metrics import SynthesisStats
from repro.protocols import matching, token_ring
from repro.trace import Tracer

from conftest import make_closed_invariant, make_random_protocol


@pytest.fixture
def tr():
    return token_ring(4, 3)


class TestPim:
    def test_pim_contains_original_groups(self, tr):
        protocol, invariant = tr
        pim = compute_pim_groups(protocol, invariant)
        for j in range(protocol.n_processes):
            assert protocol.groups[j] <= pim[j]

    def test_pim_added_groups_never_start_in_i(self, tr):
        protocol, invariant = tr
        pim = compute_pim_groups(protocol, invariant)
        for j, gs in enumerate(pim):
            table = protocol.tables[j]
            for rcode, wcode in gs - protocol.groups[j]:
                src, _ = table.pairs(rcode, wcode)
                assert not invariant.mask[src].any()

    def test_pim_is_maximal(self, tr):
        """Every candidate group whose sources avoid I is included."""
        protocol, invariant = tr
        pim = compute_pim_groups(protocol, invariant)
        for j, table in enumerate(protocol.tables):
            touches = rvals_intersecting(table, invariant.mask)
            for rcode, wcode in table.iter_candidate_groups():
                if not touches[rcode]:
                    assert (rcode, wcode) in pim[j]

    def test_rvals_intersecting_semantics(self, tr):
        protocol, invariant = tr
        table = protocol.tables[1]
        touches = rvals_intersecting(table, invariant.mask)
        for rcode in range(table.n_rvals):
            expected = bool(invariant.mask[table.sources(rcode)].any())
            assert touches[rcode] == expected


class TestRanksTokenRing:
    def test_rank_zero_is_exactly_i(self, tr):
        protocol, invariant = tr
        ranking = compute_ranks(protocol, invariant)
        assert np.array_equal(ranking.rank_mask(0), invariant.mask)

    def test_paper_reports_two_ranks_for_tr4(self, tr):
        """Section V: 'ComputeRanks calculates two ranks (M = 2) that cover
        the entire predicate ¬I' for the K=4, |D|=3 token ring."""
        protocol, invariant = tr
        ranking = compute_ranks(protocol, invariant)
        assert ranking.max_rank == 2
        assert ranking.admits_stabilization()
        assert ranking.rank_mask(1).sum() + ranking.rank_mask(2).sum() == (
            (~invariant.mask).sum()
        )

    def test_rank_histogram_totals(self, tr):
        protocol, invariant = tr
        ranking = compute_ranks(protocol, invariant)
        hist = ranking.rank_histogram()
        assert sum(hist.values()) == protocol.space.size

    def test_backward_bfs_span_records_image_terms(self, tr):
        protocol, invariant = tr
        tracer = Tracer()
        ranking = compute_ranks(
            protocol, invariant, stats=SynthesisStats.traced(tracer)
        )
        (span,) = [
            r["attrs"]
            for r in tracer.records
            if r["type"] == "span" and r["name"] == "rank.backward_bfs"
        ]
        # one term per (process, wcode) that has a p_im group
        terms = sum(len({w for _r, w in gs}) for gs in ranking.pim_groups)
        assert span == {
            "max_rank": 2,
            "states": protocol.space.size,
            "infinite": 0,
            "image_terms": terms,
        }
        assert 0 < terms <= sum(t.n_wvals for t in protocol.tables)

    def test_pim_protocol_roundtrip(self, tr):
        protocol, invariant = tr
        ranking = compute_ranks(protocol, invariant)
        pim = ranking.pim_protocol()
        assert pim.n_groups() >= protocol.n_groups()


class TestRanksMatching:
    def test_empty_protocol_ranks_cover_space(self):
        protocol, invariant = matching(5)
        ranking = compute_ranks(protocol, invariant)
        assert ranking.admits_stabilization()
        assert ranking.max_rank >= 1


def nx_distance_to_invariant(protocol, invariant, pim):
    g = nx.DiGraph()
    g.add_nodes_from(range(protocol.space.size))
    for j, gs in enumerate(pim):
        table = protocol.tables[j]
        for rcode, wcode in gs:
            src, dst = table.pairs(rcode, wcode)
            g.add_edges_from(zip(src.tolist(), dst.tolist()))
    # multi-source BFS on the reversed graph
    lengths = nx.multi_source_dijkstra_path_length(
        g.reverse(copy=False), set(invariant.states().tolist()), weight=None
    )
    return lengths


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(10))
    def test_rank_is_shortest_prefix_length(self, seed):
        rng = random.Random(seed)
        protocol = make_random_protocol(rng)
        invariant = make_closed_invariant(rng, protocol)
        ranking = compute_ranks(protocol, invariant)
        lengths = nx_distance_to_invariant(protocol, invariant, ranking.pim_groups)
        for s in range(protocol.space.size):
            expected = lengths.get(s, INF_RANK)
            assert ranking.rank[s] == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_lemma_iv2_ranks_are_lipschitz_along_pim(self, seed):
        """Lemma IV.2: no transition of any legal pss can decrease rank by
        more than one — equivalently, along every p_im transition,
        rank(dst) >= rank(src) - 1."""
        rng = random.Random(1000 + seed)
        protocol = make_random_protocol(rng)
        invariant = make_closed_invariant(rng, protocol)
        ranking = compute_ranks(protocol, invariant)
        rank = ranking.rank.astype(np.int64)
        big = protocol.space.size + 1
        rank_eff = np.where(rank == INF_RANK, big, rank)
        for j, gs in enumerate(ranking.pim_groups):
            table = protocol.tables[j]
            for rcode, wcode in gs:
                src, dst = table.pairs(rcode, wcode)
                finite = rank_eff[src] < big
                assert (rank_eff[dst][finite] >= rank_eff[src][finite] - 1).all()
