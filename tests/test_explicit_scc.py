"""SCC detection tests: scipy-backed detector vs. the reference Tarjan vs.
networkx, plus the acyclic-base path (``cyclic_sccs_after_addition``) used
by Identify_Resolve_Cycles."""

import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explicit.graph import TransitionView
from repro.explicit.scc import (
    cyclic_sccs,
    cyclic_sccs_after_addition,
    scc_labels,
    scc_members,
)
from repro.protocols import token_ring

from conftest import make_random_protocol
from reference_graph import tarjan_sccs


def nx_cyclic_sccs(edges):
    g = nx.DiGraph()
    g.add_edges_from(edges)
    out = set()
    for comp in nx.strongly_connected_components(g):
        comp = frozenset(comp)
        if len(comp) > 1 or any((v, v) in g.edges for v in comp):
            out.add(comp)
    return out


edge_lists = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=0, max_size=40
)


@given(edge_lists)
@settings(max_examples=200, deadline=None)
def test_tarjan_matches_networkx(edges):
    assert set(tarjan_sccs(edges)) == nx_cyclic_sccs(edges)


@given(edge_lists)
@settings(max_examples=200, deadline=None)
def test_edge_scc_matches_networkx_without_self_loops(edges):
    # the group model cannot produce self-loops, so the scipy-backed detector
    # is specified only for self-loop-free graphs
    edges = [(s, t) for s, t in edges if s != t]
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    labels, sizes = scc_labels(src, dst, 13)
    got = {frozenset(c.tolist()) for c in scc_members(labels, sizes)}
    assert got == nx_cyclic_sccs(edges)
    assert sorted(sizes.tolist()) == sorted(len(c) for c in got)
    assert (labels >= 0).sum() == sizes.sum()


class TestProtocolSccs:
    def test_token_ring_input_has_no_cycles(self):
        protocol, invariant = token_ring(4, 3)
        view = TransitionView.of_protocol(protocol)
        assert cyclic_sccs(view, protocol.space.size, ~invariant.mask) == []

    def test_paper_cycle_example(self):
        """Section IV: adding x1 = x0+1 -> x1 := x0-1 to P1 creates a
        non-progress cycle through <1,2,1,0>."""
        protocol, invariant = token_ring(4, 3)
        table = protocol.tables[1]
        extra = []
        for rcode in range(table.n_rvals):
            x0, x1 = table.values_of_rcode(rcode)
            if x1 == (x0 + 1) % 3:
                extra.append((1, rcode, table.wcode_of_values([(x0 - 1) % 3])))
        view = TransitionView.of_protocol(protocol, extra=extra)
        sccs = cyclic_sccs(view, protocol.space.size, ~invariant.mask)
        assert sccs, "the paper's recovery action must create a cycle"
        witness = protocol.space.encode([1, 2, 1, 0])
        assert any(witness in c.tolist() for c in sccs)


class TestRegionRestrictedDetection:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_full_detection_when_base_acyclic(self, seed):
        rng = random.Random(seed)
        protocol = make_random_protocol(rng, group_density=0.08)
        size = protocol.space.size
        within = np.ones(size, dtype=bool)
        all_groups = [
            (j, r, w)
            for j, table in enumerate(protocol.tables)
            for (r, w) in table.iter_candidate_groups()
        ]
        rng.shuffle(all_groups)
        base_ids = []
        # grow an acyclic base greedily
        for gid in all_groups[: len(all_groups) // 2]:
            candidate = TransitionView(protocol.tables, base_ids + [gid])
            if not cyclic_sccs(candidate, size, within):
                base_ids.append(gid)
        added_ids = all_groups[len(all_groups) // 2 :][:6]
        base = TransitionView(protocol.tables, base_ids)
        added = TransitionView(protocol.tables, added_ids)
        fast = {
            frozenset(c.tolist())
            for c in cyclic_sccs_after_addition(base, added, size, within)
        }
        union = TransitionView(protocol.tables, base_ids + added_ids)
        full = {frozenset(c.tolist()) for c in cyclic_sccs(union, size, within)}
        assert fast == full

    def test_no_added_groups_is_empty(self):
        protocol, invariant = token_ring(3, 3)
        base = TransitionView.of_protocol(protocol)
        added = TransitionView(protocol.tables, [])
        assert (
            cyclic_sccs_after_addition(
                base, added, protocol.space.size, ~invariant.mask
            )
            == []
        )
