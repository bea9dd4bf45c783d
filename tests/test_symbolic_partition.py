"""Clustered partitions against their full-frame references.

The engine's transition relation is
:meth:`SymbolicProtocol.clustered_partitions` (frameless partitions of
``CLUSTER_SIZE`` consecutive processes).  Its images must be *identical* to
those of the per-process full-frame relations
(:meth:`SymbolicProtocol.process_relations`) and of their ``or_all`` union,
both built here on the same :class:`SymbolicSpace`, so equality is checked
on raw BDD node ids — the strongest form the canonical manager offers.
Ring sizes 3, 4 and 5 give one whole-ring cluster, a full cluster plus a
singleton, and a full cluster plus a partial one.
"""

import pytest

from repro.bdd import ZERO
from repro.protocols import coloring, matching
from repro.symbolic import (
    CLUSTER_SIZE,
    Partition,
    SymbolicProtocol,
    compute_pim_groups_symbolic,
    compute_ranks_symbolic,
    preimage_union,
    postimage_union,
    relation_links,
)
from repro.symbolic.image import preimage, postimage

CASES = [
    pytest.param(build, k, id=f"{build.__name__}-{k}")
    for build in (matching, coloring)
    for k in (3, 4, 5)
]
#: one ring size per protocol, for the per-process and per-group checks
PROTOCOLS = [
    pytest.param(build, 5, id=build.__name__) for build in (matching, coloring)
]


def _setup(build, k):
    protocol, invariant = build(k)
    sp = SymbolicProtocol(protocol)
    return protocol, sp, sp.sym.from_predicate(invariant)


def _representations(sp, groups):
    """The engine's clustered partitions and the two full-frame references."""
    process = sp.process_relations(groups)
    return {
        "partitioned": sp.clustered_partitions(groups),
        "process": process,
        "monolithic": [sp.sym.bdd.or_all(process)],
    }


def _state_sets(sym, inv):
    return [
        inv,
        sym.bdd.diff(sym.domain_cur, inv),
        sym.domain_cur,
        sym.pick_cube(inv),
        sym.pick_cube(sym.bdd.diff(sym.domain_cur, inv)),
    ]


def _backward_ranks(sym, relations, inv):
    """Backward BFS layers from ``inv`` (the ComputeRanks fixpoint)."""
    ranks = [sym.bdd.and_(inv, sym.domain_cur)]
    explored = ranks[0]
    while True:
        frontier = preimage_union(
            sym, relations, ranks[-1], within=sym.domain_cur, subtract=explored
        )
        if frontier == ZERO:
            return ranks
        ranks.append(frontier)
        explored = sym.bdd.or_(explored, frontier)


class TestImageEquivalence:
    @pytest.mark.parametrize("build,k", CASES)
    def test_images_identical_across_representations(self, build, k):
        protocol, sp, inv = _setup(build, k)
        sym = sp.sym
        # the input protocol's groups, and the (never empty) p_im groups
        for groups in (protocol.groups, compute_pim_groups_symbolic(sp, inv)):
            rel_lists = list(_representations(sp, groups).values())
            for states in _state_sets(sym, inv):
                pres = {preimage_union(sym, rels, states) for rels in rel_lists}
                posts = {postimage_union(sym, rels, states) for rels in rel_lists}
                assert len(pres) == 1  # identical node ids
                assert len(posts) == 1

    @pytest.mark.parametrize("build,k", PROTOCOLS)
    def test_single_relation_images_match_union_of_groups(self, build, k):
        """A frameless partition's image equals the full-frame relation's."""
        protocol, sp, inv = _setup(build, k)
        sym = sp.sym
        pim = compute_pim_groups_symbolic(sp, inv)
        states = sym.bdd.diff(sym.domain_cur, inv)
        for j in range(protocol.n_processes):
            gids = [(j, r, w) for (r, w) in pim[j]]
            if not gids:
                continue
            full = sp.relation_of(gids)
            part = sp.partition_of(j, gids)
            assert isinstance(part, Partition)
            assert preimage(sym, part, states) == preimage(sym, full, states)
            assert postimage(sym, part, states) == postimage(sym, full, states)

    @pytest.mark.parametrize("build,k", PROTOCOLS)
    def test_relation_links_equivalent(self, build, k):
        protocol, sp, inv = _setup(build, k)
        sym = sp.sym
        pim = compute_pim_groups_symbolic(sp, inv)
        not_i = sym.bdd.diff(sym.domain_cur, inv)
        for j in range(protocol.n_processes):
            for (r, w) in sorted(pim[j])[:3]:
                gid = (j, r, w)
                for src, dst in [(not_i, not_i), (inv, not_i), (not_i, inv)]:
                    assert relation_links(
                        sym, sp.group_partition(gid), src, dst
                    ) == relation_links(sym, sp.group_relation(gid), src, dst)


class TestClustering:
    def test_cluster_partition_write_sets(self):
        protocol, invariant = matching(6)
        sp = SymbolicProtocol(protocol)
        assert sp.clusters == ((0, 1, 2), (3, 4, 5))
        parts = sp.clustered_partitions(protocol.groups)
        for procs, part in zip(sp.clusters, parts):
            expected_vars = sorted(
                {v for j in procs for v in protocol.tables[j].write_vars}
            )
            expected_bits = tuple(
                b for v in expected_vars for b in sp.sym.cur_levels[v]
            )
            assert part.write_cur == expected_bits

    def test_cluster_index_covers_all_processes(self):
        protocol, _ = matching(7)
        sp = SymbolicProtocol(protocol)
        assert CLUSTER_SIZE == 3
        assert sp.clusters == ((0, 1, 2), (3, 4, 5), (6,))
        for j in range(7):
            assert j in sp.clusters[sp.cluster_index(j)]


class TestRankingEquivalence:
    @pytest.mark.parametrize("build,k", CASES)
    def test_ranks_identical_across_representations(self, build, k):
        _protocol, sp, inv = _setup(build, k)
        ranking = compute_ranks_symbolic(sp, inv)
        for name, rels in _representations(sp, ranking.pim_groups).items():
            assert _backward_ranks(sp.sym, rels, inv) == ranking.ranks, name


class TestPickCube:
    def test_pick_cube_is_singleton_subset(self):
        protocol, invariant = coloring(5)
        sp = SymbolicProtocol(protocol)
        sym = sp.sym
        inv = sym.from_predicate(invariant)
        for states in (inv, sym.bdd.diff(sym.domain_cur, inv), sym.domain_cur):
            cube = sym.pick_cube(states)
            assert cube != ZERO
            assert sym.bdd.and_(cube, states) == cube  # subset
            assert sym.count_states(cube) == 1

    def test_pick_cube_of_empty_is_zero(self):
        protocol, _ = coloring(5)
        sp = SymbolicProtocol(protocol)
        assert sp.sym.pick_cube(ZERO) == ZERO
