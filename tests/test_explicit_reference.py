"""Differential tests: the flat-edge explicit engine vs. the reference
implementations in ``reference_graph.py``.

* flat ``forward_reachable``/``backward_reachable`` vs. the per-group BFS,
  with and without a ``within`` restriction;
* the ``Identify_Resolve_Cycles`` path (:class:`GrowingGraph`: one-level
  pre-check, then one SCC pass over a kept CSR plus hub rows) vs. full
  detection on the union and vs. the BFS region search, over random DAG
  bases, parallel edges in unsorted order, call sequences that cross the
  CSR rebuild boundary, and the single-candidate calls of the
  ``sequential`` and ``hybrid`` modes;
* the tensor-peel ``longest_path_ranks`` vs. the ``np.maximum.at``
  fixpoint: equal ranks (also on the deep token-ring-6-5 and two-ring
  winners), and a :class:`CertificateEmissionError` from both on exactly
  the inputs that do not strongly converge, with the cycle reported before
  a deadlock;
* the tensor pre-images of ``compute_ranks`` and ``shortest_path_ranks`` vs.
  the edge-list BFS, and ``rvals_intersecting`` vs. the cylinder gather: on
  the four ``paper-explicit`` cases, seeded fuzz instances, random
  protocols and hand-built ones with unsorted read and write lists, a
  domain-1 variable, an empty ``p_im`` set and rank-∞ states;
* the cylinder layout the certificate checker reads ranks in
  (``cylinder_rows``, ``target_rcodes``) vs. ``sources`` and ``pairs``,
  on the built-in and the hand-built protocols.
"""

import importlib
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_graph as ref
from repro.cert import (
    CertificateEmissionError,
    longest_path_ranks,
    shortest_path_ranks,
)
from repro.core import HeuristicOptions, add_strong_convergence, synthesize
from repro.core.exceptions import SynthesisError
from repro.core.ranking import INF_RANK, compute_ranks, rvals_intersecting
from repro.explicit.graph import (
    TensorPreImage,
    TransitionView,
    backward_reachable,
    forward_reachable,
)
from repro.explicit.scc import (
    GrowingGraph,
    cyclic_sccs,
    cyclic_sccs_after_addition,
    scc_labels,
    scc_labels_after_addition,
    scc_members,
)
from repro.fuzz.generate import generate_instance, iteration_seeds
from repro.protocol.groups import ProcessGroupTable
from repro.protocol.predicate import Predicate
from repro.protocol.protocol import Protocol
from repro.protocol.state_space import StateSpace
from repro.protocol.topology import ProcessSpec, Topology
from repro.protocol.variables import Variable
from repro.protocols import (
    coloring,
    dijkstra_stabilizing_token_ring,
    gouda_acharya_matching,
    graph_coloring,
    line_coloring,
    matching,
    max_propagation,
    token_ring,
    tree_coloring,
    two_ring,
)
from repro.verify import check_solution

from conftest import make_closed_invariant, make_random_protocol

relaxed = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
seeds = st.integers(0, 2**32 - 1)


def _scc_sets(sccs):
    return {frozenset(c.tolist()) for c in sccs}


@given(seeds, st.booleans())
@relaxed
def test_flat_reachability_matches_per_group_bfs(seed, restrict):
    rng = random.Random(seed)
    protocol = make_random_protocol(rng)
    size = protocol.space.size
    view = TransitionView.of_protocol(protocol)
    within = (
        np.array([rng.random() < 0.7 for _ in range(size)]) if restrict else None
    )
    start = np.array(rng.sample(range(size), rng.randint(0, 3)), dtype=np.int64)
    as_mask = np.zeros(size, dtype=bool)
    as_mask[start] = True
    for seeds_ in (start, as_mask):
        for flat, reference in (
            (forward_reachable, ref.forward_reachable),
            (backward_reachable, ref.backward_reachable),
        ):
            got = flat(view, seeds_, size, within)
            want = reference(view, seeds_, size, within)
            assert np.array_equal(got, want)
    # the caller's start mask is not modified
    assert np.array_equal(np.flatnonzero(as_mask), np.sort(np.unique(start)))


@given(seeds)
@relaxed
def test_addition_fast_path_matches_full_detection(seed):
    rng = random.Random(seed)
    protocol = make_random_protocol(rng, group_density=0.1)
    size = protocol.space.size
    within = (
        None
        if rng.random() < 0.5
        else np.array([rng.random() < 0.8 for _ in range(size)])
    )
    groups = [
        (j, r, w)
        for j, table in enumerate(protocol.tables)
        for (r, w) in table.iter_candidate_groups()
    ]
    rng.shuffle(groups)
    base_ids = []
    for gid in groups[: len(groups) // 2]:
        if not cyclic_sccs(TransitionView(protocol.tables, base_ids + [gid]), size, within):
            base_ids.append(gid)
    added_ids = groups[len(groups) // 2 :][: rng.randint(0, 8)]
    base = TransitionView(protocol.tables, base_ids)
    added = TransitionView(protocol.tables, added_ids)
    union = TransitionView(protocol.tables, base_ids + added_ids)
    fast = _scc_sets(cyclic_sccs_after_addition(base, added, size, within))
    full = _scc_sets(cyclic_sccs(union, size, within))
    assert fast == full
    src, dst = union.edge_arrays(within)
    edges = list(zip(src.tolist(), dst.tolist()))
    assert full == set(ref.tarjan_sccs(edges))


def _arrays(edges):
    return (
        np.array([e[0] for e in edges], dtype=np.int64),
        np.array([e[1] for e in edges], dtype=np.int64),
    )


def _assert_same_labelling(got, want):
    """Two ``(labels, sizes)`` pairs name the same cyclic SCCs."""
    assert _scc_sets(scc_members(*got)) == _scc_sets(scc_members(*want))
    assert sorted(got[1].tolist()) == sorted(want[1].tolist())
    assert np.array_equal(got[0] >= 0, want[0] >= 0)


def _dag(size, raw, rnd):
    """The edges of ``raw`` (taken mod ``size``) that run down a random
    topological order."""
    order = list(range(size))
    rnd.shuffle(order)
    pos = {s: i for i, s in enumerate(order)}
    return [
        (s % size, t % size) for s, t in raw if pos[s % size] > pos[t % size]
    ]


@given(
    st.integers(2, 30),
    st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=60),
    st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=6),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_label_fast_path_on_random_dag_bases(size, raw_base, raw_added, rnd):
    base = _dag(size, raw_base, rnd)
    added = [(s % size, t % size) for s, t in raw_added if s % size != t % size]
    labels, sizes = scc_labels_after_addition(*_arrays(base), *_arrays(added), size)
    full_labels, full_sizes = scc_labels(*_arrays(base + added), size)
    _assert_same_labelling((labels, sizes), (full_labels, full_sizes))
    assert _scc_sets(scc_members(full_labels, full_sizes)) == set(
        ref.tarjan_sccs(base + added)
    )
    region = ref.region_scc_labels_after_addition(
        *_arrays(base), *_arrays(added), size
    )
    _assert_same_labelling((labels, sizes), region)


@given(
    st.integers(2, 30),
    st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=60),
    st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=8),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_parallel_edges_in_unsorted_order(size, raw_base, raw_added, rnd):
    # every edge appears up to three times, rows are shuffled, and the added
    # edges repeat each other and base edges
    base = _dag(size, raw_base, rnd)
    base = [e for e in base for _ in range(rnd.randint(1, 3))]
    rnd.shuffle(base)
    added = [(s % size, t % size) for s, t in raw_added if s % size != t % size]
    added = added + added + rnd.sample(base, min(len(base), 3))
    rnd.shuffle(added)
    got = scc_labels_after_addition(*_arrays(base), *_arrays(added), size)
    want = ref.region_scc_labels_after_addition(
        *_arrays(base), *_arrays(added), size
    )
    _assert_same_labelling(got, want)
    assert _scc_sets(scc_members(*got)) == set(ref.tarjan_sccs(base + added))


def test_parallel_edges_on_a_case_study_graph():
    # token ring's pss|¬I, each edge doubled, in random order, with the
    # candidates of one Add_Recovery batch: the CSR shape scipy mishandles
    # when its rows hold unsorted parallel edges
    protocol, invariant = token_ring(4, 3)
    size = protocol.space.size
    rng = np.random.default_rng(3)
    src, dst = TransitionView.of_protocol(protocol).edge_arrays(~invariant.mask)
    perm = rng.permutation(2 * len(src))
    src, dst = np.concatenate([src, src])[perm], np.concatenate([dst, dst])[perm]
    groups = [
        (j, r, w)
        for j, table in enumerate(protocol.tables)
        for (r, w) in table.iter_candidate_groups()
        if (r, w) not in protocol.groups[j]
    ]
    picks = rng.choice(len(groups), 12, replace=False)
    add_src, add_dst = TransitionView(
        protocol.tables, [groups[i] for i in picks]
    ).edge_arrays(~invariant.mask)
    add_src, add_dst = np.tile(add_src, 2), np.tile(add_dst, 2)
    got = scc_labels_after_addition(src, dst, add_src, add_dst, size)
    want = ref.region_scc_labels_after_addition(src, dst, add_src, add_dst, size)
    _assert_same_labelling(got, want)
    full = scc_labels(
        np.concatenate([src, add_src]), np.concatenate([dst, add_dst]), size
    )
    _assert_same_labelling(got, full)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_call_sequence_crosses_the_rebuild_boundary(seed):
    # grow one DAG by appends between calls; the CSR is rebuilt once the
    # appended edges outnumber the built ones, and every call must agree
    # with the region search on the edges present at that moment
    rnd = random.Random(seed)
    size = rnd.randint(8, 40)
    order = list(range(size))
    rnd.shuffle(order)
    pos = {s: i for i, s in enumerate(order)}

    def random_edges(k, downward):
        out = []
        while len(out) < k:
            s, t = rnd.randrange(size), rnd.randrange(size)
            if s != t and (not downward or pos[s] > pos[t]):
                out.append((s, t))
        return out

    graph = GrowingGraph(size, *_arrays(random_edges(rnd.randint(1, 6), True)))
    builds = []
    for _ in range(12):
        # a reversed graph edge closes a cycle, so every call reaches the
        # SCC pass rather than ending at the one-level pre-check
        src, dst = graph.edges()
        back = rnd.randrange(len(src))
        added = random_edges(rnd.randint(0, 4), False)
        added.append((int(dst[back]), int(src[back])))
        got = graph.scc_labels_with(*_arrays(added))
        want = ref.region_scc_labels_after_addition(
            *graph.edges(), *_arrays(added), size
        )
        _assert_same_labelling(got, want)
        assert len(got[1])
        assert 2 * graph.n_built >= graph.n_edges
        builds.append((graph.n_built, graph.n_edges))
        graph.append(*_arrays(random_edges(rnd.randint(0, 2 * size), True)))
    # some calls run on hub rows, and the CSR is rebuilt more than once
    assert len({built for built, _ in builds}) >= 3
    assert any(built < edges for built, edges in builds)


@pytest.mark.parametrize("mode", ["sequential", "hybrid"])
@pytest.mark.parametrize(
    "build", [lambda: token_ring(4, 3), lambda: token_ring(5, 5), lambda: matching(6)],
    ids=["tr-4-3", "tr-5-5", "matching-6"],
)
def test_single_candidate_calls_match_region_search(monkeypatch, mode, build):
    # every Identify_Resolve_Cycles call of a sequential/hybrid run — most of
    # them single-candidate — is checked against the region search on the
    # same edges
    calls = []
    checked = GrowingGraph.scc_labels_with

    def both(self, add_src, add_dst):
        got = checked(self, add_src, add_dst)
        want = ref.region_scc_labels_after_addition(
            *self.edges(), add_src, add_dst, self.size
        )
        _assert_same_labelling(got, want)
        calls.append(len(add_src))
        return got

    batch_sizes = []
    # ``repro.core`` re-exports a function of the module's name
    module = importlib.import_module("repro.core.add_convergence")
    irc = module.identify_resolve_cycles

    def counted(state, candidates):
        batch_sizes.append(len(candidates))
        return irc(state, candidates)

    monkeypatch.setattr(GrowingGraph, "scc_labels_with", both)
    monkeypatch.setattr(module, "identify_resolve_cycles", counted)
    protocol, invariant = build()
    result = add_strong_convergence(
        protocol, invariant, options=HeuristicOptions(cycle_resolution_mode=mode)
    )
    assert batch_sizes.count(1) > 0
    assert len(calls) == len(batch_sizes)
    assert check_solution(protocol, result.protocol, invariant).converges == (
        result.success
    )


def _assert_ranks_agree(protocol, invariant):
    try:
        want = ref.longest_path_ranks(protocol, invariant)
    except CertificateEmissionError as exc:
        want, reason = None, str(exc)
    converges = check_solution(protocol, protocol, invariant).converges
    if want is None:
        assert not converges
        with pytest.raises(CertificateEmissionError) as info:
            longest_path_ranks(protocol, invariant)
        # the same branch fires: a cycle is reported before a deadlock
        assert ("cycle" in str(info.value)) == ("cycle" in reason)
        return False
    assert converges
    got = longest_path_ranks(protocol, invariant)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    return True


@given(seeds)
@relaxed
def test_longest_path_ranks_match_fixpoint(seed):
    rng = random.Random(seed)
    protocol = make_random_protocol(rng, group_density=rng.choice([0.05, 0.2]))
    invariant = make_closed_invariant(rng, protocol)
    _assert_ranks_agree(protocol, invariant)
    try:
        result = add_strong_convergence(
            protocol, invariant, options=HeuristicOptions()
        )
    except SynthesisError:
        return
    if result.success:
        assert _assert_ranks_agree(result.protocol, invariant)


@pytest.mark.parametrize(
    "build", [lambda: token_ring(4, 3), lambda: matching(6)], ids=["tr", "matching"]
)
def test_longest_path_ranks_match_fixpoint_on_case_studies(build):
    protocol, invariant = build()
    assert not _assert_ranks_agree(protocol, invariant)
    result = add_strong_convergence(protocol, invariant)
    assert result.success
    assert _assert_ranks_agree(result.protocol, invariant)


@pytest.mark.parametrize(
    "build, depth",
    [(lambda: token_ring(6, 5), 104), (two_ring, 58)],
    ids=["token-ring-6-5", "two-ring"],
)
def test_longest_path_ranks_match_fixpoint_on_deep_winners(build, depth):
    """The paper-explicit winners with the most levels: one tensor image
    per level, 104 and 58 of them."""
    protocol, invariant = build()
    pss = synthesize(protocol, invariant).result.protocol
    assert _assert_ranks_agree(pss, invariant)
    assert int(longest_path_ranks(pss, invariant).max()) == depth


def _one_variable_protocol(domain, groups):
    """One process reading and writing ``x`` over ``domain`` values, with
    the given ``(x, x')`` groups, and I = {x = 0}."""
    space = StateSpace([Variable("x", domain)])
    spec = ProcessSpec("P0", (0,), (0,))
    return _protocol(space, [spec], [set(groups)], space.var_array(0) == 0)


@pytest.mark.parametrize(
    "domain, groups, message",
    [
        # 1 -> 2 -> 1: a non-progress cycle outside I
        (3, [(1, 2), (2, 1), (1, 0)], "non-progress cycle"),
        # 2 -> 1 and x = 1 has no move: a deadlock outside I
        (3, [(2, 1)], "deadlocks outside I"),
        # both (x = 3 has no move): the cycle is reported first, as by
        # the fixpoint
        (4, [(1, 2), (2, 1)], "non-progress cycle"),
        (4, [(1, 2), (2, 1), (2, 3)], "non-progress cycle"),
    ],
    ids=["cycle", "deadlock", "cycle-and-deadlock", "cycle-into-deadlock"],
)
def test_longest_path_ranks_refuse_hand_built_non_converging(
    domain, groups, message
):
    protocol, invariant = _one_variable_protocol(domain, groups)
    assert not _assert_ranks_agree(protocol, invariant)
    with pytest.raises(CertificateEmissionError, match=message):
        longest_path_ranks(protocol, invariant)


def test_longest_path_ranks_on_hand_built_chain():
    # 3 -> 2 -> 1 -> 0 plus the shortcut 3 -> 1: the longest path counts
    protocol, invariant = _one_variable_protocol(
        4, [(1, 0), (2, 1), (3, 2), (3, 1)]
    )
    assert _assert_ranks_agree(protocol, invariant)
    assert longest_path_ranks(protocol, invariant).tolist() == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# tensor pre-images (compute_ranks, shortest_path_ranks,
# rvals_intersecting) vs. the edge-list BFS
# ----------------------------------------------------------------------
def _assert_ranks_match_edge_bfs(protocol, invariant):
    """Tensor ranks of ``p_im`` and the weak witness of ``δp`` and of
    ``p_im``, each bit-identical to the edge BFS; returns the ranking."""
    ranking = compute_ranks(protocol, invariant)
    want = ref.edge_bfs_distances(
        protocol.tables, ranking.pim_groups, invariant.mask
    )
    assert ranking.rank.dtype == want.dtype
    assert np.array_equal(ranking.rank, want)
    assert ranking.max_rank == int(want.max(initial=0))
    for pss, bfs in (
        (ranking.pim_protocol(), want),
        (
            protocol,
            ref.edge_bfs_distances(protocol.tables, protocol.groups, invariant.mask),
        ),
    ):
        if (bfs < 0).any():
            with pytest.raises(CertificateEmissionError):
                shortest_path_ranks(pss, invariant)
        else:
            got = shortest_path_ranks(pss, invariant)
            assert got.dtype == bfs.dtype
            assert np.array_equal(got, bfs)
    for table in protocol.tables:
        assert np.array_equal(
            rvals_intersecting(table, invariant.mask),
            ref.rvals_intersecting(table, invariant.mask),
        )
    return ranking


@pytest.mark.parametrize(
    "build",
    [
        lambda: token_ring(6, 5),
        lambda: coloring(13),
        lambda: matching(11),
        two_ring,
    ],
    ids=["token-ring-6-5", "coloring-13", "matching-11", "two-ring"],
)
def test_tensor_ranks_match_edge_bfs_on_paper_cases(build):
    protocol, invariant = build()
    ranking = _assert_ranks_match_edge_bfs(protocol, invariant)
    assert ranking.admits_stabilization()


@pytest.mark.parametrize("seed", iteration_seeds(21, 16))
def test_tensor_ranks_match_edge_bfs_on_fuzz_instances(seed):
    instance = generate_instance(seed)
    _assert_ranks_match_edge_bfs(instance.protocol, instance.invariant)


@given(seeds, st.booleans())
@relaxed
def test_tensor_image_matches_edge_predecessors(seed, closed):
    rng = random.Random(seed)
    protocol = make_random_protocol(rng, group_density=rng.choice([0.05, 0.3]))
    size = protocol.space.size
    target = np.array([rng.random() < 0.3 for _ in range(size)])
    src, dst = TransitionView.of_protocol(protocol).edge_arrays()
    want = np.zeros(size, dtype=bool)
    want[src[target[dst]]] = True
    pre = TensorPreImage(protocol.space, protocol.tables, protocol.groups)
    assert np.array_equal(pre(target), want)
    invariant = (
        make_closed_invariant(rng, protocol)
        if closed
        else Predicate(protocol.space, target)
    )
    _assert_ranks_match_edge_bfs(protocol, invariant)


def _protocol(space, specs, groups, invariant_mask):
    """A protocol over ``specs`` exactly as given (read and write tuples in
    the given order, which a plain ``ProcessSpec`` would sort)."""
    sorted_specs = [ProcessSpec(s.name, s.reads, s.writes) for s in specs]
    tables = [ProcessGroupTable(space, j, s) for j, s in enumerate(specs)]
    protocol = Protocol(
        space, Topology(tuple(sorted_specs)), groups, tables=tables
    )
    return protocol, Predicate(space, invariant_mask)


def _unsorted_spec(name, reads, writes):
    spec = ProcessSpec(name, reads, writes)
    object.__setattr__(spec, "reads", tuple(reads))
    object.__setattr__(spec, "writes", tuple(writes))
    return spec


def _random_groups(rng, tables, density):
    return [
        {g for g in table.iter_candidate_groups() if rng.random() < density}
        for table in tables
    ]


@pytest.mark.parametrize("seed", range(12))
def test_tensor_ranks_with_unsorted_read_and_write_lists(seed):
    rng = random.Random(seed)
    space = StateSpace([Variable("x", 2), Variable("y", 3), Variable("z", 4)])
    specs = [
        _unsorted_spec("P0", (2, 0), (0,)),
        _unsorted_spec("P1", (1, 2, 0), (2, 1)),
        _unsorted_spec("P2", (2, 1), (1,)),
    ]
    tables = [ProcessGroupTable(space, j, s) for j, s in enumerate(specs)]
    assert tables[1].read_vars == (1, 2, 0)
    # rcode digits follow the given read order
    rcode = tables[1].rcode_of_state(space.encode([1, 2, 3]))
    assert tables[1].values_of_rcode(rcode) == (2, 3, 1)
    groups = _random_groups(rng, tables, rng.choice([0.05, 0.2]))
    mask = np.array([rng.random() < 0.2 for _ in range(space.size)])
    mask[rng.randrange(space.size)] = True
    protocol, invariant = _protocol(space, specs, groups, mask)
    _assert_ranks_match_edge_bfs(protocol, invariant)
    _assert_cylinders_match_pairs(protocol)


@pytest.mark.parametrize("seed", range(12))
def test_tensor_ranks_on_domain_one_and_infinite_rank_states(seed):
    # z has one value; P0 writes two variables and reads z; P2 writes only
    # z, so it has no candidate group; P3 reads only a, whose every value
    # meets I, so its p_im set is empty; nothing writes d, so the states
    # with d = 1 never reach I (rank ∞)
    rng = random.Random(seed)
    space = StateSpace(
        [
            Variable("a", 3),
            Variable("z", 1),
            Variable("b", 2),
            Variable("c", 3),
            Variable("d", 2),
        ]
    )
    assert space.tensor_shape == (3, 2, 3, 2)
    specs = [
        ProcessSpec("P0", (0, 1, 2), (0, 2)),
        ProcessSpec("P1", (2, 3), (3,)),
        ProcessSpec("P2", (1, 4), (1,)),
        ProcessSpec("P3", (0,), (0,)),
    ]
    tables = [ProcessGroupTable(space, j, s) for j, s in enumerate(specs)]
    groups = _random_groups(rng, tables[:2], rng.choice([0.1, 0.4]))
    groups += [set(), set()]
    values = {v.name: space.var_array(i) for i, v in enumerate(space.variables)}
    mask = (values["d"] == 0) & (values["b"] == values["c"] % 2)
    protocol, invariant = _protocol(space, specs, groups, mask)
    ranking = _assert_ranks_match_edge_bfs(protocol, invariant)
    _assert_cylinders_match_pairs(protocol)
    assert tables[2].n_candidate_groups == 0
    assert ranking.pim_groups[2] == set() and ranking.pim_groups[3] == set()
    assert (ranking.rank[values["d"] == 1] == INF_RANK).all()
    assert ranking.max_rank >= 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: token_ring(4, 3),
        lambda: dijkstra_stabilizing_token_ring(4, 3),
        lambda: matching(6),
        lambda: gouda_acharya_matching(5),
        lambda: coloring(6),
        lambda: line_coloring(5),
        lambda: tree_coloring(2, 2),
        lambda: graph_coloring(nx.petersen_graph()),
        lambda: max_propagation(nx.path_graph(4)),
        lambda: two_ring(),
    ],
    ids=[
        "token-ring",
        "dijkstra-token-ring",
        "matching",
        "gouda-acharya",
        "coloring",
        "line-coloring",
        "tree-coloring",
        "petersen-coloring",
        "max-propagation",
        "two-ring",
    ],
)
def test_rvals_intersecting_matches_gather_on_builtin_protocols(build):
    protocol, invariant = build()
    rng = np.random.default_rng(5)
    masks = [invariant.mask, ~invariant.mask, rng.random(protocol.space.size) < 0.01]
    for table in protocol.tables:
        for mask in masks:
            assert np.array_equal(
                rvals_intersecting(table, mask), ref.rvals_intersecting(table, mask)
            )
    _assert_cylinders_match_pairs(protocol)


def _assert_cylinders_match_pairs(protocol):
    """``cylinder_rows`` lays out each rcode's sources in ``pairs`` order,
    and ``target_rcodes`` names the cylinder of each group's targets."""
    states = np.arange(protocol.space.size)
    for table in protocol.tables:
        rows = table.cylinder_rows(states)
        for rcode in range(table.n_rvals):
            assert np.array_equal(
                rows[table.cylinder_row[rcode]], table.sources(rcode)
            )
        candidates = list(table.iter_candidate_groups())
        if not candidates:
            continue
        rcodes, wcodes = map(list, zip(*candidates))
        targets = table.target_rcodes(rcodes, wcodes)
        for (rcode, wcode), target in zip(candidates, targets):
            _src, dst = table.pairs(rcode, wcode)
            assert np.array_equal(rows[table.cylinder_row[target]], dst)
