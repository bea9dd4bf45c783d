"""Differential tests: the flat-edge explicit engine vs. the reference
implementations in ``reference_graph.py``.

* flat ``forward_reachable``/``backward_reachable`` vs. the per-group BFS,
  with and without a ``within`` restriction;
* the region-restricted ``cyclic_sccs_after_addition`` vs. full detection on
  the union, over random acyclic bases;
* Kahn-peel ``longest_path_ranks`` vs. the ``np.maximum.at`` fixpoint: equal
  ranks, and a :class:`CertificateEmissionError` from both on exactly the
  inputs that do not strongly converge.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_graph as ref
from repro.cert import CertificateEmissionError, longest_path_ranks
from repro.core import HeuristicOptions, add_strong_convergence
from repro.core.exceptions import SynthesisError
from repro.explicit.graph import TransitionView, backward_reachable, forward_reachable
from repro.explicit.scc import (
    cyclic_sccs,
    cyclic_sccs_after_addition,
    scc_labels,
    scc_labels_after_addition,
    scc_members,
)
from repro.protocols import matching, token_ring
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


@given(
    st.integers(2, 30),
    st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=60),
    st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=6),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_label_fast_path_on_random_dag_bases(size, raw_base, raw_added, rnd):
    # a DAG base: every edge runs down a random topological order
    order = list(range(size))
    rnd.shuffle(order)
    pos = {s: i for i, s in enumerate(order)}
    base = [
        (s % size, t % size)
        for s, t in raw_base
        if pos[s % size] > pos[t % size]
    ]
    added = [(s % size, t % size) for s, t in raw_added if s % size != t % size]

    def arrays(edges):
        return (
            np.array([e[0] for e in edges], dtype=np.int64),
            np.array([e[1] for e in edges], dtype=np.int64),
        )

    labels, sizes = scc_labels_after_addition(*arrays(base), *arrays(added), size)
    full_labels, full_sizes = scc_labels(*arrays(base + added), size)
    assert _scc_sets(scc_members(labels, sizes)) == _scc_sets(
        scc_members(full_labels, full_sizes)
    )
    assert _scc_sets(scc_members(full_labels, full_sizes)) == set(
        ref.tarjan_sccs(base + added)
    )
    assert np.array_equal(labels >= 0, full_labels >= 0)


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
def test_kahn_ranks_match_fixpoint(seed):
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
def test_kahn_ranks_match_fixpoint_on_case_studies(build):
    protocol, invariant = build()
    assert not _assert_ranks_agree(protocol, invariant)
    result = add_strong_convergence(protocol, invariant)
    assert result.success
    assert _assert_ranks_agree(result.protocol, invariant)
