"""Cross-engine equivalence: explicit vs. symbolic, on the case studies.

The two engines (:mod:`repro.core`/:mod:`repro.explicit` and
:mod:`repro.symbolic`) implement the same paper algorithms over different
state-set representations.  This suite pins them together on the real
case-study protocols (the random-protocol differential tests live in
``test_symbolic_algorithms.py``):

* ``ComputeRanks`` must produce *identical rank partitions* — every
  ``Rank[i]`` mask equal state-for-state, same ``p_im`` groups, same
  unreachable set;
* SCC decomposition — the explicit Tarjan reference vs. the symbolic
  Gentilini (and Xie-Beerel) algorithms — must agree state-for-state, both
  on the full transition graph and restricted to ``¬I`` (the region the
  synthesis heuristic actually decomposes).
"""

import numpy as np
import pytest

from repro.core.ranking import compute_ranks
from repro.protocols import (
    coloring,
    gouda_acharya_matching,
    matching,
    token_ring,
)
from repro.symbolic import (
    SymbolicProtocol,
    compute_ranks_symbolic,
    gentilini_sccs,
    xie_beerel_sccs,
)

from reference_graph import tarjan_sccs

# Small instances of three case-study protocols (plus the flawed
# Gouda-Acharya protocol, the one with genuine non-progress cycles in ¬I).
CASES = [
    ("token-ring", lambda: token_ring(4, 3)),
    ("matching", lambda: matching(5)),
    ("coloring", lambda: coloring(5)),
]
SCC_CASES = CASES + [("gouda-acharya", lambda: gouda_acharya_matching(5))]


def _setup(build):
    protocol, invariant = build()
    return protocol, invariant, SymbolicProtocol(protocol)


def _symbolic_scc_sets(sym, sccs):
    return {
        frozenset(np.flatnonzero(sym.to_mask(c)).tolist()) for c in sccs
    }


def _explicit_scc_sets(protocol, within=None):
    edges = [
        (s0, s1)
        for s0, s1 in protocol.transition_set()
        if within is None or (within[s0] and within[s1])
    ]
    return {c for c in tarjan_sccs(edges) if len(c) >= 2}


class TestRankEquivalence:
    @pytest.mark.parametrize(
        "build", [c[1] for c in CASES], ids=[c[0] for c in CASES]
    )
    def test_rank_partitions_identical(self, build):
        protocol, invariant, sp = _setup(build)
        sym = sp.sym
        explicit = compute_ranks(protocol, invariant)
        symbolic = compute_ranks_symbolic(sp, sym.from_predicate(invariant))

        assert symbolic.pim_groups == explicit.pim_groups
        assert symbolic.max_rank == explicit.max_rank
        for i, rank_bdd in enumerate(symbolic.ranks):
            assert np.array_equal(
                sym.to_mask(rank_bdd), explicit.rank_mask(i)
            ), f"Rank[{i}] differs between engines for {protocol.name}"
        assert np.array_equal(
            sym.to_mask(symbolic.unreachable), explicit.infinite_mask
        )

    @pytest.mark.parametrize(
        "build", [c[1] for c in CASES], ids=[c[0] for c in CASES]
    )
    def test_rank_histograms_identical(self, build):
        protocol, invariant, sp = _setup(build)
        sym = sp.sym
        explicit = compute_ranks(protocol, invariant)
        symbolic = compute_ranks_symbolic(sp, sym.from_predicate(invariant))
        histogram = explicit.rank_histogram()
        assert symbolic.rank_sizes() == [
            histogram.get(i, 0) for i in range(explicit.max_rank + 1)
        ]


class TestSccEquivalence:
    @pytest.mark.parametrize("algorithm", [gentilini_sccs, xie_beerel_sccs])
    @pytest.mark.parametrize(
        "build", [c[1] for c in SCC_CASES], ids=[c[0] for c in SCC_CASES]
    )
    def test_full_graph_sccs_match_tarjan(self, build, algorithm):
        protocol, invariant, sp = _setup(build)
        sym = sp.sym
        relations = sp.process_relations(protocol.groups)
        symbolic = _symbolic_scc_sets(
            sym, algorithm(sym, relations, sym.domain_cur)
        )
        explicit = _explicit_scc_sets(protocol)
        assert symbolic == explicit

    @pytest.mark.parametrize(
        "build", [c[1] for c in SCC_CASES], ids=[c[0] for c in SCC_CASES]
    )
    def test_not_i_sccs_match_tarjan(self, build):
        """The region the heuristic decomposes: the graph restricted to ¬I.

        For the three synthesizable case studies this is empty (their δp
        is acyclic outside I — Section V); Gouda-Acharya has the paper's
        flaw cycles there, so both engines must report identical SCCs.
        """
        protocol, invariant, sp = _setup(build)
        sym = sp.sym
        relations = sp.process_relations(protocol.groups)
        not_i_mask = ~invariant.mask
        not_i = sym.bdd.diff(sym.domain_cur, sym.from_predicate(invariant))
        symbolic = _symbolic_scc_sets(
            sym, gentilini_sccs(sym, relations, not_i)
        )
        explicit = _explicit_scc_sets(protocol, within=not_i_mask)
        assert symbolic == explicit
