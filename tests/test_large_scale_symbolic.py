"""The paper's headline scale: 40 processes, 3^40 states — representable.

Full K=40 synthesis completes on the pure-Python BDD kernel in 18 s and
607 MB (pass 2, 702 recovery groups, peak 1.0 M live nodes; EXPERIMENTS.md
E20), too slow for the test suite; CI's bench-smoke job runs it.  These tests check that the machinery handles
the state space itself: building the protocol, the invariant BDD, candidate
groups, the p_im construction and single image steps at K=40 — none of which
may materialise per-state arrays.
"""

import numpy as np
import pytest

from repro.bdd import ZERO
from repro.protocol.state_space import EXPLICIT_LIMIT
from repro.protocols.coloring import coloring_symbolic
from repro.symbolic import preimage_union
from repro.symbolic.ranking import compute_pim_groups_symbolic


@pytest.fixture(scope="module")
def k40():
    return coloring_symbolic(40)


class TestRepresentation:
    def test_state_space_size_is_3_to_the_40(self, k40):
        protocol, sp, inv = k40
        assert protocol.space.size == 3**40
        assert protocol.space.size > np.iinfo(np.int64).max // 2

    def test_explicit_arrays_refused(self, k40):
        protocol, sp, inv = k40
        with pytest.raises(ValueError, match="symbolic"):
            protocol.space.var_array(0)
        assert protocol.space.size > EXPLICIT_LIMIT

    def test_invariant_bdd_counts_proper_colorings(self, k40):
        """#proper 3-colourings of the cycle C_n is (3-1)^n + (-1)^n (3-1):
        the chromatic polynomial of a cycle, evaluated at 3."""
        protocol, sp, inv = k40
        expected = 2**40 + 2
        assert sp.sym.count_states(inv) == expected

    def test_candidate_groups_enumerable(self, k40):
        protocol, sp, inv = k40
        table = protocol.tables[7]
        assert table.n_candidate_groups == 27 * 2
        assert table.group_size == 3**37

    def test_pim_construction(self, k40):
        protocol, sp, inv = k40
        pim = compute_pim_groups_symbolic(sp, inv)
        # every rcode with a local clash admits recovery: per process
        # 27 - 12 clash-free rcodes = 15 rcodes x 2 non-self writes
        assert all(len(groups) == 15 * 2 for groups in pim)

    def test_single_backward_image_step(self, k40):
        """One preimage of I under one process's p_im relation — the basic
        step ComputeRanks iterates — runs fine at 3^40."""
        protocol, sp, inv = k40
        pim = compute_pim_groups_symbolic(sp, inv)
        rel = sp.relation_of((5, r, w) for (r, w) in pim[5])
        pre = preimage_union(sp.sym, [rel], inv)
        assert pre != ZERO
        # predecessors outside I exist (recovery into I is possible)
        outside = sp.sym.bdd.diff(
            sp.sym.bdd.and_(pre, sp.sym.domain_cur), inv
        )
        assert outside != ZERO

    def test_decode_encode_at_scale(self, k40):
        protocol, sp, inv = k40
        state = protocol.space.size - 1
        values = protocol.space.decode(state)
        assert values == tuple([2] * 40)
        assert protocol.space.encode(values) == state

    def test_pick_state_from_invariant(self, k40):
        protocol, sp, inv = k40
        s = sp.sym.pick_state(inv)
        values = protocol.space.decode(s)
        for i in range(40):
            assert values[i] != values[(i + 1) % 40]
