"""Differential tests for the fused algorithm-layer operators.

Two claims, each proved by comparison with the unfused pipeline:

* the kernel-level fused union images ``rel_product_pre_many`` /
  ``rel_product_post_many`` (with their ``constrain``/``subtract``
  windows) are equal to the composed pipeline
  ``or_(rel_product_*(...)) ∧ C ∖ D`` (hypothesis-driven);
* the symbolic-layer wrappers (``preimage_union(within=, subtract=)``,
  ``pre_and``/``pre_diff``/``post_and``/``post_diff``) match their
  unfused compositions on random protocols.
"""

import random

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import ONE, ZERO
from repro.bdd.manager import BDD
from repro.symbolic import (
    SymbolicProtocol,
    post_and,
    post_diff,
    postimage_union,
    pre_and,
    pre_diff,
    preimage_union,
)

from conftest import make_random_protocol

N_VARS = 8
#: interleaved (cur, next) pairing — the layout the symbolic engine uses
PAIRS = [(0, 1), (2, 3), (4, 5), (6, 7)]


def _rand_func(bdd, rng, n_cubes=6, width=3):
    """A random sparse function: OR of a few random cubes."""
    f = ZERO
    for _ in range(n_cubes):
        cube = ONE
        for v in rng.sample(range(N_VARS), width):
            lit = bdd.var(v) if rng.random() < 0.5 else bdd.not_(bdd.var(v))
            cube = bdd.and_(cube, lit)
        f = bdd.or_(f, cube)
    return f


def _rand_cluster(bdd, rng):
    """One partition cluster: (relation BDD, write-set pairs)."""
    n_pairs = rng.randint(0, len(PAIRS))
    pairs = tuple(sorted(rng.sample(PAIRS, n_pairs)))
    return _rand_func(bdd, rng), pairs


def _composed_union(bdd, items, states, *, pre, constrain, subtract):
    """The unfused pipeline the fused operators must reproduce."""
    out = ZERO
    op = bdd.rel_product_pre if pre else bdd.rel_product_post
    for rel, pairs in items:
        if pairs:
            img = op(rel, states, pairs)
        else:
            img = bdd.and_(rel, states)
        out = bdd.or_(out, img)
    if constrain is not None:
        out = bdd.and_(out, constrain)
    if subtract is not None:
        out = bdd.diff(out, subtract)
    return out


CASES = st.tuples(
    st.integers(0, 2**32 - 1),  # rng seed
    st.integers(1, 4),  # number of clusters
    st.booleans(),  # pre vs post
    st.booleans(),  # with constrain window
    st.booleans(),  # with subtract window
)


class TestFusedKernelOps:
    @given(CASES)
    @settings(max_examples=60, deadline=None)
    def test_fused_matches_composed_both_kernels(self, case):
        seed, n_clusters, pre, use_c, use_d = case
        rng = random.Random(seed)
        bdd = BDD(N_VARS)
        items = [_rand_cluster(bdd, rng) for _ in range(n_clusters)]
        states = _rand_func(bdd, rng)
        constrain = _rand_func(bdd, rng) if use_c else None
        subtract = _rand_func(bdd, rng) if use_d else None
        expect = _composed_union(
            bdd, items, states, pre=pre, constrain=constrain,
            subtract=subtract,
        )
        bdd.clear_caches()  # the composed run must not pre-warm the memo
        fused_op = (
            bdd.rel_product_pre_many if pre else bdd.rel_product_post_many
        )
        got = fused_op(items, states, constrain=constrain, subtract=subtract)
        assert got == expect  # canonicity: equal functions, equal ids

    def test_empty_and_degenerate_inputs(self):
        bdd = BDD(N_VARS)
        assert bdd.rel_product_pre_many([], ZERO) == ZERO
        assert bdd.rel_product_pre_many([], ONE) == ZERO
        assert bdd.rel_product_pre_many([(ZERO, PAIRS)], ONE) == ZERO
        assert (
            bdd.rel_product_post_many([(ONE, PAIRS)], ONE, constrain=ZERO)
            == ZERO
        )
        # subtract=ONE removes everything
        assert (
            bdd.rel_product_pre_many([(ONE, PAIRS)], ONE, subtract=ONE)
            == ZERO
        )

    def test_counters_exposed(self):
        c = BDD(4).counters()
        for k in (
            "ite_calls",
            "ite_cache_hits",
            "op_cache_lookups",
            "op_cache_hits",
            "relprod_many_calls",
            "gc_collected",
            "peak_live_nodes",
        ):
            assert k in c


class TestFusedSymbolicLayer:
    @pytest.mark.parametrize("seed", range(6))
    def test_union_images_with_windows_match_unfused(self, seed):
        rng = random.Random(1000 + seed)
        protocol = make_random_protocol(rng, group_density=0.2)
        sp = SymbolicProtocol(protocol)
        sym = sp.sym
        bdd = sym.bdd
        relations = sp.process_relations(protocol.groups)

        mask = np.zeros(protocol.space.size, dtype=bool)
        picks = rng.sample(range(protocol.space.size), 4)
        mask[picks] = True
        states = sym.from_mask(mask)
        wmask = np.zeros(protocol.space.size, dtype=bool)
        wmask[rng.sample(range(protocol.space.size), protocol.space.size // 2)] = True
        window = sym.from_mask(wmask)

        pre_plain = preimage_union(sym, relations, states)
        post_plain = postimage_union(sym, relations, states)
        assert pre_and(sym, relations, states, window) == bdd.and_(
            pre_plain, window
        )
        assert pre_diff(sym, relations, states, window) == bdd.diff(
            pre_plain, window
        )
        assert post_and(sym, relations, states, window) == bdd.and_(
            post_plain, window
        )
        assert post_diff(sym, relations, states, window) == bdd.diff(
            post_plain, window
        )
        both = preimage_union(
            sym, relations, states, within=sym.domain_cur, subtract=window
        )
        assert both == bdd.diff(bdd.and_(pre_plain, sym.domain_cur), window)
