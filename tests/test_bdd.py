"""Tests for the ROBDD package, including brute-force differential checks."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BDD, ONE, ZERO


def truth_table(bdd: BDD, f: int, n: int) -> list[bool]:
    return [
        bdd.eval(f, bits)
        for bits in itertools.product([False, True], repeat=n)
    ]


def random_formula(bdd: BDD, rng: random.Random, depth: int) -> int:
    if depth == 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.1:
            return rng.choice([ZERO, ONE])
        v = bdd.var(rng.randrange(bdd.n_vars))
        return v if rng.random() < 0.5 else bdd.not_(v)
    op = rng.choice(["and", "or", "xor", "not", "ite"])
    a = random_formula(bdd, rng, depth - 1)
    if op == "not":
        return bdd.not_(a)
    b = random_formula(bdd, rng, depth - 1)
    if op == "and":
        return bdd.and_(a, b)
    if op == "or":
        return bdd.or_(a, b)
    if op == "xor":
        return bdd.xor(a, b)
    c = random_formula(bdd, rng, depth - 1)
    return bdd.ite(a, b, c)


class TestBasics:
    def test_terminals(self):
        bdd = BDD(2)
        assert bdd.eval(ONE, [False, False])
        assert not bdd.eval(ZERO, [True, True])

    def test_variable_semantics(self):
        bdd = BDD(2)
        x = bdd.var(0)
        assert bdd.eval(x, [True, False])
        assert not bdd.eval(x, [False, True])

    def test_canonicity(self):
        bdd = BDD(3)
        a = bdd.or_(bdd.var(0), bdd.var(1))
        b = bdd.or_(bdd.var(1), bdd.var(0))
        assert a == b
        assert bdd.and_(a, bdd.not_(a)) == ZERO
        assert bdd.or_(a, bdd.not_(a)) == ONE

    def test_connective_truthtables(self):
        bdd = BDD(2)
        x, y = bdd.var(0), bdd.var(1)
        assert truth_table(bdd, bdd.and_(x, y), 2) == [False, False, False, True]
        assert truth_table(bdd, bdd.or_(x, y), 2) == [False, True, True, True]
        assert truth_table(bdd, bdd.xor(x, y), 2) == [False, True, True, False]
        assert truth_table(bdd, bdd.implies(x, y), 2) == [True, True, False, True]
        assert truth_table(bdd, bdd.iff(x, y), 2) == [True, False, False, True]
        assert truth_table(bdd, bdd.diff(x, y), 2) == [False, False, True, False]

    def test_and_or_all(self):
        bdd = BDD(3)
        vs = [bdd.var(i) for i in range(3)]
        assert bdd.eval(bdd.and_all(vs), [True, True, True])
        assert not bdd.eval(bdd.and_all(vs), [True, False, True])
        assert bdd.eval(bdd.or_all(vs), [False, False, True])

    def test_cube(self):
        bdd = BDD(3)
        c = bdd.cube({0: True, 2: False})
        assert truth_table(bdd, c, 3) == [
            bits[0] and not bits[2]
            for bits in itertools.product([False, True], repeat=3)
        ]


class TestQuantification:
    def test_exists_semantics(self):
        bdd = BDD(3)
        f = bdd.and_(bdd.var(0), bdd.xor(bdd.var(1), bdd.var(2)))
        g = bdd.exists([1], f)
        for bits in itertools.product([False, True], repeat=3):
            expected = any(
                bdd.eval(f, (bits[0], b1, bits[2])) for b1 in (False, True)
            )
            assert bdd.eval(g, bits) == expected

    def test_forall_semantics(self):
        bdd = BDD(2)
        f = bdd.or_(bdd.var(0), bdd.var(1))
        g = bdd.forall([1], f)
        assert g == bdd.var(0)

    def test_and_exists_equals_composition(self):
        rng = random.Random(5)
        bdd = BDD(5)
        for _ in range(30):
            f = random_formula(bdd, rng, 4)
            g = random_formula(bdd, rng, 4)
            vs = rng.sample(range(5), rng.randint(0, 3))
            assert bdd.and_exists(f, g, vs) == bdd.exists(vs, bdd.and_(f, g))

    def test_exists_empty_varset(self):
        bdd = BDD(2)
        f = bdd.var(0)
        assert bdd.exists([], f) == f


class TestRenameRestrict:
    def test_rename_shift(self):
        bdd = BDD(4)
        f = bdd.and_(bdd.var(0), bdd.not_(bdd.var(2)))
        g = bdd.rename(f, {0: 1, 2: 3})
        expected = bdd.and_(bdd.var(1), bdd.not_(bdd.var(3)))
        assert g == expected

    def test_rename_rejects_order_breaking(self):
        bdd = BDD(4)
        f = bdd.and_(bdd.var(0), bdd.var(1))
        with pytest.raises(ValueError):
            bdd.rename(f, {0: 3, 1: 2})

    def test_restrict(self):
        bdd = BDD(3)
        f = bdd.ite(bdd.var(0), bdd.var(1), bdd.var(2))
        assert bdd.restrict(f, {0: True}) == bdd.var(1)
        assert bdd.restrict(f, {0: False}) == bdd.var(2)


class TestCounting:
    def test_count_sat_terminals(self):
        bdd = BDD(4)
        assert bdd.count_sat(ONE) == 16
        assert bdd.count_sat(ZERO) == 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_count_sat_matches_truth_table(self, seed):
        rng = random.Random(seed)
        bdd = BDD(4)
        f = random_formula(bdd, rng, 4)
        assert bdd.count_sat(f) == sum(truth_table(bdd, f, 4))

    def test_pick_satisfies(self):
        rng = random.Random(11)
        bdd = BDD(4)
        for _ in range(40):
            f = random_formula(bdd, rng, 4)
            model = bdd.pick(f)
            if f == ZERO:
                assert model is None
            else:
                bits = [model.get(i, False) for i in range(4)]
                assert bdd.eval(f, bits)

    def test_iter_sat_covers_exactly(self):
        bdd = BDD(3)
        f = bdd.xor(bdd.var(0), bdd.var(2))
        total = 0
        for partial in bdd.iter_sat(f):
            free = 3 - len(partial)
            total += 2**free
            bits = [partial.get(i, False) for i in range(3)]
            assert bdd.eval(f, bits)
        assert total == bdd.count_sat(f)

    def test_size_of_shared_dag(self):
        bdd = BDD(4)
        f = bdd.and_(bdd.var(0), bdd.var(1))
        g = bdd.and_(bdd.var(0), bdd.var(2))
        assert bdd.size_many([f, g]) <= bdd.size(f) + bdd.size(g)


@given(st.integers(0, 100_000))
@settings(max_examples=80, deadline=None)
def test_random_formula_semantics_vs_truth_table(seed):
    """Differential test: the BDD of a random formula computes the same
    function as direct evaluation of the formula tree."""
    rng = random.Random(seed)
    n = 4
    bdd = BDD(n)

    def build(depth):
        if depth == 0 or rng.random() < 0.3:
            i = rng.randrange(n)
            return (lambda bits, i=i: bits[i]), bdd.var(i)
        op = rng.choice(["and", "or", "xor", "not"])
        fa, a = build(depth - 1)
        if op == "not":
            return (lambda bits: not fa(bits)), bdd.not_(a)
        fb, b = build(depth - 1)
        if op == "and":
            return (lambda bits: fa(bits) and fb(bits)), bdd.and_(a, b)
        if op == "or":
            return (lambda bits: fa(bits) or fb(bits)), bdd.or_(a, b)
        return (lambda bits: fa(bits) != fb(bits)), bdd.xor(a, b)

    fn, node = build(4)
    for bits in itertools.product([False, True], repeat=n):
        assert bdd.eval(node, bits) == fn(bits)


class TestVariableBound:
    def test_too_many_variables_rejected(self):
        from repro.bdd import MAX_VARS
        from repro.bdd.mdd import MDD

        with pytest.raises(ValueError, match="exceed the kernel's limit"):
            BDD(MAX_VARS + 1)
        # 300 ternary variables with cur/next pairs: 1200 bits
        with pytest.raises(ValueError, match="exceed the kernel's limit"):
            MDD([3] * 300, pairs=True)

    def test_deepest_recursion_fits_at_the_bound(self):
        """Every operator recurses once per level: at ``MAX_VARS`` the
        deepest ones must still run inside the default recursion limit."""
        from repro.bdd import MAX_VARS

        n = MAX_VARS
        bdd = BDD(n)
        parity = ZERO
        for v in range(n - 1, -1, -1):  # bottom-up: linear-size ladder
            parity = bdd.xor(bdd.var(v), parity)
        assert bdd.size(parity) == 2 * n + 1
        evens = list(range(0, n, 2))
        assert bdd.exists(evens, parity) == ONE
        pairs = [(c, c + 1) for c in evens]
        states = bdd.and_all(bdd.var(c) for c in evens)
        pre = bdd.rel_product_pre(parity, states, pairs)
        # pre(x) = ∃ next . parity(x, next) ∧ (every next bit true)
        odds = {c + 1: True for c in evens}
        assert pre == bdd.restrict(parity, odds)
