"""Differential tests: the BDD kernel against a truth-table model.

Every function over ``N_VARS = 6`` variables is modelled as a 64-bit
truth table (row ``r`` assigns variable ``i`` the bit ``(r >> i) & 1``):
connectives are bitwise, ``exists``/``forall`` are the OR/AND of the two
cofactors, and ``rename``, ``restrict`` and the fused relational products
are built from substitution, cofactors and quantification.  Random
expression DAGs and random structural-operation sequences (quantification,
fused products, rename, restrict, GC, forced sifting) run on the kernel
and on the model, and every result is compared on all 64 assignments.

Canonicity is asserted directly, which catches unique-table corruption
that a truth-table comparison alone would miss: within one manager equal
truth tables must have equal node ids, and ``size()`` must equal the
ROBDD size computed from the truth table under the manager's current
variable order.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import ONE, ZERO
from repro.bdd.manager import BDD

N_VARS = 6
N_ROWS = 1 << N_VARS
FULL = (1 << N_ROWS) - 1
ALL_ASSIGNMENTS = [
    tuple(bool(r >> i & 1) for i in range(N_VARS)) for r in range(N_ROWS)
]
#: VAR[i]: the rows where variable i is true
VAR = [
    sum(1 << r for r in range(N_ROWS) if r >> i & 1) for i in range(N_VARS)
]
#: interleaved (cur, next) pairing — the layout the symbolic engine uses
PAIRS = [(0, 1), (2, 3), (4, 5)]


# ----------------------------------------------------------------------
# the truth-table model
# ----------------------------------------------------------------------
def cofactor(t: int, v: int, value: bool) -> int:
    """``t`` with variable ``v`` fixed, as a table independent of ``v``."""
    shift = 1 << v
    half = (t >> shift if value else t) & (FULL ^ VAR[v])
    return half | (half << shift)


def tt_exists(t: int, variables) -> int:
    for v in variables:
        t = cofactor(t, v, False) | cofactor(t, v, True)
    return t


def tt_forall(t: int, variables) -> int:
    for v in variables:
        t = cofactor(t, v, False) & cofactor(t, v, True)
    return t


def depends(t: int, v: int) -> bool:
    return cofactor(t, v, False) != cofactor(t, v, True)


def tt_substitute(t: int, mapping: dict[int, int]) -> int:
    """``t[old := new]`` for every ``old -> new`` in ``mapping`` at once."""
    out = 0
    for r in range(N_ROWS):
        src = r
        for old, new in mapping.items():
            src = (src & ~(1 << old)) | ((r >> new & 1) << old)
        if t >> src & 1:
            out |= 1 << r
    return out


def robdd_size(t: int, order: list[int]) -> int:
    """Nodes (terminals included) of the ROBDD of ``t`` under ``order``."""
    seen: set[int] = set()

    def walk(u: int, i: int) -> None:
        if u in seen:
            return
        seen.add(u)
        if u in (0, FULL):
            return
        while not depends(u, order[i]):
            i += 1
        v = order[i]
        walk(cofactor(u, v, False), i + 1)
        walk(cofactor(u, v, True), i + 1)

    walk(t, 0)
    return len(seen)


_BINOPS = {
    "and": ("and_", lambda a, b: a & b),
    "or": ("or_", lambda a, b: a | b),
    "xor": ("xor", lambda a, b: a ^ b),
    "implies": ("implies", lambda a, b: (FULL ^ a) | b),
    "iff": ("iff", lambda a, b: FULL ^ (a ^ b)),
    "diff": ("diff", lambda a, b: a & (FULL ^ b)),
}


class Checked:
    """One manager plus the canonicity registry (table -> node id)."""

    def __init__(self, blocks=None):
        self.bdd = BDD(N_VARS)
        if blocks is not None:
            self.bdd.set_reorder_blocks(blocks)
        self.ids: dict[int, int] = {}

    def check(self, node: int, table: int) -> None:
        bdd = self.bdd
        got = 0
        for r, bits in enumerate(ALL_ASSIGNMENTS):
            if bdd.eval(node, bits):
                got |= 1 << r
        assert got == table
        assert self.ids.setdefault(table, node) == node, "equal functions, two ids"
        assert bdd.size(node) == robdd_size(table, bdd.var_order())
        assert bdd.count_sat(node, N_VARS) == bin(table).count("1")

    def forget(self, *keep: tuple[int, int]) -> None:
        """After GC, unrooted ids may be recycled: keep only live entries."""
        self.ids = {table: node for node, table in keep}
        self.ids.update({0: ZERO, FULL: ONE})

    def build(self, expr) -> tuple[int, int]:
        """``(node, table)`` of an expression, checking every subterm."""
        bdd = self.bdd
        tag = expr[0]
        if tag == "const":
            node, table = (ONE, FULL) if expr[1] else (ZERO, 0)
        elif tag == "var":
            node, table = bdd.var(expr[1]), VAR[expr[1]]
        elif tag == "not":
            f, tf = self.build(expr[1])
            node, table = bdd.not_(f), FULL ^ tf
        elif tag == "ite":
            (f, tf), (g, tg), (h, th) = (self.build(e) for e in expr[1:])
            node, table = bdd.ite(f, g, h), (tf & tg) | ((FULL ^ tf) & th)
        else:
            method, model = _BINOPS[tag]
            (f, tf), (g, tg) = self.build(expr[1]), self.build(expr[2])
            node, table = getattr(bdd, method)(f, g), model(tf, tg)
        self.check(node, table)
        return node, table


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
_LEAVES = st.one_of(
    st.booleans().map(lambda b: ("const", b)),
    st.integers(0, N_VARS - 1).map(lambda i: ("var", i)),
)


def _extend(children):
    return st.one_of(
        st.tuples(st.just("not"), children),
        st.tuples(st.sampled_from(sorted(_BINOPS)), children, children),
        st.tuples(st.just("ite"), children, children, children),
    )


EXPRESSIONS = st.recursive(_LEAVES, _extend, max_leaves=16)

_VAR_SUBSETS = st.sets(st.integers(0, N_VARS - 1), min_size=1, max_size=3)
_PAIR_SUBSETS = st.sets(st.sampled_from(PAIRS), min_size=1, max_size=3)

STRUCTURAL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("exists"), _VAR_SUBSETS),
        st.tuples(st.just("forall"), _VAR_SUBSETS),
        st.tuples(st.just("and_exists"), EXPRESSIONS, _VAR_SUBSETS),
        st.tuples(st.just("rename_fwd"), _PAIR_SUBSETS),
        st.tuples(st.just("rel_pre"), EXPRESSIONS, _PAIR_SUBSETS),
        st.tuples(st.just("rel_post"), EXPRESSIONS, _PAIR_SUBSETS),
        st.tuples(
            st.just("restrict"),
            st.dictionaries(
                st.integers(0, N_VARS - 1), st.booleans(), min_size=1, max_size=3
            ),
        ),
        st.tuples(st.just("gc")),
        st.tuples(st.just("reorder")),
    ),
    min_size=1,
    max_size=5,
)


def apply_op(c: Checked, f: int, tf: int, op) -> tuple[int, int]:
    """Apply one structural op to the kernel and to the model."""
    bdd = c.bdd
    tag = op[0]
    if tag == "exists":
        return bdd.exists(sorted(op[1]), f), tt_exists(tf, op[1])
    if tag == "forall":
        return bdd.forall(sorted(op[1]), f), tt_forall(tf, op[1])
    if tag == "and_exists":
        g, tg = c.build(op[1])
        return bdd.and_exists(f, g, sorted(op[2])), tt_exists(tf & tg, op[2])
    if tag == "rename_fwd":
        # cur -> next over a subset of the interleaved pairs, exactly like
        # the engine's subset renames.  The single-traversal rename may
        # reject a mapping whose target is already in the support.
        mapping = dict(sorted(op[1]))
        try:
            node = bdd.rename(f, mapping)
        except ValueError:
            assert any(depends(tf, n) for n in mapping.values())
            return f, tf
        return node, tt_substitute(tf, mapping)
    if tag == "rel_pre":
        pairs = tuple(sorted(op[2]))
        rel, trel = c.build(op[1])
        written_next = [n for _, n in pairs]
        # the contract: the state set does not mention the written next bits
        states = bdd.exists(written_next, f)
        tstates = tt_exists(tf, written_next)
        shifted = tt_substitute(tstates, {cur: nxt for cur, nxt in pairs})
        expect = tt_exists(trel & shifted, written_next)
        return bdd.rel_product_pre(rel, states, pairs), expect
    if tag == "rel_post":
        pairs = tuple(sorted(op[2]))
        rel, trel = c.build(op[1])
        image = tt_exists(trel & tf, [cur for cur, _ in pairs])
        expect = tt_substitute(image, {nxt: cur for cur, nxt in pairs})
        return bdd.rel_product_post(rel, f, pairs), expect
    if tag == "restrict":
        table = tf
        for v, value in op[1].items():
            table = cofactor(table, v, value)
        return bdd.restrict(f, op[1]), table
    if tag == "gc":
        with bdd.protect(f):
            bdd.collect_garbage()
        c.forget((f, tf))
        return f, tf
    if tag == "reorder":
        with bdd.protect(f):
            bdd.reorder()
        return f, tf
    raise AssertionError(tag)


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
def test_model_tables_are_exact():
    """The model's own building blocks on hand-checked functions."""
    x0, x1 = VAR[0], VAR[1]
    assert tt_exists(x0 & x1, [0]) == x1
    assert tt_forall(x0 | x1, [0]) == x1
    assert tt_substitute(x0, {0: 1}) == x1
    assert robdd_size(x0 & x1, list(range(N_VARS))) == 4
    assert robdd_size(0, list(range(N_VARS))) == 1


@given(EXPRESSIONS)
@settings(max_examples=150, deadline=None)
def test_expression_dags_agree(expr):
    Checked().build(expr)


@given(EXPRESSIONS, STRUCTURAL_OPS)
@settings(max_examples=150, deadline=None)
def test_structural_ops_agree(expr, ops):
    c = Checked(blocks=PAIRS)
    f, tf = c.build(expr)
    for op in ops:
        f, tf = apply_op(c, f, tf, op)
        c.check(f, tf)


@given(EXPRESSIONS, STRUCTURAL_OPS)
@settings(max_examples=60, deadline=None)
def test_ops_agree_after_reorder(expr, ops):
    """Sifting first, then the op sequence under the reached order."""
    c = Checked(blocks=PAIRS)
    f, tf = c.build(expr)
    with c.bdd.protect(f):
        c.bdd.reorder()
    c.check(f, tf)
    for op in ops:
        f, tf = apply_op(c, f, tf, op)
        c.check(f, tf)


@given(EXPRESSIONS)
@settings(max_examples=60, deadline=None)
def test_rename_rejection_agrees(expr):
    """``{0: 3}`` moves variable 0 past variables 1 and 2 and onto 3: the
    kernel must reject it exactly when ``f`` depends on variable 0 and on
    one of those, and otherwise return the substitution."""
    c = Checked()
    f, tf = c.build(expr)
    crossing = depends(tf, 0) and any(depends(tf, v) for v in (1, 2, 3))
    try:
        node = c.bdd.rename(f, {0: 3})
    except ValueError:
        assert crossing
    else:
        assert not crossing
        c.check(node, tt_substitute(tf, {0: 3}))
