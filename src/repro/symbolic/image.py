"""Symbolic image computations (relational products).

Two relation representations are accepted everywhere, and may be mixed
within one sequence:

* a :class:`repro.symbolic.partition.Partition` — a *frameless*
  per-cluster disjunct, the engine's representation: images rename and
  quantify **only the written variables' bits**, the implicit-frame
  optimisation that makes partitioned image computation cheap (see
  :mod:`repro.symbolic.partition` for why this is the maximal
  early-quantification schedule for a disjunctive partitioning);
* a plain ``int`` — a *full-frame* relation BDD over all current and next
  bits, used by the certificate emitter and checker and by the tests'
  references: images quantify every bit of one copy and rename every bit
  of the other.

``preimage_union``/``postimage_union`` compute the image under the union
relation ``∨ T_j`` as the union of per-partition images — disjunction
distributes over ∃, so no cross-partition conjunction is ever built.

All partition clusters of one union image are handed to the kernel in a
*single* fused call (``rel_product_pre_many``/``rel_product_post_many``)
that sweeps every cluster through one two-phase BFS, and the callers'
ubiquitous ``and_(pre(S), V)`` / ``diff(pre(S), S)`` post-processing is
fused into that same sweep via the ``within``/``subtract`` keywords (and
the :func:`pre_and`/:func:`pre_diff`/:func:`post_and`/:func:`post_diff`
shorthands), so the unconstrained union is never materialised.
"""

from __future__ import annotations

from typing import Sequence, Union

from ..bdd import ZERO
from .encode import SymbolicSpace
from .partition import Partition

#: one disjunct of a transition relation: full-frame BDD or frameless partition
RelationLike = Union[int, Partition]


def preimage(sym: SymbolicSpace, relation: RelationLike, states: int) -> int:
    """``pre(T, S) = ∃v'. T(v, v') ∧ S(v')`` — predecessors of ``states``."""
    if states == ZERO:
        return ZERO
    if isinstance(relation, Partition):
        if relation.rel == ZERO:
            return ZERO
        return sym.bdd.rel_product_pre(
            relation.rel, states, relation.cur_to_next
        )
    if relation == ZERO:
        return ZERO
    primed = sym.prime(states)
    return sym.bdd.and_exists(relation, primed, sym.all_next)


def postimage(sym: SymbolicSpace, relation: RelationLike, states: int) -> int:
    """``post(T, S) = (∃v. T(v, v') ∧ S(v))[v'/v]`` — successors of ``states``."""
    if states == ZERO:
        return ZERO
    if isinstance(relation, Partition):
        if relation.rel == ZERO:
            return ZERO
        return sym.bdd.rel_product_post(
            relation.rel, states, relation.cur_to_next
        )
    if relation == ZERO:
        return ZERO
    shifted = sym.bdd.and_exists(relation, states, sym.all_cur)
    return sym.unprime(shifted)


def _window(bdd, f: int, within: int | None, subtract: int | None) -> int:
    """Apply the ``∧ within`` / ``∖ subtract`` trim to one image part."""
    if within is not None:
        f = bdd.and_(f, within)
    if subtract is not None and f != ZERO:
        f = bdd.diff(f, subtract)
    return f


def preimage_union(
    sym: SymbolicSpace,
    relations: Sequence[RelationLike],
    states: int,
    *,
    within: int | None = None,
    subtract: int | None = None,
) -> int:
    """Predecessors under a disjunctively partitioned relation.

    Computes ``(∨_j pre(T_j, states)) ∧ within ∖ subtract`` with every
    partition cluster fused into one kernel sweep and the window applied
    per disjunct — the unconstrained union never exists as a BDD.
    """
    if states == ZERO:
        return ZERO
    parts = [
        r for r in relations if isinstance(r, Partition) and r.rel != ZERO
    ]
    full = [
        r for r in relations if not isinstance(r, Partition) and r != ZERO
    ]
    out = ZERO
    if parts:
        out = sym.bdd.rel_product_pre_many(
            [(p.rel, p.cur_to_next) for p in parts],
            states,
            constrain=within,
            subtract=subtract,
        )
    if full:
        primed = sym.prime(states)
        for rel in full:
            img = sym.bdd.and_exists(rel, primed, sym.all_next)
            out = sym.bdd.or_(out, _window(sym.bdd, img, within, subtract))
    return out


def postimage_union(
    sym: SymbolicSpace,
    relations: Sequence[RelationLike],
    states: int,
    *,
    within: int | None = None,
    subtract: int | None = None,
) -> int:
    """Successors under a disjunctively partitioned relation (the
    post twin of :func:`preimage_union`, same fusion semantics)."""
    if states == ZERO:
        return ZERO
    parts = [
        r for r in relations if isinstance(r, Partition) and r.rel != ZERO
    ]
    full = [
        r for r in relations if not isinstance(r, Partition) and r != ZERO
    ]
    out = ZERO
    if parts:
        out = sym.bdd.rel_product_post_many(
            [(p.rel, p.cur_to_next) for p in parts],
            states,
            constrain=within,
            subtract=subtract,
        )
    for rel in full:
        img = postimage(sym, rel, states)
        out = sym.bdd.or_(out, _window(sym.bdd, img, within, subtract))
    return out


def pre_and(
    sym: SymbolicSpace,
    relations: Sequence[RelationLike],
    states: int,
    window: int,
) -> int:
    """``pre(∨T, states) ∧ window`` without the intermediate preimage."""
    return preimage_union(sym, relations, states, within=window)


def pre_diff(
    sym: SymbolicSpace,
    relations: Sequence[RelationLike],
    states: int,
    minus: int,
) -> int:
    """``pre(∨T, states) ∖ minus`` without the intermediate preimage."""
    return preimage_union(sym, relations, states, subtract=minus)


def post_and(
    sym: SymbolicSpace,
    relations: Sequence[RelationLike],
    states: int,
    window: int,
) -> int:
    """``post(∨T, states) ∧ window`` without the intermediate postimage."""
    return postimage_union(sym, relations, states, within=window)


def post_diff(
    sym: SymbolicSpace,
    relations: Sequence[RelationLike],
    states: int,
    minus: int,
) -> int:
    """``post(∨T, states) ∖ minus`` without the intermediate postimage."""
    return postimage_union(sym, relations, states, subtract=minus)


def relation_links(
    sym: SymbolicSpace, relation: RelationLike, sources: int, targets: int
) -> bool:
    """Does ``relation`` contain a transition from ``sources`` into
    ``targets``?  (The SCC-membership test of cycle resolution.)"""
    bdd = sym.bdd
    if sources == ZERO or targets == ZERO:
        return False
    if isinstance(relation, Partition):
        if relation.rel == ZERO:
            return False
        hit = bdd.and_(relation.rel, sources)
        if hit == ZERO:
            return False
        shifted = bdd.rename(targets, dict(relation.cur_to_next))
        return bdd.and_(hit, shifted) != ZERO
    return (
        relation != ZERO
        and bdd.and_(bdd.and_(relation, sources), sym.prime(targets)) != ZERO
    )


def forward_closure(
    sym: SymbolicSpace,
    relations: Sequence[RelationLike],
    start: int,
    within: int | None = None,
) -> int:
    """Least fixpoint: all states reachable from ``start`` (within ``within``)."""
    reached = start if within is None else sym.bdd.and_(start, within)
    frontier = reached
    while frontier != ZERO:
        new = postimage_union(
            sym, relations, frontier, within=within, subtract=reached
        )
        reached = sym.bdd.or_(reached, new)
        frontier = new
    return reached


def backward_closure(
    sym: SymbolicSpace,
    relations: Sequence[RelationLike],
    start: int,
    within: int | None = None,
) -> int:
    """Least fixpoint: all states that can reach ``start`` (within ``within``)."""
    reached = start if within is None else sym.bdd.and_(start, within)
    frontier = reached
    while frontier != ZERO:
        new = preimage_union(
            sym, relations, frontier, within=within, subtract=reached
        )
        reached = sym.bdd.or_(reached, new)
        frontier = new
    return reached
