"""Symbolic SCC detection.

Three implementations over BDD state sets:

* :func:`xie_beerel_sccs` — the classic forward/backward-set algorithm
  (quadratic number of symbolic steps, simple and obviously correct);
* :func:`gentilini_sccs` — Gentilini, Piazza & Policriti's skeleton-based
  algorithm (linear number of symbolic steps) — the algorithm the paper's
  ``Detect_SCC`` implements (Section V cites it explicitly);
* :func:`lockstep_sccs` — Bloem–Gazi–Somenzi lockstep search
  (``O(n log n)`` symbolic steps): forward and backward sets grow in
  lockstep, the first to converge caps the other, and every recursion
  re-trims its part before the pick.

All three start from :func:`cycle_core`, the trimming fixpoint that strips
the acyclic fringe (every cyclic SCC survives it, and it is empty exactly
when there is no cycle), so an acyclic input costs only the trimming
rounds and no decomposition.  All return the *cyclic* SCCs only (>= 2 states; the
group model admits no self-loops) and are differentially tested against
the explicit Tarjan.
Every fixpoint iteration issues one fused kernel sweep
(:func:`repro.symbolic.image.preimage_union` with ``within``/``subtract``)
instead of a per-cluster loop of scalar products — see
``docs/ARCHITECTURE.md`` on algorithm-layer batching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..bdd import ZERO
from ..trace.tracer import current_tracer
from .encode import SymbolicSpace
from .image import RelationLike, postimage_union, preimage_union


class SymbolicInternalError(RuntimeError):
    """An internal invariant of the symbolic algorithms failed.

    Raised instead of ``assert`` so the check survives ``python -O``."""


def _pre(sym: SymbolicSpace, relations: Sequence[RelationLike], states: int, v: int) -> int:
    return preimage_union(sym, relations, states, within=v)


def _post(sym: SymbolicSpace, relations: Sequence[RelationLike], states: int, v: int) -> int:
    return postimage_union(sym, relations, states, within=v)


def _pick_singleton(sym: SymbolicSpace, states: int) -> int:
    """A one-state subset of ``states`` as a BDD cube.

    Every caller maintains ``states ⊆ domain_cur``, so the pick skips the
    domain guard (``assume_valid``)."""
    cube = sym.pick_cube(states, assume_valid=True)
    if cube == ZERO:
        raise SymbolicInternalError(
            "_pick_singleton called on an empty state set"
        )
    return cube


def _scc_of(
    sym: SymbolicSpace, relations: Sequence[RelationLike], node: int, fw: int
) -> int:
    """The SCC containing ``node``: backward closure of ``node`` inside its
    forward set (the inner loop of both algorithms)."""
    scc = node
    while True:
        grow = preimage_union(sym, relations, scc, within=fw, subtract=scc)
        if grow == ZERO:
            return scc
        scc = sym.bdd.or_(scc, grow)


def xie_beerel_sccs(
    sym: SymbolicSpace, relations: Sequence[RelationLike], universe: int
) -> list[int]:
    """All cyclic SCCs within ``universe`` (a current-bits state set)."""
    tracer = current_tracer()
    out: list[int] = []
    with tracer.span("scc.xie_beerel") as span:
        work = [
            cycle_core(sym, relations, sym.bdd.and_(universe, sym.domain_cur))
        ]
        while work:
            v = work.pop()
            if v == ZERO:
                continue
            tracer.count("scc.xie_beerel_picks")
            node = _pick_singleton(sym, v)
            fw = _forward_set(sym, relations, node, v)
            scc = _scc_of(sym, relations, node, fw)
            if scc != node:  # scc ⊇ node, so inequality ⇔ ≥ 2 states
                out.append(scc)
            work.append(sym.bdd.diff(fw, scc))
            work.append(sym.bdd.diff(v, fw))
        span["n_sccs"] = len(out)
    return out


def _forward_set(
    sym: SymbolicSpace, relations: Sequence[RelationLike], start: int, v: int
) -> int:
    fw = sym.bdd.and_(start, v)
    frontier = fw
    while frontier != ZERO:
        new = postimage_union(sym, relations, frontier, within=v, subtract=fw)
        fw = sym.bdd.or_(fw, new)
        frontier = new
    return fw


# ----------------------------------------------------------------------
# trimming: the acyclicity primitive
# ----------------------------------------------------------------------


def cycle_core(
    sym: SymbolicSpace, relations: Sequence[RelationLike], v: int
) -> int:
    """The largest subset of ``v`` in which every state has a predecessor
    and a successor (Bloem–Gazi–Somenzi trimming).

    Iterates ``v ← v ∩ pre(v) ∩ post(v)`` to the fixpoint: a state
    without both lies on no cycle inside ``v``, so the core contains every
    cyclic SCC of ``v`` and is empty iff ``v`` has no cycle.  Each round
    is two fused sweeps.  ``v`` must lie within ``sym.domain_cur``."""
    while v != ZERO:
        has_succ = preimage_union(sym, relations, v, within=v)
        if has_succ == ZERO:
            return ZERO
        nxt = postimage_union(sym, relations, v, within=has_succ)
        if nxt == v:
            return v
        v = nxt
    return v


# ----------------------------------------------------------------------
# Bloem-Gazi-Somenzi lockstep
# ----------------------------------------------------------------------


def lockstep_sccs(
    sym: SymbolicSpace, relations: Sequence[RelationLike], universe: int
) -> list[int]:
    """Bloem–Gazi–Somenzi lockstep SCC decomposition.

    Forward and backward sets of a pivot grow in lockstep; the first to
    converge is complete, and the other only needs to keep growing while
    its frontier still intersects the converged set (once the frontier
    leaves a forward-closed set it can never re-enter it).  The SCC is
    ``F ∩ B``; recursion proceeds on ``converged ∖ SCC`` and
    ``V ∖ converged`` — ``O(n log n)`` symbolic steps overall."""
    tracer = current_tracer()
    bdd = sym.bdd
    out: list[int] = []
    with tracer.span("scc.lockstep") as span:
        work = [bdd.and_(universe, sym.domain_cur)]
        while work:
            v = work.pop()
            if v == ZERO:
                continue
            v = cycle_core(sym, relations, v)
            if v == ZERO:
                continue
            tracer.count("scc.lockstep_picks")
            node = _pick_singleton(sym, v)
            f = b = node
            f_front = b_front = node
            while f_front != ZERO and b_front != ZERO:
                f_front = postimage_union(
                    sym, relations, f_front, within=v, subtract=f
                )
                f = bdd.or_(f, f_front)
                b_front = preimage_union(
                    sym, relations, b_front, within=v, subtract=b
                )
                b = bdd.or_(b, b_front)
            if f_front == ZERO:
                conv = f
                while bdd.and_(b_front, conv) != ZERO:
                    b_front = preimage_union(
                        sym, relations, b_front, within=v, subtract=b
                    )
                    b = bdd.or_(b, b_front)
            else:
                conv = b
                while bdd.and_(f_front, conv) != ZERO:
                    f_front = postimage_union(
                        sym, relations, f_front, within=v, subtract=f
                    )
                    f = bdd.or_(f, f_front)
            scc = bdd.and_(f, b)
            if scc != node:  # scc ⊇ node, so inequality ⇔ ≥ 2 states
                out.append(scc)
            work.append(bdd.diff(conv, scc))
            work.append(bdd.diff(v, conv))
        span["n_sccs"] = len(out)
    return out


# ----------------------------------------------------------------------
# Gentilini-Piazza-Policriti
# ----------------------------------------------------------------------


@dataclass
class _Task:
    v: int  # vertex subset still to decompose
    s: int  # skeleton (node set of a path through V)
    n: int  # preferred start node (singleton or empty)


def _skel_forward(
    sym: SymbolicSpace, relations: Sequence[RelationLike], v: int, node: int
) -> tuple[int, int, int]:
    """Forward set of ``node`` in ``v`` plus a skeleton of a longest
    BFS path: returns ``(FW, newS, newN)``."""
    layers: list[int] = []
    fw = ZERO
    layer = sym.bdd.and_(node, v)
    while layer != ZERO:
        layers.append(layer)
        fw = sym.bdd.or_(fw, layer)
        layer = postimage_union(sym, relations, layer, within=v, subtract=fw)
    # walk the onion backwards picking one predecessor per layer
    new_n = _pick_singleton(sym, layers[-1])
    skel = new_n
    current = new_n
    for layer in reversed(layers[:-1]):
        preds = preimage_union(sym, relations, current, within=layer)
        current = _pick_singleton(sym, preds)
        skel = sym.bdd.or_(skel, current)
    return fw, skel, new_n


def gentilini_sccs(
    sym: SymbolicSpace, relations: Sequence[RelationLike], universe: int
) -> list[int]:
    """Gentilini et al.'s SCC decomposition in a linear number of symbolic
    steps (the paper's ``Detect_SCC``).  Returns cyclic SCCs only."""
    tracer = current_tracer()
    out: list[int] = []
    with tracer.span("scc.gentilini") as span:
        core = cycle_core(
            sym, relations, sym.bdd.and_(universe, sym.domain_cur)
        )
        work = [_Task(v=core, s=ZERO, n=ZERO)]
        out.extend(_gentilini_loop(sym, relations, work, tracer))
        span["n_sccs"] = len(out)
    return out


def _gentilini_loop(sym, relations, work, tracer) -> list[int]:
    out: list[int] = []
    while work:
        task = work.pop()
        v = task.v
        if v == ZERO:
            continue
        tracer.count("scc.gentilini_tasks")
        # Sanitise inherited guidance: correctness only needs n ∈ v, and the
        # skeleton invariant (S \ SCC ⊆ V \ FW) can be weakened by the
        # arbitrary pick below, so clip both to v defensively.
        s = sym.bdd.and_(task.s, v)
        n = sym.bdd.and_(task.n, v)
        if n == ZERO:
            n = _pick_singleton(sym, s if s != ZERO else v)
        fw, new_s, new_n = _skel_forward(sym, relations, v, n)
        scc = _scc_of(sym, relations, n, fw)
        if scc != n:  # scc ⊇ n (a singleton), so inequality ⇔ ≥ 2 states
            out.append(scc)
        # recursion 1: the forward set minus the found SCC, guided by the
        # remainder of the freshly built skeleton
        work.append(
            _Task(
                v=sym.bdd.diff(fw, scc),
                s=sym.bdd.diff(new_s, scc),
                n=sym.bdd.diff(new_n, scc),
            )
        )
        # recursion 2: everything outside the forward set, guided by the
        # remainder of the inherited skeleton; the new start node is the
        # skeleton predecessor of the removed segment
        s_rest = sym.bdd.diff(s, scc)
        n2 = ZERO
        removed_on_skel = sym.bdd.and_(scc, s)
        if removed_on_skel != ZERO and s_rest != ZERO:
            n2 = preimage_union(sym, relations, removed_on_skel, within=s_rest)
            if n2 != ZERO:
                n2 = _pick_singleton(sym, n2)
        work.append(_Task(v=sym.bdd.diff(v, fw), s=s_rest, n=n2))
    return out


#: name → implementation; the engine/portfolio configs select by name.
SCC_ALGORITHMS = {
    "xie_beerel": xie_beerel_sccs,
    "gentilini": gentilini_sccs,
    "lockstep": lockstep_sccs,
}


def scc_algorithm_by_name(name: str):
    """Resolve an SCC algorithm name from :data:`SCC_ALGORITHMS`."""
    try:
        return SCC_ALGORITHMS[name]
    except KeyError:
        raise ValueError(
            f"unknown SCC algorithm {name!r}; known: {sorted(SCC_ALGORITHMS)}"
        ) from None
