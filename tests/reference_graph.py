"""Reference graph algorithms for differential tests of ``repro.explicit``.

Deliberately simple, independent implementations of what the explicit
engine computes on flat edge arrays:

* :func:`tarjan_sccs` — iterative Tarjan over a plain edge list;
* :func:`forward_reachable` / :func:`backward_reachable` — level-by-level
  BFS with one numpy call per group per level;
* :func:`region_scc_labels_after_addition` — the cyclic SCCs of
  ``base ∪ added`` for an acyclic ``base``, found by a forward/backward BFS
  region search around the added edges and one SCC pass on that region;
* :func:`longest_path_ranks` — the ``rank(s) = 1 + max rank(successors)``
  fixpoint iterated with an ``np.maximum.at`` scatter;
* :func:`edge_bfs_distances` — backward BFS distance to a target set over
  the materialised ``(src, dst)`` edges of a collection of groups, the
  reference for the tensor pre-images of ``compute_ranks`` and
  ``shortest_path_ranks``;
* :func:`rvals_intersecting` — the per-rcode cylinder test as a gather of
  every cylinder's source states.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cert import CertificateEmissionError
from repro.explicit.graph import TransitionView, reachable
from repro.explicit.scc import scc_labels


def tarjan_sccs(
    edges: Sequence[tuple[int, int]], *, cyclic_only: bool = True
) -> list[frozenset[int]]:
    """Iterative Tarjan over a plain edge list.

    Returns SCCs as frozensets; with ``cyclic_only`` drops singleton SCCs
    that have no self-loop.
    """
    adj: dict[int, list[int]] = {}
    self_loops: set[int] = set()
    nodes: set[int] = set()
    for s, t in edges:
        adj.setdefault(s, []).append(t)
        nodes.add(s)
        nodes.add(t)
        if s == t:
            self_loops.add(s)

    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = 0
    out: list[frozenset[int]] = []

    for root in nodes:
        if root in index:
            continue
        # Explicit DFS stack of (node, iterator position) to avoid recursion
        # limits on large graphs.
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, pos = work[-1]
            if pos == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            neighbors = adj.get(node, [])
            advanced = False
            while pos < len(neighbors):
                nxt = neighbors[pos]
                pos += 1
                if nxt not in index:
                    work[-1] = (node, pos)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                if not cyclic_only or len(comp) > 1 or node in self_loops:
                    out.append(frozenset(comp))
            if work:
                parent, _ = work[-1]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return out


def region_scc_labels_after_addition(
    base_src: np.ndarray,
    base_dst: np.ndarray,
    add_src: np.ndarray,
    add_dst: np.ndarray,
    size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``scc_labels`` of ``base ∪ added``, assuming ``base`` is acyclic.

    Every cycle then contains an added edge ``(s0, s1)``, hence lies in
    ``F = forward(added targets)`` and closes at an ``s0 ∈ F``.  Nothing is
    searched further when no added source is in ``F``; otherwise SCC
    detection runs on the edges of the region ``F ∩ backward(those
    sources)``.  Both searches follow base edges only: every added target
    seeds the forward one, and every added source in ``F`` the backward
    one.  The backward search keeps to the base edges leaving ``F``; ``F``
    is forward-closed, so that loses no path inside it.
    """
    none = np.full(size, -1, dtype=np.int64), np.empty(0, dtype=np.int64)
    if len(add_src) == 0:
        return none
    fwd = np.zeros(size, dtype=bool)
    fwd[add_dst] = True
    reachable(base_src, base_dst, fwd)
    entries = add_src[fwd[add_src]]
    if len(entries) == 0:
        return none
    keep = fwd[base_src]
    src, dst = base_src[keep], base_dst[keep]
    region = np.zeros(size, dtype=bool)
    region[entries] = True
    reachable(dst, src, region)
    src = np.concatenate([src, add_src])
    dst = np.concatenate([dst, add_dst])
    keep = region[src] & region[dst]
    return scc_labels(src[keep], dst[keep], size)


def _start_mask(start: np.ndarray, size: int) -> np.ndarray:
    visited = np.zeros(size, dtype=bool)
    if start.dtype == np.bool_:
        visited |= start
    else:
        visited[start] = True
    return visited


def forward_reachable(
    view: TransitionView,
    start: np.ndarray,
    size: int,
    within: np.ndarray | None = None,
) -> np.ndarray:
    """Per-group BFS: states reachable from ``start`` (mask or index array)."""
    visited = _start_mask(start, size)
    if within is not None:
        visited &= within
    frontier = visited.copy()
    while frontier.any():
        new = np.zeros(size, dtype=bool)
        for src, dst in view.pairs():
            sel = frontier[src]
            if within is not None:
                sel &= within[dst]
            hit = dst[sel]
            if len(hit):
                new[hit] = True
        new &= ~visited
        visited |= new
        frontier = new
    return visited


def backward_reachable(
    view: TransitionView,
    target: np.ndarray,
    size: int,
    within: np.ndarray | None = None,
) -> np.ndarray:
    """Per-group BFS: states that can reach ``target`` (mask or index array)."""
    visited = _start_mask(target, size)
    if within is not None:
        visited &= within
    frontier = visited.copy()
    while frontier.any():
        new = np.zeros(size, dtype=bool)
        for src, dst in view.pairs():
            sel = frontier[dst]
            if within is not None:
                sel &= within[src]
            hit = src[sel]
            if len(hit):
                new[hit] = True
        new &= ~visited
        visited |= new
        frontier = new
    return visited


def longest_path_ranks(pss, invariant) -> np.ndarray:
    """Longest-path ranks by the ``np.maximum.at`` fixpoint (≤ ``|S|+1`` rounds).

    Raises :class:`CertificateEmissionError` on a cycle outside ``I`` (no
    fixpoint) or a deadlock outside ``I`` (rank 0 outside ``I``).
    """
    size = pss.space.size
    inside = invariant.mask
    src, dst = TransitionView.of_protocol(pss).edge_arrays()
    keep = ~inside[src]
    src, dst = src[keep], dst[keep]

    rank = np.zeros(size, dtype=np.int64)
    for _ in range(size + 1):
        cand = np.zeros(size, dtype=np.int64)
        if len(src):
            np.maximum.at(cand, src, rank[dst] + 1)
        cand[inside] = 0
        if np.array_equal(cand, rank):
            break
        rank = cand
    else:
        raise CertificateEmissionError("pss has a non-progress cycle outside I")
    if (~inside & (rank == 0)).any():
        raise CertificateEmissionError("pss deadlocks outside I")
    return rank.astype(np.int32)


def edge_bfs_distances(
    tables: Sequence, groups: Sequence, target: np.ndarray
) -> np.ndarray:
    """Backward BFS distance to the ``target`` mask over the edges of
    ``groups`` (one set of ``(rcode, wcode)`` per process); ``-1`` where the
    target is unreachable.

    Materialises every group's ``(src, dst)`` endpoints once, then runs one
    fused gather over the flat edge list per BFS level.
    """
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    for table, gs in zip(tables, groups):
        for rcode, wcode in sorted(gs):
            src = table.bases[rcode] + table.unread_offsets
            srcs.append(src)
            dsts.append(src + table.deltas[rcode, wcode])
    edge_src = np.concatenate(srcs) if srcs else np.empty(0, dtype=np.int64)
    edge_dst = np.concatenate(dsts) if dsts else np.empty(0, dtype=np.int64)
    rank = np.full(len(target), -1, dtype=np.int32)
    rank[target] = 0
    frontier = target.copy()
    level = 0
    while True:
        level += 1
        hit = edge_src[(rank[edge_src] == -1) & frontier[edge_dst]]
        if not len(hit):
            return rank
        frontier = np.zeros(len(target), dtype=bool)
        frontier[hit] = True
        rank[frontier] = level


def rvals_intersecting(table, mask: np.ndarray) -> np.ndarray:
    """``out[rcode]``: does a source state of rcode's cylinder satisfy ``mask``?"""
    grid = table.bases[:, None] + table.unread_offsets[None, :]
    return mask[grid].any(axis=1)
