"""Flat edge arrays, tensor pre-images and reachability for the explicit engine.

Synthesis manipulates *collections of groups* rather than raw edge lists;
a :class:`TransitionView` names such a collection and materialises it
once as one flat ``(src, dst)`` pair of arrays.  Every traversal then
runs on those flat arrays: a breadth-first search costs one gather per
BFS level (:func:`bfs_layers`), however many groups the view holds.

Ranking needs no edge list at all: :class:`TensorPreImage` takes the
pre-image of a state set under a collection of groups as broadcast
operations over the mixed-radix state tensor, since every group is a
cylinder over its process's unreadable variables.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from ..protocol.groups import GroupId, ProcessGroupTable
from ..protocol.protocol import Protocol
from ..protocol.state_space import STATE_DTYPE, StateSpace


class TransitionView:
    """A set of transition groups, materialised as flat ``(src, dst)`` arrays."""

    def __init__(
        self,
        tables: Sequence[ProcessGroupTable],
        group_ids: Iterable[GroupId],
    ):
        self.tables = tables
        self.group_ids: list[GroupId] = list(group_ids)

    @classmethod
    def of_protocol(
        cls, protocol: Protocol, extra: Iterable[GroupId] = ()
    ) -> "TransitionView":
        gids = list(protocol.iter_group_ids())
        gids.extend(extra)
        return cls(protocol.tables, gids)

    @classmethod
    def of_groups(
        cls,
        tables: Sequence[ProcessGroupTable],
        groups: Sequence[Iterable[tuple[int, int]]],
        extra: Iterable[GroupId] = (),
    ) -> "TransitionView":
        gids: list[GroupId] = [
            (j, r, w) for j, gs in enumerate(groups) for (r, w) in gs
        ]
        gids.extend(extra)
        return cls(tables, gids)

    def __len__(self) -> int:
        return len(self.group_ids)

    def pairs(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield the ``(src, dst)`` arrays of each group."""
        for j, rcode, wcode in self.group_ids:
            yield self.tables[j].pairs(rcode, wcode)

    def pairs_with_ids(
        self,
    ) -> Iterator[tuple[GroupId, np.ndarray, np.ndarray]]:
        for gid in self.group_ids:
            j, rcode, wcode = gid
            src, dst = self.tables[j].pairs(rcode, wcode)
            yield gid, src, dst

    def edge_arrays(
        self, within: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Materialised edge list, optionally restricted to ``within`` endpoints."""
        src, dst, _counts = self._concat(within)
        return src, dst

    def indexed_edge_arrays(
        self, within: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`edge_arrays` plus ``owner``: edge ``e`` belongs to the
        group ``group_ids[owner[e]]``."""
        src, dst, counts = self._concat(within)
        return src, dst, np.repeat(np.arange(len(counts)), counts)

    def _concat(
        self, within: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, list[int]]:
        srcs: list[np.ndarray] = []
        dsts: list[np.ndarray] = []
        for src, dst in self.pairs():
            if within is not None:
                keep = within[src] & within[dst]
                src, dst = src[keep], dst[keep]
            srcs.append(src)
            dsts.append(dst)
        if not srcs:
            empty = np.empty(0, dtype=STATE_DTYPE)
            return empty, empty, []
        return np.concatenate(srcs), np.concatenate(dsts), [len(s) for s in srcs]


class TensorPreImage:
    """The pre-image operator of a set of groups, on the state tensor.

    A group ``(rcode, wcode)`` of process j moves each state of rcode's
    cylinder to the same state with j's written variables set to ``wcode``.
    So ``s`` has a successor in ``F`` under j's groups iff some ``w`` has
    ``(rcode(s), w)`` among them and ``s[w_j := w] ∈ F``:

        pre(F) = OR over (j, w) of  allowed_j[..., w] & F[w_j := w]

    ``allowed_j[..., w]`` lies on j's read axes (size 1 on the unread ones)
    and ``F[w_j := w]`` is a slice view of ``F``, so an image costs one
    broadcast AND and one OR per ``(j, w)`` term that has a group.  Each
    process works on ``F`` transposed by its ``axis_order``, where the
    broadcast runs along contiguous cylinders, and ORs its part back once.
    The arithmetic runs on ``uint8`` views of the masks: numpy's bool loops
    do not vectorise a broadcast operand (numpy 2.4 on an x86-64 Xeon core:
    2.5 ms against 0.15 ms for a 3^13-state AND).
    """

    def __init__(
        self,
        space: StateSpace,
        tables: Sequence[ProcessGroupTable],
        groups: Sequence[Iterable[tuple[int, int]]],
    ):
        self.shape = space.tensor_shape
        #: per process: its ``axis_order`` and its ``(allowed, index)`` terms
        self.processes: list[
            tuple[tuple[int, ...], list[tuple[np.ndarray, tuple[slice, ...]]]]
        ] = []
        for table, gs in zip(tables, groups):
            gs = list(gs)
            if not gs:
                continue
            allowed = np.zeros((table.n_rvals, table.n_wvals), dtype=np.uint8)
            rcodes, wcodes = zip(*gs)
            allowed[list(rcodes), list(wcodes)] = 1
            layout = table.rcode_tensor(allowed)
            terms = [
                (layout[..., wcode].copy(), table.write_index(wcode))
                for wcode in np.flatnonzero(allowed.any(axis=0)).tolist()
            ]
            self.processes.append((table.axis_order, terms))

    @property
    def n_terms(self) -> int:
        """Number of ``(process, wcode)`` terms an image evaluates."""
        return sum(len(terms) for _order, terms in self.processes)

    def __call__(self, target: np.ndarray) -> np.ndarray:
        """Mask of the states with a successor in the ``target`` mask."""
        f = target.view(np.uint8).reshape(self.shape)
        out = np.zeros(self.shape, dtype=np.uint8)
        size = out.size
        term_buf = np.empty(size, dtype=np.uint8)
        part_buf = np.empty(size, dtype=np.uint8)
        for order, terms in self.processes:
            fj = f.transpose(order).copy()
            term = term_buf.reshape(fj.shape)
            part = part_buf.reshape(fj.shape)
            part.fill(0)
            for allowed, index in terms:
                np.bitwise_and(allowed, fj[index], out=term)
                np.bitwise_or(part, term, out=part)
            back = out.transpose(order)
            np.bitwise_or(back, part, out=back)
        return out.reshape(-1).view(bool)

    def distances(self, target: np.ndarray) -> np.ndarray:
        """Shortest distance from every state to the ``target`` mask
        (``-1`` where none), by level-synchronous backward BFS: level
        ``k`` is ``pre(level k - 1)`` minus the states already reached."""
        rank = np.full(target.shape, -1, dtype=np.int32)
        rank[target] = 0
        reached = target.copy()
        layer = target
        level = 0
        while True:
            layer = self(layer)
            layer &= ~reached
            if not layer.any():
                return rank
            level += 1
            rank[layer] = level
            reached |= layer


def bfs_layers(
    tails: np.ndarray, heads: np.ndarray, visited: np.ndarray
) -> Iterator[np.ndarray]:
    """Level-synchronous BFS from the ``visited`` mask along the flat
    ``tails -> heads`` edge arrays.

    Yields each new layer's states (an index array, possibly with repeats)
    and marks them in ``visited`` in place.  One gather per level; a
    backward search passes the arrays swapped.
    """
    frontier = visited.copy()
    previous = np.flatnonzero(frontier)
    while len(previous):
        hit = heads[frontier[tails]]
        hit = hit[~visited[hit]]
        if not len(hit):
            return
        visited[hit] = True
        frontier[previous] = False
        frontier[hit] = True
        previous = hit
        yield hit


def reachable(tails: np.ndarray, heads: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """States reachable from the ``seeds`` mask (updated in place)."""
    for _layer in bfs_layers(tails, heads, seeds):
        pass
    return seeds


def _seed_mask(
    start: np.ndarray, size: int, within: np.ndarray | None
) -> np.ndarray:
    if start.dtype == np.bool_:
        seeds = start.copy()
    else:
        seeds = np.zeros(size, dtype=bool)
        seeds[start] = True
    if within is not None:
        seeds &= within
    return seeds


def forward_reachable(
    view: TransitionView,
    start: np.ndarray,
    size: int,
    within: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean mask of states reachable from ``start`` (mask or index array).

    ``within`` restricts traversal to transitions with both endpoints inside
    the mask; start states outside ``within`` are dropped.
    """
    src, dst = view.edge_arrays(within)
    return reachable(src, dst, _seed_mask(start, size, within))


def backward_reachable(
    view: TransitionView,
    target: np.ndarray,
    size: int,
    within: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean mask of states that can reach ``target`` (mask or index array)."""
    src, dst = view.edge_arrays(within)
    return reachable(dst, src, _seed_mask(target, size, within))
