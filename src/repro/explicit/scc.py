"""Strongly-connected-component detection for the explicit engine.

The synthesis heuristic needs the *cyclic* SCCs of ``pss ∪ added`` restricted
to ``¬I`` (paper's ``Detect_SCC``).  SCCs are computed over the dense state
indices ``[0, size)`` by ``scipy.sparse.csgraph.connected_components``
(compiled Pearce–Tarjan) and returned as a per-state label array — ``-1``
for a state in no cyclic SCC — plus the size of each cyclic SCC, so no
Python work scales with the number of SCCs:

* :func:`scc_labels` — the general routine over an edge list;
* :class:`GrowingGraph` — the graph ``Identify_Resolve_Cycles`` checks its
  candidate batches against: an edge list that only grows, with a CSR
  adjacency kept alongside it, so each batch costs one exact pre-check and
  at most one compiled SCC pass (:meth:`GrowingGraph.scc_labels_with`);
* :func:`scc_labels_after_addition` — the same computation on plain arrays.

:func:`cyclic_sccs` and :func:`cyclic_sccs_after_addition` are the same two
computations over :class:`~repro.explicit.graph.TransitionView`s, returning
each cyclic SCC as a sorted array of its states.

Self-loops cannot occur: the group model excludes pure self-loop groups, so
an SCC is cyclic iff it has at least two states.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from ..protocol.state_space import STATE_DTYPE
from .graph import TransitionView

#: index dtype of the kept CSR (scipy's csgraph routines run on int32)
_INDEX = np.int32


def _no_sccs(size: int) -> tuple[np.ndarray, np.ndarray]:
    return np.full(size, -1, dtype=np.int64), np.empty(0, dtype=np.int64)


def _cyclic_labels(
    comp: np.ndarray, n_comp: int
) -> tuple[np.ndarray, np.ndarray]:
    """Relabel component ids so only components of ≥ 2 states count."""
    counts = np.bincount(comp, minlength=n_comp)
    cyclic = counts >= 2
    relabel = np.full(n_comp, -1, dtype=np.int64)
    relabel[cyclic] = np.arange(int(cyclic.sum()))
    return relabel[comp], counts[cyclic]


def scc_labels(
    src: np.ndarray, dst: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic-SCC label of every state (``-1``: none) and each SCC's size."""
    if len(src) == 0:
        return _no_sccs(size)
    graph = csr_matrix(
        (np.ones(len(src), dtype=np.int8), (src, dst)), shape=(size, size)
    )
    n_comp, comp = connected_components(graph, directed=True, connection="strong")
    return _cyclic_labels(comp, n_comp)


def scc_members(labels: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
    """The cyclic SCCs of a labelling, each as a sorted state array."""
    states = np.flatnonzero(labels >= 0)
    states = states[np.argsort(labels[states], kind="stable")]
    return np.split(states, np.cumsum(sizes)[:-1]) if len(sizes) else []


def _sorted_unique_keys(src: np.ndarray, dst: np.ndarray, size: int) -> np.ndarray:
    """Edge keys ``src * size + dst``, sorted, parallel edges dropped.

    A sort plus a neighbour mask: ``np.unique`` on int64 keys may take a
    hash path that is far slower on large inputs.
    """
    keys = np.multiply(src, size, dtype=np.int64)
    keys += dst
    keys.sort()
    if len(keys) > 1:
        keep = np.empty(len(keys), dtype=bool)
        keep[0] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
    return keys


class GrowingGraph:
    """A directed graph on ``[0, size)`` that only gains edges.

    The edges live in a capacity-doubling buffer (:meth:`append` is
    amortised O(new edges); :meth:`edges` returns views).  For SCC passes a
    CSR adjacency of the first ``n_built`` edges is kept on ``2 * size``
    nodes: row ``v`` holds ``v``'s successors sorted and de-duplicated and
    ends in one *hub* slot ``size + v``.  The edges appended since the
    build and a call's added edges become the rows of the hubs, so a pass
    over ``graph ∪ added`` costs one memcpy of the kept indices rather than
    a merge into every row.  A hub has one predecessor, so it joins its
    state's SCC exactly when it lies on a cycle and never links two SCCs
    that the plain graph would keep apart.

    The CSR is rebuilt when the edges appended since the last build
    outnumber the built ones, so those edges never outnumber the kept ones
    and the builds' sizes at least double from one to the next.
    """

    def __init__(self, size: int, src: np.ndarray, dst: np.ndarray):
        self.size = size
        self._src = np.asarray(src, dtype=STATE_DTYPE)
        self._dst = np.asarray(dst, dtype=STATE_DTYPE)
        self.n_edges = len(self._src)
        #: edges covered by the kept CSR (``indptr``/``indices``)
        self.n_built = 0
        self._indptr: np.ndarray | None = None
        self._indices: np.ndarray | None = None
        #: the CSR's data: scipy wants float64 values, and its strong
        #: components read none of them, so one buffer serves every call
        self._ones = np.ones(0)

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` views of every edge, in append order."""
        return self._src[: self.n_edges], self._dst[: self.n_edges]

    def append(self, src: np.ndarray, dst: np.ndarray) -> None:
        need = self.n_edges + len(src)
        if need > len(self._src):
            capacity = max(need, 2 * len(self._src))
            for name in ("_src", "_dst"):
                grown = np.empty(capacity, dtype=STATE_DTYPE)
                grown[: self.n_edges] = getattr(self, name)[: self.n_edges]
                setattr(self, name, grown)
        self._src[self.n_edges : need] = src
        self._dst[self.n_edges : need] = dst
        self.n_edges = need

    def _build(self) -> None:
        n = self.size
        keys = _sorted_unique_keys(*self.edges(), n)
        heads = keys // n
        row_len = np.bincount(heads, minlength=n) + 1
        indptr = np.zeros(n + 1, dtype=_INDEX)
        np.cumsum(row_len, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=_INDEX)
        # each row before ``v`` adds one hub slot ahead of v's edges
        indices[np.arange(len(keys)) + heads] = keys - heads * n
        indices[indptr[1:] - 1] = np.arange(n, 2 * n, dtype=_INDEX)
        self._indptr, self._indices = indptr, indices
        self.n_built = self.n_edges

    def _closes_no_cycle(self, add_src: np.ndarray, add_dst: np.ndarray) -> bool:
        """One forward level from the added targets: when it reaches no new
        state and no added source is a target, the targets are closed under
        the graph's edges and contain no added source, so (the graph being
        acyclic) no cycle runs through an added edge."""
        targets = np.zeros(self.size, dtype=bool)
        targets[add_dst] = True
        if targets[add_src].any():
            return False
        src, dst = self.edges()
        return bool(targets[dst[targets[src]]].all())

    def scc_labels_with(
        self, add_src: np.ndarray, add_dst: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:func:`scc_labels` of ``self ∪ added``, assuming ``self`` is acyclic."""
        n = self.size
        if len(add_src) == 0 or self._closes_no_cycle(add_src, add_dst):
            return _no_sccs(n)
        if self._indptr is None or self.n_edges - self.n_built > self.n_built:
            self._build()
        hub_keys = _sorted_unique_keys(
            np.concatenate([self._src[self.n_built : self.n_edges], add_src]),
            np.concatenate([self._dst[self.n_built : self.n_edges], add_dst]),
            n,
        )
        hub_heads = hub_keys // n
        hub_ptr = np.cumsum(np.bincount(hub_heads, minlength=n), dtype=_INDEX)
        kept = self._indptr
        indptr = np.concatenate([kept, hub_ptr + kept[-1]])
        indices = np.concatenate(
            [self._indices, (hub_keys - hub_heads * n).astype(_INDEX)]
        )
        if len(self._ones) < len(indices):
            self._ones = np.ones(2 * len(indices))
        graph = csr_matrix(
            (self._ones[: len(indices)], indices, indptr), shape=(2 * n, 2 * n)
        )
        n_comp, comp = connected_components(
            graph, directed=True, connection="strong"
        )
        return _cyclic_labels(comp[:n], n_comp)


def scc_labels_after_addition(
    base_src: np.ndarray,
    base_dst: np.ndarray,
    add_src: np.ndarray,
    add_dst: np.ndarray,
    size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`scc_labels` of ``base ∪ added``, assuming ``base`` is acyclic."""
    return GrowingGraph(size, base_src, base_dst).scc_labels_with(add_src, add_dst)


def cyclic_sccs(
    view: TransitionView, size: int, within: np.ndarray | None = None
) -> list[np.ndarray]:
    """All cyclic SCCs (as state-index arrays) of the view's transition graph."""
    return scc_members(*scc_labels(*view.edge_arrays(within), size))


def cyclic_sccs_after_addition(
    base: TransitionView,
    added: TransitionView,
    size: int,
    within: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Cyclic SCCs of ``base ∪ added`` assuming ``base`` alone is acyclic."""
    labels, sizes = scc_labels_after_addition(
        *base.edge_arrays(within), *added.edge_arrays(within), size
    )
    return scc_members(labels, sizes)
