"""Strongly-connected-component detection for the explicit engine.

The synthesis heuristic needs the *cyclic* SCCs of ``pss ∪ added`` restricted
to ``¬I`` (paper's ``Detect_SCC``).  SCCs are computed on flat edge arrays
over the dense state indices ``[0, size)`` by
``scipy.sparse.csgraph.connected_components`` (compiled Pearce–Tarjan) and
returned as a per-state label array — ``-1`` for a state in no cyclic SCC —
plus the size of each cyclic SCC, so no Python work scales with the number
of SCCs:

* :func:`scc_labels` — the general routine over an edge list;
* :func:`scc_labels_after_addition` — the fast path used inside
  ``Identify_Resolve_Cycles``: when the base relation is already acyclic in
  ``¬I`` (an invariant the heuristic maintains), every cycle must pass
  through an added edge, so SCC detection can be confined to
  ``forward(added targets) ∩ backward(added sources)``.

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

from .graph import TransitionView, reachable


def _no_sccs(size: int) -> tuple[np.ndarray, np.ndarray]:
    return np.full(size, -1, dtype=np.int64), np.empty(0, dtype=np.int64)


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
    counts = np.bincount(comp, minlength=n_comp)
    cyclic = counts >= 2
    relabel = np.full(n_comp, -1, dtype=np.int64)
    relabel[cyclic] = np.arange(int(cyclic.sum()))
    return relabel[comp], counts[cyclic]


def scc_members(labels: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
    """The cyclic SCCs of a labelling, each as a sorted state array."""
    states = np.flatnonzero(labels >= 0)
    states = states[np.argsort(labels[states], kind="stable")]
    return np.split(states, np.cumsum(sizes)[:-1]) if len(sizes) else []


def scc_labels_after_addition(
    base_src: np.ndarray,
    base_dst: np.ndarray,
    add_src: np.ndarray,
    add_dst: np.ndarray,
    size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`scc_labels` of ``base ∪ added``, assuming ``base`` is acyclic.

    Every cycle then contains an added edge ``(s0, s1)``, hence lies in
    ``F = forward(added targets)`` and closes at an ``s0 ∈ F``.  Nothing is
    searched further when no added source is in ``F``; otherwise SCC
    detection runs on the edges of the region ``F ∩ backward(those
    sources)``.  Both searches follow base edges only: every added target
    seeds the forward one, and every added source in ``F`` the backward
    one.  The backward search keeps to the base edges leaving ``F``; ``F``
    is forward-closed, so that loses no path inside it.
    """
    if len(add_src) == 0:
        return _no_sccs(size)
    fwd = np.zeros(size, dtype=bool)
    fwd[add_dst] = True
    reachable(base_src, base_dst, fwd)
    entries = add_src[fwd[add_src]]
    if len(entries) == 0:
        return _no_sccs(size)
    keep = fwd[base_src]
    src, dst = base_src[keep], base_dst[keep]
    region = np.zeros(size, dtype=bool)
    region[entries] = True
    reachable(dst, src, region)
    src = np.concatenate([src, add_src])
    dst = np.concatenate([dst, add_dst])
    keep = region[src] & region[dst]
    return scc_labels(src[keep], dst[keep], size)


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
