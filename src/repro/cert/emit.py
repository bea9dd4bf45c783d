"""Certificate emission: compute the ranking witness at synthesis time.

Strong mode does **not** reuse the BFS rank of ``ComputeRanks`` — pass 3 of
the heuristic may add recovery transitions that jump *up* in BFS rank, so
the BFS rank is not a witness for the final ``pss``.  Instead we emit the
**longest-path rank** over ``δpss`` restricted to sources outside ``I``:

    rank(s) = 0                          for s ∈ I
    rank(s) = 1 + max over successors    otherwise

Under a strongly converging ``pss`` this is finite (the restriction is a
DAG — any cycle outside ``I`` would be a non-progress cycle) and *every*
transition from a ranked state strictly decreases it, which is exactly the
local property the checker re-verifies.  Weak mode uses the shortest-path
(BFS) rank of ``pss`` itself: every ranked state keeps at least one
decreasing successor.

Both emitters peel the longest-path levels by backward induction: a level
is the set of unranked states none of whose successors is still unranked.
The explicit emitter takes each level's pre-image on the state tensor
(:class:`~repro.explicit.graph.TensorPreImage`, no edge list), the
symbolic one on BDDs, so an explicit-emitted and a symbolic-emitted
certificate for the same ``pss`` decode to identical dense rank arrays —
the cross-engine tests assert this.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from ..explicit.graph import TensorPreImage
from ..parallel.cache import protocol_fingerprint
from ..protocol.predicate import Predicate
from ..protocol.protocol import Protocol
from .certificate import CertificateError, ConvergenceCertificate, invariant_hash


class CertificateEmissionError(CertificateError):
    """The protocol does not admit the requested ranking witness.

    Raised when emission is attempted on a non-converging ``pss``: a cycle
    or a deadlock outside the invariant (strong), or a state that cannot
    reach the invariant at all (weak).
    """


# ----------------------------------------------------------------------
# explicit ranking computations
# ----------------------------------------------------------------------
def longest_path_ranks(pss: Protocol, invariant: Predicate) -> np.ndarray:
    """Longest-path rank of every state over ``δpss`` sources outside ``I``.

    ``rank(s) = 1 + max rank(successors)`` with ``rank|I = 0``, peeled level
    by level with tensor pre-images (:class:`TensorPreImage`): level
    ``k + 1`` is the set of unranked enabled states outside ``I`` with no
    successor still unranked, ``remaining & ~pre(remaining)``.  Deadlocked
    states outside ``I`` are never unranked, so they settle their
    predecessors like ``I`` does.  Raises :class:`CertificateEmissionError`
    on a cycle (a level comes out empty with states left) or, after the
    peel, on a deadlock (a state outside ``I`` with no outgoing transition).
    """
    inside = invariant.mask
    pre = TensorPreImage(pss.space, pss.tables, pss.groups)
    enabled = pre(np.ones(pss.space.size, dtype=bool))
    remaining = enabled & ~inside
    rank = np.zeros(pss.space.size, dtype=np.int32)
    level = 0
    while remaining.any():
        layer = remaining & ~pre(remaining)
        if not layer.any():
            s = int(np.argmax(remaining))
            raise CertificateEmissionError(
                f"pss has a non-progress cycle outside I reachable from "
                f"{pss.space.format_state(s)}; no strong ranking exists"
            )
        level += 1
        rank[layer] = level
        remaining &= ~layer
    stuck = ~inside & ~enabled
    if stuck.any():
        s = int(np.argmax(stuck))
        raise CertificateEmissionError(
            f"pss deadlocks outside I at {pss.space.format_state(s)}; "
            f"no strong ranking exists"
        )
    return rank


def shortest_path_ranks(pss: Protocol, invariant: Predicate) -> np.ndarray:
    """BFS distance-to-``I`` of every state under ``δpss`` (weak witness).

    Raises :class:`CertificateEmissionError` when some state cannot reach
    ``I`` at all — then ``pss`` is not even weakly converging.
    """
    rank = TensorPreImage(pss.space, pss.tables, pss.groups).distances(
        invariant.mask
    )
    if (rank < 0).any():
        s = int(np.flatnonzero(rank < 0)[0])
        raise CertificateEmissionError(
            f"state {pss.space.format_state(s)} cannot reach I under pss; "
            f"not weakly converging"
        )
    return rank


# ----------------------------------------------------------------------
# explicit emission
# ----------------------------------------------------------------------
def _delta_ids(
    original: Protocol, pss_groups
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """(added, removed) group-id triples between the input and ``pss``."""
    added: list[tuple[int, int, int]] = []
    removed: list[tuple[int, int, int]] = []
    for j, gs in enumerate(pss_groups):
        now = set(gs)
        before = set(original.groups[j])
        added.extend((j, r, w) for (r, w) in sorted(now - before))
        removed.extend((j, r, w) for (r, w) in sorted(before - now))
    return added, removed


def emit_certificate(
    original: Protocol,
    invariant: Predicate,
    pss: Protocol,
    *,
    mode: str = "strong",
    schedule: tuple[int, ...] | None = None,
    added: list[tuple[int, int, int]] | None = None,
    removed: list[tuple[int, int, int]] | None = None,
    rank: np.ndarray | None = None,
    engine: str = "explicit",
) -> ConvergenceCertificate:
    """Emit a certificate for ``pss`` against the input ``(original, I)``.

    ``added``/``removed`` default to the per-process group-set differences;
    ``rank`` defaults to the mode's canonical witness (longest-path for
    strong, BFS for weak).
    """
    if mode not in ("strong", "weak"):
        raise ValueError(f"mode must be 'strong' or 'weak', got {mode!r}")
    if added is None or removed is None:
        d_added, d_removed = _delta_ids(original, pss.groups)
        added = d_added if added is None else added
        removed = d_removed if removed is None else removed
    if rank is None:
        rank = (
            longest_path_ranks(pss, invariant)
            if mode == "strong"
            else shortest_path_ranks(pss, invariant)
        )
    rank = np.asarray(rank, dtype=np.int32)
    return ConvergenceCertificate(
        fingerprint=protocol_fingerprint(original, invariant),
        invariant_hash=invariant_hash(invariant),
        mode=mode,
        engine=engine,
        schedule=tuple(schedule) if schedule is not None else None,
        added=list(added),
        removed=list(removed),
        max_rank=int(rank.max(initial=0)),
        rank=rank,
    )


def emit_certificate_from_groups(
    original: Protocol,
    invariant: Predicate,
    pss_groups,
    *,
    mode: str = "strong",
    schedule: tuple[int, ...] | None = None,
) -> ConvergenceCertificate:
    """Emission from bare ``pss`` group sets (stored cache records)."""
    pss = original.with_groups(
        [set(g) for g in pss_groups], name=f"{original.name}_ss"
    )
    return emit_certificate(
        original, invariant, pss, mode=mode, schedule=schedule
    )


# ----------------------------------------------------------------------
# symbolic emission
# ----------------------------------------------------------------------
#: largest space for which the symbolic emitter will derive the explicit
#: invariant mask to compute the fingerprint binding
FINGERPRINT_LIMIT = 1 << 20


def _level_cubes(sym, level_bdd: int) -> list[list[tuple[int, int]]]:
    """Value-level cubes of one state-set BDD (current bits).

    Each BDD sat-cube is turned into protocol-variable literals; a variable
    with *partially* fixed bits is expanded into its consistent explicit
    values (same expansion the explicit decoder uses), while a fully
    don't-care variable is omitted — a wildcard.
    """
    bdd = sym.bdd
    g = bdd.and_(level_bdd, sym.domain_cur)
    cubes: list[list[tuple[int, int]]] = []
    for partial in bdd.iter_sat(g):
        options: list[list[tuple[int, int] | None]] = []
        for i in range(sym.space.n_vars):
            bits = sym.cur_levels[i]
            spec = [partial.get(b) for b in bits]
            if all(s is None for s in spec):
                options.append([None])
                continue
            n = len(bits)
            domain = sym.space.variables[i].domain_size
            values: list[int] = []

            def expand(b: int, value: int) -> None:
                if b == n:
                    if value < domain:
                        values.append(value)
                    return
                known = spec[b]
                for bit in (known,) if known is not None else (False, True):
                    expand(b + 1, value | (int(bit) << (n - 1 - b)))

            expand(0, 0)
            options.append([(i, v) for v in values])
        for combo in product(*options):
            cube = [lit for lit in combo if lit is not None]
            cubes.append(cube)
    return cubes


def emit_certificate_symbolic(
    sp,
    invariant_bdd: int,
    pss_groups,
    *,
    schedule: tuple[int, ...] | None = None,
    added: list[tuple[int, int, int]] | None = None,
    removed: list[tuple[int, int, int]] | None = None,
) -> ConvergenceCertificate:
    """Emit a strong certificate from the symbolic engine's final state.

    Computes the longest-path levels by backward induction: level ``k`` is
    the set of unranked states with at least one successor, none of which
    is still unranked.  A stall with unranked states left means a cycle or
    deadlock outside ``I`` — :class:`CertificateEmissionError`.

    The protocol fingerprint needs the explicit invariant mask, so spaces
    beyond :data:`FINGERPRINT_LIMIT` states are refused (certificates are a
    trust artifact; an unbound certificate would be worthless).
    """
    from ..bdd import ZERO
    from ..symbolic.image import preimage_union

    sym = sp.sym
    bdd = sym.bdd
    if sym.space.size > FINGERPRINT_LIMIT:
        raise CertificateEmissionError(
            f"space of {sym.space.size} states exceeds the certificate "
            f"fingerprint limit ({FINGERPRINT_LIMIT})"
        )
    if added is None or removed is None:
        d_added, d_removed = _delta_ids(sp.protocol, pss_groups)
        added = d_added if added is None else added
        removed = d_removed if removed is None else removed

    relations = sp.process_relations(pss_groups)
    enabled = bdd.or_all(
        sp.rcube(j, r)
        for j, gs in enumerate(pss_groups)
        for (r, _w) in set(gs)
    )
    known = bdd.and_(invariant_bdd, sym.domain_cur)
    levels = [known]
    remaining = bdd.diff(sym.domain_cur, known)
    while remaining != ZERO:
        settled = bdd.diff(
            remaining, preimage_union(sym, relations, remaining)
        )
        new = bdd.and_(settled, enabled)
        if new == ZERO:
            dead = bdd.diff(remaining, enabled)
            if dead != ZERO:
                s = sym.pick_state(dead)
                raise CertificateEmissionError(
                    f"pss deadlocks outside I at "
                    f"{sym.space.format_state(s)}; no strong ranking exists"
                )
            raise CertificateEmissionError(
                "pss has a non-progress cycle outside I; "
                "no strong ranking exists"
            )
        levels.append(new)
        remaining = bdd.diff(remaining, new)

    inv_mask = sym.to_mask(invariant_bdd)
    invariant = Predicate(sym.space, inv_mask)
    return ConvergenceCertificate(
        fingerprint=protocol_fingerprint(sp.protocol, invariant),
        invariant_hash=invariant_hash(invariant),
        mode="strong",
        engine="symbolic",
        schedule=tuple(schedule) if schedule is not None else None,
        added=list(added),
        removed=list(removed),
        max_rank=len(levels) - 1,
        rank_cubes=[_level_cubes(sym, level) for level in levels],
    )
