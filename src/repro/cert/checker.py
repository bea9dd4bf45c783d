"""Independent certificate checker — no synthesis, no reachability.

Trust argument (why accepting a certificate is sound):

1. the fingerprint and invariant hash bind the certificate to this exact
   ``(p, I)`` pair — a certificate for any other input is rejected;
2. ``pss`` is *reconstructed* from the recorded group-id delta, so the
   checker never trusts a transition set handed to it;
3. every added and removed group must have **no source state inside I** —
   this is exactly ``δpss|I = δp|I`` (Problem statement, constraint 2);
4. ``I`` must be closed under ``δpss`` (constraint 1, checked per group);
5. the rank map must be a total function with ``rank⁻¹(0) = I`` and values
   in ``[0, max_rank]``, under which every transition from a ranked state
   strictly decreases rank (strong) — so from any state a run reaches
   ``I`` within ``max_rank`` steps and no deadlock/livelock exists outside
   ``I`` (ranked states are additionally required to be enabled) — or
   every ranked state keeps at least one decreasing successor (weak).

Together these are the premises of the paper's Theorems IV.1/V.1; nothing
else about the synthesis run needs to be believed, so this checker is the
one production trust decision for strong and weak winners alike;
``check_solution`` stays as the independent oracle of ``stsyn verify`` and
the test and fuzz suites.  Cost is one vectorised pass over the
transitions — on the TR² winner 7.5–8× cheaper than ``check_solution``'s
re-verification, payload decode included (see
``benchmarks/test_cert_speedup.py``).

Every rejection raises :class:`CertificateViolation` carrying a structured
``kind`` plus a concrete counterexample (a transition, group, or state),
for both the explicit and the symbolic implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..parallel.cache import protocol_fingerprint
from ..protocol.predicate import Predicate
from ..protocol.protocol import Protocol
from .certificate import (
    CERT_SCHEMA,
    CertificateError,
    ConvergenceCertificate,
    invariant_hash,
    literal_var,
)

#: violation kinds, in the order the checks run
VIOLATION_KINDS = (
    "schema",
    "fingerprint",
    "delta",
    "delta_inside_invariant",
    "encoding",
    "rank_range",
    "rank_zero",
    "closure",
    "deadlock",
    "well_foundedness",
)


class CertificateViolation(CertificateError):
    """A certificate failed a check; carries a concrete counterexample."""

    def __init__(
        self,
        kind: str,
        message: str,
        *,
        transition: tuple[int, int] | None = None,
        group: tuple[int, int, int] | None = None,
        state: int | None = None,
    ):
        super().__init__(message)
        self.kind = kind
        self.transition = transition
        self.group = group
        self.state = state

    def describe(self) -> str:
        parts = [f"[{self.kind}] {self}"]
        if self.transition is not None:
            parts.append(f"counterexample transition: {self.transition}")
        if self.group is not None:
            parts.append(f"group: {self.group}")
        if self.state is not None:
            parts.append(f"state: {self.state}")
        return "\n".join(parts)


@dataclass(frozen=True)
class CertificateCheck:
    """Outcome of a successful check (failures raise instead)."""

    mode: str
    engine: str
    max_rank: int
    n_ranked: int
    n_edges_checked: int

    def describe(self) -> str:
        return (
            f"certificate OK: {self.mode} convergence, engine={self.engine}, "
            f"max rank {self.max_rank}, {self.n_ranked} ranked states, "
            f"{self.n_edges_checked} transitions checked"
        )


# ----------------------------------------------------------------------
# shared front half: binding + pss reconstruction
# ----------------------------------------------------------------------
def _check_binding(
    original: Protocol, invariant: Predicate, cert: ConvergenceCertificate
) -> None:
    if cert.schema != CERT_SCHEMA:
        raise CertificateViolation(
            "schema",
            f"certificate schema {cert.schema} != supported {CERT_SCHEMA}",
        )
    if cert.mode not in ("strong", "weak"):
        raise CertificateViolation("schema", f"unknown mode {cert.mode!r}")
    expected = protocol_fingerprint(original, invariant)
    if cert.fingerprint != expected:
        raise CertificateViolation(
            "fingerprint",
            f"certificate is bound to fingerprint {cert.fingerprint[:12]}…, "
            f"this (protocol, invariant) hashes to {expected[:12]}…",
        )
    if cert.invariant_hash != invariant_hash(invariant):
        raise CertificateViolation(
            "fingerprint", "certificate invariant hash does not match I"
        )


def reconstruct_pss_groups(
    original: Protocol, cert: ConvergenceCertificate
) -> list[set[tuple[int, int]]]:
    """Apply the recorded delta to the input protocol's groups.

    Rejects ill-formed ids (process/rcode/wcode out of range, removal of a
    group the input does not have, addition of a pure self-loop) with a
    ``"delta"`` violation — the checker never evaluates a group it cannot
    attribute to the read/write topology.
    """
    groups = [set(gs) for gs in original.groups]
    for j, r, w in cert.removed:
        if not 0 <= j < original.n_processes:
            raise CertificateViolation(
                "delta", f"removed group names process {j}", group=(j, r, w)
            )
        if (r, w) not in groups[j]:
            raise CertificateViolation(
                "delta",
                f"removed group {(j, r, w)} is not a group of the input",
                group=(j, r, w),
            )
        groups[j].discard((r, w))
    for j, r, w in cert.added:
        if not 0 <= j < original.n_processes:
            raise CertificateViolation(
                "delta", f"added group names process {j}", group=(j, r, w)
            )
        table = original.tables[j]
        if not (0 <= r < table.n_rvals and 0 <= w < table.n_wvals):
            raise CertificateViolation(
                "delta",
                f"added group {(j, r, w)} outside the read/write code range",
                group=(j, r, w),
            )
        if table.is_self_loop(r, w):
            raise CertificateViolation(
                "delta",
                f"added group {(j, r, w)} is a pure self-loop",
                group=(j, r, w),
            )
        groups[j].add((r, w))
    return groups


def _check_expected_pss(
    groups: list[set[tuple[int, int]]], expected_pss
) -> None:
    if expected_pss is None:
        return
    expected = [set(map(tuple, g)) for g in expected_pss]
    if groups != expected:
        raise CertificateViolation(
            "delta",
            "certificate delta reconstructs a different pss than the "
            "recorded winner's groups",
        )


# ----------------------------------------------------------------------
# explicit checker
# ----------------------------------------------------------------------
def check_certificate(
    original: Protocol,
    invariant: Predicate,
    cert: ConvergenceCertificate,
    *,
    expected_pss=None,
) -> CertificateCheck:
    """Validate ``cert`` against ``(original, I)`` with the explicit engine.

    ``expected_pss`` (per-process group collections) additionally pins the
    reconstructed ``pss`` to a recorded winner — used on cache/resume
    paths so a valid certificate for a *different* solution is rejected.

    Returns a :class:`CertificateCheck`; raises
    :class:`CertificateViolation` with a concrete counterexample otherwise.
    """
    space = original.space
    inside = invariant.mask

    _check_binding(original, invariant, cert)
    groups = reconstruct_pss_groups(original, cert)
    _check_expected_pss(groups, expected_pss)

    # δpss|I = δp|I — the delta may only touch states outside I.  Group
    # sources depend only on the rcode, so each distinct (process, rcode)
    # of the delta is read once off the cylinder rows of I; only on a hit
    # does the (rare) slow path walk the delta in order to attribute a
    # concrete group.
    delta_rcodes: dict[int, set[int]] = {}
    for gid in cert.added + cert.removed:
        delta_rcodes.setdefault(gid[0], set()).add(gid[1])
    flagged: set[tuple[int, int]] = set()
    for j, rset in delta_rcodes.items():
        table = original.tables[j]
        rs = np.fromiter(rset, dtype=np.int64)
        hit = table.cylinder_rows(inside)[table.cylinder_row[rs]].any(axis=1)
        flagged.update((j, int(r)) for r in rs[hit])
    if flagged:
        for gid in cert.added + cert.removed:
            if (gid[0], gid[1]) in flagged:
                src, dst = original.tables[gid[0]].pairs(gid[1], gid[2])
                pos = int(np.argmax(inside[src]))
                raise CertificateViolation(
                    "delta_inside_invariant",
                    f"delta group {gid} has a source inside I: "
                    f"{space.format_state(int(src[pos]))}",
                    transition=(int(src[pos]), int(dst[pos])),
                    group=gid,
                )

    try:
        rank = cert.dense_rank(space)
    except CertificateViolation:
        raise
    except CertificateError as exc:
        raise CertificateViolation("encoding", str(exc)) from exc

    bad = (rank < 0) | (rank > cert.max_rank)
    if bad.any():
        s = int(np.flatnonzero(bad)[0])
        raise CertificateViolation(
            "rank_range",
            f"state {space.format_state(s)} has rank {int(rank[s])} outside "
            f"[0, {cert.max_rank}]",
            state=s,
        )
    mismatch = (rank == 0) != inside
    if mismatch.any():
        s = int(np.flatnonzero(mismatch)[0])
        raise CertificateViolation(
            "rank_zero",
            f"rank 0 must coincide with I; differs at {space.format_state(s)}",
            state=s,
        )

    # A group maps the cylinder of its rcode onto the cylinder of its target
    # rcode, unread valuations aligned: so each process lays the ranks out
    # one row per cylinder (in the narrowest dtype that holds them, which
    # makes the copies and comparisons cheaper) and compares the rows of
    # each group's source and target cylinders.  The (groups x group_size)
    # matrices are scanned row-major: transitions in the order a per-group
    # loop visits them, so counterexamples are the same.  rank_zero above
    # established rank == 0 ⟺ I, so membership in I is read off the ranks.
    strong = cert.mode == "strong"
    narrow = rank.astype(np.min_scalar_type(int(rank.max(initial=0))))
    # strong: the states some group leaves; weak: the states with a
    # rank-decreasing successor — every ranked state must be one
    covered = np.zeros(space.tensor_shape, dtype=np.uint8)
    n_edges = 0
    for j, gs in enumerate(groups):
        if not gs:
            continue
        table = original.tables[j]
        gids = list(gs)
        rcodes = np.array([g[0] for g in gids], dtype=np.int64)
        wcodes = np.array([g[1] for g in gids], dtype=np.int64)
        src_rows = table.cylinder_row[rcodes]
        rows = table.cylinder_rows(narrow)
        rank_src = rows[src_rows]
        rank_dst = rows[table.cylinder_row[table.target_rcodes(rcodes, wcodes)]]
        n_edges += rank_src.size
        # from a source in I (rank 0) a bad edge enters ¬I (rank_dst >= 1);
        # in strong mode so is one from a ranked source that does not
        # decrease (rank_dst >= rank_src); the kind is read off the source
        if strong:
            bad = rank_dst >= np.maximum(rank_src, 1)
        else:
            bad = (rank_src == 0) & (rank_dst != 0)
        if bad.any():
            row, col = np.unravel_index(int(np.argmax(bad)), bad.shape)
            gid = (j, *gids[row])
            s = int(table.bases[gid[1]] + table.unread_offsets[col])
            t = s + int(table.deltas[gid[1], gid[2]])
            if rank[s] == 0:
                raise CertificateViolation(
                    "closure",
                    f"transition of group {gid} leaves I: "
                    f"{space.format_state(s)} -> {space.format_state(t)}",
                    transition=(s, t),
                    group=gid,
                )
            raise CertificateViolation(
                "well_foundedness",
                f"transition of group {gid} does not decrease rank: "
                f"{space.format_state(s)} (rank {int(rank[s])}) -> "
                f"{space.format_state(t)} (rank {int(rank[t])})",
                transition=(s, t),
                group=gid,
            )
        # OR j's part into ``covered`` on the transposed state tensor, as
        # TensorPreImage does: its groups' source cylinders (strong), or
        # the sources of its decreasing transitions (weak)
        view = covered.transpose(table.axis_order)
        if strong:
            has_group = np.zeros(table.n_rvals, dtype=np.uint8)
            has_group[rcodes] = 1
            part = table.rcode_tensor(has_group)
        else:
            part = _or_rows(src_rows, rank_dst < rank_src, rows.shape)
            part = part.reshape(view.shape)
        np.bitwise_or(view, part, out=view)
    ranked = rank > 0
    stuck = ranked & ~covered.reshape(-1).view(bool)
    if stuck.any():
        s = int(np.flatnonzero(stuck)[0])
        if strong:
            raise CertificateViolation(
                "deadlock",
                f"ranked state {space.format_state(s)} has no outgoing "
                f"pss transition",
                state=s,
            )
        raise CertificateViolation(
            "well_foundedness",
            f"ranked state {space.format_state(s)} (rank {int(rank[s])}) "
            f"has no rank-decreasing successor",
            state=s,
        )

    return CertificateCheck(
        mode=cert.mode,
        engine="explicit",
        max_rank=cert.max_rank,
        n_ranked=int(ranked.sum()),
        n_edges_checked=n_edges,
    )


def _or_rows(index: np.ndarray, values: np.ndarray, shape) -> np.ndarray:
    """``out[i]`` = the OR of the rows ``values[k]`` with ``index[k] == i``.

    The result of ``np.bitwise_or.at(out, index, values)`` on zeros, from
    one stable sort of ``index`` and one ``reduceat`` per run of equal
    rows: ~6x faster than that unbuffered scatter.
    """
    order = np.argsort(index, kind="stable")
    by_row = index[order]
    starts = np.flatnonzero(np.diff(by_row, prepend=-1))
    out = np.zeros(shape, dtype=np.uint8)
    out[by_row[starts]] = np.logical_or.reduceat(
        values[order], starts, axis=0
    )
    return out


def validate_certificate(
    original: Protocol,
    invariant: Predicate,
    cert: ConvergenceCertificate,
    *,
    expected_pss=None,
) -> tuple[CertificateCheck | None, CertificateViolation | None]:
    """Non-raising wrapper: ``(check, None)`` or ``(None, violation)``.

    Any non-violation :class:`CertificateError` (e.g. a decode failure) is
    wrapped as an ``"encoding"`` violation so callers have one shape.
    """
    try:
        return (
            check_certificate(
                original, invariant, cert, expected_pss=expected_pss
            ),
            None,
        )
    except CertificateViolation as violation:
        return None, violation
    except CertificateError as exc:
        return None, CertificateViolation("encoding", str(exc))


# ----------------------------------------------------------------------
# symbolic checker
# ----------------------------------------------------------------------
def _pick_transition(sp, constrained_rel: int) -> tuple[int, int] | None:
    """Decode one ``(src, dst)`` state pair from a transition-relation BDD."""
    sym = sp.sym
    bdd = sym.bdd
    g = bdd.and_(
        bdd.and_(constrained_rel, sym.domain_cur), sym.domain_next
    )
    model = bdd.pick(g)
    if model is None:
        return None

    def decode(levels_of) -> int:
        values = []
        for i in range(sym.space.n_vars):
            bits = levels_of[i]
            n = len(bits)
            value = 0
            for b in range(n):
                value |= int(model.get(bits[b], False)) << (n - 1 - b)
            values.append(value)
        return sym.space.encode(values)

    return decode(sym.cur_levels), decode(sym.next_levels)


def check_certificate_symbolic(
    original: Protocol,
    invariant: Predicate,
    cert: ConvergenceCertificate,
    *,
    sp=None,
    expected_pss=None,
) -> CertificateCheck:
    """Validate ``cert`` with BDD set algebra (same checks, same kinds).

    Accepts certificates of either encoding: dense rank arrays become
    per-level BDDs via ``from_mask``; cube lists build each level from one
    ``bdd.cube`` per rank cube.  ``sp`` (a
    :class:`~repro.symbolic.encode.SymbolicProtocol` over ``original``) may
    be supplied to reuse an existing manager.
    """
    from ..bdd import ZERO
    from ..symbolic.encode import SymbolicProtocol
    from ..symbolic.image import preimage_union

    _check_binding(original, invariant, cert)
    groups = reconstruct_pss_groups(original, cert)
    _check_expected_pss(groups, expected_pss)

    if sp is None:
        sp = SymbolicProtocol(original)
    sym = sp.sym
    bdd = sym.bdd
    inv = sym.from_predicate(invariant)

    for gid in cert.added + cert.removed:
        hit = bdd.and_(sp.rcube(gid[0], gid[1]), inv)
        if hit != ZERO:
            t = _pick_transition(sp, bdd.and_(sp.group_relation(gid), inv))
            raise CertificateViolation(
                "delta_inside_invariant",
                f"delta group {gid} has a source inside I",
                transition=t,
                group=gid,
            )

    # decode the rank map into per-level state-set BDDs
    if cert.max_rank < 0:
        raise CertificateViolation(
            "rank_range", f"negative max_rank {cert.max_rank}"
        )
    if cert.rank_cubes is not None:
        if len(cert.rank_cubes) != cert.max_rank + 1:
            raise CertificateViolation(
                "rank_range",
                f"{len(cert.rank_cubes)} cube levels for max_rank "
                f"{cert.max_rank}",
            )
        n_vars = sym.space.n_vars
        levels = []
        for cubes in cert.rank_cubes:
            level = ZERO
            for cube in cubes:
                try:
                    c = sym.mdd.partial_cube(
                        (literal_var(v, n_vars), int(val)) for v, val in cube
                    )
                except CertificateError as exc:
                    raise CertificateViolation("encoding", str(exc)) from exc
                except ValueError as exc:
                    raise CertificateViolation(
                        "encoding", f"bad cube literal: {exc}"
                    ) from exc
                level = bdd.or_(level, c)
            levels.append(bdd.and_(level, sym.domain_cur))
    else:
        try:
            rank = cert.dense_rank(original.space)
        except CertificateViolation:
            raise
        except CertificateError as exc:
            raise CertificateViolation("encoding", str(exc)) from exc
        bad = (rank < 0) | (rank > cert.max_rank)
        if bad.any():
            s = int(np.flatnonzero(bad)[0])
            raise CertificateViolation(
                "rank_range",
                f"state {original.space.format_state(s)} has rank "
                f"{int(rank[s])} outside [0, {cert.max_rank}]",
                state=s,
            )
        levels = [
            sym.from_mask(rank == i) for i in range(cert.max_rank + 1)
        ]

    # the levels must partition the space
    assigned = ZERO
    for i, level in enumerate(levels):
        clash = bdd.and_(level, assigned)
        if clash != ZERO:
            raise CertificateViolation(
                "encoding",
                f"rank {i} overlaps a lower rank",
                state=sym.pick_state(clash),
            )
        assigned = bdd.or_(assigned, level)
    uncovered = bdd.diff(sym.domain_cur, assigned)
    if uncovered != ZERO:
        raise CertificateViolation(
            "encoding",
            "rank map does not cover the state space",
            state=sym.pick_state(uncovered),
        )

    # rank⁻¹(0) = I
    diff = bdd.or_(bdd.diff(levels[0], inv), bdd.diff(inv, levels[0]))
    if diff != ZERO:
        s = sym.pick_state(diff)
        raise CertificateViolation(
            "rank_zero",
            f"rank 0 must coincide with I; differs at "
            f"{original.space.format_state(s)}",
            state=s,
        )

    relations = sp.process_relations(groups)
    not_inv = bdd.diff(sym.domain_cur, inv)
    ranked = bdd.diff(assigned, levels[0])

    # closure: no pss transition from I to ¬I
    for j, rel in enumerate(relations):
        bad_rel = bdd.and_(bdd.and_(rel, inv), sym.prime(not_inv))
        if bad_rel != ZERO:
            t = _pick_transition(sp, bad_rel)
            raise CertificateViolation(
                "closure",
                f"a transition of process {j} leaves I: {t}",
                transition=t,
            )

    n_ranked = sym.count_states(ranked)
    pair_domain = bdd.and_(sym.domain_cur, sym.domain_next)
    n_edges = sum(
        bdd.count_sat(bdd.and_(rel, pair_domain)) for rel in relations
    )
    if cert.mode == "strong":
        # a transition from level k must land strictly below k, i.e. not in
        # up_k = L_k ∪ L_{k+1} ∪ …: one conjunction per process and level,
        # empty on a valid certificate, and the offending pairs otherwise
        steps = []
        up = ZERO
        for level in reversed(levels[1:]):
            up = bdd.or_(up, level)
            steps.append((level, sym.prime(up)))
        enabled = ZERO
        for j, rel in enumerate(relations):
            bad_rel = bdd.or_all(
                bdd.and_(bdd.and_(rel, level), up_next)
                for level, up_next in steps
            )
            if bad_rel != ZERO:
                t = _pick_transition(sp, bad_rel)
                raise CertificateViolation(
                    "well_foundedness",
                    f"a transition of process {j} does not decrease rank: "
                    f"{t}",
                    transition=t,
                )
            enabled = bdd.or_(
                enabled, preimage_union(sym, [rel], sym.domain_cur)
            )
        stuck = bdd.diff(ranked, enabled)
        if stuck != ZERO:
            s = sym.pick_state(stuck)
            raise CertificateViolation(
                "deadlock",
                f"ranked state {original.space.format_state(s)} has no "
                f"outgoing pss transition",
                state=s,
            )
    else:  # weak
        below = levels[0]
        decreases = ZERO
        for level in levels[1:]:
            decreases = bdd.or_(
                decreases,
                bdd.and_(level, preimage_union(sym, relations, below)),
            )
            below = bdd.or_(below, level)
        stuck = bdd.diff(ranked, decreases)
        if stuck != ZERO:
            s = sym.pick_state(stuck)
            raise CertificateViolation(
                "well_foundedness",
                f"ranked state {original.space.format_state(s)} has no "
                f"rank-decreasing successor",
                state=s,
            )

    return CertificateCheck(
        mode=cert.mode,
        engine="symbolic",
        max_rank=cert.max_rank,
        n_ranked=n_ranked,
        n_edges_checked=n_edges,
    )
