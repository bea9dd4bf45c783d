"""Symbolic encoding of protocols: multi-valued variables over BDD bits.

Variable-ordering convention
----------------------------
The log-encoding is owned by the multi-valued layer
(:class:`repro.bdd.mdd.MDD`, constructed with ``pairs=True``): each
protocol variable with domain ``d`` gets ``ceil(log2 d)`` bit pairs;
current and next bits are *interleaved* (``cur, next, cur, next, ...``) in
variable order — the standard ordering that keeps transition-relation BDDs
small and makes the cur<->next renaming order-preserving (a requirement of
:meth:`repro.bdd.manager.BDD.rename`).  The MDD layer declares each
``(cur, next)`` pair as a reorder *block*
(:meth:`repro.bdd.manager.BDD.set_reorder_blocks`), so dynamic sifting
permutes whole pairs and both the full prime/unprime renames and the
per-partition subset renames stay order-preserving under any reached
order.  Value cubes, per-variable domain predicates and ``v' == v`` frame
conditions are served by the MDD layer (direct ladder constructions,
linear in the bit count); this module adds the protocol-level plumbing:
state-set conversions, transition groups, partitions and frames.

The encoding's bit count is bounded by :data:`repro.bdd.MAX_VARS`: a
protocol whose current and next bits together exceed it raises
``ValueError`` when its :class:`SymbolicSpace` is created.

Transition relation
-------------------
:class:`SymbolicProtocol` serves the transition relation to the engine as
frameless :class:`~repro.symbolic.partition.Partition`\\ s, one per
*cluster* of :data:`CLUSTER_SIZE` consecutive processes
(:meth:`SymbolicProtocol.clustered_partitions`); images rename/quantify
only the cluster's written bits (implicit frames, maximal early
quantification).  Full-frame relation BDDs
(:meth:`SymbolicProtocol.group_relation`, :meth:`~SymbolicProtocol.relation_of`,
:meth:`~SymbolicProtocol.process_relations`) remain for the certificate
emitter and checker, the space metrics and the tests' references;
:mod:`repro.symbolic.image` accepts both shapes.

The :class:`SymbolicSpace` offers the combinators the case studies and the
synthesis engine need (value cubes, variable (in)equalities, frames, group
relations) plus conversions to/from the explicit engine for differential
testing.  Both classes expose ``gc_roots()`` enumerating every node id
they cache, so callers can pass them to
:meth:`repro.bdd.BDD.collect_garbage` between synthesis passes.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from ..bdd import ONE, ZERO
from ..bdd.mdd import MDD, bits_for
from ..protocol.groups import GroupId
from ..protocol.predicate import Predicate
from ..protocol.protocol import Protocol
from ..protocol.state_space import StateSpace
from .partition import Partition, make_partition

#: consecutive processes merged into one partition each.  It balances the
#: per-image traversal count (one per partition) against partition BDD
#: size (which grows with the partial frame) — see
#: ``benchmarks/SUBSTRATE_SCALING.md`` for measurements.
CLUSTER_SIZE = 3


def _bits_for(domain: int) -> int:
    # retained alias: the MDD layer owns the log-encoding width now
    return bits_for(domain)


class SymbolicSpace:
    """BDD encoding of a :class:`StateSpace` (current and next copies)."""

    def __init__(
        self,
        space: StateSpace,
        *,
        auto_reorder: bool = False,
        reorder_threshold: int | None = None,
    ):
        self.space = space
        #: the multi-valued layer owning the log-encoding (bit layout,
        #: value/domain cubes, frame conditions)
        self.mdd = MDD(
            [v.domain_size for v in space.variables],
            [v.name for v in space.variables],
            pairs=True,
        )
        self.n_bits_of: list[int] = list(self.mdd.n_bits)
        self.cur_levels: list[list[int]] = self.mdd.cur_levels
        self.next_levels: list[list[int]] = self.mdd.next_levels
        self.bdd = self.mdd.bdd
        self.all_cur = self.mdd.all_cur
        self.all_next = self.mdd.all_next
        self._cur_to_next = {c: n for c, n in zip(self.all_cur, self.all_next)}
        self._next_to_cur = {n: c for c, n in zip(self.all_cur, self.all_next)}
        # the MDD layer registered the interleaved (cur, next) bit pairs
        # as reorder blocks, so every rename the engine performs stays
        # order-preserving after a reorder
        self.bdd.auto_reorder = auto_reorder
        if reorder_threshold is not None:
            self.bdd.reorder_threshold = reorder_threshold
        #: states whose current-bit encoding is a valid domain valuation
        self.domain_cur = self.mdd.valid()
        self.domain_next = self.mdd.valid(primed=True)
        self._eq_frame_cache: dict[int, int] = {}

    # ------------------------------------------------------------------
    # atoms
    # ------------------------------------------------------------------
    def levels(self, var_index: int, *, primed: bool = False) -> list[int]:
        return (self.next_levels if primed else self.cur_levels)[var_index]

    def value_cube(self, var_index: int, value: int, *, primed: bool = False) -> int:
        """BDD of ``v == value`` (over current or next bits); msb is bit 0."""
        return self.mdd.value_cube(var_index, value, primed=primed)

    def _domain_constraint(self, var_index: int, *, primed: bool) -> int:
        return self.mdd.domain_cube(var_index, primed=primed)

    def eq_const(self, var_index: int, value: int) -> int:
        return self.value_cube(var_index, value, primed=False)

    def eq_vars(self, i: int, j: int) -> int:
        """``v_i == v_j`` (over current bits)."""
        return self.mdd.eq(i, j)

    def neq_vars(self, i: int, j: int) -> int:
        return self.bdd.diff(self.domain_cur, self.eq_vars(i, j))

    def relation(self, i: int, j: int, holds) -> int:
        """``holds(v_i, v_j)`` as a BDD, enumerated over the two domains."""
        di = self.space.variables[i].domain_size
        dj = self.space.variables[j].domain_size
        return self.bdd.or_all(
            self.bdd.and_(self.eq_const(i, a), self.eq_const(j, b))
            for a in range(di)
            for b in range(dj)
            if holds(a, b)
        )

    def unchanged(self, var_index: int) -> int:
        """Frame condition ``v' == v`` for one variable.

        Delegates to the MDD layer's bit-equality ladder (linear in the
        bit count; out-of-domain pairs excluded — see
        :meth:`repro.bdd.mdd.MDD.unchanged`)."""
        return self.mdd.unchanged(var_index)

    def state_cube(self, values: Sequence[int], *, primed: bool = False) -> int:
        return self.bdd.and_all(
            self.value_cube(i, v, primed=primed) for i, v in enumerate(values)
        )

    # ------------------------------------------------------------------
    # state-set plumbing
    # ------------------------------------------------------------------
    def prime(self, f: int) -> int:
        """Rename a current-bits BDD to next bits."""
        return self.bdd.rename(f, self._cur_to_next)

    def unprime(self, f: int) -> int:
        """Rename a next-bits BDD to current bits."""
        return self.bdd.rename(f, self._next_to_cur)

    def count_states(self, f: int) -> int:
        """Number of states in a current-bits state-set BDD."""
        g = self.bdd.and_(f, self.domain_cur)
        return self.bdd.count_sat(g) >> len(self.all_next)

    def is_empty(self, f: int) -> bool:
        return self.bdd.and_(f, self.domain_cur) == ZERO

    def pick_cube(self, f: int, *, assume_valid: bool = False) -> int:
        """One member state of a state-set BDD as a full current-bits cube
        (``ZERO`` when empty).  Unlike :meth:`pick_state` this never goes
        through the explicit state index, so it works on spaces far beyond
        the explicit limit (don't-care bits default to 0, which is always
        a valid domain value).

        ``assume_valid=True`` skips the ``∧ domain_cur`` guard — correct
        exactly when ``f ⊆ domain_cur`` already holds, which is true of
        every set the SCC/ranking fixpoints manipulate (they start from
        ``∧ domain_cur`` and only shrink).  The guard was the single
        hottest BDD operation of the SCC workloads."""
        g = f if assume_valid else self.bdd.and_(f, self.domain_cur)
        return self.bdd.pick_cube_over(g, self.all_cur)

    def pick_state(self, f: int) -> int | None:
        """Any member state of a state-set BDD, as an explicit state index."""
        g = self.bdd.and_(f, self.domain_cur)
        model = self.bdd.pick(g)
        if model is None:
            return None
        values = []
        for i in range(self.space.n_vars):
            bits = self.cur_levels[i]
            n = len(bits)
            value = 0
            for b in range(n):
                value |= int(model.get(bits[b], False)) << (n - 1 - b)
            values.append(value)
        return self.space.encode(values)

    # ------------------------------------------------------------------
    # explicit <-> symbolic conversion (small spaces; differential tests)
    # ------------------------------------------------------------------
    def from_mask(self, mask: np.ndarray) -> int:
        """Encode an explicit boolean mask as a state-set BDD.

        Linear in the state space — use only for testing / small spaces.
        """
        f = ZERO
        for s in np.flatnonzero(mask):
            f = self.bdd.or_(f, self.state_cube(self.space.decode(int(s))))
        return f

    def from_predicate(self, predicate: Predicate) -> int:
        return self.from_mask(predicate.mask)

    def to_mask(self, f: int) -> np.ndarray:
        """Decode a state-set BDD into an explicit boolean mask."""
        mask = np.zeros(self.space.size, dtype=bool)
        g = self.bdd.and_(f, self.domain_cur)
        for partial in self.bdd.iter_sat(g):
            free_vars: list[tuple[int, int]] = []  # (var, free-bit-count)
            base_values = []
            for i in range(self.space.n_vars):
                bits = self.cur_levels[i]
                base_values.append(
                    [partial.get(b) for b in bits]
                )
            # expand don't-care current bits; next bits are irrelevant
            self._expand(mask, base_values, 0, [0] * self.space.n_vars)
        return mask

    def _expand(self, mask, base_values, var, acc):
        if var == self.space.n_vars:
            mask[self.space.encode(acc)] = True
            return
        bits = base_values[var]
        n = len(bits)
        domain = self.space.variables[var].domain_size

        def rec(b, value):
            if b == n:
                if value < domain:
                    acc[var] = value
                    self._expand(mask, base_values, var + 1, acc)
                return
            known = bits[b]
            for bit in ((known,) if known is not None else (False, True)):
                rec(b + 1, value | (int(bit) << (n - 1 - b)))

        rec(0, 0)

    # ------------------------------------------------------------------
    # transition groups
    # ------------------------------------------------------------------
    def frame(self, written_vars: Iterable[int]) -> int:
        """``AND_{v not in written} (v' == v)`` — cached per write-set."""
        key = tuple(sorted(written_vars))
        cached = self._eq_frame_cache.get(("frame", key))
        if cached is None:
            cached = self.bdd.and_all(
                self.unchanged(v)
                for v in range(self.space.n_vars)
                if v not in key
            )
            self._eq_frame_cache[("frame", key)] = cached
        return cached

    def frame_within(
        self, written_vars: Iterable[int], among_vars: Iterable[int]
    ) -> int:
        """``AND_{v in among \\ written} (v' == v)`` — the *partial* frame
        that lifts one process's frameless relation into a cluster whose
        write set is ``among`` (cached per pair of sets)."""
        wkey = tuple(sorted(written_vars))
        akey = tuple(sorted(among_vars))
        key = ("frame_within", wkey, akey)
        cached = self._eq_frame_cache.get(key)
        if cached is None:
            cached = self.bdd.and_all(
                self.unchanged(v) for v in akey if v not in wkey
            )
            self._eq_frame_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # garbage-collection roots
    # ------------------------------------------------------------------
    def gc_roots(self) -> Iterator[int]:
        """Every node id this object caches — pass to ``collect_garbage``."""
        yield self.domain_cur
        yield self.domain_next
        yield from self.mdd.gc_roots()
        yield from self._eq_frame_cache.values()


class SymbolicProtocol:
    """Symbolic view of a protocol: per-group, per-process and clustered
    relations.

    Consecutive processes are merged :data:`CLUSTER_SIZE` at a time into
    one frameless partition each (partial frames re-introduce ``v' = v``
    only for the *other* cluster members' write variables); the last
    cluster holds the remainder when ``CLUSTER_SIZE`` does not divide the
    process count.
    """

    def __init__(self, protocol: Protocol, sym: SymbolicSpace | None = None):
        self.protocol = protocol
        self.sym = sym if sym is not None else SymbolicSpace(protocol.space)
        k = protocol.n_processes
        #: consecutive process runs merged into one partition each
        self.clusters: tuple[tuple[int, ...], ...] = tuple(
            tuple(range(lo, min(lo + CLUSTER_SIZE, k)))
            for lo in range(0, k, CLUSTER_SIZE)
        )
        self._cluster_of = [
            ci for ci, procs in enumerate(self.clusters) for _ in procs
        ]
        self._cluster_writes = [
            sorted({v for j in procs for v in protocol.tables[j].write_vars})
            for procs in self.clusters
        ]
        self._group_cache: dict[GroupId, int] = {}
        self._partition_cache: dict[GroupId, Partition] = {}
        self._frames = [
            self.sym.frame(protocol.topology[j].writes)
            for j in range(protocol.n_processes)
        ]
        self._rcubes: list[dict[int, int]] = [
            {} for _ in range(protocol.n_processes)
        ]

    def rcube(self, j: int, rcode: int) -> int:
        """Cube of the readable valuation ``rcode`` of process ``j`` (cur bits)."""
        cached = self._rcubes[j].get(rcode)
        if cached is None:
            table = self.protocol.tables[j]
            values = table.values_of_rcode(rcode)
            cached = self.sym.bdd.and_all(
                self.sym.value_cube(v, val)
                for v, val in zip(table.read_vars, values)
            )
            self._rcubes[j][rcode] = cached
        return cached

    def _wcube(self, gid: GroupId) -> int:
        """Next-bit cube of the written valuation of one group."""
        j, _rcode, wcode = gid
        table = self.protocol.tables[j]
        wvals = table.values_of_wcode(wcode)
        return self.sym.bdd.and_all(
            self.sym.value_cube(v, val, primed=True)
            for v, val in zip(table.write_vars, wvals)
        )

    def group_relation(self, gid: GroupId) -> int:
        """Full-frame transition-relation BDD of one group."""
        cached = self._group_cache.get(gid)
        if cached is None:
            j, rcode, _wcode = gid
            cached = self.sym.bdd.and_all(
                [self.rcube(j, rcode), self._wcube(gid), self._frames[j]]
            )
            self._group_cache[gid] = cached
        return cached

    def group_partition(self, gid: GroupId) -> Partition:
        """Frameless :class:`Partition` of one group (no frame conjunct)."""
        cached = self._partition_cache.get(gid)
        if cached is None:
            j, rcode, _wcode = gid
            rel = self.sym.bdd.and_(self.rcube(j, rcode), self._wcube(gid))
            cached = make_partition(
                self.sym, j, rel, self.protocol.tables[j].write_vars
            )
            self._partition_cache[gid] = cached
        return cached

    def relation_of(self, group_ids: Iterable[GroupId]) -> int:
        """Union (full-frame) relation of a collection of groups."""
        return self.sym.bdd.or_all(self.group_relation(g) for g in group_ids)

    def partition_of(self, j: int, group_ids: Iterable[GroupId]) -> Partition:
        """Union frameless partition of groups of one process ``j``."""
        rel = self.sym.bdd.or_all(
            self.group_partition(g).rel for g in group_ids
        )
        return make_partition(
            self.sym, j, rel, self.protocol.tables[j].write_vars
        )

    def process_relations(
        self, groups: Sequence[Iterable[tuple[int, int]]]
    ) -> list[int]:
        """One full-frame union relation per process."""
        return [
            self.relation_of((j, r, w) for (r, w) in gs)
            for j, gs in enumerate(groups)
        ]

    def cluster_index(self, j: int) -> int:
        """Index into :meth:`clustered_partitions` of process ``j``'s
        cluster."""
        return self._cluster_of[j]

    def cluster_lift(self, j: int, ci: int) -> int:
        """Partial frame lifting process ``j``'s frameless relation into
        cluster ``ci`` (``v' = v`` for the other members' write vars)."""
        return self.sym.frame_within(
            self.protocol.tables[j].write_vars, self._cluster_writes[ci]
        )

    def clustered_partitions(
        self, groups: Sequence[Iterable[tuple[int, int]]]
    ) -> list[Partition]:
        """The transition relation of ``groups``: one frameless
        :class:`Partition` per *cluster* of :data:`CLUSTER_SIZE`
        consecutive processes.

        Each member process's frameless relation is conjoined with the
        partial frame over the cluster's other write variables, so every
        disjunct constrains the same next-bit set and the frameless union
        stays well-formed (see :mod:`repro.symbolic.partition`).
        """
        out = []
        for ci, procs in enumerate(self.clusters):
            rel = self.sym.bdd.or_all(
                self.sym.bdd.and_(
                    self.partition_of(
                        j, ((j, r, w) for (r, w) in groups[j])
                    ).rel,
                    self.cluster_lift(j, ci),
                )
                for j in procs
            )
            process = procs[0] if len(procs) == 1 else -1
            out.append(
                make_partition(self.sym, process, rel, self._cluster_writes[ci])
            )
        return out

    # ------------------------------------------------------------------
    # garbage-collection roots
    # ------------------------------------------------------------------
    def gc_roots(self) -> Iterator[int]:
        """Every node id this object caches (including the underlying
        :class:`SymbolicSpace`'s) — pass to ``collect_garbage``."""
        yield from self.sym.gc_roots()
        yield from self._group_cache.values()
        for part in self._partition_cache.values():
            yield part.rel
        yield from self._frames
        for rc in self._rcubes:
            yield from rc.values()
