"""Disjunctively partitioned transition relations with implicit frames.

The monolithic transition relation ``T = ∨_j T_j`` conjoins every
per-process relation with a *frame* (``v' = v`` for every unwritten
variable) so that a single ``and_exists`` over all next-state bits computes
an image.  That frame is exactly what makes the relation BDD large: each
``T_j`` mentions every bit of the state, and every image quantifies every
current (or next) bit.

A :class:`Partition` drops the frame.  Its ``rel`` constrains only the
bits process ``j`` actually *reads* (current copy) and *writes* (next
copy); unwritten variables are handled implicitly by never renaming or
quantifying their bits:

``post_j(S) = (∃ w_cur . S ∧ rel)[w' / w]``
    Quantify only the written variables' current bits; the unwritten bits
    of ``S`` survive untouched — they are their own frame.  Rename only
    the written next bits back to current bits.

``pre_j(S) = ∃ w' . rel ∧ S[w' / w]``
    Rename only the written bits of ``S`` to their next copies, conjoin,
    quantify only those next bits.

Because disjunction distributes over ∃, the image of a union relation is
the union of per-partition images — and each per-partition ``and_exists``
quantifies *only the partition's own support*.  This is the maximal "early
quantification" schedule for a disjunctive partitioning: no variable is
ever carried into a conjunction that does not mention it (the conjunctive
analogue is the IWLS-95 quantification-scheduling problem; disjunctive
partitions solve it for free).

The subset renames stay order-preserving because the encoding interleaves
current/next bits and :meth:`repro.bdd.BDD.set_reorder_blocks` sifts those
pairs as units.

:meth:`repro.symbolic.encode.SymbolicProtocol.clustered_partitions`
builds the engine's relation: one partition per cluster of consecutive
processes, each member lifted by the partial frame over the cluster's
other write variables (per-process partitions come from
:meth:`~repro.symbolic.encode.SymbolicProtocol.partition_of`, per-group
ones from :meth:`~repro.symbolic.encode.SymbolicProtocol.group_partition`).
The functions in :mod:`repro.symbolic.image` accept partitions and plain
(full-frame) relation BDDs interchangeably, so the certificate code and
the tests' references can use full-frame relations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Partition:
    """One disjunct of a partitioned transition relation (frameless).

    ``rel`` is a BDD over the *read* variables' current bits and the
    *written* variables' next bits of a single process (or cluster); the
    frame of every unwritten variable is implicit.
    """

    #: frameless relation BDD: read bits (current) ∧ written bits (next)
    rel: int
    #: process index this partition belongs to (-1 for merged clusters)
    process: int
    #: current-copy bit variables of the written variables (quantified in post)
    write_cur: tuple[int, ...]
    #: next-copy bit variables of the written variables (quantified in pre)
    write_next: tuple[int, ...]
    #: order-preserving subset rename ``{cur bit: next bit}`` of the write set
    cur_to_next: tuple[tuple[int, int], ...]
    #: inverse rename ``{next bit: cur bit}``
    next_to_cur: tuple[tuple[int, int], ...]

    def merged(self, rel: int) -> "Partition":
        """This partition with ``rel`` as its relation (same write set) —
        used for incremental union updates when a group is committed."""
        return replace(self, rel=rel)


def make_partition(sym, process: int, rel: int, write_vars) -> Partition:
    """Wrap a frameless relation of ``process`` into a :class:`Partition`.

    ``sym`` is the :class:`repro.symbolic.encode.SymbolicSpace`; the write
    bit sets and subset renames are derived from ``write_vars`` (protocol
    variable indices) via the space's interleaved bit layout.
    """
    wcur = tuple(b for v in write_vars for b in sym.cur_levels[v])
    wnext = tuple(b for v in write_vars for b in sym.next_levels[v])
    return Partition(
        rel=rel,
        process=process,
        write_cur=wcur,
        write_next=wnext,
        cur_to_next=tuple(zip(wcur, wnext)),
        next_to_cur=tuple(zip(wnext, wcur)),
    )
