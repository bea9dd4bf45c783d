"""Reference symbolic computations for differential tests of ``repro.symbolic``.

* :func:`recovery_candidates_per_group` — the candidate groups of one
  symbolic ``Add_Recovery`` call, found by walking every ``(rcode, wcode)``
  pair of the process with full-space ``and_``/``exists`` tests; the
  reference for :func:`repro.symbolic.engine.recovery_candidates`, which
  builds the same set as one relational product.
"""

from __future__ import annotations

from repro.bdd import ZERO


def recovery_candidates_per_group(
    state,
    from_set: int,
    to_set: int,
    process: int,
    *,
    rule_out_deadlock_targets: bool,
    deadlocks: int | None = None,
) -> list[tuple[int, int, int]]:
    """Candidate groups of ``process``, in ``(rcode, wcode)`` order."""
    sym = state.sp.sym
    bdd = sym.bdd
    table = state.sp.protocol.tables[process]
    read_bits = [b for v in table.read_vars for b in sym.cur_levels[v]]
    if rule_out_deadlock_targets and deadlocks is None:
        deadlocks = state.deadlocks()
    pss_j = state.pss_groups[process]

    candidates = []
    for rcode in range(table.n_rvals):
        if state.rcode_touches_i(process, rcode):
            continue  # C1
        src = bdd.and_(state.sp.rcube(process, rcode), from_set)
        if src == ZERO:
            continue
        src_u = bdd.exists(read_bits, src)  # as a function of unreadables
        self_w = int(table.self_wcode[rcode])
        for wcode in range(table.n_wvals):
            if wcode == self_w or (rcode, wcode) in pss_j:
                continue
            rcube2 = state.rcube_after_write(process, rcode, wcode)
            if rule_out_deadlock_targets and bdd.and_(rcube2, deadlocks) != ZERO:
                continue  # C4
            dst_u = bdd.exists(read_bits, bdd.and_(rcube2, to_set))
            if bdd.and_(src_u, dst_u) == ZERO:
                continue
            candidates.append((process, rcode, wcode))
    return candidates
