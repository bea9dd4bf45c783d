"""Symbolic ``Add_Recovery``: the relational-product candidate search
against the per-``(rcode, wcode)`` reference in ``reference_symbolic.py``,
and the ranking's survival across pass-boundary garbage collection."""

import pytest

from repro.core import HeuristicOptions
from repro.fuzz import GeneratorConfig, generate_instance
from repro.protocols import (
    coloring,
    gouda_acharya_matching,
    matching,
    token_ring,
)
from repro.symbolic import SymbolicProtocol, add_strong_convergence_symbolic
from repro.symbolic import engine
from repro.symbolic.ranking import compute_ranks_symbolic

from reference_symbolic import recovery_candidates_per_group

FUZZ = GeneratorConfig(max_processes=4, max_states=512)


def _fuzz(seed):
    inst = generate_instance(seed, FUZZ)
    return inst.protocol, inst.invariant


CASES = {
    **{f"coloring-{k}": (lambda k=k: coloring(k)) for k in range(5, 10)},
    **{f"matching-{k}": (lambda k=k: matching(k)) for k in range(4, 8)},
    **{
        f"token-ring-{k}-{d}": (lambda k=k, d=d: token_ring(k, d))
        for k, d in ((3, 3), (4, 3), (4, 4), (5, 4))
    },
    "gouda-acharya-5": lambda: gouda_acharya_matching(5),
    # fuzz seeds whose instances reach Add_Recovery
    **{
        f"fuzz-{seed}": (lambda seed=seed: _fuzz(seed))
        for seed in (4, 10, 11, 13)
    },
}

#: the default three passes (pass 1 rules out deadlock targets, C4), and
#: pass 3 alone (every state is a target, no C4); the reference loop is
#: too slow for pass 3 alone on coloring K >= 8
ALL_PASSES = HeuristicOptions()
PASS3_ONLY = HeuristicOptions(enable_pass1=False, enable_pass2=False)
RUNS = [
    pytest.param(build, ALL_PASSES, id=f"{name}-all-passes")
    for name, build in CASES.items()
] + [
    pytest.param(build, PASS3_ONLY, id=f"{name}-pass3-only")
    for name, build in CASES.items()
    if name not in ("coloring-8", "coloring-9")
]


@pytest.mark.parametrize("case, passes", RUNS)
def test_candidates_match_per_group_reference(case, passes, monkeypatch):
    production = engine.recovery_candidates
    calls = {True: 0, False: 0}

    def checked(state, from_set, to_set, process, **kwargs):
        expected = recovery_candidates_per_group(
            state, from_set, to_set, process, **kwargs
        )
        got = production(state, from_set, to_set, process, **kwargs)
        assert got == expected, (process, kwargs["rule_out_deadlock_targets"])
        calls[kwargs["rule_out_deadlock_targets"]] += 1
        return got

    monkeypatch.setattr(engine, "recovery_candidates", checked)
    protocol, invariant = case()
    sp = SymbolicProtocol(protocol)
    add_strong_convergence_symbolic(
        protocol, sp.sym.from_predicate(invariant), sp=sp, options=passes
    )
    # C4 is on in pass 1 only
    if passes.enable_pass1:
        assert calls[True] > 0
    else:
        assert calls[True] == 0 and calls[False] > 0


def test_ranks_survive_pass_boundary_gc():
    """The passes read ``ranking.ranks`` after every ``collect_garbage``;
    the ranks must be GC roots of their own, not through some cache."""
    protocol, invariant = matching(5)
    sp = SymbolicProtocol(protocol)
    result = add_strong_convergence_symbolic(
        protocol, sp.sym.from_predicate(invariant), sp=sp
    )
    assert result.pass_completed >= 2
    assert result.stats.counters["gc_passes"] >= 2
    fresh_sp = SymbolicProtocol(protocol)
    fresh = compute_ranks_symbolic(
        fresh_sp, fresh_sp.sym.from_predicate(invariant)
    )
    assert result.ranking.rank_sizes() == fresh.rank_sizes()
