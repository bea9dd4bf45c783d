"""Weak winners are checked by their certificate.

``check_certificate``'s weak mode ORs each group's rank-decreasing
transitions into their source rows with ``checker._or_rows`` (one sort and
one ``reduceat``).  :func:`scatter_or_rows` is the unbuffered
``np.bitwise_or.at`` scatter it replaced; with either one in place the
checker must return the same :class:`CertificateCheck`, or raise the same
violation kind at the same state, on genuine and on tampered weak
certificates.  ``synthesize_weak`` itself must keep the certificate it
checked and raise :class:`SoundnessError` when the checker rejects it.
"""

import numpy as np
import pytest

import repro.cert.checker as checker
import repro.cert.emit as emit
from repro import SoundnessError
from repro.cert import CertificateViolation, check_certificate, emit_certificate
from repro.core.weak import synthesize_weak
from repro.fuzz import GeneratorConfig, generate_instance
from repro.protocols import coloring, matching, token_ring, two_ring

FUZZ = GeneratorConfig(max_processes=4, max_states=512)


def scatter_or_rows(index, values, shape):
    """Reference for ``checker._or_rows``: the unbuffered scatter."""
    out = np.zeros(shape, dtype=np.uint8)
    np.bitwise_or.at(out, index, values)
    return out


def _fuzz(seed):
    inst = generate_instance(seed, FUZZ)
    return inst.protocol, inst.invariant


#: the four paper-explicit cases, and fuzz seeds whose weak ranks reach 2
CASES = {
    "coloring-13": lambda: coloring(13),
    "matching-11": lambda: matching(11),
    "two-ring": two_ring,
    "token-ring-6-5": lambda: token_ring(6, 5),
    **{
        f"fuzz-{seed}": (lambda seed=seed: _fuzz(seed))
        for seed in (9, 10, 11, 13)
    },
}


def _rank_two_state(rank) -> int:
    return int(np.flatnonzero(rank == 2)[0])


def _outcome(protocol, invariant, cert, pss_groups, or_rows, monkeypatch):
    monkeypatch.setattr(checker, "_or_rows", or_rows)
    try:
        return check_certificate(
            protocol, invariant, cert, expected_pss=pss_groups
        )
    except CertificateViolation as violation:
        return violation.kind, violation.state, violation.transition


def test_or_rows_matches_scatter():
    rng = np.random.default_rng(0)
    for n_rows, width, n_groups in ((1, 1, 1), (7, 5, 30), (64, 9, 200)):
        index = rng.integers(0, n_rows, size=n_groups)
        values = rng.random((n_groups, width)) < 0.2
        assert np.array_equal(
            checker._or_rows(index, values, (n_rows, width)),
            scatter_or_rows(index, values, (n_rows, width)),
        )


@pytest.mark.parametrize("case", CASES)
def test_weak_check_matches_scatter_reference(case, monkeypatch):
    protocol, invariant = CASES[case]()
    result = synthesize_weak(protocol, invariant, minimize=True)
    # lower one rank-2 state to rank 1: it keeps no decreasing successor
    rank = result.ranking.rank.copy()
    state = _rank_two_state(rank)
    rank[state] = 1
    tampered = emit_certificate(
        protocol, invariant, result.protocol, mode="weak", rank=rank
    )
    outcomes = [
        tuple(
            _outcome(
                protocol, invariant, cert, result.protocol.groups, or_rows,
                monkeypatch,
            )
            for or_rows in (checker._or_rows, scatter_or_rows)
        )
        for cert in (result.checked_certificate, tampered)
    ]
    (genuine, genuine_ref), (bad, bad_ref) = outcomes
    assert genuine == genuine_ref and bad == bad_ref
    assert genuine.mode == "weak"
    assert genuine.n_ranked == int((result.ranking.rank > 0).sum())
    assert bad == ("well_foundedness", state, None)


def test_weak_result_keeps_its_checked_certificate(monkeypatch):
    """``synthesize_weak`` emits once; ``certificate()`` returns the
    certificate its check kept."""
    calls = []
    real = emit.emit_certificate

    def counted(*args, **kwargs):
        calls.append(kwargs["mode"])
        return real(*args, **kwargs)

    monkeypatch.setattr(emit, "emit_certificate", counted)
    protocol, invariant = token_ring(4, 3)
    result = synthesize_weak(protocol, invariant, minimize=True)
    assert calls == ["weak"]
    assert result.checked_certificate is not None
    assert result.certificate() is result.checked_certificate
    assert calls == ["weak"]


@pytest.mark.parametrize("minimize", [False, True])
def test_rejected_weak_certificate_raises_soundness_error(
    monkeypatch, minimize
):
    """A weak certificate the checker rejects is a bug, not an answer."""
    protocol, invariant = token_ring(4, 3)
    lowered = []
    real = emit.emit_certificate

    def lowered_rank(*args, rank, **kwargs):
        rank = rank.copy()
        lowered.append(_rank_two_state(rank))
        rank[lowered[-1]] = 1
        return real(*args, rank=rank, **kwargs)

    monkeypatch.setattr(emit, "emit_certificate", lowered_rank)
    with pytest.raises(SoundnessError) as info:
        synthesize_weak(protocol, invariant, minimize=minimize)
    violation = info.value.violation
    assert isinstance(violation, CertificateViolation)
    assert violation.kind == "well_foundedness"
    assert violation.state == lowered[0]
    assert "rejected" in str(info.value)
