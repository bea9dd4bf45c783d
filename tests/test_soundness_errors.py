"""Internal consistency guards raise the typed :class:`SoundnessError`.

A winner is checked by its strong certificate: emission computes the
longest-path rank, ``check_certificate`` re-checks it.  The rejected-winner
tests below corrupt the emitted rank so the checker must refuse it.
"""

import threading

import numpy as np
import pytest

import repro.cert.emit as emit
import repro.cert.trust as trust
import repro.verify.stabilization as stabilization
from repro import SoundnessError, SynthesisError, synthesize
from repro.cert import CertificateViolation
from repro.explicit.graph import TransitionView
from repro.parallel import WorkerServer, synthesize_parallel
from repro.protocols import token_ring
from repro.verify import extract_cycle


def _raise_one_rank(monkeypatch):
    """Make emission raise the rank of one state outside I to that of one
    of its ranked predecessors, so that transition no longer decreases."""
    real = emit.longest_path_ranks

    def raised(pss, invariant):
        rank = real(pss, invariant).copy()
        src, dst = TransitionView.of_protocol(pss).edge_arrays()
        edge = int(np.flatnonzero((rank[src] > 0) & (rank[dst] > 0))[0])
        rank[dst[edge]] = rank[src[edge]]
        return rank

    monkeypatch.setattr(emit, "longest_path_ranks", raised)


def _assert_rejected(error: SoundnessError):
    assert isinstance(error, SynthesisError)
    assert isinstance(error.violation, CertificateViolation)
    assert error.violation.kind == "well_foundedness"
    assert isinstance(error.violation.transition, tuple)
    assert "certificate was rejected" in str(error)


def test_rejected_winner_raises_soundness_error(monkeypatch):
    _raise_one_rank(monkeypatch)
    protocol, invariant = token_ring(3, 3)
    with pytest.raises(SoundnessError) as info:
        synthesize(protocol, invariant)
    _assert_rejected(info.value)


def test_rejected_parallel_winner_raises_soundness_error(monkeypatch):
    """A local slot whose winner the certificate checker rejects aborts the
    race with the same error, instead of reporting a failed attempt."""
    _raise_one_rank(monkeypatch)
    with pytest.raises(SoundnessError) as info:
        synthesize_parallel(token_ring, (3, 3), n_workers=1)
    _assert_rejected(info.value)


def test_rejected_remote_winner_keeps_its_violation(monkeypatch):
    """The error frame carries the exception's keyword fields: a winner
    rejected on a remote worker re-raises with its CertificateViolation,
    exactly as it does on a local slot."""
    _raise_one_rank(monkeypatch)
    server = WorkerServer("127.0.0.1", 0)
    host, port = server.start()
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        with pytest.raises(SoundnessError) as info:
            synthesize_parallel(
                token_ring, (3, 3), worker_endpoints=[f"{host}:{port}"],
                lease_timeout=8.0,
            )
    finally:
        server.shutdown()
    _assert_rejected(info.value)


def test_winner_without_strong_ranking_raises_soundness_error(monkeypatch):
    def no_ranking(pss, invariant):
        raise emit.CertificateEmissionError("pss deadlocks outside I at <x>")

    monkeypatch.setattr(emit, "longest_path_ranks", no_ranking)
    protocol, invariant = token_ring(3, 3)
    with pytest.raises(SoundnessError, match="deadlocks outside I") as info:
        synthesize(protocol, invariant)
    assert info.value.violation is None


def test_winner_keeps_its_certificate(monkeypatch):
    """``result.certificate()`` returns the certificate the winner check
    emitted, without a second emission, and a portfolio worker ships the
    same certificate for the same config."""
    calls = []
    real = emit.longest_path_ranks

    def counted(pss, invariant):
        calls.append(pss.name)
        return real(pss, invariant)

    monkeypatch.setattr(emit, "longest_path_ranks", counted)
    protocol, invariant = token_ring(3, 3)
    portfolio = synthesize(protocol, invariant)
    result = portfolio.result
    assert result.verified and len(calls) == 1
    cert = result.certificate()
    assert cert is result.checked_certificate
    assert len(calls) == 1

    winner, _ = synthesize_parallel(
        token_ring, (3, 3), configs=[portfolio.config], n_workers=1
    )
    assert winner.success
    assert winner.certificate == cert.to_payload()


def test_winning_run_calls_no_check_solution(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("check_solution ran on a winner")

    monkeypatch.setattr(stabilization, "check_solution", forbidden)
    monkeypatch.setattr(trust, "check_solution", forbidden)
    protocol, invariant = token_ring(3, 3)
    assert synthesize(protocol, invariant).result.verified
    winner, _ = synthesize_parallel(token_ring, (3, 3), n_workers=1)
    assert winner.success and winner.certificate is not None


def test_scc_member_without_intra_scc_successor(monkeypatch):
    protocol, invariant = token_ring(3, 3)
    # a one-state "SCC": without self-loops it can have no intra-SCC successor
    state = int(np.flatnonzero(~invariant.mask)[0])
    with pytest.raises(SoundnessError) as info:
        extract_cycle(protocol, np.array([state]), invariant)
    assert info.value.state == state
    assert protocol.space.format_state(state) in str(info.value)
