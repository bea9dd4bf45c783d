"""Internal consistency guards raise the typed :class:`SoundnessError`."""

import numpy as np
import pytest

import repro.verify.stabilization as stabilization
from repro import SoundnessError, SynthesisError, synthesize
from repro.parallel import synthesize_parallel
from repro.protocols import token_ring
from repro.verify import extract_cycle
from repro.verify.stabilization import SolutionCheck


REJECTED = SolutionCheck(
    invariant_closed=True,
    behavior_inside_i_unchanged=True,
    converges=False,
    mode="strong",
)


def test_rejected_winner_raises_soundness_error(monkeypatch):
    protocol, invariant = token_ring(3, 3)
    monkeypatch.setattr(
        stabilization, "check_solution", lambda *args, **kwargs: REJECTED
    )
    with pytest.raises(SoundnessError) as info:
        synthesize(protocol, invariant)
    assert info.value.check is REJECTED
    assert isinstance(info.value, SynthesisError)
    assert "verification failed" in str(info.value)


def test_rejected_parallel_winner_raises_soundness_error(monkeypatch):
    """A worker whose winner the model checker rejects aborts the race with
    the same error, instead of reporting a failed attempt."""
    monkeypatch.setattr(
        stabilization, "check_solution", lambda *args, **kwargs: REJECTED
    )
    with pytest.raises(SoundnessError) as info:
        synthesize_parallel(token_ring, (3, 3), n_workers=1)
    assert info.value.check == REJECTED
    assert "verification failed" in str(info.value)


def test_scc_member_without_intra_scc_successor(monkeypatch):
    protocol, invariant = token_ring(3, 3)
    # a one-state "SCC": without self-loops it can have no intra-SCC successor
    state = int(np.flatnonzero(~invariant.mask)[0])
    with pytest.raises(SoundnessError) as info:
        extract_cycle(protocol, np.array([state]), invariant)
    assert info.value.state == state
    assert protocol.space.format_state(state) in str(info.value)


def test_rejected_remote_winner_keeps_its_solution_check(monkeypatch):
    """The error frame carries the exception's keyword fields: a winner
    rejected on a remote worker re-raises with its SolutionCheck, exactly
    as it does on a local slot."""
    import threading

    from repro.parallel import WorkerServer

    monkeypatch.setattr(
        stabilization, "check_solution", lambda *args, **kwargs: REJECTED
    )
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
    assert info.value.check == REJECTED
    assert "verification failed" in str(info.value)
