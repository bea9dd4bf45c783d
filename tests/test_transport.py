"""Distributed portfolio runtime tests (transport, leases, shared store).

The transport layer is exercised for real: in-process
:class:`~repro.parallel.transport.WorkerServer` threads (and, for the
worker-kill drill, a genuine ``stsyn worker`` subprocess) serve actual
synthesis jobs over TCP while the coordinator races them — no mocked
sockets.  Network failure modes are injected deterministically through the
:class:`~repro.faults.FaultPlan` network knobs (frame drops, partitions,
stale leases, duplicated results) rather than waiting for a flaky switch
to produce them.
"""

import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time

import pytest

from repro.core.exceptions import SynthesisError, TransportError
from repro.core.heuristic import HeuristicOptions
from repro.core.synthesizer import SynthesisConfig
from repro.faults.runtime import FaultPlan, heal_partition
from repro.parallel import (
    StoreClaim,
    SynthesisCache,
    WorkerServer,
    atomic_write_json,
    config_key,
    protocol_fingerprint,
    sweep_partials,
    synthesize_parallel,
)
from repro.parallel import pool
from repro.parallel.pool import ParallelOutcome
from repro.parallel.transport import (
    FrameBuffer,
    builder_ref,
    config_from_payload,
    config_to_payload,
    encode_frame,
    outcome_from_payload,
    outcome_to_payload,
    parse_endpoint,
    resolve_builder,
)
from repro.protocols import token_ring
from repro.trace.report import iter_events, summarize
from repro.verify import check_solution

CFG_A = SynthesisConfig((1, 2, 3, 0), HeuristicOptions())
CFG_B = SynthesisConfig((0, 1, 2, 3), HeuristicOptions())
#: pass-1-only never stabilizes the 4-process token ring: a reliable loser
CFG_FAIL = SynthesisConfig(
    (1, 2, 3, 0), HeuristicOptions(enable_pass2=False, enable_pass3=False)
)


@pytest.fixture(autouse=True)
def _healed_network():
    """In-process worker servers share this module's partition state; a
    drill's partition must not black-hole the next test's frames."""
    heal_partition()
    yield
    heal_partition()


def _counters(trace_dir):
    return summarize([os.path.join(trace_dir, "portfolio.jsonl")]).counters


def _serve(n=1, max_jobs=None):
    """Start n in-process worker servers; returns (servers, endpoints)."""
    servers, endpoints = [], []
    for _ in range(n):
        server = WorkerServer("127.0.0.1", 0, max_jobs=max_jobs)
        host, port = server.start()
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        endpoints.append(f"{host}:{port}")
    return servers, endpoints


def _slow_in_worker_token_ring(k, d):
    """``token_ring``, 2 s slower in a worker process: a stand-in for a
    protocol whose spawn-mode precompute rebuild outlasts a lease."""
    if multiprocessing.parent_process() is not None:
        time.sleep(2.0)
    return token_ring(k, d)


def _verifies(winner):
    protocol, invariant = token_ring(4, 3)
    rebuilt = protocol.with_groups(winner.pss_groups)
    return check_solution(protocol, rebuilt, invariant).ok


# ----------------------------------------------------------------------
# frame protocol + codecs
# ----------------------------------------------------------------------


class TestFrameProtocol:
    def test_round_trip_through_buffer(self):
        frames = [{"t": "hello", "n": 1}, {"t": "result", "data": [1, 2, 3]}]
        raw = b"".join(encode_frame(f) for f in frames)
        buf = FrameBuffer()
        assert buf.feed(raw) == frames

    def test_partial_feeds_reassemble(self):
        raw = encode_frame({"t": "job", "payload": "x" * 1000})
        buf = FrameBuffer()
        out = []
        for i in range(0, len(raw), 7):  # torn into tiny TCP segments
            out.extend(buf.feed(raw[i : i + 7]))
        assert out == [{"t": "job", "payload": "x" * 1000}]

    def test_oversized_length_prefix_rejected(self):
        buf = FrameBuffer()
        with pytest.raises(TransportError):
            buf.feed(b"\xff\xff\xff\xff")

    def test_malformed_json_rejected(self):
        body = b"not json at all"
        raw = len(body).to_bytes(4, "big") + body
        with pytest.raises(TransportError):
            FrameBuffer().feed(raw)

    def test_non_object_payload_rejected(self):
        body = json.dumps([1, 2, 3]).encode()
        raw = len(body).to_bytes(4, "big") + body
        with pytest.raises(TransportError):
            FrameBuffer().feed(raw)


class TestCodecs:
    def test_config_round_trip(self):
        payload = json.loads(json.dumps(config_to_payload(CFG_FAIL)))
        assert config_from_payload(payload) == CFG_FAIL

    def test_outcome_round_trip(self):
        outcome = ParallelOutcome(
            config=CFG_A,
            success=True,
            pss_groups=[{(0, 1), (2, 0)}, {(1, 2)}],
            remaining_deadlocks=0,
            timers={"total": 1.5},
            counters={"pass2_runs": 1},
            duration=0.25,
            retries=1,
            certificate={"schema": 1, "fingerprint": "abc"},
        )
        payload = json.loads(json.dumps(outcome_to_payload(outcome)))
        back = outcome_from_payload(CFG_A, payload)
        assert back.success and back.pss_groups == outcome.pss_groups
        assert back.timers == outcome.timers
        assert back.counters == outcome.counters
        assert back.certificate == outcome.certificate
        assert back.retries == 1 and back.duration == 0.25

    def test_builder_ref_round_trip(self):
        ref = builder_ref(token_ring, (4, 3))
        builder, args = resolve_builder(json.loads(json.dumps(ref)))
        assert builder is token_ring and args == (4, 3)

    def test_builder_ref_rejects_closures(self):
        with pytest.raises(TransportError):
            builder_ref(lambda: None, ())

    def test_builder_ref_rejects_non_json_args(self):
        with pytest.raises(TransportError):
            builder_ref(token_ring, (object(),))

    def test_resolve_builder_rejects_unknown(self):
        with pytest.raises(TransportError):
            resolve_builder({"ref": "repro.protocols:does_not_exist"})

    def test_parse_endpoint(self):
        assert parse_endpoint("host:1234") == ("host", 1234)
        assert parse_endpoint(":1234") == ("127.0.0.1", 1234)
        assert parse_endpoint("bare-host")[0] == "bare-host"
        with pytest.raises(TransportError):
            parse_endpoint("host:not-a-port")


class TestTypedExceptions:
    def test_hierarchy(self):
        assert issubclass(TransportError, SynthesisError)


# ----------------------------------------------------------------------
# the worker's connection loop
# ----------------------------------------------------------------------


def _read_frames(sock, buffer, until):
    """Read frames from ``sock`` until one of kind ``until`` arrives."""
    frames = []
    while not any(f.get("t") == until for f in frames):
        data = sock.recv(65536)
        assert data, f"connection closed before a {until!r} frame"
        frames.extend(buffer.feed(data))
    return frames


class TestConnectionLoop:
    def test_loop_wakes_for_frames_heartbeats_and_the_result_only(
        self, monkeypatch
    ):
        """While a job runs, the loop sleeps until its next heartbeat is
        due or the job ends: no periodic polling steals the job's CPU."""
        import select as select_module
        import socket
        from types import SimpleNamespace

        from repro.parallel import transport

        waits = []

        def counting_select(*args):
            waits.append(args[3])
            return select_module.select(*args)

        monkeypatch.setattr(
            transport, "select", SimpleNamespace(select=counting_select)
        )

        def run_job(frame, config, cancel):
            time.sleep(0.6)
            return ParallelOutcome(config, False, None, 3, {})

        ours, theirs = socket.socketpair()
        ours.settimeout(10.0)
        server = WorkerServer()
        loop = threading.Thread(
            target=server.serve_connection, args=(theirs, run_job), daemon=True
        )
        loop.start()
        try:
            buffer = FrameBuffer()
            _read_frames(ours, buffer, "hello")
            ours.sendall(encode_frame({
                "t": "job", "lease_id": "lease-1", "index": 0, "attempt": 0,
                "config": config_to_payload(CFG_A), "heartbeat_interval": 0.25,
            }))
            frames = _read_frames(ours, buffer, "result")
        finally:
            server.shutdown()
            loop.join(timeout=5.0)
            ours.close()
            theirs.close()
        assert not loop.is_alive()
        beats = [f for f in frames if f.get("t") == "heartbeat"]
        assert 1 <= len(beats) <= 3
        assert frames[-1]["outcome"]["remaining_deadlocks"] == 3
        # one wake for the job frame, one per heartbeat, one for the
        # job's end (and a few early returns of a rounded-down timeout);
        # a 50 ms poll would make about twelve
        assert len(waits) <= 8, waits
        assert waits[0] is None  # idle: wait for the job frame alone

    def test_idle_loop_returns_at_once_on_shutdown(self):
        import socket

        ours, theirs = socket.socketpair()
        ours.settimeout(10.0)
        server = WorkerServer()
        loop = threading.Thread(
            target=server.serve_connection, args=(theirs,), daemon=True
        )
        loop.start()
        try:
            _read_frames(ours, FrameBuffer(), "hello")
            start = time.monotonic()
            server.shutdown()
            loop.join(timeout=5.0)
            elapsed = time.monotonic() - start
        finally:
            ours.close()
            theirs.close()
        assert not loop.is_alive()
        assert elapsed < 1.0


# ----------------------------------------------------------------------
# shared-store primitives
# ----------------------------------------------------------------------


class TestStoreIO:
    def test_atomic_write_leaves_no_temp_litter(self, tmp_path):
        path = tmp_path / "entry.json"
        atomic_write_json(path, {"x": 1})
        assert json.loads(path.read_text()) == {"x": 1}
        assert os.listdir(tmp_path) == ["entry.json"]

    def test_sweep_quarantines_only_stale_partials(self, tmp_path):
        stale = tmp_path / "a.json.tmp.host.1.dead"
        young = tmp_path / "b.json.tmp.host.2.live"
        stale.write_text("{half a doc")
        young.write_text("{half a doc")
        old = time.time() - 3600
        os.utime(stale, (old, old))
        assert sweep_partials(tmp_path, max_age=60.0) == 1
        assert not stale.exists() and (tmp_path / (stale.name + ".corrupt")).exists()
        assert young.exists()  # may belong to a live writer on another host

    def test_claim_excludes_second_writer(self, tmp_path):
        claims = StoreClaim(tmp_path)
        other = StoreClaim(tmp_path)
        assert claims.acquire("key1")
        assert not other.acquire("key1")
        claims.release("key1")
        assert other.acquire("key1")

    def test_stale_claim_is_broken_not_honoured(self, tmp_path):
        dead = StoreClaim(tmp_path, ttl=60.0)
        assert dead.acquire("key1")
        claim_path = tmp_path / ("key1" + StoreClaim.SUFFIX)
        old = time.time() - 3600
        os.utime(claim_path, (old, old))
        survivor = StoreClaim(tmp_path, ttl=60.0)
        assert survivor.acquire("key1")  # breaks the dead writer's claim
        assert survivor.broken_stale == 1

    def test_sweep_stale_claims(self, tmp_path):
        claims = StoreClaim(tmp_path, ttl=60.0)
        claims.acquire("key1")
        claims.acquire("key2")
        old = time.time() - 3600
        for name in os.listdir(tmp_path):
            os.utime(tmp_path / name, (old, old))
        assert StoreClaim(tmp_path, ttl=60.0).sweep_stale() == 2
        assert not any(
            n.endswith(StoreClaim.SUFFIX) for n in os.listdir(tmp_path)
        )

    def test_cache_put_skips_conflicting_claim(self, tmp_path):
        """While another host holds the claim for a key, put() skips the
        redundant write instead of racing it."""
        cache = SynthesisCache(tmp_path)
        protocol, invariant = token_ring(4, 3)
        fp = protocol_fingerprint(protocol, invariant)
        outcome = ParallelOutcome(
            config=CFG_A, success=False, pss_groups=None,
            remaining_deadlocks=5, timers={},
        )
        other = StoreClaim(tmp_path)
        assert other.acquire(config_key(fp, CFG_A))
        assert cache.put(fp, outcome) is None
        assert cache.claim_conflicts == 1
        other.release_all()
        assert cache.put(fp, outcome) is not None


# ----------------------------------------------------------------------
# TCP races against live worker servers
# ----------------------------------------------------------------------


class TestTcpRace:
    def test_race_across_two_remote_workers(self, tmp_path):
        servers, endpoints = _serve(2)
        winner, completed = synthesize_parallel(
            token_ring, (4, 3),
            configs=[CFG_A, CFG_B],
            worker_endpoints=endpoints,
            trace_dir=tmp_path,
            lease_timeout=8.0,
        )
        assert winner.success and _verifies(winner)
        assert winner.certificate is not None
        counters = _counters(tmp_path)
        assert counters.get("transport.remote_dispatches", 0) == 2
        for s in servers:
            s.shutdown()

    def test_result_sent_just_before_worker_exit_is_not_lost(self, tmp_path):
        """A worker that closes its connection right after the result frame
        (--max-jobs exhaustion) must not turn the result into a crash."""
        _, endpoints = _serve(1, max_jobs=1)
        winner, completed = synthesize_parallel(
            token_ring, (4, 3),
            configs=[CFG_A],
            worker_endpoints=endpoints,
            trace_dir=tmp_path,
            lease_timeout=8.0,
        )
        assert winner.success and not any(o.crashed for o in completed)
        assert _counters(tmp_path).get("portfolio.worker_crashes", 0) == 0

    def test_embedded_worker_leaves_process_fault_plan_alone(self, tmp_path):
        """A worker server running inside another program installs each
        job's fault plan only while it serves that coordinator."""
        from repro.faults.runtime import active_fault_plan

        servers, endpoints = _serve(1)
        plan = FaultPlan(delay_frame="heartbeat@no-such-config")
        winner, _ = synthesize_parallel(
            token_ring, (4, 3),
            configs=[CFG_A],
            worker_endpoints=endpoints,
            fault_plan=plan,
            lease_timeout=8.0,
        )
        servers[0].shutdown()
        assert winner.success
        deadline = time.monotonic() + 5.0
        while active_fault_plan() is not None and time.monotonic() < deadline:
            time.sleep(0.02)  # the connection loop ends just after the race
        assert active_fault_plan() is None

    def test_unreachable_endpoint_degrades_to_local(self, tmp_path):
        # nothing listens on port 9: connect fails, a local slot substitutes
        winner, _ = synthesize_parallel(
            token_ring, (4, 3),
            configs=[CFG_A],
            worker_endpoints=["127.0.0.1:9"],
            trace_dir=tmp_path,
            lease_timeout=8.0,
        )
        assert winner.success and _verifies(winner)
        counters = _counters(tmp_path)
        assert counters.get("transport.degraded_to_local", 0) == 1
        assert counters.get("transport.remote_dispatches", 0) == 0

    def test_worker_killed_mid_job_degrades_and_completes(self, tmp_path):
        """A real `stsyn worker` process killed mid-job (dead host): the
        connection EOFs, reconnect fails, the config re-dispatches to a
        local fallback slot and the race still completes."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.join(os.path.dirname(__file__), "..", "src"),
                env.get("PYTHONPATH"),
            ) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker",
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            match = re.search(
                r"listening on ([\d.]+:\d+)", proc.stdout.readline()
            )
            assert match, "worker did not report its address"
            endpoint = match.group(1)
            # the remote attempt hangs (heartbeating, never finishing);
            # the kill below is what actually ends it
            plan = FaultPlan(
                hang_worker_at="worker.start@schedule=(1, 2, 3, 0)",
                max_fires=1,
            )
            killer = threading.Timer(1.5, proc.kill)
            killer.start()
            try:
                winner, _ = synthesize_parallel(
                    token_ring, (4, 3),
                    configs=[CFG_A],
                    worker_endpoints=[endpoint],
                    trace_dir=tmp_path,
                    fault_plan=plan,
                    lease_timeout=10.0,
                    max_retries=2,
                    retry_backoff=0.05,
                )
            finally:
                killer.cancel()
            assert winner.success and _verifies(winner)
            counters = _counters(tmp_path)
            assert counters.get("portfolio.worker_crashes", 0) >= 1
            assert counters.get("transport.degraded_to_local", 0) >= 1
            assert counters.get("portfolio.retries", 0) >= 1
        finally:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()


class TestNetworkFaultDrills:
    def test_partition_expires_lease_and_race_completes(self, tmp_path):
        """A partition black-holes heartbeats: the lease expires, the config
        re-dispatches to a local slot, and the race completes with a
        verified winner despite the silent remote."""
        servers, endpoints = _serve(1)
        # the hang keeps the remote job alive long enough to emit
        # heartbeats; the first heartbeat then trips the partition and
        # everything after it is black-holed
        plan = FaultPlan(
            hang_worker_at="worker.start@schedule=(1, 2, 3, 0)",
            hang_seconds=2.0,
            partition="heartbeat@schedule=(1, 2, 3, 0)",
            partition_seconds=8.0,
        )
        winner, _ = synthesize_parallel(
            token_ring, (4, 3),
            configs=[CFG_A],
            worker_endpoints=endpoints,
            trace_dir=tmp_path,
            fault_plan=plan,
            lease_timeout=1.0,
            max_retries=2,
            retry_backoff=0.05,
        )
        assert winner.success and _verifies(winner)
        counters = _counters(tmp_path)
        assert counters.get("transport.lease_expiries", 0) >= 1
        assert counters.get("transport.degraded_to_local", 0) >= 1
        servers[0].shutdown()

    def test_stale_lease_result_upgrades_after_cert_recheck(self, tmp_path):
        """The worker finishes but sits on the result past the lease (no
        heartbeats): the coordinator first settles the config as lost, then
        the late result arrives and is accepted — but only because its
        certificate independently re-checks."""
        servers, endpoints = _serve(1)
        plan = FaultPlan(
            stale_lease="schedule=(1, 2, 3, 0)", stale_lease_seconds=3.0
        )
        winner, completed = synthesize_parallel(
            token_ring, (4, 3),
            configs=[CFG_A],
            worker_endpoints=endpoints,
            trace_dir=tmp_path,
            fault_plan=plan,
            lease_timeout=2.0,
            max_retries=0,  # no re-dispatch: the late result is the only hope
        )
        assert winner.success and _verifies(winner)
        counters = _counters(tmp_path)
        assert counters.get("transport.lease_expiries", 0) == 1
        assert counters.get("transport.duplicate_results", 0) == 1
        assert counters.get("transport.duplicates_accepted", 0) == 1
        assert counters.get("cert.check_pass", 0) >= 1
        # the upgraded winner replaced the crashed-out settle
        assert not any(o.crashed for o in completed)
        servers[0].shutdown()

    def test_stale_lease_result_without_certificate_discarded(
        self, tmp_path, monkeypatch
    ):
        """The same late result with its certificate stripped claims a
        success nothing can re-check: it is refused and discarded, and
        the config stays crashed out."""
        real_decode = pool._Supervisor._decode

        def without_certificate(self, message, job):
            outcome = real_decode(self, message, job)
            outcome.certificate = None
            return outcome

        monkeypatch.setattr(pool._Supervisor, "_decode", without_certificate)
        servers, endpoints = _serve(1)
        plan = FaultPlan(
            stale_lease="schedule=(1, 2, 3, 0)", stale_lease_seconds=3.0
        )
        winner, completed = synthesize_parallel(
            token_ring, (4, 3),
            configs=[CFG_A],
            worker_endpoints=endpoints,
            trace_dir=tmp_path,
            fault_plan=plan,
            lease_timeout=2.0,
            max_retries=0,
        )
        assert not winner.success and winner.crashed
        counters = _counters(tmp_path)
        assert counters.get("transport.duplicate_results", 0) == 1
        assert counters.get("transport.duplicates_accepted", 0) == 0
        assert counters.get("cert.check_pass", 0) == 0
        errors = [
            record["attrs"]["error"]
            for record in iter_events(os.path.join(tmp_path, "portfolio.jsonl"))
            if record.get("name") == "cert.check_failed"
        ]
        assert errors == ["no certificate recorded"]
        servers[0].shutdown()

    def test_duplicate_result_frame_counted_and_discarded(self, tmp_path):
        """A retransmitted result frame (lost ACK) is deduplicated: counted,
        never recorded twice."""
        servers, endpoints = _serve(1)
        plan = FaultPlan(duplicate_result="schedule=(1, 2, 3, 0)")
        winner, completed = synthesize_parallel(
            token_ring, (4, 3),
            configs=[CFG_FAIL, CFG_B],
            worker_endpoints=endpoints,
            trace_dir=tmp_path,
            fault_plan=plan,
            lease_timeout=8.0,
        )
        assert winner.success and winner.config == CFG_B
        counters = _counters(tmp_path)
        assert counters.get("transport.duplicate_results", 0) >= 1
        assert counters.get("transport.duplicates_accepted", 0) == 0
        # the failing config settled exactly once despite the retransmit
        assert sum(1 for o in completed if o.config == CFG_FAIL) == 1
        servers[0].shutdown()

    def test_dropped_result_frame_recovered_by_lease(self, tmp_path):
        """A result frame lost in flight is indistinguishable from a hung
        worker: the lease expires and the re-dispatched attempt wins."""
        servers, endpoints = _serve(1)
        plan = FaultPlan(drop_frame="result@schedule=(1, 2, 3, 0)")
        winner, _ = synthesize_parallel(
            token_ring, (4, 3),
            configs=[CFG_A],
            worker_endpoints=endpoints,
            trace_dir=tmp_path,
            fault_plan=plan,
            lease_timeout=1.0,
            max_retries=2,
            retry_backoff=0.05,
        )
        assert winner.success and _verifies(winner)
        counters = _counters(tmp_path)
        assert counters.get("transport.lease_expiries", 0) >= 1
        servers[0].shutdown()


    def test_dropped_result_frame_on_local_slot_recovered_by_lease(
        self, tmp_path
    ):
        """Local slots speak the same frame protocol and lease: a result
        frame dropped by a local worker expires its lease, and the
        re-dispatched attempt wins on a fresh local slot."""
        plan = FaultPlan(drop_frame="result@schedule=(1, 2, 3, 0)")
        winner, _ = synthesize_parallel(
            token_ring, (4, 3),
            configs=[CFG_A],
            n_workers=1,
            trace_dir=tmp_path,
            fault_plan=plan,
            lease_timeout=1.0,
            max_retries=2,
            retry_backoff=0.05,
        )
        assert winner.success and _verifies(winner)
        assert winner.retries == 1
        counters = _counters(tmp_path)
        assert counters.get("transport.lease_expiries", 0) >= 1
        assert counters.get("transport.remote_dispatches", 0) == 0


    def test_local_slot_serves_back_to_back_jobs_exactly_once(
        self, tmp_path
    ):
        """One local slot runs every job in turn: its connection loop and
        job thread hand each outcome over exactly once, even with the
        interpreter switching threads as often as it can (a forked slot
        inherits the switch interval)."""
        failing = [
            SynthesisConfig(
                schedule, HeuristicOptions(enable_pass2=False, enable_pass3=False)
            )
            for schedule in ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            winner, completed = synthesize_parallel(
                token_ring, (4, 3),
                configs=failing,
                n_workers=1,
                trace_dir=tmp_path,
                lease_timeout=8.0,
            )
        finally:
            sys.setswitchinterval(interval)
        assert not winner.success
        assert sorted(o.config.schedule for o in completed) == sorted(
            c.schedule for c in failing
        )
        assert not any(o.crashed or o.cancelled for o in completed)
        counters = _counters(tmp_path)
        for name in (
            "portfolio.worker_crashes",
            "transport.lease_expiries",
            "transport.duplicate_results",
        ):
            assert counters.get(name, 0) == 0, name


    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_local_slot_ships_result_frame_larger_than_socket_buffer(
        self, tmp_path, monkeypatch
    ):
        """A result frame far larger than a socketpair's buffer (a dense
        certificate over some 800k states would be this size) reaches the
        supervisor whole: the worker's send waits for the parent to drain
        it instead of failing part-way."""
        from repro.parallel import transport

        padding = "x" * (2 * 1024 * 1024)

        def padded(outcome):
            return dict(outcome_to_payload(outcome), padding=padding)

        # the forked slot inherits the padded codec
        monkeypatch.setattr(transport, "outcome_to_payload", padded)
        winner, _ = synthesize_parallel(
            token_ring, (4, 3),
            configs=[CFG_A],
            n_workers=1,
            trace_dir=tmp_path,
            start_method="fork",
        )
        assert winner.success and _verifies(winner)
        assert winner.retries == 0
        counters = _counters(tmp_path)
        for name in ("portfolio.worker_crashes", "portfolio.retries"):
            assert counters.get(name, 0) == 0, name

    def test_spawned_slot_lease_starts_after_its_rebuild(self, tmp_path):
        """Under spawn a local slot starts an interpreter and rebuilds the
        precompute before it serves its socket; a lease shorter than that
        must not expire, since the lease clock starts at the hello."""
        winner, _ = synthesize_parallel(
            _slow_in_worker_token_ring, (4, 3),
            configs=[CFG_A],
            n_workers=1,
            trace_dir=tmp_path,
            start_method="spawn",
            lease_timeout=1.0,
        )
        assert winner.success and _verifies(winner)
        assert winner.retries == 0
        counters = _counters(tmp_path)
        for name in ("transport.lease_expiries", "portfolio.retries"):
            assert counters.get(name, 0) == 0, name


# ----------------------------------------------------------------------
# shared store under a resumed distributed sweep
# ----------------------------------------------------------------------


class TestSharedStoreResume:
    def test_resume_reverifies_journaled_winner_and_sweeps_store(
        self, tmp_path
    ):
        """Resume after a mid-race kill against a populated shared store:
        the stored winner is re-trusted only through its certificate
        check, stale claims from the dead coordinator are released, and
        partial writes are quarantined."""
        winner, _ = synthesize_parallel(
            token_ring, (4, 3), configs=[CFG_A], n_workers=1,
            cache_dir=tmp_path,
        )
        assert winner.success and winner.certificate is not None
        # the content-addressed store holds the settled config
        protocol, invariant = token_ring(4, 3)
        fp = protocol_fingerprint(protocol, invariant)
        key = config_key(fp, CFG_A)
        entry = json.loads((tmp_path / f"{key}.json").read_text())
        assert entry["status"] == "done" and entry["certificate"]
        # litter the store the way a SIGKILLed coordinator would
        old = time.time() - 3600
        partial = tmp_path / "deadbeef.json.tmp.deadhost.1.ab"
        partial.write_text('{"schema": 1, "succ')
        os.utime(partial, (old, old))
        claim = tmp_path / (key + StoreClaim.SUFFIX)
        claim.write_text('{"owner": "deadhost.1"}')
        os.utime(claim, (old, old))

        resumed, completed = synthesize_parallel(
            token_ring, (4, 3), configs=[CFG_A], n_workers=1,
            cache_dir=tmp_path, resume=True, trace_dir=tmp_path / "traces",
        )
        assert resumed.success and resumed.resumed
        counters = _counters(tmp_path / "traces")
        assert counters.get("cert.check_pass", 0) >= 1  # cert, not re-run
        assert counters.get("portfolio.resume_skips", 0) == 1
        assert counters.get("transport.store_partials_swept", 0) == 1
        assert counters.get("transport.stale_claims_released", 0) == 1
        assert not claim.exists() and not partial.exists()
        assert (tmp_path / (partial.name + ".corrupt")).exists()

    def test_cluster_resume_runs_remaining_configs_remotely(self, tmp_path):
        """A killed sweep's store replays locally-settled failures while
        the unfinished configs race on the remote workers."""
        first, _ = synthesize_parallel(
            token_ring, (4, 3), configs=[CFG_FAIL], n_workers=1,
            cache_dir=tmp_path,
        )
        assert not first.success
        servers, endpoints = _serve(1)
        winner, completed = synthesize_parallel(
            token_ring, (4, 3), configs=[CFG_FAIL, CFG_B],
            worker_endpoints=endpoints,
            cache_dir=tmp_path, resume=True,
            trace_dir=tmp_path / "traces",
            lease_timeout=8.0,
        )
        assert winner.success and winner.config == CFG_B
        assert sum(1 for o in completed if o.resumed) == 1
        counters = _counters(tmp_path / "traces")
        assert counters.get("portfolio.resume_skips", 0) == 1
        assert counters.get("transport.remote_dispatches", 0) == 1
        servers[0].shutdown()
