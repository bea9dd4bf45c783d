"""Synthesis-as-a-service tests: the real server over real sockets.

Every service test starts an actual :class:`repro.service.ServiceHandle`
(the asyncio server in a background thread, bound to an ephemeral port)
and talks plain ``http.client`` HTTP to it — no mocked transports, no
routing shims.  Jobs run the genuine portfolio race; the cache-hit tests
tamper with real store files and assert the certificate checker catches
it; the drain tests SIGTERM a genuine ``stsyn worker`` subprocess.
"""

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.faults.runtime import FaultPlan, install_fault_plan
from repro.service import ServiceHandle
from repro.service.jobs import InvalidJob, Job, JobQueue, JobSpec
from repro.trace.tail import TailBuffer, follow_jsonl, format_record, parse_record

#: the quickest real job: one pinned schedule, no portfolio fan-out
QUICK_JOB = {"protocol": "token-ring", "k": 3, "d": 3, "schedule": [0, 1, 2]}

#: a job that stalls long enough to be cancelled / observed running
SLOW_JOB = {
    "protocol": "token-ring", "k": 3, "d": 3, "schedule": [0, 1, 2],
    "options": {"stall_seconds": 30.0},
}

#: a guarded-command source job (the same two-process token ring the DSL
#: parser tests compile)
STSYN_SOURCE = """
protocol tr2
var x0, x1 : 0..2
process P0
  reads x1, x0
  writes x0
  action x0 == x1 -> x0 := (x1 + 1) % 3
process P1
  reads x0, x1
  writes x1
  action (x1 + 1) % 3 == x0 -> x1 := x0
invariant (x0 == x1) | ((x1 + 1) % 3 == x0)
"""


# ----------------------------------------------------------------------
# tiny HTTP client helpers
# ----------------------------------------------------------------------


def request(port, method, path, body=None, headers=None, timeout=60):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            method,
            path,
            body=json.dumps(body) if isinstance(body, dict) else body,
            headers=headers or {},
        )
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def request_json(port, method, path, body=None, **kw):
    status, data = request(port, method, path, body, **kw)
    return status, json.loads(data)


def wait_state(port, job_id, states=("done", "failed", "cancelled"),
               timeout=120):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _status, payload = request_json(port, "GET", f"/jobs/{job_id}")
        if payload["state"] in states:
            return payload
        time.sleep(0.05)
    raise AssertionError(
        f"job {job_id} did not reach {states} within {timeout}s "
        f"(last: {payload['state']})"
    )


# ----------------------------------------------------------------------
# tail buffer / follow (shared by the streaming endpoint and --follow)
# ----------------------------------------------------------------------


class TestTailBuffer:
    def test_holds_back_torn_last_line(self):
        buf = TailBuffer()
        assert buf.feed(b'{"a": 1}\n{"b"') == ['{"a": 1}']
        assert buf.pending > 0
        # the torn line completes on the next feed
        assert buf.feed(b': 2}\n') == ['{"b": 2}']
        assert buf.pending == 0

    def test_multiple_lines_one_feed(self):
        buf = TailBuffer()
        assert buf.feed(b"x\ny\nz\n") == ["x", "y", "z"]

    def test_flush_recovers_unterminated_tail(self):
        buf = TailBuffer()
        buf.feed(b"complete\npartial")
        assert buf.flush() == "partial"
        assert buf.flush() is None

    def test_parse_record_skips_junk(self):
        assert parse_record('{"type": "event"}') == {"type": "event"}
        assert parse_record('{"torn": ') is None
        assert parse_record("[1, 2]") is None

    def test_format_record_kinds(self):
        assert "[span ]" in format_record({"type": "span", "name": "x", "dur": 0.5})
        assert "[event]" in format_record({"type": "event", "name": "x"})
        assert "[count]" in format_record({"type": "counters", "values": {"a": 1}})
        assert "[meta ]" in format_record({"type": "meta", "job": "j1"})

    def test_follow_jsonl_sees_live_appends(self, tmp_path):
        path = tmp_path / "live.jsonl"
        stop = threading.Event()

        def writer():
            with open(path, "w") as fh:
                for i in range(3):
                    fh.write(json.dumps({"type": "event", "i": i}) + "\n")
                    fh.flush()
                    time.sleep(0.05)
                # a torn last line must never surface
                fh.write('{"torn": ')
                fh.flush()
            stop.set()

        thread = threading.Thread(target=writer)
        thread.start()
        records = list(
            follow_jsonl(path, poll_interval=0.02, stop=stop.is_set)
        )
        thread.join()
        assert [r["i"] for r in records] == [0, 1, 2]


# ----------------------------------------------------------------------
# job model
# ----------------------------------------------------------------------


class TestJobSpec:
    def test_rejects_unknown_fields_and_backends(self):
        with pytest.raises(InvalidJob, match="unknown job fields"):
            JobSpec.from_payload({"protocol": "matching", "bogus": 1})
        # there is one synthesis backend, so "backend" is no field at all
        with pytest.raises(InvalidJob, match=r"unknown job fields: \['backend'\]"):
            JobSpec.from_payload({"protocol": "matching", "backend": "heuristic"})
        spec = JobSpec.from_payload({"protocol": "matching"})
        assert "backend" not in spec.to_payload()

    def test_requires_source_or_protocol(self):
        with pytest.raises(InvalidJob, match="source.*protocol|protocol.*source"):
            JobSpec.from_payload({})
        with pytest.raises(InvalidJob, match="mutually exclusive"):
            JobSpec.from_payload({"protocol": "matching", "source": "..."})
        with pytest.raises(InvalidJob, match="unknown protocol"):
            JobSpec.from_payload({"protocol": "bogus"})

    def test_validates_options_and_ranges(self):
        # a removed option is rejected, not silently ignored
        for options in ({"nope": True}, {"scc_algorithm": "xie_beerel"}):
            with pytest.raises(InvalidJob, match="unknown heuristic options"):
                JobSpec.from_payload(
                    {"protocol": "matching", "options": options}
                )
        with pytest.raises(InvalidJob, match="out of range"):
            JobSpec.from_payload({"protocol": "matching", "k": 9999})

    def test_source_job_builder_is_shippable(self):
        from repro.parallel.transport import builder_ref, resolve_builder

        spec = JobSpec.from_payload({"source": STSYN_SOURCE})
        builder, args = spec.builder_spec()
        # must survive a builder_ref round-trip (what TCP workers do)
        ref = builder_ref(builder, args)
        rebuilt, rebuilt_args = resolve_builder(ref)
        protocol, _invariant = rebuilt(*rebuilt_args)
        assert protocol.n_processes == 2

    def test_pinned_schedule_must_be_permutation(self):
        spec = JobSpec.from_payload(
            {"protocol": "token-ring", "k": 3, "schedule": [0, 0, 1]}
        )
        with pytest.raises(InvalidJob, match="permutation"):
            spec.configs(3)
        assert len(
            JobSpec.from_payload(QUICK_JOB).configs(3)
        ) == 1


class TestJobQueue:
    def _job(self, tenant, n):
        return Job(
            id=f"{tenant}-{n}",
            spec=JobSpec(protocol="matching", tenant=tenant),
            job_dir="/nonexistent",
        )

    def test_round_robin_across_tenants(self):
        queue = JobQueue(max_queued=16)
        # tenant a floods; tenant b submits one job afterwards
        for i in range(5):
            assert queue.push(self._job("a", i))
        assert queue.push(self._job("b", 0))
        order = [queue.pop().id for _ in range(6)]
        # b's single job is served second, not sixth
        assert order.index("b-0") == 1
        assert queue.pop() is None

    def test_bounded(self):
        queue = JobQueue(max_queued=2)
        assert queue.push(self._job("a", 0))
        assert queue.push(self._job("a", 1))
        assert not queue.push(self._job("a", 2))
        queue.pop()
        assert queue.push(self._job("a", 3))


# ----------------------------------------------------------------------
# the service end to end
# ----------------------------------------------------------------------


class TestServiceLifecycle:
    def test_submit_poll_artifacts_and_stream(self, tmp_path):
        with ServiceHandle(tmp_path) as handle:
            status, payload = request_json(
                handle.port, "POST", "/jobs", QUICK_JOB
            )
            assert status == 202
            job_id = payload["id"]
            assert payload["state"] in ("queued", "running")
            assert payload["links"]["trace"] == f"/jobs/{job_id}/trace"

            final = wait_state(handle.port, job_id)
            assert final["state"] == "done"
            assert final["success"] is True
            assert final["cache_hit"] is False
            assert final["winning_config"]

            # artifacts: certificate re-checks independently
            status, cert_bytes = request(
                handle.port, "GET", f"/jobs/{job_id}/certificate"
            )
            assert status == 200
            from repro.cert import ConvergenceCertificate, check_certificate
            from repro.protocols import token_ring

            cert = ConvergenceCertificate.from_payload(json.loads(cert_bytes))
            protocol, invariant = token_ring(3, 3)
            check_certificate(protocol, invariant, cert)  # raises on tamper

            status, solution = request_json(
                handle.port, "GET", f"/jobs/{job_id}/solution"
            )
            assert status == 200
            assert solution["success"] is True
            assert solution["pss_groups"]

            # the full trace streams back as NDJSON and ends cleanly
            status, stream = request(
                handle.port, "GET", f"/jobs/{job_id}/trace"
            )
            assert status == 200
            lines = [json.loads(l) for l in stream.splitlines() if l.strip()]
            names = [
                r.get("name") for r in lines if r.get("type") == "event"
            ]
            assert "job.submitted" in names
            assert "job.done" in names
            assert handle.metrics.get("service.trace_streams") == 1

    def test_stream_follows_live_then_ends_at_terminal(self, tmp_path):
        slow = dict(SLOW_JOB, options={"stall_seconds": 1.5})
        with ServiceHandle(tmp_path) as handle:
            _status, payload = request_json(
                handle.port, "POST", "/jobs", slow
            )
            job_id = payload["id"]
            # connect while the job is still stalling: the stream must
            # deliver the early events now and the terminal event later
            conn = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=120
            )
            conn.request("GET", f"/jobs/{job_id}/trace")
            resp = conn.getresponse()
            assert resp.status == 200
            assert resp.getheader("Transfer-Encoding") == "chunked"
            body = resp.read()  # blocks until the stream closes
            conn.close()
            records = [
                json.loads(l) for l in body.splitlines() if l.strip()
            ]
            names = [r.get("name") for r in records if r.get("type") == "event"]
            assert "job.submitted" in names and "job.done" in names
            assert wait_state(handle.port, job_id)["state"] == "done"

    def test_sse_variant(self, tmp_path):
        with ServiceHandle(tmp_path) as handle:
            _status, payload = request_json(
                handle.port, "POST", "/jobs", QUICK_JOB
            )
            wait_state(handle.port, payload["id"])
            conn = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=60
            )
            conn.request(
                "GET",
                f"/jobs/{payload['id']}/trace",
                headers={"Accept": "text/event-stream"},
            )
            resp = conn.getresponse()
            assert resp.getheader("Content-Type") == "text/event-stream"
            body = resp.read().decode()
            conn.close()
            assert body.startswith("data: ")
            assert "job.done" in body

    def test_cancel_running_job(self, tmp_path):
        with ServiceHandle(tmp_path) as handle:
            _status, payload = request_json(
                handle.port, "POST", "/jobs", SLOW_JOB
            )
            job_id = payload["id"]
            wait_state(handle.port, job_id, states=("running",), timeout=30)
            status, body = request_json(
                handle.port, "DELETE", f"/jobs/{job_id}"
            )
            assert status == 202 and body["cancelling"]
            final = wait_state(handle.port, job_id, timeout=30)
            assert final["state"] == "cancelled"
            assert handle.metrics.get("service.jobs_cancelled") == 1
            # cancelling a terminal job is a conflict, not a crash
            status, _ = request(handle.port, "DELETE", f"/jobs/{job_id}")
            assert status == 409
            # no artifacts for a cancelled job
            status, _ = request(
                handle.port, "GET", f"/jobs/{job_id}/solution"
            )
            assert status == 404

    def test_concurrent_jobs_multiplex_with_bounded_width(self, tmp_path):
        slow = dict(SLOW_JOB, options={"stall_seconds": 2.0})
        with ServiceHandle(tmp_path, max_concurrent=2) as handle:
            ids = []
            for tenant in ("a", "b", "c"):
                _status, payload = request_json(
                    handle.port, "POST", "/jobs", dict(slow, tenant=tenant)
                )
                ids.append(payload["id"])
            # exactly two run at once; the third waits its turn
            saw_two_running_one_queued = False
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                _s, health = request_json(handle.port, "GET", "/healthz")
                counts = health["jobs"]
                if counts["running"] == 2 and counts["queued"] == 1:
                    saw_two_running_one_queued = True
                    break
                time.sleep(0.05)
            assert saw_two_running_one_queued
            for job_id in ids:
                assert wait_state(handle.port, job_id)["state"] == "done"
            assert handle.metrics.get("service.jobs_submitted") == 3

    def test_stsyn_source_job(self, tmp_path):
        with ServiceHandle(tmp_path) as handle:
            _status, payload = request_json(
                handle.port, "POST", "/jobs", {"source": STSYN_SOURCE}
            )
            final = wait_state(handle.port, payload["id"])
            assert final["state"] == "done"
            assert final["success"] is True
            assert final["spec"]["source_bytes"] == len(STSYN_SOURCE)


class TestResultStore:
    def test_cache_hit_answers_from_store_with_cert_recheck(self, tmp_path):
        with ServiceHandle(tmp_path) as handle:
            _s, first = request_json(handle.port, "POST", "/jobs", QUICK_JOB)
            first_final = wait_state(handle.port, first["id"])
            assert first_final["cache_hit"] is False
            assert handle.metrics.get("service.synth_runs") == 1

            _s, second = request_json(handle.port, "POST", "/jobs", QUICK_JOB)
            second_final = wait_state(handle.port, second["id"])
            assert second_final["state"] == "done"
            assert second_final["success"] is True
            assert second_final["cache_hit"] is True
            # trust came from the independent certificate checker
            assert second_final["cert_verified"] is True
            assert handle.metrics.get("service.cache_hits") == 1
            assert handle.metrics.get("service.synth_runs") == 1
            # the warm answer still ships the certificate artifact
            status, _cert = request(
                handle.port, "GET", f"/jobs/{second['id']}/certificate"
            )
            assert status == 200

    def test_tampered_store_entry_quarantined_and_rerun(self, tmp_path):
        from repro.cert import tamper_certificate_payload

        with ServiceHandle(tmp_path) as handle:
            _s, first = request_json(handle.port, "POST", "/jobs", QUICK_JOB)
            wait_state(handle.port, first["id"])

            # tamper the stored certificate in place: the file still parses,
            # so only the certificate checker can catch it
            store_dir = os.path.join(tmp_path, "store")
            tampered = 0
            for name in os.listdir(store_dir):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(store_dir, name)
                with open(path) as fh:
                    record = json.load(fh)
                if record.get("certificate") and record.get("success"):
                    record["certificate"] = tamper_certificate_payload(
                        record["certificate"]
                    )
                    with open(path, "w") as fh:
                        json.dump(record, fh)
                    tampered += 1
            assert tampered >= 1

            _s, second = request_json(handle.port, "POST", "/jobs", QUICK_JOB)
            final = wait_state(handle.port, second["id"])
            # the poisoned entry was refused and quarantined; the job was
            # answered by a fresh run, not the store
            assert final["state"] == "done" and final["success"] is True
            assert final["cache_hit"] is False
            assert handle.metrics.get("service.store_quarantined") >= 1
            assert handle.metrics.get("service.synth_runs") == 2
            # the lookup trusts through the same repro.cert function as the
            # portfolio, so its refusal lands in the service's cert counters
            _s, metrics = request_json(handle.port, "GET", "/metrics?format=json")
            assert metrics["counters"].get("cert.check_fail", 0) >= 1
            corrupt = [
                n for n in os.listdir(store_dir) if n.endswith(".corrupt")
            ]
            assert corrupt, "tampered entry was not moved aside"


class TestServiceRobustness:
    def test_malformed_requests_get_4xx_not_a_crash(self, tmp_path):
        with ServiceHandle(tmp_path) as handle:
            port = handle.port
            # not JSON
            status, _ = request(
                port, "POST", "/jobs", body=b"definitely not json"
            )
            assert status == 400
            # JSON but not an object
            status, _ = request(port, "POST", "/jobs", body=b"[1, 2, 3]")
            assert status == 400
            # unknown protocol / unknown field → InvalidJob → 400
            status, body = request_json(
                port, "POST", "/jobs", {"protocol": "bogus"}
            )
            assert status == 400 and "bogus" in body["error"]
            status, body = request_json(
                port, "POST", "/jobs", {"protocol": "matching", "backend": "smt"}
            )
            assert status == 400 and "backend" in body["error"]
            # wrong methods and unknown routes
            assert request(port, "PUT", "/jobs")[0] == 405
            assert request(port, "GET", "/jobs/nope")[0] == 404
            assert request(port, "GET", "/nothing")[0] == 404
            # oversized body refused before any work happens
            status, body = request_json(
                port,
                "POST",
                "/jobs",
                body=b"x" * (2 * 1024 * 1024),
            )
            assert status == 413
            # a garbage request line cannot wedge the server
            import socket

            with socket.create_connection(("127.0.0.1", port)) as sock:
                sock.sendall(b"NONSENSE\r\n\r\n")
                assert b"400" in sock.recv(1024)
            # ...and the server is still fine afterwards
            assert request(port, "GET", "/healthz")[0] == 200
            assert handle.metrics.get("service.jobs_submitted") == 0

    def test_reject_fault_drill_and_counter(self, tmp_path):
        install_fault_plan(FaultPlan(reject_job="job.submit@default"))
        try:
            with ServiceHandle(tmp_path) as handle:
                status, body = request_json(
                    handle.port, "POST", "/jobs", QUICK_JOB
                )
                assert status == 503
                assert "fault drill" in body["error"]
                assert handle.metrics.get("service.jobs_rejected") == 1
        finally:
            install_fault_plan(None)

    def test_drop_stream_fault_truncates_chunked_body(self, tmp_path):
        with ServiceHandle(tmp_path) as handle:
            _s, payload = request_json(handle.port, "POST", "/jobs", QUICK_JOB)
            wait_state(handle.port, payload["id"])
            install_fault_plan(FaultPlan(drop_stream="trace.stream@default"))
            try:
                conn = http.client.HTTPConnection(
                    "127.0.0.1", handle.port, timeout=30
                )
                conn.request("GET", f"/jobs/{payload['id']}/trace")
                resp = conn.getresponse()
                assert resp.status == 200
                # the stream is severed without the terminating chunk: the
                # client observes a truncated chunked body
                with pytest.raises(http.client.IncompleteRead):
                    resp.read()
                conn.close()
            finally:
                install_fault_plan(None)
            assert handle.metrics.get("service.stream_drops") == 1

    def test_metrics_report_renders_service_table(self, tmp_path):
        with ServiceHandle(tmp_path) as handle:
            _s, payload = request_json(handle.port, "POST", "/jobs", QUICK_JOB)
            wait_state(handle.port, payload["id"])
            status, report = request(handle.port, "GET", "/metrics")
            assert status == 200
            text = report.decode()
            assert "Service" in text
            assert "fresh synthesis runs" in text
            status, machine = request_json(
                handle.port, "GET", "/metrics?format=json"
            )
            assert machine["counters"]["service.synth_runs"] == 1
            assert machine["jobs"]["done"] == 1


# ----------------------------------------------------------------------
# worker graceful drain (satellite: SIGTERM → drain → exit 0)
# ----------------------------------------------------------------------


def _spawn_worker(*extra_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (
            os.path.join(os.path.dirname(__file__), "..", "src"),
            env.get("PYTHONPATH"),
        ) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker",
         "--listen", "127.0.0.1:0", *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    match = re.search(r"listening on ([\d.]+:\d+)", proc.stdout.readline())
    assert match, "worker did not report its address"
    return proc, match.group(1)


class TestWorkerDrain:
    def test_sigterm_idle_worker_exits_zero(self):
        proc, _endpoint = _spawn_worker("--drain-timeout", "5")
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0
        assert "drain" in out

    def test_sigterm_mid_job_finishes_then_exits_zero(self, tmp_path):
        from repro.core.heuristic import HeuristicOptions
        from repro.core.synthesizer import SynthesisConfig
        from repro.parallel import synthesize_parallel
        from repro.protocols import token_ring

        proc, endpoint = _spawn_worker("--drain-timeout", "30")
        config = SynthesisConfig(
            (0, 1, 2), HeuristicOptions(stall_seconds=1.5)
        )
        result = {}

        def race():
            result["winner"], _ = synthesize_parallel(
                token_ring, (3, 3),
                configs=[config],
                worker_endpoints=[endpoint],
                trace_dir=tmp_path,
                lease_timeout=10.0,
            )

        thread = threading.Thread(target=race)
        thread.start()
        time.sleep(0.7)  # the job is stalling on the worker
        proc.send_signal(signal.SIGTERM)
        thread.join(timeout=60)
        out, _ = proc.communicate(timeout=30)
        # the in-flight job was drained, not dropped, and the exit is clean
        assert proc.returncode == 0
        assert result["winner"].success
        assert "drained cleanly" in out

    def test_second_sigterm_forces_shutdown(self):
        proc, _endpoint = _spawn_worker("--drain-timeout", "600")
        proc.send_signal(signal.SIGTERM)
        time.sleep(0.3)
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=30)
        assert proc.returncode == 0
