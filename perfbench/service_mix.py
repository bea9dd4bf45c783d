"""The ``service-mix`` workload: open loop, seeded Poisson arrivals, over HTTP.

A ``stsyn serve`` instance runs in its own process (``serve.py``) on a
fresh data dir.  This process holds the load: the main thread sends each
POST at its due time, and one poller thread watches ``/healthz`` and the
resident memory of the process tree, so at most two connections are open.
Timings come from the client clock (due, sent, POST returned) and from the
job timestamps the service records (``created``/``started``/``finished``
in ``GET /jobs``); both read ``time.time()`` on one host.

Each job is checked after the timed window: its verdict against
``expected.json``, and every certificate the service handed out with the
independent checker (``check_certificate`` pinned to the job's solution).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.cert import CertificateError, ConvergenceCertificate, check_certificate
from repro.service import JobSpec

from measure import median, percentile

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: seconds a run waits after the last due time for jobs to finish
DRAIN_LIMIT_S = 60.0
#: seconds between two ``/healthz`` polls (and memory samples)
POLL_INTERVAL_S = 0.05


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
class Server:
    """One ``serve.py`` process on a fresh data dir; stop it with :meth:`stop`."""

    def __init__(self, work_dir: Path, timeout: float = 60.0):
        data_dir = work_dir / "service"
        shutil.rmtree(data_dir, ignore_errors=True)
        data_dir.mkdir(parents=True)
        self.log_path = work_dir / "serve.log"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "serve.py"), "--data-dir", str(data_dir)],
                stdout=log, stderr=subprocess.STDOUT, env=env,
            )
        self.port = self._wait_ready(timeout)

    def _wait_ready(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        marker = "listening on "
        while time.monotonic() < deadline:
            text = self.log_path.read_text()
            if marker in text:
                address = text.split(marker, 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                raise RuntimeError(f"stsyn serve exited early:\n{text}")
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"stsyn serve not listening after {timeout} s")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def http_json(port: int, method: str, path: str, body=None, timeout: float = 60.0):
    """One request on its own connection (the service closes each one)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        data = None if body is None else json.dumps(body).encode()
        headers = {} if body is None else {"Content-Type": "application/json"}
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        return response.status, raw
    finally:
        conn.close()


def tree_rss_mb(root_pids: list[int]) -> float:
    """Resident memory of ``root_pids`` and all their descendants, summed."""
    page_mb = os.sysconf("SC_PAGE_SIZE") / 2**20
    total, stack, seen = 0.0, list(root_pids), set()
    while stack:
        pid = stack.pop()
        if pid in seen:
            continue
        seen.add(pid)
        try:
            with open(f"/proc/{pid}/statm") as handle:
                total += int(handle.read().split()[1]) * page_mb
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/children") as handle:
                    stack.extend(int(c) for c in handle.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue  # the process ended between listing and reading
    return total


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
@dataclass
class ServiceRun:
    #: one dict per submission: stream fields, client times, job payload
    jobs: list[dict]
    first_due: float
    last_end: float
    late_max_s: float
    peak_rss_mb: float
    problems: list[str]

    @property
    def wall_s(self) -> float:
        return self.last_end - self.first_due


def run_service_mix(stream: list[dict], server: Server,
                    expected: dict) -> ServiceRun:
    """Send ``stream`` to ``server``, wait for it, check every job."""
    stream = [dict(job) for job in stream]
    start_gate = time.time() + 0.2
    generator_done = threading.Event()
    peak = [0.0]
    pids = [os.getpid(), server.proc.pid]

    def poll() -> None:
        deadline = start_gate + stream[-1]["due"] + DRAIN_LIMIT_S
        while time.time() < deadline:
            peak[0] = max(peak[0], tree_rss_mb(pids))
            if generator_done.is_set():
                try:
                    status, raw = http_json(server.port, "GET", "/healthz")
                except OSError:
                    status = None
                if status == 200:
                    counts = json.loads(raw)["jobs"]
                    if counts["queued"] + counts["running"] == 0:
                        return
            time.sleep(POLL_INTERVAL_S)

    poller = threading.Thread(target=poll, name="perfbench-poll")
    poller.start()
    try:
        for job in stream:
            job["due_at"] = start_gate + job["due"]
            pause = job["due_at"] - time.time()
            if pause > 0:
                time.sleep(pause)
            job["sent"] = time.time()
            try:
                status, raw = http_json(server.port, "POST", "/jobs", job["payload"])
                job["status"] = status
                job["id"] = json.loads(raw).get("id") if status == 202 else None
            except OSError as exc:
                job["status"], job["id"] = None, None
                job["error"] = f"POST failed: {exc}"
            job["returned"] = time.time()
    finally:
        generator_done.set()
        poller.join()

    status, raw = http_json(server.port, "GET", "/jobs")
    by_id = {j["id"]: j for j in json.loads(raw)["jobs"]}
    for job in stream:
        job["server"] = by_id.get(job["id"])
    problems = _check_jobs(server.port, stream, expected)
    ends = [
        job["server"]["finished"] if _terminal(job) else job["returned"]
        for job in stream
    ]
    return ServiceRun(
        jobs=stream,
        first_due=stream[0]["due_at"],
        last_end=max(ends),
        late_max_s=max(job["sent"] - job["due_at"] for job in stream),
        peak_rss_mb=peak[0],
        problems=problems,
    )


def _terminal(job: dict) -> bool:
    server = job.get("server")
    return bool(server) and server["state"] in ("done", "failed", "cancelled")


def job_failed(job: dict) -> bool:
    """Refused, unfinished or wrong: any of these fails the job."""
    return bool(job.get("problem"))


def _check_jobs(port: int, jobs: list[dict], expected: dict) -> list[str]:
    """Set ``job["problem"]`` on every job whose outcome is wrong."""
    verdicts = expected["service-mix"]
    checked: dict[str, str | None] = {}
    problems = []
    for job in jobs:
        want = verdicts[job["key"]]["pinned" if job["pinned"] else "portfolio"]
        job["problem"] = _job_problem(port, job, want, checked)
        if job["problem"]:
            problems.append(f"{job['key']} {job['payload']}: {job['problem']}")
    return problems


def _job_problem(port: int, job: dict, want: str, checked: dict) -> str | None:
    if job["status"] != 202:
        return job.get("error") or f"refused with HTTP {job['status']}"
    if not _terminal(job):
        return "not finished by the end of the run"
    server = job["server"]
    got = f"{server['state']} success={server['success']} error={server['error']!r}"
    if want == "success":
        if server["state"] == "done" and server["success"]:
            return _check_certificate_once(port, job, checked)
        return f"{got}, expected success"
    if want == "heuristic-failure":
        if server["state"] == "done" and server["success"] is False:
            return None
        return f"{got}, expected a heuristic failure"
    if server["state"] == "failed" and (server["error"] or "").startswith(want):
        return None
    return f"{got}, expected {want}"


def _check_certificate_once(port: int, job: dict, checked: dict) -> str | None:
    """Re-check a served certificate against its job's solution; identical
    (spec, certificate, solution) triples are checked once."""
    path = f"/jobs/{job['id']}"
    status_c, cert_raw = http_json(port, "GET", f"{path}/certificate")
    status_s, sol_raw = http_json(port, "GET", f"{path}/solution")
    if status_c != 200 or status_s != 200:
        return f"artifacts missing (certificate {status_c}, solution {status_s})"
    digest = hashlib.sha256(
        json.dumps(job["payload"], sort_keys=True).encode() + cert_raw + sol_raw
    ).hexdigest()
    if digest not in checked:
        spec = JobSpec.from_payload(job["payload"])
        builder, args = spec.builder_spec()
        protocol, invariant = builder(*args)
        pss = [set(map(tuple, g)) for g in json.loads(sol_raw)["pss_groups"]]
        try:
            check_certificate(
                protocol, invariant,
                ConvergenceCertificate.from_payload(json.loads(cert_raw)),
                expected_pss=pss,
            )
            checked[digest] = None
        except CertificateError as exc:
            checked[digest] = f"certificate rejected: {exc}"
    return checked[digest]


# ----------------------------------------------------------------------
# metrics and spans of one run
# ----------------------------------------------------------------------
def end_to_end(run: ServiceRun) -> tuple[dict, dict, dict]:
    """The end-to-end metrics, the job latency percentiles, and the sample
    counts behind them."""
    latencies = [  # a failed job misses every latency limit
        float("inf") if job_failed(job) else job["server"]["finished"] - job["due_at"]
        for job in run.jobs
    ]
    served = [job["server"] for job in run.jobs if _terminal(job)]
    ran = [s for s in served if s["started"] is not None]
    cold = [s["finished"] - s["started"] for s in ran if not s["cache_hit"]]
    metrics = {
        "wall_s": run.wall_s,
        "jobs_per_s": len(served) / run.wall_s,
        "cold_job_s": sum(cold) / len(cold),
        "peak_rss_mb": run.peak_rss_mb,
    }
    percentiles = {
        "job_p50_s": percentile(latencies, 0.50),
        "job_p95_s": percentile(latencies, 0.95),
    }
    return metrics, percentiles, {
        "jobs": len(latencies),
        "beyond_p95": len(latencies) // 20,
        "misses": len(cold),
        "hits": sum(bool(s["cache_hit"]) for s in ran),
    }


def layer_metrics(run: ServiceRun) -> dict:
    """The ``service.*`` and ``loadgen.*`` per-layer metrics."""
    served = [job["server"] for job in run.jobs if _terminal(job)]
    started = [s for s in served if s["started"] is not None]
    hits = [s for s in started if s["cache_hit"]]
    misses = [s for s in started if not s["cache_hit"]]
    accepted = [job for job in run.jobs if job["status"] == 202]
    return {
        "service.submit_s": median([j["returned"] - j["sent"] for j in run.jobs]),
        "service.queue_wait_p95_s": percentile(
            [s["started"] - s["created"] for s in started], 0.95),
        "service.run_miss_s": median([s["finished"] - s["started"] for s in misses]),
        "service.run_hit_s": median([s["finished"] - s["started"] for s in hits]),
        "service.store_hit_ratio": len(hits) / len(accepted) if accepted else 0.0,
        "service.cert_verified_ratio": (
            sum(1 for s in hits if s["cert_verified"]) / len(hits) if hits else 0.0),
        "loadgen.late_max_s": run.late_max_s,
    }


def record_spans(run: ServiceRun, log) -> None:
    """Each job as spans: submit (POST round trip), queue, run (hit or miss).

    Intervals are clamped so they nest: a job that finished before its
    POST returned shows an empty queue and run.
    """
    log.add("run", run.first_due, run.last_end)
    for index, job in enumerate(run.jobs):
        name = job["id"] or f"refused-{index}"
        sent = max(job["sent"], job["due_at"])
        returned = job["returned"]
        server = job["server"] if _terminal(job) else None
        end = max(returned, server["finished"]) if server else returned
        log.add("job", job["due_at"], end, name)
        log.add("service.submit", sent, returned, name)
        if server is None:
            continue
        started = max(returned, server["started"] or server["finished"])
        log.add("service.queue", returned, started, name)
        layer = "service.run_hit" if server["cache_hit"] else "service.run_miss"
        log.add(layer, started, end, name)
