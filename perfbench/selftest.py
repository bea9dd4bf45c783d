"""Self-test of the benchmark's seeded inputs; needs no program.

    python3 perfbench/selftest.py

Checks that one seed gives an identical ``service-mix`` stream and
``paper-*`` case orders, also from a fresh interpreter (so nothing depends
on per-process hashing), that another seed gives another stream, and that
every stream stays inside ``expected.json``.  Exits 1 on any failure.
"""

import json
import subprocess
import sys
from pathlib import Path

from inputs import (
    MIN_SERVICE_JOBS,
    PAPER_CASES,
    paper_case_order,
    rotations,
    service_stream,
)

HERE = Path(__file__).resolve().parent
RATE, JOBS = 24.0, 288
#: share of repeats a 288-job stream should give
REPEAT_SHARE = 0.7


def fresh_interpreter_stream(seed: int) -> list:
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); "
        "from inputs import service_stream; "
        f"print(json.dumps(service_stream({seed}, {JOBS}, {RATE})))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(HERE)],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main() -> int:
    expected = json.loads((HERE / "expected.json").read_text())
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    one, again, other = (service_stream(s, JOBS, RATE) for s in (1, 1, 2))
    check(one == again, "same seed, identical service-mix stream")
    check(json.loads(json.dumps(one)) == fresh_interpreter_stream(1),
          "same seed, identical stream from a fresh interpreter")
    check(one != other, "different seed, different service-mix stream")
    faster = service_stream(1, JOBS, 2 * RATE)
    check([{**job, "due": 2 * job["due"]} for job in faster] == one,
          "another rate sends the same jobs, due times scaled")
    for workload, cases in PAPER_CASES.items():
        order = paper_case_order(workload, 1)
        check(order == paper_case_order(workload, 1)
              and sorted(order) == sorted(cases),
              f"{workload}: same seed, same permutation of the cases")
    check(any(paper_case_order("paper-explicit", 1) != paper_case_order("paper-explicit", s)
              for s in range(2, 10)),
          "paper-explicit: the seed changes the case order")

    for seed, stream in ((1, one), (2, other)):
        dues = [job["due"] for job in stream]
        repeats = sum(job["repeat"] for job in stream) / len(stream)
        check(len(stream) == JOBS >= MIN_SERVICE_JOBS, f"seed {seed}: {JOBS} jobs")
        check(dues[0] == 0 and dues == sorted(dues), f"seed {seed}: due times ascend from 0")
        check(abs(repeats - REPEAT_SHARE) < 0.1,
              f"seed {seed}: {repeats:.0%} repeats, about {REPEAT_SHARE:.0%}")
        check(all(job["key"] in expected["service-mix"] for job in stream),
              f"seed {seed}: every spec has an expected verdict")
        check(all(tuple(job["payload"]["schedule"]) in rotations(job["payload"]["k"])
                  for job in stream if job["pinned"]),
              f"seed {seed}: pinned schedules are rotations")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
