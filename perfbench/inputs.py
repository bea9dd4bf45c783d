"""Seeded inputs: every input of a run is a pure function of ``--seed``.

Nothing here imports the program, so the self-test (``selftest.py``) runs
without it.  ``random.Random`` seeded with a string is reproducible across
processes and Python builds (it hashes the string with SHA-512, not with
the per-process ``hash``).
"""

from __future__ import annotations

import random

#: the ``paper-*`` case lists, in the order the seed shuffles
PAPER_CASES = {
    "paper-explicit": ["matching-11", "token-ring-6-5", "two-ring", "coloring-13"],
    "paper-symbolic": ["coloring-20", "matching-7", "coloring-9"],
}

#: builtin ``service-mix`` protocols: (protocol, k, domain or None)
SERVICE_PROTOCOLS = (
    [("token-ring", k, d) for k in (3, 4, 5) for d in (3, 4)]
    + [("matching", k, None) for k in (4, 5, 6, 7)]
    + [("coloring", k, None) for k in (5, 6, 7, 8, 9)]
    + [("gouda-acharya", 5, None)]
)

#: pinned rotation schedules drawn per protocol (all K when K is smaller)
PINNED_PER_PROTOCOL = 5
#: a repeat re-sends a spec first sent at least this many jobs earlier, so
#: most repeats find the first answer stored
REPEAT_GAP = 12
#: fewest jobs a ``service-mix`` run may submit, so that p95 has ten samples
#: beyond it (and every fresh spec fits in the stream)
MIN_SERVICE_JOBS = 200


def protocol_key(protocol: str, k: int, domain: int | None) -> str:
    """The ``expected.json`` key of a builtin protocol instance."""
    return f"{protocol}-{k}" if domain is None else f"{protocol}-{k}-{domain}"


def rotations(k: int) -> list[tuple[int, ...]]:
    """The K rotations of the identity schedule (the pinned-schedule pool)."""
    base = list(range(k))
    return [tuple(base[i:] + base[:i]) for i in range(k)]


def paper_case_order(workload: str, seed: int) -> list[str]:
    cases = list(PAPER_CASES[workload])
    random.Random(f"{workload}:{seed}").shuffle(cases)
    return cases


def service_stream(seed: int, n_jobs: int, rate: float) -> list[dict]:
    """The ``service-mix`` job stream: ``n_jobs`` jobs offered at ``rate``
    jobs/s.

    Each job is ``{"due": offset_s, "key": ..., "pinned": bool,
    "repeat": bool, "payload": POST body}``.

    The fresh specs are the same set for every seed in kind and number:
    each builtin protocol once with the default portfolio and
    :data:`PINNED_PER_PROTOCOL` times with a seeded rotation schedule.  They
    go out in seeded order, evenly spread over the stream (the first job is
    fresh).  Every other job repeats a spec sent at least
    :data:`REPEAT_GAP` jobs before, drawn from seeded tickets that give each
    fresh spec an equal number of repeats.
    At 288 jobs that is about 70% repeats.  Arrivals are a Poisson process
    conditioned on its count: the first job is due at 0, the last at
    ``n_jobs / rate``, the rest uniformly in between.  The rate only scales
    the due times, so one seed sends the same jobs in the same order at any
    rate.
    """
    rng = random.Random(f"service-mix:{seed}")
    fresh = []
    for protocol, k, domain in SERVICE_PROTOCOLS:
        fresh.append((protocol, k, domain, None))
        for schedule in rng.sample(rotations(k), min(PINNED_PER_PROTOCOL, k)):
            fresh.append((protocol, k, domain, schedule))
    rng.shuffle(fresh)
    fresh_at = {index * n_jobs // len(fresh): spec for index, spec in enumerate(fresh)}
    # each fresh spec is repeated an equal share of the other jobs, so the
    # mix of hits and never-stored negative answers does not vary by seed
    quota = (n_jobs - len(fresh)) // len(fresh) + 1
    tickets = [spec for spec in fresh for _ in range(quota)]
    rng.shuffle(tickets)
    sent_at: dict[tuple, int] = {}
    span = n_jobs / rate
    dues = [0.0, *sorted(rng.uniform(0, span) for _ in range(n_jobs - 2)), span]
    jobs = []
    for index, due in enumerate(dues):
        if index in fresh_at:
            spec, repeat = fresh_at[index], False
            sent_at[spec] = index
        else:
            ready = next((t for t, spec in enumerate(tickets)
                          if sent_at.get(spec, n_jobs) <= index - REPEAT_GAP), None)
            spec = (tickets.pop(ready) if ready is not None
                    else rng.choice(list(sent_at)))
            repeat = True
        protocol, k, domain, schedule = spec
        payload = {"protocol": protocol, "k": k}
        if domain is not None:
            payload["d"] = domain
        if schedule is not None:
            payload["schedule"] = list(schedule)
        jobs.append({
            "due": due,
            "key": protocol_key(protocol, k, domain),
            "pinned": schedule is not None,
            "repeat": repeat,
            "payload": payload,
        })
    return jobs
