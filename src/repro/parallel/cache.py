"""On-disk synthesis memo cache.

Benchmark sweeps and repeated CLI runs re-solve the exact same
(protocol, schedule, options) configurations over and over; related
synthesis tools amortise that work across candidates.  Here every settled
portfolio outcome is stored under a content key:

``protocol_fingerprint``
    SHA-256 over the state space (variable names + radices), the topology
    (per-process read/write sets), the transition groups ``δp`` and the
    invariant mask — everything that determines the synthesis answer.
``config_key``
    the fingerprint combined with the recovery schedule and the full
    ``HeuristicOptions`` record.

One JSON file per key under ``cache_dir`` (human-inspectable, safe to
delete), in the same outcome encoding the TCP transport ships
(:func:`~repro.parallel.transport.outcome_to_payload`), plus a ``status``:

``done``
    the run completed (success or failure) — the only status a plain
    lookup answers with, so a warm re-run returns without spawning a single
    worker;
``crashed`` / ``deadline``
    every attempt died, or the soft deadline cancelled the run.  These are
    replayed only under ``resume=True`` (checkpoint/resume after a killed
    sweep); a fresh run re-runs them.

An entry without ``status`` reads as ``done``.  Race-cancelled losers are
never stored.  A stored success is never taken on faith: :meth:`get`
re-checks its certificate through :func:`repro.cert.trust_outcome` and
quarantines an entry without one, or whose certificate fails.

The directory doubles as the cluster's **shared content-addressed store**:
several coordinator hosts may read and write it concurrently (over NFS or
a shared volume), so every write goes through
:func:`repro.parallel.storeio.atomic_write_json` (writer-unique temp name,
fsync, atomic rename), redundant writes are de-duplicated with ``O_EXCL``
claim files (:class:`~repro.parallel.storeio.StoreClaim` — stale claims
from dead hosts are broken, never honoured forever), and startup sweeps
quarantine ``*.tmp.*`` partials left by writers that died mid-write.

A torn or truncated entry (power loss mid-write, disk corruption, or an
injected :mod:`repro.faults.runtime` fault) is **quarantined**: renamed to
``<key>.json.corrupt`` and treated as a miss, so the evidence survives for
diagnosis while the sweep recomputes the config instead of silently
trusting — or repeatedly tripping over — a bad file.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict

from ..protocol.predicate import Predicate
from ..protocol.protocol import Protocol
from ..trace.tracer import NULL_TRACER
from .scheduler import CostModel
from .storeio import StoreClaim, atomic_write_json, sweep_partials
from .transport import outcome_from_payload, outcome_to_payload

#: bump when the stored schema changes; stale entries are ignored
CACHE_SCHEMA = 1

#: settled-outcome statuses an entry may carry
STATUSES = ("done", "crashed", "deadline")


def protocol_fingerprint(protocol: Protocol, invariant: Predicate) -> str:
    """Content hash of everything that determines the synthesis answer."""
    h = hashlib.sha256()
    space = protocol.space
    h.update(repr([v.name for v in space.variables]).encode())
    h.update(repr([int(r) for r in space.radices]).encode())
    for spec in protocol.topology:
        h.update(
            repr((spec.name, tuple(spec.reads), tuple(spec.writes))).encode()
        )
    for j, gs in enumerate(protocol.groups):
        h.update(repr((j, sorted(gs))).encode())
    h.update(invariant.mask.tobytes())
    return h.hexdigest()


def config_key(fingerprint: str, config) -> str:
    """Cache key for one portfolio entry (protocol × schedule × options)."""
    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA,
            "fingerprint": fingerprint,
            "schedule": list(config.schedule),
            "options": asdict(config.options),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class SynthesisCache:
    """A directory of settled portfolio outcomes, one JSON file per key."""

    def __init__(self, cache_dir: str | os.PathLike):
        self.cache_dir = os.fspath(cache_dir)
        os.makedirs(self.cache_dir, exist_ok=True)
        self.quarantined = 0
        self.claims = StoreClaim(self.cache_dir)
        # startup hygiene for the shared store: writers that died mid-write
        # leave temp partials and claim files behind; both are leases, not
        # permanent state, and must never wedge the next sweep
        self.claim_conflicts = 0
        self.partials_swept = sweep_partials(self.cache_dir)
        self.stale_claims_released = self.claims.sweep_stale()

    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.json")

    def _quarantine(self, path: str) -> None:
        """Move a bad entry aside (``*.corrupt``) instead of deleting it."""
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            return
        self.quarantined += 1

    def get(
        self,
        fingerprint: str,
        config,
        protocol,
        invariant,
        *,
        tracer=NULL_TRACER,
        resume: bool = False,
    ):
        """The stored :class:`ParallelOutcome` for one config, or ``None``.

        Only ``done`` entries answer unless ``resume`` is set, which
        replays every status and tags the outcome ``resumed`` instead of
        ``cached``.  A stored success is trusted only when
        :func:`repro.cert.trust_outcome` accepts its certificate.  An entry
        that cannot be parsed, or whose success is refused (no
        certificate, or one that fails), is quarantined to ``*.corrupt``
        and misses; a schema mismatch is staleness, not corruption: a
        plain miss.
        """
        path = self._path(config_key(fingerprint, config))
        try:
            with open(path) as handle:
                record = json.load(handle)
            if not isinstance(record, dict):
                raise ValueError("cache entry is not a JSON object")
            if record.get("schema") != CACHE_SCHEMA:
                return None
            if "success" not in record:
                raise ValueError("cache entry has no outcome")
            status = record.get("status", "done")
            if status not in STATUSES:
                raise ValueError(f"unknown entry status {status!r}")
            outcome = outcome_from_payload(config, record)
        except OSError:
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            self._quarantine(path)
            return None
        if status != "done" and not resume:
            return None
        outcome.crashed = status == "crashed"
        outcome.cached, outcome.resumed = not resume, resume
        if outcome.success:
            # local import: repro.cert imports this module for the
            # protocol fingerprint
            from ..cert.trust import trust_outcome

            if trust_outcome(
                protocol,
                invariant,
                outcome.pss_groups,
                outcome.certificate,
                tracer=tracer,
            ) is not None:
                self._quarantine(path)
                return None
        return outcome

    def put(self, fingerprint: str, outcome, fault_plan=None) -> str | None:
        """Store one settled outcome; returns the file path (None when it is
        not stored: race-cancelled, read back from the store, a crash or
        deadline marker for a key that already has an entry, or another
        writer holds the key's claim).  ``fault_plan`` is the storing
        race's :class:`~repro.faults.FaultPlan`, whose
        ``corrupt_cache_entry`` and ``corrupt_certificate`` knobs fire
        here."""
        if outcome.crashed:
            status = "crashed"
        elif outcome.cancelled:
            status = "deadline" if outcome.cancel_reason == "deadline" else None
        else:
            status = "done"
        if status is None or outcome.cached or outcome.resumed:
            return None
        record = {
            "schema": CACHE_SCHEMA,
            "config": outcome.config.describe(),
            "status": status,
            **outcome_to_payload(outcome),
        }
        from ..faults.runtime import should_corrupt_cache, should_corrupt_cert

        if record["certificate"] is not None and should_corrupt_cert(
            "cert.store", outcome.config.describe(), fault_plan
        ):
            # fault drill: store a subtly tampered certificate — the entry
            # parses fine, so only the certificate checker can catch it
            from ..cert.certificate import tamper_certificate_payload

            record["certificate"] = tamper_certificate_payload(
                record["certificate"]
            )
        key = config_key(fingerprint, outcome.config)
        path = self._path(key)
        if status != "done" and os.path.exists(path):
            # a crash or deadline marker never replaces a stored answer
            # that a concurrent writer settled for the same key
            return None
        # the O_EXCL claim keeps concurrent multi-host writers off the same
        # key: the loser skips a byte-identical redundant write (the store is
        # content-addressed, either copy is correct), and a claim from a
        # writer that died mid-compute goes stale and is broken, not honoured
        if not self.claims.acquire(key):
            self.claim_conflicts += 1
            return None
        try:
            atomic_write_json(path, record)
        finally:
            self.claims.release(key)

        if should_corrupt_cache(outcome.config.describe(), fault_plan):
            # fault drill: leave a torn half-written entry on disk
            payload = json.dumps(record)
            with open(path, "w") as handle:
                handle.write(payload[: max(1, len(payload) // 2)])
        return path

    def __len__(self) -> int:
        """Stored outcomes (the cost model's file shares the directory)."""
        return sum(
            1
            for n in os.listdir(self.cache_dir)
            if n.endswith(".json") and n != CostModel.FILENAME
        )
