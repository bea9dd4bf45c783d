"""The convergence-certificate artifact (schema-versioned JSON).

A :class:`ConvergenceCertificate` is the portable witness a successful
synthesis run leaves behind: instead of re-running full ``check_solution``
reachability, any later consumer (portfolio resume, cache hit, CI) can
validate the certificate in one pass over the transitions leaving ranked
states (:mod:`repro.cert.checker`).

The artifact holds exactly what the soundness argument of Theorems IV.1 /
V.1 needs:

* the **protocol fingerprint** (the same sha256 content hash the on-disk
  memo cache keys on) and a separate **invariant hash**, binding the
  certificate to one ``(p, I)`` pair;
* the **group-id delta** — recovery groups added and input groups removed —
  from which the checker reconstructs ``pss`` and validates
  ``δpss|I = δp|I`` without a transition-set comparison;
* a **ranking function** under which every ``pss`` transition from a ranked
  state strictly decreases (strong mode) or every ranked state keeps at
  least one decreasing successor (weak mode), encoded either as a dense
  per-state array (explicit engine) or as per-rank value-cube lists
  (symbolic engine; a cube is a partial assignment ``var = value``).

Both encodings convert both ways, so a certificate emitted by one engine
checks under the other (the cross-engine equivalence tests rely on this).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from ..protocol.predicate import Predicate
from ..protocol.state_space import StateSpace

#: bump when the serialized certificate layout changes; old certs are rejected
CERT_SCHEMA = 1

#: accepted ranking-function encodings
RANK_ENCODINGS = ("dense", "cubes")


class CertificateError(Exception):
    """Base of every certificate failure (emission, decoding, checking)."""


def invariant_hash(invariant: Predicate) -> str:
    """sha256 of the invariant's state set (its boolean mask bytes)."""
    return hashlib.sha256(invariant.mask.tobytes()).hexdigest()


def literal_var(var, n_vars: int) -> int:
    """The variable index of a rank-cube literal, checked against a
    ``n_vars``-variable space (both checkers decode cubes through this)."""
    if not 0 <= int(var) < n_vars:
        raise CertificateError(
            f"cube literal names variable {var} of a {n_vars}-variable space"
        )
    return int(var)


def _group_id_list(payload, what: str) -> list[tuple[int, int, int]]:
    if not isinstance(payload, list):
        raise CertificateError(f"certificate field {what!r} is not a list")
    try:
        return [(int(a), int(b), int(c)) for a, b, c in payload]
    except (TypeError, ValueError) as exc:
        raise CertificateError(f"malformed group id in {what!r}: {exc}") from exc


@dataclass
class ConvergenceCertificate:
    """A machine-checkable witness of (strong or weak) convergence."""

    fingerprint: str
    invariant_hash: str
    mode: str  # "strong" | "weak"
    engine: str  # provenance only: which engine emitted it
    schedule: tuple[int, ...] | None
    added: list[tuple[int, int, int]]
    removed: list[tuple[int, int, int]]
    max_rank: int
    #: dense per-state rank array (explicit emission), or ``None``
    rank: np.ndarray | None = None
    #: per-rank cube lists (symbolic emission), or ``None``; ``cubes[i]`` is
    #: a list of cubes, each cube a list of ``(var_index, value)`` literals
    #: (a state matches a cube iff it satisfies every literal)
    rank_cubes: list[list[list[tuple[int, int]]]] | None = None
    schema: int = CERT_SCHEMA
    _dense_cache: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def encoding(self) -> str:
        return "dense" if self.rank is not None else "cubes"

    # ------------------------------------------------------------------
    # rank-map decoding
    # ------------------------------------------------------------------
    def dense_rank(self, space: StateSpace) -> np.ndarray:
        """Per-state int32 rank array over ``space`` (both encodings).

        Raises :class:`CertificateError` when the stored map is not a
        partition of the space: wrong length, a state claimed by two
        different ranks, or a state covered by no rank at all.
        """
        if self._dense_cache is not None:
            return self._dense_cache
        if self.rank is not None:
            rank = np.asarray(self.rank, dtype=np.int32)
            if rank.shape != (space.size,):
                raise CertificateError(
                    f"rank array has {rank.shape[0] if rank.ndim == 1 else '?'}"
                    f" entries for a {space.size}-state space"
                )
        else:
            if self.rank_cubes is None:
                raise CertificateError("certificate carries no rank map")
            rank = np.full(space.size, -1, dtype=np.int32)
            assigned = np.zeros(space.size, dtype=bool)
            for level, cubes in enumerate(self.rank_cubes):
                mask = self._cubes_mask(space, cubes)
                clash = mask & assigned
                if clash.any():
                    s = int(np.flatnonzero(clash)[0])
                    raise CertificateError(
                        f"state {space.format_state(s)} is claimed by rank "
                        f"{int(rank[s])} and rank {level}"
                    )
                rank[mask] = level
                assigned |= mask
            if not assigned.all():
                s = int(np.flatnonzero(~assigned)[0])
                raise CertificateError(
                    f"state {space.format_state(s)} is covered by no rank cube"
                )
        self._dense_cache = rank
        return rank

    @staticmethod
    def _cubes_mask(space: StateSpace, cubes) -> np.ndarray:
        """Boolean mask of the states matching any cube in ``cubes``."""
        mask = np.zeros(space.size, dtype=bool)
        for cube in cubes:
            hit = np.ones(space.size, dtype=bool)
            for var, value in cube:
                var = literal_var(var, space.n_vars)
                hit &= space.var_array(var) == int(value)
            mask |= hit
        return mask

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-ready dict (round-trips through :meth:`from_payload`)."""
        if self.rank is not None:
            # the narrowest little-endian dtype the ranks fit keeps the
            # payload (and its decode on every cache-hit re-check) small
            dtype = "<i2" if 0 <= int(self.max_rank) < (1 << 15) else "<i4"
            rank_payload = {
                "encoding": "dense",
                "n": int(self.rank.shape[0]),
                "dtype": dtype,
                "data": base64.b64encode(
                    np.asarray(self.rank, dtype=dtype).tobytes()
                ).decode("ascii"),
            }
        else:
            rank_payload = {
                "encoding": "cubes",
                "levels": [
                    [[[int(v), int(val)] for v, val in cube] for cube in cubes]
                    for cubes in (self.rank_cubes or [])
                ],
            }
        return {
            "schema": self.schema,
            "fingerprint": self.fingerprint,
            "invariant_hash": self.invariant_hash,
            "mode": self.mode,
            "engine": self.engine,
            "schedule": list(self.schedule) if self.schedule is not None else None,
            "added": [list(g) for g in self.added],
            "removed": [list(g) for g in self.removed],
            "max_rank": int(self.max_rank),
            "rank": rank_payload,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ConvergenceCertificate":
        """Decode a payload dict; raises :class:`CertificateError` on any
        structural problem (schema checking proper happens in the checker)."""
        if not isinstance(payload, dict):
            raise CertificateError("certificate payload is not a JSON object")
        try:
            rank_payload = payload["rank"]
            encoding = rank_payload["encoding"]
            if encoding not in RANK_ENCODINGS:
                raise CertificateError(
                    f"unknown rank encoding {encoding!r}"
                )
            rank = None
            rank_cubes = None
            if encoding == "dense":
                dtype = rank_payload.get("dtype", "<i4")
                if dtype not in ("<i2", "<i4"):
                    raise CertificateError(f"unknown rank dtype {dtype!r}")
                raw = base64.b64decode(rank_payload["data"])
                rank = np.frombuffer(raw, dtype=dtype)
                if rank.shape[0] != int(rank_payload["n"]):
                    raise CertificateError("dense rank array length mismatch")
            else:
                rank_cubes = [
                    [
                        [(int(v), int(val)) for v, val in cube]
                        for cube in cubes
                    ]
                    for cubes in rank_payload["levels"]
                ]
            schedule = payload.get("schedule")
            return cls(
                fingerprint=str(payload["fingerprint"]),
                invariant_hash=str(payload["invariant_hash"]),
                mode=str(payload["mode"]),
                engine=str(payload.get("engine", "unknown")),
                schedule=(
                    tuple(int(x) for x in schedule)
                    if schedule is not None
                    else None
                ),
                added=_group_id_list(payload["added"], "added"),
                removed=_group_id_list(payload["removed"], "removed"),
                max_rank=int(payload["max_rank"]),
                rank=rank,
                rank_cubes=rank_cubes,
                schema=int(payload.get("schema", -1)),
            )
        except CertificateError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificateError(f"malformed certificate payload: {exc}") from exc

    def dumps(self) -> str:
        return json.dumps(self.to_payload())

    @classmethod
    def loads(cls, text: str) -> "ConvergenceCertificate":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CertificateError(f"certificate is not valid JSON: {exc}") from exc
        return cls.from_payload(payload)

    def save(self, path: str | os.PathLike, *, fault_plan=None) -> str:
        """Write the certificate to ``path`` (atomic tmp + rename).

        Honours ``fault_plan``'s ``corrupt_certificate`` knob (site
        ``cert.write``, matched against the file name) — the CI drill that
        proves a tampered artifact is rejected downstream.
        """
        from ..faults.runtime import should_corrupt_cert

        path = os.fspath(path)
        payload = self.to_payload()
        if should_corrupt_cert("cert.write", os.path.basename(path), fault_plan):
            payload = tamper_certificate_payload(payload)
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ConvergenceCertificate":
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as exc:
            raise CertificateError(f"cannot read certificate: {exc}") from exc
        return cls.loads(text)


def tamper_certificate_payload(payload: dict) -> dict:
    """Deterministically break a certificate payload's ranking function.

    Used by the ``corrupt_certificate`` fault drills: the mutation keeps the
    payload parseable but moves one top-rank state down to rank 1, so the
    checker must reject it with a concrete non-decreasing counterexample
    transition (the state's successors sit at ranks ``>= 1``).  Falls back
    to an out-of-range rank when the ranking is too shallow to re-rank.
    """
    out = json.loads(json.dumps(payload))  # deep copy, JSON-shaped
    rank_payload = out.get("rank", {})
    max_rank = int(out.get("max_rank", 0))
    if rank_payload.get("encoding") == "dense":
        dtype = rank_payload.get("dtype", "<i4")
        rank = np.frombuffer(
            base64.b64decode(rank_payload["data"]), dtype=dtype
        ).copy()
        top = np.flatnonzero(rank == max_rank)
        if max_rank >= 2 and len(top):
            rank[int(top[0])] = 1
        else:
            ranked = np.flatnonzero(rank > 0)
            if len(ranked):
                rank[int(ranked[0])] = max_rank + 1
        rank_payload["data"] = base64.b64encode(
            rank.astype(dtype).tobytes()
        ).decode("ascii")
    elif rank_payload.get("encoding") == "cubes":
        levels = rank_payload.get("levels", [])
        if max_rank >= 2 and levels and levels[-1]:
            levels[1].append(levels[-1].pop(0))
        elif len(levels) > 1 and levels[1]:
            levels.append([levels[1].pop(0)])
            out["max_rank"] = max_rank + 1
    return out
