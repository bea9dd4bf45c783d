"""Adaptive portfolio scheduling: cost ordering, deadlines, cancellation.

The paper runs one heuristic instance per schedule on one machine each; on a
shared pool the order in which configurations hit the workers matters.  This
module provides the three scheduling ingredients of the portfolio engine:

:class:`CostModel`
    remembers how long each configuration took on a given protocol
    (persisted as ``costs.json`` in the cache directory, fed from measured
    worker wall-clock or trace timings) and orders the queue cheapest-first.
    Unknown configs keep their portfolio order *after* the known ones — the
    default portfolio already leads with the paper's preferred schedule.

:class:`CancelToken`
    a cooperative cancellation handle combining the event a worker sets
    when a ``cancel`` frame arrives (a winner verified, or the race was
    cancelled) with a per-job soft deadline.  The heuristic polls
    ``is_set()`` at pass/rank boundaries, so losers stop burning CPU long
    before the supervisor terminates them, and a config over budget yields
    its worker back to the queue.
"""

from __future__ import annotations

import json
import os
import time
from typing import Sequence

from .storeio import atomic_write_json


class CancelToken:
    """Duck-typed cancellation token for ``add_strong_convergence(cancel=...)``.

    Fires when ``event`` is set (the worker received a ``cancel`` frame) or
    when ``deadline`` (an absolute ``time.monotonic()`` instant) passes.
    """

    def __init__(self, event=None, deadline: float | None = None):
        self.event = event
        self.deadline = deadline

    @classmethod
    def with_budget(cls, event=None, budget: float | None = None) -> "CancelToken":
        """A token whose deadline is ``budget`` seconds from now."""
        deadline = None if budget is None else time.monotonic() + budget
        return cls(event=event, deadline=deadline)

    def is_set(self) -> bool:
        if self.event is not None and self.event.is_set():
            return True
        return self.deadline is not None and time.monotonic() > self.deadline

    def reason(self) -> str:
        if self.event is not None and self.event.is_set():
            return "cancelled"
        if self.deadline is not None and time.monotonic() > self.deadline:
            return "deadline"
        return "not-cancelled"


class CostModel:
    """Observed per-config wall-clock, keyed by protocol fingerprint.

    ``costs.json`` schema::

        {"<fingerprint>": {"<config.describe()>": seconds, ...}, ...}

    Estimates fall back to ``None`` (unknown) rather than guessing; the
    scheduler keeps unknown configs in their given order.
    """

    FILENAME = "costs.json"

    def __init__(self, path: str | os.PathLike | None = None):
        self.path = None if path is None else os.fspath(path)
        self._data: dict[str, dict[str, float]] = {}
        if self.path is not None and os.path.exists(self.path):
            try:
                with open(self.path) as handle:
                    loaded = json.load(handle)
                if isinstance(loaded, dict):
                    self._data = {
                        str(fp): {str(k): float(v) for k, v in entry.items()}
                        for fp, entry in loaded.items()
                        if isinstance(entry, dict)
                    }
            except (OSError, json.JSONDecodeError, ValueError):
                self._data = {}

    @classmethod
    def in_dir(cls, directory: str | os.PathLike | None) -> "CostModel":
        if directory is None:
            return cls(None)
        return cls(os.path.join(os.fspath(directory), cls.FILENAME))

    # ------------------------------------------------------------------
    def estimate(self, fingerprint: str, config) -> float | None:
        return self._data.get(fingerprint, {}).get(config.describe())

    def observe(self, fingerprint: str, config, seconds: float) -> None:
        entry = self._data.setdefault(fingerprint, {})
        key = config.describe()
        # exponential smoothing so one noisy run does not dominate
        prev = entry.get(key)
        entry[key] = seconds if prev is None else 0.5 * prev + 0.5 * seconds

    def save(self) -> None:
        """Merge into the on-disk file instead of last-writer-wins: two
        concurrent sweeps (or a sweep racing a resume) each keep their own
        observations, with this model's values winning per (fingerprint,
        config) key.  The write itself goes through
        :func:`~repro.parallel.storeio.atomic_write_json` — writer-unique
        temp name plus atomic rename — so concurrent multi-host sweeps
        sharing one store can never interleave bytes in a common temp file
        or expose a half-written ``costs.json``."""
        if self.path is None:
            return
        merged = CostModel(self.path)._data  # reload what others wrote
        for fingerprint, entry in self._data.items():
            merged.setdefault(fingerprint, {}).update(entry)
        self._data = merged
        atomic_write_json(self.path, merged)


def order_portfolio(
    configs: Sequence, fingerprint: str, cost_model: CostModel | None
) -> list:
    """Cheapest-known-first stable ordering of the configuration queue.

    Configs with an observed cost sort ascending by it and go first (fast
    probable winners reach workers early, so the cancellation event fires
    sooner); configs never seen keep their original portfolio order behind
    them.
    """
    if cost_model is None:
        return list(configs)
    known: list[tuple[float, int]] = []
    unknown: list[int] = []
    for index, config in enumerate(configs):
        cost = cost_model.estimate(fingerprint, config)
        if cost is None:
            unknown.append(index)
        else:
            known.append((cost, index))
    known.sort()
    return [configs[i] for _, i in known] + [configs[i] for i in unknown]
