"""Tests for the shared-precompute portfolio engine (PR 3).

Covers the four scheduler behaviours the issue pins down — cooperative
cancellation at pass/rank boundaries, oversubscribed portfolios, the
on-disk cache round trip, and cross-engine agreement of the parallel winner
with a fresh serial run — plus the spawn start-method fallback and the
precompute-equivalence invariant (sharing preprocessing must not change any
answer).
"""

import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.core import HeuristicOptions, add_strong_convergence
from repro.core.exceptions import SynthesisCancelled
from repro.core.synthesizer import SynthesisConfig, default_portfolio, synthesize
from repro.parallel import (
    CancelToken,
    CostModel,
    SynthesisCache,
    order_portfolio,
    precompute_portfolio,
    protocol_fingerprint,
    synthesize_parallel,
)
from repro.parallel.precompute import SharedRankArray
from repro.protocols import matching, token_ring
from repro.verify import check_solution


class FakeToken:
    """Trips after ``fire_after`` polls; records how often it was polled."""

    def __init__(self, fire_after: int):
        self.fire_after = fire_after
        self.polls = 0
        self.reason = "cancelled"

    def is_set(self) -> bool:
        self.polls += 1
        return self.polls > self.fire_after


class TestPrecompute:
    def test_precompute_matches_fresh_run(self):
        """Sharing the schedule-independent work must not change the result."""
        protocol, invariant = token_ring(4, 3)
        pre = precompute_portfolio(protocol, invariant)
        for config in default_portfolio(4)[:4]:
            fresh = add_strong_convergence(
                protocol, invariant,
                schedule=config.schedule, options=config.options,
            )
            shared = add_strong_convergence(
                protocol, invariant,
                schedule=config.schedule, options=config.options,
                precompute=pre,
            )
            assert shared.success == fresh.success
            assert shared.protocol.groups == fresh.protocol.groups
            assert shared.pass_completed == fresh.pass_completed

    def test_precompute_skips_ranking_recompute(self):
        protocol, invariant = token_ring(4, 3)
        pre = precompute_portfolio(protocol, invariant)
        result = add_strong_convergence(protocol, invariant, precompute=pre)
        assert result.success
        assert result.stats.counters.get("precompute_reused") == 1
        assert "ranking" not in result.stats.timers
        assert result.ranking is pre.ranking

    def test_shared_rank_array_round_trip(self):
        protocol, invariant = token_ring(4, 3)
        pre = precompute_portfolio(protocol, invariant)
        shared = SharedRankArray.create(pre.ranking.rank)
        try:
            attached = SharedRankArray.attach(
                shared.name, shared.shape, shared.dtype
            )
            try:
                assert (attached.asarray() == pre.ranking.rank).all()
                assert not attached.asarray().flags.writeable
            finally:
                attached.close()
        finally:
            shared.close()
            shared.unlink()


class TestCooperativeCancellation:
    def test_preset_token_cancels_before_pass1(self):
        protocol, invariant = token_ring(4, 3)
        with pytest.raises(SynthesisCancelled):
            add_strong_convergence(
                protocol, invariant, cancel=FakeToken(fire_after=0)
            )

    def test_token_fires_mid_pass_at_rank_boundary(self):
        """The token is polled repeatedly (pass + rank boundaries), so a
        token firing after N polls stops the run mid-pass."""
        protocol, invariant = token_ring(4, 3)
        token = FakeToken(fire_after=2)
        with pytest.raises(SynthesisCancelled):
            add_strong_convergence(protocol, invariant, cancel=token)
        assert token.polls >= 3

    def test_uncancelled_token_is_harmless(self):
        protocol, invariant = token_ring(4, 3)
        result = add_strong_convergence(
            protocol, invariant, cancel=FakeToken(fire_after=10**9)
        )
        assert result.success

    def test_cancel_token_deadline(self):
        token = CancelToken.with_budget(budget=0.0)
        time.sleep(0.01)
        assert token.is_set()
        assert token.reason() == "deadline"
        assert not CancelToken.with_budget(budget=60.0).is_set()
        assert CancelToken().is_set() is False

    def test_stalled_run_observes_cancellation(self):
        """A stalled run (the paper's slow machine) exits via the token
        instead of sleeping out its stall."""
        protocol, invariant = token_ring(4, 3)
        t0 = time.monotonic()
        with pytest.raises(SynthesisCancelled):
            add_strong_convergence(
                protocol,
                invariant,
                options=HeuristicOptions(stall_seconds=30.0),
                cancel=FakeToken(fire_after=3),
            )
        assert time.monotonic() - t0 < 5.0

    def test_soft_deadline_returns_cancelled_outcome(self):
        slow = SynthesisConfig(
            (1, 2, 3, 0), HeuristicOptions(stall_seconds=10.0)
        )
        t0 = time.monotonic()
        winner, completed = synthesize_parallel(
            token_ring, (4, 3), configs=[slow], n_workers=1, soft_deadline=0.2
        )
        assert time.monotonic() - t0 < 8.0
        assert not winner.success
        assert winner.cancelled
        assert winner.cancel_reason == "deadline"


class TestOversubscribedPortfolio:
    def test_more_configs_than_workers(self):
        configs = default_portfolio(4)  # 8 configs
        winner, completed = synthesize_parallel(
            token_ring, (4, 3), configs=configs, n_workers=2
        )
        assert len(configs) > 2
        assert winner.success
        protocol, invariant = token_ring(4, 3)
        rebuilt = protocol.with_groups(winner.pss_groups)
        assert check_solution(protocol, rebuilt, invariant).ok

    def test_all_failures_drain_whole_queue(self):
        bad = HeuristicOptions(enable_pass2=False, enable_pass3=False)
        configs = [
            SynthesisConfig(s, bad)
            for s in [(1, 2, 3, 0), (0, 1, 2, 3), (2, 3, 0, 1), (3, 0, 1, 2)]
        ]
        winner, completed = synthesize_parallel(
            token_ring, (4, 3), configs=configs, n_workers=2
        )
        assert not winner.success
        assert len(completed) == 4
        assert winner.remaining_deadlocks == min(
            o.remaining_deadlocks for o in completed
        )


class TestCacheRoundTrip:
    def test_miss_then_hit(self, tmp_path):
        cache_dir = tmp_path / "cache"
        winner, completed = synthesize_parallel(
            token_ring, (4, 3), n_workers=2, cache_dir=cache_dir
        )
        assert winner.success and not winner.cached
        n_entries = len(
            [f for f in os.listdir(cache_dir) if f.endswith(".json")
             and f != "costs.json"]
        )
        assert n_entries >= 1

        warm, warm_completed = synthesize_parallel(
            token_ring, (4, 3), n_workers=2, cache_dir=cache_dir
        )
        assert warm.success and warm.cached
        protocol, invariant = token_ring(4, 3)
        rebuilt = protocol.with_groups(warm.pss_groups)
        assert check_solution(protocol, rebuilt, invariant).ok
        # the cache is deterministic: a second warm run replays the same entry
        warm2, _ = synthesize_parallel(
            token_ring, (4, 3), n_workers=2, cache_dir=cache_dir
        )
        assert warm2.cached
        assert warm2.config.describe() == warm.config.describe()
        assert warm2.pss_groups == warm.pss_groups

    def test_failure_outcomes_are_cached_too(self, tmp_path):
        bad = SynthesisConfig(
            (1, 2, 3, 0),
            HeuristicOptions(enable_pass2=False, enable_pass3=False),
        )
        first, _ = synthesize_parallel(
            token_ring, (4, 3), configs=[bad], n_workers=1,
            cache_dir=tmp_path,
        )
        assert not first.success and not first.cached
        second, _ = synthesize_parallel(
            token_ring, (4, 3), configs=[bad], n_workers=1,
            cache_dir=tmp_path,
        )
        assert not second.success and second.cached
        assert second.remaining_deadlocks == first.remaining_deadlocks

    def test_fingerprint_distinguishes_protocols(self):
        p1, i1 = token_ring(4, 3)
        p2, i2 = token_ring(4, 4)
        p3, i3 = matching(5)
        fps = {
            protocol_fingerprint(p1, i1),
            protocol_fingerprint(p2, i2),
            protocol_fingerprint(p3, i3),
        }
        assert len(fps) == 3
        # deterministic across calls
        assert protocol_fingerprint(p1, i1) == protocol_fingerprint(*token_ring(4, 3))

    def test_cancelled_outcomes_never_cached(self, tmp_path):
        from repro.parallel.pool import ParallelOutcome

        cache = SynthesisCache(tmp_path)
        outcome = ParallelOutcome(
            config=SynthesisConfig((1, 2, 3, 0), HeuristicOptions()),
            success=False,
            pss_groups=None,
            remaining_deadlocks=-1,
            timers={},
            cancelled=True,
        )
        assert cache.put("fp", outcome) is None
        assert len(cache) == 0


class TestCostOrdering:
    def test_observed_costs_reorder_queue(self, tmp_path):
        configs = default_portfolio(4)
        model = CostModel(str(tmp_path / "costs.json"))
        # pretend the last config is by far the cheapest
        model.observe("fp", configs[-1], 0.01)
        model.observe("fp", configs[0], 5.0)
        ordered = order_portfolio(configs, "fp", model)
        assert ordered[0].describe() == configs[-1].describe()
        assert ordered[1].describe() == configs[0].describe()
        # unknown configs keep their relative order behind the known ones
        assert [c.describe() for c in ordered[2:]] == [
            c.describe() for c in configs[1:-1]
        ]

    def test_cost_model_persists(self, tmp_path):
        path = str(tmp_path / "costs.json")
        configs = default_portfolio(4)
        model = CostModel(path)
        model.observe("fp", configs[0], 1.5)
        model.save()
        reloaded = CostModel(path)
        assert reloaded.estimate("fp", configs[0]) == pytest.approx(1.5)
        assert reloaded.estimate("fp", configs[1]) is None

    def test_portfolio_run_records_costs(self, tmp_path):
        synthesize_parallel(
            token_ring, (4, 3), n_workers=2, cache_dir=tmp_path
        )
        costs = json.loads((tmp_path / "costs.json").read_text())
        assert costs  # at least the winner's timing landed
        for entry in costs.values():
            for seconds in entry.values():
                assert seconds >= 0.0


class TestCrossEngineAgreement:
    def test_parallel_winner_agrees_with_serial_run(self):
        """The parallel winner's config, replayed serially, must produce the
        identical protocol, and both must verify."""
        winner, _ = synthesize_parallel(token_ring, (4, 3), n_workers=2)
        assert winner.success
        protocol, invariant = token_ring(4, 3)
        serial = add_strong_convergence(
            protocol,
            invariant,
            schedule=winner.config.schedule,
            options=winner.config.options,
        )
        assert serial.success
        assert [set(g) for g in serial.protocol.groups] == winner.pss_groups
        assert check_solution(protocol, serial.protocol, invariant).ok

    def test_serial_portfolio_shares_precompute(self):
        protocol, invariant = token_ring(4, 3)
        portfolio = synthesize(protocol, invariant)
        assert portfolio.success
        assert portfolio.result.verified
        # every attempt reused the one-shot precompute
        assert portfolio.result.stats.counters.get("precompute_reused") == 1


class TestSpawnFallback:
    def test_spawn_start_method_round_trip(self):
        """The picklable spec + shared-memory rank path (Windows/macOS
        default) produces a verified solution."""
        winner, _ = synthesize_parallel(
            token_ring,
            (4, 3),
            configs=default_portfolio(4)[:2],
            n_workers=2,
            start_method="spawn",
        )
        assert winner.success
        protocol, invariant = token_ring(4, 3)
        rebuilt = protocol.with_groups(winner.pss_groups)
        assert check_solution(protocol, rebuilt, invariant).ok

    def test_unknown_start_method_rejected(self):
        with pytest.raises(ValueError):
            synthesize_parallel(
                token_ring, (4, 3), n_workers=1, start_method="no-such-method"
            )


class TestConcurrentRaces:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_concurrent_races_fork_their_own_precompute(self, monkeypatch):
        """Two races in one process (``stsyn serve`` runs several at once)
        must each fork workers on their own precompute.  Each race's first
        spawn waits at a barrier, so both races have built their
        precompute before either forks."""
        from repro.parallel import WorkerTransport

        barrier = threading.Barrier(2, timeout=60)
        original = WorkerTransport.spawn_local
        waited, lock = set(), threading.Lock()

        def spawn(self):
            with lock:
                first = id(self) not in waited
                waited.add(id(self))
            if first:
                barrier.wait()
            return original(self)

        monkeypatch.setattr(WorkerTransport, "spawn_local", spawn)
        pinned = {
            3: SynthesisConfig((0, 1, 2), HeuristicOptions()),
            4: SynthesisConfig((1, 2, 3, 0), HeuristicOptions()),
        }
        results, errors = {}, []

        def race(k):
            try:
                results[k], _ = synthesize_parallel(
                    token_ring, (k, 3), configs=[pinned[k]], n_workers=1,
                    start_method="fork",
                )
            except Exception as exc:  # surfaced by the asserts below
                errors.append(exc)

        threads = [threading.Thread(target=race, args=(k,)) for k in pinned]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        for k, winner in results.items():
            assert winner.success and winner.config == pinned[k]
            protocol, invariant = token_ring(k, 3)
            rebuilt = protocol.with_groups(winner.pss_groups)
            assert check_solution(protocol, rebuilt, invariant).ok
