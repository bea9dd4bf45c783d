"""Fault-tolerance tests for the supervised portfolio runtime (PR 4).

Every failure mode is injected deterministically through
:class:`repro.faults.FaultPlan` rather than waiting for production to
produce it: a worker that ``os._exit(1)``\\ s mid-run, a worker that ignores
its ``CancelToken`` until the watchdog kills it, a truncated cache JSON
that gets quarantined, and a ``--resume`` run that replays stored
outcomes instead of re-running them.
"""

import dataclasses
import json
import os

import pytest

from repro.core.exceptions import PortfolioError
from repro.core.heuristic import HeuristicOptions
from repro.core.synthesizer import SynthesisConfig, default_portfolio
from repro.faults import runtime as fault_runtime
from repro.faults.runtime import FAULT_PLAN_ENV, FaultPlan, _spec_matches
from repro.parallel import (
    SynthesisCache,
    config_key,
    protocol_fingerprint,
    synthesize_parallel,
)
from repro.parallel.cache import CACHE_SCHEMA
from repro.parallel.pool import ParallelOutcome, _pick_best
from repro.parallel.scheduler import CostModel
from repro.protocols import token_ring
from repro.trace.report import summarize, trace_report
from repro.verify import check_solution

CFG_A = SynthesisConfig((1, 2, 3, 0), HeuristicOptions())
CFG_B = SynthesisConfig((0, 1, 2, 3), HeuristicOptions())


def _counters(trace_dir):
    """The parent's portfolio counters (what stsyn trace-report renders)."""
    return summarize([os.path.join(trace_dir, "portfolio.jsonl")]).counters


def _verifies(winner):
    protocol, invariant = token_ring(4, 3)
    rebuilt = protocol.with_groups(winner.pss_groups)
    return check_solution(protocol, rebuilt, invariant).ok


class TestFaultPlan:
    def test_env_round_trip(self, monkeypatch):
        plan = FaultPlan(crash_worker_at="worker.start@mode=batch", max_fires=3)
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_env())
        assert FaultPlan.from_env() == plan

    def test_unset_env_is_none(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        assert FaultPlan.from_env() is None

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "{not json")
        with pytest.raises(ValueError):
            FaultPlan.from_env()
        monkeypatch.setenv(FAULT_PLAN_ENV, '{"no_such_knob": 1}')
        with pytest.raises(ValueError):
            FaultPlan.from_env()

    def test_spec_matching(self):
        desc = "schedule=(1, 2, 3, 0) mode=batch"
        assert _spec_matches("worker.start@mode=batch", "worker.start", desc)
        assert not _spec_matches("pass.1@mode=batch", "worker.start", desc)
        assert _spec_matches("mode=batch", "pass.3", desc)  # bare: any site
        assert not _spec_matches("mode=sequential", "worker.start", desc)
        assert not _spec_matches(None, "worker.start", desc)

    def test_network_knobs_env_round_trip(self, monkeypatch):
        plan = FaultPlan(
            drop_frame="result@mode=batch",
            delay_frame="heartbeat@mode=batch",
            delay_frame_seconds=0.5,
            duplicate_result="mode=batch",
            partition="heartbeat@mode=batch",
            partition_seconds=4.0,
            stale_lease="mode=batch",
            stale_lease_seconds=1.5,
            max_fires=2,
        )
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_env())
        assert FaultPlan.from_env() == plan


class TestNetworkKnobs:
    """Worker-side transport hooks: spec matching, arming, partitions."""

    DESC = "schedule=(1, 2, 3, 0) mode=batch"

    @pytest.fixture(autouse=True)
    def _clean_runtime(self):
        yield
        fault_runtime.install_fault_plan(None)
        fault_runtime.set_fault_context("", 0)
        fault_runtime.heal_partition()

    def _arm(self, plan, attempt=0):
        fault_runtime.install_fault_plan(plan)
        fault_runtime.set_fault_context(self.DESC, attempt)

    def test_drop_frame_matches_kind_and_config(self):
        self._arm(FaultPlan(drop_frame="result@mode=batch"))
        assert fault_runtime.should_drop_frame("result")
        assert not fault_runtime.should_drop_frame("heartbeat")
        self._arm(FaultPlan(drop_frame="result@mode=sequential"))
        assert not fault_runtime.should_drop_frame("result")

    def test_knobs_disarm_after_max_fires(self):
        """A retried attempt must not re-trip one-shot network faults."""
        plan = FaultPlan(
            drop_frame="result@mode=batch",
            duplicate_result="mode=batch",
            stale_lease="mode=batch",
            stale_lease_seconds=9.0,
            max_fires=1,
        )
        self._arm(plan, attempt=0)
        assert fault_runtime.should_drop_frame("result")
        assert fault_runtime.should_duplicate_result()
        assert fault_runtime.stale_lease_delay() == 9.0
        self._arm(plan, attempt=1)  # retry: past max_fires, all quiet
        assert not fault_runtime.should_drop_frame("result")
        assert not fault_runtime.should_duplicate_result()
        assert fault_runtime.stale_lease_delay() == 0.0

    def test_frame_delay_only_for_matching_kind(self):
        self._arm(FaultPlan(delay_frame="heartbeat@mode=batch",
                            delay_frame_seconds=0.25))
        assert fault_runtime.frame_delay("heartbeat") == 0.25
        assert fault_runtime.frame_delay("result") == 0.0

    def test_partition_black_holes_every_frame_once_tripped(self):
        self._arm(FaultPlan(partition="heartbeat@mode=batch",
                            partition_seconds=30.0))
        assert not fault_runtime.partition_active()
        # a result frame does not trip a heartbeat-targeted partition
        assert not fault_runtime.should_drop_frame("result")
        # the first heartbeat does — and then *everything* is dropped
        assert fault_runtime.should_drop_frame("heartbeat")
        assert fault_runtime.partition_active()
        assert fault_runtime.should_drop_frame("result")
        fault_runtime.heal_partition()
        assert not fault_runtime.partition_active()
        assert not fault_runtime.should_drop_frame("result")


class TestCrashIsolation:
    def test_crashed_worker_is_requeued_and_race_completes(self, tmp_path):
        """A worker that os._exit(1)s loses only its own config: the config
        is retried with backoff and the race still produces a winner."""
        slow = SynthesisConfig(
            (0, 1, 2, 3), HeuristicOptions(stall_seconds=1.5)
        )
        plan = FaultPlan(crash_worker_at="worker.start@schedule=(1, 2, 3, 0)")
        winner, completed = synthesize_parallel(
            token_ring,
            (4, 3),
            configs=[CFG_A, slow],
            n_workers=2,
            fault_plan=plan,
            retry_backoff=0.05,
            cancel_grace=0.5,
            trace_dir=tmp_path,
        )
        assert winner.success and _verifies(winner)
        counters = _counters(tmp_path)
        assert counters.get("portfolio.worker_crashes", 0) >= 1
        assert counters.get("portfolio.retries", 0) >= 1

    def test_crash_at_pass_boundary(self, tmp_path):
        """The pass-boundary hook crashes a worker mid-run, after the shared
        precompute was already consumed."""
        plan = FaultPlan(crash_worker_at="pass.1@schedule=(1, 2, 3, 0)")
        winner, _ = synthesize_parallel(
            token_ring,
            (4, 3),
            configs=[CFG_A],
            n_workers=1,
            fault_plan=plan,
            retry_backoff=0.05,
            trace_dir=tmp_path,
        )
        assert winner.success and _verifies(winner)
        assert winner.retries == 1
        assert _counters(tmp_path).get("portfolio.worker_crashes", 0) == 1

    def test_retry_exhaustion_records_crashed_outcome(self, tmp_path):
        """A config that crashes on every attempt settles as
        ParallelOutcome(crashed=True, retries=N) without killing the race."""
        plan = FaultPlan(
            crash_worker_at="worker.start@schedule=(1, 2, 3, 0)", max_fires=99
        )
        # the competitor stalls so the race is still live when CFG_A's last
        # retry dies — a config that merely loses the race is dropped, not
        # recorded as crashed
        slow = SynthesisConfig(
            (0, 1, 2, 3), HeuristicOptions(stall_seconds=1.5)
        )
        winner, completed = synthesize_parallel(
            token_ring,
            (4, 3),
            configs=[CFG_A, slow],
            n_workers=2,
            fault_plan=plan,
            max_retries=1,
            retry_backoff=0.05,
            cancel_grace=0.5,
            trace_dir=tmp_path,
        )
        # the slow config still wins even though CFG_A crashed out completely
        assert winner.success and winner.config.describe() == slow.describe()
        crashed = [o for o in completed if o.crashed]
        assert len(crashed) == 1
        assert crashed[0].retries == 1
        assert not crashed[0].success
        assert crashed[0].remaining_deadlocks == -1
        assert _counters(tmp_path).get("portfolio.worker_crashes", 0) == 2


class TestWatchdog:
    def test_hung_worker_is_reaped_and_retried(self, tmp_path):
        """A worker that ignores its CancelToken (sleeps through every pass
        boundary) is terminated by the hard-deadline watchdog; the retry
        attempt does not hang and wins."""
        plan = FaultPlan(
            hang_worker_at="worker.start@schedule=(1, 2, 3, 0)",
            hang_seconds=30.0,
        )
        winner, _ = synthesize_parallel(
            token_ring,
            (4, 3),
            configs=[CFG_A],
            n_workers=1,
            fault_plan=plan,
            hard_deadline=0.5,
            retry_backoff=0.05,
            cancel_grace=0.5,
            trace_dir=tmp_path,
        )
        assert winner.success and _verifies(winner)
        assert winner.retries == 1
        counters = _counters(tmp_path)
        assert counters.get("portfolio.watchdog_kills", 0) == 1
        assert counters.get("portfolio.retries", 0) == 1
        assert counters.get("portfolio.worker_crashes", 0) == 0

    def test_stall_credit_spares_slow_but_honest_workers(self, tmp_path):
        """The watchdog's effective limit is hard_deadline + stall_seconds:
        a config legitimately stalled (the paper's slow machine) is not
        killed even though its wall-clock exceeds the hard deadline."""
        slow = SynthesisConfig(
            (1, 2, 3, 0), HeuristicOptions(stall_seconds=1.0)
        )
        winner, _ = synthesize_parallel(
            token_ring,
            (4, 3),
            configs=[slow],
            n_workers=1,
            hard_deadline=0.5,
            trace_dir=tmp_path,
        )
        assert winner.success
        assert _counters(tmp_path).get("portfolio.watchdog_kills", 0) == 0


class TestCombinedAcceptance:
    def test_race_survives_one_crash_and_one_hang(self, tmp_path):
        """ISSUE 4 acceptance: the token-ring race completes with a correct
        winner while a FaultPlan kills one worker and hangs another; the
        crash is requeued with backoff, the hang is reaped by the watchdog,
        and the counters surface in stsyn trace-report."""
        crash_cfg = SynthesisConfig(
            (1, 2, 3, 0), HeuristicOptions(stall_seconds=1.0)
        )
        hang_cfg = SynthesisConfig((0, 1, 2, 3), HeuristicOptions())
        normal = SynthesisConfig(
            (2, 3, 0, 1), HeuristicOptions(stall_seconds=1.5)
        )
        plan = FaultPlan(
            crash_worker_at="worker.start@schedule=(1, 2, 3, 0)",
            hang_worker_at="worker.start@schedule=(0, 1, 2, 3)",
            hang_seconds=30.0,
        )
        winner, completed = synthesize_parallel(
            token_ring,
            (4, 3),
            configs=[crash_cfg, hang_cfg, normal],
            n_workers=3,
            fault_plan=plan,
            hard_deadline=1.0,
            retry_backoff=0.05,
            cancel_grace=0.5,
            trace_dir=tmp_path,
        )
        assert winner.success and _verifies(winner)
        counters = _counters(tmp_path)
        assert counters.get("portfolio.worker_crashes", 0) >= 1
        assert counters.get("portfolio.watchdog_kills", 0) >= 1
        assert counters.get("portfolio.retries", 0) >= 2
        # the counters render in the trace-report Portfolio table
        report = trace_report([os.path.join(tmp_path, "portfolio.jsonl")])
        assert "worker crashes" in report
        assert "watchdog kills" in report


class TestCacheHardening:
    def _cold_run(self, cache_dir, **kwargs):
        return synthesize_parallel(
            token_ring, (4, 3), configs=[CFG_A], n_workers=1,
            cache_dir=cache_dir, **kwargs,
        )

    def test_truncated_cache_entry_is_quarantined(self, tmp_path):
        winner, _ = self._cold_run(tmp_path)
        assert winner.success
        fp = protocol_fingerprint(*token_ring(4, 3))
        path = os.path.join(tmp_path, config_key(fp, CFG_A) + ".json")
        with open(path) as handle:
            payload = handle.read()
        with open(path, "w") as handle:
            handle.write(payload[: len(payload) // 2])  # torn write
        warm, _ = self._cold_run(tmp_path)
        assert warm.success and not warm.cached  # recomputed, not trusted
        assert os.path.exists(path + ".corrupt")
        assert os.path.exists(path)  # fresh entry rewritten after the re-run

    def test_fault_plan_corrupts_cache_entry(self, tmp_path):
        """The corrupt_cache_entry knob leaves a torn entry behind; the next
        sweep quarantines it instead of crashing or trusting it."""
        plan = FaultPlan(corrupt_cache_entry="schedule=(1, 2, 3, 0)")
        winner, _ = self._cold_run(tmp_path, fault_plan=plan)
        assert winner.success
        fp = protocol_fingerprint(*token_ring(4, 3))
        path = os.path.join(tmp_path, config_key(fp, CFG_A) + ".json")
        with open(path) as handle, pytest.raises(json.JSONDecodeError):
            json.load(handle)
        warm, _ = self._cold_run(tmp_path)
        assert warm.success and not warm.cached
        assert os.path.exists(path + ".corrupt")

    def test_race_fault_plan_is_not_installed_process_wide(
        self, tmp_path, monkeypatch
    ):
        """A race applies its own plan's parent-side faults and leaves the
        process plan alone, so concurrent races never swap plans."""
        process_plan = FaultPlan(corrupt_cache_entry="no-such-config")
        race_plan = FaultPlan(corrupt_cache_entry="schedule=(1, 2, 3, 0)")
        seen = []
        original_put = SynthesisCache.put

        def put(self, *args, **kwargs):
            seen.append(fault_runtime.active_fault_plan())
            return original_put(self, *args, **kwargs)

        monkeypatch.setattr(SynthesisCache, "put", put)
        fault_runtime.install_fault_plan(process_plan)
        try:
            winner, _ = self._cold_run(tmp_path, fault_plan=race_plan)
            assert fault_runtime.active_fault_plan() is process_plan
        finally:
            fault_runtime.install_fault_plan(None)
        assert winner.success
        assert seen and all(plan is process_plan for plan in seen)
        fp = protocol_fingerprint(*token_ring(4, 3))
        path = os.path.join(tmp_path, config_key(fp, CFG_A) + ".json")
        with open(path) as handle, pytest.raises(json.JSONDecodeError):
            json.load(handle)

    def test_cached_winner_is_reverified(self, tmp_path):
        """A cache entry that parses but whose solution no longer verifies
        (bit rot, wrong file copied in) is quarantined and recomputed."""
        winner, _ = self._cold_run(tmp_path)
        assert winner.success
        fp = protocol_fingerprint(*token_ring(4, 3))
        path = os.path.join(tmp_path, config_key(fp, CFG_A) + ".json")
        with open(path) as handle:
            record = json.load(handle)
        protocol, _ = token_ring(4, 3)
        # claim the *input* protocol's groups are the solution: valid JSON,
        # wrong answer (no recovery was added, deadlocks remain)
        record["pss_groups"] = [sorted(g) for g in protocol.groups]
        with open(path, "w") as handle:
            json.dump(record, handle)
        warm, _ = self._cold_run(tmp_path)
        assert warm.success and not warm.cached
        assert _verifies(warm)
        assert os.path.exists(path + ".corrupt")

    def test_cost_model_merges_on_save(self, tmp_path):
        """Two models sharing costs.json merge instead of last-writer-wins."""
        path = str(tmp_path / "costs.json")
        first, second = CostModel(path), CostModel(path)
        first.observe("fp", CFG_A, 1.0)
        first.save()
        second.observe("fp", CFG_B, 2.0)
        second.save()  # used to clobber first's entry
        reloaded = CostModel(path)
        assert reloaded.estimate("fp", CFG_A) == pytest.approx(1.0)
        assert reloaded.estimate("fp", CFG_B) == pytest.approx(2.0)


def _entry(cache_dir, config):
    """The stored cache record for one token_ring(4, 3) config."""
    fp = protocol_fingerprint(*token_ring(4, 3))
    with open(os.path.join(cache_dir, config_key(fp, config) + ".json")) as fh:
        return json.load(fh)


class TestJournalAndResume:
    def test_cache_entry_round_trip_and_bad_entries(self, tmp_path):
        protocol, invariant = token_ring(4, 3)
        fp = protocol_fingerprint(protocol, invariant)
        cache = SynthesisCache(tmp_path)
        failed = ParallelOutcome(
            config=CFG_A, success=False, pss_groups=None,
            remaining_deadlocks=3, timers={}, duration=0.5,
        )
        crashed = ParallelOutcome(
            config=CFG_B, success=False, pss_groups=None,
            remaining_deadlocks=-1, timers={}, crashed=True, retries=2,
        )
        assert cache.put(fp, failed) and cache.put(fp, crashed)
        assert _entry(tmp_path, CFG_A)["status"] == "done"
        assert _entry(tmp_path, CFG_B)["status"] == "crashed"
        # a late crash marker never replaces a stored answer
        late = dataclasses.replace(crashed, config=CFG_A)
        assert cache.put(fp, late) is None
        assert _entry(tmp_path, CFG_A)["status"] == "done"

        hit = cache.get(fp, CFG_A, protocol, invariant)
        assert hit.cached and hit.remaining_deadlocks == 3
        assert hit.duration == 0.5
        # a crashed-out entry answers only a resume
        assert cache.get(fp, CFG_B, protocol, invariant) is None
        replayed = cache.get(fp, CFG_B, protocol, invariant, resume=True)
        assert replayed.resumed and not replayed.cached
        assert replayed.crashed and replayed.retries == 2

        # a truncated entry (a kill mid-write) is quarantined, not fatal
        path = os.path.join(tmp_path, config_key(fp, CFG_A) + ".json")
        with open(path, "w") as handle:
            handle.write('{"schema": %d, "status": "done", "succ' % CACHE_SCHEMA)
        assert cache.get(fp, CFG_A, protocol, invariant, resume=True) is None
        assert os.path.exists(path + ".corrupt") and not os.path.exists(path)

    def test_wrong_schema_entry_is_a_miss(self, tmp_path):
        protocol, invariant = token_ring(4, 3)
        fp = protocol_fingerprint(protocol, invariant)
        path = os.path.join(tmp_path, config_key(fp, CFG_A) + ".json")
        with open(path, "w") as handle:
            json.dump({"schema": 999, "status": "done", "success": False}, handle)
        cache = SynthesisCache(tmp_path)
        assert cache.get(fp, CFG_A, protocol, invariant, resume=True) is None
        # staleness, not corruption: the entry stays where it is
        assert os.path.exists(path) and cache.quarantined == 0

    def test_resume_skips_journaled_configs(self, tmp_path):
        """A sweep killed partway (simulated: run only half the portfolio)
        restarted with --resume re-runs only the unfinished configs."""
        bad = HeuristicOptions(enable_pass2=False, enable_pass3=False)
        all_configs = [
            SynthesisConfig(s, bad)
            for s in [(1, 2, 3, 0), (0, 1, 2, 3), (2, 3, 0, 1), (3, 0, 1, 2)]
        ]
        first, done = synthesize_parallel(
            token_ring, (4, 3), configs=all_configs[:2], n_workers=2,
            cache_dir=tmp_path,
        )
        assert not first.success and len(done) == 2
        assert len(SynthesisCache(tmp_path)) == 2
        assert all(_entry(tmp_path, c)["status"] == "done" for c in all_configs[:2])

        winner, completed = synthesize_parallel(
            token_ring, (4, 3), configs=all_configs, n_workers=2,
            cache_dir=tmp_path, resume=True, trace_dir=tmp_path / "traces",
        )
        assert len(completed) == 4
        assert sum(1 for o in completed if o.resumed) == 2
        counters = _counters(tmp_path / "traces")
        assert counters.get("portfolio.resume_skips", 0) == 2
        # best failure aggregates resumed and fresh outcomes alike
        assert winner.remaining_deadlocks == min(
            o.remaining_deadlocks for o in completed
        )

    def test_resume_skips_crashed_out_config(self, tmp_path):
        """A config that exhausted its retries is stored as crashed and is
        NOT re-run on resume (it would only crash again)."""
        plan = FaultPlan(
            crash_worker_at="worker.start@schedule=(1, 2, 3, 0)", max_fires=99
        )
        first, _ = synthesize_parallel(
            token_ring, (4, 3), configs=[CFG_A], n_workers=1,
            fault_plan=plan, max_retries=1, retry_backoff=0.05,
            cache_dir=tmp_path,
        )
        assert first.crashed and first.retries == 1
        assert _entry(tmp_path, CFG_A)["status"] == "crashed"
        resumed, completed = synthesize_parallel(
            token_ring, (4, 3), configs=[CFG_A], n_workers=1,
            fault_plan=plan, max_retries=1, cache_dir=tmp_path,
            resume=True, trace_dir=tmp_path / "traces",
        )
        assert resumed.crashed and resumed.resumed
        counters = _counters(tmp_path / "traces")
        assert counters.get("portfolio.worker_crashes", 0) == 0  # no re-run
        assert counters.get("portfolio.resume_skips", 0) == 1

    def test_fresh_run_reruns_crashed_entry(self, tmp_path):
        """Without resume=True, a crashed-out entry from an earlier sweep is
        not replayed: the config re-runs and its entry becomes ``done``."""
        plan = FaultPlan(
            crash_worker_at="worker.start@schedule=(1, 2, 3, 0)", max_fires=99
        )
        first, _ = synthesize_parallel(
            token_ring, (4, 3), configs=[CFG_A], n_workers=1,
            fault_plan=plan, max_retries=0, cache_dir=tmp_path,
        )
        assert first.crashed
        assert _entry(tmp_path, CFG_A)["status"] == "crashed"
        winner, _ = synthesize_parallel(
            token_ring, (4, 3), configs=[CFG_A], n_workers=1,
            cache_dir=tmp_path, trace_dir=tmp_path / "traces",
        )
        assert winner.success and not winner.cached and not winner.resumed
        assert _counters(tmp_path / "traces").get("portfolio.cache_misses") == 1
        assert _entry(tmp_path, CFG_A)["status"] == "done"

    def test_resume_requires_cache_dir(self):
        with pytest.raises(ValueError):
            synthesize_parallel(
                token_ring, (4, 3), configs=[CFG_A], resume=True
            )


class TestSatellites:
    def test_pick_best_raises_portfolio_error_when_empty(self):
        with pytest.raises(PortfolioError):
            _pick_best([])

    def test_pick_best_prefers_finished_over_crashed(self):
        crashed = ParallelOutcome(
            config=CFG_A, success=False, pss_groups=None,
            remaining_deadlocks=-1, timers={}, crashed=True,
        )
        finished = ParallelOutcome(
            config=CFG_B, success=False, pss_groups=None,
            remaining_deadlocks=7, timers={},
        )
        assert _pick_best([crashed, finished]) is finished
        assert _pick_best([crashed]) is crashed

    def test_stale_worker_traces_removed_before_race(self, tmp_path):
        """worker_*.jsonl files from a previous run in the same trace_dir
        must not be merged into this run's merged.jsonl."""
        stale = tmp_path / "worker_99.jsonl"
        stale.write_text('{"type": "meta", "stale": true}\n')
        winner, _ = synthesize_parallel(
            token_ring, (4, 3), configs=[CFG_A], n_workers=1,
            trace_dir=tmp_path,
        )
        assert winner.success
        assert not stale.exists()
        merged = (tmp_path / "merged.jsonl").read_text()
        assert "worker_99" not in merged

    def test_drop_trace_file_fault(self, tmp_path):
        """Losing a worker trace (full disk, dead node) must not break the
        merge: the file is dropped and merged.jsonl still renders."""
        plan = FaultPlan(drop_trace_file="worker_0")
        winner, _ = synthesize_parallel(
            token_ring, (4, 3), configs=[CFG_A], n_workers=1,
            fault_plan=plan, trace_dir=tmp_path,
        )
        assert winner.success
        assert not os.path.exists(tmp_path / "worker_0.jsonl")
        assert "Trace spans" in trace_report([tmp_path / "merged.jsonl"])

    def test_shared_memory_released_when_race_setup_fails(self, monkeypatch):
        """SharedRankArray.unlink must run even when the supervised race
        itself never starts (spawn mode), so /dev/shm segments never leak."""
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        import repro.parallel.pool as pool_mod

        def boom(self):
            raise RuntimeError("injected: race setup failed")

        monkeypatch.setattr(pool_mod._Supervisor, "run", boom)
        before = set(os.listdir("/dev/shm"))
        with pytest.raises(RuntimeError, match="injected"):
            synthesize_parallel(
                token_ring, (4, 3), configs=[CFG_A], n_workers=1,
                start_method="spawn",
            )
        leaked = set(os.listdir("/dev/shm")) - before
        assert not leaked

    def test_env_driven_fault_plan_is_picked_up(self, tmp_path, monkeypatch):
        """REPRO_FAULT_PLAN drives the race without any code-level plan —
        the CI fault-smoke job relies on this."""
        plan = FaultPlan(crash_worker_at="worker.start@schedule=(1, 2, 3, 0)")
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_env())
        winner, _ = synthesize_parallel(
            token_ring, (4, 3), configs=[CFG_A], n_workers=1,
            retry_backoff=0.05, trace_dir=tmp_path,
        )
        assert winner.success and winner.retries == 1
        assert _counters(tmp_path).get("portfolio.worker_crashes", 0) == 1

    def test_cli_resume_requires_cache_dir(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--resume requires --cache-dir"):
            main([
                "synthesize", "token-ring", "-k", "4", "-d", "3",
                "--workers", "1", "--resume",
            ])
