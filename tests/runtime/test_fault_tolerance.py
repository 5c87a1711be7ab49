"""Every recovery path yields results bitwise-identical to a clean run.

The fault-injection harness (:mod:`repro.runtime.faults`) makes
trials raise, hang, kill their worker, or return corrupt payloads on
designated attempts; these tests assert the runner isolates the
blast radius (siblings keep their results), recovers per policy
(retry, timeout, pool replacement, resume), and — the load-bearing
property — that the recovered campaign equals a clean serial one
bit for bit.
"""

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.runtime import runner as runner_module
from repro.runtime import shardpool
from repro.runtime import (
    FaultPlan,
    ResultCache,
    RetryPolicy,
    RunReport,
    Trial,
    TrialJournal,
    TrialOutcome,
    TrialRunner,
    results_equal,
)
from repro.runtime.faults import FaultSpec, InjectedFault, plan_from_env
from repro.runtime.runner import TrialTimeoutError, terminate_executor


def seeded_trial(seed=None):
    """Deterministic array from the seed; module-level for pickling."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**32, size=8, dtype=np.uint64)


def run_campaign(runner, trials=4, base_seed=7, **kwargs):
    return runner.run_repeated(
        seeded_trial, trials=trials, base_seed=base_seed, report=True, **kwargs
    )


@pytest.fixture(scope="module")
def clean_serial():
    """Ground truth: the undisturbed serial campaign."""
    report = run_campaign(TrialRunner(workers=1))
    assert report.ok and report.uneventful
    return report.results


class TestRaiseIsolation:
    def test_failing_trial_keeps_siblings(self, clean_serial):
        plan = FaultPlan.from_mapping({1: ["raise", "raise", "raise"]})
        runner = TrialRunner(workers=2, retry=1, fault_plan=plan)
        report = run_campaign(runner)
        assert not report.ok
        assert report.results[1] is None
        assert isinstance(report.outcomes[1].error, InjectedFault)
        assert report.outcomes[1].attempts == 2
        for index in (0, 2, 3):
            assert results_equal(report.results[index], clean_serial[index])

    def test_retry_recovers_bitwise(self, clean_serial):
        plan = FaultPlan.from_mapping({1: ["raise"], 3: ["raise", "raise"]})
        runner = TrialRunner(workers=2, retry=2, fault_plan=plan)
        report = run_campaign(runner)
        assert report.ok
        assert results_equal(list(report.results), list(clean_serial))
        assert report.outcomes[1].status == "retried"
        assert report.outcomes[3].attempts == 3

    def test_serial_path_recovers_identically(self, clean_serial):
        plan = FaultPlan.from_mapping({2: ["raise"]})
        runner = TrialRunner(workers=1, retry=1, fault_plan=plan)
        report = run_campaign(runner)
        assert report.ok
        assert results_equal(list(report.results), list(clean_serial))

    def test_run_raises_original_error_when_exhausted(self):
        plan = FaultPlan.from_mapping({0: ["raise"]})
        runner = TrialRunner(workers=1, fault_plan=plan)
        with pytest.raises(InjectedFault, match="injected failure"):
            runner.run([Trial(func=seeded_trial, seed=1)])


class TestTimeouts:
    def test_hung_trial_is_timed_out_and_retried(self, clean_serial):
        plan = FaultPlan.from_mapping({1: ["hang:30"]})
        runner = TrialRunner(
            workers=2, retry=1, timeout=0.75, fault_plan=plan
        )
        report = run_campaign(runner)
        assert report.ok
        assert results_equal(list(report.results), list(clean_serial))
        assert report.outcomes[1].status == "retried"
        assert report.outcomes[1].timed_out_attempts == 1
        assert any("timeout" in event for event in report.fallback_events)

    def test_timeout_exhaustion_is_final(self):
        plan = FaultPlan.from_mapping({0: ["hang:30", "hang:30"]})
        runner = TrialRunner(
            workers=2, retry=1, timeout=0.5, fault_plan=plan
        )
        report = run_campaign(runner, trials=2)
        assert not report.ok
        outcome = report.outcomes[0]
        assert outcome.status == "timed-out"
        assert outcome.timed_out_attempts == 2
        assert isinstance(outcome.error, TrialTimeoutError)

    def test_retry_timeouts_false_makes_first_timeout_final(self):
        plan = FaultPlan.from_mapping({0: ["hang:30"]})
        runner = TrialRunner(
            workers=2,
            retry=RetryPolicy(max_attempts=3, retry_timeouts=False),
            timeout=0.5,
            fault_plan=plan,
        )
        report = run_campaign(runner, trials=2)
        assert report.outcomes[0].status == "timed-out"
        assert report.outcomes[0].attempts == 1

    def test_serial_execution_records_unenforceable_timeout(self):
        runner = TrialRunner(workers=1, timeout=5.0)
        report = run_campaign(runner, trials=2)
        assert report.ok
        assert any(
            "not enforced under serial" in event
            for event in report.fallback_events
        )


class _UnreapedWorker:
    """A worker that has exited but is not reaped yet.

    Its sentinel is ready, so ``join`` returns at once, while
    ``is_alive()`` still reads True for its first few polls — what a
    worker looks like while the executor's manager thread is reaping
    it.
    """

    def __init__(self, live_polls=3):
        self.live_polls = live_polls

    def terminate(self):
        pass

    def kill(self):
        pass

    def join(self, timeout=None):
        pass

    def is_alive(self):
        self.live_polls -= 1
        return self.live_polls >= 0


class _StubExecutor:
    """The executor attributes the teardown helper reads."""

    def __init__(self, *workers):
        self._processes = dict(enumerate(workers))
        self._executor_manager_thread = None

    def shutdown(self, wait=True, cancel_futures=False):
        self._processes = None


class TestExecutorTeardown:
    def test_dead_but_unreaped_worker_counts_as_torn_down(self):
        pool = _StubExecutor(_UnreapedWorker(), _UnreapedWorker())
        assert terminate_executor(pool)

    def test_worker_that_never_exits_is_reported(self, monkeypatch):
        monkeypatch.setattr(runner_module, "_TEARDOWN_SECONDS", 0.2)
        pool = _StubExecutor(_UnreapedWorker(live_polls=10**9))
        assert not terminate_executor(pool)

    def test_hung_workers_are_reaped_within_the_deadline(self):
        pool = ProcessPoolExecutor(max_workers=2)
        futures = [pool.submit(time.sleep, 30) for _ in range(2)]
        while not all(future.running() for future in futures):
            time.sleep(0.01)
        assert terminate_executor(pool)

    def test_both_pools_share_one_helper(self):
        assert shardpool.terminate_executor is terminate_executor


class TestWorkerDeath:
    def test_killed_worker_keeps_completed_trials(self, clean_serial):
        plan = FaultPlan.from_mapping({0: ["kill"]})
        runner = TrialRunner(workers=2, retry=1, fault_plan=plan)
        report = run_campaign(runner)
        assert report.ok
        assert results_equal(list(report.results), list(clean_serial))
        assert any("pool broke" in event for event in report.fallback_events)

    def test_corrupt_result_payload_recovers(self, clean_serial):
        plan = FaultPlan.from_mapping({1: ["corrupt"]})
        runner = TrialRunner(workers=2, retry=2, fault_plan=plan)
        report = run_campaign(runner)
        assert report.ok
        assert results_equal(list(report.results), list(clean_serial))

    def test_kill_without_retry_fails_only_in_flight_trials(self):
        plan = FaultPlan.from_mapping({0: ["kill"]})
        runner = TrialRunner(workers=2, fault_plan=plan)
        report = run_campaign(runner)
        assert not report.ok
        # Trials in flight when the pool broke (the killer and its
        # co-flight neighbour) are charged; trials still queued in the
        # runner finish on the replacement pool free of charge.
        assert report.outcomes[0].status == "failed"
        assert sum(1 for o in report.outcomes if o.succeeded) >= 1


class TestCheckpointResume:
    def test_resume_runs_only_unfinished_trials(self, tmp_path, clean_serial):
        cache = ResultCache(tmp_path / "cache")
        journal_path = tmp_path / "campaign.jsonl"

        # First run: trial 2 exhausts its attempts and fails; the
        # journal checkpoints the three successes.
        crash_plan = FaultPlan.from_mapping({2: ["raise", "raise"]})
        first = run_campaign(
            TrialRunner(
                workers=2,
                cache=cache,
                retry=1,
                journal=TrialJournal(journal_path),
                fault_plan=crash_plan,
            ),
            cache_namespace="resume-demo",
        )
        assert not first.ok
        assert first.counts().get("failed") == 1

        # Resume: same campaign, fault gone (the "crash" was fixed).
        second = run_campaign(
            TrialRunner(
                workers=2,
                cache=cache,
                journal=TrialJournal(journal_path, resume=True),
            ),
            cache_namespace="resume-demo",
        )
        assert second.ok
        counts = second.counts()
        assert counts.get("resumed") == 3  # skipped, served from cache
        assert counts.get("ok") == 1  # only the failed trial re-ran
        assert results_equal(list(second.results), list(clean_serial))

    def test_journal_without_cache_entry_reruns(self, tmp_path, clean_serial):
        cache = ResultCache(tmp_path / "cache")
        journal_path = tmp_path / "campaign.jsonl"
        first = run_campaign(
            TrialRunner(
                workers=1, cache=cache, journal=TrialJournal(journal_path)
            ),
            cache_namespace="evicted",
        )
        assert first.ok
        cache.clear()  # journal says done, but the results are gone
        second = run_campaign(
            TrialRunner(
                workers=1,
                cache=cache,
                journal=TrialJournal(journal_path, resume=True),
            ),
            cache_namespace="evicted",
        )
        assert second.ok
        assert any("re-running" in event for event in second.fallback_events)
        assert results_equal(list(second.results), list(clean_serial))


class TestFaultPlanSemantics:
    def test_plan_round_trips_through_json(self):
        plan = FaultPlan.from_json('{"1": ["kill"], "3": ["raise", "hang:5"]}')
        assert plan.spec_for(1, 1) == FaultSpec(kind="kill")
        assert plan.spec_for(3, 2) == FaultSpec(kind="hang", seconds=5.0)
        assert plan.spec_for(3, 3) is None  # past the end: clean
        assert plan.spec_for(0, 1) is None

    def test_seeded_plans_replay(self):
        first = FaultPlan.seeded(11, trials=20, rate=0.4, kinds=("raise", "kill"))
        second = FaultPlan.seeded(11, trials=20, rate=0.4, kinds=("raise", "kill"))
        assert first == second and bool(first)

    def test_env_plan_reaches_the_runner(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", '{"0": ["raise"]}')
        assert plan_from_env() == FaultPlan.from_mapping({0: ["raise"]})
        runner = TrialRunner(workers=1, retry=1)
        report = run_campaign(runner, trials=2)
        assert report.ok
        assert report.outcomes[0].status == "retried"

    def test_env_plan_survives_a_campaign(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", '{"0": ["raise"]}')
        report = run_campaign(TrialRunner(workers=1, retry=1), trials=2)
        assert report.ok
        # The runner scrubs the plan only while a trial body runs;
        # the variable must be intact afterwards.
        assert plan_from_env() == FaultPlan.from_mapping({0: ["raise"]})


def nested_campaign_trial(seed=None):
    """A trial that itself runs a nested campaign (module-level)."""
    report = TrialRunner(workers=1).run_repeated(
        seeded_trial, trials=2, base_seed=123, report=True
    )
    if not report.ok:
        raise AssertionError("nested campaign was faulted")
    return report.results


class TestNestedRunners:
    def test_env_plan_applies_only_to_outermost_trials(self, monkeypatch):
        clean = TrialRunner(workers=1).run(
            [Trial(func=nested_campaign_trial, seed=5)]
        )
        monkeypatch.setenv("REPRO_FAULT_PLAN", '{"0": ["raise"]}')
        runner = TrialRunner(workers=1, retry=1)
        report = runner.run_report([Trial(func=nested_campaign_trial, seed=5)])
        assert report.ok
        assert report.outcomes[0].status == "retried"
        assert results_equal(list(report.results), list(clean))


def ok_report(**overrides):
    """A one-trial all-ok RunReport to hang recovery events off."""
    kwargs = dict(
        outcomes=(
            TrialOutcome(index=0, label="t0", status="ok", attempts=1),
        ),
        results=(1,),
    )
    kwargs.update(overrides)
    return RunReport(**kwargs)


class TestRecoveryReporting:
    """RunReport surfaces checkpoint/supervision events to the CLI."""

    EVENTS = (
        {"kind": "checkpoint", "tick": 4},
        {"kind": "checkpoint", "tick": 9},
        {"kind": "worker-respawn", "shard": 2, "reason": "exit code 86"},
    )

    def test_checkpoints_are_not_recoveries(self):
        report = ok_report(recovery_events=self.EVENTS)
        assert len(report.recovery_events) == 3
        assert [e["kind"] for e in report.recoveries] == ["worker-respawn"]

    def test_uneventful_tolerates_routine_checkpoints(self):
        assert ok_report(recovery_events=self.EVENTS[:2]).uneventful
        assert not ok_report(recovery_events=self.EVENTS).uneventful

    def test_summary_counts_both_kinds(self):
        summary = ok_report(recovery_events=self.EVENTS).summary()
        assert "2 checkpoint(s)" in summary
        assert "1 recovery event(s)" in summary

    def test_describe_details_each_recovery(self):
        described = ok_report(recovery_events=self.EVENTS).describe()
        assert "recovery: worker-respawn" in described
        assert "shard=2" in described and "exit code 86" in described
        # Routine checkpoints stay out of the detail lines.
        assert "recovery: checkpoint" not in described
