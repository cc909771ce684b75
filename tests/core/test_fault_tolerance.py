"""Tests for the episode outcome taxonomy and fault-tolerance policy.

Covers the self-healing machinery in isolation: the
:class:`FaultTolerancePolicy` contract (validation, deterministic
backoff, spec round-trip), :class:`EpisodeFailure` rows beside normal
records in checkpoints and metrics, per-attempt retry/timeout behaviour
in :func:`attempt_task`, the escalating process reaper, and the queue
broker's failed→pending round-trip.  The end-to-end quarantine
acceptance (all three backends, byte-identity) lives in test_chaos.py.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.agent import autopilot_agent_factory
from repro.core import (
    Campaign,
    EpisodeFailure,
    EpisodeFailureError,
    EpisodeOutcome,
    EpisodeTimeout,
    FaultTolerancePolicy,
    FilesystemBroker,
    MetricsAccumulator,
    ResultLog,
    attempt_task,
    metrics_by_injector,
    quarantine_table,
    standard_scenarios,
)
from repro.core.chaos import FlakyFault, HangFault, TransientEpisodeError
from repro.core.outcomes import reap_process
from repro.sim.builders import SimulationBuilder
from repro.sim.render import CameraModel
from repro.sim.town import GridTownConfig

TOWN = GridTownConfig(rows=2, cols=3)


@pytest.fixture(scope="module")
def builder():
    return SimulationBuilder(camera=CameraModel(width=24, height=16), with_lidar=False)


@pytest.fixture(scope="module")
def scenarios():
    return standard_scenarios(1, seed=9, town_config=TOWN, min_distance=60, max_distance=160)


def _campaign(builder, scenarios, injectors, **kw):
    return Campaign(
        scenarios, autopilot_agent_factory(), injectors, builder=builder, **kw
    )


def _task_and_context(builder, scenarios, injectors, policy=None):
    runner = _campaign(builder, scenarios, injectors, fault_tolerance=policy)
    return runner.tasks()[0], runner.context()


class TestFaultTolerancePolicy:
    def test_defaults_reproduce_historical_behaviour(self):
        policy = FaultTolerancePolicy()
        assert policy.max_attempts == 1
        assert policy.timeout_s is None
        assert policy.failure_budget == 0

    def test_round_trip(self):
        policy = FaultTolerancePolicy(
            max_attempts=3, timeout_s=45.0, backoff_s=0.5, backoff_max_s=8.0,
            backoff_jitter=0.2, failure_budget=None,
        )
        assert FaultTolerancePolicy.from_dict(policy.to_dict()) == policy

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            FaultTolerancePolicy(max_attempts=0)
        with pytest.raises(ValueError, match="timeout_s"):
            FaultTolerancePolicy(timeout_s=0.0)
        with pytest.raises(ValueError, match="backoff_jitter"):
            FaultTolerancePolicy(backoff_jitter=1.5)
        with pytest.raises(ValueError, match="failure_budget"):
            FaultTolerancePolicy(failure_budget=-1)

    def test_from_dict_rejects_unknown_and_mistyped_keys(self):
        with pytest.raises(ValueError, match="unknown fault_tolerance keys"):
            FaultTolerancePolicy.from_dict({"max_attempt": 3})
        with pytest.raises(ValueError, match="max_attempts"):
            FaultTolerancePolicy.from_dict({"max_attempts": "three"})
        with pytest.raises(TypeError, match="must be an object"):
            FaultTolerancePolicy.from_dict([1, 2])

    def test_backoff_is_deterministic_and_exponential(self):
        policy = FaultTolerancePolicy(
            max_attempts=5, backoff_s=1.0, backoff_max_s=100.0, backoff_jitter=0.1
        )
        first = [policy.backoff_for(seed=42, attempt=a) for a in (1, 2, 3)]
        again = [policy.backoff_for(seed=42, attempt=a) for a in (1, 2, 3)]
        assert first == again, "same (seed, attempt) must back off identically"
        # Exponential base with bounded jitter: each delay lands in
        # [base, base * 1.1].
        for attempt, delay in enumerate(first, start=1):
            base = 1.0 * 2 ** (attempt - 1)
            assert base <= delay <= base * 1.1
        # Different seeds decorrelate (thundering-herd spread).
        assert policy.backoff_for(1, 1) != policy.backoff_for(2, 1)

    def test_backoff_respects_ceiling(self):
        policy = FaultTolerancePolicy(
            max_attempts=10, backoff_s=1.0, backoff_max_s=2.0, backoff_jitter=0.0
        )
        assert policy.backoff_for(0, 8) == 2.0


class TestEpisodeFailureRow:
    def _failure(self):
        return EpisodeFailure(
            scenario="scn-0", injector="chaos-crash", seed=123,
            config_fingerprint="abc", outcome=EpisodeOutcome.FAILED,
            error_type="RuntimeError", error="RuntimeError('boom')",
            traceback_digest="deadbeef0123", attempts=2, wall_time_s=1.5,
        )

    def test_dict_round_trip(self):
        failure = self._failure()
        rebuilt = EpisodeFailure.from_dict(failure.to_dict())
        assert rebuilt == failure
        assert "outcome" in failure.to_dict(), "the discriminator key"

    def test_from_dict_rejects_non_failure_outcome(self):
        row = self._failure().to_dict()
        row["outcome"] = "ok"
        with pytest.raises(TypeError, match="not an episode-failure outcome"):
            EpisodeFailure.from_dict(row)

    def test_raise_error_prefers_original_exception(self):
        failure = self._failure()
        failure.exception = RuntimeError("boom")
        with pytest.raises(RuntimeError, match="boom"):
            failure.raise_error()

    def test_raise_error_falls_back_to_readable_wrapper(self):
        with pytest.raises(EpisodeFailureError, match="chaos-crash.*2 attempt"):
            self._failure().raise_error()

    def test_checkpoint_rows_split_and_stream(self, tmp_path):
        """Records and failure rows share one JSONL checkpoint; readers
        split on the ``outcome`` key."""
        failure = self._failure()
        path = tmp_path / "mixed.jsonl"
        record_row = {
            "scenario": "scn-0", "injector": "none", "seed": 1, "success": True,
            "frames": 10, "duration_s": 1.0, "distance_km": 0.1,
            "time_limit_s": 60.0, "violations": [], "injection_frames": [],
            "agent_frames_missed": 0, "config_fingerprint": "abc", "faults": [],
        }
        with open(path, "w") as fh:
            fh.write(json.dumps({"event": "queue-heartbeat"}) + "\n")
            fh.write(json.dumps(record_row) + "\n")
            fh.write(json.dumps(failure.to_dict()) + "\n")
        records, failures = ResultLog(path).load()
        assert [r.seed for r in records] == [1]
        assert failures == [failure]
        streamed = list(ResultLog(path))
        assert len(streamed) == 2 and streamed[1] == failure

    def test_metrics_count_failures_without_folding_them_in(self):
        acc = MetricsAccumulator()
        acc.add(self._failure())
        m = acc.result()
        assert m.n_runs == 0, "a failure is not a mission result"
        assert m.failure_counts == {EpisodeOutcome.FAILED: 1}
        assert m.n_failures == 1
        grouped = metrics_by_injector([self._failure()])
        assert grouped["chaos-crash"].failure_counts == {EpisodeOutcome.FAILED: 1}

    def test_quarantine_table_renders(self):
        table = quarantine_table([self._failure()])
        assert "chaos-crash" in table and "RuntimeError" in table
        assert "no quarantined episodes" in quarantine_table([])


class TestAttemptTask:
    def test_transient_episode_succeeds_on_retry(self, builder, scenarios, tmp_path):
        fault = FlakyFault(str(tmp_path), fail_times=2)
        task, context = _task_and_context(builder, scenarios, {"flaky": [fault]})
        policy = FaultTolerancePolicy(max_attempts=3, backoff_s=0.0)
        record = attempt_task(context, task, policy)
        assert not isinstance(record, EpisodeFailure)
        assert fault.counter_path.stat().st_size == 3, "two failures + one success"

    def test_retry_success_is_byte_identical_to_first_try_success(
        self, builder, scenarios, tmp_path
    ):
        """The tentpole determinism invariant: a fails-twice-then-succeeds
        episode must checkpoint the exact bytes of its never-failed twin."""
        fault = FlakyFault(str(tmp_path), fail_times=2)
        task, context = _task_and_context(builder, scenarios, {"flaky": [fault]})
        # Twin 1: allowance pre-spent, so the very first attempt succeeds.
        fault.exhaust()
        first_try = attempt_task(
            context, task, FaultTolerancePolicy(max_attempts=1)
        )
        # Twin 2: fresh counter, fails twice, succeeds on attempt 3.
        fault.counter_path.unlink()
        retried = attempt_task(
            context, task, FaultTolerancePolicy(max_attempts=3, backoff_s=0.0)
        )
        assert not isinstance(first_try, EpisodeFailure)
        assert json.dumps(retried.to_dict(), sort_keys=True) == json.dumps(
            first_try.to_dict(), sort_keys=True
        )

    def test_exhausted_attempts_return_structured_failure(
        self, builder, scenarios, tmp_path
    ):
        fault = FlakyFault(str(tmp_path), fail_times=99)
        task, context = _task_and_context(builder, scenarios, {"flaky": [fault]})
        failure = attempt_task(
            context, task, FaultTolerancePolicy(max_attempts=2, backoff_s=0.0)
        )
        assert isinstance(failure, EpisodeFailure)
        assert failure.outcome == EpisodeOutcome.FAILED
        assert failure.attempts == 2
        assert failure.error_type == "TransientEpisodeError"
        assert failure.traceback_digest
        assert isinstance(failure.exception, TransientEpisodeError)
        assert (task.injector, task.scenario.name, task.seed) == (
            failure.injector, failure.scenario, failure.seed,
        )

    def test_hung_episode_times_out_without_killing_the_caller(
        self, builder, scenarios
    ):
        hang = HangFault(hang_s=60.0)
        task, context = _task_and_context(builder, scenarios, {"hang": [hang]})
        policy = FaultTolerancePolicy(max_attempts=1, timeout_s=1.5)
        start = time.monotonic()
        failure = attempt_task(context, task, policy)
        elapsed = time.monotonic() - start
        assert isinstance(failure, EpisodeFailure)
        assert failure.outcome == EpisodeOutcome.TIMED_OUT
        assert failure.error_type == EpisodeTimeout.__name__
        assert failure.wall_time_s >= 1.5
        assert elapsed < 30.0, "the hang must be killed, not waited out"

    def test_sandboxed_success_matches_inline_execution(self, builder, scenarios):
        """timeout_s moves episodes into a sandbox fork; a healthy episode
        must come back byte-identical to the inline path."""
        task, context = _task_and_context(builder, scenarios, {"none": []})
        inline = attempt_task(context, task, FaultTolerancePolicy())
        sandboxed = attempt_task(
            context, task, FaultTolerancePolicy(timeout_s=120.0)
        )
        assert json.dumps(sandboxed.to_dict(), sort_keys=True) == json.dumps(
            inline.to_dict(), sort_keys=True
        )


def _exit_quickly():
    pass


def _sleep_forever():
    time.sleep(600)


def _ignore_sigterm_and_sleep():
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(600)


class TestReapProcess:
    def test_cooperative_exit(self):
        proc = multiprocessing.Process(target=_exit_quickly)
        proc.start()
        proc.join()
        assert reap_process(proc) == "exited"

    def test_terminate_escalation(self):
        proc = multiprocessing.Process(target=_sleep_forever)
        proc.start()
        time.sleep(0.2)
        assert reap_process(proc, grace_s=5.0) == "terminated"
        assert not proc.is_alive()

    def test_kill_escalation_reports_pid(self):
        proc = multiprocessing.Process(target=_ignore_sigterm_and_sleep)
        proc.start()
        time.sleep(0.5)  # let the child install its SIG_IGN handler
        lines = []
        assert reap_process(proc, grace_s=1.0, log=lines.append) == "killed"
        assert not proc.is_alive()
        assert any(f"pid={proc.pid}" in line for line in lines)


class TestBrokerFailureRoundTrip:
    """Satellite: requeue_failed preserves payloads and clears reports."""

    def _published(self, builder, scenarios, tmp_path):
        runner = _campaign(builder, scenarios, {"none": []})
        broker = FilesystemBroker(tmp_path / "q", lease_s=30.0)
        broker.publish(runner.context(), runner.tasks())
        return broker

    def test_requeue_failed_round_trip(self, builder, scenarios, tmp_path):
        broker = self._published(builder, scenarios, tmp_path)
        claim = broker.claim("w0")
        payload = (broker.claimed_dir / claim.name).read_bytes()
        broker.fail(claim, error=RuntimeError("transient infra blip"))
        assert broker.failures(), "error report must be parked"
        assert not broker._list(broker.tasks_dir)

        recovered = broker.requeue_failed()
        assert recovered == [claim.name]
        assert broker._list(broker.tasks_dir) == [claim.name]
        assert (broker.tasks_dir / claim.name).read_bytes() == payload, (
            "failed→pending must preserve the task payload byte for byte"
        )
        assert broker.failures() == [], "parked traceback must be cleared"
        assert not list(broker.failed_dir.glob("*.error.json"))

    def test_lease_keeper_thread_joins_on_exit(self, builder, scenarios, tmp_path):
        from repro.core.queue import _LeaseKeeper

        broker = self._published(builder, scenarios, tmp_path)
        claim = broker.claim("w0", lease_s=0.4)
        with _LeaseKeeper(broker, claim) as keeper:
            time.sleep(0.3)
            assert keeper._thread.is_alive()
        assert not keeper._thread.is_alive(), "heartbeat thread must join cleanly"
        broker.release(claim)

    def test_quarantine_retires_task_and_report(self, builder, scenarios, tmp_path):
        broker = self._published(builder, scenarios, tmp_path)
        claim = broker.claim("w0")
        broker.fail(claim, error=RuntimeError("poison"))
        broker.quarantine(claim.name)
        assert broker.requeue_failed() == [], "quarantined tasks never requeue"
        assert (broker.quarantined_dir / claim.name).exists()


class TestCliExitCodes:
    """Satellite: missing input files exit 2 with one stderr line."""

    def test_report_missing_path_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc_info:
            main(["report", str(tmp_path / "ghost.jsonl")])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "no such results file" in err
        assert "\n" not in err.rstrip("\n"), "one readable line, not a traceback"

    def test_run_retry_flags_reach_the_campaign(self, tmp_path):
        from repro.cli import build_parser, _fault_tolerance_from_args
        from repro.core.spec import CampaignSpec

        args = build_parser().parse_args(
            ["run", "spec.json", "--max-attempts", "3",
             "--episode-timeout", "20", "--failure-budget", "2"]
        )
        policy = _fault_tolerance_from_args(args, CampaignSpec())
        assert policy == FaultTolerancePolicy(
            max_attempts=3, timeout_s=20.0, failure_budget=2
        )
        bare = build_parser().parse_args(["run", "spec.json"])
        assert _fault_tolerance_from_args(bare, CampaignSpec()) is None


class TestSpecRoundTrip:
    def test_execution_spec_carries_fault_tolerance(self):
        from repro.core.spec import CampaignSpec, ExecutionSpec, parse_spec

        spec = CampaignSpec(
            execution=ExecutionSpec(
                fault_tolerance=FaultTolerancePolicy(
                    max_attempts=3, timeout_s=90.0, failure_budget=5
                )
            )
        )
        rebuilt = parse_spec(json.dumps(spec.to_dict()))
        assert rebuilt.execution.fault_tolerance == spec.execution.fault_tolerance
        assert rebuilt.hash() == spec.hash()

    def test_bad_fault_tolerance_is_a_spec_error(self):
        from repro.core.spec import CampaignSpec, SpecError, parse_spec

        data = CampaignSpec().to_dict()
        data["execution"]["fault_tolerance"] = {"max_attempts": 0}
        with pytest.raises(SpecError, match="fault_tolerance"):
            parse_spec(json.dumps(data))
