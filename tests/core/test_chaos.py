"""Chaos-testing the harness with its own faults (repro.core.chaos).

The acceptance invariant of the self-healing machinery: a campaign whose
grid contains one always-crashing and one always-hanging episode
completes on every backend, quarantines *exactly* those two identities,
and produces byte-identical records for every other episode compared to
a fault-free serial run.  On top of that, a distributed-queue campaign
whose broker misbehaves (delays, duplicate deliveries, claim races,
lease storms, dropped releases) must still match the serial reference —
at-least-once delivery plus the exactly-once results fold absorbs all of
it.
"""

import json

import pytest

from repro.agent import autopilot_agent_factory
from repro.core import (
    Campaign,
    EpisodeFailureError,
    EpisodeOutcome,
    EpisodeTimeout,
    FaultTolerancePolicy,
    FilesystemBroker,
    QueueExecutor,
    standard_scenarios,
)
from repro.core.chaos import (
    ChaosBroker,
    CrashFault,
    FlakyFault,
    HangFault,
    InjectedCrash,
)
from repro.core.faults import OutputDelay
from repro.core.resultlog import ResultLog
from repro.core.runner import record_identity
from repro.sim.builders import SimulationBuilder
from repro.sim.render import CameraModel
from repro.sim.town import GridTownConfig

TOWN = GridTownConfig(rows=2, cols=3)
#: The survivor grid.  Chaos injectors are appended AFTER these rows, so
#: the (injector index, scenario index) seed formula gives the survivor
#: episodes identical seeds with or without the poison rows present.
SURVIVORS = {"none": [], "delay": [OutputDelay(8)]}
BASE_SEED = 5


@pytest.fixture(scope="module")
def builder():
    return SimulationBuilder(camera=CameraModel(width=24, height=16), with_lidar=False)


@pytest.fixture(scope="module")
def scenarios():
    return standard_scenarios(1, seed=9, town_config=TOWN, min_distance=60, max_distance=160)


@pytest.fixture(scope="module")
def reference(builder, scenarios):
    """The fault-free serial reference the chaos runs must reproduce."""
    result = Campaign(
        scenarios, autopilot_agent_factory(), SURVIVORS,
        builder=builder, base_seed=BASE_SEED,
    ).run()
    assert len(result.records) == 2 and not result.failures
    return [json.dumps(r.to_dict(), sort_keys=True) for r in result.records]


def _poison_grid():
    """Survivors plus one always-crashing and one always-hanging row."""
    return dict(
        SURVIVORS,
        **{
            "chaos-crash": [CrashFault()],
            "chaos-hang": [HangFault(hang_s=60.0)],
        },
    )


def _policy(**kw):
    kw.setdefault("max_attempts", 1)
    kw.setdefault("timeout_s", 3.0)
    kw.setdefault("failure_budget", 2)
    kw.setdefault("backoff_s", 0.0)
    return FaultTolerancePolicy(**kw)


def _campaign(builder, scenarios, injectors, **kw):
    kw.setdefault("base_seed", BASE_SEED)
    return Campaign(
        scenarios, autopilot_agent_factory(), injectors, builder=builder, **kw
    )


def _assert_quarantined_exactly_poison(result, scenarios):
    scn = scenarios[0].name
    assert [(f.injector, f.scenario) for f in result.failures] == [
        ("chaos-crash", scn), ("chaos-hang", scn),
    ]
    assert all(f.outcome == EpisodeOutcome.QUARANTINED for f in result.failures)
    by_injector = {f.injector: f for f in result.failures}
    assert by_injector["chaos-crash"].error_type == InjectedCrash.__name__
    assert by_injector["chaos-hang"].error_type == EpisodeTimeout.__name__


class TestPoisonEpisodeAcceptance:
    """Crash + hang quarantined on all three backends, survivors
    byte-identical to the fault-free serial reference."""

    def _check(self, result, reference, scenarios):
        _assert_quarantined_exactly_poison(result, scenarios)
        assert [
            json.dumps(r.to_dict(), sort_keys=True) for r in result.records
        ] == reference

    def test_serial_backend(self, builder, scenarios, reference):
        result = _campaign(
            builder, scenarios, _poison_grid(), fault_tolerance=_policy()
        ).run()
        self._check(result, reference, scenarios)

    def test_process_backend(self, builder, scenarios, reference):
        result = _campaign(
            builder, scenarios, _poison_grid(), fault_tolerance=_policy(), workers=2
        ).run()
        self._check(result, reference, scenarios)

    def test_queue_backend(self, builder, scenarios, reference, tmp_path):
        executor = QueueExecutor(
            tmp_path / "q", workers=2, lease_s=10.0, poll_s=0.05,
            stall_timeout=120.0,
        )
        result = _campaign(
            builder, scenarios, _poison_grid(), fault_tolerance=_policy(),
            executor=executor,
        ).run()
        self._check(result, reference, scenarios)
        broker = FilesystemBroker(tmp_path / "q")
        assert len(broker._list(broker.quarantined_dir)) == 2
        assert broker.failures() == [], "no task may stay parked in failed/"

    def test_quarantined_triples_surface_on_the_result(
        self, builder, scenarios, reference
    ):
        result = _campaign(
            builder, scenarios, _poison_grid(), fault_tolerance=_policy()
        ).run()
        scn = scenarios[0].name
        assert [(i, s) for i, s, _ in result.quarantined()] == [
            ("chaos-crash", scn), ("chaos-hang", scn),
        ]

    def test_save_load_round_trips_the_quarantine_list(
        self, builder, scenarios, tmp_path
    ):
        result = _campaign(
            builder, scenarios, _poison_grid(), fault_tolerance=_policy()
        ).run()
        path = tmp_path / "records.json"
        result.save(path)
        loaded = type(result).load(path)
        assert loaded.records == result.records
        assert loaded.failures == result.failures

    @pytest.mark.parametrize(
        "backend", ["serial", "multiplexed", "process", "queue"]
    )
    def test_budget_exceeded_aborts_with_the_original_error(
        self, builder, scenarios, tmp_path, backend
    ):
        """One poison episode over budget aborts the campaign on every
        backend — after completed episodes have drained to the
        checkpoint — and leaves that episode to re-run on resume."""
        checkpoint = tmp_path / "abort.jsonl"
        queue_dir = tmp_path / "q"

        def make_campaign():
            execution = {
                "serial": dict(checkpoint_path=checkpoint),
                "multiplexed": dict(
                    executor="multiplexed", episodes_per_slot=4,
                    checkpoint_path=checkpoint,
                ),
                "process": dict(workers=2, checkpoint_path=checkpoint),
                "queue": dict(executor=QueueExecutor(
                    queue_dir, workers=1, lease_s=10.0, poll_s=0.05,
                    stall_timeout=120.0,
                )),
            }[backend]
            return _campaign(
                builder, scenarios, _poison_grid(),
                fault_tolerance=_policy(failure_budget=1), **execution,
            )

        # One poison episode is admitted (budget spent); the other is
        # over budget and aborts with its own original exception.
        with pytest.raises(
            (InjectedCrash, EpisodeTimeout, EpisodeFailureError)
        ) as raised:
            make_campaign().run()
        resumed = make_campaign()
        (over,) = resumed.pending()
        admitted = {"chaos-crash", "chaos-hang"} - {over.injector}
        expected = {"chaos-crash": InjectedCrash, "chaos-hang": EpisodeTimeout}
        error = raised.value
        if backend == "queue":
            # Parked failures cross the broker as JSON: the exception
            # object cannot travel, its type name does.
            assert type(error) is EpisodeFailureError
            assert error.failure.error_type == expected[over.injector].__name__
        else:
            assert type(error) is expected[over.injector]
        assert [r.injector for r in resumed.grid_records()] == ["none", "delay"]
        assert [f.injector for f in resumed.grid_failures()] == sorted(admitted)
        records, failures = ResultLog(resumed.checkpoint_path).load()
        assert over.identity() not in {
            record_identity(row) for row in records + failures
        }, "the over-budget episode must be neither quarantined nor checkpointed"
        if backend == "queue":
            parked = [
                report["failure"]["injector"]
                for report in FilesystemBroker(queue_dir).failures()
            ]
            assert parked == [over.injector], "still parked in failed/"

    def test_resume_skips_quarantined_episodes(
        self, builder, scenarios, tmp_path
    ):
        """Quarantined identities count as completed: a resumed campaign
        must not re-burn compute on poison tasks."""
        checkpoint = tmp_path / "resume.jsonl"
        _campaign(
            builder, scenarios, _poison_grid(), fault_tolerance=_policy(),
            checkpoint_path=checkpoint,
        ).run()
        resumed = _campaign(
            builder, scenarios, _poison_grid(), fault_tolerance=_policy(),
            checkpoint_path=checkpoint,
        )
        assert resumed.pending() == []
        result = resumed.run()
        assert len(result.records) == 2 and len(result.failures) == 2


class TestTransientRetryAcrossBackends:
    def test_flaky_episode_retries_to_byte_identity(
        self, builder, scenarios, tmp_path
    ):
        """A fails-twice-succeeds-third episode lands in the campaign as
        the exact bytes of its never-failed counterpart (paired runs
        through the full runner, not just attempt_task)."""
        policy = FaultTolerancePolicy(max_attempts=3, backoff_s=0.0)
        flaky = FlakyFault(str(tmp_path), fail_times=2)
        grid = dict(SURVIVORS, **{"chaos-flaky": [flaky]})
        retried = _campaign(builder, scenarios, grid, fault_tolerance=policy).run()
        assert not retried.failures
        # Counterpart: same fault config/state_dir, allowance pre-spent.
        flaky.counter_path.unlink()
        flaky.exhaust()
        first_try = _campaign(builder, scenarios, grid, fault_tolerance=policy).run()
        assert not first_try.failures
        assert [json.dumps(r.to_dict(), sort_keys=True) for r in retried.records] \
            == [json.dumps(r.to_dict(), sort_keys=True) for r in first_try.records]


class TestChaosBrokerUnit:
    def _published(self, builder, scenarios, tmp_path, **chaos):
        runner = _campaign(builder, scenarios, SURVIVORS)
        inner = FilesystemBroker(tmp_path / "q", lease_s=30.0)
        inner.publish(runner.context(), runner.tasks())
        return inner, ChaosBroker(inner, seed=7, **chaos)

    def test_probability_validation(self, tmp_path):
        with pytest.raises(ValueError, match="drop_claim_p"):
            ChaosBroker(FilesystemBroker(tmp_path), drop_claim_p=1.5)

    def test_delegates_the_rest_of_the_broker_surface(
        self, builder, scenarios, tmp_path
    ):
        inner, chaos = self._published(builder, scenarios, tmp_path)
        assert chaos.results_path == inner.results_path
        assert chaos.status()["pending"] == 2

    def test_drop_claim_requeues_and_reports_empty(
        self, builder, scenarios, tmp_path
    ):
        inner, chaos = self._published(
            builder, scenarios, tmp_path, drop_claim_p=1.0
        )
        assert chaos.claim("w0") is None, "the phantom competitor won"
        assert len(inner._list(inner.tasks_dir)) == 2, "task back in pending"
        assert inner._list(inner.claimed_dir) == []

    def test_duplicate_claim_republishes_the_task(
        self, builder, scenarios, tmp_path
    ):
        inner, chaos = self._published(
            builder, scenarios, tmp_path, duplicate_claim_p=1.0
        )
        claim = chaos.claim("w0")
        assert claim is not None
        assert claim.name in inner._list(inner.tasks_dir), (
            "a second worker can claim the same episode concurrently"
        )
        assert claim.name in inner._list(inner.claimed_dir)

    def test_dropped_heartbeats_let_a_live_lease_expire(
        self, builder, scenarios, tmp_path
    ):
        inner, chaos = self._published(
            builder, scenarios, tmp_path, drop_heartbeat_p=1.0
        )
        claim = chaos.claim("w0", lease_s=0.2)
        before = inner._lease_path(claim.name).read_text()
        chaos.heartbeat(claim)
        assert inner._lease_path(claim.name).read_text() == before
        import time

        time.sleep(0.5)
        assert inner.requeue_expired() == [claim.name], (
            "the lease storms back into the queue mid-episode"
        )

    def test_drop_release_requeues_a_finished_task(
        self, builder, scenarios, tmp_path
    ):
        inner, chaos = self._published(
            builder, scenarios, tmp_path, drop_release_p=1.0
        )
        claim = chaos.claim("w0")
        assert chaos.release(claim) is False
        assert claim.name in inner._list(inner.tasks_dir), (
            "the episode re-runs; the results fold must dedupe it"
        )


class TestChaosCampaignByteIdentity:
    def test_queue_campaign_under_chaos_matches_serial(
        self, builder, scenarios, reference, tmp_path
    ):
        """The headline chaos claim: a queue campaign whose every broker
        interaction misbehaves (seeded) still folds to the exact serial
        records."""
        executor = QueueExecutor(
            tmp_path / "q", workers=2, lease_s=2.0, poll_s=0.05,
            stall_timeout=120.0,
            chaos=dict(
                seed=11,
                delay_p=0.5, delay_s=0.02,
                duplicate_claim_p=0.3,
                drop_claim_p=0.3,
                drop_heartbeat_p=0.5,
                drop_release_p=0.3,
            ),
        )
        result = _campaign(builder, scenarios, SURVIVORS, executor=executor).run()
        assert not result.failures
        assert [
            json.dumps(r.to_dict(), sort_keys=True) for r in result.records
        ] == reference
