"""Episode-multiplexed execution: drivers, slots, byte-identity.

The contract under test: running E episodes interleaved at tick
granularity through :class:`~repro.core.multiplex.EpisodeMultiplexer`
(with cross-episode batched sensing) produces **exactly** the records
the serial path produces — same violations, same frame counts, same
fingerprints — across compound faults, mixed weather, model faults (via
the serial fallback) and the process/queue backend compositions.
"""

from dataclasses import replace

import pytest

from repro.agent import AutopilotAgentFactory, autopilot_agent_factory, nn_agent_factory
from repro.agent.ilcnn import ILCNN, ILCNNConfig
from repro.core import (
    Campaign,
    DEFAULT_EPISODES_PER_SLOT,
    EpisodeDriver,
    EpisodeMultiplexer,
    FaultTolerancePolicy,
    SerialExecutor,
    make_executor,
    multiplex_slot_size,
    run_episode,
    standard_scenarios,
)
from repro.core.faults import (
    GPSNoiseFault,
    GaussianNoise,
    OutputDelay,
    WeightBitFlip,
)
from repro.core.spec import ExecutionSpec, SpecError
from repro.sim.builders import SimulationBuilder
from repro.sim.render import CameraModel
from repro.sim.town import GridTownConfig

TOWN = GridTownConfig(rows=2, cols=3)
TINY = ILCNNConfig(input_hw=(16, 24), conv_channels=(4, 6, 6), trunk_dim=16,
                   speed_dim=4, branch_hidden=8, dropout=0.0)


@pytest.fixture(scope="module")
def builder():
    return SimulationBuilder(camera=CameraModel(width=24, height=16), with_lidar=True)


@pytest.fixture(scope="module")
def scenarios():
    """Three missions, deliberately in three different weathers."""
    suite = standard_scenarios(
        3, seed=9, town_config=TOWN, n_npc_vehicles=2, n_pedestrians=1,
        min_distance=60, max_distance=160,
    )
    weathers = ("HardRainNoon", "FoggyNoon", "ClearSunset")
    return [replace(s, weather=w) for s, w in zip(suite, weathers)]


def injectors():
    return {
        "none": [],
        "compound": [GaussianNoise(sigma=0.1), OutputDelay(delay_frames=3)],
        "gps": [GPSNoiseFault(sigma_m=4.0)],
    }


def assert_records_equal(a, b):
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.to_dict() == rb.to_dict(), (ra.injector, ra.scenario)


class TestEpisodeDriver:
    def test_stepwise_drive_equals_run_episode(self, builder, scenarios):
        faults = [GaussianNoise(sigma=0.08), OutputDelay(delay_frames=2)]
        reference = run_episode(
            builder, scenarios[0], autopilot_agent_factory(),
            faults=[GaussianNoise(sigma=0.08), OutputDelay(delay_frames=2)],
            injector_name="compound", harness_seed=13,
        )
        driver = EpisodeDriver(
            builder, scenarios[0], autopilot_agent_factory(),
            faults=faults, injector_name="compound", harness_seed=13,
        )
        driver.setup()
        try:
            driver.start()
            # Manual phase-by-phase stepping, the multiplexer's view.
            while driver.begin_frame():
                driver.step_client()
                driver.step_world()
                driver.complete_frame(driver.sense())
            record = driver.finalize()
        finally:
            driver.close()
        assert record.to_dict() == reference.to_dict()

    def test_close_is_idempotent_and_safe_before_setup(self, builder, scenarios):
        driver = EpisodeDriver(builder, scenarios[0], autopilot_agent_factory())
        driver.close()  # never set up: must not raise
        driver.close()
        assert driver.state == "closed"

    def test_client_clock_skew_changes_behaviour_not_integrity(
        self, builder, scenarios
    ):
        """The decoupled-clock seam: a lagging client acts on stale
        bundles.  The episode still runs to a well-formed record."""
        lockstep = EpisodeDriver(
            builder, scenarios[0], autopilot_agent_factory(), harness_seed=1,
        ).run()
        skewed = EpisodeDriver(
            builder, scenarios[0], autopilot_agent_factory(), harness_seed=1,
            client_clock_skew=-3,
        ).run()
        assert lockstep.to_dict() == EpisodeDriver(
            builder, scenarios[0], autopilot_agent_factory(), harness_seed=1,
            client_clock_skew=0,
        ).run().to_dict()  # skew 0 is byte-identical lockstep
        assert skewed.frames > 0
        assert skewed.scenario == lockstep.scenario


class TestMultiplexedByteIdentity:
    def test_mixed_weather_compound_faults(self, builder, scenarios):
        serial = Campaign(
            scenarios, AutopilotAgentFactory(), injectors(),
            builder=builder, base_seed=7,
        ).run()
        mux = Campaign(
            scenarios, AutopilotAgentFactory(), injectors(),
            builder=builder, base_seed=7, executor="multiplexed",
            episodes_per_slot=4,
        ).run()
        assert_records_equal(serial, mux)

    def test_model_fault_falls_back_to_serial_and_matches(self, builder, scenarios):
        model = ILCNN(TINY)
        injectors_nn = {"none": [], "bitflip": [WeightBitFlip(n_flips=2)]}
        serial = Campaign(
            scenarios[:2], nn_agent_factory(model), injectors_nn,
            builder=builder, base_seed=3,
        ).run()
        mux = Campaign(
            scenarios[:2], nn_agent_factory(model), injectors_nn,
            builder=builder, base_seed=3, executor="multiplexed",
            episodes_per_slot=4,
        ).run()
        assert_records_equal(serial, mux)

    def test_nn_agent_built_in_training_mode_matches_serial(self, scenarios):
        """A model built in code starts in training mode; inference must
        still run without dropout, or its masks would come from one RNG
        the episodes share and the records would follow episode order."""
        builder = SimulationBuilder(camera=CameraModel(width=48, height=32), with_lidar=False)
        short = [replace(s, mission=replace(s.mission, time_limit_s=4.0)) for s in scenarios[:2]]
        factory = nn_agent_factory(ILCNN(ILCNNConfig()))
        serial = Campaign(short, factory, {"none": []}, builder=builder, base_seed=5).run()
        mux = Campaign(
            short, factory, {"none": []}, builder=builder, base_seed=5,
            executor="multiplexed", episodes_per_slot=4,
        ).run()
        assert_records_equal(serial, mux)

    def test_process_workers_drain_multiplexed_slots(self, builder, scenarios):
        serial = Campaign(
            scenarios, AutopilotAgentFactory(), injectors(),
            builder=builder, base_seed=7,
        ).run()
        proc = Campaign(
            scenarios, AutopilotAgentFactory(), injectors(),
            builder=builder, base_seed=7, workers=2, episodes_per_slot=3,
        ).run()
        assert_records_equal(serial, proc)

    def test_queue_workers_drain_multiplexed_slots(self, builder, scenarios, tmp_path):
        serial = Campaign(
            scenarios[:2], AutopilotAgentFactory(), injectors(),
            builder=builder, base_seed=7,
        ).run()
        queued = Campaign(
            scenarios[:2], AutopilotAgentFactory(), injectors(),
            builder=builder, base_seed=7, executor="queue",
            queue_dir=tmp_path / "q", workers=1, episodes_per_slot=3,
        ).run()
        assert_records_equal(serial, queued)

    def test_timeout_policy_takes_sandboxed_serial_path(self, builder, scenarios):
        policy = FaultTolerancePolicy(timeout_s=300.0)
        serial = Campaign(
            scenarios[:1], AutopilotAgentFactory(), {"none": []},
            builder=builder, base_seed=7, fault_tolerance=policy,
        ).run()
        mux = Campaign(
            scenarios[:1], AutopilotAgentFactory(), {"none": []},
            builder=builder, base_seed=7, executor="multiplexed",
            episodes_per_slot=4, fault_tolerance=policy,
        ).run()
        assert_records_equal(serial, mux)


class TestSlotResolution:
    def test_make_executor_multiplexed(self):
        ex = make_executor("multiplexed", episodes_per_slot=6)
        assert isinstance(ex, SerialExecutor)
        assert ex.episodes_per_slot == 6
        bare = make_executor("multiplexed")
        assert isinstance(bare, SerialExecutor)
        assert bare.episodes_per_slot == DEFAULT_EPISODES_PER_SLOT

    def test_serial_honours_the_slot(self):
        """"serial" with a slot is the same transport as "multiplexed"
        (it used to ignore the slot)."""
        ex = make_executor("serial", episodes_per_slot=4)
        assert isinstance(ex, SerialExecutor)
        assert ex.episodes_per_slot == 4
        assert make_executor("serial").episodes_per_slot is None

    def test_multiplexed_conflicts_with_workers(self):
        with pytest.raises(ValueError, match="conflicts with workers"):
            make_executor("multiplexed", workers=4)

    def test_bare_slot_size_selects_multiplexed(self):
        ex = make_executor(None, episodes_per_slot=4)
        assert isinstance(ex, SerialExecutor)
        assert ex.episodes_per_slot == 4
        # ...but an explicit worker pool keeps the process backend.
        assert make_executor(None, workers=3, episodes_per_slot=4).name == "process"

    def test_context_slot_size_fallbacks(self, builder, scenarios):
        campaign = Campaign(
            scenarios, autopilot_agent_factory(), {"none": []},
            builder=builder, episodes_per_slot=5,
        )
        assert multiplex_slot_size(campaign.context()) == 5
        plain = Campaign(
            scenarios, autopilot_agent_factory(), {"none": []}, builder=builder,
        )
        assert multiplex_slot_size(plain.context()) == 1

    def test_bare_multiplexed_backend_defaults_slot(self, builder, scenarios):
        """executor="multiplexed" without a slot size must still
        actually multiplex (the default, not 1)."""
        campaign = Campaign(
            scenarios, autopilot_agent_factory(), {"none": []},
            builder=builder, executor="multiplexed",
        )
        mux = EpisodeMultiplexer(campaign.context())
        assert mux.episodes_per_slot == 1  # context says 1...
        # ...the executor upgrades it.
        assert campaign.executor.episodes_per_slot == DEFAULT_EPISODES_PER_SLOT > 1

    def test_validation(self, builder, scenarios):
        with pytest.raises(ValueError):
            SerialExecutor(episodes_per_slot=0)
        with pytest.raises(ValueError):
            Campaign(
                scenarios, autopilot_agent_factory(), {"none": []},
                builder=builder, episodes_per_slot=0,
            )
        with pytest.raises(ValueError):
            Campaign(
                scenarios, autopilot_agent_factory(), {"none": []},
                builder=builder, episodes_per_slot=0, workers=2,
            )


class TestSpecPlumbing:
    def test_round_trip(self):
        spec = ExecutionSpec(backend="multiplexed", episodes_per_slot=3)
        data = spec.to_dict()
        assert data["backend"] == "multiplexed"
        assert data["episodes_per_slot"] == 3
        again = ExecutionSpec.from_dict(data)
        assert again.backend == "multiplexed"
        assert again.episodes_per_slot == 3

    def test_defaults_to_none(self):
        assert ExecutionSpec.from_dict({}).episodes_per_slot is None

    def test_validation(self):
        with pytest.raises(SpecError):
            ExecutionSpec(episodes_per_slot=0)
        with pytest.raises(SpecError):
            ExecutionSpec.from_dict({"episodes_per_slot": "4"})
        with pytest.raises(SpecError):
            ExecutionSpec.from_dict({"episodes_per_slot": True})
        with pytest.raises(SpecError):
            ExecutionSpec(backend="threads")

    def test_campaign_from_spec_override(self, builder):
        from repro.core.spec import AgentSpec, CampaignSpec, ScenarioSuiteSpec

        spec = CampaignSpec(
            name="mux",
            scenarios=ScenarioSuiteSpec(n=1, seed=1),
            agent=AgentSpec(name="autopilot"),
            injectors={"none": []},
            execution=ExecutionSpec(backend="multiplexed", episodes_per_slot=2),
        )
        campaign = Campaign.from_spec(spec)
        assert isinstance(campaign.executor, SerialExecutor)
        assert campaign.executor.episodes_per_slot == 2
        assert campaign.episodes_per_slot == 2
        override = Campaign.from_spec(spec, episodes_per_slot=7)
        assert override.episodes_per_slot == 7


class TestCliPlumbing:
    def test_flags_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["run", "spec.json", "--episodes-per-slot", "4"]
        )
        assert args.episodes_per_slot == 4
        args = parser.parse_args(
            ["worker", "--queue-dir", "q", "--episodes-per-slot", "2"]
        )
        assert args.episodes_per_slot == 2
        args = parser.parse_args(["campaign", "--episodes-per-slot", "8"])
        assert args.episodes_per_slot == 8

    def test_campaign_spec_carries_slot_size(self):
        from repro.cli import _execution_spec_from_args, build_parser

        args = build_parser().parse_args(["campaign", "--episodes-per-slot", "8"])
        assert _execution_spec_from_args(args).episodes_per_slot == 8

    def test_queue_status_empty_dir(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["queue-status", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "none published" in out
        assert "pending: 0" in out

    def test_queue_status_missing_dir_exits_2(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["queue-status", str(tmp_path / "nope")])
        assert exc.value.code == 2

    def test_queue_status_reports_campaign(self, builder, scenarios, tmp_path, capsys):
        Campaign(
            scenarios[:1], AutopilotAgentFactory(), {"none": []},
            builder=builder, executor="queue", queue_dir=tmp_path / "q", workers=1,
        ).run()
        from repro.cli import main

        assert main(["queue-status", str(tmp_path / "q")]) == 0
        out = capsys.readouterr().out
        assert "1 task(s)" in out
        assert "results: 1" in out
        assert "workers: 1 seen" in out
