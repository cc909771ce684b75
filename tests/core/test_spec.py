"""Tests for declarative campaign specs (repro.core.spec) and the
universal fault/agent registries they are built on.

The load-bearing guarantees:

* every registered fault survives ``to_config → from_config → to_config``
  exactly, whatever trigger it carries and whatever per-episode state it
  has accumulated;
* a campaign defined purely as a JSON spec produces records
  byte-identical to the equivalent programmatic ``Campaign``, on every
  backend;
* checkpoint fingerprints cover the agent and builder, so editing a
  spec's agent/builder re-runs episodes instead of silently matching;
* spec files round-trip, hash stably across processes, and fail
  validation with errors naming the JSON path.
"""

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.agent import (
    AGENT_REGISTRY,
    autopilot_agent_factory,
    make_agent_factory,
)
from repro.agent.autopilot import ExpertConfig
from repro.core import (
    Campaign,
    CampaignSpec,
    QueueExecutor,
    component_signature,
    load_spec,
    parse_spec,
    save_spec,
    standard_scenarios,
)
from repro.core.spec import (
    SPEC_SCHEMA_VERSION,
    AgentSpec,
    ExecutionSpec,
    ScenarioSuiteSpec,
    SpecError,
)
from repro.core.faults import (
    FAULT_REGISTRY,
    FaultModel,
    GaussianNoise,
    OutputDelay,
    Trigger,
    WeightBitFlip,
    make_fault,
)
from repro.sim.builders import SimulationBuilder
from repro.sim.render import CameraModel
from repro.sim.town import GridTownConfig

REPO_ROOT = Path(__file__).resolve().parents[2]
SPEC_DIR = REPO_ROOT / "examples" / "specs"

TOWN = GridTownConfig(rows=2, cols=3)

#: Registered faults whose constructors have required arguments.
REQUIRED_KWARGS = {
    "output-delay": {"delay_frames": 7},
    "sensor-delay": {"delay_frames": 3},
}


@pytest.fixture(scope="module")
def builder():
    return SimulationBuilder(camera=CameraModel(width=24, height=16), with_lidar=False)


@pytest.fixture(scope="module")
def scenarios():
    return standard_scenarios(2, seed=9, town_config=TOWN, min_distance=60, max_distance=160)


def make_default_instance(name, trigger=None):
    return make_fault(name, trigger=trigger, **REQUIRED_KWARGS.get(name, {}))


class TestFaultRegistry:
    def test_registry_covers_every_concrete_fault_class(self):
        """Any FaultModel subclass exported from repro.core.faults (bar
        the five hook-point base classes) must be registered."""
        import repro.core.faults as faults_module
        from repro.core.faults import (
            ControlFault,
            ModelFault,
            SensorFault,
            TimingFault,
            WorldFault,
        )

        bases = {FaultModel, ControlFault, ModelFault, SensorFault, TimingFault, WorldFault}
        concrete = {
            obj
            for name in faults_module.__all__
            if isinstance(obj := getattr(faults_module, name), type)
            and issubclass(obj, FaultModel)
            and obj not in bases
        }
        registered = set(FAULT_REGISTRY.values())
        missing = {cls.__name__ for cls in concrete - registered}
        assert not missing, f"unregistered fault classes: {sorted(missing)}"
        assert len(FAULT_REGISTRY) >= 24

    def test_registry_names_match_class_name_attribute(self):
        for name, cls in FAULT_REGISTRY.items():
            assert cls.name == name

    def test_every_fault_has_a_known_hook(self):
        for name, cls in FAULT_REGISTRY.items():
            assert cls.hook in ("input", "output", "model", "timing", "world"), name

    def test_make_fault_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="unknown fault 'warp'"):
            make_fault("warp")

    def test_register_rejects_duplicate_and_nameless(self):
        from repro.core.faults import register_fault

        with pytest.raises(ValueError, match="already registered"):

            @register_fault
            class Impostor(FaultModel):
                name = "gaussian"

        with pytest.raises(ValueError, match="class-level `name`"):

            @register_fault
            class Nameless(FaultModel):
                pass


class TestFaultConfigRoundTrip:
    @pytest.mark.parametrize("name", sorted(FAULT_REGISTRY))
    def test_default_instance_round_trips(self, name):
        fault = make_default_instance(name)
        config = fault.to_config()
        json.dumps(config)  # must be pure JSON
        rebuilt = FaultModel.from_config(config)
        assert type(rebuilt) is FAULT_REGISTRY[name]
        assert rebuilt.to_config() == config

    @pytest.mark.parametrize("name", sorted(FAULT_REGISTRY))
    def test_nondefault_trigger_round_trips(self, name):
        trigger = Trigger(start_frame=3, end_frame=77, probability=0.25)
        fault = make_default_instance(name, trigger=trigger)
        rebuilt = FaultModel.from_config(fault.to_config())
        assert rebuilt.trigger == trigger
        assert rebuilt.to_config() == fault.to_config()

    @pytest.mark.parametrize("name", sorted(FAULT_REGISTRY))
    def test_per_episode_state_never_leaks_into_config(self, name):
        """Mutating runtime state (activation log, drawn patches/sites)
        must not change the serialised config — a mid-campaign fault and
        a pristine clone describe the same configuration."""
        fault = make_default_instance(name)
        pristine = copy.deepcopy(fault).to_config()
        fault.bind(np.random.default_rng(5))
        fault.log.record(17)
        # Exercise state-drawing paths where they exist without needing
        # a live model/world: occlusion patches and water drops draw
        # lazily from an image.
        image = np.zeros((32, 48, 3), dtype=np.uint8)
        for attr in ("_patch_for", "_drops_for"):
            if hasattr(fault, attr):
                getattr(fault, attr)(image)
        assert fault.to_config() == pristine

    def test_ml_fault_installed_state_not_serialised(self):
        from repro.agent.ilcnn import ILCNN, ILCNNConfig

        tiny = ILCNNConfig(input_hw=(16, 24), conv_channels=(4, 6, 6), trunk_dim=16,
                           speed_dim=4, branch_hidden=8, dropout=0.0)
        model = ILCNN(tiny)
        fault = WeightBitFlip(n_flips=2)
        pristine = fault.to_config()
        fault.bind(np.random.default_rng(0))
        fault.install(model)
        assert fault.sites, "install must draw sites"
        assert fault.to_config() == pristine
        fault.remove(model)

    def test_from_config_parameter_values_survive(self):
        fault = GaussianNoise(sigma=0.31, trigger=Trigger(probability=0.5))
        rebuilt = FaultModel.from_config(fault.to_config())
        assert rebuilt.sigma == 0.31
        assert rebuilt.trigger.probability == 0.5

    def test_from_config_rejects_unknown_fault(self):
        with pytest.raises(KeyError, match="unknown fault 'nope'"):
            FaultModel.from_config({"fault": "nope"})

    def test_from_config_rejects_bad_params_readably(self):
        with pytest.raises(ValueError, match="accepted params: sigma"):
            FaultModel.from_config({"fault": "gaussian", "params": {"sgima": 1}})

    def test_from_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown keys"):
            FaultModel.from_config({"fault": "gaussian", "parms": {}})

    def test_from_config_rejects_non_object_params(self):
        """Falsy non-objects ([], "", false) must not silently mean
        'all defaults' — the file would describe a different experiment
        than the one that runs."""
        for bad in ([], "", False, [1]):
            with pytest.raises(TypeError, match="'params' must be an object"):
                FaultModel.from_config({"fault": "gaussian", "params": bad})

    def test_trigger_dict_round_trip(self):
        for trigger in (Trigger(), Trigger(5, 9, 0.5), Trigger(end_frame=0)):
            assert Trigger.from_dict(trigger.to_dict()) == trigger
        with pytest.raises(ValueError, match="unknown keys"):
            Trigger.from_dict({"start": 1})

    def test_trigger_dict_rejects_wrong_types_at_load(self):
        """A hand-edited '"start_frame": "90"' must fail at load time,
        not mid-campaign inside Trigger.fires."""
        with pytest.raises(ValueError, match="start_frame must be an integer"):
            Trigger.from_dict({"start_frame": "90"})
        with pytest.raises(ValueError, match="end_frame must be an integer"):
            Trigger.from_dict({"end_frame": "forever"})
        with pytest.raises(ValueError, match="probability must be a number"):
            Trigger.from_dict({"probability": "always"})
        with pytest.raises(ValueError, match="probability must be a number"):
            Trigger.from_dict({"probability": True})

    def test_trigger_to_dict_is_canonical(self):
        assert json.dumps(Trigger(probability=1).to_dict()) == json.dumps(
            Trigger(probability=1.0).to_dict()
        )


class TestAgentRegistry:
    def test_registry_has_both_shipped_agents(self):
        assert {"autopilot", "nn"} <= set(AGENT_REGISTRY)

    def test_make_agent_factory_unknown_name(self):
        with pytest.raises(KeyError, match="unknown agent 'teleport'"):
            make_agent_factory("teleport")

    def test_autopilot_params_build_expert_config(self):
        factory = make_agent_factory("autopilot", cruise_speed=5.5)
        assert factory.expert_config.cruise_speed == 5.5

    def test_autopilot_signature_normalises_default_config(self):
        """None and an explicit default ExpertConfig drive identically,
        so they must not invalidate each other's checkpoints."""
        assert (
            autopilot_agent_factory().config_signature()
            == autopilot_agent_factory(ExpertConfig()).config_signature()
        )

    def test_retuned_expert_changes_signature(self):
        assert (
            autopilot_agent_factory(ExpertConfig(cruise_speed=5.0)).config_signature()
            != autopilot_agent_factory().config_signature()
        )

    def test_nn_signature_tracks_model_weights(self):
        from repro.agent import nn_agent_factory
        from repro.agent.ilcnn import ILCNN, ILCNNConfig

        tiny = ILCNNConfig(input_hw=(16, 24), conv_channels=(4, 6, 6), trunk_dim=16,
                           speed_dim=4, branch_hidden=8, dropout=0.0)
        model = ILCNN(tiny)
        factory = nn_agent_factory(model)
        before = factory.config_signature()
        params = model.named_parameters()
        name = sorted(params)[0]
        original = params[name].data.flat[0]
        params[name].data.flat[0] = original + 1.0
        assert factory.config_signature() != before
        params[name].data.flat[0] = original  # bit-exact restore
        assert factory.config_signature() == before

    def test_component_signature_fallback_is_process_portable(self):
        def custom(handles, mission):  # pragma: no cover - never called
            return None

        signature = component_signature(custom)
        assert "custom" in signature and "0x" not in signature


class TestSpecRoundTrip:
    def make_spec(self):
        return CampaignSpec(
            name="rt",
            scenarios=ScenarioSuiteSpec(
                n=2, seed=9, town=TOWN, min_distance=60.0, max_distance=160.0
            ),
            agent=AgentSpec("autopilot", {"cruise_speed": 6.0}),
            injectors={
                "none": [],
                "gaussian": [GaussianNoise(0.1)],
                "delay": [OutputDelay(8, trigger=Trigger(start_frame=30))],
            },
            builder=SimulationBuilder(camera=CameraModel(width=24, height=16)),
            execution=ExecutionSpec(base_seed=3, workers=2, backend="process"),
        )

    def test_to_dict_from_dict_identity(self):
        spec = self.make_spec()
        data = spec.to_dict()
        again = CampaignSpec.from_dict(json.loads(json.dumps(data)))
        assert again.to_dict() == data
        assert again.hash() == spec.hash()

    def test_save_load_spec_file(self, tmp_path):
        spec = self.make_spec()
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        loaded = load_spec(path)
        assert loaded.to_dict() == spec.to_dict()
        assert loaded.execution.workers == 2
        assert loaded.agent.params == {"cruise_speed": 6.0}

    def test_int_float_spelling_hashes_identically(self):
        a = ScenarioSuiteSpec(min_distance=60, max_distance=160)
        b = ScenarioSuiteSpec(min_distance=60.0, max_distance=160.0)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_explicit_suite_int_float_spelling_hashes_identically(self, scenarios):
        """Explicit suites canonicalise numerics like the generate form:
        dataclass-equal scenarios spelled with ints vs floats must emit
        identical JSON (spec hashes are content hashes)."""
        import dataclasses

        base = scenarios[0]
        as_int = dataclasses.replace(
            base, town_config=GridTownConfig(rows=2, cols=3, block_size=80)
        )
        as_float = dataclasses.replace(
            base, town_config=GridTownConfig(rows=2, cols=3, block_size=80.0)
        )
        assert as_int == as_float
        assert json.dumps(as_int.to_dict()) == json.dumps(as_float.to_dict())

    def test_explicit_scenario_suite_round_trips(self, scenarios):
        spec = CampaignSpec(scenarios=ScenarioSuiteSpec(scenarios=list(scenarios)))
        data = spec.to_dict()
        assert "explicit" in data["scenarios"]
        again = CampaignSpec.from_dict(json.loads(json.dumps(data)))
        assert again.scenarios.build() == list(scenarios)
        assert again.to_dict() == data

    def test_generated_suite_matches_standard_scenarios(self, scenarios):
        suite = ScenarioSuiteSpec(
            n=2, seed=9, town=TOWN, min_distance=60.0, max_distance=160.0
        )
        assert suite.build() == list(scenarios)


class TestSpecValidation:
    def test_missing_schema_version(self):
        with pytest.raises(SpecError, match="spec.schema_version: missing"):
            CampaignSpec.from_dict({"injectors": {"none": []}})

    def test_future_schema_version(self):
        with pytest.raises(SpecError, match="only understands"):
            CampaignSpec.from_dict(
                {"schema_version": SPEC_SCHEMA_VERSION + 1, "injectors": {"none": []}}
            )

    def test_unknown_top_level_key(self):
        with pytest.raises(SpecError, match=r"spec: unknown keys \['agnt'\]"):
            CampaignSpec.from_dict(
                {"schema_version": 1, "injectors": {"none": []}, "agnt": {}}
            )

    def test_unknown_fault_names_its_path(self):
        with pytest.raises(SpecError, match=r"spec.injectors\['bad'\]\[0\]"):
            CampaignSpec.from_dict(
                {
                    "schema_version": 1,
                    "injectors": {"bad": [{"fault": "no-such-fault"}]},
                }
            )

    def test_unknown_agent_lists_registered(self):
        with pytest.raises(SpecError, match="registered agents"):
            CampaignSpec.from_dict(
                {
                    "schema_version": 1,
                    "injectors": {"none": []},
                    "agent": {"name": "teleport"},
                }
            )

    def test_empty_injectors_rejected(self):
        with pytest.raises(SpecError, match="at least one injector"):
            CampaignSpec.from_dict({"schema_version": 1, "injectors": {}})

    def test_agent_params_non_object_rejected(self):
        with pytest.raises(SpecError, match="spec.agent.params"):
            AgentSpec.from_dict({"name": "autopilot", "params": []})

    def test_execution_types_strictly_validated(self):
        with pytest.raises(SpecError, match=r"workers: must be an integer, got '2'"):
            ExecutionSpec.from_dict({"workers": "2"})
        with pytest.raises(SpecError, match="workers: must be an integer, got 2.9"):
            ExecutionSpec.from_dict({"workers": 2.9})
        with pytest.raises(SpecError, match="base_seed: must be an integer"):
            ExecutionSpec.from_dict({"base_seed": "7"})
        with pytest.raises(SpecError, match="lease_s: must be a number"):
            ExecutionSpec.from_dict({"lease_s": "60"})
        with pytest.raises(SpecError, match="queue_dir: must be a string"):
            ExecutionSpec.from_dict({"queue_dir": 7})

    def test_unbounded_lease_rejected(self):
        """JSON's Infinity/NaN parse as floats; a lease that never
        expires would strand a dead worker's task forever."""
        for bad in ("Infinity", "NaN", "-1", "0"):
            with pytest.raises(SpecError, match="spec.execution.lease_s"):
                ExecutionSpec.from_dict(json.loads(f'{{"lease_s": {bad}}}'))

    def test_bad_backend_rejected(self):
        with pytest.raises(SpecError, match="unknown backend"):
            CampaignSpec.from_dict(
                {
                    "schema_version": 1,
                    "injectors": {"none": []},
                    "execution": {"backend": "carrier-pigeon"},
                }
            )

    @pytest.mark.parametrize("max_depth", [0, -5, math.nan])
    def test_degenerate_camera_depth_rejected(self, max_depth):
        data = {
            "schema_version": 1,
            "injectors": {"none": []},
            "builder": {"camera": {"max_depth": max_depth}},
        }
        with pytest.raises(SpecError, match=r"spec.builder: max_depth must be finite"):
            parse_spec(json.dumps(data))

    def test_suite_needs_exactly_one_form(self):
        with pytest.raises(SpecError, match="exactly one of"):
            ScenarioSuiteSpec.from_dict({})
        with pytest.raises(SpecError, match="exactly one of"):
            ScenarioSuiteSpec.from_dict({"generate": {}, "explicit": []})

    def test_not_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(SpecError, match="not valid JSON"):
            load_spec(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="no such spec file"):
            load_spec(tmp_path / "ghost.json")

    def test_queue_backend_without_queue_dir_rejected_at_build(self):
        spec = CampaignSpec(execution=ExecutionSpec(backend="queue"))
        with pytest.raises(ValueError, match="queue_dir"):
            Campaign.from_spec(spec)

    def test_queue_dir_override_beats_pinned_backend(self, tmp_path):
        """--queue-dir must shard ANY archived spec, including one whose
        execution block pinned another backend."""
        spec = CampaignSpec(execution=ExecutionSpec(workers=2, backend="process"))
        campaign = Campaign.from_spec(spec, queue_dir=str(tmp_path / "q"))
        assert isinstance(campaign.executor, QueueExecutor)
        assert str(campaign.executor.queue_dir) == str(tmp_path / "q")


class TestStudyFromSpecExecution:
    def test_study_run_defaults_to_spec_execution(self, builder, scenarios, tmp_path):
        """A spec declaring the queue backend must actually run through
        the broker — not silently fall back to serial."""
        queue_dir = tmp_path / "study-q"
        spec = CampaignSpec(
            scenarios=ScenarioSuiteSpec(
                n=1, seed=9, town=TOWN, min_distance=60.0, max_distance=160.0
            ),
            agent=AgentSpec("autopilot"),
            injectors={"none": []},
            builder=builder,
            execution=ExecutionSpec(
                workers=1, backend="queue", queue_dir=str(queue_dir)
            ),
        )
        study = Campaign.from_spec(spec)
        records = study.run().records
        assert len(records) == 1
        # Proof the broker was used: it archived the spec and checkpoint.
        assert (queue_dir / "spec.json").exists()
        assert (queue_dir / "results.jsonl").exists()

    def test_study_run_honours_slot(self, builder):
        """execution.episodes_per_slot reaches the campaign's context
        and transport."""
        spec = CampaignSpec(
            scenarios=ScenarioSuiteSpec(
                n=1, seed=9, town=TOWN, min_distance=60.0, max_distance=160.0
            ),
            agent=AgentSpec("autopilot"),
            injectors={"none": []},
            builder=builder,
            execution=ExecutionSpec(
                backend="multiplexed",
                episodes_per_slot=2,
            ),
        )
        campaign = Campaign.from_spec(spec)
        assert campaign.context().episodes_per_slot == 2
        assert campaign.executor.episodes_per_slot == 2


class TestSpecExecutionEquivalence:
    """A spec-driven campaign is byte-identical to the programmatic one,
    on every backend (acceptance criterion)."""

    INJECTORS = {"none": [], "delay": [OutputDelay(8)]}

    def make_spec(self, builder, workers=None, backend=None, queue_dir=None):
        return CampaignSpec(
            name="equiv",
            scenarios=ScenarioSuiteSpec(
                n=2, seed=9, town=TOWN, min_distance=60.0, max_distance=160.0
            ),
            agent=AgentSpec("autopilot"),
            injectors={
                name: [copy.deepcopy(f) for f in faults]
                for name, faults in self.INJECTORS.items()
            },
            builder=builder,
            execution=ExecutionSpec(
                workers=workers, backend=backend, queue_dir=queue_dir
            ),
        )

    @pytest.fixture(scope="class")
    def reference(self, builder, scenarios):
        return Campaign(
            scenarios, autopilot_agent_factory(), self.INJECTORS, builder=builder
        ).run()

    def test_serial_backend_matches_programmatic(self, builder, reference):
        result = Campaign.from_spec(self.make_spec(builder, backend="serial")).run()
        assert [r.to_dict() for r in result.records] == [
            r.to_dict() for r in reference.records
        ]

    def test_process_backend_matches_programmatic(self, builder, reference):
        result = Campaign.from_spec(
            self.make_spec(builder, workers=2, backend="process")
        ).run()
        assert [r.to_dict() for r in result.records] == [
            r.to_dict() for r in reference.records
        ]

    def test_queue_backend_matches_programmatic(self, builder, reference, tmp_path):
        spec = self.make_spec(
            builder, workers=1, backend="queue", queue_dir=str(tmp_path / "q")
        )
        campaign = Campaign.from_spec(spec)
        result = campaign.run()
        assert [r.to_dict() for r in result.records] == [
            r.to_dict() for r in reference.records
        ]
        # The broker archived the spec as a portable artifact.
        spec_json = json.loads((tmp_path / "q" / "spec.json").read_text())
        assert CampaignSpec.from_dict(spec_json).hash() == spec.hash()

    def test_spec_round_trip_does_not_change_fingerprints(self, builder):
        spec = self.make_spec(builder)
        reloaded = parse_spec(json.dumps(spec.to_dict()))
        tasks_a = Campaign(
            spec.scenarios.build(), spec.agent.build(), spec.injectors,
            builder=spec.build_builder(),
        ).tasks()
        tasks_b = Campaign(
            reloaded.scenarios.build(), reloaded.agent.build(), reloaded.injectors,
            builder=reloaded.build_builder(),
        ).tasks()
        assert [t.identity() for t in tasks_a] == [t.identity() for t in tasks_b]


class TestComponentFingerprintInvalidation:
    """Changing the spec's agent or builder re-runs episodes instead of
    silently matching the old checkpoint (acceptance criterion)."""

    def run_study(self, spec, checkpoint):
        study = Campaign.from_spec(spec, checkpoint_path=checkpoint)
        study.run()
        return study

    def base_spec(self, builder):
        return CampaignSpec(
            scenarios=ScenarioSuiteSpec(
                n=1, seed=9, town=TOWN, min_distance=60.0, max_distance=160.0
            ),
            agent=AgentSpec("autopilot"),
            injectors={"none": []},
            builder=builder,
        )

    def test_agent_change_invalidates_checkpoint(self, builder, tmp_path):
        checkpoint = tmp_path / "agent.jsonl"
        spec = self.base_spec(builder)
        self.run_study(spec, checkpoint)

        unchanged = Campaign.from_spec(spec, checkpoint_path=checkpoint)
        assert unchanged.pending() == []

        retuned = self.base_spec(builder)
        retuned.agent = AgentSpec("autopilot", {"cruise_speed": 5.0})
        stale = Campaign.from_spec(retuned, checkpoint_path=checkpoint)
        assert len(stale.pending()) == 1, "agent change must re-run episodes"

    def test_builder_change_invalidates_checkpoint(self, builder, tmp_path):
        checkpoint = tmp_path / "builder.jsonl"
        spec = self.base_spec(builder)
        self.run_study(spec, checkpoint)

        rebuilt = self.base_spec(
            SimulationBuilder(camera=CameraModel(width=24, height=16), with_lidar=True)
        )
        stale = Campaign.from_spec(rebuilt, checkpoint_path=checkpoint)
        assert len(stale.pending()) == 1, "builder change must re-run episodes"


class TestGoldenSpecFiles:
    """The committed examples/specs/*.json stay loadable and stable."""

    def test_all_committed_specs_load(self):
        paths = sorted(SPEC_DIR.glob("*.json"))
        assert paths, f"no committed specs under {SPEC_DIR}"
        for path in paths:
            spec = load_spec(path)
            assert spec.injectors
            # Re-serialising a loaded spec reproduces the file exactly —
            # the committed artifacts are canonical.
            assert json.dumps(spec.to_dict(), indent=2) + "\n" == path.read_text(), path

    def test_smoke_spec_runs_one_episode_grid(self):
        spec = load_spec(SPEC_DIR / "smoke.json")
        result = Campaign.from_spec(spec).run()
        assert len(result.records) == 3
        assert [r.injector for r in result.records] == ["none", "gaussian", "delay-10"]
        assert all(r.config_fingerprint for r in result.records)

    def test_smoke_spec_fingerprints_stable_across_processes(self):
        """The spec hash and every task fingerprint must be identical
        when computed in a fresh interpreter — no id()/PYTHONHASHSEED
        dependence anywhere in the identity chain."""
        spec = load_spec(SPEC_DIR / "smoke.json")
        campaign = Campaign.from_spec(spec)
        local = [spec.hash()] + [t.fingerprint for t in campaign.tasks()]
        script = (
            "import json\n"
            "from repro.core import Campaign, load_spec\n"
            f"spec = load_spec({str(SPEC_DIR / 'smoke.json')!r})\n"
            "c = Campaign.from_spec(spec)\n"
            "print(json.dumps([spec.hash()] + [t.fingerprint for t in c.tasks()]))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PYTHONHASHSEED": "31"},
        )
        assert json.loads(out.stdout) == local


class TestSweepCollision:
    def test_collision_raises_readably(self):
        from repro.core import sweep

        with pytest.raises(ValueError, match="sweep name collision"):
            sweep(lambda k: OutputDelay(int(k)), [5, 10], name_format="d")

    def test_rounded_float_collision_raises(self):
        from repro.core import sweep

        with pytest.raises(ValueError, match="0.30001"):
            sweep(
                lambda k: GaussianNoise(k), [0.3, 0.30001], name_format="g-{value:.1f}"
            )

    def test_baseline_name_collision_raises(self):
        from repro.core import sweep

        with pytest.raises(ValueError, match="collision"):
            sweep(lambda k: OutputDelay(int(k)), [5], name_format="none")

    def test_distinct_names_still_work(self):
        from repro.core import sweep

        injectors = sweep(lambda k: OutputDelay(int(k)), [5, 10], name_format="d{value}")
        assert list(injectors) == ["none", "d5", "d10"]


class TestSpecCli:
    def test_run_subcommand_executes_spec(self, capsys):
        from repro.cli import main

        assert main(["run", str(SPEC_DIR / "smoke.json"), "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "spec: smoke" in out
        assert "delay-10" in out and "MSR_%" in out

    def test_run_shows_quarantined_episodes(self, tmp_path, monkeypatch, capsys):
        """Under a failure budget a quarantined episode stays visible:
        its injector keeps a metrics row (no runs, one lost) and the
        quarantine table lists it, as `avfi report` does."""
        from repro.cli import main
        from repro.core.chaos import CrashFault

        # Chaos fixtures are deliberately not in the fault registry, so
        # the crashing spec cannot round-trip through a file: hand the
        # live spec to the CLI instead.
        spec = load_spec(SPEC_DIR / "smoke.json")
        spec.injectors = {"none": [], "crash": [CrashFault()]}
        monkeypatch.setattr("repro.core.spec.load_spec", lambda path: spec)
        assert main(["run", str(SPEC_DIR / "smoke.json"), "--failure-budget", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(i for i, line in enumerate(lines) if "MSR_%" in line)
        assert lines[header].split()[:3] == ["injector", "runs", "lost"]
        table = {}
        for line in lines[header + 2 :]:
            if not line.strip():
                break
            cells = line.split()
            table[cells[0]] = cells[1:3]
        assert table["none"][0] == "1"
        assert table["crash"] == ["0", "1"], "a wholly quarantined injector keeps its row"
        quarantine = next(i for i, line in enumerate(lines) if "quarantined episodes" in line)
        assert any(line.split()[:1] == ["crash"] for line in lines[quarantine:])

    def test_run_rejects_missing_spec(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc_info:
            main(["run", str(tmp_path / "ghost.json")])
        # Usage-level error: exit status 2 (like argparse), one readable
        # line on stderr — scripts branch on the code, humans read the line.
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "no such spec file" in err and "\n" not in err.rstrip("\n")

    def test_run_rejects_coordinate_only_without_queue(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="queue"):
            main(["run", str(SPEC_DIR / "smoke.json"), "--workers", "0"])

    def test_run_reports_spec_execution_errors_readably(self, tmp_path):
        """Construction-time ValueErrors (queue backend without a queue
        dir) surface as CLI errors, not tracebacks."""
        from repro.cli import main

        spec_path = tmp_path / "queueless.json"
        spec = CampaignSpec(execution=ExecutionSpec(backend="queue"))
        save_spec(spec, spec_path)
        with pytest.raises(SystemExit, match="avfi run: .*queue_dir"):
            main(["run", str(spec_path)])

    def test_spec_emit_campaign_output_reloads(self, capsys):
        from repro.cli import main

        assert main(["spec", "emit", "campaign", "--runs", "2"]) == 0
        emitted = capsys.readouterr().out
        spec = parse_spec(emitted)
        assert spec.name == "input-fault-campaign"
        assert set(spec.injectors) == {
            "none", "gaussian", "s&p", "solid-occ", "transp-occ", "water-drop",
        }
        assert spec.scenarios.n == 2

    def test_spec_emit_sweep_delay_matches_figure_grid(self, capsys):
        from repro.cli import main

        assert main(["spec", "emit", "sweep-delay", "--delays", "0", "10"]) == 0
        spec = parse_spec(capsys.readouterr().out)
        assert list(spec.injectors) == ["delay-0", "delay-10"]
        assert spec.injectors["delay-0"] == []
        assert spec.injectors["delay-10"][0].delay_frames == 10

    def test_spec_emit_out_file(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "emitted.json"
        assert main(["spec", "emit", "campaign", "--out", str(out)]) == 0
        assert load_spec(out).name == "input-fault-campaign"

    def test_spec_emit_allows_coordinate_only_without_queue_dir(self, capsys):
        """Emitting runs nothing; a coordinate-only spec pairs with a
        --queue-dir supplied later at `avfi run` time."""
        from repro.cli import main

        assert main(["spec", "emit", "campaign", "--workers", "0"]) == 0
        spec = parse_spec(capsys.readouterr().out)
        assert spec.execution.workers == 0

    def test_spec_validate_reports_hash(self, capsys):
        from repro.cli import main

        assert main(["spec", "validate", str(SPEC_DIR / "smoke.json")]) == 0
        out = capsys.readouterr().out
        assert "OK: 'smoke'" in out and load_spec(SPEC_DIR / "smoke.json").hash() in out

    def test_spec_validate_rejects_broken(self, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "injectors": {}}))
        with pytest.raises(SystemExit, match="at least one injector"):
            main(["spec", "validate", str(bad)])

    def test_list_faults_driven_by_registry(self, capsys):
        from repro.cli import main

        assert main(["list-faults"]) == 0
        out = capsys.readouterr().out
        for name in FAULT_REGISTRY:
            assert name in out, f"{name} missing from list-faults"
        for hook in ("input", "output", "timing", "model", "world"):
            assert f"\n{hook} — " in out
        assert "delay_frames" in out  # parameters are listed
