"""Compound-fault episodes end-to-end: harness unwind and ordering, the
Snippet-catalog faults, interaction-effect analysis, compound spec
expansion, the streaming metrics path and the JSONL result log."""

import copy
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from repro.agent import autopilot_agent_factory
from repro.agent.ilcnn import ILCNN, ILCNNConfig
from repro.core import (
    Campaign,
    CampaignSpec,
    CompoundInjectorSpec,
    InjectionHarness,
    compute_metrics,
    interaction_effects,
    interaction_table,
    metrics_by_injector,
    standard_scenarios,
)
from repro.core.analysis import compare_to_baseline
from repro.core.campaign import RunRecord
from repro.core.faults import (
    DuplicationFault,
    FaultModel,
    GaussianNoise,
    OutputDelay,
    SchemaChangeFault,
    SensorDriftFault,
    SpikeFault,
    StuckAtFault,
    Trigger,
    WeightNoise,
)
from repro.core.metrics import MetricsAccumulator
from repro.core.resultlog import ResultLog
from repro.core.spec import ExecutionSpec, SpecError
from repro.sim.builders import SimulationBuilder
from repro.sim.channel import Channel
from repro.sim.render import CameraModel
from repro.sim.sensors import SensorFrame
from repro.sim.town import GridTownConfig

TOWN = GridTownConfig(rows=2, cols=3)
TINY = ILCNNConfig(input_hw=(16, 24), conv_channels=(4, 6, 6), trunk_dim=16,
                   speed_dim=4, branch_hidden=8, dropout=0.0)


@pytest.fixture(scope="module")
def builder():
    return SimulationBuilder(camera=CameraModel(width=24, height=16), with_lidar=False)


@pytest.fixture(scope="module")
def scenarios():
    return standard_scenarios(1, seed=9, town_config=TOWN, min_distance=60, max_distance=160)


def _bundle(frame=0, speed=10.0, gps=(5.0, 7.0), heading=0.25):
    return SensorFrame(
        frame=frame,
        image=np.zeros((8, 8, 3), dtype=np.uint8),
        gps=gps,
        speed=speed,
        heading=heading,
        lidar=None,
    )


def _parts():
    """Minimal client/server stand-ins exposing the harness hook points."""
    client = SimpleNamespace(input_filters=[], output_filters=[])
    server = SimpleNamespace(
        sensor_channel=Channel("sensor"), control_channel=Channel("control")
    )
    return server, client


def bind(fault, seed=0):
    fault.reset()
    fault.bind(np.random.default_rng(seed))
    return fault


# ----------------------------------------------------------------------
# Harness: duplicate rejection, partial-failure unwind, compound order
# ----------------------------------------------------------------------


class TestHarnessDuplicateRejection:
    def test_same_instance_twice_rejected(self):
        fault = GaussianNoise(0.1)
        with pytest.raises(ValueError, match="appears twice.*position 1"):
            InjectionHarness([fault, fault], seed=0)

    def test_error_suggests_deepcopy(self):
        fault = OutputDelay(5)
        with pytest.raises(ValueError, match="deepcopy"):
            InjectionHarness([fault, GaussianNoise(0.1), fault], seed=0)

    def test_equal_but_distinct_instances_allowed(self):
        harness = InjectionHarness([GaussianNoise(0.1), GaussianNoise(0.1)], seed=0)
        assert len(harness.faults) == 2


class TestHarnessPartialAttachUnwind:
    def test_model_fault_without_model_unwinds_earlier_hooks(self):
        server, client = _parts()
        harness = InjectionHarness(
            [GaussianNoise(0.1), OutputDelay(5), WeightNoise(0.2)], seed=0
        )
        with pytest.raises(ValueError, match="no model"):
            harness.attach(server, client, model=None)
        # The sensor filter and channel transform planted before the
        # failure must be gone; the components are pristine.
        assert client.input_filters == []
        assert client.output_filters == []
        assert server.control_channel.transforms == []
        assert server.sensor_channel.transforms == []

    def test_failed_attach_restores_model_weights(self):
        class ExplodingFault(FaultModel):
            """Attaches to no hook point -> TypeError mid-attach."""

        server, client = _parts()
        model = ILCNN(TINY)
        before = model.state_dict()
        harness = InjectionHarness(
            [WeightNoise(0.5), GaussianNoise(0.1), ExplodingFault()], seed=1
        )
        with pytest.raises(TypeError, match="unknown fault kind"):
            harness.attach(server, client, model=model)
        assert all(np.array_equal(before[k], model.state_dict()[k]) for k in before)
        assert client.input_filters == []

    def test_harness_reusable_after_failed_attach(self):
        server, client = _parts()
        harness = InjectionHarness([GaussianNoise(0.1), WeightNoise(0.2)], seed=0)
        with pytest.raises(ValueError):
            harness.attach(server, client, model=None)
        # Not attached: a subsequent attach with a model must succeed.
        model = ILCNN(TINY)
        harness.attach(server, client, model=model)
        assert len(client.input_filters) == 1
        harness.detach()
        assert client.input_filters == []

    def test_detach_noop_without_attach(self):
        harness = InjectionHarness([GaussianNoise(0.1)], seed=0)
        harness.detach()  # must not raise


class TestCompoundAttachOrdering:
    def test_sensor_faults_compose_in_declaration_order(self):
        """stuck-at then schema-change: the stuck value gets rescaled."""
        server, client = _parts()
        stuck = StuckAtFault(field="speed", value=10.0)
        schema = SchemaChangeFault(swap_gps=False, speed_factor=2.0)
        harness = InjectionHarness([stuck, schema], seed=0)
        harness.attach(server, client)
        out = _bundle(speed=3.0)
        for filt in client.input_filters:  # what AgentClient.tick does
            out = filt(out)
        assert out.speed == pytest.approx(20.0)
        harness.detach()

        # Reversed declaration: the stuck-at wins, rescale never shows.
        server, client = _parts()
        harness = InjectionHarness(
            [SchemaChangeFault(swap_gps=False, speed_factor=2.0),
             StuckAtFault(field="speed", value=10.0)],
            seed=0,
        )
        harness.attach(server, client)
        out = _bundle(speed=3.0)
        for filt in client.input_filters:
            out = filt(out)
        assert out.speed == pytest.approx(10.0)
        harness.detach()

    def test_detach_restores_weights_after_compound_ml_sensor_episode(self):
        server, client = _parts()
        model = ILCNN(TINY)
        before = model.state_dict()
        harness = InjectionHarness(
            [GaussianNoise(0.2), WeightNoise(0.5), OutputDelay(4)], seed=3
        )
        harness.attach(server, client, model=model)
        assert any(
            not np.array_equal(before[k], model.state_dict()[k]) for k in before
        )
        harness.detach()
        assert all(np.array_equal(before[k], model.state_dict()[k]) for k in before)
        assert client.input_filters == []
        assert server.control_channel.transforms == []

    def test_per_position_child_rngs_are_deterministic(self):
        """Same fault set + seed -> identical streams; the draw depends
        on the fault's position, not its identity."""

        def spikes(seed):
            server, client = _parts()
            faults = [SpikeFault(magnitude=5.0, trigger=Trigger(probability=1.0)),
                      SpikeFault(magnitude=5.0, trigger=Trigger(probability=1.0))]
            harness = InjectionHarness(faults, seed=seed)
            harness.attach(server, client)
            out = []
            for filt in client.input_filters:
                out.append(filt(_bundle(speed=50.0)).speed)
            harness.detach()
            return out

        first, second = spikes(11), spikes(11)
        assert first == second
        # Two positions draw from different child streams.
        assert first[0] != first[1]
        assert spikes(12) != first


# ----------------------------------------------------------------------
# The ported Snippet-catalog faults
# ----------------------------------------------------------------------


class TestCatalogFaults:
    def test_schema_change_swaps_and_rescales(self):
        fault = bind(SchemaChangeFault(swap_gps=True, speed_factor=3.6))
        out = fault.apply(_bundle(speed=10.0, gps=(5.0, 7.0)), 0)
        assert out.gps == (7.0, 5.0)
        assert out.speed == pytest.approx(36.0)

    def test_stuck_at_heading(self):
        fault = bind(StuckAtFault(field="heading", value=1.5))
        out = fault.apply(_bundle(heading=0.2), 0)
        assert out.heading == 1.5

    def test_stuck_at_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="field must be one of"):
            StuckAtFault(field="altitude")

    def test_spike_speed_never_negative(self):
        fault = bind(SpikeFault(field="speed", magnitude=100.0,
                                trigger=Trigger(probability=1.0)))
        for frame in range(50):
            assert fault.apply(_bundle(speed=1.0), frame).speed >= 0.0

    def test_spike_gps_displaces_fix(self):
        fault = bind(SpikeFault(field="gps", magnitude=25.0,
                                trigger=Trigger(probability=1.0)))
        out = fault.apply(_bundle(gps=(0.0, 0.0)), 0)
        assert math.hypot(*out.gps) > 25.0 * 0.25 - 1e-9

    def test_drift_accumulates_and_resets(self):
        fault = bind(SensorDriftFault(rate_m=1.0, heading_deg=0.0))
        first = fault.apply(_bundle(gps=(0.0, 0.0)), 0)
        second = fault.apply(_bundle(gps=(0.0, 0.0)), 1)
        assert first.gps[0] == pytest.approx(1.0)
        assert second.gps[0] == pytest.approx(2.0)  # grows every frame
        fault.reset()
        again = fault.apply(_bundle(gps=(0.0, 0.0)), 0)
        assert again.gps[0] == pytest.approx(1.0)

    def test_duplication_replays_stale_bundle(self):
        fault = bind(DuplicationFault(lag=2, trigger=Trigger(probability=1.0)))
        outs = [fault.apply(_bundle(frame=i, speed=float(i)), i) for i in range(5)]
        # Until `lag` history exists the live bundle passes through.
        assert outs[0].speed == 0.0 and outs[1].speed == 1.0
        # From then on the agent sees the bundle from `lag` frames ago.
        assert outs[2].speed == 0.0
        assert outs[3].speed == 1.0
        assert outs[4].speed == 2.0

    def test_duplication_validation(self):
        with pytest.raises(ValueError, match="lag"):
            DuplicationFault(lag=0)

    @pytest.mark.parametrize(
        "fault",
        [
            SchemaChangeFault(swap_gps=False, speed_factor=2.5),
            StuckAtFault(field="heading", value=-1.0),
            SpikeFault(field="gps", magnitude=12.0),
            SensorDriftFault(rate_m=0.2, heading_deg=90.0),
            DuplicationFault(lag=4),
        ],
        ids=lambda f: f.name,
    )
    def test_config_roundtrip(self, fault):
        config = fault.to_config()
        rebuilt = FaultModel.from_config(config)
        assert type(rebuilt) is type(fault)
        assert rebuilt.to_config() == config


# ----------------------------------------------------------------------
# Analysis: NaN propagation + interaction effects
# ----------------------------------------------------------------------


def _record(injector, seed, *, success=True, violations=0, km=1.0, faults=()):
    return RunRecord(
        scenario="scn-0",
        injector=injector,
        seed=seed,
        success=success,
        frames=150,
        duration_s=10.0,
        distance_km=km,
        time_limit_s=60.0,
        violations=[
            {"type": "lane", "frame": 30 + i, "time_s": 2.0,
             "is_accident": False, "position": [0, 0]}
            for i in range(violations)
        ],
        injection_frames=[10] if faults else [],
        faults=[{"name": name, "class": "X"} for name in faults],
    )


class TestCompareToBaselineNaN:
    def test_empty_baseline_yields_nan_not_crash(self):
        out = compare_to_baseline({"none": [], "delay": [1.0, 2.0]})
        assert all(math.isnan(v) for v in out["delay"].values())

    def test_empty_group_yields_nan(self):
        out = compare_to_baseline({"none": [1.0, 2.0], "empty": []})
        assert all(math.isnan(v) for v in out["empty"].values())

    def test_zero_mean_baseline_ratio_is_nan_not_inf(self):
        out = compare_to_baseline({"none": [0.0, 0.0], "delay": [3.0, 4.0]})
        ratio = out["delay"]["mean_ratio_vs_baseline"]
        assert math.isnan(ratio) and not math.isinf(ratio)
        # The other summaries stay defined.
        assert out["delay"]["median_shift"] == pytest.approx(3.5)

    def test_nan_mean_baseline_ratio_is_nan_not_inf(self):
        out = compare_to_baseline(
            {"none": [float("nan"), 1.0], "delay": [3.0, 4.0]}
        )
        assert math.isnan(out["delay"]["mean_ratio_vs_baseline"])

    def test_missing_baseline_raises(self):
        with pytest.raises(KeyError):
            compare_to_baseline({"delay": [1.0]}, baseline="none")


class TestInteractionEffects:
    def _metrics(self):
        records = (
            [_record("none", s) for s in range(4)]
            + [_record("a", s, violations=1, faults=("fa",)) for s in range(4)]
            + [_record("b", s, violations=2, faults=("fb",)) for s in range(4)]
            + [
                _record("ab", s, success=False, violations=5, faults=("fa", "fb"))
                for s in range(4)
            ]
        )
        return metrics_by_injector(records)

    def test_deltas_vs_worst_marginal(self):
        effects = interaction_effects(self._metrics())
        assert list(effects) == ["ab"]
        e = effects["ab"]
        assert e["components"] == ["fa", "fb"]
        assert e["marginals"] == {"fa": "a", "fb": "b"}
        # worst marginal MSR = 100 (both succeed), compound = 0.
        assert e["msr_delta_vs_worst"] == pytest.approx(-100.0)
        # worst marginal VPK = 2.0 (b), compound = 5.0.
        assert e["vpk_delta_vs_worst"] == pytest.approx(3.0)
        assert set(e["p_vs_marginals"]) == {"fa", "fb"}
        assert all(0.0 <= p <= 1.0 for p in e["p_vs_marginals"].values())

    def test_missing_marginal_nan_propagates(self):
        metrics = self._metrics()
        metrics.pop("b")  # fb now has no single-fault marginal
        e = interaction_effects(metrics)["ab"]
        assert e["marginals"]["fb"] is None
        assert math.isnan(e["msr_delta_vs_worst"])
        assert math.isnan(e["vpk_delta_vs_worst"])
        assert math.isnan(e["p_vs_marginals"]["fb"])
        assert not math.isnan(e["p_vs_marginals"]["fa"])

    def test_single_fault_only_campaign_has_no_interactions(self):
        records = [_record("a", 0, faults=("fa",)), _record("none", 0)]
        assert interaction_effects(metrics_by_injector(records)) == {}

    def test_interaction_table_renders(self):
        table = interaction_table(interaction_effects(self._metrics()))
        assert "ab" in table and "fa+fb" in table
        empty = interaction_table({})
        assert "no compound injectors" in empty


# ----------------------------------------------------------------------
# Streaming metrics + sinks
# ----------------------------------------------------------------------


def _synthetic_records(n, rng=None):
    rng = rng or np.random.default_rng(0)
    injectors = ["none", "a", "b", "ab"]
    fault_sets = {"none": (), "a": ("fa",), "b": ("fb",), "ab": ("fa", "fb")}
    for i in range(n):
        injector = injectors[i % len(injectors)]
        yield _record(
            injector,
            i,
            success=bool(rng.random() < 0.7),
            violations=int(rng.integers(0, 4)),
            km=float(rng.uniform(0.1, 2.0)),
            faults=fault_sets[injector],
        )


class TestStreamingMetrics:
    def test_accumulator_equals_batch_exactly(self):
        records = list(_synthetic_records(200))
        batch = compute_metrics(records)
        acc = MetricsAccumulator()
        for record in records:
            acc.add(record)
        streamed = acc.result()
        # Same fold order -> bit-identical floats, not just approx.
        assert streamed == batch

    def test_compute_metrics_accepts_generator(self):
        metrics = compute_metrics(_synthetic_records(50))
        assert metrics.n_runs == 50

    def test_metrics_by_injector_accepts_generator(self):
        by_injector = metrics_by_injector(_synthetic_records(100))
        assert set(by_injector) == {"none", "a", "b", "ab"}
        assert sum(m.n_runs for m in by_injector.values()) == 100
        assert by_injector["ab"].fault_names == ("fa", "fb")

    def test_empty_iterable_follows_empty_slice_convention(self):
        metrics = compute_metrics(iter(()))
        assert metrics.n_runs == 0
        assert math.isnan(metrics.msr) and math.isnan(metrics.vpk)


class TestJsonlStreaming:
    def _write(self, path, records):
        with open(path, "w") as fh:
            for record in records:
                fh.write(json.dumps(record.to_dict()) + "\n")

    def test_roundtrip(self, tmp_path):
        records = list(_synthetic_records(20))
        path = tmp_path / "results.jsonl"
        self._write(path, records)
        assert list(ResultLog(path)) == records

    def test_missing_file_is_empty(self, tmp_path):
        assert list(ResultLog(tmp_path / "nope.jsonl")) == []

    def test_torn_tail_dropped(self, tmp_path):
        records = list(_synthetic_records(5))
        path = tmp_path / "results.jsonl"
        self._write(path, records)
        with open(path, "a") as fh:
            fh.write('{"scenario": "scn-0", "inj')  # hard-kill fragment
        assert list(ResultLog(path)) == records

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with open(path, "w") as fh:
            fh.write("not json\n")
            fh.write(json.dumps(next(_synthetic_records(1)).to_dict()) + "\n")
        with pytest.raises(ValueError, match="line 1"):
            list(ResultLog(path))

    def test_foreign_schema_rows_skipped(self, tmp_path):
        records = list(_synthetic_records(3))
        path = tmp_path / "results.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"event": "queue-heartbeat"}) + "\n")
            for record in records:
                fh.write(json.dumps(record.to_dict()) + "\n")
        assert list(ResultLog(path)) == records

    def test_ten_thousand_episode_streaming_report(self, tmp_path):
        """A 10k-episode checkpoint aggregates in one streaming pass and
        matches the batch path exactly."""
        path = tmp_path / "big.jsonl"
        self._write(path, _synthetic_records(10_000))
        streamed = metrics_by_injector(ResultLog(path))
        batch = metrics_by_injector(list(_synthetic_records(10_000)))
        assert streamed == batch
        assert sum(m.n_runs for m in streamed.values()) == 10_000


# ----------------------------------------------------------------------
# Compound spec entries
# ----------------------------------------------------------------------


def _pools():
    return [
        [GaussianNoise(0.1)],
        [OutputDelay(5), StuckAtFault(field="speed", value=0.0)],
    ]


class TestCompoundInjectorSpec:
    def test_cartesian_expansion_names_and_copies(self):
        entry = CompoundInjectorSpec(pools=_pools())
        expanded = entry.expand("pairs")
        assert [name for name, _ in expanded] == [
            "pairs:gaussian+output-delay",
            "pairs:gaussian+stuck-at",
        ]
        # Deep copies: the two combos never share the pool instances.
        gaussians = [faults[0] for _, faults in expanded]
        assert gaussians[0] is not gaussians[1]
        assert gaussians[0] is not entry.pools[0][0]

    def test_self_pairing_skipped(self):
        shared = GaussianNoise(0.1)
        entry = CompoundInjectorSpec(pools=[[shared, OutputDelay(5)], [shared]])
        names = [name for name, _ in entry.expand("p")]
        assert names == ["p:output-delay+gaussian"]

    def test_sample_mode_is_seed_deterministic(self):
        a = CompoundInjectorSpec(pools=_pools(), mode="sample", n_samples=1, seed=4)
        b = CompoundInjectorSpec(pools=_pools(), mode="sample", n_samples=1, seed=4)
        assert [n for n, _ in a.expand("s")] == [n for n, _ in b.expand("s")]
        c = CompoundInjectorSpec(pools=_pools(), mode="sample", n_samples=2, seed=4)
        assert len(c.expand("s")) == 2

    def test_sample_larger_than_product_returns_all(self):
        entry = CompoundInjectorSpec(pools=_pools(), mode="sample", n_samples=99, seed=0)
        assert len(entry.expand("s")) == 2

    def test_validation(self):
        with pytest.raises(SpecError, match="mode"):
            CompoundInjectorSpec(pools=_pools(), mode="zip")
        with pytest.raises(SpecError, match="pool"):
            CompoundInjectorSpec(pools=[])
        with pytest.raises(SpecError, match="n_samples"):
            CompoundInjectorSpec(pools=_pools(), mode="sample")

    def test_spec_roundtrip_through_json(self):
        spec = CampaignSpec(
            injectors={
                "none": [],
                "gaussian": [GaussianNoise(0.1)],
                "pairs": CompoundInjectorSpec(pools=_pools()),
            }
        )
        data = json.loads(json.dumps(spec.to_dict()))
        rebuilt = CampaignSpec.from_dict(data)
        assert isinstance(rebuilt.injectors["pairs"], CompoundInjectorSpec)
        assert list(rebuilt.expanded_injectors()) == list(spec.expanded_injectors())
        assert rebuilt.hash() == spec.hash()

    def test_expanded_injectors_disambiguates_collisions(self):
        spec = CampaignSpec(
            injectors={
                "p:gaussian+output-delay": [],
                "p": CompoundInjectorSpec(
                    pools=[[GaussianNoise(0.1)], [OutputDelay(5)]]
                ),
            }
        )
        names = list(spec.expanded_injectors())
        assert names == ["p:gaussian+output-delay", "p:gaussian+output-delay#2"]

    def test_from_dict_validation_paths(self):
        base = {"schema_version": 1, "injectors": {}}
        base["injectors"] = {"p": {"compound": {"pools": []}}}
        with pytest.raises(SpecError, match=r"injectors\['p'\]"):
            CampaignSpec.from_dict(base)
        base["injectors"] = {"p": {"compound": {"mode": "zip", "pools": [[{"fault": "gaussian"}]]}}}
        with pytest.raises(SpecError, match="zip"):
            CampaignSpec.from_dict(base)
        base["injectors"] = {"p": {"unknown_key": []}}
        with pytest.raises(SpecError, match="unknown keys"):
            CampaignSpec.from_dict(base)

    def test_execution_spec_parquet_must_be_null(self):
        """``execution.parquet`` is a reserved key: null parses and is
        written back (committed specs carry it), anything else is
        refused with a message that says the sink was removed."""
        assert ExecutionSpec.from_dict({"parquet": None}).to_dict()["parquet"] is None
        for value in ("out/results.parquet", 7):
            with pytest.raises(SpecError, match=r"spec\.execution\.parquet: .*removed"):
                ExecutionSpec.from_dict({"parquet": value})


# ----------------------------------------------------------------------
# Compound campaigns: backends agree
# ----------------------------------------------------------------------


COMPOUND_INJECTORS = {
    "none": [],
    "gaussian": [GaussianNoise(0.05)],
    "pair": [GaussianNoise(0.05), OutputDelay(8)],
}


class TestCompoundCampaign:
    def test_compound_records_carry_full_fault_set(self, builder, scenarios):
        result = Campaign(
            scenarios,
            autopilot_agent_factory(),
            {k: copy.deepcopy(v) for k, v in COMPOUND_INJECTORS.items()},
            builder=builder,
        ).run()
        by_injector = result.by_injector()
        pair = by_injector["pair"][0]
        assert pair.fault_names == ("gaussian", "output-delay")
        assert by_injector["none"][0].fault_names == ()
        # The fingerprint covers the full fault set: compound and single
        # gaussian cells must not collide.
        assert pair.config_fingerprint != by_injector["gaussian"][0].config_fingerprint

    def test_serial_process_queue_backends_identical(
        self, builder, scenarios, tmp_path
    ):
        def run(**kw):
            return Campaign(
                scenarios,
                autopilot_agent_factory(),
                {k: copy.deepcopy(v) for k, v in COMPOUND_INJECTORS.items()},
                builder=builder,
                base_seed=5,
                **kw,
            ).run()

        serial = run()
        process = run(workers=2)
        queue = run(executor="queue", queue_dir=tmp_path / "q", workers=1)
        serial_rows = [r.to_dict() for r in serial.records]
        assert [r.to_dict() for r in process.records] == serial_rows
        assert [r.to_dict() for r in queue.records] == serial_rows
