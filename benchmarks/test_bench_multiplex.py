"""Ext-D3 — multiplexed engine throughput gate.

The episode multiplexer round-robins a slot of live episodes at tick
granularity and batches their per-frame sensor work into ``(E, .)``
slabs (`repro.sim.sensors.read_frames_batch`).  This gate measures that
batched sensing phase on the canonical dense scene (9 block-interior
buildings, 8 NPC vehicles + 4 pedestrians, all in sensor range) against
the single-episode serial path (``read_frame``, itself a batch of one),
in one process on one core, and fails if the batched path delivers less
than :data:`MUX_SENSING_GATE` times the serial per-core throughput.

End-to-end campaign throughput (serial vs ``backend="multiplexed"``) is
measured and recorded alongside for context but *not* gated: sensing is
34.0 % of a traced episode frame on the multiplexed dense workload
(``dense-mux``, ``perfbench/NOTES.md``), so Amdahl bounds the
whole-pipeline gain well below the sensing-phase gain no matter how good
the batching is.  The end-to-end run doubles as a byte-identity check —
the multiplexed records must equal the serial records exactly.

Results land in ``benchmarks/results/BENCH_multiplex.json``.
"""

import copy
import json
import time

import numpy as np

from repro.agent import autopilot_agent_factory
from repro.core import ParallelCampaignRunner, standard_scenarios
from repro.sim.actors import Pedestrian, Vehicle
from repro.sim.builders import SimulationBuilder
from repro.sim.geometry import Transform, Vec2
from repro.sim.sensors import Camera, Lidar2D, SensorSuite, read_frames_batch
from repro.sim.world import World

from .sensor_bench import (
    BENCH_TOWN,
    DENSE_SPAWN_INDEX,
    N_NPC_VEHICLES,
    N_PEDESTRIANS,
    PEDESTRIAN_OFFSETS,
    RESULTS_DIR,
    VEHICLE_OFFSETS,
    machine_fingerprint,
)

MULTIPLEX_RESULT_PATH = RESULTS_DIR / "BENCH_multiplex.json"

#: Episodes multiplexed per slot in the sensing measurement.  Batching
#: gains grow with slot size (fixed NumPy dispatch overhead amortises
#: across episodes); 12 is a realistic large slot for a dense campaign.
MUX_SLOT = 12
#: Required batched-sensing speedup over single-episode serial, per core.
MUX_SENSING_GATE = 1.5
#: Interleaved timing trials; best-of cancels scheduler noise (serial and
#: batched samples alternate, so background load hits both paths alike).
MUX_TRIALS = 150

#: Weathers cycled across the slot: fog exercises the per-segment fog
#: gamma, rain exercises the per-episode rng draws.
SLOT_WEATHERS = ("ClearNoon", "HardRainNoon", "FoggyNoon")


def _dense_episode(builder: SimulationBuilder, seed: int, weather: str):
    """One live episode of the canonical dense sensor scene.

    Same placement as ``sensor_bench._dense_sensor_scene`` — ego at the
    interior spawn with the 12-actor traffic ring inside sensor range —
    but each episode owns its world/rng while all share one cached
    renderer, exactly as same-scene episodes do under the multiplexer.
    """
    town = builder.town_for(BENCH_TOWN)
    renderer = builder.renderer_for(BENCH_TOWN)
    wp = town.spawn_points()[DENSE_SPAWN_INDEX]
    world = World(town, weather=weather, seed=seed)
    ego = world.spawn_ego(Transform(wp.position, wp.yaw))
    for fx, fy, dyaw in VEHICLE_OFFSETS:
        pose = Transform(ego.transform.to_world(Vec2(fx, fy)), wp.yaw + dyaw)
        world.add_actor(Vehicle(pose))
    for fx, fy in PEDESTRIAN_OFFSETS:
        pose = Transform(ego.transform.to_world(Vec2(fx, fy)), 0.0)
        world.add_actor(Pedestrian(pose, town))
    suite = SensorSuite(Camera(renderer), lidar=Lidar2D(n_rays=19, fov_deg=120.0))
    return suite, world, ego


def _measure_sensing() -> dict:
    """Best-of interleaved serial vs batched slot-frame times (seconds)."""
    builder = SimulationBuilder(with_lidar=True)
    episodes = [
        _dense_episode(builder, seed=9 + i, weather=SLOT_WEATHERS[i % len(SLOT_WEATHERS)])
        for i in range(MUX_SLOT)
    ]
    states = [copy.deepcopy(w.rng.bit_generator.state) for _, w, _ in episodes]

    def reset():
        for (_, w, _), st in zip(episodes, states):
            w.rng.bit_generator.state = copy.deepcopy(st)

    def serial():
        return [s.read_frame(w, e, w.frame) for s, w, e in episodes]

    def batched():
        return read_frames_batch([(s, w, e, w.frame) for s, w, e in episodes])

    # The gated claim is only meaningful if both paths produce the same
    # bytes — verify before timing.
    reset()
    serial_frames = serial()
    reset()
    batched_frames = batched()
    for a, b in zip(serial_frames, batched_frames):
        assert np.array_equal(a.image, b.image)
        assert a.gps == b.gps and a.speed == b.speed and a.heading == b.heading
        assert np.array_equal(a.lidar, b.lidar)

    best_serial = best_batched = float("inf")
    for _ in range(MUX_TRIALS):
        reset()
        start = time.perf_counter()
        serial()
        best_serial = min(best_serial, time.perf_counter() - start)
        reset()
        start = time.perf_counter()
        batched()
        best_batched = min(best_batched, time.perf_counter() - start)
    return {
        "episodes_per_slot": MUX_SLOT,
        "serial_ms_per_slot_frame": best_serial * 1e3,
        "batched_ms_per_slot_frame": best_batched * 1e3,
        "serial_frames_per_s": MUX_SLOT / best_serial,
        "batched_frames_per_s": MUX_SLOT / best_batched,
        "speedup": best_serial / best_batched,
        "trials": MUX_TRIALS,
        "gate": MUX_SENSING_GATE,
    }


def _measure_pipeline() -> dict:
    """End-to-end dense campaign: serial vs in-process multiplexed."""
    scenarios = standard_scenarios(
        6,
        seed=11,
        town_config=BENCH_TOWN,
        n_npc_vehicles=N_NPC_VEHICLES,
        n_pedestrians=N_PEDESTRIANS,
        min_distance=60.0,
        max_distance=140.0,
    )
    builder = SimulationBuilder(with_lidar=True)
    builder.renderer_for(BENCH_TOWN)  # warm the shared scene cache

    def run(executor: str, slot: int):
        runner = ParallelCampaignRunner(
            scenarios,
            autopilot_agent_factory(),
            {"none": []},
            builder=builder,
            executor=executor,
            episodes_per_slot=slot,
        )
        start = time.perf_counter()
        result = runner.run()
        return time.perf_counter() - start, result.records

    mux_s, mux_records = run("multiplexed", len(scenarios))
    serial_s, serial_records = run("serial", 1)
    assert [r.to_dict() for r in serial_records] == [
        r.to_dict() for r in mux_records
    ], "multiplexed campaign must reproduce the serial records exactly"
    n = len(serial_records)
    return {
        "episodes": n,
        "serial_episodes_per_s": n / serial_s,
        "multiplexed_episodes_per_s": n / mux_s,
        "speedup": serial_s / mux_s,
        "gated": False,
    }


def test_multiplexed_throughput_gate(capsys):
    """Measure, persist, and gate the multiplexed sensing speedup."""
    from .conftest import emit

    sensing = _measure_sensing()
    pipeline = _measure_pipeline()
    payload = {
        "machine": machine_fingerprint(),
        "scene": {
            "town": f"{BENCH_TOWN.rows}x{BENCH_TOWN.cols}",
            "buildings": (BENCH_TOWN.rows - 1) * (BENCH_TOWN.cols - 1),
            "npc_vehicles": N_NPC_VEHICLES,
            "pedestrians": N_PEDESTRIANS,
        },
        "sensing": sensing,
        "pipeline": pipeline,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    MULTIPLEX_RESULT_PATH.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n"
    )
    emit(
        capsys,
        "\n".join(
            [
                f"Ext-D3  multiplexed engine throughput (slot of {MUX_SLOT})",
                "  batched sensing : "
                f"{sensing['serial_ms_per_slot_frame']:6.2f} ms serial vs "
                f"{sensing['batched_ms_per_slot_frame']:6.2f} ms batched "
                f"per slot-frame  ({sensing['speedup']:4.2f}x, "
                f"gate >= {MUX_SENSING_GATE}x)",
                "  end-to-end      : "
                f"{pipeline['serial_episodes_per_s']:5.2f} eps/s serial vs "
                f"{pipeline['multiplexed_episodes_per_s']:5.2f} eps/s "
                f"multiplexed  ({pipeline['speedup']:4.2f}x, recorded only)",
                f"  written to {MULTIPLEX_RESULT_PATH}",
            ]
        ),
    )
    assert sensing["speedup"] >= MUX_SENSING_GATE, (
        f"batched sensing must be >= {MUX_SENSING_GATE}x single-episode "
        f"serial per core on the dense scene, got {sensing['speedup']:.2f}x"
    )
