"""Ext-D — Simulator and pipeline throughput.

Fault-injection campaigns need thousands of simulated kilometres, so the
paper's approach lives or dies on simulator throughput.  These micro
benchmarks measure the hot paths with pytest-benchmark's full statistics:

* world tick with NPC traffic (physics + behaviours),
* camera render,
* IL-CNN single-frame inference,
* one full server/client pipeline step (render + agent + channels +
  violations).
"""

import json
import os
import time

import numpy as np
import pytest

from repro.agent.ilcnn import ILCNN, ILCNNConfig
from repro.core import (
    Campaign,
    available_cpus,
    run_episode,
    standard_scenarios,
)
from repro.sim.builders import SimulationBuilder
from repro.sim.channel import Channel
from repro.sim.client import AgentClient
from repro.sim.physics import VehicleControl
from repro.sim.server import SimulationServer
from repro.sim.town import GridTownConfig

TOWN = GridTownConfig(rows=3, cols=3)


@pytest.fixture(scope="module")
def handles():
    builder = SimulationBuilder(with_lidar=False)
    scenario = standard_scenarios(
        1, seed=5, town_config=TOWN, n_npc_vehicles=4, n_pedestrians=4
    )[0]
    return builder.build_episode(scenario)


@pytest.mark.benchmark(group="ext-d-throughput")
def test_world_tick_throughput(benchmark, handles):
    world = handles.world
    world.ego.apply_control(VehicleControl(throttle=0.3))
    benchmark(world.tick)


@pytest.mark.benchmark(group="ext-d-throughput")
def test_camera_render_throughput(benchmark, handles):
    world = handles.world
    camera = handles.sensors.camera
    rng = np.random.default_rng(0)
    benchmark(camera.read, world, world.ego, rng)


@pytest.mark.benchmark(group="ext-d-throughput")
def test_lidar_read_throughput(benchmark):
    """LIDAR sweep on the dense scene (every actor inside max range)."""
    from .sensor_bench import _dense_sensor_scene

    from repro.sim.sensors import Lidar2D

    world, ego, _ = _dense_sensor_scene()
    lidar = Lidar2D(n_rays=19, fov_deg=120.0)
    rng = np.random.default_rng(0)
    benchmark(lidar.read, world, ego, rng)


@pytest.mark.benchmark(group="ext-d-throughput")
def test_semantic_render_throughput(benchmark):
    """Semantic/depth ground-truth render on the dense scene."""
    from .sensor_bench import _dense_sensor_scene

    world, ego, renderer = _dense_sensor_scene()
    others = world.other_actors(ego.id)
    benchmark(renderer.render_semantic_depth, ego.transform, others)


@pytest.mark.benchmark(group="ext-d-throughput")
def test_ilcnn_inference_throughput(benchmark):
    model = ILCNN(ILCNNConfig())
    model.set_training(False)
    rng = np.random.default_rng(0)
    image = rng.integers(0, 255, (64, 96, 3), dtype=np.uint8)
    benchmark(model.predict_one, image, 5.0, 0)


@pytest.mark.benchmark(group="ext-d-throughput")
def test_full_pipeline_step_throughput(benchmark, handles):
    world = handles.world

    class _Still:
        def reset(self, mission):
            pass

        def step(self, frame):
            return VehicleControl(brake=1.0)

    sensor_ch, control_ch = Channel("sensor"), Channel("control")
    server = SimulationServer(world, handles.sensors, sensor_ch, control_ch)
    client = AgentClient(_Still(), sensor_ch, control_ch)
    server.send_initial_frame()

    def step():
        client.tick(world.frame)
        server.tick()

    benchmark(step)


@pytest.mark.benchmark(group="ext-d-throughput")
def test_episode_throughput(benchmark):
    """Whole-episode wall time for a short autopilot mission."""
    from repro.agent import autopilot_agent_factory

    builder = SimulationBuilder(with_lidar=False)
    scenario = standard_scenarios(
        1, seed=6, town_config=TOWN, min_distance=80, max_distance=160
    )[0]

    record = benchmark.pedantic(
        run_episode,
        args=(builder, scenario, autopilot_agent_factory()),
        rounds=1,
        iterations=1,
    )
    assert record.success


def _physical_cpus() -> int:
    """Physical core count (SMT siblings share one core's throughput)."""
    try:
        pairs = set()
        phys = core = None
        for line in open("/proc/cpuinfo").read().splitlines():
            if line.startswith("physical id"):
                phys = line.split(":", 1)[1].strip()
            elif line.startswith("core id"):
                core = line.split(":", 1)[1].strip()
            elif not line.strip():
                if phys is not None and core is not None:
                    pairs.add((phys, core))
                phys = core = None
        if pairs:
            return len(pairs)
    except OSError:
        pass
    # Topology unknown (non-Linux): assume SMT pairs so the hard >=2x
    # assertion only fires on machines we're confident about.
    return max(1, available_cpus() // 2)


def test_parallel_campaign_throughput(capsys):
    """Ext-D2 — campaign episode throughput: serial vs 4-worker pool.

    Runs the same 8-episode autopilot campaign through the serial and the
    process executor and reports episodes/s.  On a ≥4-core machine the
    parallel path must deliver ≥2× the serial throughput (the runner's
    headline claim); on fewer cores only the result is recorded, since a
    process pool cannot beat serial without spare cores.
    """
    from .conftest import emit, write_result

    from repro.agent import autopilot_agent_factory
    from repro.core import metrics_by_injector
    from repro.core.faults import OutputDelay

    scenarios = standard_scenarios(
        4, seed=11, town_config=TOWN, min_distance=80, max_distance=200
    )
    injectors = {"none": [], "delay": [OutputDelay(10)]}

    def run(workers: int, executor: str) -> tuple[float, list]:
        campaign = Campaign(
            scenarios,
            autopilot_agent_factory(),
            injectors,
            builder=SimulationBuilder(with_lidar=False),
            workers=workers,
            executor=executor,
        )
        start = time.perf_counter()
        result = campaign.run()
        return time.perf_counter() - start, result.records

    serial_s, serial_records = run(1, "serial")
    parallel_s, parallel_records = run(4, "process")

    n = len(serial_records)
    serial_eps = n / serial_s
    parallel_eps = n / parallel_s
    speedup = parallel_eps / serial_eps
    lines = [
        "Ext-D2  campaign episode throughput (autopilot, 8 episodes)",
        f"  serial   : {serial_eps:6.2f} episodes/s  ({serial_s:.2f} s)",
        f"  4 workers: {parallel_eps:6.2f} episodes/s  ({parallel_s:.2f} s)",
        f"  speedup  : {speedup:4.2f}x  on {available_cpus()} available cores",
    ]
    text = "\n".join(lines)
    write_result("ext_d2_parallel_throughput.txt", text)
    emit(capsys, text)

    assert [r.to_dict() for r in serial_records] == [
        r.to_dict() for r in parallel_records
    ], "parallel campaign must reproduce the serial records exactly"
    assert metrics_by_injector(serial_records) == metrics_by_injector(parallel_records)
    # Gate on cores that can truly run concurrently: cgroup/affinity
    # limits AND physical cores (SMT siblings don't double throughput).
    if min(available_cpus(), _physical_cpus()) >= 4:
        assert speedup >= 2.0, f"expected >=2x episode throughput, got {speedup:.2f}x"


#: Required speedups of the vectorised sensor hot paths over the recorded
#: PRE-vectorisation scalar baseline (PR 2 acceptance criteria; the
#: semantic camera has no acceptance multiple but is gated conservatively
#: below its measured ~3.5x so regressions in render_semantic_depth fail).
SENSOR_GATES = {
    "pipeline_step": 3.0,
    "camera_render": 4.0,
    "lidar_read": 4.0,
    "semantic_render": 2.5,
}
#: Against a baseline recaptured from *current* code, only parity (with
#: 15% scheduler-noise tolerance) is required — a plain regression gate.
SENSOR_PARITY = 0.85
#: Outer measurement trials; best-of counters scheduler noise on busy CI.
SENSOR_TRIALS = 3


def test_sensor_pipeline_gate(capsys):
    """Vectorised sensor pipeline: measure, persist, and gate regressions.

    Re-measures every sensor hot path with the shared harness, writes the
    machine-readable ``benchmarks/results/BENCH_sensor_pipeline.json``
    (ops/s per path plus speedups over the recorded baseline), and — when
    the recorded baseline was captured on this machine — fails if any path
    regresses below its acceptance multiple: pipeline step >= 3x, camera
    render and LIDAR read >= 4x the scalar implementation.
    """
    from .conftest import emit
    from .sensor_bench import (
        RESULT_PATH,
        RESULTS_DIR,
        SCALAR_REFERENCE,
        load_baseline,
        machine_fingerprint,
        measure_sensor_pipeline,
    )

    best: dict[str, float] = {}
    for _ in range(SENSOR_TRIALS):
        for key, value in measure_sensor_pipeline().items():
            best[key] = max(best.get(key, 0.0), value)

    baseline = load_baseline()
    payload = {
        "machine": machine_fingerprint(),
        "ops_per_second": best,
        "trials": SENSOR_TRIALS,
    }
    lines = ["Sensor pipeline throughput (best of %d trials)" % SENSOR_TRIALS]
    comparable = baseline is not None and baseline.get("machine") == payload["machine"]
    if baseline is not None:
        payload["baseline_ops_per_second"] = baseline["ops_per_second"]
        payload["baseline_machine"] = baseline.get("machine")
        payload["comparable"] = comparable
        payload["speedup_vs_baseline"] = {
            key: best[key] / baseline["ops_per_second"][key]
            for key in best
            if key in baseline["ops_per_second"]
        }
        for key, value in sorted(best.items()):
            speedup = payload["speedup_vs_baseline"].get(key)
            extra = f"  ({speedup:4.2f}x vs baseline)" if speedup else ""
            lines.append(f"  {key:16s} {value:9.1f} ops/s{extra}")
    else:
        lines.extend(f"  {k:16s} {v:9.1f} ops/s" for k, v in sorted(best.items()))

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    RESULT_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    lines.append(f"  written to {RESULT_PATH}")
    emit(capsys, "\n".join(lines))

    if not comparable:
        pytest.skip(
            "no comparable baseline for this machine; wrote measurements only "
            "(record a parity baseline with: "
            "python benchmarks/sensor_bench.py --capture-baseline)"
        )
    # The committed baseline measures the pre-vectorisation scalar code and
    # carries the acceptance multiples; a baseline recaptured from current
    # code only gates parity (no regression).
    scalar = baseline.get("reference", SCALAR_REFERENCE) == SCALAR_REFERENCE
    gates = SENSOR_GATES if scalar else {k: SENSOR_PARITY for k in SENSOR_GATES}
    for key, required in gates.items():
        speedup = payload["speedup_vs_baseline"].get(key)
        assert speedup is not None, (
            f"baseline is missing {key!r}; recapture it with "
            "python benchmarks/sensor_bench.py --capture-baseline"
        )
        assert speedup >= required, (
            f"{key} regressed: {speedup:.2f}x vs required {required:.2f}x "
            f"over the recorded baseline ({baseline.get('reference', 'unknown')})"
        )
