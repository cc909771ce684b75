"""Frame cost by driver phase, and the route-query gate.

A short fault-injection episode is mostly fixed per-frame cost, so this
bench records where a frame's time goes: microseconds per frame in each
:class:`~repro.core.campaign.EpisodeDriver` phase (``step_client`` /
``step_world`` / ``sense`` / ``complete_frame``), for the smoke scene
(2x3 town, 32x24 camera, no LIDAR, 1 NPC + 1 pedestrian) and the dense
scene of ``sensor_bench`` (4x4 town, default camera, LIDAR, 8 NPCs + 4
pedestrians).  It also records the dense scene on the multiplexed slot
of 4 (the ``dense-mux`` path: microseconds per episode-frame), and the
world step of the dense scene split by actor kind: NPC vehicles,
pedestrians and the ego's physics, per frame and per actor tick (a
separate pass, each tick timed through a wrapper that adds a fraction of
a microsecond).
Those numbers are recorded, not gated: they move with the host.

The gate is a ratio of two runs in one process, so it holds on any host.
The expert asks its route the same question four times per frame; the
polyline answers the repeats from its last scan.  Two experts drive the
same episode frame by frame, alternating which goes first: one on the
route as built, one on a copy whose queries go through the NumPy
reference path (``tests/sim/geometry_reference.py``, a full scan per
query).  The time spent in route queries per ``Expert.control`` must be
at least :data:`ROUTE_GATE` times lower on the route as built, and both
experts must issue the same controls.

Results land in ``benchmarks/results/BENCH_frame_cost.json``.
"""

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro.agent import autopilot_agent_factory
from repro.agent.autopilot import Expert
from repro.agent.planner import Route, RoutePlanner
from repro.core import Campaign, standard_scenarios
from repro.core.campaign import EpisodeDriver
from repro.sim.actors import NPCVehicle, Pedestrian, Vehicle
from repro.sim.builders import SimulationBuilder
from repro.sim.geometry import Polyline
from repro.sim.render import CameraModel
from repro.sim.town import GridTownConfig

from .sensor_bench import (
    BENCH_TOWN,
    N_NPC_VEHICLES,
    N_PEDESTRIANS,
    RESULTS_DIR,
    machine_fingerprint,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "sim"))
from geometry_reference import reference_locate, reference_point_at  # noqa: E402

FRAME_COST_RESULT_PATH = RESULTS_DIR / "BENCH_frame_cost.json"

#: Required route-query time ratio, reference path over the route as built.
ROUTE_GATE = 2.0
#: Frames of the route-query comparison.
ROUTE_FRAMES = 300
PHASES = ("step_client", "step_world", "sense", "complete_frame")
#: Episodes per slot of the multiplexed measurement (the benchmark's
#: ``dense-mux`` default).
MUX_SLOT = 4
#: Actor kinds of the world-step split: the class whose ``tick`` is timed.
ACTOR_KINDS = {"npc_vehicle": NPCVehicle, "pedestrian": Pedestrian, "ego": Vehicle}

SMOKE_CAMERA = CameraModel(width=32, height=24)


def _scenes():
    """``{name: (builder, scenarios)}`` of the two measured scenes."""
    smoke = (
        SimulationBuilder(camera=SMOKE_CAMERA, with_lidar=False),
        standard_scenarios(
            3, seed=9, town_config=GridTownConfig(rows=2, cols=3),
            n_npc_vehicles=1, n_pedestrians=1, min_distance=60, max_distance=160,
        ),
    )
    dense = (
        SimulationBuilder(with_lidar=True),
        standard_scenarios(
            2, seed=5, town_config=BENCH_TOWN,
            n_npc_vehicles=N_NPC_VEHICLES, n_pedestrians=N_PEDESTRIANS,
            min_distance=60, max_distance=160,
        ),
    )
    return {"smoke": smoke, "dense": dense}


@contextmanager
def _timed_actor_ticks():
    """Time every actor tick by kind; yields ``{kind: [seconds, ticks]}``.

    Only the exact class counts (an NPC's own tick is not also the
    ego's), so the kinds partition the actor ticks of a world step.
    """
    spent = {kind: [0.0, 0] for kind in ACTOR_KINDS}
    originals = {cls: cls.__dict__["tick"] for cls in ACTOR_KINDS.values()}
    clock = time.perf_counter
    for kind, cls in ACTOR_KINDS.items():
        def timed(self, world, dt, rng, _tick=originals[cls], _cls=cls, _slot=spent[kind]):
            if type(self) is not _cls:
                return _tick(self, world, dt, rng)
            start = clock()
            try:
                return _tick(self, world, dt, rng)
            finally:
                _slot[0] += clock() - start
                _slot[1] += 1

        cls.tick = timed
    try:
        yield spent
    finally:
        for cls, tick in originals.items():
            cls.tick = tick


def _mux_frame_cost(builder, scenarios) -> dict:
    """Mean microseconds per episode-frame on a multiplexed slot."""
    campaign = Campaign(
        scenarios, autopilot_agent_factory(), {"none": []}, builder=builder,
        executor="multiplexed", episodes_per_slot=MUX_SLOT,
    )
    start = time.perf_counter()
    result = campaign.run()
    wall = time.perf_counter() - start
    frames = sum(record.frames for record in result.records)
    return {"episodes": len(result.records), "frames": frames, "slot": MUX_SLOT,
            "us_per_frame": wall / frames * 1e6}


def _phase_costs(builder, scenarios) -> dict:
    """Mean microseconds per frame in each driver phase."""
    spent = dict.fromkeys(PHASES, 0.0)
    frames = 0
    clock = time.perf_counter
    for scenario in scenarios:
        driver = EpisodeDriver(builder, scenario, autopilot_agent_factory())
        driver.setup()
        try:
            driver.start()
            while driver.begin_frame():
                t0 = clock()
                driver.step_client()
                t1 = clock()
                driver.step_world()
                t2 = clock()
                bundle = driver.sense()
                t3 = clock()
                driver.complete_frame(bundle)
                t4 = clock()
                spent["step_client"] += t1 - t0
                spent["step_world"] += t2 - t1
                spent["sense"] += t3 - t2
                spent["complete_frame"] += t4 - t3
                frames += 1
        finally:
            driver.close()
    costs = {phase: spent[phase] / frames * 1e6 for phase in PHASES}
    costs["total"] = sum(costs[phase] for phase in PHASES)
    return {"frames": frames, "us_per_frame": costs}


class _ReferencePolyline(Polyline):
    """A polyline whose route queries take the NumPy reference path."""

    def locate(self, point):
        return reference_locate(self, point)

    def point_at(self, station):
        return reference_point_at(self, station)


def _time_queries(polyline: Polyline, spent: list) -> None:
    """Add the time of every ``locate``/``point_at`` on ``polyline`` to
    ``spent[0]``."""
    clock = time.perf_counter
    for name in ("locate", "point_at"):
        query = getattr(polyline, name)

        def timed(*args, _query=query):
            start = clock()
            try:
                return _query(*args)
            finally:
                spent[0] += clock() - start

        setattr(polyline, name, timed)


def _route_query_costs(builder, scenario) -> dict:
    handles = builder.build_episode(scenario)
    world = handles.world
    route = RoutePlanner(handles.town).plan(
        scenario.mission.start.position,
        scenario.mission.goal,
        start_yaw=scenario.mission.start.yaw,
    )
    reference_route = Route(_ReferencePolyline(route.polyline.points), route.commands)
    current = Expert(world, route)
    reference = Expert(world, reference_route)
    current_s, reference_s = [0.0], [0.0]
    _time_queries(route.polyline, current_s)
    _time_queries(reference_route.polyline, reference_s)
    scans = []
    scan = Polyline._nearest

    def counting(self, x, y):
        scans.append(self is route.polyline)
        return scan(self, x, y)

    Polyline._nearest = counting
    try:
        for frame in range(ROUTE_FRAMES):
            order = (current, reference) if frame % 2 else (reference, current)
            controls = {id(expert): expert.control(world.dt) for expert in order}
            assert controls[id(current)] == controls[id(reference)]
            world.ego.apply_control(controls[id(current)])
            world.tick()
    finally:
        Polyline._nearest = scan
    return {
        "controls": ROUTE_FRAMES,
        "current_us_per_control": current_s[0] / ROUTE_FRAMES * 1e6,
        "reference_us_per_control": reference_s[0] / ROUTE_FRAMES * 1e6,
        "scans_per_control": sum(scans) / ROUTE_FRAMES,
        "ratio": reference_s[0] / current_s[0],
    }


def test_frame_cost_and_route_query_gate(capsys):
    """Measure and persist the phase costs; gate the route queries."""
    from .conftest import emit

    scenes = _scenes()
    phases = {name: _phase_costs(*scene) for name, scene in scenes.items()}
    # The split is its own pass, so its wrappers stay out of the phases.
    with _timed_actor_ticks() as ticks:
        dense_frames = _phase_costs(*scenes["dense"])["frames"]
    world_split = {
        kind: {
            "us_per_frame": seconds / dense_frames * 1e6,
            "us_per_tick": seconds / max(count, 1) * 1e6,
            "ticks": count,
        }
        for kind, (seconds, count) in ticks.items()
    }
    dense_builder, _ = scenes["dense"]
    mux = _mux_frame_cost(dense_builder, standard_scenarios(
        MUX_SLOT, seed=5, town_config=BENCH_TOWN,
        n_npc_vehicles=N_NPC_VEHICLES, n_pedestrians=N_PEDESTRIANS,
        min_distance=60, max_distance=160,
    ))
    builder, scenarios = scenes["smoke"]
    routes = _route_query_costs(builder, scenarios[0])
    payload = {
        "machine": machine_fingerprint(),
        "phases": phases,
        "dense_world_step_by_actor": world_split,
        "dense_multiplexed": mux,
        "route_queries": routes,
        "gate": ROUTE_GATE,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    FRAME_COST_RESULT_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    lines = ["Frame cost by driver phase (us/frame)"]
    for name, result in phases.items():
        cost = result["us_per_frame"]
        lines.append(
            f"  {name:5s} ({result['frames']} frames): "
            + "  ".join(f"{phase} {cost[phase]:7.1f}" for phase in (*PHASES, "total"))
        )
    lines.append("Dense world step by actor kind")
    for kind, cost in world_split.items():
        lines.append(
            f"  {kind:11s} {cost['us_per_frame']:7.1f} us/frame  "
            f"{cost['us_per_tick']:6.1f} us/tick ({cost['ticks']} ticks)"
        )
    lines.append(
        f"Dense, multiplexed slot of {mux['slot']} ({mux['episodes']} episodes, "
        f"{mux['frames']} frames): {mux['us_per_frame']:7.1f} us/episode-frame"
    )
    lines += [
        f"Route queries per Expert.control ({routes['controls']} controls, smoke)",
        f"  as built  : {routes['current_us_per_control']:6.1f} us, "
        f"{routes['scans_per_control']:.2f} scans",
        f"  reference : {routes['reference_us_per_control']:6.1f} us  "
        f"({routes['ratio']:4.1f}x, gate >= {ROUTE_GATE}x)",
        f"  written to {FRAME_COST_RESULT_PATH}",
    ]
    emit(capsys, "\n".join(lines))
    assert routes["scans_per_control"] <= 1.0
    assert routes["ratio"] >= ROUTE_GATE, (
        f"route queries must cost >= {ROUTE_GATE}x less than the reference "
        f"path, got {routes['ratio']:.2f}x"
    )
