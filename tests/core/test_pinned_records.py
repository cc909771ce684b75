"""Campaign records pinned to their bytes.

The serial == multiplexed suites compare two runs of the same code, so a
change that moves every backend the same way passes them.  This test
pins a small dense campaign to the bytes it wrote before the actor loops
(NPC traffic, the expert, the violation monitor) were rewritten on plain
floats: the SHA-256 of its JSONL checkpoint and its list of
``config_fingerprint`` values, on the serial and the multiplexed path.

The campaign covers what those loops touch: a 4x4 town with 8 NPCs and 4
pedestrians, three weathers (friction and rain enter the NPC and expert
controllers), LIDAR, output faults that make lane, curb, vehicle and
building violations, and a scenario whose scripted NPCs run the
``brake_on_proximity``, ``cut_in`` and ``run_junction`` (forced left
turn) maneuvers; all three interrupt within the episode.

Records describe the ego only, and the autopilot reads the world, not
the sensors, so NPCs and pedestrians reach a record only when they come
near the ego.  A third pin covers them: every actor's pose and speed
after every frame, and the world RNG's end state, of the scenarios
driven fault-free and of the scripted one under the compound fault.

A deliberate behaviour change re-pins these values and says why.
"""

import hashlib
import struct
from dataclasses import replace

import pytest

from repro.agent import autopilot_agent_factory
from repro.core import Campaign, EpisodeDriver, standard_scenarios
from repro.core.faults import ControlStuckAt, GaussianNoise, OutputDelay, Trigger
from repro.sim.actors import BehaviorSpec
from repro.sim.builders import SimulationBuilder
from repro.sim.render import CameraModel
from repro.sim.scenario import NPCSpec
from repro.sim.town import GridTownConfig

#: ``config_fingerprint`` per record, injector-major (the grid order).
PINNED_FINGERPRINTS = [
    "be1446fba6f5", "0d68e7ca2941", "3e6c6f7ff0de", "4a844cf068cf",
    "f934598e620c", "8433df1813c0", "be6e1b760661", "812b79a00198",
    "a535a308b858", "84a2a1be0039", "0ad7e076b4da", "9e388c6bc6e9",
    "acc05628d6f0", "4d9c8c408479", "5f355abcbf2d", "42a45daf40af",
]

#: SHA-256 over every actor's pose and speed per frame and the world
#: RNG's end state (:func:`_world_digest`).
PINNED_WORLD_SHA256 = "6690dcecf79e57d8a2c866299e9813368df9f494c8b7382e5e2f37b0ba4f0ba9"

#: SHA-256 of the JSONL checkpoint each executor writes.
PINNED_CHECKPOINT_SHA256 = {
    "serial": "2666d15dd454010120c073e0fa50b5340aee9e7efad3b945eaece92afe42ab9e",
    "multiplexed": "f188d49d4aaa4bdd570a5ae9a05aa757fb5870aba0902048532ac168c6eef900",
}


def _scenarios():
    suite = standard_scenarios(
        3, seed=31, town_config=GridTownConfig(rows=4, cols=4),
        n_npc_vehicles=8, n_pedestrians=4, min_distance=40, max_distance=70,
    )
    # 16 s (240 frames) bounds the runtime of the faulted episodes.
    suite = [replace(s, mission=replace(s.mission, time_limit_s=16.0)) for s in suite]
    weathers = ("ClearNoon", "HardRainNoon", "FoggyNoon")
    scenarios = [replace(s, weather=w) for s, w in zip(suite, weathers)]
    # The third mission starts on lane (3, +1), 8 m before its end: one
    # NPC brakes ahead of the ego, one cuts in from the oncoming lane and
    # one follows the ego through the junction on a forced left turn.
    npcs = (
        NPCSpec(3, 1, 66.0, target_speed=4.0,
                behavior=BehaviorSpec("brake_on_proximity", trigger_distance=12.0,
                                      duration_s=2.0)),
        NPCSpec(3, -1, 5.0, behavior=BehaviorSpec("cut_in", trigger_distance=30.0)),
        NPCSpec(3, 1, 1.0,
                behavior=BehaviorSpec("run_junction", turn="LEFT", trigger_distance=40.0)),
    )
    scenarios.append(replace(suite[2], npcs=npcs, name="scripted"))
    return scenarios


def _injectors():
    # The compound holds the throttle open with no brake for six seconds,
    # so the ego rear-ends the braking NPC and hits a building; the
    # 12-frame delay alone makes lane and curb violations.
    runaway = Trigger(0, 90)
    return {
        "none": [],
        "gaussian": [GaussianNoise(0.1)],
        "output-delay": [OutputDelay(12)],
        "compound": [
            GaussianNoise(0.1),
            OutputDelay(12),
            ControlStuckAt("brake", 0.0, runaway),
            ControlStuckAt("throttle", 1.0, runaway),
        ],
    }


@pytest.mark.parametrize("executor,slot", [("serial", None), ("multiplexed", 4)])
def test_campaign_records_match_their_pinned_bytes(tmp_path, executor, slot):
    checkpoint = tmp_path / "records.jsonl"
    result = Campaign(
        _scenarios(), autopilot_agent_factory(), _injectors(),
        builder=SimulationBuilder(camera=CameraModel(width=16, height=12), with_lidar=True),
        executor=executor, episodes_per_slot=slot, checkpoint_path=checkpoint,
    ).run()
    assert [r.config_fingerprint for r in result.records] == PINNED_FINGERPRINTS
    digest = hashlib.sha256(checkpoint.read_bytes()).hexdigest()
    assert digest == PINNED_CHECKPOINT_SHA256[executor]


def _world_digest(builder, scenario, faults) -> bytes:
    """Every actor's ``x, y, yaw, speed`` after every frame, then the
    world RNG's end state, as bytes."""
    out = []
    driver = EpisodeDriver(builder, scenario, autopilot_agent_factory(), faults=faults)
    driver.setup()
    try:
        driver.start()
        while driver.begin_frame():
            driver.step_client()
            driver.step_world()
            driver.complete_frame(driver.sense())
            for actor in driver.world.actors:
                pose = actor.transform
                out.append(struct.pack(
                    "<4d", pose.position.x, pose.position.y, pose.yaw, actor.speed()
                ))
        out.append(repr(driver.world.rng.bit_generator.state).encode())
    finally:
        driver.close()
    return b"".join(out)


def test_actor_trajectories_and_rng_end_states_match_their_pin():
    builder = SimulationBuilder(camera=CameraModel(width=16, height=12), with_lidar=True)
    scenarios = _scenarios()
    digest = hashlib.sha256()
    for scenario in scenarios:
        digest.update(_world_digest(builder, scenario, []))
    digest.update(_world_digest(builder, scenarios[-1], _injectors()["compound"]))
    assert digest.hexdigest() == PINNED_WORLD_SHA256
