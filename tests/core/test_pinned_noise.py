"""Camera-noise bits pinned to their SHA-256 digests.

The record pins (``test_pinned_records.py``) run the autopilot, which
reads the world and never the image, so a shifted noise stream leaves
every record byte unchanged.  This test hashes what the agent is handed
instead: every frame number and every noised image byte, per episode.

It covers gaussian and salt-and-pepper noise at trigger probability 1.0
and 0.5, a ``start_frame``/``end_frame`` window and a compound of both
faults, on the serial path (slot 1) and the multiplexed one (slot 4),
which interleaves the episodes' frames.  Both paths must hand the agent
the same bytes, so one pin list serves both.

A deliberate change to the noise streams re-pins these values and says
why.
"""

import hashlib
import struct
from dataclasses import replace

import pytest

from repro.agent import autopilot_agent_factory
from repro.core import Campaign, standard_scenarios
from repro.core.faults import GaussianNoise, SaltAndPepper, Trigger
from repro.sim.builders import SimulationBuilder
from repro.sim.render import CameraModel
from repro.sim.town import GridTownConfig

#: SHA-256 of the frames each episode's agent saw, in grid order
#: (injector-major, then scenario).
PINNED_FRAME_SHA256 = [
    "ba016bb8d29902f25bf173b8f9f8dfa83636414992e28f2508193e02bb88fcaf",  # gaussian, scenario 0
    "4e10ce4565788307c7cfb0055bbb05102f4bcc240d0ac8589ba473ae4286ef55",  # gaussian, scenario 1
    "5d16942d9d0c471cc9fa5d635782448a3575b596a71fb9542de3da7efc628d19",  # gaussian-p0.5, scenario 0
    "8f28aa142f42abef1b85775c1afe3e1781007a7a8c5b16cf6974b5476d4fdee4",  # gaussian-p0.5, scenario 1
    "9becac43ac8ec0eed1ccf6b8a580a7ab86bc19df47f6f8fc918adcd06e3e0abf",  # gaussian-window, scenario 0
    "61d946ea4720d64f7a129164b9a176c5f2e20528e237ec20809c9f0e2160c4fe",  # gaussian-window, scenario 1
    "62937e133b553aa7a2973e4c18eb77ffddb72960909caf9341add3c72fef1fe2",  # s&p, scenario 0
    "58a26d8c1abd08b5f0bb24ee4a19a8111ac5f31b2dc7e073c226cfd43462a5b9",  # s&p, scenario 1
    "6412a66b3ea3bff2be70b4fb6a5535d0d19b0022d571a33a4652fc897bbfcb50",  # s&p-p0.5, scenario 0
    "164063b5ee82f84d84674d9d343bd09f118f9ce8dbe033a2eb96afe0a82f2b50",  # s&p-p0.5, scenario 1
    "b6d5e2f40eea474ce2ee2eb1740b82f8acabeccaa672e29e486e0ea621a571ac",  # s&p-window-p0.5, scenario 0
    "0a725c07aa00b7e1952cad920e860b13fccd471119d8b762ffb8fa31d6f8a2cb",  # s&p-window-p0.5, scenario 1
    "8dea37f76ee9f246855687fbdd9895e464f3af113b72a9788dd0babecf741c0b",  # compound, scenario 0
    "bbbd45fbaf488af00e6ed90a6a50689a243bed9ff0fdb3303761f386066ce94b",  # compound, scenario 1
]


def _scenarios():
    suite = standard_scenarios(
        2, seed=17, town_config=GridTownConfig(rows=2, cols=3),
        n_npc_vehicles=1, min_distance=40, max_distance=70,
    )
    # 3 s (45 frames) per episode.
    return [replace(s, mission=replace(s.mission, time_limit_s=3.0)) for s in suite]


def _injectors():
    return {
        "gaussian": [GaussianNoise(0.1)],
        "gaussian-p0.5": [GaussianNoise(0.1, Trigger(probability=0.5))],
        "gaussian-window": [GaussianNoise(0.1, Trigger(start_frame=10, end_frame=25))],
        "s&p": [SaltAndPepper()],
        "s&p-p0.5": [SaltAndPepper(trigger=Trigger(probability=0.5))],
        "s&p-window-p0.5": [SaltAndPepper(0.2, Trigger(5, 30, 0.5))],
        "compound": [
            GaussianNoise(0.1, Trigger(probability=0.5)),
            SaltAndPepper(trigger=Trigger(start_frame=8)),
        ],
    }


class _Tap:
    """Drives the autopilot and hashes every bundle it is handed."""

    def __init__(self, agent, digest):
        self.agent = agent
        self.digest = digest

    def reset(self, mission) -> None:
        self.agent.reset(mission)

    def step(self, frame):
        self.digest.update(struct.pack("<q", frame.frame))
        self.digest.update(frame.image.tobytes())
        return self.agent.step(frame)


class _TapFactory:
    """Builds one :class:`_Tap` per episode, in the order episodes start
    (the grid order on both paths)."""

    def __init__(self):
        self.inner = autopilot_agent_factory()
        self.digests = []

    def __call__(self, handles, mission):
        self.digests.append(hashlib.sha256())
        return _Tap(self.inner(handles, mission), self.digests[-1])


@pytest.mark.parametrize("executor,slot", [("serial", None), ("multiplexed", 4)])
def test_noised_frames_match_their_pinned_digests(executor, slot):
    factory = _TapFactory()
    result = Campaign(
        _scenarios(), factory, _injectors(),
        builder=SimulationBuilder(camera=CameraModel(width=32, height=24), with_lidar=False),
        executor=executor, episodes_per_slot=slot,
    ).run()
    assert len(result.records) == len(factory.digests) == 14
    assert [d.hexdigest() for d in factory.digests] == PINNED_FRAME_SHA256
