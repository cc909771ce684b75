#!/usr/bin/env python
"""Declarative campaigns: experiments as data, not Python.

Builds a :class:`~repro.core.spec.CampaignSpec` programmatically, saves
it as JSON, reloads it, and runs it via ``Campaign.from_spec`` — then
runs the equivalent hand-written programmatic campaign and verifies the
two produce **byte-identical** records (the spec API's core guarantee).
Finally demonstrates resume semantics: re-running the same spec against
its checkpoint executes nothing, while a spec with a different agent
re-runs every episode.

Exits non-zero on any divergence.

Usage::

    python examples/declarative_campaign.py [--runs 2] [--workers 1]
"""

import argparse
import sys
import tempfile
from pathlib import Path

from repro.agent import autopilot_agent_factory
from repro.core import (
    AgentSpec,
    Campaign,
    CampaignSpec,
    ExecutionSpec,
    ScenarioSuiteSpec,
    format_table,
    load_spec,
    save_spec,
    standard_scenarios,
)
from repro.core.faults import GaussianNoise, OutputDelay, Trigger
from repro.sim.builders import SimulationBuilder
from repro.sim.render import CameraModel
from repro.sim.town import GridTownConfig

TOWN = GridTownConfig(rows=2, cols=3)
CAMERA = CameraModel(width=32, height=24)


def make_spec(runs: int, workers: int) -> CampaignSpec:
    return CampaignSpec(
        name="declarative-demo",
        scenarios=ScenarioSuiteSpec(
            n=runs, seed=9, town=TOWN, min_distance=60.0, max_distance=160.0,
            n_npc_vehicles=1, n_pedestrians=1,
        ),
        agent=AgentSpec("autopilot"),
        injectors={
            "none": [],
            "gaussian": [GaussianNoise(0.1)],
            "late-delay": [OutputDelay(12, trigger=Trigger(start_frame=90))],
        },
        builder=SimulationBuilder(camera=CAMERA, with_lidar=False),
        execution=ExecutionSpec(base_seed=0, workers=workers),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=2, help="missions per injector")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="avfi-declarative-") as tmp:
        spec_path = Path(tmp) / "demo_spec.json"
        save_spec(make_spec(args.runs, args.workers), spec_path)
        spec = load_spec(spec_path)
        print(f"spec {spec.name!r} (hash {spec.hash()}) -> {spec_path.name}")

        # 1. Run the spec.
        checkpoint = Path(tmp) / "demo.jsonl"
        campaign = Campaign.from_spec(spec, checkpoint_path=checkpoint, verbose=True)
        from_spec = campaign.run()

        # 2. The equivalent hand-written campaign must match byte for byte.
        programmatic = Campaign(
            standard_scenarios(
                args.runs, seed=9, town_config=TOWN, min_distance=60.0,
                max_distance=160.0, n_npc_vehicles=1, n_pedestrians=1,
            ),
            autopilot_agent_factory(),
            {
                "none": [],
                "gaussian": [GaussianNoise(0.1)],
                "late-delay": [OutputDelay(12, trigger=Trigger(start_frame=90))],
            },
            builder=SimulationBuilder(camera=CAMERA, with_lidar=False),
            workers=args.workers,
        ).run()
        if [r.to_dict() for r in from_spec.records] != [
            r.to_dict() for r in programmatic.records
        ]:
            sys.exit("FAIL: spec-driven records differ from the programmatic campaign")
        print(f"spec == programmatic: {len(from_spec.records)} identical records")

        # 3. Same spec + same checkpoint: nothing re-runs.
        resumed = Campaign.from_spec(spec, checkpoint_path=checkpoint)
        if resumed.pending():
            sys.exit(f"FAIL: resume should be complete, {len(resumed.pending())} pending")
        print("resume with unchanged spec: 0 episodes pending")

        # 4. Change the agent: every episode must re-run (the agent is
        # part of the checkpoint fingerprint now).
        retuned = load_spec(spec_path)
        retuned.agent = AgentSpec("autopilot", {"cruise_speed": 5.0})
        resumed = Campaign.from_spec(retuned, checkpoint_path=checkpoint)
        if len(resumed.pending()) != len(from_spec.records):
            sys.exit("FAIL: retuned agent must invalidate the whole checkpoint")
        print("resume with retuned agent: full grid pending (as it must)")

        rows = [[n, m.n_runs, m.msr, m.vpk] for n, m in from_spec.metrics().items()]
        print()
        print(format_table(["injector", "runs", "MSR_%", "VPK"], rows))
    print("OK")


if __name__ == "__main__":
    main()
