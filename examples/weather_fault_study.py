#!/usr/bin/env python
"""Factorial study: weather × camera fault interaction (resumable).

The paper motivates data faults with "changes in the external environment
(such as fog or rain)".  This example crosses CARLA-style weather presets
with a camera occlusion fault using :class:`repro.core.Campaign`: each
weather's campaign checkpoints every episode to disk, so interrupting it (Ctrl-C) and
re-running resumes where it stopped — the workflow for overnight
fault-injection campaigns.

Usage::

    python examples/weather_fault_study.py [--runs 3]
        [--checkpoint weather_study.jsonl] [--agent autopilot|nn]
"""

import argparse
import json

from repro.agent import autopilot_agent_factory, get_or_train_default_model, nn_agent_factory
from repro.core import Campaign, format_table, standard_scenarios, summary_frame
from repro.core.faults import SolidOcclusion
from repro.sim.builders import SimulationBuilder

WEATHERS = ["ClearNoon", "HardRainNoon", "FoggyNoon", "Night"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=3, help="missions per cell")
    parser.add_argument("--checkpoint", default="weather_study.jsonl")
    parser.add_argument("--agent", choices=("autopilot", "nn"), default="autopilot")
    args = parser.parse_args()

    builder = SimulationBuilder()
    if args.agent == "nn":
        agent_factory = nn_agent_factory(get_or_train_default_model())
    else:
        agent_factory = autopilot_agent_factory()

    all_rows = []
    for weather in WEATHERS:
        scenarios = standard_scenarios(
            args.runs, seed=777, weather=weather, n_npc_vehicles=2, n_pedestrians=2
        )
        campaign = Campaign(
            scenarios,
            agent_factory,
            injectors={"none": [], "solid-occ": [SolidOcclusion(size_frac=0.4)]},
            checkpoint_path=f"{args.checkpoint}.{weather}",
            builder=builder,
            verbose=True,
        )
        pending = len(campaign.pending())
        done = len(campaign.grid_records())
        print(f"[{weather}] {done} episodes checkpointed, {pending} to run")
        records = campaign.run().records
        for row in summary_frame(records):
            row["weather"] = weather
            all_rows.append(row)

    table_rows = [
        [r["weather"], r["injector"], r["msr_percent"], r["vpk"], r["apk"]]
        for r in all_rows
    ]
    print()
    print(format_table(["weather", "injector", "MSR_%", "VPK", "APK"], table_rows,
                       title="Weather x camera-fault interaction:"))
    print()
    print("Full rows (json):")
    print(json.dumps(all_rows, indent=1))


if __name__ == "__main__":
    main()
