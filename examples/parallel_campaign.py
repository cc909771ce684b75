#!/usr/bin/env python
"""Parallel campaign execution: the same sweep, N worker processes.

Runs a small input-fault campaign twice — once serially, once on a
process pool — times both, and verifies the records are identical (the
campaign's core guarantee: worker count never changes results).  With a
checkpoint path the run is also resumable: interrupt it and re-run, and
only the missing episodes execute.

Usage::

    python examples/parallel_campaign.py [--workers 4] [--runs 4]
                                         [--agent autopilot|nn]
                                         [--checkpoint out.jsonl]
"""

import argparse
import sys
import time
from pathlib import Path

from repro.agent import autopilot_agent_factory, get_or_train_default_model, nn_agent_factory
from repro.core import Campaign, format_table, standard_scenarios
from repro.core.faults import GaussianNoise, OutputDelay, SolidOcclusion
from repro.sim.builders import SimulationBuilder


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=4, help="worker processes")
    parser.add_argument("--runs", type=int, default=4, help="missions per injector")
    parser.add_argument("--agent", choices=("nn", "autopilot"), default="autopilot")
    parser.add_argument("--seed", type=int, default=777)
    parser.add_argument("--checkpoint", default=None, help="JSONL checkpoint (resumable)")
    args = parser.parse_args()

    if args.agent == "nn":
        agent_factory = nn_agent_factory(get_or_train_default_model())
    else:
        agent_factory = autopilot_agent_factory()

    scenarios = standard_scenarios(
        args.runs, seed=args.seed, n_npc_vehicles=2, n_pedestrians=2
    )
    injectors = {
        "none": [],
        "gaussian": [GaussianNoise(0.08)],
        "solid-occ": [SolidOcclusion(size_frac=0.3)],
        "delay-10": [OutputDelay(10)],
    }

    def build_campaign(workers, executor, checkpoint=None):
        return Campaign(
            scenarios,
            agent_factory,
            injectors,
            builder=SimulationBuilder(),
            workers=workers,
            executor=executor,
            checkpoint_path=checkpoint,
            verbose=checkpoint is not None,
        )

    n = len(scenarios) * len(injectors)
    print(f"{n} episodes ({len(injectors)} injectors x {len(scenarios)} scenarios)")

    # Resuming an existing checkpoint skips the serial comparison run —
    # the point of a resume is to execute only the missing episodes.
    resuming = args.checkpoint is not None and Path(args.checkpoint).exists()
    serial = None
    if not resuming:
        start = time.perf_counter()
        serial = build_campaign(1, "serial").run()
        serial_s = time.perf_counter() - start
        print(f"serial      : {serial_s:6.1f} s  ({n / serial_s:.2f} episodes/s)")

    start = time.perf_counter()
    parallel = build_campaign(args.workers, "process", args.checkpoint).run()
    parallel_s = time.perf_counter() - start
    print(
        f"{args.workers:2d} workers  : {parallel_s:6.1f} s  "
        f"({n / parallel_s:.2f} episodes/s"
        + (f", {serial_s / parallel_s:.2f}x)" if serial is not None else ")")
    )

    if serial is not None:
        same = [r.to_dict() for r in serial.records] == [
            r.to_dict() for r in parallel.records
        ]
        print(f"records identical across executors: {same}")
        if not same:
            # scripts/ci.sh relies on this exit code: a divergence between
            # executors is the one regression this smoke must catch.
            sys.exit(1)

    rows = [
        [name, m.n_runs, m.msr, round(m.vpk, 3), round(m.apk, 3)]
        for name, m in parallel.metrics().items()
    ]
    print()
    print(format_table(["injector", "runs", "MSR_%", "VPK", "APK"], rows))


if __name__ == "__main__":
    main()
