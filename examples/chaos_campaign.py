#!/usr/bin/env python
"""Self-healing campaign under chaos: poison episodes + a misbehaving broker.

The fault-injection discipline applied to the harness itself.  A queue
campaign runs with two deliberately poisoned grid rows — one episode
that always crashes (:class:`CrashFault`) and one that always hangs
(:class:`HangFault`) — while every broker interaction misbehaves through
a seeded :class:`ChaosBroker` (delivery delays, duplicate deliveries,
claim races, lease storms, dropped releases).  The campaign's
:class:`FaultTolerancePolicy` must absorb all of it:

* the hung episode is killed by the per-episode wall-clock watchdog;
* both poison episodes are quarantined within the failure budget and
  surface on the result's quarantine list — the campaign completes;
* every *other* episode's record is byte-identical to a fault-free
  serial run.

The script exits non-zero if any of that fails — the invariant
``scripts/ci.sh`` relies on.  The broker's ``results.jsonl`` is left in
``--queue-dir`` (when given) so ``avfi report`` can render the
quarantine table from the checkpoint afterwards.

Usage::

    python examples/chaos_campaign.py [--workers 2] [--runs 1]
                                      [--queue-dir DIR] [--timeout 3]
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.agent import autopilot_agent_factory
from repro.core import (
    Campaign,
    FaultTolerancePolicy,
    QueueExecutor,
    quarantine_table,
    standard_scenarios,
)
from repro.core.chaos import CrashFault, HangFault
from repro.core.faults import GaussianNoise
from repro.sim.builders import SimulationBuilder

#: Survivor rows.  The poison rows are appended AFTER these, so the
#: paired seed formula gives survivors identical seeds in both grids.
SURVIVORS = {"none": [], "gaussian": [GaussianNoise(0.08)]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2, help="local drain workers")
    parser.add_argument("--runs", type=int, default=1, help="missions per injector")
    parser.add_argument("--seed", type=int, default=777)
    parser.add_argument("--queue-dir", default=None, help="broker dir (default: temp)")
    parser.add_argument(
        "--timeout", type=float, default=3.0, help="per-episode wall-clock budget (s)"
    )
    args = parser.parse_args()

    scenarios = standard_scenarios(
        args.runs, seed=args.seed, n_npc_vehicles=2, n_pedestrians=2
    )
    poison_grid = dict(
        SURVIVORS,
        **{
            "chaos-crash": [CrashFault()],
            "chaos-hang": [HangFault(hang_s=60.0)],
        },
    )
    policy = FaultTolerancePolicy(
        max_attempts=1, timeout_s=args.timeout, failure_budget=2, backoff_s=0.0
    )

    n = len(scenarios) * len(poison_grid)
    print(
        f"{n} episodes ({len(poison_grid)} injectors x {len(scenarios)} "
        f"scenarios), 2 of them poison"
    )

    start = time.perf_counter()
    reference = Campaign(
        scenarios, autopilot_agent_factory(), SURVIVORS, builder=SimulationBuilder()
    ).run()
    print(f"fault-free serial reference: {time.perf_counter() - start:6.1f} s")

    with tempfile.TemporaryDirectory() as tmp:
        queue_dir = Path(args.queue_dir) if args.queue_dir else Path(tmp) / "broker"
        executor = QueueExecutor(
            queue_dir,
            workers=args.workers,
            lease_s=5.0,
            poll_s=0.1,
            stall_timeout=300,
            chaos=dict(
                seed=11,
                delay_p=0.5, delay_s=0.02,
                duplicate_claim_p=0.3,
                drop_claim_p=0.3,
                drop_heartbeat_p=0.5,
                drop_release_p=0.3,
            ),
        )
        start = time.perf_counter()
        result = Campaign(
            scenarios, autopilot_agent_factory(), poison_grid,
            builder=SimulationBuilder(), executor=executor, fault_tolerance=policy,
        ).run()
        print(f"chaos queue campaign       : {time.perf_counter() - start:6.1f} s")

    print()
    print(quarantine_table(result.failures))
    print()

    quarantined = sorted({f.injector for f in result.failures})
    right_quarantine = quarantined == ["chaos-crash", "chaos-hang"]
    print(f"quarantined exactly the poison rows: {right_quarantine}")

    same = [json.dumps(r.to_dict(), sort_keys=True) for r in result.records] == [
        json.dumps(r.to_dict(), sort_keys=True) for r in reference.records
    ]
    print(f"survivor records byte-identical to fault-free serial: {same}")

    if not (right_quarantine and same):
        # scripts/ci.sh relies on this exit code: a lost survivor, a
        # missed quarantine or a diverging record is the regression this
        # smoke must catch.
        sys.exit(1)


if __name__ == "__main__":
    main()
