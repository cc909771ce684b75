#!/usr/bin/env python
"""Distributed campaign over the filesystem work queue: coordinator +
real ``avfi worker`` processes, with a forced lease expiry.

The same sweep runs twice — once serially, once sharded through a broker
directory that two ``python -m repro worker`` subprocesses drain (in
production those run on other machines against a shared/NFS path).  To
prove the fault-tolerance story, one task is first claimed by a fake
"ghost" worker that dies immediately: its lease expires, the task is
requeued automatically, and a live worker completes it.  The script
exits non-zero unless the queue-backed result is identical to the serial
one — the invariant ``scripts/ci.sh`` relies on.

Usage::

    python examples/distributed_queue_campaign.py [--workers 2] [--runs 2]
                                                  [--queue-dir DIR] [--lease 5]
"""

import argparse
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import repro
from repro.agent import autopilot_agent_factory
from repro.core import (
    Campaign,
    FilesystemBroker,
    QueueExecutor,
    format_table,
    standard_scenarios,
)
from repro.core.faults import GaussianNoise, OutputDelay
from repro.sim.builders import SimulationBuilder


def spawn_worker(queue_dir: Path, index: int, lease_s: float) -> subprocess.Popen:
    """One ``avfi worker`` as a real subprocess — exactly what another
    machine would run against the shared broker directory."""
    env = os.environ.copy()
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--queue-dir", str(queue_dir),
            "--worker-id", f"example-{index}",
            "--lease", str(lease_s),
            "--poll", "0.1",
            "--idle-timeout", "2",
        ],
        env=env,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2, help="worker subprocesses")
    parser.add_argument("--runs", type=int, default=2, help="missions per injector")
    parser.add_argument("--seed", type=int, default=777)
    parser.add_argument("--queue-dir", default=None, help="broker dir (default: temp)")
    parser.add_argument("--lease", type=float, default=5.0, help="task lease (s)")
    args = parser.parse_args()

    scenarios = standard_scenarios(
        args.runs, seed=args.seed, n_npc_vehicles=2, n_pedestrians=2
    )
    injectors = {
        "none": [],
        "gaussian": [GaussianNoise(0.08)],
        "delay-10": [OutputDelay(10)],
    }

    def build_campaign(executor):
        return Campaign(
            scenarios, autopilot_agent_factory(), injectors,
            builder=SimulationBuilder(), executor=executor,
        )

    n = len(scenarios) * len(injectors)
    print(f"{n} episodes ({len(injectors)} injectors x {len(scenarios)} scenarios)")

    start = time.perf_counter()
    serial = build_campaign("serial").run()
    print(f"serial      : {time.perf_counter() - start:6.1f} s")

    with tempfile.TemporaryDirectory() as tmp:
        queue_dir = Path(args.queue_dir) if args.queue_dir else Path(tmp) / "broker"
        executor = QueueExecutor(
            queue_dir, workers=0, lease_s=args.lease, poll_s=0.1, stall_timeout=300
        )
        campaign = build_campaign(executor)

        # The coordinator publishes tasks and folds results; run it in a
        # thread so this script can orchestrate workers around it.
        outcome: dict = {}

        def coordinate():
            try:
                outcome["result"] = campaign.run()
            except BaseException as exc:  # noqa: BLE001
                outcome["error"] = exc

        start = time.perf_counter()
        coordinator = threading.Thread(target=coordinate, daemon=True)
        coordinator.start()

        broker = FilesystemBroker(queue_dir)
        # A re-used --queue-dir whose checkpoint already completes the
        # grid publishes nothing: the coordinator returns straight from
        # the checkpoint, so don't wait for tasks that will never appear.
        while not broker._list(broker.tasks_dir) and coordinator.is_alive():
            time.sleep(0.01)

        # Forced lease expiry: a ghost worker claims one task with a tiny
        # lease and dies on the spot.  Nobody heartbeats it, so it must
        # requeue and complete anyway.
        ghost_claim = broker.claim("ghost-dead-worker", lease_s=0.5)
        if ghost_claim is not None:
            print(f"ghost worker claimed {ghost_claim.name} and died; lease 0.5 s")
            workers = [spawn_worker(queue_dir, i, args.lease) for i in range(args.workers)]
        else:
            print("nothing pending (campaign already complete in --queue-dir)")
            workers = []
        coordinator.join(timeout=600)
        for proc in workers:
            proc.wait(timeout=120)
        elapsed = time.perf_counter() - start

        if coordinator.is_alive() or "error" in outcome:
            print(f"queue campaign failed: {outcome.get('error', 'coordinator hung')}")
            sys.exit(1)
        parallel = outcome["result"]
        requeued_done = (
            ghost_claim is None
            or ghost_claim.task.identity() in broker.result_identities()
        )
        print(f"{args.workers:2d} workers  : {elapsed:6.1f} s  (+ serial reference)")
        if ghost_claim is not None:
            print(f"ghost-claimed task requeued and completed: {requeued_done}")

        same = [r.to_dict() for r in serial.records] == [
            r.to_dict() for r in parallel.records
        ]
        print(f"records identical across executors: {same}")
        if not (same and requeued_done):
            # scripts/ci.sh relies on this exit code: executor divergence
            # or a lost lease is the regression this smoke must catch.
            sys.exit(1)

    rows = [
        [name, m.n_runs, m.msr, round(m.vpk, 3), round(m.apk, 3)]
        for name, m in parallel.metrics().items()
    ]
    print()
    print(format_table(["injector", "runs", "MSR_%", "VPK", "APK"], rows))


if __name__ == "__main__":
    main()
