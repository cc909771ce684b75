#!/usr/bin/env python3
"""Replay an emitted spec in-process and report its frames per second.

    python3 perfbench/replay.py .perfbench/out/dense-mux-seed1-trace0/specs.jsonl \\
        --index 0 --backend serial --backend multiplexed --repeats 5

Each backend runs the campaign ``--repeats`` times, alternating backends
so host drift hits both alike.  The output is the median frames/s per
backend and the median of the per-repeat ratios to the first backend (a
ratio of two runs made seconds apart cancels most of the host's drift).
Records of every backend must be byte-identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("spec", help="a spec JSON file, or a specs.jsonl a run emitted")
    parser.add_argument("--index", type=int, default=0, help="line of a specs.jsonl")
    parser.add_argument("--backend", action="append", required=True)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.sensor_bench import machine_fingerprint
    from repro.core import Campaign
    from repro.core.spec import CampaignSpec

    text = Path(args.spec).read_text()
    if args.spec.endswith(".jsonl"):
        text = text.splitlines()[args.index]
    data = json.loads(text)
    specs = {}
    for backend in args.backend:
        variant = json.loads(json.dumps(data))
        variant["execution"].update(backend=backend, checkpoint=None)
        specs[backend] = CampaignSpec.from_dict(variant)
    Campaign.from_spec(specs[args.backend[0]]).run()  # warm the scene cache
    rates: dict[str, list[float]] = {b: [] for b in specs}
    records: dict[str, list[str]] = {}
    for _ in range(args.repeats):
        for backend, spec in specs.items():
            start = time.perf_counter()
            result = Campaign.from_spec(spec).run()
            wall = time.perf_counter() - start
            rates[backend].append(sum(r.frames for r in result.records) / wall)
            records[backend] = [json.dumps(r.to_dict()) for r in result.records]
    print(f"machine: {machine_fingerprint()}")
    medians = {b: statistics.median(v) for b, v in rates.items()}
    for backend, rate in medians.items():
        spread = ", ".join(f"{v:.0f}" for v in rates[backend])
        print(f"{backend:12s} median {rate:8.1f} frames/s  (runs: {spread})")
    base = args.backend[0]
    for backend in args.backend[1:]:
        paired = [a / b for a, b in zip(rates[backend], rates[base])]
        print(
            f"{backend} / {base}: median of paired ratios {statistics.median(paired):.3f}, "
            f"ratio of medians {medians[backend] / medians[base]:.3f} over {args.repeats} repeats"
        )
    identical = len({tuple(r) for r in records.values()}) == 1
    print(f"records identical across backends: {identical}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
