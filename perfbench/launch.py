#!/usr/bin/env python3
"""Start ``avfi`` (``repro.cli.main``) with the benchmark's layer wrappers.

    python3 perfbench/launch.py [--trace-out SPANS.jsonl] -- <avfi arguments>

Without ``--trace-out`` this is plain ``avfi``.  With it, every layer
entry point of :func:`tracing.install_layers` records spans in memory,
and the spans are written to ``SPANS.jsonl`` once, when the process exits.
"""

import atexit
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]
    split = argv.index("--")
    options, avfi_args = argv[:split], argv[split + 1 :]
    from repro.cli import main as avfi_main

    if options[:1] == ["--trace-out"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_layers(tracer)
        atexit.register(tracer.dump, options[1])
    return avfi_main(avfi_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
