#!/usr/bin/env bash
# Single verification entry point: tier-1 tests plus a parallel smoke run.
#
#   scripts/ci.sh            # quick suite (benchmarks deselected) + smoke
#   scripts/ci.sh --slow     # additionally run the slow benchmark tier
#
# The slow tier re-measures the sensor hot paths and writes
# benchmarks/results/BENCH_sensor_pipeline.json; it FAILS if the full
# server/client pipeline step (or camera/LIDAR) regresses below the
# committed baseline (benchmarks/BENCH_sensor_pipeline_baseline.json):
# 3x/4x multiples against the pre-vectorisation scalar capture, plain
# parity against a baseline recaptured on another machine with
#   PYTHONPATH=src python benchmarks/sensor_bench.py --capture-baseline
# (see benchmarks/test_bench_throughput.py::test_sensor_pipeline_gate).
# It also gates the episode multiplexer: batched sensing must stay
# >= 1.5x single-episode serial per core on the dense scene, recorded in
# benchmarks/results/BENCH_multiplex.json
# (see benchmarks/test_bench_multiplex.py).
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1: pytest -x -q =="
python -m pytest -x -q

echo "== perfbench: the benchmark's own tests =="
# perfbench/ sits outside tier-1's testpaths.  Its tracer wraps
# Renderer.render, Lidar2D.read and SensorSuite.read_frame by name, so
# this catches a rename or removal that would break the traced run.
python -m pytest perfbench -q

echo "== smoke: declarative spec campaign (avfi run) =="
python -m repro run examples/specs/smoke.json --workers 1

echo "== smoke: spec emit round-trip =="
# The hard-coded campaign command's emitted spec must re-load cleanly.
python -m repro spec emit campaign --runs 2 | python -m repro spec validate -

echo "== smoke: compound-fault campaign + streaming report =="
# Compound (multi-fault) episodes end-to-end: the compound spec expands
# its cartesian pairs, runs with a JSONL checkpoint (+ parquet sink when
# pyarrow is installed — degrades with a warning when not), and the
# streaming `avfi report` computes interaction effects from the file.
COMPOUND_DIR="$(mktemp -d)"
CHAOS_DIR="$(mktemp -d)"
SERVICE_DIR="$(mktemp -d)"
trap 'rm -rf "$COMPOUND_DIR" "$CHAOS_DIR" "$SERVICE_DIR"' EXIT
python -m repro run examples/specs/compound.json --workers 1 \
    --checkpoint "$COMPOUND_DIR/results.jsonl" \
    --parquet "$COMPOUND_DIR/results.parquet"
python -m repro report "$COMPOUND_DIR/results.jsonl" | tee "$COMPOUND_DIR/report_jsonl.txt"
grep -q "pairs:gaussian+output-delay" "$COMPOUND_DIR/report_jsonl.txt"
grep -q "compound-fault interaction effects" "$COMPOUND_DIR/report_jsonl.txt"
if python -c "import pyarrow" 2>/dev/null; then
    echo "== smoke: parquet sink round-trip =="
    # With pyarrow installed the sink must exist and report identically
    # to the JSONL checkpoint (same records, other container).
    python -m repro report "$COMPOUND_DIR/results.parquet" --parquet \
        | tee "$COMPOUND_DIR/report_parquet.txt"
    diff <(tail -n +2 "$COMPOUND_DIR/report_jsonl.txt") \
         <(tail -n +2 "$COMPOUND_DIR/report_parquet.txt")
else
    echo "== smoke: parquet sink skipped (pyarrow not installed; JSONL fallback verified above) =="
    test ! -e "$COMPOUND_DIR/results.parquet"
fi

echo "== smoke: declarative-vs-programmatic equivalence =="
python examples/declarative_campaign.py --runs 1

echo "== smoke: 2-worker parallel campaign =="
python examples/parallel_campaign.py --workers 2 --runs 2 --agent autopilot

echo "== smoke: distributed queue campaign (2 workers, forced lease expiry) =="
# End-to-end over the filesystem broker: a coordinator, two real
# `python -m repro worker` subprocesses, one ghost-claimed task whose
# lease expires and requeues.  Exits non-zero on any divergence from
# the serial reference.
python examples/distributed_queue_campaign.py --workers 2 --runs 2

echo "== smoke: multiplexed-vs-serial byte-identity =="
# The multiplexed backend's headline guarantee: a mixed-weather campaign
# run with episodes interleaved at tick granularity (batched sensing,
# slot of 4) must produce byte-identical records to the serial run.
python - <<'PY'
from repro.agent import autopilot_agent_factory
from repro.core import ParallelCampaignRunner, standard_scenarios
from repro.core.faults import GaussianNoise, OutputDelay

scenarios = standard_scenarios(4, seed=23, n_npc_vehicles=2, n_pedestrians=1)
injectors = {"none": [], "compound": [GaussianNoise(0.1), OutputDelay(3)]}

def run(executor, slot):
    return ParallelCampaignRunner(
        scenarios, autopilot_agent_factory(), injectors,
        executor=executor, episodes_per_slot=slot,
    ).run().records

serial = run("serial", 1)
mux = run("multiplexed", 4)
assert [r.to_dict() for r in serial] == [r.to_dict() for r in mux], \
    "multiplexed records diverged from serial"
print(f"multiplexed == serial over {len(serial)} episodes")
PY

echo "== smoke: self-healing chaos campaign (quarantine + byte-identity) =="
# The harness under its own faults: a queue campaign with one always-
# crashing and one always-hanging episode, every broker interaction
# misbehaving through a seeded ChaosBroker.  Must exit 0 with exactly
# the two poison rows quarantined and the survivors byte-identical to a
# fault-free serial run; the streaming report over the broker's raw
# checkpoint must render the quarantine list.
python examples/chaos_campaign.py --workers 2 --queue-dir "$CHAOS_DIR/broker"
python -m repro report "$CHAOS_DIR/broker/results.jsonl" | tee "$CHAOS_DIR/report.txt"
grep -q "quarantined episodes" "$CHAOS_DIR/report.txt"
grep -q "chaos-crash" "$CHAOS_DIR/report.txt"
grep -q "chaos-hang" "$CHAOS_DIR/report.txt"

echo "== smoke: generative grammar campaign (expand + serial-vs-queue identity) =="
# The grammar suite form end-to-end: `avfi spec expand` renders the
# golden generative spec's concrete suite (and must show the scripted
# junction-conflict NPC), then the example expands it twice, runs it on
# the serial and queue backends (queue workers re-expand the grammar
# from the archived spec in their own processes) and re-drives a
# conflict episode asserting the NPC behavior state machine interrupted.
python -m repro spec expand examples/specs/generated.json \
    | tee "$COMPOUND_DIR/expand.txt"
grep -q "behavior run_junction (LEFT)" "$COMPOUND_DIR/expand.txt"
python examples/generated_campaign.py --workers 1

echo "== smoke: campaign as a service (avfi serve + TCP worker + HTTP submit) =="
# The full network deployment, every role a real subprocess: `avfi serve`
# (HTTP control plane + TCP broker), one `avfi worker` attached over
# tcp://, an HTTP client submitting the smoke spec and polling to
# settlement.  The script exits non-zero unless the streamed results are
# byte-identical to a serial run; subprocesses are reaped through the
# reap_process escalation ladder.
python examples/service_campaign.py | tee "$SERVICE_DIR/service.txt"
grep -q "done  {'ok': 3}" "$SERVICE_DIR/service.txt"
grep -q "byte-identical to serial run: True" "$SERVICE_DIR/service.txt"

if [[ "${1:-}" == "--slow" ]]; then
    echo "== slow tier: benchmarks (incl. sensor pipeline + multiplex gates) =="
    # The multiplex gate (benchmarks/test_bench_multiplex.py) fails the
    # tier if batched sensing drops below 1.5x single-episode serial per
    # core on the dense scene, and records BENCH_multiplex.json.
    python -m pytest -x -q -m slow
    test -s benchmarks/results/BENCH_multiplex.json
    echo "== bench results =="
    ls -l benchmarks/results/
fi

echo "CI OK"
