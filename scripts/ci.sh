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
# (see benchmarks/test_bench_multiplex.py).  And it gates cold scene
# setup: a fresh TownTexture of the benchmark town must build >= 5x faster
# than the whole-grid reference rasteriser, recorded in
# benchmarks/results/BENCH_scene_setup.json
# (see benchmarks/test_bench_scene_setup.py).  And it gates route queries:
# the expert's per-frame route queries must cost >= 2x less than the NumPy
# reference path that scans on every query, alternating in one process,
# recorded with the per-phase frame costs of the smoke and dense scenes,
# the dense scene on a multiplexed slot of 4 and the dense world step
# split by actor kind (NPC vehicles, pedestrians, ego physics) in
# benchmarks/results/BENCH_frame_cost.json
# (see benchmarks/test_bench_frame_cost.py).
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1: pytest -x -q =="
python -m pytest -x -q

echo "== perfbench: the benchmark's own tests =="
# perfbench/ sits outside tier-1's testpaths.  Its tracer wraps
# Renderer.render, Lidar2D.read and SensorSuite.read_frame by name, and
# on the broker and worker side BrokerServer.dispatch, TcpBroker._call,
# TcpBroker.claim, TcpBroker.load_context and queue._drain (inherited
# methods count), so this catches a rename or removal that would break
# the traced run.
python -m pytest perfbench -q

echo "== smoke: declarative spec campaign (avfi run) =="
python -m repro run examples/specs/smoke.json --workers 1

echo "== smoke: spec emit round-trip =="
# The hard-coded campaign command's emitted spec must re-load cleanly.
python -m repro spec emit campaign --runs 2 | python -m repro spec validate -

echo "== smoke: compound-fault campaign + streaming report =="
# Compound (multi-fault) episodes end-to-end: the compound spec expands
# its cartesian pairs, runs with a JSONL checkpoint, and the streaming
# `avfi report` computes interaction effects from the file.
COMPOUND_DIR="$(mktemp -d)"
CHAOS_DIR="$(mktemp -d)"
SERVICE_DIR="$(mktemp -d)"
trap 'rm -rf "$COMPOUND_DIR" "$CHAOS_DIR" "$SERVICE_DIR"' EXIT
python -m repro run examples/specs/compound.json --workers 1 \
    --checkpoint "$COMPOUND_DIR/results.jsonl"
python -m repro report "$COMPOUND_DIR/results.jsonl" | tee "$COMPOUND_DIR/report_jsonl.txt"
grep -q "pairs:gaussian+output-delay" "$COMPOUND_DIR/report_jsonl.txt"
grep -q "compound-fault interaction effects" "$COMPOUND_DIR/report_jsonl.txt"

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
# slot of 4) must produce byte-identical records to the serial run --
# through the "multiplexed" name, through "serial" given the same slot
# (one in-process transport), and through process-pool workers that
# each drain a slot of 2.
python - <<'PY'
from repro.agent import autopilot_agent_factory
from repro.core import Campaign, standard_scenarios
from repro.core.faults import GaussianNoise, OutputDelay

scenarios = standard_scenarios(4, seed=23, n_npc_vehicles=2, n_pedestrians=1)
injectors = {"none": [], "compound": [GaussianNoise(0.1), OutputDelay(3)]}

def run(executor, slot, workers=None):
    return [r.to_dict() for r in Campaign(
        scenarios, autopilot_agent_factory(), injectors,
        executor=executor, episodes_per_slot=slot, workers=workers,
    ).run().records]

serial = run("serial", 1)
for executor, slot, workers in [
    ("multiplexed", 4, None), ("serial", 4, None), ("process", 2, 2),
]:
    assert run(executor, slot, workers) == serial, \
        f"{executor} (slot {slot}) records diverged from serial"
    print(f"{executor} (slot {slot}) == serial over {len(serial)} episodes")
PY

echo "== smoke: camera noise reaches the records (nn agent, byte-identity) =="
# The autopilot reads the world, not the camera, so the step above
# cannot see the noise bits.  The nn agent drives from the image: with
# gaussian and salt-and-pepper noise (drawn one frame ahead on a helper
# thread) its records must match serial on the multiplexed slot of 4
# and on a 2-worker process pool, whose workers fork after the serial
# run has drawn noise in this process.
python - <<'PY'
from dataclasses import replace

from repro.agent import nn_agent_factory
from repro.agent.ilcnn import ILCNN, ILCNNConfig
from repro.core import Campaign, standard_scenarios
from repro.core.faults import GaussianNoise, SaltAndPepper, Trigger

scenarios = [
    replace(s, mission=replace(s.mission, time_limit_s=4.0))
    for s in standard_scenarios(2, seed=41, n_npc_vehicles=1, min_distance=40, max_distance=80)
]
injectors = {
    "gaussian": [GaussianNoise(0.1)],
    "s&p": [SaltAndPepper(trigger=Trigger(probability=0.5))],
}
model = ILCNN(ILCNNConfig())
model.set_training(False)  # inference, as `avfi run` builds the nn agent
factory = nn_agent_factory(model)

def run(executor, slot, workers=None):
    return [r.to_dict() for r in Campaign(
        scenarios, factory, injectors,
        executor=executor, episodes_per_slot=slot, workers=workers,
    ).run().records]

serial = run("serial", 1)
for executor, slot, workers in [("multiplexed", 4, None), ("process", None, 2)]:
    assert run(executor, slot, workers) == serial, \
        f"{executor} records diverged from serial under camera noise"
    print(f"{executor} == serial over {len(serial)} nn episodes with camera noise")
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
# `avfi queue-status` counts the same checkpoint through broker.status().
python -m repro queue-status "$CHAOS_DIR/broker" | tee "$CHAOS_DIR/status.txt"
grep -Eq "^ +results: [1-9]" "$CHAOS_DIR/status.txt"

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
# tcp:// with the default poll settings a user gets (its claims wait on
# the broker server and are woken by a publish), and an HTTP client
# submitting the smoke spec and long-polling (`?wait=`) to settlement.
# The script exits non-zero unless the streamed results are
# byte-identical to a serial run; subprocesses are reaped through the
# reap_process escalation ladder.
python examples/service_campaign.py | tee "$SERVICE_DIR/service.txt"
grep -q "done  {'ok': 3}" "$SERVICE_DIR/service.txt"
grep -q "byte-identical to serial run: True" "$SERVICE_DIR/service.txt"

if [[ "${1:-}" == "--slow" ]]; then
    echo "== slow tier: benchmarks (incl. sensor pipeline, multiplex, scene setup and route-query gates) =="
    # The multiplex gate (benchmarks/test_bench_multiplex.py) fails the
    # tier if batched sensing drops below 1.5x single-episode serial per
    # core on the dense scene, and records BENCH_multiplex.json; the
    # scene-setup and frame-cost benches record BENCH_scene_setup.json
    # and BENCH_frame_cost.json.
    python -m pytest -x -q -m slow
    test -s benchmarks/results/BENCH_multiplex.json
    test -s benchmarks/results/BENCH_scene_setup.json
    test -s benchmarks/results/BENCH_frame_cost.json
    echo "== bench results =="
    ls -l benchmarks/results/
fi

echo "CI OK"
