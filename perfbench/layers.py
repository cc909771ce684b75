"""The traced run: per-layer self time and counts, and the tracing overhead.

A traced run repeats the timed phase with :mod:`tracing`'s wrappers
installed — in this process for the in-process workloads, and in the
``avfi serve`` / ``avfi worker`` processes (through ``launch.py``) for
``short-service``.  Every ``*_s`` metric is a total over the traced
phase unless its name says otherwise; divide by ``driver.frames`` for a
per-frame figure.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import tracing

#: Every per-layer metric, with its unit, in report order.
PER_LAYER = {
    "render.self_s": "s",
    "render.images": "count",
    "lidar.self_s": "s",
    "sensors.self_s": "s",
    "sensors.batch_mean": "episodes",
    "mux.fallback_share": "ratio",
    "world.self_s": "s",
    "violations.self_s": "s",
    "agent.self_s": "s",
    "agent.steps": "count",
    "faults.self_s": "s",
    "faults.calls": "count",
    "driver.setup_s": "s",
    "driver.step_client_self_s": "s",
    "driver.step_world_self_s": "s",
    "driver.sense_self_s": "s",
    "driver.complete_frame_self_s": "s",
    "driver.finalize_s": "s",
    "driver.frames": "count",
    "runner.checkpoint_s": "s",
    "runner.checkpoint_rows": "count",
    "executor.self_s": "s",
    "spec.self_s": "s",
    "scene.self_s": "s",
    "episode.self_s": "s",
    "broker.ops_per_episode": "ops",
    "broker.dispatch_s": "s",
    "broker.client_s": "s",
    "broker.claim_hit_share": "ratio",
    "worker.idle_s": "s",
    "worker.context_load_s": "s",
    "service.overhead_s": "s",
    "service.post_s": "s",
    "service.status_polls": "count",
    "setup.scenarios_s": "s",
    "setup.scene_cache_s": "s",
    "setup.worker_start_s": "s",
    "trace.wall_s": "s",
    "trace.attributed_s": "s",
    "trace.residual_s": "s",
    "trace.frames_per_s": "frames/s",
    "trace.untraced_frames_per_s": "frames/s",
    "trace.overhead_share": "ratio",
}


def traced_phase(bench, seconds: float, out_dir: Path, service: bool) -> dict:
    """Run the timed phase once more with every layer wrapped."""
    if service:
        bench.setup(trace_dir=out_dir)
        worker_spawned = bench.service.worker_spawned
        phase = bench.timed(seconds)
        bench.close()  # the processes write their spans as they exit
        procs = {
            role: tracing.load_spans(out_dir / f"spans-{role}.jsonl")
            for role in ("serve", "worker")
        }
        return {
            "phase": phase,
            "worker_spawned": worker_spawned,
            "episode_proc": "worker",
            "procs": procs,
        }
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    try:
        phase = bench.timed(seconds)
    finally:
        tracer.uninstall()
    tracer.dump(out_dir / "spans-bench.jsonl")
    return {"phase": phase, "episode_proc": "bench", "procs": {"bench": tracer.export()}}


def _layer_sum(summary: dict, layer: str, key: str = "self_s") -> float:
    return sum(row[key] for name, row in summary.items() if tracing.layer_of(name) == layer)


def _row(summary: dict, name: str) -> dict:
    return summary.get(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0, "n": 0})


def _idle_s(spans: list[dict], lo: float, hi: float) -> float:
    """Time from the first claim miss after a hit to the next hit."""
    claims = sorted(
        (s for s in spans if s["name"] == "broker:TcpBroker.claim" and lo <= s["start"] < hi),
        key=lambda s: s["start"],
    )
    idle, first_miss = 0.0, None
    for span in claims:
        if span["n"]:
            if first_miss is not None:
                idle += span["end"] - first_miss
            first_miss = None
        elif first_miss is None:
            first_miss = span["start"]
    return idle


def layer_breakdown(traced: dict) -> dict[str, float]:
    """Self time per layer in the episode process over the traced phase."""
    phase = traced["phase"]
    summary = tracing.summarize(traced["procs"][traced["episode_proc"]], phase["t0"], phase["t1"])
    out: dict[str, float] = {}
    for name, row in summary.items():
        layer = tracing.layer_of(name)
        out[layer] = out.get(layer, 0.0) + row["self_s"]
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def layer_metrics(traced: dict, untraced: dict) -> dict:
    """Every :data:`PER_LAYER` metric as ``{name: (value, unit)}``."""
    phase = traced["phase"]
    lo, hi = phase["t0"], phase["t1"]
    main = traced["procs"][traced["episode_proc"]]
    ep = tracing.summarize(main, lo, hi)
    episodes = max(phase["attempted"], 1)
    frames = _row(ep, "driver:complete_frame")["calls"]

    sensors = [_row(ep, "sensors:SensorSuite.read_frame"), _row(ep, "sensors:read_frames_batch")]
    sensor_calls = sum(r["calls"] for r in sensors)
    values = {
        "render.self_s": _layer_sum(ep, "render"),
        "render.images": float(_layer_sum(ep, "render", "n")),
        "lidar.self_s": _layer_sum(ep, "lidar"),
        "sensors.self_s": _layer_sum(ep, "sensors"),
        "sensors.batch_mean": sum(r["n"] for r in sensors) / sensor_calls if sensor_calls else 0.0,
        "mux.fallback_share": _row(ep, "mux:attempt_task")["calls"] / episodes,
        "world.self_s": _layer_sum(ep, "world"),
        "violations.self_s": _layer_sum(ep, "violations"),
        "agent.self_s": _layer_sum(ep, "agent"),
        "agent.steps": float(_layer_sum(ep, "agent", "calls")),
        "faults.self_s": _layer_sum(ep, "faults"),
        "faults.calls": float(_layer_sum(ep, "faults", "calls")),
        "driver.setup_s": _row(ep, "driver:setup")["total_s"],
        "driver.step_client_self_s": _row(ep, "driver:step_client")["self_s"],
        "driver.step_world_self_s": _row(ep, "driver:step_world")["self_s"],
        "driver.sense_self_s": _row(ep, "driver:sense")["self_s"],
        "driver.complete_frame_self_s": _row(ep, "driver:complete_frame")["self_s"],
        "driver.finalize_s": _row(ep, "driver:finalize")["total_s"],
        "driver.frames": float(frames),
        "executor.self_s": _layer_sum(ep, "executor"),
        "spec.self_s": _layer_sum(ep, "spec"),
        "scene.self_s": _layer_sum(ep, "scene"),
        "episode.self_s": _layer_sum(ep, "episode") + _layer_sum(ep, "mux"),
        "broker.client_s": _layer_sum(ep, "broker", "self_s"),
        "worker.context_load_s": _layer_sum(ep, "worker", "total_s"),
    }
    # Checkpoint appends happen where the checkpoint lives: in this
    # process in-process, in the serve process behind the TCP broker.
    serve = tracing.summarize(traced["procs"]["serve"], lo, hi) if "serve" in traced["procs"] else {}
    ckpt = _row(serve or ep, "runner:append_jsonl_line")
    values["runner.checkpoint_s"] = ckpt["total_s"]
    values["runner.checkpoint_rows"] = float(ckpt["calls"])
    dispatch = _row(serve, "broker:BrokerServer.dispatch")
    values["broker.ops_per_episode"] = dispatch["calls"] / episodes
    values["broker.dispatch_s"] = dispatch["total_s"]
    claims = _row(ep, "broker:TcpBroker.claim")
    values["broker.claim_hit_share"] = claims["n"] / claims["calls"] if claims["calls"] else 0.0
    values["worker.idle_s"] = _idle_s(main, lo, hi)

    subs = phase["runs"] if traced["episode_proc"] == "worker" else []
    if subs:
        episode_spans = [s for s in main if s["name"] == "episode:execute_task"]
        overheads = []
        for sub in subs:
            busy = sum(
                s["end"] - s["start"] for s in episode_spans if sub["t0"] <= s["start"] < sub["t1"]
            )
            overheads.append(sub["settle_s"] - busy)
        values["service.overhead_s"] = statistics.mean(overheads)
        values["service.post_s"] = statistics.mean(s["post_s"] for s in subs)
        values["service.status_polls"] = statistics.mean(s["polls"] for s in subs)
    else:
        values["service.overhead_s"] = values["service.post_s"] = values["service.status_polls"] = 0.0

    values.update(_setup_layers(traced))

    wall = phase["wall_s"]
    covered = sum(r["self_s"] for r in ep.values())
    attributed = covered - values["executor.self_s"]
    values["trace.wall_s"] = wall
    values["trace.attributed_s"] = attributed
    values["trace.residual_s"] = wall - attributed
    traced_fps = phase["frames"] / wall
    untraced_fps = untraced["frames"] / untraced["wall_s"]
    values["trace.frames_per_s"] = traced_fps
    values["trace.untraced_frames_per_s"] = untraced_fps
    values["trace.overhead_share"] = 1.0 - traced_fps / untraced_fps
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER.items()}


def _setup_layers(traced: dict) -> dict:
    """``setup.*`` of the traced run's own set-up."""
    if "serve" not in traced["procs"]:
        setup = traced["bench_setup"]
        return {
            "setup.scenarios_s": setup["setup.scenarios_s"],
            "setup.scene_cache_s": setup["setup.scene_cache_s"],
            "setup.worker_start_s": 0.0,
        }
    t0 = traced["phase"]["t0"]
    serve = tracing.summarize(traced["procs"]["serve"], hi=t0)
    worker_spans = traced["procs"]["worker"]
    worker = tracing.summarize(worker_spans, hi=t0)
    hits = [
        s["end"] for s in worker_spans if s["name"] == "broker:TcpBroker.claim" and s["n"]
    ]
    return {
        "setup.scenarios_s": _layer_sum(serve, "spec", "total_s"),
        "setup.scene_cache_s": _layer_sum(worker, "scene", "total_s"),
        # The warm-up submission guarantees a hit before the timed phase.
        "setup.worker_start_s": min(hits) - traced["worker_spawned"],
    }
