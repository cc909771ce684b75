"""The benchmark's workloads: campaign specs generated from a workload seed.

The program only ever sees the generated :class:`~repro.core.spec.CampaignSpec`
JSON.  Every spec here is plain data that ``avfi run`` replays as-is.
"""

from __future__ import annotations

import random

WORKLOADS = ("dense-mux", "nn-serial", "short-service")
#: The workloads ``BENCHMARK.json`` gates.  ``nn-serial`` is run by hand
#: only: two ten-seed sets of the same code disagreed on it by more than
#: the widest bound (see ``NOTES.md``).  Its agent and fault layers are
#: also measured on ``dense-mux`` (autopilot, gaussian, output-delay).
BENCHMARKED = ("dense-mux", "short-service")

#: Every run is a closed loop of distinct campaigns: campaign ``index`` of
#: workload seed ``seed`` is ``<workload>_spec(seed, index)``.
#:
#: Episodes per in-process campaign: scenarios x the three injectors.
#: Sized so a run settles well under 20 campaigns, where the settle tail
#: is the maximum (``run.tail_percentile``); a count that straddled 20
#: would flip the tail between the maximum and the median from run to run.
DENSE_SCENARIOS = 4
NN_SCENARIOS = 2
#: Scenarios per ``short-service`` submission (x the three injectors).
SERVICE_SCENARIOS = 1

#: Mission length range (m) of the in-process workloads.  With ``time_factor`` 0
#: every mission gets the grammar's fixed 15 s budget, and no agent covers
#: 130 m from a standstill in 15 s (the autopilot cruises at 7 m/s), so
#: every episode runs exactly 225 frames: the work of a campaign is the
#: same for every seed, and its settle time measures speed, not luck.
MIN_DISTANCE = 130.0
MAX_DISTANCE = 200.0
TIME_FACTOR = 0.0
#: ``short-service`` missions are short (20–25 m): the autopilot arrives
#: in about 58 frames, so a submission computes for about 0.1 s, well
#: inside one period of the coordinator's 0.2 s and the worker's 0.5 s
#: polls.  With 225-frame episodes (about 0.45 s) completions sat near a
#: poll boundary, and a run's median settle time jumped between two modes
#: 0.17 s apart as the host's speed drifted.  The 15 s budget still caps
#: an episode that never arrives.
SERVICE_MIN_DISTANCE = 20.0
SERVICE_MAX_DISTANCE = 25.0

#: The ``smoke``-sized camera of ``short-service`` (width x height).
SMALL_CAMERA = {
    "width": 32,
    "height": 24,
    "fov_deg": 100.0,
    "mount_height": 1.5,
    "pitch_deg": -8.0,
    "forward_offset": 1.0,
    "max_depth": 90.0,
}


def _trigger() -> dict:
    return {"start_frame": 0, "end_frame": None, "probability": 1.0}


def _fault(name: str, **params) -> dict:
    return {"fault": name, "params": params, "trigger": _trigger()}


def _execution(backend: str, checkpoint: str | None, base_seed: int) -> dict:
    return {
        "base_seed": base_seed,
        "workers": 1,
        "backend": backend,
        "queue_dir": None,
        "lease_s": None,
        "checkpoint": checkpoint,
        "parquet": None,
        "episodes_per_slot": None,
        "fault_tolerance": None,
    }


def campaign_seed(workload: str, seed: int, index: int) -> int:
    """Scenario-suite seed of a run's ``index``-th campaign.

    Consecutive indexes give consecutive seeds, so no two campaigns of one
    run share a suite (the service's result cache never answers).
    """
    return random.Random(f"{workload}:{seed}").randrange(2**30) + index


def dense_mux_spec(seed: int, index: int = 0) -> dict:
    """Dense 4x4 town, 8 NPC vehicles + 4 pedestrians, LIDAR on, multiplexed."""
    from benchmarks.sensor_bench import BENCH_TOWN, N_NPC_VEHICLES, N_PEDESTRIANS

    suite_seed = campaign_seed("dense-mux", seed, index)
    return {
        "schema_version": 1,
        "name": f"perfbench-dense-mux-{seed}-{index}",
        "scenarios": {
            "grammar": {
                "n": DENSE_SCENARIOS,
                "seed": suite_seed,
                "name": "dense",
                "town": {"grid": {"rows": BENCH_TOWN.rows, "cols": BENCH_TOWN.cols}},
                "weather": {"choice": ["ClearNoon", "HardRainNoon", "FoggyNoon"]},
                "n_npc_vehicles": N_NPC_VEHICLES,
                "n_pedestrians": N_PEDESTRIANS,
                "min_distance": MIN_DISTANCE,
                "max_distance": MAX_DISTANCE,
                "time_factor": TIME_FACTOR,
            }
        },
        "agent": {"name": "autopilot", "params": {}},
        "injectors": {
            "none": [],
            "gaussian": [_fault("gaussian", sigma=0.1)],
            "output-delay": [_fault("output-delay", delay_frames=10, mode="replay")],
        },
        "builder": None,
        "execution": _execution("multiplexed", ".perfbench/replay/dense-mux.jsonl", suite_seed % 1000),
    }


def nn_serial_spec(seed: int, index: int, model_path: str) -> dict:
    """Untrained IL-CNN agent, sparse traffic, ModelFaults, serial backend."""
    suite_seed = campaign_seed("nn-serial", seed, index)
    return {
        "schema_version": 1,
        "name": f"perfbench-nn-serial-{seed}-{index}",
        "scenarios": {
            "grammar": {
                "n": NN_SCENARIOS,
                "seed": suite_seed,
                "name": "sparse",
                "town": {"grid": {"rows": 4, "cols": 4}},
                "weather": "ClearNoon",
                "n_npc_vehicles": 1,
                "n_pedestrians": 1,
                "min_distance": MIN_DISTANCE,
                "max_distance": MAX_DISTANCE,
                "time_factor": TIME_FACTOR,
            }
        },
        "agent": {"name": "nn", "params": {"model_path": model_path}},
        "injectors": {
            "none": [],
            "weight-bitflip": [_fault("weight-bitflip", n_flips=4, bit_range=[23, 32])],
            "activation": [_fault("activation", block="trunk", n_units=4, mode="saturate")],
        },
        "builder": None,
        "execution": _execution("serial", ".perfbench/replay/nn-serial.jsonl", suite_seed % 1000),
    }


def short_service_spec(seed: int, index: int) -> dict:
    """One smoke-sized submission: 2x3 town, 32x24 camera, no LIDAR."""
    return {
        "schema_version": 1,
        "name": f"perfbench-short-service-{seed}-{index}",
        "scenarios": {
            "grammar": {
                "n": SERVICE_SCENARIOS,
                "seed": campaign_seed("short-service", seed, index),
                "name": "smoke",
                "town": {"grid": {"rows": 2, "cols": 3}},
                "weather": "ClearNoon",
                "n_npc_vehicles": 1,
                "n_pedestrians": 1,
                "min_distance": SERVICE_MIN_DISTANCE,
                "max_distance": SERVICE_MAX_DISTANCE,
                "time_factor": TIME_FACTOR,
            }
        },
        "agent": {"name": "autopilot", "params": {}},
        "injectors": {
            "none": [],
            "gaussian": [_fault("gaussian", sigma=0.1)],
            "output-delay": [_fault("output-delay", delay_frames=10, mode="replay")],
        },
        "builder": {
            "camera": dict(SMALL_CAMERA),
            "texture_resolution": 0.25,
            "with_lidar": False,
            "gps_noise_std": 0.4,
        },
        "execution": _execution(None, None, 0),
    }
