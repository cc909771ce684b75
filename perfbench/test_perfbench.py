"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest perfbench -q

The tiny runs start the real program (and, for ``short-service``, real
``avfi serve`` / ``avfi worker`` processes), so the file takes a few
minutes.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for path in (str(BENCH_DIR), str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    result, stdout = _tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
        assert metric["name"] in stdout  # printed by name, not only in the JSON
    if trace:
        metrics = result["metrics"]
        assert metrics["driver.frames"]["value"] > 0
        if workload != "short-service":
            # In-process, the campaign spans cover the traced phase: the
            # layer self times must add up to its wall time.
            saved = json.loads((ROOT / ".perfbench" / "out" / f"{workload}-seed3-trace1" / "result.json").read_text())
            wall = metrics["trace.wall_s"]["value"]
            gap = wall - sum(saved["provenance"]["layer_breakdown_s"].values())
            assert abs(gap) < 0.05 * wall
    else:
        assert result["metrics"]["ok_share"]["value"] == 1.0


def test_declared_metrics_match_the_code():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(layers.PER_LAYER)
    assert [m["unit"] for m in BENCHMARK["per_layer"]] == list(layers.PER_LAYER.values())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.BENCHMARKED)
    assert set(workloads.BENCHMARKED) <= set(workloads.WORKLOADS)


def _span(name, start, end, parent=None, n=1):
    return {"name": name, "start": start, "end": end, "parent": parent, "episode": None, "n": n}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("executor:root", 0.0, 10.0),
        _span("driver:step_world", 1.0, 4.0, parent=0),
        _span("world:World.tick", 1.5, 2.5, parent=1),
        _span("violations:ViolationMonitor.step", 2.0, 3.0, parent=1),  # overlaps its sibling
        _span("render:Renderer.render", 5.0, 6.0, parent=0),
        _span("render:Renderer.render_batch", 9.5, 12.0, parent=0, n=3),  # outlives its parent
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([10.0 - 3.0 - 1.0 - 0.5, 3.0 - 1.5, 1.0, 1.0, 1.0, 2.5])
    # Properly nested spans (one thread): self times add up to the root.
    nested = [spans[0], spans[1], spans[2], spans[4]]
    assert sum(tracing.self_times(nested)) == pytest.approx(10.0)
    summary = tracing.summarize(spans)
    assert summary["render:Renderer.render_batch"]["n"] == 3
    assert layers._layer_sum(summary, "render") == pytest.approx(3.5)
    assert layers._layer_sum(summary, "render", "n") == 4
    # Windowing keeps spans by start time.
    assert set(tracing.summarize(spans, lo=1.0, hi=5.0)) == {
        "driver:step_world", "world:World.tick", "violations:ViolationMonitor.step",
    }


def test_wrappers_record_nested_spans_and_restore_the_program():
    class Layer:
        def outer(self, x):
            return self.inner(x) + 1

        def inner(self, x):
            return x * 2

        @classmethod
        def make(cls):
            return cls()

    tracer = tracing.Tracer()
    tracer.patch(Layer, "outer", "a:outer", episode_of=lambda args: "ep-1")
    tracer.patch(Layer, "inner", "b:inner", count_of=lambda args, result: result)
    tracer.patch(Layer, "make", "c:make")
    assert Layer.make().outer(3) == 7
    tracer.uninstall()
    assert "outer" in Layer.__dict__ and not hasattr(Layer.__dict__["outer"], tracing._ORIGINAL)
    assert isinstance(Layer.__dict__["make"], classmethod)
    rows = tracer.export()
    assert [(r["name"], r["parent"], r["episode"], r["n"]) for r in rows] == [
        ("c:make", None, None, 1),
        ("a:outer", None, "ep-1", 1),
        ("b:inner", 1, "ep-1", 6),
    ]


def test_tail_percentile_leaves_ten_samples_beyond():
    values = [float(v) for v in range(1, 41)]
    pct, value = run.tail_percentile(values)
    assert pct == 75.0 and value == 30.0
    assert sum(v > value for v in values) == 10
    assert run.tail_percentile([1.0, 3.0, 2.0]) == (100.0, 3.0)
    assert run.tail_percentile([float(v) for v in range(19)]) == (100.0, 18.0)


def test_idle_time_runs_from_first_miss_to_next_hit():
    claims = [
        _span("broker:TcpBroker.claim", 0.0, 0.1, n=1),
        _span("broker:TcpBroker.claim", 1.0, 1.1, n=0),
        _span("broker:TcpBroker.claim", 1.6, 1.7, n=0),
        _span("broker:TcpBroker.claim", 2.1, 2.2, n=1),
    ]
    assert layers._idle_s(claims, 0.0, 10.0) == pytest.approx(1.2)


def test_correctness_check_rejects_an_altered_record(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    bench = run.InProcess("dense-mux", 5, tmp_path, tmp_path)
    bench.setup()
    phase = bench.timed(0.0)
    assert phase["ok"] == phase["attempted"] > 0
    ok, _ = bench.check(phase)
    assert ok
    # Alter every record, so whichever episode the seed samples differs.
    for campaign in phase["runs"]:
        altered = [json.loads(line) for line in campaign["lines"]]
        for row in altered:
            row["frames"] += 1
        campaign["lines"] = [json.dumps(row) for row in altered]
    ok, _ = bench.check(phase)
    assert not ok
    metrics, _ = run.end_to_end(phase, [{"setup_s": 1.0}], 1.0, check_ok=False)
    assert metrics["ok_share"][0] == 0.0


def test_correctness_check_catches_a_leaked_model_fault(monkeypatch):
    from repro.core.faults.base import FAULT_REGISTRY

    monkeypatch.chdir(ROOT)
    out_dir = ROOT / ".perfbench" / "test" / "leak"  # the emitted specs name the model relative to ROOT
    out_dir.mkdir(parents=True, exist_ok=True)

    def check_one_campaign():
        bench = run.InProcess("nn-serial", 5, out_dir, out_dir)
        bench.setup()
        ok, what = bench.check(bench.timed(0.0))
        return ok, what

    ok, what = check_one_campaign()
    assert ok, what

    def leak(self, model):  # a restore that leaves the shared model altered
        for param in model.named_parameters().values():
            param.data *= 1.5
        self._backup = None

    monkeypatch.setattr(FAULT_REGISTRY["weight-bitflip"], "remove", leak)
    ok, what = check_one_campaign()
    assert not ok, what


def test_seeds_change_the_specs():
    assert workloads.dense_mux_spec(1) != workloads.dense_mux_spec(2)
    assert workloads.dense_mux_spec(1) == workloads.dense_mux_spec(1)
    assert workloads.nn_serial_spec(1, 0, "m.npz") != workloads.nn_serial_spec(2, 0, "m.npz")
    assert workloads.short_service_spec(1, 0) != workloads.short_service_spec(2, 0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_service_submissions_never_share_a_scenario_seed(seed):
    specs = [workloads.short_service_spec(seed, index) for index in range(500)]
    suite_seeds = [spec["scenarios"]["grammar"]["seed"] for spec in specs]
    assert len(set(suite_seeds)) == len(suite_seeds)


def test_campaigns_of_a_run_are_distinct():
    for make in (workloads.dense_mux_spec, lambda s, i: workloads.nn_serial_spec(s, i, "m.npz")):
        suites = [json.dumps(make(7, index)["scenarios"]) for index in range(50)]
        assert len(set(suites)) == len(suites)
