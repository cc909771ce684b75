"""Durability tests for the JSONL checkpoint append path.

The checkpoint is a multi-writer, crash-prone artifact once the queue
backend shards a campaign across machines: several workers append to one
file, and any of them can be SIGKILLed at any instruction.  These tests
pin the two guarantees :func:`repro.core.resultlog.append_jsonl_line`
provides — concurrent appends never interleave partial lines, and a hard
kill never leaves a torn record that blocks resume.
"""

import json
import multiprocessing
import os
import signal
import time

from repro.agent import autopilot_agent_factory
from repro.core import Campaign, standard_scenarios
from repro.core.faults import OutputDelay
from repro.core.resultlog import ResultLog, append_jsonl_line, repair_jsonl_tail
from repro.sim.builders import SimulationBuilder
from repro.sim.render import CameraModel
from repro.sim.town import GridTownConfig

TOWN = GridTownConfig(rows=2, cols=3)
INJECTORS = {"none": [], "delay": [OutputDelay(8)]}


def _tiny_builder():
    return SimulationBuilder(camera=CameraModel(width=24, height=16), with_lidar=False)


def _scenarios():
    return standard_scenarios(2, seed=9, town_config=TOWN, min_distance=60, max_distance=160)


def _append_many(path, writer, count):
    # Payload long enough that a stdio-buffered writer would regularly
    # split it across flushes; one append_jsonl_line call per row.
    for i in range(count):
        append_jsonl_line(path, {"writer": writer, "row": i, "pad": "x" * 300})


def _run_checkpointed_campaign(checkpoint):
    runner = Campaign(
        _scenarios(), autopilot_agent_factory(), INJECTORS,
        builder=_tiny_builder(), executor="serial", checkpoint_path=checkpoint,
    )
    runner.run()


class TestAtomicAppend:
    def test_single_complete_line_per_append(self, tmp_path):
        path = tmp_path / "a.jsonl"
        append_jsonl_line(path, {"k": 1})
        append_jsonl_line(path, {"k": 2})
        text = path.read_text()
        assert text.endswith("\n")
        assert [json.loads(line)["k"] for line in text.splitlines()] == [1, 2]

    def test_concurrent_appenders_never_interleave(self, tmp_path):
        """Two processes hammering one checkpoint: every line must be a
        complete record from exactly one writer — the failure mode of the
        old buffered ``fh.write`` was permanent interleaved corruption."""
        path = tmp_path / "shared.jsonl"
        count = 150
        procs = [
            multiprocessing.Process(target=_append_many, args=(path, w, count))
            for w in ("a", "b")
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 2 * count
        rows = [json.loads(line) for line in lines]  # raises on any torn line
        by_writer = {"a": set(), "b": set()}
        for row in rows:
            by_writer[row["writer"]].add(row["row"])
        assert by_writer == {"a": set(range(count)), "b": set(range(count))}


class TestForeignSchemaRows:
    def test_loader_skips_rows_that_are_not_records(self, tmp_path):
        """A valid-JSON row with the wrong keys (written by another repro
        version into a shared queue checkpoint) is journal noise: skipped
        by the loader, same as the queue-side reader — not a crash at
        coordinator init."""
        from repro.core.campaign import RunRecord

        path = tmp_path / "mixed.jsonl"
        good = RunRecord(
            scenario="s", injector="none", seed=0, success=True, frames=10,
            duration_s=1.0, distance_km=0.5, time_limit_s=60.0,
        )
        append_jsonl_line(path, good.to_dict())
        append_jsonl_line(path, {"schema_version": 2, "episode": "future-format"})
        append_jsonl_line(path, good.to_dict() | {"seed": 1})

        loaded, _ = ResultLog(path).load()
        assert [(r.scenario, r.seed) for r in loaded] == [("s", 0), ("s", 1)]


class TestTornTailRepair:
    def test_append_after_torn_tail_does_not_glue(self, tmp_path):
        """The latent bug: a torn final line merely *ignored* at load
        time gets glued to the next append, turning one recoverable tear
        into a permanently corrupt interior line.  Repair makes the drop
        physical before appends resume."""
        path = tmp_path / "torn.jsonl"
        append_jsonl_line(path, {"k": 1})
        append_jsonl_line(path, {"k": 2})
        whole = path.read_text()
        torn = whole[:-4]  # cut into the final record, keep line 1 whole
        assert "\n" in torn
        path.write_text(torn)

        dropped = repair_jsonl_tail(path)
        assert dropped == len(torn) - torn.rfind("\n") - 1 > 0
        append_jsonl_line(path, {"k": 3})
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["k"] for row in rows] == [1, 3]

    def test_repair_noops_on_clean_missing_and_empty_files(self, tmp_path):
        path = tmp_path / "clean.jsonl"
        assert repair_jsonl_tail(path) == 0  # missing
        path.write_text("")
        assert repair_jsonl_tail(path) == 0  # empty
        append_jsonl_line(path, {"k": 1})
        assert repair_jsonl_tail(path) == 0  # ends with newline
        assert json.loads(path.read_text()) == {"k": 1}

    def test_fragment_only_file_truncates_to_empty(self, tmp_path):
        path = tmp_path / "frag.jsonl"
        path.write_text('{"half')
        assert repair_jsonl_tail(path) == 6
        assert path.read_bytes() == b""

    def test_runner_resume_after_tear_leaves_parseable_checkpoint(self, tmp_path):
        """End-to-end regression: tear the checkpoint, resume (which
        appends the re-run episode), then resume AGAIN — the second
        resume used to die with 'corrupt checkpoint' on the glued line."""
        checkpoint = tmp_path / "campaign.jsonl"
        full = Campaign(
            _scenarios(), autopilot_agent_factory(), INJECTORS,
            builder=_tiny_builder(), executor="serial", checkpoint_path=checkpoint,
        ).run()
        lines = checkpoint.read_text().splitlines()
        checkpoint.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:25])

        resumed = Campaign(
            _scenarios(), autopilot_agent_factory(), INJECTORS,
            builder=_tiny_builder(), executor="serial", checkpoint_path=checkpoint,
        )
        assert len(resumed.pending()) == 1
        resumed.run()

        again = Campaign(  # would raise before the fix
            _scenarios(), autopilot_agent_factory(), INJECTORS,
            builder=_tiny_builder(), executor="serial", checkpoint_path=checkpoint,
        )
        assert again.pending() == []
        assert [r.to_dict() for r in again.run().records] == [
            r.to_dict() for r in full.records
        ]


class TestKillMidWrite:
    def test_sigkilled_campaign_leaves_resumable_checkpoint(self, tmp_path):
        """Kill a checkpointing campaign process with SIGKILL as soon as
        it starts appending; every surviving line must parse and a resume
        must complete the grid identically to an uninterrupted run."""
        reference = Campaign(
            _scenarios(), autopilot_agent_factory(), INJECTORS,
            builder=_tiny_builder(), executor="serial",
        ).run()

        checkpoint = tmp_path / "killed.jsonl"
        victim = multiprocessing.Process(
            target=_run_checkpointed_campaign, args=(checkpoint,), daemon=True
        )
        victim.start()
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if checkpoint.exists() and checkpoint.stat().st_size > 0:
                break
            if not victim.is_alive():
                break
            time.sleep(0.001)
        if victim.is_alive():
            os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=30)

        # Durability: whatever survived the kill is whole lines only.
        survivors, _ = ResultLog(checkpoint).load()  # raises on interior tears
        for line in checkpoint.read_text().splitlines():
            json.loads(line)
        assert len(survivors) >= 1, "fsync'd record must survive the kill"

        resumed = Campaign(
            _scenarios(), autopilot_agent_factory(), INJECTORS,
            builder=_tiny_builder(), executor="serial", checkpoint_path=checkpoint,
        )
        assert len(resumed.pending()) == len(reference.records) - len(survivors)
        result = resumed.run()
        assert [r.to_dict() for r in result.records] == [
            r.to_dict() for r in reference.records
        ]
        identities = [
            (r.injector, r.scenario, r.seed)
            for r in ResultLog(checkpoint).load()[0]
        ]
        assert len(set(identities)) == len(identities), "no episode may run twice"
