"""Tests for checkpointed resume of interrupted (parallel) campaigns."""

import json

import pytest

from repro.agent import autopilot_agent_factory
from repro.core import Campaign, standard_scenarios
from repro.core.faults import OutputDelay
from repro.sim.builders import SimulationBuilder
from repro.sim.render import CameraModel
from repro.sim.town import GridTownConfig

TOWN = GridTownConfig(rows=2, cols=3)
INJECTORS = {"none": [], "delay": [OutputDelay(8)]}


@pytest.fixture(scope="module")
def builder():
    return SimulationBuilder(camera=CameraModel(width=24, height=16), with_lidar=False)


@pytest.fixture(scope="module")
def scenarios():
    return standard_scenarios(2, seed=9, town_config=TOWN, min_distance=60, max_distance=160)


class _Killed(RuntimeError):
    """Simulated hard stop (the overnight machine died)."""


class _ExplodingFactory:
    """Picklable agent factory that fails on one scenario's mission.

    Delegates ``config_signature`` to the wrapped autopilot factory: the
    failure models a *transient* bug around the same agent, so records
    it completed must still satisfy a later plain-autopilot grid (a
    genuinely different agent would — correctly — invalidate them; see
    test_spec.py's agent-change invalidation tests).
    """

    def __init__(self, bad_scenario):
        self.bad_goal = (bad_scenario.mission.goal.x, bad_scenario.mission.goal.y)
        self.inner = autopilot_agent_factory()

    def __call__(self, handles, mission):
        if (mission.goal.x, mission.goal.y) == self.bad_goal:
            raise RuntimeError("boom")
        return self.inner(handles, mission)

    def config_signature(self):
        return self.inner.config_signature()


def _kill_after(n):
    state = {"done": 0}

    def on_record(task, record):
        state["done"] += 1
        if state["done"] >= n:
            raise _Killed(f"killed after {n} episodes")

    return on_record


def _identities(path):
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    return [(r["injector"], r["scenario"], r["seed"]) for r in rows]


class TestStudyResume:
    def test_killed_parallel_study_resumes_exactly_once(self, builder, scenarios, tmp_path):
        """Kill a checkpointed parallel study mid-run; resume finishes the
        remaining episodes exactly once with no duplicate records."""
        checkpoint = tmp_path / "study.jsonl"

        # Ground truth: an uninterrupted serial study of the same grid.
        reference = Campaign(
            scenarios, autopilot_agent_factory(), INJECTORS,
            checkpoint_path=tmp_path / "reference.jsonl", builder=builder,
        ).run().records

        # First attempt dies after 2 of 4 episodes (checkpoint written
        # before the kill lands, as a real mid-run SIGKILL would leave it).
        interrupted = Campaign(
            scenarios, autopilot_agent_factory(), INJECTORS, builder=builder,
            workers=2, executor="process", checkpoint_path=checkpoint,
            on_record=_kill_after(2),
        )
        with pytest.raises(_Killed):
            interrupted.run()
        survived = _identities(checkpoint)
        assert len(survived) == 2

        # Resume with a fresh campaign over a parallel pool.
        study = Campaign(
            scenarios, autopilot_agent_factory(), INJECTORS,
            checkpoint_path=checkpoint, builder=builder, workers=2,
        )
        assert len(study.grid_records()) == 2
        assert len(study.pending()) == 2
        records = study.run().records

        identities = _identities(checkpoint)
        assert len(identities) == 4
        assert len(set(identities)) == 4, "no episode may run twice"
        assert set(identities[:2]) == set(survived), "resume must keep prior rows"
        assert study.pending() == []

        # Same outcomes as the uninterrupted study, row for row.
        key = lambda r: (r.injector, r.scenario, r.seed)
        assert {key(r): r.to_dict() for r in records} == {
            key(r): r.to_dict() for r in reference
        }

    def test_study_parallel_matches_serial(self, builder, scenarios, tmp_path):
        serial = Campaign(
            scenarios, autopilot_agent_factory(), INJECTORS,
            checkpoint_path=tmp_path / "serial.jsonl", builder=builder,
        ).run().records
        parallel = Campaign(
            scenarios, autopilot_agent_factory(), INJECTORS,
            checkpoint_path=tmp_path / "parallel.jsonl", builder=builder, workers=2,
        ).run().records
        key = lambda r: (r.injector, r.scenario, r.seed)
        assert {key(r): r.to_dict() for r in serial} == {
            key(r): r.to_dict() for r in parallel
        }

    def test_unfingerprinted_checkpoint_rows_rerun_without_double_count(
        self, builder, scenarios, tmp_path
    ):
        """Rows written before fingerprinting (or by another suite) must
        re-run AND stay out of the study's records/metrics — not both
        count and re-execute."""
        checkpoint = tmp_path / "prefp.jsonl"
        done = Campaign(
            scenarios[:1], autopilot_agent_factory(), {"none": []},
            checkpoint_path=checkpoint, builder=builder,
        ).run().records
        # Strip the fingerprint, simulating a pre-fingerprint checkpoint.
        row = json.loads(checkpoint.read_text())
        del row["config_fingerprint"]
        checkpoint.write_text(json.dumps(row) + "\n")

        study = Campaign(
            scenarios[:1], autopilot_agent_factory(), {"none": []},
            checkpoint_path=checkpoint, builder=builder, workers=2,
        )
        assert study.grid_records() == []  # stale row is journal, not results
        assert len(study.pending()) == 1
        result = study.run()
        records = result.records
        assert len(records) == 1
        assert result.metrics()["none"].n_runs == 1
        assert records[0].to_dict() == done[0].to_dict()

    def test_rerun_without_checkpoint_does_not_reexecute(self, builder, scenarios):
        executed = []
        study = Campaign(
            scenarios[:1], autopilot_agent_factory(), {"none": []}, builder=builder,
            on_record=lambda task, record: executed.append(task.index),
        )
        first = study.run().records
        assert study.pending() == []
        again = study.run().records
        assert [r.to_dict() for r in again] == [r.to_dict() for r in first]
        assert len(again) == 1
        assert executed == [0], "the second run must execute nothing"

    def test_checkpoint_from_different_suite_never_matches(self, builder, scenarios, tmp_path):
        """Scenario names/seeds repeat across suites (scn-0…); the suite
        fingerprint must keep a stale checkpoint from masquerading as
        results for a different suite."""
        checkpoint = tmp_path / "stale.jsonl"
        Campaign(
            scenarios, autopilot_agent_factory(), {"none": []}, builder=builder,
            executor="serial", checkpoint_path=checkpoint,
        ).run()

        other_suite = standard_scenarios(
            2, seed=10, town_config=TOWN, min_distance=60, max_distance=160
        )
        resumed = Campaign(
            other_suite, autopilot_agent_factory(), {"none": []}, builder=builder,
            executor="serial", checkpoint_path=checkpoint,
        )
        assert [s.name for s in other_suite] == [s.name for s in scenarios]
        assert len(resumed.pending()) == 2, "stale suite rows must not satisfy the grid"

    def test_ml_fault_checkpoint_resume_stable(self, builder, scenarios, tmp_path):
        """Stateful faults (WeightBitFlip draws per-episode sites) must
        fingerprint identically before, during and after a run — else
        resume re-executes ML-fault studies forever."""
        from repro.agent import nn_agent_factory
        from repro.agent.ilcnn import ILCNN, ILCNNConfig
        from repro.core.faults import WeightBitFlip

        tiny = ILCNNConfig(input_hw=(16, 24), conv_channels=(4, 6, 6), trunk_dim=16,
                           speed_dim=4, branch_hidden=8, dropout=0.0)
        model = ILCNN(tiny)
        model.set_training(False)
        checkpoint = tmp_path / "ml.jsonl"

        study = Campaign(
            scenarios[:1], nn_agent_factory(model), {"bitflip": [WeightBitFlip()]},
            checkpoint_path=checkpoint, builder=builder,
        )
        study.run()
        assert study.pending() == [], "mutated fault must still match its record"

        fresh = Campaign(
            scenarios[:1], nn_agent_factory(model), {"bitflip": [WeightBitFlip()]},
            checkpoint_path=checkpoint, builder=builder,
        )
        assert len(fresh.grid_records()) == 1
        assert fresh.pending() == [], "pristine fault must match the checkpoint"

    def test_retuned_fault_params_invalidate_checkpoint(self, builder, scenarios, tmp_path):
        """Same injector name, different fault parameters: the config
        fingerprint must force a re-run instead of serving stale records."""
        checkpoint = tmp_path / "retuned.jsonl"
        Campaign(
            scenarios[:1], autopilot_agent_factory(), {"delay": [OutputDelay(8)]},
            builder=builder, executor="serial", checkpoint_path=checkpoint,
        ).run()

        retuned = Campaign(
            scenarios[:1], autopilot_agent_factory(), {"delay": [OutputDelay(30)]},
            builder=builder, executor="serial", checkpoint_path=checkpoint,
        )
        assert len(retuned.pending()) == 1, "retuned fault must not match old rows"
        unchanged = Campaign(
            scenarios[:1], autopilot_agent_factory(), {"delay": [OutputDelay(8)]},
            builder=builder, executor="serial", checkpoint_path=checkpoint,
        )
        assert unchanged.pending() == []

    def test_truncated_final_checkpoint_line_is_dropped(self, builder, scenarios, tmp_path):
        """A hard kill can cut the last JSONL append mid-line; resume must
        drop the fragment and re-run just that episode."""
        checkpoint = tmp_path / "truncated.jsonl"
        full = Campaign(
            scenarios, autopilot_agent_factory(), INJECTORS, builder=builder,
            executor="serial", checkpoint_path=checkpoint,
        ).run()
        lines = checkpoint.read_text().splitlines()
        checkpoint.write_text("\n".join(lines[:3]) + "\n" + lines[3][: len(lines[3]) // 2])

        resumed = Campaign(
            scenarios, autopilot_agent_factory(), INJECTORS, builder=builder,
            executor="serial", checkpoint_path=checkpoint,
        )
        assert len(resumed.pending()) == 1
        result = resumed.run()
        assert [r.to_dict() for r in result.records] == [r.to_dict() for r in full.records]

    def test_corrupt_interior_checkpoint_line_raises(self, builder, scenarios, tmp_path):
        checkpoint = tmp_path / "corrupt.jsonl"
        checkpoint.write_text('{"not json\n{"also": "not a record"}\n')
        with pytest.raises(ValueError, match="corrupt checkpoint"):
            Campaign(
                scenarios, autopilot_agent_factory(), INJECTORS, builder=builder,
                checkpoint_path=checkpoint,
            )

    def test_worker_error_keeps_completed_records(self, builder, scenarios, tmp_path):
        """One failing episode must not discard finished work: completed
        episodes are checkpointed, the error propagates, and a resume with
        the fault fixed only runs what's missing."""
        checkpoint = tmp_path / "explode.jsonl"
        broken = Campaign(
            scenarios, _ExplodingFactory(scenarios[1]), INJECTORS, builder=builder,
            workers=2, executor="process", checkpoint_path=checkpoint,
        )
        with pytest.raises(RuntimeError, match="boom"):
            broken.run()
        survivors = _identities(checkpoint)
        assert survivors, "completed episodes must reach the checkpoint"
        assert all(scn != scenarios[1].name for _, scn, _ in survivors)
        # ...and stay in the campaign that raised, so a retry on the same
        # object only executes the remainder.
        kept = [(r.injector, r.scenario, r.seed) for r in broken.grid_records()]
        assert sorted(kept) == sorted(survivors)

        reference = Campaign(
            scenarios, autopilot_agent_factory(), INJECTORS, builder=builder,
            executor="serial",
        ).run()
        resumed = Campaign(
            scenarios, autopilot_agent_factory(), INJECTORS, builder=builder,
            workers=2, executor="process", checkpoint_path=checkpoint,
        )
        assert len(resumed.pending()) == 4 - len(survivors)
        result = resumed.run()
        assert [r.to_dict() for r in result.records] == [
            r.to_dict() for r in reference.records
        ]
        assert len(set(_identities(checkpoint))) == 4

    def test_runner_resume_returns_full_grid_in_order(self, builder, scenarios, tmp_path):
        """A resumed campaign's result is grid-ordered regardless of which
        rows came from the checkpoint and which ran fresh."""
        checkpoint = tmp_path / "grid.jsonl"
        full = Campaign(
            scenarios, autopilot_agent_factory(), INJECTORS, builder=builder,
            executor="serial", checkpoint_path=checkpoint,
        ).run()

        # Drop half the checkpoint (keep rows 1 and 2, lose 0 and 3).
        lines = checkpoint.read_text().splitlines()
        checkpoint.write_text("\n".join(lines[1:3]) + "\n")

        resumed = Campaign(
            scenarios, autopilot_agent_factory(), INJECTORS, builder=builder,
            workers=2, executor="process", checkpoint_path=checkpoint,
        )
        assert len(resumed.pending()) == 2
        result = resumed.run()
        assert [r.to_dict() for r in result.records] == [r.to_dict() for r in full.records]
