"""The result log (:mod:`repro.core.resultlog`): one parse rule for every
reader of the JSONL checkpoint.

The fixture files are the broker conformance suite's
(:func:`broker_conformance.parse_rule_files`), so the resume load, the
streaming report, ``avfi report``, ``avfi queue-status``, the
submit-side parse and both brokers' ``read_results``/``status()`` give
one verdict per file.
"""

import json

import pytest

from repro.agent import autopilot_agent_factory
from repro.cli import main
from repro.core import Campaign, standard_scenarios
from repro.core.campaign import RunRecord
from repro.core.faults import OutputDelay
from repro.core.outcomes import EpisodeFailure
from repro.core.resultlog import (
    ResultLog,
    append_jsonl_line,
    build_row,
    parse_lines,
    render_line,
)
from repro.core.runner import record_identity
from repro.sim.builders import SimulationBuilder
from repro.sim.render import CameraModel
from repro.sim.town import GridTownConfig

from broker_conformance import PARSE_RULE_CASES, parse_rule_files, record_for

INJECTORS = {"none": [], "delay": [OutputDelay(8)]}


def _campaign(checkpoint_path=None):
    """The conformance suite's grid (2 scenarios x 2 injectors)."""
    scenarios = standard_scenarios(
        2, seed=9, town_config=GridTownConfig(rows=2, cols=3),
        min_distance=60, max_distance=160,
    )
    return Campaign(
        scenarios,
        autopilot_agent_factory(),
        INJECTORS,
        builder=SimulationBuilder(camera=CameraModel(width=24, height=16), with_lidar=False),
        checkpoint_path=checkpoint_path,
    )


def _split(rows):
    rows = list(rows)
    return (
        [record_identity(r) for r in rows if isinstance(r, RunRecord)],
        [record_identity(r) for r in rows if isinstance(r, EpisodeFailure)],
    )


def _resume(path):
    campaign = _campaign(path)
    return _split(campaign.grid_records() + campaign.grid_failures())


READERS = {
    "resume": _resume,
    "stream": lambda path: _split(ResultLog(path)),
    "load": lambda path: _split(sum(ResultLog(path).load(), [])),
    "submit parse": lambda path: _split(parse_lines(path.read_bytes(), path)),
}


@pytest.fixture(scope="module")
def tasks():
    return _campaign().tasks()


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("case", PARSE_RULE_CASES)
def test_every_reader_gives_the_files_verdict(tasks, tmp_path, case, reader):
    data, verdict = parse_rule_files(tasks)[case]
    path = tmp_path / "results.jsonl"
    path.write_bytes(data)
    if isinstance(verdict, int):
        with pytest.raises(ValueError, match=f"unparseable JSON on line {verdict}$"):
            READERS[reader](path)
        return
    records, failures = verdict
    assert READERS[reader](path) == (
        [tasks[i].identity() for i in records],
        [tasks[i].identity() for i in failures],
    )


@pytest.mark.parametrize("case", PARSE_RULE_CASES)
def test_avfi_report_gives_the_files_verdict(tasks, tmp_path, capsys, case):
    data, verdict = parse_rule_files(tasks)[case]
    path = tmp_path / "results.jsonl"
    path.write_bytes(data)
    if isinstance(verdict, int):
        with pytest.raises(SystemExit, match=f"unparseable JSON on line {verdict}$"):
            main(["report", str(path)])
        return
    main(["report", str(path)])
    records, failures = verdict
    assert capsys.readouterr().out.startswith(
        f"{len(records)} record(s), {len(failures)} failure(s)"
    )


@pytest.mark.parametrize("case", PARSE_RULE_CASES)
def test_avfi_queue_status_gives_the_files_verdict(tasks, tmp_path, capsys, case):
    data, verdict = parse_rule_files(tasks)[case]
    (tmp_path / "results.jsonl").write_bytes(data)
    if isinstance(verdict, int):
        with pytest.raises(SystemExit, match=f"unparseable JSON on line {verdict}$"):
            main(["queue-status", str(tmp_path)])
        return
    main(["queue-status", str(tmp_path)])
    records, failures = verdict
    assert f"     results: {len(records) + len(failures)}\n" in capsys.readouterr().out


class TestResultLog:
    def test_append_writes_the_rendered_line(self, tmp_path):
        row = {"k": 1, "nested": [1.5, None, "x"]}
        path = tmp_path / "log.jsonl"
        ResultLog(path).append(row)
        append_jsonl_line(path, row)
        assert path.read_bytes() == render_line(row) * 2
        assert render_line(row) == (json.dumps(row) + "\n").encode()

    def test_offset_reads_leave_the_unterminated_tail_unread(self, tasks, tmp_path):
        first, second = (render_line(record_for(t).to_dict()) for t in tasks[:2])
        path = tmp_path / "log.jsonl"
        log = ResultLog(path)
        assert log.read(0) == (0, [], [])  # no file yet
        path.write_bytes(first + second[:-1])
        offset, records, failures = log.read(0)
        assert (offset, records, failures) == (len(first), [json.loads(first)], [])
        assert log.read(offset) == (offset, [], [])
        with open(path, "ab") as fh:
            fh.write(b"\n")
        assert log.read(offset) == (len(first + second), [json.loads(second)], [])

    def test_repair_truncates_the_tail_a_full_read_ignores(self, tasks, tmp_path):
        whole = render_line(record_for(tasks[0]).to_dict())
        path = tmp_path / "log.jsonl"
        path.write_bytes(whole + whole[:-1])
        log = ResultLog(path)
        assert len(log.load()[0]) == 1
        assert log.repair() == len(whole) - 1
        assert path.read_bytes() == whole

    @pytest.mark.parametrize(
        "row",
        [[1, 2], "text", None, 7, {"event": "heartbeat"}, {"outcome": "ok"},
         {"outcome": "failed", "scenario": "s"}],
    )
    def test_rows_that_build_neither_kind_are_foreign(self, row):
        assert build_row(row) is None
