"""Columnar result sinks and streaming record iteration.

The JSONL checkpoint is the campaign's *durability* layer — atomic
appends, torn-tail repair, multi-writer safe — but analytics over 10^6+
episodes wants a *columnar* layout: scanning one metric across a million
rows should not mean parsing a million JSON objects.  This module adds
that second layer without touching durability:

* :class:`ParquetSink` — a streaming parquet writer fed one
  :class:`~repro.core.campaign.RunRecord` at a time (row-group batches,
  bounded memory), written *beside* the JSONL checkpoint by the
  :class:`~repro.core.runner.Campaign`;
* :func:`iter_jsonl_records` / :func:`iter_parquet_records` /
  :func:`iter_records` — streaming record iterators over either format,
  yielding one record at a time so aggregation
  (:class:`~repro.core.metrics.MetricsAccumulator`) never materialises
  the record set.

``pyarrow`` is an **optional** dependency (the ``parquet`` extra).  When
it is absent every parquet entry point fails with a readable
:class:`ParquetUnavailable` message, and callers that can degrade (the
campaign's ``parquet_path``) fall back to JSONL-only with a warning —
campaigns never die over a missing analytics dependency.

Nested payloads (violation events, fault descriptions) are stored as
JSON-encoded string columns: the hot analytical columns (injector,
success, distance, counts) stay native and scannable, while the
long-tail detail round-trips exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

from .campaign import RunRecord
from .outcomes import EpisodeFailure, EpisodeOutcome

__all__ = [
    "HAVE_PYARROW",
    "ParquetUnavailable",
    "ParquetSink",
    "record_to_row",
    "row_to_record",
    "iter_jsonl_records",
    "iter_parquet_records",
    "iter_records",
    "write_parquet",
]

try:  # pyarrow is optional (the `parquet` extra)
    import pyarrow as _pa
    import pyarrow.parquet as _pq

    HAVE_PYARROW = True
except ImportError:  # pragma: no cover - exercised where pyarrow is absent
    _pa = None
    _pq = None
    HAVE_PYARROW = False


class ParquetUnavailable(RuntimeError):
    """A parquet entry point was used without pyarrow installed."""

    def __init__(self, what: str):
        super().__init__(
            f"{what} needs pyarrow, which is not installed; "
            f"install the optional extra (pip install pyarrow) or use the "
            f"JSONL checkpoint directly"
        )


#: Column order of the parquet schema; scalars first (the scannable
#: analytical columns), JSON-encoded nested payloads last.
_SCALAR_FIELDS = (
    "scenario",
    "injector",
    "seed",
    "success",
    "frames",
    "duration_s",
    "distance_km",
    "time_limit_s",
    "agent_frames_missed",
    "config_fingerprint",
)
_JSON_FIELDS = ("violations", "injection_frames", "faults")
#: Failure-only columns (null on every normal-record row).  ``outcome``
#: is the discriminator: ``"ok"`` for records, a failure outcome
#: otherwise — mirroring the JSONL convention where only failure rows
#: carry an ``outcome`` key at all.
_FAILURE_FIELDS = (
    "outcome",
    "error_type",
    "error",
    "traceback_digest",
    "attempts",
    "wall_time_s",
)


def _schema():
    return _pa.schema(
        [
            ("scenario", _pa.string()),
            ("injector", _pa.string()),
            ("seed", _pa.int64()),
            ("success", _pa.bool_()),
            ("frames", _pa.int64()),
            ("duration_s", _pa.float64()),
            ("distance_km", _pa.float64()),
            ("time_limit_s", _pa.float64()),
            ("agent_frames_missed", _pa.int64()),
            ("config_fingerprint", _pa.string()),
            ("violations", _pa.string()),
            ("injection_frames", _pa.string()),
            ("faults", _pa.string()),
            ("outcome", _pa.string()),
            ("error_type", _pa.string()),
            ("error", _pa.string()),
            ("traceback_digest", _pa.string()),
            ("attempts", _pa.int64()),
            ("wall_time_s", _pa.float64()),
        ]
    )


def record_to_row(record: RunRecord | EpisodeFailure) -> dict:
    """Flatten one record *or failure* to a parquet row.

    Records get nested payloads JSON-encoded, ``outcome="ok"`` and null
    failure columns; failures get their identity + failure columns and
    null everything record-specific.
    """
    if isinstance(record, EpisodeFailure):
        row = dict.fromkeys(_SCALAR_FIELDS + _JSON_FIELDS + _FAILURE_FIELDS)
        row.update(record.to_dict())
        return row
    row = record.to_dict()
    for field in _JSON_FIELDS:
        row[field] = json.dumps(row[field])
    for field in _FAILURE_FIELDS:
        row[field] = None
    row["outcome"] = EpisodeOutcome.OK
    return row


def row_to_record(row: dict) -> RunRecord | EpisodeFailure:
    """Rebuild a :class:`RunRecord` or
    :class:`~repro.core.outcomes.EpisodeFailure` from a parquet row —
    the exact inverse of :func:`record_to_row` (dataclass equality
    holds).  Rows from pre-outcome files (no ``outcome`` column) are
    plain records."""
    outcome = row.get("outcome")
    if outcome is not None and outcome != EpisodeOutcome.OK:
        return EpisodeFailure.from_dict({k: v for k, v in row.items() if v is not None})
    data = {k: v for k, v in row.items() if k not in _FAILURE_FIELDS}
    for field in _JSON_FIELDS:
        data[field] = json.loads(data[field])
    return RunRecord(**data)


class ParquetSink:
    """Streaming parquet writer for campaign records.

    Records buffer into row groups of ``batch_size`` and flush as arrow
    record batches, so memory stays bounded however long the campaign
    runs.  The file is valid only after :meth:`close` (parquet footers
    are written last) — this sink is the *analytics* artifact; the JSONL
    checkpoint remains the durability layer, and a crash mid-campaign
    costs only the parquet copy, which the next run rewrites from the
    checkpoint.

    Usable as a context manager; :meth:`close` is idempotent.
    """

    def __init__(self, path: str | Path, batch_size: int = 1024):
        if not HAVE_PYARROW:
            raise ParquetUnavailable("ParquetSink")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.path = Path(path)
        self.batch_size = batch_size
        self.rows_written = 0
        self._buffer: list[dict] = []
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._writer = _pq.ParquetWriter(str(self.path), _schema())

    def append(self, record: RunRecord | EpisodeFailure) -> None:
        """Buffer one record or failure; flushes when the batch fills."""
        self._buffer.append(record_to_row(record))
        if len(self._buffer) >= self.batch_size:
            self.flush()

    def extend(self, records: Iterable[RunRecord | EpisodeFailure]) -> None:
        """Append many records (still batch-buffered, never all at once)."""
        for record in records:
            self.append(record)

    def flush(self) -> None:
        """Write the buffered rows as one row group."""
        if not self._buffer or self._writer is None:
            return
        columns = {
            name: [row[name] for row in self._buffer]
            for name in _SCALAR_FIELDS + _JSON_FIELDS + _FAILURE_FIELDS
        }
        self._writer.write_table(_pa.table(columns, schema=_schema()))
        self.rows_written += len(self._buffer)
        self._buffer.clear()

    def close(self) -> None:
        """Flush the tail batch and finalise the parquet footer."""
        if self._writer is None:
            return
        self.flush()
        self._writer.close()
        self._writer = None

    def __enter__(self) -> "ParquetSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_parquet(
    path: str | Path, records: Iterable[RunRecord], batch_size: int = 1024
) -> int:
    """Stream ``records`` into a parquet file; returns the row count."""
    with ParquetSink(path, batch_size=batch_size) as sink:
        sink.extend(records)
        sink.flush()
        return sink.rows_written


def iter_jsonl_records(path: str | Path) -> Iterator[RunRecord]:
    """Stream records out of a JSONL checkpoint, one line at a time.

    The streaming counterpart of
    :func:`~repro.core.runner.load_checkpoint_records`, with the same
    tolerance rules: a torn *final* line is dropped silently (hard-kill
    tail), a malformed interior line raises (real corruption), and a
    line that parses but is not a record schema is skipped (foreign rows
    in a shared queue checkpoint).  Failure rows (the ones carrying an
    ``outcome`` key) stream through as
    :class:`~repro.core.outcomes.EpisodeFailure` objects, so downstream
    accumulators can count them.  Never holds more than one line.
    """
    path = Path(path)
    if not path.exists():
        return
    pending: tuple[int, str] | None = None  # (lineno, line) lookahead
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if pending is not None:
                yield from _parse_jsonl_line(*pending, final=False)
            pending = (lineno, line)
    if pending is not None:
        yield from _parse_jsonl_line(*pending, final=True)


def _parse_jsonl_line(
    lineno: int, line: str, final: bool
) -> Iterator[RunRecord | EpisodeFailure]:
    try:
        data = json.loads(line)
    except json.JSONDecodeError:
        if final:
            return  # truncated final write; the episode re-runs on resume
        raise ValueError(
            f"corrupt checkpoint: unparseable JSON on line {lineno}"
        ) from None
    try:
        if isinstance(data, dict) and "outcome" in data:
            # Failure rows (and only failure rows) carry an outcome key.
            yield EpisodeFailure.from_dict(data)
        else:
            yield RunRecord(**data)
    except TypeError:
        return  # foreign schema: journal noise, never a grid match


def iter_parquet_records(
    path: str | Path, batch_size: int = 4096
) -> Iterator[RunRecord]:
    """Stream records out of a :class:`ParquetSink` file batch-wise.

    Reads one row-group-sized arrow batch at a time, so a
    million-episode file iterates in bounded memory.
    """
    if not HAVE_PYARROW:
        raise ParquetUnavailable("iter_parquet_records")
    with _pq.ParquetFile(str(path)) as pf:
        for batch in pf.iter_batches(batch_size=batch_size):
            for row in batch.to_pylist():
                yield row_to_record(row)


def iter_records(path: str | Path, fmt: str = "auto") -> Iterator[RunRecord]:
    """Stream records from a checkpoint of either format.

    ``fmt`` is ``"jsonl"``, ``"parquet"`` or ``"auto"`` (dispatch on the
    ``.parquet`` suffix).
    """
    path = Path(path)
    if fmt == "auto":
        fmt = "parquet" if path.suffix == ".parquet" else "jsonl"
    if fmt == "parquet":
        return iter_parquet_records(path)
    if fmt == "jsonl":
        return iter_jsonl_records(path)
    raise ValueError(f"unknown checkpoint format {fmt!r} (jsonl/parquet/auto)")
