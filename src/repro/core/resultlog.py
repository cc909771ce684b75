"""The result log: the JSONL checkpoint every campaign result lands in.

One file holds a campaign's completed work — one JSON row per line,
:class:`~repro.core.campaign.RunRecord` rows and
:class:`~repro.core.outcomes.EpisodeFailure` quarantine rows side by
side.  Resume, the queue broker, ``avfi queue-status``, ``avfi report``
and the service all read it, and this module is the only code that
renders or parses its lines, so they all read it the same way.

**The parse rule.**

* A line is complete only when it ends in ``\\n``.  An unterminated
  tail (an append in flight, or one a hard kill tore) is not a row yet:
  a full read ignores it, a read from an offset leaves it unread, and
  :meth:`ResultLog.repair` truncates it.
* A blank line is skipped.  A complete line that is not JSON is
  corruption: ``ValueError("corrupt checkpoint <path>: unparseable JSON
  on line N")``, N counted over the whole file.
* A row with an ``outcome`` key is an ``EpisodeFailure``; any other row
  is a ``RunRecord``.  A JSON row that builds neither (another repro
  version sharing a queue checkpoint) is a foreign row and is skipped:
  it could never match a grid identity anyway.

Appends (:func:`append_jsonl_line`) are single ``O_APPEND`` writes
under a shared ``flock`` with an ``fsync``, so concurrent writers on
one file never interleave partial lines and a finished episode survives
a power cut.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path
from typing import Iterable, Iterator

from .campaign import RunRecord
from .outcomes import EpisodeFailure

__all__ = [
    "ResultLog",
    "append_jsonl_line",
    "build_row",
    "build_rows",
    "parse_lines",
    "render_line",
    "repair_jsonl_tail",
]

#: What a result-log row builds into.
Row = RunRecord | EpisodeFailure


def render_line(row: dict) -> bytes:
    """One row as its checkpoint line, newline included."""
    return (json.dumps(row) + "\n").encode()


def _is_failure_row(row) -> bool:
    return isinstance(row, dict) and "outcome" in row


def build_row(row) -> Row | None:
    """The row's record or failure; ``None`` for a foreign row."""
    try:
        if _is_failure_row(row):
            return EpisodeFailure.from_dict(row)
        return RunRecord(**row)
    except (TypeError, KeyError, ValueError):
        return None


def build_rows(rows: Iterable, kind: type) -> list:
    """The rows that build into ``kind`` (``RunRecord`` or
    ``EpisodeFailure``), built, in order; foreign rows are dropped."""
    return [built for built in map(build_row, rows) if isinstance(built, kind)]


def _json_rows(lines: Iterable[bytes], source, first_lineno: int = 1) -> Iterator:
    """The JSON value of each non-blank line among complete ``lines``."""
    for lineno, line in enumerate(lines, first_lineno):
        if not line.strip():
            continue
        try:
            row = json.loads(line.decode())
        except ValueError:  # JSONDecodeError, or bytes that are not UTF-8
            raise ValueError(
                f"corrupt checkpoint {source}: unparseable JSON on line {lineno}"
            ) from None
        yield row


def _built(rows: Iterable) -> Iterator[Row]:
    for row in rows:
        built = build_row(row)
        if built is not None:
            yield built


def parse_lines(data: bytes, source) -> Iterator[Row]:
    """Each record and failure on a complete line of JSONL ``data``;
    ``source`` names it in a corruption error."""
    end = data.rfind(b"\n")
    return _built(_json_rows(data[:end].split(b"\n") if end >= 0 else (), source))


class ResultLog:
    """The JSONL checkpoint at ``path``: append, tail repair, full read
    and read from a byte offset, all under the module's parse rule.  A
    missing file reads as empty."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def append(self, row: dict) -> None:
        """Durably append one row (:func:`append_jsonl_line`)."""
        append_jsonl_line(self.path, row)

    def repair(self) -> int:
        """Truncate an unterminated tail (:func:`repair_jsonl_tail`);
        returns the number of bytes removed."""
        return repair_jsonl_tail(self.path)

    def __iter__(self) -> Iterator[Row]:
        """Every record and failure, streamed one line at a time."""
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return
        with fh:
            complete = itertools.takewhile(lambda line: line.endswith(b"\n"), fh)
            yield from _built(_json_rows(complete, self.path))

    def load(self) -> tuple[list[RunRecord], list[EpisodeFailure]]:
        """The full log as ``(records, failures)``."""
        records: list[RunRecord] = []
        failures: list[EpisodeFailure] = []
        for built in self:
            (failures if isinstance(built, EpisodeFailure) else records).append(built)
        return records, failures

    def read(self, offset: int = 0) -> tuple[int, list, list]:
        """The JSON rows on complete lines past byte ``offset``, split by
        the ``outcome`` key: ``(next_offset, record_rows,
        failure_rows)``.  Rows stay unbuilt, so a foreign row is still
        among them; :func:`build_rows` drops it.  An unterminated tail
        stays unread: the next read from ``next_offset`` gets it once
        its newline lands."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(offset)
                data = fh.read()
        except FileNotFoundError:
            return offset, [], []
        end = data.rfind(b"\n") + 1
        lines = data[: end - 1].split(b"\n") if end else ()
        records: list = []
        failures: list = []
        try:
            for row in _json_rows(lines, self.path):
                (failures if _is_failure_row(row) else records).append(row)
        except ValueError:
            if not offset:
                raise
            # Only a corrupt line needs the lines before ``offset``
            # counted: parse again from the file's real line number.
            with open(self.path, "rb") as fh:
                before = fh.read(offset).count(b"\n")
            for _ in _json_rows(lines, self.path, before + 1):
                pass
            raise
        return offset + end, records, failures


def repair_jsonl_tail(path: str | Path) -> int:
    """Physically drop a torn final line (a hard kill / full disk left a
    partial record); returns the number of bytes removed.

    A full read already *ignores* a trailing fragment, but ignoring is
    not enough once anyone appends again: the next record would be glued
    onto the fragment with no newline between them, turning one
    recoverable tear into an unparseable interior line that poisons
    every later resume.  Truncating back to the last complete line
    before appending resumes makes the silent in-memory drop physical.
    Safe to run while atomic appenders (:func:`append_jsonl_line`) are
    live: their single-write lines never leave the file transiently
    newline-less, appenders hold a shared ``flock`` for the write's
    duration (so the exclusive lock here waits out any in-flight append
    rather than mistaking its partial visibility for a tear), and
    concurrent *repairers* re-read the file under the exclusive lock, so
    a stale pre-repair read can never truncate away a record appended in
    between.
    """
    path = Path(path)
    try:
        fh = open(path, "rb+")
    except FileNotFoundError:
        return 0
    with fh:
        try:
            import fcntl

            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        except (ImportError, OSError):
            pass  # no flock (non-POSIX / odd mount): best-effort repair
        # Scan backwards in chunks for the last newline — a fragment is
        # at most one record, so this is O(tail), not O(checkpoint),
        # which matters because every worker attach runs it under the
        # exclusive lock that stalls all appenders.
        size = fh.seek(0, os.SEEK_END)
        if size == 0:
            return 0
        chunk = 65536
        pos = size
        last_newline = -1
        while pos > 0 and last_newline < 0:
            start = max(0, pos - chunk)
            fh.seek(start)
            buf = fh.read(pos - start)
            if pos == size and buf.endswith(b"\n"):
                return 0  # clean tail, nothing to repair
            index = buf.rfind(b"\n")
            if index >= 0:
                last_newline = start + index
            pos = start
        new_size = last_newline + 1 if last_newline >= 0 else 0
        fh.truncate(new_size)
        os.fsync(fh.fileno())
    return size - new_size


def append_jsonl_line(path: str | Path, obj: dict) -> None:
    """Durably append ``obj`` as one JSONL line — atomic w.r.t. concurrent
    appenders and hard kills.

    The whole encoded line goes down in a *single* ``os.write`` on an
    ``O_APPEND`` descriptor: POSIX appends each write at the current end
    of file, so two processes (or machines, on a well-behaved shared
    filesystem) appending to the same checkpoint can never interleave
    partial lines — exactly the multi-writer case the queue backend
    creates.  A buffered ``fh.write`` gives neither guarantee: the stdio
    buffer may flush mid-line at any boundary, so a kill can tear a
    record in half and a concurrent appender can land between the halves,
    turning a resumable checkpoint into a permanently corrupt one.

    ``fsync`` before close makes the record durable: once the campaign has
    reported an episode complete, a power cut must not un-complete it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = render_line(obj)
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        try:
            import fcntl

            # Shared lock, paired with repair_jsonl_tail's exclusive one:
            # a tail repair can never run while any append is in flight,
            # so a partially visible write (NFS attribute caching) cannot
            # be mistaken for a torn tail and truncated away.
            fcntl.flock(fd, fcntl.LOCK_SH)
        except (ImportError, OSError):
            pass  # no flock on this platform/mount: appends stay atomic
        written = os.write(fd, line)
        if written != len(line):
            # A short write (ENOSPC racing quota enforcement, RLIMIT_FSIZE)
            # already tore the line on disk; finishing it is the only way
            # to keep the file parseable for everyone else.  If the
            # remainder cannot be written either, cut our own fragment
            # back off before failing loudly — leaving it would hand the
            # next appender a tail to glue onto, and no other participant
            # runs a repair mid-campaign.
            try:
                while written < len(line):
                    more = os.write(fd, line[written:])
                    if more <= 0:
                        raise OSError(
                            f"short checkpoint append to {path}: "
                            f"{written}/{len(line)} bytes written"
                        )
                    written += more
            except OSError:
                os.close(fd)
                fd = -1
                repair_jsonl_tail(path)  # waits out concurrent appends (flock)
                raise
        os.fsync(fd)
    finally:
        if fd >= 0:
            os.close(fd)
