"""CSV surface: trajectory tables and event lists.

Headers are mandatory, encoding is UTF-8, line endings are LF, and
floats are written with repr() so a read-back is bit-exact.  Trajectory
columns are t, x1..xd, p1..pd, energy; event columns are t, x1[..x3],
read and written as one (n, 1+d) float array.
"""

import csv
import math
import os
import shutil
import tempfile
from typing import List, NamedTuple

import numpy as np


# rows per stacked block of a table write; stacking the whole table copies every array
_BLOCK_ROWS = 256
# rows above which a forked child formats the second half of a table: a fork
# and a copy of the child's bytes break even near 2,000 1D or 1,000 3D rows
_SPLIT_ROWS = 4096


class CsvFormatError(ValueError):
    """Malformed CSV content; carries the 1-based row number."""

    def __init__(self, message, row):
        self.row = row
        super().__init__(f"row {row}: {message}")


class TrajectoryTable(NamedTuple):
    times: np.ndarray
    positions: np.ndarray
    momenta: np.ndarray
    energies: np.ndarray


def _axis_names(prefix, dim):
    return [f"{prefix}{i}" for i in range(1, dim + 1)]


def trajectory_header(dim: int) -> List[str]:
    return ["t"] + _axis_names("x", dim) + _axis_names("p", dim) + ["energy"]


def event_header(dim: int) -> List[str]:
    return ["t"] + _axis_names("x", dim)


def _write_rows(handle, line, columns, start, stop):
    """Write rows start..stop-1, column-stacked, one %r-format per block of rows."""
    for lo in range(start, stop, _BLOCK_ROWS):
        block = np.column_stack([c[lo:min(lo + _BLOCK_ROWS, stop)] for c in columns])
        handle.write(line * len(block) % tuple(block.ravel().tolist()))


def _child_runs_alongside() -> bool:
    """Whether fork exists and this process may run on two CPUs.

    On one CPU the two halves take turns, so the fork and the copy are pure cost.
    """
    if not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _write_table(path, header, columns) -> None:
    """Write the header, then the rows.

    Formatting is repr-bound and holds the GIL, so a table longer than
    _SPLIT_ROWS, written by a process allowed on two CPUs, is split at a
    block boundary near its middle: a forked child formats the second
    half into an unnamed temporary file while this process writes the
    first, and then its bytes are appended.  The bytes are those of a
    write in one process.
    """
    line = ",".join(["%r"] * len(header)) + "\n"
    rows = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        if rows <= _SPLIT_ROWS or not _child_runs_alongside():
            _write_rows(handle, line, columns, 0, rows)
            return
        split = (rows // 2 + _BLOCK_ROWS // 2) // _BLOCK_ROWS * _BLOCK_ROWS
        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as tail:
            status = 1  # the child's exit status until its rows are on disk
            try:
                pid = os.fork()
            except OSError:  # no process to spare: write every row here
                _write_rows(handle, line, columns, 0, rows)
                return
            if pid == 0:
                # os._exit on every path: no exception unwinds into the caller's
                # code and no buffer inherited from this process is flushed twice
                try:
                    _write_rows(tail, line, columns, split, rows)
                    tail.flush()
                    status = 0
                finally:
                    os._exit(status)
            try:
                _write_rows(handle, line, columns, 0, split)
            except BaseException:
                import signal  # here, not at start-up, where it would cost about 1 ms
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status != 0:
                raise OSError(f"cannot write {path}: the process formatting its rows "
                              f"{split + 2}-{rows + 1} failed (exit status {status})")
            handle.flush()
            tail.seek(0)
            shutil.copyfileobj(tail.buffer, handle.buffer)


def write_trajectory(path, trajectory) -> None:
    _write_table(path, trajectory_header(trajectory.positions.shape[1]),
                 (trajectory.times, trajectory.positions, trajectory.momenta, trajectory.energies))


def _parse_row(row, width, row_no):
    if len(row) != width:
        raise CsvFormatError(f"expected {width} columns, got {len(row)}", row_no)
    out = []
    for cell in row:
        try:
            value = float(cell)
        except ValueError:
            raise CsvFormatError(f"not a number: {cell!r}", row_no) from None
        if not math.isfinite(value):
            raise CsvFormatError(f"not a finite number: {cell!r}", row_no)
        out.append(value)
    return out


def _read_table(path, header):
    """(dim, parsed data rows) of a CSV headed by header(1) or header(3)."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 text (byte {err.start}: {err.reason})") from None
    if not rows:
        raise CsvFormatError("empty file", 1)
    for dim in (1, 3):
        if rows[0] == header(dim):
            return dim, [_parse_row(row, len(rows[0]), row_no)
                         for row_no, row in enumerate(rows[1:], start=2)]
    raise CsvFormatError(
        f"unrecognized header {','.join(rows[0])!r}; "
        f"expected {','.join(header(1))} or {','.join(header(3))}", 1)


def read_trajectory(path) -> TrajectoryTable:
    dim, data = _read_table(path, trajectory_header)
    table = np.asarray(data, dtype=float).reshape(len(data), 2 + 2 * dim)
    return TrajectoryTable(
        times=table[:, 0],
        positions=table[:, 1:1 + dim],
        momenta=table[:, 1 + dim:1 + 2 * dim],
        energies=table[:, 1 + 2 * dim],
    )


def write_events(path, events) -> None:
    """Write an (n, 1+d) event array, d in {1, 3}, under its header."""
    events = np.asarray(events, dtype=float)
    if events.size == 0:
        raise ValueError("no events to write")
    if events.ndim != 2 or events.shape[1] not in (2, 4):
        raise ValueError(f"events must be an (n, 2) or (n, 4) array, got {events.shape}")
    _write_table(path, event_header(events.shape[1] - 1), (events,))


def read_events(path) -> np.ndarray:
    """The event rows as an (n, 1+d) float array with columns t, x1[..x3]."""
    _, data = _read_table(path, event_header)
    if not data:
        raise CsvFormatError("no event rows after the header", 2)
    return np.asarray(data, dtype=float)
