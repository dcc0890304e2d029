"""CSV surface: trajectory tables and event lists.

Headers are mandatory, encoding is UTF-8, line endings are LF, and
floats are written with repr() so a read-back is bit-exact.  Trajectory
columns are t, x1..xd, p1..pd, energy; event columns are t, x1[..x3],
read and written as one (n, 1+d) float array.
"""

import csv
import math
from typing import List, NamedTuple

import numpy as np


# rows per stacked block of a trajectory write; stacking the whole table copies every array
_BLOCK_ROWS = 256


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


def write_trajectory(path, trajectory) -> None:
    columns = (trajectory.times, trajectory.positions, trajectory.momenta, trajectory.energies)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(trajectory_header(trajectory.positions.shape[1])) + "\n")
        for start in range(0, len(trajectory), _BLOCK_ROWS):
            block = np.column_stack([c[start:start + _BLOCK_ROWS] for c in columns]).tolist()
            handle.writelines(",".join(map(repr, row)) + "\n" for row in block)


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
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(event_header(events.shape[1] - 1)) + "\n")
        handle.writelines(",".join(map(repr, row)) + "\n" for row in events.tolist())


def read_events(path) -> np.ndarray:
    """The event rows as an (n, 1+d) float array with columns t, x1[..x3]."""
    _, data = _read_table(path, event_header)
    if not data:
        raise CsvFormatError("no event rows after the header", 2)
    return np.asarray(data, dtype=float)
