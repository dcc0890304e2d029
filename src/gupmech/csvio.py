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

from . import _child

# rows per block of a table write, the unit the forked child takes; stacking
# the whole table at once would copy every array
_BLOCK_ROWS = 256
# rows above which a forked child formats part of a table: a fork and a copy
# of the child's bytes break even near 2,000 1D or 1,000 3D rows
_SPLIT_ROWS = 4096
# slots of the two counters shared with the child: the next block it takes
# and the block it stops before
_NEXT, _STOP = 0, 1


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
        handle.write((line * len(block) % tuple(block.ravel().tolist())).encode())


def _shared_memory(rows, size):
    """An anonymous mapping of size bytes that a child forked later shares.

    None if the table is too short to fork for, or no mapping can be had.
    """
    if rows <= _SPLIT_ROWS or not _child.runs_alongside():
        return None
    import mmap  # only where the writer forks, so start-up imports nothing new
    try:
        return mmap.mmap(-1, size)
    except (OSError, OverflowError):
        return None


class TableWriter:
    """Formats the rows of one table, with a forked child when the table is long.

    Formatting is repr-bound and holds the GIL.  So when a table has more
    than _SPLIT_ROWS rows, a child forked over its columns formats
    _BLOCK_ROWS-row blocks from the front into an unnamed temporary file,
    each once a byte on a pipe says it is ready: a finished table is ready
    at the fork, and a trajectory block by block as `dynamics.integrate`
    fills the arrays of `trajectory`.  Once every row is ready, `write` sets
    the stop counter at the midpoint of the blocks the child has not taken
    and formats the blocks from there on into a second unnamed file.  Only
    then is the output file opened; it gets the header and the bytes of both
    files, the bytes of a write in one process.  `_child` forks the child,
    waits for it, and kills it if the `with` block is left before that.
    """

    def __init__(self):
        self.columns = ()
        self._line = ""  # the %r-format of one row
        self._child = None
        self._pipe = None  # write end: one byte per block made ready
        self._counters = None  # _NEXT and _STOP, in memory shared with the child
        self._front = None  # the child's unnamed file
        self._told = 0  # blocks told to the child

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._close_pipe()
        if self._child is not None:
            self._child.close()
        if self._front is not None:
            self._front.close()

    def share(self, columns) -> None:
        """Take a finished table of columns, every row of them ready."""
        self._start(columns, _shared_memory(len(columns[0]), 16))
        self._close_pipe()

    def trajectory(self, times, dim):
        """The arrays of a trajectory at these times, to be filled row by row.

        Returns the positions, the momenta, the energies and a function to
        call with the number of leading rows that are final.  A long table's
        arrays live in memory shared with a child forked here, which formats
        those rows while the caller computes the next.
        """
        rows = len(times)
        size = (2 * dim + 1) * rows
        shared = _shared_memory(rows, 8 * (2 + size))
        if shared is None:  # apart: one block of all three raised a one-process peak RSS
            arrays = (np.empty((rows, dim)), np.empty((rows, dim)), np.empty(rows))
        else:
            cells = np.frombuffer(shared, float, offset=16)
            arrays = (cells[:dim * rows].reshape(rows, dim),
                      cells[dim * rows:2 * dim * rows].reshape(rows, dim), cells[2 * dim * rows:])
        self._start((times,) + arrays, shared)
        return arrays + (self.ready,)

    def ready(self, rows) -> None:
        """Tell the child that the first `rows` rows are final."""
        blocks = rows // _BLOCK_ROWS
        if self._pipe is not None and blocks > self._told:
            try:
                self._told += os.write(self._pipe, bytes(blocks - self._told))
            except OSError:  # a full pipe, caught up at the end, or a child gone
                pass

    def write(self, path, header) -> None:
        """Write the header and every row, all of them now final, to path."""
        head = (",".join(header) + "\n").encode()
        line, columns = self._line, self.columns
        rows = len(columns[0])
        if self._child is None:
            with open(path, "wb") as handle:
                handle.write(head)
                _write_rows(handle, line, columns, 0, rows)
            return
        blocks = -(-rows // _BLOCK_ROWS)
        taken = int(self._counters[_NEXT])
        stop = taken + (blocks - taken + 1) // 2
        # the child may take blocks past the stop until it is set; a block
        # both processes format is kept from the child's file
        self._close_pipe()
        self._counters[_STOP] = stop
        with tempfile.TemporaryFile() as back:
            starts = []
            for lo in range(stop * _BLOCK_ROWS, rows, _BLOCK_ROWS):
                starts.append(back.tell())
                _write_rows(back, line, columns, lo, min(lo + _BLOCK_ROWS, rows))
            status = self._child.join()[0]
            if status != 0:
                raise OSError(f"cannot write {path}: the process formatting its rows "
                              f"2-{min(stop * _BLOCK_ROWS, rows) + 1} failed "
                              f"(exit status {status})")
            both = int(self._counters[_NEXT]) - stop
            with open(path, "wb") as handle:
                handle.write(head)
                self._front.seek(0)
                shutil.copyfileobj(self._front, handle)
                if both < len(starts):
                    back.seek(starts[both])
                    shutil.copyfileobj(back, handle)

    def _start(self, columns, shared):
        """Fork the child over columns, unless shared is None or a descriptor or the fork fails."""
        self.columns = columns
        self._line = ",".join(["%r"] * sum(c.shape[1] if c.ndim > 1 else 1
                                           for c in columns)) + "\n"
        if shared is None:
            return
        self._counters = np.frombuffer(shared, np.int64, 2)
        self._counters[_STOP] = -(-len(columns[0]) // _BLOCK_ROWS)
        try:  # either is closed on leaving the `with` block
            self._front = tempfile.TemporaryFile()
            read_end, self._pipe = os.pipe()
        except OSError:  # no descriptor to spare: write every row here
            return
        os.set_blocking(self._pipe, False)
        self._child = _child.fork(self._format_front, read_end)
        os.close(read_end)
        if self._child is None:  # no process to spare either
            self._close_pipe()

    def _format_front(self, read_end):
        """The child's rows: blocks from the front, each once it is ready, up to the stop."""
        self._close_pipe()  # the write end: the end of file must come from the parent
        handle, line, columns, counters = self._front, self._line, self.columns, self._counters
        rows = len(columns[0])
        blocks = -(-rows // _BLOCK_ROWS)
        k = known = 0  # the next block, and the blocks known to be ready
        while k < counters[_STOP]:
            if k < known:
                lo = k * _BLOCK_ROWS
                _write_rows(handle, line, columns, lo, min(lo + _BLOCK_ROWS, rows))
                k += 1
                counters[_NEXT] = k
            else:  # one byte per block made ready, end of file once all are
                got = os.read(read_end, 4096)
                known = known + len(got) if got else blocks
        handle.flush()

    def _close_pipe(self):
        """End of file on the child's pipe: every block is ready."""
        if self._pipe is not None:
            os.close(self._pipe)
            self._pipe = None


def _write_table(path, header, columns) -> None:
    """Write the header, then the rows of a finished table of columns."""
    with TableWriter() as writer:
        writer.share(columns)
        writer.write(path, header)


def write_trajectory(path, trajectory, writer=None) -> None:
    """Write a trajectory; writer, if given, is the TableWriter it was integrated into."""
    header = trajectory_header(trajectory.positions.shape[1])
    if writer is None:
        _write_table(path, header, (trajectory.times, trajectory.positions,
                                    trajectory.momenta, trajectory.energies))
    else:
        writer.write(path, header)


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
