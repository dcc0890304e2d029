"""CSV surface: trajectory tables and event lists.

Headers are mandatory, encoding is UTF-8, line endings are LF, and
floats are written with repr() so a read-back is bit-exact.  Trajectory
columns are t, x1..xd, p1..pd, energy; event columns are t, x1[..x3],
read and written as one (n, 1+d) float array.
"""

import csv
import math
import tempfile
from typing import List, NamedTuple

import numpy as np

from . import _child

# rows per block of a table write, the unit the forked child takes; stacking
# the whole table at once would copy every array
_BLOCK_ROWS = 256
# rows above which a forked child formats part of a trajectory: a fork and a
# copy of the child's bytes break even near 2,000 1D or 1,000 3D rows
_SPLIT_ROWS = 4096


class CsvFormatError(ValueError):
    """Malformed CSV content; names its file and carries the 1-based row number."""

    def __init__(self, message, row, path):
        self.row = row
        super().__init__(f"{path}: row {row}: {message}")


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


def _row_format(columns) -> str:
    """The %r-format of one row of these columns."""
    return ",".join(["%r"] * sum(c.shape[1] if c.ndim > 1 else 1 for c in columns)) + "\n"


def _write_table(path, header, columns) -> None:
    """Write the header, then every row of a finished table of columns, in this process."""
    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\n").encode())
        _write_rows(handle, _row_format(columns), columns, 0, len(columns[0]))


class TableWriter:
    """Formats the rows of a trajectory, with a forked child when it is long.

    Formatting is repr-bound and holds the GIL.  So when a trajectory has
    more than _SPLIT_ROWS rows, its _BLOCK_ROWS-row blocks are shared with a
    child (`_child.Shared`) forked over its columns, and each whole block is
    queued once its rows are final, one by one as `dynamics.integrate` fills
    the arrays of `trajectory`.  The child takes blocks and formats them
    into an unnamed temporary file.  Once every row is final, `write` takes
    the blocks left into a second one, and formats there each block neither
    process took: the last part block, one a full pipe never held, one whose
    formatting raised and each of a child that failed.  Only then is the
    output file opened; it gets the header and every block in order, the
    bytes of a write in one process.  A finished table is written by
    `_write_table`, in one process: its formatting would overlap nothing.
    """

    def __init__(self):
        self.columns = ()
        self._line = ""  # the %r-format of one row
        self._shared = None
        self._front = self._back = None  # the child's unnamed file, and this process's

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        for held in (self._shared, self._front, self._back):
            if held is not None:
                held.close()

    def trajectory(self, times, dim):
        """The arrays of a trajectory at these times, to be filled row by row.

        Returns the positions, the momenta, the energies and a function to
        call with the number of leading rows that are final.  A long
        trajectory's arrays live in memory shared with a child forked here,
        which formats those rows while the caller computes the next.
        """
        rows = len(times)
        shared = None
        if rows > _SPLIT_ROWS and _child.runs_alongside():
            import mmap  # only where the writer forks, so start-up imports nothing new
            try:
                shared = mmap.mmap(-1, 8 * (2 * dim + 1) * rows)
            except (OSError, OverflowError):
                pass
        if shared is None:  # apart: one block of all three raised a one-process peak RSS
            arrays = (np.empty((rows, dim)), np.empty((rows, dim)), np.empty(rows))
        else:
            cells = np.frombuffer(shared, float)
            arrays = (cells[:dim * rows].reshape(rows, dim),
                      cells[dim * rows:2 * dim * rows].reshape(rows, dim), cells[2 * dim * rows:])
        self.columns = (times,) + arrays
        if shared is not None:
            try:  # each is closed on leaving the `with` block
                self._front = tempfile.TemporaryFile()
                self._back = tempfile.TemporaryFile()
            except OSError:  # no descriptor to spare: write every row here
                pass
            else:
                self._line = _row_format(self.columns)
                self._shared = _child.Shared(lambda k: self._format_block(self._front, k))
        return arrays + (self.ready,)

    def ready(self, rows) -> None:
        """Queue each whole block of the first `rows` rows, which are final."""
        if self._shared is not None:
            self._shared.put(rows // _BLOCK_ROWS)

    def write(self, path, header) -> None:
        """Write the header and every row, all of them now final, to path."""
        if self._shared is None:
            _write_table(path, header, self.columns)
            return
        rows = len(self.columns[0])
        self.ready(rows)
        back = self._back
        mine, theirs = self._shared.finish(lambda k: self._format_block(back, k))
        spans = {k: (back, span) for k, span in mine.items()}
        spans.update((k, (self._front, span)) for k, span in theirs.items())
        for k in range(-(-rows // _BLOCK_ROWS)):
            if k not in spans:
                spans[k] = (back, self._format_block(back, k))
        with open(path, "wb") as handle:
            handle.write((",".join(header) + "\n").encode())
            for k in range(len(spans)):
                source, (start, stop) = spans[k]
                source.seek(start)
                handle.write(source.read(stop - start))

    def _format_block(self, handle, block):
        """(start, stop): where in handle the block's rows were formatted, and flushed."""
        start = handle.tell()
        lo = block * _BLOCK_ROWS
        _write_rows(handle, self._line, self.columns, lo,
                    min(lo + _BLOCK_ROWS, len(self.columns[0])))
        handle.flush()  # the child leaves by os._exit, which flushes nothing
        return start, handle.tell()


def write_trajectory(path, trajectory, writer=None) -> None:
    """Write a trajectory; writer, if given, is the TableWriter it was integrated into."""
    header = trajectory_header(trajectory.positions.shape[1])
    if writer is None:
        _write_table(path, header, (trajectory.times, trajectory.positions,
                                    trajectory.momenta, trajectory.energies))
    else:
        writer.write(path, header)


def _parse_row(row, width, row_no, path):
    if len(row) != width:
        raise CsvFormatError(f"expected {width} columns, got {len(row)}", row_no, path)
    out = []
    for cell in row:
        try:
            value = float(cell)
        except ValueError:
            raise CsvFormatError(f"not a number: {cell!r}", row_no, path) from None
        if not math.isfinite(value):
            raise CsvFormatError(f"not a finite number: {cell!r}", row_no, path)
        out.append(value)
    return out


def _read_table(path, header):
    """(dim, parsed data rows) of a CSV headed by header(1) or header(3)."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            rows = list(reader)
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 text (byte {err.start}: {err.reason})") from None
    except csv.Error as err:  # a cell past the reader's field size limit, say
        raise CsvFormatError(str(err), reader.line_num, path) from None
    if not rows:
        raise CsvFormatError("empty file", 1, path)
    for dim in (1, 3):
        if rows[0] == header(dim):
            return dim, [_parse_row(row, len(rows[0]), row_no, path)
                         for row_no, row in enumerate(rows[1:], start=2)]
    raise CsvFormatError(
        f"unrecognized header {','.join(rows[0])!r}; "
        f"expected {','.join(header(1))} or {','.join(header(3))}", 1, path)


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
        raise CsvFormatError("no event rows after the header", 2, path)
    return np.asarray(data, dtype=float)
