"""Binning of individual competing-risks records on a regular (u, s) grid.

u is the age at diagnosis (fixed per subject), s the time since diagnosis.
Each record occupies a single u-row; its event adds one count to the s-bin
containing the exit time, and its exposure is the exact overlap of
[s_entry, s_exit) with each s-bin.  Bins are half-open [lo, hi); an exit
time exactly on a bin edge belongs to the bin below the edge (the event
closes the elapsed interval), while a u exactly on an edge belongs to the
bin above it except at the top boundary.

Records are held column-wise in a :class:`RecordTable`, which checks them when
it is built; reading, binning and at-risk counting work on its arrays, never
per record.  A block of records is tallied into integer event counts, at-risk
steps and survivors plus its (u-row, s_entry, s_exit) columns; one fold takes each
block's tally as it arrives, the exposure one s-column at a time in record order, so
a table gives the same bits as one block or as many.

CSV input comes in two kinds, records and prediction points, each one ordered
column spec (name -> dtype, converter, default) that drives both the C-level
``np.loadtxt`` pass and the per-row parser that explains where it fails; both
kinds refuse bad rows with one error that lists them by line.  A records CSV is
tallied in fixed-size byte blocks, cut by a seek and one line read each, which a
caller may run on several processes; a file with a quote, or a block that does not
parse or check, is read again in one sequential pass, which names what it refuses.
"""

from __future__ import annotations

import array
import contextlib
import csv
import io
import itertools
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DataError

# Absolute slack for edge comparisons on the time axes (units: years).
_EDGE_ATOL = 1e-12
# Bytes per tallied block of a records CSV: a block ends after the first line feed at or past
# this many bytes, so the cuts depend on the file alone.
_BLOCK_BYTES = 1 << 20
# Rows per C-level CSV read: no whole-file temporary beside the columns it fills (one
# pass over 300k records raised the peak memory of a fit from 80 to 87 MB).
_READ_ROWS = 65536
_SHAPE_ERROR = "record columns must be 1-D and of equal length"
# Rows per formatted block of a written table, and the characters that make csv quote an id
_WRITE_ROWS = 8192
_QUOTED = ',"\r\n'


@dataclass(frozen=True, eq=False)
class RecordTable:
    """Records as five equal-length columns (``id`` str, ``u``, ``s_entry``,
    ``s_exit`` float64, ``cause`` int64); ``cause`` is 0 for right-censoring and
    ell >= 1 for a failure from competing cause ell.

    Building a table checks it: :class:`DataError` lists every invalid record
    (``details``: their ids).  Tables compare by identity; compare them column
    by column.
    """

    id: np.ndarray
    u: np.ndarray
    s_entry: np.ndarray
    s_exit: np.ndarray
    cause: np.ndarray

    def __post_init__(self):
        # object ids: a fixed-width str column would size every entry by the longest id
        ids = np.asarray(self.id, dtype=object)
        if ids.ndim != 1:
            raise ValueError(_SHAPE_ERROR)
        object.__setattr__(self, "id", ids)
        for name, dtype in (("u", np.float64), ("s_entry", np.float64),
                            ("s_exit", np.float64), ("cause", np.int64)):
            object.__setattr__(self, name, _column(ids, name, getattr(self, name), dtype))
        bad = _problems(ids, self.u, self.s_entry, self.s_exit, self.cause)
        if bad:
            raise DataError(f"{len(bad)} invalid record(s): {_listing([m for _, m in bad])}",
                            details=[str(ids[i]) for i, _ in bad])

    def __len__(self):
        return len(self.id)


def _problems(ids, u, s_entry, s_exit, cause) -> list:
    """``(index, message)`` for every invalid record of the columns, in record order.

    Each record is reported once, for the first check it fails.
    """
    bad_u = ~((u > 0) & np.isfinite(u))
    bad_s = ~bad_u & ~((0 <= s_entry) & (s_entry < s_exit))
    bad_cause = ~bad_u & ~bad_s & (cause < 0)
    out = []
    for i in np.flatnonzero(bad_u | bad_s | bad_cause).tolist():
        if bad_u[i]:
            why = f"u must be positive and finite, got {float(u[i])}"
        elif bad_s[i]:
            why = f"need 0 <= s_entry < s_exit, got ({float(s_entry[i])}, {float(s_exit[i])})"
        else:
            why = f"cause must be 0 or positive, got {int(cause[i])}"
        out.append((i, f"record {str(ids[i])!r}: {why}"))
    return out


def _column(ids, name, values, dtype) -> np.ndarray:
    """``values`` as a ``dtype`` array, else :class:`DataError` naming the first record
    whose value does not convert, or would change in converting (a fractional cause)."""
    try:
        with np.errstate(invalid="ignore"):   # a NaN cause: refused below
            col = np.asarray(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        for rid, value in zip(ids.tolist(), values):
            try:
                dtype(value)
            except (TypeError, ValueError, OverflowError):
                raise _not_of_type(rid, name, dtype, value) from None
        raise DataError(f"record column {name}: {exc}") from None
    if col.shape != ids.shape:
        raise ValueError(_SHAPE_ERROR)
    src = np.asarray(values)
    if src.dtype.kind in "biufc" and not np.can_cast(src.dtype, dtype):
        changed = np.flatnonzero(col != src)
        if changed.size:
            raise _not_of_type(ids[changed[0]], name, dtype, src[changed[0]].item())
    return col


def _not_of_type(rid, name, dtype, value) -> DataError:
    return DataError(f"record {rid!r}: {name} is not {np.dtype(dtype).name}, got {value!r}",
                     details=[str(rid)])


def _listing(items, limit=20) -> str:
    more = "" if len(items) <= limit else f" (+{len(items) - limit} more)"
    return "; ".join(items[:limit]) + more


@dataclass(frozen=True)
class LexisGrid:
    """Regular bin mesh: n_u x n_s bins with uniform spacing per axis."""

    u_edges: np.ndarray
    s_edges: np.ndarray

    def __post_init__(self):
        for name, edges in (("u", self.u_edges), ("s", self.s_edges)):
            if len(edges) < 2 or np.any(np.diff(edges) <= 0):
                raise ValueError(f"{name}_edges must be strictly increasing with >= 2 entries")
            widths = np.diff(edges)
            if np.max(np.abs(widths - widths[0])) > 1e-9 * max(widths[0], 1.0):
                raise ValueError(f"{name}_edges must be uniformly spaced")

    @property
    def n_u(self) -> int:
        return len(self.u_edges) - 1

    @property
    def n_s(self) -> int:
        return len(self.s_edges) - 1

    @property
    def h_u(self) -> float:
        return float(self.u_edges[1] - self.u_edges[0])

    @property
    def h_s(self) -> float:
        return float(self.s_edges[1] - self.s_edges[0])

    @property
    def u_mid(self) -> np.ndarray:
        return 0.5 * (self.u_edges[:-1] + self.u_edges[1:])

    @property
    def s_mid(self) -> np.ndarray:
        return 0.5 * (self.s_edges[:-1] + self.s_edges[1:])

    def first_grouped_row(self, first_grouped_age: float) -> int:
        """The u-row starting at ``first_grouped_age``; DataError unless it is an interior edge."""
        offsets = np.abs(self.u_edges - first_grouped_age)
        cut = int(np.argmin(offsets))
        if offsets[cut] > 1e-9 or cut == 0 or cut >= self.n_u:
            raise DataError(f"first grouped age {first_grouped_age} must be an interior "
                            "u-bin edge")
        return cut


@dataclass
class BinnedData:
    """Per-cause event-count matrices and the shared exposure matrix."""

    grid: LexisGrid
    Y: dict               # cause -> n_u x n_s counts (real-valued)
    R: np.ndarray         # n_u x n_s person-years

    def __post_init__(self):
        shape = (self.grid.n_u, self.grid.n_s)
        for name, mat in [*((f"Y[{ell}]", mat) for ell, mat in self.Y.items()), ("R", self.R)]:
            if mat.shape != shape:
                raise ValueError(f"{name} has shape {mat.shape}, expected {shape}")
            if np.any(mat < 0):
                raise ValueError(f"{name} has negative entries")


def build_grid(u_lo: float, u_hi: float, h_u: float, s_lo: float, s_hi: float, h_s: float) -> LexisGrid:
    """Build the bin mesh; upper edges are extended to the next bin multiple."""
    edges = []
    for lo, hi, h, name in ((u_lo, u_hi, h_u, "u"), (s_lo, s_hi, h_s, "s")):
        if not all(map(math.isfinite, (lo, hi, h))):
            raise ValueError(f"{name} bounds and bin width must be finite, got {(lo, hi, h)}")
        if h <= 0:
            raise ValueError(f"bin width h_{name} must be positive, got {h}")
        if hi <= lo:
            raise ValueError(f"{name} range must be positive, got ({lo}, {hi})")
        n = int(math.ceil((hi - lo) / h - 1e-9))
        edges.append(lo + h * np.arange(n + 1))
    return LexisGrid(u_edges=edges[0], s_edges=edges[1])


def _row_index(u: np.ndarray, grid: LexisGrid) -> np.ndarray:
    """u-row of each value; an edge value belongs to the bin above, except the top edge, and
    a value below the grid to row -1 (clipped before the cast, which would warn past int64)."""
    j = np.floor((u - grid.u_edges[0]) / grid.h_u + _EDGE_ATOL)
    return np.clip(j, -1, grid.n_u - 1).astype(np.int64)


def _exit_col(s_exit: np.ndarray, grid: LexisGrid) -> np.ndarray:
    """s-bin containing each exit time; an edge value belongs to the bin below."""
    k = np.ceil((s_exit - grid.s_edges[0]) / grid.h_s - _EDGE_ATOL).astype(np.int64) - 1
    return np.clip(k, 0, grid.n_s - 1)


def _grid_rows(table: RecordTable, grid: LexisGrid) -> np.ndarray:
    """The u-row of each record of ``table``.

    Raises :class:`DataError` listing every offending record id if any
    record falls outside the grid (no silent clipping).
    """
    j = _row_index(table.u, grid)
    u_lo, u_hi = grid.u_edges[0], grid.u_edges[-1]
    s_lo, s_hi = grid.s_edges[0], grid.s_edges[-1]
    # j < 0: within the slack below the lowest edge, but still floored to row -1
    out_u = (table.u < u_lo - _EDGE_ATOL) | (table.u > u_hi + _EDGE_ATOL) | (j < 0)
    out_s = (table.s_exit > s_hi + _EDGE_ATOL) | (table.s_entry < s_lo - _EDGE_ATOL)
    bad = np.flatnonzero(out_u | out_s).tolist()
    if bad:
        why = [f"u={float(table.u[i])} outside [{u_lo}, {u_hi}]" if out_u[i] else
               f"[s_entry, s_exit]=[{float(table.s_entry[i])}, {float(table.s_exit[i])}] "
               f"outside [{s_lo}, {s_hi}]" for i in bad]
        ids = [str(table.id[i]) for i in bad]
        raise DataError(f"{len(bad)} record(s) outside the grid: "
                        f"{_listing([f'{rid}: {w}' for rid, w in zip(ids, why)])}",
                        details=ids)
    return j


# One block of records tallied: the failures as their distinct cause ``codes`` and the
# ``keys`` (code index * n_u * n_s + cell) with their ``counts``; the at-risk ``steps``
# (+1 at the bin a record enters, -1 where it leaves, over n_u x (n_s + 1)) and the
# ``survivors`` per u-row; and per record its u-row, first and stop s-column of
# exposure and its s_entry and s_exit.
_Tally = namedtuple("_Tally", "codes keys counts steps survivors rows first stop s_entry s_exit")


def _tally(table: RecordTable, grid: LexisGrid) -> _Tally:
    """The tally of the records of ``table``, checked against the grid by :func:`_grid_rows`."""
    j = _grid_rows(table, grid)
    n_u, n_s = grid.n_u, grid.n_s
    failed = table.cause > 0
    codes, index = np.unique(table.cause[failed], return_inverse=True)
    keys, counts = np.unique(index * (n_u * n_s) + j[failed] * n_s
                             + _exit_col(table.s_exit[failed], grid), return_counts=True)
    # a record is at risk at the starts of bins k_lo .. stop - 1, and exposed in s-bins
    # first .. stop - 1
    k_lo = np.searchsorted(grid.s_edges[:-1], table.s_entry, side="left")
    stop = np.searchsorted(grid.s_edges[:-1], table.s_exit, side="left")
    first = np.searchsorted(grid.s_edges[1:], table.s_entry, side="right")
    size = n_u * (n_s + 1)
    steps = (np.bincount(j * (n_s + 1) + k_lo, minlength=size)
             - np.bincount(j * (n_s + 1) + stop, minlength=size))
    survivors = (table.cause == 0) & (table.s_exit >= grid.s_edges[-1] - _EDGE_ATOL)
    small = np.min_scalar_type(max(n_u, n_s))    # 19 bytes a record to keep, not 40
    return _Tally(codes, keys, counts, steps, np.bincount(j[survivors], minlength=n_u),
                  j.astype(small), first.astype(small), stop.astype(small),
                  table.s_entry, table.s_exit)


_Folded = namedtuple("_Folded", "codes keys counts R N")


def _fold(tallies, grid: LexisGrid) -> _Folded:
    """The matrices of the records of ``tallies``, blocks in record order read once, each
    folded as it arrives; None at the first tally that is None.  The failures stay as a block
    tallies them: the sorted distinct cause ``codes``, and the ``counts`` at the ``keys`` (code
    index * n_u * n_s + cell).  Each s-column of the exposure ``R`` adds a block's overlaps by
    one ``np.bincount`` whose first n_u weights are the column so far, so every bin sums its
    records' overlaps in record order, as a per-record loop does; ``N`` is the at-risk matrix."""
    n_u, n_s = grid.n_u, grid.n_s
    cells, lower, upper, rows = n_u * n_s, grid.s_edges[:-1], grid.s_edges[1:], np.arange(n_u)
    codes = keys = np.zeros(0, dtype=np.int64)
    counts, R = np.zeros(0), np.zeros((n_s, n_u))
    steps, survivors = np.zeros(n_u * (n_s + 1), dtype=np.int64), np.zeros(n_u, dtype=np.int64)
    for t in tallies:
        if t is None:
            return None
        merged = np.union1d(codes, t.codes)
        keys, index = np.unique(np.concatenate(
            [np.searchsorted(merged, c)[k // cells] * cells + k % cells
             for c, k in ((codes, keys), (t.codes, t.keys))]), return_inverse=True)
        counts, codes = np.bincount(index, np.concatenate([counts, t.counts])), merged
        steps += t.steps
        survivors += t.survivors
        for k in range(n_s):
            part = np.flatnonzero((t.first <= k) & (k < t.stop))
            overlap = np.minimum(t.s_exit[part], upper[k]) - np.maximum(t.s_entry[part], lower[k])
            R[k] = np.bincount(np.concatenate([rows, t.rows[part]]),
                               np.concatenate([R[k], overlap]), minlength=n_u)
    N = np.cumsum(steps.reshape(n_u, n_s + 1), axis=1).astype(np.float64)
    N[:, n_s] = survivors
    return _Folded(codes, keys, counts, np.ascontiguousarray(R.T), N)


def _binned(folded: _Folded, grid: LexisGrid) -> BinnedData:
    """The count and exposure matrices of ``folded``: a count matrix for each cause 1..L, L the
    largest cause code (at least 1), zero where it has no events; :class:`DataError` where L
    exceeds the number of events."""
    n_causes = max([*folded.codes[-1:].tolist(), 1])
    n_events = int(folded.counts.sum())
    if n_causes > max(n_events, 1):
        raise DataError(f"the largest cause code is {n_causes}, but {n_events} record(s) fail: "
                        f"causes 1..{n_causes} cannot all have events")
    cells, keys = grid.n_u * grid.n_s, folded.keys
    Y = np.zeros((n_causes, cells))
    Y[folded.codes[keys // cells] - 1, keys % cells] = folded.counts
    return BinnedData(grid=grid, R=folded.R, Y={ell: Y[ell - 1].reshape(grid.n_u, grid.n_s)
                                                for ell in range(1, n_causes + 1)})


def bin_records(table: RecordTable, grid: LexisGrid) -> BinnedData:
    """Aggregate the records of ``table`` into event-count and exposure matrices, a count
    matrix for each cause 1..L, L the largest cause code (at least 1), zero where it has no
    events.  Raises :class:`DataError` listing every record outside the grid by id, and
    where L exceeds the number of events, so that a cause surely has none (ids read as causes,
    say, which would ask for L matrices).
    """
    return _binned(_fold([_tally(table, grid)], grid), grid)


def _in_order(tasks):
    for fn, args, kwargs in tasks:
        yield fn(*args, **kwargs)


def tally_records(records, grid: LexisGrid, run_tasks=_in_order) -> tuple:
    """``(bin_records(table, grid), simulate.at_risk_matrix(table, grid))`` bit for bit, from
    one check of each record against the grid, with ``table`` the :class:`RecordTable`
    ``records`` or ``read_records_csv(records)`` for the path of a records CSV, and the same
    refusals.

    A CSV is not built into a table: its byte blocks (:func:`_record_blocks`) are tallied by
    ``run_tasks``, which takes ``(fn, args, kwargs)`` tasks and gives their results in order,
    from other processes, say, and each tally is folded as it arrives, so no more than a
    block's is held.  A file with a quote in its header, or a block that :func:`_tally_block`
    declines, is read and binned in one sequential pass instead; a generator of results is
    closed at the first block that declines.
    """
    folded = None
    if isinstance(records, RecordTable):
        folded = _fold([_tally(records, grid)], grid)
    elif (blocks := _record_blocks(records)) is not None:
        tallies = run_tasks([(_tally_block, (records, start, stop, blocks[0], grid), {})
                             for start, stop in blocks[1]])
        folded = _fold(tallies, grid)
        if folded is None and hasattr(tallies, "close"):
            tallies.close()
    if folded is None:
        folded = _fold([_tally(read_records_csv(records), grid)], grid)
    return _binned(folded, grid), folded.N


def _header(path, reader, columns, header_error) -> tuple:
    """The first row of a CSV ``reader`` and its name -> column index map; :class:`DataError`
    with ``header_error`` (``{header}`` filled in) unless it names every required column of
    the kind ``columns``."""
    header = next(reader, None)
    col = {name: i for i, name in enumerate(header or ())}
    if any(default is None and name not in col for name, (_, _, default) in columns.items()):
        raise DataError(f"{path}: " + header_error.format(header=header))
    return header, col


def _load_columns(path, columns, header_error):
    """The columns of the kind ``columns`` in the CSV file ``path``, parsed in C by
    :func:`_loadtxt_columns` from one open file, or None where a data row does not parse so:
    the per-row parser then explains.  The header is checked as :func:`_parse_csv` checks it."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        _, col = _header(path, csv.reader(fh), columns, header_error)
        return _loadtxt_columns(fh, columns, col)


def _loadtxt_columns(fh, columns, col):
    """The columns of the kind ``columns`` in the CSV data rows of the text stream ``fh``
    (opened with ``newline=""``), whose header gave the name -> column index map ``col``,
    parsed by ``np.loadtxt``, _READ_ROWS rows at a time; None where a row does not parse so.
    Fields are split and unquoted as ``csv.reader`` does, blank lines are skipped and numbers
    parse to the values ``float`` and ``int`` give; a column missing from the header takes
    its default."""
    names = [name for name in columns if name in col]
    blocks = []
    with warnings.catch_warnings():
        # loadtxt's notes on input with no rows and on blank lines beside max_rows
        warnings.simplefilter("ignore", UserWarning)
        while not blocks or len(blocks[-1]) == _READ_ROWS:
            try:
                blocks.append(np.loadtxt(
                    fh, dtype=[(name, columns[name][0]) for name in names], delimiter=",",
                    quotechar='"', comments=None, ndmin=1, max_rows=_READ_ROWS,
                    usecols=[col[name] for name in names], encoding="utf-8"))
            except ValueError:   # a field that does not parse, a short row, bad bytes
                return None
    n_rows = sum(map(len, blocks))
    return {name: np.concatenate([block[name] for block in blocks]) if name in col
            else np.full(n_rows, default, dtype) for name, (dtype, _, default) in columns.items()}


def _parse_csv(path, columns, header_error, invalid=lambda *cols: ()) -> dict:
    """The columns of the kind ``columns`` in the CSV file ``path``, parsed one row at a time.

    The header is checked by :func:`_header`.  Each field, in column order, goes through its
    column's converter; a column with a default strips its field and takes the default where
    that is empty or missing from the header.  :class:`DataError` lists, by physical line
    number (header = 1) and in line order, every non-blank row that does not parse, a short
    one included, and every row that ``invalid(*cols)`` names by ``(index, message)``.
    """
    # numeric columns go into typed arrays, which keep no per-row objects
    out = [[] if dtype is object else array.array(np.dtype(dtype).char)
           for dtype, _, _ in columns.values()]
    lines, problems = array.array("q"), []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header, col = _header(path, reader, columns, header_error)
        fields = [(col.get(name), convert, default)
                  for name, (_, convert, default) in columns.items()]
        for row in reader:
            if not row:
                continue
            try:
                values = [convert(row[i]) if default is None else
                          convert(text) if i is not None and (text := row[i].strip()) else default
                          for i, convert, default in fields]
                for column, value in zip(out, values):
                    column.append(value)   # an int past int64 overflows here
            except (ValueError, OverflowError) as exc:
                for column in out:         # the columns stay of equal length
                    del column[len(lines):]
                problems.append((reader.line_num, str(exc)))
            except IndexError:
                problems.append((reader.line_num,
                                 f"{len(row)} field(s), the header has {len(header)}"))
            else:
                lines.append(reader.line_num)
    cols = {name: np.asarray(column, dtype=dtype)
            for (name, (dtype, _, _)), column in zip(columns.items(), out)}
    problems += [(lines[i], msg) for i, msg in invalid(*cols.values())]
    if problems:
        listing = [f"row {line}: {msg}" for line, msg in sorted(problems, key=lambda p: p[0])]
        raise DataError(f"{path}: {len(listing)} bad row(s): {_listing(listing)}", details=listing)
    return cols


# The records CSV kind, in the order of RecordTable's columns: header name -> (np.loadtxt dtype,
# per-row converter, value of a missing column or an empty field, or None where the column
# is required), and the text of a header that lacks a required column.
_RECORDS = ({"id": (object, str, None), "u": (np.float64, float, None),
             "s_entry": (np.float64, float, 0.0), "s_exit": (np.float64, float, None),
             "cause": (np.int64, int, None)},
            "header must contain id,u,s_entry,s_exit,cause (got {header})")


def read_records_csv(path) -> RecordTable:
    """Read records from a CSV with header ``id,u,s_entry,s_exit,cause``.

    A missing/empty s_entry is treated as 0.  Blank lines are skipped.
    Malformed or invalid rows raise :class:`DataError` naming their
    physical line numbers (header = row 1).  The file is read in one C-level
    pass and checked as it becomes a table; a file that pass cannot read (an
    empty s_entry field, a bad row) or whose table does not build is read again
    row by row, which gives the values or names the bad rows.
    """
    cols = _load_columns(path, *_RECORDS)
    if cols is not None:
        with contextlib.suppress(DataError):   # an invalid record: named by its line below
            return RecordTable(*cols.values())
    return RecordTable(*_parse_csv(path, *_RECORDS, _problems).values())


def _record_blocks(path):
    """The header's name -> column index map of the records CSV ``path`` and the
    ``(start, stop)`` byte offsets of its data blocks, each ending after the first line feed
    at or past _BLOCK_BYTES bytes (the last at the end of the file); None where the header
    line holds a quote or a CR that does not end it, does not decode or is refused: the
    sequential read then reads or refuses the file."""
    with open(path, "rb") as fh:
        head = fh.readline()
        if b'"' in head or b"\r" in head.removesuffix(b"\n").removesuffix(b"\r"):
            return None
        try:
            _, col = _header(path, csv.reader([head.decode("utf-8")]), *_RECORDS)
        except (DataError, UnicodeDecodeError, csv.Error):
            return None
        cuts, start, end = [], len(head), fh.seek(0, io.SEEK_END)
        while start < end:
            fh.seek(start + _BLOCK_BYTES - 1)
            fh.readline()                   # to the first line feed from there, or the end
            stop = min(fh.tell(), end)      # a seek past the end tells its own offset
            cuts.append((start, stop))
            start = stop
    return col, cuts


def _tally_block(path, start, stop, col, grid):
    """The :func:`_tally` of the records in bytes ``start`` .. ``stop`` of the records CSV
    ``path``, whose header gave the column index map ``col``, parsed as
    :func:`read_records_csv` parses the whole file; None where the block holds a quote (a
    quoted field may span blocks), does not decode or parse in the C-level pass, or holds a
    record that is invalid or outside the grid."""
    with open(path, "rb") as fh:
        fh.seek(start)
        data = fh.read(stop - start)
    if b'"' in data:
        return None
    try:
        cols = _loadtxt_columns(io.StringIO(data.decode("utf-8"), newline=""), _RECORDS[0], col)
        return None if cols is None else _tally(RecordTable(*cols.values()), grid)
    except (DataError, UnicodeDecodeError):
        return None


def read_points_csv(path, first) -> tuple:
    """The columns ``first`` (``u`` or ``t``) and ``s`` of a points CSV, as float64 arrays.

    Read and refused as :func:`read_records_csv` reads and refuses records: one C-level pass,
    and a file that pass cannot read is read again row by row, naming every bad row.
    """
    columns = {first: (np.float64, float, None), "s": (np.float64, float, None)}
    header_error = f"need columns {first!r} and 's'"
    cols = _load_columns(path, columns, header_error)
    if cols is None:
        cols = _parse_csv(path, columns, header_error)
    return cols[first], cols["s"]


def write_records_csv(path, table: RecordTable):
    """Write a table in the same CSV schema that :func:`read_records_csv` ingests.

    The bytes are those of ``csv.writer`` in its default dialect: CRLF line ends, an id
    quoted, its quotes doubled, only where it holds a comma, a quote, CR or LF.  Each float
    and the cause are the text of ``'%.17g' % v``, from :mod:`.floattext`, _WRITE_ROWS rows
    at a time.
    """
    from .floattext import format_rows     # here: only a command that writes tables loads it

    ids = table.id.tolist()
    if any(c in "".join(ids) for c in _QUOTED):
        ids = ['"' + i.replace('"', '""') + '"' if any(c in i for c in _QUOTED) else i
               for i in ids]
    with open(path, "wb") as fh:
        fh.write(b"id,u,s_entry,s_exit,cause\r\n")
        for lo in range(0, len(ids), _WRITE_ROWS):
            part = slice(lo, lo + _WRITE_ROWS)
            lines = format_rows([table.u[part], table.s_entry[part], table.s_exit[part],
                                 table.cause[part]]).decode("ascii").split("\n")
            fh.write("".join(itertools.chain.from_iterable(
                zip(ids[part], itertools.repeat(","), lines, itertools.repeat("\r\n"))))
                .encode("utf-8"))
