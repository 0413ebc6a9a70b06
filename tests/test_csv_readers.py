"""The C-level CSV pass against the per-row reader, for records and for prediction points.

``read_records_csv`` and ``cli._read_points`` read a file with one ``np.loadtxt`` pass and
fall back to the per-row parser (``lexis._read_records_rows``, ``cli._read_points_rows``)
only where that pass fails.  On any file, both routes give bitwise equal arrays, or the
same ``DataError`` message and details.
"""

import csv
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hazard2ts as h
from hazard2ts import cli, lexis
from hazard2ts.errors import DataError

# ids with the characters that need quoting (comma, quote, CR, LF), spaces and a '#'
ids = st.one_of(st.text(alphabet='ab1 ,"\r\n\t#-é.', max_size=8),
                st.integers(0, 3000).map(lambda n: "x" * n))


def numbers(lo, hi):
    """Numbers in [lo, hi] as the text of several float formats."""
    return st.floats(lo, hi).flatmap(lambda v: st.sampled_from(
        [f"{v:.17g}", repr(v), f" {v:.6e}\t", f"{v:.3f}"]))


# fields that the one pass refuses, or that the per-row parser refuses or reads otherwise
bad_fields = st.sampled_from(["", " ", "nan", "-inf", "inf", "oops", "1_0", "0x1p3", "1e400",
                              "+1.5", "-0", "٣", "-nan", "1,5", '"', "1.5j", "-1", "3", "7",
                              "1.0", " 2", "+1", "01", "99999999999999999999", "١", "1e-3"])
# a line written as it stands: broken quoting, whitespace only, a lone field
raw_lines = st.text(alphabet=',"ab1. \t', max_size=10)


def csv_text(draw, header, fields, n_rows):
    """A CSV document of ``header`` and rows of the ``fields`` strategies (``ids`` for other
    names), quoted minimally or fully, with LF or CRLF ends and blank lines.  Half the
    documents also hold bad fields and short, long and raw rows."""
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    dirty = draw(st.booleans())
    kinds = ["row"] * 8 + ["blank", "long"] + (["short", "raw"] if dirty else [])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=terminator,
                        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    writer.writerow(header)
    for _ in range(n_rows):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            buf.write(terminator)
        elif kind == "raw":
            buf.write(draw(raw_lines) + terminator)
        else:
            row = [draw(bad_fields if dirty and draw(st.integers(0, 9)) == 0
                        else fields.get(name, ids)) for name in header]
            if kind == "short":
                row = row[:draw(st.integers(0, len(row) - 1))]
            elif kind == "long":
                row += ["extra", "1"]
            writer.writerow(row)
    return buf.getvalue()


@st.composite
def record_files(draw):
    names = ["id", "u", "s_exit", "cause"] + draw(st.sampled_from(
        [[], ["s_entry"], ["s_entry", "note"], ["note"], ["x", "s_entry", "y"]]))
    header = draw(st.permutations(names))
    fields = {"u": numbers(1e-3, 120.0), "s_entry": st.one_of(st.just("0"), numbers(0.0, 0.4)),
              "s_exit": numbers(0.5, 20.0), "cause": st.integers(0, 2).map(str),
              "x": numbers(-1.0, 1.0)}
    return csv_text(draw, header, fields, draw(st.integers(0, 12)))


@st.composite
def point_files(draw):
    first = draw(st.sampled_from(["u", "t"]))
    header = draw(st.permutations([first, "s"] + draw(st.sampled_from([[], ["id"], ["a", "b"]]))))
    fields = {first: numbers(-1.0, 120.0), "s": numbers(0.0, 20.0), "a": numbers(-1.0, 1.0)}
    return first, csv_text(draw, header, fields, draw(st.integers(0, 12)))


def outcome(read, *args):
    """What ``read(*args)`` gives: its columns as bytes (ids as a list of str), or its
    DataError text and details."""
    try:
        value = read(*args)
    except DataError as exc:
        return "DataError", str(exc), exc.details
    if isinstance(value, h.RecordTable):
        value = [value.id, value.u, value.s_entry, value.s_exit, value.cause]
    return [(col.dtype.str, col.shape, col.tolist() if col.dtype == object else col.tobytes())
            for col in value]


def write(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "input.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


# rows per C-level read: blocks that end inside the file, and one block for the whole file
read_rows = st.sampled_from([1, 2, 3, lexis._READ_ROWS])


@settings(max_examples=250, deadline=None)
@given(text=record_files(), rows=read_rows)
def test_record_reader_equals_the_per_row_reader(text, rows, tmp_path_factory):
    path = write(tmp_path_factory, text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lexis, "_READ_ROWS", rows)
        fast = outcome(h.read_records_csv, path)
    assert fast == outcome(lexis._read_records_rows, path)


@settings(max_examples=200, deadline=None)
@given(spec=point_files(), rows=read_rows)
def test_points_reader_equals_the_per_row_reader(spec, rows, tmp_path_factory):
    first, text = spec
    path = write(tmp_path_factory, text)
    coords = "us" if first == "u" else "ts"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lexis, "_READ_ROWS", rows)
        fast = outcome(cli._read_points, path, coords)
    assert fast == outcome(cli._read_points_rows, path, coords)


def test_one_pass_reads_quotes_blank_lines_and_reordered_columns(tmp_path, monkeypatch):
    """These files need no per-row parse: the C-level pass alone reads them."""
    def per_row(*args):
        raise AssertionError("the per-row parser ran")

    monkeypatch.setattr(lexis, "_read_records_rows", per_row)
    monkeypatch.setattr(cli, "_read_points_rows", per_row)
    monkeypatch.setattr(lexis, "_READ_ROWS", 2)
    long_id = "y" * 100_000
    path = tmp_path / "records.csv"
    path.write_bytes(('cause,note,s_exit,id,u,s_entry\r\n'
                      '1,"x, y",2.5,"a,""b""",55.0,0.5\r\n'
                      '\r\n'
                      f'0,,10.5,{long_id},56.25,0\r\n'
                      '2,z,1e-3,"multi\r\nline",57,1e-4\r\n').encode("utf-8"))
    table = h.read_records_csv(path)
    assert table.id.tolist() == ['a,"b"', long_id, "multi\r\nline"]
    assert table.u.tolist() == [55.0, 56.25, 57.0]
    assert table.s_entry.tolist() == [0.5, 0.0, 1e-4]
    assert table.s_exit.tolist() == [2.5, 10.5, 1e-3]
    assert table.cause.tolist() == [1, 0, 2]

    points = tmp_path / "points.csv"
    points.write_text("s,extra,t\n1.5,a,60\n\nnan,b,inf\n 2 ,c,-1e3\n")
    t, s = cli._read_points(points, "ts")
    assert np.array_equal(t, [60.0, np.inf, -1e3]) and np.array_equal(s, [1.5, np.nan, 2.0],
                                                                      equal_nan=True)


@pytest.mark.parametrize("coords", ["us", "ts"])
def test_header_only_points_file_gives_empty_arrays_and_no_warning(tmp_path, coords):
    path = tmp_path / "points.csv"
    path.write_text(("u" if coords == "us" else "t") + ",s\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first, s = cli._read_points(path, coords)
        records = tmp_path / "records.csv"
        records.write_text("id,u,s_entry,s_exit,cause\n")
        table = h.read_records_csv(records)
    for arr in (first, s):
        assert arr.dtype == np.float64 and arr.shape == (0,)
    assert len(table) == 0
