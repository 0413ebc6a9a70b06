"""Columnar ingestion against the per-record loops it replaced.

The oracle functions below are the per-record binning and at-risk loops of
the earlier dataclass-based ingestion, kept here only as the reference.
The vectorized code must reproduce them bitwise.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hazard2ts as h
from hazard2ts import lexis
from hazard2ts.errors import DataError
from hazard2ts.simulate import at_risk_matrix

_EDGE_ATOL = 1e-12
FIELDS = ("id", "u", "s_entry", "s_exit", "cause")


def rows_of(table):
    """The records of ``table`` as (id, u, s_entry, s_exit, cause) rows of Python values."""
    return list(zip(*(getattr(table, name).tolist() for name in FIELDS)))


def table_of(rows):
    return h.RecordTable(*(list(zip(*rows)) or [()] * 5))


def oracle_row_index(u, grid):
    lo, hi = grid.u_edges[0], grid.u_edges[-1]
    if u < lo - _EDGE_ATOL or u > hi + _EDGE_ATOL:
        return -1
    j = int(math.floor((u - lo) / grid.h_u + _EDGE_ATOL))
    return min(j, grid.n_u - 1)


def oracle_exit_col(s_exit, grid):
    lo = grid.s_edges[0]
    k = int(math.ceil((s_exit - lo) / grid.h_s - _EDGE_ATOL)) - 1
    return min(max(k, 0), grid.n_s - 1)


def oracle_bin_records(table, grid):
    """Per-record loop; records are valid and inside the grid.  The causes are 1 .. the
    largest code (at least 1), each with its matrix, zero where it has no events."""
    rows = rows_of(table)
    Y = {ell: np.zeros((grid.n_u, grid.n_s))
         for ell in range(1, max([cause for *_, cause in rows] + [1]) + 1)}
    R = np.zeros((grid.n_u, grid.n_s))
    for _, u, s_entry, s_exit, cause in rows:
        j = oracle_row_index(u, grid)
        assert j >= 0
        if cause > 0:
            Y[cause][j, oracle_exit_col(s_exit, grid)] += 1.0
        overlap = np.minimum(s_exit, grid.s_edges[1:]) - np.maximum(s_entry, grid.s_edges[:-1])
        R[j, :] += np.maximum(overlap, 0.0)
    return Y, R


def oracle_at_risk(table, grid):
    n_u, n_s = grid.n_u, grid.n_s
    N = np.zeros((n_u, n_s + 1))
    entry_edges = grid.s_edges[:-1]
    top = grid.s_edges[-1]
    for _, u, s_entry, s_exit, cause in rows_of(table):
        j = int(np.floor((u - grid.u_edges[0]) / grid.h_u + 1e-12))
        j = min(j, n_u - 1)
        k_lo = np.searchsorted(entry_edges, s_entry, side="left")
        k_hi = np.searchsorted(entry_edges, s_exit, side="left")
        N[j, k_lo:k_hi] += 1.0
        if cause == 0 and s_exit >= top - 1e-12:
            N[j, n_s] += 1.0
    return N


GRIDS = [
    h.build_grid(50, 100, 1, 0, 10.5, 0.5),   # the analysis default
    h.build_grid(0, 3, 0.3, 0, 2.1, 0.3),      # edges that are not binary fractions
    h.build_grid(10, 12, 2, 0, 1, 1),          # one u-row, one s-bin
]


@st.composite
def record_tables(draw, grid, max_size):
    """Valid in-grid records, many of them exactly on bin edges."""
    u_lo, u_hi = float(grid.u_edges[0]), float(grid.u_edges[-1])
    s_lo, s_hi = float(grid.s_edges[0]), float(grid.s_edges[-1])
    u_edges = [float(e) for e in grid.u_edges if e > 0]
    s_edges = [float(e) for e in grid.s_edges]
    rows = []
    for i in range(draw(st.integers(min_value=1, max_value=max_size))):
        u = draw(st.one_of(st.sampled_from(u_edges + [u_hi, u_hi + 1e-13]),
                           st.floats(min_value=max(u_lo, 1e-9), max_value=u_hi)))
        s_entry = draw(st.one_of(st.just(s_lo), st.sampled_from(s_edges[:-1]),
                                 st.floats(min_value=s_lo, max_value=s_hi, exclude_max=True)))
        later = [e for e in s_edges if e > s_entry]
        s_exit = draw(st.one_of(st.sampled_from(later),
                                st.floats(min_value=s_entry, max_value=s_hi, exclude_min=True)))
        rows.append((f"r{i}", u, s_entry, s_exit, draw(st.integers(0, 4))))
    return table_of(rows)


# records per tallied block in the tests that fold a table's blocks
BLOCK = 8192


def block_tallies(table, grid, size):
    """The tallies of ``table``'s blocks of ``size`` records, in record order."""
    return [lexis._tally(h.RecordTable(*(getattr(table, name)[lo:lo + size] for name in FIELDS)),
                         grid) for lo in range(0, len(table), size)]


def assert_matches_oracle(table, grid, size=None):
    """``bin_records`` and ``at_risk_matrix`` of ``table``, or with ``size`` the fold of its
    blocks of ``size`` records, equal the per-record loops bit for bit."""
    def bins():
        if size is None:
            return h.bin_records(table, grid)
        return lexis._bins(block_tallies(table, grid, size), grid)

    at_risk = (at_risk_matrix(table, grid) if size is None
               else lexis._at_risk(block_tallies(table, grid, size), grid))
    assert np.array_equal(at_risk, oracle_at_risk(table, grid))
    Y, R = oracle_bin_records(table, grid)
    if len(Y) > max(sum(c > 0 for c in table.cause.tolist()), 1):   # a cause surely empty
        with pytest.raises(DataError, match=f"the largest cause code is {len(Y)}, "):
            bins()
        return
    binned = bins()
    assert list(binned.Y) == list(Y)
    for ell in Y:
        assert np.array_equal(binned.Y[ell], Y[ell])
    assert np.array_equal(binned.R, R)


@pytest.mark.parametrize("grid", GRIDS, ids=["default", "tenths", "single"])
@given(data=st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_small_chunks_match_per_record_loops(grid, data):
    # blocks of 5 records, so 1..30 records fall on both sides of a block boundary, folded in
    # record order as one table is
    table = data.draw(record_tables(grid, max_size=30))
    assert_matches_oracle(table, grid)
    assert_matches_oracle(table, grid, size=5)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_records_around_the_chunk_size_match_per_record_loops(offset):
    grid = GRIDS[0]
    n = BLOCK + offset
    rng = np.random.default_rng(n)
    u = np.where(rng.random(n) < 0.3, rng.integers(50, 101, n), rng.uniform(50, 100, n))
    s_entry = np.where(rng.random(n) < 0.8, 0.0, rng.integers(0, 20, n) * 0.5)
    on_edge = np.minimum(s_entry + rng.integers(1, 22, n) * 0.5, 10.5)
    s_exit = np.where(rng.random(n) < 0.4, on_edge, rng.uniform(s_entry, 10.5))
    s_exit = np.where(s_exit > s_entry, s_exit, 10.5)
    table = h.RecordTable([f"r{i}" for i in range(n)], u, s_entry, s_exit,
                          rng.integers(0, 3, n))
    assert_matches_oracle(table, grid)
    assert_matches_oracle(table, grid, size=BLOCK)


@given(rows=st.lists(st.tuples(
    st.text(alphabet="abc ,\"'\n-", min_size=1, max_size=6),
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e6),
    st.integers(0, 2),
), max_size=20))
@settings(max_examples=50, deadline=None)
def test_csv_round_trip_gives_back_the_table(rows, tmp_path_factory):
    rows = [r for r in rows if r[2] < r[3]]
    table = table_of(rows)
    path = tmp_path_factory.mktemp("rt") / "records.csv"
    h.write_records_csv(path, table)
    back = h.read_records_csv(path)
    for name in FIELDS:
        assert np.array_equal(getattr(back, name), getattr(table, name))
    assert rows_of(back) == rows


def test_validate_lists_every_invalid_record():
    # the table checks its records when it is built
    with pytest.raises(DataError) as err:
        table_of([
            ("neg-age", -1.0, 0.0, 1.0, 1),
            ("ok", 60.0, 0.0, 1.0, 1),
            ("backwards", 60.0, 2.0, 1.0, 0),
            ("bad-cause", 60.0, 0.0, 1.0, -1),
        ])
    assert err.value.details == ["neg-age", "backwards", "bad-cause"]
    message = str(err.value)
    assert "record 'neg-age': u must be positive and finite, got -1.0" in message
    assert "record 'backwards': need 0 <= s_entry < s_exit, got (2.0, 1.0)" in message
    assert "record 'bad-cause': cause must be 0 or positive, got -1" in message


def oracle_problem(rid, u, s_entry, s_exit, cause):
    """The per-record check of the earlier dataclass rows: the message for the first
    check the record fails, or None."""
    if not (u > 0 and math.isfinite(u)):
        return f"record {rid!r}: u must be positive and finite, got {u}"
    if not (0 <= s_entry < s_exit):
        return f"record {rid!r}: need 0 <= s_entry < s_exit, got ({s_entry}, {s_exit})"
    if cause < 0:
        return f"record {rid!r}: cause must be 0 or positive, got {cause}"
    return None


times = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, math.nan]),
                  st.floats(min_value=-2.0, max_value=3.0))


@given(rows=st.lists(st.tuples(st.text(max_size=4),
                               st.one_of(times, st.sampled_from([1e-300, -math.inf])),
                               times, times, st.integers(-2, 4)),
                     max_size=30))
@settings(max_examples=200, deadline=None)
def test_a_table_builds_exactly_when_the_column_check_finds_no_problem(rows):
    ids = np.asarray([r[0] for r in rows], dtype=object)
    u, s_entry, s_exit, cause = (np.asarray([r[k] for r in rows], dtype=dtype) for k, dtype in
                                 ((1, np.float64), (2, np.float64), (3, np.float64),
                                  (4, np.int64)))
    problems = lexis._problems(ids, u, s_entry, s_exit, cause)
    expected = [(i, m) for i, m in enumerate(oracle_problem(*r) for r in rows) if m]
    assert problems == expected
    if not problems:
        assert rows_of(table_of(rows)) == rows
        return
    with pytest.raises(DataError) as err:
        table_of(rows)
    messages = [m for _, m in expected]
    more = f" (+{len(messages) - 20} more)" if len(messages) > 20 else ""
    assert str(err.value) == (f"{len(messages)} invalid record(s): "
                              + "; ".join(messages[:20]) + more)
    assert err.value.details == [rows[i][0] for i, _ in expected]


def test_reader_reports_parse_and_validation_errors_in_line_order(tmp_path):
    path = tmp_path / "cohort.csv"
    path.write_text("id,u,s_entry,s_exit,cause\n"
                    "a,55.0,0,2.0,1\n"
                    "b,56.0,3.0,2.0,1\n"
                    "\n"
                    "c,oops,0,2.0,1\n"
                    "d,57.0,0,2.0,-9\n"
                    "e,58.0,0,2.0,99999999999999999999\n"
                    "f,59.0\n")
    with pytest.raises(DataError) as err:
        h.read_records_csv(path)
    rows = [d.split(":")[0] for d in err.value.details]
    assert rows == ["row 3", "row 5", "row 6", "row 7", "row 8"]
    assert err.value.details[-1] == "row 8: 2 field(s), the header has 5"
    assert "record 'b': need 0 <= s_entry < s_exit" in err.value.details[0]


@pytest.mark.parametrize("grid", [GRIDS[0], h.build_grid(50, 52, 0.25, 0, 1, 0.5)],
                         ids=["default", "quarter-years"])
@pytest.mark.parametrize("cause", [0, 1, 2])
def test_age_just_below_the_lowest_edge_is_outside_the_grid(grid, cause):
    # within the edge slack, but floored to row -1: the per-record code refused it
    u = float(grid.u_edges[0]) - 1e-12
    assert oracle_row_index(u, grid) == -1
    records = table_of([("ok", float(grid.u_edges[1]), 0.0, 1.0, 1),
                        ("low", u, 0.0, 1.0, cause)])
    for stage in (h.bin_records, at_risk_matrix):
        with pytest.raises(DataError) as err:
            stage(records, grid)
        assert err.value.details == ["low"]


def test_long_ids_are_kept_whole(tmp_path):
    ids = ["x" * 100_000, "b", "nul\x00"]
    table = h.RecordTable(ids, [60.0] * 3, [0.0] * 3, [1.0] * 3, [0, 1, 2])
    # object column: no entry is padded to the longest id
    assert table.id.dtype == object
    assert table.id.tolist() == ids
    path = tmp_path / "records.csv"
    h.write_records_csv(path, table_of(rows_of(table)[:2]))
    assert h.read_records_csv(path).id.tolist() == ids[:2]


def test_unconvertible_values_are_data_errors_naming_the_record():
    # a cause beyond int64 and a non-numeric age: the reader reports these as
    # bad rows, and building a table from library values names the record too
    with pytest.raises(DataError) as err:
        table_of([("ok", 60.0, 0.0, 1.0, 1), ("a", 60.0, 0.0, 1.0, 10**20)])
    assert err.value.details == ["a"]
    assert "record 'a': cause" in str(err.value)
    with pytest.raises(DataError) as err:
        h.RecordTable(["x", "y"], ["abc", 61.0], [0.0, 0.0], [1.0, 1.0], [1, 2])
    assert err.value.details == ["x"]
    assert "record 'x': u" in str(err.value)


@pytest.mark.parametrize("cause,bad", [([1.5, 2.9], "'a': cause is not int64, got 1.5"),
                                       ([1, 2.9], "'b': cause is not int64, got 2.9"),
                                       (np.array([1.0, 2.9]), "'b': cause is not int64, got 2.9"),
                                       (np.array([1.0, np.nan]), "'b': cause is not int64, got nan"),
                                       (np.array([2, 2**63], dtype=np.uint64),
                                        f"'b': cause is not int64, got {2**63}")],
                         ids=["floats", "int-and-float", "array", "nan", "uint64"])
def test_a_cause_that_changes_in_conversion_is_refused(cause, bad):
    # a value np.int64 would truncate (2.9 to 2) or wrap is refused, not converted
    with pytest.raises(DataError) as err:
        h.RecordTable(["a", "b"], [60.0, 61.0], [0.0, 0.0], [1.0, 2.0], cause)
    assert str(err.value) == f"record {bad}"
    assert err.value.details == [bad[1]]


def test_integral_float_causes_are_kept():
    table = h.RecordTable(["a", "b"], [60.0, 61.0], [0.0, 0.0], [1.0, 2.0], [1.0, np.float32(2)])
    assert table.cause.dtype == np.int64 and table.cause.tolist() == [1, 2]
