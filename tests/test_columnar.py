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


def oracle_bin_records(records, grid):
    """Per-record loop; records are valid and inside the grid."""
    Y = {ell: np.zeros((grid.n_u, grid.n_s)) for ell in (1, 2)}
    R = np.zeros((grid.n_u, grid.n_s))
    for rec in records:
        j = oracle_row_index(rec.u, grid)
        assert j >= 0
        if rec.cause in (1, 2):
            Y[rec.cause][j, oracle_exit_col(rec.s_exit, grid)] += 1.0
        overlap = np.minimum(rec.s_exit, grid.s_edges[1:]) - np.maximum(rec.s_entry, grid.s_edges[:-1])
        R[j, :] += np.maximum(overlap, 0.0)
    return Y, R


def oracle_at_risk(records, grid):
    n_u, n_s = grid.n_u, grid.n_s
    N = np.zeros((n_u, n_s + 1))
    entry_edges = grid.s_edges[:-1]
    top = grid.s_edges[-1]
    for rec in records:
        j = int(np.floor((rec.u - grid.u_edges[0]) / grid.h_u + 1e-12))
        j = min(j, n_u - 1)
        k_lo = np.searchsorted(entry_edges, rec.s_entry, side="left")
        k_hi = np.searchsorted(entry_edges, rec.s_exit, side="left")
        N[j, k_lo:k_hi] += 1.0
        if rec.cause == 0 and rec.s_exit >= top - 1e-12:
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
        rows.append(h.IndividualRecord(f"r{i}", u, s_entry, s_exit, draw(st.integers(0, 2))))
    return rows


def assert_matches_oracle(records, grid):
    binned = h.bin_records(records, grid)
    Y, R = oracle_bin_records(records, grid)
    for ell in (1, 2):
        assert np.array_equal(binned.Y[ell], Y[ell])
    assert np.array_equal(binned.R, R)
    assert np.array_equal(at_risk_matrix(records, grid), oracle_at_risk(records, grid))


@pytest.mark.parametrize("grid", GRIDS, ids=["default", "tenths", "single"])
@given(data=st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_small_chunks_match_per_record_loops(grid, data, monkeypatch):
    # chunks of 5 records, so 1..30 records fall on both sides of a chunk boundary
    monkeypatch.setattr(lexis, "_CHUNK", 5)
    assert_matches_oracle(data.draw(record_tables(grid, max_size=30)), grid)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_records_around_the_chunk_size_match_per_record_loops(offset):
    grid = GRIDS[0]
    n = lexis._CHUNK + offset
    rng = np.random.default_rng(n)
    u = np.where(rng.random(n) < 0.3, rng.integers(50, 101, n), rng.uniform(50, 100, n))
    s_entry = np.where(rng.random(n) < 0.8, 0.0, rng.integers(0, 20, n) * 0.5)
    on_edge = np.minimum(s_entry + rng.integers(1, 22, n) * 0.5, 10.5)
    s_exit = np.where(rng.random(n) < 0.4, on_edge, rng.uniform(s_entry, 10.5))
    s_exit = np.where(s_exit > s_entry, s_exit, 10.5)
    table = h.RecordTable([f"r{i}" for i in range(n)], u, s_entry, s_exit,
                          rng.integers(0, 3, n))
    assert_matches_oracle(table, grid)


@given(records=st.lists(st.builds(
    h.IndividualRecord,
    id=st.text(alphabet="abc ,\"'\n-", min_size=1, max_size=6),
    u=st.floats(min_value=1e-300, max_value=1e300),
    s_entry=st.floats(min_value=0.0, max_value=1e6),
    s_exit=st.floats(min_value=0.0, max_value=1e6),
    cause=st.integers(0, 2),
), max_size=20))
@settings(max_examples=50, deadline=None)
def test_csv_round_trip_gives_back_the_table(records, tmp_path_factory):
    records = [r for r in records if r.s_entry < r.s_exit]
    table = h.RecordTable.from_records(records)
    assert h.RecordTable.from_records(table) is table
    path = tmp_path_factory.mktemp("rt") / "records.csv"
    h.write_records_csv(path, table)
    back = h.read_records_csv(path)
    for name in ("id", "u", "s_entry", "s_exit", "cause"):
        assert np.array_equal(getattr(back, name), getattr(table, name))
    assert list(back) == records


def test_validate_lists_every_invalid_record():
    table = h.RecordTable.from_records([
        h.IndividualRecord("neg-age", -1.0, 0.0, 1.0, 1),
        h.IndividualRecord("ok", 60.0, 0.0, 1.0, 1),
        h.IndividualRecord("backwards", 60.0, 2.0, 1.0, 0),
        h.IndividualRecord("bad-cause", 60.0, 0.0, 1.0, 7),
    ])
    with pytest.raises(DataError) as err:
        table.validate()
    assert err.value.details == ["neg-age", "backwards", "bad-cause"]
    message = str(err.value)
    assert "record 'neg-age': u must be positive and finite, got -1.0" in message
    assert "record 'backwards': need 0 <= s_entry < s_exit, got (2.0, 1.0)" in message
    assert "record 'bad-cause': cause must be 0, 1 or 2, got 7" in message


def test_reader_reports_parse_and_validation_errors_in_line_order(tmp_path):
    path = tmp_path / "cohort.csv"
    path.write_text("id,u,s_entry,s_exit,cause\n"
                    "a,55.0,0,2.0,1\n"
                    "b,56.0,3.0,2.0,1\n"
                    "\n"
                    "c,oops,0,2.0,1\n"
                    "d,57.0,0,2.0,9\n"
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
    records = [h.IndividualRecord("ok", float(grid.u_edges[1]), 0.0, 1.0, 1),
               h.IndividualRecord("low", u, 0.0, 1.0, cause)]
    for stage in (h.bin_records, at_risk_matrix):
        with pytest.raises(DataError) as err:
            stage(records, grid)
        assert err.value.details == ["low"]


def test_long_ids_are_kept_whole(tmp_path):
    ids = ["x" * 100_000, "b", "nul\x00"]
    table = h.RecordTable(ids, [60.0] * 3, [0.0] * 3, [1.0] * 3, [0, 1, 2])
    # object column: no entry is padded to the longest id
    assert table.id.dtype == object
    assert [r.id for r in table] == ids
    path = tmp_path / "records.csv"
    h.write_records_csv(path, list(table)[:2])
    assert h.read_records_csv(path).id.tolist() == ids[:2]


def test_unconvertible_values_are_data_errors_naming_the_record():
    # a cause beyond int64 and a non-numeric age: the reader reports these as
    # bad rows, and building a table from library values names the record too
    with pytest.raises(DataError) as err:
        h.RecordTable.from_records([h.IndividualRecord("ok", 60.0, 0.0, 1.0, 1),
                                    h.IndividualRecord("a", 60.0, 0.0, 1.0, 10**20)])
    assert err.value.details == ["a"]
    assert "record 'a': cause" in str(err.value)
    with pytest.raises(DataError) as err:
        h.RecordTable(["x", "y"], ["abc", 61.0], [0.0, 0.0], [1.0, 1.0], [1, 2])
    assert err.value.details == ["x"]
    assert "record 'x': u" in str(err.value)
