import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hazard2ts as h
from hazard2ts import lexis
from hazard2ts.errors import DataError


def rec(id="r0", u=52.3, s_entry=0.0, s_exit=1.2, cause=1):
    """One record as a row: (id, u, s_entry, s_exit, cause)."""
    return (id, u, s_entry, s_exit, cause)


def table(*rows):
    return h.RecordTable(*zip(*rows))


class TestBuildGrid:
    def test_default_analysis_grid_is_50_by_21(self):
        grid = h.build_grid(50, 100, 1, 0, 10.5, 0.5)
        assert (grid.n_u, grid.n_s) == (50, 21)
        assert grid.h_u == 1.0 and grid.h_s == 0.5

    def test_single_bin(self):
        grid = h.build_grid(0, 1, 1, 0, 1, 1)
        assert (grid.n_u, grid.n_s) == (1, 1)

    def test_upper_edge_extension(self):
        grid = h.build_grid(50, 100.3, 1, 0, 10.5, 0.5)
        assert grid.n_u == 51
        assert grid.u_edges[-1] == 101.0

    def test_bad_widths(self):
        with pytest.raises(ValueError):
            h.build_grid(0, 1, 0, 0, 1, 1)
        with pytest.raises(ValueError):
            h.build_grid(0, 1, 1, 0, 1, -0.5)

    @pytest.mark.parametrize("args", [(50, float("inf"), 1, 0, 10, 0.5),
                                      (50, 100, 1, float("-inf"), 10, 0.5),
                                      (50, 100, float("nan"), 0, 10, 0.5),
                                      (50, 100, 1, 0, 10, float("inf"))])
    def test_non_finite_bounds_or_widths(self, args):
        with pytest.raises(ValueError, match="finite"):   # not an OverflowError
            h.build_grid(*args)


class TestBinRecords:
    def test_single_record_events_and_exposure(self):
        grid = h.build_grid(50, 100, 1, 0, 10.5, 0.5)
        out = h.bin_records(table(rec()), grid)
        # u = 52.3 sits in the third age row, exit 1.2 in the third s-bin
        assert out.Y[1][2, 2] == 1.0
        assert list(out.Y) == [1] and out.Y[1].sum() == 1.0    # causes 1 .. the largest code
        expected_row = np.zeros(21)
        expected_row[:3] = [0.5, 0.5, 0.2]
        assert np.allclose(out.R[2], expected_row, atol=1e-12)
        assert np.all(out.R[[0, 1] + list(range(3, 50))] == 0.0)

    def test_censored_record_adds_no_events(self):
        grid = h.build_grid(50, 100, 1, 0, 10.5, 0.5)
        out = h.bin_records(table(rec(cause=0)), grid)
        assert list(out.Y) == [1] and out.Y[1].sum() == 0.0    # at least cause 1
        assert out.R.sum() == pytest.approx(1.2, abs=1e-12)

    def test_causes_run_to_the_largest_code(self):
        """Causes 1..L for the largest code L, each with its matrix: a cause below L without
        events is binned as zeros (the fit refuses it)."""
        grid = h.build_grid(50, 100, 1, 0, 10.5, 0.5)
        out = h.bin_records(table(rec(cause=0), *(rec(id=f"r{i}", cause=3) for i in (1, 2, 3))),
                            grid)
        assert list(out.Y) == [1, 2, 3]
        assert out.Y[1].sum() == out.Y[2].sum() == 0.0
        assert out.Y[3][2, 2] == 3.0 and out.Y[3].sum() == 3.0

    def test_more_causes_than_events_are_refused(self):
        """A largest code above the number of events leaves a cause without events for sure:
        refused before one count matrix per code is built (a column of ids read as causes)."""
        grid = h.build_grid(50, 100, 1, 0, 10.5, 0.5)
        with pytest.raises(DataError, match="the largest cause code is 3, but 2 record"):
            h.bin_records(table(rec(cause=0), rec(id="r1", cause=3), rec(id="r2", cause=1)),
                          grid)
        with pytest.raises(DataError, match="largest cause code is 123456789, but 1 record"):
            h.bin_records(table(rec(cause=123456789)), grid)

    def test_exit_on_edge_goes_below(self):
        grid = h.build_grid(50, 100, 1, 0, 10.5, 0.5)
        out = h.bin_records(table(rec(s_exit=1.0)), grid)
        assert out.Y[1][2, 1] == 1.0  # bin [0.5, 1.0), not [1.0, 1.5)

    def test_u_on_edge_goes_above_except_top(self):
        grid = h.build_grid(50, 100, 1, 0, 10.5, 0.5)
        out = h.bin_records(table(rec(u=52.0), rec(id="r1", u=100.0)), grid)
        assert out.R[2].sum() > 0       # 52.0 -> [52, 53)
        assert out.R[49].sum() > 0      # 100.0 -> top bin [99, 100]

    def test_exposure_conservation_against_direct_sum(self, constant_cohort, default_grid):
        # oracle: direct summation of follow-up over the records
        first = h.RecordTable(*(getattr(constant_cohort, name)[:1000] for name in
                                ("id", "u", "s_entry", "s_exit", "cause")))
        out = h.bin_records(first, default_grid)
        total = sum((first.s_exit - first.s_entry).tolist())
        assert out.R.sum() == pytest.approx(total, abs=1e-9)
        for ell in (1, 2):
            assert out.Y[ell].sum() == np.count_nonzero(first.cause == ell)

    def test_event_implies_exposure(self, constant_binned):
        for ell in (1, 2):
            assert np.all(constant_binned.R[constant_binned.Y[ell] > 0] > 0)

    def test_out_of_grid_lists_ids(self):
        grid = h.build_grid(50, 100, 1, 0, 10.5, 0.5)
        bad = table(rec(id="too-young", u=30.0), rec(id="ok", u=60.0),
                    rec(id="too-long", s_exit=11.0))
        with pytest.raises(DataError) as err:
            h.bin_records(bad, grid)
        assert set(err.value.details) == {"too-young", "too-long"}

    def test_invalid_record_fields(self):
        # refused where the table is built, before any binning
        with pytest.raises(DataError, match="need 0 <= s_entry < s_exit"):
            table(rec(s_entry=2.0, s_exit=1.0))
        with pytest.raises(DataError, match="cause must be 0 or positive, got -1"):
            table(rec(cause=-1))

    @given(shift=st.integers(min_value=0, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_translation_equivariance_on_exact_bins(self, shift):
        # shifting s_entry/s_exit by multiples of h_s shifts the columns
        grid = h.build_grid(0, 10, 1, 0, 20, 0.5)
        rows = [rec(id="a", u=4.2, s_entry=0.0, s_exit=2.0, cause=1),
                rec(id="b", u=4.7, s_entry=0.5, s_exit=3.25, cause=2)]
        base = table(*rows)
        moved = table(*((rid, u, s_entry + shift * 0.5, s_exit + shift * 0.5, cause)
                        for rid, u, s_entry, s_exit, cause in rows))
        out0 = h.bin_records(base, grid)
        out1 = h.bin_records(moved, grid)
        n = grid.n_s - shift
        for ell in (1, 2):
            assert np.allclose(out1.Y[ell][:, shift:], out0.Y[ell][:, :n])
        assert np.allclose(out1.R[:, shift:], out0.R[:, :n], atol=1e-12)

    @given(u=st.floats(min_value=50.0, max_value=100.0),
           s_exit=st.floats(min_value=0.01, max_value=10.5))
    @settings(max_examples=50, deadline=None)
    def test_single_row_occupancy(self, u, s_exit):
        grid = h.build_grid(50, 100, 1, 0, 10.5, 0.5)
        out = h.bin_records(table(rec(u=u, s_exit=s_exit)), grid)
        assert (out.R.sum(axis=1) > 0).sum() == 1


class TestCsvIO:
    def test_round_trip(self, tmp_path):
        rows = [rec(), rec(id="r1", u=60.0, s_exit=3.0, cause=0)]
        path = tmp_path / "cohort.csv"
        h.write_records_csv(path, table(*rows))
        back = h.read_records_csv(path)
        assert list(zip(back.id.tolist(), back.u.tolist(), back.s_entry.tolist(),
                        back.s_exit.tolist(), back.cause.tolist())) == rows

    @settings(max_examples=60, deadline=None)
    @given(ids=st.lists(st.one_of(
               st.sampled_from(["", ",", '"', "\r", "\n", "\r\n", 'a,"b"', "née", "日本",
                                "x y", " lead", "trail "]),
               st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                       max_size=6)), min_size=1, max_size=12),
           values=st.lists(st.tuples(st.floats(1e-300, 1e300), st.floats(0.0, 1e3),
                                     st.floats(1e-3, 1e3), st.sampled_from([0, 1, 2])),
                           min_size=12, max_size=12),
           rows=st.integers(1, 5))
    def test_writer_gives_the_bytes_of_csv_writer(self, tmp_path_factory, ids, values, rows):
        """Ids with commas, quotes, CR, LF, non-ASCII text or nothing at all, over blocks of
        any size: the bytes ``csv.writer`` writes, CRLF line ends and minimal quoting."""
        records = [(rid, u, entry, entry + length, cause)
                   for rid, (u, entry, length, cause) in zip(ids, values)]
        records = table(*records)
        path = tmp_path_factory.mktemp("records")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lexis, "_WRITE_ROWS", rows)
            h.write_records_csv(path / "fast.csv", records)
        with open(path / "csv.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "u", "s_entry", "s_exit", "cause"])
            writer.writerows((rid, f"{u:.17g}", f"{s_entry:.17g}", f"{s_exit:.17g}", cause)
                             for rid, u, s_entry, s_exit, cause in zip(
                                 records.id.tolist(), records.u.tolist(),
                                 records.s_entry.tolist(), records.s_exit.tolist(),
                                 records.cause.tolist()))
        assert (path / "fast.csv").read_bytes() == (path / "csv.csv").read_bytes()

    def test_missing_s_entry_is_zero(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text("id,u,s_entry,s_exit,cause\nx,55.0,,2.0,1\ny,56.0,0.5,2.5,0\n")
        back = h.read_records_csv(path)
        assert back.s_entry.tolist() == [0.0, 0.5]

    def test_bad_rows_reported_with_numbers(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text("id,u,s_entry,s_exit,cause\nx,55.0,0,2.0,1\ny,oops,0,2.5,0\n")
        with pytest.raises(DataError) as err:
            h.read_records_csv(path)
        assert any("row 3" in d for d in err.value.details)

    def test_row_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text("id,u,s_entry,s_exit,cause\nx,55.0,0,2.0,1\n\ny,oops,0,2.5,0\n")
        with pytest.raises(DataError) as err:
            h.read_records_csv(path)
        assert len(err.value.details) == 1 and err.value.details[0].startswith("row 4:")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text("subject,age\n1,2\n")
        with pytest.raises(DataError):
            h.read_records_csv(path)
