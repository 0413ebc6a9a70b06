"""The records CSV tallied in byte blocks against the table it would be read into.

``lexis.tally_records`` cuts a records CSV into byte blocks, tallies each block (on
``cli._lane_results``' lanes in ``fit`` and ``ungroup``) and folds the tallies in record order,
each as it arrives.  A block that the tally declines raises ``lexis._Declined`` through the
runner, which stops its lane and reaps every worker, and the file is read sequentially.
Whatever the block size and the number of lanes, it gives the bits of ``bin_records`` and
``at_risk_matrix`` of ``read_records_csv``, or raises the same ``DataError``; the commands
write the same bytes and refuse a file with the same message and exit code.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from test_csv_readers import numbers, record_files, write

import hazard2ts as h
from hazard2ts import cli, lexis
from hazard2ts.errors import DataError
from hazard2ts.simulate import at_risk_matrix

# one grid holds every record the strategy draws, the other leaves some outside
GRIDS = [h.build_grid(0, 120, 7.5, 0, 20, 1.25), h.build_grid(20, 110, 10, 0, 15, 2.5)]


def outcome(tally):
    """The bytes of the count, exposure and at-risk matrices ``tally()`` gives, or its
    DataError text and details."""
    try:
        binned, N = tally()
    except DataError as exc:
        return "DataError", str(exc), exc.details
    return ([(ell, Y.tobytes()) for ell, Y in binned.Y.items()], binned.R.tobytes(),
            binned.R.flags.c_contiguous, N.tobytes())


def table_path(path, grid):
    table = h.read_records_csv(path)
    return h.bin_records(table, grid), at_risk_matrix(table, grid)


def on_lanes(monkeypatch, block, cpus):
    """Blocks of ``block`` bytes on ``cpus`` lanes (``cli._lane_results``)."""
    monkeypatch.setattr(lexis, "_BLOCK_BYTES", block)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


# fields that the blocks refuse or read otherwise, with no quote or comma
odd_fields = st.sampled_from(["", " ", "nan", "-inf", "oops", "-1", "3", "7", "1.0", "-0",
                              "99999999999999999999", "1e400", "0x1p3"])


@st.composite
def plain_record_files(draw):
    """Records CSVs with no quote, which the blocks tally themselves: LF or CRLF ends, blank
    lines, and now and then an odd field or a short row."""
    names = ["id", "u", "s_exit", "cause"] + draw(st.sampled_from(
        [[], ["s_entry"], ["note", "s_entry"]]))
    header = draw(st.permutations(names))
    fields = {"id": st.text(alphabet="ab1 -.#\té", max_size=6), "u": numbers(1e-3, 120.0),
              "s_entry": st.one_of(st.just("0"), numbers(0.0, 0.4)),
              "s_exit": numbers(0.5, 20.0), "cause": st.integers(0, 2).map(str),
              "note": st.text(alphabet="xy ", max_size=3)}
    odd = draw(st.integers(0, 3)) == 0
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["row"] * 12 + ["blank"] + (["short"] if odd else [])))
        row = [draw(odd_fields if odd and draw(st.integers(0, 19)) == 0 else fields[name])
               for name in header]
        lines.append("" if kind == "blank" else ",".join(row[:-1] if kind == "short" else row))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(record_files(), plain_record_files()), grid=st.sampled_from(GRIDS),
       cpus=st.sampled_from([1, 3]),
       block=st.one_of(st.integers(1, 80), st.just(lexis._BLOCK_BYTES)))
def test_csv_tally_equals_the_table_path(text, grid, cpus, block, tmp_path_factory):
    path = write(tmp_path_factory, text)
    with pytest.MonkeyPatch.context() as mp:
        on_lanes(mp, block, cpus)
        blocks = outcome(lambda: lexis.tally_records(path, grid, cli._lane_results))
    assert blocks == outcome(lambda: table_path(path, grid))


def test_blocks_end_after_a_line_feed_and_tile_the_data(tmp_path, monkeypatch):
    path = tmp_path / "records.csv"
    rows = [f"r{i},{50 + i % 40},0,{1 + i % 9},{i % 3}" for i in range(200)]
    path.write_bytes(("id,u,s_entry,s_exit,cause\r\n" + "\r\n".join(rows)).encode())
    data = path.read_bytes()
    monkeypatch.setattr(lexis, "_BLOCK_BYTES", 100)
    col, cuts = lexis._record_blocks(path)
    assert col == {"id": 0, "u": 1, "s_entry": 2, "s_exit": 3, "cause": 4}
    assert cuts[0][0] == len(b"id,u,s_entry,s_exit,cause\r\n") and cuts[-1][1] == len(data)
    assert all(stop == start for (_, stop), (start, _) in zip(cuts, cuts[1:]))
    for start, stop in cuts[:-1]:
        assert stop - start >= 100 and data[stop - 1:stop] == b"\n"
        assert b"\n" not in data[start + 99:stop - 1]     # the first line feed past 100 bytes


def record_blocks_in_a_fresh_process(path):
    """The growth of the peak memory, in KiB, of a fresh process running
    ``lexis._record_blocks(path)``, and its number of blocks (None where it declines).  The
    peak is the process's own VmHWM: its ru_maxrss would start at this test runner's, which
    Linux carries over into a child's exec."""
    if not Path("/proc/self/status").exists():
        pytest.skip("no /proc/self/status to read the peak memory from")
    src = str(Path(h.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys\n"
            "from hazard2ts import lexis\n"
            "def peak_kib():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return int(next(line for line in fh if line.startswith('VmHWM')).split()[1])\n"
            "before = peak_kib()\n"
            "blocks = lexis._record_blocks(sys.argv[1])\n"
            "print(peak_kib() - before, None if blocks is None else len(blocks[1]))\n")
    out = subprocess.run([sys.executable, "-c", code, str(path)], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    grown_kib, n_blocks = out.stdout.split()
    return int(grown_kib), None if n_blocks == "None" else int(n_blocks)


def test_cutting_a_large_file_reads_only_around_the_cuts(tmp_path):
    """Cutting a 36 MiB records file raises the peak memory of a fresh process by under 8 MB:
    the file is neither mapped nor read whole to find the cuts."""
    path = tmp_path / "records.csv"
    path.write_bytes(b"id,u,s_entry,s_exit,cause\n" + b"r,60.5,0,1.25,1\n" * (36 << 16))
    grown_kib, n_blocks = record_blocks_in_a_fresh_process(path)
    assert n_blocks == 36
    assert grown_kib < 8000


def test_a_file_with_no_line_feed_is_declined_from_a_bounded_header_read(tmp_path):
    """A 36 MiB records file with CR-only line ends is declined after reading at most
    _HEADER_BYTES of it as its header line, not read whole: the peak memory of a fresh process
    grows by under 8 MB."""
    path = tmp_path / "records.csv"
    path.write_bytes(b"id,u,s_entry,s_exit,cause\r" + b"r,60.5,0,1.25,1\r" * (36 << 16))
    grown_kib, n_blocks = record_blocks_in_a_fresh_process(path)
    assert n_blocks is None
    assert grown_kib < 8000


def test_a_row_short_of_its_last_field_declines_its_block_where_that_is_the_id(tmp_path):
    """The blocks read no id text, but a row that lacks the id field, the header's last,
    declines its block as a row short of any other field does; the sequential read names it."""
    path = tmp_path / "records.csv"
    path.write_bytes(b"u,s_entry,s_exit,cause,id\n60.5,0,1.25,1,a\n61,0,2,0\n")
    col, cuts = lexis._record_blocks(path)
    assert len(cuts) == 1
    with pytest.raises(lexis._Declined):
        lexis._tally_block(path, *cuts[0], col, GRIDS[0])
    with pytest.raises(DataError, match="row 3: 4 field"):
        lexis.tally_records(path, GRIDS[0], cli._lane_results)


@pytest.mark.parametrize("head", [b'"id",u,s_entry,s_exit,cause\n', b"id,u,s_entry,s_exit\n",
                                  b"id,u\rs_entry,s_exit,cause\n", b"", b"\xffid,u\n"],
                         ids=["quoted", "no-cause", "lone-cr", "empty", "bad-bytes"])
def test_a_header_the_blocks_cannot_take_is_read_sequentially(tmp_path, head):
    path = tmp_path / "records.csv"
    path.write_bytes(head + b"a,60,0,1,1\n")
    assert lexis._record_blocks(path) is None


# --------------------------------------------------------------------------
# the commands

FAST = {"grid": {"u_lo": 50, "u_hi": 100, "h_u": 2.0, "s_lo": 0, "s_hi": 10.5, "h_s": 1.5},
        "basis": {"c_u": 8, "c_s": 6, "degree": 3},
        "selection": {"log10_rho_u_range": [1.0, 5.0], "log10_rho_s_range": [1.0, 5.0],
                      "coarse_step": 2.0},
        "pclm": {"log10_phi_lo": 0.0, "log10_phi_hi": 2.0, "log10_phi_step": 1.0}}


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    path = tmp_path_factory.mktemp("blocks") / "config.yaml"
    path.write_text(yaml.safe_dump(FAST))
    return path


@pytest.fixture(scope="module")
def rows():
    """The data lines of a simulated cohort as ``write_records_csv`` writes them (CRLF)."""
    spec = h.ScenarioSpec(hazards=(h.hazard_family("constant", level=0.1),
                                   h.hazard_family("constant", level=0.05)),
                          u_lo=50.0, u_hi=100.0, s_max=10.5, n=400, seed=3)
    table = h.simulate_cohort(spec)
    return [f"{rid},{u!r},{a!r},{b!r},{c}" for rid, u, a, b, c in zip(
        *(getattr(table, name).tolist() for name in ("id", "u", "s_entry", "s_exit", "cause")))]


HEADER = "id,u,s_entry,s_exit,cause"
CASES = {
    "plain": lambda rows: rows,
    "bad-row-first": lambda rows: ["x,55,0,notanumber,1"] + rows,
    "bad-row-last": lambda rows: rows + ["x,55,0,notanumber,1"],
    "invalid-first": lambda rows: ["bad,56.0,3.0,2.0,1"] + rows,
    "invalid-last": lambda rows: rows + ["bad,56.0,3.0,2.0,1"],
    "outside-first": lambda rows: ["old,120.5,0,1.0,1"] + rows,
    "outside-last": lambda rows: rows + ["old,120.5,0,1.0,1", "young,20,0,11.0,0"],
    "far-outside": lambda rows: rows[:10] + ["far,1e300,0,1.0,1"] + rows[10:],
    "quoted-id": lambda rows: rows[:200] + ['"a,b\r\nc",60.5,0,1.25,1'] + rows[200:],
    "header-only": lambda rows: [],
    "causes-past-events": lambda rows: [row.rsplit(",", 1)[0] + ",0" for row in rows[1:]]
    + [rows[0].rsplit(",", 1)[0] + ",5"],
}


def run(command, path, config, out):
    result = CliRunner().invoke(cli.main, [command, str(path), "--config", str(config),
                                           "--out", str(out)])
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()} if out.exists() else None
    return result.exit_code, result.output, files


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("command", ["fit", "ungroup"])
def test_commands_on_blocks_give_the_sequential_bytes_and_refusals(
        command, case, rows, config, tmp_path, monkeypatch):
    path = tmp_path / "records.csv"
    path.write_bytes(("\r\n".join([HEADER] + CASES[case](rows)) + "\r\n").encode())
    with pytest.MonkeyPatch.context() as mp:   # the whole file in one sequential pass
        mp.setattr(lexis, "_record_blocks", lambda path: None)
        code, output, files = run(command, path, config, tmp_path / "sequential")
    assert code in (0, 2), output
    assert (code == 0) == (case in ("plain", "quoted-id")), output
    for cpus in (1, 3):
        on_lanes(monkeypatch, 120, cpus)       # two or three rows a block
        assert run(command, path, config, tmp_path / f"blocks{cpus}") == (code, output, files)
    with pytest.raises(ChildProcessError):     # every lane reaped, a declined block's included
        os.waitpid(-1, os.WNOHANG)


def test_a_file_without_quotes_is_tallied_without_a_table(rows, config, tmp_path, monkeypatch):
    path = tmp_path / "records.csv"
    path.write_bytes(("\r\n".join([HEADER] + rows) + "\r\n").encode())

    def no_table(*args):
        raise AssertionError("the file was read into one table")

    monkeypatch.setattr(lexis, "read_records_csv", no_table)
    on_lanes(monkeypatch, 500, 3)
    binned, N = lexis.tally_records(path, h.build_grid(50, 100, 2, 0, 10.5, 1.5),
                                    cli._lane_results)
    assert sum(Y.sum() for Y in binned.Y.values()) + N[:, -1].sum() == len(rows)
