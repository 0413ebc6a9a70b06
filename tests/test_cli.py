import csv
import dataclasses
import json
import math
import operator
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import hazard2ts as h
from hazard2ts import cli, floattext, lexis
from hazard2ts.cli import _write_table, load_config, main
from hazard2ts.errors import DataError
from hazard2ts.simulate import at_risk_matrix

CAUSES_1_TO_3 = ("n: 3000\nseed: 5\ncause1: {name: constant, level: 0.1}\n"
                 "cause2: {name: gompertz-in-u, level: 0.02, slope: 0.05, u_ref: 60}\n"
                 "cause3: {name: constant, level: 0.08}\n")

FAST_CONFIG = {
    "grid": {"u_lo": 50, "u_hi": 100, "h_u": 2.0, "s_lo": 0, "s_hi": 10.5, "h_s": 1.5},
    "basis": {"c_u": 8, "c_s": 6, "degree": 3},
    "selection": {
        "log10_rho_u_range": [1.0, 5.0],
        "log10_rho_s_range": [1.0, 5.0],
        "coarse_step": 2.0,
    },
}


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def cohort_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "cohort.csv"
    spec = h.ScenarioSpec(
        hazards=(h.hazard_family("constant", level=0.1),
                 h.hazard_family("constant", level=0.05)),
        u_lo=50.0, u_hi=100.0, s_max=10.5, n=3000, seed=7,
    )
    h.write_records_csv(path, h.simulate_cohort(spec))
    return path


@pytest.fixture(scope="module")
def config_yaml(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "config.yaml"
    path.write_text(yaml.safe_dump(FAST_CONFIG))
    return path


@pytest.fixture(scope="module")
def fit_outputs(runner, cohort_csv, config_yaml, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("cli") / "run"
    result = runner.invoke(main, ["fit", str(cohort_csv), "--config", str(config_yaml),
                                  "--out", str(outdir)])
    assert result.exit_code == 0, result.output
    return outdir


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy, click and yaml only; scipy serves the tests as an oracle,
    and yaml is imported only where a YAML file is read."""
    src = str(Path(h.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, hazard2ts.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'yaml', '_yaml')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


class TestConfig:
    def test_defaults_match_standard_setup(self):
        cfg = load_config(None)
        assert (cfg.grid.h_u, cfg.grid.h_s) == (1.0, 0.5)
        assert (cfg.basis.c_u, cfg.basis.c_s, cfg.basis.degree) == (16, 10, 3)
        assert cfg.d == 2 and cfg.selection.criterion == "BIC"
        assert (cfg.pclm.log10_phi_lo, cfg.pclm.log10_phi_hi) == (-1.0, 2.0)
        assert [len(a) for a in cfg.setup().phi_search.axes()] == [4, 4]

    def test_searches_default_to_the_library_searches(self):
        """The default config runs the library's default hazard and PCLM searches, whose
        values the config keys keep."""
        run = load_config(None).setup()
        assert run.search == h.SearchConfig() and run.phi_search == h.pclm.PHI_SEARCH
        sel = load_config(None).selection
        assert (sel.log10_rho_u_range, sel.log10_rho_s_range, sel.coarse_step) \
            == ((-2.0, 7.0), (-2.0, 7.0), 3.0)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("grid: {u_low: 10}\n")
        with pytest.raises(DataError, match="u_low"):
            load_config(path)

    def test_nested_override(self, tmp_path):
        path = tmp_path / "ok.yaml"
        path.write_text("grid: {h_u: 2.5}\nd: 3\n")
        cfg = load_config(path)
        assert cfg.grid.h_u == 2.5 and cfg.d == 3
        assert cfg.grid.h_s == 0.5  # untouched default

    @pytest.mark.parametrize("block", [
        {"selection": {"criterion": "GCV"}},
        {"selection": {"coarse_step": 0}},
        {"selection": {"refine_resolution": 0.0}},      # unknown: the pattern search is gone
        {"selection": {"log10_rho_u_range": [3.0, 1.0]}},
        {"pclm": {"log10_phi_step": 0}},
        {"pclm": {"log10_phi_step": "abc"}},
        {"pclm": {"log10_phi_lo": 2.0, "log10_phi_hi": 1.0}},
        # values of the wrong type, once TypeError tracebacks with exit 1
        {"grid": {"h_u": "abc"}},
        {"basis": {"c_u": "x"}},
        {"basis": {"degree": 2.5}},
        {"d": "two"},
        {"delta": "x"},
        {"seed": "x"},                          # seed and montecarlo: unknown keys since
        {"montecarlo": {"n_draws": "x"}},       # the CIF SEs are closed-form
        {"selection": {"log10_rho_s_range": [1.0, "x"]}},
        {"convergence": {"max_iter": True}},
        {"grid": 5},
        # out of range, once failing only after the smoothing search
        {"delta": 0},
        {"delta": -0.1},
        {"seed": -1},                           # unknown keys, as above
        {"montecarlo": {"n_draws": 1}},
        {"d": 0},
        # no grid or basis fits, once ValueError tracebacks (exit 1) after the whole read
        {"grid": {"h_u": 0}},
        {"grid": {"u_lo": 100.0}},
        {"basis": {"degree": -1}},
        {"basis": {"c_u": 3}},
        # unusable by the library objects, once a hang, a traceback (exit 1) or exit 3,
        # each only after the whole read
        {"selection": {"coarse_step": float("inf")}},
        {"selection": {"log10_rho_u_range": [0.0, 400.0]}},
        {"selection": {"log10_rho_u_range": [-float("inf"), 7.0]}},
        {"grid": {"u_hi": float("inf")}},
        {"d": 12},
        {"basis": {"c_s": 4}, "d": 4},
        {"convergence": {"max_iter": 0}},
        {"convergence": {"dev_rel_tol": -1.0}},
        {"pclm": {"enabled": True, "first_grouped_age": 90.5}},
        # 1,000,008 x 10 coarse candidates, more than max_evals: once a fit that did not end
        {"selection": {"log10_rho_u_range": [-1000000.0, 7.0]}},
        # 200,005 phi values per axis, more than max_evals candidates: once a fit that did not end
        {"pclm": {"enabled": True, "log10_phi_lo": -100000.0}},
        # phi = 0: an unpenalized composite link model cannot identify the tail rows
        {"pclm": {"log10_phi_lo": -math.inf, "log10_phi_hi": -math.inf}},
        # a pattern search that never ended, and an unknown key since that search is gone
        {"selection": {"refine_resolution": 1e-13}},
    ])
    def test_bad_search_settings_exit_2_before_reading_input(self, runner, tmp_path, block):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(block))
        with pytest.raises(DataError):
            load_config(path)
        # the input has a bad row too: the config error comes first
        bad = tmp_path / "bad.csv"
        bad.write_text("id,u,s_entry,s_exit,cause\nx,55,0,notanumber,1\n")
        for command in ("fit", "ungroup"):
            result = runner.invoke(main, [command, str(bad), "--config", str(path),
                                          "--out", str(tmp_path / "o")])
            assert result.exit_code == 2, result.output
            assert "row 2" not in result.output

    @pytest.mark.parametrize("value", [0.1, 0.0, 1e-13])
    def test_refine_resolution_is_an_unknown_key(self, runner, tmp_path, value):
        """The pattern search and its resolution are gone: the key is refused by name, once
        a value of 0 or 1e-13 refused as a hang and 0.1 the default."""
        path = tmp_path / "old.yaml"
        path.write_text(yaml.safe_dump({"selection": {"refine_resolution": value}}))
        with pytest.raises(DataError, match="unknown config key selection.'refine_resolution'"):
            load_config(path)
        bad = tmp_path / "bad.csv"
        bad.write_text("id,u,s_entry,s_exit,cause\nx,55,0,notanumber,1\n")
        for command in ("fit", "ungroup"):
            result = runner.invoke(main, [command, str(bad), "--config", str(path),
                                          "--out", str(tmp_path / "o")])
            assert result.exit_code == 2, result.output
            assert "unknown config key selection.'refine_resolution'" in result.output
            assert "row 2" not in result.output

    def test_ungroup_checks_the_grouped_band_before_reading_input(self, runner, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("pclm: {first_grouped_age: 90.5}\n")   # pclm.enabled stays false
        assert load_config(path).pclm.first_grouped_age == 90.5   # fit does not ungroup
        with pytest.raises(DataError, match="interior u-bin edge"):
            load_config(path, ungroup=True)
        bad = tmp_path / "bad.csv"
        bad.write_text("id,u,s_entry,s_exit,cause\nx,55,0,notanumber,1\n")
        result = runner.invoke(main, ["ungroup", str(bad), "--config", str(path),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert "interior u-bin edge" in result.output and "row 2" not in result.output

    @pytest.mark.parametrize("content", [b"grid: {u_lo: 50\n", b"grid:\n  h_u: 1\n h_s: 2\n",
                                         b"\xff\xfe\x00"], ids=["unclosed", "indent", "binary"])
    def test_config_that_does_not_parse_exits_2_before_reading_input(self, runner, tmp_path,
                                                                     content):
        """Once a YAML scanner or decoding traceback with exit 1."""
        path = tmp_path / "bad.yaml"
        path.write_bytes(content)
        bad = tmp_path / "bad.csv"
        bad.write_text("id,u,s_entry,s_exit,cause\nx,55,0,notanumber,1\n")
        for command in ("fit", "ungroup"):
            result = runner.invoke(main, [command, str(bad), "--config", str(path),
                                          "--out", str(tmp_path / "o")])
            assert result.exit_code == 2, result.output
            assert f"error: {path}: not a YAML document" in result.output
            assert "row 2" not in result.output

    @pytest.mark.parametrize("text", ["[]\n", "0\n", "false\n", "''\n", "[1]\n"],
                             ids=["empty-list", "zero", "false", "empty-string", "list"])
    @pytest.mark.parametrize("command", ["fit", "ungroup"])
    def test_config_that_is_no_mapping_exits_2_before_reading_input(self, runner, tmp_path,
                                                                     command, text):
        """A falsy document once ran with the defaults, where ``[1]`` was refused."""
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        bad = tmp_path / "bad.csv"
        bad.write_text("id,u,s_entry,s_exit,cause\nx,55,0,notanumber,1\n")
        result = runner.invoke(main, [command, str(bad), "--config", str(path),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert f"error: {path}: config must be a mapping" in result.output
        assert "row 2" not in result.output

    @pytest.mark.parametrize("text", ["", "# nothing\n", "~\n"], ids=["empty", "comment", "null"])
    def test_empty_config_runs_with_the_defaults(self, tmp_path, text):
        path = tmp_path / "empty.yaml"
        path.write_text(text)
        assert load_config(path) == cli.RunConfig()

    def test_seed_is_no_option_and_draws_is_hidden_and_ignored(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,u,s_entry,s_exit,cause\nx,55,0,notanumber,1\n")
        result = runner.invoke(main, ["fit", str(bad), "--out", str(tmp_path / "o"),
                                      "--seed", "5"])
        assert result.exit_code == 2 and "No such option" in result.output
        assert "--seed" in result.output and "row 2" not in result.output
        for value in ("0", "-1", "1000"):       # read, and the input refused as without it
            result = runner.invoke(main, ["fit", str(bad), "--out", str(tmp_path / "o"),
                                          "--draws", value])
            assert result.exit_code == 2 and "row 2" in result.output, result.output
        assert "--draws" not in runner.invoke(main, ["fit", "--help"]).output

    def test_phi_grid_is_capped_at_max_evals_candidates(self, tmp_path):
        path = tmp_path / "phi.yaml"
        step = "log10_phi_step: 0.5"
        path.write_text(f"pclm: {{log10_phi_lo: 0.0, log10_phi_hi: 9.5, {step}}}\n")   # 20 x 20
        assert [len(a) for a in load_config(path).setup().phi_search.axes()] == [20, 20]
        path.write_text(f"pclm: {{log10_phi_lo: 0.0, log10_phi_hi: 10.0, {step}}}\n")
        with pytest.raises(DataError, match="441 candidates"):
            load_config(path)

    def test_closing_age_is_an_unknown_key(self, tmp_path):
        """The grouped tail closes at grid.u_hi, once also a key whose one legal value that
        was: the key is refused by name, as every unknown key is."""
        path = tmp_path / "bad.yaml"
        for value in (95, 100):
            path.write_text(f"pclm: {{enabled: true, closing_age: {value}}}\n")
            with pytest.raises(DataError, match="unknown config key pclm.'closing_age'"):
                load_config(path)


class TestTableWriter:
    @pytest.mark.parametrize("with_flags", [True, False])
    def test_bytes_match_per_field_format(self, tmp_path, with_flags):
        rng = np.random.default_rng(21)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                            1e308, 2.2250738585072014e-308, 0.1, 1 / 3, 123456789012345678.0])
        bits = rng.integers(0, 2**63, size=3000, dtype=np.int64).view(np.float64)
        values = np.concatenate([special, bits, rng.standard_normal(1000)])
        columns = [values, values[::-1], 10.0 ** rng.uniform(-310, 308, values.size)]
        flags = rng.random(values.size) < 0.5 if with_flags else None
        path = tmp_path / "t.csv"
        _write_table(path, ["a", "b", "c"] + (["f"] if with_flags else []), columns, flags)

        lines = ["a,b,c" + (",f" if with_flags else "")]
        for i in range(values.size):
            row = ["{:.17g}".format(float(col[i])) for col in columns]
            if with_flags:
                row.append("true" if flags[i] else "false")
            lines.append(",".join(row))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


    @pytest.mark.parametrize("cpus", [{0}, {0, 1, 2}])
    @pytest.mark.parametrize("n_rows", [0, 1, 99, 100, 101, 1001])
    def test_hundred_row_blocks_give_the_bytes_of_one_block(self, tmp_path, monkeypatch, cpus,
                                                           n_rows):
        """Rows are formatted 100 at a time on threads of this process, with one CPU or
        several, and written in order: the bytes of one block, and no worker pool."""
        rng = np.random.default_rng(n_rows)
        columns = [rng.standard_normal(n_rows), 10.0 ** rng.uniform(-310, 308, n_rows)]
        flags = rng.random(n_rows) < 0.5
        whole = tmp_path / "whole.csv"
        _write_table(whole, ["a", "b", "f"], columns, flags)
        blocks_formatted = []
        format_rows = floattext.format_rows
        monkeypatch.setattr(floattext, "format_rows", lambda *args: blocks_formatted.append(1)
                            or format_rows(*args))
        monkeypatch.setattr(cli, "_run_tasks", lambda tasks: pytest.fail("a pool was started"))
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 100)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        blocks = tmp_path / "blocks.csv"
        _write_table(blocks, ["a", "b", "f"], columns, flags)
        assert blocks.read_bytes() == whole.read_bytes()
        assert len(whole.read_text().splitlines()) == n_rows + 1
        assert len(blocks_formatted) == math.ceil(n_rows / 100)


def _pool_modules_after(args):
    """The multiprocessing and concurrent modules loaded by the end of a command run in a
    fresh interpreter."""
    src = str(Path(h.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys; from hazard2ts.cli import main; main(sys.argv[1:], standalone_mode=False);"
            " print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_predict_loads_no_multiprocessing(fit_outputs, tmp_path):
    """A predict table of several blocks is formatted in this process: the command never
    imports multiprocessing, so it can start no worker pool."""
    rng = np.random.default_rng(5)
    n = 2 * cli._BLOCK_ROWS + 1
    points = tmp_path / "points.csv"
    np.savetxt(points, np.column_stack([rng.uniform(51, 99, n), rng.uniform(0.1, 10, n)]),
               delimiter=",", header="u,s", comments="")
    assert _pool_modules_after(["predict", "--model", fit_outputs / "model.json", "--points",
                                points, "--out", tmp_path / "pred.csv"]) == "[]"
    assert len((tmp_path / "pred.csv").read_text().splitlines()) == n + 1


@pytest.mark.parametrize("pclm", [False, True])
def test_fit_loads_no_multiprocessing(grouped_csv, tmp_path, pclm):
    """The searches of a fit, with and without PCLM, run on forked lanes with no pool
    module loaded."""
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({**FAST_CONFIG, "pclm": {"enabled": pclm,
                                                           "log10_phi_step": 1.0}}))
    out = tmp_path / "fit"
    assert _pool_modules_after(["fit", grouped_csv, "--config", path, "--out", out]) == "[]"
    assert (out / "model.json").is_file()


def test_commands_leave_no_thread_running(fit_outputs, cohort_csv, config_yaml, tmp_path,
                                          monkeypatch):
    """Every thread of the evaluation and the table writer has ended when a command returns,
    and none is alive when the worker pool forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    threads = threading.active_count()
    run_tasks = cli._run_tasks
    monkeypatch.setattr(cli, "_run_tasks", lambda tasks: pytest.fail("a thread is alive")
                        if threading.active_count() != threads else run_tasks(tasks))
    rng = np.random.default_rng(6)
    n = 3 * cli._BLOCK_ROWS + 1
    points = tmp_path / "points.csv"
    np.savetxt(points, np.column_stack([rng.uniform(51, 99, n), rng.uniform(0.1, 10, n)]),
               delimiter=",", header="u,s", comments="")
    cli.run_predict_pipeline(fit_outputs / "model.json", points, "us", tmp_path / "pred.csv")
    assert threading.active_count() == threads
    cli.run_fit_pipeline(load_config(config_yaml), h.read_records_csv(cohort_csv),
                         tmp_path / "fit")
    assert threading.active_count() == threads


class TestFit:
    def test_artifacts_exist(self, fit_outputs):
        for ell in (1, 2):
            sub = fit_outputs / f"cause{ell}"
            for name in ("hazard.csv", "log_hazard_se.csv", "cumhaz.csv",
                         "cif.csv", "cif_se.csv"):
                assert (sub / name).exists()
        assert (fit_outputs / "survival.csv").exists()
        assert (fit_outputs / "fit_summary.json").exists()
        assert (fit_outputs / "model.json").exists()

    def test_summary_schema(self, fit_outputs):
        summary = json.loads((fit_outputs / "fit_summary.json").read_text())
        for ell in ("1", "2"):
            block = summary["causes"][ell]
            for key in ("log10_rho_u", "log10_rho_s", "ed", "deviance",
                        "aic", "bic", "n_bin", "iterations"):
                assert key in block
            for axis in ("u", "s"):
                lo, hi = FAST_CONFIG["selection"][f"log10_rho_{axis}_range"]
                value = block[f"log10_rho_{axis}"]
                assert block[f"log10_rho_{axis}_on_edge"] is (value in (lo, hi))
        assert summary["criterion"] == "BIC"
        assert isinstance(summary["extrapolation_mask"], list)

    def test_tables_are_rectangular_long_format(self, fit_outputs):
        rows = read_csv(fit_outputs / "cause1" / "hazard.csv")
        assert set(rows[0]) == {"u", "s", "hazard", "extrapolated"}
        assert len(rows) == 25 * 7  # 25 age bins x 7 follow-up bins
        assert all(r["extrapolated"] in ("true", "false") for r in rows)

    def test_rerun_is_byte_identical(self, runner, cohort_csv, config_yaml,
                                     fit_outputs, tmp_path):
        outdir = tmp_path / "again"
        result = runner.invoke(main, ["fit", str(cohort_csv), "--config",
                                      str(config_yaml), "--out", str(outdir)])
        assert result.exit_code == 0
        for rel in ("cause1/hazard.csv", "cause2/cif_se.csv", "survival.csv",
                    "fit_summary.json", "model.json"):
            assert (outdir / rel).read_bytes() == (fit_outputs / rel).read_bytes()

    def test_draws_option_changes_no_byte(self, runner, cohort_csv, config_yaml, fit_outputs,
                                          tmp_path):
        result = runner.invoke(main, ["fit", str(cohort_csv), "--config", str(config_yaml),
                                      "--draws", "5", "--out", str(tmp_path / "draws")])
        assert result.exit_code == 0, result.output
        assert _tree(tmp_path / "draws") == _tree(fit_outputs)

    def test_bad_rows_exit_2(self, runner, config_yaml, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,u,s_entry,s_exit,cause\nx,55,0,notanumber,1\n")
        result = runner.invoke(main, ["fit", str(bad), "--config", str(config_yaml),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "row 2" in result.output

    def test_on_edge_means_an_end_the_search_can_reach(self, runner, cohort_csv, tmp_path):
        """[1, 4.6] by 2: the grid stops at 3, the search reaches the range end 4.6 itself.  On
        edge is an end of the range where a fit 1e-3 inside has the larger criterion."""
        cfg = {**FAST_CONFIG, "selection": {**FAST_CONFIG["selection"],
                                            "log10_rho_u_range": [1.0, 4.6],
                                            "log10_rho_s_range": [1.0, 4.6]}}
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        result = runner.invoke(main, ["fit", str(cohort_csv), "--config", str(path),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "o" / "fit_summary.json").read_text())
        run = load_config(path).setup()
        binned = h.bin_records(h.read_records_csv(cohort_csv), run.grid)
        tops = 0
        for ell, block in summary["causes"].items():
            lrho = [block["log10_rho_u"], block["log10_rho_s"]]
            for i, axis in enumerate("us"):
                value, inward = lrho[i], {1.0: 1e-3, 4.6: -1e-3}.get(lrho[i])
                on_edge = inward is not None
                if on_edge:
                    inside = list(lrho)
                    inside[i] += inward
                    fits = [h.fit_hazard(binned, int(ell), run.kv_u, run.kv_s,
                                         h.PenaltyConfig(*point, 2)) for point in (lrho, inside)]
                    on_edge = fits[1].bic > fits[0].bic
                assert block[f"log10_rho_{axis}_on_edge"] is on_edge, (ell, axis, value)
                tops += value == 4.6
        assert tops >= 1   # the case the rule is about occurs

    def test_nonconvergence_exit_3(self, runner, cohort_csv, tmp_path):
        cfg = dict(FAST_CONFIG)
        cfg["convergence"] = {"max_iter": 1}
        path = tmp_path / "strict.yaml"
        path.write_text(yaml.safe_dump(cfg))
        result = runner.invoke(main, ["fit", str(cohort_csv), "--config", str(path),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 3

    def test_covariance_that_does_not_factor_exits_2(self, runner, cohort_csv, config_yaml,
                                                     tmp_path, monkeypatch):
        """The base package error, here from the CIF standard errors, is reported, and the
        command exits 2 instead of ending in a traceback."""
        def refuse(*args, **kwargs):
            raise h.Hazard2tsError("coefficient covariance not positive definite")

        monkeypatch.setattr(cli, "cif_standard_errors", refuse)
        result = runner.invoke(main, ["fit", str(cohort_csv), "--config", str(config_yaml),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert "error: coefficient covariance not positive definite" in result.output


    def test_rho_zero_range_fits_and_predicts(self, runner, cohort_csv, tmp_path):
        cfg = {**FAST_CONFIG, "selection": {**FAST_CONFIG["selection"],
                                            "log10_rho_u_range": [-math.inf, -math.inf]}}
        path = tmp_path / "rho0.yaml"
        path.write_text(yaml.safe_dump(cfg))
        result = runner.invoke(main, ["fit", str(cohort_csv), "--config", str(path),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "o" / "fit_summary.json").read_text())
        for block in summary["causes"].values():
            assert block["log10_rho_u"] == "-Infinity" and block["log10_rho_u_on_edge"] is True
        pts = tmp_path / "pts.csv"
        pts.write_text("u,s\n60,2\n")
        result = runner.invoke(main, ["predict", "--model", str(tmp_path / "o" / "model.json"),
                                      "--points", str(pts), "--coords", "us",
                                      "--out", str(tmp_path / "pred.csv")])
        assert result.exit_code == 0, result.output

    def test_rho_zero_axis_over_a_data_hole_exits_2(self, runner, tmp_path):
        """Records aged 70-100 on the default 50-100 grid leave 5 u-rows of coefficients
        without data.  With rho_u = 0 only the s-penalty ties each row, which leaves its d = 2
        polynomial coefficients free: 10 of 160.  Such a fit was once reported converged, with
        hazards off the data in the thousands per year and more."""
        spec = h.ScenarioSpec(hazards=(h.hazard_family("constant", level=0.1),
                                       h.hazard_family("constant", level=0.05)),
                              u_lo=70.0, u_hi=100.0, s_max=10.5, n=4000, seed=7)
        csv_path = tmp_path / "aged_70.csv"
        h.write_records_csv(csv_path, h.simulate_cohort(spec))
        path = tmp_path / "rho0.yaml"
        path.write_text(yaml.safe_dump({"selection": {"log10_rho_u_range": [-math.inf,
                                                                            -math.inf]}}))
        result = runner.invoke(main, ["fit", str(csv_path), "--config", str(path),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert ("error: 10 of 160 coefficients are determined by neither the data nor the "
                "penalty: penalize that axis or fit a grid the data cover") in result.output
        assert not (tmp_path / "o" / "model.json").exists()


class TestPredict:
    def test_midpoints_reproduce_training_values(self, runner, fit_outputs, tmp_path):
        hazard_rows = read_csv(fit_outputs / "cause1" / "hazard.csv")
        pts = tmp_path / "pts.csv"
        with open(pts, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["u", "s"])
            for r in hazard_rows[:30]:
                w.writerow([r["u"], r["s"]])
        out = tmp_path / "pred.csv"
        result = runner.invoke(main, ["predict", "--model", str(fit_outputs / "model.json"),
                                      "--points", str(pts), "--out", str(out)])
        assert result.exit_code == 0, result.output
        pred = read_csv(out)
        for row, ref in zip(pred, hazard_rows[:30]):
            assert float(row["hazard1"]) == pytest.approx(float(ref["hazard"]), rel=1e-12)

    def test_attained_age_equals_shifted_diagnosis_age(self, runner, fit_outputs, tmp_path):
        pts_ts = tmp_path / "ts.csv"
        pts_ts.write_text("t,s\n60,5\n")
        pts_us = tmp_path / "us.csv"
        pts_us.write_text("u,s\n55,5\n")
        out_ts, out_us = tmp_path / "ots.csv", tmp_path / "ous.csv"
        model = str(fit_outputs / "model.json")
        r1 = runner.invoke(main, ["predict", "--model", model, "--points", str(pts_ts),
                                  "--coords", "ts", "--out", str(out_ts)])
        r2 = runner.invoke(main, ["predict", "--model", model, "--points", str(pts_us),
                                  "--out", str(out_us)])
        assert r1.exit_code == 0 and r2.exit_code == 0
        row_ts, row_us = read_csv(out_ts)[0], read_csv(out_us)[0]
        for col in ("hazard1", "hazard2", "cif1", "cif2", "survival"):
            assert float(row_ts[col]) == pytest.approx(float(row_us[col]), rel=1e-12)

    def test_out_of_domain_exit_2(self, runner, fit_outputs, tmp_path):
        pts = tmp_path / "bad.csv"
        pts.write_text("u,s\n300,5\n")
        result = runner.invoke(main, ["predict", "--model", str(fit_outputs / "model.json"),
                                      "--points", str(pts), "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("coords", ["us", "ts"])
    def test_no_points_write_a_header_only_table(self, runner, fit_outputs, tmp_path, coords):
        pts = tmp_path / "empty.csv"
        pts.write_text("u,s\n" if coords == "us" else "t,s\n")
        out = tmp_path / "pred.csv"
        result = runner.invoke(main, ["predict", "--model", str(fit_outputs / "model.json"),
                                      "--points", str(pts), "--coords", coords,
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        header, *rows = out.read_text().splitlines()
        assert rows == [] and header.startswith("u,s,") and header.endswith(",extrapolated")

    @pytest.mark.parametrize("text", ["u,s\nnan,1.0\n", "u,s\n60,1\n60,nan\n"])
    def test_nan_point_is_out_of_domain_exit_2(self, runner, fit_outputs, tmp_path, text):
        pts = tmp_path / "nan.csv"
        pts.write_text(text)
        result = runner.invoke(main, ["predict", "--model", str(fit_outputs / "model.json"),
                                      "--points", str(pts), "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2, result.output
        assert "out of domain: nan" in result.output

    @pytest.mark.parametrize("damage,message", [
        ("truncated", "not a model file: "),
        ("csv", "not a model file: "),
        ("binary", "not a model file: "),
        ("list", "not a model file"),
        ("no-causes", "model file has no key 'causes'"),
        ("no-covariance", "model file has no key 'covariance'"),
        ("causes-list", "bad model file entry: "),
        ("empty-causes", "model file holds no cause"),
        ("no-config", "model file has no key 'config'"),
        ("bad-delta", "bad model file entry: quadrature step delta must be finite and positive"),
    ])
    def test_model_file_that_does_not_parse_exits_2(self, runner, fit_outputs, tmp_path,
                                                    damage, message):
        """Once JSONDecodeError, UnicodeDecodeError or KeyError tracebacks with exit 1."""
        text = (fit_outputs / "model.json").read_text()
        payload = json.loads(text)
        no_covariance = json.loads(text)
        del no_covariance["causes"]["2"]["covariance"]
        content = {"truncated": text[: len(text) // 2], "csv": "u,s\n60,5\n", "list": "[1, 2]",
                   "no-causes": {k: v for k, v in payload.items() if k != "causes"},
                   "no-covariance": no_covariance,
                   "causes-list": {**payload, "causes": [1]},
                   "empty-causes": {**payload, "causes": {}},
                   "no-config": {k: v for k, v in payload.items() if k != "config"},
                   "bad-delta": {**payload, "config": {**payload["config"], "delta": -1.0}}
                   }.get(damage)
        model = tmp_path / "model.json"
        if damage == "binary":
            model.write_bytes(b"\xff\xfe\x00{")
        else:
            model.write_text(content if isinstance(content, str) else json.dumps(content))
        pts = tmp_path / "pts.csv"
        pts.write_text("u,s\n60,5\n")
        result = runner.invoke(main, ["predict", "--model", str(model), "--points", str(pts),
                                      "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2, result.output
        assert f"error: {model}: {message}" in result.output
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("damage,message", [
        ("covariance", "covariance of shape (47, 47), where its knots give (48, 48)"),
        ("coefficients", "coefficients of shape (8, 5), where its knots give (8, 6)"),
        ("knots", "coefficients of shape (8, 6), where its knots give (15, 6)"),
    ])
    def test_model_whose_shapes_disagree_with_its_knots_exits_2(self, runner, fit_outputs,
                                                                tmp_path, damage, message):
        """A covariance cut by a row and a column once gave standard errors from the wrong
        entries, with exit 0; coefficients cut by a column, or knots for more of them, once
        ended in a ValueError traceback.  Each is refused, naming the file and the cause."""
        payload = json.loads((fit_outputs / "model.json").read_text())
        entry = payload["causes"]["2"]
        if damage == "covariance":
            entry["covariance"] = [row[:-1] for row in entry["covariance"][:-1]]
        elif damage == "coefficients":
            entry["coefficients"] = [row[:-1] for row in entry["coefficients"]]
        else:
            entry["knots_u"]["n_segments"] = 12
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        pts = tmp_path / "pts.csv"
        pts.write_text("u,s\n60,5\n")
        result = runner.invoke(main, ["predict", "--model", str(model), "--points", str(pts),
                                      "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit), result.output
        assert f"error: {model}: cause 2: {message}" in result.output
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("kind,data", [
        ("boxx", None),
        ("polygon", [[1, 2, 3]]),
        ("box", [1, 2]),
        ("box", [60.0, 55.0, 0.0, 5.0]),
        ("polygon", [[50.0, 0.0], [60.0, 0.0]]),
        ("polygon", [[50.0, 0.0], [60.0, "NaN"], [50.0, 5.0]]),
        ("polygon", [[50.0, 0.0], ["60", 0.0], [50.0, 5.0]]),
    ], ids=["unknown-kind", "polygon-row-of-3", "box-of-2", "box-lo-above-hi",
            "polygon-of-2", "polygon-nan", "polygon-text"])
    def test_support_that_is_no_hull_exits_2(self, runner, fit_outputs, tmp_path, kind, data):
        """An unknown kind was once read as a polygon with exit 0, and a polygon row of 3
        numbers or a box of 2 ended in tracebacks with exit 1.  Each support that is no
        polygon of at least 3 finite vertices, or no box of 4 finite numbers with lo <= hi,
        is refused, naming the file and the cause."""
        payload = json.loads((fit_outputs / "model.json").read_text())
        support = payload["causes"]["2"]["support"]
        support["kind"] = kind
        if data is not None:
            support["data"] = data
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        pts = tmp_path / "pts.csv"
        pts.write_text("u,s\n60,5\n")
        result = runner.invoke(main, ["predict", "--model", str(model), "--points", str(pts),
                                      "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit), result.output
        assert f"error: {model}: cause 2: support must be a polygon" in result.output
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("shape", ["reversed", "non-convex"])
    def test_support_polygon_not_convex_counterclockwise_exits_2(self, runner, fit_outputs,
                                                                 tmp_path, shape):
        """The fitted hull with its vertices reversed was once read, and every point was
        flagged as extrapolated, with exit 0; a counterclockwise polygon with a reflex vertex
        was read too.  Both are refused, naming the file and the cause, and no table is
        written."""
        payload = json.loads((fit_outputs / "model.json").read_text())
        support = payload["causes"]["2"]["support"]
        assert support["kind"] == "polygon"
        support["data"] = (support["data"][::-1] if shape == "reversed" else
                           [[50.0, 0.0], [70.0, 0.0], [60.0, 2.0], [70.0, 5.0], [50.0, 5.0]])
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        pts = tmp_path / "pts.csv"
        pts.write_text("u,s\n60,2\n75,5\n")
        result = runner.invoke(main, ["predict", "--model", str(model), "--points", str(pts),
                                      "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit), result.output
        assert (f"error: {model}: cause 2: support polygon must be convex with its vertices "
                "in counterclockwise order") in result.output
        assert not (tmp_path / "o.csv").exists()

    def test_fitted_support_polygons_are_read_back(self, fit_outputs):
        """The hulls `fit` writes pass the convexity and orientation check, vertex for
        vertex."""
        payload, fits = cli.load_model(fit_outputs / "model.json")
        for ell, fit in fits.items():
            support = payload["causes"][str(ell)]["support"]
            assert support["kind"] == fit.hull[0] == "polygon"
            assert np.array_equal(fit.hull[1], support["data"])

    def test_box_support_is_read_back(self, runner, fit_outputs, tmp_path):
        """A box support, which a fit on collinear bins writes, is read and flags points."""
        payload = json.loads((fit_outputs / "model.json").read_text())
        for entry in payload["causes"].values():
            entry["support"] = {"kind": "box", "data": [55.0, 65.0, 0.0, 5.0]}
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        pts, out = tmp_path / "pts.csv", tmp_path / "o.csv"
        pts.write_text("u,s\n60,5\n70,5\n")
        result = runner.invoke(main, ["predict", "--model", str(model), "--points", str(pts),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert [row["extrapolated"] for row in read_csv(out)] == ["false", "true"]

    @pytest.mark.parametrize("coords", ["us", "ts"])
    def test_hazard_se_is_hazard_times_log_hazard_se(self, runner, fit_outputs, tmp_path,
                                                     coords):
        """``hazard_se<l>`` is ``hazard<l> * log_hazard_se<l>`` bit for bit: the delta-method
        transform through exp, in the 17 significant digits every float is written with."""
        rng = np.random.default_rng(4)
        s = rng.uniform(0.0, 10.5, 200)
        first = rng.uniform(50.0, 100.0, 200) + (s if coords == "ts" else 0.0)
        pts, out = tmp_path / "pts.csv", tmp_path / "pred.csv"
        pts.write_text(("u" if coords == "us" else "t") + ",s\n"
                       + "".join(f"{a!r},{b!r}\n" for a, b in zip(first.tolist(), s.tolist())))
        result = runner.invoke(main, ["predict", "--model", str(fit_outputs / "model.json"),
                                      "--points", str(pts), "--coords", coords,
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_csv(out)
        assert len(rows) == 200
        for row in rows:
            for ell in (1, 2):
                lam, se_eta = float(row[f"hazard{ell}"]), float(row[f"log_hazard_se{ell}"])
                assert float(row[f"hazard_se{ell}"]) == lam * se_eta > 0, row

    def test_extrapolated_flag_in_output(self, runner, fit_outputs, tmp_path):
        pts = tmp_path / "edge.csv"
        pts.write_text("u,s\n75,5\n")
        out = tmp_path / "pred.csv"
        result = runner.invoke(main, ["predict", "--model", str(fit_outputs / "model.json"),
                                      "--points", str(pts), "--out", str(out)])
        assert result.exit_code == 0
        assert read_csv(out)[0]["extrapolated"] in ("true", "false")


class TestSimulateCommand:
    def test_schema_matches_ingest_contract(self, runner, tmp_path):
        scen = tmp_path / "scen.yaml"
        scen.write_text(yaml.safe_dump({
            "n": 25, "seed": 3, "s_max": 5.0,
            "age": {"lo": 50, "hi": 70},
            "cause1": {"name": "constant", "level": 0.1},
            "cause2": {"name": "constant", "level": 0.05},
        }))
        out = tmp_path / "c.csv"
        result = runner.invoke(main, ["simulate", str(scen), "--out", str(out)])
        assert result.exit_code == 0
        records = h.read_records_csv(out)
        assert len(records) == 25

    def test_zero_cohort_rejected(self, runner, tmp_path):
        scen = tmp_path / "scen.yaml"
        scen.write_text(yaml.safe_dump({
            "n": 0, "cause1": {"name": "constant", "level": 0.1},
            "cause2": {"name": "constant", "level": 0.1},
        }))
        result = runner.invoke(main, ["simulate", str(scen), "--out", str(tmp_path / "c.csv")])
        assert result.exit_code == 2

    CAUSES = "cause1: {name: constant, level: 0.1}\ncause2: {name: constant, level: 0.1}\n"

    @pytest.mark.parametrize("text,message", [
        ("- 1\n- 2\n", "scenario must be a mapping"),
        ("[]\n", "scenario must be a mapping, got []"),
        ("0\n", "scenario must be a mapping, got 0"),
        ("false\n", "scenario must be a mapping, got False"),
        ("''\n", "scenario must be a mapping, got ''"),
        ("age: 5\n" + CAUSES, "scenario key age must be a mapping"),
        ("cause1: 5\ncause2: {name: constant, level: 0.1}\n",
         "scenario key cause1 must be a mapping"),
        ("cause2: {name: constant, level: 0.1}\n", "scenario key cause1 must be a mapping"),
        ("age: {lo: [1]}\n" + CAUSES, "scenario key age.lo must be a number, got [1]"),
        ("n: [5]\n" + CAUSES, "scenario key n must be a number, got [5]"),
        ("age: {weights: 5}\n" + CAUSES, "scenario key age.weights must be a list of numbers"),
        ("age: {weights: [1, [2]]}\n" + CAUSES,
         "scenario key age.weights must be a list of numbers"),
        ("cause1: {name: constant, lvl: 0.1}\ncause2: {name: constant, level: 0.1}\n",
         "scenario key cause1: hazard family 'constant' needs parameter 'level'"),
        ("cause1: {name: constant, level: [1]}\ncause2: {name: constant, level: 0.1}\n",
         "scenario key cause1.level must be a number, got [1]"),
        ("cause1: {name: linear, level: 0.1}\ncause2: {name: constant, level: 0.1}\n",
         "scenario key cause1: unknown hazard family 'linear'"),
        ("cause1: {name: constant, level: 0.1, slope: 0.5}\ncause2: {name: constant, level: 0.1}"
         "\n", "scenario key cause1: hazard family 'constant' takes no parameter slope"),
        ("cause1: {name: constant\n", "{path}: not a YAML document"),
    ], ids=["list", "empty-list", "zero", "false", "empty-string", "age", "cause1", "no-cause1", "age-lo", "n", "weights", "nested-weight",
            "family-parameter", "parameter-type", "family", "unused-parameter", "yaml"])
    def test_scenario_that_is_no_mapping_exits_2(self, runner, tmp_path, text, message):
        """A scenario, a block or a value of the wrong kind, a missing key or family parameter,
        one the family does not use, and a document that does not parse: once AttributeError,
        TypeError, KeyError or YAML scanner tracebacks with exit 1, a bare ``error: 'level'``,
        or a silent exit 0."""
        scen = tmp_path / "scen.yaml"
        scen.write_text(text)
        result = runner.invoke(main, ["simulate", str(scen), "--out", str(tmp_path / "c.csv")])
        assert result.exit_code == 2, result.output
        assert f"error: {message.format(path=scen)}" in result.output
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("text,message", [
        ("sede: 5\n" + CAUSES, "unknown scenario key sede"),
        ("age: {low: 60}\n" + CAUSES, "unknown scenario key age.low"),
        ("5: 1\n" + CAUSES, "unknown scenario key 5"),
        (CAUSES + "cause4: {name: constant, level: 0.1}\n", "unknown scenario key cause4"),
        ("cause1: {name: constant, level: 0.1}\ncause3: {name: constant, level: 0.1}\n",
         "unknown scenario key cause3"),
        (CAUSES + "cause0: {name: constant, level: 0.1}\n", "unknown scenario key cause0"),
        (CAUSES + "cause02: {name: constant, level: 0.1}\n", "unknown scenario key cause02"),
    ], ids=["top-level", "age", "number", "gap-after-2", "gap-after-1", "cause0", "padded"])
    def test_unknown_scenario_key_exits_2(self, runner, tmp_path, text, message):
        """A key the scenario does not read, or a cause key that does not continue cause1 ..
        causeL without a gap: once dropped with exit 0."""
        scen = tmp_path / "scen.yaml"
        scen.write_text(text)
        result = runner.invoke(main, ["simulate", str(scen), "--out", str(tmp_path / "c.csv")])
        assert result.exit_code == 2, result.output
        assert f"error: {message}\n" in result.output
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("level", ["-0.1", ".nan", ".inf"])
    def test_hazard_that_is_negative_or_not_finite_exits_2(self, runner, tmp_path, level):
        """A negative or NaN cause-1 hazard once gave 2000 records, every one censored, with
        exit 0."""
        scen = tmp_path / "scen.yaml"
        scen.write_text(f"n: 2000\ncause1: {{name: constant, level: {level}}}\n"
                        "cause2: {name: constant, level: 0.1}\n")
        result = runner.invoke(main, ["simulate", str(scen), "--out", str(tmp_path / "c.csv")])
        assert result.exit_code == 2, result.output
        assert "error: cause 1: hazard " in result.output
        assert "is negative or not finite" in result.output
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("text,field", [
        ("s_max: .inf\n", "s_max"),
        ("age: {lo: .nan}\n", "u_lo"),
        ("step: .nan\n", "step"),
    ], ids=["s-max-inf", "age-lo-nan", "step-nan"])
    def test_bound_that_is_not_finite_exits_2(self, runner, tmp_path, text, field):
        """``s_max: .inf`` and ``age: {lo: .nan}`` once ended in OverflowError tracebacks with
        exit 1, and ``step: .nan`` exited 2 with "cannot convert float NaN to integer"."""
        scen = tmp_path / "scen.yaml"
        scen.write_text("n: 50\ncause1: {name: constant, level: 0.1}\n"
                        "cause2: {name: constant, level: 0.1}\n" + text)
        result = runner.invoke(main, ["simulate", str(scen), "--out", str(tmp_path / "c.csv")])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit), result.output
        assert f"error: {field} must be finite, got " in result.output
        assert not (tmp_path / "c.csv").exists()

    def test_three_causes_run_through_fit_and_predict(self, runner, tmp_path):
        """The records name the causes: a cause3 scenario gives codes 0..3, `fit` fits and
        writes cause3/, and `predict` writes the hazard3 .. cif3 columns."""
        scen, cohort = tmp_path / "scen.yaml", tmp_path / "c.csv"
        scen.write_text(CAUSES_1_TO_3)
        assert runner.invoke(main, ["simulate", str(scen), "--out", str(cohort)]).exit_code == 0
        assert set(h.read_records_csv(cohort).cause.tolist()) == {0, 1, 2, 3}
        cfg = tmp_path / "fast.yaml"
        cfg.write_text(yaml.safe_dump(FAST_CONFIG))
        out = tmp_path / "fit"
        result = runner.invoke(main, ["fit", str(cohort), "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in out.glob("cause*")) == ["cause1", "cause2", "cause3"]
        assert sorted(json.loads((out / "fit_summary.json").read_text())["causes"]) == [
            "1", "2", "3"]
        points, pred = tmp_path / "points.csv", tmp_path / "pred.csv"
        points.write_text("u,s\n60,2\n75,5\n")
        result = runner.invoke(main, ["predict", "--model", str(out / "model.json"),
                                      "--points", str(points), "--out", str(pred)])
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(pred.open()))
        assert list(rows[0]) == ["u", "s"] + [f"{name}{ell}" for ell in (1, 2, 3) for name in (
            "hazard", "log_hazard_se", "hazard_se", "cif")] + ["survival", "extrapolated"]
        for row in rows:   # left rectangles: within 3 delta sum(hazards), delta = 1.5 / 10
            total = sum(float(row[f"cif{ell}"]) for ell in (1, 2, 3)) + float(row["survival"])
            assert abs(total - 1.0) < 3 * 0.15 * sum(float(row[f"hazard{ell}"])
                                                     for ell in (1, 2, 3))

    @pytest.mark.parametrize("line,message", [
        ("n: 300.9", "scenario key n must be an integer, got 300.9"),
        ("seed: 5.7", "scenario key seed must be an integer, got 5.7"),
        ("seed: .inf", "scenario key seed must be an integer, got inf"),
        ("n: true", "scenario key n must be a number, got True"),
        ("step: true", "scenario key step must be a number, got True"),
        ("age: {lo: false}", "scenario key age.lo must be a number, got False"),
    ], ids=["fractional-n", "fractional-seed", "infinite-seed", "bool-n", "bool-step",
            "bool-age-lo"])
    def test_number_that_changes_in_converting_exits_2(self, runner, tmp_path, line, message):
        """Once read as 300 records, seed 5, an OverflowError traceback, 1 record, step 1.0 and
        age 0."""
        scen = tmp_path / "scen.yaml"
        scen.write_text(f"{line}\n{self.CAUSES}")
        result = runner.invoke(main, ["simulate", str(scen), "--out", str(tmp_path / "c.csv")])
        assert result.exit_code == 2, result.output
        assert f"error: {message}\n" in result.output
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("n", ["25", "25.0", "'25'"])
    def test_integral_or_text_cohort_size_is_kept(self, runner, tmp_path, n):
        scen = tmp_path / "scen.yaml"
        scen.write_text(f"n: {n}\n{self.CAUSES}")
        out = tmp_path / "c.csv"
        result = runner.invoke(main, ["simulate", str(scen), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert len(h.read_records_csv(out)) == 25

    def test_numbers_yaml_reads_as_strings_simulate_as_numbers(self, runner, tmp_path):
        """PyYAML reads ``1e-3`` and quoted numbers as strings; they convert as numbers do."""
        as_strings = ('n: 200\nstep: 1e-3\nage: {lo: "50", weights: [1, 2e0]}\n'
                      'cause1: {name: constant, level: 5e-3}\n'
                      'cause2: {name: constant, level: "0.1"}\n')
        as_numbers = ("n: 200\nstep: 0.001\nage: {lo: 50, weights: [1, 2.0]}\n"
                      "cause1: {name: constant, level: 0.005}\n"
                      "cause2: {name: constant, level: 0.1}\n")
        assert isinstance(yaml.safe_load(as_strings)["step"], str)
        outs = []
        for i, text in enumerate((as_strings, as_numbers)):
            scen, out = tmp_path / f"scen{i}.yaml", tmp_path / f"c{i}.csv"
            scen.write_text(text)
            result = runner.invoke(main, ["simulate", str(scen), "--out", str(out)])
            assert result.exit_code == 0, result.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_constant_scenario_cause_fraction(self, runner, tmp_path):
        scen = tmp_path / "scen.yaml"
        scen.write_text(yaml.safe_dump({
            "n": 1500, "seed": 10, "s_max": 50.0,
            "cause1": {"name": "constant", "level": 0.1},
            "cause2": {"name": "constant", "level": 0.05},
        }))
        out = tmp_path / "c.csv"
        result = runner.invoke(main, ["simulate", str(scen), "--out", str(out)])
        assert result.exit_code == 0
        records = h.read_records_csv(out)
        n_events = np.count_nonzero(records.cause != 0)
        frac = np.count_nonzero(records.cause == 1) / n_events
        assert abs(frac - 2 / 3) < 3 * np.sqrt((2 / 9) / n_events)


@pytest.fixture(scope="module")
def grouped_csv(tmp_path_factory):
    """A small cohort whose ages at or above 90 are reported as 90."""
    spec = h.ScenarioSpec(
        hazards=(h.hazard_family("constant", level=0.15),
                 h.hazard_family("constant", level=0.10)),
        u_lo=50.0, u_hi=100.0, s_max=10.5, n=2500, seed=13,
    )
    table = h.simulate_cohort(spec)
    path = tmp_path_factory.mktemp("grouped") / "grouped.csv"
    h.write_records_csv(path, dataclasses.replace(table, u=np.minimum(table.u, 90.0)))
    return path


class TestUngroupCommand:
    @staticmethod
    def ungroup(runner, tmp_path, grouped_csv, pclm):
        """``ungroup`` of the grouped cohort with the pclm block ``pclm``; its diagnostics."""
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({"pclm": pclm, "basis": {"c_u": 10, "c_s": 6, "degree": 3}}))
        outdir = tmp_path / "ug"
        result = runner.invoke(main, ["ungroup", str(grouped_csv), "--config", str(cfg),
                                      "--out", str(outdir)])
        assert result.exit_code == 0, result.output
        for name in ("ungrouped_events_cause1.csv", "ungrouped_events_cause2.csv",
                     "ungrouped_exposure.csv", "ungroup_diagnostics.json"):
            assert (outdir / name).exists()
        diag = json.loads((outdir / "ungroup_diagnostics.json").read_text())
        assert set(diag) == {"cause1", "cause2", "at_risk"}
        return outdir, diag

    @staticmethod
    def on_edge_ends(diag, cfg_path, grouped_csv, lo, hi):
        """Assert that on edge is an end of [``lo``, ``hi``] where a fit 1e-3 inside has the
        larger AIC, for every search of ``diag``; returns how many values sit at ``hi``."""
        cfg = load_config(cfg_path, ungroup=True)
        run = cfg.setup(ungroup=True)
        records = h.read_records_csv(grouped_csv)
        fine = h.bin_records(records, run.grid)
        C = h.composition_matrix(run.grid.first_grouped_row(cfg.pclm.first_grouped_age) + 1,
                                 run.grid.n_u)
        Bu = h.evaluate_basis(run.grid.u_mid, run.kv_u)
        inputs = {"cause1": (C @ fine.Y[1], run.grid.s_mid),
                  "cause2": (C @ fine.Y[2], run.grid.s_mid),
                  "at_risk": (C @ at_risk_matrix(records, run.grid), run.grid.s_edges)}
        tops = 0
        for name, block in diag.items():
            Z, s_points = inputs[name]
            Bs = h.evaluate_basis(s_points, run.kv_s)
            phis = [block["log10_phi_u"], block["log10_phi_s"]]
            for i, axis in enumerate("us"):
                inward = {lo: 1e-3, hi: -1e-3}.get(phis[i])
                on_edge = inward is not None
                if on_edge:
                    inside = list(phis)
                    inside[i] += inward
                    aics = [h.fit_pclm(Z, C, Bu, Bs, d=cfg.d, phis=tuple(point),
                                       ctrl=cfg.convergence).aic for point in (phis, inside)]
                    on_edge = aics[1] > aics[0]
                assert block[f"log10_phi_{axis}_on_edge"] is on_edge, (name, axis, phis[i])
                tops += phis[i] == hi
        return tops

    def test_outputs_and_diagnostics(self, runner, tmp_path, grouped_csv):
        outdir, diag = self.ungroup(runner, tmp_path, grouped_csv,
                                    {"enabled": True, "first_grouped_age": 90})
        # the 4 x 4 grid on [-1, 2] first, then pattern moves and descent: fewer than the 49
        # candidates of the exhaustive grid by 0.5
        grid = [-1.0, 0.0, 1.0, 2.0]
        for block in diag.values():
            keys = [(c["log10_phi_u"], c["log10_phi_s"]) for c in block["candidates"]]
            assert keys[:16] == [(lu, ls) for lu in grid for ls in grid]
            assert 16 <= len(keys) < 49
        self.on_edge_ends(diag, tmp_path / "cfg.yaml", grouped_csv, -1.0, 2.0)
        exposure = read_csv(outdir / "ungrouped_exposure.csv")
        assert len(exposure) == 50 * 21

    def test_on_edge_means_an_end_the_search_can_reach(self, runner, tmp_path, grouped_csv):
        """A step of 0.7 does not divide [-1, 2]: the grid stops at 1.8, the search reaches the
        range end 2 itself.  On edge is an end of the range where a fit 1e-3 inside has the
        larger AIC."""
        _, diag = self.ungroup(runner, tmp_path, grouped_csv, {"log10_phi_step": 0.7})
        for block in diag.values():
            assert len({(c["log10_phi_u"], c["log10_phi_s"]) for c in block["candidates"]}) \
                == len(block["candidates"]) >= 25
        tops = self.on_edge_ends(diag, tmp_path / "cfg.yaml", grouped_csv, -1.0, 2.0)
        assert tops >= 1   # the case the rule is about occurs


def _serial(tasks):
    """``_run_tasks``'s calls made in this process, in task order."""
    return [fn(*args, **kwargs) for fn, args, kwargs in tasks]


def _tree(outdir):
    return {str(p.relative_to(outdir)): p.read_bytes() for p in sorted(outdir.rglob("*"))
            if p.is_file()}


def test_pclm_fit_checks_the_records_only_when_the_table_is_read(monkeypatch, tmp_path,
                                                                  grouped_csv):
    """Grouping, binning and at-risk counting take the checked table as it is."""
    checked = []
    check = lexis._problems
    monkeypatch.setattr(lexis, "_problems", lambda *cols: checked.append(len(cols[0]))
                        or check(*cols))
    monkeypatch.setattr(cli, "_run_tasks", _serial)   # every stage in this process
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({**FAST_CONFIG,
                                    "pclm": {"enabled": True, "log10_phi_step": 1.0}}))
    cfg = load_config(path)
    table = h.read_records_csv(grouped_csv)
    assert checked == [len(table)]
    cli.run_fit_pipeline(cfg, table, tmp_path / "out")
    assert checked == [len(table)]


class _HoldsALock(Exception):
    def __init__(self):
        super().__init__("holds a lock")
        self.lock = threading.Lock()


class _TwoArguments(Exception):
    def __init__(self, first, second):      # unpickled from ``args``, ``(first,)`` alone
        super().__init__(first)
        self.second = second


def _raise(exc):
    def task():
        raise exc
    return task


class TestWorkerProcesses:
    """The independent smoothing searches run on lanes, this process and forked workers, and
    change nothing."""

    def run_both(self, runner, monkeypatch, tmp_path, args):
        """The command through ``_run_tasks`` and through the serial reference."""
        results = {}
        for mode in ("pool", "serial"):
            with monkeypatch.context() as mp:
                if mode == "serial":
                    mp.setattr(cli, "_run_tasks", _serial)
                out = tmp_path / mode
                results[mode] = (runner.invoke(main, args + ["--out", str(out)]), out)
        return results

    @pytest.mark.parametrize("command,pclm", [("fit", False), ("fit", True), ("ungroup", True)])
    def test_pool_and_serial_artefacts_are_byte_identical(self, runner, monkeypatch, tmp_path,
                                                          grouped_csv, command, pclm):
        """On two CPUs the 3 PCLM tasks take 2 lanes, this process running 2 of them; on four,
        one lane each."""
        cfg = {**FAST_CONFIG, "pclm": {"enabled": pclm, "log10_phi_step": 1.0}}
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        for n_cpus in (2, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
            results = self.run_both(runner, monkeypatch, tmp_path / f"cpus{n_cpus}",
                                    [command, str(grouped_csv), "--config", str(path)])
            for result, _ in results.values():
                assert result.exit_code == 0, result.output
            pool, serial = (_tree(out) for _, out in results.values())
            assert len(pool) == (13 if command == "fit" else 4)
            assert pool == serial

    @pytest.mark.parametrize("pclm", [False, True])
    def test_data_error_in_a_worker_exits_2_as_serial(self, runner, monkeypatch, tmp_path,
                                                      cohort_csv, pclm):
        """A cause with no events below the largest code fails its search (the hazard search,
        or with PCLM the ungrouping of its grouped counts) inside a worker."""
        table = h.read_records_csv(cohort_csv)
        csv_path = tmp_path / "no_cause_1.csv"
        h.write_records_csv(csv_path, dataclasses.replace(table, cause=np.where(
            table.cause == 1, 0, table.cause)))
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({**FAST_CONFIG, "pclm": {"enabled": pclm}}))
        results = self.run_both(runner, monkeypatch, tmp_path,
                                ["fit", str(csv_path), "--config", str(path)])
        (pool, _), (serial, _) = results.values()
        assert pool.exit_code == serial.exit_code == 2
        assert "error: " in pool.output and pool.output == serial.output
        assert ("nothing to ungroup" if pclm else "no events of cause 1") in pool.output

    def test_convergence_error_in_a_worker_exits_3_as_serial(self, runner, monkeypatch,
                                                             tmp_path, cohort_csv):
        path = tmp_path / "strict.yaml"
        path.write_text(yaml.safe_dump({**FAST_CONFIG, "convergence": {"max_iter": 1}}))
        results = self.run_both(runner, monkeypatch, tmp_path,
                                ["fit", str(cohort_csv), "--config", str(path)])
        (pool, _), (serial, _) = results.values()
        assert pool.exit_code == serial.exit_code == 3
        assert "error: " in pool.output and pool.output == serial.output

    @pytest.mark.parametrize("cpus", [{0}, {0, 1, 2, 3}])
    def test_results_and_first_error_come_in_task_order(self, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        tasks = [(math.sqrt, (float(x),), {}) for x in range(6)]
        assert cli._run_tasks(tasks) == [math.sqrt(x) for x in range(6)]
        failing = [(math.sqrt, (4.0,), {}), (math.sqrt, (-1.0,), {}),
                   (operator.truediv, (1.0, 0.0), {})]
        with pytest.raises(ValueError, match="math domain error"):
            cli._run_tasks(failing)

    def test_a_worker_that_dies_raises_instead_of_hanging(self, monkeypatch):
        """The second task runs in a forked worker, which exits without its results."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(ChildProcessError, match="exited with status 3"):
            cli._run_tasks([(math.sqrt, (4.0,), {}), (os._exit, (3,), {})])

    def test_a_worker_killed_by_a_signal_raises_instead_of_hanging(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(ChildProcessError, match=r"killed by signal 9 \(Killed\)"):
            cli._run_tasks([(math.sqrt, (4.0,), {}),
                            (lambda: os.kill(os.getpid(), signal.SIGKILL), (), {})])

    @pytest.mark.parametrize("task,what", [
        (lambda: lambda: None, "its result <function"),
        (_raise(_HoldsALock()), r"its exception _HoldsALock\('holds a lock'\)"),
        (_raise(_TwoArguments("first", "second")), r"its exception _TwoArguments\('first'\)"),
    ], ids=["result", "exception-that-does-not-pickle", "exception-that-does-not-unpickle"])
    def test_what_does_not_pickle_leaves_a_worker_as_runtime_error(self, monkeypatch, task,
                                                                   what):
        """A local function as a result, an exception holding a lock, and one that pickles
        but does not unpickle cannot leave the worker: a RuntimeError carries its text."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(RuntimeError, match=f"task 1: {what}"):
            cli._run_tasks([(math.sqrt, (4.0,), {}), (task, (), {})])

    def test_every_worker_is_reaped_when_this_process_fails_first(self, monkeypatch):
        """Lane 0, in this process, fails at once while a worker sleeps: the call raises
        without waiting for it, and leaves no child process behind."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        start = time.monotonic()
        with pytest.raises(ValueError, match="math domain error"):
            cli._run_tasks([(math.sqrt, (-1.0,), {}), (time.sleep, (60,), {})])
        assert time.monotonic() - start < 5
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_error_details_survive_the_worker(self, tmp_path, monkeypatch):
        """The second task runs in a forked worker: the DataError and its details are
        pickled from it."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        bad = tmp_path / "bad.csv"
        bad.write_text("id,u,s_entry,s_exit,cause\nx,55,0,notanumber,1\ny,56,0,1,-1\n")
        with pytest.raises(DataError) as local:
            h.read_records_csv(bad)
        with pytest.raises(DataError) as remote:
            cli._run_tasks([(math.sqrt, (4.0,), {}), (h.read_records_csv, (bad,), {})])
        assert str(remote.value) == str(local.value)
        assert remote.value.details == local.value.details and len(local.value.details) == 2


@pytest.mark.parametrize("user_value", [None, "2"])
def test_import_pins_blas_threads_and_loads_no_multiprocessing(user_value):
    """Importing the command line sets one BLAS thread unless the user chose a number, and
    loads no multiprocessing."""
    src = str(Path(h.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    code = ("import json, os, sys, hazard2ts.cli; print(json.dumps([os.environ.get(v) for v in "
            "('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')] + "
            "[sorted(m for m in sys.modules if m.startswith('multiprocessing'))]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert json.loads(out.stdout) == [user_value or "1", "1", "1", []]


def test_workers_run_one_blas_thread_when_numpy_was_imported_first():
    """numpy imported before the package has started its BLAS with numpy's default threads,
    which forked workers would inherit: each task runs on one BLAS thread, this process's
    lane too, and this process has its own count again afterwards."""
    src = str(Path(h.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    code = ("import ctypes, json, os, numpy, hazard2ts.cli as cli\n"
            "def report():\n"
            "    fns = cli._openblas('get_num_threads')\n"
            "    for fn in fns:\n"
            "        fn.restype = ctypes.c_int\n"
            "    return os.getpid(), [fn() for fn in fns]\n"
            "print(json.dumps([report(), cli._run_tasks([(report, (), {})] * 2), report()]))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    before, tasks, after = json.loads(out.stdout)
    if not before[1]:
        pytest.skip("numpy's BLAS is no OpenBLAS")
    assert after == before
    assert len(tasks) == 2
    for pid, threads in tasks:
        assert threads == [1] * len(before[1])


def test_nonfinite_values_are_written_as_strict_json(runner, cohort_csv, tmp_path):
    """log10 rho = -inf has no RFC 8259 number: both files parse without the
    non-standard constants, and the model still loads and predicts."""
    cfg = {**FAST_CONFIG, "selection": {**FAST_CONFIG["selection"],
                                        "log10_rho_u_range": [-math.inf, -math.inf]}}
    path = tmp_path / "rho0.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "o"
    result = runner.invoke(main, ["fit", str(cohort_csv), "--config", str(path),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    summary = json.loads((out / "fit_summary.json").read_text(), parse_constant=refuse)
    model = json.loads((out / "model.json").read_text(), parse_constant=refuse)
    assert summary["config"]["selection"]["log10_rho_u_range"] == ["-Infinity", "-Infinity"]
    assert model["causes"]["1"]["penalty"]["log10_rho_u"] == "-Infinity"
    payload, fits = cli.load_model(out / "model.json")
    assert payload["config"]["selection"]["log10_rho_u_range"] == [-math.inf, -math.inf]
    for fit in fits.values():
        assert fit.penalty.log10_rho_u == -math.inf
    pts = tmp_path / "pts.csv"
    pts.write_text("u,s\n60,2\n")
    result = runner.invoke(main, ["predict", "--model", str(out / "model.json"),
                                  "--points", str(pts), "--out", str(tmp_path / "pred.csv")])
    assert result.exit_code == 0, result.output
