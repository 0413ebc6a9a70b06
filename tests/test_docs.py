"""The README's library example runs as written, so API drift in the docs fails the suite."""

import math
import re
from pathlib import Path

import numpy as np

import hazard2ts as h

README = Path(__file__).resolve().parents[1] / "README.md"


def library_blocks() -> list:
    """The python blocks of the README's ``## Library`` section, in order."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def run_library_block(tmp_path, monkeypatch, *more) -> dict:
    """The names the first library block leaves, then each block of ``more`` run after it,
    with a constant-hazard ``cohort.csv`` in the working directory."""
    spec = h.ScenarioSpec(hazards=(h.hazard_family("constant", level=0.1),
                                   h.hazard_family("constant", level=0.05)),
                          u_lo=50.0, u_hi=100.0, s_max=10.5, n=5000, seed=3)
    h.write_records_csv(tmp_path / "cohort.csv", h.simulate_cohort(spec))
    monkeypatch.chdir(tmp_path)
    names = {}
    for block in (library_blocks()[0], *more):
        exec(compile(block, str(README), "exec"), names)
    return names


def test_library_block_runs_on_a_simulated_cohort(tmp_path, monkeypatch):
    """The block reads ``cohort.csv`` from the working directory: a constant-hazard cohort
    there gives two fits, and CIF1 at (u, s) = (55, 5) near its closed form."""
    names = run_library_block(tmp_path, monkeypatch)
    assert sorted(names["fits"]) == [1, 2]
    assert names["surf"].cif[1].shape == names["cif_se"][1].shape == (50, 21)
    exact = 0.1 / 0.15 * (1.0 - math.exp(-0.15 * 5.0))
    assert abs(names["cif_at_age60"] - exact) < 0.05


def test_pclm_block_ungroups_the_library_blocks_counts(tmp_path, monkeypatch):
    """The PCLM block, run on the library block's names: the observed body rows as binned,
    the fitted tail rows summing to the fitted grouped row."""
    pclm_block, = (block for block in library_blocks() if "select_pclm_smoothing" in block)
    names = run_library_block(tmp_path, monkeypatch, pclm_block)
    Y1, fit, binned, g = names["Y1"], names["fit"], names["binned"], names["g"]
    assert g == 41 and names["C"].shape == (41, 50)
    assert Y1.shape == fit.Gamma.shape == (50, 21)
    assert np.array_equal(Y1[: g - 1], binned.Y[1][: g - 1])
    assert np.allclose(Y1[g - 1:].sum(axis=0), fit.Psi[-1], rtol=1e-12)
