"""The README's library example runs as written, so API drift in the docs fails the suite."""

import math
import re
from pathlib import Path

import hazard2ts as h

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The first python block of the README's ``## Library`` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_block_runs_on_a_simulated_cohort(tmp_path, monkeypatch):
    """The block reads ``cohort.csv`` from the working directory: a constant-hazard cohort
    there gives two fits, and CIF1 at (u, s) = (55, 5) near its closed form."""
    spec = h.ScenarioSpec(hazards=(h.hazard_family("constant", level=0.1),
                                   h.hazard_family("constant", level=0.05)),
                          u_lo=50.0, u_hi=100.0, s_max=10.5, n=5000, seed=3)
    h.write_records_csv(tmp_path / "cohort.csv", h.simulate_cohort(spec))
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(library_block(), str(README), "exec"), names)
    assert sorted(names["fits"]) == [1, 2]
    assert names["surf"].cif[1].shape == names["cif_se"][1].shape == (50, 21)
    exact = 0.1 / 0.15 * (1.0 - math.exp(-0.15 * 5.0))
    assert abs(names["cif_at_age60"] - exact) < 0.05
