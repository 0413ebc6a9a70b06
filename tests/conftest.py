"""Shared fixtures: simulated cohorts and fitted surfaces reused across tests."""

import numpy as np
import pytest

import hazard2ts as h

# analysis defaults used throughout: 1-year x half-year bins, 16 x 10 cubic bases
GRID_ARGS = (50.0, 100.0, 1.0, 0.0, 10.5, 0.5)
BASIS_U = (50.0, 100.0, 13, 3)
BASIS_S = (0.0, 10.5, 7, 3)

CONST_LAM1 = 0.1
CONST_LAM2 = 0.05


@pytest.fixture(scope="session")
def default_grid():
    return h.build_grid(*GRID_ARGS)


@pytest.fixture(scope="session")
def default_knots():
    return h.make_knots(*BASIS_U), h.make_knots(*BASIS_S)


@pytest.fixture(scope="session")
def constant_cohort():
    """20,000 subjects under constant competing hazards 0.1 and 0.05 per year."""
    spec = h.ScenarioSpec(
        hazard1=h.hazard_family("constant", level=CONST_LAM1),
        hazard2=h.hazard_family("constant", level=CONST_LAM2),
        u_lo=50.0, u_hi=100.0, s_max=10.5, n=20000, seed=42,
    )
    return h.simulate_cohort(spec)


@pytest.fixture(scope="session")
def constant_binned(constant_cohort, default_grid):
    return h.bin_records(constant_cohort, default_grid)


@pytest.fixture(scope="session")
def constant_fits(constant_binned, default_knots):
    kv_u, kv_s = default_knots
    return {ell: h.select_smoothing(constant_binned, ell, kv_u, kv_s, criterion="BIC")
            for ell in (1, 2)}


@pytest.fixture(scope="session")
def scalar_toy():
    """Single-bin, single-coefficient fits: closed-form MLE and covariance."""
    grid = h.build_grid(0, 1, 1, 0, 1, 1)
    data = h.BinnedData(grid=grid,
                        Y={1: np.array([[40.0]]), 2: np.array([[20.0]])},
                        R=np.array([[400.0]]))
    kv = h.make_knots(0, 1, 1, 0)
    return {ell: h.fit_hazard(data, ell, kv, kv, h.zero_penalty()) for ell in (1, 2)}
