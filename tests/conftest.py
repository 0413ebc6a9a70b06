"""Shared fixtures: simulated cohorts and fitted surfaces reused across tests."""

import math

import numpy as np
import pytest

import hazard2ts as h
from hazard2ts import smooth2d

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


# -- the Monte-Carlo oracle of the CIF standard errors ---------------------------

def sample_coefficients(mean, Sigma, n_draws, rng):
    """An (n_draws, len(mean)) array of draws from N(mean, Sigma) via the Cholesky factor of
    Sigma, ``mean`` in every row for a zero Sigma; Hazard2tsError where Sigma is not positive
    definite."""
    Sigma = np.asarray(Sigma, dtype=float)
    if np.max(np.abs(Sigma)) == 0.0:
        return np.tile(mean, (n_draws, 1))
    try:
        L = np.linalg.cholesky(Sigma)
    except np.linalg.LinAlgError:
        raise h.Hazard2tsError("coefficient covariance not positive definite") from None
    z = rng.standard_normal((n_draws, len(mean)))
    return mean[None, :] + z @ L.T


def dense_cif_draws(fits, coefs, u, s, delta):
    """Left-rectangle CIFs on the product grid of ``u`` and ``s`` for every draw at once:
    ``coefs[ell]`` holds one column-major vec(A) per row, and the result ``{ell: (n_draws,
    n_u, n_s)}``.  Nodes k * delta, k < K = floor(s / delta + 1e-9), survival just before each
    node, every node summed under a 0/1 mask."""
    K = np.floor(np.asarray(s) / delta + 1e-9).astype(int)
    nodes = delta * np.arange(K.max())
    lam = {}
    for ell, fit in fits.items():
        A = coefs[ell].reshape(len(coefs[ell]), fit.kv_s.n_basis, fit.kv_u.n_basis)
        lam[ell] = np.exp(h.evaluate_basis(u, fit.kv_u) @ A.transpose(0, 2, 1)
                          @ h.evaluate_basis(nodes, fit.kv_s).T)
    step = sum(lam.values()) * delta
    survival = np.exp(-(np.cumsum(step, axis=-1) - step))
    before = (np.arange(len(nodes))[:, None] < K).astype(float)
    return {ell: (lam[ell] * survival * delta) @ before for ell in fits}


def monte_carlo_cif_se(fits, u, s, delta, n_draws, rng, batch=500):
    """Standard deviations (divisor n_draws - 1) of every cause's CIF over coefficient draws
    from N(``fit.coef``, ``fit.covariance``), drawn cause after cause from ``rng``."""
    draws = {ell: sample_coefficients(fits[ell].coef, fits[ell].covariance, n_draws, rng)
             for ell in sorted(fits)}
    batches = [dense_cif_draws(fits, {ell: d[lo:lo + batch] for ell, d in draws.items()},
                               u, s, delta) for lo in range(0, n_draws, batch)]
    return {ell: np.std(np.concatenate([b[ell] for b in batches]), axis=0, ddof=1)
            for ell in fits}


# -- the grid-plus-pattern oracle of the smoothing search ------------------------

def refine_steps(coarse_step, refine_resolution):
    """The steps of the pattern search in turn: ``coarse_step`` halved while the half is at
    least ``refine_resolution``."""
    steps = [coarse_step / 2.0]
    while steps[-1] >= refine_resolution - 1e-12:
        steps.append(steps[-1] / 2.0)
    return steps[:-1]


def pattern_ends(search, refine_resolution):
    """Per axis the (lowest, highest) log10 value the pattern search can reach: the first
    coarse value, and the top inside the range of the lattice of the finest refinement step."""
    step = (refine_steps(search.coarse_step, refine_resolution) or [search.coarse_step])[-1]
    return tuple((axis[0], axis[-1] + step * math.floor((hi + 1e-9 - axis[-1]) / step)
                  if axis[-1] > -math.inf else axis[-1])
                 for axis, (_, hi) in zip(search.axes(), (search.log10_rho_u_range,
                                                       search.log10_rho_s_range)))


def grid_pattern_search(fit_one, search, refine_resolution):
    """The smoothing search before the quasi-Newton descent: the coarse grid of ``search``
    (``_GridSearch.run``), then a pattern search from the best (axis moves in the ranges, on to
    the next of the refinement steps when none improves) while under ``search.max_evals`` were
    fitted.  Returns the ``_GridSearch``, whose ``best`` and ``table`` are the result."""
    grid = smooth2d._GridSearch(fit_one)
    grid.run(search)
    (lo_a, hi_a), (lo_b, hi_b) = search.log10_rho_u_range, search.log10_rho_s_range
    for step in refine_steps(search.coarse_step, refine_resolution):
        while len(grid.table) < search.max_evals:
            origin = grid.best.key
            for da, db in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
                la, lb = grid.best.key[0] + da, grid.best.key[1] + db
                if lo_a - 1e-9 <= la <= hi_a + 1e-9 and lo_b - 1e-9 <= lb <= hi_b + 1e-9:
                    grid.evaluate(la, lb, grid.best.coef)
            if grid.best.key == origin:   # no move improved: refine the step
                break
    return grid


def oracle_smoothing(data, cause, kv_u, kv_s, d=2, criterion="BIC", ranges=((-2.0, 7.0),) * 2,
                     coarse_step=1.0, refine_resolution=0.1, ctrl=h.FitControl()):
    """``select_smoothing`` as it was with its grid-plus-pattern search (by default the
    10 x 10 grid refined down to 0.125): the selected fit, its ``candidates`` the table."""
    setup = smooth2d._prepare(data, cause, kv_u, kv_s)

    def fit_one(lu, ls, start):
        fit = h.fit_hazard(data, cause, kv_u, kv_s, h.PenaltyConfig(lu, ls, d), ctrl,
                           _setup=setup, _start=start)
        return (fit.aic if criterion == "AIC" else fit.bic), fit.coef, fit

    grid = grid_pattern_search(fit_one, h.SearchConfig(*ranges, coarse_step), refine_resolution)
    best = grid.best.fit
    best.candidates = grid.table
    return best
