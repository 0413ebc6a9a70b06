import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hazard2ts as h
from conftest import grid_pattern_search, oracle_smoothing, pattern_ends
from test_pclm import small_problem as small_pclm_problem
from hazard2ts import cli, glam, smooth2d
from hazard2ts.errors import ConvergenceError, DataError
from hazard2ts.smooth2d import _prepare, penalty_matrix


def toy_data(rng, n_u=8, n_s=6, lam=0.2, r_scale=30.0):
    grid = h.build_grid(0, n_u, 1, 0, n_s, 1)
    R = np.full((n_u, n_s), r_scale)
    Y = rng.poisson(lam * R).astype(float)
    Y = np.maximum(Y, 1.0)  # keep every bin informative for saturated-fit checks
    return h.BinnedData(grid=grid, Y={1: Y, 2: np.ones_like(Y)}, R=R)


def toy_knots(n_u=8, n_s=6, c_u=5, c_s=4, degree=2):
    return (h.make_knots(0, n_u, c_u - degree, degree),
            h.make_knots(0, n_s, c_s - degree, degree))


def dense_means(fit, data):
    """The fitted Poisson means on the grid, exposure times hazard, through ``np.kron``."""
    K = np.kron(h.evaluate_basis(data.grid.s_mid, fit.kv_s),
                h.evaluate_basis(data.grid.u_mid, fit.kv_u))
    return data.R * np.exp(K @ fit.coef).reshape(data.R.shape, order="F")


def recompute_score_rel(fit, data, cause):
    """Independent stationarity check through dense matrices."""
    K = np.kron(h.evaluate_basis(data.grid.s_mid, fit.kv_s),
                h.evaluate_basis(data.grid.u_mid, fit.kv_u))
    y = data.Y[cause].flatten(order="F")
    mu = data.R.flatten(order="F") * np.exp(K @ fit.coef)
    P = penalty_matrix(fit.A.shape[0], fit.A.shape[1], fit.penalty)
    score = K.T @ (y - mu) - P @ fit.coef
    return np.abs(score).max() / np.abs(K.T @ y).max()


class TestFitHazard:
    def test_single_bin_closed_form_mle(self):
        grid = h.build_grid(0, 1, 1, 0, 1, 1)
        data = h.BinnedData(grid=grid, Y={1: np.array([[5.0]]), 2: np.array([[1.0]])},
                            R=np.array([[10.0]]))
        kv = h.make_knots(0, 1, 1, 0)
        fit = h.fit_hazard(data, 1, kv, kv, h.zero_penalty())
        assert np.exp(fit.A[0, 0]) == pytest.approx(0.5, abs=1e-12)
        assert dense_means(fit, data)[0, 0] == pytest.approx(5.0, abs=1e-10)
        assert fit.ed == pytest.approx(1.0, abs=1e-10)

    def test_constant_hazard_recovery(self, constant_fits, default_grid):
        lam = h.evaluate_hazard(constant_fits[1], default_grid.u_mid, default_grid.s_mid)
        interior = lam[5:45, 2:19]  # central 80% of each axis
        assert np.all(np.abs(interior / 0.1 - 1.0) < 0.10)

    def test_huge_penalty_gives_bilinear_surface(self, constant_binned, default_knots):
        kv_u, kv_s = default_knots
        fit = h.fit_hazard(constant_binned, 1, kv_u, kv_s,
                           h.PenaltyConfig(log10_rho_u=8.0, log10_rho_s=8.0, d=2))
        eta = np.log(h.evaluate_hazard(fit, constant_binned.grid.u_mid,
                                       constant_binned.grid.s_mid))
        assert np.abs(np.diff(eta, n=2, axis=0)).max() < 1e-4
        assert np.abs(np.diff(eta, n=2, axis=1)).max() < 1e-4

    def test_zero_exposure_bins_hold_weight_zero(self):
        rng = np.random.default_rng(0)
        data = toy_data(rng)
        data.R[0, 0] = 0.0
        data.Y[1][0, 0] = 0.0
        kv_u, kv_s = toy_knots()
        fit = h.fit_hazard(data, 1, kv_u, kv_s, h.PenaltyConfig(0.0, 0.0, 2))
        # the engine's masked means at the fit, which weight the information
        assert _prepare(data, 1, kv_u, kv_s).prob.state(fit.coef)[1][0, 0] == 0.0
        assert fit.n_bin == data.R.size - 1

    def test_stationarity_verified_externally(self):
        rng = np.random.default_rng(1)
        data = toy_data(rng)
        kv_u, kv_s = toy_knots()
        for lrho in (-2.0, 0.0, 3.0):
            fit = h.fit_hazard(data, 1, kv_u, kv_s, h.PenaltyConfig(lrho, lrho, 2))
            assert recompute_score_rel(fit, data, 1) < 1e-6

    def test_all_zero_events_rejected(self):
        grid = h.build_grid(0, 4, 1, 0, 4, 1)
        data = h.BinnedData(grid=grid, Y={1: np.zeros((4, 4)), 2: np.ones((4, 4))},
                            R=np.ones((4, 4)))
        kv_u, kv_s = toy_knots(4, 4, 3, 3)
        with pytest.raises(DataError, match="unidentified"):
            h.fit_hazard(data, 1, kv_u, kv_s, h.PenaltyConfig(0.0, 0.0, 2))

    def test_nonconvergence_carries_last_iterate(self):
        rng = np.random.default_rng(2)
        data = toy_data(rng)
        kv_u, kv_s = toy_knots()
        with pytest.raises(ConvergenceError) as err:
            h.fit_hazard(data, 1, kv_u, kv_s, h.PenaltyConfig(0.0, 0.0, 2),
                         h.FitControl(max_iter=1))
        assert err.value.last_coef is not None
        assert err.value.score_norm is not None

    def test_exposure_scaling_shifts_log_hazard(self):
        rng = np.random.default_rng(3)
        data = toy_data(rng)
        kv_u, kv_s = toy_knots()
        pen = h.PenaltyConfig(1.0, 0.5, 2)
        scaled = h.BinnedData(grid=data.grid, Y={k: v.copy() for k, v in data.Y.items()},
                              R=3.0 * data.R)
        fit0 = h.fit_hazard(data, 1, kv_u, kv_s, pen)
        fit1 = h.fit_hazard(scaled, 1, kv_u, kv_s, pen)
        eta0 = h.linear_predictor(h.ArrayModelWorkspace(
            h.evaluate_basis(data.grid.u_mid, kv_u),
            h.evaluate_basis(data.grid.s_mid, kv_s)), fit0.A)
        eta1 = h.linear_predictor(h.ArrayModelWorkspace(
            h.evaluate_basis(data.grid.u_mid, kv_u),
            h.evaluate_basis(data.grid.s_mid, kv_s)), fit1.A)
        assert np.abs(eta1 + math.log(3.0) - eta0).max() < 1e-6

    def test_saturated_basis_zero_deviance(self):
        rng = np.random.default_rng(4)
        grid = h.build_grid(0, 5, 1, 0, 4, 1)
        Y = rng.poisson(8.0, size=(5, 4)).astype(float) + 1.0
        data = h.BinnedData(grid=grid, Y={1: Y, 2: np.ones_like(Y)}, R=np.ones_like(Y))
        kv_u = h.make_knots(0, 5, 5, 0)   # one indicator per bin
        kv_s = h.make_knots(0, 4, 4, 0)
        fit = h.fit_hazard(data, 1, kv_u, kv_s, h.zero_penalty())
        assert fit.deviance == pytest.approx(0.0, abs=1e-8)


class TestEffectiveDimension:
    def test_full_rank_at_zero_penalty(self):
        rng = np.random.default_rng(5)
        data = toy_data(rng)
        kv_u, kv_s = toy_knots()
        fit = h.fit_hazard(data, 1, kv_u, kv_s, h.zero_penalty())
        assert fit.ed == pytest.approx(fit.n_coef, abs=1e-6)

    def test_limit_is_penalty_null_space_dimension(self, constant_binned, default_knots):
        kv_u, kv_s = default_knots
        fit = h.fit_hazard(constant_binned, 1, kv_u, kv_s,
                           h.PenaltyConfig(10.0, 10.0, 2))
        assert fit.ed == pytest.approx(4.0, abs=0.05)

    def test_monotone_in_each_smoothing_parameter(self):
        rng = np.random.default_rng(6)
        data = toy_data(rng)
        kv_u, kv_s = toy_knots()
        ladder = [-2.0, 0.0, 2.0, 4.0, 6.0]
        eds_u = [h.fit_hazard(data, 1, kv_u, kv_s, h.PenaltyConfig(l, 0.0, 2)).ed
                 for l in ladder]
        eds_s = [h.fit_hazard(data, 1, kv_u, kv_s, h.PenaltyConfig(0.0, l, 2)).ed
                 for l in ladder]
        assert all(a >= b - 1e-6 for a, b in zip(eds_u, eds_u[1:]))
        assert all(a >= b - 1e-6 for a, b in zip(eds_s, eds_s[1:]))


class TestInverseSpd:
    @pytest.mark.parametrize("n", [1, 2, 48, 49, 97, 160])
    def test_matches_the_inverse(self, n):
        X = np.random.default_rng(n).standard_normal((2 * n + 3, n))
        M = X.T @ X
        inv = smooth2d._inverse_spd(M)
        assert np.array_equal(inv, inv.T)
        assert np.max(np.abs(inv @ M - np.eye(n))) < 1e-9

    def test_cholesky_rejects_singular_psd_matrices(self):
        with pytest.raises(np.linalg.LinAlgError):
            smooth2d._inverse_spd(np.diag([2.0, 1.0, 0.0]))
        # a coefficient no bin informs: a zero row and column in a larger information
        X = np.random.default_rng(3).standard_normal((150, 60))
        X[:, -1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            smooth2d._inverse_spd(X.T @ X)

    def test_indefinite_matrix_still_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            smooth2d._inverse_spd(np.diag([1.0, 1.0, -0.5]))

    def test_unpenalized_coefficient_without_data_is_refused(self):
        # the corner coefficient's support has no exposure and rho = 0: nothing determines it,
        # and the fit is refused before its first step
        data = toy_data(np.random.default_rng(0))
        data.R[:3, :3] = 0.0
        data.Y[1][:3, :3] = 0.0
        kv_u, kv_s = toy_knots()
        with pytest.raises(DataError, match="^1 of 20 coefficients are determined by neither "
                                            "the data nor the penalty"):
            h.fit_hazard(data, 1, kv_u, kv_s, h.zero_penalty())
        # a penalty on either axis ties it to its neighbours
        for penalty in (h.PenaltyConfig(-math.inf, 0.0), h.PenaltyConfig(0.0, -math.inf)):
            assert np.isfinite(h.fit_hazard(data, 1, kv_u, kv_s, penalty).covariance).all()

    @pytest.mark.parametrize("target", ["solve", "inverse"])
    def test_information_that_does_not_invert_is_a_convergence_error(self, monkeypatch,
                                                                     target):
        """A LinAlgError of the Newton step's solve or of the final inverse ends the fit as a
        ConvergenceError with its step count, which a search drops as inf."""
        data = toy_data(np.random.default_rng(1))
        kv_u, kv_s = toy_knots()
        setup = _prepare(data, 1, kv_u, kv_s)
        want = h.fit_hazard(data, 1, kv_u, kv_s, h.PenaltyConfig(1.0, 1.0), _setup=setup)

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        if target == "solve":
            monkeypatch.setattr(np.linalg, "solve", singular)
        else:
            monkeypatch.setattr(smooth2d, "_inverse_spd", singular)
        with pytest.raises(ConvergenceError,
                           match=r"^IWLS: Singular matrix after \d+ iterations$") as exc:
            h.fit_hazard(data, 1, kv_u, kv_s, h.PenaltyConfig(1.0, 1.0), _setup=setup)
        assert exc.value.n_iter == (0 if target == "solve" else want.n_iter)
        search = smooth2d._GridSearch(lambda la, lb, start: (0.0, None, h.fit_hazard(
            data, 1, kv_u, kv_s, h.PenaltyConfig(la, lb), _setup=setup)))
        search.evaluate(1.0, 1.0, None)
        assert search.table == [(1.0, 1.0, np.inf, exc.value.n_iter, False)]


class TestUndetermined:
    """``_PoissonProblem.undetermined`` against the rank of the stacked dense rows: the tensor
    rows of the positive-exposure bins and of the summed rows, and the difference rows of the
    penalized axes.  Their squared singular values are the eigenvalues of the structural
    information, so the rank counts singular values above 1e-5 of the largest."""

    @settings(max_examples=60, deadline=None)
    @given(n_u=st.integers(3, 7), n_s=st.integers(2, 6), c_u=st.integers(3, 8),
           c_s=st.integers(3, 7), degree=st.integers(0, 3), zero=st.integers(0, 2**42 - 1),
           rho=st.tuples(st.booleans(), st.booleans()), grouped=st.booleans())
    def test_matches_the_dense_rank(self, n_u, n_s, c_u, c_s, degree, zero, rho, grouped):
        deg_u, deg_s = min(degree, c_u - 1), min(degree, c_s - 1)
        Bu = h.evaluate_basis(np.arange(n_u) + 0.5, h.make_knots(0, n_u, c_u - deg_u, deg_u))
        Bs = h.evaluate_basis(np.arange(n_s) + 0.5, h.make_knots(0, n_s, c_s - deg_s, deg_s))
        bits = [(zero >> i) & 1 for i in range(n_u * n_s)]
        exposure = np.where(bits, 0.0, 1.0).reshape(n_u, n_s)
        C = None
        if grouped:                   # the last two fine rows observed as one sum
            C = np.vstack([np.eye(n_u)[:-2], np.r_[np.zeros(n_u - 2), 1.0, 1.0]])
            exposure[-2:] = 1.0
        counts = exposure if C is None else C @ exposure
        prob = smooth2d._PoissonProblem(glam.ArrayModelWorkspace(Bu, Bs), counts, exposure, C)
        rows = [np.kron(Bs[k], Bu[j]) for j in range(n_u - 2 * grouped) for k in range(n_s)
                if exposure[j, k] > 0]
        if grouped:
            rows += [np.kron(Bs[k], Bu[-2] + Bu[-1]) for k in range(n_s)]
        if rho[0]:
            rows += list(np.kron(np.eye(c_s), h.difference_matrix(c_u, 2)))
        if rho[1]:
            rows += list(np.kron(h.difference_matrix(c_s, 2), np.eye(c_u)))
        rows = np.array(rows)
        rank = np.linalg.matrix_rank(rows, tol=1e-5 * np.linalg.norm(rows, 2)) if len(rows) else 0
        penalty = h.PenaltyConfig(*(0.0 if on else -math.inf for on in rho))
        assert prob.undetermined(penalty) == c_u * c_s - rank


class TestInformationCriteria:
    def test_hand_computed_values(self):
        rng = np.random.default_rng(7)
        data = toy_data(rng)
        kv_u, kv_s = toy_knots()
        fit = h.fit_hazard(data, 1, kv_u, kv_s, h.PenaltyConfig(1.0, 1.0, 2))
        assert fit.aic == pytest.approx(fit.deviance + 2.0 * fit.ed, abs=1e-12)
        assert fit.bic == pytest.approx(fit.deviance + math.log(fit.n_bin) * fit.ed, abs=1e-12)

    def test_bic_exceeds_aic_beyond_e_squared_bins(self):
        rng = np.random.default_rng(8)
        data = toy_data(rng)  # 48 bins > e^2
        kv_u, kv_s = toy_knots()
        fit = h.fit_hazard(data, 1, kv_u, kv_s, h.PenaltyConfig(1.0, 1.0, 2))
        assert fit.n_bin > math.e**2
        assert fit.bic >= fit.aic


class TestSelectSmoothing:
    def test_selected_beats_every_grid_candidate(self):
        rng = np.random.default_rng(9)
        data = toy_data(rng)
        kv_u, kv_s = toy_knots()
        search = h.SearchConfig(log10_rho_u_range=(-1.0, 3.0),
                                log10_rho_s_range=(-1.0, 3.0), coarse_step=1.0)
        best = h.select_smoothing(data, 1, kv_u, kv_s, criterion="BIC", search=search)
        # exhaustive oracle over the same coarse grid
        for lu in np.arange(-1.0, 3.1, 1.0):
            for ls in np.arange(-1.0, 3.1, 1.0):
                cand = h.fit_hazard(data, 1, kv_u, kv_s, h.PenaltyConfig(lu, ls, 2))
                assert best.bic <= cand.bic + 1e-9

    def test_aic_criterion_supported(self):
        rng = np.random.default_rng(10)
        data = toy_data(rng)
        kv_u, kv_s = toy_knots()
        search = h.SearchConfig(log10_rho_u_range=(0.0, 2.0),
                                log10_rho_s_range=(0.0, 2.0), coarse_step=1.0)
        fit = h.select_smoothing(data, 1, kv_u, kv_s, criterion="AIC", search=search)
        assert fit.aic == min(c[2] for c in fit.candidates)

    @pytest.mark.parametrize("refine", [1.0, 2.5])
    def test_no_refinement_below_the_coarse_step(self, refine):
        """The oracle with refine_resolution >= coarse_step fits the coarse grid alone (the
        search's tables begin with the oracle's: TestWarmStartedSearch)."""
        data = toy_data(np.random.default_rng(16))
        kv_u, kv_s = toy_knots()
        oracle = oracle_smoothing(data, 1, kv_u, kv_s, ranges=((-1.0, 2.0), (0.0, 2.0)),
                                  coarse_step=1.0, refine_resolution=refine)
        assert [c[:2] for c in oracle.candidates] == [(lu, ls) for lu in (-1.0, 0.0, 1.0, 2.0)
                                                      for ls in (0.0, 1.0, 2.0)]

    @pytest.mark.parametrize("kwargs", [
        {"refine_resolution": 0.0},      # no setting since the pattern search is gone
        {"refine_resolution": -0.1},
        {"coarse_step": 0.0},            # divided by zero
        {"coarse_step": float("nan")},
        {"log10_rho_u_range": (3.0, -1.0)},
        {"log10_rho_s_range": (1.0, 0.0)},
        {"coarse_step": math.inf},       # enumerates no grid
        {"refine_resolution": math.inf},
        {"refine_resolution": math.nan},
        {"log10_rho_u_range": (-math.inf, 7.0)},    # np.arange cannot enumerate these
        {"log10_rho_s_range": (0.0, math.inf)},
        {"log10_rho_u_range": (math.nan, 1.0)},
        {"log10_rho_s_range": (0.0, 400.0)},        # 10**400 is no float
        {"log10_rho_u_range": (-1e6, 7.0)},         # coarse grids past max_evals: a hang
        {"coarse_step": 0.01},
        {"coarse_step": 1.0, "max_evals": 99},
        {"refine_resolution": 1e-13},
    ])
    def test_search_config_refuses_bad_steps_and_ranges(self, kwargs):
        with pytest.raises(TypeError if "refine_resolution" in kwargs else ValueError):
            h.SearchConfig(**kwargs)

    def test_default_grid_is_4_by_4(self):
        assert h.SearchConfig().coarse_step == 3.0
        assert [list(axis) for axis in h.SearchConfig().axes()] == [[-2.0, 1.0, 4.0, 7.0]] * 2

    def test_max_evals_caps_the_coarse_grid(self):
        assert h.SearchConfig(coarse_step=1.0, max_evals=100).max_evals == 100   # 10 x 10
        with pytest.raises(ValueError, match="101 candidates"):
            h.SearchConfig(log10_rho_u_range=(-2.0, 98.0), log10_rho_s_range=(0.0, 0.0),
                           coarse_step=1.0, max_evals=100)
        # rho_u = 0 is one candidate per column
        h.SearchConfig(log10_rho_u_range=(-math.inf, -math.inf), coarse_step=1.0, max_evals=10)

    def test_max_evals_caps_the_fits_of_the_whole_search(self):
        data = toy_data(np.random.default_rng(9))
        kv_u, kv_s = toy_knots()
        search = h.SearchConfig((-1.0, 3.0), (-1.0, 3.0), 2.0, max_evals=9)
        fit = h.select_smoothing(data, 1, kv_u, kv_s, search=search)
        assert len(fit.candidates) == 9                            # the 3 x 3 grid alone
        search = h.SearchConfig((-1.0, 3.0), (-1.0, 3.0), 2.0, max_evals=11)
        assert len(h.select_smoothing(data, 1, kv_u, kv_s, search=search).candidates) <= 11

    @settings(max_examples=60, deadline=None)
    @given(lo=st.sampled_from([-2.0, -0.5, 0.0, 1.25]), width=st.floats(0.0, 6.0),
           coarse_step=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
           refine=st.sampled_from([0.05, 0.1, 0.3, 0.5, 1.0, 2.5]), sign=st.sampled_from([1, -1]))
    @example(lo=-2.0, width=8.3, coarse_step=1.0, refine=0.1, sign=1)   # [-2, 6.3]: top 6.25
    def test_ends_are_what_the_search_reaches(self, lo, width, coarse_step, refine, sign):
        """A criterion that falls (sign 1) or rises (sign -1) along both axes leads the oracle
        to the ends of its lattice, and the search to the ends of the ranges themselves, both
        flagged on edge; no candidate of either lies beyond the ranges."""
        search = h.SearchConfig((lo, lo + width), (lo, lo + width), coarse_step)
        fit = SimpleNamespace(n_iter=1)

        def fit_one(a, b, start):
            return -sign * (a + b), np.zeros(1), fit

        oracle = grid_pattern_search(fit_one, search, refine)
        ends = pattern_ends(search, refine)
        assert oracle.best.key == tuple(round(end[sign == 1], 6) for end in ends)
        grid = smooth2d._GridSearch(fit_one)
        grid.run(search)
        grid.pattern(search)
        slope = smooth2d._quasi_newton(grid, search, lambda _: np.array([-sign, -sign], float))
        target = lo + width if sign == 1 else lo     # reached within a key's 1e-6
        assert all(v >= target - 1e-6 if sign == 1 else v <= target + 1e-6
                   for v in grid.best.point)
        assert grid.best.value <= oracle.best.value
        lows, highs = search.bounds()
        assert list(smooth2d._falls_out(np.array(grid.best.point), slope, lows, highs)) == \
            [True, True]
        for row in oracle.table + grid.table:
            assert all(lo - 1e-9 <= value <= lo + width + 1e-9 for value in row[:2])
        assert len({row[:2] for row in grid.table}) == len(grid.table)

    def test_ends_of_the_phi_search_are_its_range_ends(self):
        """By 0.7 the PCLM grid on [-1, 2] stops at 1.8, and the search goes on to the range end
        2 itself.  On edge is an end of the range where a fit 1e-3 inside has the larger AIC, as
        for the hazards, and ``cli`` reports the search's flags."""
        search = h.SearchConfig((-1.0, 2.0), (-1.0, 2.0), 0.7)
        assert search.axes()[0][-1] == pytest.approx(1.8)
        ends = 0
        for seed in (3, 5, 9, 10):
            _, _, spec, C, Z, Bu, Bs = small_pclm_problem(seed=seed)
            fit = h.select_pclm_smoothing(Z, C, Bu, Bs, search=search)
            diag = cli._pclm_diag(fit)
            for i, axis in enumerate("us"):
                value = fit.phis[i]
                inward = {-1.0: 1e-3, 2.0: -1e-3}.get(value)
                on_edge = inward is not None
                if on_edge:
                    inside = list(fit.phis)
                    inside[i] += inward
                    aics = [h.fit_pclm(Z, C, Bu, Bs, phis=tuple(p)).aic
                            for p in (fit.phis, inside)]
                    on_edge = aics[1] > aics[0]
                assert fit.on_edge[i] is diag[f"log10_phi_{axis}_on_edge"] is on_edge, \
                    (seed, axis, value)
                ends += value == 2.0
        assert ends >= 1   # the range end beyond the grid's top is reached

    def test_rho_zero_range_is_searched_as_minus_inf(self):
        data = toy_data(np.random.default_rng(12))
        kv_u, kv_s = toy_knots()
        search = h.SearchConfig(log10_rho_u_range=(-math.inf, -math.inf),
                                log10_rho_s_range=(0.0, 2.0), coarse_step=1.0)
        fit = h.select_smoothing(data, 1, kv_u, kv_s, search=search)
        assert fit.penalty.log10_rho_u == -math.inf
        assert {lu for lu, *_ in fit.candidates} == {-math.inf}
        assert fit.on_edge[0] is True                  # a rho = 0 axis is always on edge
        for ls in (0.0, 1.0, 2.0):
            assert fit.bic <= h.fit_hazard(data, 1, kv_u, kv_s,
                                           h.PenaltyConfig(-math.inf, ls, 2)).bic + 1e-9
        # both axes unpenalized: the one candidate is the cold fit
        search = h.SearchConfig(log10_rho_u_range=(-math.inf, -math.inf),
                                log10_rho_s_range=(-math.inf, -math.inf))
        fit = h.select_smoothing(data, 1, kv_u, kv_s, search=search)
        assert [c[:2] for c in fit.candidates] == [(-math.inf, -math.inf)]
        fits_equal(fit, h.fit_hazard(data, 1, kv_u, kv_s, h.PenaltyConfig(-math.inf, -math.inf, 2)))

    @pytest.mark.parametrize("kwargs", [
        {"max_iter": 0}, {"max_iter": -3}, {"dev_rel_tol": -1.0}, {"dev_rel_tol": 0.0},
        {"score_rel_tol": math.nan}, {"score_rel_tol": math.inf},
    ])
    def test_fit_control_refuses_settings_no_fit_can_meet(self, kwargs):
        with pytest.raises(ValueError):
            h.FitControl(**kwargs)

    @pytest.mark.parametrize("lrho", [(400.0, 0.0), (0.0, math.inf), (math.nan, 0.0)])
    def test_penalty_config_refuses_rho_that_is_no_float(self, lrho):
        with pytest.raises(ValueError):
            h.PenaltyConfig(*lrho)

    def test_unknown_criterion_rejected(self):
        rng = np.random.default_rng(11)
        data = toy_data(rng)
        kv_u, kv_s = toy_knots()
        with pytest.raises(ValueError):
            h.select_smoothing(data, 1, kv_u, kv_s, criterion="GCV")


def cold_criterion(data, cause, kv_u, kv_s, lrho, criterion, ctrl):
    """The criterion of a standalone ``fit_hazard`` from the default start, inf if it fails."""
    try:
        fit = h.fit_hazard(data, cause, kv_u, kv_s, h.PenaltyConfig(*lrho, 2), ctrl)
    except ConvergenceError:
        return np.inf
    return fit.aic if criterion == "AIC" else fit.bic


def cold_search(data, cause, kv_u, kv_s, d, criterion, search, refine_resolution, ctrl):
    """The grid-plus-pattern search as it was before warm starts, kept as the oracle: every
    candidate a standalone ``fit_hazard`` from the default start.  Returns the selected
    (log10 rho_u, log10 rho_s) and the criterion of every candidate (inf if it failed)."""
    cache = {}

    def key(lu, ls):
        return (round(lu, 6), round(ls, 6))

    def evaluate(lu, ls):
        k = key(lu, ls)
        if k not in cache:
            try:
                fit = h.fit_hazard(data, cause, kv_u, kv_s, h.PenaltyConfig(lu, ls, d), ctrl)
                cache[k] = fit.aic if criterion == "AIC" else fit.bic
            except ConvergenceError:
                cache[k] = np.inf
        return cache[k]

    def better(cand, best):
        if cand[0] != best[0]:
            return cand[0] < best[0]
        return cand[1] > best[1]

    lo_u, hi_u = search.log10_rho_u_range
    lo_s, hi_s = search.log10_rho_s_range
    best = None
    for lu in np.arange(lo_u, hi_u + 1e-9, search.coarse_step):
        for ls in np.arange(lo_s, hi_s + 1e-9, search.coarse_step):
            value = evaluate(lu, ls)
            cand = (value, 10.0**lu + 10.0**ls, key(lu, ls))
            if np.isfinite(value) and (best is None or better(cand, best)):
                best = cand
    step = search.coarse_step / 2.0
    cur_lu, cur_ls = best[2]
    while step >= refine_resolution - 1e-12 and len(cache) < search.max_evals:
        moved = False
        for dlu, dls in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            lu, ls = cur_lu + dlu, cur_ls + dls
            if not (lo_u - 1e-9 <= lu <= hi_u + 1e-9 and lo_s - 1e-9 <= ls <= hi_s + 1e-9):
                continue
            value = evaluate(lu, ls)
            cand = (value, 10.0**lu + 10.0**ls, key(lu, ls))
            if np.isfinite(value) and better(cand, best):
                best = cand
                cur_lu, cur_ls = key(lu, ls)
                moved = True
        if not moved:
            step /= 2.0
    return best[2], cache


def fits_equal(a, b):
    """Every field of two FittedHazards equal (arrays elementwise, covariances included)."""
    for name in ("A", "covariance"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.hull[0] == b.hull[0] and np.array_equal(a.hull[1], b.hull[1])
    for name in ("penalty", "deviance", "ed", "aic", "bic", "n_bin", "n_iter"):
        assert getattr(a, name) == getattr(b, name), name


class TestWarmStartedSearch:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), n_u=st.integers(5, 9), n_s=st.integers(4, 7),
           lam=st.sampled_from([0.05, 0.2, 1.0]), empty_corner=st.booleans(),
           lo_u=st.sampled_from([-2.0, 0.0, 1.5]), lo_s=st.sampled_from([-2.0, 0.0, 1.5]),
           width=st.sampled_from([2.0, 3.0, 5.0]), coarse_step=st.sampled_from([1.0, 1.5, 2.5]),
           refine=st.sampled_from([0.25, 0.5]), criterion=st.sampled_from(["AIC", "BIC"]))
    # a near-flat AIC: at the default control the two searches stop on rounding noise, the
    # warm one at (5, 7.25) and the cold one at (5, 7.0); at the tighter control below both
    # pick (5, 7.25).  Tighter still (score_rel_tol 1e-10) some candidates converge from one
    # start only, so the sets of failed candidates differ.
    @example(seed=5, n_u=5, n_s=4, lam=0.2, empty_corner=True, lo_u=0.0, lo_s=1.5, width=5.0,
             coarse_step=1.0, refine=0.25, criterion="AIC")
    # two basins: from the grid's best (-2, 0.5) the gradient descent alone ended at
    # (-1.85, 1), BIC 41.4772, where the pattern moves find (-0.125, 0.5), 38.0234
    @example(seed=37392, n_u=5, n_s=6, lam=1.0, empty_corner=True, lo_u=-2.0, lo_s=-2.0,
             width=2.0, coarse_step=2.5, refine=0.5, criterion="BIC")
    def test_matches_cold_search(self, seed, n_u, n_s, lam, empty_corner, lo_u, lo_s, width,
                                 coarse_step, refine, criterion):
        """The grid-plus-pattern oracle selects and fits as its cold version does.  The search
        fits the oracle's table first, row for row and bit for bit, then each further key once,
        every candidate as a cold fit would; it selects at most the oracle's criterion, and its
        on-edge flags are the sign rule of the exact gradient at the selected fit."""
        data = toy_data(np.random.default_rng(seed), n_u, n_s, lam)
        if empty_corner:                      # zero-exposure bins, weight zero in every fit
            data.R[:2, :2] = 0.0
            data.Y[1][:2, :2] = 0.0
        kv_u, kv_s = toy_knots(n_u, n_s)
        ranges = ((lo_u, lo_u + width), (lo_s, lo_s + width + 1.0))
        search = h.SearchConfig(*ranges, coarse_step=coarse_step)
        ctrl = h.FitControl(max_iter=400, dev_rel_tol=1e-12, score_rel_tol=1e-8)
        oracle = oracle_smoothing(data, 1, kv_u, kv_s, 2, criterion, ranges, coarse_step, refine,
                                  ctrl)
        chosen, cold = cold_search(data, 1, kv_u, kv_s, 2, criterion, search, refine, ctrl)

        assert (round(oracle.penalty.log10_rho_u, 6), round(oracle.penalty.log10_rho_s, 6)) \
            == chosen
        table = {(round(lu, 6), round(ls, 6)): value for lu, ls, value, _, _ in oracle.candidates}
        assert len(table) == len(oracle.candidates)
        assert table.keys() == cold.keys()
        assert ({k for k, v in table.items() if not np.isfinite(v)}
                == {k for k, v in cold.items() if not np.isfinite(v)})
        for k, value in table.items():
            if np.isfinite(value):
                assert value == pytest.approx(cold[k], rel=1e-8, abs=0.0), k

        fit_hazard, fitted = smooth2d.fit_hazard, []

        def recording(data, cause, kv_u, kv_s, penalty, ctrl=h.FitControl(), **kw):
            key = (round(penalty.log10_rho_u, 6), round(penalty.log10_rho_s, 6))
            if not fitted or fitted[-1] != key:          # a cold retry refits the same key
                fitted.append(key)
            return fit_hazard(data, cause, kv_u, kv_s, penalty, ctrl, **kw)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(smooth2d, "fit_hazard", recording)
            fit = h.select_smoothing(data, 1, kv_u, kv_s, criterion=criterion, search=search,
                                     ctrl=ctrl)
        keys = [(round(lu, 6), round(ls, 6)) for lu, ls, *_ in fit.candidates]
        assert keys == fitted and len(set(keys)) == len(keys)
        for lu, ls, value, _, _ in fit.candidates:
            alone = cold_criterion(data, 1, kv_u, kv_s, (lu, ls), criterion, ctrl)
            assert np.isfinite(value) == np.isfinite(alone), (lu, ls)
            if np.isfinite(value):
                assert value == pytest.approx(alone, rel=1e-8, abs=0.0), (lu, ls)
        assert fit.candidates[:len(oracle.candidates)] == oracle.candidates
        selected, bound = ((f.aic if criterion == "AIC" else f.bic) for f in (fit, oracle))
        assert selected == min(c[2] for c in fit.candidates)
        assert selected <= bound * (1 + 1e-6)
        # the first candidate has no converged neighbour: it starts cold, bitwise as alone
        first = fit.candidates[0]
        assert first[2] == cold[(round(first[0], 6), round(first[1], 6))]

        setup = _prepare(data, 1, kv_u, kv_s)
        slope = smooth2d._criterion_gradient(setup.prob, fit.penalty, fit.coef, fit.covariance, 2.0 if criterion == "AIC"
                                             else math.log(setup.n_bin))
        point = np.array([fit.penalty.log10_rho_u, fit.penalty.log10_rho_s])
        assert list(smooth2d._falls_out(point, slope, *search.bounds())) == list(fit.on_edge)

    def test_failed_warm_start_is_retried_cold(self, monkeypatch):
        data = toy_data(np.random.default_rng(12))
        kv_u, kv_s = toy_knots()
        search = h.SearchConfig(log10_rho_u_range=(0.0, 2.0), log10_rho_s_range=(0.0, 2.0),
                                coarse_step=1.0)
        fit_hazard = smooth2d.fit_hazard
        doomed = {(1.0, 1.0): "warm", (2.0, 0.0): "both"}   # which attempts fail there

        def failing(data, cause, kv_u, kv_s, penalty, ctrl=h.FitControl(), **kw):
            mode = doomed.get((penalty.log10_rho_u, penalty.log10_rho_s))
            if mode == "both" or (mode == "warm" and kw["_start"] is not None):
                raise ConvergenceError("injected", n_iter=ctrl.max_iter)
            return fit_hazard(data, cause, kv_u, kv_s, penalty, ctrl, **kw)

        monkeypatch.setattr(smooth2d, "fit_hazard", failing)
        fit = h.select_smoothing(data, 1, kv_u, kv_s, search=search)
        rows = {(lu, ls): (value, steps, retried) for lu, ls, value, steps, retried
                in fit.candidates}
        cold = fit_hazard(data, 1, kv_u, kv_s, h.PenaltyConfig(1.0, 1.0, 2))
        # retried from the default start: exactly the cold fit, after 50 failed steps
        assert rows[(1.0, 1.0)] == (cold.bic, 50 + cold.n_iter, True)
        # failing from both starts drops the candidate
        assert rows[(2.0, 0.0)] == (np.inf, 100, True)
        assert sum(retried for _, _, retried in rows.values()) == 2

    def test_warm_starts_follow_neighbours(self, monkeypatch):
        data = toy_data(np.random.default_rng(15))
        kv_u, kv_s = toy_knots()
        search = h.SearchConfig(log10_rho_u_range=(-1.0, 2.0), log10_rho_s_range=(0.0, 2.0),
                                coarse_step=1.0)
        fit_hazard, calls = smooth2d.fit_hazard, []

        def recording(*args, **kw):
            fit = fit_hazard(*args, **kw)
            calls.append(((args[4].log10_rho_u, args[4].log10_rho_s), kw["_start"], fit))
            return fit

        monkeypatch.setattr(smooth2d, "fit_hazard", recording)
        h.select_smoothing(data, 1, kv_u, kv_s, search=search)
        coef = {k: fit.coef for k, _, fit in calls}
        rows, cols = np.arange(-1.0, 2.1), np.arange(0.0, 2.1)
        assert [k for k, _, _ in calls[:12]] == [(lu, ls) for lu in rows for ls in cols]
        assert calls[0][1] is None
        for (lu, ls), start, _ in calls[1:12]:
            # the previous candidate in the row, or the first one of the row before
            source = (lu, ls - 1.0) if ls > 0.0 else (lu - 1.0, 0.0)
            assert np.array_equal(start, coef[source]), (lu, ls)
        for i, (k, start, _) in enumerate(calls[12:], start=12):
            best = min(calls[:i], key=lambda c: (c[2].bic, -(10.0**c[0][0] + 10.0**c[0][1])))
            assert np.array_equal(start, best[2].coef), k

    def test_candidate_table_lists_every_fit_once(self):
        data = toy_data(np.random.default_rng(13))
        kv_u, kv_s = toy_knots()
        search = h.SearchConfig(log10_rho_u_range=(-1.0, 3.0), log10_rho_s_range=(-1.0, 3.0),
                                coarse_step=1.0)
        fit = h.select_smoothing(data, 1, kv_u, kv_s, search=search)
        coarse = [(lu, ls) for lu in np.arange(-1.0, 3.1) for ls in np.arange(-1.0, 3.1)]
        assert [(lu, ls) for lu, ls, *_ in fit.candidates[:len(coarse)]] == coarse
        assert len({(round(lu, 6), round(ls, 6)) for lu, ls, *_ in fit.candidates}) == \
            len(fit.candidates)
        assert min(c[2] for c in fit.candidates) == fit.bic
        assert all(steps >= 1 and retried is False for _, _, _, steps, retried in fit.candidates)
        assert fit.n_iter == next(c[3] for c in fit.candidates if c[2] == fit.bic)

    def test_failed_trial_shortens_the_step(self, monkeypatch):
        """A line-search trial that fails from both starts is one inf row; the next trial
        halves the step along the same direction, and the search goes on past it."""
        data = toy_data(np.random.default_rng(10))
        kv_u, kv_s = toy_knots()
        search = h.SearchConfig((-1.0, 3.0), (-1.0, 3.0), 1.0)
        plain = h.select_smoothing(data, 1, kv_u, kv_s, criterion="AIC", search=search)
        # the first trial after the 5 x 5 grid and the pattern moves
        n = len(oracle_smoothing(data, 1, kv_u, kv_s, criterion="AIC",
                                 ranges=((-1.0, 3.0), (-1.0, 3.0)),
                                 refine_resolution=0.125).candidates)
        doomed = plain.candidates[n][:2]
        fit_hazard = smooth2d.fit_hazard

        def failing(data, cause, kv_u, kv_s, penalty, ctrl=h.FitControl(), **kw):
            if (penalty.log10_rho_u, penalty.log10_rho_s) == doomed:
                raise ConvergenceError("injected", n_iter=ctrl.max_iter)
            return fit_hazard(data, cause, kv_u, kv_s, penalty, ctrl, **kw)

        monkeypatch.setattr(smooth2d, "fit_hazard", failing)
        fit = h.select_smoothing(data, 1, kv_u, kv_s, criterion="AIC", search=search)
        rows = fit.candidates
        assert rows[:n] == plain.candidates[:n]
        assert rows[n] == (*doomed, np.inf, 100, True)
        assert [row[:2] for row in rows].count(doomed) == 1
        start = min(rows[:n], key=lambda r: (r[2], -(10.0**r[0] + 10.0**r[1])))
        assert rows[n + 1][:2] == pytest.approx(np.add(start[:2], doomed) / 2.0, abs=1e-6)
        assert len(rows) > n + 2 and fit.aic < start[2]
        assert fit.aic == min(row[2] for row in rows)

    def test_search_without_a_convergent_fit_is_exhausted(self, monkeypatch):
        def failing(data, cause, kv_u, kv_s, penalty, ctrl=h.FitControl(), **kw):
            raise ConvergenceError("injected", n_iter=1)

        monkeypatch.setattr(smooth2d, "fit_hazard", failing)
        data = toy_data(np.random.default_rng(10))
        with pytest.raises(ConvergenceError, match="exhausted"):
            h.select_smoothing(data, 1, *toy_knots(), search=h.SearchConfig((-1.0, 3.0),
                                                                             (-1.0, 3.0), 1.0))

    @pytest.mark.parametrize("lrho", [(-math.inf, -math.inf), (-2.0, 0.0), (1.0, 1.0), (6.0, 3.0)])
    def test_fit_hazard_on_prepared_problem_is_identical(self, lrho):
        data = toy_data(np.random.default_rng(14))
        data.R[0, :3] = 0.0
        data.Y[1][0, :3] = 0.0
        kv_u, kv_s = toy_knots()
        pen = h.PenaltyConfig(*lrho, 2)
        setup = _prepare(data, 1, kv_u, kv_s)
        fits_equal(h.fit_hazard(data, 1, kv_u, kv_s, pen),
                   h.fit_hazard(data, 1, kv_u, kv_s, pen, _setup=setup))
        # and the search's first candidate is that same cold fit
        search = h.SearchConfig(log10_rho_u_range=(lrho[0], lrho[0] + 1.0),
                                log10_rho_s_range=(lrho[1], lrho[1] + 1.0))
        if np.isfinite(lrho[0]):
            first = h.select_smoothing(data, 1, kv_u, kv_s, search=search).candidates[0]
            assert first[2] == h.fit_hazard(data, 1, kv_u, kv_s, pen).bic

    def test_penalty_matrix_unchanged_by_shared_blocks(self):
        pen = h.PenaltyConfig(1.5, -0.5, 2)
        Du = h.difference_matrix(6, 2)
        Ds = h.difference_matrix(5, 2)
        expected = (pen.rho_u * np.kron(np.eye(5), Du.T @ Du)
                    + pen.rho_s * np.kron(Ds.T @ Ds, np.eye(6)))
        for _ in range(2):                    # built once, then reused
            P = penalty_matrix(6, 5, pen)
            assert np.array_equal(P, expected)
            P += 1.0                          # the caller's copy, not the shared block


class TestCriterionGradient:
    @pytest.mark.parametrize("cause", [1, 2])
    def test_matches_central_differences(self, constant_binned, default_knots, cause):
        """The exact derivative along each axis against central differences (Richardson
        extrapolated from h = 1e-3 and 2e-3) of tightly converged fits, at interior points."""
        kv_u, kv_s = default_knots
        setup = _prepare(constant_binned, cause, kv_u, kv_s)
        ctrl = h.FitControl(max_iter=200, dev_rel_tol=1e-13, score_rel_tol=1e-10)

        def fit_at(point):
            return h.fit_hazard(constant_binned, cause, kv_u, kv_s, h.PenaltyConfig(*point, 2),
                                ctrl, _setup=setup)

        for point in ((0.0, 1.0), (2.0, 3.0), (4.0, -1.0)):
            fit = fit_at(point)
            fits = {(i, step): fit_at(np.add(point, step * np.eye(2)[i]))
                    for i in range(2) for step in (-2e-3, -1e-3, 1e-3, 2e-3)}
            for weight in (2.0, math.log(fit.n_bin)):            # AIC, BIC
                slope = smooth2d._criterion_gradient(setup.prob, fit.penalty, fit.coef, fit.covariance, weight)
                for i in range(2):
                    crit = {step: fits[i, step].deviance + weight * fits[i, step].ed
                            for step in (-2e-3, -1e-3, 1e-3, 2e-3)}
                    d1 = (crit[1e-3] - crit[-1e-3]) / 2e-3
                    d2 = (crit[2e-3] - crit[-2e-3]) / 4e-3
                    assert slope[i] == pytest.approx((4.0 * d1 - d2) / 3.0, rel=1e-6), \
                        (point, weight, i)

    @pytest.mark.parametrize("cause", [1, 2])
    def test_matches_central_differences_at_the_top_of_the_range(self, constant_binned,
                                                                 default_knots, cause):
        """At log10 rho = 7, where the slopes that set the on-edge flags are down to 4e-5, the
        exact derivative keeps its sign and leading digits: it matches Richardson-extrapolated
        central differences from h = 0.05 and 0.1 to 1e-3, or 1e-7 absolute.  Fits there reach
        a relative score of about 1e-9 only, so the differences carry ~1e-8 of noise."""
        kv_u, kv_s = default_knots
        setup = _prepare(constant_binned, cause, kv_u, kv_s)
        ctrl = h.FitControl(max_iter=200, dev_rel_tol=1e-13, score_rel_tol=1e-9)

        def fit_at(point):
            return h.fit_hazard(constant_binned, cause, kv_u, kv_s, h.PenaltyConfig(*point, 2),
                                ctrl, _setup=setup)

        for point in ((7.0, 2.0), (2.0, 7.0), (7.0, 7.0)):
            fit = fit_at(point)
            fits = {(i, step): fit_at(np.add(point, step * np.eye(2)[i]))
                    for i in range(2) for step in (-0.1, -0.05, 0.05, 0.1)}
            for weight in (2.0, math.log(fit.n_bin)):
                slope = smooth2d._criterion_gradient(setup.prob, fit.penalty, fit.coef, fit.covariance, weight)
                for i in range(2):
                    crit = {step: fits[i, step].deviance + weight * fits[i, step].ed
                            for step in (-0.1, -0.05, 0.05, 0.1)}
                    d1 = (crit[0.05] - crit[-0.05]) / 0.1
                    d2 = (crit[0.1] - crit[-0.1]) / 0.2
                    assert slope[i] == pytest.approx((4.0 * d1 - d2) / 3.0, rel=1e-3, abs=1e-7), \
                        (point, weight, i)

    def test_is_zero_along_an_unpenalized_axis(self):
        data = toy_data(np.random.default_rng(10))
        kv_u, kv_s = toy_knots()
        setup = _prepare(data, 1, kv_u, kv_s)
        fit = h.fit_hazard(data, 1, kv_u, kv_s, h.PenaltyConfig(-math.inf, 1.0, 2), _setup=setup)
        slope = smooth2d._criterion_gradient(setup.prob, fit.penalty, fit.coef, fit.covariance, 2.0)
        assert slope[0] == 0.0 and slope[1] != 0.0
        fit = h.fit_hazard(data, 1, kv_u, kv_s, h.zero_penalty(), _setup=setup)
        assert list(smooth2d._criterion_gradient(setup.prob, fit.penalty, fit.coef, fit.covariance, 2.0)) == [0.0, 0.0]

    def test_quadratic_diagonal_is_the_dense_diagonal(self):
        rng = np.random.default_rng(4)
        Bu, Bs = rng.random((5, 3)), rng.random((4, 2))
        M = rng.standard_normal((6, 6))
        ws = glam.ArrayModelWorkspace(Bu, Bs)
        K = np.kron(Bs, Bu)
        dense = np.diag(K @ M @ K.T).reshape(5, 4, order="F")
        assert np.allclose(glam.quadratic_diagonal(ws, M), dense, rtol=1e-13, atol=1e-13)


class TestSearchAgainstTheGridOracle:
    @pytest.mark.parametrize("criterion", ["AIC", "BIC"])
    def test_no_worse_than_the_oracle_on_a_simulated_cohort(self, constant_binned,
                                                            default_knots, criterion):
        """On the 20,000-record cohort, for both causes: the default search (4 x 4 grid, pattern
        moves and descent) selects at most the grid-plus-pattern oracle's criterion (10 x 10
        grid refined to 0.125) times 1 + 1e-6, from fewer fits."""
        for cause in (1, 2):
            oracle = oracle_smoothing(constant_binned, cause, *default_knots, criterion=criterion)
            fit = h.select_smoothing(constant_binned, cause, *default_knots, criterion=criterion)
            selected, best = ((f.aic if criterion == "AIC" else f.bic) for f in (fit, oracle))
            assert selected <= best * (1 + 1e-6), cause
            assert len(fit.candidates) < len(oracle.candidates)
