import math

import numpy as np
import pytest

import hazard2ts as h
from hazard2ts.errors import ConvergenceError, DataError
from hazard2ts.smooth2d import penalty_matrix


def toy_data(rng, n_u=8, n_s=6, lam=0.2, r_scale=30.0):
    grid = h.build_grid(0, n_u, 1, 0, n_s, 1)
    R = np.full((n_u, n_s), r_scale)
    Y = rng.poisson(lam * R).astype(float)
    Y = np.maximum(Y, 1.0)  # keep every bin informative for saturated-fit checks
    return h.BinnedData(grid=grid, Y={1: Y, 2: np.ones_like(Y)}, R=R)


def toy_knots(n_u=8, n_s=6, c_u=5, c_s=4, degree=2):
    return (h.make_knots(0, n_u, c_u - degree, degree),
            h.make_knots(0, n_s, c_s - degree, degree))


def recompute_score_rel(fit, data, cause):
    """Independent stationarity check through dense matrices."""
    Bu = h.evaluate_basis(data.grid.u_mid, fit.kv_u).values
    Bs = h.evaluate_basis(data.grid.s_mid, fit.kv_s).values
    K = np.kron(Bs, Bu)
    y = data.Y[cause].flatten(order="F")
    mu = fit.W_hat.flatten(order="F")
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
        assert fit.W_hat[0, 0] == pytest.approx(5.0, abs=1e-10)
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
        assert fit.W_hat[0, 0] == 0.0
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


class TestInformationCriteria:
    def test_hand_computed_values(self):
        rng = np.random.default_rng(7)
        data = toy_data(rng)
        kv_u, kv_s = toy_knots()
        fit = h.fit_hazard(data, 1, kv_u, kv_s, h.PenaltyConfig(1.0, 1.0, 2))
        aic, bic = h.information_criteria(fit)
        assert aic == pytest.approx(fit.deviance + 2.0 * fit.ed, abs=1e-12)
        assert bic == pytest.approx(fit.deviance + math.log(fit.n_bin) * fit.ed, abs=1e-12)

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
        assert fit.converged

    @pytest.mark.parametrize("kwargs", [
        {"refine_resolution": 0.0},      # never finished refining
        {"refine_resolution": -0.1},
        {"coarse_step": 0.0},            # divided by zero
        {"coarse_step": float("nan")},
        {"log10_rho_u_range": (3.0, -1.0)},
        {"log10_rho_s_range": (1.0, 0.0)},
    ])
    def test_search_config_refuses_bad_steps_and_ranges(self, kwargs):
        with pytest.raises(ValueError):
            h.SearchConfig(**kwargs)

    def test_unknown_criterion_rejected(self):
        rng = np.random.default_rng(11)
        data = toy_data(rng)
        kv_u, kv_s = toy_knots()
        with pytest.raises(ValueError):
            h.select_smoothing(data, 1, kv_u, kv_s, criterion="GCV")
