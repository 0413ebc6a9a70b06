import dataclasses
import warnings

import numpy as np
import pytest

import hazard2ts as h


# -- oracles ------------------------------------------------------------------

def delta_method_cif_se(lam1, lam2, var1, var2, s):
    """First-order SE of the constant-hazard CIF through the log-coefficients."""
    def cif(a1, a2):
        l1, l2 = np.exp(a1), np.exp(a2)
        return l1 / (l1 + l2) * (1.0 - np.exp(-(l1 + l2) * s))

    a1, a2 = np.log(lam1), np.log(lam2)
    eps = 1e-6
    g1 = (cif(a1 + eps, a2) - cif(a1 - eps, a2)) / (2 * eps)
    g2 = (cif(a1, a2 + eps) - cif(a1, a2 - eps)) / (2 * eps)
    return np.sqrt(g1**2 * var1 + g2**2 * var2)


class TestCoefficientCovariance:
    def test_scalar_inverse_fisher_information(self, scalar_toy):
        fits = scalar_toy
        # single Poisson coefficient: variance = 1 / fitted mean
        assert fits[1].covariance[0, 0] == pytest.approx(1.0 / 40.0, rel=1e-10)
        assert fits[2].covariance[0, 0] == pytest.approx(1.0 / 20.0, rel=1e-10)

    def test_matches_explicit_inverse(self, constant_binned, default_knots):
        kv_u, kv_s = default_knots
        fit = h.fit_hazard(constant_binned, 1, kv_u, kv_s, h.PenaltyConfig(2.0, 2.0, 2))
        Sigma = fit.covariance
        P = h.penalty_matrix(fit.A.shape[0], fit.A.shape[1], fit.penalty)
        # the information B'WB at the fit, through the dense model matrix
        grid = constant_binned.grid
        K = np.kron(h.evaluate_basis(grid.s_mid, kv_s), h.evaluate_basis(grid.u_mid, kv_u))
        mu = constant_binned.R.flatten(order="F") * np.exp(K @ fit.coef)
        explicit = np.linalg.inv(K.T @ (mu[:, None] * K) + P)
        assert np.abs(Sigma - explicit).max() < 1e-10 * np.abs(explicit).max()
        assert np.array_equal(Sigma, Sigma.T)

    def test_variances_shrink_with_penalty(self, constant_binned, default_knots):
        kv_u, kv_s = default_knots
        diags = []
        for lrho in (-1.0, 1.0, 3.0, 5.0):
            fit = h.fit_hazard(constant_binned, 1, kv_u, kv_s,
                               h.PenaltyConfig(lrho, lrho, 2))
            diags.append(np.diag(fit.covariance).mean())
        assert all(a >= b for a, b in zip(diags, diags[1:]))


class TestSeLogHazard:
    def test_scalar_case(self, scalar_toy):
        se = h.se_log_hazard(scalar_toy[1], [0.5], [0.5])
        assert se[0, 0] == pytest.approx(np.sqrt(1.0 / 40.0), rel=1e-12)

    def test_matches_dense_kronecker_rows(self, constant_fits, default_grid):
        fit = constant_fits[1]
        u_pts = default_grid.u_mid[:7]
        s_pts = default_grid.s_mid[:5]
        se = h.se_log_hazard(fit, u_pts, s_pts)
        Bu = h.evaluate_basis(u_pts, fit.kv_u)
        Bs = h.evaluate_basis(s_pts, fit.kv_s)
        for i in range(len(u_pts)):
            for j in range(len(s_pts)):
                row = np.kron(Bs[j], Bu[i])
                assert se[i, j] == pytest.approx(np.sqrt(row @ fit.covariance @ row), abs=1e-12)

    def test_paired_points_variant_agrees(self, constant_fits, default_grid):
        fit = constant_fits[1]
        u = default_grid.u_mid[[3, 10, 40]]
        s = default_grid.s_mid[[1, 5, 20]]
        paired = h.se_log_hazard_points(fit, u, s)
        grid_se = h.se_log_hazard(fit, u, s)
        assert np.allclose(paired, np.diag(grid_se), atol=1e-14)

    def test_strictly_positive(self, constant_fits, default_grid):
        se = h.se_log_hazard(constant_fits[1], default_grid.u_mid, default_grid.s_mid)
        assert np.all(se > 0)

    def test_sparse_corner_has_larger_se_than_dense_center(self):
        # engineered exposure imbalance: heavy data in the center, none in
        # the upper corner, so uncertainty must grow toward that corner
        rng = np.random.default_rng(17)
        grid = h.build_grid(0, 12, 1, 0, 12, 1)
        uu, ss = np.meshgrid(grid.u_mid, grid.s_mid, indexing="ij")
        R = 400.0 * np.exp(-0.5 * ((uu - 4.0) ** 2 + (ss - 4.0) ** 2) / 4.0)
        R[R < 0.5] = 0.0
        Y = np.where(R > 0, rng.poisson(0.2 * R), 0).astype(float)
        Y[4, 4] = max(Y[4, 4], 1.0)
        data = h.BinnedData(grid=grid, Y={1: Y, 2: Y}, R=R)
        kv = h.make_knots(0, 12, 5, 3)
        fit = h.fit_hazard(data, 1, kv, kv, h.PenaltyConfig(1.0, 1.0, 2))
        se = h.se_log_hazard(fit, grid.u_mid, grid.s_mid)
        assert se[11, 11] > 3.0 * se[4, 4]


class TestSeHazard:
    def test_unit_hazard_point(self, scalar_toy):
        import copy

        fit_zero = copy.deepcopy(scalar_toy[1])
        fit_zero.A = np.zeros_like(fit_zero.A)  # hazard exactly 1
        se_eta = h.se_log_hazard(fit_zero, [0.5], [0.5])
        se_lam = h.se_hazard(fit_zero, [0.5], [0.5])
        assert se_lam[0, 0] == pytest.approx(se_eta[0, 0], rel=1e-14)

    def test_coefficient_shift_scales_hazard_se_only(self, constant_fits, default_grid):
        import copy

        fit = copy.deepcopy(constant_fits[1])
        u_pts, s_pts = default_grid.u_mid[:4], default_grid.s_mid[:4]
        se_eta0 = h.se_log_hazard(fit, u_pts, s_pts)
        se_lam0 = h.se_hazard(fit, u_pts, s_pts)
        fit.A = fit.A + 0.7
        se_eta1 = h.se_log_hazard(fit, u_pts, s_pts)
        se_lam1 = h.se_hazard(fit, u_pts, s_pts)
        assert np.allclose(se_eta1, se_eta0, atol=1e-14)
        assert np.allclose(se_lam1, np.exp(0.7) * se_lam0, rtol=1e-12)

    def test_ratio_identity(self, constant_fits, default_grid):
        fit = constant_fits[1]
        u_pts, s_pts = default_grid.u_mid[:6], default_grid.s_mid[:6]
        se_eta = h.se_log_hazard(fit, u_pts, s_pts)
        se_lam = h.se_hazard(fit, u_pts, s_pts)
        lam = h.evaluate_hazard(fit, u_pts, s_pts)
        assert np.abs(se_lam / se_eta - lam).max() < 1e-14 * lam.max()


class TestSampleCoefficients:
    def test_empirical_covariance_matches(self):
        rng = np.random.default_rng(12)
        A = rng.normal(size=(3, 3))
        Sigma = A @ A.T + 0.5 * np.eye(3)
        draws = h.sample_coefficients(np.zeros(3), Sigma, 100_000,
                                      np.random.default_rng(99))
        emp = np.cov(draws.T)
        assert np.abs(emp - Sigma).max() < 0.03 * np.abs(Sigma).max()

    def test_zero_covariance_degenerates(self):
        draws = h.sample_coefficients(np.array([1.0, 2.0]), np.zeros((2, 2)), 50,
                                      np.random.default_rng(0))
        assert np.all(draws == [1.0, 2.0])

    def test_semidefinite_covariance_is_refused(self):
        Sigma = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
        with pytest.raises(h.Hazard2tsError, match="not positive definite"):
            h.sample_coefficients(np.zeros(2), Sigma, 200, np.random.default_rng(1))


class TestMonteCarloConfig:
    @pytest.mark.parametrize("kwargs", [{"seed": -1}, {"n_draws": 1}])
    def test_refuses_what_no_draw_can_use(self, kwargs):
        with pytest.raises(ValueError):
            h.MonteCarloConfig(**kwargs)


class TestCifStandardErrors:
    def test_zero_covariance_gives_zero_se(self, scalar_toy):
        fits = {ell: dataclasses.replace(fit, covariance=np.zeros((1, 1)))
                for ell, fit in scalar_toy.items()}
        se = h.cif_standard_errors(fits, [0.5], [1.0],
                                   mc=h.MonteCarloConfig(n_draws=100, seed=0), delta=0.05)[1]
        assert np.all(se == 0.0)

    def test_matches_delta_method_oracle(self, scalar_toy):
        fits = scalar_toy
        mc = h.MonteCarloConfig(n_draws=10_000, seed=2024)
        se_mc = h.cif_standard_errors(fits, [0.5], [1.0], mc=mc, delta=0.01)[1]
        se_ref = delta_method_cif_se(0.1, 0.05, fits[1].covariance[0, 0],
                                     fits[2].covariance[0, 0], 1.0)
        assert abs(se_mc[0, 0] - se_ref) / se_ref < 0.05

    def test_seed_reproducibility_bitwise(self, scalar_toy):
        mc = h.MonteCarloConfig(n_draws=500, seed=7)
        a = h.cif_standard_errors(scalar_toy, [0.5], [1.0], mc=mc, delta=0.02)[1]
        b = h.cif_standard_errors(scalar_toy, [0.5], [1.0], mc=mc, delta=0.02)[1]
        assert np.array_equal(a, b)

    def test_stable_between_5000_and_10000_draws(self, scalar_toy):
        se5 = h.cif_standard_errors(scalar_toy, [0.5], [1.0],
                                    mc=h.MonteCarloConfig(n_draws=5_000, seed=3),
                                    delta=0.02)[1]
        se10 = h.cif_standard_errors(scalar_toy, [0.5], [1.0],
                                     mc=h.MonteCarloConfig(n_draws=10_000, seed=4),
                                     delta=0.02)[1]
        assert abs(se10[0, 0] - se5[0, 0]) / se10[0, 0] < 0.10

    def test_draws_that_overflow_the_hazard_are_refused_without_warnings(self):
        """An unpenalized 3 x 3 fit of degree-0 bases with a zero-event bin: that bin's
        coefficient is -24 with an SD of 3e4, so some draws overflow the hazard.  The CIF SEs
        they would make NaN are refused, naming the cause and the count, with no warning."""
        grid = h.build_grid(0, 3, 1, 0, 3, 1)
        rng = np.random.default_rng(1)
        R = np.full((3, 3), 30.0)
        Y = {ell: rng.poisson(lam * R).astype(float) for ell, lam in ((1, 0.2), (2, 0.1))}
        assert Y[2][2, 0] == 0.0
        binned = h.BinnedData(grid=grid, Y=Y, R=R)
        kv = h.make_knots(0, 3, 3, 0)
        fits = {ell: h.fit_hazard(binned, ell, kv, kv, h.PenaltyConfig(-np.inf, -np.inf, 2))
                for ell in (1, 2)}
        u, s = [0.1, 1.5, 2.5, 3.0, 1.5, 2.0, 0.6], [0.1, 1.5, 0.5, 3.0, 0.0, 2.0, 0.6]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(h.DataError, match="^cause 2: 21 of 49 Monte-Carlo CIF standard "
                                                  "errors are not finite"):
                h.cif_standard_errors(fits, u, s,
                                      mc=h.MonteCarloConfig(n_draws=20, seed=1), delta=0.05)

    def test_minimum_draws_enforced(self):
        with pytest.raises(ValueError):
            h.MonteCarloConfig(n_draws=1)
