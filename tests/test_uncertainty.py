import dataclasses
import os
import warnings

import numpy as np
import pytest
from conftest import monte_carlo_cif_se, sample_coefficients

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
    """A hazard's SE is the hazard times the SE of its log, as ``predict`` writes it
    (``TestPredict::test_hazard_se_is_hazard_times_log_hazard_se`` checks that bit for bit)."""

    def test_coefficient_shift_scales_hazard_se_only(self, constant_fits, default_grid):
        import copy

        fit = copy.deepcopy(constant_fits[1])
        u_pts, s_pts = default_grid.u_mid[:4], default_grid.s_mid[:4]
        se_eta0 = h.se_log_hazard(fit, u_pts, s_pts)
        se_lam0 = h.evaluate_hazard(fit, u_pts, s_pts) * se_eta0
        fit.A = fit.A + 0.7
        se_eta1 = h.se_log_hazard(fit, u_pts, s_pts)
        se_lam1 = h.evaluate_hazard(fit, u_pts, s_pts) * se_eta1
        assert np.allclose(se_eta1, se_eta0, atol=1e-14)
        assert np.allclose(se_lam1, np.exp(0.7) * se_lam0, rtol=1e-12)


class TestSampleCoefficients:
    """The sampler of the Monte-Carlo oracle (conftest.py)."""

    def test_empirical_covariance_matches(self):
        rng = np.random.default_rng(12)
        A = rng.normal(size=(3, 3))
        Sigma = A @ A.T + 0.5 * np.eye(3)
        draws = sample_coefficients(np.zeros(3), Sigma, 100_000, np.random.default_rng(99))
        emp = np.cov(draws.T)
        assert np.abs(emp - Sigma).max() < 0.03 * np.abs(Sigma).max()

    def test_zero_covariance_degenerates(self):
        draws = sample_coefficients(np.array([1.0, 2.0]), np.zeros((2, 2)), 50,
                                    np.random.default_rng(0))
        assert np.all(draws == [1.0, 2.0])

    def test_semidefinite_covariance_is_refused(self):
        Sigma = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
        with pytest.raises(h.Hazard2tsError, match="not positive definite"):
            sample_coefficients(np.zeros(2), Sigma, 200, np.random.default_rng(1))


def overflow_toy():
    """An unpenalized 3 x 3 fit of degree-0 bases with a zero-event bin: that bin's
    coefficient is -24 with an SD of 3e4."""
    grid = h.build_grid(0, 3, 1, 0, 3, 1)
    rng = np.random.default_rng(1)
    R = np.full((3, 3), 30.0)
    Y = {ell: rng.poisson(lam * R).astype(float) for ell, lam in ((1, 0.2), (2, 0.1))}
    assert Y[2][2, 0] == 0.0
    binned = h.BinnedData(grid=grid, Y=Y, R=R)
    kv = h.make_knots(0, 3, 3, 0)
    return {ell: h.fit_hazard(binned, ell, kv, kv, h.PenaltyConfig(-np.inf, -np.inf, 2))
            for ell in (1, 2)}


class TestCifStandardErrors:
    def test_zero_covariance_gives_zero_se(self, constant_fits, default_grid):
        fits = {ell: dataclasses.replace(fit, covariance=np.zeros_like(fit.covariance))
                for ell, fit in constant_fits.items()}
        se = h.cif_standard_errors(fits, default_grid.u_mid[::7], default_grid.s_mid, delta=0.05)
        for ell in fits:
            assert np.all(se[ell] == 0.0)

    def test_se_at_s_zero_is_exactly_zero(self, constant_fits):
        """No node lies below s = 0 (nor below the first step): the gradient is empty."""
        se = h.cif_standard_errors(constant_fits, [50.0, 62.3, 100.0], [0.0, 0.01, 0.5],
                                   delta=0.05)
        for ell in constant_fits:
            assert np.all(se[ell][:, :2] == 0.0) and np.all(se[ell][:, 2] > 0.0)
        assert h.cif_standard_errors(constant_fits, [60.0], [], delta=0.05)[1].shape == (1, 0)

    def test_matches_delta_method_oracle(self, scalar_toy):
        fits = scalar_toy
        se = h.cif_standard_errors(fits, [0.5], [1.0], delta=0.01)[1]
        se_ref = delta_method_cif_se(0.1, 0.05, fits[1].covariance[0, 0],
                                     fits[2].covariance[0, 0], 1.0)
        assert abs(se[0, 0] - se_ref) / se_ref < 0.05

    @pytest.mark.parametrize("ell,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_gradient_matches_central_differences(self, constant_fits, default_grid, ell, m):
        """With cause m's covariance d d' (vec order) and the other cause's zero, the SE of
        CIF_ell is |directional derivative along d|: it matches central differences of the
        kernel's CIF to 1e-6 relative, at grid midpoints and at s off the nodes."""
        u = np.concatenate([default_grid.u_mid[::9], [50.0, 73.21, 100.0]])
        s = np.concatenate([default_grid.s_mid[::4], [0.0, 0.049, 0.0513, 3.3333, 10.5]])
        d = np.random.default_rng(10 * ell + m).standard_normal(constant_fits[m].A.shape)
        vec = d.flatten(order="F")
        fits = {k: dataclasses.replace(f, covariance=np.outer(vec, vec) if k == m
                                       else np.zeros_like(f.covariance))
                for k, f in constant_fits.items()}
        se = h.cif_standard_errors(fits, u, s, delta=0.05)[ell]

        def cif(t):
            moved = dict(constant_fits)
            moved[m] = dataclasses.replace(constant_fits[m], A=constant_fits[m].A + t * d)
            return h.compute_surfaces(moved, u, s, delta=0.05).cif[ell]

        eps = 1e-5
        central = np.abs(cif(eps) - cif(-eps)) / (2 * eps)
        # every point with two nodes below it (with one, S is 1 and CIF_ell needs A_ell only)
        assert np.all(central[:, s >= 0.1] > 0)
        # where the derivative is 0, rounding leaves ~1e-17 of the closed form's sums
        np.testing.assert_allclose(se, central, rtol=1e-6, atol=1e-12 * central.max())

    def test_agrees_with_monte_carlo_within_2_percent(self, constant_fits):
        """20 000 coefficient draws through a dense left-rectangle CIF (conftest.py): the
        standard deviations match the closed form within 2 % at every point, and both are 0
        at s = 0."""
        u = np.array([52.5, 65.0, 80.0, 97.5])
        s = np.array([0.0, 0.73, 2.5, 5.0, 10.25])
        se = h.cif_standard_errors(constant_fits, u, s, delta=0.05)
        mc = monte_carlo_cif_se(constant_fits, u, s, 0.05, 20_000, np.random.default_rng(2026))
        for ell in constant_fits:
            np.testing.assert_allclose(se[ell], mc[ell], rtol=0.02, atol=0)

    def test_reruns_and_one_cpu_give_the_same_bits(self, constant_fits, default_grid,
                                                   monkeypatch):
        args = (constant_fits, default_grid.u_mid, default_grid.s_mid, 0.05)
        runs = [h.cif_standard_errors(*args), h.cif_standard_errors(*args)]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        runs.append(h.cif_standard_errors(*args))
        for ell in constant_fits:
            assert all(np.array_equal(run[ell], runs[0][ell]) for run in runs)

    def test_overflow_toy_gives_finite_ses_without_warnings(self):
        """The toy whose coefficient draws once overflowed the hazard: the closed form needs
        only the fitted hazards, so its SEs are finite, and no warning is raised."""
        fits = overflow_toy()
        u, s = [0.1, 1.5, 2.5, 3.0, 1.5, 2.0, 0.6], [0.1, 1.5, 0.5, 3.0, 0.0, 2.0, 0.6]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            se = h.cif_standard_errors(fits, u, s, delta=0.05)
        for ell in fits:
            assert np.all(np.isfinite(se[ell])) and np.all(se[ell][:, 4] == 0.0)

    def test_ses_that_are_not_finite_are_refused_without_warnings(self, scalar_toy):
        fits = dict(scalar_toy)
        fits[2] = dataclasses.replace(fits[2], covariance=np.array([[np.inf]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(h.DataError, match="^cause 1: 2 of 2 CIF standard errors are "
                                                  "not finite"):
                h.cif_standard_errors(fits, [0.5], [0.5, 1.0], delta=0.05)
