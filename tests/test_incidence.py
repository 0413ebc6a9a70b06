import numpy as np
import pytest

import hazard2ts as h
from hazard2ts.errors import DomainError
from hazard2ts.incidence import extrapolation_mask, in_support


# -- closed-form oracles ------------------------------------------------------

def cif_constant(lam1, lam2, s):
    """Competing-risks CIF of cause 1 under constant hazards."""
    tot = lam1 + lam2
    return lam1 / tot * (1.0 - np.exp(-tot * s))


def make_flat_fits(lam1=0.1, lam2=0.05, u_hi=10.0, s_hi=12.0):
    """Exact constant-hazard surfaces: coefficients all equal to log(lam)."""
    grid = h.build_grid(0, u_hi, 1, 0, s_hi, 0.5)
    kv_u = h.make_knots(0, u_hi, 4, 3)
    kv_s = h.make_knots(0, s_hi, 5, 3)
    R = np.full((grid.n_u, grid.n_s), 25.0)
    fits = {}
    for ell, lam in ((1, lam1), (2, lam2)):
        Y = R * lam
        data = h.BinnedData(grid=grid, Y={1: Y, 2: Y}, R=R)
        fit = h.fit_hazard(data, ell, kv_u, kv_s, h.PenaltyConfig(2.0, 2.0, 2))
        # overwrite with the exact constant surface (partition of unity)
        fit.A = np.full_like(fit.A, np.log(lam))
        fits[ell] = fit
    return grid, fits


class TestEvaluateHazard:
    def test_zero_coefficients_give_unit_hazard(self):
        grid, fits = make_flat_fits()
        fit = fits[1]
        fit.A = np.zeros_like(fit.A)
        lam = h.evaluate_hazard(fit, [1.0, 5.0], [0.5, 3.0, 7.0])
        assert np.allclose(lam, 1.0, atol=1e-12)

    def test_midpoints_reproduce_training_predictor(self, constant_fits, default_grid):
        fit = constant_fits[1]
        eta_eval = np.log(h.evaluate_hazard(fit, default_grid.u_mid, default_grid.s_mid))
        ws = h.ArrayModelWorkspace(h.evaluate_basis(default_grid.u_mid, fit.kv_u),
                                   h.evaluate_basis(default_grid.s_mid, fit.kv_s))
        eta_train = h.linear_predictor(ws, fit.A)
        assert np.abs(eta_eval - eta_train).max() < 1e-12

    def test_off_grid_point_matches_naive_double_sum(self):
        grid, fits = make_flat_fits()
        fit = fits[1]
        rng = np.random.default_rng(0)
        fit.A = rng.normal(size=fit.A.shape)
        u_dot, s_dot = 3.21, 6.78
        bu = h.evaluate_basis([u_dot], fit.kv_u)[0]
        bs = h.evaluate_basis([s_dot], fit.kv_s)[0]
        # oracle: explicit double sum over basis indices
        eta = sum(bu[l] * bs[m] * fit.A[l, m]
                  for l in range(len(bu)) for m in range(len(bs)))
        got = h.evaluate_hazard(fit, [u_dot], [s_dot])[0, 0]
        assert abs(got - np.exp(eta)) < 1e-12

    def test_out_of_domain_rejected(self):
        grid, fits = make_flat_fits()
        with pytest.raises(DomainError):
            h.evaluate_hazard(fits[1], [55.0], [1.0])


class TestCumulativeHazard:
    def test_constant_hazard_value(self):
        grid, fits = make_flat_fits(lam1=0.2)
        got = h.cumulative_hazard(fits[1], 5.0, 5.0, 0.01)
        assert abs(got - 1.0) <= 0.01 * 0.2 + 1e-12

    def test_zero_at_s_zero(self):
        grid, fits = make_flat_fits()
        assert h.cumulative_hazard(fits[1], 5.0, 0.0, 0.01) == 0.0

    def test_linear_log_hazard_against_antiderivative(self):
        # hazard exp(a + b s): integral (exp(a + b s) - exp(a)) / b
        grid, fits = make_flat_fits()
        fit = fits[1]
        a, b = -2.0, 0.15
        # coefficients linear in the s index reproduce a linear log-hazard
        kv_s = fit.kv_s
        greville = np.array([kv_s.knots[m + 1: m + 1 + kv_s.degree].mean()
                             for m in range(fit.A.shape[1])])
        fit.A = np.tile(a + b * greville, (fit.A.shape[0], 1))
        s_eval = 6.0
        exact = (np.exp(a + b * s_eval) - np.exp(a)) / b
        for delta in (0.02, 0.01):
            got = h.cumulative_hazard(fit, 5.0, s_eval, delta)
            assert abs(got - exact) < 1.0 * delta  # O(delta) rectangle error

    @pytest.mark.parametrize("delta", [0.0, -0.05, float("nan"), float("inf")])
    def test_unusable_step_rejected(self, delta):
        _, fits = make_flat_fits()
        with pytest.raises(ValueError, match="quadrature step"):
            h.compute_surfaces(fits, [1.0], [2.0], delta=delta)

    def test_quadrature_error_halves_with_delta(self):
        grid, fits = make_flat_fits()
        fit = fits[1]
        rng = np.random.default_rng(1)
        fit.A = rng.normal(scale=0.3, size=fit.A.shape) - 2.0
        s_eval, u_eval = 7.0, 4.0
        ref = h.cumulative_hazard(fit, u_eval, s_eval, 0.0005)
        err = [abs(h.cumulative_hazard(fit, u_eval, s_eval, d) - ref)
               for d in (0.04, 0.02)]
        assert 1.5 < err[0] / err[1] < 2.5


class TestSurvivalAndCif:
    def test_zero_hazards_give_unit_survival(self):
        grid, fits = make_flat_fits()
        for f in fits.values():
            f.A = np.full_like(f.A, -60.0)  # hazard ~ 1e-27
        assert h.overall_survival(fits, 5.0, 8.0, 0.05) == pytest.approx(1.0, abs=1e-12)

    def test_constant_hazard_survival(self):
        grid, fits = make_flat_fits(lam1=0.1, lam2=0.1)
        got = h.overall_survival(fits, 5.0, 1.0, 0.005)
        assert got == pytest.approx(np.exp(-0.2), abs=0.005 * 0.2 + 1e-9)

    def test_survival_monotone_in_s(self):
        grid, fits = make_flat_fits()
        surf = h.compute_surfaces(fits, [2.0, 5.0], np.linspace(0, 10, 21), 0.05)
        assert np.all(np.diff(surf.survival, axis=1) <= 1e-15)
        for ell in (1, 2):
            assert np.all(np.diff(surf.cif[ell], axis=1) >= -1e-15)

    def test_cif_closed_form(self):
        grid, fits = make_flat_fits(lam1=0.1, lam2=0.05)
        delta = 0.05
        got = h.cumulative_incidence(fits, 1, 5.0, 10.0, delta)
        exact = cif_constant(0.1, 0.05, 10.0)
        assert exact == pytest.approx(2.0 / 3.0 * (1 - np.exp(-1.5)), abs=1e-12)
        assert abs(got - exact) < 2 * delta

    def test_cif_zero_at_origin(self):
        grid, fits = make_flat_fits()
        assert h.cumulative_incidence(fits, 1, 5.0, 0.0, 0.05) == 0.0

    def test_probability_conservation(self):
        grid, fits = make_flat_fits(lam1=0.12, lam2=0.07)
        delta = 0.05
        surf = h.compute_surfaces(fits, [1.0, 5.0, 9.0], [0.5, 4.0, 10.0], delta)
        gap = np.abs(surf.survival + surf.cif[1] + surf.cif[2] - 1.0)
        max_lam = max(s.max() for s in surf.hazard.values())
        assert gap.max() < 3 * delta * max_lam


class TestAgeCoordinates:
    def test_round_trip_identity(self):
        grid, fits = make_flat_fits()
        u, s = 4.0, 3.0
        surf_ts = h.to_age_coordinates(fits, [u + s], [s], 0.05)
        surf_us = h.surfaces_at_points(fits, [u], [s], 0.05)
        assert surf_ts.hazard[1][0, 0] == surf_us.hazard[1][0, 0]
        assert surf_ts.cif[1][0, 0] == surf_us.cif[1][0, 0]

    def test_attained_age_evaluation_shifts_the_first_axis(self):
        grid, fits = make_flat_fits()
        rng = np.random.default_rng(2)
        fits[1].A = rng.normal(scale=0.2, size=fits[1].A.shape) - 2.0
        lam_ts = h.to_age_coordinates(fits, [9.0], [5.0], 0.05).hazard[1][0, 0]
        lam_us = h.evaluate_hazard(fits[1], [4.0], [5.0])[0, 0]
        assert lam_ts == pytest.approx(lam_us, abs=1e-12)

    def test_t_not_exceeding_s_rejected(self):
        grid, fits = make_flat_fits()
        with pytest.raises(DomainError):
            h.to_age_coordinates(fits, [3.0], [3.0], 0.05)

    def test_grid_cif_agrees_with_paired_cif(self):
        grid, fits = make_flat_fits()
        surf_grid = h.compute_surfaces(fits, [4.0], [6.0], 0.05)
        surf_pts = h.surfaces_at_points(fits, [4.0], [6.0], 0.05)
        assert surf_grid.cif[1][0, 0] == pytest.approx(surf_pts.cif[1][0, 0], abs=1e-12)


class TestExtrapolationFlag:
    def test_unsupported_corner_is_flagged(self):
        # exposure only on a lower-triangular region of the plane
        grid = h.build_grid(0, 10, 1, 0, 10, 1)
        R = np.zeros((10, 10))
        for i in range(10):
            R[i, : max(1, 10 - i)] = 20.0
        rng = np.random.default_rng(3)
        Y = np.where(R > 0, rng.poisson(0.2 * 20.0, size=R.shape), 0).astype(float)
        Y[0, 0] = max(Y[0, 0], 1.0)
        data = h.BinnedData(grid=grid, Y={1: Y, 2: Y}, R=R)
        kv = h.make_knots(0, 10, 4, 3)
        fit = h.fit_hazard(data, 1, kv, kv, h.PenaltyConfig(2.0, 2.0, 2))
        mask = extrapolation_mask(fit, grid.u_mid, grid.s_mid)
        assert mask[9, 9]           # empty corner
        assert not mask[0, 0]       # fully observed corner
        assert not mask[5, 2]

    def test_support_hull_membership(self):
        grid, fits = make_flat_fits()
        hull = fits[1].hull
        assert in_support(hull, 5.0, 5.0)
        assert not in_support(hull, 5.0, 11.9)
