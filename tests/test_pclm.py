import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hazard2ts as h
from conftest import grid_pattern_search
from hazard2ts import cli, pclm, smooth2d
from hazard2ts.errors import ConvergenceError, DataError
from hazard2ts.pclm import _problem
from hazard2ts.simulate import at_risk_matrix


# -- dense oracle for the composite link kernels -----------------------------

def dense_pieces(Bu, Bs, C_u, Gamma, Psi):
    B = np.kron(Bs, Bu)
    C = np.kron(np.eye(Bs.shape[0]), C_u)
    gam = Gamma.flatten(order="F")
    psi = Psi.flatten(order="F")
    Q = C @ (gam[:, None] * B)
    return B, C, Q, gam, psi


def small_problem(seed=0, g=6, n_u=10, n_s=5, c_u=5, c_s=4):
    rng = np.random.default_rng(seed)
    grid = h.build_grid(0, n_u, 1, 0, n_s, 1)
    truth = 12.0 * np.exp(-0.5 * ((grid.u_mid[:, None] - 4.0) / 2.5) ** 2
                          - 0.1 * grid.s_mid[None, :])
    y_true = rng.poisson(truth).astype(float)
    C = h.composition_matrix(g, n_u)
    Z = C @ y_true
    kv_u = h.make_knots(0, n_u, c_u - 2, 2)
    kv_s = h.make_knots(0, n_s, c_s - 2, 2)
    Bu = h.evaluate_basis(grid.u_mid, kv_u)
    Bs = h.evaluate_basis(grid.s_mid, kv_s)
    return grid, y_true, g, C, Z, Bu, Bs


class TestCompositionMatrix:
    def test_standard_register_dimensions(self):
        # 41 observed rows onto 50 fine rows: identity block plus a 10-wide sum row
        C = h.composition_matrix(41, 50)
        assert C.shape == (41, 50)
        assert np.array_equal(C[:40, :40], np.eye(40))
        assert C[40].sum() == 10.0
        assert np.all(C.sum(axis=0) == 1.0)

    def test_tiny_example(self):
        C = h.composition_matrix(2, 3)
        assert np.array_equal(C, [[1, 0, 0], [0, 1, 1]])

    def test_applies_as_partial_sum(self):
        C = h.composition_matrix(4, 7)
        v = np.arange(1.0, 8.0)
        assert np.array_equal(C @ v, [1.0, 2.0, 3.0, 4 + 5 + 6 + 7])

    def test_row_sums(self):
        C = h.composition_matrix(5, 12)
        assert np.array_equal(C.sum(axis=1), [1, 1, 1, 1, 12 - 5 + 1])

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            h.composition_matrix(5, 5)
        with pytest.raises(ValueError):
            h.composition_matrix(1, 5)


class TestFitPclm:
    def test_identity_composition_reduces_to_poisson_smooth(self):
        rng = np.random.default_rng(3)
        grid = h.build_grid(0, 10, 1, 0, 5, 1)
        truth = np.exp(1.0 + 0.3 * np.sin(grid.u_mid / 3)[:, None]
                       + 0.2 * np.cos(grid.s_mid)[None, :])
        Z = rng.poisson(truth).astype(float)
        kv_u = h.make_knots(0, 10, 4, 3)
        kv_s = h.make_knots(0, 5, 3, 2)
        Bu = h.evaluate_basis(grid.u_mid, kv_u)
        Bs = h.evaluate_basis(grid.s_mid, kv_s)
        ctrl = h.FitControl(score_rel_tol=1e-10)
        pf = h.fit_pclm(Z, np.eye(10), Bu, Bs, d=2, phis=(0.5, 0.5), ctrl=ctrl)
        data = h.BinnedData(grid=grid, Y={1: Z, 2: np.ones_like(Z)}, R=np.ones_like(Z))
        hf = h.fit_hazard(data, 1, kv_u, kv_s, h.PenaltyConfig(0.5, 0.5, 2), ctrl)
        mu = h.evaluate_hazard(hf, grid.u_mid, grid.s_mid)   # the fitted means at exposure 1
        assert np.abs(pf.Gamma - mu).max() < 1e-8
        # one engine: the same problem gives the same iterates, bit for bit
        assert np.array_equal(pf.theta, hf.coef)
        assert np.array_equal(pf.Gamma, mu)
        assert (pf.deviance, pf.ed, pf.n_iter) == (hf.deviance, hf.ed, hf.n_iter)

    def test_kernels_match_dense_formulation(self):
        _, _, g, C, Z, Bu, Bs = small_problem(seed=4)
        prob = _problem(Z, C, Bu, Bs)
        fit = h.fit_pclm(Z, C, Bu, Bs, phis=(0.0, 0.0))
        z = Z.flatten(order="F")
        rng = np.random.default_rng(40)
        # at the fit and away from it, where the score is far from zero
        for theta in (fit.theta, fit.theta + 0.3 * rng.standard_normal(fit.theta.size)):
            state = prob.state(theta)
            B, Cd, Q, gam, psi_d = dense_pieces(Bu, Bs, C, state[0], C @ state[0])
            score = prob.score(state)
            score_dense = Q.T @ ((z - psi_d) / psi_d)
            scale = max(np.abs(score_dense).max(), 1.0)
            assert np.abs(score - score_dense).max() < 1e-10 * scale
            info = prob.information(state)
            info_dense = Q.T @ (Q / psi_d[:, None])
            assert np.abs(info - info_dense).max() < 1e-10 * np.abs(info_dense).max()

    def test_observed_information_is_the_score_derivative(self):
        """On summed rows the observed information is minus the derivative of the score: central
        differences (h = 1e-5) agree to 1e-6 of the largest entry, where the Fisher information
        is off by more than 1e-3, at the fit and away from it."""
        _, _, g, C, Z, Bu, Bs = small_problem(seed=4)
        prob = _problem(Z, C, Bu, Bs)
        assert len(prob.C) == 1
        fit = h.fit_pclm(Z, C, Bu, Bs, phis=(0.0, 0.0))
        rng = np.random.default_rng(41)
        for theta in (fit.theta, fit.theta + 0.3 * rng.standard_normal(fit.theta.size)):
            state = prob.state(theta)
            fisher = prob.information(state)
            observed = prob.observed_information(state)
            step = 1e-5 * np.eye(theta.size)
            numeric = np.column_stack([
                (prob.score(prob.state(theta - e)) - prob.score(prob.state(theta + e))) / 2e-5
                for e in step])
            scale = np.abs(numeric).max()
            assert np.abs(observed - numeric).max() <= 1e-6 * scale
            assert np.abs(fisher - numeric).max() > 1e-3 * scale
            assert np.array_equal(observed, observed.T)

    def test_observed_information_without_summed_rows_is_the_fisher_information(self):
        _, _, g, C, Z, Bu, Bs = small_problem(seed=4)
        n_u = C.shape[1]
        prob = _problem(C.T @ Z, np.eye(n_u), Bu, Bs)     # every row observed on its own
        rng = np.random.default_rng(42)
        state = prob.state(prob.start + 0.1 * rng.standard_normal(prob.start.size))
        assert len(prob.C) == 0
        assert np.array_equal(prob.observed_information(state), prob.information(state))

    def test_tight_fit_is_stationary_with_dense_effective_dimension(self):
        _, _, g, C, Z, Bu, Bs = small_problem(seed=14)
        ctrl = h.FitControl(max_iter=400, dev_rel_tol=1e-14, score_rel_tol=1e-10)
        phis = (0.5, -0.5)
        fit = h.fit_pclm(Z, C, Bu, Bs, d=2, phis=phis, ctrl=ctrl)
        B, Cd, Q, gam, psi = dense_pieces(Bu, Bs, C, fit.Gamma, fit.Psi)
        z = Z.flatten(order="F")
        P = h.penalty_matrix(Bu.shape[1], Bs.shape[1], h.PenaltyConfig(*phis, 2))
        score = Q.T @ ((z - psi) / psi) - P @ fit.theta
        scale = max(np.abs(Q.T @ (z / psi)).max(), 1.0)
        assert np.abs(score).max() < 1e-9 * scale
        info = Q.T @ (Q / psi[:, None])
        ed = np.trace(np.linalg.solve(info + P, info))
        assert abs(fit.ed - ed) < 1e-8 * ed
        assert abs(fit.aic - (fit.deviance + 2.0 * ed)) < 1e-8 * fit.aic

    def test_composition_must_be_zero_one_and_disjoint(self):
        _, _, g, C, Z, Bu, Bs = small_problem(seed=15)
        for bad in (0.5 * C, np.vstack([C[:-1], C[-1] + C[0]])):
            with pytest.raises(ValueError, match="composition"):
                h.fit_pclm(Z, bad, Bu, Bs)

    def test_round_trip_recovers_fine_counts(self):
        grid, y_true, g, C, Z, Bu, Bs = small_problem(seed=5)
        fit = h.select_pclm_smoothing(Z, C, Bu, Bs)
        Y_full = np.vstack([Z[: g - 1], fit.Gamma[g - 1:]])
        assert np.array_equal(Y_full[: g - 1], Z[: g - 1])
        tail_hat = Y_full[g - 1:]
        tail_true = y_true[g - 1:]
        corr = np.corrcoef(tail_hat.ravel(), tail_true.ravel())[0, 1]
        assert corr > 0.8  # small problem; the full-size bound is in acceptance

    def test_regroup_identity_and_positivity(self):
        _, _, g, C, Z, Bu, Bs = small_problem(seed=6)
        fit = h.fit_pclm(Z, C, Bu, Bs, phis=(0.5, 0.5))
        assert np.abs(C @ fit.Gamma - fit.Psi).max() < 1e-12 * max(fit.Psi.max(), 1.0)
        assert np.all(fit.Gamma > 0)

    def test_all_zero_counts_rejected(self):
        _, _, g, C, Z, Bu, Bs = small_problem(seed=7)
        with pytest.raises(DataError):
            h.fit_pclm(np.zeros_like(Z), C, Bu, Bs)

    def test_shape_mismatch_rejected(self):
        _, _, g, C, Z, Bu, Bs = small_problem(seed=8)
        with pytest.raises(DataError):
            h.fit_pclm(Z[:-1], C, Bu, Bs)


class TestSelectPclmSmoothing:
    def test_single_point_grid(self):
        _, _, g, C, Z, Bu, Bs = small_problem(seed=9)
        fit = h.select_pclm_smoothing(Z, C, Bu, Bs, search=h.SearchConfig((0.5, 0.5), (0.5, 0.5),
                                                                          0.5))
        assert fit.phis == (0.5, 0.5)
        assert len(fit.candidates) == 1

    def test_default_grid_has_16_candidates(self):
        """The default search fits the 4 x 4 grid on [-1, 2] first, row by row, then pattern
        moves and descent candidates inside the range, each once: fewer than the 49 of the
        exhaustive grid by 0.5 it replaced."""
        _, _, g, C, Z, Bu, Bs = small_problem(seed=10)
        fit = h.select_pclm_smoothing(Z, C, Bu, Bs)
        grid = [-1.0, 0.0, 1.0, 2.0]
        assert [c[:2] for c in fit.candidates[:16]] == [(lu, ls) for lu in grid for ls in grid]
        assert 16 < len(fit.candidates) < 49
        assert len({(round(lu, 6), round(ls, 6)) for lu, ls, _ in fit.candidates}) \
            == len(fit.candidates)
        assert all(-1.0 <= v <= 2.0 for c in fit.candidates for v in c[:2])

    def test_selected_minimizes_aic_over_candidates(self):
        _, _, g, C, Z, Bu, Bs = small_problem(seed=11)
        fit = h.select_pclm_smoothing(Z, C, Bu, Bs)
        assert fit.aic <= min(aic for _, _, aic in fit.candidates) + 1e-9

    @pytest.mark.parametrize("seed, phis, on_edge", [
        (10, (-0.47978, 2.0), (False, True)), (11, (-0.62009, -0.08211), (False, False)),
        (3, (-0.84367, 2.0), (False, True))])
    def test_grid_search_is_the_unrefined_oracle(self, seed, phis, on_edge):
        """The default phi search fits the grid-plus-pattern oracle with its resolution at the
        step, the grid alone, first: the same rows, row order included, bit for bit.  Pattern
        moves and the descent then select at most the oracle's AIC; on seed 3 they leave the
        corner (-1, 2) the grid selected.  The on-edge flags are the gradient sign rule at the
        selected fit, and ``cli`` reports them."""
        _, _, g, C, Z, Bu, Bs = small_problem(seed=seed)
        fit = h.select_pclm_smoothing(Z, C, Bu, Bs)
        prob = _problem(Z, C, Bu, Bs)
        oracle = grid_pattern_search(
            lambda lpu, lps, start: pclm._fit(prob, C, (float(lpu), float(lps)), 2,
                                              h.FitControl(), start),
            pclm.PHI_SEARCH, pclm.PHI_SEARCH.coarse_step)
        assert len(oracle.table) == 16
        assert fit.candidates[:16] == [row[:3] for row in oracle.table]
        assert fit.aic <= oracle.best.value
        assert fit.phis == pytest.approx(phis, abs=1e-4)
        point = np.array(fit.phis)
        slope = smooth2d._criterion_gradient(prob, h.PenaltyConfig(*fit.phis, 2), fit.theta,
                                             fit.covariance, 2.0)
        assert tuple(smooth2d._falls_out(point, slope, *pclm.PHI_SEARCH.bounds())) == on_edge
        assert fit.on_edge == on_edge
        diag = cli._pclm_diag(fit)
        assert (diag["log10_phi_u_on_edge"], diag["log10_phi_s_on_edge"]) == on_edge

    @pytest.mark.parametrize("point", [(0.3, 0.7), (2.0, 2.0)])
    def test_aic_gradient_matches_central_differences(self, point):
        """The exact AIC gradient through the summed rows against central differences
        (Richardson extrapolated from h = 1e-3 and 2e-3) of tightly converged fits, inside the
        default range and at its top, log10 phi = 2."""
        _, _, g, C, Z, Bu, Bs = small_problem(seed=4)
        prob = _problem(Z, C, Bu, Bs)
        ctrl = h.FitControl(max_iter=400, dev_rel_tol=1e-14, score_rel_tol=1e-11)

        def aic_at(phis):
            return h.fit_pclm(Z, C, Bu, Bs, phis=tuple(phis), ctrl=ctrl).aic

        fit = h.fit_pclm(Z, C, Bu, Bs, phis=point, ctrl=ctrl)
        slope = smooth2d._criterion_gradient(prob, h.PenaltyConfig(*point, 2), fit.theta,
                                             fit.covariance, 2.0)
        for i in range(2):
            aic = {step: aic_at(np.add(point, step * np.eye(2)[i]))
                   for step in (-2e-3, -1e-3, 1e-3, 2e-3)}
            d1 = (aic[1e-3] - aic[-1e-3]) / 2e-3
            d2 = (aic[2e-3] - aic[-2e-3]) / 4e-3
            assert slope[i] == pytest.approx((4.0 * d1 - d2) / 3.0, rel=1e-6), i

    def test_empty_grid_rejected(self):
        _, _, g, C, Z, Bu, Bs = small_problem(seed=12)
        with pytest.raises(ValueError):
            h.select_pclm_smoothing(Z, C, Bu, Bs, search=h.SearchConfig((1.0, 0.5), (1.0, 0.5),
                                                                        0.5))


def cold_pclm_search(Z, C, Bu, Bs, phi_grid, ctrl):
    """The oracle: every candidate fitted alone by ``fit_pclm`` from the default start.
    Returns the selected (log10 phi_u, log10 phi_s) and the AIC of every candidate (inf if
    it failed, as the search records it)."""
    aic = {}
    for lu in phi_grid:
        for ls in phi_grid:
            try:
                aic[(lu, ls)] = h.fit_pclm(Z, C, Bu, Bs, phis=(lu, ls), ctrl=ctrl).aic
            except ConvergenceError:
                aic[(lu, ls)] = np.inf
    return min(aic, key=lambda k: (aic[k], -(10.0**k[0] + 10.0**k[1]))), aic


class TestSharedSearch:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), n_u=st.integers(7, 10), n_s=st.integers(4, 6),
           tail=st.integers(2, 4), lo=st.sampled_from([-1.0, 0.0, 0.5]),
           step=st.sampled_from([0.5, 1.0]), n_phi=st.integers(2, 4))
    # candidate (-1, 1): Fisher scoring stalled at relative score 2e-6 from either start and
    # both searches dropped it; Newton steps on the observed information converge it in 8
    @example(seed=0, n_u=7, n_s=5, tail=4, lo=-1.0, step=1.0, n_phi=3)
    def test_matches_cold_search(self, seed, n_u, n_s, tail, lo, step, n_phi):
        """The search fits the cold oracle's grid first, row for row, each candidate's AIC
        within 1e-8 of its lone cold fit's; then pattern moves and descent trials inside the
        range, each key once, each as a lone cold fit would.  It selects the least AIC it
        fitted, at most the cold grid's minimum, with the on-edge flags of the gradient sign
        rule at the selected fit."""
        _, _, g, C, Z, Bu, Bs = small_problem(seed=seed, g=n_u - tail, n_u=n_u, n_s=n_s)
        phi_grid = [lo + step * i for i in range(n_phi)]
        top = phi_grid[-1]
        search = h.SearchConfig((lo, top), (lo, top), step)
        ctrl = h.FitControl(max_iter=400, dev_rel_tol=1e-14, score_rel_tol=1e-10)
        fit = h.select_pclm_smoothing(Z, C, Bu, Bs, search=search, ctrl=ctrl)
        chosen, cold = cold_pclm_search(Z, C, Bu, Bs, phi_grid, ctrl)

        n_grid = len(cold)
        assert [(lu, ls) for lu, ls, _ in fit.candidates[:n_grid]] == list(cold)
        for lu, ls, aic in fit.candidates[:n_grid]:
            assert aic == pytest.approx(cold[(lu, ls)], rel=1e-8, abs=0.0), (lu, ls)
        keys = {(round(lu, 6), round(ls, 6)) for lu, ls, _ in fit.candidates}
        assert len(keys) == len(fit.candidates)
        for lu, ls, aic in fit.candidates[n_grid:]:
            assert lo - 1e-9 <= min(lu, ls) and max(lu, ls) <= top + 1e-9, (lu, ls)
            try:
                alone = h.fit_pclm(Z, C, Bu, Bs, phis=(lu, ls), ctrl=ctrl).aic
            except ConvergenceError:
                alone = np.inf
            assert aic == pytest.approx(alone, rel=1e-8, abs=0.0), (lu, ls)
        assert fit.aic == min(aic for _, _, aic in fit.candidates)
        assert fit.aic <= cold[chosen] * (1 + 1e-8)

        prob = _problem(Z, C, Bu, Bs)
        slope = smooth2d._criterion_gradient(prob, h.PenaltyConfig(*fit.phis, 2), fit.theta,
                                             fit.covariance, 2.0)
        assert fit.on_edge == tuple(smooth2d._falls_out(np.array(fit.phis), slope,
                                                        *search.bounds()))

    SEARCH = h.SearchConfig((0.0, 1.0), (0.0, 1.0), 0.5)   # the grid 0, 0.5, 1 squared

    @staticmethod
    def recording(monkeypatch, doomed):
        """Patch the search's per-candidate fit to fail where ``doomed`` says ("warm": only
        from a warm start, "both": always) and to record every attempt's (phis, start)."""
        fit_once, calls = pclm._fit, []

        def fit(prob, C_u, phis, d, ctrl, start=None):
            calls.append((tuple(phis), start))
            mode = doomed.get(tuple(phis))
            if mode == "both" or (mode == "warm" and start is not None):
                raise ConvergenceError("injected", n_iter=ctrl.max_iter)
            return fit_once(prob, C_u, phis, d, ctrl, start)

        monkeypatch.setattr(pclm, "_fit", fit)
        return calls

    def test_failed_warm_start_is_retried_cold(self, monkeypatch):
        _, _, g, C, Z, Bu, Bs = small_problem(seed=16)
        calls = self.recording(monkeypatch, {(0.0, 0.5): "warm", (0.5, 0.0): "both"})
        fit = h.select_pclm_smoothing(Z, C, Bu, Bs, search=self.SEARCH)
        aic = {(lu, ls): value for lu, ls, value in fit.candidates}
        tries = {}
        for phis, start in calls:
            tries.setdefault(phis, []).append(start is None)
        # the failed warm start is refitted from the default start: exactly the lone fit
        assert tries[(0.0, 0.5)] == [False, True]
        assert aic[(0.0, 0.5)] == h.fit_pclm(Z, C, Bu, Bs, phis=(0.0, 0.5)).aic
        # failing from both starts drops the candidate
        assert tries[(0.5, 0.0)] == [False, True] and aic[(0.5, 0.0)] == np.inf
        assert [c[:2] for c in fit.candidates[:9]] == [(a, b) for a in (0.0, 0.5, 1.0)
                                                       for b in (0.0, 0.5, 1.0)]
        assert np.isfinite(fit.aic)

    def test_failed_candidate_keeps_the_warm_start(self, monkeypatch):
        _, _, g, C, Z, Bu, Bs = small_problem(seed=17)
        calls = self.recording(monkeypatch, {(0.0, 0.5): "both"})
        h.select_pclm_smoothing(Z, C, Bu, Bs, search=self.SEARCH)
        starts = {}
        for phis, start in calls:
            starts.setdefault(phis, start)          # each candidate's first attempt
        warm = starts[(0.0, 0.5)]                   # (0, 0)'s coefficients
        assert starts[(0.0, 0.0)] is None and warm is not None
        # after the failed (0, 0.5) the row goes on from its last converged fit, (0, 0)
        assert np.array_equal(starts[(0.0, 1.0)], warm)
        assert np.array_equal(starts[(0.5, 0.0)], warm)   # and so does the next row


class TestUngroupEvents:
    def test_zero_tail_gives_near_zero_replacements(self):
        rng = np.random.default_rng(13)
        grid = h.build_grid(0, 20, 1, 0, 5, 1)
        # mass concentrated far below the grouped tail
        truth = 60.0 * np.exp(-0.5 * ((grid.u_mid[:, None] - 3.0) / 1.5) ** 2
                              - 0.2 * grid.s_mid[None, :])
        y = rng.poisson(truth).astype(float)
        y[12:] = 0.0
        g = 16
        C = h.composition_matrix(g, 20)
        Z = C @ y
        kv_u = h.make_knots(0, 20, 6, 3)
        kv_s = h.make_knots(0, 5, 3, 2)
        Bu = h.evaluate_basis(grid.u_mid, kv_u)
        Bs = h.evaluate_basis(grid.s_mid, kv_s)
        fit = h.select_pclm_smoothing(Z, C, Bu, Bs)
        assert np.all(fit.Gamma[g - 1:] < 1e-6)


class TestAssembleUngrouped:
    """``cli.assemble_ungrouped`` keeps the binned body rows and puts the fitted tail rows
    ``Gamma[g-1:]`` of each search under them."""

    def test_body_rows_are_binned_and_tail_rows_are_fitted(self, monkeypatch, constant_cohort,
                                                           default_grid):
        kv_u, kv_s = h.make_knots(50, 100, 13, 3), h.make_knots(0, 10.5, 7, 3)
        search = h.SearchConfig((-1.0, 2.0), (-1.0, 2.0), 1.0)
        # the searches in this process, on its BLAS threads, as the oracle fits below run
        monkeypatch.setattr(cli, "_lane_results", lambda tasks: (fn(*args, **kwargs)
                                                                 for fn, args, kwargs in tasks))
        binned, diag = cli.assemble_ungrouped(constant_cohort, default_grid, 90.0, kv_u, kv_s,
                                              2, search, h.FitControl())
        fine = h.bin_records(constant_cohort, default_grid)
        g = 41
        C = h.composition_matrix(g, default_grid.n_u)
        Bu = h.evaluate_basis(default_grid.u_mid, kv_u)
        assert sorted(binned.Y) == sorted(fine.Y) == [1, 2]
        assert set(diag) == {"cause1", "cause2", "at_risk"}
        for ell in fine.Y:
            assert np.array_equal(binned.Y[ell][: g - 1], fine.Y[ell][: g - 1])
            fit = h.select_pclm_smoothing(C @ fine.Y[ell], C, Bu,
                                          h.evaluate_basis(default_grid.s_mid, kv_s),
                                          search=search)
            assert np.array_equal(binned.Y[ell][g - 1:], fit.Gamma[g - 1:])
            assert diag[f"cause{ell}"]["aic"] == fit.aic
        assert np.array_equal(binned.R[: g - 1], fine.R[: g - 1])
        at_risk = h.select_pclm_smoothing(C @ at_risk_matrix(constant_cohort, default_grid), C,
                                          Bu, h.evaluate_basis(default_grid.s_edges, kv_s),
                                          search=search)
        assert np.array_equal(binned.R[g - 1:],
                              h.ungroup_exposure(at_risk.Gamma[g - 1:], default_grid.h_s))
        assert diag["at_risk"]["aic"] == at_risk.aic


class TestUngroupExposure:
    def test_everyone_survives(self):
        n = np.array([[30.0, 30.0, 30.0, 30.0]])
        assert np.allclose(h.ungroup_exposure(n, 0.5), 0.5 * 30.0)

    def test_everyone_exits(self):
        n = np.array([[40.0, 0.0, 0.0]])
        out = h.ungroup_exposure(n, 0.5)
        assert out[0, 0] == 0.25 * 40.0
        assert out[0, 1] == 0.0

    def test_mixed_bin(self):
        # 10 enter, 6 survive: 6 full widths plus 4 half widths
        n = np.array([[10.0, 6.0]])
        assert h.ungroup_exposure(n, 2.0)[0, 0] == 2.0 * 6 + 1.0 * 4

    def test_negative_exits_clamped_with_warning(self):
        n = np.array([[5.0, 8.0]])
        with pytest.warns(UserWarning, match="clamping"):
            out = h.ungroup_exposure(n, 1.0)
        assert out[0, 0] == 8.0  # survivors only; no negative exit term

    def test_bad_width(self):
        with pytest.raises(ValueError):
            h.ungroup_exposure(np.ones((1, 3)), 0.0)

    def test_simulated_tail_exposure_close_to_truth(self, constant_cohort, default_grid):
        # oracle: exact binned exposure of the same records
        fine = h.bin_records(constant_cohort, default_grid)
        g = default_grid.first_grouped_row(90.0) + 1
        C = h.composition_matrix(g, default_grid.n_u)
        kv_u = h.make_knots(50, 100, 13, 3)
        kv_s = h.make_knots(0, 10.5, 7, 3)
        Bu = h.evaluate_basis(default_grid.u_mid, kv_u)
        Bs_edges = h.evaluate_basis(default_grid.s_edges, kv_s)
        fit = h.select_pclm_smoothing(C @ at_risk_matrix(constant_cohort, default_grid), C, Bu,
                                      Bs_edges)
        tail_exposure = h.ungroup_exposure(fit.Gamma[g - 1:], default_grid.h_s)
        true_tail = fine.R[g - 1:]
        rel = abs(tail_exposure.sum() - true_tail.sum()) / true_tail.sum()
        assert rel < 0.05
