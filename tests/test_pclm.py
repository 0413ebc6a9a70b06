import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hazard2ts as h
from hazard2ts import pclm
from hazard2ts.errors import ConvergenceError, DataError
from hazard2ts.pclm import _problem


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
    spec = h.CompositionSpec(g=g, n_u=n_u)
    C = h.composition_matrix(spec)
    Z = C @ y_true
    kv_u = h.make_knots(0, n_u, c_u - 2, 2)
    kv_s = h.make_knots(0, n_s, c_s - 2, 2)
    Bu = h.evaluate_basis(grid.u_mid, kv_u)
    Bs = h.evaluate_basis(grid.s_mid, kv_s)
    return grid, y_true, spec, C, Z, Bu, Bs


class TestCompositionMatrix:
    def test_standard_register_dimensions(self):
        # 41 observed rows onto 50 fine rows: identity block plus a 10-wide sum row
        C = h.composition_matrix(h.CompositionSpec(g=41, n_u=50))
        assert C.shape == (41, 50)
        assert np.array_equal(C[:40, :40], np.eye(40))
        assert C[40].sum() == 10.0
        assert np.all(C.sum(axis=0) == 1.0)

    def test_tiny_example(self):
        C = h.composition_matrix(h.CompositionSpec(g=2, n_u=3))
        assert np.array_equal(C, [[1, 0, 0], [0, 1, 1]])

    def test_applies_as_partial_sum(self):
        C = h.composition_matrix(h.CompositionSpec(g=4, n_u=7))
        v = np.arange(1.0, 8.0)
        assert np.array_equal(C @ v, [1.0, 2.0, 3.0, 4 + 5 + 6 + 7])

    def test_row_sums(self):
        spec = h.CompositionSpec(g=5, n_u=12)
        C = h.composition_matrix(spec)
        assert np.array_equal(C.sum(axis=1), [1, 1, 1, 1, 12 - 5 + 1])

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            h.CompositionSpec(g=5, n_u=5)
        with pytest.raises(ValueError):
            h.CompositionSpec(g=1, n_u=5)


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
        _, _, spec, C, Z, Bu, Bs = small_problem(seed=4)
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

    def test_tight_fit_is_stationary_with_dense_effective_dimension(self):
        _, _, spec, C, Z, Bu, Bs = small_problem(seed=14)
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
        _, _, spec, C, Z, Bu, Bs = small_problem(seed=15)
        for bad in (0.5 * C, np.vstack([C[:-1], C[-1] + C[0]])):
            with pytest.raises(ValueError, match="composition"):
                h.fit_pclm(Z, bad, Bu, Bs)

    def test_round_trip_recovers_fine_counts(self):
        grid, y_true, spec, C, Z, Bu, Bs = small_problem(seed=5)
        Y_full, fit = h.ungroup_events(Z, spec, Bu, Bs)
        assert np.array_equal(Y_full[: spec.g - 1], Z[: spec.g - 1])
        tail_hat = Y_full[spec.g - 1:]
        tail_true = y_true[spec.g - 1:]
        corr = np.corrcoef(tail_hat.ravel(), tail_true.ravel())[0, 1]
        assert corr > 0.8  # small problem; the full-size bound is in acceptance

    def test_regroup_identity_and_positivity(self):
        _, _, spec, C, Z, Bu, Bs = small_problem(seed=6)
        fit = h.fit_pclm(Z, C, Bu, Bs, phis=(0.5, 0.5))
        assert np.abs(C @ fit.Gamma - fit.Psi).max() < 1e-12 * max(fit.Psi.max(), 1.0)
        assert np.all(fit.Gamma > 0)

    def test_all_zero_counts_rejected(self):
        _, _, spec, C, Z, Bu, Bs = small_problem(seed=7)
        with pytest.raises(DataError):
            h.fit_pclm(np.zeros_like(Z), C, Bu, Bs)

    def test_shape_mismatch_rejected(self):
        _, _, spec, C, Z, Bu, Bs = small_problem(seed=8)
        with pytest.raises(DataError):
            h.fit_pclm(Z[:-1], C, Bu, Bs)


class TestSelectPclmSmoothing:
    def test_single_point_grid(self):
        _, _, spec, C, Z, Bu, Bs = small_problem(seed=9)
        fit = h.select_pclm_smoothing(Z, C, Bu, Bs, search=h.SearchConfig((0.5, 0.5), (0.5, 0.5),
                                                                          0.5, 0.5))
        assert fit.phis == (0.5, 0.5)
        assert len(fit.candidates) == 1

    def test_default_grid_has_49_candidates(self):
        _, _, spec, C, Z, Bu, Bs = small_problem(seed=10)
        fit = h.select_pclm_smoothing(Z, C, Bu, Bs)
        assert len(fit.candidates) == 49
        lus = sorted({c[0] for c in fit.candidates})
        assert lus == [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]

    def test_selected_minimizes_aic_over_candidates(self):
        _, _, spec, C, Z, Bu, Bs = small_problem(seed=11)
        fit = h.select_pclm_smoothing(Z, C, Bu, Bs)
        assert fit.aic <= min(aic for _, _, aic in fit.candidates) + 1e-9

    def test_empty_grid_rejected(self):
        _, _, spec, C, Z, Bu, Bs = small_problem(seed=12)
        with pytest.raises(ValueError):
            h.select_pclm_smoothing(Z, C, Bu, Bs, search=h.SearchConfig((1.0, 0.5), (1.0, 0.5),
                                                                        0.5, 0.5))


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
    # candidate (-1, 1) stalls at relative score 2e-6 from either start: both drop it
    @example(seed=0, n_u=7, n_s=5, tail=4, lo=-1.0, step=1.0, n_phi=3)
    def test_matches_cold_search(self, seed, n_u, n_s, tail, lo, step, n_phi):
        _, _, spec, C, Z, Bu, Bs = small_problem(seed=seed, g=n_u - tail, n_u=n_u, n_s=n_s)
        phi_grid = [lo + step * i for i in range(n_phi)]
        search = h.SearchConfig((lo, phi_grid[-1]), (lo, phi_grid[-1]), step, step)
        ctrl = h.FitControl(max_iter=400, dev_rel_tol=1e-14, score_rel_tol=1e-10)
        fit = h.select_pclm_smoothing(Z, C, Bu, Bs, search=search, ctrl=ctrl)
        chosen, cold = cold_pclm_search(Z, C, Bu, Bs, phi_grid, ctrl)

        assert fit.phis == chosen
        assert [(lu, ls) for lu, ls, _ in fit.candidates] == list(cold)
        for lu, ls, aic in fit.candidates:
            assert aic == pytest.approx(cold[(lu, ls)], rel=1e-8, abs=0.0), (lu, ls)

    SEARCH = h.SearchConfig((0.0, 1.0), (0.0, 1.0), 0.5, 0.5)   # the grid 0, 0.5, 1 squared

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
        _, _, spec, C, Z, Bu, Bs = small_problem(seed=16)
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
        assert len(fit.candidates) == 9 and np.isfinite(fit.aic)

    def test_failed_candidate_keeps_the_warm_start(self, monkeypatch):
        _, _, spec, C, Z, Bu, Bs = small_problem(seed=17)
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
        spec = h.CompositionSpec(g=16, n_u=20)
        Z = h.composition_matrix(spec) @ y
        kv_u = h.make_knots(0, 20, 6, 3)
        kv_s = h.make_knots(0, 5, 3, 2)
        Bu = h.evaluate_basis(grid.u_mid, kv_u)
        Bs = h.evaluate_basis(grid.s_mid, kv_s)
        Y_full, fit = h.ungroup_events(Z, spec, Bu, Bs)
        assert np.all(Y_full[spec.g - 1:] < 1e-6)


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
        grouped, fine = h.grouped_view(constant_cohort, default_grid, 90.0)
        spec = h.CompositionSpec(g=grouped.g, n_u=default_grid.n_u)
        C = h.composition_matrix(spec)
        kv_u = h.make_knots(50, 100, 13, 3)
        kv_s = h.make_knots(0, 10.5, 7, 3)
        Bu = h.evaluate_basis(default_grid.u_mid, kv_u)
        Bs_edges = h.evaluate_basis(default_grid.s_edges, kv_s)
        fit = h.select_pclm_smoothing(grouped.at_risk, C, Bu, Bs_edges)
        tail_exposure = h.ungroup_exposure(fit.Gamma[spec.g - 1:], default_grid.h_s)
        true_tail = fine.R[spec.g - 1:]
        rel = abs(tail_exposure.sum() - true_tail.sum()) / true_tail.sum()
        assert rel < 0.05
