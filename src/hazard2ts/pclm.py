"""Ungrouping of a coarse final age interval via a composite link model.

Observed counts on g coarse age rows are Poisson with means ``C_u @ Gamma``,
where Gamma is a latent smooth surface on the full n_u-row fine grid and C_u
sums the fine rows belonging to the final wide interval.  Gamma is
``exp(B theta)`` with a tensor-product spline basis and anisotropic
difference penalties; theta is estimated by Fisher-scoring IWLS and the
smoothing parameters by an exhaustive AIC grid search.

Columns are never grouped (the composition along the second axis is the
identity), which keeps the problem in array form: all score and information
computations run on the marginal matrices per data column, without
materializing the full model matrix.  The fitting routines accept any
row-composition matrix, not just the canonical tail-grouping one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .basis import BasisMatrix
from .errors import ConvergenceError, DataError
from .smooth2d import FitControl, PenaltyConfig, _factor_spd, penalty_matrix


@dataclass(frozen=True)
class CompositionSpec:
    """Row grouping: the first g-1 observed rows are single fine rows, the
    g-th observed row is the sum of fine rows g..n_u."""

    g: int
    n_u: int

    def __post_init__(self):
        if not (2 <= self.g < self.n_u):
            raise ValueError(f"need 2 <= g < n_u, got g={self.g}, n_u={self.n_u}")


def composition_matrix(spec: CompositionSpec) -> np.ndarray:
    """0/1 matrix mapping fine rows to observed rows (every column has one 1)."""
    C = np.zeros((spec.g, spec.n_u))
    C[: spec.g - 1, : spec.g - 1] = np.eye(spec.g - 1)
    C[spec.g - 1, spec.g - 1:] = 1.0
    return C


@dataclass
class PclmFit:
    """Fitted fine-grid means and diagnostics of one composite link fit."""

    Gamma: np.ndarray             # n_u x n_cols fitted fine-grid means
    Psi: np.ndarray               # g x n_cols fitted grouped means (= C_u @ Gamma)
    theta: np.ndarray             # spline coefficients, length c_u * c_s
    phis: tuple                   # (log10 phi_u, log10 phi_s)
    deviance: float
    ed: float
    aic: float
    converged: bool
    n_iter: int
    candidates: list = field(default_factory=list)  # (log10_phi_u, log10_phi_s, aic) per search point


class _PclmContext:
    """Everything about a composite link problem that does not depend on phi."""

    def __init__(self, Z, C_u, Bu: BasisMatrix, Bs: BasisMatrix, d: int):
        Z = np.asarray(Z, dtype=float)
        C_u = np.asarray(C_u, dtype=float)
        g, n_u = C_u.shape
        n_cols = Z.shape[1]
        if Z.shape[0] != g:
            raise DataError(f"Z has {Z.shape[0]} rows but the composition matrix has {g}")
        if np.any(Z < 0) or not np.all(np.isfinite(Z)):
            raise DataError("grouped counts must be nonnegative and finite")
        if Z.sum() <= 0:
            raise DataError("all grouped counts are zero: nothing to ungroup")
        if Bu.values.shape[0] != n_u or Bs.values.shape[0] != n_cols:
            raise ValueError("basis rows must match the fine grid (Bu) and the data columns (Bs)")
        self.Z = Z
        self.C_u = C_u
        self.Bu = Bu.values
        self.Bs = Bs.values
        self.g, self.n_u, self.n_cols = g, n_u, n_cols
        self.c_u, self.c_s = self.Bu.shape[1], self.Bs.shape[1]
        self.d = d

        # default start: counts spread uniformly within each group, then the
        # log projected onto the basis by fine-grid least squares
        group_sizes = C_u.sum(axis=1)
        Gamma0 = C_u.T @ (Z / group_sizes[:, None]) + 0.5
        G0 = np.kron(self.Bs.T @ self.Bs, self.Bu.T @ self.Bu)
        ridge = 1e-8 * np.trace(G0) / G0.shape[0]
        rhs0 = (self.Bu.T @ np.log(Gamma0) @ self.Bs).flatten(order="F")
        self.theta0 = scipy.linalg.solve(G0 + ridge * np.eye(G0.shape[0]), rhs0,
                                         assume_a="pos")

    # -- array kernels ------------------------------------------------------
    # The model matrix rows factor per data column k as kron(Bs[k], Gk) with
    # Gk = C_u @ diag(Gamma[:, k]) @ Bu, so scores and the information matrix
    # are sums of small per-column pieces.

    def _gk(self, Gamma: np.ndarray) -> np.ndarray:
        """d psi / d eta blocks, shaped (g, n_cols, c_u)."""
        scaled = Gamma[:, :, None] * self.Bu[:, None, :]          # (n_u, n_cols, c_u)
        return (self.C_u @ scaled.reshape(self.n_u, -1)).reshape(
            self.g, self.n_cols, self.c_u
        )

    def _score_vec(self, Gk: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Model-matrix transpose times vec(V) for a g x n_cols matrix V."""
        T = np.einsum("gkl,gk->kl", Gk, V)
        return np.einsum("kl,km->lm", T, self.Bs).flatten(order="F")

    def _gram(self, Gamma: np.ndarray, inv_psi: np.ndarray) -> np.ndarray:
        """Fisher information sum_k kron(Bs[k]'Bs[k], Gk' diag(1/psi_k) Gk)."""
        Gk = self._gk(Gamma)
        H = np.einsum("gkl,gk,gkm->klm", Gk, inv_psi, Gk)          # (n_cols, c_u, c_u)
        info4 = np.einsum("km,kn,klo->mlno", self.Bs, self.Bs, H)
        info = info4.reshape(self.c_u * self.c_s, self.c_u * self.c_s)
        return 0.5 * (info + info.T)

    def state(self, theta: np.ndarray, P: np.ndarray):
        Theta = theta.reshape(self.c_u, self.c_s, order="F")
        Gamma = np.exp(np.clip(self.Bu @ Theta @ self.Bs.T, -700, 700))
        Psi = np.maximum(self.C_u @ Gamma, 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(self.Z > 0,
                            self.Z * np.log(np.where(self.Z > 0, self.Z / Psi, 1.0)), 0.0)
        dev = float(2.0 * np.sum(term - (self.Z - Psi)))
        return Gamma, Psi, dev, dev + float(theta @ P @ theta)


def _fit_pclm_core(ctx: _PclmContext, phis, ctrl: FitControl, theta_init=None) -> PclmFit:
    P = penalty_matrix(ctx.c_u, ctx.c_s, PenaltyConfig(phis[0], phis[1], ctx.d))
    theta = ctx.theta0.copy() if theta_init is None else np.asarray(theta_init, dtype=float).copy()

    Gamma, Psi, dev, pen_dev = ctx.state(theta, P)
    rel_change = math.inf
    converged = False
    score_rel = math.inf
    it = 0
    for it in range(1, ctrl.max_iter + 1):
        Gk = ctx._gk(Gamma)
        score = ctx._score_vec(Gk, (ctx.Z - Psi) / Psi) - P @ theta
        score_scale = max(np.max(np.abs(ctx._score_vec(Gk, ctx.Z / Psi))), 1.0)
        score_rel = np.max(np.abs(score)) / score_scale
        if rel_change < ctrl.dev_rel_tol and score_rel < ctrl.score_rel_tol:
            converged = True
            break
        info = ctx._gram(Gamma, 1.0 / Psi)
        factor = _factor_spd(info + P)
        step = scipy.linalg.cho_solve(factor, score)

        new_theta = theta + step
        _, _, _, new_pen_dev = ctx.state(new_theta, P)
        n_halved = 0
        while new_pen_dev > pen_dev + 1e-10 * (1 + abs(pen_dev)) and n_halved < 10:
            step *= 0.5
            new_theta = theta + step
            _, _, _, new_pen_dev = ctx.state(new_theta, P)
            n_halved += 1

        rel_change = abs(new_pen_dev - pen_dev) / (1.0 + abs(new_pen_dev))
        theta = new_theta
        Gamma, Psi, dev, pen_dev = ctx.state(theta, P)

    if not converged:
        raise ConvergenceError(
            f"composite link IWLS did not converge in {it} iterations "
            f"(relative score {score_rel:.3e})",
            last_coef=theta, score_norm=score_rel, n_iter=it,
        )

    info = ctx._gram(Gamma, 1.0 / Psi)              # information at the final iterate
    factor = _factor_spd(info + P)
    ed = float(np.trace(scipy.linalg.cho_solve(factor, info)))
    ed = min(max(ed, 0.0), float(P.shape[0]))
    aic = dev + 2.0 * ed

    return PclmFit(Gamma=Gamma, Psi=Psi, theta=theta, phis=tuple(phis), deviance=dev,
                   ed=ed, aic=aic, converged=True, n_iter=it)


def fit_pclm(
    Z: np.ndarray,
    C_u: np.ndarray,
    Bu: BasisMatrix,
    Bs: BasisMatrix,
    d: int = 2,
    phis: tuple = (0.0, 0.0),
    ctrl: FitControl = FitControl(),
) -> PclmFit:
    """Fit the composite link model to one grouped count matrix.

    Parameters
    ----------
    Z : ndarray, g x n_cols
        Observed grouped counts (columns are untouched by the grouping).
    C_u : ndarray, g x n_u
        Row-composition matrix; ``np.eye(n_u)`` reduces the model to a plain
        penalized Poisson smooth of Z.
    Bu, Bs : BasisMatrix
        Marginal bases at the fine row midpoints and at the column
        evaluation points (n_u and n_cols rows respectively).
    phis : tuple
        (log10 phi_u, log10 phi_s) smoothing parameters.
    """
    return _fit_pclm_core(_PclmContext(Z, C_u, Bu, Bs, d), phis, ctrl)


def select_pclm_smoothing(
    Z: np.ndarray,
    C_u: np.ndarray,
    Bu: BasisMatrix,
    Bs: BasisMatrix,
    d: int = 2,
    log10_phi_grid=None,
    ctrl: FitControl = FitControl(),
) -> PclmFit:
    """Exhaustive AIC grid search over (log10 phi_u, log10 phi_s).

    The default grid spans [-1, 2] in steps of 0.5 on both axes.  Ties are
    broken toward the larger phi_u + phi_s (the smoother fit).  The returned
    fit carries the full candidate list in ``fit.candidates``.
    """
    if log10_phi_grid is None:
        log10_phi_grid = np.arange(-1.0, 2.0 + 1e-9, 0.5)
    log10_phi_grid = np.asarray(log10_phi_grid, dtype=float)
    if log10_phi_grid.size == 0:
        raise ValueError("empty smoothing-parameter grid")

    ctx = _PclmContext(Z, C_u, Bu, Bs, d)
    best = None
    best_fit = None
    candidates = []
    warm = None
    for lpu in log10_phi_grid:
        row_start = None
        for lps in log10_phi_grid:
            try:
                fit = _fit_pclm_core(ctx, (float(lpu), float(lps)), ctrl, theta_init=warm)
            except ConvergenceError:
                candidates.append((float(lpu), float(lps), math.inf))
                warm = None
                continue
            # warm-start the next candidate; restart each row from its first fit
            warm = fit.theta
            if row_start is None:
                row_start = fit.theta
            candidates.append((float(lpu), float(lps), fit.aic))
            cand = (fit.aic, 10.0**lpu + 10.0**lps)
            if best is None or cand[0] < best[0] or (cand[0] == best[0] and cand[1] > best[1]):
                best = cand
                best_fit = fit
        warm = row_start
    if best_fit is None:
        raise ConvergenceError("no smoothing-parameter candidate converged")
    best_fit.candidates = candidates
    return best_fit


def ungroup_events(
    Z: np.ndarray,
    spec: CompositionSpec,
    Bu: BasisMatrix,
    Bs: BasisMatrix,
    d: int = 2,
    log10_phi_grid=None,
    ctrl: FitControl = FitControl(),
):
    """Replace the grouped tail rows of a count matrix by fitted fine rows.

    Returns ``(Y_full, fit)`` where rows 0..g-2 of ``Y_full`` are the
    observed counts unchanged and rows g-1..n_u-1 come from the fitted fine
    means; the column sums of the replacement rows equal the fitted grouped
    tail row by construction.
    """
    C_u = composition_matrix(spec)
    fit = select_pclm_smoothing(Z, C_u, Bu, Bs, d=d, log10_phi_grid=log10_phi_grid, ctrl=ctrl)
    Y_full = np.empty((spec.n_u, Z.shape[1]))
    Y_full[: spec.g - 1] = Z[: spec.g - 1]
    Y_full[spec.g - 1:] = fit.Gamma[spec.g - 1:]
    return Y_full, fit


def ungroup_exposure(n_at_risk: np.ndarray, h_s: float):
    """Exposure from interval-entry at-risk counts by the half-bin rule.

    ``n_at_risk`` has one more column than there are follow-up bins: column
    k is the number at risk when bin k starts, and the final column is the
    number still under observation at the end of follow-up.  Whoever
    survives a bin contributes its full width, whoever exits contributes
    half of it.  Fitted at-risk sequences can be non-monotone; implied
    negative exit counts are clamped to zero with a warning.
    """
    n_at_risk = np.atleast_2d(np.asarray(n_at_risk, dtype=float))
    if h_s <= 0:
        raise ValueError(f"bin width must be positive, got {h_s}")
    if n_at_risk.shape[1] < 2:
        raise ValueError("need at least two at-risk columns (entry and end of follow-up)")
    entering = n_at_risk[:, :-1]
    surviving = n_at_risk[:, 1:]
    exits = entering - surviving
    n_negative = int(np.sum(exits < -1e-12))
    if n_negative:
        warnings.warn(
            f"{n_negative} bin(s) with more at-risk leaving than entering; "
            "clamping implied exits to zero",
            stacklevel=2,
        )
    exits = np.maximum(exits, 0.0)
    return h_s * surviving + 0.5 * h_s * exits
