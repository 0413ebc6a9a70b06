"""Penalized Poisson fit of one cause-specific hazard surface.

The log-hazard on the bin grid is a tensor-product spline surface; event
counts are Poisson with mean ``exposure * exp(log_hazard)``.  Anisotropic
difference penalties on the coefficient matrix control smoothness along each
axis.  Fitting is Newton/IWLS through the array kernels in :mod:`.glam`;
smoothing parameters are chosen by AIC or BIC with a coarse grid search
followed by a pattern-search refinement on the log10 scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.spatial

from . import glam
from .basis import KnotVector, difference_matrix, evaluate_basis
from .errors import ConvergenceError, DataError
from .lexis import BinnedData


@dataclass(frozen=True)
class PenaltyConfig:
    """Difference order and per-axis smoothing parameters (log10 scale).

    ``log10_rho = -inf`` switches the penalty off for that axis (rho = 0).
    """

    log10_rho_u: float
    log10_rho_s: float
    d: int = 2

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"difference order must be >= 1, got {self.d}")
        for val in (self.log10_rho_u, self.log10_rho_s):
            if math.isnan(val) or val == math.inf:
                raise ValueError(f"log10 smoothing parameter must not be {val}")

    @property
    def rho_u(self) -> float:
        return 10.0 ** self.log10_rho_u

    @property
    def rho_s(self) -> float:
        return 10.0 ** self.log10_rho_s


def zero_penalty(d: int = 2) -> PenaltyConfig:
    """Penalty configuration with both smoothing parameters equal to zero."""
    return PenaltyConfig(log10_rho_u=-math.inf, log10_rho_s=-math.inf, d=d)


@dataclass(frozen=True)
class FitControl:
    """Convergence settings for the penalized IWLS iterations."""

    max_iter: int = 50
    dev_rel_tol: float = 1e-8
    score_rel_tol: float = 1e-6


@dataclass
class FittedHazard:
    """One converged cause-specific hazard surface and its fit diagnostics."""

    A: np.ndarray                 # c_u x c_s coefficient matrix
    penalty: PenaltyConfig
    kv_u: KnotVector
    kv_s: KnotVector
    grid: object                  # LexisGrid the fit was computed on
    W_hat: np.ndarray             # fitted Poisson means on the grid
    deviance: float
    ed: float
    aic: float
    bic: float
    n_bin: int
    converged: bool
    n_iter: int
    score_rel: float
    gram: np.ndarray = field(repr=False)             # B' W_hat B at convergence
    factor: tuple = field(repr=False)                # Cholesky factor of gram + P
    hull: tuple = field(repr=False)                  # convex hull of positive-exposure bins

    @property
    def coef(self) -> np.ndarray:
        return self.A.flatten(order="F")

    @property
    def n_coef(self) -> int:
        return self.A.size


def penalty_matrix(c_u: int, c_s: int, penalty: PenaltyConfig) -> np.ndarray:
    """Assemble ``rho_u * kron(I, Du'Du) + rho_s * kron(Ds'Ds, I)``."""
    d = penalty.d
    P = np.zeros((c_u * c_s, c_u * c_s))
    if penalty.rho_u > 0:
        Du = difference_matrix(c_u, d).values
        P += penalty.rho_u * np.kron(np.eye(c_s), Du.T @ Du)
    if penalty.rho_s > 0:
        Ds = difference_matrix(c_s, d).values
        P += penalty.rho_s * np.kron(Ds.T @ Ds, np.eye(c_u))
    return P


def _support_hull(grid, mask: np.ndarray):
    """Convex hull of the positive-exposure bin midpoints, for extrapolation flags.

    Returns ("polygon", counterclockwise vertices) or, for degenerate point
    sets, ("box", (u_min, u_max, s_min, s_max)).
    """
    uu, ss = np.meshgrid(grid.u_mid, grid.s_mid, indexing="ij")
    pts = np.column_stack([uu[mask], ss[mask]])
    if len(pts) >= 3:
        try:
            return "polygon", pts[scipy.spatial.ConvexHull(pts).vertices]
        except scipy.spatial.QhullError:
            pass
    return "box", (pts[:, 0].min(), pts[:, 0].max(), pts[:, 1].min(), pts[:, 1].max())


def _factor_spd(M: np.ndarray):
    """Cholesky with a single trace-scaled ridge retry on failure."""
    try:
        return scipy.linalg.cho_factor(M, lower=True)
    except scipy.linalg.LinAlgError:
        ridge = 1e-10 * np.trace(M) / M.shape[0]
        return scipy.linalg.cho_factor(M + ridge * np.eye(M.shape[0]), lower=True)


def poisson_deviance(y: np.ndarray, mu: np.ndarray, mask: np.ndarray) -> float:
    """Poisson deviance over the masked bins, with 0*ln(0/mu) = 0."""
    y = y[mask]
    mu = mu[mask]
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(y > 0, y * np.log(np.where(y > 0, y / mu, 1.0)), 0.0)
    return float(2.0 * np.sum(term - (y - mu)))


def _initial_coef(ws: glam.ArrayModelWorkspace, y: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Project ln((y + 0.5) / (r + 1)) onto the basis by unpenalized least squares."""
    eta0 = np.log((y + 0.5) / (r + 1.0))
    G = glam.weighted_inner(ws, np.ones_like(y))
    rhs = glam.weighted_rhs(ws, eta0)
    ridge = 1e-8 * np.trace(G) / G.shape[0]
    return scipy.linalg.solve(G + ridge * np.eye(G.shape[0]), rhs, assume_a="pos")


def fit_hazard(
    data: BinnedData,
    cause: int,
    kv_u: KnotVector,
    kv_s: KnotVector,
    penalty: PenaltyConfig,
    ctrl: FitControl = FitControl(),
) -> FittedHazard:
    """Fit one cause-specific hazard surface at fixed smoothing parameters.

    Zero-exposure bins stay in the array but carry weight zero and do not
    enter the deviance.  Convergence requires both a relative change of the
    penalized deviance below ``ctrl.dev_rel_tol`` and the penalized score
    equation satisfied to ``ctrl.score_rel_tol`` relative to ``|B'y|_inf``.
    """
    if cause not in data.Y:
        raise DataError(f"cause {cause} not present in the binned data")
    y = np.asarray(data.Y[cause], dtype=float)
    r = np.asarray(data.R, dtype=float)
    mask = r > 0
    if not np.any(mask):
        raise DataError("no positive exposure anywhere on the grid")
    if np.any(y[~mask] > 0):
        raise DataError("events recorded in bins with zero exposure")
    if y.sum() <= 0:
        raise DataError(f"no events of cause {cause}: hazard is unidentified")

    Bu = evaluate_basis(data.grid.u_mid, kv_u)
    Bs = evaluate_basis(data.grid.s_mid, kv_s)
    ws = glam.ArrayModelWorkspace(Bu, Bs)
    c_u, c_s = ws.c_u, ws.c_s
    P = penalty_matrix(c_u, c_s, penalty)

    # factored penalty pieces: at strong smoothing the differences D @ A are
    # tiny while P's entries are huge, so P @ alpha loses precision to
    # cancellation; rho * D'(D A) keeps all intermediates small
    rho_u, rho_s = penalty.rho_u, penalty.rho_s
    Du = difference_matrix(c_u, penalty.d).values if rho_u > 0 else None
    Ds = difference_matrix(c_s, penalty.d).values if rho_s > 0 else None

    def pen_grad(A):
        out = np.zeros_like(A)
        if rho_u > 0:
            out += rho_u * (Du.T @ (Du @ A))
        if rho_s > 0:
            out += rho_s * ((A @ Ds.T) @ Ds)
        return out.flatten(order="F")

    def pen_value(A):
        val = 0.0
        if rho_u > 0:
            val += rho_u * float(np.sum((Du @ A) ** 2))
        if rho_s > 0:
            val += rho_s * float(np.sum((A @ Ds.T) ** 2))
        return val

    alpha = _initial_coef(ws, y, r)
    score_scale = max(np.max(np.abs(glam.weighted_rhs(ws, y))), 1.0)

    log_r = np.where(mask, np.log(np.where(mask, r, 1.0)), 0.0)

    def state(alpha_vec):
        A = alpha_vec.reshape(c_u, c_s, order="F")
        eta = glam.linear_predictor(ws, A)
        mu = np.where(mask, np.exp(np.clip(eta + log_r, -700, 700)), 0.0)
        dev = poisson_deviance(y, mu, mask)
        return eta, mu, dev, dev + pen_value(A)

    def score_of(alpha_vec, mu_mat):
        resid = np.where(mask, y - mu_mat, 0.0)
        return (glam.weighted_rhs(ws, resid)
                - pen_grad(alpha_vec.reshape(c_u, c_s, order="F")))

    eta, mu, dev, pen_dev = state(alpha)
    converged = False
    score_rel = np.inf
    gram = None
    it = 0
    for it in range(1, ctrl.max_iter + 1):
        score = score_of(alpha, mu)
        score_rel = np.max(np.abs(score)) / score_scale

        gram = glam.weighted_inner(ws, mu)
        factor = _factor_spd(gram + P)
        step = scipy.linalg.cho_solve(factor, score)

        # damped Newton: halve the step while the penalized deviance worsens
        new_alpha = alpha + step
        _, _, _, new_pen_dev = state(new_alpha)
        n_halved = 0
        while new_pen_dev > pen_dev + 1e-10 * (1 + abs(pen_dev)) and n_halved < 10:
            step *= 0.5
            new_alpha = alpha + step
            _, _, _, new_pen_dev = state(new_alpha)
            n_halved += 1

        rel_change = abs(new_pen_dev - pen_dev) / (1.0 + abs(new_pen_dev))
        alpha = new_alpha
        eta, mu, dev, pen_dev = state(alpha)
        score_rel = np.max(np.abs(score_of(alpha, mu))) / score_scale
        if rel_change < ctrl.dev_rel_tol and score_rel < ctrl.score_rel_tol:
            converged = True
            # one polishing step: quadratic convergence leaves wide margin
            # under the score tolerance; kept only if it actually improves
            gram = glam.weighted_inner(ws, mu)
            factor = _factor_spd(gram + P)
            polish = alpha + scipy.linalg.cho_solve(factor, score_of(alpha, mu))
            p_eta, p_mu, p_dev, p_pen_dev = state(polish)
            p_score = np.max(np.abs(score_of(polish, p_mu))) / score_scale
            if p_score < score_rel and np.isfinite(p_pen_dev):
                alpha, eta, mu, dev, pen_dev, score_rel = (
                    polish, p_eta, p_mu, p_dev, p_pen_dev, p_score)
            break

    if not converged:
        raise ConvergenceError(
            f"IWLS did not converge in {it} iterations "
            f"(relative score {score_rel:.3e}, tolerance {ctrl.score_rel_tol:.1e})",
            last_coef=alpha.reshape(c_u, c_s, order="F"),
            score_norm=score_rel,
            n_iter=it,
        )

    gram = glam.weighted_inner(ws, mu)
    factor = _factor_spd(gram + P)
    n_bin = int(mask.sum())
    fit = FittedHazard(
        A=alpha.reshape(c_u, c_s, order="F"),
        penalty=penalty,
        kv_u=kv_u,
        kv_s=kv_s,
        grid=data.grid,
        W_hat=mu,
        deviance=dev,
        ed=np.nan,
        aic=np.nan,
        bic=np.nan,
        n_bin=n_bin,
        converged=True,
        n_iter=it,
        score_rel=score_rel,
        gram=gram,
        factor=factor,
        hull=_support_hull(data.grid, mask),
    )
    fit.ed = effective_dimension(fit)
    fit.aic, fit.bic = information_criteria(fit)
    return fit


def effective_dimension(fit: FittedHazard) -> float:
    """Trace of the hat matrix, ``tr{(B'WB + P)^-1 B'WB}``, clamped to [0, n_coef]."""
    if not fit.converged:
        raise ConvergenceError("effective dimension requires a converged fit")
    ed = float(np.trace(scipy.linalg.cho_solve(fit.factor, fit.gram)))
    return min(max(ed, 0.0), float(fit.n_coef))


def information_criteria(fit: FittedHazard):
    """AIC and BIC from deviance, effective dimension, and the bin count."""
    ed = fit.ed if np.isfinite(fit.ed) else effective_dimension(fit)
    aic = fit.deviance + 2.0 * ed
    bic = fit.deviance + math.log(fit.n_bin) * ed
    return float(aic), float(bic)


@dataclass(frozen=True)
class SearchConfig:
    """Two-stage smoothing search: coarse log10 grid, then pattern refinement."""

    log10_rho_u_range: tuple = (-2.0, 7.0)
    log10_rho_s_range: tuple = (-2.0, 7.0)
    coarse_step: float = 1.0
    refine_resolution: float = 0.1
    max_evals: int = 400


def select_smoothing(
    data: BinnedData,
    cause: int,
    kv_u: KnotVector,
    kv_s: KnotVector,
    d: int = 2,
    criterion: str = "BIC",
    search: SearchConfig = SearchConfig(),
    ctrl: FitControl = FitControl(),
) -> FittedHazard:
    """Pick (rho_u, rho_s) minimizing AIC or BIC and return the winning fit.

    Stage one evaluates a coarse grid of log10 values; stage two runs a
    pattern search (axis moves with step halving down to
    ``refine_resolution``) from the grid optimum.  Ties prefer the smoother
    fit, i.e. the larger rho_u + rho_s.
    """
    criterion = criterion.upper()
    if criterion not in ("AIC", "BIC"):
        raise ValueError(f"criterion must be AIC or BIC, got {criterion!r}")

    cache = {}

    def key(lu, ls):
        return (round(lu, 6), round(ls, 6))

    def evaluate(lu, ls):
        k = key(lu, ls)
        if k not in cache:
            try:
                fit = fit_hazard(data, cause, kv_u, kv_s,
                                 PenaltyConfig(log10_rho_u=lu, log10_rho_s=ls, d=d), ctrl)
                value = fit.aic if criterion == "AIC" else fit.bic
                cache[k] = (value, fit)
            except ConvergenceError:
                cache[k] = (np.inf, None)
        return cache[k]

    def better(cand, best):
        """cand/best = (value, rho_sum, key); smaller value wins, ties prefer smoother."""
        if cand[0] != best[0]:
            return cand[0] < best[0]
        return cand[1] > best[1]

    lo_u, hi_u = search.log10_rho_u_range
    lo_s, hi_s = search.log10_rho_s_range
    grid_u = np.arange(lo_u, hi_u + 1e-9, search.coarse_step)
    grid_s = np.arange(lo_s, hi_s + 1e-9, search.coarse_step)
    candidates = [(lu, ls) for lu in grid_u for ls in grid_s]

    best = None
    for lu, ls in candidates:
        value, fit = evaluate(lu, ls)
        if fit is None:
            continue
        cand = (value, 10.0**lu + 10.0**ls, key(lu, ls))
        if best is None or better(cand, best):
            best = cand
    if best is None:
        raise ConvergenceError("smoothing search exhausted without any convergent fit")

    # pattern search around the grid optimum, confined to the search ranges
    step = search.coarse_step / 2.0
    cur_lu, cur_ls = best[2]
    n_evals = len(cache)
    while step >= search.refine_resolution - 1e-12 and n_evals < search.max_evals:
        moved = False
        for dlu, dls in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            lu, ls = cur_lu + dlu, cur_ls + dls
            if not (lo_u - 1e-9 <= lu <= hi_u + 1e-9 and lo_s - 1e-9 <= ls <= hi_s + 1e-9):
                continue
            value, fit = evaluate(lu, ls)
            n_evals = len(cache)
            if fit is None:
                continue
            cand = (value, 10.0**lu + 10.0**ls, key(lu, ls))
            if better(cand, best):
                best = cand
                cur_lu, cur_ls = key(lu, ls)
                moved = True
        if not moved:
            step /= 2.0

    return cache[best[2]][1]
