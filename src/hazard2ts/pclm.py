"""Ungrouping of a coarse final age interval via a composite link model.

Observed counts on g coarse age rows are Poisson with means ``C_u @ Gamma``,
where Gamma is a latent smooth surface on the full n_u-row fine grid and C_u
sums the fine rows belonging to the final wide interval.  Gamma is
``exp(B theta)`` with a tensor-product spline basis and anisotropic
difference penalties.  This is the penalized Poisson likelihood of the
hazard fits with a row-composition matrix in front of the means, so theta
is estimated by the same damped Newton engine (``smooth2d._newton``, unit
exposure) and the smoothing parameters by AIC with the hazard fits' search
(``smooth2d._GridSearch``), over a ``SearchConfig`` whose resolution is its step.

Columns are never grouped (the composition along the second axis is the
identity), which keeps the problem in array form: observed rows that are a
single fine row go through the GLAM kernels, and each summed row adds one
rank-one information term per data column, without materializing the full
model matrix.  The fitting routines accept any 0/1 row-composition matrix
that puts every fine row in at most one observed row, not just the
canonical tail-grouping one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import glam
from .errors import DataError
from .smooth2d import FitControl, PenaltyConfig, SearchConfig, _GridSearch, _newton, _PoissonProblem


@dataclass(frozen=True)
class CompositionSpec:
    """Row grouping: the first g-1 observed rows are single fine rows, the
    g-th observed row is the sum of fine rows g..n_u."""

    g: int
    n_u: int

    def __post_init__(self):
        if not (2 <= self.g < self.n_u):
            raise ValueError(f"need 2 <= g < n_u, got g={self.g}, n_u={self.n_u}")


PHI_SEARCH = SearchConfig((-1.0, 2.0), (-1.0, 2.0), 0.5, 0.5)   # default: [-1, 2] by 0.5, unrefined


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
    n_iter: int
    candidates: list = field(default_factory=list)  # (log10_phi_u, log10_phi_s, aic) per search point


def _problem(Z, C_u, Bu: np.ndarray, Bs: np.ndarray) -> _PoissonProblem:
    """Validated composite link problem: grouped counts Z over the fine grid of Bu x Bs."""
    Z = np.asarray(Z, dtype=float)
    C_u = np.asarray(C_u, dtype=float)
    g, n_u = C_u.shape
    if Z.shape[0] != g:
        raise DataError(f"Z has {Z.shape[0]} rows but the composition matrix has {g}")
    if np.any(Z < 0) or not np.all(np.isfinite(Z)):
        raise DataError("grouped counts must be nonnegative and finite")
    if Z.sum() <= 0:
        raise DataError("all grouped counts are zero: nothing to ungroup")
    if Bu.shape[0] != n_u or Bs.shape[0] != Z.shape[1]:
        raise ValueError("basis rows must match the fine grid (Bu) and the data columns (Bs)")
    if not (np.all((C_u == 0) | (C_u == 1)) and np.all(C_u.sum(axis=1) >= 1)
            and np.all(C_u.sum(axis=0) <= 1)):
        raise ValueError("the composition matrix must be 0/1, with every observed row "
                         "summing one or more fine rows and no fine row in two")
    return _PoissonProblem(glam.ArrayModelWorkspace(Bu, Bs), Z, np.ones((n_u, Z.shape[1])), C_u)


def _fit(prob: _PoissonProblem, C_u, phis, d: int, ctrl: FitControl, start=None):
    """One fit as a search candidate: ``(aic, coefficients, PclmFit)``."""
    res = _newton(prob, PenaltyConfig(phis[0], phis[1], d), ctrl, start)
    fit = PclmFit(Gamma=res.full, Psi=np.maximum(np.asarray(C_u, dtype=float) @ res.full, 1e-300),
                  theta=res.alpha, phis=tuple(phis), deviance=res.deviance, ed=res.ed,
                  aic=res.deviance + 2.0 * res.ed, n_iter=res.n_iter)
    return fit.aic, fit.theta, fit


def fit_pclm(
    Z: np.ndarray,
    C_u: np.ndarray,
    Bu: np.ndarray,
    Bs: np.ndarray,
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
        0/1 row-composition matrix, each fine row in at most one observed
        row; ``np.eye(n_u)`` reduces the model to a plain penalized Poisson
        smooth of Z.
    Bu, Bs : ndarray
        Marginal bases at the fine row midpoints and at the column
        evaluation points (n_u and n_cols rows respectively).
    phis : tuple
        (log10 phi_u, log10 phi_s) smoothing parameters.
    """
    return _fit(_problem(Z, C_u, Bu, Bs), C_u, phis, d, ctrl)[2]


def select_pclm_smoothing(
    Z: np.ndarray,
    C_u: np.ndarray,
    Bu: np.ndarray,
    Bs: np.ndarray,
    d: int = 2,
    search: SearchConfig = PHI_SEARCH,
    ctrl: FitControl = FitControl(),
) -> PclmFit:
    """AIC search over (log10 phi_u, log10 phi_s), the ranges of ``search`` read as phi's.

    The search is the hazard search (``smooth2d._GridSearch.run``: warm starts, one cold
    retry, ties toward the larger phi_u + phi_s, pattern refinement down to
    ``refine_resolution``); the default, :data:`PHI_SEARCH`, is an exhaustive grid.
    ``fit.candidates`` lists (log10 phi_u, log10 phi_s, aic or inf).
    """
    prob = _problem(Z, C_u, Bu, Bs)
    grid = _GridSearch(lambda lpu, lps, start: _fit(prob, C_u, (float(lpu), float(lps)), d,
                                                    ctrl, start))
    best = grid.run(search).fit
    best.candidates = [row[:3] for row in grid.table]
    return best


def ungroup_events(
    Z: np.ndarray,
    spec: CompositionSpec,
    Bu: np.ndarray,
    Bs: np.ndarray,
    d: int = 2,
    search: SearchConfig = PHI_SEARCH,
    ctrl: FitControl = FitControl(),
):
    """Replace the grouped tail rows of a count matrix by fitted fine rows.

    Returns ``(Y_full, fit)`` where rows 0..g-2 of ``Y_full`` are the
    observed counts unchanged and rows g-1..n_u-1 come from the fitted fine
    means; the column sums of the replacement rows equal the fitted grouped
    tail row by construction.
    """
    C_u = composition_matrix(spec)
    fit = select_pclm_smoothing(Z, C_u, Bu, Bs, d=d, search=search, ctrl=ctrl)
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
