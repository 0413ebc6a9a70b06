"""Penalized Poisson fit of one cause-specific hazard surface.

The log-hazard on the bin grid is a tensor-product spline surface; event
counts are Poisson with mean ``exposure * exp(log_hazard)``.  Anisotropic
difference penalties on the coefficient matrix control smoothness along each
axis.  Smoothing parameters are chosen by AIC or BIC with a coarse grid
search followed by a pattern-search refinement on the log10 scale.

One damped Newton engine (``_newton`` on a ``_PoissonProblem``) fits every
penalized Poisson model of the package, through the array kernels in
:mod:`.glam`: the hazard surfaces here and, with a row-composition matrix in
front of the means, the composite link ungrouping in :mod:`.pclm`.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import glam
from .basis import KnotVector, difference_matrix, evaluate_basis
from .errors import ConvergenceError, DataError
from .lexis import BinnedData


@dataclass(frozen=True)
class PenaltyConfig:
    """Difference order and per-axis smoothing parameters (log10 scale).

    ``log10_rho = -inf`` switches the penalty off for that axis (rho = 0); above 308.25,
    ``10**log10_rho`` is no float.
    """

    log10_rho_u: float
    log10_rho_s: float
    d: int = 2

    def __post_init__(self):   # d is checked by difference_matrix, once rho > 0 uses it
        for val in (self.log10_rho_u, self.log10_rho_s):
            if not -math.inf <= val <= 308.25:
                raise ValueError(f"log10 rho must lie in [-inf, 308.25], got {val}")

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

    def __post_init__(self):
        tols = (self.dev_rel_tol, self.score_rel_tol)
        if not (self.max_iter >= 1 and all(0 < t < math.inf for t in tols)):
            raise ValueError(f"need max_iter >= 1 and finite positive tolerances, got {self}")


@dataclass
class FittedHazard:
    """One converged cause-specific hazard surface: everything that evaluates it, its standard
    errors and its extrapolation flags, and its fit diagnostics."""

    A: np.ndarray                 # c_u x c_s coefficient matrix
    penalty: PenaltyConfig
    kv_u: KnotVector
    kv_s: KnotVector
    grid: object                  # LexisGrid the fit was computed on
    deviance: float
    ed: float
    aic: float
    bic: float
    n_bin: int
    n_iter: int
    covariance: np.ndarray = field(repr=False)       # (B'WB + P)^-1 at convergence, symmetrized
    hull: tuple = field(repr=False)                  # convex hull of positive-exposure bins
    # select_smoothing: (log10 rho_u, log10 rho_s, criterion or inf, Newton steps, cold retry)
    candidates: list = field(default_factory=list, repr=False)

    @property
    def coef(self) -> np.ndarray:
        return self.A.flatten(order="F")

    @property
    def n_coef(self) -> int:
        return self.A.size


@functools.lru_cache(maxsize=8)
def _penalty_block(c_u: int, c_s: int, d: int, axis: str) -> np.ndarray:
    """Read-only ``kron(I, Du'Du)`` (axis "u") or ``kron(Ds'Ds, I)``, built once per shape."""
    D = difference_matrix(c_u if axis == "u" else c_s, d)
    block = np.kron(np.eye(c_s), D.T @ D) if axis == "u" else np.kron(D.T @ D, np.eye(c_u))
    block.flags.writeable = False
    return block


def penalty_matrix(c_u: int, c_s: int, penalty: PenaltyConfig) -> np.ndarray:
    """Assemble ``rho_u * kron(I, Du'Du) + rho_s * kron(Ds'Ds, I)``."""
    P = np.zeros((c_u * c_s, c_u * c_s))
    for rho, axis in ((penalty.rho_u, "u"), (penalty.rho_s, "s")):
        if rho > 0:
            P += rho * _penalty_block(c_u, c_s, penalty.d, axis)
    return P


def _support_hull(grid, mask: np.ndarray):
    """Convex hull of the positive-exposure bin midpoints, for extrapolation flags.

    Returns ("polygon", counterclockwise vertices) or, for degenerate point
    sets, ("box", (u_min, u_max, s_min, s_max)).
    """
    uu, ss = np.meshgrid(grid.u_mid, grid.s_mid, indexing="ij")
    pts = np.column_stack([uu[mask], ss[mask]])
    hull = _convex_hull(pts)
    if len(hull) >= 3:
        return "polygon", hull
    return "box", (pts[:, 0].min(), pts[:, 0].max(), pts[:, 1].min(), pts[:, 1].max())


def _convex_hull(pts: np.ndarray) -> np.ndarray:
    """Counterclockwise hull vertices of 2-D points from the lexicographically least (Andrew's
    monotone chain); a point within 1e-12 of the vertex scale of the line through its neighbours
    is dropped as collinear, and all-collinear points give fewer than 3 vertices."""
    uniq = [tuple(p) for p in np.unique(pts, axis=0)]   # sorted by u, then s
    tol = 1e-12 * max(np.abs(pts).max(initial=0.0), 1.0)

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
                                     <= tol * math.dist(p, out[-2])):
                out.pop()
            out.append(p)
        return out[:-1]

    return np.array(chain(uniq) + chain(uniq[::-1]), dtype=float).reshape(-1, 2)


def _ridge_retry(solve, M: np.ndarray):
    """``solve(M)``, retried once as ``solve(M + ridge I)`` with a trace-scaled ridge when it
    raises LinAlgError (a singular or, by round-off, indefinite penalized information)."""
    try:
        return solve(M)
    except np.linalg.LinAlgError:
        return solve(M + 1e-10 * np.trace(M) / M.shape[0] * np.eye(M.shape[0]))


def _inverse_spd(M: np.ndarray) -> np.ndarray:
    """``M^-1 = L^-T L^-1`` from the Cholesky factor ``L`` of a symmetric positive definite
    ``M``; LinAlgError where there is none."""
    L_inv = _lower_inverse(np.linalg.cholesky(M))
    return L_inv.T @ L_inv


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower triangular ``L`` by halves, ``[[A, 0], [C, D]]^-1 = [[A^-1, 0],
    [-D^-1 C A^-1, D^-1]]``: matrix products in place of a general LU of ``L``."""
    n = len(L)
    if n <= 48:
        return np.linalg.inv(L)
    k = n // 2
    A_inv, D_inv = _lower_inverse(L[:k, :k]), _lower_inverse(L[k:, k:])
    out = np.zeros_like(L)
    out[:k, :k], out[k:, k:] = A_inv, D_inv
    out[k:, :k] = -D_inv @ (L[k:, :k] @ A_inv)
    return out


def poisson_deviance(y: np.ndarray, mu: np.ndarray, mask: np.ndarray) -> float:
    """Poisson deviance over the masked bins, with 0*ln(0/mu) = 0."""
    y = y[mask]
    mu = mu[mask]
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(y > 0, y * np.log(np.where(y > 0, y / mu, 1.0)), 0.0)
    return float(2.0 * np.sum(term - (y - mu)))


class _PoissonProblem:
    """Poisson likelihood of counts whose means are sums of ``exposure * exp(B alpha)``.

    Row i of the 0/1 composition matrix ``C`` (observed rows x fine rows of
    ``ws``) marks the fine rows that observed count row i sums; ``None``
    observes every fine row on its own.  Rows that are one fine row enter
    through the GLAM kernels with the log-exposure offset, zero-exposure
    bins with weight zero.  Each summed row i contributes, per data column
    k, the rank-one information ``v v' / psi[i, k]`` with ``v = kron(Bs[k],
    C[i] (mu[:, k] * Bu))`` (Currie, Durban & Eilers 2006; Eilers 2007).
    """

    def __init__(self, ws: glam.ArrayModelWorkspace, counts, exposure, C=None):
        C = np.eye(ws.n_u) if C is None else C
        single = C.sum(axis=1) == 1
        self.ws = ws
        self.y = np.zeros((ws.n_u, ws.n_s))
        self.y[C[single].argmax(axis=1)] = counts[single]
        self.C, self.Z = C[~single], counts[~single]
        self.mask = (exposure > 0) & C[single].any(axis=0)[:, None]
        self.log_r = np.where(self.mask, np.log(np.where(self.mask, exposure, 1.0)), 0.0)
        # grouped counts spread evenly over their fine rows give the score scale and
        # the default start: ln((y0 + 0.5) / (exposure + 1)) by unpenalized least squares
        y0 = self.y + self.C.T @ (self.Z / self.C.sum(axis=1)[:, None])
        self.score_scale = max(np.max(np.abs(glam.weighted_rhs(ws, y0))), 1.0)
        G = glam.weighted_inner(ws, np.ones_like(y0))
        rhs = glam.weighted_rhs(ws, np.log((y0 + 0.5) / (exposure + 1.0)))
        ridge = 1e-8 * np.trace(G) / G.shape[0]
        self.start = np.linalg.solve(G + ridge * np.eye(G.shape[0]), rhs)

    def state(self, alpha: np.ndarray):
        """``(means on the fine grid, masked means, grouped means, deviance)`` at alpha."""
        A = alpha.reshape(self.ws.c_u, self.ws.c_s, order="F")
        full = np.exp(np.clip(glam.linear_predictor(self.ws, A) + self.log_r, -700, 700))
        mu = np.where(self.mask, full, 0.0)
        psi = np.maximum(self.C @ full, 1e-300)
        dev = (poisson_deviance(self.y, mu, self.mask)
               + poisson_deviance(self.Z, psi, np.ones(self.Z.shape, dtype=bool)))
        return full, mu, psi, dev

    def score(self, state) -> np.ndarray:
        """Log-likelihood gradient ``Q'((z - psi) / psi)`` at a :meth:`state`."""
        full, mu, psi, _ = state
        resid = np.where(self.mask, self.y - mu, 0.0) + full * (self.C.T @ (self.Z / psi - 1.0))
        return glam.weighted_rhs(self.ws, resid)

    def information(self, state) -> np.ndarray:
        """Fisher information ``Q' diag(1 / psi) Q`` at a :meth:`state`."""
        ws, (full, mu, psi, _) = self.ws, state
        info = glam.weighted_inner(ws, mu)
        if len(self.C):
            rows = (self.C[:, :, None] * full).transpose(0, 2, 1) @ ws.Bu  # (groups, n_s, c_u)
            V = (ws.Bs[None, :, :, None] * rows[:, :, None, :]).reshape(-1, ws.n_coef)
            # V' (V / psi) by a general product, symmetrized below; W'W with
            # W = V / sqrt(psi) would round differently and move every fit's last bits
            H = V.T @ (V / psi.reshape(-1, 1))
            info += 0.5 * (H + H.T)
        return info


# a converged fit: coefficients, means on the fine grid, deviance, steps, effective dimension
# tr{(information + P)^-1 information}, (information + P)^-1
_NewtonFit = namedtuple("_NewtonFit", "alpha full deviance n_iter ed inverse")


def _newton(prob: _PoissonProblem, penalty: PenaltyConfig, ctrl: FitControl,
            start=None) -> _NewtonFit:
    """Damped Newton (Fisher scoring) for the penalized Poisson likelihood.

    Steps are halved while the penalized deviance worsens.  Convergence needs
    a relative change of the penalized deviance below ``ctrl.dev_rel_tol`` and
    the penalized score below ``ctrl.score_rel_tol`` relative to ``|Q'y|_inf``
    (grouped counts spread evenly over their fine rows); one polishing step
    follows, kept only if it lowers the score.  Starts from ``start``, else
    from the problem's projection of ``ln((y + 0.5) / (exposure + 1))``.
    """
    c_u, c_s = prob.ws.c_u, prob.ws.c_s
    P = penalty_matrix(c_u, c_s, penalty)

    # factored penalty pieces: at strong smoothing the differences D @ A are
    # tiny while P's entries are huge, so P @ alpha loses precision to
    # cancellation; rho * D'(D A) keeps all intermediates small
    rho_u, rho_s = penalty.rho_u, penalty.rho_s
    Du = difference_matrix(c_u, penalty.d) if rho_u > 0 else None
    Ds = difference_matrix(c_s, penalty.d) if rho_s > 0 else None

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

    def evaluate(alpha):
        st = prob.state(alpha)
        return st, st[3] + pen_value(alpha.reshape(c_u, c_s, order="F"))

    def score_of(alpha, st):
        return prob.score(st) - pen_grad(alpha.reshape(c_u, c_s, order="F"))

    alpha = prob.start if start is None else start
    st, pen_dev = evaluate(alpha)
    score = score_of(alpha, st)
    score_rel = np.max(np.abs(score)) / prob.score_scale
    converged = False
    it = 0
    while converged or it < ctrl.max_iter:
        gram = prob.information(st)
        step = _ridge_retry(lambda M: np.linalg.solve(M, score), gram + P)
        if converged:
            break
        it += 1

        # damped Newton: halve the step while the penalized deviance worsens
        new_alpha = alpha + step
        new_st, new_pen_dev = evaluate(new_alpha)
        n_halved = 0
        while new_pen_dev > pen_dev + 1e-10 * (1 + abs(pen_dev)) and n_halved < 10:
            step *= 0.5
            new_alpha = alpha + step
            new_st, new_pen_dev = evaluate(new_alpha)
            n_halved += 1

        rel_change = abs(new_pen_dev - pen_dev) / (1.0 + abs(new_pen_dev))
        alpha, st, pen_dev = new_alpha, new_st, new_pen_dev
        score = score_of(alpha, st)
        score_rel = np.max(np.abs(score)) / prob.score_scale
        converged = rel_change < ctrl.dev_rel_tol and score_rel < ctrl.score_rel_tol

    if not converged:
        raise ConvergenceError(
            f"IWLS did not converge in {it} iterations "
            f"(relative score {score_rel:.3e}, tolerance {ctrl.score_rel_tol:.1e})",
            last_coef=alpha.reshape(c_u, c_s, order="F"), score_norm=score_rel, n_iter=it)

    # one polishing step: quadratic convergence leaves wide margin under the
    # score tolerance; kept only if it actually improves
    polish = alpha + step
    p_st, p_pen_dev = evaluate(polish)
    p_score_rel = np.max(np.abs(score_of(polish, p_st))) / prob.score_scale
    if p_score_rel < score_rel and np.isfinite(p_pen_dev):
        alpha, st = polish, p_st
        gram = prob.information(st)
    inverse = _ridge_retry(_inverse_spd, gram + P)
    # tr{(G + P)^-1 G} from the symmetric inverse, clamped to [0, n_coef]
    ed = min(max(float(np.sum(inverse * gram)), 0.0), float(gram.shape[0]))
    return _NewtonFit(alpha, st[0], st[3], it, ed, inverse)


_HazardSetup = namedtuple("_HazardSetup", "prob n_bin hull")


def _prepare(data: BinnedData, cause: int, kv_u: KnotVector, kv_s: KnotVector) -> _HazardSetup:
    """Check one cause's binned data and build what every fit of it shares: the Poisson
    problem (workspace, default start, score scale), the bin count and the support hull."""
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
    ws = glam.ArrayModelWorkspace(evaluate_basis(data.grid.u_mid, kv_u),
                                  evaluate_basis(data.grid.s_mid, kv_s))
    return _HazardSetup(_PoissonProblem(ws, y, r), int(mask.sum()), _support_hull(data.grid, mask))


def fit_hazard(data: BinnedData, cause: int, kv_u: KnotVector, kv_s: KnotVector,
               penalty: PenaltyConfig, ctrl: FitControl = FitControl(), *,
               _setup: _HazardSetup = None, _start: np.ndarray = None) -> FittedHazard:
    """Fit one cause-specific hazard surface at fixed smoothing parameters.

    Zero-exposure bins stay in the array but carry weight zero and do not
    enter the deviance.  The fit is the damped Newton iteration of
    :func:`_newton`; it raises :class:`ConvergenceError` if that does not
    converge within ``ctrl.max_iter`` steps.  :func:`select_smoothing` passes
    ``_prepare(data, cause, kv_u, kv_s)`` as ``_setup`` and a warm start.
    """
    setup = _prepare(data, cause, kv_u, kv_s) if _setup is None else _setup
    ws = setup.prob.ws
    res = _newton(setup.prob, penalty, ctrl, _start)
    return FittedHazard(
        A=res.alpha.reshape(ws.c_u, ws.c_s, order="F"), penalty=penalty, kv_u=kv_u, kv_s=kv_s,
        grid=data.grid, deviance=res.deviance, ed=res.ed, aic=res.deviance + 2.0 * res.ed,
        bic=res.deviance + math.log(setup.n_bin) * res.ed, n_bin=setup.n_bin, n_iter=res.n_iter,
        covariance=0.5 * (res.inverse + res.inverse.T), hull=setup.hull,
    )


def information_criteria(fit: FittedHazard):
    """AIC and BIC from deviance, effective dimension, and the bin count."""
    return (float(fit.deviance + 2.0 * fit.ed),
            float(fit.deviance + math.log(fit.n_bin) * fit.ed))


@dataclass(frozen=True)
class SearchConfig:
    """Two-stage smoothing search: coarse log10 grid, then pattern refinement."""

    log10_rho_u_range: tuple = (-2.0, 7.0)
    log10_rho_s_range: tuple = (-2.0, 7.0)
    coarse_step: float = 1.0
    refine_resolution: float = 0.1
    max_evals: int = 400

    def __post_init__(self):
        # a zero or infinite step would never finish refining (or divide by zero), nor would
        # a resolution below the 6 decimals candidates are told apart by; np.arange enumerates
        # finite ranges only, so rho = 0 is the one infinite range (-inf, -inf)
        (lo_u, hi_u), (lo_s, hi_s) = self.log10_rho_u_range, self.log10_rho_s_range
        PenaltyConfig(hi_u, hi_s)   # the largest rho of the search is a float
        if not (0 < self.coarse_step < math.inf and 1e-6 <= self.refine_resolution < math.inf
                and all(math.isfinite(lo) and lo <= hi or lo == hi == -math.inf
                        for lo, hi in ((lo_u, hi_u), (lo_s, hi_s)))):
            raise ValueError("need a finite positive coarse_step, a finite refine_resolution of at "
                             f"least 1e-6 and log10 ranges (lo, hi) with lo <= hi, got {self}")
        # len(axis) of each of self.axes(), without building it
        n_coarse = math.prod(math.ceil((hi + 1e-9 - lo) / self.coarse_step) if lo > -math.inf
                             else 1 for lo, hi in ((lo_u, hi_u), (lo_s, hi_s)))
        if n_coarse > self.max_evals:
            raise ValueError(f"the coarse grid has {n_coarse} candidates, more than max_evals "
                             f"({self.max_evals}), got {self}")

    def axes(self) -> tuple:
        """Per axis the coarse log10 values, ``np.arange(lo, hi + 1e-9, coarse_step)`` or -inf."""
        return tuple(np.arange(lo, hi + 1e-9, self.coarse_step) if lo > -math.inf else
                     np.array([lo]) for lo, hi in (self.log10_rho_u_range, self.log10_rho_s_range))

    def refine_steps(self) -> list:
        """The steps of the pattern search in turn: ``coarse_step`` halved while the half is at
        least ``refine_resolution``."""
        steps = [self.coarse_step / 2.0]
        while steps[-1] >= self.refine_resolution - 1e-12:
            steps.append(steps[-1] / 2.0)
        return steps[:-1]

    def ends(self) -> tuple:
        """Per axis the (lowest, highest) log10 value the search can reach: the first coarse
        value, and the top inside the range of the lattice of the finest refinement step."""
        step = (self.refine_steps() or [self.coarse_step])[-1]
        return tuple((axis[0], axis[-1] + step * math.floor((hi + 1e-9 - axis[-1]) / step)
                      if axis[-1] > -math.inf else axis[-1])
                     for axis, (_, hi) in zip(self.axes(), (self.log10_rho_u_range,
                                                           self.log10_rho_s_range)))


_Best = namedtuple("_Best", "value tie key coef fit")   # tie = -(a + b): smaller wins


class _GridSearch:
    """The smoothing search of both smoothers over candidates (log10 a, log10 b).

    ``fit_one(la, lb, start)`` fits a candidate from coefficients ``start`` (None: cold) and
    returns ``(criterion, coefficients, fit with n_iter)`` or raises ConvergenceError.  A key
    (6 digits) is fitted once, a failed warm start refitted once cold.  ``best`` has the least
    criterion, ties to the larger a + b.  ``table`` rows, in the order tried: (log10 a,
    log10 b, criterion or inf, Newton steps, cold retry)."""

    def __init__(self, fit_one):
        self._fit_one, self._cache, self.table, self.best = fit_one, {}, [], None

    def evaluate(self, la, lb, start):
        """Fit one candidate (once), keeping it if it beats the best; its coefficients or None."""
        k = (round(la, 6), round(lb, 6))
        if k not in self._cache:
            value, coef, fit, steps = np.inf, None, None, 0
            for attempt in (start, None) if start is not None else (None,):
                try:
                    value, coef, fit = self._fit_one(la, lb, attempt)
                    steps += fit.n_iter
                    break
                except ConvergenceError as exc:
                    steps += exc.n_iter
            self.table.append((float(la), float(lb), value, steps,
                               start is not None and attempt is None))
            self._cache[k] = coef
            cand = _Best(value, -(10.0**la + 10.0**lb), k, coef, fit)
            if fit is not None and (self.best is None or cand[:2] < self.best[:2]):
                self.best = cand
        return self._cache[k]

    def run(self, search: SearchConfig) -> _Best:
        """Fit ``search.axes()`` row by row, each candidate from the last converged one of its row
        (failures do not reset it), each row from the first converged fit of the row before; then
        pattern-search from the best (axis moves in the ranges, on to the next of
        ``search.refine_steps()`` when none improves) while under ``max_evals`` were fitted."""
        rows, cols = search.axes()
        row_start = None
        for la in rows:
            done = []                 # converged coefficients of this row
            for lb in cols:
                coef = self.evaluate(la, lb, done[-1] if done else row_start)
                done += [] if coef is None else [coef]
            row_start = done[0] if done else None
        if self.best is None:
            raise ConvergenceError("smoothing search exhausted without any convergent fit")

        (lo_a, hi_a), (lo_b, hi_b) = search.log10_rho_u_range, search.log10_rho_s_range
        for step in search.refine_steps():
            while len(self.table) < search.max_evals:
                origin = self.best.key
                for da, db in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
                    la, lb = self.best.key[0] + da, self.best.key[1] + db
                    if lo_a - 1e-9 <= la <= hi_a + 1e-9 and lo_b - 1e-9 <= lb <= hi_b + 1e-9:
                        self.evaluate(la, lb, self.best.coef)
                if self.best.key == origin:   # no move improved: refine the step
                    break
        return self.best


def check_criterion(criterion: str) -> str:
    """``criterion`` in upper case; ValueError unless it names AIC or BIC."""
    if criterion.upper() not in ("AIC", "BIC"):
        raise ValueError(f"criterion must be AIC or BIC, got {criterion!r}")
    return criterion.upper()


def select_smoothing(data: BinnedData, cause: int, kv_u: KnotVector, kv_s: KnotVector,
                     d: int = 2, criterion: str = "BIC", search: SearchConfig = SearchConfig(),
                     ctrl: FitControl = FitControl()) -> FittedHazard:
    """Pick (rho_u, rho_s) minimizing AIC or BIC and return the winning fit.

    The search is :meth:`_GridSearch.run` over ``search``: the coarse log10 grid (warm starts,
    one cold retry, ties toward the larger rho_u + rho_s), then pattern refinement down to
    ``refine_resolution``.  Candidates share one prepared problem; ``candidates`` lists them.
    """
    criterion = check_criterion(criterion)
    setup = _prepare(data, cause, kv_u, kv_s)

    def fit_one(lu, ls, start):
        fit = fit_hazard(data, cause, kv_u, kv_s, PenaltyConfig(lu, ls, d), ctrl,
                         _setup=setup, _start=start)
        return (fit.aic if criterion == "AIC" else fit.bic), fit.coef, fit

    grid = _GridSearch(fit_one)
    best = grid.run(search).fit
    best.candidates = grid.table
    return best
