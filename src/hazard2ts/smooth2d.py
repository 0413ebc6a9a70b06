"""Penalized Poisson fit of one cause-specific hazard surface.

The log-hazard on the bin grid is a tensor-product spline surface; event
counts are Poisson with mean ``exposure * exp(log_hazard)``.  Anisotropic
difference penalties on the coefficient matrix control smoothness along each
axis.  Smoothing parameters are chosen by AIC or BIC: a coarse log10 grid,
pattern moves from its best candidate, then a box-constrained quasi-Newton
descent driven by the exact gradient of the criterion (Wood 2008).

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
    # select_smoothing: per axis whether log10 rho sits at an end of its search range with the
    # criterion falling out of the range there (rho = 0 always)
    on_edge: tuple = field(default=(False, False), repr=False)

    @property
    def coef(self) -> np.ndarray:
        return self.A.flatten(order="F")

    @property
    def n_coef(self) -> int:
        return self.A.size


@functools.lru_cache(maxsize=16)
def _difference(c: int, d: int) -> np.ndarray:
    """Read-only ``difference_matrix(c, d)``, built once per shape."""
    D = difference_matrix(c, d)
    D.flags.writeable = False
    return D


@functools.lru_cache(maxsize=8)
def _penalty_block(c_u: int, c_s: int, d: int, axis: str) -> np.ndarray:
    """Read-only ``kron(I, Du'Du)`` (axis "u") or ``kron(Ds'Ds, I)``, built once per shape."""
    D = _difference(c_u if axis == "u" else c_s, d)
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


def _penalty_terms(A: np.ndarray, penalty: PenaltyConfig) -> list:
    """Per penalized axis (u, then s) ``(axis index, rho, rho ||D A||^2, rho D'(D A))``, the
    last flattened, for the differences ``D A`` of ``A`` along the axis: at strong smoothing
    they are tiny while :func:`penalty_matrix` is huge, so ``P @ alpha`` would lose them to
    cancellation."""
    out = []
    for i, rho in enumerate((penalty.rho_u, penalty.rho_s)):
        if rho > 0:
            D = _difference(A.shape[i], penalty.d)
            DA = D @ A if i == 0 else A @ D.T
            out.append((i, rho, rho * float(np.sum(DA ** 2)),
                        rho * (D.T @ DA if i == 0 else DA @ D).flatten(order="F")))
    return out


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
        self._undetermined = {}          # undetermined(): per (rho_u > 0, rho_s > 0, d)

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

    def summed_rows(self, weights: np.ndarray) -> np.ndarray:
        """``V``, one row per summed row i and data column k (i major):
        ``kron(Bs[k], C[i] (weights[:, k] * Bu))``; at ``weights`` = the fine-grid means these are
        the rows of ``Q``, whose sums are ``psi``."""
        ws = self.ws
        rows = (self.C[:, :, None] * weights).transpose(0, 2, 1) @ ws.Bu  # (groups, n_s, c_u)
        return (ws.Bs[None, :, :, None] * rows[:, :, None, :]).reshape(-1, ws.n_coef)

    def information(self, state) -> np.ndarray:
        """Fisher information ``Q' diag(1 / psi) Q`` at a :meth:`state`."""
        ws, (full, mu, psi, _) = self.ws, state
        info = glam.weighted_inner(ws, mu)
        if len(self.C):
            V = self.summed_rows(full)
            # V' (V / psi) by a general product, symmetrized below; W'W with
            # W = V / sqrt(psi) would round differently and move every fit's last bits
            H = V.T @ (V / psi.reshape(-1, 1))
            info += 0.5 * (H + H.T)
        return info

    def observed_information(self, state) -> np.ndarray:
        """The negative log-likelihood Hessian at a :meth:`state`: the :meth:`information`
        itself without summed rows, else ``B' diag(mu) B + V' diag(z / psi^2) V - B' diag(gamma *
        C'(z / psi - 1)) B``.  The summed rows' Fisher weight ``1 / psi`` becomes ``z / psi^2``,
        and their rows ``V`` bend with the fine means ``gamma``; the first and last terms live
        on disjoint fine rows and take one :func:`glam.weighted_inner`."""
        if not len(self.C):
            return self.information(state)
        full, mu, psi, _ = state
        bend = full * (self.C.T @ (self.Z / psi - 1.0))
        V = self.summed_rows(full)
        H = V.T @ (V * (self.Z / psi**2).reshape(-1, 1))
        return glam.weighted_inner(self.ws, mu - bend, signed=True) + 0.5 * (H + H.T)

    def undetermined(self, penalty: PenaltyConfig) -> int:
        """How many coefficients neither the data nor the penalty determine (Eilers & Marx 1996):
        the eigenvalues at most 1e-10 of the largest of the :meth:`information` at unit means plus
        each penalized axis's block at rho = 1, found once per (rho_u > 0, rho_s > 0, d)."""
        key = (penalty.rho_u > 0, penalty.rho_s > 0, penalty.d)
        if key not in self._undetermined:
            M = self.information((np.ones_like(self.y), self.mask.astype(float),
                                  np.ones_like(self.Z), None))
            M += sum(_penalty_block(self.ws.c_u, self.ws.c_s, penalty.d, axis)
                     for axis, on in zip("us", key) if on)
            eig = np.linalg.eigvalsh(M)
            self._undetermined[key] = int(np.sum(eig <= 1e-10 * eig[-1]))
        return self._undetermined[key]


# a converged fit: coefficients, means on the fine grid, deviance, steps, effective dimension
# tr{(information + P)^-1 information}, (information + P)^-1
_NewtonFit = namedtuple("_NewtonFit", "alpha full deviance n_iter ed inverse")


def _newton(prob: _PoissonProblem, penalty: PenaltyConfig, ctrl: FitControl,
            start=None) -> _NewtonFit:
    """Damped Newton for the penalized Poisson likelihood.

    Each step solves with the :meth:`~_PoissonProblem.observed_information` plus the penalty,
    or with the Fisher information plus the penalty (Fisher scoring) where the former has no
    Cholesky factor or its full step raises the penalized deviance; the two differ only where
    rows are summed.  The effective dimension and the returned inverse are those of the Fisher
    information.

    Steps are halved while the penalized deviance worsens, 10 times at most; a step that still
    raises it ends the fit as a ConvergenceError with the last iterate.  Convergence needs a
    relative change of the penalized deviance below ``ctrl.dev_rel_tol`` and the penalized score
    below ``ctrl.score_rel_tol`` relative to ``|Q'y|_inf`` (grouped counts spread evenly over
    their fine rows); one polishing step follows, kept only if it lowers the score.  Starts from
    ``start``, else from the problem's projection of ``ln((y + 0.5) / (exposure + 1))``.
    """
    c_u, c_s = prob.ws.c_u, prob.ws.c_s
    P = penalty_matrix(c_u, c_s, penalty)
    if n_free := prob.undetermined(penalty):
        raise DataError(f"{n_free} of {c_u * c_s} coefficients are determined by neither the data "
                        "nor the penalty: penalize that axis or fit a grid the data cover")

    def evaluate(alpha):
        st = prob.state(alpha)
        terms = _penalty_terms(alpha.reshape(c_u, c_s, order="F"), penalty)
        return st, st[3] + sum(value for _, _, value, _ in terms)

    def score_of(alpha, st):
        terms = _penalty_terms(alpha.reshape(c_u, c_s, order="F"), penalty)
        return prob.score(st) - sum((grad for *_, grad in terms), np.zeros(c_u * c_s))

    def linalg(fn, *args):      # a LinAlgError ends the fit as a ConvergenceError
        try:
            return fn(*args)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"IWLS: {exc} after {it} iterations", n_iter=it) from None

    def fisher_step(st, score):
        gram = prob.information(st)
        return np.linalg.solve(gram + P, score), gram

    def newton_step(st, score):
        """The observed-information step where ``O + P`` has a Cholesky factor, with None for
        the Fisher information it did not form; else the Fisher step and that information."""
        if len(prob.C):
            observed = prob.observed_information(st) + P
            try:
                np.linalg.cholesky(observed)
                return np.linalg.solve(observed, score), None
            except np.linalg.LinAlgError:
                pass
        return fisher_step(st, score)

    alpha = prob.start if start is None else start
    st, pen_dev = evaluate(alpha)
    score = score_of(alpha, st)
    score_rel = np.max(np.abs(score)) / prob.score_scale
    converged, it = False, 0
    while converged or it < ctrl.max_iter:
        step, gram = linalg(newton_step, st, score)
        if converged:
            break
        it += 1

        # an observed-information step that raises the penalized deviance (far from the
        # optimum its curvature can be near zero) gives way to the Fisher step; then damped
        # Newton: halve the step while the penalized deviance worsens
        worse = pen_dev + 1e-10 * (1 + abs(pen_dev))     # a new deviance above this is worse
        new_alpha = alpha + step
        if gram is None:
            with np.errstate(over="ignore"):
                new_st, new_pen_dev = evaluate(new_alpha)
            if not new_pen_dev <= worse:
                step, gram = linalg(fisher_step, st, score)
                new_alpha = alpha + step
                new_st, new_pen_dev = evaluate(new_alpha)
        else:
            new_st, new_pen_dev = evaluate(new_alpha)
        n_halved = 0
        while new_pen_dev > worse and n_halved < 10:
            step *= 0.5
            new_alpha = alpha + step
            new_st, new_pen_dev = evaluate(new_alpha)
            n_halved += 1
        if not new_pen_dev <= worse:
            raise ConvergenceError(f"IWLS: step {it} still raises the penalized deviance after "
                                   f"{n_halved} halvings ({new_pen_dev:.6g} > {pen_dev:.6g})",
                                   last_coef=alpha.reshape(c_u, c_s, order="F"),
                                   score_norm=score_rel, n_iter=it)

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
        alpha, st, gram = polish, p_st, None
    if gram is None:
        gram = prob.information(st)
    inverse = linalg(_inverse_spd, gram + P)
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
    :func:`_newton`: DataError where coefficients are undetermined, ConvergenceError
    where it does not converge in ``ctrl.max_iter`` steps.  :func:`select_smoothing` passes
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


@dataclass(frozen=True)
class SearchConfig:
    """Smoothing search over log10 ranges: a coarse grid, and for the hazards pattern moves of
    ``coarse_step`` / 2, / 4 and / 8 from its best candidate and a box quasi-Newton from theirs.

    A range is ``(lo, hi)`` with finite ``lo <= hi``, or ``(-inf, -inf)`` for rho = 0.
    ``max_evals`` caps the fits of a search, the coarse grid included.
    """

    log10_rho_u_range: tuple = (-2.0, 7.0)
    log10_rho_s_range: tuple = (-2.0, 7.0)
    coarse_step: float = 3.0
    max_evals: int = 400

    def __post_init__(self):
        # a zero or infinite step enumerates no grid; np.arange enumerates finite ranges only,
        # so rho = 0 is the one infinite range (-inf, -inf)
        (lo_u, hi_u), (lo_s, hi_s) = self.log10_rho_u_range, self.log10_rho_s_range
        PenaltyConfig(hi_u, hi_s)   # the largest rho of the search is a float
        if not (0 < self.coarse_step < math.inf
                and all(math.isfinite(lo) and lo <= hi or lo == hi == -math.inf
                        for lo, hi in ((lo_u, hi_u), (lo_s, hi_s)))):
            raise ValueError("need a finite positive coarse_step and log10 ranges (lo, hi) with "
                             f"lo <= hi, got {self}")
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

    def bounds(self) -> tuple:
        """``(lo, hi)``: the arrays of each axis's range ends."""
        return tuple(np.array(ends, dtype=float) for ends in zip(self.log10_rho_u_range,
                                                                 self.log10_rho_s_range))


# a fitted candidate: criterion (inf: failed), tie = -(a + b) (smaller wins), key (6 digits),
# coefficients and fit (None: failed), and its (log10 a, log10 b)
_Candidate = namedtuple("_Candidate", "value tie key coef fit point")


class _GridSearch:
    """The smoothing search of both smoothers over candidates (log10 a, log10 b).

    ``fit_one(la, lb, start)`` fits a candidate from coefficients ``start`` (None: cold) and
    returns ``(criterion, coefficients, fit with n_iter)`` or raises ConvergenceError.  A key
    (6 digits) is fitted once, a failed warm start refitted once cold.  ``best`` has the least
    criterion, ties to the larger a + b.  ``table`` rows, in the order tried: (log10 a,
    log10 b, criterion or inf, Newton steps, cold retry)."""

    def __init__(self, fit_one):
        self._fit_one, self._cache, self.table, self.best = fit_one, {}, [], None

    def evaluate(self, la, lb, start) -> _Candidate:
        """Fit one candidate (once), keeping it if it beats the best."""
        la, lb = float(la), float(lb)   # numpy's round of a float64 can differ in the 6th digit
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
            self.table.append((la, lb, value, steps, start is not None and attempt is None))
            cand = _Candidate(value, -(10.0**la + 10.0**lb), k, coef, fit, (la, lb))
            self._cache[k] = cand
            if fit is not None and (self.best is None or cand[:2] < self.best[:2]):
                self.best = cand
        return self._cache[k]

    def run(self, search: SearchConfig) -> _Candidate:
        """Fit ``search.axes()`` row by row, each candidate from the last converged one of its row
        (failures do not reset it), each row from the first converged fit of the row before."""
        rows, cols = search.axes()
        row_start = None
        for la in rows:
            done = []                 # converged coefficients of this row
            for lb in cols:
                coef = self.evaluate(la, lb, done[-1] if done else row_start).coef
                done += [] if coef is None else [coef]
            row_start = done[0] if done else None
        if self.best is None:
            raise ConvergenceError("smoothing search exhausted without any convergent fit")
        return self.best

    def pattern(self, search: SearchConfig) -> None:
        """Pattern moves from the best (Hooke & Jeeves 1961): the four axis moves of one step
        inside the ranges, each from the best coefficients, repeated while one improves, then
        the same at the next step, ``coarse_step`` / 2, / 4 and / 8 in turn, while under
        ``max_evals`` were fitted."""
        (lo_a, hi_a), (lo_b, hi_b) = search.log10_rho_u_range, search.log10_rho_s_range
        for step in (search.coarse_step / 2.0, search.coarse_step / 4.0, search.coarse_step / 8.0):
            while len(self.table) < search.max_evals:
                origin = self.best.key
                for da, db in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
                    la, lb = self.best.key[0] + da, self.best.key[1] + db
                    if lo_a - 1e-9 <= la <= hi_a + 1e-9 and lo_b - 1e-9 <= lb <= hi_b + 1e-9:
                        self.evaluate(la, lb, self.best.coef)
                if self.best.key == origin:   # no move improved: the next step
                    break

    def select(self, search: SearchConfig, gradient) -> tuple:
        """The whole search: :meth:`run`, :meth:`pattern`, then :func:`_quasi_newton` driven by
        ``gradient``.  Returns per axis whether ``best`` sits at a range end that the criterion
        falls out of (:func:`_falls_out`)."""
        self.run(search)
        self.pattern(search)
        slope = _quasi_newton(self, search, gradient)
        return tuple(bool(v) for v in _falls_out(np.array(self.best.point), slope,
                                                  *search.bounds()))


def _falls_out(point, slope, lo, hi) -> np.ndarray:
    """Per axis whether ``point`` sits at an end of its range ``[lo, hi]`` (within 1e-6, the
    resolution of a candidate key) with the criterion's ``slope`` falling out of the range there;
    a rho = 0 axis always."""
    return (lo == -np.inf) | (point <= lo + 1e-6) & (slope > 0) | (point >= hi - 1e-6) & (slope < 0)


def _wolfe_search(phi, f0: float, d0: float, a_max: float, a_tol: float, budget) -> None:
    """Strong Wolfe line search along a descent direction (Nocedal & Wright, Alg. 3.5 and 3.6,
    with c1 = 1e-4 and c2 = 0.9): from the step 1 (at most ``a_max``), doubling the step while
    the criterion still falls steeply, then zooming by a safeguarded quadratic, or by halving
    next to a failed trial.  ``phi(a)`` fits the step ``a`` and returns ``(value or inf, slope)``
    with ``slope()`` the derivative along the direction; ``f0`` and ``d0 < 0`` are those at
    ``a = 0``.  It stops once a step meets both conditions, when the zoom bracket is under
    ``a_tol`` wide or while ``budget()`` is false; the trials themselves are the result."""
    c1, c2 = 1e-4, 0.9

    def zoom(a_lo, f_lo, d_lo, a_hi, f_hi):
        while budget() and abs(a_hi - a_lo) >= a_tol:
            width, t = a_hi - a_lo, 0.5
            curv = f_hi - f_lo - d_lo * width        # of the quadratic through the ends
            if np.isfinite(f_hi) and curv > 0:
                t = min(max(-d_lo * width / (2.0 * curv), 0.1), 0.9)
            a = a_lo + t * width
            f, slope = phi(a)
            if not f <= f0 + c1 * a * d0 or f >= f_lo:
                a_hi, f_hi = a, f
                continue
            d = slope()
            if abs(d) <= -c2 * d0:
                return
            if d * (a_hi - a_lo) >= 0:
                a_hi, f_hi = a_lo, f_lo
            a_lo, f_lo, d_lo = a, f, d

    a_prev, f_prev, d_prev, a = 0.0, f0, d0, min(1.0, a_max)
    while budget():
        f, slope = phi(a)
        if not f <= f0 + c1 * a * d0 or (a_prev > 0 and f >= f_prev):
            return zoom(a_prev, f_prev, d_prev, a, f)
        d = slope()
        if abs(d) <= -c2 * d0 or a >= a_max:
            return
        if d >= 0:
            return zoom(a, f, d, a_prev, f_prev)
        a_prev, f_prev, d_prev, a = a, f, d, min(2.0 * a, a_max)


def _quasi_newton(grid: _GridSearch, search: SearchConfig, gradient) -> np.ndarray:
    """Projected BFGS in (log10 a, log10 b) on the box of ``search``'s ranges, from
    ``grid.best``; returns the criterion gradient at the final best.

    ``gradient(fit)`` is the criterion's derivative along both axes at a converged fit.  An axis
    whose range is one value, or whose point sits at an end the criterion falls out of, is held;
    so is one the step would leave the box by.  Each step is a :func:`_wolfe_search` to the
    box's edge at most, its first step half the coarse step; every trial goes through
    ``grid.evaluate``, warm-started from the best coefficients, and a failed one counts as
    ``inf``.  The search goes on from the best fit and stops when the projected gradient is
    below 1e-8 of the criterion, when a step moves under 1e-6, or at ``max_evals`` fits.
    """
    lo, hi = search.bounds()
    slopes = {}

    def slope(cand):
        if cand.key not in slopes:
            slopes[cand.key] = gradient(cand.fit)
        return slopes[cand.key]

    def budget():
        return len(grid.table) < search.max_evals

    B, scaled = None, False                   # BFGS Hessian approximation on both axes
    while budget():
        cur = grid.best
        x, g = np.array(cur.point), slope(cur)
        held = (lo == hi) | _falls_out(x, g, lo, hi)
        for _ in range(2):                    # a second pass once an axis would leave the box
            free = ~held
            if not free.any() or np.max(np.abs(g[free])) <= 1e-8 * max(1.0, abs(cur.value)):
                return g
            if B is None:
                B = np.eye(2) * (2.0 * np.max(np.abs(g[free])) / search.coarse_step)
            p = np.zeros(2)
            p[free] = -np.linalg.solve(B[np.ix_(free, free)], g[free])
            leaving = free & ((x <= lo + 1e-6) & (p < 0) | (x >= hi - 1e-6) & (p > 0))
            if not leaving.any():
                break
            held |= leaving
        else:
            return g

        def phi(a):
            pt = np.where(free, np.clip(x + a * p, lo, hi), x)
            pt = np.where(free & (pt >= hi - 1e-6), hi, np.where(free & (pt <= lo + 1e-6), lo, pt))
            cand = grid.evaluate(pt[0], pt[1], grid.best.coef)
            return cand.value, lambda: float(slope(cand) @ p)

        a_max = min(((hi[i] if p[i] > 0 else lo[i]) - x[i]) / p[i] for i in np.flatnonzero(p))
        _wolfe_search(phi, cur.value, float(g @ p), a_max, 1e-6 / np.max(np.abs(p)), budget)

        nxt, s = grid.best, np.zeros(2)
        s[free] = np.array(nxt.point)[free] - x[free]
        if np.max(np.abs(s)) < 1e-6:
            return slope(nxt)
        y = np.where(free, slope(nxt) - g, 0.0)
        if s @ y > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            if not scaled:                    # the first pair scales the start (N&W 6.20)
                B, scaled = np.eye(2) * (y @ y) / (s @ y), True
            Bs = B @ s
            B = B - np.outer(Bs, Bs) / (s @ Bs) + np.outer(y, y) / (s @ y)
    return slope(grid.best)


def _criterion_gradient(prob: _PoissonProblem, pen: PenaltyConfig, alpha: np.ndarray,
                        H_inv: np.ndarray, weight: float) -> np.ndarray:
    """The derivative of ``deviance + weight * ED`` along (log10 rho_u, log10 rho_s) at a
    converged fit of ``prob`` with coefficients ``alpha`` and ``H_inv = (F + P)^-1``, F the
    Fisher information; 0 along an axis with rho = 0 (Wood 2008).

    With ``H = F + P``, ``P_j = rho_j ln(10) S_j`` for the axis's penalty block ``S_j`` and
    ``M = H^-1 P H^-1``: ``da_j = -(O + P)^-1 P_j a`` with O the observed information,
    ``dDev_j = -2 (P a)' da_j`` and ``dED_j = tr(dF_j M) - tr(P_j H^-1 F H^-1)``, where
    ``H^-1 F H^-1 = H^-1 - M``, so F itself is not needed.  Rows that are one fine row give
    ``tr(dF_j M) = sum(mu * (B da_j) * diag(B M B'))``; each summed row r adds
    ``2 (V M dV')_rr / psi_r - (V M V')_rr dpsi_r / psi_r^2``, with ``dV`` the rows ``V`` of
    :meth:`_PoissonProblem.summed_rows` at the means times ``B da_j`` and ``dpsi = V da_j``.
    Without summed rows O is F and ``(O + P)^-1`` is ``H_inv``.  ``P_j a / ln(10)`` is the
    factored ``rho_j D'(D A)`` of :func:`_penalty_terms`, as in :func:`_newton`'s score.
    """
    ws = prob.ws
    ln10 = math.log(10.0)
    terms = _penalty_terms(alpha.reshape(ws.c_u, ws.c_s, order="F"), pen)   # rho_j S_j a
    grad = np.zeros(2)
    if not terms:
        return grad
    Pa = sum(P_a for *_, P_a in terms)
    P = penalty_matrix(ws.c_u, ws.c_s, pen)
    M = H_inv @ P @ H_inv
    leverage = glam.quadratic_diagonal(ws, M)
    rest = H_inv - M                          # H^-1 F H^-1
    st = prob.state(alpha)
    full, mu, psi, _ = st
    if len(prob.C):
        observed = prob.observed_information(st) + P
        da_all = -ln10 * np.linalg.solve(observed, np.column_stack([P_a for *_, P_a in terms]))
        V = prob.summed_rows(full)
        VM = V @ M
        VMV = np.einsum("ij,ij->i", VM, V)
        psi = psi.reshape(-1)
    for k, (i, rho, _, P_a) in enumerate(terms):
        da = da_all[:, k] if len(prob.C) else -ln10 * (H_inv @ P_a)
        eta = glam.linear_predictor(ws, da.reshape(ws.c_u, ws.c_s, order="F"))
        dF_M = float(np.vdot(mu * eta, leverage))
        if len(prob.C):
            dV = prob.summed_rows(full * eta)
            dF_M += float(2.0 * np.sum(np.einsum("ij,ij->i", VM, dV) / psi)
                          - np.sum(VMV * (V @ da) / psi**2))
        trace = ln10 * rho * float(np.vdot(_penalty_block(ws.c_u, ws.c_s, pen.d, "us"[i]), rest))
        grad[i] = -2.0 * float(Pa @ da) + weight * (dF_M - trace)
    return grad


def check_criterion(criterion: str) -> str:
    """``criterion`` in upper case; ValueError unless it names AIC or BIC."""
    if criterion.upper() not in ("AIC", "BIC"):
        raise ValueError(f"criterion must be AIC or BIC, got {criterion!r}")
    return criterion.upper()


def select_smoothing(data: BinnedData, cause: int, kv_u: KnotVector, kv_s: KnotVector,
                     d: int = 2, criterion: str = "BIC", search: SearchConfig = SearchConfig(),
                     ctrl: FitControl = FitControl()) -> FittedHazard:
    """Pick (rho_u, rho_s) minimizing AIC or BIC and return the winning fit.

    The search is :meth:`_GridSearch.select`: :meth:`_GridSearch.run` over the coarse log10
    grid of ``search`` (warm starts, one cold retry, ties toward the larger rho_u + rho_s) and
    :meth:`_GridSearch.pattern` from its best candidate, then :func:`_quasi_newton` from theirs
    on the box of the ranges, driven by the exact criterion gradient of
    :func:`_criterion_gradient`.  The descent only moves to a lower criterion, so the selection
    is at most the best of the grid and pattern moves: with ``coarse_step`` 1.0 that is the
    10 x 10 grid refined to 0.125 of earlier versions, candidate for candidate.  Candidates share one prepared problem; ``candidates``
    lists every fit in the order tried, and ``on_edge`` flags an axis whose rho sits at a range
    end that the criterion falls out of.
    """
    criterion = check_criterion(criterion)
    setup = _prepare(data, cause, kv_u, kv_s)
    weight = 2.0 if criterion == "AIC" else math.log(setup.n_bin)

    def fit_one(lu, ls, start):
        fit = fit_hazard(data, cause, kv_u, kv_s, PenaltyConfig(lu, ls, d), ctrl,
                         _setup=setup, _start=start)
        return (fit.aic if criterion == "AIC" else fit.bic), fit.coef, fit

    grid = _GridSearch(fit_one)
    on_edge = grid.select(search, lambda fit: _criterion_gradient(
        setup.prob, fit.penalty, fit.coef, fit.covariance, weight))
    best = grid.best.fit
    best.candidates, best.on_edge = grid.table, on_edge
    return best
