"""Standard errors: delta method for (log-)hazards, simulation for CIFs.

The coefficient covariance is the inverse of the penalized information at
convergence, which each fit carries (``FittedHazard.covariance``).  SEs of
the log-hazard at a point follow from the quadratic form x' Sigma x with the
tensor basis row x; one chunked row-wise kernel
serves paired points and, on the meshgrid, product grids.  Hazard SEs are
the delta-method transform through exp.  CIF standard errors come from
repeatedly drawing coefficient vectors from their asymptotic normal
distribution (independently per cause) and passing the draws, a fixed-size
batch at a time, through the quadrature kernel of :mod:`.incidence`; one set
of draws yields the SEs of every cause.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import KnotVector
from .errors import Hazard2tsError
from .incidence import _CHUNK, BasisRows, _n_nodes, _prepare, _quadrature, evaluate_hazard
from .smooth2d import FittedHazard

# coefficient draws per quadrature pass
_DRAW_CHUNK = 16


@dataclass(frozen=True)
class MonteCarloConfig:
    """Number of coefficient draws and the RNG seed."""

    n_draws: int = 1000
    seed: int = 20120501

    def __post_init__(self):
        if self.n_draws < 2 or self.seed < 0:
            raise ValueError(f"need at least 2 draws and a nonnegative seed, got {self}")


def _row_variance(u: BasisRows, s: BasisRows, kv_u: KnotVector, kv_s: KnotVector,
                  Sigma: np.ndarray) -> np.ndarray:
    """Quadratic forms x_i' Sigma x_i for the tensor rows x_i = Bs[i] (x) Bu[i].

    The coefficient index is column-major over (l, m), i.e. m * c_u + l,
    matching the vectorization used by the fitting kernels.  A row of a
    degree-p basis is zero outside p + 1 adjacent columns (``BasisRows.window``),
    so x_i is zero outside a (p_u + 1)(p_s + 1) window and only the matching
    block of Sigma enters.  Points are taken window by window, _CHUNK at a time.
    """
    c_u, p_u, p_s = kv_u.n_basis, kv_u.degree, kv_s.degree
    (ju, wu), (js, ws) = u.window(kv_u), s.window(kv_s)
    key = js * c_u + ju               # the coefficient index of each window's first entry
    order = np.argsort(key, kind="stable")
    var = np.empty(len(key))
    for group in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        for lo in range(0, len(group), _CHUNK):
            i = group[lo:lo + _CHUNK]
            cols = (key[i[0]] + c_u * np.arange(p_s + 1)[:, None] + np.arange(p_u + 1)).ravel()
            x = (ws[i, :, None] * wu[i, None, :]).reshape(len(i), -1)
            var[i] = np.einsum("ip,ip->i", x @ Sigma[np.ix_(cols, cols)], x)
    return var


def se_log_hazard_points(fit: FittedHazard, u_arr, s_arr) -> np.ndarray:
    """Delta-method SE of the log-hazard at paired points (u_i, s_i); ``u_arr`` and ``s_arr``
    may be :class:`BasisRows` shared with other calls at the same points."""
    var = _row_variance(BasisRows.of(u_arr), BasisRows.of(s_arr), fit.kv_u, fit.kv_s,
                        fit.covariance)
    return np.sqrt(np.maximum(var, 0.0))


def se_log_hazard(fit: FittedHazard, u_points, s_points) -> np.ndarray:
    """Delta-method SE of the log-hazard on the product grid of the points."""
    uu, ss = np.meshgrid(u_points, s_points, indexing="ij")
    return se_log_hazard_points(fit, uu.ravel(), ss.ravel()).reshape(uu.shape)


def se_hazard(fit: FittedHazard, u_points, s_points) -> np.ndarray:
    """SE of the hazard itself: hazard times the log-hazard SE, elementwise."""
    return evaluate_hazard(fit, u_points, s_points) * se_log_hazard(fit, u_points, s_points)


def sample_coefficients(mean: np.ndarray, Sigma: np.ndarray, n_draws: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Draw from N(mean, Sigma) via Cholesky, with one jitter retry.

    Returns an (n_draws, len(mean)) array; raises if Sigma is not positive
    semidefinite even after adding 1e-10 * trace jitter.
    """
    Sigma = np.asarray(Sigma, dtype=float)
    n = len(mean)
    if np.max(np.abs(Sigma)) == 0.0:
        return np.tile(mean, (n_draws, 1))
    try:
        L = np.linalg.cholesky(Sigma)
    except np.linalg.LinAlgError:
        jitter = 1e-10 * np.trace(Sigma) / n
        try:
            L = np.linalg.cholesky(Sigma + jitter * np.eye(n))
        except np.linalg.LinAlgError:
            raise Hazard2tsError("coefficient covariance not positive semidefinite "
                                 "after jitter") from None
    z = rng.standard_normal((n_draws, n))
    return mean[None, :] + z @ L.T


def cif_standard_errors(
    fits: dict,
    u_points,
    s_points,
    mc: MonteCarloConfig = MonteCarloConfig(),
    delta: float = None,
) -> dict:
    """Monte-Carlo SEs of every cause's CIF on the product grid of the points.

    Returns ``{cause: se}``.  Coefficients are drawn from N(``fit.coef``,
    ``fit.covariance``), independently across causes (the causes are fitted
    separately; only the exposures are shared), and one set of draws serves
    all causes.  Draws go through the quadrature kernel
    _DRAW_CHUNK at a time; the empirical standard deviation (divisor
    n_draws - 1) is accumulated draw by draw in draw order and is bitwise
    reproducible for a given seed.
    """
    causes = sorted(fits)
    rng = np.random.default_rng(mc.seed)
    draws = {
        ell: sample_coefficients(fits[ell].coef, fits[ell].covariance, mc.n_draws, rng)
        for ell in causes
    }
    u, s, delta = _prepare(fits, u_points, s_points, delta)
    K = _n_nodes(s.points, delta)[None, :]

    mean = {ell: np.zeros((len(u.points), len(s.points))) for ell in causes}
    m2 = {ell: np.zeros((len(u.points), len(s.points))) for ell in causes}
    work = {}                     # the kernel's chunk arrays, reused by every batch
    for lo in range(0, mc.n_draws, _DRAW_CHUNK):
        # vec(A) is column-major: draw k holds A[l, m] at index m * c_u + l
        coefs = {ell: draws[ell][lo:lo + _DRAW_CHUNK]
                 .reshape(-1, *fits[ell].A.shape[::-1]).transpose(0, 2, 1)
                 for ell in causes}
        _, cif = _quadrature(fits, u, K, delta, coefs, work)
        for j in range(len(coefs[causes[0]])):
            for ell in causes:
                value = cif[ell][j]
                d1 = value - mean[ell]
                mean[ell] += d1 / (lo + j + 1)
                m2[ell] += d1 * (value - mean[ell])
    return {ell: np.sqrt(m2[ell] / (mc.n_draws - 1)) for ell in causes}
