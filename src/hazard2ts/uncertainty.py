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
of draws yields the SEs of every cause.  A bounded number of batches runs at
once on the threads of ``incidence._thread_map``, and the caller accumulates
them in draw order, so the SEs are bitwise those of a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import KnotVector
from .errors import DataError, Hazard2tsError
from .incidence import BasisRows, _n_nodes, _prepare, _quadrature, _thread_map, evaluate_hazard
from .smooth2d import FittedHazard

# points per windowed quadratic form
_CHUNK = 4096
# coefficient draws per quadrature pass, and the passes run at a time: at most
# _IN_FLIGHT batches of CIFs wait to be accumulated
_DRAW_CHUNK = 16
_IN_FLIGHT = 8


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
    """An (n_draws, len(mean)) array of draws from N(mean, Sigma) via the Cholesky factor of
    Sigma, ``mean`` in every row for a zero Sigma; Hazard2tsError where Sigma is not positive
    definite."""
    Sigma = np.asarray(Sigma, dtype=float)
    if np.max(np.abs(Sigma)) == 0.0:
        return np.tile(mean, (n_draws, 1))
    try:
        L = np.linalg.cholesky(Sigma)
    except np.linalg.LinAlgError:
        raise Hazard2tsError("coefficient covariance not positive definite") from None
    z = rng.standard_normal((n_draws, len(mean)))
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
    all causes.  Draws go through the quadrature kernel _DRAW_CHUNK at a time,
    _IN_FLIGHT batches at a time on threads; the empirical standard deviation
    (divisor n_draws - 1) is accumulated draw by draw in draw order, here, and
    is bitwise reproducible for a given seed whatever the number of cores.
    :class:`DataError` names the first cause with a standard error that is not finite (a
    draw whose hazard overflows: a coefficient barely informed by the data).
    """
    causes = sorted(fits)
    rng = np.random.default_rng(mc.seed)
    draws = {
        ell: sample_coefficients(fits[ell].coef, fits[ell].covariance, mc.n_draws, rng)
        for ell in causes
    }
    u, s, delta = _prepare(fits, u_points, s_points, delta)
    K = _n_nodes(s.points, delta)[None, :]

    # the causes stacked: one Welford step per draw updates every cause
    mean, m2 = np.zeros((2, len(causes), len(u.points), len(s.points)))
    work = {}                     # the kernel's node basis and spare chunk arrays

    def batch_cifs(lo):
        # vec(A) is column-major: draw k holds A[l, m] at index m * c_u + l
        coefs = {ell: draws[ell][lo:lo + _DRAW_CHUNK]
                 .reshape(-1, *fits[ell].A.shape[::-1]).transpose(0, 2, 1)
                 for ell in causes}
        cif = _quadrature(fits, u, K, delta, coefs, work, cumulative=False)[1]
        return np.stack([cif[ell] for ell in causes], axis=1)

    batches = range(0, mc.n_draws, _DRAW_CHUNK)
    with np.errstate(over="ignore", invalid="ignore"):   # refused below, not warned about
        for at in range(0, len(batches), _IN_FLIGHT):
            window = batches[at:at + _IN_FLIGHT]
            for lo, values in zip(window, _thread_map(batch_cifs, window)):
                for j, value in enumerate(values, start=lo + 1):
                    d1 = value - mean
                    mean += d1 / j
                    m2 += d1 * (value - mean)
        se = np.sqrt(m2 / (mc.n_draws - 1))
    for i, ell in enumerate(causes):
        bad = np.count_nonzero(~np.isfinite(se[i]))
        if bad:
            raise DataError(f"cause {ell}: {bad} of {se[i].size} Monte-Carlo CIF standard "
                            "errors are not finite: a coefficient draw overflows the hazard")
    return {ell: se[i] for i, ell in enumerate(causes)}
