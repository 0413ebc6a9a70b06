"""Standard errors by the delta method: of (log-)hazards and of CIFs.

The coefficient covariance is the inverse of the penalized information at
convergence, which each fit carries (``FittedHazard.covariance``).  SEs of
the log-hazard at a point follow from the quadratic form x' Sigma x with the
tensor basis row x; one chunked row-wise kernel serves paired points, on the
meshgrid product grids, and the CIFs (``predict`` writes a hazard's SE as
the hazard times that of its log, the transform through exp).  A CIF is a
smooth function of every cause's coefficients, so its SE is the quadratic
form of its gradient, summed over the causes (fitted separately, so their
coefficients are independent).  The gradient with respect to cause m's
coefficients is Bu(u) (x) v_m, with v_m a combination of sums over the first
quadrature nodes of the node basis rows, weighted by the cumulative hazards and
CIFs the quadrature kernel of :mod:`.incidence` gives at every node count.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .incidence import BasisRows, _n_nodes, _prepare, _quadrature, _sum_first
from .smooth2d import FittedHazard

# points per windowed quadratic form, and (u rows) x (node counts or s points) per chunk of
# CIF gradients
_CHUNK = 4096


def _row_variance(u_window: tuple, s_window: tuple, c_u: int, Sigma: np.ndarray) -> np.ndarray:
    """Quadratic forms x_i' Sigma x_i for the tensor rows x_i = s_i (x) u_i.

    Each factor comes as a window (start, values): row i of it is zero outside the columns
    start[i] .. start[i] + width - 1, which hold values[i].  A degree-p basis row is such a
    window of width p + 1 (``BasisRows.window``); a dense row of c_s entries is one that
    starts at column 0.  The coefficient index is column-major over (l, m), i.e. m * c_u + l,
    matching the vectorization used by the fitting kernels, so x_i is zero outside one block
    of columns and only the matching block of Sigma enters.  Points are taken window by
    window, _CHUNK at a time.
    """
    (ju, wu), (js, ws) = u_window, s_window
    key = js * c_u + ju               # the coefficient index of each window's first entry
    order = np.argsort(key, kind="stable")
    var = np.empty(len(key))
    for group in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        for lo in range(0, len(group), _CHUNK):
            i = group[lo:lo + _CHUNK]
            cols = (key[i[0]] + c_u * np.arange(ws.shape[1])[:, None]
                    + np.arange(wu.shape[1])).ravel()
            x = (ws[i, :, None] * wu[i, None, :]).reshape(len(i), -1)
            var[i] = np.einsum("ip,ip->i", x @ Sigma[np.ix_(cols, cols)], x)
    return var


def se_log_hazard_points(fit: FittedHazard, u_arr, s_arr) -> np.ndarray:
    """Delta-method SE of the log-hazard at paired points (u_i, s_i); ``u_arr`` and ``s_arr``
    may be :class:`BasisRows` shared with other calls at the same points."""
    var = _row_variance(BasisRows.of(u_arr).window(fit.kv_u),
                        BasisRows.of(s_arr).window(fit.kv_s), fit.kv_u.n_basis, fit.covariance)
    return np.sqrt(np.maximum(var, 0.0))


def se_log_hazard(fit: FittedHazard, u_points, s_points) -> np.ndarray:
    """Delta-method SE of the log-hazard on the product grid of the points."""
    uu, ss = np.meshgrid(u_points, s_points, indexing="ij")
    return se_log_hazard_points(fit, uu.ravel(), ss.ravel()).reshape(uu.shape)


def cif_standard_errors(fits: dict, u_points, s_points, delta: float = None) -> dict:
    """Delta-method SEs of every cause's CIF on the product grid of the points.

    Returns ``{cause: se}``.  With K nodes below s, left rectangles give
    F_l(K) = sum_{k<K} f_lk, f_lk = h_lk S_k, S_k = exp(-sum_m H_mk), where
    h_mk = H_m,k+1 - H_mk is cause m's hazard times delta at node k and H, F are the
    cumulative hazards and CIFs at node count k.  The gradient of F_l(K) with
    respect to A_m is Bu(u) (x) v_m with

        v_m = [m = l] sum_{k<K} f_lk N_k - F_lK sum_{k<K} h_mk N_k
              + sum_{k<K} h_mk F_l,k+1 N_k,

    N_k the s-basis row at node k: three sums over the first K nodes, read off at each
    s point's K by ``incidence._sum_first``.  H and F come from the quadrature kernel at
    every node count up to the largest K, for _CHUNK // max(K_max + 1, n_s) u rows at a
    time, so memory does not grow with the number of u points.  The variance of each
    cause's CIF sums ``_row_variance`` over the causes m, with the u window of the basis row
    and the dense v_m as the s window.  The SE at s = 0 is exactly 0.  :class:`DataError`
    names the first cause with a standard error that is not finite.
    """
    causes = sorted(fits)
    u, s, delta = _prepare(fits, u_points, s_points, delta)
    K = _n_nodes(s.points, delta)
    K_max = int(K.max(initial=0))
    ladder = np.arange(K_max + 1)[None, :]          # the kernel read off at every node count
    nodes = BasisRows(delta * np.arange(K_max))
    N = {m: nodes.rows(fits[m].kv_s) for m in causes}
    n_s = len(K)
    var = {ell: np.zeros((len(u.points), n_s)) for ell in causes}
    step = max(1, _CHUNK // max(K_max + 1, n_s))

    def node_sums(w, N_m):
        """sum_{k<K} w[i, k] N_m[k] at each s point's K: (rows x n_s x c_s)."""
        c_s = N_m.shape[1]
        flat = np.zeros(w.size * c_s + 1)           # _sum_first's rows and spare 0
        np.multiply(w[:, None, :], N_m.T, out=flat[:-1].reshape(len(w), c_s, -1))
        K_rows = np.broadcast_to(K, (len(w) * c_s, n_s))
        return _sum_first(flat, K_rows).reshape(len(w), c_s, n_s).transpose(0, 2, 1)

    with np.errstate(over="ignore", invalid="ignore"):   # refused below, not warned about
        for lo in range(0, len(u.points), step):
            rows = BasisRows(u.points[lo:lo + step])
            H, F = _quadrature(fits, rows, ladder, delta)
            h = {m: np.diff(H[m], axis=1) for m in causes}
            hN = {m: node_sums(h[m], N[m]) for m in causes}
            for m in causes:
                ju, wu = rows.window(fits[m].kv_u)
                u_window = (np.repeat(ju, n_s), np.repeat(wu, n_s, axis=0))
                for ell in causes:
                    w = h[m] * F[ell][:, 1:]
                    if m == ell:
                        w += np.diff(F[ell], axis=1)
                    v = (node_sums(w, N[m]) - F[ell][:, K, None] * hN[m]
                         ).reshape(-1, N[m].shape[1])
                    var[ell][lo:lo + step] += _row_variance(
                        u_window, (np.zeros(len(v), dtype=int), v), fits[m].kv_u.n_basis,
                        fits[m].covariance).reshape(len(rows.points), n_s)
        se = {ell: np.sqrt(np.maximum(var[ell], 0.0)) for ell in causes}
    for ell in causes:
        bad = np.count_nonzero(~np.isfinite(se[ell]))
        if bad:
            raise DataError(f"cause {ell}: {bad} of {se[ell].size} CIF standard errors are "
                            "not finite: the hazard or the coefficient covariance overflows")
    return se
