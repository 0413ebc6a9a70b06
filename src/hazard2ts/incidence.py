"""Hazard evaluation and derived surfaces (cumulative hazard, survival, CIF).

Fitted surfaces can be evaluated anywhere inside the basis domains.  Every
cumulative quantity comes from one quadrature kernel: left-rectangle sums
over nodes ``k * delta``, ``k = 0 .. K-1`` with ``K = floor(s / delta)``, so
an evaluation at s = 0 is exactly zero.  The kernel takes the u-basis rows of
a point set (a :class:`BasisRows`, which evaluates them once per distinct
knot vector) and works through the rows in chunks of a fixed, cache-sized
number of rows, so memory does not grow with the number of points.  Every
cumulative quantity is a sum over a row's first K nodes, read off by one
``np.add.reduceat`` (:func:`_sum_first`) whose sums each read their own row
alone.  The kernels run serially in the calling thread: ``predict`` runs them on
its blocks of points in the command line's lanes.  The quadrature has three
callers: the product grid (``compute_surfaces``, which ``fit`` writes), paired
points (``surfaces_at_points``, which ``predict`` writes) and the closed-form
CIF standard errors in :mod:`.uncertainty`, which read the kernel off at every
node count.

Working in (u, s) = (age at diagnosis, time since diagnosis) is the native
parametrization; (t, s) = (attained age, time since diagnosis) points are
evaluated at u = ``age_at_diagnosis(t, s)`` = t - s, re-evaluating the basis
there, never interpolating stored grids.  Extrapolation flags test points
against the support hull each fit carries (``FittedHazard.hull``) with one
vectorized half-plane test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import KnotVector, check_domain, evaluate_basis
from .errors import DomainError
from .smooth2d import FittedHazard

# slack (in units of delta) when counting quadrature nodes below s
_NODE_EPS = 1e-9
# rows per quadrature chunk, so that a chunk's arrays stay in the cache
_CHUNK = 1024
# slack of the support test: absolute for a box, relative to the vertex scale for a polygon
_SUPPORT_ATOL = 1e-9


@dataclass
class Surfaces:
    """Per-cause hazard/cumulative-hazard/CIF plus survival on a point grid or at paired
    points.  ``extrapolated`` flags points outside the convex hull of the positive-exposure
    bins the fit saw.
    """

    hazard: dict
    cumhaz: dict
    survival: np.ndarray
    cif: dict
    extrapolated: np.ndarray


def evaluate_hazard(fit: FittedHazard, u_points, s_points) -> np.ndarray:
    """Hazard matrix exp(Bu(u) A Bs(s)') over the product of the point sets."""
    Bu, Bs = evaluate_basis(u_points, fit.kv_u), evaluate_basis(s_points, fit.kv_s)
    return np.exp(Bu @ fit.A @ Bs.T)


def _n_nodes(s: np.ndarray, delta: float) -> np.ndarray:
    return np.floor(s / delta + _NODE_EPS).astype(int)


def quadrature_step(delta, h_s: float) -> float:
    """``delta``, or h_s / 10 when None; ValueError unless it is finite and positive."""
    delta = h_s / 10.0 if delta is None else delta
    if not 0 < delta < math.inf:
        raise ValueError(f"quadrature step delta must be finite and positive, got {delta}")
    return delta


class BasisRows:
    """One point set and its basis rows, evaluated once for each distinct knot vector.

    Calls that evaluate fits at the same points share one object, so fits with equal knots
    (the causes of one model) share one evaluation, and the hazards, the quadrature and the
    standard errors share it too.  ``rows(kv)`` gives the dense rows; ``window(kv)`` the start
    column and values of the ``degree + 1`` columns that hold each row's nonzeros.
    """

    def __init__(self, points):
        self.points = np.atleast_1d(np.asarray(points, dtype=float))
        self._rows, self._windows = {}, {}

    @classmethod
    def of(cls, points) -> "BasisRows":
        """``points`` itself if it is a BasisRows, else a BasisRows of them."""
        return points if isinstance(points, cls) else cls(points)

    def rows(self, kv: KnotVector) -> np.ndarray:
        key = (kv.degree, kv.boundary_lo, kv.boundary_hi, kv.knots.tobytes())
        if key not in self._rows:
            self._rows[key] = evaluate_basis(self.points, kv)
        return self._rows[key]

    def window(self, kv: KnotVector) -> tuple:
        key = (kv.degree, kv.boundary_lo, kv.boundary_hi, kv.knots.tobytes())
        if key not in self._windows:
            B = self.rows(kv)
            start = np.minimum(np.argmax(B != 0, axis=1), B.shape[1] - kv.degree - 1)
            self._windows[key] = (start, np.take_along_axis(
                B, start[:, None] + np.arange(kv.degree + 1), axis=1))
        return self._windows[key]


def _prepare(fits: dict, u_points, s_points, delta):
    """Basis rows of both point sets and the quadrature step, domain-checked."""
    ref = fits[min(fits)]
    delta = quadrature_step(delta, ref.grid.h_s)
    u, s = BasisRows.of(u_points), BasisRows.of(s_points)
    if ref.kv_s.boundary_lo > 1e-12:
        raise DomainError(
            f"cumulative quantities integrate from s=0 but the basis starts at "
            f"{ref.kv_s.boundary_lo}"
        )
    s_max = float(np.max(s.points)) if s.points.size else 0.0
    if s_max > ref.kv_s.boundary_hi * (1 + 1e-12):
        raise DomainError(f"s={s_max} beyond the basis domain upper end {ref.kv_s.boundary_hi}")
    return u, s, delta


def _sum_first(flat: np.ndarray, K: np.ndarray) -> np.ndarray:
    """``out[i, j] = x[i, :K[i, j]].sum()`` for the n = len(K) rows x[i], of one width w, that
    ``flat`` holds one after another and then one spare entry of 0 (n * w + 1 entries).

    One ``np.add.reduceat`` over the index pairs (start of row i, start + K[i, j]): each sum
    reads its own row's first K nodes and nothing else, so its bits do not depend on the other
    rows.  Reduceat takes indices below the array's length only, and reduces a pair with equal
    ends to the lone entry at the first; the spare entry serves both, as the end of a sum over
    the whole last row and as both ends of every empty sum.
    """
    spare = len(flat) - 1
    start = np.where(K > 0, spare // len(K) * np.arange(len(K))[:, None], spare)
    pairs = np.stack([start, start + K], axis=-1)
    return np.add.reduceat(flat, pairs.ravel())[::2].reshape(K.shape)


def _quadrature(fits: dict, u: BasisRows, K: np.ndarray, delta: float):
    """Cumulative hazards and CIFs of every cause over the nodes.

    ``u`` holds the u-basis rows (n_rows x c_u) of every cause; ``K`` holds the node
    counts to read off: one row (1 x n_cols) shared by every row for a product
    grid or the node ladder, or one column (n_rows x 1) for paired points.  Rows go
    in order of their largest node count (a stable sort: the identity when all rows
    share one ``K``), _CHUNK rows to a chunk; each chunk works up to its own largest
    count.  Survival before each node comes from the one prefix sum; the cumulative
    hazards and CIFs are read off at ``K`` by :func:`_sum_first`, so each row's sums
    depend on its own nodes alone.
    """
    causes = sorted(fits)
    K = np.broadcast_to(K, (len(u.points), K.shape[-1]))
    cumhaz = {ell: np.zeros(K.shape) for ell in causes}
    cif = {ell: np.zeros(K.shape) for ell in causes}
    K_row = K.max(axis=1, initial=0)
    K_max = int(K_row.max(initial=0))
    if K_max == 0:
        return cumhaz, cif
    Bu = {ell: u.rows(fits[ell].kv_u) for ell in causes}
    nodes = BasisRows(delta * np.arange(K_max))
    Bs_nodes = {ell: nodes.rows(fits[ell].kv_s) for ell in causes}
    order = np.argsort(K_row, kind="stable")
    for lo in range(0, len(K), _CHUNK):
        rows = order[lo:lo + _CHUNK]
        K_c, K_rows = int(K_row[rows[-1]]), K[rows]
        if K_c == 0:
            continue
        lam = {ell: Bu[ell][rows] @ fits[ell].A @ Bs_nodes[ell][:K_c].T for ell in causes}
        flat = np.zeros(len(rows) * K_c + 1)       # the sums' rows and _sum_first's spare 0
        tot, S = flat[:-1].reshape(len(rows), K_c), np.empty((len(rows), K_c))
        np.copyto(tot, np.exp(lam[causes[0]], out=lam[causes[0]]))
        for ell in causes[1:]:
            tot += np.exp(lam[ell], out=lam[ell])
        tot *= delta
        # survival just before each node: exp(-exclusive prefix sum of the total hazard)
        S[:, 0] = 0.0
        np.cumsum(tot[:, :-1], axis=-1, out=S[:, 1:])
        np.exp(np.negative(S, out=S), out=S)
        for ell in causes:
            np.multiply(lam[ell], delta, out=tot)
            cumhaz[ell][rows] = _sum_first(flat, K_rows)
            tot *= S
            cif[ell][rows] = _sum_first(flat, K_rows)
    return cumhaz, cif


def check_points(fits: dict, u_points, s_points, delta: float = None) -> None:
    """The refusals of :func:`surfaces_at_points` at the paired points, in its order, with no
    basis evaluated (DomainError), for a caller that evaluates them block by block: a refusal
    then counts and lists the bad points of all the blocks."""
    u, s, _ = _prepare(fits, u_points, s_points, delta)
    for points, kv in ([(u.points, fits[ell].kv_u) for ell in sorted(fits)]
                       + [(s.points, fits[ell].kv_s) for ell in sorted(fits)]):
        check_domain(points, kv)


def _surfaces(fits: dict, u_points, s_points, delta, paired: bool):
    """Hazards, quadrature surfaces and extrapolation flags, on a grid or at paired points."""
    u_rows, s_rows, delta = _prepare(fits, u_points, s_points, delta)
    Bu = {ell: u_rows.rows(fits[ell].kv_u) for ell in sorted(fits)}
    u, s = u_rows.points, s_rows.points
    if paired and u.shape != s.shape:
        raise ValueError("u and s point arrays must have equal length")
    Bs = {ell: s_rows.rows(fits[ell].kv_s) for ell in Bu}
    if paired:
        hazard = {ell: np.exp(np.sum((Bu[ell] @ fits[ell].A) * Bs[ell], axis=1))[:, None]
                  for ell in Bu}
        K = _n_nodes(s, delta)[:, None]
    else:
        hazard = {ell: np.exp(Bu[ell] @ fits[ell].A @ Bs[ell].T) for ell in Bu}
        K = _n_nodes(s, delta)[None, :]
    cumhaz, cif = _quadrature(fits, u_rows, K, delta)
    return Surfaces(hazard=hazard, cumhaz=cumhaz, survival=np.exp(-sum(cumhaz.values())),
                    cif=cif, extrapolated=extrapolation_mask(fits[min(fits)], u, s, paired=paired))


def compute_surfaces(fits: dict, u_points, s_points, delta: float = None) -> Surfaces:
    """All derived surfaces on the product grid ``u_points x s_points``."""
    return _surfaces(fits, u_points, s_points, delta, paired=False)


def surfaces_at_points(fits: dict, u_arr, s_arr, delta: float = None) -> Surfaces:
    """Derived quantities at paired points (u_i, s_i) rather than a grid.

    ``u_arr`` and ``s_arr`` may be :class:`BasisRows` shared with other calls at the same
    points.  Returns a Surfaces object whose matrices have shape (n_points, 1).
    """
    return _surfaces(fits, u_arr, s_arr, delta, paired=True)


def age_at_diagnosis(t_arr, s_arr) -> np.ndarray:
    """u = t - s of attained-age points (t, s); DomainError where t <= s."""
    t_arr = np.atleast_1d(np.asarray(t_arr, dtype=float))
    s_arr = np.atleast_1d(np.asarray(s_arr, dtype=float))
    bad = t_arr <= s_arr
    if bad.any():
        bad = list(zip(t_arr[bad].tolist(), s_arr[bad].tolist()))
        raise DomainError(f"attained age must exceed time since diagnosis at {bad[:10]}",
                          points=bad)
    return t_arr - s_arr


def in_support(hull, u, s):
    """Point-in-convex-polygon test, elementwise over (broadcast) u and s.

    A point is inside when it lies on the inner side of every edge of the
    counterclockwise polygon, up to _SUPPORT_ATOL relative to the vertex scale.
    """
    kind, data = hull
    u = np.asarray(u, dtype=float)
    s = np.asarray(s, dtype=float)
    if kind == "box":
        u_min, u_max, s_min, s_max = data
        return ((u_min - _SUPPORT_ATOL <= u) & (u <= u_max + _SUPPORT_ATOL)
                & (s_min - _SUPPORT_ATOL <= s) & (s <= s_max + _SUPPORT_ATOL))
    verts = np.asarray(data)
    scale = max(np.abs(verts).max(), 1.0)
    inside = np.ones(np.broadcast(u, s).shape, dtype=bool)
    for (ax, ay), (bx, by) in zip(verts, np.roll(verts, -1, axis=0)):
        inside &= (bx - ax) * (s - ay) - (by - ay) * (u - ax) >= -_SUPPORT_ATOL * scale
    return inside


def extrapolation_mask(fit: FittedHazard, u_points, s_points, paired: bool = False) -> np.ndarray:
    """True where an evaluation point lies outside the data-supported hull."""
    u_points = np.atleast_1d(u_points)
    s_points = np.atleast_1d(s_points)
    if not paired:
        u_points, s_points = np.meshgrid(u_points, s_points, indexing="ij")
    return ~in_support(fit.hull, u_points, s_points)
