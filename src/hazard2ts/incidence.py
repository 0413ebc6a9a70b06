"""Hazard evaluation and derived surfaces (cumulative hazard, survival, CIF).

Fitted surfaces can be evaluated anywhere inside the basis domains.  Every
cumulative quantity comes from one quadrature kernel: left-rectangle sums
over nodes ``k * delta``, ``k = 0 .. K-1`` with ``K = floor(s / delta)``, so
an evaluation at s = 0 is exactly zero.  The kernel takes the u-basis rows of
a point set (a :class:`BasisRows`, which evaluates them once per distinct
knot vector) and works through the rows in chunks of a fixed, cache-sized
number of rows, so memory does not grow with the number of points.  The chunks
run on the threads of :func:`_thread_map`, one per usable CPU: numpy releases
the GIL in their array work, and a chunk's sums do not depend on the thread
that runs it, so the bytes do not depend on the number of cores.  The product
grid (``compute_surfaces``), paired points (``surfaces_at_points`` and the
single-point helpers) and the closed-form CIF standard errors in
:mod:`.uncertainty`, which read the kernel off at every node count, all run
through it.

Working in (u, s) = (age at diagnosis, time since diagnosis) is the native
parametrization; (t, s) = (attained age, time since diagnosis) points are
handled by re-evaluating the basis at u = t - s, never by interpolating stored
grids.  Extrapolation flags test points against the support hull each fit
carries (``FittedHazard.hull``) with one vectorized half-plane test.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .basis import KnotVector, evaluate_basis
from .errors import DomainError
from .smooth2d import FittedHazard

# slack (in units of delta) when counting quadrature nodes below s
_NODE_EPS = 1e-9
# rows per quadrature chunk, so that a chunk's arrays stay in the cache; a constant, not a
# share of the cores, so the sums do not depend on the number of threads
_CHUNK = 1024


@dataclass
class Surfaces:
    """Per-cause hazard/cumulative-hazard/CIF plus survival on a point grid.

    ``u_points`` are ages at diagnosis.  ``extrapolated`` flags points outside
    the convex hull of the positive-exposure bins the fit saw.
    """

    u_points: np.ndarray
    s_points: np.ndarray
    hazard: dict
    cumhaz: dict
    survival: np.ndarray
    cif: dict
    delta: float
    extrapolated: np.ndarray = None


def evaluate_log_hazard(fit: FittedHazard, u_points, s_points) -> np.ndarray:
    """Log-hazard matrix Bu(u) A Bs(s)' over the product of the point sets."""
    Bu = evaluate_basis(u_points, fit.kv_u)
    Bs = evaluate_basis(s_points, fit.kv_s)
    return Bu @ fit.A @ Bs.T


def evaluate_hazard(fit: FittedHazard, u_points, s_points) -> np.ndarray:
    """Hazard matrix exp(Bu(u) A Bs(s)') over the product of the point sets."""
    return np.exp(evaluate_log_hazard(fit, u_points, s_points))


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


def _view(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    """The contiguous leading part of a flat buffer, shaped ``shape``."""
    return buffer[:math.prod(shape)].reshape(shape)


def _thread_map(fn, items) -> list:
    """``[fn(item) for item in items]``, run on min(len(items), usable CPUs) threads.

    For numpy work that releases the GIL.  One item or one CPU runs here and starts no thread.
    Each thread runs in a copy of the caller's context, so ``np.errstate`` holds there too.
    Every thread has ended when this returns; the first failing item in item order raises its
    exception.
    """
    items = list(items)
    n_threads = min(len(items), len(os.sched_getaffinity(0)))
    if n_threads < 2:
        return [fn(item) for item in items]
    results, errors, taken = [None] * len(items), {}, itertools.count()

    def run():
        # items are taken in order, so every item before a failing one has been taken
        while not errors and (i := next(taken)) < len(items):
            try:
                results[i] = fn(items[i])
            except BaseException as exc:      # raised again in the calling thread
                errors[i] = exc

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(run,))
               for _ in range(n_threads)]
    try:
        for thread in threads:
            thread.start()
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def _quadrature(fits: dict, u: BasisRows, K: np.ndarray, delta: float):
    """Cumulative hazards and CIFs of every cause over the nodes.

    ``u`` holds the u-basis rows (n_rows x c_u) of every cause; ``K`` holds the node
    counts to read off: one row (1 x n_cols) shared by every row for a product
    grid, or one column (n_rows x 1) for paired points.  Rows go in order of
    their largest node count (a stable sort: the identity when all rows share
    one ``K``), _CHUNK rows to a chunk, the chunks on :func:`_thread_map`;
    each chunk works up to its own largest count.  Survival before each node
    comes from the one prefix sum; the cumulative hazards and CIFs are read
    off at ``K`` as sums over the first ``K`` nodes: by a 0/1 (K_c x n_cols)
    matrix for a shared ``K`` row, and for paired points as a plain sum up to
    the chunk's smallest count plus a masked sum of the rest.  A finished chunk
    hands its arrays to the next, where fresh arrays would page-fault; each
    running chunk holds its own.
    """
    causes = sorted(fits)
    shared = len(K) == 1
    K = np.broadcast_to(K, (len(u.points), K.shape[-1]))
    cumhaz = {ell: np.zeros(K.shape) for ell in causes}
    cif = {ell: np.zeros(K.shape) for ell in causes}
    K_row = K.max(axis=1, initial=0)
    K_max = int(K_row.max(initial=0))
    if K_max == 0:
        return cumhaz, cif
    size = min(_CHUNK, len(K)) * K_max
    Bu = {ell: u.rows(fits[ell].kv_u) for ell in causes}
    nodes = BasisRows(delta * np.arange(K_max))
    Bs_nodes = {ell: nodes.rows(fits[ell].kv_s) for ell in causes}
    spare, order = [], np.argsort(K_row, kind="stable")

    def chunk(rows):
        K_lo, K_c = int(K_row[rows[0]]), int(K_row[rows[-1]])
        try:
            buffers = spare.pop()
        except IndexError:
            buffers = {name: np.empty(size) for name in ("tot", "S", *causes)}
        shape = (len(rows), K_c)
        lam = {ell: np.matmul(Bu[ell][rows] @ fits[ell].A, Bs_nodes[ell][:K_c].T,
                              out=_view(buffers[ell], shape))
               for ell in causes}
        tot, S = _view(buffers["tot"], shape), _view(buffers["S"], shape)
        np.copyto(tot, np.exp(lam[causes[0]], out=lam[causes[0]]))
        for ell in causes[1:]:
            tot += np.exp(lam[ell], out=lam[ell])
        tot *= delta
        # survival just before each node: exp(-exclusive prefix sum of the total hazard)
        S[:, 0] = 0.0
        np.cumsum(tot[:, :-1], axis=-1, out=S[:, 1:])
        np.exp(np.negative(S, out=S), out=S)
        if shared:
            take = (np.arange(K_c)[:, None] < K[0]).astype(float)
        else:
            # rows go by K: every row takes the first K_lo nodes, a 0/1 mask the rest
            tail = (np.arange(K_lo, K_c) < K[rows]).astype(float)

        def read_off(x):
            if shared:
                return x @ take
            return (x[:, :K_lo].sum(axis=-1)
                    + np.einsum("...k,...k->...", x[:, K_lo:], tail))[:, None]

        for ell in causes:
            np.multiply(lam[ell], delta, out=tot)
            cumhaz[ell][rows] = read_off(tot)
            tot *= S
            cif[ell][rows] = read_off(tot)
        spare.append(buffers)

    chunks = [order[lo:lo + _CHUNK] for lo in range(0, len(K), _CHUNK)]
    _thread_map(chunk, [rows for rows in chunks if K_row[rows[-1]] > 0])
    return cumhaz, cif


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
    return Surfaces(
        u_points=u, s_points=s, hazard=hazard, cumhaz=cumhaz,
        survival=np.exp(-sum(cumhaz.values())), cif=cif, delta=delta,
        extrapolated=extrapolation_mask(fits[min(fits)], u, s, paired=paired),
    )


def compute_surfaces(fits: dict, u_points, s_points, delta: float = None) -> Surfaces:
    """All derived surfaces on the product grid ``u_points x s_points``."""
    return _surfaces(fits, u_points, s_points, delta, paired=False)


def surfaces_at_points(fits: dict, u_arr, s_arr, delta: float = None) -> Surfaces:
    """Derived quantities at paired points (u_i, s_i) rather than a grid.

    ``u_arr`` and ``s_arr`` may be :class:`BasisRows` shared with other calls at the same
    points.  Returns a Surfaces object whose matrices have shape (n_points, 1).
    """
    return _surfaces(fits, u_arr, s_arr, delta, paired=True)


def cumulative_hazard(fit: FittedHazard, u: float, s: float, delta: float) -> float:
    """Left-rectangle cumulative hazard of one cause at a single point."""
    return float(surfaces_at_points({0: fit}, u, s, delta).cumhaz[0][0, 0])


def overall_survival(fits: dict, u: float, s: float, delta: float) -> float:
    """exp(-sum of cumulated cause-specific hazards) at a single point."""
    return float(surfaces_at_points(fits, u, s, delta).survival[0, 0])


def cumulative_incidence(fits: dict, cause: int, u: float, s: float, delta: float) -> float:
    """Probability of failing from ``cause`` by s, at a single (u, s) point."""
    return float(surfaces_at_points(fits, u, s, delta).cif[cause][0, 0])


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


def to_age_coordinates(fits: dict, t_arr, s_arr, delta: float = None) -> Surfaces:
    """Evaluate at attained-age points (t, s) by re-evaluating at u = t - s."""
    return surfaces_at_points(fits, age_at_diagnosis(t_arr, s_arr), s_arr, delta=delta)


def in_support(hull, u, s, atol: float = 1e-9):
    """Point-in-convex-polygon test, elementwise over (broadcast) u and s.

    A point is inside when it lies on the inner side of every edge of the
    counterclockwise polygon, up to ``atol`` relative to the vertex scale.
    """
    kind, data = hull
    u = np.asarray(u, dtype=float)
    s = np.asarray(s, dtype=float)
    if kind == "box":
        u_min, u_max, s_min, s_max = data
        return (u_min - atol <= u) & (u <= u_max + atol) & (s_min - atol <= s) & (s <= s_max + atol)
    verts = np.asarray(data)
    scale = max(np.abs(verts).max(), 1.0)
    inside = np.ones(np.broadcast(u, s).shape, dtype=bool)
    for (ax, ay), (bx, by) in zip(verts, np.roll(verts, -1, axis=0)):
        inside &= (bx - ax) * (s - ay) - (by - ay) * (u - ax) >= -atol * scale
    return inside


def extrapolation_mask(fit: FittedHazard, u_points, s_points, paired: bool = False) -> np.ndarray:
    """True where an evaluation point lies outside the data-supported hull."""
    u_points = np.atleast_1d(u_points)
    s_points = np.atleast_1d(s_points)
    if not paired:
        u_points, s_points = np.meshgrid(u_points, s_points, indexing="ij")
    return ~in_support(fit.hull, u_points, s_points)
