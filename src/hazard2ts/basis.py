"""Marginal spline bases and difference penalties.

Uniform B-spline bases on an interval, evaluated with the Cox-de Boor
recursion, plus the forward-difference matrices that define the
roughness penalties.  The knot grid is extended past each boundary by
``degree`` extra uniformly spaced knots (no knot repetition), so that every
point of the domain is covered by exactly ``degree + 1`` basis functions and
the difference penalty treats boundary coefficients the same as interior
ones.  A basis with ``n_segments`` interior segments has
``c = n_segments + degree`` functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Relative slack when deciding whether a point sits inside the domain;
# points within this tolerance of a boundary are clipped onto it.
_EDGE_RTOL = 1e-9


@dataclass(frozen=True)
class KnotVector:
    """Uniform knot grid for a B-spline basis on [boundary_lo, boundary_hi]."""

    degree: int
    boundary_lo: float
    boundary_hi: float
    knots: np.ndarray

    @property
    def n_basis(self) -> int:
        return len(self.knots) - self.degree - 1

    @property
    def spacing(self) -> float:
        return float(self.knots[1] - self.knots[0])


def make_knots(lo: float, hi: float, n_segments: int, degree: int = 3) -> KnotVector:
    """Build a uniform knot vector with ``degree`` extension knots per side.

    Parameters
    ----------
    lo, hi : float
        Domain boundaries; evaluation is restricted to [lo, hi].
    n_segments : int
        Number of equal segments between the boundaries.
    degree : int
        Spline degree (cubic by default).

    Returns
    -------
    KnotVector
        Carries ``n_segments + degree`` basis functions.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"knot boundaries must be finite, got ({lo}, {hi})")
    if hi <= lo:
        raise ValueError(f"upper boundary must exceed lower, got ({lo}, {hi})")
    if n_segments < 1:
        raise ValueError(f"n_segments must be >= 1, got {n_segments}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")

    h = (hi - lo) / n_segments
    inner = np.linspace(lo, hi, n_segments + 1)
    left = lo - h * np.arange(degree, 0, -1)
    right = hi + h * np.arange(1, degree + 1)
    knots = np.concatenate([left, inner, right])
    return KnotVector(degree=degree, boundary_lo=float(lo), boundary_hi=float(hi), knots=knots)


def evaluate_basis(points, kv: KnotVector) -> np.ndarray:
    """Evaluate all basis functions of ``kv`` at the given points.

    Every point must lie in [boundary_lo, boundary_hi] (NaN does not); the
    upper boundary maps to the last interval (intervals are half-open, closed
    at the top of the domain).  Rows of the returned matrix sum to one; no
    points give a matrix of no rows.
    """
    x = np.atleast_1d(np.asarray(points, dtype=float)).copy()
    if x.ndim != 1:
        raise ValueError("points must be one-dimensional")
    lo, hi = kv.boundary_lo, kv.boundary_hi
    slack = _EDGE_RTOL * max(abs(lo), abs(hi), 1.0)
    outside = ~((x >= lo - slack) & (x <= hi + slack))   # NaN is outside too
    if np.any(outside):
        bad = x[outside].tolist()
        raise DomainError(
            f"{outside.sum()} point(s) outside basis domain [{lo}, {hi}]: "
            f"{bad[:10]}{'...' if len(bad) > 10 else ''}",
            points=bad,
        )
    np.clip(x, lo, hi, out=x)
    # x lies in knot interval [t_i, t_i+1), i = degree + seg, at local coordinate r in [0, 1].
    # On uniform knots the degree-k functions j = i-k..i there (c = j - i + k) take the values
    # b_k[c] = ((r + k - c) b_k-1[c-1] + (c + 1 - r) b_k-1[c]) / k, each term >= 0.
    p, n_seg = kv.degree, kv.n_basis - kv.degree
    seg = np.clip(np.searchsorted(kv.knots, x, side="right") - 1 - p, 0, n_seg - 1)
    r = np.clip((x - kv.knots[seg + p]) / kv.spacing, 0.0, 1.0)
    b = [np.ones(len(x))]
    for k in range(1, p + 1):
        b = [0.0, *b, 0.0]
        b = [((r + k - c) * b[c] + (c + 1 - r) * b[c + 1]) / k for c in range(k + 1)]
    values = np.zeros((len(x), kv.n_basis))
    rows = np.arange(len(x))
    for c in range(p + 1):
        values[rows, seg + c] = b[c]
    return values


def difference_matrix(c: int, d: int) -> np.ndarray:
    """Forward-difference matrix of order ``d`` acting on ``c`` coefficients.

    Row ``r`` holds the order-``d`` difference stencil starting at column
    ``r`` (for d=2: ``[1, -2, 1]``); the product with any polynomial of
    degree < d sampled on the coefficient index is exactly zero.
    """
    if d < 1:
        raise ValueError(f"difference order must be >= 1, got {d}")
    if c <= d:
        raise ValueError(f"need more coefficients than the difference order, got c={c}, d={d}")
    return np.diff(np.eye(c), n=d, axis=0)
