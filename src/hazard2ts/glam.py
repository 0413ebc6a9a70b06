"""Array kernels for tensor-product regression on a grid.

For grid data the model matrix is the Kronecker product ``Bs (x) Bu`` of the
two marginal bases, which is never formed here.  All kernels work on the
marginal matrices directly via row-tensor (box-product) rearrangements.

Vector convention: coefficient matrices A (c_u x c_s) are vectorized
column-major (Fortran order), so entry (l, m) sits at index ``m * c_u + l``.
Under this convention ``(Bs (x) Bu) vec(A) == vec(Bu A Bs')`` and the
penalty blocks built as ``kron(I_cs, Du'Du)`` act along the u-axis.
"""

from __future__ import annotations

import numpy as np


class ArrayModelWorkspace:
    """Holds the marginal bases and their precomputed row-tensor expansions.

    The expansions (n_u x c_u^2 and n_s x c_s^2) are the only large scratch
    objects; one workspace serves any number of calls and is never mutated.
    """

    def __init__(self, Bu: np.ndarray, Bs: np.ndarray):
        self.Bu = np.asarray(Bu, dtype=float)
        self.Bs = np.asarray(Bs, dtype=float)
        self.n_u, self.c_u = self.Bu.shape
        self.n_s, self.c_s = self.Bs.shape
        # row r of the expansion is the outer product of basis row r with itself
        self._rt_u = (self.Bu[:, :, None] * self.Bu[:, None, :]).reshape(self.n_u, self.c_u**2)
        self._rt_s = (self.Bs[:, :, None] * self.Bs[:, None, :]).reshape(self.n_s, self.c_s**2)

    @property
    def n_coef(self) -> int:
        return self.c_u * self.c_s


def linear_predictor(ws: ArrayModelWorkspace, A: np.ndarray) -> np.ndarray:
    """Evaluate ``Bu @ A @ Bs.T`` (the grid linear predictor) for coefficients A."""
    A = np.asarray(A, dtype=float)
    if A.shape != (ws.c_u, ws.c_s):
        raise ValueError(f"coefficient matrix must be {ws.c_u}x{ws.c_s}, got {A.shape}")
    return ws.Bu @ A @ ws.Bs.T


def weighted_inner(ws: ArrayModelWorkspace, W: np.ndarray, signed: bool = False) -> np.ndarray:
    """Weighted Gram matrix ``(Bs (x) Bu)' diag(vec W) (Bs (x) Bu)``.

    Computed through the row-tensor expansions in O(n_u n_s c_u^2 c_s^2)
    without materializing the model matrix; the result is symmetrized to
    remove round-off asymmetry before factorization.  Negative weights are
    refused unless ``signed`` (the result is then indefinite in general).
    """
    W = np.asarray(W, dtype=float)
    if W.shape != (ws.n_u, ws.n_s):
        raise ValueError(f"weight matrix must be {ws.n_u}x{ws.n_s}, got {W.shape}")
    if not signed and np.any(W < 0):
        raise ValueError("weights must be nonnegative")
    # core[(l,l'), (m,m')] = sum_jk Bu[j,l] Bu[j,l'] W[j,k] Bs[k,m] Bs[k,m']
    core = ws._rt_u.T @ W @ ws._rt_s
    core = core.reshape(ws.c_u, ws.c_u, ws.c_s, ws.c_s)
    # reorder to rows (m, l), columns (m', l') to match the vec convention
    gram = core.transpose(2, 0, 3, 1).reshape(ws.n_coef, ws.n_coef)
    return 0.5 * (gram + gram.T)


def quadratic_diagonal(ws: ArrayModelWorkspace, M: np.ndarray) -> np.ndarray:
    """The grid array of ``diag((Bs (x) Bu) M (Bs (x) Bu)')`` for a coefficient-space matrix M.

    ``M`` is rearranged into the (l, l') x (m, m') layout of :func:`weighted_inner`'s core and
    contracted with both row-tensor expansions, without materializing the model matrix.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (ws.n_coef, ws.n_coef):
        raise ValueError(f"matrix must be {ws.n_coef}x{ws.n_coef}, got {M.shape}")
    core = M.reshape(ws.c_s, ws.c_u, ws.c_s, ws.c_u).transpose(1, 3, 0, 2)
    return ws._rt_u @ core.reshape(ws.c_u**2, ws.c_s**2) @ ws._rt_s.T


def weighted_rhs(ws: ArrayModelWorkspace, V: np.ndarray) -> np.ndarray:
    """Right-hand side ``(Bs (x) Bu)' vec(V)`` as the vector ``vec(Bu' V Bs)``."""
    V = np.asarray(V, dtype=float)
    if V.shape != (ws.n_u, ws.n_s):
        raise ValueError(f"value matrix must be {ws.n_u}x{ws.n_s}, got {V.shape}")
    return (ws.Bu.T @ V @ ws.Bs).flatten(order="F")
