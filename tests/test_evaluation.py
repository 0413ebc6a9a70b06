"""The shared evaluation layer: quadrature and delta-SE kernels, the support
hull test, and models restored from model.json."""

import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hazard2ts as h
from hazard2ts import incidence, uncertainty
from hazard2ts.cli import load_config, load_model, save_model
from hazard2ts.incidence import in_support
from hazard2ts.smooth2d import _support_hull


# -- oracles ------------------------------------------------------------------

def in_support_scalar(hull, u, s, atol=1e-9):
    """One point at a time, edge by edge: the reference for the vectorized test."""
    kind, data = hull
    if kind == "box":
        u_min, u_max, s_min, s_max = data
        return bool(u_min - atol <= u <= u_max + atol and s_min - atol <= s <= s_max + atol)
    verts = np.asarray(data)
    n = len(verts)
    scale = max(np.abs(verts).max(), 1.0)
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        cross = (bx - ax) * (s - ay) - (by - ay) * (u - ax)
        if cross < -atol * scale:
            return False
    return True


def dense_paired(fits, u, s, delta):
    """Cumulative hazards, CIFs and survival at paired points, all rows at once."""
    K = np.floor(s / delta + 1e-9).astype(int)
    nodes = delta * np.arange(K.max())
    lam = {ell: np.exp(h.evaluate_basis(u, f.kv_u) @ f.A @ h.evaluate_basis(nodes, f.kv_s).T)
           for ell, f in fits.items()}
    before = np.arange(len(nodes))[None, :] < K[:, None]       # nodes below each s
    lam_tot = sum(lam.values())
    S_nodes = np.exp(-(np.cumsum(lam_tot * delta, axis=1) - lam_tot * delta))
    cumhaz = {ell: np.sum(np.where(before, lam[ell] * delta, 0.0), axis=1) for ell in fits}
    cif = {ell: np.sum(np.where(before, lam[ell] * S_nodes * delta, 0.0), axis=1)
           for ell in fits}
    return cumhaz, cif, np.exp(-sum(cumhaz.values()))


def loop_paired(fits, u, s, delta):
    """Cumulative hazards, CIFs and survival at paired points, one point and one node at a
    time: left rectangles at the nodes k * delta, k < K = floor(s / delta + 1e-9)."""
    K = [math.floor(s_i / delta + 1e-9) for s_i in s]
    nodes = delta * np.arange(max(K, default=0))
    Bs = {ell: h.evaluate_basis(nodes, f.kv_s) for ell, f in fits.items()}
    cumhaz = {ell: np.zeros(len(u)) for ell in fits}
    cif = {ell: np.zeros(len(u)) for ell in fits}
    survival = np.ones(len(u))
    for i, K_i in enumerate(K):
        lam = {ell: np.exp(h.evaluate_basis(u[i:i + 1], f.kv_u) @ f.A @ Bs[ell][:K_i].T)[0]
               for ell, f in fits.items()}
        total = 0.0                           # the total hazard summed over earlier nodes
        for k in range(K_i):
            before = math.exp(-total)         # survival just before node k
            for ell in fits:
                cumhaz[ell][i] += lam[ell][k] * delta
                cif[ell][i] += lam[ell][k] * delta * before
            total += sum(lam[ell][k] for ell in fits) * delta
        survival[i] = math.exp(-sum(cumhaz[ell][i] for ell in fits))
    return cumhaz, cif, survival


def triangular_fits():
    """Two fits on exposure confined to a lower triangle of a 10 x 10 grid."""
    grid = h.build_grid(0, 10, 1, 0, 10, 1)
    R = np.zeros((10, 10))
    for i in range(10):
        R[i, : max(1, 10 - i)] = 20.0
    rng = np.random.default_rng(3)
    kv = h.make_knots(0, 10, 4, 3)
    Y = {ell: np.where(R > 0, rng.poisson(lam * 20.0, size=R.shape), 0).astype(float)
         for ell, lam in ((1, 0.2), (2, 0.1))}
    data = h.BinnedData(grid=grid, Y=Y, R=R)
    fits = {ell: h.fit_hazard(data, ell, kv, kv, h.PenaltyConfig(2.0, 2.0, 2)) for ell in (1, 2)}
    return grid, fits


@pytest.fixture(scope="module")
def tri():
    return triangular_fits()


# -- support hull ---------------------------------------------------------------

small_grid = h.build_grid(0, 6, 1, 0, 5, 1)


def _cells_mask(cells):
    mask = np.zeros((6, 5), dtype=bool)
    mask[tuple(np.array(list(cells)).T)] = True
    return mask


# dense random supports (polygons) and one to three cells (mostly boxes)
masks = st.one_of(
    st.lists(st.booleans(), min_size=30, max_size=30).filter(any).map(
        lambda bits: np.array(bits).reshape(6, 5)),
    st.sets(st.tuples(st.integers(0, 5), st.integers(0, 4)), min_size=1, max_size=3).map(
        _cells_mask),
)
coords = st.floats(-1.0, 7.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(mask=masks, u=st.lists(coords, min_size=1, max_size=40),
       s=st.lists(coords, min_size=1, max_size=40))
def test_vectorized_support_matches_scalar_on_random_points(mask, u, s):
    hull = _support_hull(small_grid, mask)
    n = min(len(u), len(s))
    u, s = np.array(u[:n]), np.array(s[:n])
    want = [in_support_scalar(hull, a, b) for a, b in zip(u, s)]
    assert in_support(hull, u, s).tolist() == want


@settings(max_examples=60, deadline=None)
@given(mask=masks, frac=st.floats(0.0, 1.0), shift=st.sampled_from([0.0, 1e-12, -1e-12, 1e-6]))
def test_vectorized_support_matches_scalar_on_vertices_and_edges(mask, frac, shift):
    hull = _support_hull(small_grid, mask)
    kind, data = hull
    if kind == "box":
        u_min, u_max, s_min, s_max = data
        verts = np.array([[u_min, s_min], [u_max, s_min], [u_max, s_max], [u_min, s_max]])
    else:
        verts = np.asarray(data)
    edge = verts + frac * (np.roll(verts, -1, axis=0) - verts)
    pts = np.vstack([verts, edge]) + shift
    want = [in_support_scalar(hull, a, b) for a, b in pts]
    assert in_support(hull, pts[:, 0], pts[:, 1]).tolist() == want


def test_box_hull_for_collinear_support():
    mask = np.zeros((6, 5), dtype=bool)
    mask[:, 2] = True                      # one column of bins: a segment
    hull = _support_hull(small_grid, mask)
    assert hull[0] == "box"
    u = np.array([0.5, 5.5, 3.0, 3.0, 0.5 - 1e-6, 0.5 - 1e-12, 5.5 + 1e-12])
    s = np.array([2.5, 2.5, 2.5, 2.6, 2.5, 2.5 + 1e-12, 2.5 - 1e-12])
    assert in_support(hull, u, s).tolist() == [in_support_scalar(hull, a, b)
                                               for a, b in zip(u, s)]


# -- chunked kernels --------------------------------------------------------------

@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_paired_kernel_matches_dense_at_chunk_boundary(tri, offset):
    grid, fits = tri
    n = incidence._CHUNK + offset
    rng = np.random.default_rng(n)
    u, s = rng.uniform(0, 10, n), rng.uniform(0, 10, n)
    surf = h.surfaces_at_points(fits, u, s, 0.05)
    cumhaz, cif, survival = dense_paired(fits, u, s, 0.05)
    for ell in fits:
        np.testing.assert_allclose(surf.cumhaz[ell][:, 0], cumhaz[ell], rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(surf.cif[ell][:, 0], cif[ell], rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(surf.survival[:, 0], survival, rtol=1e-12)


@pytest.mark.parametrize("n", [0, 1, incidence._CHUNK - 1, incidence._CHUNK,
                               incidence._CHUNK + 1])
def test_paired_kernel_matches_a_loop_over_the_nodes_of_each_point(tri, n):
    """Unsorted points, s = 0, s on a node and one ulp below it, s below the first node
    (K = 0) and uniform s: the kernel gives the node-by-node sums of each point to 1e-13, and
    exactly 0 and 1 at s = 0."""
    grid, fits = tri
    delta, rng = 0.05, np.random.default_rng(n)
    node = delta * rng.integers(1, 200, n)
    s = np.choose(rng.integers(0, 5, n), [np.zeros(n), node, np.nextafter(node, 0),
                                          rng.uniform(0, delta, n), rng.uniform(0, 10, n)])
    u = rng.uniform(0, 10, n)
    surf = h.surfaces_at_points(fits, u, s, delta)
    cumhaz, cif, survival = loop_paired(fits, u, s, delta)
    for ell in fits:
        np.testing.assert_allclose(surf.cumhaz[ell][:, 0], cumhaz[ell], rtol=1e-13, atol=0)
        np.testing.assert_allclose(surf.cif[ell][:, 0], cif[ell], rtol=1e-13, atol=0)
        assert (surf.cumhaz[ell][s == 0] == 0).all() and (surf.cif[ell][s == 0] == 0).all()
    np.testing.assert_allclose(surf.survival[:, 0], survival, rtol=1e-13, atol=0)
    assert (surf.survival[s == 0] == 1).all() and surf.survival.shape == (n, 1)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_se_kernel_matches_dense_at_chunk_boundary(tri, offset):
    grid, fits = tri
    n = uncertainty._CHUNK + offset
    rng = np.random.default_rng(n)
    u, s = rng.uniform(0, 10, n), rng.uniform(0, 10, n)
    Bu = h.evaluate_basis(u, fits[1].kv_u)
    Bs = h.evaluate_basis(s, fits[1].kv_s)
    X = np.stack([np.kron(Bs[i], Bu[i]) for i in range(n)])
    dense = np.sqrt(np.sum((X @ fits[1].covariance) * X, axis=1))
    got = h.se_log_hazard_points(fits[1], u, s)
    np.testing.assert_allclose(got, dense, rtol=1e-12)


# node values of s (delta = 0.05 on [0, 10]): no node, first nodes, a node edge, the top
node_s = st.one_of(st.sampled_from([0.0, 0.01, 0.0499, 0.05, 0.1, 9.95, 10.0]),
                   st.floats(0.0, 10.0))


@settings(max_examples=60, deadline=None)
@given(base=st.lists(st.tuples(st.floats(0.0, 10.0), node_s), min_size=1, max_size=12),
       picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=40), chunk=st.integers(1, 9))
@example(base=[(1.0, 0.0), (2.0, 10.0), (3.0, 0.02), (4.0, 5.0)],
         picks=[1, 0, 3, 2, 1, 0, 0, 2, 1, 3, 1], chunk=2)
def test_paired_kernel_matches_dense_on_unsorted_repeated_points(tri, base, picks, chunk):
    grid, fits = tri
    u, s = np.array([base[i % len(base)] for i in picks]).T
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(incidence, "_CHUNK", chunk)
        surf = h.surfaces_at_points(fits, u, s, 0.05)
    cumhaz, cif, survival = dense_paired(fits, u, s, 0.05)
    for ell in fits:
        np.testing.assert_allclose(surf.cumhaz[ell][:, 0], cumhaz[ell], rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(surf.cif[ell][:, 0], cif[ell], rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(surf.survival[:, 0], survival, rtol=1e-12)


@pytest.mark.parametrize("chunk", [1, 3, 1024])
def test_product_grid_on_unsorted_repeated_s_is_the_sorted_grid_permuted(tri, monkeypatch,
                                                                         chunk):
    """s out of order and repeated, s = 0 and s on the top node among them, so that sums over
    every node end anywhere in a chunk's last row: each column is the sorted call's column,
    bit for bit, and the node-by-node sums of its points to 1e-13."""
    grid, fits = tri
    monkeypatch.setattr(incidence, "_CHUNK", chunk)
    u = np.array([0.5, 9.5, 3.0, 7.25, 5.0])
    s = np.array([10.0, 0.0, 2.5, 10.0, 0.03, 5.0, 0.0, 2.5, 9.97, 10.0, 0.05])
    order = np.argsort(s, kind="stable")
    got, want = (h.compute_surfaces(fits, u, points, 0.05) for points in (s, s[order]))
    back = np.argsort(order)
    for ell in fits:
        for name in ("cumhaz", "cif"):
            assert getattr(got, name)[ell].tobytes() == getattr(want, name)[ell][:, back].tobytes()
        np.testing.assert_allclose(got.hazard[ell], want.hazard[ell][:, back], rtol=1e-14)
    assert got.survival.tobytes() == want.survival[:, back].tobytes()
    assert (got.extrapolated == want.extrapolated[:, back]).all()
    uu, ss = np.meshgrid(u, s, indexing="ij")
    cumhaz, cif, survival = loop_paired(fits, uu.ravel(), ss.ravel(), 0.05)
    for ell in fits:
        np.testing.assert_allclose(got.cumhaz[ell].ravel(), cumhaz[ell], rtol=1e-13, atol=0)
        np.testing.assert_allclose(got.cif[ell].ravel(), cif[ell], rtol=1e-13, atol=0)
    np.testing.assert_allclose(got.survival.ravel(), survival, rtol=1e-13, atol=0)
    assert (got.survival[:, s == 0] == 1).all()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 8), width=st.integers(0, 12), m=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
@example(n=1, width=0, m=1, seed=0)
@example(n=3, width=1, m=2, seed=1)
def test_sums_over_the_first_nodes_are_row_local(n, width, m, seed):
    """Sums over each row's first K nodes: those of a subset of the rows, in any order and
    repeated, are the bits of the same rows of the full call; they match a loop over each
    row to 1e-13; K = 0 gives exactly 0, and K = width works on the last row."""
    rng = np.random.default_rng(seed)
    x = rng.lognormal(0.0, 2.0, (n, width))
    K = rng.integers(0, width + 1, (n, m))
    K[-1, rng.integers(m)] = width
    sub = rng.integers(0, n, rng.integers(1, 2 * n + 1))

    def sum_first(rows):
        flat = np.zeros(len(rows) * width + 1)          # the rows, then the spare 0
        flat[:-1] = x[rows].ravel()
        return incidence._sum_first(flat, K[rows])

    full = sum_first(np.arange(n))
    want = np.array([[x[i, :k].sum() for k in K[i]] for i in range(n)])
    np.testing.assert_allclose(full, want, rtol=1e-13, atol=0)
    assert (full[K == 0] == 0).all() and full.shape == K.shape
    assert sum_first(sub).tobytes() == full[sub].tobytes()


@settings(max_examples=80, deadline=None)
@given(p_u=st.integers(0, 4), p_s=st.integers(0, 4), seg_u=st.integers(1, 5),
       seg_s=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       n_random=st.integers(0, 30), chunk=st.integers(1, 7))
def test_windowed_se_kernel_matches_dense_quadratic_form(p_u, p_s, seg_u, seg_s, seed,
                                                         n_random, chunk):
    kv_u, kv_s = h.make_knots(0, 10, seg_u, p_u), h.make_knots(0, 5, seg_s, p_s)
    rng = np.random.default_rng(seed)
    # random points, then every pair of knots: domain ends and corners included, where
    # windows hold exact zeros
    knots_u, knots_s = np.linspace(0, 10, seg_u + 1), np.linspace(0, 5, seg_s + 1)
    u = np.concatenate([rng.uniform(0, 10, n_random), np.repeat(knots_u, len(knots_s))])
    s = np.concatenate([rng.uniform(0, 5, n_random), np.tile(knots_s, len(knots_u))])
    Bu, Bs = h.evaluate_basis(u, kv_u), h.evaluate_basis(s, kv_s)
    n_coef = kv_u.n_basis * kv_s.n_basis
    M = rng.standard_normal((n_coef, n_coef))
    Sigma = M @ M.T / n_coef + np.eye(n_coef)
    # the s-part as a basis window, and as a dense row of c_s values (the CIF gradients)
    dense = rng.standard_normal((len(u), kv_s.n_basis))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(uncertainty, "_CHUNK", chunk)
        for s_window, S in [(h.BasisRows(s).window(kv_s), Bs),
                            ((np.zeros(len(u), dtype=int), dense), dense)]:
            X = np.stack([np.kron(S[i], Bu[i]) for i in range(len(u))])
            got = uncertainty._row_variance(h.BasisRows(u).window(kv_u), s_window,
                                            kv_u.n_basis, Sigma)
            np.testing.assert_allclose(got, np.sum((X @ Sigma) * X, axis=1), rtol=1e-12)


# -- the number of CPUs ------------------------------------------------------------

def test_kernels_give_the_same_bits_on_any_number_of_cpus(tri, monkeypatch):
    grid, fits = tri
    rng = np.random.default_rng(8)
    n = 3 * incidence._CHUNK + 5
    u, s = rng.uniform(0, 10, n), rng.uniform(0, 10, n)
    runs = []
    for cpus in ({0}, {0, 1, 2}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        runs.append((h.surfaces_at_points(fits, u, s, 0.05),
                     h.cif_standard_errors(fits, np.linspace(0, 10, 70), grid.s_mid, 0.05)))
    assert_bitwise_equal(*runs)


# -- models restored from model.json ----------------------------------------------

def assert_bitwise_equal(a, b, where="fit"):
    """``a`` and ``b`` equal field by field, item by item, and arrays byte for byte."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for f in dataclasses.fields(a):
            assert_bitwise_equal(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, (dict, list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), where
        for key in (a if isinstance(a, dict) else range(len(a))):
            assert_bitwise_equal(a[key], b[key], f"{where}[{key!r}]")
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), where
    else:
        assert a == b, where


@settings(max_examples=40, deadline=None)
@given(n_u=st.integers(3, 9), n_s=st.integers(3, 7), c=st.tuples(*[st.integers(3, 9)] * 2),
       degree=st.tuples(*[st.integers(0, 3)] * 2), seed=st.integers(0, 2**16),
       log10_rho=st.tuples(*[st.sampled_from([-np.inf, 0.5, 2.0])] * 2),
       corner=st.integers(0, 2))
@example(n_u=6, n_s=5, c=(3, 3), degree=(2, 1), seed=0, log10_rho=(-np.inf, 2.0), corner=2)
@example(n_u=6, n_s=6, c=(6, 6), degree=(3, 3), seed=0, log10_rho=(-np.inf, -np.inf), corner=2)
@example(n_u=3, n_s=3, c=(3, 3), degree=(0, 2), seed=0, log10_rho=(0.5, -np.inf), corner=2)
@example(n_u=3, n_s=3, c=(3, 3), degree=(0, 0), seed=1, log10_rho=(-np.inf, -np.inf), corner=0)
def test_loaded_model_evaluates_like_in_memory_fits(tmp_path_factory, n_u, n_s, c, degree, seed,
                                                     log10_rho, corner):
    """Toy fits of any degree and knot count, a rho = 0 axis and a zero-exposure corner among
    them: the fits ``load_model`` restores from ``save_model`` hold every field of the fits in
    memory, bit for bit, and evaluate, flag and give standard errors bit for bit alike.  A
    draw that leaves coefficients undetermined is refused instead, exactly where the dense
    rank of the positive-exposure tensor rows and the penalized axes' difference rows, at
    singular values above 1e-5 of the largest, falls short (the second and third examples: 4
    of 36 and 2 of 9).  The CIF standard errors are the same bits too, or refused alike where
    they are not finite."""
    # more than d = 2 basis functions, at most one per bin, of a degree below their count
    c_u, c_s = min(c[0], n_u), min(c[1], n_s)
    deg_u, deg_s = min(degree[0], c_u - 1), min(degree[1], c_s - 1)
    grid = h.build_grid(0, n_u, 1, 0, n_s, 1)
    rng = np.random.default_rng(seed)
    R = np.full((n_u, n_s), 30.0)
    R[:corner, :corner] = 0.0
    Y = {ell: np.where(R > 0, rng.poisson(lam * R), 0).astype(float)
         for ell, lam in ((1, 0.2), (2, 0.1))}
    binned = h.BinnedData(grid=grid, Y=Y, R=R)
    kv_u, kv_s = h.make_knots(0, n_u, c_u - deg_u, deg_u), h.make_knots(0, n_s, c_s - deg_s, deg_s)
    Bu, Bs = h.evaluate_basis(grid.u_mid, kv_u), h.evaluate_basis(grid.s_mid, kv_s)
    rows = [np.kron(Bs[k], Bu[j]) for j, k in zip(*np.nonzero(R > 0))]
    if log10_rho[0] > -np.inf:
        rows += list(np.kron(np.eye(c_s), h.difference_matrix(c_u, 2)))
    if log10_rho[1] > -np.inf:
        rows += list(np.kron(h.difference_matrix(c_s, 2), np.eye(c_u)))
    # the singular values of the rows are the square roots of the eigenvalues of the structural
    # information, so the check's 1e-10 relative to the largest eigenvalue is 1e-5 here
    rows = np.array(rows)
    undetermined = c_u * c_s - np.linalg.matrix_rank(rows, tol=1e-5 * np.linalg.norm(rows, 2))
    if undetermined:
        for ell in (1, 2):
            with pytest.raises(h.DataError, match=f"^{undetermined} of {c_u * c_s} coefficients "
                                                  "are determined by neither"):
                h.fit_hazard(binned, ell, kv_u, kv_s, h.PenaltyConfig(*log10_rho, 2))
        return
    fits = {ell: h.fit_hazard(binned, ell, kv_u, kv_s, h.PenaltyConfig(*log10_rho, 2))
            for ell in (1, 2)}
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(path, load_config(None), fits)
    loaded = load_model(path)[1]
    assert_bitwise_equal(loaded, fits)

    # a corner point off the hull of the bin midpoints, interior points, the domain's top, a
    # point strictly inside the hull, and one inside the midpoints' bounding box that the
    # zero-exposure corner cuts off the hull (inside it when there is no corner)
    u = np.array([0.1, n_u / 2, n_u - 0.5, n_u, n_u / 2, n_u - 1, 0.6])
    s = np.array([0.1, n_s / 2, 0.5, n_s, 0.0, n_s - 1, 0.6])
    pairs = [(h.surfaces_at_points(fits, u, s, 0.05), h.surfaces_at_points(loaded, u, s, 0.05)),
             (h.surfaces_at_points(fits, h.age_at_diagnosis(u + s, s), s, 0.05),
              h.surfaces_at_points(loaded, h.age_at_diagnosis(u + s, s), s, 0.05))]
    for mem, disk in pairs:
        assert_bitwise_equal(disk, mem, "surfaces")
        assert mem.extrapolated[[0, 3, 4]].all()
        assert mem.extrapolated[5:].tolist() == [False, corner > 0]
    for ell in (1, 2):
        assert_bitwise_equal(h.se_log_hazard_points(loaded[ell], u, s),
                             h.se_log_hazard_points(fits[ell], u, s), "se_log_hazard_points")
    cif_se = []
    for models in (loaded, fits):
        try:
            cif_se.append(h.cif_standard_errors(models, u, s, delta=0.05))
        except h.DataError as exc:
            cif_se.append(str(exc))
    assert_bitwise_equal(*cif_se, "cif_se")


def test_loaded_triangular_model_flags_the_cut_off_corner(tri, tmp_path):
    """The triangular fits round trip: interior points unflagged, and (9.5, 9.5), inside the
    bounding box but outside the triangular hull, flagged on disk as in memory."""
    grid, fits = tri
    save_model(tmp_path / "model.json", load_config(None), fits)
    loaded = load_model(tmp_path / "model.json")[1]
    assert_bitwise_equal(loaded, fits)
    u = np.array([0.5, 2.5, 5.5, 9.5, 9.5])
    s = np.array([0.5, 6.5, 2.5, 0.5, 9.5])
    pairs = [(h.surfaces_at_points(fits, u, s, 0.05), h.surfaces_at_points(loaded, u, s, 0.05)),
             (h.surfaces_at_points(fits, h.age_at_diagnosis(u + s, s), s, 0.05),
              h.surfaces_at_points(loaded, h.age_at_diagnosis(u + s, s), s, 0.05))]
    for mem, disk in pairs:
        assert_bitwise_equal(disk, mem, "surfaces")
        assert mem.extrapolated.tolist() == [False, False, False, False, True]
