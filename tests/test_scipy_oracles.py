"""The numpy-only basis and support hull against scipy, which only the tests use.

``evaluate_basis`` is checked against ``scipy.interpolate.BSpline.design_matrix`` and
``_support_hull`` against ``scipy.spatial.ConvexHull`` (Qhull).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline
from scipy.spatial import ConvexHull, QhullError

import hazard2ts as h
from hazard2ts.basis import _EDGE_RTOL
from hazard2ts.smooth2d import _support_hull


def scipy_design(x, kv):
    return BSpline.design_matrix(x, kv.knots, kv.degree).toarray()


class TestBasisAgainstBSpline:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("lo, hi, n_segments", [(0.0, 10.0, 7), (50.0, 100.0, 13),
                                                    (-3.3, 7.1, 1), (0.0, 10.5, 2)])
    def test_design_rows_match(self, degree, lo, hi, n_segments):
        kv = h.make_knots(lo, hi, n_segments, degree)
        slack = 0.5 * _EDGE_RTOL * max(abs(lo), abs(hi), 1.0)
        x = np.concatenate([np.linspace(lo, hi, 301), kv.knots[degree:degree + n_segments + 1],
                            [lo, hi, lo - slack, hi + slack, np.nextafter(hi, lo),
                             np.nextafter(lo, hi)]])
        B = h.evaluate_basis(x, kv)
        # the slack points lie off the ends, and are evaluated at them
        assert np.max(np.abs(B - scipy_design(np.clip(x, lo, hi), kv))) <= 1e-13
        assert np.all(B >= 0.0)
        assert np.max(np.abs(B.sum(axis=1) - 1.0)) <= 1e-13

    @given(x=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20),
           degree=st.integers(0, 4), n_segments=st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_design_rows_match_property(self, x, degree, n_segments):
        kv = h.make_knots(0.0, 10.0, n_segments, degree)
        B = h.evaluate_basis(x, kv)
        assert np.max(np.abs(B - scipy_design(np.asarray(x), kv))) <= 1e-13
        assert np.all(B >= 0.0)


def qhull_vertices(pts):
    """Qhull's hull vertices, or None where Qhull finds the points degenerate."""
    try:
        return pts[ConvexHull(pts).vertices]
    except QhullError:
        return None


def signed_area(v):
    return 0.5 * np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])


GRIDS = [h.build_grid(50, 100, 1, 0, 10.5, 0.5), h.build_grid(0, 3, 0.1, 0, 2, 0.1),
         h.build_grid(-1.3, 2.2, 0.35, 0.7, 3.1, 0.3), h.build_grid(1000, 1003, 0.25, 0, 1, 0.05)]


class TestSupportHullAgainstQhull:
    @given(data=st.data(), which=st.integers(0, len(GRIDS) - 1))
    @settings(max_examples=200, deadline=None)
    def test_vertices_match_qhull(self, data, which):
        grid = GRIDS[which]
        shape = (len(grid.u_mid), len(grid.s_mid))
        cells = data.draw(st.lists(st.tuples(st.integers(0, shape[0] - 1),
                                             st.integers(0, shape[1] - 1)),
                                   min_size=1, max_size=40))
        mask = np.zeros(shape, dtype=bool)
        mask[tuple(np.array(cells).T)] = True
        uu, ss = np.meshgrid(grid.u_mid, grid.s_mid, indexing="ij")
        pts = np.column_stack([uu[mask], ss[mask]])

        kind, hull = _support_hull(grid, mask)
        ref = qhull_vertices(pts) if len(pts) >= 3 else None
        if ref is None:   # fewer than 3 points, or all on one line
            assert kind == "box"
            assert hull == (pts[:, 0].min(), pts[:, 0].max(), pts[:, 1].min(), pts[:, 1].max())
            return
        assert kind == "polygon"
        assert sorted(map(tuple, hull)) == sorted(map(tuple, ref))
        assert signed_area(hull) > 0          # counterclockwise

    def test_collinear_and_few_points_give_a_box(self):
        grid = h.build_grid(0, 5, 1, 0, 5, 1)
        for cells in ([(0, 0)], [(0, 0), (3, 2)], [(0, 0), (1, 1), (2, 2), (4, 4)],
                      [(2, 0), (2, 1), (2, 4)]):
            mask = np.zeros((5, 5), dtype=bool)
            mask[tuple(np.array(cells).T)] = True
            assert _support_hull(grid, mask)[0] == "box"

    def test_points_on_edges_are_no_vertices(self):
        grid = h.build_grid(0, 5, 1, 0, 5, 1)
        kind, hull = _support_hull(grid, np.ones((5, 5), dtype=bool))
        assert kind == "polygon"
        assert hull.tolist() == [[0.5, 0.5], [4.5, 0.5], [4.5, 4.5], [0.5, 4.5]]
