import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hazard2ts as h
from hazard2ts.errors import DomainError


class TestMakeKnots:
    def test_basis_count(self):
        assert h.make_knots(0, 10, 7, 3).n_basis == 10

    def test_sixteen_functions_on_age_axis(self):
        # 13 segments + degree 3 over [50, 100]
        kv = h.make_knots(50, 100, 13, 3)
        assert kv.n_basis == 16

    def test_exact_spacing(self):
        kv = h.make_knots(0, 10.5, 7, 3)
        assert np.all(np.diff(kv.knots) == 1.5)

    def test_extension_by_degree_knots(self):
        kv = h.make_knots(0, 10, 5, 3)
        assert len(kv.knots) == 5 + 1 + 2 * 3
        assert kv.knots[3] == 0.0 and kv.knots[-4] == 10.0

    @pytest.mark.parametrize("bad", [(np.nan, 1), (0, np.inf), (1, 1), (2, 1)])
    def test_invalid_bounds(self, bad):
        with pytest.raises(ValueError):
            h.make_knots(bad[0], bad[1], 4, 3)

    def test_invalid_segments(self):
        with pytest.raises(ValueError):
            h.make_knots(0, 1, 0, 3)


class TestEvaluateBasis:
    def test_degree_zero_is_indicator(self):
        kv = h.make_knots(0, 5, 5, 0)
        B = h.evaluate_basis([2.0], kv)
        assert B.shape == (1, 5)
        assert B[0, 2] == 1.0 and B.sum() == 1.0

    def test_partition_of_unity_cubic(self):
        kv = h.make_knots(0, 10, 7, 3)
        B = h.evaluate_basis(np.linspace(0, 10, 101), kv)
        assert np.allclose(B.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((B != 0).sum(axis=1) <= 4)
        assert np.all(B >= 0)

    def test_midpoint_grid_dimensions(self):
        # 50 half-open age bins, 16 cubic basis functions
        grid = h.build_grid(50, 100, 1, 0, 10.5, 0.5)
        kv = h.make_knots(50, 100, 13, 3)
        B = h.evaluate_basis(grid.u_mid, kv)
        assert B.shape == (50, 16)

    def test_upper_boundary_maps_to_last_interval(self):
        kv = h.make_knots(0, 5, 5, 0)
        B = h.evaluate_basis([5.0], kv)
        assert B[0, -1] == 1.0

    def test_outside_domain_raises(self):
        kv = h.make_knots(0, 10, 7, 3)
        with pytest.raises(DomainError) as err:
            h.evaluate_basis([-0.5, 3.0, 11.0], kv)
        assert len(err.value.points) == 2

    def test_nan_point_is_outside_the_domain(self):
        kv = h.make_knots(0, 10, 7, 3)
        with pytest.raises(DomainError) as err:
            h.evaluate_basis([3.0, float("nan")], kv)
        assert len(err.value.points) == 1 and np.isnan(err.value.points[0])

    def test_no_points_give_no_rows(self):
        kv = h.make_knots(0, 10, 7, 3)
        B = h.evaluate_basis([], kv)
        assert B.shape == (0, kv.n_basis)

    def test_identity_reproduction(self):
        # degree >= 1 bases contain the identity function on the domain
        kv = h.make_knots(0, 10, 7, 3)
        x = np.linspace(0, 10, 60)
        B = h.evaluate_basis(x, kv)
        coef, *_ = np.linalg.lstsq(B, x, rcond=None)
        assert np.linalg.norm(B @ coef - x) < 1e-8

    @given(
        x=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        degree=st.integers(min_value=0, max_value=4),
        n_segments=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_partition_of_unity_property(self, x, degree, n_segments):
        kv = h.make_knots(0, 10, n_segments, degree)
        row = h.evaluate_basis([x], kv)[0]
        assert abs(row.sum() - 1.0) < 1e-12
        assert (row != 0).sum() <= degree + 1


class TestDifferenceMatrix:
    def test_second_order_stencil(self):
        D = h.difference_matrix(4, 2)
        assert np.array_equal(D, [[1, -2, 1, 0], [0, 1, -2, 1]])

    def test_first_order(self):
        D = h.difference_matrix(4, 1)
        assert D.shape == (3, 4)
        p = np.array([3.0, 5.0, 2.0, 9.0])
        assert np.array_equal(D @ p, np.diff(p))

    def test_annihilates_linear_ramp(self):
        D = h.difference_matrix(16, 2)
        ramp = np.arange(1.0, 17.0)
        assert np.array_equal(D @ ramp, np.zeros(14))

    def test_rejects_too_few_coefficients(self):
        with pytest.raises(ValueError):
            h.difference_matrix(2, 2)
        with pytest.raises(ValueError):
            h.difference_matrix(4, 0)

    @given(
        c=st.integers(min_value=3, max_value=20),
        d=st.integers(min_value=1, max_value=2),
        coeffs=st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_annihilates_low_degree_polynomials(self, c, d, coeffs):
        # any polynomial of degree < d over the index sequence maps to zero
        if len(coeffs) > d:
            coeffs = coeffs[:d]
        D = h.difference_matrix(c, d)
        idx = np.arange(1.0, c + 1.0)
        poly = sum(a * idx**k for k, a in enumerate(coeffs))
        assert np.array_equal(D @ poly, np.zeros(c - d))
