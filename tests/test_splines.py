import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camcurves import (
    InputError,
    basis_rows,
    centring,
    penalty_matrix,
    place_knots,
)
from camcurves.splines import centred_penalty, turning_points

LOG_LADDER = np.log([10.0, 20.0, 50.0, 150.0, 500.0, 1000.0])


def default_knots(k=5):
    return place_knots(LOG_LADDER, k)


class TestPlaceKnots:
    def test_rank_quantiles_over_log_ladder(self):
        knots = default_knots()
        assert knots.size == 5
        assert knots[0] == pytest.approx(np.log(10.0), abs=1e-12)
        assert knots[-1] == pytest.approx(np.log(1000.0), abs=1e-12)
        # rank 2.5 falls halfway between the 3rd and 4th distinct values
        assert knots[2] == pytest.approx((np.log(50.0) + np.log(150.0)) / 2, abs=1e-12)

    def test_two_values_three_knots(self):
        knots = place_knots([0.0, 1.0], 3)
        np.testing.assert_allclose(knots, [0.0, 0.5, 1.0])

    def test_too_few_knots_rejected(self):
        with pytest.raises(InputError):
            place_knots([0.0, 1.0], 2)

    def test_too_few_values_rejected(self):
        with pytest.raises(InputError):
            place_knots([3.0, 3.0], 5)


class TestBuildBasis:
    def test_cardinal_identity_at_knots(self):
        knots = default_knots()
        np.testing.assert_allclose(basis_rows(knots, knots), np.eye(5), atol=1e-12)

    def test_affine_functions_are_unpenalized(self):
        knots = default_knots()
        coef = 0.7 - 0.3 * knots  # spline equal to an affine function
        assert abs(coef @ penalty_matrix(knots) @ coef) < 1e-12

    def test_penalty_matches_integrated_squared_second_derivative(self):
        # oracle: trapezoid rule over a 10000-point grid; the second
        # derivative of a natural cubic interpolant is piecewise linear
        knots = default_knots()
        S = penalty_matrix(knots)
        rng = np.random.default_rng(0)
        for _ in range(5):
            coef = rng.normal(size=5)
            grid = np.linspace(knots[0], knots[-1], 10_000)
            h = grid[1] - grid[0]
            values = basis_rows(grid, knots) @ coef
            second = np.gradient(np.gradient(values, h), h)
            # drop edge cells where np.gradient is one-sided
            quad = np.trapezoid(second[2:-2] ** 2, grid[2:-2])
            target = coef @ S @ coef
            assert quad == pytest.approx(target, rel=1e-3)

    def test_penalty_matches_exact_second_derivative_oracle(self):
        # sharper oracle: evaluate the analytic piecewise-linear second
        # derivative on the grid, then trapezoid; relative error < 1e-6
        from camcurves.splines import _natural_spline_system

        knots = default_knots()
        F, _ = _natural_spline_system(knots)
        rng = np.random.default_rng(1)
        coef = rng.normal(size=5)
        grid = np.linspace(knots[0], knots[-1], 10_000)
        second = np.interp(grid, knots, F @ coef)
        quad = np.trapezoid(second**2, grid)
        target = coef @ penalty_matrix(knots) @ coef
        assert abs(quad - target) / abs(target) < 1e-6

    def test_penalty_positive_semidefinite(self):
        knots = default_knots()
        eigs = np.linalg.eigvalsh(penalty_matrix(knots))
        assert eigs.min() > -1e-10

    def test_penalty_invariant_under_affine_shift(self):
        knots = default_knots()
        S = penalty_matrix(knots)
        rng = np.random.default_rng(2)
        coef = rng.normal(size=5)
        shifted = coef + 1.3 - 0.8 * knots
        q0 = coef @ S @ coef
        q1 = shifted @ S @ shifted
        assert q0 == pytest.approx(q1, rel=1e-9)

    def test_smooth_across_knots(self):
        # one-sided finite-difference limits of f, f' and f'' agree at each
        # interior knot to 1e-6 relative
        knots = default_knots()
        rng = np.random.default_rng(3)
        coef = rng.normal(size=5)
        h = 1e-4

        def f(pts):
            return basis_rows(pts, knots) @ coef

        for t in knots[1:-1]:
            v_left, v_right = f([t - 1e-9, t + 1e-9])
            assert v_left == pytest.approx(v_right, rel=1e-6, abs=1e-9)
            # second-order one-sided first-derivative stencils at t
            fl = f([t - 2 * h, t - h, t])
            fr = f([t, t + h, t + 2 * h])
            d1_left = (3 * fl[2] - 4 * fl[1] + fl[0]) / (2 * h)
            d1_right = (-3 * fr[0] + 4 * fr[1] - fr[2]) / (2 * h)
            assert d1_left == pytest.approx(d1_right, rel=1e-6, abs=1e-8)
            # f'' is piecewise linear: central second differences inside each
            # segment extrapolate linearly to the knot
            gl = f([t - 3 * h, t - 2 * h, t - h, t])
            gr = f([t, t + h, t + 2 * h, t + 3 * h])
            d2_l1 = (gl[3] - 2 * gl[2] + gl[1]) / h**2  # f''(t - h)
            d2_l2 = (gl[2] - 2 * gl[1] + gl[0]) / h**2  # f''(t - 2h)
            d2_r1 = (gr[2] - 2 * gr[1] + gr[0]) / h**2  # f''(t + h)
            d2_r2 = (gr[3] - 2 * gr[2] + gr[1]) / h**2  # f''(t + 2h)
            d2_left = 2 * d2_l1 - d2_l2
            d2_right = 2 * d2_r1 - d2_r2
            assert d2_left == pytest.approx(d2_right, rel=1e-6, abs=1e-6)

    def test_linear_extrapolation_outside_knots(self):
        knots = default_knots()
        rng = np.random.default_rng(4)
        coef = rng.normal(size=5)
        lo, hi = knots[0], knots[-1]
        for a, b, c in [(lo - 2.0, lo - 1.0, lo - 0.5), (hi + 0.5, hi + 1.0, hi + 2.0)]:
            vals = basis_rows([a, b, c], knots) @ coef
            slope1 = (vals[1] - vals[0]) / (b - a)
            slope2 = (vals[2] - vals[1]) / (c - b)
            assert slope1 == pytest.approx(slope2, rel=1e-10)

    def test_non_finite_rejected(self):
        knots = default_knots()
        with pytest.raises(InputError):
            basis_rows([np.nan], knots)

    def test_deterministic_construction(self):
        knots = default_knots()
        x = np.linspace(2.0, 7.0, 40)
        assert np.array_equal(basis_rows(x, knots), basis_rows(x, knots))
        assert np.array_equal(penalty_matrix(knots), penalty_matrix(knots))


class TestCenterBasis:
    def setup_method(self):
        self.knots = default_knots()
        self.x = np.repeat(LOG_LADDER, 7)
        self.rows = basis_rows(self.x, self.knots)
        self.Z = centring(self.rows, np.ones(self.x.size))

    def test_rank_drops_by_one(self):
        assert self.Z.shape == (5, 4)

    def test_columns_sum_to_zero_over_data(self):
        np.testing.assert_allclose((self.rows @ self.Z).sum(axis=0), 0.0, atol=1e-10)

    def test_constant_fit_through_centered_basis_is_zero(self):
        centred = self.rows @ self.Z
        coef, *_ = np.linalg.lstsq(centred, np.ones(self.x.size), rcond=None)
        np.testing.assert_allclose(centred @ coef, 0.0, atol=1e-10)

    def test_penalty_is_the_raw_penalty_in_centred_coordinates(self):
        S = penalty_matrix(self.knots)
        penalty = centred_penalty(S, self.Z)
        assert penalty.shape == (4, 4)
        assert np.array_equal(penalty, penalty.T)
        np.testing.assert_allclose(penalty, self.Z.T @ S @ self.Z, atol=1e-12)

    @pytest.mark.parametrize("weights", [np.zeros(42), np.r_[np.ones(41), -41.0]])
    def test_weights_without_a_positive_sum_are_rejected(self, weights):
        with pytest.raises(InputError, match="positive sum"):
            centring(self.rows, weights)


@st.composite
def knot_arrays(draw):
    """3 to 8 strictly increasing knots with gaps of at least 0.05."""
    start = draw(st.floats(-10.0, 10.0))
    gaps = draw(st.lists(st.floats(0.05, 5.0), min_size=2, max_size=7))
    return start + np.cumsum([0.0, *gaps])


# covariate values inside and well outside any drawn knot range
covariates = st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=30)


def test_a_turn_at_a_knot_is_found():
    # the spline's minimum is at the middle knot, where rounding puts each
    # interval's root just outside it
    knots = np.array([0.0, 0.0546875, 0.109375])
    points = turning_points([0.3125, 0.0, 0.3125], knots)
    assert points.size and np.all(points == knots[1])


class TestSplineProperties:
    @settings(max_examples=80, deadline=None)
    @given(knots=knot_arrays(), x=covariates)
    def test_every_row_sums_to_one(self, knots, x):
        rows = basis_rows(x, knots)
        scale = 1.0 + np.abs(rows).sum(axis=1)
        assert np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-9 * scale)

    @settings(max_examples=80, deadline=None)
    @given(knots=knot_arrays(), x=covariates, data=st.data())
    def test_centred_rows_sum_to_zero_under_their_weights(self, knots, x, data):
        w = data.draw(st.lists(st.floats(0.01, 100.0), min_size=len(x), max_size=len(x)))
        weights = np.array(w)
        rows = basis_rows(x, knots)
        Z = centring(rows, weights)
        scale = weights @ np.abs(rows).max(axis=1)
        assert np.all(np.abs(weights @ (rows @ Z)) <= 1e-9 * scale)
        np.testing.assert_allclose(Z.T @ Z, np.eye(knots.size - 1), atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(knots=knot_arrays(), data=st.data())
    def test_turning_points_are_where_the_slope_changes_sign(self, knots, data):
        values = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=knots.size,
                                             max_size=knots.size)))
        points = turning_points(values, knots)
        assert np.all(np.diff(points) >= 0.0)
        assert np.all((points >= knots[0]) & (points <= knots[-1]))
        # the slope is 0 at each point, by central differences
        step = 1e-6
        slope = (basis_rows(points + step, knots) - basis_rows(points - step, knots)) @ values
        curvature = np.abs(values).max() / np.diff(knots).min() ** 2
        assert np.all(np.abs(slope) / (2 * step) <= 1e-6 * (curvature + 1.0))
        # every sign change of the slope on a fine grid lies next to a point
        x = np.linspace(knots[0] - 1.0, knots[-1] + 1.0, 20_001)
        rise = np.diff(basis_rows(x, knots) @ values)
        clear = np.abs(rise) > 1e-9 * (x[1] - x[0])
        turns = x[1:-1][(rise[1:] * rise[:-1] < 0.0) & clear[1:] & clear[:-1]]
        for turn in turns:
            assert np.abs(points - turn).min() <= 2 * (x[1] - x[0])
