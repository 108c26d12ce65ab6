import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from camcurves import InputError, fit_log_curve, predict_metric, table1_presets

from conftest import observation_rows

# dataset-average trajectories over the six ladder sizes (18 points/metric)
SIZES = (10, 20, 50, 150, 500, 1000)
AVERAGES = {
    "ACC": {
        "AU": (0.89, 0.91, 0.94, 0.96, 0.99, 0.99),
        "SE": (0.90, 0.93, 0.94, 0.95, 0.97, 0.97),
        "WI": (0.87, 0.88, 0.92, 0.94, 0.96, 0.97),
    },
    "FPR": {
        "AU": (0.06, 0.05, 0.04, 0.02, 0.01, 0.00),
        "SE": (0.06, 0.04, 0.03, 0.03, 0.02, 0.02),
        "WI": (0.07, 0.06, 0.05, 0.03, 0.02, 0.02),
    },
}


def table(points, metric):
    """The observation table of (num_tr_images, value) points of one metric."""
    return observation_rows([v for _, v in points], [n for n, _ in points], metric=metric)


def average_points(metric):
    return [
        (n, v)
        for per_dataset in AVERAGES[metric].values()
        for n, v in zip(SIZES, per_dataset)
    ]


def fit(points, metric):
    return fit_log_curve(table(points, metric), metric)


class TestFitLogCurve:
    def test_exact_recovery_of_noiseless_law(self):
        points = [(n, 0.85 + 0.02 * math.log(n)) for n in SIZES]
        model = fit(points, "ACC")
        assert model.intercept == pytest.approx(0.85, abs=1e-12)
        assert model.slope == pytest.approx(0.02, abs=1e-12)
        assert model.adj_r_squared == pytest.approx(1.0, abs=1e-12)

    def test_refit_of_average_accuracy_trajectories(self):
        model = fit(average_points("ACC"), "ACC")
        assert model.slope == pytest.approx(0.02, abs=0.01)
        assert model.intercept == pytest.approx(0.85, abs=0.03)
        assert model.n_obs == 18

    def test_refit_of_average_fpr_trajectories(self):
        model = fit(average_points("FPR"), "FPR")
        assert model.slope == pytest.approx(0.01, abs=0.005)

    def test_too_few_points_rejected(self):
        with pytest.raises(InputError, match="need at least 3 points"):
            fit([(10, 0.5), (20, 0.6)], "ACC")

    def test_only_the_metric_rows_are_fitted(self):
        points = [(n, 0.85 + 0.02 * math.log(n)) for n in SIZES]
        acc, fpr = table(points, "ACC"), table([(n, 0.5) for n in SIZES[:2]], "FPR")
        mixed = np.concatenate([fpr, acc, fpr]).view(np.recarray)
        assert fit_log_curve(mixed, "ACC") == fit_log_curve(acc, "ACC")
        with pytest.raises(InputError, match="need at least 3 points to fit a curve, got 2"):
            fit_log_curve(fpr, "FPR")
        with pytest.raises(InputError, match="no observations with metric PRC"):
            fit_log_curve(mixed, "PRC")

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(InputError, match="degenerate"):
            fit([(10, 0.5), (10, 0.6), (10, 0.7)], "ACC")

    def test_residuals_orthogonal_to_regressor_and_constant(self):
        rng = np.random.default_rng(8)
        points = [(n, 0.4 + 0.07 * math.log(n) + rng.normal(0, 0.02)) for n in SIZES * 3]
        model = fit(points, "TPR")
        x = np.log([p[0] for p in points])
        y = np.array([p[1] for p in points])
        resid = y - model.intercept - model.slope * x
        scale = np.abs(y).sum()
        assert abs(resid.sum()) / scale < 1e-9
        assert abs(resid @ x) / (scale * np.abs(x).max()) < 1e-9

    def test_permutation_and_duplication_invariance(self):
        rng = np.random.default_rng(9)
        points = [(n, 0.4 + 0.07 * math.log(n) + rng.normal(0, 0.02)) for n in SIZES]
        model = fit(points, "PRC")
        shuffled = fit(points[::-1], "PRC")
        doubled = fit(points * 2, "PRC")
        assert shuffled.intercept == pytest.approx(model.intercept, abs=1e-12)
        assert shuffled.slope == pytest.approx(model.slope, abs=1e-12)
        assert doubled.intercept == pytest.approx(model.intercept, abs=1e-12)
        assert doubled.slope == pytest.approx(model.slope, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        metric=st.sampled_from(["ACC", "PRC", "TPR", "FPR"]),
        points=st.lists(
            st.tuples(st.integers(1, 10**5), st.integers(0, 1000).map(lambda v: v / 1000)),
            min_size=3,
            max_size=40,
        ).filter(lambda p: len({n for n, _ in p}) > 1 and len({v for _, v in p}) > 1),
    )
    def test_agrees_with_scipy_linregress(self, metric, points):
        # the oracle regresses on ln n, or on -ln n = ln(1/n) for FPR
        model = fit(points, metric)
        x = np.log([n for n, _ in points]) * (-1.0 if metric == "FPR" else 1.0)
        y = np.array([v for _, v in points])
        oracle = stats.linregress(x, y)
        # a coefficient near 0 is held to 1e-12 of its own scale, not to 1e-9 of itself
        slope_tol = 1e-12 * y.std() / x.std()
        intercept_tol = 1e-12 * (abs(y.mean()) + abs(oracle.slope * x.mean()))
        assert model.slope == pytest.approx(oracle.slope, rel=1e-9, abs=slope_tol)
        assert model.intercept == pytest.approx(oracle.intercept, rel=1e-9, abs=intercept_tol)
        n = len(points)
        adjusted = 1.0 - (1.0 - oracle.rvalue**2) * (n - 1) / (n - 2)
        assert model.adj_r_squared == pytest.approx(adjusted, rel=1e-9, abs=1e-9)
        assert model.n_obs == n

    def test_roundtrip_through_noiseless_points(self):
        model = fit(average_points("ACC"), "ACC")
        synth = [(n, model.intercept + model.slope * math.log(n)) for n in SIZES]
        refit = fit(synth, "ACC")
        assert refit.intercept == pytest.approx(model.intercept, abs=1e-12)
        assert refit.slope == pytest.approx(model.slope, abs=1e-12)


class TestPredictMetric:
    def test_preset_values(self):
        presets = table1_presets()
        assert predict_metric(presets["ACC"], 1000) == pytest.approx(0.988, abs=5e-4)
        assert predict_metric(presets["ACC"], 10) == pytest.approx(0.896, abs=5e-4)
        assert predict_metric(presets["FPR"], 1000) == pytest.approx(0.021, abs=5e-4)
        assert predict_metric(presets["PRC"], 10) == pytest.approx(0.547, abs=5e-4)

    def test_clamped_to_unit_interval(self):
        presets = table1_presets()
        assert predict_metric(presets["PRC"], 10**9) == 1.0
        assert predict_metric(presets["FPR"], 10**9) == 0.0

    def test_size_below_one_rejected(self):
        with pytest.raises(InputError):
            predict_metric(table1_presets()["ACC"], 0)

    def test_monotone_in_size(self):
        presets = table1_presets()
        grid = np.arange(1, 3000)
        for metric in ("ACC", "PRC", "TPR"):
            vals = [predict_metric(presets[metric], n) for n in grid]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
        fpr = [predict_metric(presets["FPR"], n) for n in grid]
        assert all(b <= a for a, b in zip(fpr, fpr[1:]))


class TestPresets:
    def test_one_preset_per_metric(self):
        presets = table1_presets()
        assert set(presets) == {"ACC", "PRC", "TPR", "FPR"}

    def test_coefficients(self):
        presets = table1_presets()
        assert (presets["ACC"].intercept, presets["ACC"].slope) == (0.85, 0.02)
        assert (presets["PRC"].intercept, presets["PRC"].slope) == (0.34, 0.09)
        assert presets["TPR"].intercept == 0.32
        assert presets["TPR"].adj_r_squared == 0.52
        assert (presets["FPR"].intercept, presets["FPR"].slope) == (0.09, 0.01)
