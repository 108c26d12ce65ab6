import math
from itertools import product

import numpy as np
import pytest

from camcurves import (
    InfeasiblePlanError,
    InputError,
    LearningCurveModel,
    PlanQuery,
    betagam,
    gam_required_sample_size,
    plan_report,
    planner,
    required_sample_size,
    table1_presets,
)
from camcurves.betagam import ModelSpec, SmoothTerm
from camcurves.curves import predict_metric

from conftest import observation_rows


class TestLogCurveInversion:
    def test_accuracy_target(self):
        result = required_sample_size(table1_presets()["ACC"], PlanQuery("ACC", 0.95))
        assert result.required_n == 149
        assert result.predicted_value >= 0.95
        assert not result.extrapolated

    def test_fpr_target(self):
        result = required_sample_size(table1_presets()["FPR"], PlanQuery("FPR", 0.02))
        assert result.required_n == 1097
        assert result.predicted_value <= 0.02
        assert result.extrapolated  # beyond the 10..1000 ladder the curve was built on

    def test_target_already_met_at_one(self):
        result = required_sample_size(table1_presets()["ACC"], PlanQuery("ACC", 0.80))
        assert result.required_n == 1

    def test_wrong_slope_direction_unattainable(self):
        falling = LearningCurveModel(
            metric="ACC", intercept=0.6, slope=-0.01,
            adj_r_squared=0.5, n_obs=6,
        )
        result = required_sample_size(falling, PlanQuery("ACC", 0.9))
        assert result.required_n is None

    def test_worsening_curve_must_meet_target_up_to_ceiling(self):
        falling = LearningCurveModel(
            metric="ACC", intercept=0.95, slope=-0.01,
            adj_r_squared=0.5, n_obs=6,
        )
        assert predict_metric(falling, 1) >= 0.9 > predict_metric(falling, 1000)
        result = required_sample_size(falling, PlanQuery("ACC", 0.9, search_ceiling=1000))
        assert result.required_n is None
        # met at every size up to a ceiling below the crossing near n = 148
        result = required_sample_size(falling, PlanQuery("ACC", 0.9, search_ceiling=100))
        assert result.required_n == 1

    def test_nearly_flat_curve_is_unattainable(self):
        flat = LearningCurveModel(
            metric="PRC", intercept=0.27, slope=3e-4,
            adj_r_squared=0.5, n_obs=6,
        )  # the target would need n = exp(2100)
        result = required_sample_size(flat, PlanQuery("PRC", 0.9, search_ceiling=10**12))
        assert result.required_n is None

    def test_unreachable_within_ceiling(self):
        query = PlanQuery("ACC", 0.999, search_ceiling=1000)
        result = required_sample_size(table1_presets()["ACC"], query)
        assert result.required_n is None

    def test_target_outside_unit_interval_rejected(self):
        with pytest.raises(InputError):
            PlanQuery("ACC", 1.5)

    def test_threshold_is_sharp_for_monotone_curves(self):
        model = table1_presets()["ACC"]
        for target in (0.90, 0.93, 0.95, 0.97):
            result = required_sample_size(model, PlanQuery("ACC", target))
            n = result.required_n
            assert predict_metric(model, n) >= target
            if n > 1:
                assert predict_metric(model, n - 1) < target

    def test_raising_target_never_lowers_required_n(self):
        model = table1_presets()["ACC"]
        previous = 0
        for target in np.linspace(0.86, 0.98, 25):
            n = required_sample_size(model, PlanQuery("ACC", float(target))).required_n
            assert n >= previous
            previous = n


def _fit_single_smooth(values, sizes, metric="ACC", lambdas=(0.0,)):
    spec = ModelSpec(
        response=metric, parametric_terms=(), smooth_terms=(SmoothTerm(by_factor=None),)
    )
    obs = observation_rows(values, sizes, metric=metric)
    return betagam.fit(spec, obs, lambdas=list(lambdas))


class TestGamInversion:
    def test_matches_bisection_on_monotone_curve(self, calibrated_acc_model):
        model = calibrated_acc_model
        cell = {"tuning": "deep", "dataset": "AU", "architecture": "dnsNet121"}
        query = PlanQuery("ACC", 0.95, search_ceiling=5000)
        result = gam_required_sample_size(model, cell, query)
        assert result.required_n is not None
        # bisection oracle over the same integer grid
        def predict(n):
            return model.predict_sizes(cell, [n])[0]

        lo, hi = 1, query.search_ceiling
        assert predict(hi) >= 0.95
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if predict(mid) >= 0.95:
                hi = mid
            else:
                lo = mid
        bisected = hi if predict(1) < 0.95 else 1
        assert result.required_n == bisected

    def test_unattainable_target(self, calibrated_acc_model):
        cell = {"tuning": "deep", "dataset": "WI", "architecture": "resNet18"}
        query = PlanQuery("ACC", 0.9999, search_ceiling=2000)
        result = gam_required_sample_size(calibrated_acc_model, cell, query)
        assert result.required_n is None

    def test_last_crossing_rule_on_dipped_curve(self):
        # spline interpolating a dip below target between the 2nd and 4th sizes
        sizes = (10, 20, 50, 150, 500, 1000)
        values = (0.90, 0.96, 0.93, 0.96, 0.98, 0.99)
        model = _fit_single_smooth(values, sizes)
        cell = {"num_tr_images": 1}
        query = PlanQuery("ACC", 0.95, search_ceiling=2000)
        result = gam_required_sample_size(model, cell, query)
        n = result.required_n
        preds = model.predict_sizes(cell, np.arange(1, 2001))
        assert np.all(preds[n - 1 :] >= 0.95)
        assert preds[n - 2] < 0.95
        # the naive first crossing sits inside the dip, before 50
        first_crossing = int(np.flatnonzero(preds >= 0.95)[0]) + 1
        assert first_crossing < 50 < n

    def test_extrapolation_flagged(self, calibrated_acc_model):
        cell = {"tuning": "deep", "dataset": "WI", "architecture": "resNet18"}
        query = PlanQuery("ACC", 0.985, search_ceiling=100_000)
        result = gam_required_sample_size(calibrated_acc_model, cell, query)
        if result.required_n is not None and result.required_n > 1000:
            assert result.extrapolated

    def test_unknown_level_rejected(self, calibrated_acc_model):
        cell = {"tuning": "deep", "dataset": "MARS", "architecture": "dnsNet121"}
        with pytest.raises(InputError):
            gam_required_sample_size(calibrated_acc_model, cell, PlanQuery("ACC", 0.9))


CELLS = (
    {"tuning": "deep", "dataset": "AU", "architecture": "dnsNet121"},
    {"tuning": "shallow", "dataset": "SE", "architecture": "resNet152"},
    {"tuning": "deep", "dataset": "WI", "architecture": "resNet18"},
    {"tuning": "shallow", "dataset": "WI", "architecture": "dnsNet201"},
)


@pytest.fixture(scope="module")
def calibrated_fpr_model(calibrated_observations):
    return betagam.fit(betagam.ModelSpec("FPR"), calibrated_observations)


def last_crossing(model, cell, query):
    """The last-crossing rule on every integer size up to the ceiling."""
    sizes = np.arange(1, query.search_ceiling + 1)
    if isinstance(model, LearningCurveModel):
        values = np.array([predict_metric(model, n) for n in sizes])
    else:
        values = model.predict_sizes(cell, sizes)
    meets = values <= query.target if query.metric == "FPR" else values >= query.target
    fails = np.flatnonzero(~meets)
    if fails.size == 0:
        return 1
    n = int(fails[-1]) + 2
    return n if n <= query.search_ceiling else None


class TestBoundedScan:
    TARGETS = {"ACC": (0.93, 0.96, 0.97, 0.99, 0.995), "FPR": (0.05, 0.03, 0.02, 0.015, 0.002)}

    def test_matches_full_last_crossing_scan(self, calibrated_acc_model, calibrated_fpr_model):
        tail_answers = 0
        for model in (calibrated_acc_model, calibrated_fpr_model):
            for cell in CELLS:
                for target in self.TARGETS[model.metric]:
                    query = PlanQuery(model.metric, target, search_ceiling=20_000)
                    result = gam_required_sample_size(model, cell, query)
                    assert result.required_n == last_crossing(model, cell, query)
                    if result.required_n is not None:
                        expected = model.predict_sizes(cell, [result.required_n])[0]
                        assert result.predicted_value == pytest.approx(expected, rel=1e-12)
                        tail_answers += result.required_n > 1000
        assert tail_answers >= 3  # the bisected tail beyond the last knot is exercised

    def test_presets_match_full_last_crossing_scan(self):
        targets = {"ACC": (0.8, 0.9, 0.95, 0.99), "PRC": (0.5, 0.7, 0.9, 0.99),
                   "TPR": (0.3, 0.6, 0.8, 0.95), "FPR": (0.1, 0.05, 0.02, 0.01)}
        for metric, model in table1_presets().items():
            for target, ceiling in product(targets[metric], (1000, 20_000)):
                query = PlanQuery(metric, target, search_ceiling=ceiling)
                result = required_sample_size(model, query)
                assert result.required_n == last_crossing(model, None, query)
                if result.required_n is not None:
                    expected = predict_metric(model, result.required_n)
                    assert result.predicted_value == expected

    def test_huge_ceiling_predicts_only_the_knot_range(self, calibrated_acc_model, monkeypatch):
        model = calibrated_acc_model
        seen = []
        predict_sizes = type(model).predict_sizes

        def spy(self, cell, sizes):
            seen.append(np.size(sizes))
            return predict_sizes(self, cell, sizes)

        monkeypatch.setattr(type(model), "predict_sizes", spy)
        bound = math.ceil(math.exp(model.knots[-1])) + 64
        for cell in CELLS:
            seen.clear()
            query = PlanQuery("ACC", 0.99, search_ceiling=10**12)
            gam_required_sample_size(model, cell, query)
            assert 0 < sum(seen) <= bound

    def test_a_tail_that_meets_at_both_ends_is_not_bisected(self, calibrated_acc_model, monkeypatch):
        model = calibrated_acc_model
        calls = []
        predict_sizes = type(model).predict_sizes

        def spy(self, cell, sizes):
            calls.append(np.size(sizes))
            return predict_sizes(self, cell, sizes)

        monkeypatch.setattr(type(model), "predict_sizes", spy)
        last_knot = math.exp(model.knots[-1])
        for cell in CELLS:
            calls.clear()
            result = gam_required_sample_size(model, cell, PlanQuery("ACC", 0.9, 2_000_000))
            assert result.required_n < last_knot
            # the scan below the last knot, the ceiling and the size after the scan
            assert len(calls) <= 3

    def test_scan_in_small_chunks_gives_the_same_answers(self, calibrated_acc_model, monkeypatch):
        model = calibrated_acc_model
        queries = [PlanQuery("ACC", t, search_ceiling=20_000) for t in self.TARGETS["ACC"]]
        whole = [gam_required_sample_size(model, cell, q) for cell in CELLS for q in queries]
        sizes = []
        predict_sizes = type(model).predict_sizes

        def spy(self, cell, num_tr_images):
            sizes.append(np.size(num_tr_images))
            return predict_sizes(self, cell, num_tr_images)

        monkeypatch.setattr(type(model), "predict_sizes", spy)
        monkeypatch.setattr(planner, "SCAN_CHUNK", 7)
        chunked = [gam_required_sample_size(model, cell, q) for cell in CELLS for q in queries]
        assert max(sizes) == 7 and len(sizes) > 1000 // 7
        for a, b in zip(chunked, whole):
            assert a.required_n == b.required_n
            assert a.predicted_value == pytest.approx(b.predicted_value, rel=1e-12)

    def test_a_scan_past_the_limit_is_an_input_error(self, calibrated_acc_model, monkeypatch):
        monkeypatch.setattr(planner, "MAX_SCANNED_SIZES", 500)  # the model's last knot is at 1000
        cell = CELLS[0]
        gam_required_sample_size(calibrated_acc_model, cell, PlanQuery("ACC", 0.9, 500))  # plans
        with pytest.raises(InputError, match=r"last knot, log n = 6\.907755279, leaves more than 500"):
            gam_required_sample_size(calibrated_acc_model, cell, PlanQuery("ACC", 0.9, 501))


class TestPlanReport:
    def test_binding_requirement_from_presets(self):
        report = plan_report({"ACC": 0.95, "FPR": 0.02}, table1_presets())
        assert report.binding_n == 1097
        by_metric = {r.metric: r for r in report.results}
        assert by_metric["ACC"].required_n == 149
        assert by_metric["FPR"].required_n == 1097

    def test_single_target_report(self):
        report = plan_report({"ACC": 0.95}, table1_presets())
        assert len(report.results) == 1
        assert report.binding_n == report.results[0].required_n == 149

    def test_omitted_metrics_not_reported(self):
        report = plan_report({"ACC": 0.95}, table1_presets())
        assert [r.metric for r in report.results] == ["ACC"]

    def test_all_unattainable_is_explicit(self):
        falling = LearningCurveModel(
            metric="ACC", intercept=0.6, slope=-0.01,
            adj_r_squared=0.5, n_obs=6,
        )
        with pytest.raises(InfeasiblePlanError):
            plan_report({"ACC": 0.99}, {"ACC": falling})

    def test_empty_targets_rejected(self):
        with pytest.raises(InputError):
            plan_report({}, table1_presets())
