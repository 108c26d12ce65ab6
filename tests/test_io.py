from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from camcurves import curves, io
from camcurves.metrics import METRIC_KINDS, MetricObservation

# any text a UTF-8 CSV cell can hold; NUL is left out because the csv
# reader of older Pythons rejects it
cell_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), min_size=1
)

observations = st.lists(
    st.builds(
        MetricObservation,
        metric=st.sampled_from(METRIC_KINDS),
        value=st.floats(0.0, 1.0),
        dataset=cell_text,
        class_label=cell_text,
        num_tr_images=st.integers(1, 10**12),
        architecture=cell_text,
        tuning=cell_text,
        augmentation=cell_text,
    ),
    min_size=1,
    max_size=20,
)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(observations)
def test_observations_csv_round_trip(tmp_path, rows):
    path = str(tmp_path / "obs.csv")
    io.write_observations_csv(path, rows)
    assert io.parse_observations(path) == rows


def _json_round_trip_is_stable(model):
    text = io.canonical_json(io.model_to_dict(model))
    again = io.canonical_json(io.model_to_dict(io.model_from_dict(io.model_to_dict(model))))
    assert again == text


def test_gam_model_json_round_trip(calibrated_acc_model):
    _json_round_trip_is_stable(calibrated_acc_model)


def test_ols_model_json_round_trip():
    points = [(n, 0.5 + 0.04 * i + 0.01 * (i % 3)) for i, n in enumerate((10, 20, 50, 150, 500))]
    _json_round_trip_is_stable(curves.fit_log_curve(points, "PRC"))
