import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from camcurves import InputError, curves, io
from camcurves.metrics import METRIC_KINDS

from conftest import as_table

# any text a UTF-8 CSV cell can hold; NUL is left out because the csv
# reader of older Pythons rejects it
cell_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), min_size=1
)

# rows of an observation table, in OBSERVATION_COLUMNS order
observations = st.lists(
    st.tuples(
        st.sampled_from(METRIC_KINDS),
        st.floats(0.0, 1.0),
        cell_text,
        cell_text,
        st.integers(1, 10**12),
        cell_text,
        cell_text,
        cell_text,
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
    io.write_observations_csv(path, as_table(rows))
    assert io.parse_observations(path).tolist() == rows


# per CSV kind: parser, header, a good record with a {label}, a bad record, its error
CSV_KINDS = {
    "observations": (
        io.parse_observations,
        ",".join(io.OBSERVATION_COLUMNS),
        "ACC,0.9,AU,{label},10,dnsNet121,deep,none",
        "ACC,0.9,AU,c1,ten,dnsNet121,deep,none",
        "bad num_tr_images 'ten'",
    ),
    "image-index": (
        io.parse_image_index,
        "image_id,class",
        "i0,{label}",
        ",c1",
        "empty image_id or class",
    ),
}


@pytest.mark.parametrize("layout", ["blank-line", "multi-line-field"])
@pytest.mark.parametrize("kind", sorted(CSV_KINDS))
def test_csv_error_names_the_line_its_record_starts_on(tmp_path, kind, layout):
    parse, header, good, bad, message = CSV_KINDS[kind]
    if layout == "blank-line":
        lines = [header, good.format(label="c0"), "", bad]
    else:  # the quoted label spans lines 2 and 3
        lines = [header, good.format(label='"c\n0"'), bad]
    path = tmp_path / "records.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError) as raised:
        parse(str(path))
    assert str(raised.value) == f"{path}:4: {message}"


def _json_round_trip_is_stable(model):
    text = io.canonical_json(io.model_to_dict(model))
    again = io.canonical_json(io.model_to_dict(io.model_from_dict(io.model_to_dict(model))))
    assert again == text


def test_gam_model_json_round_trip(calibrated_acc_model):
    _json_round_trip_is_stable(calibrated_acc_model)


def test_ols_model_json_round_trip():
    points = [(n, 0.5 + 0.04 * i + 0.01 * (i % 3)) for i, n in enumerate((10, 20, 50, 150, 500))]
    _json_round_trip_is_stable(curves.fit_log_curve(points, "PRC"))
