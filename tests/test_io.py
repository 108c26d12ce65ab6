import csv
import functools
import hashlib
import io as textio
import re
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from camcurves import InputError, betagam, cli, curves, io, observation_table
from camcurves.metrics import METRIC_KINDS, OBSERVATION_COLUMNS

from conftest import as_table, make_obs, observation_rows, traced_peak

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
    io.write_observations_csv(path, [as_table(rows)])
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
    # the bad ACC record follows a PRC record, which the ACC parse skips
    "observations-ACC": (
        functools.partial(io.parse_observations, metric="ACC"),
        ",".join(io.OBSERVATION_COLUMNS),
        "PRC,0.9,AU,{label},10,dnsNet121,deep,none",
        "ACC,0.9,AU,c1,ten,dnsNet121,deep,none",
        "bad num_tr_images 'ten'",
    ),
    "predictions": (
        io.parse_predictions,
        "image_id,true_class,predicted_class,timestamp",
        "i0,{label},c1,2020-01-01T00:00:00Z",
        "i1,c1,c1,yesterday",
        "bad ISO-8601 timestamp 'yesterday'",
    ),
    "image-index": (
        io.parse_image_index,
        "image_id,class",
        "i0,{label}",
        ",c1",
        "empty image_id or class",
    ),
}


@pytest.fixture
def opened(monkeypatch):
    """The paths io opens as CSV files, in order."""
    paths = []

    def open_csv(path, open_csv=io._open_csv):
        paths.append(path)
        return open_csv(path)

    monkeypatch.setattr(io, "_open_csv", open_csv)
    return paths


@pytest.mark.parametrize("layout", ["blank-line", "multi-line-field"])
@pytest.mark.parametrize("kind", sorted(CSV_KINDS))
def test_csv_error_names_the_line_its_record_starts_on(tmp_path, opened, kind, layout):
    parse, header, good, bad, message = CSV_KINDS[kind]
    if layout == "blank-line":
        lines = [header, good.format(label="c0"), "", bad]
    else:  # the quoted label spans lines 2 and 3
        lines = [header, good.format(label='"c\n0"'), bad]
    path = tmp_path / "records.csv"
    path.write_text("\n".join(lines[:-1]) + "\n")
    parse(str(path))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError) as raised:
        parse(str(path))
    assert str(raised.value) == f"{path}:4: {message}"
    assert opened == [str(path)] * 2  # each parse reads its file once, an error's included


def _plain(parsed):
    return parsed.tolist() if isinstance(parsed, np.ndarray) else parsed


@pytest.mark.parametrize("kind", sorted(CSV_KINDS))
def test_a_leading_byte_order_mark_is_not_part_of_the_header(tmp_path, kind):
    # Excel's "CSV UTF-8" starts the file with U+FEFF
    parse, header, good, bad, message = CSV_KINDS[kind]
    lines = [header, good.format(label="c0"), "", good.format(label='"c\n1"')]
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text("\n".join(lines) + "\n", encoding="utf-8")
    marked.write_text("\n".join(lines) + "\n", encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    assert _plain(parse(str(marked))) == _plain(parse(str(plain)))
    marked.write_text("\n".join([*lines, bad]) + "\n", encoding="utf-8-sig")
    with pytest.raises(InputError) as raised:
        parse(str(marked))
    assert str(raised.value) == f"{marked}:6: {message}"


# a kept record's fault: the field it replaces (or None for the field count), the
# text, and the message naming it
FAULTS = [
    ("value", "x", "bad value 'x'"),
    ("num_tr_images", "1.5", "bad num_tr_images '1.5'"),
    ("value", "1.5", "metric value 1.5 outside [0, 1]"),
    (None, -1, "too few fields"),
    (None, +1, "too many fields"),
]


@st.composite
def faulty_layouts(draw):
    """(CSV text, line of the fault, message): ACC records, one of them faulty, among
    blank lines, quoted labels that span lines and PRC records, which an ACC parse drops."""
    chunk = io.CSV_CHUNK_ROWS
    bad = draw(st.sampled_from([0, chunk - 1, chunk, chunk + 1]) | st.integers(0, 2 * chunk))
    count = draw(st.integers(bad + 1, bad + 1 + chunk))
    # each kept record is preceded by the gap of its slot and has a label that spans
    # lines or not; the slots repeat over the records
    dropped = ["PRC,0.5,AU,c0,10,a,deep,none", 'PRC,0.5,AU,"c\n0",10,a,deep,none']
    gap = st.lists(st.sampled_from(["", *dropped]))
    slots = draw(st.lists(st.tuples(gap, st.booleans()), min_size=1, max_size=6))
    field, text, message = draw(st.sampled_from(FAULTS))
    lines = [",".join(io.OBSERVATION_COLUMNS)]
    for i in range(count):
        before, spans = slots[i % len(slots)]
        lines += before
        label = f'"c\n{i}"' if spans else f"c{i}"
        fields = ["ACC", "0.5", "AU", label, "10", "a", "deep", "none"]  # OBSERVATION_COLUMNS
        if i == bad:  # a quoted label spans two lines
            line = len(lines) + sum(entry.count("\n") for entry in lines) + 1
            if field is None:
                fields = fields[:text] if text < 0 else fields + ["extra"]
            else:
                fields[io.OBSERVATION_COLUMNS.index(field)] = text
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n", line, message


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(faulty_layouts())
def test_any_fault_names_the_line_its_record_starts_on(tmp_path, layout):
    text, line, message = layout
    path = tmp_path / "obs.csv"
    path.write_text(text)
    with pytest.raises(InputError) as raised:
        io.parse_observations(str(path), "ACC")
    assert str(raised.value) == f"{path}:{line}: {message}"


def _json_round_trip_is_stable(model):
    text = io.canonical_json(io.model_to_dict(model))
    again = io.canonical_json(io.model_to_dict(io.model_from_dict(io.model_to_dict(model))))
    assert again == text


def test_gam_model_json_round_trip(calibrated_acc_model):
    _json_round_trip_is_stable(calibrated_acc_model)


def test_a_gam_file_with_the_dropped_smooth_by_key_loads_and_writes_back_without_it(
    calibrated_acc_model,
):
    # files written before smooth_by was dropped hold it beside the spec's keys
    document = io.model_to_dict(calibrated_acc_model)
    assert "smooth_by" not in document
    assert io.model_to_dict(io.model_from_dict({**document, "smooth_by": "dataset"})) == document



def test_a_gam_file_in_the_older_form_loads_plans_alike_and_writes_back_without_its_keys(
    calibrated_acc_model, tmp_path, capsys
):
    # files written before the layout dropped what it derives hold each term's
    # coefficient indices, each factor's reference and the smooth's by-factor;
    # those written before squeeze_eps and the smooth's covariate became
    # constants hold both
    document = io.model_to_dict(calibrated_acc_model)
    blocks = {
        f"s(num_tr_images):dataset[{level}]": list(range(9 + 4 * i, 13 + 4 * i))
        for i, level in enumerate(("AU", "SE", "WI"))
    }
    older = {
        **document,
        "term_index": {
            "(intercept)": [0], "tuning": [1], "dataset": [2, 3], "architecture": [4, 5, 6, 7, 8],
            **blocks,
        },
        "references": {"tuning": "deep", "dataset": "AU", "architecture": "dnsNet121"},
        "smooth_by": "dataset",
        "squeeze_eps": 0.0001,
        "smooth_terms": [{**t, "covariate": "num_tr_images"} for t in document["smooth_terms"]],
    }
    answers = []
    for name, payload in (("current", document), ("older", older)):
        path = tmp_path / f"{name}.json"
        path.write_text(io.canonical_json(payload))
        argv = ["plan", "--model", str(path), "--target", "0.9", "--cell", "WI,deep,resNet18"]
        assert cli.main(argv) == cli.EXIT_OK
        answers.append(capsys.readouterr().out)
    assert answers[0] == answers[1] and "required_n" in answers[1]
    loaded = io.load_model(str(tmp_path / "older.json"))
    cell, sizes = {"dataset": "WI", "tuning": "deep", "architecture": "resNet18"}, [10, 90, 4000]
    expected = calibrated_acc_model.predict_sizes(cell, sizes)
    assert np.array_equal(loaded.predict_sizes(cell, sizes), expected)
    written = io.model_to_dict(loaded)
    assert not {"term_index", "references", "smooth_by", "squeeze_eps"} & written.keys()
    assert all("covariate" not in t for t in written["smooth_terms"])
    assert written == document


@pytest.mark.parametrize(
    "metric, transform, target", [("ACC", "log_n", "0.95"), ("FPR", "log_inverse_n", "0.03")]
)
def test_an_ols_file_in_the_older_form_loads_plans_alike_and_writes_back_without_its_transform(
    calibrated_observations, tmp_path, capsys, metric, transform, target
):
    # files written before the transform followed from the metric hold it
    model = curves.fit_log_curve(calibrated_observations, metric)
    document = io.model_to_dict(model)
    answers = []
    for name, payload in (("current", document), ("older", {**document, "transform": transform})):
        path = tmp_path / f"{name}.json"
        path.write_text(io.canonical_json(payload))
        assert cli.main(["plan", "--model", str(path), "--target", target]) == cli.EXIT_OK
        answers.append(capsys.readouterr().out)
    assert answers[0] == answers[1] and "required_n" in answers[1]
    loaded = io.load_model(str(tmp_path / "older.json"))
    sizes = [1, 10, 90, 1000, 12345]
    assert [curves.predict_metric(loaded, n) for n in sizes] == [
        curves.predict_metric(model, n) for n in sizes
    ]
    written = io.model_to_dict(loaded)
    assert "transform" not in written and written == document


def test_models_that_hold_arrays_compare_and_hash_by_identity(calibrated_acc_model, tmp_path):
    path = str(tmp_path / "acc.json")
    io.save_model(calibrated_acc_model, path)
    a, b = io.load_model(path), io.load_model(path)
    assert a == a and a != b and a not in [b] and a in [b, a] and len({a, b, a}) == 2
    knots = a.knot_vector
    assert knots != b.knot_vector and len({knots, b.knot_vector, knots}) == 2
    assert a.spec == b.spec and a.fit_stats == b.fit_stats  # records of values compare by value


def test_ols_model_json_round_trip():
    values = [0.5 + 0.04 * i + 0.01 * (i % 3) for i in range(5)]
    table = observation_rows(values, (10, 20, 50, 150, 500), metric="PRC")
    _json_round_trip_is_stable(curves.fit_log_curve(table, "PRC"))


def test_model_json_bytes_of_an_ols_and_an_intercept_only_model_are_pinned(
    calibrated_observations,
):
    # the sha256 of the JSON `fit-ols --metric ACC` writes for the calibrated
    # grid, and of an intercept-only GAM of it, whose knots are null
    models = (
        curves.fit_log_curve(calibrated_observations, "ACC"),
        betagam.fit(
            betagam.ModelSpec("ACC", parametric_terms=(), smooth_terms=()), calibrated_observations
        ),
    )
    digests = [
        hashlib.sha256(io.canonical_json(io.model_to_dict(model)).encode()).hexdigest()
        for model in models
    ]
    assert digests == [
        "3780a9c99416199a5de648f2ace66a0bf46f372f293573afc693f2427916745b",
        "73065fba81995bba9abdbb84688a45dd552a13ce8a0f398c2a610f79d5f0954c",
    ]


def test_model_json_bytes_of_a_smooth_without_a_by_factor_are_pinned(calibrated_observations):
    # one smooth of num_tr_images shared by every dataset: a single (None, label) block
    spec = betagam.ModelSpec("ACC", smooth_terms=(betagam.SmoothTerm(by_factor=None),))
    model = betagam.fit(spec, calibrated_observations)
    assert model.coef_names[-4:] == tuple(f"s(num_tr_images).{j}" for j in range(4))
    digest = hashlib.sha256(io.canonical_json(io.model_to_dict(model)).encode()).hexdigest()
    assert digest == "a462316ecf70be7c194a03989a7ba518bdd452061c097b699103241cc558a1f4"


def test_parsed_observation_table_is_read_only(tmp_path):
    path = str(tmp_path / "obs.csv")
    table = as_table([make_obs(0.9, 10), make_obs(0.8, 20, metric="PRC")])
    io.write_observations_csv(path, [table])
    table = io.parse_observations(path)
    with pytest.raises(ValueError, match="read-only"):
        table.dataset[0] = "a dataset name longer than the field"
    with pytest.raises(ValueError, match="read-only"):
        table.value[0] = 0.5
    acc = table[table.metric == "ACC"]  # a filtered copy may be edited
    acc.value[0] = 0.5
    assert acc.value[0] == 0.5 and table.value[0] == 0.9


@pytest.mark.parametrize("metric", METRIC_KINDS)
def test_metric_parse_holds_the_rows_of_that_metric(grid_csv, metric):
    table = io.parse_observations(grid_csv)
    rows = table[table.metric == metric].tolist()
    assert len(rows) == len(table) // 4
    assert io.parse_observations(grid_csv, metric).tolist() == rows


def test_metric_parse_peaks_below_a_third_of_the_full_parse(grid_csv):
    full = traced_peak(lambda: io.parse_observations(grid_csv))
    assert traced_peak(lambda: io.parse_observations(grid_csv, "ACC")) < full / 3


def test_metric_parse_peaks_within_two_and_a_half_tables(grid_csv):
    # the records are converted a chunk at a time into column arrays, which are
    # joined into the table; the parse holds about the columns and the table
    table = io.parse_observations(grid_csv, "ACC")
    assert traced_peak(lambda: io.parse_observations(grid_csv, "ACC")) <= 2.5 * table.nbytes


def kept_records(count):
    """`count` ACC records with labels of growing width, as observation columns and CSV
    lines; a PRC record, which an ACC parse skips, follows each and leads the file."""
    columns = {
        "metric": ["ACC"] * count,
        "value": [i / (count + 1) for i in range(count)],
        "dataset": [("AU", "SE", "WI")[i % 3] for i in range(count)],
        "class": [f"c{i}" for i in range(count)],
        "num_tr_images": [10 + i for i in range(count)],
        "architecture": ["dnsNet121"] * count,
        "tuning": [("deep", "feature")[i % 2] for i in range(count)],
        "augmentation": ["none"] * count,
    }
    other = "PRC,0.5,AU,c0,10,dnsNet121,deep,none"
    lines = [",".join(io.OBSERVATION_COLUMNS), other]
    for record in zip(*(columns[name] for name in io.OBSERVATION_COLUMNS)):
        lines += [",".join(map(str, record)), other]
    return columns, lines


@pytest.mark.parametrize(
    "count",
    [0, 1, io.CSV_CHUNK_ROWS - 1, io.CSV_CHUNK_ROWS, io.CSV_CHUNK_ROWS + 1, 8 * io.CSV_CHUNK_ROWS],
)
def test_chunked_metric_parse_matches_one_table_call(tmp_path, count):
    columns, lines = kept_records(count)
    path = tmp_path / "obs.csv"
    path.write_text("\n".join(lines) + "\n")
    table = io.parse_observations(str(path), "ACC")
    expected = observation_table(columns)
    assert table.dtype == expected.dtype
    assert table.tolist() == expected.tolist()


@pytest.mark.parametrize("index", [io.CSV_CHUNK_ROWS - 1, io.CSV_CHUNK_ROWS])
@pytest.mark.parametrize(
    "record, message",
    [
        ("ACC,x,AU,c0,10,dnsNet121,deep,none", "bad value 'x'"),
        ("ACC,0.5,AU,c0,1.5,dnsNet121,deep,none", "bad num_tr_images '1.5'"),
        ("ACC,1.5,AU,c0,10,dnsNet121,deep,none", "metric value 1.5 outside [0, 1]"),
    ],
)
def test_bad_value_at_a_chunk_boundary_names_its_line(tmp_path, index, record, message):
    _, lines = kept_records(2 * io.CSV_CHUNK_ROWS)
    lines[2 + 2 * index] = record  # kept record i is on line 2i + 3
    path = tmp_path / "obs.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError) as raised:
        io.parse_observations(str(path), "ACC")
    assert str(raised.value) == f"{path}:{2 * index + 3}: {message}"


def test_a_later_wrong_field_count_is_reported_before_an_earlier_bad_value(tmp_path):
    _, lines = kept_records(3 * io.CSV_CHUNK_ROWS)
    lines[2 + 2 * 3] = "ACC,x,AU,c0,10,dnsNet121,deep,none"
    lines[2 + 2 * (2 * io.CSV_CHUNK_ROWS + 5)] = "ACC,0.5,AU"
    path = tmp_path / "obs.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError) as raised:
        io.parse_observations(str(path), "ACC")
    assert str(raised.value) == f"{path}:{2 * (2 * io.CSV_CHUNK_ROWS + 5) + 3}: too few fields"


@pytest.mark.parametrize(
    "rows",
    [
        *(0, 1, io.CSV_CHUNK_ROWS - 1, io.CSV_CHUNK_ROWS, io.CSV_CHUNK_ROWS + 1),
        *(8 * io.CSV_CHUNK_ROWS - 1, 8 * io.CSV_CHUNK_ROWS, 8 * io.CSV_CHUNK_ROWS + 1),
    ],
)
def test_chunked_csv_matches_one_writerows_call(calibrated_observations, tmp_path, rows):
    table = calibrated_observations[:rows]
    expected = textio.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(OBSERVATION_COLUMNS)
    writer.writerows(table.tolist())
    path = tmp_path / "obs.csv"
    io.write_observations_csv(str(path), [table])
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


def test_csv_writer_releases_each_table_before_drawing_the_next(calibrated_observations, tmp_path):
    sizes = (io.CSV_CHUNK_ROWS + 7, 0, 2 * io.CSV_CHUNK_ROWS)

    def tables():
        # holds only a weak reference to each table it yields
        start, previous = 0, lambda: None
        for size in sizes:
            assert previous() is None, "the writer still holds the table before"
            held = [calibrated_observations[start : start + size].copy()]
            start, previous = start + size, weakref.ref(held[0])
            yield held.pop()
        assert previous() is None, "the writer still holds the last table"

    path, whole = tmp_path / "obs.csv", tmp_path / "whole.csv"
    assert io.write_observations_csv(str(path), tables()) == sum(sizes)
    io.write_observations_csv(str(whole), [calibrated_observations[: sum(sizes)]])
    assert path.read_bytes() == whole.read_bytes()


def test_csv_writer_adds_at_most_a_tenth_of_a_table(calibrated_observations, tmp_path):
    path = str(tmp_path / "grid.csv")
    peak = traced_peak(lambda: io.write_observations_csv(path, [calibrated_observations]))
    assert peak <= 0.1 * calibrated_observations.nbytes


def test_failed_rename_is_an_input_error_that_leaves_no_temp_file(tmp_path):
    target = tmp_path / "out.csv"
    with pytest.raises(InputError, match=re.escape(f"cannot write {target}: Is a directory")):
        with io.atomic_write(str(target)) as handle:
            handle.write("text")
            target.mkdir()  # the target turns into a directory while it is written
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert not any(target.iterdir())
