import math
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from camcurves import InputError, aggregate, confusion_matrix, observation_table, one_vs_rest
from camcurves.metrics import METRIC_KINDS, OBSERVATION_COLUMNS, _distinct

from conftest import as_table, make_obs, observation_rows

COUNTS = ("tp", "fp", "tn", "fn")


def predictions(pairs):
    """The prediction columns of (true, predicted) label pairs, image ids 0, 1, ..."""
    true, predicted = zip(*pairs) if pairs else ((), ())
    return {
        "image_id": tuple(str(i) for i in range(len(pairs))),
        "true_class": true,
        "predicted_class": predicted,
    }


def tally(pairs, classes):
    """Each class's (tp, fp, tn, fn) from the confusion matrix of `pairs`."""
    scores = one_vs_rest(confusion_matrix(predictions(pairs), classes))
    return {c: tuple(int(scores[name][i]) for name in COUNTS) for i, c in enumerate(classes)}


def scores_of(tp, fp, tn, fn):
    """The one-vs-rest scores of the class whose 2 x 2 confusion matrix has these counts."""
    scores = one_vs_rest(np.array([[tp, fn], [fp, tn]]))
    return {name: column[0].item() for name, column in scores.items()}


class TestTallyConfusion:
    def test_hand_enumerated_four_records(self):
        pairs = [("A", "A"), ("A", "B"), ("B", "B"), ("C", "C")]
        assert confusion_matrix(predictions(pairs), ["A", "B", "C"]).tolist() == [
            [1, 1, 0],
            [0, 1, 0],
            [0, 0, 1],
        ]
        assert tally(pairs, ["A", "B", "C"])["A"] == (1, 0, 2, 1)

    def test_perfect_classifier_has_no_errors(self):
        counts = tally([(c, c) for c in "ABCD" for _ in range(3)], list("ABCD"))
        assert all(fp == 0 and fn == 0 for _, fp, _, fn in counts.values())

    def test_single_misclassified_record(self):
        counts = tally([("A", "B")], ["A", "B"])
        assert counts["A"] == (0, 0, 0, 1)
        assert counts["B"] == (0, 1, 0, 0)

    def test_unknown_label_is_named(self):
        with pytest.raises(InputError, match="'Zebra' in record '1'"):
            confusion_matrix(predictions([("A", "A"), ("A", "Zebra")]), ["A", "B"])

    def test_an_image_listed_twice_is_rejected(self):
        # scored under both true classes, image a would unbalance the test set
        records = {
            "image_id": ("a", "a", "b"),
            "true_class": ("x", "y", "y"),
            "predicted_class": ("x", "x", "y"),
        }
        with pytest.raises(InputError, match="^image id 'a' is listed twice$"):
            confusion_matrix(records, ["x", "y"])

    def test_empty_records_rejected(self):
        with pytest.raises(InputError):
            confusion_matrix(predictions([]), ["A"])

    @given(
        st.lists(
            st.tuples(st.sampled_from("ABCD"), st.sampled_from("ABCD")),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_pairwise_counting(self, pairs):
        counts = tally(pairs, list("ABCD"))
        for c in "ABCD":
            tp = sum(1 for t, p in pairs if t == c and p == c)
            fn = sum(1 for t, p in pairs if t == c and p != c)
            fp = sum(1 for t, p in pairs if t != c and p == c)
            tn = sum(1 for t, p in pairs if t != c and p != c)
            assert counts[c] == (tp, fp, tn, fn)
            assert sum(counts[c]) == len(pairs)

    @given(
        st.lists(
            st.tuples(st.sampled_from("ABC"), st.sampled_from("ABC")),
            min_size=1,
            max_size=30,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, pairs, rnd):
        shuffled = pairs[:]
        rnd.shuffle(shuffled)
        matrix = confusion_matrix(predictions(pairs), list("ABC"))
        assert (confusion_matrix(predictions(shuffled), list("ABC")) == matrix).all()

    def test_balanced_test_set_margins(self):
        # K classes with m images each: tp+fn = m, fp+tn = (K-1)*m for every class
        rng = np.random.default_rng(5)
        classes = list("ABCDE")
        m = 40
        pairs = [(t, rng.choice(classes)) for t in classes for _ in range(m)]
        for tp, fp, tn, fn in tally(pairs, classes).values():
            assert tp + fn == m
            assert fp + tn == (len(classes) - 1) * m


class TestMetricFormulas:
    C = scores_of(tp=225, fn=25, fp=35, tn=1715)

    def test_accuracy(self):
        assert self.C["ACC"] == pytest.approx(0.97, abs=1e-12)
        assert scores_of(250, 0, 1750, 0)["ACC"] == 1.0
        assert scores_of(0, 1750, 0, 250)["ACC"] == 0.0

    def test_precision(self):
        assert self.C["PRC"] == pytest.approx(225 / 260, abs=1e-12)
        assert scores_of(250, 0, 1750, 0)["PRC"] == 1.0

    def test_precision_undefined_is_nan(self):
        assert math.isnan(scores_of(tp=0, fp=0, tn=1750, fn=250)["PRC"])

    def test_true_positive_rate(self):
        assert self.C["TPR"] == pytest.approx(0.90, abs=1e-12)
        assert scores_of(250, 0, 1750, 0)["TPR"] == 1.0
        assert scores_of(0, 0, 1750, 250)["TPR"] == 0.0

    def test_true_positive_rate_absent_class(self):
        assert math.isnan(scores_of(tp=0, fp=3, tn=5, fn=0)["TPR"])

    def test_false_positive_rate(self):
        assert self.C["FPR"] == pytest.approx(0.02, abs=1e-12)
        assert scores_of(1, 0, 1750, 1)["FPR"] == 0.0
        assert scores_of(0, 1750, 0, 250)["FPR"] == 1.0

    def test_false_positive_rate_no_negatives(self):
        assert math.isnan(scores_of(tp=5, fp=0, tn=0, fn=5)["FPR"])

    @given(
        st.integers(0, 500), st.integers(0, 500), st.integers(0, 500), st.integers(0, 500)
    )
    @settings(max_examples=100, deadline=None)
    def test_metrics_stay_in_unit_interval(self, tp, fp, tn, fn):
        scores = scores_of(tp, fp, tn, fn)
        assert (scores["tp"], scores["fp"], scores["tn"], scores["fn"]) == (tp, fp, tn, fn)
        denominators = {"ACC": tp + fp + tn + fn, "PRC": tp + fp, "TPR": tp + fn, "FPR": fp + tn}
        for kind, denominator in denominators.items():
            if denominator >= 1:
                assert 0.0 <= scores[kind] <= 1.0
            else:
                assert math.isnan(scores[kind])


class TestAggregate:
    # per-class ACC means of one reference dataset at the smallest ladder size
    AU_ACC_10 = (0.96, 0.86, 0.87, 0.87, 0.93, 0.91, 0.92, 0.85, 0.86)

    def test_nine_class_row_average(self):
        obs = [
            make_obs(v, 10, dataset="AU", class_label=f"c{i}")
            for i, v in enumerate(self.AU_ACC_10)
        ]
        rows = aggregate(as_table(obs), ["dataset", "num_tr_images"])
        assert len(rows) == 1
        assert rows[0].mean == pytest.approx(0.892, abs=5e-4)
        assert round(rows[0].mean, 2) == 0.89
        assert rows[0].count == 9

    def test_single_observation_group(self):
        rows = aggregate(observation_rows([0.5], [10]), ["dataset"])
        assert rows[0].mean == 0.5
        assert rows[0].std is None

    def test_two_equal_observations(self):
        rows = aggregate(observation_rows([0.7, 0.7], [10, 10]), ["dataset"])
        assert rows[0].std == 0.0
        assert rows[0].count == 2

    def test_uses_unbiased_standard_deviation(self):
        vals = (0.2, 0.5, 0.8)
        rows = aggregate(observation_rows(vals, [10] * 3), ["dataset"])
        assert rows[0].std == pytest.approx(float(np.std(vals, ddof=1)), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            aggregate(observation_rows([], []), ["dataset"])

    def test_unknown_field_rejected(self):
        with pytest.raises(InputError, match="group"):
            aggregate(observation_rows([0.5], [10]), ["species"])

    def test_groups_split_by_key(self):
        obs = [make_obs(0.5, 10, dataset="AU"), make_obs(0.9, 10, dataset="WI")]
        rows = aggregate(as_table(obs), ["dataset"])
        assert [r.key for r in rows] == [("AU",), ("WI",)]


labels = st.sampled_from(["a", "b", "Z", "é", "ab", "ba"])


def table_row(values):
    """Rows of an observation table, in OBSERVATION_COLUMNS order, with their value
    drawn from `values` and the rest from few values, one-character labels among
    them, so that tuples repeat."""
    kinds, sizes = st.sampled_from(METRIC_KINDS), st.integers(1, 3)
    return st.tuples(kinds, values, labels, labels, sizes, labels, labels, labels)


table_rows = st.one_of(
    st.lists(table_row(st.sampled_from([0.0, 0.25, 1.0])), min_size=1, max_size=30),
    st.builds(lambda row, n: [row] * n, table_row(st.just(0.5)), st.integers(1, 8)),  # all equal
)
# an ordered selection of the columns, possibly none
column_names = st.permutations(OBSERVATION_COLUMNS).flatmap(
    lambda names: st.integers(0, len(names)).map(lambda k: list(names[:k]))
)


class TestDistinct:
    @settings(max_examples=200, deadline=None)
    @given(table_rows, column_names)
    @example([("ACC", 0.25, "a", "b", 1, "a", "a", "a")], ["class", "dataset"])  # a single row
    @example([("ACC", 0.25, "a", "b", 1, "a", "a", "a")] * 3, ["dataset"])  # all rows equal
    def test_matches_a_python_oracle(self, rows, names):
        # the sorted set of the rows' tuples, and each row's position in it
        tuples = [tuple(row[OBSERVATION_COLUMNS.index(name)] for name in names) for row in rows]
        keys = sorted(set(tuples))
        table = as_table(rows)
        firsts, inverse = _distinct(table, names)
        assert [tuple(table[name][i].item() for name in names) for i in firsts] == keys
        assert firsts.tolist() == [tuples.index(key) for key in keys]
        assert inverse.tolist() == [keys.index(t) for t in tuples]


groupable = [name for name in OBSERVATION_COLUMNS if name != "value"]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(table_row(st.floats(0.0, 1.0)), min_size=1, max_size=30),
    st.permutations(groupable).flatmap(lambda names: st.integers(1, 3).map(lambda k: names[:k])),
)
def test_aggregate_matches_a_python_oracle(rows, group_by):
    # each group's values in row order, by key; its mean and sample standard deviation
    groups: dict = {}
    for row in rows:
        key = tuple(row[OBSERVATION_COLUMNS.index(name)] for name in group_by)
        groups.setdefault(key, []).append(row[1])
    result = aggregate(as_table(rows), group_by)
    assert [(r.key, r.count) for r in result] == [(k, len(groups[k])) for k in sorted(groups)]
    for r in result:
        values = groups[r.key]
        assert r.mean == pytest.approx(statistics.fmean(values), rel=1e-12)
        std = statistics.stdev(values) if len(values) > 1 else None
        assert r.std == (None if std is None else pytest.approx(std, rel=1e-9, abs=1e-15))


def spread(columns, shape):
    """`columns` with each broadcast to `shape` and flattened: one value per row."""
    return {name: np.broadcast_to(column, shape).reshape(-1) for name, column in columns.items()}


def table_or_error(columns):
    """(rows, dtype) of the observation table of `columns`, or its InputError text."""
    try:
        table = observation_table(columns)
    except InputError as exc:
        return str(exc)
    return table.tolist(), table.dtype


@st.composite
def broadcast_columns(draw):
    """Observation columns whose `value` has 1-3 axes of length 2-3.

    Every other column broadcasts to `value`: it keeps each axis or gives it
    length 1, and may leave out leading axes.  Up to two entries of the
    checked columns are made invalid: an unknown kind, a value 1.5 or a size 0.
    """
    shape = tuple(draw(st.lists(st.integers(2, 3), min_size=1, max_size=3)))

    def column(elements, full=False):
        axes = shape if full else tuple(n if draw(st.booleans()) else 1 for n in shape)
        axes = axes if full else axes[draw(st.integers(0, len(axes))) :]
        count = math.prod(axes)
        return np.array(draw(st.lists(elements, min_size=count, max_size=count))).reshape(axes)

    elements = {
        "metric": st.sampled_from(METRIC_KINDS),
        "value": st.floats(0.0, 1.0),
        "num_tr_images": st.integers(1, 1000),
    }
    columns = {
        name: column(elements.get(name, st.sampled_from(["a", "bb", "ccc"])), name == "value")
        for name in OBSERVATION_COLUMNS
    }
    invalid = {"metric": "MAP", "value": 1.5, "num_tr_images": 0}
    for name in draw(st.lists(st.sampled_from(sorted(invalid)), max_size=2)):
        array = columns[name]
        array.flat[draw(st.integers(0, array.size - 1))] = invalid[name]
    return columns, shape


class TestObservationTable:
    # labels on a (size, metric, class) value array, each given once along its axis
    SHAPE = (2, 3, 4)
    COLUMNS = {
        "metric": np.array(["ACC", "PRC", "FPR"])[:, None],
        "value": np.linspace(0.0, 1.0, 24).reshape(SHAPE),
        "dataset": "AU",
        "class": np.array(["blank", "cat", "dog", "hippopotamus"]),
        "num_tr_images": np.array([10, 20])[:, None, None],
        "architecture": "resNet18",
        "tuning": np.array(["deep", "shallow"])[:, None, None],
        "augmentation": "none",
    }

    def test_broadcast_columns_give_the_table_of_their_spread_columns(self):
        table = observation_table(self.COLUMNS)
        assert table_or_error(self.COLUMNS) == table_or_error(spread(self.COLUMNS, self.SHAPE))
        assert len(table) == 24 and table.flags.c_contiguous and not table.flags.writeable
        # rows in C order of `value`: class fastest, then metric, then size
        assert table[5].tolist() == ("PRC", 5 / 23, "AU", "cat", 10, "resNet18", "deep", "none")

    @pytest.mark.parametrize(
        "name, column, message",
        [
            ("metric", np.array(["ACC", "MAP", "FPR"])[:, None], "observation 4: unknown metric"),
            ("num_tr_images", np.array([10, 0])[:, None, None], "observation 12: num_tr_images 0"),
        ],
        ids=["metric", "size"],
    )
    def test_bad_entry_of_a_broadcast_column_is_named_by_its_first_row(self, name, column, message):
        with pytest.raises(InputError, match=message):
            observation_table({**self.COLUMNS, name: column})

    def test_first_bad_row_is_named_and_within_it_the_first_failed_check(self):
        value = self.COLUMNS["value"].copy()
        value[0, 2, 0] = 1.5  # row 8
        for metric, expected in (
            (["ACC", "ACC", "MAP"], "observation 8: unknown metric kind 'MAP'"),  # from row 8
            (["ACC", "MAP", "ACC"], "observation 4: unknown metric kind 'MAP'"),  # from row 4
            (["ACC", "PRC", "ACC"], "observation 8: metric value 1.5 outside [0, 1]"),
        ):
            columns = {**self.COLUMNS, "value": value, "metric": np.array(metric)[:, None]}
            assert table_or_error(columns).startswith(expected)

    @settings(max_examples=150, deadline=None)
    @given(broadcast_columns())
    def test_broadcasting_never_changes_the_table_or_its_error(self, drawn):
        columns, shape = drawn
        assert table_or_error(columns) == table_or_error(spread(columns, shape))
