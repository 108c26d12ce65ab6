import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camcurves import InputError, aggregate, confusion_matrix, one_vs_rest

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
