import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camcurves import (
    ConfusionCounts,
    InputError,
    NoPositivePredictions,
    PredictionRecord,
    UndefinedMetricError,
    accuracy,
    aggregate,
    false_positive_rate,
    precision,
    tally_confusion,
    true_positive_rate,
)

from conftest import as_table, make_obs, observation_rows


def rec(true, pred, image_id="img"):
    return PredictionRecord(image_id=image_id, true_class=true, predicted_class=pred)


class TestTallyConfusion:
    def test_hand_enumerated_four_records(self):
        records = [rec("A", "A"), rec("A", "B"), rec("B", "B"), rec("C", "C")]
        counts = tally_confusion(records, ["A", "B", "C"])
        assert counts["A"] == ConfusionCounts(tp=1, fn=1, fp=0, tn=2)

    def test_perfect_classifier_has_no_errors(self):
        records = [rec(c, c) for c in "ABCD" for _ in range(3)]
        counts = tally_confusion(records, list("ABCD"))
        assert all(c.fp == 0 and c.fn == 0 for c in counts.values())

    def test_single_misclassified_record(self):
        counts = tally_confusion([rec("A", "B")], ["A", "B"])
        assert counts["A"] == ConfusionCounts(tp=0, fn=1, fp=0, tn=0)
        assert counts["B"] == ConfusionCounts(tp=0, fn=0, fp=1, tn=0)

    def test_unknown_label_is_named(self):
        with pytest.raises(InputError, match="Zebra"):
            tally_confusion([rec("A", "Zebra")], ["A", "B"])

    def test_empty_records_rejected(self):
        with pytest.raises(InputError):
            tally_confusion([], ["A"])

    @given(
        st.lists(
            st.tuples(st.sampled_from("ABCD"), st.sampled_from("ABCD")),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_pairwise_counting(self, pairs):
        records = [rec(t, p, image_id=str(i)) for i, (t, p) in enumerate(pairs)]
        counts = tally_confusion(records, list("ABCD"))
        for c in "ABCD":
            tp = sum(1 for t, p in pairs if t == c and p == c)
            fn = sum(1 for t, p in pairs if t == c and p != c)
            fp = sum(1 for t, p in pairs if t != c and p == c)
            tn = sum(1 for t, p in pairs if t != c and p != c)
            assert counts[c] == ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
            assert counts[c].total == len(pairs)

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
        records = [rec(t, p, image_id=str(i)) for i, (t, p) in enumerate(pairs)]
        shuffled = records[:]
        rnd.shuffle(shuffled)
        assert tally_confusion(records, list("ABC")) == tally_confusion(shuffled, list("ABC"))

    def test_balanced_test_set_margins(self):
        # K classes with m images each: tp+fn = m, fp+tn = (K-1)*m for every class
        rng = np.random.default_rng(5)
        classes = list("ABCDE")
        m = 40
        records = [
            rec(t, rng.choice(classes), image_id=f"{t}{i}")
            for t in classes
            for i in range(m)
        ]
        counts = tally_confusion(records, classes)
        for c in classes:
            assert counts[c].tp + counts[c].fn == m
            assert counts[c].fp + counts[c].tn == (len(classes) - 1) * m


class TestMetricFormulas:
    C = ConfusionCounts(tp=225, fn=25, fp=35, tn=1715)

    def test_accuracy(self):
        assert accuracy(self.C) == pytest.approx(0.97, abs=1e-12)
        assert accuracy(ConfusionCounts(250, 0, 1750, 0)) == 1.0
        assert accuracy(ConfusionCounts(0, 1750, 0, 250)) == 0.0

    def test_precision(self):
        assert precision(self.C) == pytest.approx(225 / 260, abs=1e-12)
        assert precision(ConfusionCounts(250, 0, 1750, 0)) == 1.0

    def test_precision_undefined_is_typed(self):
        with pytest.raises(NoPositivePredictions):
            precision(ConfusionCounts(tp=0, fp=0, tn=1750, fn=250))

    def test_true_positive_rate(self):
        assert true_positive_rate(self.C) == pytest.approx(0.90, abs=1e-12)
        assert true_positive_rate(ConfusionCounts(250, 0, 1750, 0)) == 1.0
        assert true_positive_rate(ConfusionCounts(0, 0, 1750, 250)) == 0.0

    def test_true_positive_rate_absent_class(self):
        with pytest.raises(UndefinedMetricError, match="absent"):
            true_positive_rate(ConfusionCounts(tp=0, fp=3, tn=5, fn=0))

    def test_false_positive_rate(self):
        assert false_positive_rate(self.C) == pytest.approx(0.02, abs=1e-12)
        assert false_positive_rate(ConfusionCounts(1, 0, 1750, 1)) == 0.0
        assert false_positive_rate(ConfusionCounts(0, 1750, 0, 250)) == 1.0

    def test_false_positive_rate_no_negatives(self):
        with pytest.raises(UndefinedMetricError):
            false_positive_rate(ConfusionCounts(tp=5, fp=0, tn=0, fn=5))

    def test_negative_counts_rejected(self):
        with pytest.raises(InputError):
            ConfusionCounts(tp=-1, fp=0, tn=0, fn=0)

    @given(
        st.integers(0, 500), st.integers(0, 500), st.integers(0, 500), st.integers(0, 500)
    )
    @settings(max_examples=100, deadline=None)
    def test_metrics_stay_in_unit_interval(self, tp, fp, tn, fn):
        c = ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
        if c.total >= 1:
            assert 0.0 <= accuracy(c) <= 1.0
        if tp + fp >= 1:
            assert 0.0 <= precision(c) <= 1.0
        if tp + fn >= 1:
            assert 0.0 <= true_positive_rate(c) <= 1.0
        if fp + tn >= 1:
            assert 0.0 <= false_positive_rate(c) <= 1.0


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
