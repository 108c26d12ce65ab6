import hashlib
from collections import Counter, defaultdict
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camcurves import design, io
from camcurves.errors import InputError
from camcurves.metrics import METRIC_KINDS

from conftest import CALIBRATION_SEED

# sha256 of the calibrated grid CSV at CALIBRATION_SEED; the benchmark's
# reference answers record the same value
CALIBRATED_GRID_SHA256 = "769df85f0592e3701e9fa45e9251265998e18e406727b93ff21039d32d836d7d"


# the fields that tell one simulated observation from every other
CELL_CLASS_METRIC = (
    "dataset", "num_tr_images", "architecture", "tuning", "augmentation", "class", "metric"
)


def row_keys(table, names=CELL_CLASS_METRIC):
    """One tuple of the fields `names` per row of an observation table."""
    return list(zip(*(table[name].tolist() for name in names)))


class TestSimulateGrid:
    def test_calibrated_grid_csv_is_pinned(self, calibrated_observations, tmp_path):
        path = tmp_path / "grid.csv"
        io.write_observations_csv(str(path), calibrated_observations)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CALIBRATED_GRID_SHA256

    def test_every_cell_class_and_metric_appears_once(self, calibrated_observations):
        counts = Counter(row_keys(calibrated_observations))
        expected = {
            (*cell, label, metric)
            for cell in product(*design.GRID_AXES)
            for label in design.DEFAULT_CLASSES[cell[0]]
            for metric in METRIC_KINDS
        }
        assert set(counts) == expected
        assert set(counts.values()) == {1}
        assert len(calibrated_observations) == 31_104

    def test_seed_determines_the_grid(self, calibrated_observations):
        grid = calibrated_observations.tolist()
        assert design.simulate_grid(CALIBRATION_SEED).tolist() == grid
        assert design.simulate_grid(CALIBRATION_SEED + 1).tolist() != grid

    def test_each_cell_draws_from_its_own_substream(self, calibrated_observations, monkeypatch):
        # walk the cells (and the class-offset keys) in reverse order
        monkeypatch.setattr(design, "product", lambda *axes: reversed(list(product(*axes))))
        reversed_walk = design.simulate_grid(CALIBRATION_SEED)

        def by_cell(table):
            return dict(zip(row_keys(table), table.value.tolist()))

        assert reversed_walk.tolist() != calibrated_observations.tolist()  # the order did change
        assert by_cell(reversed_walk) == by_cell(calibrated_observations)

    def test_dataset_means_track_the_reference_trajectories(self, calibrated_observations):
        values = defaultdict(list)
        keys = row_keys(calibrated_observations, ("metric", "dataset", "num_tr_images"))
        for key, value in zip(keys, calibrated_observations.value.tolist()):
            values[key].append(value)
        for metric, trajectories in design.REFERENCE_TRAJECTORIES.items():
            for dataset, trajectory in trajectories.items():
                for size, target in zip(design.DEFAULT_SIZE_LADDER, trajectory):
                    mean = np.mean(values[(metric, dataset, size)])
                    assert abs(mean - target) < 0.01, (metric, dataset, size)


@st.composite
def split_problems(draw):
    ladder = sorted(draw(st.sets(st.integers(1, 12), min_size=1, max_size=4)))
    test_size = draw(st.integers(1, 8))
    pools = {}
    for c in range(draw(st.integers(1, 3))):
        size = test_size + ladder[-1] + draw(st.integers(0, 10))
        pools[f"c{c}"] = [f"c{c}-{i}" for i in range(size)]
    return pools, test_size, ladder, draw(st.integers(0, 2**32 - 1))


class TestSplitDesign:
    @settings(max_examples=60, deadline=None)
    @given(split_problems(), st.booleans())
    def test_splits_are_exclusive_and_sized_by_the_ladder(self, problem, nested):
        pools, test_size, ladder, seed = problem
        manifest = design.split_design(
            pools, test_size=test_size, size_ladder=ladder, seed=seed, nested=nested
        )
        assert manifest.size_ladder == tuple(ladder)
        for label, cd in manifest.classes.items():
            assert cd.pool == tuple(pools[label])
            test = set(cd.test_ids)
            assert len(test) == len(cd.test_ids) == test_size
            non_test = set(cd.pool) - test
            assert sorted(cd.train_subsets) == ladder
            for size, subset in cd.train_subsets.items():
                assert len(subset) == len(set(subset)) == size
                assert set(subset) <= non_test
            if nested:
                for small, large in zip(ladder, ladder[1:]):
                    assert cd.train_subsets[large][:small] == cd.train_subsets[small]

    @settings(max_examples=30, deadline=None)
    @given(split_problems(), st.booleans())
    def test_same_seed_same_manifest(self, problem, nested):
        pools, test_size, ladder, seed = problem
        kwargs = dict(test_size=test_size, size_ladder=ladder, seed=seed, nested=nested)
        assert design.split_design(pools, **kwargs) == design.split_design(pools, **kwargs)

    def test_short_pool_rejected(self):
        with pytest.raises(InputError, match="short by 1"):
            design.split_design({"a": list(range(14))}, test_size=5, size_ladder=(5, 10))


class TestEqualSpaceSelect:
    def test_example(self):
        assert design.equal_space_select(list("abcdefghij"), 4) == ["a", "c", "f", "h"]

    @given(st.integers(1, 300), st.data())
    def test_picks_floor_of_i_m_over_k_in_order(self, m, data):
        k = data.draw(st.integers(1, m))
        ids = [f"img{i:04d}" for i in range(m)]
        picked = design.equal_space_select(ids, k)
        assert picked == [ids[int(np.floor(i * m / k))] for i in range(k)]
        assert picked == sorted(set(picked))

    @pytest.mark.parametrize("k", [0, -1, 6])
    def test_count_outside_one_to_m_rejected(self, k):
        with pytest.raises(InputError):
            design.equal_space_select(list(range(5)), k)


def _manifest():
    classes = {
        label: design.ClassDesign(
            pool=tuple(f"{label}{i}" for i in range(12)),
            test_ids=tuple(f"{label}{i}" for i in range(4)),
            train_subsets={4: tuple(f"{label}{i}" for i in range(4, 8))},
        )
        for label in ("a", "b")
    }
    return design.SamplingManifest(
        classes=classes, seed=0, size_ladder=(4,), test_size=4, nested=True
    )


class TestLocationCoverage:
    def test_three_locations_per_split_is_ok(self):
        manifest = _manifest()
        locations = {i: f"L{n % 3}" for cd in manifest.classes.values()
                     for n, i in enumerate(cd.pool)}
        report = design.validate_location_coverage(manifest, locations)
        assert report.status == "ok"
        assert report.violations == ()

    def test_a_split_on_too_few_locations_is_a_violation(self):
        manifest = _manifest()
        locations = {i: f"L{n % 3}" for cd in manifest.classes.values()
                     for n, i in enumerate(cd.pool)}
        for i in manifest.classes["b"].test_ids:
            locations[i] = "L0"
        report = design.validate_location_coverage(manifest, locations)
        assert report.status == "violations"
        assert report.violations == (
            design.CoverageViolation(class_label="b", split="test", distinct_locations=1),
        )

    def test_an_image_without_a_location_cannot_be_validated(self):
        manifest = _manifest()
        locations = {i: "L0" for cd in manifest.classes.values() for i in cd.pool}
        del locations["a5"]
        report = design.validate_location_coverage(manifest, locations)
        assert report.status == "cannot_validate"
        assert "'a5'" in report.detail
