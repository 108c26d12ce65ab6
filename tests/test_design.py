import hashlib
from collections import Counter, defaultdict
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camcurves import cli, design, io
from camcurves._numeric import inv_logit
from camcurves.errors import InputError
from camcurves.metrics import METRIC_KINDS

from conftest import CALIBRATION_SEED, traced_peak

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


def reference_grid(seed):
    """The grid's rows drawn one by one: a cell's classes in one Beta call per
    metric, each row a tuple in OBSERVATION_COLUMNS order.  The class offsets
    are drawn in the reverse of the simulator's (metric, dataset) order, so a
    match also shows that they do not depend on their draw order."""
    class_offsets = {}
    offset_keys = product(enumerate(METRIC_KINDS), enumerate(design.DATASETS))
    for (mi, metric), (di, dataset) in reversed(list(offset_keys)):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(design._CLASS_OFFSET_KEY, mi, di))
        )
        offs = rng.normal(0.0, design.DEFAULT_CLASS_OFFSET_SD, len(design.DEFAULT_CLASSES[dataset]))
        class_offsets[(metric, dataset)] = offs - offs.mean()

    logits = design._base_logits()
    rows = []
    for key in product(*(range(len(axis)) for axis in design.GRID_AXES)):
        dataset, size, arch, tuning, aug = (axis[i] for axis, i in zip(design.GRID_AXES, key))
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
        for mi, metric in enumerate(METRIC_KINDS):
            eta = (
                logits[mi, key[0], key[1]]
                + design.DEFAULT_ARCH_OFFSETS[metric][arch]
                + (design.DEFAULT_TUNING_OFFSETS[metric] if tuning == design.TUNINGS[1] else 0.0)
                + class_offsets[(metric, dataset)]
            )
            mu = inv_logit(eta)
            values = rng.beta(mu * design.DEFAULT_PHI_SIM, (1.0 - mu) * design.DEFAULT_PHI_SIM)
            rows.extend(
                (metric, value, dataset, label, size, arch, tuning, aug)
                for label, value in zip(design.DEFAULT_CLASSES[dataset], values.tolist())
            )
    return rows


class TestSimulateGrid:
    @pytest.mark.parametrize("seed", [CALIBRATION_SEED, 0, 515151])
    def test_matches_the_row_by_row_draw(self, seed):
        assert design.simulate_grid(seed).tolist() == reference_grid(seed)

    def test_peak_memory_stays_within_one_and_a_quarter_tables(self, calibrated_observations):
        # the table is the one array with an entry per row (about 1.15 tables traced)
        peak = traced_peak(lambda: design.simulate_grid(CALIBRATION_SEED))
        assert peak <= 1.25 * calibrated_observations.nbytes

    def test_calibrated_grid_csv_is_pinned(self, calibrated_observations, tmp_path):
        path = tmp_path / "grid.csv"
        io.write_observations_csv(str(path), [calibrated_observations])
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

    def test_each_cell_draws_from_its_own_substream(self, calibrated_observations):
        reversed_walk = design.simulate_grid(CALIBRATION_SEED, range(design.GRID_CELLS)[::-1])

        def by_cell(table):
            return dict(zip(row_keys(table), table.value.tolist()))

        assert reversed_walk.tolist() != calibrated_observations.tolist()  # the order did change
        assert by_cell(reversed_walk) == by_cell(calibrated_observations)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, design.GRID_CELLS), min_size=2, max_size=2))
    def test_a_run_of_cells_draws_the_grid_rows_of_its_cells(self, calibrated_observations, ends):
        start, stop = sorted(ends)
        per_cell = len(calibrated_observations) // design.GRID_CELLS
        run = design.simulate_grid(CALIBRATION_SEED, range(start, stop))
        assert run.tolist() == calibrated_observations[start * per_cell : stop * per_cell].tolist()

    @pytest.mark.parametrize("cell", [-1, design.GRID_CELLS])
    def test_a_cell_outside_the_grid_is_an_input_error(self, cell):
        with pytest.raises(InputError, match=f"cell {cell} is outside the grid's 0 to 863"):
            design.simulate_grid(CALIBRATION_SEED, [0, cell])

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


def simulate(seed, path):
    """Run `camcurves simulate` in this process, writing to `path`."""
    assert cli.main(["simulate", "--seed", str(seed), "--out", str(path)]) == cli.EXIT_OK


def forget_calibration():
    """Drop the simulator's cached values, as a new process starts without them."""
    design._grid_means.cache_clear()


class TestSimulateCommand:
    def test_writes_the_pinned_grid(self, tmp_path):
        simulate(CALIBRATION_SEED, tmp_path / "grid.csv")
        digest = hashlib.sha256((tmp_path / "grid.csv").read_bytes()).hexdigest()
        assert digest == CALIBRATED_GRID_SHA256

    @pytest.mark.parametrize("seed", [0, 515151])
    def test_writes_the_bytes_of_the_whole_table(self, tmp_path, seed):
        io.write_observations_csv(str(tmp_path / "table.csv"), [design.simulate_grid(seed)])
        simulate(seed, tmp_path / "grid.csv")
        assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "table.csv").read_bytes()

    def test_blocks_joined_are_the_grid(self, calibrated_observations):
        blocks = list(cli._grid_blocks(CALIBRATION_SEED))
        assert len(blocks) == len(design.DATASETS) * len(design.DEFAULT_SIZE_LADDER)
        joined = [row for block in blocks for row in block.tolist()]
        assert joined == calibrated_observations.tolist()

    def test_peak_memory_stays_within_three_tenths_of_a_table(
        self, calibrated_observations, tmp_path
    ):
        # one (dataset, size) rung's table at a time, an 18th of the grid's
        forget_calibration()
        peak = traced_peak(lambda: simulate(CALIBRATION_SEED, tmp_path / "grid.csv"))
        assert peak <= 0.3 * calibrated_observations.nbytes

    def test_calibrates_each_metric_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(metric):
            calls.append(metric)
            return calibrate(metric)

        calibrate = design._calibrate_bases
        monkeypatch.setattr(design, "_calibrate_bases", counted)
        forget_calibration()
        simulate(CALIBRATION_SEED, tmp_path / "grid.csv")
        assert calls == list(METRIC_KINDS)


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
        assert manifest["size_ladder"] == ladder
        for label, cd in manifest["classes"].items():
            assert cd["pool"] == pools[label]
            test = set(cd["test_ids"])
            assert len(test) == len(cd["test_ids"]) == test_size
            non_test = set(cd["pool"]) - test
            assert list(cd["train_subsets"]) == [str(size) for size in ladder]
            for size, subset in cd["train_subsets"].items():
                assert len(subset) == len(set(subset)) == int(size)
                assert set(subset) <= non_test
            if nested:
                subsets = [cd["train_subsets"][str(size)] for size in ladder]
                for small, large in zip(subsets, subsets[1:]):
                    assert large[: len(small)] == small

    @settings(max_examples=30, deadline=None)
    @given(split_problems(), st.booleans())
    def test_same_seed_same_manifest(self, problem, nested):
        pools, test_size, ladder, seed = problem
        kwargs = dict(test_size=test_size, size_ladder=ladder, seed=seed, nested=nested)
        assert design.split_design(pools, **kwargs) == design.split_design(pools, **kwargs)

    def test_short_pool_rejected(self):
        with pytest.raises(InputError, match="short by 1"):
            design.split_design({"a": list(range(14))}, test_size=5, size_ladder=(5, 10))

    @pytest.mark.parametrize("second", ["a", "b"])
    def test_an_image_id_listed_twice_is_rejected(self, second):
        # listed under two classes, i0 could test one class and train the other
        pools = {"a": [f"i{j}" for j in range(0, 40, 2)], "b": [f"i{j}" for j in range(1, 40, 2)]}
        pools[second].append("i0")
        message = f"image id 'i0' is listed twice: in class 'a' and in class '{second}'"
        with pytest.raises(InputError, match=message):
            design.split_design(pools, test_size=5, size_ladder=(5, 10), seed=1)


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
    """Two classes of 12 ids, "a0".."a11" and "b0".."b11"; the first four of each are test ids."""
    classes = {
        label: {
            "pool": [f"{label}{i}" for i in range(12)],
            "test_ids": [f"{label}{i}" for i in range(4)],
            "train_subsets": {"4": [f"{label}{i}" for i in range(4, 8)]},
        }
        for label in ("a", "b")
    }
    return {"seed": 0, "test_size": 4, "size_ladder": [4], "nested": True, "classes": classes}


class TestLocationCoverage:
    def test_three_locations_per_split_is_ok(self):
        manifest = _manifest()
        locations = {i: f"L{n % 3}" for cd in manifest["classes"].values()
                     for n, i in enumerate(cd["pool"])}
        report = design.validate_location_coverage(manifest, locations)
        assert report == {"status": "ok", "violations": []}

    def test_a_split_on_too_few_locations_is_a_violation(self):
        manifest = _manifest()
        locations = {i: f"L{n % 3}" for cd in manifest["classes"].values()
                     for n, i in enumerate(cd["pool"])}
        for i in manifest["classes"]["b"]["test_ids"]:
            locations[i] = "L0"
        report = design.validate_location_coverage(manifest, locations)
        assert report == {
            "status": "violations",
            "violations": [{"class": "b", "split": "test", "distinct_locations": 1}],
        }

    def test_an_image_without_a_location_cannot_be_validated(self):
        manifest = _manifest()
        locations = {i: "L0" for cd in manifest["classes"].values() for i in cd["pool"]}
        del locations["a5"]
        report = design.validate_location_coverage(manifest, locations)
        assert report == {
            "status": "cannot_validate",
            "violations": [],
            "detail": "1 image ids lack a location (e.g. 'a5')",
        }
