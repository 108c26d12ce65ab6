import tracemalloc

import numpy as np
import pytest

from camcurves import betagam, design, io, observation_table
from camcurves.metrics import OBSERVATION_COLUMNS

# master seed for the calibrated-grid fixtures; several structural checks
# are seed-pinned by design (the suite asserts properties of one realization)
CALIBRATION_SEED = 20260811


def make_obs(
    value,
    num_tr_images,
    metric="ACC",
    dataset="AU",
    class_label="c0",
    architecture="dnsNet121",
    tuning="deep",
    augmentation="none",
):
    """One observation row: its values in OBSERVATION_COLUMNS order."""
    return (
        metric,
        float(value),
        dataset,
        class_label,
        int(num_tr_images),
        architecture,
        tuning,
        augmentation,
    )


def as_table(rows):
    """The observation table of make_obs rows."""
    columns = list(zip(*rows)) or [()] * len(OBSERVATION_COLUMNS)
    return observation_table(dict(zip(OBSERVATION_COLUMNS, columns)))


def observation_rows(values, sizes, **kwargs):
    return as_table([make_obs(v, n, **kwargs) for v, n in zip(values, sizes)])


def traced_peak(run):
    """The peak of the memory traced while `run()` runs, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def calibrated_observations():
    return design.simulate_grid(CALIBRATION_SEED)


@pytest.fixture(scope="session")
def grid_csv(calibrated_observations, tmp_path_factory):
    """The calibrated grid written as an observation CSV, as `simulate` writes it."""
    path = str(tmp_path_factory.mktemp("grid") / "grid.csv")
    io.write_observations_csv(path, calibrated_observations)
    return path


@pytest.fixture(scope="session")
def calibrated_acc_model(calibrated_observations):
    return betagam.fit(betagam.ModelSpec("ACC"), calibrated_observations)
