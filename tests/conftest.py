import numpy as np
import pytest

from camcurves import betagam, design, observation_table
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


@pytest.fixture(scope="session")
def calibrated_observations():
    return design.simulate_grid(CALIBRATION_SEED)


@pytest.fixture(scope="session")
def calibrated_acc_model(calibrated_observations):
    spec = betagam.default_spec("ACC")
    data = calibrated_observations[calibrated_observations.metric == "ACC"]
    return betagam.fit(spec, data)
