import numpy as np
import pytest

from camcurves import MetricObservation, betagam, design

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
    return MetricObservation(
        metric=metric,
        value=float(value),
        dataset=dataset,
        class_label=class_label,
        num_tr_images=int(num_tr_images),
        architecture=architecture,
        tuning=tuning,
        augmentation=augmentation,
    )


def observation_rows(values, sizes, **kwargs):
    return [make_obs(v, n, **kwargs) for v, n in zip(values, sizes)]


@pytest.fixture(scope="session")
def calibrated_observations():
    return design.simulate_grid(CALIBRATION_SEED)


@pytest.fixture(scope="session")
def calibrated_acc_model(calibrated_observations):
    spec = betagam.default_spec("ACC")
    data = [o for o in calibrated_observations if o.metric == "ACC"]
    return betagam.fit(spec, data)
