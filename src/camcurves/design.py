"""Balanced sampling designs and the synthetic experiment-grid simulator.

Design side: deterministic equal-spacing subsampling of time-ordered image
sequences, seeded exclusive test splits with nested training subsets, and a
location-coverage check of a split.

Simulation side: `simulate_grid(seed)` draws the one calibrated 864-cell
experiment grid (3 datasets x 6 training sizes x 6 architectures x 2 tuning
schemes x 4 augmentation schemes) from the module constants below, emitting
per-class Beta-distributed metric values whose logit-scale means follow a
log-size law plus per-dataset adjustments, calibrated so the simulated
dataset-average trajectories reproduce REFERENCE_TRAJECTORIES.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from ._numeric import inv_logit, logit
from .errors import InputError
from .metrics import METRIC_KINDS, OBSERVATION_COLUMNS, observation_table

DEFAULT_SIZE_LADDER = (10, 20, 50, 150, 500, 1000)
DEFAULT_TEST_SIZE = 250

DATASETS = ("AU", "SE", "WI")
ARCHITECTURES = ("dnsNet121", "dnsNet161", "dnsNet201", "resNet18", "resNet50", "resNet152")
TUNINGS = ("deep", "shallow")
# augmentation schemes: which of train/test sets receives augmented copies
AUGMENTATIONS = ("trainOnly", "trainAndTest", "testOnly", "none")
# the axes of the simulated grid, in the order its cells are drawn and written
GRID_AXES = (DATASETS, DEFAULT_SIZE_LADDER, ARCHITECTURES, TUNINGS, AUGMENTATIONS)

DEFAULT_CLASSES = {
    "AU": ("blank", "cat", "dog", "fox", "horse", "kangaroo", "lyrebird", "others", "pig"),
    "SE": ("baboon", "blank", "buffalo", "cheetah", "elephant", "hippopotamus", "impala",
           "others", "zebra"),
    "WI": ("bear", "blank", "elk", "opossum", "others", "porcupine", "raccoon",
           "snowshoe_hare", "turkey"),
}

# Mean per-class test metrics observed on three reference camera-trap corpora
# at each ladder size (aggregated over architectures, tuning and augmentation).
# These anchor the default simulator calibration.
REFERENCE_TRAJECTORIES = {
    "ACC": {
        "AU": (0.89, 0.91, 0.94, 0.96, 0.99, 0.99),
        "SE": (0.90, 0.93, 0.94, 0.95, 0.97, 0.97),
        "WI": (0.87, 0.88, 0.92, 0.94, 0.96, 0.97),
    },
    "PRC": {
        "AU": (0.54, 0.61, 0.72, 0.84, 0.94, 0.97),
        "SE": (0.55, 0.68, 0.75, 0.80, 0.85, 0.88),
        "WI": (0.44, 0.50, 0.64, 0.74, 0.81, 0.87),
    },
    "TPR": {
        "AU": (0.52, 0.60, 0.71, 0.84, 0.94, 0.97),
        "SE": (0.54, 0.67, 0.74, 0.79, 0.85, 0.88),
        "WI": (0.42, 0.48, 0.63, 0.73, 0.81, 0.86),
    },
    "FPR": {
        "AU": (0.06, 0.05, 0.04, 0.02, 0.01, 0.00),
        "SE": (0.06, 0.04, 0.03, 0.03, 0.02, 0.02),
        "WI": (0.07, 0.06, 0.05, 0.03, 0.02, 0.02),
    },
}

# logit-scale effects of architecture (relative to dnsNet121) and of shallow
# vs deep tuning, per metric, for the default simulator
DEFAULT_ARCH_OFFSETS = {
    "ACC": {"dnsNet121": 0.0, "dnsNet161": 0.090, "dnsNet201": 0.040,
            "resNet18": -0.125, "resNet50": -0.060, "resNet152": -0.055},
    "PRC": {"dnsNet121": 0.0, "dnsNet161": 0.095, "dnsNet201": 0.064,
            "resNet18": -0.178, "resNet50": -0.077, "resNet152": -0.072},
    "TPR": {"dnsNet121": 0.0, "dnsNet161": 0.091, "dnsNet201": 0.063,
            "resNet18": -0.171, "resNet50": -0.093, "resNet152": -0.083},
    "FPR": {"dnsNet121": 0.0, "dnsNet161": -0.078, "dnsNet201": -0.045,
            "resNet18": 0.126, "resNet50": 0.025, "resNet152": 0.033},
}
DEFAULT_TUNING_OFFSETS = {"ACC": 0.050, "PRC": 0.045, "TPR": 0.074, "FPR": 0.0}

DEFAULT_CLASS_OFFSET_SD = 0.25
DEFAULT_PHI_SIM = 250.0

# fewest distinct camera locations a class's training pool and test split need
MIN_LOCATIONS = 3

# anchors clamped away from 0/1 before taking logits (trajectories are
# reported to two decimals, so 0.00 means "below half a percent")
_ANCHOR_CLAMP = 0.005

# spawn-key sentinel separating class-offset substreams from cell substreams
_CLASS_OFFSET_KEY = 10**6


# ---------------------------------------------------------------------------
# equal-spacing selection and seeded splits
# ---------------------------------------------------------------------------


def equal_space_select(ordered_ids: Sequence, k: int) -> list:
    """Pick k items at indices floor(i*M/k), preserving time order."""
    m = len(ordered_ids)
    if k < 1:
        raise InputError("selection count must be >= 1")
    if k > m:
        raise InputError(f"cannot select {k} items from {m} (short by {k - m})")
    return [ordered_ids[(i * m) // k] for i in range(k)]


@dataclass(frozen=True)
class ClassDesign:
    pool: tuple
    test_ids: tuple
    train_subsets: dict  # size -> tuple of ids


@dataclass(frozen=True)
class SamplingManifest:
    classes: dict  # class label -> ClassDesign
    seed: int
    size_ladder: tuple
    test_size: int
    nested: bool = True


def split_design(
    pools: Mapping[str, Sequence],
    *,
    test_size: int = DEFAULT_TEST_SIZE,
    size_ladder: Sequence[int] = DEFAULT_SIZE_LADDER,
    seed: int = 0,
    nested: bool = True,
) -> SamplingManifest:
    """Seeded exclusive test split plus training subsets for every class.

    The test set is drawn uniformly without replacement; the remaining pool
    is shuffled once and training subsets are its prefixes, so subsets are
    nested (10 within 20 within ... within the largest).  With nested=False
    each subset is drawn independently instead.
    """
    ladder = tuple(sorted(int(s) for s in size_ladder))
    if len(set(ladder)) != len(ladder) or ladder[0] < 1:
        raise InputError("size ladder must be distinct positive integers")
    if test_size < 1:
        raise InputError("test size must be >= 1")
    need = test_size + ladder[-1]
    rng = np.random.default_rng(seed)
    classes = {}
    for label in sorted(pools):
        pool = list(pools[label])
        if len(set(pool)) != len(pool):
            raise InputError(f"duplicate image ids in class {label!r}")
        if len(pool) < need:
            raise InputError(
                f"class {label!r} pool has {len(pool)} images, needs {need} "
                f"(short by {need - len(pool)})"
            )
        order = rng.permutation(len(pool))
        test_idx = set(order[:test_size].tolist())
        test_ids = tuple(pool[i] for i in sorted(test_idx))
        remaining = [pool[i] for i in order if i not in test_idx]
        subsets = {}
        if nested:
            for size in ladder:
                subsets[size] = tuple(remaining[:size])
        else:
            for size in ladder:
                pick = rng.choice(len(remaining), size=size, replace=False)
                subsets[size] = tuple(remaining[i] for i in sorted(pick))
        classes[label] = ClassDesign(pool=tuple(pool), test_ids=test_ids, train_subsets=subsets)
    return SamplingManifest(
        classes=classes,
        seed=int(seed),
        size_ladder=ladder,
        test_size=int(test_size),
        nested=nested,
    )


# ---------------------------------------------------------------------------
# location coverage
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageViolation:
    class_label: str
    split: str
    distinct_locations: int


@dataclass(frozen=True)
class CoverageReport:
    status: str  # "ok" | "violations" | "cannot_validate"
    violations: tuple = ()
    detail: str = ""


def validate_location_coverage(
    manifest: SamplingManifest, locations: Mapping[str, str]
) -> CoverageReport:
    """Check that each class spans at least MIN_LOCATIONS camera locations.

    The training pool and the test split of every class are checked
    separately, through the `locations` id -> location mapping.  An image id
    without a location yields a "cannot_validate" report, never a silent pass.
    """
    per_split: dict = {}
    missing = []
    for label, cd in manifest.classes.items():
        test = set(cd.test_ids)
        train_pool = [i for i in cd.pool if i not in test]
        for split, ids in (("train", train_pool), ("test", cd.test_ids)):
            missing.extend(i for i in ids if i not in locations)
            per_split[(label, split)] = len({locations[i] for i in ids if i in locations})
    if missing:
        return CoverageReport(
            status="cannot_validate",
            detail=f"{len(missing)} image ids lack a location (e.g. {missing[0]!r})",
        )
    violations = tuple(
        CoverageViolation(class_label=label, split=split, distinct_locations=count)
        for (label, split), count in sorted(per_split.items())
        if count < MIN_LOCATIONS
    )
    return CoverageReport(status="violations" if violations else "ok", violations=violations)


# ---------------------------------------------------------------------------
# experiment-grid simulator
# ---------------------------------------------------------------------------


def _gauss_hermite_mean(eta0: float, offsets: np.ndarray, sd: float, nodes, weights) -> tuple:
    """Average of inv_logit(eta0 + offset + N(0, sd^2)) over offsets, with derivative."""
    z = eta0 + offsets[:, None] + np.sqrt(2.0) * sd * nodes[None, :]
    p = inv_logit(z)
    scale = np.sqrt(np.pi) * offsets.size
    return float((weights * p).sum() / scale), float((weights * p * (1.0 - p)).sum() / scale)


def _calibrate_bases(metric: str) -> dict:
    """Solve the base logit per (dataset, size) so the simulated grid mean
    over architectures, tunings and class offsets matches the reference
    trajectory value."""
    nodes, weights = np.polynomial.hermite.hermgauss(20)
    arch = np.array([DEFAULT_ARCH_OFFSETS[metric][a] for a in ARCHITECTURES])
    tun = np.array([0.0, DEFAULT_TUNING_OFFSETS[metric]])
    combo = (arch[:, None] + tun[None, :]).ravel()
    out = {}
    for dataset in DATASETS:
        for size, target in zip(DEFAULT_SIZE_LADDER, REFERENCE_TRAJECTORIES[metric][dataset]):
            t = float(np.clip(target, _ANCHOR_CLAMP, 1.0 - _ANCHOR_CLAMP))
            eta = float(logit(t))
            for _ in range(60):
                mean, deriv = _gauss_hermite_mean(
                    eta, combo, DEFAULT_CLASS_OFFSET_SD, nodes, weights
                )
                step = (t - mean) / deriv
                eta += step
                if abs(step) < 1e-13:
                    break
            out[(dataset, size)] = eta
    return out


def _base_logits() -> dict:
    """Calibrated base logit of every (metric, dataset, size).

    The solved bases are split into intercept + dataset offset + slope*ln(n)
    + a per-(dataset, size) adjustment (adjustments average to zero per
    dataset), and each base is returned as that sum, added in this order.
    The sum differs from the solved base by up to 1 ulp in half of the
    entries; the simulated values depend on those last bits, so returning
    the solved base would change every recorded simulator output.
    """
    lnn = np.log(np.array(DEFAULT_SIZE_LADDER, dtype=float))
    xc = lnn - lnn.mean()
    out = {}
    for metric in METRIC_KINDS:
        bases = _calibrate_bases(metric)
        num = 0.0
        for d in DATASETS:
            e = np.array([bases[(d, s)] for s in DEFAULT_SIZE_LADDER])
            num += float(xc @ (e - e.mean()))
        slope = num / (len(DATASETS) * float(xc @ xc))
        level = {
            d: float(np.mean([bases[(d, s)] for s in DEFAULT_SIZE_LADDER]) - slope * lnn.mean())
            for d in DATASETS
        }
        intercept = level[DATASETS[0]]
        for d, s in product(DATASETS, DEFAULT_SIZE_LADDER):
            offset = level[d] - intercept
            trend = slope * float(np.log(s))
            adjustment = bases[(d, s)] - intercept - offset - trend
            out[(metric, d, s)] = intercept + offset + trend + adjustment
    return out


def simulate_grid(seed: int) -> np.recarray:
    """Draw the calibrated experiment grid: the observation table with one row per
    cell, class and metric.

    The cells are the product of GRID_AXES, each with the classes of
    DEFAULT_CLASSES.  A value is Beta with precision DEFAULT_PHI_SIM and a
    mean whose logit is the base logit of its (metric, dataset, size) +
    architecture offset + tuning offset + class offset.  Class offsets are
    drawn once per (metric, dataset) and centred, so realized dataset means
    stay on the calibrated trajectories.

    Each cell draws from its own substream of `seed`, keyed by its axis
    indices, and the class offsets from substreams keyed by (metric,
    dataset), so the values of a cell do not depend on the other cells.
    """
    class_offsets = {}
    for (mi, metric), (di, dataset) in product(enumerate(METRIC_KINDS), enumerate(DATASETS)):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(_CLASS_OFFSET_KEY, mi, di))
        )
        offs = rng.normal(0.0, DEFAULT_CLASS_OFFSET_SD, len(DEFAULT_CLASSES[dataset]))
        class_offsets[(metric, dataset)] = offs - offs.mean()

    logits = _base_logits()
    rows = []
    for key in product(*(range(len(axis)) for axis in GRID_AXES)):
        dataset, size, arch, tuning, aug = (axis[i] for axis, i in zip(GRID_AXES, key))
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
        for metric in METRIC_KINDS:
            eta = (
                logits[(metric, dataset, size)]
                + DEFAULT_ARCH_OFFSETS[metric][arch]
                + (DEFAULT_TUNING_OFFSETS[metric] if tuning == TUNINGS[1] else 0.0)
                + class_offsets[(metric, dataset)]
            )
            mu = inv_logit(eta)
            values = rng.beta(mu * DEFAULT_PHI_SIM, (1.0 - mu) * DEFAULT_PHI_SIM)
            rows.extend(
                (metric, value, dataset, label, size, arch, tuning, aug)
                for label, value in zip(DEFAULT_CLASSES[dataset], values.tolist())
            )
    return observation_table(dict(zip(OBSERVATION_COLUMNS, zip(*rows))))
