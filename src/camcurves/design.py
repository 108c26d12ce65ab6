"""Balanced sampling designs and the synthetic experiment-grid simulator.

Design side: `equal_space_select` subsamples a time-ordered image sequence
deterministically.  `split_design` returns the sampling manifest as the
plain dict that is written as manifest JSON: `seed`, `test_size`,
`size_ladder`, `nested` and, per class label, the `pool`, the exclusive
`test_ids` and the `train_subsets` keyed by `str(size)`.
`validate_location_coverage` returns that manifest's `location_coverage`
block: `status`, `violations` as `{class, split, distinct_locations}`, and a
`detail` when the status is "cannot_validate".

Simulation side: `simulate_grid(seed)` draws the one calibrated 864-cell
experiment grid (3 datasets x 6 training sizes x 6 architectures x 2 tuning
schemes x 4 augmentation schemes) from the module constants below, or any
run of its cells with the same values the whole grid gives them, emitting
per-class Beta-distributed metric values whose logit-scale means follow a
log-size law plus per-dataset adjustments, calibrated so the simulated
dataset-average trajectories reproduce REFERENCE_TRAJECTORIES.  The cells
are drawn as arrays: the means of every (cell, metric, class) in one array,
then one Beta draw of a cell's metrics and classes on that cell's own
substream, and the label columns spread from the axis levels.
"""

from __future__ import annotations

import functools
import math
from itertools import product
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from ._numeric import inv_logit, logit
from .errors import InputError
from .metrics import METRIC_KINDS, observation_table

DEFAULT_SIZE_LADDER = (10, 20, 50, 150, 500, 1000)
DEFAULT_TEST_SIZE = 250

DATASETS = ("AU", "SE", "WI")
ARCHITECTURES = ("dnsNet121", "dnsNet161", "dnsNet201", "resNet18", "resNet50", "resNet152")
TUNINGS = ("deep", "shallow")
# augmentation schemes: which of train/test sets receives augmented copies
AUGMENTATIONS = ("trainOnly", "trainAndTest", "testOnly", "none")
# the axes of the simulated grid, in the order its cells are drawn and written
GRID_AXES = (DATASETS, DEFAULT_SIZE_LADDER, ARCHITECTURES, TUNINGS, AUGMENTATIONS)
# the cells of the grid, indexed in product(*GRID_AXES) order
GRID_CELLS = math.prod(len(axis) for axis in GRID_AXES)
# the observation column of each axis
_AXIS_COLUMNS = ("dataset", "num_tr_images", "architecture", "tuning", "augmentation")

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


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise InputError("seed must be a non-negative integer")


def split_design(
    pools: Mapping[str, Sequence],
    *,
    test_size: int = DEFAULT_TEST_SIZE,
    size_ladder: Sequence[int] = DEFAULT_SIZE_LADDER,
    seed: int = 0,
    nested: bool = True,
) -> dict:
    """Seeded exclusive test split plus training subsets for every class.

    Returns the manifest: `seed`, `test_size`, `size_ladder` (sorted list),
    `nested`, and `classes`, which maps each label to its `pool`, its
    `test_ids` and its `train_subsets` (the ids of each ladder size, keyed by
    `str(size)`).  The test set is drawn uniformly without replacement; the
    remaining pool is shuffled once and training subsets are its prefixes, so
    subsets are nested (10 within 20 within ... within the largest).  With
    nested=False each subset is drawn independently instead.  An image id
    may appear once over all pools, so no test image trains any class.
    """
    ladder = sorted(int(s) for s in size_ladder)
    if not ladder or len(set(ladder)) != len(ladder) or ladder[0] < 1:
        raise InputError("size ladder must be distinct positive integers")
    if test_size < 1:
        raise InputError("test size must be >= 1")
    _check_seed(seed)
    need = test_size + ladder[-1]
    rng = np.random.default_rng(seed)
    owners: dict = {}
    classes = {}
    for label in sorted(pools):
        pool = list(pools[label])
        for image_id in pool:
            if image_id in owners:
                raise InputError(
                    f"image id {image_id!r} is listed twice: in class {owners[image_id]!r} "
                    f"and in class {label!r}"
                )
            owners[image_id] = label
        if len(pool) < need:
            raise InputError(
                f"class {label!r} pool has {len(pool)} images, needs {need} "
                f"(short by {need - len(pool)})"
            )
        order = rng.permutation(len(pool))
        test_idx = set(order[:test_size].tolist())
        remaining = [pool[i] for i in order if i not in test_idx]
        subsets = {}
        for size in ladder:
            pick = range(size) if nested else rng.choice(len(remaining), size, replace=False)
            subsets[str(size)] = [remaining[i] for i in sorted(pick)]
        classes[label] = {
            "pool": pool,
            "test_ids": [pool[i] for i in sorted(test_idx)],
            "train_subsets": subsets,
        }
    return {
        "seed": int(seed),
        "test_size": int(test_size),
        "size_ladder": ladder,
        "nested": nested,
        "classes": classes,
    }


# ---------------------------------------------------------------------------
# location coverage
# ---------------------------------------------------------------------------


def validate_location_coverage(manifest: Mapping, locations: Mapping[str, str]) -> dict:
    """Check that each class spans at least MIN_LOCATIONS camera locations.

    The training pool and the test split of every class in a `split_design`
    manifest are checked separately, through the `locations` id -> location
    mapping.  Returns the manifest's `location_coverage` block: `status`
    ("ok", "violations" or "cannot_validate"), `violations` (one
    `{class, split, distinct_locations}` per split below the minimum) and,
    for "cannot_validate" only, a `detail` naming an id without a location;
    a missing location is never a silent pass.
    """
    per_split: dict = {}
    missing = []
    for label, cd in manifest["classes"].items():
        test = set(cd["test_ids"])
        train_pool = [i for i in cd["pool"] if i not in test]
        for split, ids in (("train", train_pool), ("test", cd["test_ids"])):
            missing.extend(i for i in ids if i not in locations)
            per_split[(label, split)] = len({locations[i] for i in ids if i in locations})
    if missing:
        detail = f"{len(missing)} image ids lack a location (e.g. {missing[0]!r})"
        return {"status": "cannot_validate", "violations": [], "detail": detail}
    violations = [
        {"class": label, "split": split, "distinct_locations": count}
        for (label, split), count in sorted(per_split.items())
        if count < MIN_LOCATIONS
    ]
    return {"status": "violations" if violations else "ok", "violations": violations}


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


@functools.cache
def _base_logits() -> Mapping:
    """Calibrated base logit of every (metric, dataset, size), solved once per process
    and read-only.

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
    return MappingProxyType(out)


@functools.lru_cache(maxsize=1)
def _class_offsets(seed: int) -> np.ndarray:
    """The centred class offsets of `seed`, as a read-only (metric, dataset, class)
    array; kept for the last seed, since a grid drawn a run of cells at a time
    draws each run with them."""
    shape = (len(METRIC_KINDS), len(DATASETS), len(DEFAULT_CLASSES[DATASETS[0]]))
    class_offsets = np.empty(shape)
    for mi, di in product(range(len(METRIC_KINDS)), range(len(DATASETS))):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(_CLASS_OFFSET_KEY, mi, di))
        )
        offs = rng.normal(0.0, DEFAULT_CLASS_OFFSET_SD, shape[2])
        class_offsets[mi, di] = offs - offs.mean()
    class_offsets.flags.writeable = False
    return class_offsets


def _cell_values(seed: int, levels: np.ndarray) -> np.ndarray:
    """The Beta draws of the cells whose axis indices are the rows of `levels`, as a
    (cell, metric, class) array."""
    class_offsets = _class_offsets(seed)
    logits = _base_logits()
    base = np.array(  # (metric, dataset, size)
        [[[logits[(m, d, n)] for n in DEFAULT_SIZE_LADDER] for d in DATASETS] for m in METRIC_KINDS]
    )
    arch = np.array([[DEFAULT_ARCH_OFFSETS[m][a] for a in ARCHITECTURES] for m in METRIC_KINDS])
    tuning = np.array([[0.0, DEFAULT_TUNING_OFFSETS[m]] for m in METRIC_KINDS])  # deep, shallow
    d, s, a, t, _ = levels.T
    cell_logit = (base[:, d, s] + arch[:, a] + tuning[:, t]).T  # (cell, metric)
    eta = cell_logit[:, :, None] + class_offsets[:, d].swapaxes(0, 1)
    mu = inv_logit(eta)
    alpha, beta = mu * DEFAULT_PHI_SIM, (1.0 - mu) * DEFAULT_PHI_SIM
    values = np.empty_like(mu)
    for i, key in enumerate(levels.tolist()):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))
        values[i] = rng.beta(alpha[i], beta[i])
    return values


def simulate_grid(seed: int, cells: Sequence[int] = range(GRID_CELLS)) -> np.recarray:
    """Draw the calibrated experiment grid, or a run of its cells: the observation
    table with one row per cell, class and metric.

    The cells are the product of GRID_AXES, each with the classes of
    DEFAULT_CLASSES, and `cells` names the ones drawn by their index in that
    order, all of them by default; an index outside 0 to GRID_CELLS - 1 is
    an InputError.  A value is Beta with precision DEFAULT_PHI_SIM and a
    mean whose logit is the base logit of its (metric, dataset, size) +
    architecture offset + tuning offset + class offset.  Class offsets are
    drawn once per (metric, dataset) and centred, so realized dataset means
    stay on the calibrated trajectories.

    Each cell draws its metrics and classes in one Beta call on its own
    substream of `seed`, keyed by its axis indices, and the class offsets
    from substreams keyed by (metric, dataset), so the values of a cell do
    not depend on the other cells: a run of cells draws the same rows as the
    whole grid does for them, and the tables of consecutive runs, joined, are
    the grid's table.  The values are one (cell, metric, class) array and
    each label column is given unspread, by cell, by metric or by (cell,
    class), so the table is the only array with one entry per row.
    """
    _check_seed(seed)
    outside = [i for i in cells if not 0 <= i < GRID_CELLS]
    if outside:
        raise InputError(f"cell {outside[0]} is outside the grid's 0 to {GRID_CELLS - 1}")
    grid = list(product(*(range(len(axis)) for axis in GRID_AXES)))
    levels = np.array([grid[i] for i in cells], dtype=np.intp).reshape(-1, len(GRID_AXES))
    classes = np.array([DEFAULT_CLASSES[d] for d in DATASETS])  # (dataset, class)
    columns = {  # each broadcasts over (cell, metric, class)
        name: np.asarray(axis)[levels[:, k], None, None]
        for k, (name, axis) in enumerate(zip(_AXIS_COLUMNS, GRID_AXES))
    }
    return observation_table(
        {
            **columns,
            "metric": np.array(METRIC_KINDS)[:, None],
            "class": classes[levels[:, 0], None, :],
            "value": _cell_values(seed, levels),
        }
    )
