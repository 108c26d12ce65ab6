"""Beta-family generalised additive models with a logit link.

The linear predictor combines treatment-coded factor effects (tuning,
dataset, architecture) with reduced-rank cubic spline smooths of
log(num_tr_images), one smooth per dataset level.  The response is a
(0,1)-valued metric modelled as Beta(mu*phi, (1-mu)*phi) with a single
global precision phi.

Fitting maximizes the penalized log-likelihood

    sum_i loglik(y_i; mu_i, phi) - 1/2 * sum_s lambda_s * |D_s gamma_s|^2

with D_s'D_s = S_s: a sum of squares is not negative and stays exact to
rounding at any lambda, where gamma_s' S_s gamma_s would cancel terms far
larger than itself.  It is maximized by Fisher scoring in (beta, log(phi))
jointly: each iteration solves the
expected information of both, [[X'WX + P, X'c], [c'X, k]] (Ferrari &
Cribari-Neto 2004), against the gradient, and halves the step until the
objective does not decrease.  A fit stops when the gain 1/2 grad'step that
this quadratic model predicts for the next step (the Newton decrement; Boyd
& Vandenberghe 2004, sec. 9.5) is below its tolerance, so a warm start that
close takes no step, or when a step changes the objective by less than the
tolerance.  A step is tried only when its predicted gain exceeds 256 machine
epsilons of |objective|: a smaller gain is below the rounding noise of the
summed objective, so its line search would accept or reject on noise.
Smoothing parameters are chosen by AIC = -2*loglik + 2*(EDF + 1) over a
log-spaced grid, searched coordinate-wise with warm starts.  A step fits
each grid value of one smooth's lambda, the others held, and moves to the
lowest AIC.  A step that moves settles its own coordinate, and one that
does not move settles one more.  Once every coordinate is settled at the
current lambdas a further step would only repeat fits already made, so the
search stops there, or after 8 sweeps.  A screened fit
stops short of its optimum, where its gradient is P beta rather than 0, so
its loglik is first order in the step it did not take; the search ranks it
by its AIC with the loglik at the Newton point, loglik + score'step -
1/2 step'F step with F the unpenalized information.  A model reports the
loglik and AIC of its own coefficients.

A `_State` is one (beta, phi) of a fit.  It computes its means, its
log-likelihood with the per-row terms of its derivatives, and the score and
expected information in (beta, log(phi)) each on first use, and keeps them.
None of these depends on the penalty.  So a step that is not taken leaves
the state and all it carries as they were, the final covariance reads the
X'WX block of the last state's information, the Newton point reads the step
the fit ended on, and the next warm-started fit of the lambda search starts
from that state with only its penalty term to compute.  The search holds
two states: the last of its warm chain and that of the best lambdas so far,
kept with its fit.  A new best restarts from its (beta, phi); only this
restart evaluates a (mu, phi) state a second time.

Deviance is measured against the saturated fit (one mean per observation)
and the null deviance against the intercept-only fit, both at the fitted
phi.  Both come from one solver: at fixed phi the Beta score equation for a
mean is digamma(mu*phi) - digamma((1-mu)*phi) = t, with t = logit-star(y_i)
for the saturated fit and t = mean(logit-star(y)) for the intercept-only
fit (Ferrari & Cribari-Neto 2004).

The Beta family is exponential in (log y, log(1-y)), so observations that
share a design row enter the likelihood only through their count and their
sums of log y and log(1-y).  The design is therefore assembled once on the
distinct rows of the covariates the model uses, and every P-IRLS step,
likelihood evaluation, covariance and EDF works on those rows with counts
and summed logs.  Only the starting values and the fit statistics (the
saturated likelihood and adjusted R^2) read the individual observations.
The rows are ordered by the smooth's by-factor first.  A by-level smooth's
columns are 0 off its level's rows, so X'WX is summed a level at a time:
each of the design's parts is the slice of one level's rows on the columns
not 0 there, and adds its product into the information.
The distinct rows are found and encoded a covariate column at a time, as
arrays with no Python object per row, and a table that holds only the
response's metric is used as given, so when every row is distinct the
assembly holds the model matrix and little else.

A `_Layout` declares how covariates become model-matrix rows, and its
`_encode` is the one encoding: the intercept, the treatment dummies and its
`blocks`.  `rows` evaluates the smooth's basis at the given sizes and encodes
them; the assembly encodes the design rows with the basis it has already
evaluated for the centring constraints.  A `_Block` is a smooth, or its part
on one by-factor level: its label, term, level, coefficient columns, centring
constraint, knots and (on first use) penalty and its root.  A layout stores
only what it cannot derive: the spec, coefficient names, factor levels, knots,
centring constraints and observed sizes.  Its `term_index` (the intercept,
each factor's levels other than its reference, then each block's k - 1
columns) and its blocks are derived from these once; the rows, every inner
fit's penalty, the fitted lambdas (keyed by block label) and the Wald test
read them.  The fit's `_Design` holds a layout, and `AdditiveModel` is a
layout with the fit's fields added, so a cell cannot be encoded two ways.  A
layout checks each condition on its parts once, when it is built, from a
file or not.

The Beta likelihood is written once, on design rows: `_loglik_rows` gives the
summed log-likelihood and, per row, the score in logit(mu) with its Fisher
weight and the score in log(phi) with the other two entries of the expected
information.  It takes log Gamma, digamma and trigamma at mu*phi, (1-mu)*phi
and phi from one `_numeric.gammaln_psi` pass on the three stacked, which is
elementwise, so no argument takes the shifts another needs.  A `_State`
evaluates it once; `_beta_mean` (the saturated and null means) calls
`gammaln_psi` once per Newton step and the fit statistics call
`_loglik_rows`.  `_joint_term_p` (the Wald test) takes
`_numeric.chi2_sf`.  These are written in numpy and the standard library, so
fitting runs without scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from ._numeric import chi2_sf, distinct, gammaln_psi, inv_logit, logit
from .errors import ConvergenceError, InputError
from .metrics import METRIC_KINDS, _distinct
from .splines import KnotVector, basis_rows, centred_penalty, centring, penalty_matrix, place_knots

DEFAULT_LAMBDA_GRID = tuple(10.0 ** np.linspace(-4.0, 6.0, 21))

# tolerance on the predicted gain and on the penalized log-likelihood change of
# a final fit and of a screened grid candidate, and the iteration budget of every fit
_TOL, _SCREEN_TOL, _MAX_ITER = 1e-8, 1e-5, 200

# smallest predicted gain, relative to |objective|, that a line search runs for
_RESOLUTION = 256 * np.finfo(float).eps

_PHI_MIN, _PHI_MAX = 1e-2, 1e8

# largest fixed smoothing parameter: by 1e12 each smooth block is at its
# unpenalized line (EDF 1), and past ~1e17 rounding in lambda*S erases that line
_MAX_FIXED_LAMBDA = 1e12

INTERCEPT = "(intercept)"


# ---------------------------------------------------------------------------
# model specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorTerm:
    name: str
    reference: str


@dataclass(frozen=True)
class SmoothTerm:
    covariate = "num_tr_images"  # the one covariate a smooth takes; not a field
    by_factor: str | None = "dataset"
    k: int = 5

    @property
    def label(self) -> str:
        if self.by_factor is None:
            return f"s({self.covariate})"
        return f"s({self.covariate}):{self.by_factor}"


DEFAULT_FACTORS = (
    FactorTerm("tuning", "deep"),
    FactorTerm("dataset", "AU"),
    FactorTerm("architecture", "dnsNet121"),
)


# how far fit() moves a response of exactly 0 or 1 inside, as mgcv's betar does
SQUEEZE_EPS = 1e-4


@dataclass(frozen=True)
class ModelSpec:
    """Which terms enter the model; a response at 0 or 1 is fitted at SQUEEZE_EPS inside."""

    response: str
    parametric_terms: tuple[FactorTerm, ...] = DEFAULT_FACTORS
    smooth_terms: tuple[SmoothTerm, ...] = (SmoothTerm(),)

    def __post_init__(self):
        if self.response not in METRIC_KINDS:
            raise InputError(f"unknown metric kind {self.response!r}")
        names = [t.name for t in self.parametric_terms]
        if len(names) != len(set(names)):
            raise InputError("duplicate parametric terms")
        if len(self.smooth_terms) > 1:  # a model carries one knot vector
            raise InputError("at most one smooth term is supported")
        for term in self.smooth_terms:
            if term.by_factor is not None and term.by_factor not in names:
                raise InputError(
                    f"smooth by-factor {term.by_factor!r} is not a parametric term of the model"
                )

    def without(self, term_label: str) -> "ModelSpec":
        """Copy of this spec with one term dropped."""
        parametric = tuple(t for t in self.parametric_terms if t.name != term_label)
        smooth = tuple(t for t in self.smooth_terms if t.label != term_label)
        if (parametric, smooth) == (self.parametric_terms, self.smooth_terms):
            raise InputError(f"unknown term {term_label!r}")
        return replace(self, parametric_terms=parametric, smooth_terms=smooth)


# ---------------------------------------------------------------------------
# likelihood
# ---------------------------------------------------------------------------


def _loglik_rows(mu, phi, n, sum_ylog, sum_y1log) -> tuple:
    """(loglik, u, w, s, c, k): the Beta likelihood of design rows at means mu.

    Row r holds n[r] observations whose log(y) and log(1-y) sum to
    sum_ylog[r] and sum_y1log[r]; n = 1 gives the per-observation terms.
    loglik is the summed log density.  Per row, u is the score in logit(mu)
    and w its Fisher weight, n * phi^2 * (mu(1-mu))^2 * Var[logit Y] with
    Var[logit Y] = trigamma(a) + trigamma(b) under Beta(a, b); s is the score
    in log(phi), and c and k are the expected information between logit(mu)
    and log(phi) and of log(phi) with itself (Ferrari & Cribari-Neto 2004).
    One gammaln_psi pass on a = mu*phi, b = (1-mu)*phi and phi, stacked.
    """
    mu = np.atleast_1d(mu)
    m, nu = mu.size, 1.0 - mu
    ab = np.concatenate((mu * phi, nu * phi, [phi]))
    a, b = ab[:m], ab[m:-1]
    (lg_a, lg_b, lg), (psi_a, psi_b, psi), (tri_a, tri_b, tri) = (
        (f[:m], f[m:-1], f[-1]) for f in gammaln_psi(ab)
    )
    loglik = float(
        np.sum(n * (lg - lg_a - lg_b) + (a - 1.0) * sum_ylog + (b - 1.0) * sum_y1log)
    )
    mm = mu * nu
    n_phi2 = n * (phi * phi)
    tri_mu, tri_nu = mu * tri_a, nu * tri_b
    u = phi * (sum_ylog - sum_y1log - n * (psi_a - psi_b)) * mm
    w = n_phi2 * (tri_a + tri_b) * mm * mm
    s = phi * (n * (psi - mu * psi_a - nu * psi_b) + mu * sum_ylog + nu * sum_y1log)
    c = n_phi2 * mm * (tri_mu - tri_nu)
    k = n_phi2 * (mu * tri_mu + nu * tri_nu - tri)
    return loglik, u, w, s, c, k


# ---------------------------------------------------------------------------
# design assembly
# ---------------------------------------------------------------------------


def _smooth_blocks(term: SmoothTerm, factor_levels: Mapping) -> list:
    """(level, label) of each by-level block of a smooth; (None, label) if unsplit."""
    if term.by_factor is None:
        return [(None, term.label)]
    return [(level, f"{term.label}[{level}]") for level in factor_levels[term.by_factor]]


@dataclass(frozen=True, eq=False)
class _Block:
    """One penalized block of coefficients: a smooth, or its part on one by-factor level."""

    label: str
    term: SmoothTerm  # the smooth it belongs to, split by its by_factor
    level: str | None  # None for an unsplit smooth
    columns: tuple  # its coefficient indices
    constraint: np.ndarray  # k x (k-1) centring of the raw basis
    knot_vector: KnotVector

    @cached_property
    def penalty(self) -> np.ndarray:
        """(k-1) x (k-1) curvature penalty in the centred coordinates, on first use."""
        return centred_penalty(penalty_matrix(self.knot_vector), self.constraint)

    @cached_property
    def root(self) -> np.ndarray:
        """D with D'D = penalty, from its eigendecomposition, so that the penalty
        of gamma is the sum of squares |D gamma|^2, on first use."""
        values, vectors = np.linalg.eigh(self.penalty)
        return np.sqrt(np.clip(values, 0.0, None))[:, None] * vectors.T


@dataclass(frozen=True, eq=False)
class _Layout:
    """How a cell and num_tr_images become a model-matrix row; checks its parts agree."""

    spec: ModelSpec
    coef_names: tuple[str, ...]
    factor_levels: dict[str, tuple[str, ...]]
    knot_vector: KnotVector | None
    smooth_constraints: dict[str, np.ndarray]  # smooth block label -> k x (k-1) centring
    observed_sizes: tuple[int, ...]

    @cached_property
    def term_index(self) -> dict:
        """Term or smooth block label -> its coefficient indices, in order: the
        intercept, each factor's levels but its reference, each block's k - 1."""
        index, p = {INTERCEPT: (0,)}, 1
        widths = [(t.name, len(self.factor_levels[t.name]) - 1) for t in self.spec.parametric_terms]
        for term in self.spec.smooth_terms:
            widths += [(label, term.k - 1) for _, label in _smooth_blocks(term, self.factor_levels)]
        for label, width in widths:
            index[label], p = tuple(range(p, p + width)), p + width
        return index

    @cached_property
    def blocks(self) -> tuple:
        """The penalized blocks in coefficient order, built from the stored fields on
        first use; InputError, on every access, when a block's k or constraint
        disagrees."""
        knots = self.knot_vector.count if self.knot_vector else 0
        blocks = []
        for term in self.spec.smooth_terms:
            if term.k != knots:
                raise InputError(f"model smooth term k={term.k} disagrees with its {knots} knots")
            for level, label in _smooth_blocks(term, self.factor_levels):
                constraint = self.smooth_constraints.get(label)
                if constraint is None or constraint.shape != (knots, knots - 1):
                    raise InputError(
                        f"model has no {knots} x {knots - 1} smooth constraint for {label!r}"
                    )
                columns = self.term_index[label]
                blocks.append(_Block(label, term, level, columns, constraint, self.knot_vector))
        return tuple(blocks)

    def __post_init__(self):
        smallest = min(self.observed_sizes, default=1)
        if smallest < 1:
            raise InputError(f"model observed_sizes must be positive, got {smallest}")
        if set(self.factor_levels) != {t.name for t in self.spec.parametric_terms}:
            raise InputError("model factor_levels disagree with its parametric terms")
        for term in self.spec.parametric_terms:
            if term.reference not in self.factor_levels[term.name]:
                raise InputError(
                    f"reference level {term.reference!r} of factor {term.name!r} "
                    "is not among its levels"
                )
        self.blocks  # built here, so each block's k and constraint is checked
        count = sum(map(len, self.term_index.values()))
        if len(self.coef_names) != count:
            raise InputError(f"model has {len(self.coef_names)} coef_names, its terms need {count}")

    def rows(self, columns: Mapping, sizes) -> np.ndarray:
        """Model-matrix rows at covariate values: `columns` maps each factor of
        the model to its level per row, or to one level for every row; `sizes`
        holds num_tr_images per row."""
        sizes = np.atleast_1d(np.asarray(sizes, dtype=float))
        if np.any(sizes <= 0.0):
            raise InputError("num_tr_images must be positive")
        raw = basis_rows(np.log(sizes), self.knot_vector) if self.spec.smooth_terms else None
        return self._encode(columns, sizes.size, raw)

    def _encode(self, columns: Mapping, m: int, raw) -> np.ndarray:
        """The one encoding of covariates: m model-matrix rows from the factor
        `columns` and `raw`, the smooth's uncentred basis on the rows (None
        without a smooth).  A row holds the intercept, the treatment dummies
        and, for each by-level smooth, the centred basis on the rows of its
        level and 0 elsewhere."""
        X = np.zeros((m, len(self.coef_names)))
        X[:, 0] = 1.0
        reference = {t.name: t.reference for t in self.spec.parametric_terms}
        values = {}
        for factor, levels in self.factor_levels.items():
            if factor not in columns:
                raise InputError(f"cell is missing a level for factor {factor!r}")
            given = np.asarray(columns[factor])  # checked before it is broadcast to the rows
            unknown = given[~np.isin(given, levels)].tolist()
            if unknown:
                raise InputError(f"unknown level {min(unknown, key=str)!r} for factor {factor!r}")
            values[factor] = np.broadcast_to(given, (m,))
            others = [level for level in levels if level != reference[factor]]
            for level, j in zip(others, self.term_index[factor]):
                X[:, j] = values[factor] == level
        for b in self.blocks:  # 0 off the block's level
            on = 1.0 if b.level is None else (values[b.term.by_factor] == b.level)[:, None]
            X[:, list(b.columns)] = (raw @ b.constraint) * on
        return X


@dataclass(eq=False)
class _Design:
    """The model matrix on the distinct design rows, with their sufficient statistics."""

    layout: _Layout
    X: np.ndarray  # m distinct rows x p coefficients
    n: np.ndarray  # observations per row
    sum_ylog: np.ndarray  # per-row sum of log(y)
    sum_y1log: np.ndarray  # per-row sum of log(1-y)
    y: np.ndarray  # per-observation response
    inverse: np.ndarray  # observation -> row index into X
    parts: tuple  # (rows, index, part) per by-factor level; see _parts

    @property
    def row_stats(self) -> tuple:
        """(n, sum_ylog, sum_y1log): the row arguments of _loglik_rows."""
        return self.n, self.sum_ylog, self.sum_y1log


def _parts(X: np.ndarray, levels) -> tuple:
    """X by the by-factor level of its rows, `levels` (None: one part of every row).

    A part is a slice of rows, since the rows are ordered by level, and the
    columns not 0 on them: a by-level smooth's columns are 0 off its level.
    It is (rows, index, X[rows] on those columns), index the flat positions of
    its columns' X'WX in the (p + 1) x (p + 1) information."""
    m, p = X.shape
    changes = [] if levels is None else (np.flatnonzero(levels[1:] != levels[:-1]) + 1).tolist()
    bounds = [0, *changes, m]
    parts = []
    for i0, i1 in zip(bounds, bounds[1:]):
        rows = slice(i0, i1)
        columns = np.flatnonzero(np.any(X[rows] != 0.0, axis=0))
        part = X[rows] if columns.size == p else X[rows][:, columns]
        parts.append((rows, (columns[:, None] * (p + 1) + columns).ravel(), part))
    return tuple(parts)


def _assemble(spec: ModelSpec, observations: np.recarray) -> _Design:
    is_response = observations.metric == spec.response
    data = observations if is_response.all() else observations[is_response]
    if not len(data):
        raise InputError(f"no observations with metric {spec.response!r}")
    # the table holds values in [0, 1]; only the bounds themselves move
    eps = SQUEEZE_EPS
    y = np.where(data.value == 0.0, eps, np.where(data.value == 1.0, 1.0 - eps, data.value))
    sizes = data.num_tr_images[distinct(data.num_tr_images)[0]]

    # one design row per distinct combination of the covariates the model uses,
    # in sorted order so that the rows do not depend on the observation order,
    # and by the smooth's by-factor first, so that each level's rows are a slice;
    # each covariate is kept as an array of its values on those rows
    by = [t.by_factor for t in spec.smooth_terms if t.by_factor is not None]
    key_names = by + [t.name for t in spec.parametric_terms if t.name not in by]
    key_names += sorted({t.covariate for t in spec.smooth_terms})
    firsts, inverse = _distinct(data, key_names)
    m = len(firsts)
    counts = np.bincount(inverse, minlength=m).astype(float)
    column = {name: data[name][firsts] for name in key_names}

    smooth_terms = []
    for term in spec.smooth_terms:
        # a smooth gets at most one knot per distinct size (mgcv's k <= the number of
        # unique covariate values), and each by-level block needs that many sizes of
        # its own; the design's spec, and so the model, records that k
        levels, codes = [None], np.zeros(m, dtype=np.intp)
        if term.by_factor:
            firsts, codes = distinct(column[term.by_factor])
            levels = column[term.by_factor][firsts].tolist()
        pairs, _ = distinct(codes, column[term.covariate])
        per_level = np.bincount(codes[pairs], minlength=len(levels))
        fewest = int(np.argmin(per_level))  # the first in level order among ties
        count, level = int(per_level[fewest]), levels[fewest]
        if count < 3:
            where = "" if level is None else f" for {term.by_factor} {level!r}"
            raise InputError(
                f"a smooth of num_tr_images needs 3 distinct sizes, got {count}{where}"
            )
        smooth_terms.append(replace(term, k=min(term.k, count)))
    spec = replace(spec, smooth_terms=tuple(smooth_terms))

    factor_levels = {
        t.name: tuple(column[t.name][distinct(column[t.name])[0]].tolist())
        for t in spec.parametric_terms
    }
    names = [INTERCEPT]
    for t in spec.parametric_terms:
        names += [f"{t.name}[{level}]" for level in factor_levels[t.name] if level != t.reference]

    knot_vector, raw = None, None
    constraints: dict = {}
    for term in spec.smooth_terms:
        x = np.log(column[term.covariate].astype(float))
        knot_vector = place_knots(x, k=term.k)
        raw = basis_rows(x, knot_vector)
        for level, label in _smooth_blocks(term, factor_levels):
            mask = np.ones(m) if level is None else column[term.by_factor] == level
            # count-weighted, so the constraint sums over the observations
            constraints[label] = centring(raw, mask * counts)
            names.extend(f"{label}.{j}" for j in range(term.k - 1))

    layout = _Layout(
        spec=spec,
        coef_names=tuple(names),
        factor_levels=factor_levels,
        knot_vector=knot_vector,
        smooth_constraints=constraints,
        observed_sizes=tuple(sizes.tolist()),
    )
    # the basis the constraints were computed on is the one encoded
    X = layout._encode(column, m, raw)
    _check_rank(X, names)
    return _Design(
        layout=layout,
        X=X,
        n=counts,
        sum_ylog=np.bincount(inverse, np.log(y), m),
        sum_y1log=np.bincount(inverse, np.log1p(-y), m),
        y=y,
        inverse=inverse,
        parts=_parts(X, column[by[0]] if by else None),
    )


def _check_rank(X: np.ndarray, names: Sequence[str]):
    m, p = X.shape
    if m < p:  # zero rows give R one diagonal entry per column
        X = np.vstack([X, np.zeros((p - m, p))])
    R = np.linalg.qr(X, mode="r")
    diag = np.abs(np.diag(R))
    bad = diag < diag.max() * 1e-10
    if bad.any():
        offenders = [names[i] for i in np.flatnonzero(bad)]
        raise InputError(f"rank-deficient design; offending columns: {offenders}")


@dataclass(frozen=True, eq=False)
class _Penalty:
    """The penalty of one lambda per block, each block on its own columns."""

    matrix: np.ndarray  # P: lambda_b S_b
    roots: np.ndarray  # D_b, with D_b'D_b = S_b (_Block.root)
    lambdas: np.ndarray  # lambda_b on each row of roots

    def value(self, beta: np.ndarray) -> float:
        """1/2 sum_b lambda_b |D_b gamma_b|^2: beta'P beta/2 as a sum of squares, so
        it is not negative and is exact to rounding at any lambda, where the
        quadratic form cancels terms of lambda S gamma^2 far larger than itself."""
        v = self.roots @ beta
        return 0.5 * float(self.lambdas @ (v * v))


def _penalty(design: _Design, lambdas: Sequence[float]) -> _Penalty:
    p = design.X.shape[1]
    P, roots, row_lambdas = np.zeros((p, p)), np.zeros((p, p)), np.zeros(p)
    for lam, block in zip(lambdas, design.layout.blocks):
        i0, i1 = block.columns[0], block.columns[-1] + 1  # term_index keeps a block contiguous
        P[i0:i1, i0:i1] = lam * block.penalty
        roots[i0:i1, i0:i1] = block.root
        row_lambdas[i0:i1] = lam
    return _Penalty(P, roots, row_lambdas)


# ---------------------------------------------------------------------------
# penalized fit for a fixed penalty
# ---------------------------------------------------------------------------


def _resolvable(gain: float, value: float) -> bool:
    """Whether a step's predicted gain is above the rounding noise of `value`."""
    return gain > _RESOLUTION * abs(value)


class _State:
    """One (beta, phi) of a penalized fit, with what the fit derives from it.

    Its means, its _loglik_rows and the score and expected information in
    (beta, log(phi)) that a joint Fisher step and the Newton point read are
    each computed on first use and kept; none depends on the penalty (see the
    module docstring).
    """

    def __init__(self, design: _Design, beta: np.ndarray, phi: float):
        self.design, self.beta, self.phi = design, beta, float(phi)

    @cached_property
    def mu(self) -> np.ndarray:
        return inv_logit(self.design.X @ self.beta)

    @cached_property
    def terms(self) -> tuple:
        """_loglik_rows at this state: (loglik, u, w, s, c, k)."""
        return _loglik_rows(self.mu, self.phi, *self.design.row_stats)

    @property
    def loglik(self) -> float:
        return self.terms[0]

    @cached_property
    def score_information(self) -> tuple:
        """The score of the log-likelihood in (beta, log(phi)) and its expected
        information [[X'WX, X'c], [c'X, k]], X'WX from the design's parts."""
        X = self.design.X
        _, u, w, s, c, k = self.terms
        p = X.shape[1]
        information = np.zeros((p + 1, p + 1))
        flat = information.ravel()  # a view
        for rows, index, part in self.design.parts:
            flat[index] += ((part.T * w[rows]) @ part).ravel()
        Xu, Xc = (X.T @ np.column_stack((u, c))).T
        information[p, :p] = information[:p, p] = Xc
        information[p, p] = k.sum()
        return np.append(Xu, s.sum()), information


def _newton_step(state: _State, P) -> tuple:
    """The gradient of the penalized objective in (beta, log(phi)) at `state`, and
    its Fisher-scoring step; log(phi) is not penalized."""
    score, information = state.score_information
    grad = score - np.append(P @ state.beta, 0.0)
    A = information.copy()
    A[:-1, :-1] += P
    return grad, np.linalg.solve(A, grad)


def _fit_penalized(start: _State, penalty: _Penalty, tol):
    """Fisher scoring in (beta, log(phi)) with step halving.

    Works on the distinct design rows through _loglik_rows, which sums each
    row's observations in closed form.  Each
    iteration takes one joint step (_newton_step), and a step that is taken
    gives a new _State.  The fit stops before a step whose predicted gain
    1/2 grad'step is below `tol`, so a start that close to the optimum takes
    none, and after a step that changes the objective by less than `tol`, as
    one with phi held at a bound does.  A step whose predicted gain is not
    _resolvable is not tried.
    Returns (the last accepted state, history of accepted objective values,
    the (gradient, step) of _newton_step at that state).
    Raises ConvergenceError when the objective change stays above `tol` for
    _MAX_ITER iterations, or at once when the objective or the step is not
    finite, since step halving can then accept nothing.
    """
    design, P = start.design, penalty.matrix
    low, high = math.log(_PHI_MIN), math.log(_PHI_MAX)

    def objective(state):
        return state.loglik - penalty.value(state.beta)

    def check_finite(what, value, it):
        if not np.all(np.isfinite(value)):
            raise ConvergenceError(
                f"penalized fit reached a non-finite {what} after {it} iterations",
                iterations=it,
            )

    state = start
    cur = objective(state)
    history = [cur]
    for it in range(_MAX_ITER):
        check_finite("objective", cur, it)
        grad, step = _newton_step(state, P)
        check_finite("step", step, it)
        gain = 0.5 * float(grad @ step)
        if gain < tol:
            return state, history, (grad, step)
        base, beta, log_phi = cur, state.beta, math.log(state.phi)
        t = 1.0
        for _ in range(40 if _resolvable(gain, cur) else 0):  # the first that loses at most 1e-12
            phi = math.exp(min(max(log_phi + t * step[-1], low), high))
            cand = _State(design, beta + t * step[:-1], phi)
            val = objective(cand)
            if val >= cur - 1e-12:
                state, cur = cand, val
                break
            t *= 0.5
        history.append(cur)
        if abs(cur - base) < tol:
            return state, history, _newton_step(state, P)
    raise ConvergenceError(
        f"penalized fit did not converge in {_MAX_ITER} iterations "
        f"(last objective change {abs(cur - base):.3e})",
        iterations=_MAX_ITER,
        last_change=abs(cur - base),
    )


def _initial_values(design: _Design, P):
    """Penalized least squares on logit(y), and phi from the residual variance."""
    X, y, inverse = design.X, design.y, design.inverse
    p = X.shape[1]
    z = np.bincount(inverse, logit(np.clip(y, 1e-3, 1.0 - 1e-3)), X.shape[0])
    beta0 = np.linalg.solve((X.T * design.n) @ X + P + 1e-8 * np.eye(p), X.T @ z)
    mu0 = np.clip(inv_logit(X @ beta0), 1e-4, 1.0 - 1e-4)[inverse]
    resid_var = float(np.var(y - mu0))
    if resid_var <= 0.0:
        phi0 = 1e4
    else:
        phi0 = float(np.clip(np.mean(mu0 * (1.0 - mu0)) / resid_var - 1.0, 0.5, 1e6))
    return beta0, phi0


@dataclass(eq=False)
class _FitResult:
    beta: np.ndarray
    phi: float
    loglik: float
    aic: float
    search_aic: float  # the AIC with the loglik at the Newton point, which the search ranks by
    edf_by_coef: np.ndarray
    covariance: np.ndarray
    iterations: int


def _fit_at_lambda(design: _Design, lambdas, warm: _State | None, tol):
    """The fit at `lambdas` from `warm` (None: from _initial_values), and its last state."""
    penalty = _penalty(design, lambdas)
    if warm is None:
        warm = _State(design, *_initial_values(design, penalty.matrix))
    state, history, (_, step) = _fit_penalized(warm, penalty, tol)
    score, information = state.score_information
    XtWX = information[:-1, :-1]
    covariance = np.linalg.inv(XtWX + penalty.matrix)
    edf_by_coef = np.einsum("ij,ji->i", covariance, XtWX)
    aic = -2.0 * state.loglik + 2.0 * (float(edf_by_coef.sum()) + 1.0)
    # the loglik is first order in the step the fit stopped short of, so the search
    # compares fits by the loglik its quadratic model predicts at the Newton point
    newton_gain = float(score @ step) - 0.5 * float(step @ information @ step)
    result = _FitResult(
        beta=state.beta,
        phi=state.phi,
        loglik=state.loglik,
        aic=aic,
        search_aic=aic - 2.0 * newton_gain,
        edf_by_coef=edf_by_coef,
        covariance=covariance,
        iterations=len(history) - 1,
    )
    return result, state


# ---------------------------------------------------------------------------
# fitted model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitStats:
    loglik: float
    aic: float
    deviance: float
    null_deviance: float
    deviance_explained: float
    adj_r_squared: float
    n_obs: int
    iterations: int


@dataclass(frozen=True, eq=False)
class AdditiveModel(_Layout):
    """A fitted Beta additive model: its layout and its fit; immutable, equal only to itself."""

    coef: np.ndarray
    lambdas: dict[str, float]  # smooth label -> smoothing parameter
    phi: float
    covariance: np.ndarray
    edf_by_coef: np.ndarray
    fit_stats: FitStats

    def __post_init__(self):
        p = len(self.coef_names)
        for name, expected in (("coef", (p,)), ("edf_by_coef", (p,)), ("covariance", (p, p))):
            shape = getattr(self, name).shape
            if shape != expected:
                raise InputError(f"model {name} has shape {shape}, coef_names needs {expected}")
        super().__post_init__()
        labels = sorted(block.label for block in self.blocks)
        if sorted(self.lambdas) != labels:
            raise InputError(f"model lambdas name {sorted(self.lambdas)}, not its blocks {labels}")

    @property
    def metric(self) -> str:
        return self.spec.response

    def predict_sizes(self, cell: Mapping, num_tr_images) -> np.ndarray:
        """Mean response over sizes at a cell: one level, or a level per size, per factor.
        InputError names the first size whose linear predictor is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            eta = self.rows(cell, num_tr_images) @ self.coef
        bad = np.flatnonzero(~np.isfinite(eta))
        if bad.size:
            size = float(np.atleast_1d(num_tr_images)[bad[0]])
            raise InputError(f"model linear predictor is not finite at num_tr_images {size:.10g}")
        return inv_logit(eta)


def term_edf(model: AdditiveModel) -> dict:
    """Effective degrees of freedom per model term."""
    return {t: float(model.edf_by_coef[list(idx)].sum()) for t, idx in model.term_index.items()}


def wald_p(model: AdditiveModel, term: str) -> float:
    """Wald p-value for a term or a single coefficient (see _joint_term_p)."""
    if term in model.term_index:
        idx = list(model.term_index[term])
    elif term in model.coef_names:
        idx = [model.coef_names.index(term)]
    else:
        raise InputError(f"unknown term {term!r}")
    return _joint_term_p(model, idx)


def _joint_term_p(model: AdditiveModel, idx) -> float:
    """Wald p-value for the coefficients `idx`: normal test for one parametric
    coefficient, joint chi-square otherwise, with df = rounded EDF for smooth
    blocks and df = len(idx) for factors."""
    beta = model.coef[idx]
    V = model.covariance[np.ix_(idx, idx)]
    smooth = any(idx[0] in block.columns for block in model.blocks)
    if len(idx) == 1 and not smooth:
        z = float(beta[0]) / float(np.sqrt(V[0, 0]))
        return math.erfc(abs(z) / math.sqrt(2.0))
    df = max(1, int(round(float(model.edf_by_coef[idx].sum())))) if smooth else len(idx)
    stat = float(beta @ np.linalg.solve(V, beta))
    return chi2_sf(df, stat)


# ---------------------------------------------------------------------------
# saturated / null likelihood and fit statistics
# ---------------------------------------------------------------------------


def _beta_mean(t, phi) -> np.ndarray:
    """Means mu in (0, 1) solving digamma(mu*phi) - digamma((1-mu)*phi) = t.

    Elementwise damped Newton from inv_logit(t); the left side is increasing
    in mu, and a step that leaves (0, 1) is replaced by bisection towards the
    bound it crossed.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    mu = np.clip(inv_logit(t), 1e-9, 1.0 - 1e-9)
    m = mu.size
    for _ in range(100):
        _, psi, tri = gammaln_psi(np.concatenate((mu * phi, (1.0 - mu) * phi)))
        step = -(psi[:m] - psi[m:] - t) / (phi * (tri[:m] + tri[m:]))
        nxt = mu + step
        bad = (nxt <= 0.0) | (nxt >= 1.0)
        nxt[bad] = 0.5 * (mu[bad] + np.where(step[bad] > 0.0, 1.0, 0.0))
        mu = nxt
        if float(np.max(np.abs(step))) < 1e-13:
            break
    return mu


def _saturated_loglik(y, phi):
    """Beta log-likelihood with each observation at its own best mean."""
    ylog, y1log = np.log(y), np.log1p(-y)
    return _loglik_rows(_beta_mean(ylog - y1log, phi), phi, 1.0, ylog, y1log)[0]


def _null_loglik(y, phi):
    """Intercept-only Beta log-likelihood at fixed phi."""
    ylog, y1log = np.log(y), np.log1p(-y)
    mu = _beta_mean(np.mean(ylog - y1log), phi)
    return _loglik_rows(mu, phi, y.size, ylog.sum(), y1log.sum())[0]


def _fit_statistics(y, mu, phi, edf_total: float) -> dict:
    """Deviance, null deviance, deviance explained and adjusted R^2 of means mu."""
    ll = _loglik_rows(mu, phi, 1.0, np.log(y), np.log1p(-y))[0]
    ll_sat = _saturated_loglik(y, phi)
    # the saturated likelihood is the supremum, and a fit with an intercept is
    # no worse than the intercept alone; tiny negatives are float noise
    deviance = max(2.0 * (ll_sat - ll), 0.0)
    null_deviance = max(2.0 * (ll_sat - _null_loglik(y, phi)), 0.0)
    explained = 0.0 if null_deviance <= 1e-10 else max(1.0 - deviance / null_deviance, 0.0)
    n = y.size
    tss = float(((y - y.mean()) ** 2).sum())
    rss = float(((y - mu) ** 2).sum())
    return {
        "deviance": deviance,
        "null_deviance": null_deviance,
        "deviance_explained": explained,
        "adj_r_squared": (
            0.0 if tss <= 0.0 else 1.0 - (rss / max(n - edf_total, 1.0)) / (tss / (n - 1))
        ),
    }


# ---------------------------------------------------------------------------
# fitting with smoothing-parameter selection
# ---------------------------------------------------------------------------


def fit(
    spec: ModelSpec,
    observations: np.recarray,
    *,
    lambdas: Sequence[float] | None = None,
) -> AdditiveModel:
    """Fit the Beta additive model described by `spec`.

    Parameters
    ----------
    spec : ModelSpec
        Terms and reference levels.  A smooth's k is capped at the number
        of distinct sizes; the model's spec holds the k fitted.
    observations : np.recarray
        Observation table (see metrics.observation_table) of any metric;
        only the rows of spec.response are used.  A value of exactly 0 or 1
        is moved inside to SQUEEZE_EPS or 1 - SQUEEZE_EPS, as mgcv's betar
        family truncates to [eps, 1 - eps]; other values are fitted as they
        are.
    lambdas : optional
        Fixed smoothing parameters, one per smooth block, each in [0, 1e12],
        to bypass the AIC search over DEFAULT_LAMBDA_GRID.
    """
    design = _assemble(spec, observations)
    n_smooth = len(design.layout.blocks)
    if lambdas is not None:
        if len(lambdas) != n_smooth:
            raise InputError(f"need {n_smooth} smoothing parameters, got {len(lambdas)}")
        if not all(0.0 <= l <= _MAX_FIXED_LAMBDA for l in lambdas):  # NaN included
            bound = f"{_MAX_FIXED_LAMBDA:.0e}"
            raise InputError(f"smoothing parameters must lie in [0, {bound}], got {list(lambdas)}")
    if lambdas is None and n_smooth > 0:
        chosen, result = _search_lambdas(design)
    else:
        chosen = [] if lambdas is None else [float(l) for l in lambdas]
        result, _ = _fit_at_lambda(design, chosen, None, _TOL)
    return _package_model(design, chosen, result)


def _search_lambdas(design):
    grid = [float(g) for g in DEFAULT_LAMBDA_GRID]
    n_smooth = len(design.layout.blocks)
    start = min(grid, key=lambda g: abs(np.log10(g)))
    lam = [start] * n_smooth
    # best is the fit at lam, the best so far, and warm the state to restart from
    best, warm = _fit_at_lambda(design, lam, None, _SCREEN_TOL)
    # coordinate steps since lam last moved, that one included
    settled = 0
    for step in range(8 * n_smooth):
        k = step % n_smooth
        candidates = []
        chain = warm
        for g in grid:
            trial = lam[:k] + [g] + lam[k + 1 :]
            if trial == lam:
                res, chain = best, warm
            else:
                res, chain = _fit_at_lambda(design, trial, chain, _SCREEN_TOL)
            candidates.append((res.search_aic, trial, res))
        _, trial, res = min(candidates, key=lambda c: (c[0], c[1]))
        if trial == lam:
            settled += 1
        else:
            lam, best, settled = trial, res, 1
            warm = _State(design, res.beta, res.phi)
        if settled == n_smooth:
            break
    final, _ = _fit_at_lambda(design, lam, warm, _TOL)
    return lam, final


def _package_model(design, chosen, result) -> AdditiveModel:
    mu = inv_logit(design.X @ result.beta)[design.inverse]
    return AdditiveModel(
        **{f.name: getattr(design.layout, f.name) for f in fields(_Layout)},
        coef=result.beta,
        lambdas={block.label: float(lam) for block, lam in zip(design.layout.blocks, chosen)},
        phi=result.phi,
        covariance=result.covariance,
        edf_by_coef=result.edf_by_coef,
        fit_stats=FitStats(
            loglik=result.loglik,
            aic=result.aic,
            n_obs=design.y.size,
            iterations=result.iterations,
            **_fit_statistics(design.y, mu, result.phi, float(result.edf_by_coef.sum())),
        ),
    )


# ---------------------------------------------------------------------------
# backward stepwise elimination
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EliminationStep:
    dropped: str
    p_value: float


def _candidate_terms(spec: ModelSpec, model: AdditiveModel):
    """Droppable terms and the coefficient indices each covers.

    A factor serving as the by-factor of a retained smooth is structurally
    required and not a candidate.
    """
    protected = {t.by_factor for t in spec.smooth_terms if t.by_factor is not None}
    out = {}
    for t in spec.parametric_terms:
        # a factor with one level has no coefficients to test
        if t.name in protected or not model.term_index[t.name]:
            continue
        out[t.name] = list(model.term_index[t.name])
    for t in spec.smooth_terms:
        out[t.label] = [j for b in model.blocks if b.term.label == t.label for j in b.columns]
    return out


def backward_eliminate(
    full_spec: ModelSpec,
    observations: np.recarray,
    alpha: float = 0.05,
    lambdas: Sequence[float] | None = None,
):
    """Drop the least significant term with p > alpha, refit, repeat.

    Returns (final model, trace of EliminationStep).  Factors required by a
    retained nested smooth are never dropped before the smooth itself.  Fixed
    `lambdas` follow their smooth blocks: dropping a smooth drops its lambdas.
    """
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")
    spec = full_spec
    model = fit(spec, observations, lambdas=lambdas)
    trace = []
    while True:
        candidates = _candidate_terms(spec, model)
        if not candidates:
            break
        pvals = {term: _joint_term_p(model, idx) for term, idx in candidates.items()}
        worst = max(pvals, key=lambda t: (pvals[t], t))
        if pvals[worst] <= alpha:
            break
        trace.append(EliminationStep(dropped=worst, p_value=pvals[worst]))
        spec = spec.without(worst)
        if lambdas is not None:
            lambdas = [model.lambdas[b.label] for b in model.blocks if b.term.label != worst]
        model = fit(spec, observations, lambdas=lambdas)
    return model, trace
