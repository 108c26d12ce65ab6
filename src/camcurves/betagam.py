"""Beta-family generalised additive models with a logit link.

The linear predictor combines treatment-coded factor effects (tuning,
dataset, architecture) with reduced-rank cubic spline smooths of
log(num_tr_images), one smooth per dataset level.  The response is a
(0,1)-valued metric modelled as Beta(mu*phi, (1-mu)*phi) with a single
global precision phi.

Fitting maximizes the penalized log-likelihood

    sum_i loglik(y_i; mu_i, phi) - 1/2 * sum_s lambda_s * gamma_s' S_s gamma_s

by Fisher-scoring steps for the coefficients and one-dimensional Newton
steps for log(phi), with step halving so the objective never decreases.
Smoothing parameters are chosen by AIC = -2*loglik + 2*(EDF + 1) over a
log-spaced grid, searched coordinate-wise with warm starts.

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

`_model_rows` is the one encoding of covariates into model-matrix rows: the
intercept, the treatment dummies and the centred by-level spline blocks.  The
fit builds its distinct rows with it, and every prediction (a cell over an
array of sizes, or the public fit_stats over a dataset) builds its rows with
it from the fitted model, so a cell cannot be encoded two ways.

Only the functions that evaluate the likelihood or a Wald test import
scipy.special, so loading, predicting from and planning with a fitted model
run on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from ._numeric import inv_logit, logit, trigamma
from .errors import ConvergenceError, InputError
from .metrics import METRIC_KINDS, _distinct
from .splines import KnotVector, build_basis, center_basis, place_knots

DEFAULT_LAMBDA_GRID = tuple(10.0 ** np.linspace(-4.0, 6.0, 21))

# tolerance on the penalized log-likelihood change of a final fit and of a
# screened grid candidate, and the outer iteration budget of every fit
_TOL, _SCREEN_TOL, _MAX_ITER = 1e-8, 1e-5, 200

_PHI_MIN, _PHI_MAX = 1e-2, 1e8

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
    covariate: str = "num_tr_images"
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


@dataclass(frozen=True)
class ModelSpec:
    """Which terms enter the model, and the squeeze width for boundary values."""

    response: str
    parametric_terms: tuple[FactorTerm, ...] = DEFAULT_FACTORS
    smooth_terms: tuple[SmoothTerm, ...] = (SmoothTerm(),)
    squeeze_eps: float = 1e-4

    def __post_init__(self):
        if self.response not in METRIC_KINDS:
            raise InputError(f"unknown metric kind {self.response!r}")
        names = [t.name for t in self.parametric_terms]
        if len(names) != len(set(names)):
            raise InputError("duplicate parametric terms")

    def without(self, term_label: str) -> "ModelSpec":
        """Copy of this spec with one term dropped."""
        if any(t.name == term_label for t in self.parametric_terms):
            return replace(
                self,
                parametric_terms=tuple(
                    t for t in self.parametric_terms if t.name != term_label
                ),
            )
        if any(t.label == term_label for t in self.smooth_terms):
            return replace(
                self,
                smooth_terms=tuple(t for t in self.smooth_terms if t.label != term_label),
            )
        raise InputError(f"unknown term {term_label!r}")


def default_spec(metric: str) -> ModelSpec:
    return ModelSpec(response=metric)


# ---------------------------------------------------------------------------
# likelihood
# ---------------------------------------------------------------------------


def squeeze(y, eps: float = 1e-4):
    """Pull boundary values into the open interval: min(max(y, eps), 1-eps)."""
    if not 0.0 < eps < 0.5:
        raise InputError(f"squeeze eps must lie in (0, 0.5), got {eps}")
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise InputError("values to squeeze must lie in [0, 1]")
    out = np.clip(arr, eps, 1.0 - eps)
    return float(out) if out.ndim == 0 else out


def beta_loglik(y, mu, phi):
    """Log Beta density at y under mean mu and precision phi, with gradient.

    Shapes are alpha = mu*phi and beta = (1-mu)*phi.  Returns
    (loglik, d/d logit(mu), d/d log(phi)), elementwise over broadcast inputs.
    """
    from scipy.special import digamma, gammaln

    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if np.any(y <= 0.0) or np.any(y >= 1.0):
        raise InputError("response values must lie strictly inside (0, 1); squeeze first")
    if np.any(mu <= 0.0) or np.any(mu >= 1.0):
        raise InputError("mean values must lie strictly inside (0, 1)")
    if np.any(phi <= 0.0):
        raise InputError("precision must be positive")
    a = mu * phi
    b = (1.0 - mu) * phi
    ylog = np.log(y)
    y1log = np.log1p(-y)
    ll = gammaln(phi) - gammaln(a) - gammaln(b) + (a - 1.0) * ylog + (b - 1.0) * y1log
    ystar = ylog - y1log
    mustar = digamma(a) - digamma(b)
    d_logit_mu = phi * (ystar - mustar) * mu * (1.0 - mu)
    d_log_phi = phi * (
        digamma(phi) - mu * digamma(a) - (1.0 - mu) * digamma(b) + mu * ylog + (1.0 - mu) * y1log
    )
    if ll.ndim == 0:
        return float(ll), float(d_logit_mu), float(d_log_phi)
    return ll, d_logit_mu, d_log_phi


def penalized_loglik(beta, log_phi: float, X, y, penalty):
    """Penalized objective and its analytic gradient in (beta, log_phi).

    `penalty` is the assembled coefficient penalty matrix P, so the
    objective is sum_i loglik_i - 1/2 beta' P beta.
    """
    beta = np.asarray(beta, dtype=float)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    penalty = np.asarray(penalty, dtype=float)
    phi = float(np.exp(log_phi))
    mu = inv_logit(X @ beta)
    ll, d_logit_mu, d_log_phi = beta_loglik(y, mu, phi)
    value = float(np.sum(ll)) - 0.5 * float(beta @ penalty @ beta)
    grad = np.empty(beta.size + 1)
    grad[:-1] = X.T @ d_logit_mu - penalty @ beta
    grad[-1] = float(np.sum(d_log_phi))
    return value, grad


def _ll_sum(mu, phi, n, sum_ylog, sum_y1log):
    """Summed Beta log density of design rows at means mu.

    Row r holds n[r] observations whose log(y) and log(1-y) sum to
    sum_ylog[r] and sum_y1log[r]; n = 1 gives the per-observation density.
    """
    from scipy.special import gammaln

    a = mu * phi
    b = (1.0 - mu) * phi
    return float(
        np.sum(
            n * (gammaln(phi) - gammaln(a) - gammaln(b))
            + (a - 1.0) * sum_ylog
            + (b - 1.0) * sum_y1log
        )
    )


# ---------------------------------------------------------------------------
# design assembly
# ---------------------------------------------------------------------------


@dataclass
class _Design:
    """The model matrix on the distinct design rows, with their sufficient statistics.

    The fields from `spec` to `smooth_constraints` carry the names and meaning
    of the same fields of AdditiveModel, so `_model_rows` reads either.
    """

    X: np.ndarray  # m distinct rows x p coefficients
    n: np.ndarray  # observations per row
    sum_ylog: np.ndarray  # per-row sum of log(y)
    sum_y1log: np.ndarray  # per-row sum of log(1-y)
    y: np.ndarray  # per-observation response
    inverse: np.ndarray  # observation -> row index into X
    spec: ModelSpec
    coef_names: list
    term_index: dict
    factor_levels: dict
    references: dict
    knot_vector: KnotVector | None
    smooth_constraints: dict  # smooth label -> k x (k-1) reparameterization
    smooth_penalties: dict  # smooth label -> (k-1) x (k-1) curvature penalty
    observed_sizes: tuple


def _model_rows(model, columns: Mapping, sizes) -> np.ndarray:
    """Model-matrix rows at covariate values: the one encoding of covariates.

    `model` is a _Design or an AdditiveModel.  `columns` maps each factor of
    the model to its level per row, or to one level for every row; `sizes`
    holds num_tr_images per row.  A row holds the intercept, the treatment
    dummies and, for each by-level smooth, the centred basis at log(size) on
    the rows of its level and 0 elsewhere.
    """
    sizes = np.atleast_1d(np.asarray(sizes, dtype=float))
    if np.any(sizes <= 0.0):
        raise InputError("num_tr_images must be positive")
    X = np.zeros((sizes.size, len(model.coef_names)))
    X[:, model.term_index[INTERCEPT][0]] = 1.0
    values = {}
    for factor, levels in model.factor_levels.items():
        if factor not in columns:
            raise InputError(f"cell is missing a level for factor {factor!r}")
        values[factor] = np.broadcast_to(np.asarray(columns[factor]), sizes.shape)
        unknown = set(values[factor].tolist()).difference(levels)
        if unknown:
            raise InputError(f"unknown level {min(unknown, key=str)!r} for factor {factor!r}")
        others = [level for level in levels if level != model.references[factor]]
        for level, j in zip(others, model.term_index[factor]):
            X[:, j] = values[factor] == level
    if model.spec.smooth_terms:
        raw = build_basis(np.log(sizes), model.knot_vector).basis_matrix
    for term in model.spec.smooth_terms:
        by = term.by_factor
        for level in (None,) if by is None else model.factor_levels[by]:
            label = term.label if level is None else f"{term.label}[{level}]"
            block = raw @ model.smooth_constraints[label]
            if level is not None:
                block = block * (values[by] == level)[:, None]
            X[:, list(model.term_index[label])] = block
    return X


def _assemble(spec: ModelSpec, observations: np.recarray) -> _Design:
    data = observations[observations.metric == spec.response]
    if not len(data):
        raise InputError(f"no observations with metric {spec.response!r}")
    y = data.value
    if np.any(y <= 0.0) or np.any(y >= 1.0):
        raise InputError(
            "response contains boundary values; apply squeeze() before fitting"
        )
    if len(spec.smooth_terms) > 1:  # a model carries one knot vector
        raise InputError("at most one smooth term is supported")
    for term in spec.smooth_terms:
        if term.covariate != "num_tr_images":
            raise InputError(f"unsupported smooth covariate {term.covariate!r}")

    # one design row per distinct combination of the covariates the model uses,
    # in sorted order so that the rows do not depend on the observation order
    key_names = [t.name for t in spec.parametric_terms]
    key_names += sorted({t.covariate for t in spec.smooth_terms})
    keys, inverse = _distinct(data, key_names)
    m = len(keys)
    counts = np.bincount(inverse, minlength=m).astype(float)
    column = {name: [key[j] for key in keys] for j, name in enumerate(key_names)}

    factor_levels: dict = {}
    references: dict = {}
    names = [INTERCEPT]
    term_index: dict = {INTERCEPT: (0,)}
    for term in spec.parametric_terms:
        levels = sorted(set(column[term.name]))
        if term.reference not in levels:
            raise InputError(
                f"reference level {term.reference!r} of factor {term.name!r} absent from data"
            )
        factor_levels[term.name] = tuple(levels)
        references[term.name] = term.reference
        others = [level for level in levels if level != term.reference]
        term_index[term.name] = tuple(range(len(names), len(names) + len(others)))
        names.extend(f"{term.name}[{level}]" for level in others)

    knot_vector = None
    constraints: dict = {}
    penalties: dict = {}
    for term in spec.smooth_terms:
        x = np.log(np.array(column[term.covariate], dtype=float))
        knot_vector = place_knots(np.unique(x), k=term.k)
        basis = build_basis(x, knot_vector)
        by = term.by_factor
        if by is not None and by not in factor_levels:
            raise InputError(f"smooth by-factor {by!r} is not a parametric term of the model")
        for level in (None,) if by is None else factor_levels[by]:
            mask = np.ones(m) if level is None else np.array(column[by]) == level
            # count-weighted, so the constraint sums over the observations
            centred = center_basis(basis, weights=mask * counts)
            label = term.label if level is None else f"{term.label}[{level}]"
            term_index[label] = tuple(range(len(names), len(names) + centred.rank))
            names.extend(f"{label}.{j}" for j in range(centred.rank))
            constraints[label] = centred.constraint
            penalties[label] = centred.penalty_matrix

    design = _Design(
        X=None,
        n=counts,
        sum_ylog=np.bincount(inverse, np.log(y), m),
        sum_y1log=np.bincount(inverse, np.log1p(-y), m),
        y=y,
        inverse=inverse,
        spec=spec,
        coef_names=names,
        term_index=term_index,
        factor_levels=factor_levels,
        references=references,
        knot_vector=knot_vector,
        smooth_constraints=constraints,
        smooth_penalties=penalties,
        observed_sizes=tuple(np.unique(data.num_tr_images).tolist()),
    )
    # a model without a smooth term reads no size
    design.X = _model_rows(design, column, column.get("num_tr_images", np.ones(m)))
    _check_rank(design.X, names)
    return design


def _check_rank(X: np.ndarray, names: Sequence[str]):
    m, p = X.shape
    if m < p:  # zero rows give R one diagonal entry per column
        X = np.vstack([X, np.zeros((p - m, p))])
    _, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    bad = diag < diag.max() * 1e-10
    if bad.any():
        offenders = [names[i] for i in np.flatnonzero(bad)]
        raise InputError(f"rank-deficient design; offending columns: {offenders}")


def _penalty_matrix(design: _Design, lambdas: Sequence[float]) -> np.ndarray:
    p = design.X.shape[1]
    P = np.zeros((p, p))
    for lam, (label, S) in zip(lambdas, design.smooth_penalties.items()):
        columns = design.term_index[label]
        i0, i1 = columns[0], columns[-1] + 1
        P[i0:i1, i0:i1] = lam * S
    return P


# ---------------------------------------------------------------------------
# penalized fit for a fixed penalty
# ---------------------------------------------------------------------------


def _fit_penalized(design: _Design, P, beta0, phi0, tol):
    """Alternate coefficient Fisher scoring and log-phi Newton with step halving.

    Works on the distinct design rows: each row's score, Fisher weight and
    log-phi terms are its observations' terms summed in closed form.
    Returns (beta, phi, penalized loglik, history of accepted objective values).
    Raises ConvergenceError when the objective change stays above `tol` for
    _MAX_ITER outer iterations, or at once when the objective or the
    coefficient step is not finite, since step halving can then accept nothing.
    """
    from scipy.special import digamma

    X, n, sum_ylog, sum_y1log = design.X, design.n, design.sum_ylog, design.sum_y1log
    sum_ystar = sum_ylog - sum_y1log
    beta = beta0.copy()
    phi = float(phi0)

    def objective(b, ph):
        return _ll_sum(inv_logit(X @ b), ph, n, sum_ylog, sum_y1log) - 0.5 * float(b @ P @ b)

    def check_finite(what, value, it):
        if not np.all(np.isfinite(value)):
            raise ConvergenceError(
                f"penalized fit reached a non-finite {what} after {it} iterations",
                iterations=it,
            )

    cur = objective(beta, phi)
    history = [cur]
    for it in range(1, _MAX_ITER + 1):
        check_finite("objective", cur, it - 1)
        base = cur
        eta = X @ beta
        mu = inv_logit(eta)
        a = mu * phi
        b = (1.0 - mu) * phi
        mm = mu * (1.0 - mu)
        u = phi * (sum_ystar - n * (digamma(a) - digamma(b))) * mm
        w = n * phi * phi * (trigamma(a) + trigamma(b)) * mm * mm
        grad = X.T @ u - P @ beta
        step = np.linalg.solve((X.T * w) @ X + P, grad)
        check_finite("coefficient step", step, it - 1)
        t = 1.0
        for _ in range(40):
            cand = beta + t * step
            val = objective(cand, phi)
            if val >= cur - 1e-12:
                beta, cur = cand, val
                break
            t *= 0.5

        mu = inv_logit(X @ beta)
        a = mu * phi
        b = (1.0 - mu) * phi
        d1 = phi * float(
            np.sum(
                n * (digamma(phi) - mu * digamma(a) - (1.0 - mu) * digamma(b))
                + mu * sum_ylog + (1.0 - mu) * sum_y1log
            )
        )
        d2 = d1 + phi * phi * float(
            np.sum(n * (trigamma(phi) - mu * mu * trigamma(a) - (1.0 - mu) ** 2 * trigamma(b)))
        )
        if d2 >= 0.0:  # not locally concave; fall back to a gradient step
            d2 = -abs(d1) - 1e-6
        log_step = float(np.clip(-d1 / d2, -2.0, 2.0))
        t = 1.0
        for _ in range(30):
            cand_phi = float(np.clip(np.exp(np.log(phi) + t * log_step), _PHI_MIN, _PHI_MAX))
            val = objective(beta, cand_phi)
            if val >= cur - 1e-12:
                phi, cur = cand_phi, val
                break
            t *= 0.5

        history.append(cur)
        if abs(cur - base) < tol:
            return beta, phi, cur, history
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


@dataclass
class _FitResult:
    beta: np.ndarray
    phi: float
    loglik: float
    aic: float
    edf_by_coef: np.ndarray
    covariance: np.ndarray
    iterations: int
    pll_history: tuple


def _fit_at_lambda(design: _Design, lambdas, warm, tol) -> _FitResult:
    P = _penalty_matrix(design, lambdas)
    beta0, phi0 = _initial_values(design, P) if warm is None else warm
    beta, phi, _, history = _fit_penalized(design, P, beta0, phi0, tol)
    X = design.X
    mu = inv_logit(X @ beta)
    ll = _ll_sum(mu, phi, design.n, design.sum_ylog, design.sum_y1log)
    a = mu * phi
    b = (1.0 - mu) * phi
    w = design.n * phi * phi * (trigamma(a) + trigamma(b)) * (mu * (1.0 - mu)) ** 2
    XtWX = (X.T * w) @ X
    covariance = np.linalg.inv(XtWX + P)
    edf_by_coef = np.einsum("ij,ji->i", covariance, XtWX)
    aic = -2.0 * ll + 2.0 * (float(edf_by_coef.sum()) + 1.0)
    return _FitResult(
        beta=beta,
        phi=phi,
        loglik=ll,
        aic=aic,
        edf_by_coef=edf_by_coef,
        covariance=covariance,
        iterations=len(history) - 1,
        pll_history=tuple(history),
    )


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


@dataclass(frozen=True)
class AdditiveModel:
    """A fitted Beta additive model; immutable value object."""

    spec: ModelSpec
    coef: np.ndarray
    coef_names: tuple
    term_index: dict
    factor_levels: dict
    references: dict
    knot_vector: KnotVector | None
    smooth_constraints: dict  # smooth label -> k x (k-1) reparameterization
    lambdas: dict  # smooth label -> smoothing parameter
    phi: float
    covariance: np.ndarray
    edf_by_coef: np.ndarray
    fit_stats: FitStats
    observed_sizes: tuple
    pll_history: tuple = field(repr=False, default=())

    @property
    def metric(self) -> str:
        return self.spec.response

    def smooth_labels(self) -> tuple:
        return tuple(t for t in self.term_index if t.startswith("s("))

    def linear_predictor(self, cell: Mapping, num_tr_images) -> np.ndarray:
        """Linear predictor at one covariate cell over an array of sizes."""
        return _model_rows(self, cell, num_tr_images) @ self.coef

    def predict(self, cell: Mapping) -> float:
        """Mean response at one covariate cell; cell must carry num_tr_images."""
        if "num_tr_images" not in cell:
            raise InputError("cell is missing num_tr_images")
        return float(inv_logit(self.linear_predictor(cell, cell["num_tr_images"]))[0])

    def predict_sizes(self, cell: Mapping, num_tr_images) -> np.ndarray:
        """Mean response at one covariate cell over an array of sizes."""
        return inv_logit(self.linear_predictor(cell, num_tr_images))


def predict(model: AdditiveModel, cell: Mapping) -> float:
    return model.predict(cell)


def term_edf(model: AdditiveModel) -> dict:
    """Effective degrees of freedom per model term."""
    out = {}
    for term, idx in model.term_index.items():
        out[term] = float(model.edf_by_coef[list(idx)].sum())
    return out


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
    from scipy.special import chdtrc, ndtr

    beta = model.coef[idx]
    V = model.covariance[np.ix_(idx, idx)]
    smooth = model.coef_names[idx[0]].startswith("s(")
    if len(idx) == 1 and not smooth:
        z = float(beta[0]) / float(np.sqrt(V[0, 0]))
        return float(2.0 * ndtr(-abs(z)))
    df = max(1, int(round(float(model.edf_by_coef[idx].sum())))) if smooth else len(idx)
    stat = float(beta @ np.linalg.solve(V, beta))
    return float(chdtrc(df, stat))


# ---------------------------------------------------------------------------
# saturated / null likelihood and fit statistics
# ---------------------------------------------------------------------------


def _beta_mean(t, phi) -> np.ndarray:
    """Means mu in (0, 1) solving digamma(mu*phi) - digamma((1-mu)*phi) = t.

    Elementwise damped Newton from inv_logit(t); the left side is increasing
    in mu, and a step that leaves (0, 1) is replaced by bisection towards the
    bound it crossed.
    """
    from scipy.special import digamma

    t = np.atleast_1d(np.asarray(t, dtype=float))
    mu = np.clip(inv_logit(t), 1e-9, 1.0 - 1e-9)
    for _ in range(100):
        a = mu * phi
        b = (1.0 - mu) * phi
        step = -(digamma(a) - digamma(b) - t) / (phi * (trigamma(a) + trigamma(b)))
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
    return _ll_sum(_beta_mean(ylog - y1log, phi), phi, 1.0, ylog, y1log)


def _null_loglik(y, phi):
    """Intercept-only Beta log-likelihood at fixed phi."""
    ylog, y1log = np.log(y), np.log1p(-y)
    return _ll_sum(_beta_mean(np.mean(ylog - y1log), phi), phi, y.size, ylog.sum(), y1log.sum())


def _fit_statistics(y, mu, phi, edf_total: float) -> dict:
    """Deviance, null deviance, deviance explained and adjusted R^2 of means mu."""
    ll = _ll_sum(mu, phi, 1.0, np.log(y), np.log1p(-y))
    ll_sat = _saturated_loglik(y, phi)
    # the saturated likelihood is the supremum; tiny negatives are float noise
    deviance = max(2.0 * (ll_sat - ll), 0.0)
    null_deviance = max(2.0 * (ll_sat - _null_loglik(y, phi)), 0.0)
    n = y.size
    tss = float(((y - y.mean()) ** 2).sum())
    rss = float(((y - mu) ** 2).sum())
    return {
        "deviance": deviance,
        "null_deviance": null_deviance,
        "deviance_explained": 0.0 if null_deviance <= 1e-10 else 1.0 - deviance / null_deviance,
        "adj_r_squared": (
            0.0 if tss <= 0.0 else 1.0 - (rss / max(n - edf_total, 1.0)) / (tss / (n - 1))
        ),
    }


def fit_stats(model: AdditiveModel, observations: np.recarray) -> dict:
    """Deviance explained and adjusted R^2 of a model on an observation table."""
    data = observations[observations.metric == model.metric]
    if not len(data):
        raise InputError(f"no observations with metric {model.metric!r}")
    y = data.value
    if np.any(y <= 0.0) or np.any(y >= 1.0):
        raise InputError("observations contain boundary values; apply squeeze() first")
    columns = {factor: data[factor] for factor in model.factor_levels}
    X = _model_rows(model, columns, data.num_tr_images)
    stats = _fit_statistics(y, inv_logit(X @ model.coef), model.phi, float(model.edf_by_coef.sum()))
    return {key: stats[key] for key in ("deviance_explained", "adj_r_squared")}


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
        Terms, reference levels and squeeze width.
    observations : np.recarray
        Observation table (see metrics.observation_table) of any metric;
        only the rows of spec.response are used.  Their values must already
        be strictly inside (0, 1).
    lambdas : optional
        Fixed smoothing parameters, one per smooth block, to bypass the AIC
        search over DEFAULT_LAMBDA_GRID.
    """
    design = _assemble(spec, observations)
    n_smooth = len(design.smooth_penalties)
    if lambdas is not None:
        if len(lambdas) != n_smooth:
            raise InputError(f"need {n_smooth} smoothing parameters, got {len(lambdas)}")
        if any(l < 0 for l in lambdas):
            raise InputError("smoothing parameters must be >= 0")
        scales = [float(np.abs(S).max()) for S in design.smooth_penalties.values()]
        if not all(np.isfinite(float(l) * s) for l, s in zip(lambdas, scales)):
            raise InputError(f"smoothing parameters {list(lambdas)} give a non-finite penalty")
    if lambdas is None and n_smooth > 0:
        chosen, result = _search_lambdas(design)
    else:
        chosen = [] if lambdas is None else [float(l) for l in lambdas]
        result = _fit_at_lambda(design, chosen, None, _TOL)
    return _package_model(spec, design, chosen, result)


def _search_lambdas(design):
    grid = [float(g) for g in DEFAULT_LAMBDA_GRID]
    n_smooth = len(design.smooth_penalties)
    start = min(grid, key=lambda g: abs(np.log10(g)))
    lam = [start] * n_smooth
    cache = {}

    def evaluate(lam_tuple, warm):
        if lam_tuple in cache:
            return cache[lam_tuple]
        res = _fit_at_lambda(design, list(lam_tuple), warm, _SCREEN_TOL)
        cache[lam_tuple] = res
        return res

    best = evaluate(tuple(lam), None)
    warm = (best.beta, best.phi)
    for _ in range(8):
        changed = False
        for k in range(n_smooth):
            candidates = []
            w = warm
            for g in grid:
                trial = tuple(lam[:k] + [g] + lam[k + 1 :])
                res = evaluate(trial, w)
                w = (res.beta, res.phi)
                candidates.append((res.aic, trial, res))
            candidates.sort(key=lambda c: (c[0], c[1]))
            _, trial, res = candidates[0]
            if list(trial) != lam:
                lam = list(trial)
                changed = True
            warm = (res.beta, res.phi)
        if not changed:
            break
    final = _fit_at_lambda(design, lam, warm, _TOL)
    return lam, final


def _package_model(spec, design, chosen, result) -> AdditiveModel:
    mu = inv_logit(design.X @ result.beta)[design.inverse]
    return AdditiveModel(
        spec=spec,
        coef=result.beta,
        coef_names=tuple(design.coef_names),
        term_index={k: tuple(v) for k, v in design.term_index.items()},
        factor_levels=design.factor_levels,
        references=design.references,
        knot_vector=design.knot_vector,
        smooth_constraints=design.smooth_constraints,
        lambdas={label: float(lam) for label, lam in zip(design.smooth_constraints, chosen)},
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
        observed_sizes=design.observed_sizes,
        pll_history=result.pll_history,
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
        if t.name in protected:
            continue
        out[t.name] = list(model.term_index[t.name])
    for t in spec.smooth_terms:
        labels = [l for l in model.smooth_labels() if l == t.label or l.startswith(t.label + "[")]
        out[t.label] = [j for label in labels for j in model.term_index[label]]
    return out


def backward_eliminate(
    full_spec: ModelSpec,
    observations: np.recarray,
    alpha: float = 0.05,
    lambdas: Sequence[float] | None = None,
):
    """Drop the least significant term with p > alpha, refit, repeat.

    Returns (final model, trace of EliminationStep).  Factors required by a
    retained nested smooth are never dropped before the smooth itself.
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
        model = fit(spec, observations, lambdas=lambdas)
    return model, trace
