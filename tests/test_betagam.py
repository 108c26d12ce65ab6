import dataclasses
import hashlib
import importlib.util
import itertools
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special, stats

from camcurves import ConvergenceError, InputError, betagam, io, observation_table
from camcurves._numeric import inv_logit
from camcurves.betagam import (
    AdditiveModel,
    FactorTerm,
    FitStats,
    ModelSpec,
    SmoothTerm,
    backward_eliminate,
    term_edf,
    wald_p,
)
from camcurves.betagam import (
    _assemble,
    _loglik_rows,
    _null_loglik,
    _penalty,
    _saturated_loglik,
)
from camcurves.design import ARCHITECTURES, DATASETS, TUNINGS, simulate_grid

from conftest import CALIBRATION_SEED, as_table, make_obs, observation_rows

# the benchmark's answers for the calibrated grid, written by bench/run.py
REFERENCE = json.loads((Path(__file__).parents[1] / "bench" / "reference.json").read_text())


def bench_run():
    """bench/run.py as a module, for the benchmark's own inputs."""
    path = Path(__file__).parents[1] / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


SIZES = (10, 20, 50, 150, 500, 1000)


def single_smooth_spec(metric="ACC"):
    return ModelSpec(
        response=metric, parametric_terms=(), smooth_terms=(SmoothTerm(by_factor=None),)
    )


def simulate_rows(rng, n_per_size=40, beta0=1.0, slope=0.25, phi=80.0, metric="ACC"):
    sizes = np.tile(SIZES, n_per_size)
    mu = inv_logit(beta0 + slope * np.log(sizes))
    y = rng.beta(mu * phi, (1 - mu) * phi)
    return observation_rows(y, sizes, metric=metric)


def assert_same(a, b):
    """Assert that `a` and `b` are equal, through dicts, tuples and dataclasses holding arrays."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            assert_same(a[key], b[key])
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif dataclasses.is_dataclass(a):
        for field in dataclasses.fields(a):
            assert_same(getattr(a, field.name), getattr(b, field.name))
    else:
        assert a == b


def squeezed_response(values):
    """The response the fit sees for `values`, under an intercept-only model."""
    model = ModelSpec(response="ACC", parametric_terms=(), smooth_terms=())
    return _assemble(model, observation_rows(values, [10] * len(values))).y


class TestSqueeze:
    def test_boundary_clamps(self):
        np.testing.assert_array_equal(squeezed_response([0.0, 1.0]), [1e-4, 1.0 - 1e-4])

    def test_interior_unchanged(self):
        values = [5e-5, 0.97, 1.0 - 5e-5]
        np.testing.assert_array_equal(squeezed_response(values), values)


def beta_rows(rng, counts, mu, phi):
    """Beta(mu*phi, (1-mu)*phi) draws, counts[r] of them per row r, and the
    rows' sufficient statistics (n, sum of log y, sum of log(1-y)).  Draws
    that round to 0 or 1 are clipped inside, so every log is finite."""
    draws = [rng.beta(m * phi, (1.0 - m) * phi, c) for m, c in zip(mu, counts)]
    draws = [np.clip(y, 1e-12, 1.0 - 1e-12) for y in draws]
    return draws, (
        np.asarray(counts, dtype=float),
        np.array([np.log(y).sum() for y in draws]),
        np.array([np.log1p(-y).sum() for y in draws]),
    )


class TestBetaLoglik:
    """_loglik_rows: the likelihood and the fit's derivatives of it, against scipy and
    each other."""

    COUNTS = (1, 4, 25, 2, 9)

    def random_rows(self, rng):
        eta = rng.normal(0.0, 1.5, len(self.COUNTS))
        phi = math.exp(rng.normal(math.log(30), 0.8))
        _, row_stats = beta_rows(rng, self.COUNTS, inv_logit(eta), phi)
        return eta, phi, row_stats

    def test_uniform_density_is_zero(self):
        y = np.array([0.1, 0.5, 0.9])
        ll, *_ = _loglik_rows(0.5, 2.0, 1.0, np.log(y), np.log1p(-y))  # shapes (1, 1)
        assert ll == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_beta22_at_center(self):
        ll, *_ = _loglik_rows(0.5, 4.0, 1.0, math.log(0.5), math.log(0.5))  # density 6 y (1-y)
        assert ll == pytest.approx(math.log(1.5), abs=1e-12)

    def test_collapsed_rows_match_scipy_logpdf(self):
        rng = np.random.default_rng(41)
        for phi in (0.7, 12.0, 300.0, 5e4):
            mu = rng.uniform(0.02, 0.98, len(self.COUNTS))
            draws, row_stats = beta_rows(rng, self.COUNTS, mu, phi)
            oracle = sum(
                float(stats.beta.logpdf(y, m * phi, (1.0 - m) * phi).sum())
                for y, m in zip(draws, mu)
            )
            ll = _loglik_rows(mu, phi, *row_stats)[0]
            assert ll == pytest.approx(oracle, rel=1e-12, abs=1e-9)

    def test_gradient_matches_finite_differences(self):
        # a row's terms reach n * gammaln(phi) ~ 1e3, so the differences carry
        # a rounding error near 1e-13 / step: abs 1e-6 leaves a wide margin
        rng = np.random.default_rng(42)
        step = 1e-5
        for _ in range(10):
            eta, phi, row_stats = self.random_rows(rng)
            _, u, _, s, _, _ = _loglik_rows(inv_logit(eta), phi, *row_stats)
            for r, row in enumerate(zip(*row_stats)):
                up = _loglik_rows(inv_logit(eta[r] + step), phi, *row)[0]
                down = _loglik_rows(inv_logit(eta[r] - step), phi, *row)[0]
                assert u[r] == pytest.approx((up - down) / (2 * step), rel=1e-6, abs=1e-6)
            d1 = s.sum()
            up = _loglik_rows(inv_logit(eta), phi * math.exp(step), *row_stats)[0]
            down = _loglik_rows(inv_logit(eta), phi * math.exp(-step), *row_stats)[0]
            assert d1 == pytest.approx((up - down) / (2 * step), rel=1e-6, abs=1e-6)

    def test_information_is_the_expected_outer_product_of_the_score(self):
        # a row's score in (beta, log phi) is g (log y - E log y) + h (log(1-y) - E log(1-y)),
        # with g = phi (mu(1-mu) x, mu) and h = phi (-mu(1-mu) x, 1-mu), so E[score score']
        # follows from the Beta log-moments: Var log Y = psi'(a) - psi'(a+b),
        # Var log(1-Y) = psi'(b) - psi'(a+b) and Cov = -psi'(a+b), from scipy
        rng = np.random.default_rng(43)
        design = _assemble(single_smooth_spec(), simulate_rows(rng, n_per_size=2))
        X = design.X
        for _ in range(10):
            rows = dataclasses.replace(design, n=rng.integers(1, 30, X.shape[0]).astype(float))
            beta = rng.normal(0.0, 1.0, X.shape[1])
            phi = math.exp(rng.uniform(math.log(0.5), math.log(1e3)))
            mu = inv_logit(X @ beta)
            cov = -special.polygamma(1, phi)
            var_log_y = special.polygamma(1, mu * phi) + cov
            var_log_1y = special.polygamma(1, (1.0 - mu) * phi) + cov
            g = phi * np.column_stack([(mu * (1.0 - mu))[:, None] * X, mu])
            h = phi * np.column_stack([-(mu * (1.0 - mu))[:, None] * X, 1.0 - mu])
            n = rows.n
            oracle = (
                (g.T * n * var_log_y) @ g
                + (h.T * n * var_log_1y) @ h
                + (g.T * n * cov) @ h
                + (h.T * n * cov) @ g
            )
            _, information = betagam._State(rows, beta, phi).score_information
            np.testing.assert_allclose(information, oracle, rtol=1e-10)

    def test_weight_is_the_variance_of_logit_y(self):
        # Fisher weight in logit(mu) = phi^2 (mu(1-mu))^2 Var[logit Y] per observation
        def logit_y(y):
            return math.log(y) - math.log1p(-y)

        for mu, phi, n in ((0.5, 2.0, 1.0), (0.1, 30.0, 3.0), (0.93, 250.0, 17.0), (0.4, 0.8, 2.0)):
            law = stats.beta(mu * phi, (1.0 - mu) * phi)
            mean = law.expect(logit_y)
            var = law.expect(lambda y: (logit_y(y) - mean) ** 2)
            w = _loglik_rows(mu, phi, n, 0.0, 0.0)[2]
            assert w == pytest.approx(n * phi**2 * (mu * (1.0 - mu)) ** 2 * var, rel=1e-7)


def scipy_loglik(y, eta, phi):
    mu = inv_logit(eta)
    return float(np.sum(stats.beta.logpdf(y, mu * phi, (1.0 - mu) * phi)))


def bounded_max(f):
    """Maximum of f over eta in [-15, 15] by bounded Brent search."""
    res = optimize.minimize_scalar(
        lambda eta: -f(eta), bounds=(-15.0, 15.0), method="bounded", options={"xatol": 1e-10}
    )
    return -res.fun


class TestReferenceLikelihoods:
    PHIS = (2.0, 30.0, 800.0, 1e5)

    @pytest.mark.parametrize("mean", [0.03, 0.5, 0.96])
    def test_null_loglik_matches_bounded_maximisation(self, mean):
        rng = np.random.default_rng(11)
        y = np.clip(rng.beta(mean * 40.0, (1.0 - mean) * 40.0, 300), 1e-4, 1.0 - 1e-4)
        for phi in self.PHIS:
            oracle = bounded_max(lambda eta: scipy_loglik(y, eta, phi))
            assert _null_loglik(y, phi) == pytest.approx(oracle, rel=1e-10, abs=1e-8)

    def test_saturated_loglik_matches_per_row_maximisation(self):
        y = np.array([1e-4, 0.02, 0.31, 0.5, 0.87, 0.999])
        for phi in self.PHIS:
            oracle = sum(bounded_max(lambda eta: scipy_loglik(v, eta, phi)) for v in y)
            assert _saturated_loglik(y, phi) == pytest.approx(oracle, rel=1e-10, abs=1e-8)


class TestPenalizedObjectiveGradient:
    def test_matches_central_differences_at_random_points(self):
        # the fit's ascent direction: X'u - P beta for the coefficients and
        # d1 for log(phi), against differences of the penalized objective
        rng = np.random.default_rng(7)
        obs = simulate_rows(rng, n_per_size=20)
        design = _assemble(single_smooth_spec(), obs)
        row_stats = design.n, design.sum_ylog, design.sum_y1log
        P = _penalty(design, [0.7]).matrix
        p = design.X.shape[1]

        def objective(beta, logphi):
            mu = inv_logit(design.X @ beta)
            loglik = _loglik_rows(mu, math.exp(logphi), *row_stats)[0]
            return loglik - 0.5 * float(beta @ P @ beta)

        step = 1e-6
        for _ in range(10):
            beta = rng.normal(0, 0.4, p)
            logphi = float(rng.normal(math.log(40), 0.4))
            mu = inv_logit(design.X @ beta)
            _, u, _, s, _, _ = _loglik_rows(mu, math.exp(logphi), *row_stats)
            grad = np.append(design.X.T @ u - P @ beta, s.sum())
            fd = np.empty_like(grad)
            for j in range(p):
                e = np.zeros(p)
                e[j] = step
                fd[j] = (objective(beta + e, logphi) - objective(beta - e, logphi)) / (2 * step)
            fd[-1] = (objective(beta, logphi + step) - objective(beta, logphi - step)) / (2 * step)
            rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
            assert rel < 1e-5


class TestCollapsedDesign:
    def test_calibrated_grid_collapses_to_distinct_rows(self, calibrated_observations):
        data = calibrated_observations[calibrated_observations.metric == "ACC"]
        design = _assemble(ModelSpec("ACC"), data)
        y = data.value
        assert design.X.shape[0] == 216
        assert design.n.sum() == len(data) == 7776
        np.testing.assert_array_equal(design.n, np.bincount(design.inverse))
        np.testing.assert_array_equal(design.y, y)
        assert design.sum_ylog.sum() == pytest.approx(np.log(y).sum(), rel=1e-12)
        assert design.sum_y1log.sum() == pytest.approx(np.log1p(-y).sum(), rel=1e-12)
        # each by-level smooth sums to zero over the observations, not the rows
        layout = design.layout
        smooth_columns = [j for s in layout.smooth_constraints for j in layout.term_index[s]]
        column_sums = design.X[design.inverse][:, smooth_columns].sum(axis=0)
        np.testing.assert_allclose(column_sums, 0.0, atol=1e-9)

    def test_the_four_metric_table_assembles_as_its_metric_parse(
        self, calibrated_observations, grid_csv
    ):
        # the grid's table holds four metrics and is filtered to ACC; the ACC
        # parse of its CSV holds only ACC rows and is used as it is given
        full = _assemble(ModelSpec("ACC"), calibrated_observations)
        parsed = _assemble(ModelSpec("ACC"), io.parse_observations(grid_csv, "ACC"))
        for name in ("X", "n", "sum_ylog", "sum_y1log", "y", "inverse"):
            np.testing.assert_array_equal(getattr(parsed, name), getattr(full, name))
        for field in dataclasses.fields(parsed.layout):
            assert_same(getattr(parsed.layout, field.name), getattr(full.layout, field.name))

    def test_distinct_observations_keep_every_row(self):
        rng = np.random.default_rng(12)
        sizes = np.arange(10, 130)
        y = rng.beta(0.8 * 50, 0.2 * 50, sizes.size)
        design = _assemble(single_smooth_spec(), observation_rows(y, sizes))
        assert design.X.shape[0] == sizes.size
        np.testing.assert_array_equal(design.n, 1.0)

    def test_loglik_matches_per_observation_oracle(
        self, calibrated_acc_model, calibrated_observations
    ):
        model = calibrated_acc_model
        data = calibrated_observations[calibrated_observations.metric == "ACC"]
        design = _assemble(model.spec, data)
        eta = (design.X @ model.coef)[design.inverse]
        oracle = scipy_loglik(design.y, eta, model.phi)
        assert model.fit_stats.loglik == pytest.approx(oracle, rel=1e-10)

    def test_prediction_encodes_every_training_row_as_the_fit(
        self, calibrated_acc_model, calibrated_observations
    ):
        model = calibrated_acc_model
        data = calibrated_observations[calibrated_observations.metric == "ACC"]
        design = _assemble(model.spec, data)
        fitted = inv_logit(design.X @ model.coef)
        first = {}
        for i, r in enumerate(design.inverse):
            first.setdefault(r, data[i])
        assert len(first) == design.X.shape[0]
        for r, o in first.items():
            cell = {f: getattr(o, f) for f in model.factor_levels}
            predicted = model.predict_sizes(cell, o.num_tr_images)[0]
            assert predicted == pytest.approx(fitted[r], rel=0, abs=1e-12)

    def test_shuffled_observations_give_the_same_fit(
        self, calibrated_acc_model, calibrated_observations
    ):
        data = calibrated_observations[calibrated_observations.metric == "ACC"]
        data = data[np.random.default_rng(14).permutation(len(data))]
        model = betagam.fit(ModelSpec("ACC"), data)
        assert model.lambdas == calibrated_acc_model.lambdas
        assert model.fit_stats.loglik == pytest.approx(
            calibrated_acc_model.fit_stats.loglik, rel=1e-9
        )


class TestFit:
    def test_constant_response_explains_nothing(self):
        obs = observation_rows([0.97] * 120, np.tile(SIZES, 20))
        model = betagam.fit(single_smooth_spec(), obs)
        assert model.fit_stats.deviance_explained == pytest.approx(0.0, abs=1e-9)

    def test_boundary_response_fits_as_squeezed(self):
        values = np.random.default_rng(2).beta(40.0, 4.0, 60)
        values[[3, 17]], values[[8, 40]] = 0.0, 1.0
        squeezed = np.where(values == 0.0, 1e-4, np.where(values == 1.0, 1.0 - 1e-4, values))
        sizes = np.tile(SIZES, 10)
        at_bounds = betagam.fit(single_smooth_spec(), observation_rows(values, sizes))
        inside = betagam.fit(single_smooth_spec(), observation_rows(squeezed, sizes))
        assert np.array_equal(at_bounds.coef, inside.coef)
        assert at_bounds.phi == inside.phi
        assert at_bounds.fit_stats == inside.fit_stats

    def test_missing_reference_level_named(self):
        obs = as_table([make_obs(0.9, n, tuning="shallow") for n in SIZES] * 3)
        spec = ModelSpec(
            response="ACC",
            parametric_terms=(FactorTerm("tuning", "deep"),),
            smooth_terms=(SmoothTerm(by_factor=None),),
        )
        with pytest.raises(InputError, match="tuning"):
            betagam.fit(spec, obs)

    def test_aliased_factors_rejected(self):
        # architecture perfectly confounded with dataset
        obs = []
        rng = np.random.default_rng(0)
        for dataset, arch in (("AU", "a1"), ("SE", "a2")):
            for n in SIZES:
                for _ in range(4):
                    obs.append(
                        make_obs(rng.uniform(0.7, 0.9), n, dataset=dataset, architecture=arch)
                    )
        spec = ModelSpec(
            response="ACC",
            parametric_terms=(
                FactorTerm("dataset", "AU"),
                FactorTerm("architecture", "a1"),
            ),
            smooth_terms=(),
        )
        with pytest.raises(InputError, match="rank-deficient"):
            betagam.fit(spec, as_table(obs))

    def test_nonconvergence_reported_with_diagnostics(self, monkeypatch):
        rng = np.random.default_rng(1)
        obs = simulate_rows(rng)
        monkeypatch.setattr(betagam, "_MAX_ITER", 1)
        message = r"did not converge in 1 iterations \(last objective change \d"
        with pytest.raises(ConvergenceError, match=message):
            betagam.fit(single_smooth_spec(), obs, lambdas=[1.0])

    def test_non_finite_objective_stops_at_once(self):
        design = _assemble(single_smooth_spec(), simulate_rows(np.random.default_rng(1)))
        design.sum_ylog[0] = np.nan
        penalty = _penalty(design, [1.0])
        start = betagam._State(design, *betagam._initial_values(design, penalty.matrix))
        with pytest.raises(ConvergenceError, match="non-finite objective after 0 iterations"):
            betagam._fit_penalized(start, penalty, betagam._TOL)

    @pytest.mark.parametrize("lam", [1e308, float("inf"), float("nan")])
    def test_non_finite_penalty_rejected_before_fitting(self, monkeypatch, lam):
        def no_iterations(*args, **kwargs):
            raise AssertionError("P-IRLS ran on a non-finite penalty")

        monkeypatch.setattr(betagam, "_fit_penalized", no_iterations)
        obs = simulate_rows(np.random.default_rng(1))
        with pytest.raises(InputError, match=r"smoothing parameters must lie in \[0, 1e\+12\]"):
            betagam.fit(single_smooth_spec(), obs, lambdas=[lam])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(betagam.DEFAULT_LAMBDA_GRID))
    def test_objective_never_decreases_across_iterations(self, seed, lam):
        design = _assemble(single_smooth_spec(), simulate_rows(np.random.default_rng(seed)))
        penalty = _penalty(design, [lam])
        start = betagam._State(design, *betagam._initial_values(design, penalty.matrix))
        _, history, _ = betagam._fit_penalized(start, penalty, betagam._TOL)
        # the ascent test accepts a step that loses at most 1e-12
        assert np.all(np.diff(history) >= -1e-12)

    def test_restart_at_the_optimum_evaluates_the_likelihood_once(
        self, calibrated_observations, calibrated_acc_model, monkeypatch
    ):
        # at its own optimum the next step's predicted gain is below the
        # tolerance, so the fit takes no step and evaluates only its start
        model = calibrated_acc_model
        design = _assemble(model.spec, calibrated_observations)
        penalty = _penalty(design, list(model.lambdas.values()))
        calls = []
        loglik_rows = betagam._loglik_rows
        monkeypatch.setattr(
            betagam, "_loglik_rows", lambda *args: calls.append(1) or loglik_rows(*args)
        )
        start = betagam._State(design, model.coef, model.phi)
        state, history, _ = betagam._fit_penalized(start, penalty, betagam._TOL)
        assert len(history) - 1 == 0
        assert len(calls) == 1
        assert state is start

    def test_refit_is_bit_reproducible(self):
        rng = np.random.default_rng(3)
        obs = simulate_rows(rng)
        m1 = betagam.fit(single_smooth_spec(), obs)
        m2 = betagam.fit(single_smooth_spec(), obs)
        assert np.array_equal(m1.coef, m2.coef)
        assert m1.phi == m2.phi
        assert m1.lambdas == m2.lambdas

    @pytest.mark.parametrize(
        "sizes", [(10, 50, 150), (10, 20, 50, 150), (10, 20, 50, 150, 500)], ids=len
    )
    def test_smooth_has_at_most_one_knot_per_size(self, calibrated_observations, sizes):
        pilot = calibrated_observations[np.isin(calibrated_observations.num_tr_images, sizes)]
        model = betagam.fit(ModelSpec("ACC"), pilot)
        k = min(len(sizes), SmoothTerm.k)
        assert [t.k for t in model.spec.smooth_terms] == [k]
        assert model.knots.size == k
        assert model.fit_stats.deviance_explained > 0.5
        assert io.model_from_dict(io.model_to_dict(model)).spec == model.spec

    def test_sizes_that_share_their_log_count_once_towards_k(self):
        # near 1e15 sizes 1 apart round to one log n, so these 6 sizes give 3 knots
        sizes = np.tile(10**15 + np.array([0, 1, 64, 65, 128, 129]), 10)
        obs = observation_rows(np.random.default_rng(0).beta(56.0, 24.0, sizes.size), sizes)
        model = betagam.fit(single_smooth_spec(), obs, lambdas=[1.0])
        assert model.knots.size == 3 and np.all(np.diff(model.knots) > 0.0)

    def test_each_by_level_block_caps_k_at_its_own_sizes(self, calibrated_observations):
        acc = calibrated_observations[calibrated_observations.metric == "ACC"]
        pilot = acc[(acc.dataset != "AU") | np.isin(acc.num_tr_images, (10, 50, 150))]
        model = betagam.fit(ModelSpec("ACC"), pilot)
        assert [t.k for t in model.spec.smooth_terms] == [3]
        assert model.fit_stats.deviance_explained > 0.5
        two_sizes = acc[(acc.dataset != "SE") | np.isin(acc.num_tr_images, (10, 150))]
        with pytest.raises(InputError, match="needs 3 distinct sizes, got 2 for dataset 'SE'"):
            betagam.fit(ModelSpec("ACC"), two_sizes)

    def test_predictions_invariant_to_observation_order(self):
        rng = np.random.default_rng(4)
        obs = simulate_rows(rng)
        shuffled = obs[rng.permutation(len(obs))]
        m1 = betagam.fit(single_smooth_spec(), obs, lambdas=[1.0])
        m2 = betagam.fit(single_smooth_spec(), shuffled, lambdas=[1.0])
        grid = np.array([10.0, 35.0, 120.0, 800.0])
        np.testing.assert_allclose(
            m1.predict_sizes({}, grid), m2.predict_sizes({}, grid), atol=1e-8
        )

    def test_parametric_truth_recovered_within_three_se(self):
        # no size effect, no smooth signal: coefficients must cover the truth
        truth = {
            "tuning[shallow]": 0.08,
            "dataset[SE]": -0.30,
            "dataset[WI]": -0.50,
            "architecture[dnsNet161]": 0.10,
            "architecture[dnsNet201]": 0.05,
            "architecture[resNet18]": -0.12,
            "architecture[resNet50]": -0.05,
            "architecture[resNet152]": -0.06,
        }
        intercept = 1.2
        datasets = ("AU", "SE", "WI")
        archs = tuple(sorted({"dnsNet121", *{k.split("[")[1][:-1] for k in truth if "arch" in k}}))
        total, covered = 0, 0
        for rep in range(20):
            rng = np.random.default_rng(500 + rep)
            obs = []
            for d in datasets:
                for n in SIZES:
                    for a in archs:
                        for t in ("deep", "shallow"):
                            for g in ("g1", "g2", "g3", "g4"):
                                eta = (
                                    intercept
                                    + truth.get(f"dataset[{d}]", 0.0)
                                    + truth.get(f"architecture[{a}]", 0.0)
                                    + (truth["tuning[shallow]"] if t == "shallow" else 0.0)
                                )
                                mu = inv_logit(eta)
                                obs.append(
                                    make_obs(
                                        rng.beta(mu * 150, (1 - mu) * 150),
                                        n,
                                        dataset=d,
                                        architecture=a,
                                        tuning=t,
                                        augmentation=g,
                                    )
                                )
            model = betagam.fit(ModelSpec("ACC"), as_table(obs), lambdas=[1e10, 1e10, 1e10])
            se = np.sqrt(np.diag(model.covariance))
            for name, value in {**truth, "(intercept)": intercept}.items():
                j = model.coef_names.index(name)
                total += 1
                if abs(model.coef[j] - value) <= 3 * se[j]:
                    covered += 1
        assert covered / total >= 0.99


class TestFitStatistics:
    def test_unknown_level_rejected(self, calibrated_acc_model, calibrated_observations):
        # a level per size: one unknown dataset among 50 training rows
        rows = calibrated_observations[calibrated_observations.metric == "ACC"][:50].tolist()
        rows[7] = (*rows[7][:2], "MARS", *rows[7][3:])
        data = as_table(rows)
        cells = {factor: data[factor] for factor in calibrated_acc_model.factor_levels}
        with pytest.raises(InputError, match="MARS"):
            calibrated_acc_model.predict_sizes(cells, data.num_tr_images)

    def test_deviance_explained_is_one_minus_deviance_ratio(self, calibrated_acc_model):
        rng = np.random.default_rng(13)
        models = [
            calibrated_acc_model,
            betagam.fit(single_smooth_spec(), simulate_rows(rng)),
            betagam.fit(single_smooth_spec("FPR"), simulate_rows(rng, beta0=-4.0, metric="FPR")),
        ]
        for model in models:
            s = model.fit_stats
            assert 0.0 < s.deviance <= s.null_deviance
            assert s.deviance_explained == 1.0 - s.deviance / s.null_deviance


def hand_built_model(coef_value=0.050, se=0.009):
    spec = ModelSpec(
        response="ACC",
        parametric_terms=(FactorTerm("tuning", "deep"),),
        smooth_terms=(),
    )
    return AdditiveModel(
        spec=spec,
        coef=np.array([3.322, coef_value]),
        coef_names=("(intercept)", "tuning[shallow]"),
        factor_levels={"tuning": ("deep", "shallow")},
        knots=None,
        smooth_constraints={},
        lambdas={},
        phi=50.0,
        covariance=np.diag([0.016**2, se**2]),
        edf_by_coef=np.array([1.0, 1.0]),
        fit_stats=FitStats(0, 0, 0, 0, 0, 0, 2, 1),
        observed_sizes=(10, 1000),
    )


KNOTS_MESSAGE = "model knots must be 3 or more strictly increasing numbers"


def fitted_smooth_model():
    return betagam.fit(single_smooth_spec(), simulate_rows(np.random.default_rng(4)), lambdas=[1.0])


@pytest.mark.parametrize(
    "build, field, value, message",
    [
        (fitted_smooth_model, "smooth_constraints", {"s(num_tr_images)": np.eye(5, 3)},
         "model has no 5 x 4 smooth constraint for 's(num_tr_images)'"),
        (hand_built_model, "coef", np.array([3.322]),
         "model coef has shape (1,), coef_names needs (2,)"),
        (hand_built_model, "factor_levels", {"tuning": ("deep", "shallow", "medium")},
         "model has 2 coef_names, its terms need 3"),
        (hand_built_model, "factor_levels", {"tuning": ("medium", "shallow")},
         "reference level 'deep' of factor 'tuning' is not among its levels"),
        (fitted_smooth_model, "lambdas", {"s(x)": 1.0},
         "model lambdas name ['s(x)'], not its blocks ['s(num_tr_images)']"),
        (fitted_smooth_model, "knots", np.array([2.0, 7.0]), KNOTS_MESSAGE),
        (fitted_smooth_model, "knots", np.array([7.0, 6.0, 4.0, 3.0, 2.0]), KNOTS_MESSAGE),
        (fitted_smooth_model, "knots", np.array([[2.0, 3.0, 4.0, 6.0, 7.0]]), KNOTS_MESSAGE),
    ],
    ids=["constraint-shape", "coef-length", "coef-names-count", "reference-not-a-level",
         "lambdas-name-no-block", "two-knots", "reversed-knots", "nested-knots"],
)
def test_inconsistent_gam_fails_where_it_is_built(build, field, value, message):
    # the same fault fails the constructor and the loader with the same message
    model = build()
    with pytest.raises(InputError) as built:
        dataclasses.replace(model, **{field: value})
    document = io.model_to_dict(model)
    document[field] = json.loads(json.dumps(value, default=np.ndarray.tolist))
    with pytest.raises(InputError) as loaded:
        io.model_from_dict(document)
    assert str(built.value) == str(loaded.value) == message



@st.composite
def random_layouts(draw):
    """(spec, observations, blocks): 1-3 factors of 1-4 levels, each with a drawn
    reference, crossed with 6 sizes, and a smooth with or without a by-factor."""
    names = draw(st.permutations(["tuning", "dataset", "architecture"]))[: draw(st.integers(1, 3))]
    levels = {name: [f"L{i}" for i in range(draw(st.integers(1, 4)))] for name in names}
    terms = tuple(FactorTerm(name, draw(st.sampled_from(levels[name]))) for name in names)
    by = draw(st.sampled_from([None, *names]))
    smooth = SmoothTerm(by_factor=by, k=draw(st.integers(3, 5)))
    cells = list(itertools.product(*levels.values(), SIZES))
    values = np.random.default_rng(len(cells)).beta(40.0, 10.0, len(cells))
    observations = as_table(
        [make_obs(v, cell[-1], **dict(zip(names, cell))) for v, cell in zip(values, cells)]
    )
    spec = ModelSpec("ACC", parametric_terms=terms, smooth_terms=(smooth,))
    return spec, observations, len(levels[by]) if by else 1


@settings(max_examples=25, deadline=None)
@given(random_layouts())
def test_a_layout_derives_its_term_index_and_round_trips(layout):
    spec, observations, blocks = layout
    model = betagam.fit(spec, observations, lambdas=[1.0] * blocks)
    # the terms' columns follow one another in coef_names order, each named for its term
    index = model.term_index
    assert list(itertools.chain(*index.values())) == list(range(len(model.coef_names)))
    assert all(model.coef_names[j].startswith(label) for label, idx in index.items() for j in idx)
    loaded = io.model_from_dict(json.loads(io.canonical_json(io.model_to_dict(model))))
    assert loaded.term_index == index
    cells = {t.name: observations[t.name] for t in spec.parametric_terms}
    sizes = observations.num_tr_images
    assert np.array_equal(loaded.predict_sizes(cells, sizes), model.predict_sizes(cells, sizes))


class TestPredict:
    def test_reference_cell_is_inverse_logit_of_intercept(self):
        model = hand_built_model()
        value = model.predict_sizes({"tuning": "deep"}, [100])[0]
        assert value == pytest.approx(inv_logit(3.322), abs=1e-12)
        assert value == pytest.approx(0.965, abs=5e-4)

    def test_zero_linear_predictor_gives_half(self):
        model = hand_built_model()
        object.__setattr__(model, "coef", np.array([0.0, 0.0]))
        assert model.predict_sizes({"tuning": "deep"}, [10])[0] == 0.5

    def test_positive_offset_strictly_increases_prediction(self):
        model = hand_built_model(coef_value=0.050)
        deep = model.predict_sizes({"tuning": "deep"}, [10])[0]
        shallow = model.predict_sizes({"tuning": "shallow"}, [10])[0]
        assert shallow > deep

    def test_unknown_level_rejected(self):
        with pytest.raises(InputError, match="unknown level 'medium'"):
            hand_built_model().predict_sizes({"tuning": "medium"}, [10])

    def test_nonpositive_size_rejected(self):
        with pytest.raises(InputError, match="must be positive"):
            hand_built_model().predict_sizes({"tuning": "deep"}, [10, 0])


class TestTermEdf:
    def test_full_shrinkage_leaves_the_unpenalized_line(self):
        # the curvature penalty cannot remove the centered-linear direction,
        # so EDF tends to 1 (not 0) as lambda grows
        rng = np.random.default_rng(5)
        obs = simulate_rows(rng)
        model = betagam.fit(single_smooth_spec(), obs, lambdas=[1e12])
        assert term_edf(model)["s(num_tr_images)"] == pytest.approx(1.0, abs=1e-3)

    def test_no_shrinkage_gives_full_rank(self):
        rng = np.random.default_rng(6)
        obs = simulate_rows(rng)
        model = betagam.fit(single_smooth_spec(), obs, lambdas=[0.0])
        assert term_edf(model)["s(num_tr_images)"] == pytest.approx(4.0, abs=1e-9)

    def test_edf_monotone_in_lambda(self):
        rng = np.random.default_rng(7)
        obs = simulate_rows(rng)
        edfs = []
        for lam in 10.0 ** np.arange(-4, 7):
            model = betagam.fit(single_smooth_spec(), obs, lambdas=[lam])
            edfs.append(term_edf(model)["s(num_tr_images)"])
        assert all(b <= a + 1e-9 for a, b in zip(edfs, edfs[1:]))

    def test_calibrated_fit_edf_band(self, calibrated_acc_model):
        edf = term_edf(calibrated_acc_model)
        smooths = {k: v for k, v in edf.items() if k.startswith("s(")}
        assert len(smooths) == 3
        for value in smooths.values():
            assert 3.5 <= value <= 4.0


class TestWaldP:
    def test_z_test_example(self):
        p = wald_p(hand_built_model(0.050, 0.009), "tuning")
        z = 0.050 / 0.009
        assert p == pytest.approx(2 * stats.norm.sf(z), rel=1e-12)
        assert 1e-8 < p < 1e-7

    def test_zero_coefficient_gives_p_one(self):
        assert wald_p(hand_built_model(0.0, 0.009), "tuning") == 1.0

    def test_unknown_term_rejected(self):
        with pytest.raises(InputError):
            wald_p(hand_built_model(), "seasonality")

    def test_each_term_elimination_tests_has_its_wald_p(self, calibrated_acc_model):
        # the by-dataset smooth is tested over all of its blocks' columns
        model = calibrated_acc_model
        candidates = betagam._candidate_terms(model.spec, model)
        assert len(candidates["s(num_tr_images):dataset"]) == 12
        for term, idx in candidates.items():
            assert wald_p(model, term) == betagam._joint_term_p(model, idx)

    def test_null_covariate_p_values_are_uniform(self):
        # clean Beta data with a balanced binary covariate that has no effect
        spec = ModelSpec(
            response="ACC",
            parametric_terms=(FactorTerm("tuning", "deep"),),
            smooth_terms=(),
        )
        pvals = []
        for rep in range(200):
            rng = np.random.default_rng(3000 + rep)
            n = 400
            y = rng.beta(0.8 * 60, 0.2 * 60, n)
            obs = as_table(
                [
                    make_obs(v, 100, tuning=("deep" if i % 2 == 0 else "shallow"))
                    for i, v in enumerate(y)
                ]
            )
            model = betagam.fit(spec, obs)
            pvals.append(wald_p(model, "tuning"))
        assert stats.kstest(pvals, "uniform").pvalue > 0.01


class TestBackwardElimination:
    def test_strong_terms_all_retained(self):
        rng = np.random.default_rng(8)
        obs = []
        for d, off in (("AU", 0.0), ("SE", -0.6)):
            for t, toff in (("deep", 0.0), ("shallow", 0.4)):
                for n in SIZES:
                    for _ in range(15):
                        mu = inv_logit(1.0 + off + toff + 0.3 * np.log(n) - 1.0)
                        obs.append(
                            make_obs(rng.beta(mu * 90, (1 - mu) * 90), n, dataset=d, tuning=t)
                        )
        spec = ModelSpec(
            response="ACC",
            parametric_terms=(FactorTerm("tuning", "deep"), FactorTerm("dataset", "AU")),
            smooth_terms=(SmoothTerm(by_factor="dataset"),),
        )
        model, trace = backward_eliminate(spec, as_table(obs))
        assert trace == []
        assert model.spec == spec

    def test_pure_noise_reduces_to_intercept(self):
        rng = np.random.default_rng(9)
        n = 480
        sizes = np.tile(SIZES, n // 6)
        tunings = np.tile(["deep", "shallow"], n // 2)
        obs = as_table(
            [
                make_obs(v, s, metric="FPR", tuning=t)
                for v, s, t in zip(rng.beta(0.05 * 300, 0.95 * 300, n), sizes, tunings)
            ]
        )
        spec = ModelSpec(
            response="FPR",
            parametric_terms=(FactorTerm("tuning", "deep"),),
            smooth_terms=(SmoothTerm(by_factor=None),),
        )
        model, trace = backward_eliminate(spec, obs)
        assert list(model.term_index) == ["(intercept)"]
        assert {step.dropped for step in trace} == {"tuning", "s(num_tr_images)"}

    def test_fixed_lambdas_leave_with_their_smooth(self):
        # pure noise over two datasets: with the smooth's two blocks at fixed
        # lambdas, elimination drops the smooth and then its by-factor
        rng = np.random.default_rng(10)
        n = 480
        sizes, datasets = np.tile(SIZES, n // 6), np.repeat(["AU", "SE"], n // 2)
        values = rng.beta(0.05 * 300, 0.95 * 300, n)
        obs = as_table(
            [make_obs(v, s, metric="FPR", dataset=d) for v, s, d in zip(values, sizes, datasets)]
        )
        spec = ModelSpec(
            response="FPR",
            parametric_terms=(FactorTerm("dataset", "AU"),),
            smooth_terms=(SmoothTerm(by_factor="dataset"),),
        )
        model, trace = backward_eliminate(spec, obs, lambdas=[1.0, 1.0])
        assert [step.dropped for step in trace] == ["s(num_tr_images):dataset", "dataset"]
        assert list(model.term_index) == ["(intercept)"]
        assert model.lambdas == {}

    def test_by_factor_protected_while_smooth_retained(self, calibrated_observations):
        # the dataset factor backs the nested smooths; even if its own p were
        # large it must not be dropped before the smooth term
        data = calibrated_observations[calibrated_observations.metric == "ACC"]
        model, trace = backward_eliminate(ModelSpec("ACC"), data)
        assert "dataset" in model.term_index
        assert all(step.dropped != "dataset" for step in trace)

    def test_bad_alpha_rejected(self):
        with pytest.raises(InputError):
            backward_eliminate(ModelSpec("ACC"), observation_rows([0.5], [10]), alpha=1.5)


@pytest.fixture(scope="module")
def calibrated_fpr_elimination(calibrated_observations):
    data = calibrated_observations[calibrated_observations.metric == "FPR"]
    return backward_eliminate(ModelSpec("FPR"), data)


@pytest.fixture(scope="module")
def calibrated_acc_fixed_lambdas(calibrated_observations):
    return betagam.fit(ModelSpec("ACC"), calibrated_observations, lambdas=[1e-4, 1e12, 1e12])


class TestFixedLambdas:
    def test_each_lambda_goes_to_its_block(self, calibrated_acc_fixed_lambdas):
        # the blocks are AU, SE and WI in coefficient order; only AU is left free
        model = calibrated_acc_fixed_lambdas
        labels = [f"s(num_tr_images):dataset[{level}]" for level in ("AU", "SE", "WI")]
        assert model.lambdas == dict(zip(labels, [1e-4, 1e12, 1e12]))
        edf = term_edf(model)
        assert edf[labels[0]] > 3.0
        assert [edf[label] for label in labels[1:]] == pytest.approx([1.0, 1.0], abs=1e-3)

    def test_a_penalty_of_1e12_converges_on_its_predicted_gain(
        self, calibrated_observations, monkeypatch
    ):
        # at lambda 1e12, beta'P beta cancels terms near 1e13 down to a value near
        # 0, and read as a negative number its rounding noise swamped every step
        # the line search probed; as a sum of squares the penalty is not
        # negative, and the fit runs until the gain it predicts is below _TOL
        penalties, gains = [], []
        value, fit_penalized = betagam._Penalty.value, betagam._fit_penalized

        def recorded_value(penalty, beta):
            penalties.append(value(penalty, beta))
            return penalties[-1]

        def recorded_fit(start, penalty, tol):
            state, history, (grad, step) = fit_penalized(start, penalty, tol)
            gains.append(0.5 * float(grad @ step))
            return state, history, (grad, step)

        monkeypatch.setattr(betagam._Penalty, "value", recorded_value)
        monkeypatch.setattr(betagam, "_fit_penalized", recorded_fit)
        betagam.fit(ModelSpec("ACC"), calibrated_observations, lambdas=[1e-4, 1e12, 1e12])
        assert penalties and min(penalties) >= 0.0
        assert len(gains) == 1 and gains[0] < betagam._TOL

    def test_an_extreme_ladder_at_the_largest_lambda_has_a_finite_penalty(self):
        # sizes 64 apart near 1e15 put the knots a few ulps apart in log n, and the
        # penalty's entries grow like 1/h^3 in the knot gap h; even so lambda * S
        # stays far inside the float range at the largest lambda a fit takes
        sizes = np.tile(10**15 + np.array([0, 64, 128, 192]), 20)
        obs = observation_rows(np.random.default_rng(0).beta(56.0, 24.0, sizes.size), sizes)
        lam = betagam._MAX_FIXED_LAMBDA
        design = _assemble(single_smooth_spec(), obs)
        knots = design.layout.knots
        assert np.all(np.diff(knots) > 0.0) and np.all(np.diff(knots) < 20 * np.spacing(knots[0]))
        assert np.all(np.isfinite(_penalty(design, [lam]).matrix))
        model = betagam.fit(single_smooth_spec(), obs, lambdas=[lam])
        assert model.lambdas == {"s(num_tr_images)": lam}
        assert np.all(np.isfinite(model.coef)) and math.isfinite(model.fit_stats.loglik)


class TestReferenceAnswers:
    """The calibrated fits give the benchmark's reference answers."""

    answers = REFERENCE["workloads"]["grid_fit"]

    def test_reference_seed_is_the_calibration_seed(self):
        assert REFERENCE["seed"] == CALIBRATION_SEED

    def test_acc_lambdas_and_loglik(self, calibrated_acc_model):
        expected = self.answers["fit-gam --observations grid.csv --metric ACC --out acc.json"]
        assert calibrated_acc_model.lambdas == expected["lambdas"]
        assert calibrated_acc_model.fit_stats.loglik == pytest.approx(expected["loglik"], rel=1e-9)

    def test_fpr_elimination_drops_the_reference_terms(self, calibrated_fpr_elimination):
        expected = self.answers[
            "fit-gam --observations grid.csv --metric FPR --out fpr.json --eliminate"
        ]
        model, trace = calibrated_fpr_elimination
        assert [step.dropped for step in trace] == expected["dropped"]
        assert model.lambdas == expected["lambdas"]

    # the lambda the AIC search chooses for each block (AU, SE, WI) on the grids
    # of three more seeds, as indices into DEFAULT_LAMBDA_GRID (index 8 is 1.0)
    CHOSEN = {
        1: {"ACC": (9, 8, 9), "PRC": (12, 10, 8), "TPR": (13, 10, 9), "FPR": (12, 9, 10)},
        2: {"ACC": (9, 8, 9), "PRC": (12, 10, 9), "TPR": (12, 10, 9), "FPR": (12, 9, 9)},
        3: {"ACC": (9, 8, 9), "PRC": (12, 10, 9), "TPR": (13, 9, 9), "FPR": (12, 9, 9)},
    }

    @pytest.mark.parametrize("seed", sorted(CHOSEN))
    def test_chosen_lambdas_are_pinned(self, seed):
        observations = simulate_grid(seed)
        for metric, indices in self.CHOSEN[seed].items():
            model = betagam.fit(ModelSpec(metric), observations)
            expected = [betagam.DEFAULT_LAMBDA_GRID[i] for i in indices]
            assert model.lambdas == dict(zip(model.lambdas, expected)), metric

    def test_model_json_bytes_are_pinned(
        self, calibrated_acc_model, calibrated_fpr_elimination, calibrated_acc_fixed_lambdas
    ):
        # the sha256 of the JSON `fit-gam --out` writes; a change that claims the
        # same fit must leave every byte of it, not only lambda and the loglik
        models = (calibrated_acc_model, calibrated_fpr_elimination[0], calibrated_acc_fixed_lambdas)
        digests = [
            hashlib.sha256(io.canonical_json(io.model_to_dict(model)).encode()).hexdigest()
            for model in models
        ]
        assert digests == [
            "73e71a668bcb1a144ab949037dc45b1b3773b71a349353156df8369f67a70756",
            "768fba1efc5f631630a029b433a31f990cbea9f1124994b6099ba756db395b1d",
            "e476fcca73459b3405949257b556fd0f9a2601f70e1b58bde65f4b5d6586bf5f",
        ]


class TestSearchCost:
    """Deterministic counters of the lambda search: what it evaluates and holds."""

    def test_each_state_is_evaluated_once(self, calibrated_observations, monkeypatch):
        # a state carries its likelihood and special functions across steps not
        # taken, into its final covariance and into the next warm-started fit; a
        # repeat is a gammaln_psi call on an array argument it was called on before.
        # One joint step per iteration, and no step once the predicted gain is
        # below the tolerance, keep the likelihood evaluations (_loglik_rows calls)
        # and the X'WX builds (score_information evaluations) of the 102 inner fits
        # near two per fit.  Each state makes one gammaln_psi pass on mu*phi,
        # (1-mu)*phi and phi stacked, so the array passes stay near one per
        # likelihood evaluation, and none is made on a scalar
        ll_calls, builds, array_calls, scalar_calls, seen = [], [], [], [], set()
        loglik_rows, gammaln_psi = betagam._loglik_rows, betagam.gammaln_psi
        score_information = betagam._State.score_information

        def counted_loglik_rows(*args):
            ll_calls.append(1)
            return loglik_rows(*args)

        def counted_score_information(state):
            if "score_information" not in vars(state):
                builds.append(1)
            return score_information.__get__(state)

        def counted_gammaln_psi(x):
            if np.ndim(x):
                digest = hashlib.sha256(np.ascontiguousarray(x).tobytes()).digest()
                array_calls.append(digest in seen)  # True for a repeat
                seen.add(digest)
            else:
                scalar_calls.append(x)
            return gammaln_psi(x)

        monkeypatch.setattr(betagam, "_loglik_rows", counted_loglik_rows)
        counted = property(counted_score_information)
        monkeypatch.setattr(betagam._State, "score_information", counted)
        monkeypatch.setattr(betagam, "gammaln_psi", counted_gammaln_psi)
        betagam.fit(ModelSpec("ACC"), calibrated_observations)
        assert len(ll_calls) <= 200
        assert len(builds) <= 200
        assert sum(array_calls) <= 20
        assert len(array_calls) <= 200
        assert scalar_calls == []

    @pytest.mark.parametrize("design_of", ["grid", "distinct-fit-csv", "one-smooth", "no-smooth"])
    def test_information_from_parts_is_the_dense_product(
        self, calibrated_observations, tmp_path, design_of
    ):
        # X'WX is summed a by-factor level at a time, on the rows of the level
        # and the columns not 0 there; it is the product over every row and column
        if design_of == "distinct-fit-csv":
            path = tmp_path / "distinct.csv"
            bench_run().write_distinct_csv(path, CALIBRATION_SEED)
            design = _assemble(ModelSpec("ACC"), io.parse_observations(path))
            assert design.X.shape[0] == 7776
        else:
            spec = {
                "grid": ModelSpec("ACC"),
                "one-smooth": single_smooth_spec(),
                "no-smooth": ModelSpec("ACC", smooth_terms=()),
            }[design_of]
            design = _assemble(spec, calibrated_observations)
        X = design.X
        rows = [np.arange(X.shape[0])[part_rows] for part_rows, _, _ in design.parts]
        assert np.array_equal(np.concatenate(rows), np.arange(X.shape[0]))
        assert len(rows) == (3 if design_of in ("grid", "distinct-fit-csv") else 1)
        rng = np.random.default_rng(5)
        for _ in range(3):
            beta = rng.normal(0.0, 0.3, X.shape[1])
            state = betagam._State(design, beta, float(rng.uniform(5.0, 500.0)))
            w = state.terms[2]
            _, information = state.score_information
            np.testing.assert_allclose(information[:-1, :-1], (X.T * w) @ X, rtol=1e-12)

    @pytest.mark.parametrize(
        "spec, screened",
        [
            (ModelSpec("ACC"), 101),
            (single_smooth_spec(), 21),
            (ModelSpec("ACC", smooth_terms=()), 0),
        ],
        ids=["three-smooths", "one-smooth", "no-smooth"],
    )
    def test_search_fits_each_lambda_once(
        self, calibrated_observations, monkeypatch, spec, screened
    ):
        # the search screens the start and each lambda tuple along one coordinate
        # at a time, and stops once every coordinate is settled at the chosen
        # lambdas, so it screens no tuple twice; one fit at the final tolerance follows
        fits = []
        fit_at_lambda = betagam._fit_at_lambda

        def counted_fit_at_lambda(design, lambdas, warm, tol):
            fits.append((tuple(lambdas), tol))
            return fit_at_lambda(design, lambdas, warm, tol)

        monkeypatch.setattr(betagam, "_fit_at_lambda", counted_fit_at_lambda)
        model = betagam.fit(spec, calibrated_observations)
        screen = [lam for lam, tol in fits if tol == betagam._SCREEN_TOL]
        final = [lam for lam, tol in fits if tol == betagam._TOL]
        assert len(screen) == screened
        assert len(set(screen)) == screened
        assert final == [tuple(model.lambdas.values())]
        assert len(fits) == screened + 1

    def test_blocks_are_built_once_per_design(self, calibrated_observations, monkeypatch):
        # a block computes its penalty from penalty_matrix on first use; the 102
        # inner fits of the search read the design's blocks, so the search calls
        # it no more often than one fit at fixed lambdas
        calls = []
        penalty_matrix = betagam.penalty_matrix

        def counted_penalty_matrix(*args):
            calls.append(1)
            return penalty_matrix(*args)

        monkeypatch.setattr(betagam, "penalty_matrix", counted_penalty_matrix)
        betagam.fit(ModelSpec("ACC"), calibrated_observations, lambdas=[1.0, 1.0, 1.0])
        fixed = len(calls)
        betagam.fit(ModelSpec("ACC"), calibrated_observations)
        assert 0 < len(calls) - fixed <= fixed

    def test_assembly_evaluates_the_basis_once(self, calibrated_observations, monkeypatch):
        # the basis the centring constraints are computed on is the one encoded,
        # and the design rows are those that rows() gives each observation
        calls = []
        basis_rows = betagam.basis_rows
        monkeypatch.setattr(
            betagam, "basis_rows", lambda *args: calls.append(1) or basis_rows(*args)
        )
        design = _assemble(ModelSpec("ACC"), calibrated_observations)
        assert len(calls) == 1
        acc = calibrated_observations[calibrated_observations.metric == "ACC"]
        factors = {name: acc[name] for name in design.layout.factor_levels}
        X = design.layout.rows(factors, acc.num_tr_images)
        assert np.array_equal(X, design.X[design.inverse])

    def test_predictions_reuse_the_layouts_blocks(self, calibrated_acc_model, monkeypatch):
        # a layout builds and checks its blocks once, when it is built
        model = io.model_from_dict(io.model_to_dict(calibrated_acc_model))
        calls = []
        smooth_blocks = betagam._smooth_blocks
        monkeypatch.setattr(
            betagam, "_smooth_blocks", lambda *args: calls.append(1) or smooth_blocks(*args)
        )
        cell = {"dataset": "AU", "tuning": "deep", "architecture": "dnsNet121"}
        for sizes in ([10], [10, 100, 1000], np.arange(1, 2001)):
            model.predict_sizes(cell, sizes)
        assert calls == []
        assert model.blocks is model.blocks

    def test_fit_on_distinct_rows_keeps_its_traced_peak_bounded(self):
        # 7,776 rows, each with its own size in its (dataset, architecture,
        # tuning) cell, so no design row repeats; the fit holds a few arrays of
        # 7,776 at once, and a cache of such arrays per lambda tried would not fit
        rng = np.random.default_rng(20260811)
        cells = list(itertools.product(DATASETS, ARCHITECTURES, TUNINGS))
        per_cell = 7776 // len(cells)
        sizes = np.concatenate(
            [rng.choice(np.arange(10, 1001), per_cell, replace=False) for _ in cells]
        )
        levels = np.repeat(np.array(cells), per_cell, axis=0)
        mu = inv_logit(1.2 + 0.4 * np.log(sizes))
        table = observation_table(
            {
                "metric": ["ACC"] * sizes.size,
                "value": rng.beta(250.0 * mu, 250.0 * (1.0 - mu)),
                "dataset": levels[:, 0],
                "class": ["c0"] * sizes.size,
                "num_tr_images": sizes,
                "architecture": levels[:, 1],
                "tuning": levels[:, 2],
                "augmentation": ["none"] * sizes.size,
            }
        )
        tracemalloc.start()
        try:
            model = betagam.fit(ModelSpec("ACC"), table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.fit_stats.n_obs == sizes.size
        assert peak < 6e6
