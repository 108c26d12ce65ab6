import math

import numpy as np
import pytest
from scipy import optimize, stats

from camcurves import ConvergenceError, InputError, betagam
from camcurves._numeric import inv_logit
from camcurves.betagam import (
    AdditiveModel,
    FactorTerm,
    FitStats,
    ModelSpec,
    SmoothTerm,
    backward_eliminate,
    beta_loglik,
    default_spec,
    penalized_loglik,
    squeeze,
    term_edf,
    wald_p,
)
from camcurves.betagam import _assemble, _null_loglik, _penalty_matrix, _saturated_loglik

from conftest import as_table, make_obs, observation_rows

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


class TestSqueeze:
    def test_boundary_clamps(self):
        assert squeeze(0.0, 1e-4) == 1e-4
        assert squeeze(1.0, 1e-4) == 1.0 - 1e-4

    def test_interior_unchanged(self):
        assert squeeze(0.97, 1e-4) == 0.97

    def test_eps_out_of_range_rejected(self):
        for eps in (0.0, 0.5, -0.1):
            with pytest.raises(InputError):
                squeeze(0.5, eps)

    def test_vectorized(self):
        out = squeeze(np.array([0.0, 0.5, 1.0]), 0.01)
        np.testing.assert_allclose(out, [0.01, 0.5, 0.99])


class TestBetaLoglik:
    def test_uniform_density_is_zero(self):
        for y in (0.1, 0.5, 0.9):
            ll, *_ = beta_loglik(y, 0.5, 2.0)  # shapes (1, 1)
            assert ll == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_beta22_at_center(self):
        ll, *_ = beta_loglik(0.5, 0.5, 4.0)  # shapes (2, 2); density 6 y (1-y)
        assert ll == pytest.approx(math.log(1.5), abs=1e-12)

    def test_boundary_rejected(self):
        with pytest.raises(InputError):
            beta_loglik(0.0, 0.5, 2.0)
        with pytest.raises(InputError):
            beta_loglik(0.5, 1.0, 2.0)
        with pytest.raises(InputError):
            beta_loglik(0.5, 0.5, 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        step = 1e-6
        for _ in range(10):
            y = rng.uniform(0.05, 0.95)
            eta = rng.normal(0, 1.5)
            logphi = rng.normal(math.log(30), 0.5)
            mu, phi = inv_logit(eta), math.exp(logphi)
            _, d_eta, d_logphi = beta_loglik(y, mu, phi)
            up = beta_loglik(y, inv_logit(eta + step), phi)[0]
            down = beta_loglik(y, inv_logit(eta - step), phi)[0]
            assert d_eta == pytest.approx((up - down) / (2 * step), rel=1e-6, abs=1e-9)
            up = beta_loglik(y, mu, math.exp(logphi + step))[0]
            down = beta_loglik(y, mu, math.exp(logphi - step))[0]
            assert d_logphi == pytest.approx((up - down) / (2 * step), rel=1e-6, abs=1e-9)


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
        y = squeeze(rng.beta(mean * 40.0, (1.0 - mean) * 40.0, 300))
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
        rng = np.random.default_rng(7)
        obs = simulate_rows(rng, n_per_size=20)
        design = _assemble(single_smooth_spec(), obs)
        P = _penalty_matrix(design, [0.7])
        X = design.X[design.inverse]  # one model-matrix row per observation
        p = X.shape[1]
        step = 1e-6
        for _ in range(10):
            beta = rng.normal(0, 0.4, p)
            logphi = float(rng.normal(math.log(40), 0.4))
            _, grad = penalized_loglik(beta, logphi, X, design.y, P)
            fd = np.empty_like(grad)
            for j in range(p):
                e = np.zeros(p)
                e[j] = step
                fd[j] = (
                    penalized_loglik(beta + e, logphi, X, design.y, P)[0]
                    - penalized_loglik(beta - e, logphi, X, design.y, P)[0]
                ) / (2 * step)
            fd[-1] = (
                penalized_loglik(beta, logphi + step, X, design.y, P)[0]
                - penalized_loglik(beta, logphi - step, X, design.y, P)[0]
            ) / (2 * step)
            rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
            assert rel < 1e-5


class TestCollapsedDesign:
    def test_calibrated_grid_collapses_to_distinct_rows(self, calibrated_observations):
        data = calibrated_observations[calibrated_observations.metric == "ACC"]
        design = _assemble(default_spec("ACC"), data)
        y = data.value
        assert design.X.shape[0] == 216
        assert design.n.sum() == len(data) == 7776
        np.testing.assert_array_equal(design.n, np.bincount(design.inverse))
        np.testing.assert_array_equal(design.y, y)
        assert design.sum_ylog.sum() == pytest.approx(np.log(y).sum(), rel=1e-12)
        assert design.sum_y1log.sum() == pytest.approx(np.log1p(-y).sum(), rel=1e-12)
        # each by-level smooth sums to zero over the observations, not the rows
        smooth_columns = [j for s in design.smooth_constraints for j in design.term_index[s]]
        column_sums = design.X[design.inverse][:, smooth_columns].sum(axis=0)
        np.testing.assert_allclose(column_sums, 0.0, atol=1e-9)

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
        mu = inv_logit(design.X @ model.coef)[design.inverse]
        ll, _, _ = beta_loglik(design.y, mu, model.phi)
        assert model.fit_stats.loglik == pytest.approx(float(np.sum(ll)), rel=1e-10)

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
        model = betagam.fit(default_spec("ACC"), data)
        assert model.lambdas == calibrated_acc_model.lambdas
        assert model.fit_stats.loglik == pytest.approx(
            calibrated_acc_model.fit_stats.loglik, rel=1e-9
        )


class TestFit:
    def test_constant_response_explains_nothing(self):
        obs = observation_rows([0.97] * 120, np.tile(SIZES, 20))
        model = betagam.fit(single_smooth_spec(), obs)
        assert model.fit_stats.deviance_explained == pytest.approx(0.0, abs=1e-9)

    def test_boundary_response_rejected(self):
        obs = observation_rows([0.0, 0.5, 0.7, 0.9, 0.95, 0.99], SIZES)
        with pytest.raises(InputError, match="squeeze"):
            betagam.fit(single_smooth_spec(), obs)

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
        with pytest.raises(ConvergenceError) as err:
            betagam.fit(single_smooth_spec(), obs, lambdas=[1.0])
        assert err.value.iterations == 1
        assert err.value.last_change is not None

    def test_non_finite_objective_stops_at_once(self):
        design = _assemble(single_smooth_spec(), simulate_rows(np.random.default_rng(1)))
        design.sum_ylog[0] = np.nan
        P = _penalty_matrix(design, [1.0])
        beta0, phi0 = betagam._initial_values(design, P)
        with pytest.raises(ConvergenceError, match="non-finite objective") as err:
            betagam._fit_penalized(design, P, beta0, phi0, betagam._TOL)
        assert err.value.iterations == 0

    @pytest.mark.parametrize("lam", [1e308, float("inf"), float("nan")])
    def test_non_finite_penalty_rejected_before_fitting(self, monkeypatch, lam):
        def no_iterations(*args, **kwargs):
            raise AssertionError("P-IRLS ran on a non-finite penalty")

        monkeypatch.setattr(betagam, "_fit_penalized", no_iterations)
        obs = simulate_rows(np.random.default_rng(1))
        with pytest.raises(InputError, match="non-finite penalty"):
            betagam.fit(single_smooth_spec(), obs, lambdas=[lam])

    def test_objective_never_decreases_across_iterations(self):
        rng = np.random.default_rng(2)
        obs = simulate_rows(rng)
        model = betagam.fit(single_smooth_spec(), obs, lambdas=[0.5])
        history = np.array(model.pll_history)
        assert np.all(np.diff(history) >= -1e-9)

    def test_refit_is_bit_reproducible(self):
        rng = np.random.default_rng(3)
        obs = simulate_rows(rng)
        m1 = betagam.fit(single_smooth_spec(), obs)
        m2 = betagam.fit(single_smooth_spec(), obs)
        assert np.array_equal(m1.coef, m2.coef)
        assert m1.phi == m2.phi
        assert m1.lambdas == m2.lambdas

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
            model = betagam.fit(default_spec("ACC"), as_table(obs), lambdas=[1e10, 1e10, 1e10])
            se = np.sqrt(np.diag(model.covariance))
            for name, value in {**truth, "(intercept)": intercept}.items():
                j = model.coef_names.index(name)
                total += 1
                if abs(model.coef[j] - value) <= 3 * se[j]:
                    covered += 1
        assert covered / total >= 0.99


class TestFitStatistics:
    def test_public_fit_stats_reproduces_the_fit(
        self, calibrated_acc_model, calibrated_observations
    ):
        model = calibrated_acc_model
        public = betagam.fit_stats(model, calibrated_observations)
        assert public["deviance_explained"] == pytest.approx(
            model.fit_stats.deviance_explained, rel=1e-9
        )
        assert public["adj_r_squared"] == pytest.approx(model.fit_stats.adj_r_squared, rel=1e-9)

    def test_unknown_level_rejected(self, calibrated_acc_model, calibrated_observations):
        rows = calibrated_observations[calibrated_observations.metric == "ACC"][:50].tolist()
        rows[7] = (*rows[7][:2], "MARS", *rows[7][3:])
        with pytest.raises(InputError, match="MARS"):
            betagam.fit_stats(calibrated_acc_model, as_table(rows))

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
        term_index={"(intercept)": (0,), "tuning": (1,)},
        factor_levels={"tuning": ("deep", "shallow")},
        references={"tuning": "deep"},
        knot_vector=None,
        smooth_constraints={},
        lambdas={},
        phi=50.0,
        covariance=np.diag([0.016**2, se**2]),
        edf_by_coef=np.array([1.0, 1.0]),
        fit_stats=FitStats(0, 0, 0, 0, 0, 0, 2, 1),
        observed_sizes=(10, 1000),
    )


class TestPredict:
    def test_reference_cell_is_inverse_logit_of_intercept(self):
        model = hand_built_model()
        value = model.predict({"tuning": "deep", "num_tr_images": 100})
        assert value == pytest.approx(inv_logit(3.322), abs=1e-12)
        assert value == pytest.approx(0.965, abs=5e-4)

    def test_zero_linear_predictor_gives_half(self):
        model = hand_built_model()
        object.__setattr__(model, "coef", np.array([0.0, 0.0]))
        assert model.predict({"tuning": "deep", "num_tr_images": 10}) == 0.5

    def test_positive_offset_strictly_increases_prediction(self):
        model = hand_built_model(coef_value=0.050)
        deep = model.predict({"tuning": "deep", "num_tr_images": 10})
        shallow = model.predict({"tuning": "shallow", "num_tr_images": 10})
        assert shallow > deep

    def test_unknown_level_rejected(self):
        with pytest.raises(InputError):
            hand_built_model().predict({"tuning": "medium", "num_tr_images": 10})

    def test_nonpositive_size_rejected(self):
        with pytest.raises(InputError):
            hand_built_model().predict({"tuning": "deep", "num_tr_images": 0})


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

    def test_by_factor_protected_while_smooth_retained(self, calibrated_observations):
        # the dataset factor backs the nested smooths; even if its own p were
        # large it must not be dropped before the smooth term
        data = calibrated_observations[calibrated_observations.metric == "ACC"]
        spec = default_spec("ACC")
        model, trace = backward_eliminate(spec, data)
        assert "dataset" in model.term_index
        assert all(step.dropped != "dataset" for step in trace)

    def test_bad_alpha_rejected(self):
        with pytest.raises(InputError):
            backward_eliminate(default_spec("ACC"), observation_rows([0.5], [10]), alpha=1.5)
