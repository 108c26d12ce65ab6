"""The special functions of the Beta likelihood and the Wald test, against scipy."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

from camcurves._numeric import chi2_sf, gammaln_psi
from camcurves.betagam import wald_p

# the arguments the fit meets: mu * phi for mu clipped at 1e-9 and phi in
# [_PHI_MIN, _PHI_MAX] = [1e-2, 1e8]
LIKELIHOOD_RANGE = np.logspace(-11.0, 8.0, 4001)


def assert_matches_scipy(x):
    got, psi, tri = gammaln_psi(x)
    want_psi, want_gammaln = special.digamma(x), special.gammaln(x)
    assert np.all(np.abs(psi - want_psi) <= 1e-12 * np.maximum(1.0, np.abs(want_psi)))
    assert np.all(np.abs(tri / special.polygamma(1, x) - 1.0) <= 1e-11)
    assert np.all(np.abs(got - want_gammaln) <= 1e-12 * np.maximum(1.0, np.abs(want_gammaln)))


def test_gammaln_psi_matches_scipy_over_the_likelihood_range():
    assert_matches_scipy(LIKELIHOOD_RANGE)


def test_stacked_likelihood_arguments_match_scipy():
    # _loglik_rows evaluates a = mu*phi, b = (1-mu)*phi and phi in one call
    mu = np.linspace(1e-9, 1.0 - 1e-9, 1001)
    for phi in (1e-2, 0.7, 30.0, 250.0, 1e5, 1e8):
        assert_matches_scipy(np.concatenate((mu * phi, (1.0 - mu) * phi, [phi])))


ARGUMENTS = st.floats(1e-11, 7.999999) | st.floats(8.0, 1e8)


@settings(max_examples=200, deadline=None)
@given(st.lists(ARGUMENTS, min_size=2, max_size=40))
def test_each_output_is_that_of_its_argument_alone(values):
    # an argument below 8 takes 8 shifts and one at or above 8 none, so
    # stacking arguments into one call changes no bit of any output
    assume(min(values) < 8.0 <= max(values))
    outputs = gammaln_psi(np.array(values))
    for i, value in enumerate(values):
        alone = gammaln_psi(value)
        assert alone == tuple(float(f[i]) for f in outputs)
        assert gammaln_psi(np.array(value)) == alone
        assert tuple(float(f[0]) for f in gammaln_psi(np.array([value]))) == alone


@pytest.mark.parametrize("x", [2.5, np.float64(2.5), np.array(2.5), 1e-11, 9.0])
def test_scalars_and_zero_d_arrays_give_floats(x):
    lgamma, psi, tri = gammaln_psi(x)
    assert type(lgamma) is float and type(psi) is float and type(tri) is float
    assert psi == pytest.approx(special.digamma(x), rel=1e-13, abs=1e-13)
    assert tri == pytest.approx(special.polygamma(1, x), rel=1e-13)
    assert lgamma == pytest.approx(special.gammaln(x), rel=1e-13, abs=1e-13)


def test_chi_square_tail_matches_chdtrc():
    xs = np.concatenate([[0.0], np.logspace(-6.0, math.log10(2000.0), 400)])
    for df in range(1, 61):
        for x in xs:
            want = special.chdtrc(df, x)
            assert abs(chi2_sf(df, float(x)) - want) <= max(1e-12 * want, 1e-300), (df, x)


def test_normal_p_value_is_twice_the_lower_tail(calibrated_acc_model):
    model = calibrated_acc_model
    names = [name for name in model.coef_names if not name.startswith("s(")]
    assert len(names) >= 4
    for j, name in enumerate(model.coef_names):
        if name in names:
            z = model.coef[j] / math.sqrt(model.covariance[j, j])
            assert wald_p(model, name) == pytest.approx(2.0 * special.ndtr(-abs(z)), rel=1e-12)
