import math

import numpy as np
import pytest

from epps.errors import DataError, NumericalError, FitConvergenceError
from epps._numutil import (decay_difference, decay_difference_da,
                           expm1_minus_x_over_x2)
from epps.async_theory import AsyncKernel, async_cross_corr
from epps.estimation import Correlogram
from epps.kernels import CorrelationModel
from epps.sampling import rng_stream
from epps.fitting import (FitResult, fit_cross_raw, fit_cross_async,
                          fit_auto_raw, fit_auto_async, chi2_ratio,
                          fit_csv_row, FIT_CSV_HEADER,
                          _cross_raw_fj, _cross_async_fj,
                          _auto_raw_fj, _auto_async_fj)


def fd_jacobian(fj, theta, eps=1e-7):
    f0, _ = fj(theta)
    cols = []
    for a in range(theta.size):
        tp = theta.copy()
        tm = theta.copy()
        tp[a] += eps
        tm[a] -= eps
        cols.append((fj(tp)[0] - fj(tm)[0]) / (2.0 * eps))
    return np.column_stack(cols)


CROSS_THETAS = [
    np.array([0.4, 2.0, math.log(8.0)]),
    np.array([-0.2, -3.5, math.log(0.5)]),
    np.array([0.7, 0.0, math.log(30.0)]),
]

CROSS_RATES = [
    (1.0, 0.05),
    (0.2, 0.2),
    (0.125, 0.4),       # lambda_i * xi = 1 at xi = 8
    (math.inf, 0.3),
    (math.inf, math.inf),
]


@pytest.mark.parametrize("theta", CROSS_THETAS)
def test_cross_raw_jacobian_matches_finite_differences(theta):
    tau = np.linspace(-40, 40, 81)
    _, jac = _cross_raw_fj(tau, theta)
    np.testing.assert_allclose(jac, fd_jacobian(
        lambda th: _cross_raw_fj(tau, th), theta), rtol=2e-6, atol=1e-8)


@pytest.mark.parametrize("theta", CROSS_THETAS)
@pytest.mark.parametrize("rates", CROSS_RATES)
def test_cross_async_jacobian_matches_finite_differences(theta, rates):
    tau = np.linspace(-60, 60, 61)
    li, lj = rates

    def fj(th):
        return _cross_async_fj(tau, li, lj, th)

    _, jac = fj(theta)
    np.testing.assert_allclose(jac, fd_jacobian(fj, theta),
                               rtol=5e-6, atol=1e-8)


@pytest.mark.parametrize("theta", CROSS_THETAS)
@pytest.mark.parametrize("rates", CROSS_RATES)
def test_cross_async_model_is_the_sampled_theory(theta, rates):
    # c exp(-|s|/xi) is the exponential component of mass 2 xi c, so the
    # fitted family must be async_theory's sampled density of that component
    tau = np.concatenate([np.linspace(-200, 200, 401), [1e-9, -1e-9]])
    c, tau0, xi = theta[0], theta[1], math.exp(theta[2])
    model = CorrelationModel(lag=tau0, width=xi, exp_weight=2.0 * xi * c)
    f, _ = _cross_async_fj(tau, *rates, theta)
    np.testing.assert_allclose(
        f, async_cross_corr(model, AsyncKernel(*rates), tau),
        rtol=1e-12, atol=1e-300)


AUTO_THETAS = [
    np.array([1.0, 0.5, math.log(8.0)]),
    np.array([0.8, -0.3, math.log(2.0)]),
    np.array([1.2, 0.9, math.log(25.0)]),
]


@pytest.mark.parametrize("theta", AUTO_THETAS)
def test_auto_raw_jacobian_matches_finite_differences(theta):
    tau = np.concatenate([np.arange(-30, 0), np.arange(1, 31)]).astype(float)
    _, jac = _auto_raw_fj(tau, theta)
    np.testing.assert_allclose(jac, fd_jacobian(
        lambda th: _auto_raw_fj(tau, th), theta), rtol=2e-6, atol=1e-8)


@pytest.mark.parametrize("theta", AUTO_THETAS)
@pytest.mark.parametrize("lam", [0.5, 0.125, 1.0 / 8.0 + 1e-9, math.inf])
def test_auto_async_jacobian_matches_finite_differences(theta, lam):
    tau = np.concatenate([np.arange(-30, 0), np.arange(1, 31)]).astype(float)

    def fj(th):
        return _auto_async_fj(tau, lam, th)

    _, jac = fj(theta)
    np.testing.assert_allclose(jac, fd_jacobian(fj, theta),
                               rtol=5e-6, atol=1e-8)


def test_auto_async_finite_at_long_lags():
    # lambda - 1/xi = 9.5 per second: e^{(lambda - 1/xi) t} overflows at
    # lags of ~75 s unless the slower decay is factored out
    tau = np.array([10.0, 100.0, 120.0])
    theta = np.array([1.0, 0.3, math.log(2.0)])
    lam, xi = 10.0, 2.0

    def fj(th):
        return _auto_async_fj(tau, lam, th)

    f, jac = fj(theta)
    assert np.all(np.isfinite(f)) and np.all(np.isfinite(jac))
    u = 1.0 + lam * xi
    closed = -0.3 * lam * lam / (2.0 * u) * (
        np.exp(-tau / xi) - np.exp(-lam * tau)) / (lam - 1.0 / xi)
    np.testing.assert_allclose(f[1:], closed, rtol=1e-13)
    np.testing.assert_allclose(jac, fd_jacobian(fj, theta), rtol=1e-6,
                               atol=0.0)


def test_decay_difference_da_matches_series_and_differences():
    # (e^x - 1 - x)/x^2 is the series sum_k x^k / (k + 2)!, on both sides of
    # the switch to the truncated series at |x| = 1e-3
    xs = [-1.0, -0.1, -0.05, -2e-3, -1e-3, -5e-4, -1e-6, 0.0, 1e-6, 5e-4,
          0.5]
    series = [math.fsum(x ** k / math.factorial(k + 2) for k in range(30))
              for x in xs]
    np.testing.assert_allclose(expm1_minus_x_over_x2(xs), series,
                               rtol=1e-12)
    t = np.array([0.0, 0.5, 3.0, 40.0, 400.0])
    h = 1e-6
    for a, b in ((0.5, 0.5), (0.5, 0.5 + 1e-9), (0.5 + 1e-9, 0.5),
                 (0.1, 2.0), (2.0, 0.1), (0.01, 10.0)):
        central = (decay_difference(t, a + h, b)
                   - decay_difference(t, a - h, b)) / (2.0 * h)
        got = decay_difference_da(t, a, b)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, central, rtol=1e-6, atol=1e-300)


def make_cross_cg(values, lags=None, n_days=1, stderr=None):
    lags = np.arange(-60, 61, dtype=float) if lags is None else lags
    return Correlogram(lag_grid=lags, values=values,
                       stderr=np.full(lags.size, np.nan)
                       if stderr is None else stderr,
                       n_days=n_days)


def make_auto_cg(delta, values, lags=None, n_days=1):
    lags = np.arange(-60, 61, dtype=float) if lags is None else lags
    vals = values.copy()
    vals[lags == 0.0] = 0.0
    return Correlogram(lag_grid=lags, values=vals,
                       stderr=np.full(lags.size, np.nan),
                       n_days=n_days, delta_mass=float(delta))


def test_cross_raw_noiseless_round_trip():
    lags = np.arange(-60, 61, dtype=float)
    theta = np.array([0.45, 3.0, math.log(7.0)])
    vals, _ = _cross_raw_fj(lags, theta)
    res = fit_cross_raw(make_cross_cg(vals))
    assert res.params["c"] == pytest.approx(0.45, abs=1e-9)
    assert res.params["tau"] == pytest.approx(3.0, abs=1e-8)
    assert res.params["xi"] == pytest.approx(7.0, rel=1e-8)
    assert res.chi2 < 1e-16
    assert not res.degenerate
    assert res.cov.shape == (3, 3)


def test_cross_async_noiseless_round_trip():
    lags = np.arange(-80, 81, dtype=float)
    theta = np.array([0.4, 2.0, math.log(8.0)])
    li, lj = 1.0, 0.05
    vals, _ = _cross_async_fj(lags, li, lj, theta)
    res = fit_cross_async(make_cross_cg(vals, lags=lags), li, lj)
    assert res.params["c"] == pytest.approx(0.4, rel=1e-6)
    assert res.params["tau"] == pytest.approx(2.0, abs=1e-6)
    assert res.params["xi"] == pytest.approx(8.0, rel=1e-6)
    assert not res.degenerate


def test_auto_raw_noiseless_round_trip():
    lags = np.arange(-60, 61, dtype=float)
    theta = np.array([1.0, 0.5, math.log(8.0)])
    f, _ = _auto_raw_fj(lags[lags != 0.0], theta)
    vals = np.zeros(lags.size)
    vals[lags != 0.0] = f[1:]
    res = fit_auto_raw(make_auto_cg(f[0], vals))
    assert res.params["a"] == pytest.approx(1.0, abs=1e-9)
    assert res.params["b"] == pytest.approx(0.5, rel=1e-8)
    assert res.params["xi"] == pytest.approx(8.0, rel=1e-8)


def test_auto_async_noiseless_round_trip():
    lags = np.arange(-60, 61, dtype=float)
    lam = 0.2
    theta = np.array([1.0, 0.5, math.log(8.0)])
    f, _ = _auto_async_fj(lags[lags != 0.0], lam, theta)
    vals = np.zeros(lags.size)
    vals[lags != 0.0] = f[1:]
    res = fit_auto_async(make_auto_cg(f[0], vals), lam)
    assert res.params["a"] == pytest.approx(1.0, rel=1e-7)
    assert res.params["b"] == pytest.approx(0.5, rel=1e-6)
    assert res.params["xi"] == pytest.approx(8.0, rel=1e-6)


def test_cross_async_symmetric_rates_keep_lag_at_zero():
    # symmetric sampling broadens the bump but cannot move its center
    lags = np.arange(-80, 81, dtype=float)
    theta = np.array([0.5, 0.0, math.log(6.0)])
    vals, _ = _cross_async_fj(lags, 0.3, 0.3, theta)
    res = fit_cross_async(make_cross_cg(vals, lags=lags), 0.3, 0.3)
    assert res.params["tau"] == pytest.approx(0.0, abs=1e-7)


def test_raw_fit_absorbs_asymmetric_sampling_into_spurious_lag():
    # asymmetric rates skew the measured bump; the raw family compensates
    # with a shifted center and an inflated width, the corrected family
    # recovers the true parameters
    lags = np.arange(-100, 101, dtype=float)
    vals, _ = _cross_async_fj(lags, 1.0, 0.05,
                              np.array([0.4, 0.0, math.log(8.0)]))
    vals = vals + rng_stream(4, 74).standard_normal(lags.size) * 1e-6
    cg = make_cross_cg(vals, lags=lags)
    raw = fit_cross_raw(cg)
    asyn = fit_cross_async(cg, 1.0, 0.05)
    assert raw.params["tau"] > 5.0
    assert raw.params["xi"] > 1.5 * asyn.params["xi"]
    assert abs(asyn.params["tau"]) < 1e-3
    assert chi2_ratio(raw, asyn) > 100.0


def test_degenerate_flag_on_pure_noise():
    rng = rng_stream(0, 70)
    lags = np.arange(-40, 41, dtype=float)
    res = fit_cross_raw(make_cross_cg(rng.standard_normal(lags.size) * 1e-3,
                                      lags=lags))
    assert res.degenerate
    assert math.isnan(res.stderr["tau"]) and math.isnan(res.stderr["xi"])


def test_degenerate_flag_on_runaway_width():
    # white-noise auto data: any fitted exponential has no support, so the
    # width runs away and must be flagged
    lags = np.arange(-40, 41, dtype=float)
    rng = rng_stream(1, 71)
    vals = rng.standard_normal(lags.size) * 1e-4
    res = fit_auto_async(make_auto_cg(1.0, vals, lags=lags), 0.5)
    assert res.degenerate


def test_weighted_fit_uses_stderr_and_reports_scaled_errors():
    rng = rng_stream(2, 72)
    lags = np.arange(-60, 61, dtype=float)
    truth, _ = _cross_raw_fj(lags, np.array([0.5, 0.0, math.log(5.0)]))
    sigma = 0.01
    n_days = 8
    vals = truth + rng.standard_normal(lags.size) * sigma
    se = np.full(lags.size, sigma)
    res = fit_cross_raw(make_cross_cg(vals, lags=lags, n_days=n_days,
                                      stderr=se))
    assert abs(res.params["c"] - 0.5) < 4.0 * res.stderr["c"]
    # chi2 of a correct model with true weights is ~ n - 3
    assert 0.5 * lags.size < res.chi2 < 1.7 * lags.size


def test_solution_residual_is_orthogonal_to_jacobian():
    rng = rng_stream(3, 73)
    lags = np.arange(-60, 61, dtype=float)
    truth, _ = _cross_raw_fj(lags, np.array([0.4, 1.0, math.log(6.0)]))
    vals = truth + rng.standard_normal(lags.size) * 0.02
    res = fit_cross_raw(make_cross_cg(vals, lags=lags))
    theta = np.array([res.params["c"], res.params["tau"],
                      math.log(res.params["xi"])])
    f, jac = _cross_raw_fj(lags, theta)
    grad = jac.T @ (f - vals)
    assert np.max(np.abs(grad)) < 1e-8 * max(np.max(np.abs(vals)), 1.0)


def test_fit_argument_validation():
    short = make_cross_cg(np.zeros(5), lags=np.arange(-2.0, 3.0))
    with pytest.raises(DataError):
        fit_cross_raw(short)
    with pytest.raises(DataError):
        fit_cross_async(make_cross_cg(np.zeros(121)), -1.0, 1.0)
    no_delta = make_cross_cg(np.zeros(121))
    with pytest.raises(DataError):
        fit_auto_raw(no_delta)
    with pytest.raises(DataError):
        fit_auto_async(make_auto_cg(1.0, np.zeros(121)), -0.5)


def test_chi2_ratio_contract():
    a = FitResult(family="cross_raw", params={}, stderr={}, chi2=4.0,
                  n_points=10)
    b = FitResult(family="cross_async", params={}, stderr={}, chi2=2.0,
                  n_points=10)
    assert chi2_ratio(a, b) == pytest.approx(1.0)
    with pytest.raises(DataError):
        chi2_ratio(a, FitResult(family="x", params={}, stderr={}, chi2=1.0,
                                n_points=9))
    with pytest.raises(NumericalError):
        chi2_ratio(a, FitResult(family="x", params={}, stderr={}, chi2=0.0,
                                n_points=10))


def test_convergence_error_carries_best_iterate():
    err = FitConvergenceError("stalled", result=FitResult(
        family="cross_raw", params={"c": 1.0}, stderr={}, chi2=1.0,
        n_points=5))
    assert err.result.params["c"] == 1.0
    assert isinstance(err, NumericalError)


def test_fit_csv_row_layout():
    lags = np.arange(-60, 61, dtype=float)
    vals, _ = _cross_raw_fj(lags, np.array([0.45, 3.0, math.log(7.0)]))
    res = fit_cross_raw(make_cross_cg(vals, lags=lags))
    row = fit_csv_row(res, "a", "b").split(",")
    assert len(row) == len(FIT_CSV_HEADER.split(","))
    assert row[:3] == ["a", "b", "cross_raw"]
    assert float(row[3]) == pytest.approx(0.45)
    assert float(row[4]) == pytest.approx(3.0)
    assert float(row[5]) == pytest.approx(7.0)
    assert row[11] in ("0", "1")

    f, _ = _auto_raw_fj(lags[lags != 0.0], np.array([1.0, 0.5, math.log(8.0)]))
    vals = np.zeros(lags.size)
    vals[lags != 0.0] = f[1:]
    ares = fit_auto_raw(make_auto_cg(f[0], vals))
    arow = fit_csv_row(ares, "a", "a").split(",")
    # auto rows carry the point mass in the c column and b in the tau column
    assert float(arow[3]) == pytest.approx(1.0)
    assert float(arow[4]) == pytest.approx(0.5)
