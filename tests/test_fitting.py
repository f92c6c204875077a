from decimal import Decimal, localcontext
import math

import numpy as np
import pytest
from scipy.optimize import least_squares

from epps import fitting
from epps.errors import DataError, NumericalError
from epps._numutil import decay_difference, decay_difference_da, exp_moments
from epps.async_theory import AsyncKernel, async_cross_corr
from epps.estimation import Correlogram, correlogram
from epps.kernels import CorrelationModel
from epps.sampling import SteppedSeries, rng_stream
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


def test_auto_async_point_mass_and_zero_lag_value():
    # the sampled point mass is a - b/(1 + lambda xi) and the regular part
    # vanishes at zero lag, also at lambda xi = 1
    theta = np.array([1.0, 0.5, math.log(6.0)])
    for lam in (0.2, 1.0 / 6.0):
        f, _ = _auto_async_fj(np.array([0.0]), lam, theta)
        assert f[0] == pytest.approx(1.0 - 0.5 / (1.0 + lam * 6.0))
        assert f[1] == 0.0


def test_exp_moments_match_their_series_and_closed_forms():
    # integral_0^1 (1 - s) e^{-y s} ds = sum_n (-y)^n / (n + 2)! and
    # integral_0^1 s e^{-y s} ds = sum_n (-y)^n (n + 1) / (n + 2)!, on both
    # sides of the switch from the Taylor series to the closed forms at y = 1
    ys = [0.0, 1e-12, 1e-3, 0.3, 0.9, 1.0 - 2.0 ** -52, 1.0,
          1.0 + 2.0 ** -52, 1.1, 1.5, 2.0]
    first, second = exp_moments(ys)
    for y, a, b in zip(ys, first, second):
        want_a = math.fsum((-y) ** n / math.factorial(n + 2)
                           for n in range(40))
        want_b = math.fsum((-y) ** n * (n + 1) / math.factorial(n + 2)
                           for n in range(40))
        assert a == pytest.approx(want_a, rel=1e-15, abs=0.0), y
        assert b == pytest.approx(want_b, rel=1e-15, abs=0.0), y
    assert (first[0], second[0]) == (0.5, 0.5)
    # at large y, where the series cancels, the closed forms in 50 digits
    ys = [3.0, 40.0, 1e3, 1e8, 1e100]
    first, second = exp_moments(ys)
    with localcontext() as ctx:
        ctx.prec = 50
        for y, a, b in zip(ys, first, second):
            d = Decimal(y)
            e = (-d).exp()
            assert a == pytest.approx(float((d - 1 + e) / (d * d)),
                                      rel=1e-15, abs=0.0), y
            assert b == pytest.approx(float((1 - (1 + d) * e) / (d * d)),
                                      rel=1e-15, abs=0.0), y


def test_exp_moments_do_not_overflow_at_huge_y():
    # y^2 overflows from about 1.3e154, which made both moments 0 with an
    # overflow warning; they are about 1/y and 1/y^2, the second 0 or
    # subnormal where that underflows
    top = math.sqrt(np.finfo(float).max)
    ys = [np.nextafter(top, 0.0), np.nextafter(top, np.inf), 1e155, 1e200,
          1e300]
    first, second = exp_moments(ys)
    for y, a, b in zip(ys, first, second):
        d = Decimal(y)
        assert a == pytest.approx(float(1 / d - 1 / (d * d)), rel=1e-15,
                                  abs=0.0), y
        assert b == pytest.approx(float(1 / (d * d)), rel=1e-15,
                                  abs=1e-323), y
    assert second[-1] == 0.0 < second[2]


def test_decay_difference_da_matches_central_differences():
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


CROSS_FITS = [
    ("_cross_raw_fj", fit_cross_raw, _cross_raw_fj),
    ("_cross_async_fj", lambda cg: fit_cross_async(cg, 1.0, 0.2),
     lambda t, th, jac: _cross_async_fj(t, 1.0, 0.2, th, jac)),
]


@pytest.mark.parametrize("name,fit,_", CROSS_FITS)
def test_cross_fit_of_a_no_signal_correlogram_is_cheap_and_flagged(
        name, fit, _, no_signal_correlogram, monkeypatch):
    calls = []
    fj = getattr(fitting, name)
    monkeypatch.setattr(fitting, name,
                        lambda *args: calls.append(1) or fj(*args))
    res = fit(no_signal_correlogram)
    assert len(calls) <= 150
    assert res.nfev == len(calls) - 1  # every search point, then `_pack`'s
    assert "amplitude" in res.degenerate_reasons


def brute_force_chi2(model, cg, n_tau=801, n_xi=80):
    """The smallest chi-square over a dense (tau0, log xi) grid covering
    the lag window and `_xi_range`, at unit weights, with c projected."""
    tau, y = cg.lag_grid, cg.values
    lo, hi = fitting._xi_range(tau)
    tau0 = np.linspace(tau[0], tau[-1], n_tau)
    diffs = (tau[None, :] - tau0[:, None]).ravel()
    best = math.inf
    for p in np.linspace(math.log(lo), math.log(hi), n_xi):
        g = model(diffs, (1.0, 0.0, p), False)[0].reshape(n_tau, tau.size)
        c = (g @ y) / np.einsum("ij,ij->i", g, g)
        best = min(best, float(np.min(np.sum((c[:, None] * g - y) ** 2,
                                             axis=1))))
    return best


def noisy_bump(n_lags, rates, noise, seed):
    """A sampled cross bump (c 0.4, tau 0, xi 8) at `rates` on lags
    -n_lags..n_lags, with white noise at `noise` x its peak."""
    lags = np.arange(-n_lags, n_lags + 1, dtype=float)
    truth, _ = _cross_async_fj(lags, *rates,
                               np.array([0.4, 0.0, math.log(8.0)]))
    return make_cross_cg(truth + rng_stream(seed, 78).standard_normal(
        lags.size) * noise * np.max(truth), lags=lags)


@pytest.mark.parametrize("name,fit,model", CROSS_FITS)
def test_cross_fit_beats_a_dense_grid(name, fit, model,
                                      no_signal_correlogram):
    inputs = [noisy_bump(40, (1.0, 0.2), 0.05, 6), no_signal_correlogram]
    if name == "_cross_raw_fj":
        # the raw fit of a skewed bump ends between lags 11 and 12, next
        # to the best grid lag 11 (kinks of |tau - tau0|); a descent from
        # that lag went to the local optimum between lags 10 and 11
        inputs.append(noisy_bump(80, (1.0, 0.05), 0.02, 5))
    for cg in inputs:
        assert fit(cg).chi2 <= brute_force_chi2(model, cg) * (1.0 + 1e-12)


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


def brownian_auto_cg(seed, n_days, T, max_lag):
    """Autocorrelogram of Brownian unit-grid increments: a pure delta."""
    rng = rng_stream(seed, 60)
    days = []
    for _ in range(n_days):
        levels = np.concatenate([[0.0], np.cumsum(rng.standard_normal(T))])
        days.append(SteppedSeries(grid_dt=1.0, increments=np.diff(levels),
                                  n_ticks=T + 1))
    return correlogram(days, days, max_lag)


def lm_auto_fit(cg, fj):
    """Levenberg-Marquardt over all three auto parameters, started from the
    correlogram's half width as the auto fits were before the profile.
    Returns (chi2, xi)."""
    tau, y, sw = fitting._auto_setup(cg)
    reg = np.flatnonzero(cg.lag_grid != 0.0)
    k = int(np.argmax(np.abs(cg.values[reg])))
    half = np.abs(cg.values) >= abs(cg.values[reg[k]]) / 2.0
    xi0 = max(0.5 * np.ptp(cg.lag_grid[half]) / math.log(2.0), cg.grid_dt)
    b0 = -2.0 * xi0 * cg.values[reg[k]] * math.exp(abs(tau[k]) / xi0)
    sol = least_squares(
        lambda th: (fj(tau, th)[0] - y) * sw,
        np.array([cg.delta_mass, b0, math.log(xi0)]),
        jac=lambda th: fj(tau, th)[1] * sw[:, None], method="lm",
        xtol=1e-12, ftol=1e-12, gtol=1e-12, max_nfev=2000)
    return float(sol.fun @ sol.fun), math.exp(sol.x[2])


AUTO_FAMILIES = [
    ("_auto_raw_fj", fit_auto_raw, lambda tau, th: _auto_raw_fj(tau, th)),
    ("_auto_async_fj", lambda cg: fit_auto_async(cg, 0.5),
     lambda tau, th: _auto_async_fj(tau, 0.5, th)),
]


@pytest.mark.parametrize("name,fit,_", AUTO_FAMILIES)
def test_auto_fit_of_a_structureless_correlogram_is_cheap(name, fit, _,
                                                          monkeypatch):
    # a pure-delta autocorrelogram has no width to find; on this one
    # Levenberg-Marquardt stopped at its 2000-evaluation cap unconverged
    cg = brownian_auto_cg(25, n_days=10, T=4000, max_lag=60)
    calls = []
    fj = getattr(fitting, name)
    monkeypatch.setattr(fitting, name,
                        lambda *args: calls.append(1) or fj(*args))
    res = fit(cg)
    assert len(calls) <= 150
    assert res.nfev <= len(calls)
    assert res.degenerate


@pytest.mark.parametrize("name,fit,fj", AUTO_FAMILIES)
def test_auto_profile_is_no_worse_than_levenberg_marquardt(name, fit, fj):
    compared = 0
    for seed in range(8):
        cg = brownian_auto_cg(seed, n_days=3, T=3000, max_lag=60)
        lm_chi2, lm_xi = lm_auto_fit(cg, fj)
        lo, hi = fitting._xi_range(cg.lag_grid[cg.lag_grid != 0.0])
        if lo < lm_xi < hi:
            compared += 1
            assert fit(cg).chi2 <= lm_chi2 * (1.0 + 1e-9)
    assert compared >= 4


def test_auto_fit_optimum_on_an_edge_is_degenerate():
    # noiseless data of a width past 10x the largest lag: the profile stops
    # on the upper edge, and a single spike at lag 1 stops it on the lower
    lags = np.arange(-40, 41, dtype=float)
    reg = lags[lags != 0.0]
    f, _ = _auto_raw_fj(reg, np.array([1.0, 0.5, math.log(5000.0)]))
    vals = np.zeros(lags.size)
    vals[lags != 0.0] = f[1:]
    wide = fit_auto_raw(make_auto_cg(f[0], vals, lags=lags))
    assert wide.params["xi"] == pytest.approx(400.0, rel=1e-12)
    assert "xi_above_range" in wide.degenerate_reasons
    spike = np.where(np.abs(lags) == 1.0, -0.2, 0.0)
    narrow = fit_auto_raw(make_auto_cg(1.0, spike, lags=lags))
    assert narrow.params["xi"] == pytest.approx(0.1, rel=1e-12)
    assert "xi_below_range" in narrow.degenerate_reasons
    assert wide.degenerate and narrow.degenerate


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
