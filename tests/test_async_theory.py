import math

import numpy as np
import pytest
from scipy.integrate import quad

from epps.errors import DataError
from epps.estimation import Correlogram, SpectrumEstimate
from epps.filtering import (FilterSpec, apply_filter, auto_filter,
                            estimate_snr, inverse_filter)
from epps.fitting import fit_auto_async, fit_cross_async
from epps.kernels import (CorrelationModel, ModelPair, parse_model_text,
                          sync_covariance, sync_rho)
from epps.async_theory import (AsyncKernel, discrete_kernel,
                               async_cross_corr, async_covariance,
                               async_variance, async_rho, _onesided_exp_conv)
from epps.sampling import _circulant_factors


def lorentz_kernel(li, lj, omega):
    """Continuum suppression factor K(omega) of the sampling, the reference
    for discrete_kernel."""
    return 1.0 / ((1.0 + 1j * omega / li) * (1.0 - 1j * omega / lj))


def async_autocorr(m, lam, tau):
    """Sampled autocorrelation of an auto kernel at finite rate lam:
    (delta weight a + b/(1 + lam xi), regular part at tau), the two-
    exponential closed form, exact away from lam xi = 1."""
    a, b, xi = m.delta_weight, m.exp_weight, m.width
    t = abs(tau)
    regular = b * lam ** 2 / (2.0 * (1.0 + lam * xi)) * (
        math.exp(-lam * t) - math.exp(-t / xi)) / (1.0 / xi - lam)
    return a + b / (1.0 + lam * xi), regular


@pytest.mark.parametrize("lam_xi", [0.5, 1.0, 2.0])
def test_onesided_exp_conv_derivatives(lam_xi):
    xi = 4.0
    lam = lam_xi / xi
    t = np.array([-30.0, -4.0, -1e-3, 0.0, 1e-3, 0.7, 4.0, 25.0, 90.0])
    value = _onesided_exp_conv(t, lam, xi)
    v, d_t, d_xi = _onesided_exp_conv(t, lam, xi, jac=True)
    assert v.tobytes() == value.tobytes()
    h = 1e-6
    off = t != 0.0  # the t-derivative has a kink at t = 0 when lam xi != 1
    fd_t = (_onesided_exp_conv(t + h, lam, xi)
            - _onesided_exp_conv(t - h, lam, xi)) / (2.0 * h)
    np.testing.assert_allclose(d_t[off], fd_t[off], rtol=1e-7, atol=1e-12)
    # d/dxi at fixed lam; for lam xi = 1 this crosses the removable pole
    fd_xi = (_onesided_exp_conv(t, lam, xi + h)
             - _onesided_exp_conv(t, lam, xi - h)) / (2.0 * h)
    np.testing.assert_allclose(d_xi, fd_xi, rtol=1e-7, atol=1e-12)


def test_onesided_exp_conv_infinite_rate_and_long_lags():
    t = np.array([-5.0, 0.0, 3.0])
    for out in (_onesided_exp_conv(t, math.inf, 2.0),
                *_onesided_exp_conv(t, math.inf, 2.0, jac=True)):
        np.testing.assert_array_equal(out, 0.0)
    # (lam - 1/xi) t reaches 1900: no factor may overflow into inf * 0
    lam, xi = 2.0, 10.0
    t = np.array([-1000.0, 400.0, 1000.0])
    assert (lam - 1.0 / xi) * t[1] > 709.0
    for out in _onesided_exp_conv(t, lam, xi, jac=True):
        assert np.all(np.isfinite(out))
    # the derivatives stay finite for widths as extreme as e^-300 and e^300
    for xi in (math.exp(-300.0), math.exp(300.0)):
        for out in _onesided_exp_conv(t, 0.5, xi, jac=True):
            assert np.all(np.isfinite(out))


def test_smoothed_cross_corr_has_unit_mass():
    k = AsyncKernel(0.7, 0.15)
    m = CorrelationModel(delta_weight=1.0, lag=2.0)
    mass = quad(lambda t: async_cross_corr(m, k, t), -80, 200, limit=800,
                points=[2.0])[0]
    assert mass == pytest.approx(1.0, rel=1e-8)


def test_cross_corr_asymmetry_direction():
    # the slowly sampled asset appears to trail the fast one: more mass at
    # positive lags when lambda_i > lambda_j
    k = AsyncKernel(1.0, 0.05)
    m = CorrelationModel(delta_weight=0.5)
    pos = quad(lambda t: async_cross_corr(m, k, t), 0, 300, limit=400)[0]
    neg = quad(lambda t: async_cross_corr(m, k, t), -300, 0, limit=400)[0]
    assert pos > 10 * neg > 0


def test_cross_corr_synchronous_limit():
    k = AsyncKernel(math.inf, math.inf)
    m = CorrelationModel(width=4.0, exp_weight=0.8, lag=1.0)
    tau = np.array([-3.0, 0.0, 1.0, 6.0])
    np.testing.assert_allclose(async_cross_corr(m, k, tau),
                               0.8 * np.exp(-np.abs(tau - 1.0) / 4.0) / 8.0)


CASES = [
    # (dt, tau, xi, li, lj)
    (2.0, 1.0, 5.0, 0.3, 0.8),
    (8.0, 3.0, 5.0, 0.2, 0.2),
    (1.0, 4.0, 2.0, 0.5, 1.5),     # dt < tau branch
    (10.0, -6.0, 3.0, 0.4, 0.9),   # negative lag
    (5.0, 2.0, 10.0, 0.1, 0.1),    # lambda xi = 1 exactly
    (5.0, 2.0, 10.0, 0.09, 0.11),  # lambda xi = 0.9 / 1.1
    (20.0, 0.0, 8.0, 2.0, 0.05),
]


@pytest.mark.parametrize("dt,tau,xi,li,lj", CASES)
def test_async_covariance_matches_quadrature(dt, tau, xi, li, lj,
                                             oscillatory_oracle):
    m = CorrelationModel(lag=tau, width=xi, exp_weight=0.6)
    k = AsyncKernel(li, lj)
    closed = async_covariance(m, k, dt)
    oracle = oscillatory_oracle(0.6, xi, tau, li, lj, dt)
    assert closed == pytest.approx(oracle, rel=2e-7, abs=1e-12)


def test_async_covariance_delta_kernel_against_time_domain_integral():
    # smoothing makes the lagged delta regular, so the increment covariance
    # equals the triangle-windowed integral of the smoothed correlation
    m = CorrelationModel(delta_weight=0.5, lag=3.0)
    k = AsyncKernel(1.0, 0.2)
    for dt in (0.5, 3.0, 12.0):
        pts = [p for p in (0.0, m.lag, -m.lag) if -dt < p < dt]
        oracle = quad(lambda s: (dt - abs(s)) * async_cross_corr(m, k, s),
                      -dt, dt, points=pts or None, limit=400)[0]
        assert async_covariance(m, k, dt) == pytest.approx(oracle, rel=1e-8)


def test_async_covariance_continuous_across_branch_point():
    m = CorrelationModel(lag=4.0, width=3.0, exp_weight=1.0)
    k = AsyncKernel(0.7, 0.3)
    eps = 1e-7
    below = async_covariance(m, k, 4.0 - eps)
    above = async_covariance(m, k, 4.0 + eps)
    assert below == pytest.approx(above, rel=1e-5)


def test_async_covariance_smooth_across_unit_rate_width():
    # lambda xi = 1 is a removable pole of the closed form: values on both
    # sides join smoothly (second difference O(h^2)) and agree with the
    # quadrature oracle at the pole itself
    xi = 5.0
    for lag, dt in ((1.0, 6.0), (4.0, 2.0), (-3.0, 8.0)):
        m = CorrelationModel(lag=lag, width=xi, exp_weight=1.0)

        def cov(y):
            return async_covariance(m, AsyncKernel(y / xi, 0.4), dt)

        mid = cov(1.0)
        for h in (1e-3, 1e-9):
            lo, hi = cov(1.0 - h), cov(1.0 + h)
            assert abs(hi - lo) <= 2.0 * h * abs(mid)
            assert abs(0.5 * (lo + hi) - mid) <= (h * h + 1e-14) * abs(mid)


def test_async_covariance_one_infinite_rate(oscillatory_oracle):
    m = CorrelationModel(lag=2.0, width=4.0, exp_weight=0.7)
    k = AsyncKernel(math.inf, 0.5)
    for dt in (1.0, 5.0):
        assert async_covariance(m, k, dt) == pytest.approx(
            oscillatory_oracle(0.7, 4.0, 2.0, math.inf, 0.5, dt), rel=1e-6)


def test_async_covariance_infinite_rate_is_the_large_rate_limit():
    xi = 4.0
    dt = np.array([0.5, 2.0, 3.0, 9.0])
    for model in (CorrelationModel(lag=3.0, width=xi, exp_weight=0.7),
                  CorrelationModel(lag=-3.0, width=xi, exp_weight=0.7,
                                   delta_weight=0.2),
                  CorrelationModel(lag=2.0, delta_weight=0.5)):
        for lj in (0.3, 1.0 / xi, math.inf):
            limit = async_covariance(model, AsyncKernel(math.inf, lj), dt)
            assert np.all(np.isfinite(limit))
            mirror = async_covariance(model, AsyncKernel(lj, math.inf), dt)
            for rate, rel in ((1e6 / xi, 1e-5), (1e9 / xi, 1e-8)):
                np.testing.assert_allclose(
                    async_covariance(model, AsyncKernel(rate, lj), dt),
                    limit, rtol=rel, atol=rel * np.max(np.abs(limit)))
                np.testing.assert_allclose(
                    async_covariance(model, AsyncKernel(lj, rate), dt),
                    mirror, rtol=rel, atol=rel * np.max(np.abs(mirror)))


def test_async_theory_finite_at_long_horizons():
    # horizons and lags of 1000 kernel widths with a slow rate: no factor of
    # the closed forms may overflow into inf * 0
    xi, lam = 0.5, 0.02
    k = AsyncKernel(lam, lam)
    cross = CorrelationModel(width=xi, exp_weight=1.0)
    tau = np.array([400.0, 1000.0])
    r = lam / 2.0
    slow = np.exp(-lam * tau)
    # plain two-exponential form, exact away from lambda xi = 1
    expected = r * (slow / (2.0 * (1.0 + lam * xi))
                    + (slow - np.exp(-tau / xi)) / (2.0 * (1.0 - lam * xi))
                    + np.exp(-tau / xi) / (2.0 * (1.0 + lam * xi)))
    np.testing.assert_allclose(async_cross_corr(cross, k, tau), expected,
                               rtol=1e-12)
    auto = CorrelationModel(delta_weight=1.0, width=xi, exp_weight=-0.3)
    var = async_variance(auto, lam, np.array([400.0, 500.0]))
    assert np.all(np.isfinite(var))
    assert var[1] - var[0] == pytest.approx(0.7 * 100.0, rel=1e-3)
    assert np.all(async_covariance(cross, k, np.array([1.0, 500.0])) > 0)


def test_async_covariance_suppresses_and_recovers():
    m = CorrelationModel(delta_weight=0.5)
    sync = sync_covariance(m, 10.0)
    sampled = async_covariance(m, AsyncKernel(0.5, 0.5), 10.0)
    nearly_sync = async_covariance(m, AsyncKernel(200.0, 200.0), 10.0)
    assert sampled < sync
    assert nearly_sync == pytest.approx(sync, rel=1e-2)


def test_flat_spectrum_variance_is_unchanged():
    m = CorrelationModel(delta_weight=1.3)
    dt = np.array([0.5, 2.0, 40.0])
    for lam in (0.1, 1.0, 10.0):
        np.testing.assert_allclose(async_variance(m, lam, dt), 1.3 * dt,
                                   rtol=1e-12)


def test_async_variance_consistent_with_autocorr():
    # integrating the sampled autocorrelation against the triangle window
    # must reproduce the sampled variance
    m = CorrelationModel(delta_weight=1.0, width=6.0, exp_weight=0.8)
    lam = 0.4
    delta_w, _ = async_autocorr(m, lam, 0.0)
    for dt in (1.0, 5.0, 20.0):
        reg = quad(lambda s: (dt - abs(s)) * async_autocorr(m, lam, s)[1],
                   -dt, dt, limit=400)[0]
        assert async_variance(m, lam, dt) == pytest.approx(
            delta_w * dt + reg, rel=1e-9)


def test_async_rho_monotone_for_brownian_pair():
    pair = ModelPair(cross=CorrelationModel(delta_weight=0.5),
                     auto_i=CorrelationModel(delta_weight=1.0),
                     auto_j=CorrelationModel(delta_weight=1.0))
    k = AsyncKernel(1.0, 1.0)
    dt = np.array([0.5, 1.0, 5.0, 20.0, 200.0])
    rho = async_rho(pair, k, dt)
    assert np.all(np.diff(rho) > 0)
    assert rho[-1] == pytest.approx(0.5, abs=5e-3)
    # printed equal-rate closed form
    lam = 1.0
    expected = 0.5 * (1.0 + np.expm1(-lam * dt) / (lam * dt))
    np.testing.assert_allclose(rho, expected, rtol=1e-12)


def test_async_rho_synchronous_kernel_matches_sync_rho():
    pair = ModelPair(cross=CorrelationModel(width=4.0, exp_weight=0.3),
                     auto_i=CorrelationModel(delta_weight=1.0),
                     auto_j=CorrelationModel(delta_weight=1.0))
    dt = np.array([1.0, 10.0])
    np.testing.assert_allclose(
        async_rho(pair, AsyncKernel(math.inf, math.inf), dt),
        sync_rho(pair, dt), rtol=1e-14)


def test_discrete_kernel_continuum_limit():
    li, lj = 0.3, 0.08
    T = 200000
    n = 40
    omega = 2.0 * math.pi * n / T
    step = 0.01  # rates per step Lambda = lambda * step, frequency scaled too
    approx = discrete_kernel(li * step, lj * step, n, T)
    exact = lorentz_kernel(li, lj, omega / step)
    assert approx == pytest.approx(exact, rel=5e-3)


def test_discrete_kernel_unit_at_zero_and_hermitian():
    T = 64
    k = discrete_kernel(0.3, 0.9, np.arange(T), T)
    assert k[0] == pytest.approx(1.0)
    np.testing.assert_allclose(k[1:][::-1], np.conj(k[1:]), rtol=1e-12)


def _two_factor_kernel(li, lj, n, T):
    """The kernel as it was first written: an i factor and a j factor, each
    built from its own complex exponential."""
    theta = 2.0 * math.pi * n / T
    fi = (np.ones_like(theta, dtype=complex) if math.isinf(li)
          else -math.expm1(-li) / (1.0 - np.exp(-li - 1j * theta)))
    fj = (np.ones_like(theta, dtype=complex) if math.isinf(lj)
          else -math.expm1(-lj) / (1.0 - np.exp(-lj + 1j * theta)))
    return fi * fj


@pytest.mark.parametrize("li, lj", [(0.3, 0.3), (1.0, 1.0), (1e-3, 1e-3),
                                    (0.3, 0.9), (1.0, 0.2), (math.inf, 0.5),
                                    (2.0, math.inf), (math.inf, math.inf)])
def test_discrete_kernel_matches_the_two_factor_formula(li, lj):
    T = 20001
    k = discrete_kernel(li, lj, np.arange(T), T)
    want = _two_factor_kernel(li, lj, np.arange(T), T)
    assert np.max(np.abs(k - want) / np.abs(want)) <= 4e-16
    if li == lj:  # |f|^2: exactly real
        assert not np.any(k.imag)


@pytest.mark.parametrize("li, lj", [(1.0, 0.2), (0.8, 0.15), (1.0, 1.0)])
def test_discrete_kernel_bins_do_not_depend_on_the_array_length(li, lj):
    # the full 20 000 bins take 320 KB, past numpy's 256 KiB temporary
    # elision threshold; bins 0..T//2 and a short prefix take less
    T = 20000
    full = discrete_kernel(li, lj, np.arange(T), T)
    for size in (T // 2 + 1, 513):
        part = discrete_kernel(li, lj, np.arange(size), T)
        assert part.tobytes() == full[:size].tobytes()


def test_rate_validation():
    with pytest.raises(DataError):
        async_variance(CorrelationModel(delta_weight=1.0), -1.0, 1.0)
    with pytest.raises(DataError):
        discrete_kernel(0.0, 1.0, 0, 16)
    with pytest.raises(DataError):
        async_covariance(CorrelationModel(delta_weight=1.0),
                         AsyncKernel(1.0, 1.0), -2.0)


_SPECTRUM = SpectrumEstimate(T=64, n_days=1, s_n=np.ones(33, dtype=complex),
                             grid_dt=1.0)
_CORRELOGRAM = Correlogram(lag_grid=np.arange(-10.0, 11.0),
                           values=np.exp(-np.abs(np.arange(-10.0, 11.0))),
                           stderr=np.full(21, np.nan), n_days=1,
                           delta_mass=1.0)


@pytest.mark.parametrize("entry", [
    pytest.param(lambda lam: AsyncKernel(lam, 1.0), id="AsyncKernel_i"),
    pytest.param(lambda lam: AsyncKernel(1.0, lam), id="AsyncKernel_j"),
    pytest.param(lambda lam: async_variance(
        CorrelationModel(delta_weight=1.0), lam, 1.0), id="async_variance"),
    pytest.param(lambda lam: discrete_kernel(1.0, lam, 0, 16),
                 id="discrete_kernel"),
    pytest.param(lambda lam: inverse_filter(_SPECTRUM, lam, 1.0),
                 id="inverse_filter"),
    pytest.param(lambda lam: apply_filter(_SPECTRUM, 1.0, lam,
                                          FilterSpec("wiener", 2.0)),
                 id="apply_filter"),
    pytest.param(lambda lam: auto_filter(_SPECTRUM, lam, 1.0),
                 id="auto_filter"),
    pytest.param(lambda lam: estimate_snr(_SPECTRUM, 1.0, lam),
                 id="estimate_snr"),
    pytest.param(lambda lam: fit_cross_async(_CORRELOGRAM, lam, 1.0),
                 id="fit_cross_async"),
    pytest.param(lambda lam: fit_auto_async(_CORRELOGRAM, lam),
                 id="fit_auto_async"),
])
@pytest.mark.parametrize("lam", [math.nan, 0.0, -1.0])
def test_every_entry_point_refuses_a_rate_that_is_not_positive(entry, lam):
    # these said "sampling rate must be > 0", "discrete_kernel rates must
    # be > 0" or "AsyncKernel.lambda_i must be > 0"
    with pytest.raises(DataError, match=r"^sampling rates must be > 0$"):
        entry(lam)


def test_documented_folded_auto_kernel_is_its_delta():
    # a zero-width exponential of weight -0.6 on a unit delta is a delta of
    # weight 0.4; the pair was refused as "auto_i spectrum is not
    # nonnegative", since the negative weight was counted twice
    cross = "cross.c=0.3\ncross.tau=1\ncross.xi=5\nauto_j.a=1\n"
    folded = parse_model_text(cross + "auto_i.a=1\nauto_i.b=-0.6\n"
                              "auto_i.xi=0\n")
    plain = parse_model_text(cross + "auto_i.a=0.4\n")
    assert folded == plain
    dt = np.array([1e-3, 0.5, 1.0, 3.0, 40.0])
    k = AsyncKernel(1.0, 0.2)
    got, want = ([sync_covariance(p.auto_i, dt),
                  async_covariance(p.auto_i, k, dt),
                  async_variance(p.auto_i, 1.0, dt),
                  async_cross_corr(p.auto_i, k, dt - 1.0),
                  async_rho(p, k, dt),
                  *_circulant_factors.__wrapped__(p, 1.0, 512)]
                 for p in (folded, plain))
    for x, y in zip(got, want):
        assert x.tobytes() == y.tobytes()


_PAIR = ModelPair(cross=CorrelationModel(lag=2.0, width=10.0, exp_weight=0.4),
                  auto_i=CorrelationModel(delta_weight=1.0),
                  auto_j=CorrelationModel(delta_weight=1.0))


@pytest.mark.parametrize("theory", [
    lambda x: sync_covariance(_PAIR.cross, x),
    lambda x: sync_rho(_PAIR, x),
    lambda x: async_covariance(_PAIR.cross, AsyncKernel(1.0, 0.2), x),
    lambda x: async_variance(_PAIR.auto_i, 1.0, x),
    lambda x: async_rho(_PAIR, AsyncKernel(1.0, 0.2), x),
    lambda x: async_rho(_PAIR, AsyncKernel(math.inf, math.inf), x),
    lambda x: async_cross_corr(_PAIR.cross, AsyncKernel(1.0, 0.2), x),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_theory_rejects_non_finite_horizons_and_lags(theory, bad):
    # NaN and inf passed the sign tests and came out as NaN values
    with pytest.raises(DataError, match=f"requires finite .*got {bad:g}"):
        theory(np.array([5.0, bad]))
    with pytest.raises(DataError, match=f"got {bad:g}"):
        theory(bad)


@pytest.mark.parametrize("model", [
    CorrelationModel(lag=0.0, width=10.0, exp_weight=0.4),
    CorrelationModel(lag=2.0, width=10.0, exp_weight=0.4, delta_weight=0.1),
    CorrelationModel(lag=-3.0, width=10.0, exp_weight=-0.4),
    CorrelationModel(lag=0.004, delta_weight=0.7),
])
@pytest.mark.parametrize("li, lj", [(1.0, 0.2), (0.1, 0.1), (1.0, 1.0),
                                    (1000.0, 0.3)])
def test_async_covariance_keeps_its_digits_at_small_horizons(
        async_covariance_oracle, model, li, lj):
    # the second difference of H lost digits like eps (xi/dt)^2: 1.5e-7
    # relative at dt/xi = 5e-5 for rates 1 / 0.2
    scale = model.width or 1.0 / min(li, lj)
    dt = scale * np.array([0.5, 0.05, 0.04, 0.0399, 5e-3, 5e-4, 5e-5, 1e-9])
    got = async_covariance(model, AsyncKernel(li, lj), dt)
    want = [async_covariance_oracle(model, li, lj, x) for x in dt]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
