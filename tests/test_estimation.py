import math

import numpy as np
import pytest
import scipy.fft

from epps.errors import DataError
from epps.sampling import SteppedSeries, rng_stream
from epps.estimation import (estimate_rate, epps_curve, correlogram,
                             estimate_spectrum, write_epps_csv, read_epps_csv,
                             write_correlogram_csv, read_correlogram_csv,
                             write_spectrum_csv, read_spectrum_csv,
                             SpectrumEstimate)


def make_series(levels, grid_dt=1.0):
    levels = np.asarray(levels, dtype=float)
    return SteppedSeries(grid_dt=grid_dt, start=0.0, levels=levels,
                         tick_times=np.arange(levels.size, dtype=float))


def gaussian_days(n_days, T, rho=0.6, seed=0):
    rng = rng_stream(seed, 50)
    days_i, days_j = [], []
    for _ in range(n_days):
        z = rng.standard_normal((2, T))
        di = z[0]
        dj = rho * z[0] + math.sqrt(1.0 - rho * rho) * z[1]
        days_i.append(make_series(np.concatenate([[0.0], np.cumsum(di)])))
        days_j.append(make_series(np.concatenate([[0.0], np.cumsum(dj)])))
    return days_i, days_j


def test_estimate_rate_count_over_length():
    est = estimate_rate(np.arange(50, dtype=float), 1000.0)
    assert est.value == pytest.approx(0.05)
    assert est.stderr == pytest.approx(math.sqrt(50) / 1000.0)


def test_estimate_rate_rejects_degenerate_input():
    with pytest.raises(DataError):
        estimate_rate([], 100.0)
    with pytest.raises(DataError):
        estimate_rate([1.0], 0.0)


def test_estimate_rate_consistent_on_poisson_draws():
    rng = rng_stream(1, 51)
    ticks = np.cumsum(rng.exponential(2.0, size=4000))
    est = estimate_rate(ticks, ticks[-1])
    assert abs(est.value - 0.5) < 4.0 * est.stderr


def test_epps_curve_self_correlation_is_one():
    days, _ = gaussian_days(3, 500, seed=2)
    curve = epps_curve(days, days, [1.0, 5.0, 10.0])
    np.testing.assert_allclose(curve.rho, 1.0, atol=1e-12)


def test_epps_curve_recovers_gaussian_correlation():
    days_i, days_j = gaussian_days(8, 2000, rho=0.6, seed=3)
    curve = epps_curve(days_i, days_j, [1.0, 4.0])
    for r, e in zip(curve.rho, curve.stderr):
        assert abs(r - 0.6) < 4.0 * e


def test_epps_curve_independent_series_near_zero():
    days_i, days_j = gaussian_days(6, 1500, rho=0.0, seed=4)
    curve = epps_curve(days_i, days_j, [1.0])
    assert abs(curve.rho[0]) < 5.0 * curve.stderr[0]


def test_epps_curve_flags_missing_points_with_nan():
    days_i, days_j = gaussian_days(1, 8, seed=5)
    curve = epps_curve(days_i, days_j, [1.0, 8.0])
    assert np.isfinite(curve.rho[0])
    # an 8-step horizon leaves a single return pair: flagged, not fabricated
    assert np.isnan(curve.rho[1]) and np.isnan(curve.stderr[1])


def test_epps_curve_rejects_off_grid_horizons():
    days_i, days_j = gaussian_days(1, 50, seed=6)
    with pytest.raises(DataError):
        epps_curve(days_i, days_j, [1.5])
    with pytest.raises(DataError):
        epps_curve(days_i, days_j, [-1.0])


def test_correlogram_auto_splits_unit_delta_mass():
    days, _ = gaussian_days(4, 1000, seed=7)
    cg = correlogram(days, days, max_lag=5.0)
    k0 = cg.lag_grid.size // 2
    assert cg.lag_grid[k0] == 0.0
    assert cg.values[k0] == 0.0
    # normalized increments make the zero-lag mass exactly 1 per day
    assert cg.delta_mass == pytest.approx(1.0, abs=1e-12)
    assert cg.n_days == 4


def test_correlogram_cross_keeps_zero_lag_value():
    days_i, days_j = gaussian_days(4, 1000, rho=0.5, seed=8)
    cg = correlogram(days_i, days_j, max_lag=5.0)
    k0 = cg.lag_grid.size // 2
    assert cg.delta_mass is None
    assert abs(cg.values[k0] - 0.5) < 5.0 * cg.stderr[k0]


def test_correlogram_white_noise_off_lag_bins_vanish():
    days, _ = gaussian_days(6, 2000, seed=9)
    cg = correlogram(days, days, max_lag=4.0)
    off = cg.lag_grid != 0.0
    assert np.all(np.abs(cg.values[off]) < 5.0 * cg.stderr[off])


def direct_lagged_means(x, y, n_lags):
    n = x.size
    return np.array([np.mean(x[max(0, -k):n - max(0, k)]
                             * y[max(0, k):n + min(0, k)])
                     for k in range(-n_lags, n_lags + 1)])


def test_correlogram_lagged_mean_against_direct_loop():
    # 64 increments per day; lags 1, 3, 7 and n - 1 (the last lag is a
    # single product), one day and several, auto and cross, raw and
    # normalized
    rng = rng_stream(3, 52)
    z = rng.standard_normal((3, 2, 64))
    for n_days in (1, 3):
        days_i = [make_series(np.concatenate([[0.0], np.cumsum(d[0])]))
                  for d in z[:n_days]]
        days_j = [make_series(np.concatenate([[0.0], np.cumsum(d[1])]))
                  for d in z[:n_days]]
        for n_lags in (1, 3, 7, 63):
            for normalize in (False, True):
                for dj in (days_i, days_j):
                    cg = correlogram(days_i, dj, max_lag=float(n_lags),
                                     normalize=normalize)
                    rows = []
                    for si, sj in zip(days_i, dj):
                        x, y = si.increments, sj.increments
                        if normalize:
                            x = (x - x.mean()) / x.std()
                            y = (y - y.mean()) / y.std()
                        rows.append(direct_lagged_means(x, y, n_lags))
                    rows = np.array(rows)
                    want = rows.mean(axis=0)
                    if dj is days_i:
                        assert cg.delta_mass == pytest.approx(
                            want[n_lags], abs=1e-14)
                        want[n_lags] = 0.0
                    else:
                        assert cg.delta_mass is None
                    np.testing.assert_allclose(cg.values, want, rtol=0,
                                               atol=1e-14)
                    if n_days > 1:
                        np.testing.assert_allclose(
                            cg.stderr, rows.std(axis=0, ddof=1)
                            / math.sqrt(n_days), rtol=0, atol=1e-14)
                    else:
                        assert np.all(np.isnan(cg.stderr))


def test_correlogram_argument_validation():
    days, _ = gaussian_days(2, 40, seed=10)
    with pytest.raises(DataError):
        correlogram(days, days, max_lag=0.2)
    with pytest.raises(DataError):
        correlogram(days, days, max_lag=60.0)
    short = [make_series(np.zeros(41))]
    with pytest.raises(DataError):
        correlogram(short, short, max_lag=2.0)  # zero-variance day


def test_spectrum_parseval():
    rng = rng_stream(4, 53)
    x = rng.standard_normal(256)
    spec = estimate_spectrum([x], [x])
    assert spec.s_n.sum().real / spec.T == pytest.approx(np.mean(x * x),
                                                         rel=1e-10)
    assert abs(spec.s_n.sum().imag) < 1e-10


def test_spectrum_dft_round_trip_recovers_circular_correlogram():
    rng = rng_stream(5, 54)
    x = rng.standard_normal(128)
    y = rng.standard_normal(128)
    spec = estimate_spectrum([x], [y])
    gamma = np.fft.fft(spec.s_n) / spec.T
    assert np.max(np.abs(gamma.imag)) < 1e-12
    # gamma(k) is the circular lagged mean of x against y
    for k in (0, 1, 5, 127):
        direct = np.mean(x * np.roll(y, -k))
        assert gamma[k].real == pytest.approx(direct, abs=1e-12)


def test_spectrum_hermitian_pairing():
    rng = rng_stream(6, 55)
    spec = estimate_spectrum([rng.standard_normal(100)],
                             [rng.standard_normal(100)])
    np.testing.assert_allclose(spec.s_n[1:][::-1], np.conj(spec.s_n[1:]),
                               rtol=1e-12, atol=1e-12)


def test_spectrum_white_noise_is_flat():
    rng = rng_stream(7, 56)
    days = [rng.standard_normal(512) for _ in range(200)]
    spec = estimate_spectrum(days, days)
    np.testing.assert_allclose(spec.s_n.real, 1.0, atol=0.35)
    assert np.mean(spec.s_n.real) == pytest.approx(1.0, abs=0.02)


def test_spectrum_rejects_mismatched_days():
    with pytest.raises(DataError):
        estimate_spectrum([np.zeros(16)], [np.zeros(16), np.zeros(16)])
    with pytest.raises(DataError):
        estimate_spectrum([np.zeros(16)], [np.zeros(17)])
    with pytest.raises(DataError):
        estimate_spectrum([np.zeros(16)], [np.zeros(16)], T=15)
    with pytest.raises(DataError):
        estimate_spectrum([], [])
    with pytest.raises(DataError):
        estimate_spectrum([np.zeros(0)], [np.zeros(0)])


def per_day_fft_spectrum(days_i, days_j):
    """The periodogram by its definition: mean over days of
    fft(dx_i) conj(fft(dx_j)) / T, with full complex FFTs."""
    T = len(days_i[0])
    acc = np.zeros(T, dtype=complex)
    for di, dj in zip(days_i, days_j):
        acc += np.fft.fft(di) * np.conj(np.fft.fft(dj)) / T
    return acc / len(days_i)


@pytest.mark.parametrize("T", [1, 2, 7, 64, 101])
@pytest.mark.parametrize("n_days", [1, 3])
@pytest.mark.parametrize("pairing", ["cross", "auto", "equal_copies"])
def test_spectrum_matches_per_day_fft_definition(T, n_days, pairing,
                                                 monkeypatch):
    rng = rng_stream(T, 57, n_days)
    days_i = [rng.standard_normal(T) for _ in range(n_days)]
    if pairing == "cross":
        days_j = [rng.standard_normal(T) for _ in range(n_days)]
    elif pairing == "auto":
        days_j = days_i
    else:  # equal values in distinct arrays: not recognised as an auto pair
        days_j = [d.copy() for d in days_i]
    rfft_calls = []
    rfft = scipy.fft.rfft

    def counting_rfft(*args, **kwargs):
        rfft_calls.append(np.shape(args[0]))
        return rfft(*args, **kwargs)

    monkeypatch.setattr(scipy.fft, "rfft", counting_rfft)
    spec = estimate_spectrum(days_i, days_j)
    assert rfft_calls == [(T,)] * n_days * (1 if pairing == "auto" else 2)
    expected = per_day_fft_spectrum(days_i, days_j)
    assert spec.T == T and spec.n_days == n_days
    np.testing.assert_allclose(spec.s_n, expected, rtol=1e-13)
    # Hermitian pairing is exact, with real bins at 0 and T/2
    n = np.arange(1, T)
    np.testing.assert_array_equal(spec.s_n[T - n], np.conj(spec.s_n[n]))
    assert spec.s_n[0].imag == 0.0
    assert spec.s_n[T // 2].imag == 0.0 or T % 2
    if pairing == "auto":
        assert np.all(spec.s_n.imag == 0.0)


def test_epps_csv_round_trip(tmp_path):
    days_i, days_j = gaussian_days(3, 200, seed=11)
    curve = epps_curve(days_i, days_j, [1.0, 2.0, 4.0])
    f = tmp_path / "epps.csv"
    write_epps_csv(curve, f)
    back = read_epps_csv(f)
    np.testing.assert_allclose(back.dt_grid, curve.dt_grid)
    np.testing.assert_allclose(back.rho, curve.rho)
    np.testing.assert_allclose(back.stderr, curve.stderr)


def test_correlogram_csv_round_trip(tmp_path):
    days, _ = gaussian_days(3, 200, seed=12)
    cg = correlogram(days, days, max_lag=4.0)
    f = tmp_path / "cg.csv"
    write_correlogram_csv(cg, f)
    back = read_correlogram_csv(f)
    np.testing.assert_allclose(back.lag_grid, cg.lag_grid)
    np.testing.assert_allclose(back.values, cg.values)
    assert back.delta_mass == pytest.approx(cg.delta_mass)
    assert back.n_days == 3


def test_spectrum_csv_round_trip(tmp_path):
    rng = rng_stream(8, 57)
    spec = estimate_spectrum([rng.standard_normal(64)],
                             [rng.standard_normal(64)])
    spec = type(spec)(T=spec.T, n_days=spec.n_days, s_n=spec.s_n,
                      rate_i=0.5, rate_j=0.1)
    f = tmp_path / "spec.csv"
    write_spectrum_csv(spec, f)
    back = read_spectrum_csv(f)
    assert back.T == 64 and back.n_days == 1
    assert back.rate_i == pytest.approx(0.5)
    assert back.rate_j == pytest.approx(0.1)
    np.testing.assert_allclose(back.s_n, spec.s_n, rtol=1e-15)


def test_spectrum_csv_bytes_match_per_row_format(tmp_path):
    rng = rng_stream(8, 58)
    s_n = rng.standard_normal(20000) + 1j * rng.standard_normal(20000)
    s_n[:8] = [complex(math.nan, 1.0), complex(math.inf, -math.inf),
               complex(-0.0, 0.0), complex(1e-300, -1e-300),
               complex(5e-324, 1.7976931348623157e308), complex(0.1, -0.0),
               complex(-math.nan, math.nan), complex(123456789.0, 1.0 / 3)]
    spec = SpectrumEstimate(T=20000, n_days=2, s_n=s_n, rate_i=0.5)
    f = tmp_path / "spec.csv"
    write_spectrum_csv(spec, f)
    want = "# n_days=2\n# rate_i=0.5\nn,re,im\n" + "".join(
        f"{n},{s.real:.17g},{s.imag:.17g}\n" for n, s in enumerate(s_n))
    assert f.read_bytes() == want.encode()


def test_read_table_rejects_malformed_files(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("wrong,header\n1,2\n")
    with pytest.raises(DataError):
        read_epps_csv(f)
    f.write_text("dt,rho,stderr\n1,abc,0\n")
    with pytest.raises(DataError):
        read_epps_csv(f)
    f.write_text("dt,rho,stderr\n1,2\n")
    with pytest.raises(DataError):
        read_epps_csv(f)
