import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft

from epps import estimation
from epps.errors import DataError
from epps.sampling import SteppedSeries, rng_stream
from epps.estimation import (epps_curve, correlogram, estimate_spectrum,
                             write_epps_csv, read_epps_csv,
                             write_correlogram_csv, read_correlogram_csv,
                             write_spectrum_csv, read_spectrum_csv,
                             SpectrumEstimate, Correlogram)


def make_series(levels, grid_dt=1.0):
    levels = np.asarray(levels, dtype=float)
    return SteppedSeries(grid_dt=grid_dt, increments=np.diff(levels),
                         n_ticks=levels.size)


def levels_from_zero(series):
    """A stepped series' levels rebuilt from 0, as `epps_curve` does."""
    return np.concatenate(([0.0], np.cumsum(series.increments)))


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


def epps_curve_reference(series_i, series_j, dt_grid):
    """Per-day `np.corrcoef` loop: pooled returns for rho, the spread of
    per-day coefficients for stderr."""
    rho = np.full(len(dt_grid), np.nan)
    err = np.full(len(dt_grid), np.nan)
    for a, dt in enumerate(dt_grid):
        m = int(round(dt / series_i[0].grid_dt))
        pooled_i, pooled_j, per_day = [], [], []
        for si, sj in zip(series_i, series_j):
            ri, rj = (np.diff(levels_from_zero(s)[::m]) for s in (si, sj))
            pooled_i.append(ri)
            pooled_j.append(rj)
            if ri.size >= 2 and np.std(ri) > 0 and np.std(rj) > 0:
                per_day.append(np.corrcoef(ri, rj)[0, 1])
        ri = np.concatenate(pooled_i)
        rj = np.concatenate(pooled_j)
        if ri.size < 2 or np.std(ri) == 0 or np.std(rj) == 0:
            continue
        rho[a] = np.corrcoef(ri, rj)[0, 1]
        if len(per_day) >= 2:
            err[a] = np.std(per_day, ddof=1) / math.sqrt(len(per_day))
    return rho, err


def test_epps_curve_matches_per_day_corrcoef_reference():
    # unequal days, a large drift in asset i (per-day centring keeps its
    # digits), a day on which asset j never moves, a horizon (150) that
    # leaves some days one return or none, and one (400) longer than every day
    rng = rng_stream(8, 52)
    days_i, days_j = [], []
    for T in (300, 157, 40, 120, 233):
        z = rng.standard_normal((2, T))
        days_i.append(make_series(np.concatenate(
            [[5.0], 5.0 + np.cumsum(50.0 + z[0])])))
        dj = 0.4 * z[0] + z[1] if T != 120 else np.zeros(T)
        days_j.append(make_series(np.concatenate([[3.7], 3.7 + np.cumsum(dj)])))
    dt_grid = [1.0, 2.0, 5.0, 30.0, 150.0, 400.0]
    curve = epps_curve(days_i, days_j, dt_grid)
    rho, err = epps_curve_reference(days_i, days_j, dt_grid)
    assert np.isnan(rho[-1]) and np.isnan(err[-2])
    np.testing.assert_allclose(curve.rho, rho, rtol=0, atol=1e-13)
    np.testing.assert_allclose(curve.stderr, err, rtol=0, atol=1e-13)
    # the flat day counts in the pooled returns but adds no coefficient
    flat = epps_curve(days_i[3:4] * 2, days_j[3:4] * 2, [1.0])
    assert np.isnan(flat.rho[0]) and np.isnan(flat.stderr[0])


EPPS_CURVE_BYTES = """
import sys
import numpy as np
from epps.estimation import epps_curve
from epps.sampling import SteppedSeries
for seed in (0, 1, 3):
    z = np.random.default_rng(seed).standard_normal((2, 20000))
    levels = np.cumsum(np.hstack([np.zeros((2, 1)), z]), axis=1)
    days = [[SteppedSeries(grid_dt=1.0, increments=np.diff(lv),
                           n_ticks=lv.size)]
            for lv in (levels[0], levels[0] + 0.3 * levels[1])]
    curve = epps_curve(days[0], days[1], [1.0, 2.0, 5.0])
    sys.stdout.write(curve.rho.tobytes().hex())
"""


def test_epps_curve_does_not_depend_on_the_blas_thread_count():
    # one day of 20 000 returns, three times: a BLAS dot product of that
    # length is split across threads, which changes its rounding
    src = os.path.dirname(os.path.dirname(estimation.__file__))
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        out.append(subprocess.run([sys.executable, "-c", EPPS_CURVE_BYTES],
                                  env=env, capture_output=True, text=True,
                                  check=True).stdout)
    assert out[0] and out[0] == out[1]


def test_epps_curve_rejects_off_grid_horizons():
    days_i, days_j = gaussian_days(1, 50, seed=6)
    with pytest.raises(DataError):
        epps_curve(days_i, days_j, [1.5])
    with pytest.raises(DataError):
        epps_curve(days_i, days_j, [-1.0])
    # a horizon that rounds to 0 steps (it once ended in numpy's "slice step
    # cannot be zero"), one that is no number, and one whose step count would
    # wrap to a negative int64
    for bad in (1e-12, math.nan, 1e19):
        with pytest.raises(DataError, match="positive multiple of the grid"):
            epps_curve(days_i, days_j, [bad, 1.0])


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


def test_correlogram_direct_sums_match_the_fft_path(monkeypatch):
    # each window (1 lag, the cutoff, one lag above it) taken once by the
    # direct sums and once by the FFT, at three day lengths, auto and
    # cross, raw and normalized
    cut = estimation._DIRECT_MAX_LAGS
    for n in (64, 2000, 39990):
        z = rng_stream(4, n).standard_normal((3, 2, n))
        days_i = [make_series(np.concatenate([[0.0], np.cumsum(d[0])]))
                  for d in z]
        days_j = [make_series(np.concatenate([[0.0], np.cumsum(d[1])]))
                  for d in z]
        for n_lags in (1, cut, cut + 1):
            for normalize in (False, True):
                for dj in (days_i, days_j):
                    got = {}
                    for path, limit in (("direct", n_lags), ("fft", 0)):
                        monkeypatch.setattr(estimation, "_DIRECT_MAX_LAGS",
                                            limit)
                        got[path] = correlogram(days_i, dj, float(n_lags),
                                                normalize=normalize)
                    direct, fft = got["direct"], got["fft"]
                    for field in ("values", "stderr"):
                        np.testing.assert_allclose(
                            getattr(direct, field), getattr(fft, field),
                            rtol=0, atol=1e-14)
                    if dj is days_i:
                        assert direct.delta_mass == pytest.approx(
                            fft.delta_mass, rel=0, abs=1e-14)
                    else:
                        assert direct.delta_mass is fft.delta_mass is None


def test_correlogram_short_windows_take_no_fft(monkeypatch):
    def no_fft(*args, **kwargs):
        raise AssertionError("scipy.fft called")

    monkeypatch.setattr(scipy.fft, "rfft", no_fft)
    monkeypatch.setattr(scipy.fft, "irfft", no_fft)
    days_i, days_j = gaussian_days(2, 500, seed=11)
    cut = float(estimation._DIRECT_MAX_LAGS)
    for dj in (days_i, days_j):
        for max_lag in (1.0, cut):
            correlogram(days_i, dj, max_lag)
        # one lag more, and the 120 s default of `epps run` and `epps
        # estimate`, take the FFT
        for max_lag in (cut + 1.0, 120.0):
            with pytest.raises(AssertionError, match="scipy.fft called"):
                correlogram(days_i, dj, max_lag)


def assert_same_correlogram(got, want):
    for field in ("lag_grid", "values", "stderr"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    assert (got.n_days, got.delta_mass) == (want.n_days, want.delta_mass)


def unequal_days(lengths, seed):
    rng = rng_stream(seed, 59)
    return [[make_series(np.concatenate([[0.0], np.cumsum(
        rng.standard_normal(n))])) for n in lengths] for _ in range(2)]


@pytest.mark.parametrize("n_days", [1, 3, 9])
@pytest.mark.parametrize("n_lags", [10, 120])  # direct sums, FFT
@pytest.mark.parametrize("normalize", [True, False])
def test_correlogram_autos_equal_the_three_separate_calls(n_days, n_lags,
                                                          normalize):
    days_i, days_j = gaussian_days(n_days, 2000, seed=12)
    got = correlogram(days_i, days_j, float(n_lags), normalize=normalize,
                      autos=True)
    for cg, (a, b) in zip(got, ((days_i, days_j), (days_i, days_i),
                                (days_j, days_j))):
        assert_same_correlogram(cg, correlogram(a, b, float(n_lags),
                                                normalize=normalize))
    assert got[0].delta_mass is None
    assert got[1].delta_mass is not None and got[2].delta_mass is not None


def test_correlogram_autos_on_days_of_unequal_length():
    # blocks break where the length changes; every day keeps its own rows
    days_i, days_j = unequal_days([2000, 2000, 1500, 1500, 2000], seed=1)
    for n_lags in (10, 120):
        got = correlogram(days_i, days_j, float(n_lags), autos=True)
        for cg, (a, b) in zip(got, ((days_i, days_j), (days_i, days_i),
                                    (days_j, days_j))):
            assert_same_correlogram(cg, correlogram(a, b, float(n_lags)))
            assert cg.n_days == 5


def per_day_fft_lagged_means(days_i, days_j, n_lags):
    """Mean lagged products by one 1-D padded transform per series and
    day, as the FFT path computes each row."""
    rows = []
    for si, sj in zip(days_i, days_j):
        x = (si.increments - si.increments.mean()) / si.increments.std()
        y = (sj.increments - sj.increments.mean()) / sj.increments.std()
        n = x.size
        lags = np.arange(-n_lags, n_lags + 1)
        size = scipy.fft.next_fast_len(n + n_lags, real=True)
        fx = scipy.fft.rfft(x, size)
        fy = fx if sj is si else scipy.fft.rfft(y, size)
        rows.append(scipy.fft.irfft(fx.conj() * fy, size)[lags]
                    / (n - np.abs(lags)))
    return np.array(rows).mean(axis=0)


def test_correlogram_blocks_keep_the_bits_of_per_day_transforms():
    days_i, days_j = unequal_days([2000] * 9 + [1999] * 2, seed=2)
    cross, auto_i, auto_j = correlogram(days_i, days_j, 120.0, autos=True)
    assert cross.values.tobytes() == per_day_fft_lagged_means(
        days_i, days_j, 120).tobytes()
    for cg, days in ((auto_i, days_i), (auto_j, days_j)):
        want = per_day_fft_lagged_means(days, days, 120)
        assert cg.delta_mass == want[120]
        want[120] = 0.0
        assert cg.values.tobytes() == want.tobytes()


def test_correlogram_argument_validation():
    days, _ = gaussian_days(2, 40, seed=10)
    with pytest.raises(DataError):
        correlogram(days, days, max_lag=0.2)
    with pytest.raises(DataError):
        correlogram(days, days, max_lag=60.0)
    short = [make_series(np.zeros(41))]
    with pytest.raises(DataError):
        correlogram(short, short, max_lag=2.0)  # zero-variance day


def half_form_sum(spec):
    """sum_n S_n over all T bins, from the half spectrum: the interior bins
    1..(T-1)//2 stand for their mirror images conj(S_n) too."""
    n = np.arange(spec.s_n.size)
    mult = np.where((n == 0) | (2 * n == spec.T), 1.0, 2.0)
    return float(np.sum(mult * spec.s_n.real))


def test_spectrum_parseval():
    rng = rng_stream(4, 53)
    for T in (256, 255):
        x = rng.standard_normal(T)
        y = rng.standard_normal(T)
        auto = estimate_spectrum([x], [x])
        cross = estimate_spectrum([x], [y])
        assert half_form_sum(auto) / T == pytest.approx(np.mean(x * x),
                                                        rel=1e-10)
        assert half_form_sum(cross) / T == pytest.approx(np.mean(x * y),
                                                         rel=1e-10)


def test_spectrum_dft_round_trip_recovers_circular_correlogram():
    rng = rng_stream(5, 54)
    for T in (128, 127):
        x = rng.standard_normal(T)
        y = rng.standard_normal(T)
        spec = estimate_spectrum([x], [y])
        gamma = np.fft.irfft(spec.s_n.conj(), spec.T)
        # gamma(k) is the circular lagged mean of x against y
        for k in (0, 1, 5, T - 1):
            direct = np.mean(x * np.roll(y, -k))
            assert gamma[k] == pytest.approx(direct, abs=1e-12)


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
        estimate_spectrum([], [])
    with pytest.raises(DataError):
        estimate_spectrum([np.zeros(0)], [np.zeros(0)])


@pytest.mark.parametrize("n_days", [1, 3, 9])
@pytest.mark.parametrize("T", [64, 101])
def test_spectrum_autos_equal_the_three_separate_calls(n_days, T):
    rng = rng_stream(T, 60, n_days)
    days_i = [rng.standard_normal(T) for _ in range(n_days)]
    days_j = [rng.standard_normal(T) for _ in range(n_days)]
    got = estimate_spectrum(days_i, days_j, autos=True)
    for spec, (a, b) in zip(got, ((days_i, days_j), (days_i, days_i),
                                  (days_j, days_j))):
        want = estimate_spectrum(a, b)
        assert (spec.T, spec.n_days) == (want.T, want.n_days)
        assert spec.s_n.tobytes() == want.s_n.tobytes()
    # the same bits as one 1-D transform per series and day, summed in
    # day order
    half = np.zeros(T // 2 + 1, dtype=complex)
    for di, dj in zip(days_i, days_j):
        fi = scipy.fft.rfft(di)
        half += fi * scipy.fft.rfft(dj).conj()
    half /= n_days * T
    assert got[0].s_n.tobytes() == half.tobytes()


def test_spectrum_of_a_one_day_list_equals_that_of_its_array():
    # array_like days are converted to float arrays: a day given as a plain
    # list of floats, alone in its block, gives the array's bits
    day_i, day_j = rng_stream(4, 61).standard_normal((2, 64))
    got = estimate_spectrum([day_i.tolist()], [day_j.tolist()], autos=True)
    want = estimate_spectrum([day_i], [day_j], autos=True)
    for spec, same in zip(got, want):
        assert spec.s_n.tobytes() == same.s_n.tobytes()
    cross = estimate_spectrum([day_i.tolist()], [day_j.tolist()])
    assert cross.s_n.tobytes() == want[0].s_n.tobytes()


def test_spectrum_autos_reject_days_of_unequal_length():
    rng = rng_stream(9, 60)
    days = [rng.standard_normal(n) for n in (64, 64, 63)]
    with pytest.raises(DataError, match="day length 63 != T = 64"):
        estimate_spectrum(days, days[::-1], autos=True)


def per_day_fft_spectrum(days_i, days_j):
    """The periodogram by its definition: mean over days of
    fft(dx_i) conj(fft(dx_j)) / T, with full complex FFTs, at all T bins."""
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
    # one 2-D call per side for the block of days at a 5-smooth T, one
    # call per day and side at any other (7, 101)
    rows = n_days if scipy.fft.next_fast_len(T, real=True) == T else 1
    sides = 1 if pairing == "auto" else 2
    assert rfft_calls == [(rows, T)] * (n_days // rows) * sides
    expected = per_day_fft_spectrum(days_i, days_j)
    assert spec.T == T and spec.n_days == n_days
    # the half spectrum is the full one's bins 0..T//2, real at 0 and T/2
    assert spec.s_n.shape == (T // 2 + 1,)
    np.testing.assert_allclose(spec.s_n, expected[:T // 2 + 1], rtol=1e-13)
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
    # the fits weight the lags by the stderr: it comes back bit for bit
    assert back.stderr.tobytes() == cg.stderr.tobytes()
    assert back.delta_mass == pytest.approx(cg.delta_mass)
    assert back.n_days == 3


def test_correlogram_csv_writes_whole_number_lags_as_before(tmp_path):
    # lags are %.17g, where they were %.10g: on a whole-number step, such
    # as the default 1 s, the files keep their bytes
    f = tmp_path / "cg.csv"
    for step in (1.0, 2.0):
        lags = np.arange(-12, 13) * step
        cg = Correlogram(lag_grid=lags, values=np.exp(-np.abs(lags)),
                         stderr=np.full(lags.size, 0.01), n_days=2)
        write_correlogram_csv(cg, f)
        taus = [row.split(",")[0] for row in f.read_text().splitlines()[2:]]
        assert taus == ["%.10g" % tau for tau in lags]


def test_spectrum_csv_round_trip(tmp_path):
    rng = rng_stream(8, 57)
    f = tmp_path / "spec.csv"
    for T in (64, 65):  # the same 33 rows; only the T line tells them apart
        spec = estimate_spectrum([rng.standard_normal(T)],
                                 [rng.standard_normal(T)], grid_dt=0.1)
        write_spectrum_csv(spec, f)
        back = read_spectrum_csv(f)
        assert back.T == T and back.n_days == 1 and back.s_n.size == 33
        assert back.grid_dt == 0.1
        np.testing.assert_allclose(back.s_n, spec.s_n, rtol=1e-15)


def test_spectrum_csv_needs_its_length_and_half_the_bins(tmp_path):
    f = tmp_path / "spec.csv"
    rows = "# grid_dt=1\nn,re,im\n" + "".join(f"{n},1,0\n" for n in range(5))
    # a header line the reader does not know is still read
    f.write_text("# n_days=2\n# T=9\n# rate_i=0.5\n" + rows)
    back = read_spectrum_csv(f)
    assert (back.T, back.n_days, back.s_n.size) == (9, 2, 5)
    for header, match in (("", "older full-length"), ("# T=0\n", "T >= 1"),
                          ("# T=8.5\n", "T >= 1"), ("# T=nan\n", "T >= 1"),
                          ("# T=inf\n", "T >= 1"), ("# T=10\n", "6 bins"),
                          ("# T=7\n", "4 bins")):
        f.write_text(header + rows)
        with pytest.raises(DataError, match=match):
            read_spectrum_csv(f)


def test_spectrum_csv_needs_its_grid_step(tmp_path):
    # the filters read the step from the spectrum: a file without it was
    # filtered on a 1 s step whatever grid it came from
    f = tmp_path / "spec.csv"
    rows = "# T=8\nn,re,im\n" + "".join(f"{n},1,0\n" for n in range(5))
    for header in ("", "# grid_dt=0\n", "# grid_dt=-2\n", "# grid_dt=nan\n",
                   "# grid_dt=inf\n"):
        f.write_text(header + rows)
        with pytest.raises(DataError) as info:
            read_spectrum_csv(f)
        assert str(info.value).startswith(f"{f}: no '# grid_dt=' line")
    f.write_text("# grid_dt=2\n" + rows)
    assert read_spectrum_csv(f).grid_dt == 2.0


@pytest.mark.parametrize("grid_dt", [0.0, -1.0, math.nan, math.inf])
def test_a_spectrum_needs_a_finite_positive_grid_step(grid_dt):
    with pytest.raises(DataError, match="grid_dt must be finite and > 0"):
        SpectrumEstimate(T=8, n_days=1, s_n=np.ones(5), grid_dt=grid_dt)
    x = np.ones(8)
    with pytest.raises(DataError, match="grid_dt must be finite and > 0"):
        estimate_spectrum([x], [x], grid_dt=grid_dt)


def test_estimate_spectrum_keeps_its_grid_step():
    rng = rng_stream(8, 59)
    x, y = rng.standard_normal(16), rng.standard_normal(16)
    assert estimate_spectrum([x], [y]).grid_dt == 1.0
    spectra = estimate_spectrum([x], [y], autos=True, grid_dt=0.25)
    assert [s.grid_dt for s in spectra] == [0.25] * 3
    # the step changes no bin
    plain = estimate_spectrum([x], [y])
    assert spectra[0].s_n.tobytes() == plain.s_n.tobytes()


def test_spectrum_csv_rows_must_be_bins_0_to_half_t_in_order(tmp_path):
    f = tmp_path / "spec.csv"
    for ns in ([7] * 5, [0, 1, 2, 4, 3], [1, 2, 3, 4, 5], [0, 1, 2, 3, "nan"],
               [0, 1, 2, 3, 4.5]):
        f.write_text("# T=8\n# grid_dt=1\nn,re,im\n"
                     + "".join(f"{n},1,0\n" for n in ns))
        with pytest.raises(DataError, match=r"n column must read 0\.\.4"):
            read_spectrum_csv(f)


def test_spectrum_csv_bytes_match_per_row_format(tmp_path):
    rng = rng_stream(8, 58)
    s_n = rng.standard_normal(10001) + 1j * rng.standard_normal(10001)
    s_n[:8] = [complex(math.nan, 1.0), complex(math.inf, -math.inf),
               complex(-0.0, 0.0), complex(1e-300, -1e-300),
               complex(5e-324, 1.7976931348623157e308), complex(0.1, -0.0),
               complex(-math.nan, math.nan), complex(123456789.0, 1.0 / 3)]
    spec = SpectrumEstimate(T=20000, n_days=2, s_n=s_n, grid_dt=0.1)
    f = tmp_path / "spec.csv"
    write_spectrum_csv(spec, f)
    want = ("# n_days=2\n# T=20000\n# grid_dt=0.10000000000000001\n"
            "n,re,im\n") + "".join(
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


# Values whose text is easy to get wrong: NaN, both infinities, a negative
# zero, subnormals, and numbers that need all 17 digits.
AWKWARD = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-310, 0.1, 1.0 / 3,
           -123456789.0, 1.7976931348623157e308]


def test_epps_csv_bytes_match_per_row_format(tmp_path):
    dt = np.array([-0.0, 5e-324, 1e-310, 0.1, 1.0 / 3, 2.0, 7.5, 1e6, 1e300,
                   1.7976931348623157e308])
    curve = estimation.EppsCurve(dt_grid=dt, rho=np.array(AWKWARD),
                                 stderr=np.array(AWKWARD[::-1]))
    f = tmp_path / "epps.csv"
    write_epps_csv(curve, f)
    want = "dt,rho,stderr\n" + "".join(
        f"{t:.10g},{r:.17g},{e:.17g}\n"
        for t, r, e in zip(dt, AWKWARD, AWKWARD[::-1]))
    assert f.read_bytes() == want.encode()


@pytest.mark.parametrize("delta", [None, 0.75, -0.0, 5e-324, math.nan])
def test_correlogram_csv_bytes_match_per_row_format(delta, tmp_path):
    lags = np.arange(-4, 6) * 0.1  # 0.30000000000000004 and the like
    cg = estimation.Correlogram(lag_grid=lags, values=np.array(AWKWARD),
                                stderr=np.array(AWKWARD[::-1]), n_days=3,
                                delta_mass=delta)
    f = tmp_path / "cg.csv"
    write_correlogram_csv(cg, f)
    meta = "" if delta is None else f"# delta_mass={delta:.17g}\n"
    want = f"# n_days=3\n{meta}tau,value,stderr\n" + "".join(
        f"{t:.17g},{v:.17g},{e:.17g}\n"
        for t, v, e in zip(lags, AWKWARD, AWKWARD[::-1]))
    assert f.read_bytes() == want.encode()
    # %.10g wrote 0.3, and `epps fit` of the file moved
    assert read_correlogram_csv(f).lag_grid.tobytes() == lags.tobytes()


def test_a_table_on_standard_output_matches_its_file(tmp_path, capsys):
    cg = estimation.Correlogram(lag_grid=np.arange(-4, 6) * 0.5,
                                values=np.array(AWKWARD),
                                stderr=np.zeros(10), n_days=2)
    f = tmp_path / "cg.csv"
    write_correlogram_csv(cg, f)
    write_correlogram_csv(cg, "-")
    assert capsys.readouterr().out.encode() == f.read_bytes()
    assert not os.path.exists("-")


@pytest.mark.parametrize("text, line, message", [
    ("# n_days=2\ntau,value,stderr\n-1,0.5,0\n0,abc,0\n1,0.5,0\n", 4,
     "expected 3 numbers, got '0,abc,0'"),
    ("# n_days=2\ntau,value,stderr\n-1,0.5,0\n\n0,0.5,0,7\n", 5,
     "expected 3 numbers, got '0,0.5,0,7'"),
    ("# n_days=2\ntau,value,stderr\n-1,0.5\n0,0.5,0\n", 3,
     "expected 3 numbers, got '-1,0.5'"),
    # a two-column file as older versions wrote it, without the stderr the
    # fits weight by, is rejected at its header, before any row is read
    ("# n_days=2\ntau,value\n-1,0.5\n0,1\n1,0.5\n", 2,
     "expected the header 'tau,value,stderr', got 'tau,value'"),
    ("# n_days=2\ntau,value\n-1\n0,0.5\n", 2,
     "expected the header 'tau,value,stderr', got 'tau,value'"),
    ("# n_days=2\n# a note\ntau,value\n0,1\n", 2,
     "expected '# key=number', got '# a note'"),
    ("#\ntau,value\n0,1\n", 1, "expected '# key=number', got '#'"),
    ("# n_days=two\ntau,value\n0,1\n", 1,
     "expected '# key=number', got '# n_days=two'"),
    ("# n_days=2\n\ntau,val\n0,1\n", 3,
     "expected the header 'tau,value,stderr', got 'tau,val'"),
    ("# n_days=2\n", 2, "expected the header 'tau,value,stderr', got ''"),
])
def test_a_bad_correlogram_csv_names_its_file_and_line(text, line, message,
                                                       tmp_path):
    f = tmp_path / "cg.csv"
    f.write_text(text)
    with pytest.raises(DataError) as info:
        read_correlogram_csv(f)
    assert str(info.value) == f"{f} line {line}: {message}"


def test_a_table_reads_blank_lines_padding_and_an_empty_body(tmp_path):
    f = tmp_path / "cg.csv"
    f.write_text("\n  # n_days = 4 \n tau,value,stderr \n\n -1 , 0.5,nan\n"
                 " 0,1 ,0.25\n\n")
    cg = read_correlogram_csv(f)
    assert cg.n_days == 4 and cg.delta_mass is None
    np.testing.assert_array_equal(cg.lag_grid, [-1.0, 0.0])
    np.testing.assert_array_equal(cg.values, [0.5, 1.0])
    np.testing.assert_array_equal(cg.stderr, [np.nan, 0.25])
    f.write_text("dt,rho,stderr\n")
    assert read_epps_csv(f).dt_grid.shape == (0,)
