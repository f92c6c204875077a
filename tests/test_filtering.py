import inspect
import math
import re

import numpy as np
import pytest

from epps.errors import DataError
from epps import filtering
from epps.async_theory import discrete_kernel
from epps.estimation import SpectrumEstimate, estimate_spectrum
from epps.sampling import rng_stream
from epps.filtering import (FilterSpec, inverse_filter, apply_filter,
                            auto_filter, estimate_snr, filtered_correlogram,
                            filtered_epps_curve)


def one_day(T, s_n, grid_dt=1.0):
    """A one-day spectrum of T steps of `grid_dt` with the half bins s_n."""
    return SpectrumEstimate(T=T, n_days=1, s_n=s_n, grid_dt=grid_dt)


def hermitian_spectrum(T, seed=0, offset=2.0, grid_dt=1.0):
    """Random real-correlogram spectrum: real, positive where offset large;
    bins 0..T//2."""
    rng = rng_stream(seed, 60)
    gamma = rng.standard_normal(T)
    gamma = gamma + gamma[np.concatenate([[0], np.arange(T - 1, 0, -1)])]
    s = np.fft.ifft(gamma).conj() * T  # positive-exponent transform
    s = s.real + offset * T / T
    return one_day(T, s[:T // 2 + 1].astype(complex) + offset, grid_dt)


def half_bins(T):
    """The bin indices n = 0..T//2 a SpectrumEstimate holds."""
    return np.arange(T // 2 + 1)


def test_filter_spec_validation():
    FilterSpec()
    FilterSpec(mode="wiener", snr=3.0)
    FilterSpec(mode="wiener")  # snr to be estimated
    with pytest.raises(DataError):
        FilterSpec(mode="butterworth")
    with pytest.raises(DataError):
        FilterSpec(mode="wiener", snr=-1.0)
    with pytest.raises(DataError):
        FilterSpec(mode="wiener", snr=[1.0, float("nan")])
    # the inverse filter is the infinite-snr limit; an infinite snr went
    # into manifest.json as `Infinity`, which strict JSON parsers reject
    for snr in (math.inf, [1.0, math.inf]):
        with pytest.raises(DataError, match="finite snr > 0"):
            FilterSpec(mode="wiener", snr=snr)
    with pytest.raises(DataError):
        FilterSpec(mode="inverse", snr=3.0)  # an snr only damps the wiener


def test_inverse_undoes_the_forward_kernel():
    T, li, lj = 128, 0.8, 0.15
    s = hermitian_spectrum(T, seed=1)
    kern = discrete_kernel(li, lj, half_bins(T), T)
    forward = one_day(T, s.s_n * kern)
    back = inverse_filter(forward, li, lj)
    np.testing.assert_allclose(back.s_n, s.s_n, rtol=1e-12, atol=1e-12)


def test_sampling_kernel_is_cached_read_only_and_left_unchanged():
    T, li, lj, grid_dt = 256, 0.8, 0.15, 0.5
    s = hermitian_spectrum(T, seed=7, grid_dt=grid_dt)
    cross = filtering._kernel_bins(li * grid_dt, lj * grid_dt, T)
    auto = filtering._kernel_bins(li * grid_dt, li * grid_dt, T)
    for kern, lj_step in ((cross, lj * grid_dt), (auto, li * grid_dt)):
        fresh = discrete_kernel(li * grid_dt, lj_step, half_bins(T), T)
        assert kern.tobytes() == fresh.tobytes()
        assert not kern.flags.writeable
        with pytest.raises(ValueError):
            kern[0] = 0.0
    before = cross.tobytes(), auto.tobytes()
    wiener = FilterSpec(mode="wiener", snr=4.0)
    out = inverse_filter(s, li, lj)
    assert out.s_n.tobytes() == (s.s_n / cross).tobytes()
    apply_filter(s, li, lj, wiener)
    auto_filter(s, li, 0.5)
    auto_filter(s, li, 0.5, wiener)
    assert (cross.tobytes(), auto.tobytes()) == before
    assert filtering._kernel_bins(li * grid_dt, lj * grid_dt, T) is cross


def test_inverse_filter_identity_at_huge_rates():
    s = hermitian_spectrum(64, seed=2)
    out = inverse_filter(s, 1e9, 1e9)
    np.testing.assert_allclose(out.s_n, s.s_n, rtol=1e-6)


def test_wiener_limits():
    T, li, lj = 64, 0.5, 0.1
    s = hermitian_spectrum(T, seed=4)
    plain = inverse_filter(s, li, lj)
    huge = apply_filter(s, li, lj, FilterSpec(mode="wiener", snr=1e14))
    np.testing.assert_allclose(huge.s_n, plain.s_n, rtol=1e-9)
    tiny = apply_filter(s, li, lj, FilterSpec(mode="wiener", snr=1e-14))
    assert np.max(np.abs(tiny.s_n)) < 1e-10 * np.max(np.abs(s.s_n))


def test_wiener_damping_grows_with_frequency():
    T, li, lj = 128, 0.5, 0.1
    s = one_day(T, np.ones(65, dtype=complex))
    plain = inverse_filter(s, li, lj)
    damped = apply_filter(s, li, lj, FilterSpec(mode="wiener", snr=10.0))
    ratio = np.abs(damped.s_n[1:T // 2]) / np.abs(plain.s_n[1:T // 2])
    assert np.all(ratio <= 1.0 + 1e-12)
    assert np.all(np.diff(ratio) < 0)  # more damping where |K| is smaller


def test_wiener_rejects_an_snr_of_the_wrong_length():
    s = hermitian_spectrum(32, seed=5)  # bins 0..16
    for shape in ((16,), (18,), (32,), (17, 1)):
        match = re.escape(f"17 for T = 32, got shape {shape}")
        with pytest.raises(DataError, match=match):
            apply_filter(s, 1.0, 1.0,
                         FilterSpec(mode="wiener", snr=np.ones(shape)))
        with pytest.raises(DataError, match=match):
            auto_filter(s, 1.0, 0.5,
                        FilterSpec(mode="wiener", snr=np.ones(shape)))


def test_filters_need_a_resolved_snr():
    s = hermitian_spectrum(32, seed=5)
    unresolved = FilterSpec(mode="wiener")
    with pytest.raises(DataError, match="estimate_snr"):
        apply_filter(s, 1.0, 1.0, unresolved)
    with pytest.raises(DataError, match="estimate_snr"):
        auto_filter(s, 1.0, 0.5, unresolved)


def test_apply_filter_dispatches_on_mode():
    s = hermitian_spectrum(32, seed=6)
    np.testing.assert_array_equal(
        apply_filter(s, 0.4, 0.4, FilterSpec()).s_n,
        inverse_filter(s, 0.4, 0.4).s_n)
    w = FilterSpec(mode="wiener", snr=5.0)
    assert not np.allclose(apply_filter(s, 0.4, 0.4, w).s_n,
                           inverse_filter(s, 0.4, 0.4).s_n)


def reference_deconvolution(s_n, kern, snr=None, delta_mass=None):
    """The three filter formulas written out: (S - delta) / K, or
    (S - delta) conj(K) / (|K|^2 + 1/snr), plus delta; no delta for a
    cross spectrum."""
    excess = s_n if delta_mass is None else s_n - delta_mass
    if snr is None:
        out = excess / kern
    else:
        out = np.conj(kern) * excess / (np.abs(kern) ** 2 + 1.0 / snr)
    return out if delta_mass is None else delta_mass + out


@pytest.mark.parametrize("li, lj", [(0.4, 0.4), (0.8, 0.15)])
def test_filters_equal_the_reference_formulas_byte_for_byte(li, lj):
    T, grid_dt, delta = 64, 0.5, 0.7
    s = hermitian_spectrum(T, seed=8, grid_dt=grid_dt)
    cross = discrete_kernel(li * grid_dt, lj * grid_dt, half_bins(T), T)
    auto = discrete_kernel(li * grid_dt, li * grid_dt, half_bins(T), T)
    per_bin = 1.0 + half_bins(T) % 7
    for snr in (None, 5.0, per_bin):
        spec = FilterSpec() if snr is None else FilterSpec("wiener", snr)
        want = reference_deconvolution(s.s_n, cross, snr).tobytes()
        assert apply_filter(s, li, lj, spec).s_n.tobytes() == want
        if snr is None:
            assert inverse_filter(s, li, lj).s_n.tobytes() == want
        want = reference_deconvolution(s.s_n, auto, snr, delta).tobytes()
        got = auto_filter(s, li, delta, spec)
        assert got.s_n.tobytes() == want
        assert (got.T, got.n_days, got.grid_dt) == (s.T, s.n_days, grid_dt)


def test_auto_filter_round_trip_keeps_point_mass():
    # forward map of an auto spectrum: delta + K (S - delta); auto_filter
    # must invert it exactly given the measured point mass
    T, lam, delta = 96, 0.4, 0.8
    s = hermitian_spectrum(T, seed=7, offset=4.0)
    kern = discrete_kernel(lam, lam, half_bins(T), T)
    stepped = one_day(T, delta + kern * (s.s_n - delta))
    back = auto_filter(stepped, lam, delta)
    np.testing.assert_allclose(back.s_n, s.s_n, rtol=1e-11, atol=1e-11)
    with pytest.raises(DataError, match="point mass"):
        auto_filter(stepped, lam, None)  # a cross correlogram's delta_mass


def test_auto_filter_flat_spectrum_is_fixed_point():
    T, lam = 64, 0.7
    s = one_day(T, np.full(T // 2 + 1, 1.3, dtype=complex))
    out = auto_filter(s, lam, 1.3)
    np.testing.assert_allclose(out.s_n, 1.3, rtol=1e-13)


def test_estimate_snr_orders_bands_correctly():
    # low band dominated by signal, high band by the plateau
    T = 256
    omega = 2.0 * math.pi * half_bins(T) / T
    s_n = 0.05 + 20.0 / (1.0 + (omega / 0.1) ** 2)
    s = one_day(T, s_n.astype(complex))
    snr = estimate_snr(s, 0.5, 0.1)
    assert snr > 5.0


def test_estimate_snr_errors():
    s = one_day(32, np.ones(17, dtype=complex))
    with pytest.raises(DataError):
        estimate_snr(s, 1e9, 1e9)  # split above every bin
    z = one_day(32, np.zeros(17, dtype=complex))
    with pytest.raises(DataError):
        estimate_snr(z, 0.5, 0.5)


def test_estimate_snr_names_the_empty_band():
    # a 20 s grid reaches pi / 20 = 0.157 rad/s, below the slower rate
    # 0.197 of a tick file at rates 1 and 0.2: the error named no band,
    # rate or frequency, nor the way around it
    s = one_day(1000, np.ones(501, dtype=complex), grid_dt=20.0)
    with pytest.raises(DataError, match=re.escape(
            "empty high-frequency band: the slower rate 0.197 lies at or "
            "above the spectrum's frequencies 0.00031416 to 0.15708 rad/s; "
            "an explicit --snr avoids")):
        estimate_snr(s, 1.0, 0.197)
    with pytest.raises(DataError, match="empty low-frequency band: the "
                       "slower rate 0.0001 lies below the spectrum's"):
        estimate_snr(s, 1e-4, 1.0)


def test_filtered_correlogram_inverts_the_periodogram():
    rng = rng_stream(9, 61)
    for T in (64, 65):
        x = rng.standard_normal(T)
        y = rng.standard_normal(T)
        spec = estimate_spectrum([x], [y])
        cg = filtered_correlogram(spec, max_lag=5.0)
        k0 = cg.lag_grid.size // 2
        for a, k in enumerate(range(-5, 6)):
            direct = np.mean(x * np.roll(y, -k))
            assert cg.values[a] == pytest.approx(direct, abs=1e-12)
        assert cg.lag_grid[k0] == 0.0


def test_filtered_correlogram_flat_spectrum_is_pure_delta():
    s = one_day(128, np.full(65, 2.0, dtype=complex))
    cg = filtered_correlogram(s, max_lag=10.0)
    k0 = cg.lag_grid.size // 2
    assert cg.lag_grid[k0] == 0.0
    assert cg.values[k0] == pytest.approx(2.0)
    np.testing.assert_allclose(np.delete(cg.values, k0), 0.0, atol=1e-13)


def test_filtered_correlogram_lag_range_check():
    s = one_day(32, np.ones(17, dtype=complex))
    with pytest.raises(DataError):
        filtered_correlogram(s, max_lag=16.0)
    with pytest.raises(DataError):
        filtered_correlogram(s, max_lag=0.2)


def circular_rho(x, y, m):
    """Pearson coefficient of circular, overlapping m-step sums, uncentred:
    the Dirichlet-window identity makes it exact for a one-day spectrum."""
    xs = sum(np.roll(x, -t) for t in range(m))
    ys = sum(np.roll(y, -t) for t in range(m))
    return np.mean(xs * ys) / math.sqrt(np.mean(xs * xs) * np.mean(ys * ys))


def test_filtered_epps_curve_matches_circular_overlapping_mean():
    rng = rng_stream(10, 62)
    for T in (128, 127):
        x = rng.standard_normal(T)
        y = rng.standard_normal(T)
        spectra = (estimate_spectrum([x], [y]), estimate_spectrum([x], [x]),
                   estimate_spectrum([y], [y]))
        curve = filtered_epps_curve(*spectra, [1.0, 3.0, 8.0])
        np.testing.assert_allclose(curve.rho,
                                   [circular_rho(x, y, m) for m in (1, 3, 8)],
                                   rtol=1e-10, atol=1e-12)
        for bad in (0.0, float(T)):
            with pytest.raises(DataError):
                filtered_epps_curve(*spectra, [bad])


def test_filtered_epps_curve_unit_for_identical_spectra():
    rng = rng_stream(11, 63)
    x = rng.standard_normal(256)
    spec = estimate_spectrum([x], [x])
    curve = filtered_epps_curve(spec, spec, spec, [1.0, 2.0, 8.0])
    np.testing.assert_allclose(curve.rho, 1.0, rtol=1e-10)


def test_filtered_epps_curve_errors():
    s = one_day(64, np.ones(33, dtype=complex))
    with pytest.raises(DataError):
        filtered_epps_curve(s, s, s, [1.5])
    # variance -1 at one step, +2 at two steps: only the first horizon is
    # degenerate, and it is marked NaN instead of aborting the curve
    c = np.cos(2.0 * np.pi * half_bins(64) / 64)
    bad = one_day(64, (4.0 * c - 1.0).astype(complex))
    curve = filtered_epps_curve(s, bad, s, [1.0, 2.0])
    assert math.isnan(curve.rho[0])
    assert curve.rho[1] == pytest.approx(1.0)


@pytest.mark.parametrize("T", [64, 65])
def test_filtered_epps_curve_is_the_squared_dirichlet_window_sum(T):
    rng = rng_stream(12, T)
    x, y = rng.standard_normal(T), rng.standard_normal(T)
    spectra = [estimate_spectrum([u], [v]) for u, v in ((x, y), (x, x),
                                                        (y, y))]
    horizons = np.arange(1, T)
    # each covariance as the spectrum summed against the squared Dirichlet
    # window |sum_{t<m} e^{i theta_n t}|^2, with the interior bins
    # 1..(T-1)//2 of the half spectrum counted twice for their mirrors
    n = half_bins(T)
    mult = np.where((n == 0) | (2 * n == T), 1.0, 2.0)
    expected = []
    for m in horizons:
        with np.errstate(divide="ignore", invalid="ignore"):
            w = (np.sin(np.pi * n * m / T) / np.sin(np.pi * n / T)) ** 2
        w[0] = m * m
        c12, v1, v2 = (np.sum(s.s_n.real * mult * w) / T for s in spectra)
        expected.append(c12 / math.sqrt(v1 * v2))
    curve = filtered_epps_curve(*spectra, horizons.astype(float))
    np.testing.assert_allclose(curve.rho, expected, rtol=1e-13, atol=0.0)


def test_filtered_epps_curve_rejects_spectra_of_different_lengths():
    s = one_day(64, np.ones(33, dtype=complex))
    short = one_day(63, np.ones(32, dtype=complex))
    for args in ((s, short, s), (s, s, short), (short, s, s)):
        with pytest.raises(DataError, match="differ in length"):
            filtered_epps_curve(*args, [1.0, 2.0])


def test_filtered_epps_curve_rejects_spectra_on_different_grid_steps():
    s = one_day(64, np.ones(33, dtype=complex))
    coarse = one_day(64, np.ones(33, dtype=complex), grid_dt=2.0)
    for args in ((s, coarse, s), (s, s, coarse), (coarse, s, s)):
        with pytest.raises(DataError, match="differ in grid step"):
            filtered_epps_curve(*args, [2.0, 4.0])


def test_the_grid_step_comes_from_the_spectrum():
    # the kernel depends on rate x step: at 2 s and rates l the filters
    # give the bits they give at 1 s and rates 2 l
    T, li, lj, delta = 64, 0.4, 0.15, 0.7
    fine = hermitian_spectrum(T, seed=13)
    coarse = hermitian_spectrum(T, seed=13, grid_dt=2.0)
    wiener = FilterSpec("wiener", 5.0)
    for got, want in (
            (inverse_filter(coarse, li, lj),
             inverse_filter(fine, 2 * li, 2 * lj)),
            (apply_filter(coarse, li, lj, wiener),
             apply_filter(fine, 2 * li, 2 * lj, wiener)),
            (auto_filter(coarse, li, delta),
             auto_filter(fine, 2 * li, delta))):
        assert got.s_n.tobytes() == want.s_n.tobytes()
        assert got.grid_dt == 2.0
    assert estimate_snr(coarse, li, lj) == estimate_snr(fine, 2 * li, 2 * lj)
    # lags and horizons are read in seconds on the spectrum's grid
    cg = filtered_correlogram(coarse, max_lag=10.0)
    np.testing.assert_array_equal(cg.lag_grid, np.arange(-5, 6) * 2.0)
    assert cg.values.tobytes() == filtered_correlogram(
        fine, max_lag=5.0).values.tobytes()
    curve = filtered_epps_curve(coarse, coarse, coarse, [2.0, 6.0])
    np.testing.assert_array_equal(curve.dt_grid, [2.0, 6.0])
    assert curve.rho.tobytes() == filtered_epps_curve(
        fine, fine, fine, [1.0, 3.0]).rho.tobytes()
    with pytest.raises(DataError, match="multiple of the grid step 2"):
        filtered_epps_curve(coarse, coarse, coarse, [3.0])


def test_no_filter_takes_a_grid_step():
    for name, fn in inspect.getmembers(filtering, inspect.isfunction):
        if fn.__module__ == filtering.__name__:
            assert "grid_dt" not in inspect.signature(fn).parameters, name
