import math

import numpy as np
import pytest

from epps.errors import DataError, NumericalError
from epps import filtering
from epps.async_theory import discrete_kernel
from epps.estimation import SpectrumEstimate, estimate_spectrum
from epps.sampling import rng_stream
from epps.filtering import (FilterSpec, inverse_filter, wiener_filter,
                            apply_filter, auto_filter, estimate_snr,
                            filtered_correlogram, spectrum_covariance,
                            filtered_epps_curve)


def hermitian_spectrum(T, seed=0, offset=2.0):
    """Random real-correlogram spectrum: real, positive where offset large."""
    rng = rng_stream(seed, 60)
    gamma = rng.standard_normal(T)
    gamma = gamma + gamma[np.concatenate([[0], np.arange(T - 1, 0, -1)])]
    s = np.fft.ifft(gamma).conj() * T  # positive-exponent transform
    s = s.real + offset * T / T
    return SpectrumEstimate(T=T, n_days=1, s_n=s.astype(complex) + offset)


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
    with pytest.raises(DataError):
        FilterSpec(mode="inverse", snr=3.0)  # an snr only damps the wiener


def test_inverse_undoes_the_forward_kernel():
    T, li, lj = 128, 0.8, 0.15
    s = hermitian_spectrum(T, seed=1)
    kern = discrete_kernel(li, lj, np.arange(T), T)
    forward = SpectrumEstimate(T=T, n_days=1, s_n=s.s_n * kern)
    back = inverse_filter(forward, li, lj)
    np.testing.assert_allclose(back.s_n, s.s_n, rtol=1e-12, atol=1e-12)


def test_inverse_filter_identity_at_huge_rates():
    s = hermitian_spectrum(64, seed=2)
    out = inverse_filter(s, 1e9, 1e9)
    np.testing.assert_allclose(out.s_n, s.s_n, rtol=1e-6)


def test_inverse_filter_preserves_hermitian_symmetry():
    s = hermitian_spectrum(100, seed=3)
    out = inverse_filter(s, 0.3, 0.05)
    np.testing.assert_allclose(out.s_n[1:][::-1], np.conj(out.s_n[1:]),
                               rtol=1e-10, atol=1e-12)


def test_wiener_limits():
    T, li, lj = 64, 0.5, 0.1
    s = hermitian_spectrum(T, seed=4)
    plain = inverse_filter(s, li, lj)
    huge = wiener_filter(s, li, lj, FilterSpec(mode="wiener", snr=1e14))
    np.testing.assert_allclose(huge.s_n, plain.s_n, rtol=1e-9)
    tiny = wiener_filter(s, li, lj, FilterSpec(mode="wiener", snr=1e-14))
    assert np.max(np.abs(tiny.s_n)) < 1e-10 * np.max(np.abs(s.s_n))


def test_wiener_damping_grows_with_frequency():
    T, li, lj = 128, 0.5, 0.1
    s = SpectrumEstimate(T=T, n_days=1, s_n=np.ones(T, dtype=complex))
    plain = inverse_filter(s, li, lj)
    damped = wiener_filter(s, li, lj, FilterSpec(mode="wiener", snr=10.0))
    ratio = np.abs(damped.s_n[1:T // 2]) / np.abs(plain.s_n[1:T // 2])
    assert np.all(ratio <= 1.0 + 1e-12)
    assert np.all(np.diff(ratio) < 0)  # more damping where |K| is smaller


def test_wiener_rejects_wrong_spec_or_snr_length():
    s = hermitian_spectrum(32, seed=5)
    with pytest.raises(DataError):
        wiener_filter(s, 1.0, 1.0, FilterSpec(mode="inverse"))
    with pytest.raises(DataError):
        wiener_filter(s, 1.0, 1.0,
                      FilterSpec(mode="wiener", snr=np.ones(31)))


def test_filters_need_a_resolved_snr():
    s = hermitian_spectrum(32, seed=5)
    unresolved = FilterSpec(mode="wiener")
    with pytest.raises(DataError, match="estimate_snr"):
        wiener_filter(s, 1.0, 1.0, unresolved)
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
    np.testing.assert_array_equal(apply_filter(s, 0.4, 0.4, w).s_n,
                                  wiener_filter(s, 0.4, 0.4, w).s_n)


def test_auto_filter_round_trip_keeps_point_mass():
    # forward map of an auto spectrum: delta + K (S - delta); auto_filter
    # must invert it exactly given the measured point mass
    T, lam, delta = 96, 0.4, 0.8
    s = hermitian_spectrum(T, seed=7, offset=4.0)
    kern = discrete_kernel(lam, lam, np.arange(T), T)
    stepped = SpectrumEstimate(T=T, n_days=1,
                               s_n=delta + kern * (s.s_n - delta))
    back = auto_filter(stepped, lam, delta)
    np.testing.assert_allclose(back.s_n, s.s_n, rtol=1e-11, atol=1e-11)


def test_auto_filter_flat_spectrum_is_fixed_point():
    T, lam = 64, 0.7
    s = SpectrumEstimate(T=T, n_days=1, s_n=np.full(T, 1.3, dtype=complex))
    out = auto_filter(s, lam, 1.3)
    np.testing.assert_allclose(out.s_n, 1.3, rtol=1e-13)


def test_estimate_snr_orders_bands_correctly():
    # low band dominated by signal, high band by the plateau
    T = 256
    omega = 2.0 * math.pi * np.arange(T) / T
    omega = np.minimum(omega, 2.0 * math.pi - omega)
    s_n = 0.05 + 20.0 / (1.0 + (omega / 0.1) ** 2)
    s = SpectrumEstimate(T=T, n_days=1, s_n=s_n.astype(complex))
    snr = estimate_snr(s, 0.5, 0.1)
    assert snr > 5.0


def test_estimate_snr_errors():
    s = SpectrumEstimate(T=32, n_days=1, s_n=np.ones(32, dtype=complex))
    with pytest.raises(DataError):
        estimate_snr(s, 1e9, 1e9, grid_dt=1.0)  # split above every bin
    z = SpectrumEstimate(T=32, n_days=1, s_n=np.zeros(32, dtype=complex))
    with pytest.raises(DataError):
        estimate_snr(z, 0.5, 0.5)


def test_filtered_correlogram_inverts_the_periodogram():
    rng = rng_stream(9, 61)
    x = rng.standard_normal(64)
    y = rng.standard_normal(64)
    spec = estimate_spectrum([x], [y])
    cg = filtered_correlogram(spec, max_lag=5.0)
    k0 = cg.lag_grid.size // 2
    for a, k in enumerate(range(-5, 6)):
        direct = np.mean(x * np.roll(y, -k))
        assert cg.values[a] == pytest.approx(direct, abs=1e-12)
    assert cg.lag_grid[k0] == 0.0


def test_filtered_correlogram_flat_spectrum_is_pure_delta():
    s = SpectrumEstimate(T=128, n_days=1, s_n=np.full(128, 2.0, dtype=complex))
    cg = filtered_correlogram(s, max_lag=10.0, split_delta=True)
    assert cg.delta_mass == pytest.approx(2.0)
    np.testing.assert_allclose(cg.values, 0.0, atol=1e-13)


def test_filtered_correlogram_rejects_broken_symmetry():
    s_n = np.zeros(64, dtype=complex)
    s_n[3] = 1.0 + 1.0j  # no Hermitian partner
    s = SpectrumEstimate(T=64, n_days=1, s_n=s_n)
    with pytest.raises(NumericalError):
        filtered_correlogram(s, max_lag=4.0)


def test_filtered_correlogram_lag_range_check():
    s = SpectrumEstimate(T=32, n_days=1, s_n=np.ones(32, dtype=complex))
    with pytest.raises(DataError):
        filtered_correlogram(s, max_lag=16.0)
    with pytest.raises(DataError):
        filtered_correlogram(s, max_lag=0.2)


def test_spectrum_covariance_matches_circular_overlapping_mean():
    rng = rng_stream(10, 62)
    x = rng.standard_normal(128)
    y = rng.standard_normal(128)
    spec = estimate_spectrum([x], [y])
    for m in (1, 3, 8):
        # circular m-step sums: the Dirichlet-window identity is exact
        xs = sum(np.roll(x, -t) for t in range(m))
        ys = sum(np.roll(y, -t) for t in range(m))
        assert spectrum_covariance(spec, m) == pytest.approx(
            np.mean(xs * ys), rel=1e-10, abs=1e-12)
    with pytest.raises(DataError):
        spectrum_covariance(spec, 0)
    with pytest.raises(DataError):
        spectrum_covariance(spec, 128)


def test_filtered_epps_curve_unit_for_identical_spectra():
    rng = rng_stream(11, 63)
    x = rng.standard_normal(256)
    spec = estimate_spectrum([x], [x])
    curve = filtered_epps_curve(spec, spec, spec, [1.0, 2.0, 8.0])
    np.testing.assert_allclose(curve.rho, 1.0, rtol=1e-10)


def test_filtered_epps_curve_errors():
    s = SpectrumEstimate(T=64, n_days=1, s_n=np.ones(64, dtype=complex))
    with pytest.raises(DataError):
        filtered_epps_curve(s, s, s, [1.5])
    # variance -1 at one step, +2 at two steps: only the first horizon is
    # degenerate, and it is marked NaN instead of aborting the curve
    c = np.cos(2.0 * np.pi * np.arange(64) / 64)
    bad = SpectrumEstimate(T=64, n_days=1, s_n=(4.0 * c - 1.0).astype(complex))
    curve = filtered_epps_curve(s, bad, s, [1.0, 2.0])
    assert math.isnan(curve.rho[0])
    assert curve.rho[1] == pytest.approx(1.0)


def test_filtered_epps_curve_builds_one_window_per_horizon(monkeypatch):
    rng = rng_stream(12, 64)
    x, y = rng.standard_normal(128), rng.standard_normal(128)
    s12 = estimate_spectrum([x], [y])
    s11 = estimate_spectrum([x], [x])
    s22 = estimate_spectrum([y], [y])
    horizons = [1.0, 2.0, 8.0, 30.0]
    expected = [spectrum_covariance(s12, m) / math.sqrt(
        spectrum_covariance(s11, m) * spectrum_covariance(s22, m))
        for m in (1, 2, 8, 30)]
    built = []
    window = filtering._window_weights

    def counting_window(T, m):
        built.append(m)
        return window(T, m)

    monkeypatch.setattr(filtering, "_window_weights", counting_window)
    curve = filtered_epps_curve(s12, s11, s22, horizons)
    assert built == [1, 2, 8, 30]
    np.testing.assert_array_equal(curve.rho, expected)


def test_filtered_epps_curve_rejects_spectra_of_different_lengths():
    s = SpectrumEstimate(T=64, n_days=1, s_n=np.ones(64, dtype=complex))
    short = SpectrumEstimate(T=63, n_days=1, s_n=np.ones(63, dtype=complex))
    for args in ((s, short, s), (s, s, short), (short, s, s)):
        with pytest.raises(DataError, match="differ in length"):
            filtered_epps_curve(*args, [1.0, 2.0])
