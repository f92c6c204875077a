"""Spectral deconvolution of the sampling distortion.

The measured cross-spectrum of previous-tick series is the genuine spectrum
multiplied by a low-pass kernel set by the Poisson rates.  This module
inverts that kernel (plain inverse or Wiener-damped), and rebuilds
correlograms and Epps curves from the corrected spectrum.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import DataError, NumericalError
from .estimation import Correlogram, EppsCurve, SpectrumEstimate
from .async_theory import discrete_kernel


@dataclass(frozen=True)
class FilterSpec:
    """Filter mode plus, for the Wiener mode, the signal-to-noise ratio.

    `snr` may be a positive scalar or one positive value per frequency bin,
    and only the Wiener mode takes one.  A Wiener spec with `snr=None` means
    "estimate it": `analyze_pair` (and so `epps run` and `epps estimate`)
    fill it in with `estimate_snr` on the measured cross-spectrum; the
    filters themselves need a value.
    """

    mode: str = "inverse"
    snr: object = None

    def __post_init__(self):
        if self.mode not in ("inverse", "wiener"):
            raise DataError(f"unknown filter mode {self.mode!r}")
        if self.snr is None:
            return
        if self.mode == "inverse":
            raise DataError("an snr applies only to the wiener filter")
        snr = np.asarray(self.snr, dtype=float)
        if np.any(snr <= 0) or np.any(np.isnan(snr)):
            raise DataError("wiener mode requires snr > 0")


def _wiener_snr(spec, T):
    if spec.snr is None:
        raise DataError("wiener filter needs an snr; estimate one with "
                        "estimate_snr")
    snr = np.asarray(spec.snr, dtype=float)
    if snr.ndim == 1 and snr.size != T:
        raise DataError("per-frequency snr must have one value per bin")
    return snr


def _kernel(s_tilde, lambda_i, lambda_j, grid_dt):
    if lambda_i <= 0 or lambda_j <= 0:
        raise DataError("sampling rates must be > 0")
    n = np.arange(s_tilde.T)
    return discrete_kernel(lambda_i * grid_dt, lambda_j * grid_dt,
                           n, s_tilde.T)


def _replace(spec, s_n):
    return SpectrumEstimate(T=spec.T, n_days=spec.n_days, s_n=s_n,
                            rate_i=spec.rate_i, rate_j=spec.rate_j)


def inverse_filter(s_tilde, lambda_i, lambda_j, grid_dt=1.0):
    """Divide out the discrete sampling kernel bin by bin.

    Exact algebraic inverse; the kernel never vanishes at finite rates, but
    high-frequency bins are amplified roughly like omega^2, so noisy inputs
    come out noisy there.  Hermitian symmetry is preserved.
    """
    return _replace(s_tilde,
                    s_tilde.s_n / _kernel(s_tilde, lambda_i, lambda_j, grid_dt))


def wiener_filter(s_tilde, lambda_i, lambda_j, spec, grid_dt=1.0):
    """Inverse filter damped by |K|^2 / (|K|^2 + 1/snr).

    Interpolates between zero output (snr -> 0) and the plain inverse
    (snr -> inf).
    """
    if spec.mode != "wiener":
        raise DataError("wiener_filter requires a wiener FilterSpec")
    snr = _wiener_snr(spec, s_tilde.T)
    kern = _kernel(s_tilde, lambda_i, lambda_j, grid_dt)
    power = np.abs(kern) ** 2
    return _replace(s_tilde,
                    s_tilde.s_n * np.conj(kern) / (power + 1.0 / snr))


def apply_filter(s_tilde, lambda_i, lambda_j, spec, grid_dt=1.0):
    if spec.mode == "inverse":
        return inverse_filter(s_tilde, lambda_i, lambda_j, grid_dt)
    return wiener_filter(s_tilde, lambda_i, lambda_j, spec, grid_dt)


def auto_filter(s_tilde, lam, delta_mass, spec=None, grid_dt=1.0):
    """Deconvolve an auto-spectrum, holding its point mass fixed.

    Sampling maps an auto spectrum S to delta + K * (S - delta) where delta
    is the measured zero-lag point mass, so only the excess over the flat
    level gets divided by the kernel.  `delta_mass` comes from the measured
    autocorrelogram; `spec` selects Wiener damping, default plain inverse.
    """
    kern = _kernel(s_tilde, lam, lam, grid_dt)
    excess = s_tilde.s_n - delta_mass
    if spec is None or spec.mode == "inverse":
        out = excess / kern
    else:
        snr = _wiener_snr(spec, s_tilde.T)
        out = excess * np.conj(kern) / (np.abs(kern) ** 2 + 1.0 / snr)
    return _replace(s_tilde, delta_mass + out)


def estimate_snr(s_tilde, lambda_i, lambda_j, grid_dt=1.0):
    """Scalar signal-to-noise ratio from the spectrum shape.

    Ratio of the mean spectral magnitude below the slower sampling rate to
    the mean magnitude above it (the high-frequency plateau).  A crude but
    serviceable default; pass an explicit FilterSpec to override.
    """
    T = s_tilde.T
    n = np.arange(1, T // 2 + 1)
    omega = 2.0 * math.pi * n / (T * grid_dt)
    split = min(lambda_i, lambda_j)
    mag = np.abs(s_tilde.s_n[n])
    low = mag[omega <= split]
    high = mag[omega > split]
    if low.size == 0 or high.size == 0:
        raise DataError("rate split leaves an empty frequency band")
    plateau = float(np.mean(high))
    if plateau <= 0:
        raise DataError("flat-zero high-frequency band; snr undefined")
    return float(np.mean(low)) / plateau


def filtered_correlogram(s_hat, max_lag=None, grid_dt=1.0, split_delta=False):
    """Correlogram from a corrected spectrum by inverse DFT.

    The output must come out real; an imaginary residue above 1e-6 of the
    norm signals broken Hermitian symmetry and raises.
    """
    T = s_hat.T
    gamma = np.fft.fft(s_hat.s_n) / T
    norm = np.linalg.norm(gamma)
    if norm > 0 and np.linalg.norm(gamma.imag) > 1e-6 * norm:
        raise NumericalError("corrected spectrum is not Hermitian")
    gamma = gamma.real
    n_lags = T // 2 - 1 if max_lag is None else int(round(max_lag / grid_dt))
    if not 1 <= n_lags <= T // 2 - 1 + T % 2:
        raise DataError("max_lag out of range for this spectrum length")
    values = np.concatenate([gamma[-n_lags:], gamma[:n_lags + 1]])
    delta = None
    if split_delta:
        delta = float(values[n_lags])
        values = values.copy()
        values[n_lags] = 0.0
    return Correlogram(lag_grid=np.arange(-n_lags, n_lags + 1) * grid_dt,
                       values=values,
                       stderr=np.full(2 * n_lags + 1, np.nan),
                       n_days=s_hat.n_days, delta_mass=delta)


def _window_weights(T, m):
    """|sum_{t<m} e^{i theta_n t}|^2 for every frequency index n."""
    n = np.arange(T)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (np.sin(np.pi * n * m / T) / np.sin(np.pi * n / T)) ** 2
    w[0] = m * m
    return w


def _windowed_covariance(spec, w):
    return float((np.sum(spec.s_n * w) / spec.T).real)


def _check_horizon(m, T):
    if not 1 <= m < T:
        raise DataError("horizon must be in [1, T) grid steps")


def spectrum_covariance(spec, m):
    """Covariance of m-step increments implied by a spectrum."""
    _check_horizon(m, spec.T)
    return _windowed_covariance(spec, _window_weights(spec.T, m))


def filtered_epps_curve(s_hat, s_auto_i, s_auto_j, dt_grid, grid_dt=1.0):
    """Epps curve implied by corrected cross- and auto-spectra.

    Each horizon's covariance is the spectrum summed against the squared
    Dirichlet window of that horizon, built once for all three spectra,
    which must therefore share one length T; the Pearson coefficient
    follows.  A horizon whose filtered variance is <= 0 has no coefficient
    and is NaN.
    """
    T = s_hat.T
    if s_auto_i.T != T or s_auto_j.T != T:
        raise DataError(f"cross and auto spectra differ in length: "
                        f"{T}, {s_auto_i.T}, {s_auto_j.T}")
    dt_grid = np.asarray(dt_grid, dtype=float)
    steps = dt_grid / grid_dt
    if np.any(np.abs(steps - np.round(steps)) > 1e-9) or np.any(steps < 1):
        raise DataError("every dt must be a positive multiple of the grid step")
    rho = np.empty(dt_grid.size)
    for a, m in enumerate(np.round(steps).astype(int)):
        _check_horizon(m, T)
        w = _window_weights(T, m)
        c12, v1, v2 = (_windowed_covariance(s, w)
                       for s in (s_hat, s_auto_i, s_auto_j))
        rho[a] = c12 / math.sqrt(v1 * v2) if v1 > 0 and v2 > 0 else np.nan
    return EppsCurve(dt_grid=dt_grid, rho=rho,
                     stderr=np.full(dt_grid.size, np.nan))
