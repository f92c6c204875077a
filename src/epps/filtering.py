"""Spectral deconvolution of the sampling distortion.

The measured cross-spectrum of previous-tick series is the genuine spectrum
multiplied by a low-pass kernel set by the Poisson rates.  This module
inverts that kernel (plain inverse or Wiener-damped) bin by bin on the
half spectrum n = 0..T//2 that `SpectrumEstimate` holds, and rebuilds
correlograms and Epps curves from the corrected spectrum.  Every function
here takes the grid step from its spectra, which carry it.

Both rebuilds read a spectrum through its lag values gamma_k, one inverse
real DFT.  The covariance of m-step increments is the lag sum
sum_{|k|<m} (m - |k|) gamma_k, which is (1/T) sum_n S_n |D_m(theta_n)|^2
over the full spectrum n = 0..T-1, with D_m(theta) = sum_{t<m} e^{i theta t}
the Dirichlet window and theta_n = 2 pi n / T.
"""

from dataclasses import dataclass
import functools
import math

import numpy as np

from .errors import DataError
from .estimation import (Correlogram, EppsCurve, SpectrumEstimate,
                         _horizon_steps)
from .async_theory import _check_rates, discrete_kernel


@dataclass(frozen=True)
class FilterSpec:
    """Filter mode plus, for the Wiener mode, the signal-to-noise ratio.

    `FilterSpec()` is the inverse filter, the infinite-snr limit of the
    Wiener filter.  `snr` may be a finite positive scalar or one finite
    positive value per bin 0..T//2, and only the Wiener mode takes one.  A
    Wiener spec with `snr=None` means "estimate it": `analyze_pair` (and so
    `epps run` and `epps estimate`) fill it in with `estimate_snr` on the
    measured cross-spectrum; the filters themselves need a value.
    """

    mode: str = "inverse"
    snr: object = None

    def __post_init__(self):
        if self.mode not in ("inverse", "wiener"):
            raise DataError(f"unknown filter_mode {self.mode!r}; expected "
                            "'inverse' or 'wiener'")
        if self.snr is None:
            return
        if self.mode == "inverse":
            raise DataError("an snr applies only to the wiener filter")
        snr = np.asarray(self.snr, dtype=float)
        if not np.all((snr > 0) & np.isfinite(snr)):
            raise DataError("wiener mode requires a finite snr > 0")


def _wiener_snr(spec, T):
    if spec.snr is None:
        raise DataError("wiener filter needs an snr; estimate one with "
                        "estimate_snr")
    snr = np.asarray(spec.snr, dtype=float)
    if snr.ndim and snr.shape != (T // 2 + 1,):
        raise DataError(f"per-bin snr needs one value per bin n = 0..T//2: "
                        f"{T // 2 + 1} for T = {T}, got shape {snr.shape}")
    return snr


@functools.lru_cache(maxsize=4)
def _kernel_bins(lambda_i_step, lambda_j_step, T):
    """`discrete_kernel` over bins n = 0..T//2, cached per rate pair and
    length; the array is shared and read-only."""
    kern = discrete_kernel(lambda_i_step, lambda_j_step,
                           np.arange(T // 2 + 1), T)
    kern.flags.writeable = False
    return kern


def _kernel(s_tilde, lambda_i, lambda_j):
    # discrete_kernel checks the per-step rates, > 0 exactly when these are
    dt = s_tilde.grid_dt
    return _kernel_bins(lambda_i * dt, lambda_j * dt, s_tilde.T)


def _deconvolve(s_tilde, lambda_i, lambda_j, spec, delta_mass=None):
    """The one deconvolution body of the three filters.

    Divides the excess of the spectrum over `delta_mass` (none for a cross
    spectrum) by the kernel K, or for a Wiener spec multiplies it by
    conj(K) / (|K|^2 + 1/snr), and adds the point mass back.
    """
    kern = _kernel(s_tilde, lambda_i, lambda_j)
    excess = s_tilde.s_n if delta_mass is None else s_tilde.s_n - delta_mass
    if spec.mode == "inverse":
        out = excess / kern
    else:
        snr = _wiener_snr(spec, s_tilde.T)
        # conj(K) first, as in discrete_kernel: the same bits at any length
        out = np.conj(kern) * excess / (np.abs(kern) ** 2 + 1.0 / snr)
    if delta_mass is not None:
        out = delta_mass + out
    return SpectrumEstimate(T=s_tilde.T, n_days=s_tilde.n_days, s_n=out,
                            grid_dt=s_tilde.grid_dt)


def inverse_filter(s_tilde, lambda_i, lambda_j):
    """Divide out the discrete sampling kernel bin by bin.

    Exact algebraic inverse; the kernel never vanishes at finite rates, but
    high-frequency bins are amplified roughly like omega^2, so noisy inputs
    come out noisy there.
    """
    return _deconvolve(s_tilde, lambda_i, lambda_j, FilterSpec())


def apply_filter(s_tilde, lambda_i, lambda_j, spec):
    """Deconvolve a cross-spectrum with the filter `spec` selects.

    The inverse mode is `inverse_filter`.  The Wiener mode is the inverse
    filter damped by |K|^2 / (|K|^2 + 1/snr), which interpolates between
    zero output (snr -> 0) and the plain inverse (snr -> inf).
    """
    return _deconvolve(s_tilde, lambda_i, lambda_j, spec)


def auto_filter(s_tilde, lam, delta_mass, spec=FilterSpec()):
    """Deconvolve an auto-spectrum, holding its point mass fixed.

    Sampling maps an auto spectrum S to delta + K * (S - delta) where delta
    is the measured zero-lag point mass, so only the excess over the flat
    level gets divided by the kernel.  `delta_mass` comes from the measured
    autocorrelogram; `spec` selects Wiener damping, default plain inverse.
    """
    if delta_mass is None:
        raise DataError("auto_filter needs the point mass of an auto spectrum")
    return _deconvolve(s_tilde, lam, lam, spec, delta_mass)


def estimate_snr(s_tilde, lambda_i, lambda_j):
    """Scalar signal-to-noise ratio from the spectrum shape.

    Ratio of the mean spectral magnitude below the slower sampling rate to
    the mean magnitude above it (the high-frequency plateau).  A crude but
    serviceable default; pass an explicit FilterSpec to override.
    """
    _check_rates(lambda_i, lambda_j)
    T = s_tilde.T
    n = np.arange(1, T // 2 + 1)
    omega = 2.0 * math.pi * n / (T * s_tilde.grid_dt)
    split = min(lambda_i, lambda_j)
    mag = np.abs(s_tilde.s_n[n])
    low = mag[omega <= split]
    high = mag[omega > split]
    if low.size == 0 or high.size == 0:
        band, side = (("low", "below") if low.size == 0
                      else ("high", "at or above"))
        lo, hi = 2.0 * math.pi * np.array([1, T // 2]) / (T * s_tilde.grid_dt)
        raise DataError(
            f"rate split leaves an empty {band}-frequency band: the slower "
            f"rate {split:.5g} lies {side} the spectrum's frequencies "
            f"{lo:.5g} to {hi:.5g} rad/s; an explicit --snr avoids "
            "estimating the snr")
    plateau = float(np.mean(high))
    if plateau <= 0:
        raise DataError("flat-zero high-frequency band; snr undefined")
    return float(np.mean(low)) / plateau


def filtered_correlogram(s_hat, max_lag):
    """Correlogram from a corrected spectrum by one inverse real DFT, at
    the lags within `max_lag` seconds.

    With S(omega) = integral c(tau) exp(+i omega tau) dtau the lag-k value
    is (1/T) sum_n conj(S_n) exp(2 pi i n k / T), which `irfft` takes from
    the half spectrum; it is real by construction.
    """
    import scipy.fft  # here, so that importing the package loads no scipy

    T, grid_dt = s_hat.T, s_hat.grid_dt
    gamma = scipy.fft.irfft(s_hat.s_n.conj(), T)
    n_lags = int(round(max_lag / grid_dt))
    if not 1 <= n_lags <= T // 2 - 1 + T % 2:
        raise DataError("max_lag out of range for this spectrum length")
    values = np.concatenate([gamma[-n_lags:], gamma[:n_lags + 1]])
    return Correlogram(lag_grid=np.arange(-n_lags, n_lags + 1) * grid_dt,
                       values=values,
                       stderr=np.full(2 * n_lags + 1, np.nan),
                       n_days=s_hat.n_days)


def filtered_epps_curve(s_hat, s_auto_i, s_auto_j, dt_grid):
    """Epps curve implied by corrected cross- and auto-spectra.

    Each horizon's covariance is the lag sum of the module docstring over
    the spectrum's lag values, which one inverse real DFT takes as in
    `filtered_correlogram`; the three spectra must therefore share one
    length T and one grid step, and the Pearson coefficient follows.  A
    horizon whose filtered variance is <= 0 has no coefficient and is NaN.
    """
    import scipy.fft  # here, so that importing the package loads no scipy

    T = s_hat.T
    if s_auto_i.T != T or s_auto_j.T != T:
        raise DataError(f"cross and auto spectra differ in length: "
                        f"{T}, {s_auto_i.T}, {s_auto_j.T}")
    grid_dt = s_hat.grid_dt
    if s_auto_i.grid_dt != grid_dt or s_auto_j.grid_dt != grid_dt:
        raise DataError(f"cross and auto spectra differ in grid step: "
                        f"{grid_dt:g}, {s_auto_i.grid_dt:g}, "
                        f"{s_auto_j.grid_dt:g}")
    dt_grid = np.asarray(dt_grid, dtype=float)
    rho = np.empty(dt_grid.size)
    gamma = scipy.fft.irfft(np.conj([s_hat.s_n, s_auto_i.s_n, s_auto_j.s_n]),
                            T)
    for a, m in enumerate(_horizon_steps(dt_grid, grid_dt)):
        if m >= T:
            raise DataError("horizon must be in [1, T) grid steps")
        k = np.arange(1 - m, m)  # negative lags index gamma from its end
        # einsum, not a BLAS dot: the sums do not depend on the thread count
        c12, v1, v2 = np.einsum("k,sk->s", m - np.abs(k), gamma[:, k])
        rho[a] = c12 / math.sqrt(v1 * v2) if v1 > 0 and v2 > 0 else np.nan
    return EppsCurve(dt_grid=dt_grid, rho=rho,
                     stderr=np.full(dt_grid.size, np.nan))
