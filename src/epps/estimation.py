"""Empirical estimators on stepped series.

Covers the measurement side of the package: Poisson rate estimates, the
equal-time correlation as a function of the return horizon (the Epps curve),
lagged correlograms of one-step returns, and day-averaged cross-periodograms.

Spectrum convention matches the analytic modules: the periodogram
fft(dx_i) * conj(fft(dx_j)) / T estimates S(theta_n) with
S(omega) = integral c(tau) exp(+i omega tau) dtau.  It is computed from
real FFTs (one per series and day) and mirrored above T/2.
"""

from dataclasses import dataclass
import math

import numpy as np
import scipy.fft

from .errors import DataError


@dataclass(frozen=True)
class RateEstimate:
    value: float
    stderr: float


@dataclass(frozen=True)
class EppsCurve:
    """Pearson correlation of dt-horizon returns per grid point.

    Missing points (too few return pairs) carry NaN in both `rho` and
    `stderr`; they are never fabricated.
    """

    dt_grid: np.ndarray
    rho: np.ndarray
    stderr: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.dt_grid) <= 0):
            raise DataError("EppsCurve dt grid must be strictly increasing")


@dataclass(frozen=True)
class Correlogram:
    """Lagged correlation of one-step returns on a symmetric lag grid.

    For autocorrelograms the zero-lag bin is a point mass and is reported
    in `delta_mass`, with `values` zeroed at lag 0.
    """

    lag_grid: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    n_days: int
    delta_mass: float = None

    def __post_init__(self):
        step = np.diff(self.lag_grid)
        if step.size and not np.allclose(step, step[0], rtol=1e-9):
            raise DataError("Correlogram lag grid must be uniform")

    @property
    def grid_dt(self):
        return float(self.lag_grid[1] - self.lag_grid[0])


@dataclass(frozen=True)
class SpectrumEstimate:
    """Day-averaged cross-periodogram over T uniform increments."""

    T: int
    n_days: int
    s_n: np.ndarray
    rate_i: float = None
    rate_j: float = None

    def __post_init__(self):
        if self.s_n.shape != (self.T,):
            raise DataError("spectrum length must equal T")


def estimate_rate(ticks, session_length):
    """Poisson rate estimate: tick count over session length.

    The attached standard error is sqrt(count)/length.
    """
    if session_length <= 0:
        raise DataError("session_length must be > 0")
    n = len(np.asarray(ticks, dtype=float))
    if n == 0:
        raise DataError("cannot estimate a rate from zero ticks")
    return RateEstimate(value=n / session_length,
                        stderr=math.sqrt(n) / session_length)


def _common_grid(series_i, series_j):
    if len(series_i) != len(series_j) or not series_i:
        raise DataError("need the same nonzero number of days per asset")
    gdt = series_i[0].grid_dt
    for si, sj in zip(series_i, series_j):
        if si.grid_dt != gdt or sj.grid_dt != gdt:
            raise DataError("all days must share one grid step")
        if si.levels.size != sj.levels.size:
            raise DataError("paired days must have equal grid lengths")
    return gdt


def _nonoverlapping_returns(series, m):
    return np.diff(series.levels[::m])


def epps_curve(series_i, series_j, dt_grid):
    """Equal-time Pearson correlation of non-overlapping dt-returns.

    Returns are pooled across days for the point estimate; the standard
    error is the across-day dispersion of per-day coefficients.
    """
    gdt = _common_grid(series_i, series_j)
    dt_grid = np.asarray(dt_grid, dtype=float)
    if np.any(dt_grid <= 0):
        raise DataError("dt grid must be positive")
    steps = dt_grid / gdt
    if np.any(np.abs(steps - np.round(steps)) > 1e-9):
        raise DataError("every dt must be a multiple of the grid step")
    rho = np.full(dt_grid.size, np.nan)
    err = np.full(dt_grid.size, np.nan)
    for a, m in enumerate(np.round(steps).astype(int)):
        pooled_i, pooled_j, per_day = [], [], []
        for si, sj in zip(series_i, series_j):
            ri = _nonoverlapping_returns(si, m)
            rj = _nonoverlapping_returns(sj, m)
            pooled_i.append(ri)
            pooled_j.append(rj)
            if ri.size >= 2 and np.std(ri) > 0 and np.std(rj) > 0:
                per_day.append(np.corrcoef(ri, rj)[0, 1])
        ri = np.concatenate(pooled_i)
        rj = np.concatenate(pooled_j)
        if ri.size < 2 or np.std(ri) == 0 or np.std(rj) == 0:
            continue  # flagged missing
        rho[a] = np.corrcoef(ri, rj)[0, 1]
        if len(per_day) >= 2:
            err[a] = np.std(per_day, ddof=1) / math.sqrt(len(per_day))
    return EppsCurve(dt_grid=dt_grid, rho=rho, stderr=err)


def _normalized_increments(series, normalize):
    x = series.increments.astype(float)
    if not normalize:
        return x
    sd = np.std(x)
    if sd == 0:
        raise DataError("zero-variance day in correlogram input")
    return (x - np.mean(x)) / sd


def _lagged_products(x, y, n_lags):
    """Mean lagged products mean(x[m] * y[m + k]) for k = -n_lags..n_lags.

    One zero-padded real FFT cross-correlation: padding to at least
    n + n_lags points keeps the circular wrap-around off every lag read.
    """
    n = x.size
    size = scipy.fft.next_fast_len(n + n_lags, real=True)
    fx = scipy.fft.rfft(x, size)
    fy = fx if y is x else scipy.fft.rfft(y, size)
    lags = np.arange(-n_lags, n_lags + 1)
    return scipy.fft.irfft(fx.conj() * fy, size)[lags] / (n - np.abs(lags))


def correlogram(series_i, series_j, max_lag, normalize=True):
    """Lagged correlogram of one-step returns, averaged over days.

    Each day's increments are normalized to zero mean and unit variance
    before the cross-products (disable with normalize=False).  When the two
    inputs are the same series the zero-lag point mass is split off into
    `delta_mass`.
    """
    gdt = _common_grid(series_i, series_j)
    n_lags = int(round(max_lag / gdt))
    if n_lags < 1:
        raise DataError("max_lag must cover at least one grid step")
    is_auto = all(si is sj for si, sj in zip(series_i, series_j))
    rows = []
    for si, sj in zip(series_i, series_j):
        x = _normalized_increments(si, normalize)
        y = x if is_auto else _normalized_increments(sj, normalize)
        if n_lags >= x.size:
            raise DataError("max_lag must be shorter than the session")
        rows.append(_lagged_products(x, y, n_lags))
    rows = np.array(rows)
    values = rows.mean(axis=0)
    if len(rows) >= 2:
        stderr = rows.std(axis=0, ddof=1) / math.sqrt(len(rows))
    else:
        stderr = np.full(values.shape, np.nan)
    delta = None
    if is_auto:
        delta = float(values[n_lags])
        values = values.copy()
        values[n_lags] = 0.0
    return Correlogram(lag_grid=np.arange(-n_lags, n_lags + 1) * gdt,
                       values=values, stderr=stderr, n_days=len(rows),
                       delta_mass=delta)


def estimate_spectrum(increments_i, increments_j, T=None):
    """Cross-periodogram fft(dx_i) conj(fft(dx_j)) / T averaged over days.

    Every day must supply exactly T increments.  Each side takes one real
    FFT per day, accumulated day by day so that memory does not grow with
    the number of days; when every day of `increments_i` is the same object
    as the matching day of `increments_j` (an auto spectrum), one transform
    serves both sides.  The bins above T/2 are mirrored from the half
    spectrum, so Hermitian pairing S_{T-n} = conj(S_n) holds exactly.
    """
    if len(increments_i) != len(increments_j) or not increments_i:
        raise DataError("need the same nonzero number of days per asset")
    is_auto = all(di is dj for di, dj in zip(increments_i, increments_j))
    days_i = [np.asarray(d, dtype=float) for d in increments_i]
    days_j = days_i if is_auto else [np.asarray(d, dtype=float)
                                     for d in increments_j]
    if T is None:
        T = days_i[0].size
    if T < 1:
        raise DataError("need at least one increment per day")
    for d in (*days_i, *days_j):
        if d.size != T:
            raise DataError(f"day length {d.size} != T = {T}")
    half = np.zeros(T // 2 + 1, dtype=complex)
    for di, dj in zip(days_i, days_j):
        fi = scipy.fft.rfft(di)
        if is_auto:
            half += fi.real ** 2 + fi.imag ** 2
        else:
            half += fi * scipy.fft.rfft(dj).conj()
    half /= len(days_i) * T
    s_n = np.empty(T, dtype=complex)
    s_n[:half.size] = half
    s_n[half.size:] = half[1:(T + 1) // 2][::-1].conj()
    return SpectrumEstimate(T=int(T), n_days=len(days_i), s_n=s_n)


# -- CSV round trips ------------------------------------------------------------

def write_epps_csv(curve, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("dt,rho,stderr\n")
        for dt, r, e in zip(curve.dt_grid, curve.rho, curve.stderr):
            fh.write(f"{dt:.10g},{r:.17g},{e:.17g}\n")


def read_epps_csv(path):
    data = _read_table(path, "dt,rho,stderr")
    return EppsCurve(dt_grid=data[:, 0], rho=data[:, 1], stderr=data[:, 2])


def write_correlogram_csv(cg, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n_days={cg.n_days}\n")
        if cg.delta_mass is not None:
            fh.write(f"# delta_mass={cg.delta_mass:.17g}\n")
        fh.write("tau,value\n")
        for t, v in zip(cg.lag_grid, cg.values):
            fh.write(f"{t:.10g},{v:.17g}\n")


def read_correlogram_csv(path):
    meta = {}
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    for line in text.splitlines():
        if line.startswith("#") and "=" in line:
            k, v = line[1:].split("=", 1)
            meta[k.strip()] = float(v)
    data = _parse_table(text, "tau,value")
    return Correlogram(lag_grid=data[:, 0], values=data[:, 1],
                       stderr=np.full(data.shape[0], np.nan),
                       n_days=int(meta.get("n_days", 1)),
                       delta_mass=meta.get("delta_mass"))


def write_spectrum_csv(spec, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n_days={spec.n_days}\n")
        if spec.rate_i is not None:
            fh.write(f"# rate_i={spec.rate_i:.17g}\n")
        if spec.rate_j is not None:
            fh.write(f"# rate_j={spec.rate_j:.17g}\n")
        fh.write("n,re,im\n")
        s = spec.s_n
        table = np.column_stack((np.arange(s.size), s.real, s.imag))
        fh.write(("%d,%.17g,%.17g\n" * s.size) % tuple(table.ravel().tolist()))


def read_spectrum_csv(path):
    meta = {}
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    for line in text.splitlines():
        if line.startswith("#") and "=" in line:
            k, v = line[1:].split("=", 1)
            meta[k.strip()] = float(v)
    data = _parse_table(text, "n,re,im")
    return SpectrumEstimate(T=data.shape[0], n_days=int(meta.get("n_days", 1)),
                            s_n=data[:, 1] + 1j * data[:, 2],
                            rate_i=meta.get("rate_i"), rate_j=meta.get("rate_j"))


def _read_table(path, header):
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_table(fh.read(), header)


def _parse_table(text, header):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0].strip() != header:
        raise DataError(f"expected header {header!r}")
    try:
        rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    except ValueError as exc:
        raise DataError(f"bad number in table: {exc}") from exc
    ncol = len(header.split(","))
    if any(len(r) != ncol for r in rows):
        raise DataError("ragged rows in table")
    return np.array(rows, dtype=float).reshape(-1, ncol)
