"""Empirical estimators on stepped series.

Covers the measurement side of the package: Poisson rate estimates, the
equal-time correlation as a function of the return horizon (the Epps curve),
lagged correlograms of one-step returns, and day-averaged cross-periodograms.

Spectrum convention matches the analytic modules: the periodogram
fft(dx_i) * conj(fft(dx_j)) / T estimates S(theta_n) with
S(omega) = integral c(tau) exp(+i omega tau) dtau.  It is computed from
real FFTs (one per series and day).  Real increments give a Hermitian
spectrum, S_{T-n} = conj(S_n), so only bins n = 0..T//2 are kept.
"""

from dataclasses import dataclass
import math
import sys

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, read_text


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
    """Day-averaged cross-periodogram over T uniform increments, held as
    its bins n = 0..T//2; the rest follow from S_{T-n} = conj(S_n)."""

    T: int
    n_days: int
    s_n: np.ndarray

    def __post_init__(self):
        if self.s_n.shape != (self.T // 2 + 1,):
            raise DataError(f"a spectrum of T = {self.T} holds T//2 + 1 = "
                            f"{self.T // 2 + 1} bins, not {self.s_n.shape}")


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


def _horizon_steps(dt_grid, grid_dt):
    """Each horizon of `dt_grid` as a whole number of grid steps, at least
    one; DataError when one is not."""
    steps = np.asarray(dt_grid, dtype=float) / grid_dt
    ms = np.round(steps)
    # below 2**62 so that the cast to int cannot wrap
    if not np.all((np.abs(steps - ms) <= 1e-9) & (ms >= 1) & (ms < 2.0**62)):
        raise DataError("every dt must be a positive multiple of the grid "
                        f"step {grid_dt:g}")
    return ms.astype(int)


def epps_curve(series_i, series_j, dt_grid):
    """Equal-time Pearson correlation of non-overlapping dt-returns.

    Returns are pooled across days for the point estimate; the standard
    error is the across-day dispersion of per-day coefficients.  A day
    enters as its return count, mean returns and cross-products centred on
    those means; pooling adds the between-day (parallel-axis) term, so a
    large mean return costs no digits.  A horizon is missing (NaN) when the
    pooled returns number fewer than two or either asset's are constant; a
    day adds a coefficient when it has two returns and neither asset's are
    constant.
    """
    ms = _horizon_steps(dt_grid, _common_grid(series_i, series_j))
    dt_grid = np.asarray(dt_grid, dtype=float)
    # per (horizon, day): return count, means, centred cross-products
    n, mx, my, sxx, syy, sxy = np.zeros((6, dt_grid.size, len(series_i)))
    for d, (si, sj) in enumerate(zip(series_i, series_j)):
        for a, m in enumerate(ms):
            ri = np.diff(si.levels[::m])
            rj = np.diff(sj.levels[::m])
            if ri.size == 0:
                continue
            n[a, d] = ri.size
            mx[a, d] = ri.mean()
            my[a, d] = rj.mean()
            xc = ri - mx[a, d]
            yc = rj - my[a, d]
            # einsum, not a BLAS dot: its sums do not depend on the BLAS
            # thread count
            sxx[a, d] = np.einsum("i,i->", xc, xc)
            syy[a, d] = np.einsum("i,i->", yc, yc)
            sxy[a, d] = np.einsum("i,i->", xc, yc)
    total = n.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        bx = mx - (n * mx).sum(axis=1, keepdims=True) / total[:, None]
        by = my - (n * my).sum(axis=1, keepdims=True) / total[:, None]
        pxx = sxx.sum(axis=1) + (n * bx * bx).sum(axis=1)
        pyy = syy.sum(axis=1) + (n * by * by).sum(axis=1)
        pxy = sxy.sum(axis=1) + (n * bx * by).sum(axis=1)
        pooled = np.clip(pxy / np.sqrt(pxx) / np.sqrt(pyy), -1.0, 1.0)
        per_day = np.clip(sxy / np.sqrt(sxx) / np.sqrt(syy), -1.0, 1.0)
    present = (total >= 2) & (pxx > 0) & (pyy > 0)
    rho = np.where(present, pooled, np.nan)
    err = np.full(dt_grid.size, np.nan)
    counted = (n >= 2) & (sxx > 0) & (syy > 0)
    for a in np.flatnonzero(present & (counted.sum(axis=1) >= 2)):
        r = per_day[a, counted[a]]
        err[a] = np.std(r, ddof=1) / math.sqrt(r.size)
    return EppsCurve(dt_grid=dt_grid, rho=rho, stderr=err)


def _normalized_increments(series, normalize):
    x = series.increments.astype(float, copy=False)
    if not normalize:
        return x
    sd = np.std(x)
    if sd == 0:
        raise DataError("zero-variance day in correlogram input")
    return (x - np.mean(x)) / sd


# Days per 2-D scipy.fft call.  pocketfft transforms the rows of a block
# two at a time in SIMD lanes, and each row keeps the bits of its own 1-D
# call.  At 5-smooth lengths, which include every padded correlogram length,
# blocks of 4 took about 3/4 of the time of 1-D calls (20 000, 20 250 and
# 40 000 points); at lengths with a larger prime factor batching gained
# nothing and made the spectra of 39 990-step days slower, so those take one
# day per call (README, "Correlograms").
_FFT_BLOCK_DAYS = 4


def _day_blocks(lengths, per_block):
    """Slices of up to `per_block` consecutive days of one length."""
    start = 0
    for k in range(1, len(lengths) + 1):
        if (k == len(lengths) or k - start == per_block
                or lengths[k] != lengths[start]):
            yield slice(start, k)
            start = k


def _stacked(days):
    """A block's days as the rows of one array; one day is not copied."""
    return days[0][None, :] if len(days) == 1 else np.array(days)


# Lag windows of up to this many lags are summed directly; longer ones take
# one padded real FFT.  Per day, the direct sums cost as much as the FFT at
# about 32 lags on 2 000 steps and between 32 and 60 on 20 000 and 39 990;
# at 16 lags they take at most 3/4 of its time at each of those lengths
# (README, "Correlograms").  The default 120 s window of `epps run` and
# `epps estimate` stays on the FFT path.
_DIRECT_MAX_LAGS = 16


def _lag_sums(x, y, n_lags):
    """sum_m x[m] * y[m + k] over the overlap, for k = 0..n_lags.

    One einsum over a sliding window of y padded with n_lags zeros; einsum
    uses no BLAS, so the sums do not depend on the BLAS thread count.
    """
    padded = np.concatenate([y, np.zeros(n_lags)])
    return np.einsum("i,ij->j", x, sliding_window_view(padded, n_lags + 1))


def _direct_lagged_products(x, y, n_lags):
    """Mean lagged products mean(x[m] * y[m + k]), k = -n_lags..n_lags, of
    one day by direct sums over the overlapping products (an auto
    correlogram sums k >= 0 only and mirrors them)."""
    ahead = _lag_sums(x, y, n_lags)
    behind = ahead if y is x else _lag_sums(y, x, n_lags)
    lags = np.arange(-n_lags, n_lags + 1)
    return np.concatenate([behind[:0:-1], ahead]) / (x.size - np.abs(lags))


def _fft_lagged_products(xs, ys, n_lags, autos):
    """The same means for a block of days of one length, by zero-padded
    real FFT cross-correlation: padding to at least n + n_lags points keeps
    the circular wrap-around off every lag read.

    Returns the rows of (x, y) and, with `autos`, those of (x, x) and
    (y, y): two padded rFFTs and three irFFTs per day, each one 2-D call.
    """
    import scipy.fft  # here, so that importing the package loads no scipy

    n = xs[0].size
    lags = np.arange(-n_lags, n_lags + 1)
    size = scipy.fft.next_fast_len(n + n_lags, real=True)
    fx = scipy.fft.rfft(_stacked(xs), size, axis=-1)
    fy = fx if ys is xs else scipy.fft.rfft(_stacked(ys), size, axis=-1)
    pairs = [(fx, fy), (fx, fx), (fy, fy)] if autos else [(fx, fy)]
    return [scipy.fft.irfft(a.conj() * b, size, axis=-1)[:, lags]
            / (n - np.abs(lags)) for a, b in pairs]


def _lagged_product_rows(series_i, series_j, n_lags, normalize, autos):
    """Per-day mean lagged products of (i, j) and, with `autos`, of (i, i)
    and (j, j), from one pass over the days: each day is normalized once,
    and one block of days at a time is held."""
    is_auto = all(si is sj for si, sj in zip(series_i, series_j))
    rows = [[] for _ in range(3 if autos else 1)]
    lengths = [s.levels.size - 1 for s in series_i]
    # the direct sums take one day at a time, while it is in cache
    use_fft = n_lags > _DIRECT_MAX_LAGS
    for block in _day_blocks(lengths, _FFT_BLOCK_DAYS if use_fft else 1):
        xs = [_normalized_increments(s, normalize) for s in series_i[block]]
        ys = xs if is_auto else [_normalized_increments(s, normalize)
                                 for s in series_j[block]]
        if n_lags >= xs[0].size:
            raise DataError("max_lag must be shorter than the session")
        if use_fft:
            got = _fft_lagged_products(xs, ys, n_lags, autos)
        else:
            pairs = [(xs, ys), (xs, xs), (ys, ys)] if autos else [(xs, ys)]
            got = [[_direct_lagged_products(x, y, n_lags)
                    for x, y in zip(a, b)] for a, b in pairs]
        for out, block_rows in zip(rows, got):
            out.extend(block_rows)
    return is_auto, [np.array(r) for r in rows]


def _correlogram_from_rows(rows, n_lags, gdt, is_auto):
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


def correlogram(series_i, series_j, max_lag, normalize=True, autos=False):
    """Lagged correlogram of one-step returns, averaged over days.

    Each day's increments are normalized to zero mean and unit variance
    before the cross-products (disable with normalize=False).  When the two
    inputs are the same series the zero-lag point mass is split off into
    `delta_mass`.  With `autos`, returns (cross, auto_i, auto_j), each
    equal to its own call, from one pass over the days.

    Each day's mean lagged products come from one of two exact methods,
    which agree to round-off: windows of up to `_DIRECT_MAX_LAGS` (16)
    lags sum the overlapping products directly, longer ones take one
    zero-padded real FFT per series and day, batched over blocks of days.
    Neither uses BLAS, so the output does not depend on the BLAS thread
    count.
    """
    gdt = _common_grid(series_i, series_j)
    n_lags = int(round(max_lag / gdt))
    if n_lags < 1:
        raise DataError("max_lag must cover at least one grid step")
    is_auto, rows = _lagged_product_rows(series_i, series_j, n_lags,
                                         normalize, autos)
    cgs = [_correlogram_from_rows(r, n_lags, gdt, auto)
           for r, auto in zip(rows, (is_auto, True, True))]
    return tuple(cgs) if autos else cgs[0]


def _n_increments(day):
    """Length of a spectrum day: an array of increments or a stepped
    series."""
    return day.levels.size - 1 if hasattr(day, "levels") else np.size(day)


def _spectrum_rows(days):
    """A block of spectrum days as the rows of one array; a stepped
    series' increments are taken here."""
    return _stacked([d.increments if hasattr(d, "levels")
                     else np.asarray(d, dtype=float) for d in days])


def estimate_spectrum(increments_i, increments_j, autos=False):
    """Cross-periodogram fft(dx_i) conj(fft(dx_j)) / T averaged over days.

    Every day must supply exactly T increments, as an array or as a stepped
    series of T + 1 levels.  Each side takes one real FFT per day, one 2-D
    call per block of days, and the periodograms are accumulated day by
    day, so memory does not grow with the number of days: a stepped
    series' increments are taken only for its block.  When every day of
    `increments_i` is the same object as the matching day of
    `increments_j` (an auto spectrum), one transform serves both sides.
    With `autos`, returns (cross, auto_i, auto_j), each equal to its own
    call, from the same transforms.  Only bins n = 0..T//2 are computed and
    returned.
    """
    import scipy.fft  # here, so that importing the package loads no scipy

    if len(increments_i) != len(increments_j) or not increments_i:
        raise DataError("need the same nonzero number of days per asset")
    is_auto = all(di is dj for di, dj in zip(increments_i, increments_j))
    T = _n_increments(increments_i[0])
    if T < 1:
        raise DataError("need at least one increment per day")
    for size in map(_n_increments, (*increments_i, *increments_j)):
        if size != T:
            raise DataError(f"day length {size} != T = {T}")
    sums = [np.zeros(T // 2 + 1, dtype=complex)
            for _ in range(3 if autos else 1)]
    smooth = scipy.fft.next_fast_len(T, real=True) == T
    per_block = _FFT_BLOCK_DAYS if smooth else 1
    n_days = len(increments_i)
    for block in _day_blocks([T] * n_days, per_block):
        fi = scipy.fft.rfft(_spectrum_rows(increments_i[block]), axis=-1)
        fj = fi if is_auto else scipy.fft.rfft(
            _spectrum_rows(increments_j[block]), axis=-1)
        for a, b in zip(fi, fj):
            if is_auto:
                sums[0] += a.real ** 2 + a.imag ** 2
            else:
                sums[0] += a * b.conj()
            if autos:
                sums[1] += a.real ** 2 + a.imag ** 2
                sums[2] += b.real ** 2 + b.imag ** 2
    spectra = []
    for half in sums:
        half /= n_days * T
        spectra.append(SpectrumEstimate(T=int(T), n_days=n_days, s_n=half))
    return tuple(spectra) if autos else spectra[0]


# -- CSV round trips ------------------------------------------------------------

def _write_text(text, path):
    """Write `text` to the file `path`, or to standard output for "-"."""
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_table(path, header, columns, row_format, meta=None):
    """Write a table: one `# key=text` line per item of `meta`, the header,
    then row k of the equal-length `columns` formatted by `row_format`
    (one % conversion per column, comma-separated).  `path` "-" is
    standard output."""
    table = np.column_stack(columns)
    rows = ((row_format + "\n") * len(table)) % tuple(table.ravel().tolist())
    lines = "".join(f"# {key}={text}\n" for key, text in (meta or {}).items())
    _write_text(f"{lines}{header}\n{rows}", path)


def _read_table(path, header):
    """The `# key=number` lines and the rows of numbers of a table file.

    Returns (meta, rows): `meta` maps each key to its number, the last line
    winning, and `rows` is an (n, k) float array for a header of k names.
    Lines are stripped and blank ones skipped.  A `#` line that is not
    `# key=number`, a first other line that is not `header`, or a row that
    is not k numbers raises DataError naming the file and the line.
    """
    meta, body = {}, []
    for n, line in enumerate(read_text(path).split("\n"), 1):
        line = line.strip()
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            try:
                meta[key.strip()] = float(value)
            except ValueError:
                raise DataError(f"{path} line {n}: expected '# key=number', "
                                f"got {line!r}") from None
        elif line:
            body.append((n, line))
    n, first = body[0] if body else (n, "")
    if first != header:
        raise DataError(f"{path} line {n}: expected the header {header!r}, "
                        f"got {first!r}")
    ncol = header.count(",") + 1
    rows = []
    for n, line in body[1:]:
        try:
            row = [float(cell) for cell in line.split(",")]
        except ValueError:
            row = []
        if len(row) != ncol:
            raise DataError(f"{path} line {n}: expected {ncol} numbers, "
                            f"got {line!r}")
        rows.append(row)
    return meta, np.array(rows, dtype=float).reshape(-1, ncol)


def _n_days(meta, path):
    n_days = meta.get("n_days", 1.0)
    if not math.isfinite(n_days):
        raise DataError(f"{path}: n_days must be finite")
    return int(n_days)


def write_epps_csv(curve, path):
    _write_table(path, "dt,rho,stderr", (curve.dt_grid, curve.rho,
                                         curve.stderr), "%.10g,%.17g,%.17g")


def read_epps_csv(path):
    _, rows = _read_table(path, "dt,rho,stderr")
    return EppsCurve(dt_grid=rows[:, 0], rho=rows[:, 1], stderr=rows[:, 2])


def write_correlogram_csv(cg, path):
    meta = {"n_days": cg.n_days}
    if cg.delta_mass is not None:
        meta["delta_mass"] = f"{cg.delta_mass:.17g}"
    _write_table(path, "tau,value", (cg.lag_grid, cg.values), "%.10g,%.17g",
                 meta)


def read_correlogram_csv(path):
    meta, rows = _read_table(path, "tau,value")
    return Correlogram(lag_grid=rows[:, 0], values=rows[:, 1],
                       stderr=np.full(rows.shape[0], np.nan),
                       n_days=_n_days(meta, path),
                       delta_mass=meta.get("delta_mass"))


def write_spectrum_csv(spec, path):
    """Rows n = 0..T//2; the `# T=` line tells an odd T from an even one."""
    s = spec.s_n
    _write_table(path, "n,re,im", (np.arange(s.size), s.real, s.imag),
                 "%d,%.17g,%.17g", {"n_days": spec.n_days, "T": spec.T})


def read_spectrum_csv(path):
    meta, rows = _read_table(path, "n,re,im")
    T = meta.get("T", math.nan)
    if not (math.isfinite(T) and T >= 1 and T == int(T)):
        raise DataError(f"{path}: no '# T=' line with an integer T >= 1; "
                        "older full-length spectrum CSVs are not read")
    spec = SpectrumEstimate(T=int(T), n_days=_n_days(meta, path),
                            s_n=rows[:, 1] + 1j * rows[:, 2])
    if not np.array_equal(rows[:, 0], np.arange(spec.s_n.size)):
        raise DataError(f"{path}: the n column must read 0..{spec.T // 2} "
                        "in order")
    return spec
