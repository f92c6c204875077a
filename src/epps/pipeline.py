"""Tick ingestion, session windowing, and the end-to-end analysis run.

Tick files are UTF-8 CSV with header `asset,day,time_sec,price`, where
time_sec counts decimal seconds from midnight exchange time.  A session
window skips the first 45 and last 21 minutes of the trading day and keeps
a fixed-length stretch (20000 s by default) for analysis.

`run_pipeline` wires the whole chain together on synthetic data: simulate
correlated paths, sample them at Poisson (or replayed) tick times, grid with
the previous-tick rule, estimate correlograms / spectra / Epps curves,
deconvolve the sampling kernel, fit both model families, and write every
artifact plus a manifest with content hashes.  Fixed seed and config give a
bit-identical output tree.
"""

from dataclasses import dataclass, asdict
import hashlib
import json
import math
import os

import numpy as np

from . import __version__
from .errors import DataError, EppsError, FitConvergenceError
from .kernels import ModelPair, load_model_file
from .sampling import (SteppedSeries, simulate_ensemble, draw_poisson_times,
                       previous_tick, default_warmup)
from .estimation import (estimate_rate, epps_curve, correlogram,
                         estimate_spectrum, write_epps_csv,
                         write_correlogram_csv, write_spectrum_csv)
from .filtering import (FilterSpec, apply_filter, auto_filter, estimate_snr,
                        filtered_correlogram, filtered_epps_curve)
from .fitting import (fit_cross_raw, fit_cross_async, fit_auto_raw,
                      fit_auto_async, chi2_ratio, fit_csv_row, FIT_CSV_HEADER)


@dataclass(frozen=True)
class SessionSpec:
    """Intraday analysis window.

    `open_time` is the session open in seconds from midnight (09:30 by
    default); the analysis window is [open_time + open_skip,
    open_time + open_skip + length].
    """

    open_skip: float = 2700.0
    close_skip: float = 1260.0
    length: float = 20000.0
    open_time: float = 34200.0

    def __post_init__(self):
        if self.length <= 0:
            raise DataError("session length must be > 0")
        if self.open_skip < 0 or self.close_skip < 0:
            raise DataError("session skips must be >= 0")

    @property
    def window_start(self):
        return self.open_time + self.open_skip

    @property
    def window_end(self):
        return self.window_start + self.length


@dataclass(frozen=True)
class TickSeries:
    """One asset-day of in-window ticks, times rebased to the window start."""

    asset_id: str
    day_id: str
    times: np.ndarray
    log_prices: np.ndarray

    def __post_init__(self):
        if self.times.shape != self.log_prices.shape:
            raise DataError("tick times and prices differ in length")
        if np.any(np.diff(self.times) <= 0):
            raise DataError("tick times must be strictly increasing")


_CHUNK_BYTES = 1 << 20  # text read per step, so memory stays bounded


def load_ticks(path, session=None, fail_fast=False):
    """Read a tick CSV into per-asset-day series.

    Returns (series, errors) where `series` maps (asset, day) to a
    TickSeries and `errors` lists rejected records as human-readable
    strings carrying line numbers, in line order.  Fields are stripped and
    blank lines skipped.  A record is rejected for a wrong field count, an
    unparseable or non-finite number, a nonpositive price, or (inside the
    inclusive session window) a time not after the last accepted time of
    its asset-day, equal times included.  With fail_fast the first bad
    record raises instead.
    """
    session = session or SessionSpec()
    buckets = {}  # (asset, day) -> ([time arrays], [log-price arrays])
    errors = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "asset,day,time_sec,price":
            raise DataError("expected header 'asset,day,time_sec,price'")
        lineno = 2
        while True:
            lines = fh.readlines(_CHUNK_BYTES)
            if not lines:
                break
            bad = _ingest_chunk(lines, lineno, session, buckets)
            lineno += len(lines)
            bad.sort()
            if bad and fail_fast:
                raise DataError(f"line {bad[0][0]}: {bad[0][1]}")
            errors += [f"line {n}: {msg}" for n, msg in bad]
    series = {}
    for (asset, day), (times, logs) in sorted(buckets.items()):
        series[(asset, day)] = TickSeries(
            asset_id=asset, day_id=day,
            times=np.concatenate(times) - session.window_start,
            log_prices=np.concatenate(logs))
    return series, errors


def _floats(texts):
    """Column of numbers and its mask of unparseable entries (set to NaN)."""
    try:
        return np.array(texts, dtype=float), np.zeros(len(texts), dtype=bool)
    except ValueError:
        pass
    values = np.empty(len(texts))
    bad = np.zeros(len(texts), dtype=bool)
    for k, text in enumerate(texts):
        try:
            values[k] = float(text)
        except ValueError:
            values[k] = np.nan
            bad[k] = True
    return values, bad


def _ingest_chunk(lines, first_lineno, session, buckets):
    """Parse consecutive raw lines column-wise into `buckets`.

    Returns the chunk's rejected records as (line number, message).  The
    monotonicity check of each asset-day carries over from earlier chunks
    through the last time in its bucket.
    """
    commas = np.array([ln.count(",") for ln in lines], dtype=np.intp)
    bad = [(first_lineno + k, f"expected 4 fields, got {commas[k] + 1}")
           for k in np.flatnonzero(commas != 3).tolist() if lines[k].strip()]
    good = np.flatnonzero(commas == 3)
    if not good.size:
        return bad
    text = lines if good.size == len(lines) else [lines[k] for k in good]
    # Raw lines keep their padding and newline: float() ignores surrounding
    # whitespace and the key fields are stripped once per run below.
    fields = ",".join(text).split(",")
    t, bad_t = _floats(fields[2::4])
    p, bad_p = _floats(fields[3::4])
    unparseable = bad_t | bad_p
    finite = np.isfinite(t) & np.isfinite(p)
    positive = finite & (p > 0)
    nonpositive = finite & ~positive
    for mask, what in ((unparseable, "unparseable number in {!r}"),
                       (~unparseable & ~finite, "non-finite number in {!r}")):
        bad += [(first_lineno + good[k], what.format(text[k].strip()))
                for k in np.flatnonzero(mask).tolist()]
    bad += [(first_lineno + good[k], f"nonpositive price {price}")
            for k, price in zip(np.flatnonzero(nonpositive).tolist(),
                                p[nonpositive].tolist())]

    keep = np.flatnonzero(positive & (t >= session.window_start)
                          & (t <= session.window_end))
    if not keep.size:
        return bad
    assets = np.array(fields[0::4], dtype=object)[keep]
    days = np.array(fields[1::4], dtype=object)[keep]
    starts = np.flatnonzero(np.concatenate(
        ([True], (assets[1:] != assets[:-1]) | (days[1:] != days[:-1]))))
    keys = {}
    run_group = [keys.setdefault((assets[s].strip(), days[s].strip()),
                                 len(keys)) for s in starts.tolist()]
    group = np.repeat(run_group, np.diff(starts, append=keep.size))
    order = np.argsort(group, kind="stable")
    ends = np.cumsum(np.bincount(group))
    for (asset, day), rows_g in zip(keys, np.split(keep[order], ends[:-1])):
        times = t[rows_g]
        times_b, logs_b = buckets.setdefault((asset, day), ([], []))
        last = times_b[-1][-1] if times_b else -np.inf
        before = np.maximum.accumulate(np.concatenate(([last], times[:-1])))
        accepted = times > before
        if accepted.any():
            times_b.append(times[accepted])
            logs_b.append(np.log(p[rows_g[accepted]]))
        bad += [(first_lineno + good[k],
                 f"non-monotone time {time} for {asset} {day}")
                for k, time in zip(rows_g[~accepted].tolist(),
                                   times[~accepted].tolist())]
    return bad


def grid_and_normalize(ts, grid_dt=1.0, session=None):
    """Previous-tick grid of one asset-day, increments normalized.

    The grid runs from the first whole step at or after the first tick to
    the session length; leading cells without a prior tick are dropped, not
    back-filled.  Returns None (a skipped day) when fewer than two ticks are
    in the window or the gridded increments have zero variance.
    """
    session = session or SessionSpec()
    if ts.times.size < 2:
        return None
    start = math.ceil(ts.times[0] / grid_dt - 1e-9) * grid_dt
    if session.length - start < 2 * grid_dt:
        return None
    stepped = previous_tick((ts.times, ts.log_prices), grid_dt=grid_dt,
                            start=start, end=session.length)
    incr = stepped.increments
    sd = np.std(incr)
    if sd == 0:
        return None
    levels = np.zeros(stepped.levels.size)
    levels[1:] = np.cumsum((incr - np.mean(incr)) / sd)
    return SteppedSeries(grid_dt=grid_dt, start=stepped.start, levels=levels,
                         tick_times=stepped.tick_times)


def align_pair(si, sj):
    """Trim two same-day stepped series to a common grid start.

    Each asset's grid begins at its own first tick, so paired days can come
    out with unequal lengths; the estimators need them aligned.  Levels keep
    their values (only increments matter downstream).
    """
    if si.grid_dt != sj.grid_dt:
        raise DataError("paired series must share one grid step")
    start = max(si.start, sj.start)

    def trim(s):
        k = int(round((start - s.start) / s.grid_dt))
        if k == 0:
            return s
        return SteppedSeries(grid_dt=s.grid_dt, start=start,
                             levels=s.levels[k:], tick_times=s.tick_times)

    return trim(si), trim(sj)


@dataclass(frozen=True)
class RunConfig:
    """Configuration of a synthetic end-to-end run.

    `replay_ticks_i/j` optionally point at tick-time files (one `tick_time`
    column); when set, sampling times are replayed from them on every day
    instead of being drawn as Poisson processes.
    """

    model_file: str
    lambda_i: float = 1.0
    lambda_j: float = 1.0
    n_days: int = 10
    length: float = 20000.0
    grid_dt: float = 1.0
    dt_grid: tuple = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
    max_lag: float = 120.0
    filter_mode: str = "inverse"
    snr: float = None
    seed: int = 0
    replay_ticks_i: str = None
    replay_ticks_j: str = None

    def __post_init__(self):
        if self.n_days < 1 or self.length <= 0 or self.grid_dt <= 0:
            raise DataError("n_days, length and grid_dt must be positive")
        if self.lambda_i <= 0 or self.lambda_j <= 0:
            raise DataError("sampling rates must be > 0")
        if self.max_lag <= self.grid_dt:
            raise DataError("max_lag must exceed the grid step")
        if any(dt <= 0 for dt in self.dt_grid):
            raise DataError("dt grid must be positive")
        if self.filter_mode not in ("inverse", "wiener"):
            raise DataError(f"unknown filter_mode {self.filter_mode!r}; "
                            "expected 'inverse' or 'wiener'")

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataError(f"bad config JSON: {exc}") from exc
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
        if "dt_grid" in raw:
            raw["dt_grid"] = tuple(raw["dt_grid"])
        return cls(**raw)


def _read_tick_times(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "tick_time":
        raise DataError("expected a single 'tick_time' column")
    try:
        times = np.array([float(x) for x in lines[1:]])
    except ValueError as exc:
        raise DataError(f"bad tick time: {exc}") from exc
    if times.size == 0 or np.any(np.diff(times) <= 0):
        raise DataError("tick times must be nonempty and strictly increasing")
    return times


def analyze_pair(days_i, days_j, rate_i, rate_j, dt_grid, max_lag,
                 filter_spec=None, grid_dt=1.0):
    """All pair-level estimates from per-day stepped series.

    Returns a dict with raw and filtered Epps curves, cross and auto
    correlograms (raw and filtered cross), spectra, the four fits, the
    chi-square comparison, and the SNR actually used.  Days whose grids do
    not span the full session are used for time-domain estimates but
    skipped for spectra.
    """
    out = {}
    dt_grid = np.asarray(dt_grid, dtype=float)
    out["epps_raw"] = epps_curve(days_i, days_j, dt_grid)
    cg = correlogram(days_i, days_j, max_lag)
    out["cg_cross"] = cg
    out["cg_auto_i"] = correlogram(days_i, days_i, max_lag)
    out["cg_auto_j"] = correlogram(days_j, days_j, max_lag)

    def norm(x):
        sd = np.std(x)
        if sd == 0:
            raise DataError("zero-variance day in spectrum input")
        return (x - np.mean(x)) / sd

    n_full = max(s.levels.size for s in days_i)
    full = [(norm(si.increments), norm(sj.increments))
            for si, sj in zip(days_i, days_j)
            if si.levels.size == n_full and sj.levels.size == n_full]
    out["n_days_spectra"] = len(full)
    di = [f[0] for f in full]
    dj = [f[1] for f in full]
    s_cross = estimate_spectrum(di, dj)
    s_ii = estimate_spectrum(di, di)
    s_jj = estimate_spectrum(dj, dj)
    out["s_cross"] = s_cross

    spec = filter_spec or FilterSpec()
    if spec.mode == "wiener" and spec.snr is None:
        spec = FilterSpec(mode="wiener",
                          snr=estimate_snr(s_cross, rate_i, rate_j, grid_dt))
    out["snr"] = spec.snr
    s_hat = apply_filter(s_cross, rate_i, rate_j, spec, grid_dt)
    auto_spec = None if spec.mode == "inverse" else spec
    s_ii_hat = auto_filter(s_ii, rate_i, out["cg_auto_i"].delta_mass,
                           auto_spec, grid_dt)
    s_jj_hat = auto_filter(s_jj, rate_j, out["cg_auto_j"].delta_mass,
                           auto_spec, grid_dt)
    out["s_cross_filtered"] = s_hat
    out["cg_cross_filtered"] = filtered_correlogram(s_hat, max_lag, grid_dt)
    out["epps_filtered"] = filtered_epps_curve(s_hat, s_ii_hat, s_jj_hat,
                                               dt_grid, grid_dt)

    fits = {}
    failures = {}
    for name, fn in (
            ("cross_raw", lambda: fit_cross_raw(cg)),
            ("cross_async", lambda: fit_cross_async(cg, rate_i, rate_j)),
            ("auto_i_raw", lambda: fit_auto_raw(out["cg_auto_i"])),
            ("auto_i_async", lambda: fit_auto_async(out["cg_auto_i"], rate_i)),
            ("auto_j_raw", lambda: fit_auto_raw(out["cg_auto_j"])),
            ("auto_j_async", lambda: fit_auto_async(out["cg_auto_j"], rate_j))):
        try:
            fits[name] = fn()
        except FitConvergenceError as exc:
            fits[name] = exc.result
            failures[name] = str(exc)
        except EppsError as exc:
            failures[name] = str(exc)
    out["fits"] = fits
    out["fit_failures"] = failures
    if "cross_raw" in fits and "cross_async" in fits:
        try:
            out["chi2_ratio"] = chi2_ratio(fits["cross_raw"],
                                           fits["cross_async"])
        except EppsError:
            out["chi2_ratio"] = float("nan")
    return out


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _simulate_days(pair, config):
    warmup = max(default_warmup(config.lambda_i),
                 default_warmup(config.lambda_j))
    paths = simulate_ensemble(pair, config.grid_dt, config.length,
                              config.n_days, seed=config.seed, warmup=warmup)
    replay = (None, None)
    if config.replay_ticks_i or config.replay_ticks_j:
        if not (config.replay_ticks_i and config.replay_ticks_j):
            raise DataError("replay mode needs tick-time files for both assets")
        replay = (_read_tick_times(config.replay_ticks_i),
                  _read_tick_times(config.replay_ticks_j))
    days_i, days_j, ticks_i, ticks_j = [], [], [], []
    for d, path in enumerate(paths):
        if replay[0] is not None:
            t_i = replay[0][replay[0] <= config.length]
            t_j = replay[1][replay[1] <= config.length]
            if t_i.size == 0 or t_j.size == 0:
                raise DataError("no replayed times inside the session")
            if t_i[0] < -warmup or t_j[0] < -warmup:
                raise DataError("replayed times start before the warmup")
        else:
            t_i = draw_poisson_times(config.lambda_i, config.length, warmup,
                                     seed=config.seed, stream=2 * d)
            t_j = draw_poisson_times(config.lambda_j, config.length, warmup,
                                     seed=config.seed, stream=2 * d + 1)
        days_i.append(previous_tick(path, t_i, asset=0, start=0.0,
                                    end=config.length))
        days_j.append(previous_tick(path, t_j, asset=1, start=0.0,
                                    end=config.length))
        ticks_i.append(t_i)
        ticks_j.append(t_j)
    return days_i, days_j, ticks_i, ticks_j


def run_pipeline(config, out_dir):
    """Run the synthetic pipeline and write the artifact directory.

    Emits spectra, raw and filtered correlograms, raw and filtered Epps
    curves, a fit table, and manifest.json listing every file with its
    sha256.  Deterministic for fixed (config, seed).
    """
    pair = load_model_file(config.model_file)
    if not isinstance(pair, ModelPair):
        raise DataError("model file must define a full model pair")
    os.makedirs(out_dir, exist_ok=True)
    days_i, days_j, ticks_i, ticks_j = _simulate_days(pair, config)
    in_window_i = [t[t >= 0] for t in ticks_i]
    in_window_j = [t[t >= 0] for t in ticks_j]
    rate_i = estimate_rate(np.concatenate(in_window_i),
                           config.n_days * config.length)
    rate_j = estimate_rate(np.concatenate(in_window_j),
                           config.n_days * config.length)
    spec = None
    if config.filter_mode == "wiener":
        spec = FilterSpec(mode="wiener", snr=config.snr)
    result = analyze_pair(days_i, days_j, rate_i.value, rate_j.value,
                          config.dt_grid, config.max_lag, spec,
                          config.grid_dt)

    files = {}

    def emit(name, writer, obj):
        path = os.path.join(out_dir, name)
        writer(obj, path)
        files[name] = _sha256(path)

    emit("epps_raw.csv", write_epps_csv, result["epps_raw"])
    emit("epps_filtered.csv", write_epps_csv, result["epps_filtered"])
    emit("correlogram_cross.csv", write_correlogram_csv, result["cg_cross"])
    emit("correlogram_cross_filtered.csv", write_correlogram_csv,
         result["cg_cross_filtered"])
    emit("correlogram_auto_i.csv", write_correlogram_csv, result["cg_auto_i"])
    emit("correlogram_auto_j.csv", write_correlogram_csv, result["cg_auto_j"])
    emit("spectrum_cross.csv", write_spectrum_csv, result["s_cross"])
    emit("spectrum_cross_filtered.csv", write_spectrum_csv,
         result["s_cross_filtered"])

    fit_rows = [FIT_CSV_HEADER]
    labels = {"cross": ("i", "j"), "auto_i": ("i", "i"), "auto_j": ("j", "j")}
    for name in sorted(result["fits"]):
        key = name.rsplit("_", 1)[0]
        fit_rows.append(fit_csv_row(result["fits"][name], *labels[key]))
    fit_path = os.path.join(out_dir, "fits.csv")
    with open(fit_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(fit_rows) + "\n")
    files["fits.csv"] = _sha256(fit_path)

    config_dict = asdict(config)
    manifest = {
        "version": __version__,
        "seed": config.seed,
        "config": config_dict,
        "config_sha256": hashlib.sha256(
            json.dumps(config_dict, sort_keys=True).encode()).hexdigest(),
        "rate_i": rate_i.value,
        "rate_j": rate_j.value,
        "snr": result["snr"],
        "n_days_spectra": result["n_days_spectra"],
        "chi2_ratio": result.get("chi2_ratio"),
        "fit_failures": result["fit_failures"],
        "files": files,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
