"""The analysis run: session gridding, pair analysis and the artifact
writer that `epps run` and `epps estimate` share, and the synthetic run.

`run_pipeline` wires the whole chain together on synthetic data: simulate
correlated paths, sample them at Poisson (or replayed) tick times, grid
and normalize them as tick files are, estimate correlograms / spectra /
Epps curves, deconvolve the sampling kernel, fit both model families, and
write every artifact plus a manifest with content hashes.  Fixed seed and
config give a bit-identical output tree.
"""

from dataclasses import dataclass, asdict
import hashlib
import json
import math
from numbers import Real
import os

import numpy as np

from . import __version__
from .errors import DataError, EppsError, read_text
from .kernels import load_model_file
from .sampling import (SteppedSeries, simulate_ensemble, draw_poisson_times,
                       previous_tick, default_warmup, rng_stream)
from .estimation import (epps_curve, correlogram, estimate_spectrum,
                         write_epps_csv, write_correlogram_csv,
                         write_spectrum_csv, _common_grid, _horizon_steps,
                         _write_text)
from .filtering import (FilterSpec, apply_filter, auto_filter, estimate_snr,
                        filtered_correlogram, filtered_epps_curve)
from .fitting import (fit_cross_raw, fit_cross_async, fit_auto_raw,
                      fit_auto_async, chi2_ratio, fit_csv_row, FIT_CSV_HEADER)
from .ticks import SessionSpec, TickSeries, _read_tick_times, on_clock


def grid_and_normalize(ts, grid_dt=1.0, session=None):
    """Previous-tick grid of one asset-day on [0, session length], kept as
    its increments normalized to zero mean and unit variance.

    The level at the window start is the open tick's; without one, the
    first tick's level is back-filled to the window start, which loses the
    return before that tick.  The result keeps `previous_tick`'s count of
    the ticks in the gridded span, and no tick.  Returns None (a skipped
    day) when the series has no tick, the grid has fewer than two cells or
    the gridded increments have zero variance.
    """
    session = session or SessionSpec()
    if not ts.times.size or session.length < 2 * grid_dt:
        return None
    # without an open tick, a stand-in before the window carries the first
    # tick's level
    t0, level0 = ts.open_tick or (min(ts.times[0], 0.0) - grid_dt,
                                  ts.log_prices[0])
    stepped = previous_tick((np.insert(ts.times, 0, t0),
                             np.insert(ts.log_prices, 0, level0)),
                            grid_dt=grid_dt, start=0.0, end=session.length)
    incr = stepped.increments
    sd = np.std(incr)
    if sd == 0:
        return None
    return SteppedSeries(grid_dt=grid_dt,
                         increments=(incr - np.mean(incr)) / sd,
                         n_ticks=stepped.n_ticks)


def _check_settings(length, grid_dt, dt_grid, max_lag, filter_mode, snr):
    """The FilterSpec of the settings of `epps run` and `epps estimate`,
    checked before any work as the analysis needs them: a grid step in
    (0, length/2], one or more strictly increasing horizons of 1 to T - 1
    steps of a day of T steps, and a `max_lag` of 1 to T//2 - 1 + T%2
    steps."""
    if not len(dt_grid):
        raise DataError("dt_grid must hold at least one horizon")
    if not 0 < grid_dt <= length / 2:
        raise DataError(f"grid_dt must be finite and in (0, {length / 2:g}]")
    T = int(math.floor(length / grid_dt + 1e-9))  # as `previous_tick` counts
    if np.any(_horizon_steps(dt_grid, grid_dt) >= T):
        raise DataError(f"each dt must be below the session length {length:g}")
    if np.any(np.diff(np.asarray(dt_grid, dtype=float)) <= 0):
        raise DataError("dt_grid must be strictly increasing")
    lags, top = max_lag / grid_dt, T // 2 - 1 + T % 2
    if not (math.isfinite(lags) and 1 <= round(lags) <= top):
        raise DataError(f"max_lag must be finite, 1 to {top} grid steps")
    return FilterSpec(filter_mode, snr)


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
        # an integer path would be opened as a file descriptor
        for key in ("model_file", "replay_ticks_i", "replay_ticks_j"):
            value = getattr(self, key)
            if not (isinstance(value, str)
                    or value is None and key != "model_file"):
                raise DataError(f"{key} must be a path string, got {value!r}")
        if not isinstance(self.dt_grid, (list, tuple)):
            raise DataError(f"dt_grid must be a list of numbers, got "
                            f"{self.dt_grid!r}")
        # JSON true and false load as Python ints, which every check below
        # would take as 1 and 0; a string or null is no number either
        numbers = {key: getattr(self, key) for key in (
            "lambda_i", "lambda_j", "n_days", "length", "grid_dt", "max_lag")}
        if self.snr is not None:  # None: estimated
            numbers["snr"] = self.snr
        numbers.update((f"dt_grid[{k}]", x)
                       for k, x in enumerate(self.dt_grid))
        for key, value in numbers.items():
            if not isinstance(value, Real) or isinstance(value, bool):
                raise DataError(f"{key} must be a number, got {value!r}")
        if not isinstance(self.n_days, int) or self.n_days < 1:
            raise DataError("n_days must be a positive integer")
        rng_stream(self.seed)  # checks the seed
        if not all(0 < x < math.inf for x in (self.lambda_i, self.lambda_j,
                                              self.length, *self.dt_grid)):
            raise DataError("sampling rates, length and the dt grid must be "
                            "finite and > 0")
        _check_settings(self.length, self.grid_dt, self.dt_grid,
                        self.max_lag, self.filter_mode, self.snr)

    @classmethod
    def from_file(cls, path):
        try:
            raw = json.loads(read_text(path))
        except json.JSONDecodeError as exc:
            raise DataError(f"bad config JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise DataError("a run config is a JSON object, got a "
                            f"{type(raw).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
        if isinstance(raw.get("dt_grid"), list):
            raw["dt_grid"] = tuple(raw["dt_grid"])
        return cls(**raw)


def analyze_pair(days_i, days_j, dt_grid, max_lag, filter_spec=None):
    """All pair-level estimates from per-day grids as `grid_and_normalize`
    makes them, whose stored increments are already normalized: the
    correlograms and the spectra use them as they are, on the grid step
    the days share.  Each asset's sampling rate, which the filters and the
    async fits take, is its days' ticks over their gridded seconds:
    sum n_ticks / (days * T * grid_dt).

    Returns a dict with the rates, raw and filtered Epps curves, cross and
    auto correlograms (raw and filtered cross), spectra, the six fits and
    their failures, the chi-square comparison, and the SNR actually used.
    Every day enters the spectra, so all days need grids of one length.
    """
    out = {}
    dt_grid = np.asarray(dt_grid, dtype=float)
    out["epps_raw"] = epps_curve(days_i, days_j, dt_grid)
    cg, out["cg_auto_i"], out["cg_auto_j"] = correlogram(
        days_i, days_j, max_lag, normalize=False, autos=True)
    out["cg_cross"] = cg

    out["n_days_spectra"] = len(days_i)
    s_cross, s_ii, s_jj = estimate_spectrum(
        [s.increments for s in days_i], [s.increments for s in days_j],
        autos=True, grid_dt=_common_grid(days_i, days_j))
    out["s_cross"] = s_cross

    # the gridded seconds of all days
    seconds = s_cross.n_days * (s_cross.T * s_cross.grid_dt)
    rate_i, rate_j = (sum(s.n_ticks for s in days) / seconds
                      for days in (days_i, days_j))
    out["rate_i"], out["rate_j"] = rate_i, rate_j
    spec = filter_spec or FilterSpec()
    if spec.mode == "wiener" and spec.snr is None:
        spec = FilterSpec(mode="wiener",
                          snr=estimate_snr(s_cross, rate_i, rate_j))
    out["snr"] = spec.snr
    s_hat = apply_filter(s_cross, rate_i, rate_j, spec)
    s_ii_hat = auto_filter(s_ii, rate_i, out["cg_auto_i"].delta_mass, spec)
    s_jj_hat = auto_filter(s_jj, rate_j, out["cg_auto_j"].delta_mass, spec)
    out["s_cross_filtered"] = s_hat
    out["cg_cross_filtered"] = filtered_correlogram(s_hat, max_lag)
    out["epps_filtered"] = filtered_epps_curve(s_hat, s_ii_hat, s_jj_hat,
                                               dt_grid)

    fits = {}
    failures = {}

    def attempt(name, fn, *args):
        """Run one fit; a fit that cannot run is recorded with its reason."""
        try:
            fits[name] = fn(*args)
        except EppsError as exc:
            failures[name] = str(exc)

    attempt("cross_raw", fit_cross_raw, cg)
    attempt("cross_async", fit_cross_async, cg, rate_i, rate_j)
    for key, lam in (("auto_i", rate_i), ("auto_j", rate_j)):
        attempt(f"{key}_raw", fit_auto_raw, out[f"cg_{key}"])
        attempt(f"{key}_async", fit_auto_async, out[f"cg_{key}"], lam)
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
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_artifacts(result, out_dir, labels, meta):
    """Write `analyze_pair`'s result and its manifest into `out_dir`.

    Writes Epps curves, correlograms and spectra (raw and filtered) as eight
    CSVs, and `fits.csv` with `labels` = (label_i, label_j) naming the
    assets.  `manifest.json` holds `meta`, whose `config` describes the
    run, plus the package version, the config's sha256, the rates and SNR
    used, the number of days in the spectra, the fit comparison and
    failures, per fit the degeneracy tests that fired and the optimizer's
    model evaluations (`fit_diagnostics`), and the sha256 of every file.
    Returns the manifest.
    """
    os.makedirs(out_dir, exist_ok=True)
    li, lj = labels
    pairs = {"cross": (li, lj), "auto_i": (li, li), "auto_j": (lj, lj)}
    fit_rows = [FIT_CSV_HEADER] + [
        fit_csv_row(fit, *pairs[name.rsplit("_", 1)[0]])
        for name, fit in sorted(result["fits"].items())]
    files = {}

    def emit(name, writer, obj):
        path = os.path.join(out_dir, name)
        writer(obj, path)
        files[name] = _sha256(path)

    for stem, key, writer, kinds in (
            ("epps", "epps", write_epps_csv, ("raw", "filtered")),
            ("correlogram", "cg", write_correlogram_csv,
             ("cross", "cross_filtered", "auto_i", "auto_j")),
            ("spectrum", "s", write_spectrum_csv, ("cross", "cross_filtered"))):
        for kind in kinds:
            emit(f"{stem}_{kind}.csv", writer, result[f"{key}_{kind}"])
    emit("fits.csv", _write_text, "\n".join(fit_rows) + "\n")

    manifest = {
        **meta,
        "version": __version__,
        "config_sha256": hashlib.sha256(json.dumps(
            meta["config"], sort_keys=True).encode()).hexdigest(),
        "rate_i": result["rate_i"],
        "rate_j": result["rate_j"],
        "snr": result["snr"],
        "n_days_spectra": result["n_days_spectra"],
        "chi2_ratio": result.get("chi2_ratio"),
        "fit_failures": result["fit_failures"],
        "fit_diagnostics": {
            name: {"degenerate_reasons": list(fit.degenerate_reasons),
                   "nfev": fit.nfev}
            for name, fit in result["fits"].items()},
        "files": files,
    }
    _write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                os.path.join(out_dir, "manifest.json"))
    return manifest


def _sampled_day(path, horizon, day, rates, seed, replay=None):
    """Each asset's (tick times, path levels at them) on simulated day `day`
    over [path.t0, horizon]: replayed from `replay`, one (file, times) per
    asset, or else Poisson times at `rates` on stream 2 day + asset of
    `seed`.  A replayed time before the path start is a DataError naming
    its file.  The levels are taken at the times drawn or replayed, then the
    ticks are put on the tick file's clock (`on_clock`), so they are the
    ticks read back from the file `epps sample` writes."""
    for a, lam in enumerate(rates):
        if replay:
            name, t = replay[a]
            if t[0] < path.t0:
                raise DataError(f"{name}: replayed time {t[0]:g} is before "
                                f"the path start {path.t0:g}")
            t = t[t <= horizon]
        else:
            t = draw_poisson_times(lam, horizon, -path.t0, seed,
                                   stream=2 * day + a)
        yield on_clock(t, path.value_at(a, t))


def _simulate_days(pair, config):
    """Asset-days sampled by `_sampled_day` and gridded by
    `grid_and_normalize` as tick files are, the last warm-up tick being the
    open tick; each day is gridded as its path is drawn, so one block of
    paths is alive at a time.  Returns (days_i, days_j, open_ticks_missing),
    the last counting days without one."""
    files = [f for f in (config.replay_ticks_i, config.replay_ticks_j) if f]
    if len(files) == 1:
        raise DataError("replay mode needs tick-time files for both assets")
    replay = [(f, _read_tick_times(f)) for f in files]
    rates = (config.lambda_i, config.lambda_j)
    warmup = max(map(default_warmup, rates))
    paths = simulate_ensemble(pair, config.grid_dt, config.length,
                              config.n_days, seed=config.seed, warmup=warmup)
    session = SessionSpec(length=config.length)
    days = ([], [])
    missing = 0
    for d, path in enumerate(paths):
        for a, (t, levels) in enumerate(_sampled_day(
                path, config.length, d, rates, config.seed, replay)):
            k = np.searchsorted(t, 0.0)  # the first tick in the window
            open_tick = (float(t[k - 1]), float(levels[k - 1])) if k else None
            ts = TickSeries("ij"[a], f"d{d:03d}", t[k:], levels[k:], open_tick)
            grid = grid_and_normalize(ts, config.grid_dt, session)
            if grid is None:
                raise DataError(f"day {ts.day_id}, asset {ts.asset_id}: no "
                                "ticks in the window or flat prices")
            missing += open_tick is None
            days[a].append(grid)
    return (*days, missing)


def run_pipeline(config, out_dir):
    """Run the synthetic pipeline and write the artifact directory.

    Simulates and samples `config.n_days` days, grids them with
    `_simulate_days`, analyzes them with `analyze_pair` and writes the
    result with `write_artifacts`; the manifest's `config` is the full
    RunConfig, and it also records the seed and the number of back-filled
    asset-days.  Deterministic for fixed (config, seed).
    """
    pair = load_model_file(config.model_file)
    days_i, days_j, open_ticks_missing = _simulate_days(pair, config)
    result = analyze_pair(days_i, days_j, config.dt_grid, config.max_lag,
                          FilterSpec(config.filter_mode, config.snr))
    return write_artifacts(result, out_dir, ("i", "j"),
                           {"config": asdict(config), "seed": config.seed,
                            "open_ticks_missing": open_ticks_missing})
