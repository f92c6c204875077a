"""Command line interface.

Subcommands mirror the pipeline stages: simulate synchronous paths, sample
them into tick files, evaluate exact theory curves, estimate from tick data,
filter spectra, fit correlograms, run the full synthetic pipeline, and
regenerate the canned synthetic figure data.

Exit codes: 0 success, 1 usage error, 2 data error (also a file that
cannot be read or written as asked), 3 numerical failure.
"""

from dataclasses import asdict
import json
import math
import os
import sys

import click
import numpy as np

from . import __version__
from .errors import DataError, NumericalError
from .kernels import load_model_file
from .async_theory import (AsyncKernel, async_covariance, async_variance,
                           async_rho, async_cross_corr)
from .sampling import SimulatedPath, rng_stream, simulate_ensemble
from .estimation import (read_correlogram_csv, read_spectrum_csv,
                         write_spectrum_csv, _read_table, _write_table,
                         _write_text)
from .filtering import FilterSpec, apply_filter, estimate_snr
from .fitting import (fit_cross_raw, fit_cross_async, fit_auto_raw,
                      fit_auto_async, fit_csv_row, FIT_CSV_HEADER)
from .pipeline import (RunConfig, grid_and_normalize, analyze_pair,
                       run_pipeline, write_artifacts, _check_settings,
                       _sampled_day)
from .ticks import SessionSpec, load_ticks, write_ticks, _read_tick_times


def _float_list(text):
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise click.UsageError(f"bad numeric list {text!r}: {exc}") from exc
    if not values:
        raise click.UsageError(f"empty numeric list {text!r}")
    return values


@click.group()
@click.version_option(__version__)
def cli():
    """Analysis of correlations under asynchronous sampling."""


@cli.command()
@click.option("--model", "model_file", required=True,
              type=click.Path(exists=True))
@click.option("--grid-dt", default=1.0, show_default=True)
@click.option("--horizon", default=20000.0, show_default=True)
@click.option("--days", default=1, show_default=True,
              type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True)
@click.option("--warmup", default=10.0, show_default=True,
              help="Pre-session stretch in seconds (10 mean gaps at rate 1).")
@click.option("--out", "out_dir", required=True, type=click.Path())
def simulate(model_file, grid_dt, horizon, days, seed, warmup, out_dir):
    """Simulate synchronous correlated paths onto CSV files."""
    pair = load_model_file(model_file)
    paths = simulate_ensemble(pair, grid_dt, horizon, days, seed=seed,
                              warmup=warmup)
    os.makedirs(out_dir, exist_ok=True)
    written = 0
    for p in paths:  # each file is written as its path is drawn
        _write_table(os.path.join(out_dir, f"path_d{written:03d}.csv"),
                     "t,level_i,level_j", (p.times(), *p.levels),
                     "%.10g,%.17g,%.17g",
                     {"grid_dt": f"{p.grid_dt:.17g}", "t0": f"{p.t0:.17g}",
                      "horizon": f"{horizon:.17g}"})
        written += 1
    click.echo(f"wrote {written} path files to {out_dir}")


def _read_path_csv(path):
    """A path file's SimulatedPath and `# horizon=` (else its end time)."""
    meta, rows = _read_table(path, "t,level_i,level_j")
    if "grid_dt" not in meta or not rows.size:
        raise DataError(f"{path} is not a simulated path file")
    levels = rows[:, 1:].T
    with np.errstate(over="ignore", under="ignore"):
        price = np.exp(levels)
    bad = ~(np.isfinite(price) & (price > 0)).all(axis=0)
    if bad.any():
        t, a, b = rows[np.flatnonzero(bad)[0]]
        raise DataError(f"{path}: the levels {a:g}, {b:g} at t = {t:g} "
                        "give no finite positive price exp(level)")
    p = SimulatedPath(grid_dt=meta["grid_dt"], t0=meta.get("t0", 0.0),
                      levels=levels)
    return p, meta.get("horizon", p.t_end)


@cli.command()
@click.option("--paths", "paths_dir", required=True,
              type=click.Path(exists=True))
@click.option("--lambda-i", "lambda_i", default=1.0, show_default=True)
@click.option("--lambda-j", "lambda_j", default=1.0, show_default=True)
@click.option("--replay-i", type=click.Path(exists=True), default=None,
              help="Replay tick times for asset i instead of drawing them.")
@click.option("--replay-j", type=click.Path(exists=True), default=None)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_file", required=True, type=click.Path())
def sample(paths_dir, lambda_i, lambda_j, replay_i, replay_j, seed, out_file):
    """Sample simulated paths at tick times into a standard tick CSV,
    warm-up ticks included, as `epps run` samples them."""
    names = sorted(f for f in os.listdir(paths_dir)
                   if f.startswith("path_") and f.endswith(".csv"))
    if not names:
        raise DataError(f"no path files in {paths_dir}")
    if (replay_i is None) != (replay_j is None):
        raise click.UsageError("replay needs tick-time files for both assets")
    replay = [(f, _read_tick_times(f)) for f in (replay_i, replay_j) if f]

    def days():
        for d, name in enumerate(names):
            p, horizon = _read_path_csv(os.path.join(paths_dir, name))
            for asset, (times, levels) in zip("ij", _sampled_day(
                    p, horizon, d, (lambda_i, lambda_j), seed, replay)):
                yield asset, f"d{d:03d}", times, levels

    write_ticks(out_file, days())
    click.echo(f"wrote ticks for {len(names)} days to {out_file}")


@cli.command()
@click.option("--model", "model_file", required=True,
              type=click.Path(exists=True))
@click.option("--quantity", type=click.Choice(
    ["covariance", "variance", "rho", "crosscorr"]), default="rho",
    show_default=True)
@click.option("--lambda-i", "lambda_i", default=math.inf, show_default=True,
              help="Sampling rate of asset i; inf means synchronous.")
@click.option("--lambda-j", "lambda_j", default=math.inf, show_default=True)
@click.option("--grid", default="0.5,1,2,5,10,20,50,100,200,500",
              show_default=True, help="Comma-separated horizons or lags.")
@click.option("--out", "out_file", default="-", show_default=True)
def theory(model_file, quantity, lambda_i, lambda_j, grid, out_file):
    """Exact theory curves for a model pair under Poisson sampling."""
    pair = load_model_file(model_file)
    kern = AsyncKernel(lambda_i, lambda_j)
    xs = np.asarray(_float_list(grid))
    if quantity == "covariance":
        ys = async_covariance(pair.cross, kern, xs)
    elif quantity == "variance":
        ys = async_variance(pair.auto_i, lambda_i, xs)
    elif quantity == "rho":
        ys = async_rho(pair, kern, xs)
    else:
        ys = async_cross_corr(pair.cross, kern, xs)
    label = "tau" if quantity == "crosscorr" else "dt"
    _write_table(out_file, f"{label},{quantity}", (xs, ys), "%.10g,%.17g")


@cli.command()
@click.option("--ticks", "ticks_file", required=True,
              type=click.Path(exists=True))
@click.option("--asset-i", required=True)
@click.option("--asset-j", required=True)
@click.option("--dt-grid", default="1,2,5,10,20,50,100", show_default=True)
@click.option("--max-lag", default=120.0, show_default=True)
@click.option("--grid-dt", default=1.0, show_default=True)
@click.option("--filter-mode", type=click.Choice(["inverse", "wiener"]),
              default="inverse", show_default=True)
@click.option("--snr", default=None, type=float,
              help="Wiener SNR; estimated from the spectrum when omitted.")
@click.option("--session-length", default=SessionSpec.length,
              show_default=True,
              help="Seconds of the analysis window, which opens 45 minutes "
                   "after 09:30.")
@click.option("--fail-fast", is_flag=True,
              help="Stop at the first malformed tick record.")
@click.option("--out", "out_dir", required=True, type=click.Path())
def estimate(ticks_file, asset_i, asset_j, dt_grid, max_lag, grid_dt,
             filter_mode, snr, session_length, fail_fast, out_dir):
    """Estimate Epps curves, correlograms, spectra and fits from ticks."""
    if asset_i == asset_j:
        raise click.UsageError("--asset-i and --asset-j must differ")
    dt_list = _float_list(dt_grid)
    session = SessionSpec(length=session_length)
    spec = _check_settings(session.length, grid_dt, dt_list, max_lag,
                           filter_mode, snr)
    series, errors = load_ticks(ticks_file, session, fail_fast=fail_fast)
    for msg in errors:
        click.echo(f"skipped record: {msg}", err=True)
    days = sorted({day for (_, day) in series})
    series = {k: s for k, s in series.items() if k[0] in (asset_i, asset_j)}
    kept, grids, skipped, open_ticks_missing = [], {}, {}, 0
    for day in days:  # a day's ticks leave `series` as the day is gridded
        both = [series.pop((a, day), None) for a in (asset_i, asset_j)]
        for asset, ts in zip((asset_i, asset_j), both):
            grids[asset] = ts and grid_and_normalize(ts, grid_dt, session)
            if grids[asset] is None:
                reason = "flat prices" if ts else "no ticks in the window"
                click.echo(f"skipped day {day}: {reason} for {asset}",
                           err=True)
                skipped[reason] = skipped.get(reason, 0) + 1
                break
        else:
            kept.append((day, grids[asset_i], grids[asset_j]))
            open_ticks_missing += sum(ts.open_tick is None for ts in both)
    if not kept:
        raise DataError("no usable asset-days for the requested pair")
    del both, ts  # the last day's ticks: the grids keep only their count
    days, days_i, days_j = (list(col) for col in zip(*kept))
    result = analyze_pair(days_i, days_j, dt_list, max_lag, spec)
    config = {"ticks": ticks_file, "asset_i": asset_i, "asset_j": asset_j,
              "dt_grid": dt_list, "max_lag": max_lag, "grid_dt": grid_dt,
              "filter_mode": filter_mode, "snr": snr}
    if session_length != SessionSpec.length:  # default runs keep their hash
        config["session_length"] = session_length
    write_artifacts(result, out_dir, (asset_i, asset_j),
                    {"config": config, "records_skipped": len(errors),
                     "days_skipped": skipped,
                     "open_ticks_missing": open_ticks_missing})
    summary = f"rates {result['rate_i']:.5g}, {result['rate_j']:.5g}"
    if filter_mode == "wiener":
        source = "estimated" if snr is None else "given"
        summary += f"; wiener snr {result['snr']:.5g} ({source})"
    click.echo(f"analyzed {len(days)} days ({summary}) -> {out_dir}")


@cli.command("filter")
@click.option("--spectrum", "spectrum_file", required=True,
              type=click.Path(exists=True))
@click.option("--lambda-i", "lambda_i", required=True, type=float)
@click.option("--lambda-j", "lambda_j", required=True, type=float)
@click.option("--mode", type=click.Choice(["inverse", "wiener"]),
              default="inverse", show_default=True)
@click.option("--snr", default=None,
              help="Wiener SNR: a number, 'auto', or @file with one value "
                   "per frequency bin n = 0..T//2.")
@click.option("--out", "out_file", required=True, type=click.Path())
def filter_cmd(spectrum_file, lambda_i, lambda_j, mode, snr, out_file):
    """Deconvolve the sampling kernel from a spectrum CSV, on the grid step
    its '# grid_dt=' line gives."""
    s_tilde = read_spectrum_csv(spectrum_file)
    if snr is None and mode == "inverse":
        snr_val = None
    elif snr is None or snr == "auto":
        snr_val = estimate_snr(s_tilde, lambda_i, lambda_j)
    elif snr.startswith("@"):
        try:
            snr_val = np.loadtxt(snr[1:])
        except (OSError, ValueError) as exc:
            raise DataError(f"snr file {snr[1:]}: {exc}") from exc
    else:
        try:
            snr_val = float(snr)
        except ValueError as exc:
            raise click.UsageError(f"bad snr {snr!r}") from exc
    write_spectrum_csv(apply_filter(s_tilde, lambda_i, lambda_j,
                                    FilterSpec(mode, snr_val)), out_file)


@cli.command()
@click.option("--correlogram", "cg_file", required=True,
              type=click.Path(exists=True))
@click.option("--family", type=click.Choice(
    ["cross_raw", "cross_async", "auto_raw", "auto_async"]), required=True)
@click.option("--lambda-i", "lambda_i", default=None, type=float)
@click.option("--lambda-j", "lambda_j", default=None, type=float)
@click.option("--out", "out_file", default="-", show_default=True)
def fit(cg_file, family, lambda_i, lambda_j, out_file):
    """Fit one model family to a correlogram CSV."""
    cg = read_correlogram_csv(cg_file)
    fitter, rates = {"cross_raw": (fit_cross_raw, ()),
                     "cross_async": (fit_cross_async, (lambda_i, lambda_j)),
                     "auto_raw": (fit_auto_raw, ()),
                     "auto_async": (fit_auto_async, (lambda_i,))}[family]
    if None in rates:
        raise click.UsageError(f"{family} needs --lambda-i"
                               + "/--lambda-j" * (len(rates) - 1))
    res = fitter(cg, *rates)
    labels = ("i", "i") if family.startswith("auto") else ("i", "j")
    _write_text(f"{FIT_CSV_HEADER}\n{fit_csv_row(res, *labels)}\n",
                out_file)


@cli.command()
@click.option("--config", "config_file", required=True,
              type=click.Path(exists=True))
@click.option("--seed", default=None, type=int,
              help="Override the seed in the config file.")
@click.option("--out", "out_dir", required=True, type=click.Path())
def run(config_file, seed, out_dir):
    """Run the full synthetic pipeline from a JSON config."""
    config = RunConfig.from_file(config_file)
    if seed is not None:
        config = RunConfig(**{**asdict(config), "seed": seed})
    manifest = run_pipeline(config, out_dir)
    click.echo(json.dumps({"out": out_dir,
                           "files": sorted(manifest["files"])}, indent=2))


_FIGURE_MODEL = """\
cross.c=0.4
cross.tau=0
cross.xi=8
auto_i.a=1
auto_j.a=1
"""

_FIGURE_RUNS = {
    "symmetric": {"lambda_i": 0.2, "lambda_j": 0.2},
    "asymmetric": {"lambda_i": 1.0, "lambda_j": 0.05},
}


@cli.command()
@click.option("--seed", default=0, show_default=True)
@click.option("--days", default=20, show_default=True,
              type=click.IntRange(min=1))
@click.option("--out", "out_dir", required=True, type=click.Path())
def figures(seed, days, out_dir):
    """Regenerate the canned synthetic figure data.

    Two pipeline runs (equal and strongly unequal sampling rates) plus the
    exact theory curves they should bracket.
    """
    rng_stream(seed)  # a bad seed fails before out_dir is made
    os.makedirs(out_dir, exist_ok=True)
    model_path = os.path.join(out_dir, "model.txt")
    _write_text(_FIGURE_MODEL, model_path)
    pair = load_model_file(model_path)
    dt_grid = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0)
    for name, rates in _FIGURE_RUNS.items():
        config = RunConfig(model_file=model_path, n_days=days, seed=seed,
                           dt_grid=dt_grid, **rates)
        run_pipeline(config, os.path.join(out_dir, name))
        kern = AsyncKernel(rates["lambda_i"], rates["lambda_j"])
        xs = np.asarray(dt_grid)
        _write_table(os.path.join(out_dir, name, "epps_theory.csv"),
                     "dt,rho", (xs, async_rho(pair, kern, xs)), "%.10g,%.17g")
    click.echo(f"figure data written to {out_dir}")


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    except OSError as exc:
        if exc.filename is None:
            raise
        click.echo(f"data error: {exc.filename}: {exc.strerror}", err=True)
        return 2
    except NumericalError as exc:
        click.echo(f"numerical error: {exc}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
