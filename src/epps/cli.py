"""Command line interface.

Subcommands mirror the pipeline stages: simulate synchronous paths, sample
them into tick files, evaluate exact theory curves, estimate from tick data,
filter spectra, fit correlograms, run the full synthetic pipeline, and
regenerate the canned synthetic figure data.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
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
from .kernels import load_model_file, sync_covariance, sync_rho
from .async_theory import (AsyncKernel, async_covariance, async_variance,
                           async_rho, async_cross_corr)
from .sampling import (SimulatedPath, draw_poisson_times, previous_tick,
                       simulate_ensemble, default_warmup)
from .estimation import (estimate_rate, read_correlogram_csv,
                         read_spectrum_csv, write_spectrum_csv)
from .filtering import FilterSpec, apply_filter, estimate_snr
from .fitting import (fit_cross_raw, fit_cross_async, fit_auto_raw,
                      fit_auto_async, fit_csv_row, FIT_CSV_HEADER)
from .pipeline import (SessionSpec, RunConfig, load_ticks, grid_and_normalize,
                       align_pair, analyze_pair, run_pipeline,
                       write_artifacts, _read_tick_times)


def _float_list(text):
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise click.UsageError(f"bad numeric list {text!r}: {exc}") from exc


@click.group()
@click.version_option(__version__)
def cli():
    """Analysis of correlations under asynchronous sampling."""


@cli.command()
@click.option("--model", "model_file", required=True,
              type=click.Path(exists=True))
@click.option("--grid-dt", default=1.0, show_default=True)
@click.option("--horizon", default=20000.0, show_default=True)
@click.option("--days", default=1, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--warmup", default=None, type=float,
              help="Pre-session stretch in seconds (default 10 mean gaps "
                   "at rate 1).")
@click.option("--out", "out_dir", required=True, type=click.Path())
def simulate(model_file, grid_dt, horizon, days, seed, warmup, out_dir):
    """Simulate synchronous correlated paths onto CSV files."""
    pair = load_model_file(model_file)
    if warmup is None:
        warmup = 10.0
    os.makedirs(out_dir, exist_ok=True)
    paths = simulate_ensemble(pair, grid_dt, horizon, days, seed=seed,
                              warmup=warmup)
    for d, p in enumerate(paths):
        name = os.path.join(out_dir, f"path_d{d:03d}.csv")
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(f"# grid_dt={p.grid_dt:.10g}\n# t0={p.t0:.10g}\n")
            fh.write("t,level_i,level_j\n")
            for t, a, b in zip(p.times(), p.levels[0], p.levels[1]):
                fh.write(f"{t:.10g},{a:.17g},{b:.17g}\n")
    click.echo(f"wrote {len(paths)} path files to {out_dir}")


def _read_path_csv(path):
    meta = {}
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                k, v = line[1:].split("=", 1)
                meta[k.strip()] = float(v)
            elif line and not line.startswith("t,"):
                rows.append([float(x) for x in line.split(",")])
    if "grid_dt" not in meta or not rows:
        raise DataError(f"{path} is not a simulated path file")
    levels = np.array(rows)[:, 1:].T
    return SimulatedPath(grid_dt=meta["grid_dt"], t0=meta.get("t0", 0.0),
                         levels=levels)


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
    """Sample simulated paths at tick times into a standard tick CSV."""
    session = SessionSpec()
    names = sorted(f for f in os.listdir(paths_dir)
                   if f.startswith("path_") and f.endswith(".csv"))
    if not names:
        raise DataError(f"no path files in {paths_dir}")
    if (replay_i is None) != (replay_j is None):
        raise click.UsageError("replay needs tick-time files for both assets")
    replay = None
    if replay_i is not None:
        replay = (_read_tick_times(replay_i), _read_tick_times(replay_j))
    with open(out_file, "w", encoding="utf-8") as fh:
        fh.write("asset,day,time_sec,price\n")
        for d, name in enumerate(names):
            p = _read_path_csv(os.path.join(paths_dir, name))
            horizon = p.t_end
            if replay is not None:
                times = replay
            else:
                times = (
                    draw_poisson_times(lambda_i, horizon, -p.t0, seed,
                                       stream=2 * d),
                    draw_poisson_times(lambda_j, horizon, -p.t0, seed,
                                       stream=2 * d + 1))
            for asset, tt in zip("ij", times):
                tt = tt[(tt >= 0) & (tt <= horizon)]
                levels = p.value_at(0 if asset == "i" else 1, tt)
                for t, lev in zip(tt, levels):
                    fh.write(f"{asset},d{d:03d},"
                             f"{session.window_start + t:.6f},"
                             f"{math.exp(lev):.17g}\n")
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
        ys = (async_variance(pair.auto_i, lambda_i, xs)
              if not math.isinf(lambda_i)
              else sync_covariance(pair.auto_i, xs))
    elif quantity == "rho":
        ys = (async_rho(pair, kern, xs) if not kern.synchronous
              else sync_rho(pair, xs))
    else:
        ys = async_cross_corr(pair.cross, kern, xs)
    label = "tau" if quantity == "crosscorr" else "dt"
    lines = [f"{label},{quantity}"] + [
        f"{x:.10g},{y:.17g}" for x, y in zip(xs, ys)]
    text = "\n".join(lines) + "\n"
    if out_file == "-":
        click.echo(text, nl=False)
    else:
        with open(out_file, "w", encoding="utf-8") as fh:
            fh.write(text)


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
@click.option("--fail-fast", is_flag=True,
              help="Stop at the first malformed tick record.")
@click.option("--out", "out_dir", required=True, type=click.Path())
def estimate(ticks_file, asset_i, asset_j, dt_grid, max_lag, grid_dt,
             filter_mode, snr, fail_fast, out_dir):
    """Estimate Epps curves, correlograms, spectra and fits from ticks."""
    spec = FilterSpec(filter_mode, snr)
    session = SessionSpec()
    series, errors = load_ticks(ticks_file, session, fail_fast=fail_fast)
    for msg in errors:
        click.echo(f"skipped record: {msg}", err=True)
    days = sorted({day for (asset, day) in series})
    days_i, days_j, kept = [], [], []
    for day in days:
        ti = series.get((asset_i, day))
        tj = series.get((asset_j, day))
        if ti is None or tj is None:
            continue
        si = grid_and_normalize(ti, grid_dt, session)
        sj = grid_and_normalize(tj, grid_dt, session)
        if si is None or sj is None:
            click.echo(f"skipped day {day}: too few ticks or flat prices",
                       err=True)
            continue
        si, sj = align_pair(si, sj)
        days_i.append(si)
        days_j.append(sj)
        kept.append(day)
    if not kept:
        raise DataError("no usable asset-days for the requested pair")
    rate_i = estimate_rate(
        np.concatenate([series[(asset_i, d)].times for d in kept]),
        len(kept) * session.length)
    rate_j = estimate_rate(
        np.concatenate([series[(asset_j, d)].times for d in kept]),
        len(kept) * session.length)
    dt_list = _float_list(dt_grid)
    result = analyze_pair(days_i, days_j, rate_i.value, rate_j.value,
                          dt_list, max_lag, spec, grid_dt)
    config = {"ticks": ticks_file, "asset_i": asset_i, "asset_j": asset_j,
              "dt_grid": dt_list, "max_lag": max_lag, "grid_dt": grid_dt,
              "filter_mode": filter_mode, "snr": snr}
    write_artifacts(result, out_dir, (asset_i, asset_j),
                    {"config": config, "records_skipped": len(errors)})
    summary = f"rates {rate_i.value:.5g}, {rate_j.value:.5g}"
    if filter_mode == "wiener":
        source = "estimated" if snr is None else "given"
        summary += f"; wiener snr {result['snr']:.5g} ({source})"
    click.echo(f"analyzed {len(kept)} days ({summary}) -> {out_dir}")


@cli.command("filter")
@click.option("--spectrum", "spectrum_file", required=True,
              type=click.Path(exists=True))
@click.option("--lambda-i", "lambda_i", required=True, type=float)
@click.option("--lambda-j", "lambda_j", required=True, type=float)
@click.option("--mode", type=click.Choice(["inverse", "wiener"]),
              default="inverse", show_default=True)
@click.option("--snr", default=None,
              help="Wiener SNR: a number, 'auto', or @file with one value "
                   "per frequency bin.")
@click.option("--grid-dt", default=1.0, show_default=True)
@click.option("--out", "out_file", required=True, type=click.Path())
def filter_cmd(spectrum_file, lambda_i, lambda_j, mode, snr, grid_dt,
               out_file):
    """Deconvolve the sampling kernel from a spectrum CSV."""
    s_tilde = read_spectrum_csv(spectrum_file)
    if snr is None and mode == "inverse":
        snr_val = None
    elif snr is None or snr == "auto":
        snr_val = estimate_snr(s_tilde, lambda_i, lambda_j, grid_dt)
    elif snr.startswith("@"):
        snr_val = np.loadtxt(snr[1:])
    else:
        try:
            snr_val = float(snr)
        except ValueError as exc:
            raise click.UsageError(f"bad snr {snr!r}") from exc
    write_spectrum_csv(apply_filter(s_tilde, lambda_i, lambda_j,
                                    FilterSpec(mode, snr_val), grid_dt),
                       out_file)


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
    if family == "cross_raw":
        res = fit_cross_raw(cg)
    elif family == "cross_async":
        if lambda_i is None or lambda_j is None:
            raise click.UsageError("cross_async needs --lambda-i/--lambda-j")
        res = fit_cross_async(cg, lambda_i, lambda_j)
    elif family == "auto_raw":
        res = fit_auto_raw(cg)
    else:
        if lambda_i is None:
            raise click.UsageError("auto_async needs --lambda-i")
        res = fit_auto_async(cg, lambda_i)
    text = FIT_CSV_HEADER + "\n" + fit_csv_row(res, "i", "j") + "\n"
    if out_file == "-":
        click.echo(text, nl=False)
    else:
        with open(out_file, "w", encoding="utf-8") as fh:
            fh.write(text)


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
@click.option("--days", default=20, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
def figures(seed, days, out_dir):
    """Regenerate the canned synthetic figure data.

    Two pipeline runs (equal and strongly unequal sampling rates) plus the
    exact theory curves they should bracket.
    """
    os.makedirs(out_dir, exist_ok=True)
    model_path = os.path.join(out_dir, "model.txt")
    with open(model_path, "w", encoding="utf-8") as fh:
        fh.write(_FIGURE_MODEL)
    pair = load_model_file(model_path)
    dt_grid = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0)
    for name, rates in _FIGURE_RUNS.items():
        config = RunConfig(model_file=model_path, n_days=days, seed=seed,
                           dt_grid=dt_grid, **rates)
        run_pipeline(config, os.path.join(out_dir, name))
        kern = AsyncKernel(rates["lambda_i"], rates["lambda_j"])
        xs = np.asarray(dt_grid)
        with open(os.path.join(out_dir, name, "epps_theory.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write("dt,rho\n")
            for x, y in zip(xs, async_rho(pair, kern, xs)):
                fh.write(f"{x:.10g},{y:.17g}\n")
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
    except NumericalError as exc:
        click.echo(f"numerical error: {exc}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
