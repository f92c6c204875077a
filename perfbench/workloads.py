"""The four pinned workloads.

Each workload has three parts:

* ``prepare(work, seed)`` writes its inputs into the work directory and
  returns the facts its check needs.  It runs in its own process before
  anything is timed.
* ``job(ctx)`` is one timed job, driven through the package's public entry
  points.  Every job of a run repeats the same inputs.
* ``check(ctx, outcome)`` compares a job's outputs against theory (never
  against stored bytes) outside the timed region and returns the list of
  failures, empty when the job is correct.

``spans`` names the spans of ``spans.py`` that a traced job opened when the
benchmark was defined; a traced job that opens fewer fails.

Why these four: see README.md next to this file.
"""

import itertools
import json
import math
import os
import shutil

import numpy as np

from epps.async_theory import AsyncKernel, async_rho
import epps.cli
from epps.cli import main as cli_main
from epps.estimation import correlogram, estimate_spectrum, read_epps_csv
from epps.filtering import auto_filter, filtered_epps_curve, inverse_filter
from epps.kernels import CorrelationModel, ModelPair, parse_model_text
from epps.sampling import (default_warmup, draw_poisson_times, previous_tick,
                           simulate_ensemble)

import reference
import ticks

# Figure model of the paper's headline: equal-time cross kernel of width 8 s,
# white autos.
FIGURE_MODEL = "cross.c=0.4\ncross.tau=0\ncross.xi=8\nauto_i.a=1\nauto_j.a=1\n"
FIGURE_XI = 8.0

# Epps horizons of `epps run` / `epps estimate` (their default grid).
DT_GRID = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)

# Pull limit, in standard errors, of the statistical output checks.  Over 60
# seeds of each pair workload the largest raw-Epps pull was 3.7 and the RMS
# pull of the corrected fit's tau and xi 1.1 to 1.3 (its stderr is a little
# optimistic), so a 3-stderr limit failed correct outputs on about 1 seed in
# 60; at 5 a false alarm is expected less than once in 10^4 runs.
PULL_LIMIT = 5.0

# Width 10 s in the cross kernel and in auto_i, so that the rate 0.1 puts
# lambda * xi = 1 exactly on the theory grid.
THEORY_MODEL = ("cross.c=0.4\ncross.tau=2\ncross.xi=10\n"
                "auto_i.a=1\nauto_i.b=-0.3\nauto_i.xi=10\nauto_j.a=1\n")
THEORY_RATES = (0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
THEORY_HORIZONS = 200
# (lambda_i, lambda_j, horizon index) checked against the reference
# quadrature; the first three sit at lambda * xi = 1.
THEORY_PROBES = ((0.1, 0.1, 0), (0.1, 2.0, 120), (0.02, 0.1, 199),
                 (1.0, 0.05, 60), (0.2, 0.5, 150), (2.0, 2.0, 20),
                 (0.5, 0.02, 90))
THEORY_TOLERANCE = 1e-9  # absolute, on rho

MC_C, MC_RATE, MC_T = 0.5, 1.0, 40000.0
MC_DAYS, MC_REPLICATES = 16, 4
# The circulant covers [-10 s, T] (10 mean gaps of warm-up, as
# default_warmup gives), so its size is 40 010 = 2 * 5 * 4001, an awkward
# FFT length.  The analysis grid starts at 10 s rather than 0: a tick in the
# 20 s before the grid start then exists with probability 1 - exp(-20), where
# a start at 0 would miss one on about 0.6 % of jobs (128 asset-days each).
MC_START = 10.0
MC_DT_GRID = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)


class Context:
    """What a job and its check see: the work directory, the seed, the facts
    from `prepare`, and probes filled in by the job.  Job outputs go under
    ``out/``, which is emptied before every job so that a check never reads
    an earlier job's files."""

    def __init__(self, work, seed, facts):
        self.work = work
        self.seed = seed
        self.facts = facts
        self.probe = {}

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def out(self, *parts):
        return os.path.join(self.work, "out", *parts)

    def reset(self):
        self.probe.clear()
        shutil.rmtree(self.out(), ignore_errors=True)
        os.makedirs(self.out())


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_fits(path):
    """fits.csv rows keyed by family, numeric columns as floats."""
    with open(path, "r", encoding="utf-8") as fh:
        header, *rows = [line.strip().split(",") for line in fh if line.strip()]
    out = {}
    for row in rows:
        rec = dict(zip(header, row))
        out[rec["family"]] = {k: float(v) for k, v in rec.items()
                              if k not in ("i", "j", "family")}
    return out


def _check_pair_outputs(out_dir, pair, rates):
    """Checks shared by `run_async` and `estimate_ticks`.

    Raw Epps rho within PULL_LIMIT stderr of the sampled theory at every
    horizon; the raw cross fit puts the fast asset i first (tau > 0); the
    sampling-corrected fit recovers tau = 0 and xi = 8 within PULL_LIMIT
    stderr.
    """
    failures = []
    curve = read_epps_csv(os.path.join(out_dir, "epps_raw.csv"))
    theory = async_rho(pair, AsyncKernel(*rates), curve.dt_grid)
    pulls = np.abs(curve.rho - theory) / curve.stderr
    if not np.all(pulls < PULL_LIMIT):
        failures.append(f"raw Epps rho off theory by {np.max(pulls):.2f} "
                        f"stderr (limit {PULL_LIMIT})")
    fits = _read_fits(os.path.join(out_dir, "fits.csv"))
    raw, corrected = fits.get("cross_raw"), fits.get("cross_async")
    if raw is None or corrected is None:
        return failures + ["cross fits missing from fits.csv"]
    if not raw["tau"] > 0:
        failures.append(f"cross_raw tau {raw['tau']:.4g} is not > 0")
    for name, truth in (("tau", 0.0), ("xi", FIGURE_XI)):
        pull = abs(corrected[name] - truth) / corrected[f"stderr_{name}"]
        if not pull < PULL_LIMIT:
            failures.append(f"cross_async {name} {corrected[name]:.4g} is "
                            f"{pull:.2f} stderr from {truth} "
                            f"(limit {PULL_LIMIT})")
    return failures


class RunAsync:
    """`epps run` on a JSON config: simulate, sample, estimate, Wiener
    filter, fit, write artifacts."""

    rates = (1.0, 0.05)
    spans = ("cli", "kernels.load_model", "kernels.sync_covariance",
             "sampling.simulate", "sampling.poisson", "sampling.previous_tick",
             "estimation.epps_curve", "estimation.correlogram",
             "estimation.spectrum", "estimation.write", "filtering.filter",
             "filtering.reconstruct", "fitting.fit", "pipeline.analyze",
             "pipeline.run")

    def prepare(self, work, seed):
        model = os.path.join(work, "model.txt")
        _write(model, FIGURE_MODEL)
        config = {"model_file": model, "lambda_i": self.rates[0],
                  "lambda_j": self.rates[1], "n_days": 40, "length": 20000.0,
                  "dt_grid": list(DT_GRID), "filter_mode": "wiener",
                  "snr": 5.0, "seed": seed}
        _write(os.path.join(work, "config.json"), json.dumps(config, indent=2))
        return {}

    def job(self, ctx):
        return cli_main(["run", "--config", ctx.path("config.json"),
                         "--out", ctx.out()])

    def check(self, ctx, rc):
        if rc != 0:
            return [f"exit code {rc}"]
        return _check_pair_outputs(ctx.out(),
                                   parse_model_text(FIGURE_MODEL), self.rates)


class EstimateTicks:
    """`epps estimate` (inverse filter) on a seeded 40-day tick CSV."""

    rates = (1.0, 0.2)
    spans = ("cli", "pipeline.load_ticks", "pipeline.grid",
             "sampling.previous_tick", "estimation.epps_curve",
             "estimation.correlogram", "estimation.spectrum",
             "estimation.write", "filtering.filter", "filtering.reconstruct",
             "fitting.fit", "pipeline.analyze")

    def prepare(self, work, seed):
        written, in_window = ticks.write_tick_csv(
            os.path.join(work, "ticks.csv"), parse_model_text(FIGURE_MODEL),
            self.rates, n_days=40, seed=seed)
        return {"rows_written": written, "rows_in_window": in_window}

    def job(self, ctx):
        return cli_main(["estimate", "--ticks", ctx.path("ticks.csv"),
                         "--asset-i", "A", "--asset-j", "B",
                         "--out", ctx.out()])

    def probe(self, ctx):
        """Record what `load_ticks` kept and rejected, for the row check and
        the traced run's pipeline counts."""
        load = epps.cli.load_ticks

        def probed(*args, **kwargs):
            series, errors = load(*args, **kwargs)
            ctx.probe["ticks_kept"] = sum(s.times.size
                                          for s in series.values())
            ctx.probe["rows_rejected"] = len(errors)
            return series, errors

        epps.cli.load_ticks = probed

    def check(self, ctx, rc):
        if rc != 0:
            return [f"exit code {rc}"]
        failures = _check_pair_outputs(ctx.out(),
                                       parse_model_text(FIGURE_MODEL),
                                       self.rates)
        seen = ctx.probe.get("ticks_kept", 0) + ctx.probe.get(
            "rows_rejected", 0)
        if seen != ctx.facts["rows_in_window"]:
            failures.append(f"ticks kept plus rows rejected is {seen}, "
                            f"{ctx.facts['rows_in_window']} in-window rows "
                            f"were written")
        return failures


class McDeconv:
    """Library-level Monte Carlo of the deconvolved Epps curve, shaped like
    acceptance criterion 5 (Brownian pair, c = 0.5, both rates 1)."""

    spans = ("kernels.sync_covariance", "sampling.simulate",
             "sampling.poisson", "sampling.previous_tick",
             "estimation.correlogram", "estimation.spectrum",
             "filtering.filter", "filtering.reconstruct")

    def prepare(self, work, seed):
        return {}

    def job(self, ctx):
        pair = ModelPair(cross=CorrelationModel(delta_weight=MC_C),
                         auto_i=CorrelationModel(delta_weight=1.0),
                         auto_j=CorrelationModel(delta_weight=1.0))
        warmup = default_warmup(MC_RATE)
        curves = []
        for rep in range(MC_REPLICATES):
            seed = ctx.seed * MC_REPLICATES + rep
            paths = simulate_ensemble(pair, 1.0, MC_T, MC_DAYS, seed=seed,
                                      warmup=warmup)
            days_i, days_j = [], []
            for d, path in enumerate(paths):
                for a, days in enumerate((days_i, days_j)):
                    t = draw_poisson_times(MC_RATE, MC_T, warmup, seed=seed,
                                           stream=2 * d + a)
                    days.append(previous_tick(path, t, asset=a,
                                              start=MC_START, end=MC_T))
            di = [s.increments for s in days_i]
            dj = [s.increments for s in days_j]
            s12 = inverse_filter(estimate_spectrum(di, dj), MC_RATE, MC_RATE)
            d_i = correlogram(days_i, days_i, 10.0, normalize=False).delta_mass
            d_j = correlogram(days_j, days_j, 10.0, normalize=False).delta_mass
            s11 = auto_filter(estimate_spectrum(di, di), MC_RATE, d_i)
            s22 = auto_filter(estimate_spectrum(dj, dj), MC_RATE, d_j)
            curves.append(filtered_epps_curve(s12, s11, s22, MC_DT_GRID).rho)
        return curves

    def check(self, ctx, curves):
        bound = 5.0 / math.sqrt(MC_T - MC_START)
        worst = max(float(np.max(np.abs(rho - MC_C))) for rho in curves)
        if worst < bound:
            return []
        return [f"filtered rho {worst:.4g} from {MC_C} (limit {bound:.4g})"]


class TheorySweep:
    """`epps theory --quantity rho` over a 7 x 7 grid of sampling rates."""

    spans = ("cli", "kernels.load_model", "kernels.sync_covariance",
             "async_theory.rho", "async_theory.covariance",
             "async_theory.variance")

    def prepare(self, work, seed):
        _write(os.path.join(work, "model.txt"), THEORY_MODEL)
        horizons = np.geomspace(0.5, 500.0, THEORY_HORIZONS)
        grid = ",".join(f"{x:.10g}" for x in horizons)
        model = {k: float(v) for k, v in (
            line.split("=") for line in THEORY_MODEL.split())}
        xs = [float(x) for x in grid.split(",")]
        probes = [[li, lj, k, reference.sampled_rho(model, li, lj, xs[k])]
                  for li, lj, k in THEORY_PROBES]
        return {"grid": grid, "probes": probes}

    def job(self, ctx):
        rcs = []
        for a, b in itertools.product(range(len(THEORY_RATES)), repeat=2):
            rcs.append(cli_main([
                "theory", "--model", ctx.path("model.txt"),
                "--quantity", "rho",
                "--lambda-i", repr(THEORY_RATES[a]),
                "--lambda-j", repr(THEORY_RATES[b]),
                "--grid", ctx.facts["grid"],
                "--out", ctx.out(f"rho_{a}_{b}.csv")]))
        return rcs

    def check(self, ctx, rcs):
        failures = [f"exit code {rc}" for rc in rcs if rc != 0]
        if failures:
            return failures
        curves = {}
        for a, b in itertools.product(range(len(THEORY_RATES)), repeat=2):
            data = np.loadtxt(ctx.out(f"rho_{a}_{b}.csv"), delimiter=",",
                              skiprows=1, ndmin=2)
            curves[THEORY_RATES[a], THEORY_RATES[b]] = data[:, 1]
            if data.shape[0] != THEORY_HORIZONS:
                failures.append(f"rates {THEORY_RATES[a]}, "
                                f"{THEORY_RATES[b]}: {data.shape[0]} rows")
            elif not np.all(np.isfinite(data[:, 1])
                            & (np.abs(data[:, 1]) <= 1.0)):
                failures.append(f"rates {THEORY_RATES[a]}, "
                                f"{THEORY_RATES[b]}: rho not finite or "
                                f"|rho| > 1")
        if failures:
            return failures
        for li, lj, k, expected in ctx.facts["probes"]:
            got = curves[li, lj][k]
            if not abs(got - expected) <= THEORY_TOLERANCE:
                failures.append(f"rho({li}, {lj}, horizon {k}) = {got!r}, "
                                f"reference quadrature {expected!r}")
        return failures


WORKLOADS = {"run_async": RunAsync(), "estimate_ticks": EstimateTicks(),
             "mc_deconv": McDeconv(), "theory_sweep": TheorySweep()}
