"""Acceptance gate: eight pinned end-to-end criteria.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
asserts the same condition, so the suite is both a report and a gate.
Every random quantity is seeded; reruns are deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from epps.kernels import CorrelationModel, ModelPair
from epps.async_theory import (AsyncKernel, async_covariance,
                               async_cross_corr, discrete_kernel)
from epps.sampling import (simulate_ensemble, draw_poisson_times,
                           previous_tick, default_warmup, rng_stream)
from epps.estimation import (Correlogram, epps_curve, correlogram,
                             estimate_spectrum)
from epps.filtering import (FilterSpec, apply_filter, inverse_filter,
                            auto_filter, estimate_snr, filtered_correlogram,
                            filtered_epps_curve)
from epps.fitting import (fit_cross_raw, fit_cross_async, fit_auto_raw,
                          fit_auto_async, chi2_ratio, _cross_raw_fj,
                          _cross_async_fj, _auto_raw_fj, _auto_async_fj)
from epps.pipeline import RunConfig, run_pipeline

def report(num, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num}] {marker}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def brownian_pair(c=0.5):
    return ModelPair(cross=CorrelationModel(delta_weight=c),
                     auto_i=CorrelationModel(delta_weight=1.0),
                     auto_j=CorrelationModel(delta_weight=1.0))


def sample_days(pair, lam_i, lam_j, T, n_days, seed, grid_dt=1.0):
    warmup = max(default_warmup(lam_i), default_warmup(lam_j))
    paths = simulate_ensemble(pair, grid_dt, T, n_days, seed=seed,
                              warmup=warmup)
    days_i, days_j = [], []
    for d, p in enumerate(paths):
        ti = draw_poisson_times(lam_i, T, warmup, seed=seed, stream=2 * d)
        tj = draw_poisson_times(lam_j, T, warmup, seed=seed, stream=2 * d + 1)
        days_i.append(previous_tick(p, ti, grid_dt=grid_dt, asset=0,
                                    start=0.0, end=T))
        days_j.append(previous_tick(p, tj, grid_dt=grid_dt, asset=1,
                                    start=0.0, end=T))
    return days_i, days_j


def test_criterion_1_closed_form_matches_quadrature(oscillatory_oracle):
    """Sampled-covariance closed form vs independent oscillatory
    quadrature: relative 1e-6 over a 5x5x3x3 grid of (dt, lag, width,
    rate pair), including width*rate in {0.9, 1.0, 1.1}; under 30 s."""
    t0 = time.time()
    dts = [0.5, 2.0, 5.0, 8.0, 20.0]
    taus = [-6.0, -1.0, 0.0, 3.0, 12.0]
    xis = [2.0, 5.0, 10.0]
    worst = 0.0
    n_checked = 0
    for xi in xis:
        rate_pairs = [(0.9 / xi, 1.1 / xi),   # either side of the pole
                      (1.0 / xi, 0.4),        # removable point exactly
                      (0.5, 0.25)]
        for li, lj in rate_pairs:
            k = AsyncKernel(li, lj)
            for tau in taus:
                mt = CorrelationModel(width=xi, exp_weight=0.6, lag=tau)
                for dt in dts:
                    closed, = async_covariance(mt, k, dt)
                    oracle = oscillatory_oracle(0.6, xi, tau, li, lj, dt)
                    rel = abs(closed - oracle) / max(abs(oracle), 1e-12)
                    worst = max(worst, rel)
                    n_checked += 1
    elapsed = time.time() - t0
    report(1, worst < 1e-6 and elapsed < 30.0,
           f"{n_checked} grid points, worst rel err {worst:.2e}, "
           f"{elapsed:.1f} s")


def test_criterion_2_monte_carlo_epps_curve():
    """Sampled correlated Brownian pair (c=0.5, both rates 1, grid 0.1 s,
    T=20000 s, 100 paths): empirical correlation within 3 sigma of
    c*(1 + (exp(-rate*dt) - 1)/(rate*dt)) at every horizon; under 2 min."""
    t0 = time.time()
    c, lam = 0.5, 1.0
    days_i, days_j = sample_days(brownian_pair(c), lam, lam, 20000.0,
                                 100, seed=7, grid_dt=0.1)
    dts = np.array([0.5, 1.0, 2.0, 5.0, 10.0, 50.0])
    curve = epps_curve(days_i, days_j, dts)
    theory = c * (1.0 + np.expm1(-lam * dts) / (lam * dts))
    pulls = (curve.rho - theory) / curve.stderr
    elapsed = time.time() - t0
    report(2, bool(np.all(np.abs(pulls) < 3.0)) and elapsed < 120.0,
           f"max |dev|/sigma {np.max(np.abs(pulls)):.2f} over "
           f"{dts.size} horizons, {elapsed:.1f} s")


def test_criterion_3_flat_spectrum_variance_invariance():
    """Brownian motion sampled at rates 0.1, 1 and 10: the stepped-series
    variance slope equals the synchronous slope within Monte Carlo 3 sigma."""
    pair = brownian_pair()
    T, M = 10000.0, 24
    worst = 0.0
    horizons = (1, 10)
    for lam in (0.1, 1.0, 10.0):
        warmup = default_warmup(lam)
        paths = simulate_ensemble(pair, 1.0, T, M, seed=21, warmup=warmup)
        per_day = {m_steps: [] for m_steps in horizons}
        for d, p in enumerate(paths):
            ti = draw_poisson_times(lam, T, warmup, seed=21, stream=2 * d)
            s = previous_tick(p, ti, asset=0, start=0.0, end=T)
            # dt-returns: differences of the levels rebuilt from 0
            levels = np.concatenate(([0.0], np.cumsum(s.increments)))
            for m_steps in horizons:
                r = np.diff(levels[::m_steps])
                per_day[m_steps].append(np.mean(r * r) / m_steps)
        for values in per_day.values():
            pull = abs(np.mean(values) - 1.0) / (
                np.std(values, ddof=1) / math.sqrt(M))
            worst = max(worst, pull)
    report(3, worst < 3.0,
           f"max |slope - 1|/sigma {worst:.2f} over 3 rates x 2 horizons")


def test_criterion_4_spurious_causality_and_its_removal():
    """Equal-time-correlated pair sampled at rates (1, 0.05): the measured
    cross-correlogram matches the predicted asymmetric shape within a
    3-sigma L2 band, and Wiener filtering shrinks the asymmetric part by
    at least 80% in L2."""
    c, li, lj, T, M, K = 0.5, 1.0, 0.05, 20000, 8, 60
    days_i, days_j = sample_days(brownian_pair(c), li, lj, float(T), M,
                                 seed=0)
    cg = correlogram(days_i, days_j, float(K), normalize=False)
    lags = np.arange(-K, K + 1)
    pred = np.fft.fft(
        c * discrete_kernel(li, lj, np.arange(T), T)).real / T
    pred = pred[lags % T]
    meas, var = cg.values, cg.stderr ** 2
    d2 = float(np.sum((meas - pred) ** 2))
    band = float(np.sum(var) + 3.0 * math.sqrt(2.0 * np.sum(var ** 2)))
    pos, neg = meas[lags > 0].sum(), meas[lags < 0].sum()

    di = [np.asarray(s.increments, float) for s in days_i]
    dj = [np.asarray(s.increments, float) for s in days_j]
    s_cross = estimate_spectrum(di, dj)
    snr = estimate_snr(s_cross, li, lj)
    s_hat = apply_filter(s_cross, li, lj,
                         FilterSpec(mode="wiener", snr=snr))
    vals = filtered_correlogram(s_hat, float(K)).values
    asym_raw = (meas[K + 1:] - meas[:K][::-1]) / 2.0
    asym_f = (vals[K + 1:] - vals[:K][::-1]) / 2.0
    shrink = 1.0 - np.linalg.norm(asym_f) / np.linalg.norm(asym_raw)
    ok = d2 < band and pos > neg > 0 and shrink >= 0.80
    report(4, bool(ok),
           f"L2^2 {d2:.2e} < band {band:.2e}, lead/trail mass "
           f"{pos:.3f}/{neg:.3f}, asymmetry shrink {shrink:.1%}")


def test_criterion_5_deconvolution_resolution_scaling():
    """Filtered Epps curves on sampled Brownian data (16 days per
    replicate, 40 replicates) deviate from the flat true correlation by
    less than 5*T^(-1/2) in every replicate, and doubling T shrinks the
    RMS deviation by sqrt(2) within 20%."""
    c, lam, M = 0.5, 1.0, 16
    pair = brownian_pair(c)
    dt_grid = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0]

    def deviations(T, rep):
        days_i, days_j = sample_days(pair, lam, lam, float(T), M,
                                     seed=1000 + rep)
        di = [np.asarray(s.increments, float) for s in days_i]
        dj = [np.asarray(s.increments, float) for s in days_j]
        s12, s11, s22 = estimate_spectrum(di, dj, autos=True)
        d_i = correlogram(days_i, days_i, 10.0, normalize=False).delta_mass
        d_j = correlogram(days_j, days_j, 10.0, normalize=False).delta_mass
        s12 = inverse_filter(s12, lam, lam)
        s11 = auto_filter(s11, lam, d_i)
        s22 = auto_filter(s22, lam, d_j)
        return filtered_epps_curve(s12, s11, s22, dt_grid).rho - c

    rms = {}
    all_below = True
    worst_frac = 0.0
    for T in (20000, 40000):
        devs = np.array([deviations(T, r) for r in range(40)])
        bound = 5.0 / math.sqrt(T)
        maxima = np.abs(devs).max(axis=1)
        all_below = all_below and bool(np.all(maxima < bound))
        worst_frac = max(worst_frac, float(maxima.max() / bound))
        rms[T] = math.sqrt(np.mean(devs ** 2))
    ratio = rms[20000] / rms[40000]
    ok = all_below and math.sqrt(2.0) * 0.8 < ratio < math.sqrt(2.0) * 1.2
    report(5, ok,
           f"worst dev {worst_frac:.2f} of the 5*T^-1/2 bound, "
           f"RMS ratio for doubled T {ratio:.2f} (target 1.41 +- 20%)")


CHI2_3_2SIGMA = 8.0249  # chi-square(3 dof) quantile at the 2-sigma mass


def test_criterion_6_fit_round_trips():
    """Each fit family re-extracts forward-generated parameters: the joint
    2-sigma confidence ellipsoid covers the truth in at least 95 of 100
    seeded noisy trials per family, and analytic Jacobians match finite
    differences to 1e-6."""
    lags = np.arange(-80, 81, dtype=float)
    reg = lags[lags != 0.0]
    theta_c = np.array([0.4, 2.0, math.log(8.0)])
    truth_c = np.array([0.4, 2.0, 8.0])
    theta_a = np.array([1.0, 0.5, math.log(8.0)])
    truth_a = np.array([1.0, 0.5, 8.0])

    def cross_cg(base, sig, seed, key):
        v = base + rng_stream(seed, key).standard_normal(lags.size) * sig
        return Correlogram(lag_grid=lags, values=v,
                           stderr=np.full(lags.size, np.nan), n_days=1)

    def auto_cg(base, sig, seed, key):
        noise = rng_stream(seed, key).standard_normal(base.size) * sig
        vals = np.zeros(lags.size)
        vals[lags != 0.0] = base[1:] + noise[1:]
        return Correlogram(lag_grid=lags, values=vals,
                           stderr=np.full(lags.size, np.nan), n_days=1,
                           delta_mass=float(base[0] + noise[0]))

    base_cr, _ = _cross_raw_fj(lags, theta_c)
    base_ca, _ = _cross_async_fj(lags, 1.0, 0.05, theta_c)
    base_ar, _ = _auto_raw_fj(reg, theta_a)
    base_aa, _ = _auto_async_fj(reg, 0.2, theta_a)
    # noise at 2% of the peak of the lag profile (the zero-lag point mass
    # of the auto families is excluded from the scale, it sits at base[0])
    families = [
        ("cross_raw", base_cr, cross_cg, fit_cross_raw, truth_c, 201,
         0.02 * np.max(np.abs(base_cr))),
        ("cross_async", base_ca, cross_cg,
         lambda cg: fit_cross_async(cg, 1.0, 0.05), truth_c, 202,
         0.02 * np.max(np.abs(base_ca))),
        ("auto_raw", base_ar, auto_cg, fit_auto_raw, truth_a, 203,
         0.02 * np.max(np.abs(base_ar[1:]))),
        ("auto_async", base_aa, auto_cg,
         lambda cg: fit_auto_async(cg, 0.2), truth_a, 204,
         0.02 * np.max(np.abs(base_aa[1:]))),
    ]
    coverage = {}
    for name, base, make, fitter, truth, key, sig in families:
        hits = 0
        for seed in range(100):
            res = fitter(make(base, sig, seed, key))
            est = np.array(list(res.params.values()))
            d = est - truth
            if d @ np.linalg.pinv(res.cov) @ d <= CHI2_3_2SIGMA:
                hits += 1
        coverage[name] = hits

    def fd(fj, theta, eps=1e-7):
        cols = []
        for a in range(3):
            tp, tm = theta.copy(), theta.copy()
            tp[a] += eps
            tm[a] -= eps
            cols.append((fj(tp)[0] - fj(tm)[0]) / (2 * eps))
        return np.column_stack(cols)

    jac_worst = 0.0
    for fj, theta in ((lambda th: _cross_raw_fj(lags, th), theta_c),
                      (lambda th: _cross_async_fj(lags, 1.0, 0.05, th),
                       theta_c),
                      (lambda th: _auto_raw_fj(reg, th), theta_a),
                      (lambda th: _auto_async_fj(reg, 0.2, th), theta_a)):
        _, jac = fj(theta)
        scale = np.max(np.abs(jac))
        jac_worst = max(jac_worst,
                        float(np.max(np.abs(jac - fd(fj, theta))) / scale))
    ok = all(v >= 95 for v in coverage.values()) and jac_worst < 1e-6
    report(6, ok,
           f"coverage/100 {coverage}, worst Jacobian FD mismatch "
           f"{jac_worst:.1e}")


def test_criterion_7_direction_checks_on_heterogeneous_rates():
    """Raw vs corrected fits on noisy theory correlograms: the corrected
    width is narrower, the corrected lag is smaller for asymmetric rates,
    and the chi-square ratio is clearly positive for an asymmetric pair
    but near zero for a symmetric fast pair."""
    m = CorrelationModel(width=8.0, exp_weight=0.4)
    lags = np.arange(-120, 121, dtype=float)
    results = {}
    for rates, name in (((1.0, 0.05), "asym"), ((1.0, 1.0), "symm")):
        truth = async_cross_corr(m, AsyncKernel(*rates), lags)
        sigma = 0.05 * np.max(np.abs(truth))
        stats = []
        for seed in range(3):
            noise = rng_stream(seed, 99).standard_normal(lags.size) * sigma
            cg = Correlogram(lag_grid=lags, values=truth + noise,
                             stderr=np.full(lags.size, np.nan), n_days=1)
            raw = fit_cross_raw(cg)
            asyn = fit_cross_async(cg, *rates)
            stats.append((chi2_ratio(raw, asyn),
                          raw.params["xi"], asyn.params["xi"],
                          abs(raw.params["tau"]), abs(asyn.params["tau"])))
        results[name] = np.array(stats)
    asym, symm = results["asym"], results["symm"]
    ok = (bool(np.all(asym[:, 2] < asym[:, 1]))      # width shrinks
          and bool(np.all(asym[:, 4] < asym[:, 3]))  # spurious lag removed
          and bool(np.all(asym[:, 0] > 0.5))
          and bool(np.all(np.abs(symm[:, 0]) < 0.1)))
    report(7, ok,
           f"chi2 ratio asym {asym[:, 0].min():.2f}..{asym[:, 0].max():.2f}"
           f" vs symm {symm[:, 0].min():.3f}..{symm[:, 0].max():.3f}; "
           f"width {asym[0, 1]:.1f}->{asym[0, 2]:.1f}, "
           f"|lag| {asym[0, 3]:.1f}->{asym[0, 4]:.2f}")


def test_criterion_8_exactness_identities(tmp_path):
    """Parseval and DFT round trips at 1e-10, inverse filtering undoes the
    forward kernel at 1e-12, and a fixed-seed pipeline run is bit-identical
    on rerun."""
    rng = rng_stream(31, 300)
    x = rng.standard_normal(512)
    y = rng.standard_normal(512)
    spec = estimate_spectrum([x], [y])
    # half spectrum, bins 0..256: the interior bins 1..255 count twice
    mult = np.where((np.arange(257) % 256) == 0, 1.0, 2.0)
    parseval = abs(np.sum(mult * spec.s_n.real) - np.sum(x * y)) / abs(
        np.sum(x * y))
    gamma = np.fft.irfft(spec.s_n.conj(), 512)
    dft_err = max(abs(gamma[k] - np.mean(x * np.roll(y, -k)))
                  for k in (0, 1, 7, 511))

    T, li, lj = 256, 0.8, 0.15
    kern = discrete_kernel(li, lj, np.arange(T // 2 + 1), T)
    s0 = np.fft.ifft(np.exp(-np.abs(np.arange(T) - T / 2) / 9.0)).conj() * T
    s0 = s0[:T // 2 + 1]
    forward = type(spec)(T=T, n_days=1, s_n=s0 * kern, grid_dt=1.0)
    back = inverse_filter(forward, li, lj)
    inv_err = float(np.max(np.abs(back.s_n - s0)) / np.max(np.abs(s0)))

    model = tmp_path / "model.txt"
    model.write_text("cross.c=0.4\ncross.xi=8\nauto_i.a=1\nauto_j.a=1\n")
    config = RunConfig(model_file=str(model), lambda_i=1.0, lambda_j=0.3,
                       n_days=3, length=2000.0, dt_grid=(1.0, 10.0),
                       max_lag=30.0, seed=5)
    m1 = run_pipeline(config, str(tmp_path / "a"))
    m2 = run_pipeline(config, str(tmp_path / "b"))
    identical = m1["files"] == m2["files"]
    ok = (parseval < 1e-10 and dft_err < 1e-10 and inv_err < 1e-12
          and identical)
    report(8, ok,
           f"Parseval {parseval:.1e}, DFT round trip {dft_err:.1e}, "
           f"inverse filter {inv_err:.1e}, rerun bit-identical: "
           f"{identical}")
