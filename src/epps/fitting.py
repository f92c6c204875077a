"""Least-squares fits of correlograms to the raw and sampling-corrected
model families.

Four families:

* cross_raw    c * exp(-|tau - tau0|/xi)
* cross_async  the same shape convolved with the sampling smoothing kernel
* auto_raw     a * delta(tau) - b * exp(-|tau|/xi) / (2 xi)
* auto_async   the sampled image of auto_raw: point mass a - b/(1 + lambda xi)
               plus a regular part vanishing at tau = 0

All Jacobians are analytic (checked against finite differences in the test
suite) and stable across the removable lambda*xi = 1 point.  The width is
fitted as log(xi) so positivity needs no constrained solver.
"""

from dataclasses import dataclass
import math

import numpy as np
from scipy.optimize import least_squares

from .errors import DataError, FitConvergenceError, NumericalError
from ._numutil import decay_difference, decay_difference_da


@dataclass(frozen=True)
class FitResult:
    family: str
    params: dict
    stderr: dict
    chi2: float
    n_points: int
    degenerate: bool = False
    cov: np.ndarray = None  # 3x3, in the order of `params`, xi in natural units


# -- model evaluations and derivatives ------------------------------------------

def _safe_xi(p):
    """exp clamped so that powers of (1 + lambda xi) stay finite; the
    optimizer is free to wander out there on structureless data and the
    model is already flat in that regime."""
    return math.exp(min(max(p, -300.0), 300.0))


def _cross_raw_fj(tau, theta):
    c, tau0, p = theta
    xi = _safe_xi(p)
    s = tau - tau0
    env = np.exp(-np.abs(s) / xi)
    f = c * env
    jac = np.column_stack([env,
                           c * env * np.sign(s) / xi,
                           c * env * np.abs(s) / xi])
    return f, jac


def _h_side(s, lam, xi):
    """2 xi * async_theory._onesided_exp_conv(s, lam, xi), with its
    derivatives in s and xi.  Returns (value, d/ds, d/dxi)."""
    s = np.asarray(s, dtype=float)
    if math.isinf(lam):
        z = np.zeros_like(s)
        return z, z.copy(), z.copy()
    u = 1.0 + lam * xi
    neg = s <= 0
    val = np.empty_like(s)
    dds = np.empty_like(s)
    ddx = np.empty_like(s)
    sn = s[neg]
    en = np.exp(sn / xi)
    val[neg] = xi * en / u
    dds[neg] = en / u
    ddx[neg] = en * (1.0 / u ** 2 - sn / (xi * u))
    sp = s[~neg]
    el = np.exp(-lam * sp)
    # mid = (e^{-lam s} - e^{-s/xi}) / (1/xi - lam), stable at lam xi = 1
    mid = decay_difference(sp, lam, 1.0 / xi)
    val[~neg] = xi * el / u + mid
    dds[~neg] = -lam * xi * el / u + np.exp(-sp / xi) - lam * mid
    ddx[~neg] = (el / u ** 2
                 - decay_difference_da(sp, 1.0 / xi, lam) / (xi * xi))
    return val, dds, ddx


def _cross_async_fj(tau, lambda_i, lambda_j, theta):
    c, tau0, p = theta
    xi = _safe_xi(p)
    if math.isinf(lambda_i) and math.isinf(lambda_j):
        return _cross_raw_fj(tau, theta)
    if math.isinf(lambda_i):
        r = lambda_j
    elif math.isinf(lambda_j):
        r = lambda_i
    else:
        r = lambda_i * lambda_j / (lambda_i + lambda_j)
    s = tau - tau0
    hj, hj_s, hj_x = _h_side(s, lambda_j, xi)
    hi, hi_s, hi_x = _h_side(-s, lambda_i, xi)
    shape = r * (hj + hi)
    f = c * shape
    jac = np.column_stack([shape,
                           c * r * (-hj_s + hi_s),
                           xi * c * r * (hj_x + hi_x)])
    return f, jac


def _auto_raw_fj(tau_reg, theta):
    a, b, p = theta
    xi = _safe_xi(p)
    t = np.abs(tau_reg)
    env = np.exp(-t / xi)
    f = np.concatenate([[a], -b * env / (2.0 * xi)])
    n = t.size
    jac = np.zeros((n + 1, 3))
    jac[0, 0] = 1.0
    jac[1:, 1] = -env / (2.0 * xi)
    jac[1:, 2] = -b * env * (t - xi) / (2.0 * xi * xi)
    return f, jac


def _auto_async_fj(tau_reg, lam, theta):
    if math.isinf(lam):
        return _auto_raw_fj(tau_reg, theta)
    a, b, p = theta
    xi = _safe_xi(p)
    u = 1.0 + lam * xi
    t = np.abs(tau_reg)
    amp = lam * lam / (2.0 * u)
    # (e^{-t/xi} - e^{-lam t}) / (lam - 1/xi), without overflow at large t
    rho = amp * decay_difference(t, 1.0 / xi, lam)
    f = np.concatenate([[a - b / u], -b * rho])
    n = t.size
    jac = np.zeros((n + 1, 3))
    jac[0] = (1.0, -1.0 / u, xi * b * lam / u ** 2)
    jac[1:, 1] = -rho
    # d rho / d xi: the prefactor brings -lam/u, the rate 1/xi brings -1/xi^2
    drho = (rho * (-lam / u)
            - amp * decay_difference_da(t, 1.0 / xi, lam) / (xi * xi))
    jac[1:, 2] = xi * (-b) * drho
    return f, jac


# -- generic weighted solver ----------------------------------------------------

_NAMES = {"cross": ("c", "tau", "xi"), "auto": ("a", "b", "xi")}


def _weights(cg, idx):
    """Square roots of per-bin weights: inverse across-day standard errors
    when enough days back them, else uniform.  Bins with (near) zero
    dispersion, like the pinned point mass of a normalized autocorrelogram,
    are capped at 100x the median weight instead of dominating the fit."""
    se = cg.stderr[idx]
    if cg.n_days < 5 or not np.all(np.isfinite(se)) or not np.any(se > 0):
        return np.ones(len(idx))
    sw = np.where(se > 0, 1.0 / np.where(se > 0, se, 1.0), np.inf)
    return np.minimum(sw, 100.0 * np.median(sw[np.isfinite(sw)]))


def _solve(family, fj, theta0, y, sw, tau_span):
    if y.size < 4:
        raise DataError("too few points to fit three parameters")

    def resid(theta):
        f, _ = fj(theta)
        return (f - y) * sw

    def jac(theta):
        _, j = fj(theta)
        return j * sw[:, None]

    sol = least_squares(resid, theta0, jac=jac, method="lm",
                        xtol=1e-12, ftol=1e-12, gtol=1e-12, max_nfev=2000)
    result = _pack(family, fj, sol.x, y, sw, tau_span)
    if not sol.success:
        raise FitConvergenceError(f"{family} fit did not converge: {sol.message}",
                                  result=result)
    return result


def _pack(family, fj, theta, y, sw, tau_span):
    kind = "cross" if family.startswith("cross") else "auto"
    names = _NAMES[kind]
    f, j = fj(theta)
    res = (f - y) * sw
    jw = j * sw[:, None]
    chi2 = float(res @ res)
    n = y.size
    cov = np.linalg.pinv(jw.T @ jw)
    if np.all(sw == 1.0) and n > 3:
        cov = cov * chi2 / (n - 3)
    err = np.sqrt(np.maximum(np.diag(cov), 0.0))
    xi = _safe_xi(theta[2])
    scale = np.array([1.0, 1.0, xi])  # log(xi) -> xi by the delta method
    cov_nat = cov * np.outer(scale, scale)
    params = {names[0]: theta[0], names[1]: theta[1], names[2]: xi}
    stderr = {names[0]: err[0], names[1]: err[1], names[2]: xi * err[2]}
    amp = names[0] if kind == "cross" else names[1]
    span = 10.0 * float(np.max(np.abs(tau_span))) if np.size(tau_span) else 0.0
    steps = np.diff(np.sort(np.asarray(tau_span, dtype=float)))
    step = float(np.min(steps[steps > 0])) if np.any(steps > 0) else 0.0
    degenerate = (not (abs(params[amp]) > 2.0 * stderr[amp])
                  or not all(math.isfinite(v) for v in params.values())
                  or xi > span
                  or xi < 0.1 * step  # narrower than the lag resolution
                  or (kind == "cross" and abs(params["tau"]) > span))
    if degenerate:
        for name in names[1 if kind == "cross" else 2:]:
            if name != amp:
                stderr[name] = float("nan")
    return FitResult(family=family, params=params, stderr=stderr,
                     chi2=chi2, n_points=int(n), degenerate=degenerate,
                     cov=cov_nat)


# -- initialization -------------------------------------------------------------

def _half_width(lags, vals, k_peak):
    top = abs(vals[k_peak])
    if top == 0.0:
        return max(abs(lags[-1]) / 4.0, lags[1] - lags[0])
    half = np.abs(vals) >= top / 2.0
    width = 0.5 * (lags[half][-1] - lags[half][0])
    step = lags[1] - lags[0]
    return max(width / math.log(2.0), step)


def _cross_init(cg):
    k = int(np.argmax(np.abs(cg.values)))
    c0 = float(cg.values[k])
    if c0 == 0.0:
        c0 = 1e-12
    tau0 = float(cg.lag_grid[k])
    xi0 = _half_width(cg.lag_grid, cg.values, k)
    return np.array([c0, tau0, math.log(xi0)])


def _auto_init(cg, reg_idx):
    lags = cg.lag_grid[reg_idx]
    vals = cg.values[reg_idx]
    k = int(np.argmax(np.abs(vals)))
    xi0 = _half_width(cg.lag_grid, cg.values, int(reg_idx[k]))
    b0 = -2.0 * xi0 * float(vals[k]) * math.exp(abs(lags[k]) / xi0)
    if b0 == 0.0:
        b0 = 1e-12
    return np.array([float(cg.delta_mass), b0, math.log(xi0)])


# -- public fits ----------------------------------------------------------------

_RUN_RAW = object()  # default `raw` of the async fits: run the raw fit first


def fit_cross_raw(cg):
    """Fit c * exp(-|tau - tau0|/xi) to a cross-correlogram."""
    if cg.lag_grid.size < 10:
        raise DataError("need at least 10 lag points for a cross fit")
    idx = np.arange(cg.lag_grid.size)
    sw = _weights(cg, idx)
    tau = cg.lag_grid
    return _solve("cross_raw", lambda th: _cross_raw_fj(tau, th),
                  _cross_init(cg), cg.values.astype(float), sw, tau)


def fit_cross_async(cg, lambda_i, lambda_j, raw=_RUN_RAW):
    """Fit the sampling-corrected cross family at the given Poisson rates.

    The model is the raw exponential bump convolved with the asymmetric
    smoothing kernel of the rates, so the recovered lag and width refer to
    the underlying synchronous process.  Started from `raw`, a converged
    `fit_cross_raw(cg)`, or from the data-driven initial guess when `raw`
    is None (a raw fit that failed); when `raw` is not given the raw fit
    is run here first.
    """
    if cg.lag_grid.size < 10:
        raise DataError("need at least 10 lag points for a cross fit")
    for lam in (lambda_i, lambda_j):
        if math.isnan(lam) or lam <= 0:
            raise DataError("sampling rates must be > 0")
    idx = np.arange(cg.lag_grid.size)
    sw = _weights(cg, idx)
    tau = cg.lag_grid
    theta0 = _async_start(raw, fit_cross_raw, cg, lambda: _cross_init(cg))
    return _solve("cross_async",
                  lambda th: _cross_async_fj(tau, lambda_i, lambda_j, th),
                  theta0, cg.values.astype(float), sw, tau)


def _async_start(raw, fit_raw, cg, init):
    """Start point of an async fit: the parameters of `raw`, of
    `fit_raw(cg)` run here when `raw` is not given, or `init()` when the
    raw fit failed."""
    if raw is _RUN_RAW:
        try:
            raw = fit_raw(cg)
        except (DataError, FitConvergenceError):
            raw = None
    return init() if raw is None else _raw_theta(raw)


def _raw_theta(result):
    names = _NAMES["cross" if result.family.startswith("cross") else "auto"]
    return np.array([result.params[names[0]], result.params[names[1]],
                     math.log(result.params["xi"])])


def _auto_setup(cg):
    if cg.delta_mass is None:
        raise DataError("auto fits need the zero-lag point mass split off")
    reg_idx = np.flatnonzero(cg.lag_grid != 0.0)
    if reg_idx.size < 6:
        raise DataError("too few regular lag points for an auto fit")
    k0 = int(np.flatnonzero(cg.lag_grid == 0.0)[0])
    y = np.concatenate([[cg.delta_mass], cg.values[reg_idx]])
    sw = _weights(cg, np.concatenate([[k0], reg_idx]))
    return reg_idx, y, sw


def fit_auto_raw(cg):
    """Fit a * delta - b * exp(-|tau|/xi)/(2 xi) to an autocorrelogram."""
    reg_idx, y, sw = _auto_setup(cg)
    tau = cg.lag_grid[reg_idx]
    return _solve("auto_raw", lambda th: _auto_raw_fj(tau, th),
                  _auto_init(cg, reg_idx), y, sw, tau)


def fit_auto_async(cg, lam, raw=_RUN_RAW):
    """Fit the sampled image of the auto family at Poisson rate lam.

    The point mass becomes a - b/(1 + lambda xi) and the regular part is
    the exact sampled shape, which vanishes at zero lag.  Started from
    `raw`, a converged `fit_auto_raw(cg)` or None, as `fit_cross_async` is.
    """
    if math.isnan(lam) or lam <= 0:
        raise DataError("sampling rate must be > 0")
    reg_idx, y, sw = _auto_setup(cg)
    tau = cg.lag_grid[reg_idx]
    theta0 = _async_start(raw, fit_auto_raw, cg,
                          lambda: _auto_init(cg, reg_idx))
    return _solve("auto_async", lambda th: _auto_async_fj(tau, lam, th),
                  theta0, y, sw, tau)


def chi2_ratio(raw, asyn):
    """Raw-over-corrected chi-square ratio minus one.

    Positive values mean the sampling-corrected family fits the same data
    better than the raw one.
    """
    if raw.n_points != asyn.n_points:
        raise DataError("chi2_ratio requires fits of the same data")
    if asyn.chi2 == 0.0:
        raise NumericalError("corrected fit has zero chi-square")
    return raw.chi2 / asyn.chi2 - 1.0


# -- serialization --------------------------------------------------------------

FIT_CSV_HEADER = ("i,j,family,c,tau,xi,stderr_c,stderr_tau,stderr_xi,"
                  "chi2,n_points,degenerate")


def fit_csv_row(result, label_i, label_j):
    """One CSV row per fit; auto families put their point mass a in the c
    column and b in the tau column (their lag is fixed at 0)."""
    names = _NAMES["cross" if result.family.startswith("cross") else "auto"]
    p, s = result.params, result.stderr
    cells = [label_i, label_j, result.family,
             f"{p[names[0]]:.10g}", f"{p[names[1]]:.10g}", f"{p['xi']:.10g}",
             f"{s[names[0]]:.10g}", f"{s[names[1]]:.10g}", f"{s['xi']:.10g}",
             f"{result.chi2:.10g}", str(result.n_points),
             str(int(result.degenerate))]
    return ",".join(cells)
