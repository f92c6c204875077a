"""Least-squares fits of correlograms to the raw and sampling-corrected
model families.

Four families:

* cross_raw    c * exp(-|tau - tau0|/xi)
* cross_async  the same shape convolved with the sampling smoothing kernel
* auto_raw     a * delta(tau) - b * exp(-|tau|/xi) / (2 xi)
* auto_async   the sampled image of auto_raw: point mass a - b/(1 + lambda xi)
               plus a regular part vanishing at tau = 0

The cross families are fitted by Levenberg-Marquardt.  The auto families
are linear in (a, b) once xi is fixed, so they are fitted by variable
projection (Golub & Pereyra 1973): a matches the zero-lag point exactly,
b is the one-column weighted least-squares solution on the regular lags,
and what is left is the chi-square as a function of log(xi) alone.  That
profile is searched over the widths the lag grid resolves, from 0.1 x the
lag step to 10 x the largest |lag|: a coarse grid, then bounded Brent
around its best point.  An optimum on either edge of that range is
reported as a degenerate fit, since the data then favour a width the grid
cannot resolve.

All Jacobians are analytic (checked against finite differences in the test
suite) and stable across the removable lambda*xi = 1 point; the covariance
of every fit comes from the full Jacobian at the optimum.  The width is
fitted as log(xi) so positivity needs no constrained solver.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import DataError, FitConvergenceError, NumericalError
from ._numutil import decay_difference, decay_difference_da
from .async_theory import _onesided_exp_conv, _rate_prefactor


@dataclass(frozen=True)
class FitResult:
    family: str
    params: dict
    stderr: dict
    chi2: float
    n_points: int
    degenerate_reasons: tuple = ()  # names of the `_pack` tests that fired
    nfev: int = 0  # model evaluations of the optimizer
    cov: np.ndarray = None  # 3x3, in the order of `params`, xi in natural units

    @property
    def degenerate(self):
        return bool(self.degenerate_reasons)


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


def _cross_async_fj(tau, lambda_i, lambda_j, theta):
    """c exp(-|s|/xi) is the exponential component of mass 2 xi c, so the
    model is 2 xi c r (g_j(s) + g_i(-s)), with r = `_rate_prefactor` and
    g = `_onesided_exp_conv`: async_theory's sampled density."""
    c, tau0, p = theta
    xi = _safe_xi(p)
    if math.isinf(lambda_i) and math.isinf(lambda_j):
        return _cross_raw_fj(tau, theta)
    scale = 2.0 * xi * _rate_prefactor(lambda_i, lambda_j)
    s = tau - tau0
    gj, gj_t, gj_x = _onesided_exp_conv(s, lambda_j, xi, jac=True)
    gi, gi_t, gi_x = _onesided_exp_conv(-s, lambda_i, xi, jac=True)
    shape = scale * (gj + gi)
    f = c * shape
    jac = np.column_stack([shape,
                           c * scale * (gi_t - gj_t),
                           c * (shape + xi * scale * (gj_x + gi_x))])
    return f, jac


def _auto_raw_fj(tau_reg, theta, jac=True):
    """Model at the zero-lag point and at the regular lags `tau_reg`, and its
    Jacobian (None when `jac` is false); so is `_auto_async_fj`."""
    a, b, p = theta
    xi = _safe_xi(p)
    t = np.abs(tau_reg)
    env = np.exp(-t / xi)
    f = np.concatenate([[a], -b * env / (2.0 * xi)])
    if not jac:
        return f, None
    n = t.size
    jac = np.zeros((n + 1, 3))
    jac[0, 0] = 1.0
    jac[1:, 1] = -env / (2.0 * xi)
    jac[1:, 2] = -b * env * (t - xi) / (2.0 * xi * xi)
    return f, jac


def _auto_async_fj(tau_reg, lam, theta, jac=True):
    if math.isinf(lam):
        return _auto_raw_fj(tau_reg, theta, jac)
    a, b, p = theta
    xi = _safe_xi(p)
    u = 1.0 + lam * xi
    t = np.abs(tau_reg)
    amp = lam * lam / (2.0 * u)
    # (e^{-t/xi} - e^{-lam t}) / (lam - 1/xi), without overflow at large t
    rho = amp * decay_difference(t, 1.0 / xi, lam)
    f = np.concatenate([[a - b / u], -b * rho])
    if not jac:
        return f, None
    n = t.size
    jac = np.zeros((n + 1, 3))
    jac[0] = (1.0, -1.0 / u, xi * b * lam / u ** 2)
    jac[1:, 1] = -rho
    # d rho / d xi: the prefactor brings -lam/u, the rate 1/xi brings -1/xi^2
    drho = (rho * (-lam / u)
            - amp * decay_difference_da(t, 1.0 / xi, lam) / (xi * xi))
    jac[1:, 2] = xi * (-b) * drho
    return f, jac


# -- generic weighted solvers ---------------------------------------------------

_NAMES = {"cross": ("c", "tau", "xi"), "auto": ("a", "b", "xi")}

_PROFILE_GRID = 40  # coarse log(xi) points of the auto profile


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


def _xi_range(tau_span):
    """The widths the lag grid resolves: from 0.1 x the smallest lag step
    (narrower is below the lag resolution) to 10 x the largest |lag|
    (wider is flat over the whole grid)."""
    tau = np.asarray(tau_span, dtype=float)
    steps = np.diff(np.sort(tau))
    if not np.any(steps > 0):
        raise DataError("the lag grid needs a positive step")
    return (0.1 * float(np.min(steps[steps > 0])),
            10.0 * float(np.max(np.abs(tau))))


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on the first call so that
    importing the package loads no scipy."""
    from scipy.optimize import least_squares as solve
    return solve(*args, **kwargs)


def _solve(family, fj, theta0, y, sw, tau_span):
    """Levenberg-Marquardt fit of all three parameters from theta0.

    MINPACK asks for the Jacobian at the point it evaluated last, so the
    model and its Jacobian are computed once per point: the last theta
    (its bytes, a copy) is kept with its (f, j)."""
    if y.size < 4:
        raise DataError("too few points to fit three parameters")
    last = [None, None]

    def model(theta):
        key = theta.tobytes()
        if key != last[0]:
            last[:] = key, fj(theta)
        return last[1]

    def resid(theta):
        f, _ = model(theta)
        return (f - y) * sw

    def jac(theta):
        _, j = model(theta)
        return j * sw[:, None]

    sol = least_squares(resid, theta0, jac=jac, method="lm",
                        xtol=1e-12, ftol=1e-12, gtol=1e-12, max_nfev=2000)
    result = _pack(family, fj, sol.x, y, sw, tau_span, int(sol.nfev))
    if not sol.success:
        raise FitConvergenceError(f"{family} fit did not converge: {sol.message}",
                                  result=result)
    return result


def _profile(family, fj, y, sw, tau_span):
    """Variable-projection fit of an auto family, linear in (a, b) at fixed
    xi: f = a e_0 + b g(xi), with e_0 the zero-lag point.  a puts the
    zero-lag residual at 0 and b is the weighted least-squares solution on
    the regular lags, so the chi-square is a function of p = log(xi) only.
    It is searched on a coarse grid over log `_xi_range` and refined by
    bounded Brent between the neighbours of the best grid point; the edges
    of the range are grid points, so an optimum there is kept exactly on
    the edge, where `_pack` flags it."""
    from scipy.optimize import minimize_scalar  # as in `least_squares`

    w2 = sw[1:] ** 2
    yr = y[1:]
    nfev = 0

    def project(p):
        """(chi2, b, g_0) at log width p."""
        nonlocal nfev
        nfev += 1
        g, _ = fj((0.0, 1.0, p), False)
        gw = w2 * g[1:]
        gg = float(gw @ g[1:])
        if not gg > 0.0:
            return math.inf, math.nan, math.nan
        b = float(gw @ yr) / gg
        r = (b * g[1:] - yr) * sw[1:]
        return float(r @ r), b, float(g[0])

    lo, hi = _xi_range(tau_span)
    grid = np.linspace(math.log(lo), math.log(hi), _PROFILE_GRID)
    chi2 = [project(p)[0] for p in grid]
    k = int(np.argmin(chi2))
    sol = minimize_scalar(lambda p: project(p)[0], method="bounded",
                          bounds=(grid[max(k - 1, 0)],
                                  grid[min(k + 1, grid.size - 1)]),
                          options={"xatol": 1e-8})
    p = float(sol.x) if sol.fun < chi2[k] else grid[k]
    _, b, g0 = project(p)
    theta = np.array([y[0] - b * g0, b, p])
    return _pack(family, fj, theta, y, sw, tau_span, nfev)


def _pack(family, fj, theta, y, sw, tau_span, nfev):
    """FitResult at theta, with its covariance from the full Jacobian.

    The fit is degenerate when any of five tests fires, recorded by name:
    `amplitude` (c or b within 2 stderr of 0), `non_finite` (a parameter
    is not finite), `xi_above_range` and `xi_below_range` (xi at or beyond
    an edge of `_xi_range`), and, for the cross families,
    `tau_outside_range` (|tau| beyond 10 x the largest |lag|)."""
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
    lo, hi = _xi_range(tau_span)
    # the width tests compare log(xi) with the log of each edge, as the
    # profile's grid has them, so that an edge optimum counts as beyond it
    tests = (
        ("amplitude", not abs(params[amp]) > 2.0 * stderr[amp]),
        ("non_finite", not all(math.isfinite(v) for v in params.values())),
        ("xi_above_range", theta[2] >= math.log(hi)),
        ("xi_below_range", theta[2] <= math.log(lo)),
        ("tau_outside_range", kind == "cross" and abs(params["tau"]) > hi),
    )
    reasons = tuple(name for name, fired in tests if fired)
    if reasons:
        for name in names[1 if kind == "cross" else 2:]:
            if name != amp:
                stderr[name] = float("nan")
    return FitResult(family=family, params=params, stderr=stderr,
                     chi2=chi2, n_points=int(n), degenerate_reasons=reasons,
                     nfev=nfev, cov=cov_nat)


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


# -- public fits ----------------------------------------------------------------

_RUN_RAW = object()  # default `raw` of fit_cross_async: run the raw fit first


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
    if raw is _RUN_RAW:
        try:
            raw = fit_cross_raw(cg)
        except (DataError, FitConvergenceError):
            raw = None
    theta0 = (_cross_init(cg) if raw is None else
              np.array([raw.params["c"], raw.params["tau"],
                        math.log(raw.params["xi"])]))
    return _solve("cross_async",
                  lambda th: _cross_async_fj(tau, lambda_i, lambda_j, th),
                  theta0, cg.values.astype(float), sw, tau)


def _auto_setup(cg):
    if cg.delta_mass is None:
        raise DataError("auto fits need the zero-lag point mass split off")
    reg_idx = np.flatnonzero(cg.lag_grid != 0.0)
    if reg_idx.size < 6:
        raise DataError("too few regular lag points for an auto fit")
    k0 = int(np.flatnonzero(cg.lag_grid == 0.0)[0])
    y = np.concatenate([[cg.delta_mass], cg.values[reg_idx]])
    sw = _weights(cg, np.concatenate([[k0], reg_idx]))
    return cg.lag_grid[reg_idx], y, sw


def fit_auto_raw(cg):
    """Fit a * delta - b * exp(-|tau|/xi)/(2 xi) to an autocorrelogram."""
    tau, y, sw = _auto_setup(cg)
    return _profile("auto_raw", lambda th, jac=True: _auto_raw_fj(tau, th, jac),
                    y, sw, tau)


def fit_auto_async(cg, lam):
    """Fit the sampled image of the auto family at Poisson rate lam.

    The point mass becomes a - b/(1 + lambda xi) and the regular part is
    the exact sampled shape, which vanishes at zero lag.
    """
    if math.isnan(lam) or lam <= 0:
        raise DataError("sampling rate must be > 0")
    tau, y, sw = _auto_setup(cg)
    return _profile("auto_async",
                    lambda th, jac=True: _auto_async_fj(tau, lam, th, jac),
                    y, sw, tau)


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
