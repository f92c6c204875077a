"""Least-squares fits of correlograms to the raw and sampling-corrected
model families.

Four families:

* cross_raw    c * exp(-|tau - tau0|/xi)
* cross_async  the same shape convolved with the sampling smoothing kernel
* auto_raw     a * delta(tau) - b * exp(-|tau|/xi) / (2 xi)
* auto_async   the sampled image of auto_raw: point mass a - b/(1 + lambda xi)
               plus a regular part vanishing at tau = 0

Each family is linear in its amplitudes once its width xi (and, for the
cross families, its lag tau0) is fixed, so all four are fitted by one
engine, variable projection (Golub & Pereyra 1973): the amplitudes are
weighted least-squares solutions, and what is left is the chi-square as a
function of log(xi), or of (tau0, log(xi)).  The search covers only what
the lag grid resolves: widths from 0.1 x the lag step to 10 x the largest
|lag|, and lags up to 10 x the largest |lag| either way.  A coarse grid
over that box is refined around its best point: by bounded Brent for the
auto families, by bounded L-BFGS-B and Newton steps for the cross ones
(`_search_auto`, `_search_cross`), so a fit always returns a point of the
box and raises no convergence error.  An optimum on an edge of the box is
reported as a degenerate fit, since the data then favour a width or lag
the grid cannot resolve, and so is an amplitude within 2 standard errors
of zero, as a correlogram without signal usually gives.

All Jacobians are analytic (checked against finite differences in the test
suite) and stable across the removable lambda*xi = 1 point; the covariance
of every fit comes from the full Jacobian at the optimum.  The width is
fitted as log(xi), so the box is a box in log(xi).
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import DataError, NumericalError
from ._numutil import decay_difference, decay_difference_da
from .async_theory import _check_rates, _onesided_exp_conv, _rate_prefactor


@dataclass(frozen=True)
class FitResult:
    family: str
    params: dict
    stderr: dict
    chi2: float
    n_points: int
    degenerate_reasons: tuple = ()  # names of the `_pack` tests that fired
    nfev: int = 0  # model evaluations of the search, grid included
    cov: np.ndarray = None  # 3x3, in the order of `params`, xi in natural units

    @property
    def degenerate(self):
        return bool(self.degenerate_reasons)


# -- model evaluations and derivatives ------------------------------------------

def _cross_raw_fj(tau, theta, jac=True):
    """Model at the lags `tau` and its Jacobian (None when `jac` is false);
    so are the other three `_*_fj`."""
    c, tau0, p = theta
    xi = math.exp(p)
    s = tau - tau0
    env = np.exp(-np.abs(s) / xi)
    f = c * env
    if not jac:
        return f, None
    return f, np.column_stack([env,
                               c * env * np.sign(s) / xi,
                               c * env * np.abs(s) / xi])


def _cross_async_fj(tau, lambda_i, lambda_j, theta, jac=True):
    """c exp(-|s|/xi) is the exponential component of mass 2 xi c, so the
    model is 2 xi c r (g_j(s) + g_i(-s)), with r = `_rate_prefactor` and
    g = `_onesided_exp_conv`: async_theory's sampled density."""
    if math.isinf(lambda_i) and math.isinf(lambda_j):
        return _cross_raw_fj(tau, theta, jac)
    c, tau0, p = theta
    xi = math.exp(p)
    scale = 2.0 * xi * _rate_prefactor(lambda_i, lambda_j)
    s = tau - tau0
    if not jac:
        return c * scale * (_onesided_exp_conv(s, lambda_j, xi)
                            + _onesided_exp_conv(-s, lambda_i, xi)), None
    gj, gj_t, gj_x = _onesided_exp_conv(s, lambda_j, xi, jac=True)
    gi, gi_t, gi_x = _onesided_exp_conv(-s, lambda_i, xi, jac=True)
    shape = scale * (gj + gi)
    return c * shape, np.column_stack([
        shape,
        c * scale * (gi_t - gj_t),
        c * (shape + xi * scale * (gj_x + gi_x))])


def _auto_raw_fj(tau_reg, theta, jac=True):
    """Model at the zero-lag point and at the regular lags `tau_reg`, and its
    Jacobian; so is `_auto_async_fj`."""
    a, b, p = theta
    xi = math.exp(p)
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
    xi = math.exp(p)
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


# -- variable projection --------------------------------------------------------

_NAMES = {"cross": ("c", "tau", "xi"), "auto": ("a", "b", "xi")}

_PROFILE_GRID = 40  # coarse log(xi) points of every profile


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


def _profile(family, model, tau, y, sw):
    """Variable-projection fit of `family` to the data y at the lags `tau`,
    with square-root weights sw; `model(tau, theta, jac)` is one of the
    `_*_fj`.  The log widths searched are `_PROFILE_GRID` points over log
    `_xi_range` and the box between its edges; `_pack` flags an optimum on
    an edge."""
    lo, hi = _xi_range(tau)
    grid = np.linspace(math.log(lo), math.log(hi), _PROFILE_GRID)
    search = _search_cross if family.startswith("cross") else _search_auto
    theta, nfev = search(model, tau, y, sw, grid)
    return _pack(family, model, tau, theta, y, sw, nfev)


def _search_auto(model, tau, y, sw, grid):
    """(theta, evaluations) of an auto family, linear in (a, b) at fixed xi:
    f = a e_0 + b g(xi), with e_0 the zero-lag point.  a puts the zero-lag
    residual at 0 and b is the weighted least-squares solution on the
    regular lags, so the chi-square is a function of p = log(xi) only.  It
    is searched on the log-width grid and refined by bounded Brent between
    the neighbours of the best grid point, which is kept when Brent does
    not beat it; so an optimum on an edge stays exactly on the edge."""
    from scipy.optimize import minimize_scalar  # importing epps loads no scipy

    w2 = sw[1:] ** 2
    yr = y[1:]
    nfev = 0

    def project(p):
        """(chi2, b, g_0) at log width p."""
        nonlocal nfev
        nfev += 1
        g, _ = model(tau, (0.0, 1.0, p), False)
        gw = w2 * g[1:]
        gg = float(gw @ g[1:])
        if not gg > 0.0:
            return math.inf, math.nan, math.nan
        b = float(gw @ yr) / gg
        r = (b * g[1:] - yr) * sw[1:]
        return float(r @ r), b, float(g[0])

    chi2 = [project(p)[0] for p in grid]
    k = int(np.argmin(chi2))
    sol = minimize_scalar(lambda p: project(p)[0], method="bounded",
                          bounds=(grid[max(k - 1, 0)],
                                  grid[min(k + 1, grid.size - 1)]),
                          options={"xatol": 1e-8})
    p = float(sol.x) if sol.fun < chi2[k] else grid[k]
    _, b, g0 = project(p)
    return np.array([y[0] - b * g0, b, p]), nfev


def _search_cross(model, tau, y, sw, grid):
    """(theta, evaluations) of a cross family, c g(tau - tau0; xi): c is the
    weighted least-squares amplitude at fixed x = (tau0, log xi), so the
    chi-square is a function of x only.

    Grid: the lag grid is uniform, so at each grid width the unit shape is
    evaluated once on the 2n - 1 differences of the n lags, and two
    correlations with it give sum w^2 y g and sum w^2 g^2, the projected
    chi-square at every tau0 on the lag grid.  Refinement: bounded L-BFGS-B
    over the box |tau0| <= 10 x the largest |lag| and log xi between the
    grid's edges, with the gradient 2 c sum w^2 (c g - y) dg/dx from the
    model's Jacobian at unit c.  cross_raw has a kink at every lag, which
    a descent from a lag may not cross, so L-BFGS-B starts halfway to the
    next lag on either side of the best grid point.  The best of its two
    ends and the grid point is finished by Newton steps on that gradient."""
    from scipy.optimize import minimize  # importing epps loads no scipy

    w2 = sw * sw
    wy = w2 * y
    d = tau - tau[0]
    diffs = np.concatenate([-d[:0:-1], d])
    nfev = 0
    gain, x0 = -math.inf, None
    for p in grid:
        nfev += 1
        g, _ = model(diffs, (1.0, 0.0, p), False)
        # reversed, so that entry m pairs lag k with difference k - m
        yg = np.correlate(g, wy, "valid")[::-1]
        gg = np.correlate(g * g, w2, "valid")[::-1]
        gains = yg * yg / gg  # sum w^2 y^2 minus the chi-square at tau[m]
        m = int(np.argmax(gains))
        if gains[m] > gain:
            gain, x0 = gains[m], np.array([tau[m], p])

    def project(x):
        """(chi2, its gradient, c) at x."""
        nonlocal nfev
        nfev += 1
        g, j = model(tau, (1.0, x[0], x[1]), True)
        gw = w2 * g
        gg = float(gw @ g)  # 0 where the shape underflows on every lag
        c = float(gw @ y) / gg if gg > 0.0 else 0.0
        wr = w2 * (c * g - y)
        return float(wr @ (c * g - y)), 2.0 * c * (wr @ j[:, 1:]), c

    reach = _xi_range(tau)[1]  # as `_pack`'s tau_outside_range has it
    chi2, x = float(wy @ y) - gain, x0
    for side in (-0.5, 0.5):
        sol = minimize(lambda z: project(z)[:2], x0 + (side * d[1], 0.0),
                       jac=True, method="L-BFGS-B",
                       bounds=((-reach, reach), (grid[0], grid[-1])),
                       options={"ftol": 1e-15, "gtol": 1e-12})
        # both sides may end on one optimum, at chi-squares that differ by
        # round-off, which must not choose between them
        if sol.fun < chi2 * (1.0 - 1e-9):
            chi2, x = sol.fun, sol.x
    # L-BFGS-B compares chi-square values, which resolve a flat optimum only
    # to about sqrt(eps); Newton steps on the gradient, with its Hessian by
    # central differences, settle it, but not across cross_raw's kinks
    steps = np.diag([1e-5 * d[1], 1e-5])
    for _ in range(2):
        chi2, grad, _ = project(x)
        hess = np.column_stack([(project(x + e)[1] - project(x - e)[1])
                                / (2.0 * e.sum()) for e in steps])
        hess = hess + hess.T  # twice its symmetric part
        if not (hess[0, 0] > 0.0 and np.linalg.det(hess) > 0.0):
            break
        nxt = x - np.linalg.solve(hess, 2.0 * grad)
        if not (abs(nxt[0]) <= reach and grid[0] <= nxt[1] <= grid[-1]
                and project(nxt)[0] <= chi2 * (1.0 + 1e-12)):
            break
        x = nxt
    return np.array([project(x)[2], x[0], x[1]]), nfev


def _pack(family, model, tau, theta, y, sw, nfev):
    """FitResult at theta, with its covariance from the full Jacobian.

    The fit is degenerate when any of five tests fires, recorded by name:
    `amplitude` (c or b within 2 stderr of 0), `non_finite` (a parameter
    is not finite), `xi_above_range` and `xi_below_range` (xi at or beyond
    an edge of `_xi_range`), and, for the cross families,
    `tau_outside_range` (|tau| at or beyond 10 x the largest |lag|)."""
    kind = "cross" if family.startswith("cross") else "auto"
    names = _NAMES[kind]
    f, j = model(tau, theta, True)
    res = (f - y) * sw
    jw = j * sw[:, None]
    chi2 = float(res @ res)
    n = y.size
    cov = np.linalg.pinv(jw.T @ jw)
    if np.all(sw == 1.0) and n > 3:
        cov = cov * chi2 / (n - 3)
    err = np.sqrt(np.maximum(np.diag(cov), 0.0))
    xi = math.exp(theta[2])
    scale = np.array([1.0, 1.0, xi])  # log(xi) -> xi by the delta method
    cov_nat = cov * np.outer(scale, scale)
    params = {names[0]: theta[0], names[1]: theta[1], names[2]: xi}
    stderr = {names[0]: err[0], names[1]: err[1], names[2]: xi * err[2]}
    amp = names[0] if kind == "cross" else names[1]
    lo, hi = _xi_range(tau)
    # the edge tests compare with the edges of the search box as the
    # search has them, so that an optimum on an edge counts as beyond it
    tests = (
        ("amplitude", not abs(params[amp]) > 2.0 * stderr[amp]),
        ("non_finite", not all(math.isfinite(v) for v in params.values())),
        ("xi_above_range", theta[2] >= math.log(hi)),
        ("xi_below_range", theta[2] <= math.log(lo)),
        ("tau_outside_range", kind == "cross" and abs(params["tau"]) >= hi),
    )
    reasons = tuple(name for name, fired in tests if fired)
    if reasons:
        for name in names[1 if kind == "cross" else 2:]:
            if name != amp:
                stderr[name] = float("nan")
    return FitResult(family=family, params=params, stderr=stderr,
                     chi2=chi2, n_points=int(n), degenerate_reasons=reasons,
                     nfev=nfev, cov=cov_nat)


# -- public fits ----------------------------------------------------------------

def _cross_setup(cg):
    if cg.lag_grid.size < 10:
        raise DataError("need at least 10 lag points for a cross fit")
    return (cg.lag_grid, cg.values.astype(float),
            _weights(cg, np.arange(cg.lag_grid.size)))


def fit_cross_raw(cg):
    """Fit c * exp(-|tau - tau0|/xi) to a cross-correlogram."""
    return _profile("cross_raw", _cross_raw_fj, *_cross_setup(cg))


def fit_cross_async(cg, lambda_i, lambda_j):
    """Fit the sampling-corrected cross family at the given Poisson rates.

    The model is the raw exponential bump convolved with the asymmetric
    smoothing kernel of the rates, so the recovered lag and width refer to
    the underlying synchronous process.
    """
    tau, y, sw = _cross_setup(cg)
    _check_rates(lambda_i, lambda_j)
    return _profile(
        "cross_async",
        lambda t, th, jac: _cross_async_fj(t, lambda_i, lambda_j, th, jac),
        tau, y, sw)


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
    return _profile("auto_raw", _auto_raw_fj, *_auto_setup(cg))


def fit_auto_async(cg, lam):
    """Fit the sampled image of the auto family at Poisson rate lam.

    The point mass becomes a - b/(1 + lambda xi) and the regular part is
    the exact sampled shape, which vanishes at zero lag.
    """
    _check_rates(lam)
    return _profile("auto_async",
                    lambda t, th, jac: _auto_async_fj(t, lam, th, jac),
                    *_auto_setup(cg))


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
