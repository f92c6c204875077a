"""Independent frequency-domain reference for the sampled Epps curve.

Used to check `epps theory --quantity rho` at a few points, among them
lambda * xi = 1 exactly, where the package switches to its high-precision
closed form.  It shares no code with `epps.async_theory`: the covariance and
the variances are integrals over frequency, evaluated with a plain panel
below the first oscillation and QAWF (Fourier-weighted) tails above it.

Model: cross kernel c exp(-|tau - lag| / xi) / (2 xi); auto kernels
a delta(tau) + b exp(-|tau| / xi) / (2 xi).  With spectra S(w) of the
increments and Poisson rates l_i, l_j (previous-tick sampling):

  C_ij(dt) = (1/pi) int_0^inf Re[S_ij(w) K(w)] 2 (1 - cos w dt) / w^2 dw,
      K(w) = l_i l_j / ((l_i + i w)(l_j - i w)),
  V(dt)    = (2/pi) int_0^inf S(w) [l^2 (1 - cos w dt) / (w^2 (l^2 + w^2))
                                    + (1 - exp(-l dt)) / (l^2 + w^2)] dw.

The variance follows from E[2 - 2 cos(w D)] for the random span D between
the last ticks before t and before t + dt of one Poisson clock.
"""

import math

import numpy as np
from scipy.integrate import quad

_TOL = dict(epsabs=1e-13, epsrel=1e-11, limit=400)


def _fourier_tail(f, w0, freq, kind):
    """int_w0^inf f(w) cos(freq w) dw (kind "cos") or sin (kind "sin").

    QAWF works to an absolute tolerance only, so it is set relative to
    f(w0) w0, the size of the tail of an integrand decaying like 1/w^2
    (with a floor for an integrand that vanishes identically).
    """
    if freq == 0.0:
        return quad(f, w0, np.inf, **_TOL)[0] if kind == "cos" else 0.0
    epsabs = max(1e-12 * abs(f(w0)) * w0, 1e-15)
    val = quad(f, w0, np.inf, weight=kind, wvar=abs(freq), epsabs=epsabs,
               limit=_TOL["limit"])[0]
    return -val if kind == "sin" and freq < 0 else val


def _w0(span):
    """End of the plain panel: half a period of the fastest oscillation."""
    return math.pi / max(span, 1.0)


def cross_covariance(c, lag, xi, li, lj, dt):
    def kern(w):
        return li * lj / ((li + 1j * w) * (lj - 1j * w))

    def g_re(w):
        return 2.0 * c / (1.0 + (w * xi) ** 2) * kern(w).real / (w * w)

    def g_im(w):
        return 2.0 * c / (1.0 + (w * xi) ** 2) * kern(w).imag / (w * w)

    def head(w):
        # Re[exp(i w lag) K] (1 - cos w dt) with the 1/w^2 kept finite
        return ((g_re(w) * math.cos(w * lag) - g_im(w) * math.sin(w * lag))
                * (1.0 - math.cos(w * dt)))

    w0 = _w0(abs(lag) + dt)
    total = quad(head, 0.0, w0, **_TOL)[0]
    for f, kind, freq, coef in ((g_re, "cos", lag, 1.0),
                                (g_im, "sin", lag, -1.0),
                                (g_re, "cos", lag - dt, -0.5),
                                (g_re, "cos", lag + dt, -0.5),
                                (g_im, "sin", lag - dt, 0.5),
                                (g_im, "sin", lag + dt, 0.5)):
        total += coef * _fourier_tail(f, w0, freq, kind)
    return total / math.pi


def variance(a, b, xi, lam, dt):
    def spec(w):
        return a + (b / (1.0 + (w * xi) ** 2) if xi > 0 else b)

    def g(w):
        return spec(w) * lam * lam / (w * w * (lam * lam + w * w))

    w0 = _w0(dt)
    osc = quad(lambda w: g(w) * (1.0 - math.cos(w * dt)), 0.0, w0, **_TOL)[0]
    osc += quad(g, w0, np.inf, **_TOL)[0] - _fourier_tail(g, w0, dt, "cos")
    flat = quad(lambda w: spec(w) / (lam * lam + w * w), 0.0, np.inf,
                **_TOL)[0]
    return 2.0 / math.pi * (osc - math.expm1(-lam * dt) * flat)


def sampled_rho(model, li, lj, dt):
    """Pearson correlation of dt-returns of the sampled pair.

    `model` maps "cross.c", "cross.tau", "cross.xi", "auto_i.a",
    "auto_i.b", "auto_i.xi", "auto_j.a", ... to numbers, as in a model file.
    """
    def get(key):
        return float(model.get(key, 0.0))

    c12 = cross_covariance(get("cross.c"), get("cross.tau"), get("cross.xi"),
                           li, lj, dt)
    v1 = variance(get("auto_i.a"), get("auto_i.b"), get("auto_i.xi"), li, dt)
    v2 = variance(get("auto_j.a"), get("auto_j.b"), get("auto_j.xi"), lj, dt)
    return c12 / math.sqrt(v1 * v2)
