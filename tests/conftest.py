"""Shared test oracles."""

from decimal import Decimal, localcontext
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad


def _oscillatory_covariance(weight, xi, tau, li, lj, dt):
    """Sampled covariance by direct oscillatory quadrature of
    Re[S(w) K(w)] 2(1 - cos(w dt)) / w^2 over w > 0, with the exponential
    component spectrum S(w) = weight exp(i w tau) / (1 + w^2 xi^2) and the
    sampling factor K(w) = li/(li + i w) * lj/(lj - i w), whose factor is 1
    for an infinite rate.

    Written independently of the closed forms: a plain panel below the
    first oscillation, then QAWF cos/sin-weighted tails after expanding the
    trig products."""

    def lor(w):
        return weight / (1.0 + (w * xi) ** 2)

    def kern(w):
        fi = 1.0 if math.isinf(li) else li / (li + 1j * w)
        fj = 1.0 if math.isinf(lj) else lj / (lj - 1j * w)
        return complex(fi * fj)

    def g_re(w):
        return 2.0 * lor(w) * kern(w).real / (w * w)

    def g_im(w):
        return 2.0 * lor(w) * kern(w).imag / (w * w)

    def head(w):
        if w == 0.0:
            return lor(0.0) * kern(0.0).real * dt * dt
        return ((g_re(w) * math.cos(w * tau) - g_im(w) * math.sin(w * tau))
                * (1.0 - math.cos(w * dt)))

    w0 = math.pi / max(abs(tau) + dt, 1.0)
    total, _ = quad(head, 0.0, w0, epsabs=1e-14, epsrel=1e-12, limit=200)
    terms = [(g_re, "cos", tau, 1.0), (g_im, "sin", tau, -1.0),
             (g_re, "cos", tau - dt, -0.5), (g_re, "cos", tau + dt, -0.5),
             (g_im, "sin", tau - dt, 0.5), (g_im, "sin", tau + dt, 0.5)]
    with warnings.catch_warnings():
        # QAWF reports cycles whose tail sits at roundoff level; the callers'
        # tolerances (1e-6 and tighter) check the result itself
        warnings.simplefilter("ignore", IntegrationWarning)
        for f, kind, a, coef in terms:
            if a == 0.0:
                val = quad(f, w0, np.inf, epsabs=1e-13,
                           limit=400)[0] if kind == "cos" else 0.0
            else:
                val, _ = quad(f, w0, np.inf, weight=kind, wvar=abs(a),
                              epsabs=1e-13, limit=400)
                if kind == "sin" and a < 0:
                    val = -val
            total += coef * val
    return total / math.pi


@pytest.fixture
def oscillatory_oracle():
    """The QAWF oracle for the sampled covariance of an exponential
    component: f(weight, xi, tau, lambda_i, lambda_j, dt)."""
    return _oscillatory_covariance


def _triangle_exp_integral_50_digits(dt, center, xi):
    """triangle_exp_integral's closed form H(dt - c) + H(-dt - c) - 2 H(-c)
    in 80-digit decimal arithmetic on the exact binary inputs.  Its second
    difference cancels at most about 30 digits for dt/xi >= 1e-15, so at
    least 50 remain."""
    with localcontext() as ctx:
        ctx.prec = 80
        dt, c, xi = Decimal(dt), abs(Decimal(center)), Decimal(xi)

        def h(u):
            return max(u, Decimal(0)) + xi / 2 * (-abs(u) / xi).exp()

        return float(h(dt - c) + h(-dt - c) - 2 * h(-c))


@pytest.fixture
def triangle_oracle():
    """A 50-digit reference of `_numutil.triangle_exp_integral`:
    f(dt, center, xi)."""
    return _triangle_exp_integral_50_digits


def _async_covariance_80_digits(m, li, lj, dt):
    """`async_covariance` of one CorrelationModel `m` at finite rates li, lj:
    the triangle identity H(dt - lag) + H(-dt - lag) - 2 H(-lag) in 80-digit
    decimal arithmetic on the exact binary inputs, with H'' the sampled
    kernel.  H is the delta and exponential masses times the second
    antiderivative of the sampling weight,
        gi^2/(gi + gj) e^(li u) for u < 0,
        u + gi - gj + gj^2/(gi + gj) e^(-lj u) for u >= 0
    (g = 1/rate), plus the exponential mass times xi^2 r (E_j(u) +
    E_i(-u)), r = li lj/(li + lj), where E_l(t) = e^(t/xi)/(2(1 + l xi))
    for t <= 0 and e^(-l t)/(2(1 + l xi)) + (e^(-l t) - e^(-t/xi))/(2(1 -
    l xi)) for t > 0 (t e^(-t/xi)/(2 xi) at l xi = 1) is the sampled
    exponential kernel of width xi.  The second difference cancels at most
    about 35 digits for dt/xi >= 1e-15, so more than 40 remain."""
    with localcontext() as ctx:
        ctx.prec = 80
        li, lj, dt = Decimal(li), Decimal(lj), Decimal(dt)
        lag, xi = Decimal(m.lag), Decimal(m.width)
        mass = Decimal(m.delta_weight) + Decimal(m.exp_weight)
        we = Decimal(m.exp_weight) if m.width > 0 else Decimal(0)
        gi, gj = 1 / li, 1 / lj
        r = li * lj / (li + lj)

        def e_l(t, lam):
            if t <= 0:
                return (t / xi).exp() / (2 * (1 + lam * xi))
            edge = (-lam * t).exp() / (2 * (1 + lam * xi))
            if lam * xi == 1:
                return edge + t * (-t / xi).exp() / (2 * xi)
            return edge + ((-lam * t).exp() - (-t / xi).exp()) / (
                2 * (1 - lam * xi))

        def h(u):
            if u < 0:
                w = gi * gi / (gi + gj) * (li * u).exp()
            else:
                w = u + gi - gj + gj * gj / (gi + gj) * (-lj * u).exp()
            if we == 0:
                return mass * w
            return mass * w + we * xi * xi * r * (e_l(u, lj) + e_l(-u, li))

        return float(h(dt - lag) + h(-dt - lag) - 2 * h(-lag))


@pytest.fixture
def async_covariance_oracle():
    """An 80-digit reference of `async_theory.async_covariance` for one
    model component at finite rates: f(model, lambda_i, lambda_j, dt)."""
    return _async_covariance_80_digits


@pytest.fixture
def no_signal_correlogram():
    """A pinned cross correlogram of noise alone on lags -57..57 (one day,
    no stderr), on which Levenberg-Marquardt ran into its 2 000-evaluation
    cap."""
    from epps.estimation import Correlogram
    from epps.sampling import rng_stream

    rng = rng_stream(2, 7)
    n = int(rng.integers(10, 61))
    return Correlogram(lag_grid=np.arange(-n, n + 1, dtype=float),
                       values=rng.standard_normal(2 * n + 1) * 0.01,
                       stderr=np.full(2 * n + 1, np.nan), n_days=1)
