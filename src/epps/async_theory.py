"""Closed-form predictions for Poisson-sampled, previous-tick processes.

Exponential waiting times act on the synchronous spectrum as a multiplicative
low-pass factor

    K(omega) = lambda_i lambda_j / ((lambda_i + i omega)(lambda_j - i omega)),

equivalently as a two-sided exponential smoothing of the lagged correlation in
real space.  Covariances of the sampled process are triangle integrals of
that smoothed kernel, in one closed form through its second antiderivative;
variances acquire an additive correction instead.  Rates may be numpy.inf,
which reduces every formula to its synchronous counterpart.

Sign convention (see kernels module): c(tau) = <dX_i(t) dX_j(t + tau)>.  With
this choice the slow decay side of the smoothing kernel sits at positive tau
when asset i is sampled faster than asset j, i.e. the fast asset appears to
lead the slow one.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import DataError, NumericalError
from .kernels import sync_covariance, _finite
from ._numutil import decay_difference, decay_difference_da, triangle_exp


def _check_rates(*rates):
    """The one check, and message, of every function that takes sampling
    rates: each must be > 0, numpy.inf passes and NaN does not."""
    if not all(lam > 0 for lam in rates):
        raise DataError("sampling rates must be > 0")


@dataclass(frozen=True)
class AsyncKernel:
    """Pair of Poisson sampling rates (1/seconds); numpy.inf = synchronous."""

    lambda_i: float
    lambda_j: float

    def __post_init__(self):
        _check_rates(self.lambda_i, self.lambda_j)

    @property
    def synchronous(self):
        return math.isinf(self.lambda_i) and math.isinf(self.lambda_j)

    def swapped(self):
        return AsyncKernel(self.lambda_j, self.lambda_i)


def _rate_prefactor(li, lj):
    # lambda_i lambda_j / (lambda_i + lambda_j), with infinite-rate limits
    if math.isinf(li) and math.isinf(lj):
        return math.inf
    if math.isinf(li):
        return lj
    if math.isinf(lj):
        return li
    return li * lj / (li + lj)


def _smoothing_weight(k, s):
    """Real-space sampling kernel: integrates to 1, decays at rate lambda_j on
    the positive side and lambda_i on the negative side."""
    r = _rate_prefactor(k.lambda_i, k.lambda_j)
    s = np.asarray(s, dtype=float)
    pos = np.zeros_like(s)
    if not math.isinf(k.lambda_j):
        pos = np.where(s >= 0, r * np.exp(-k.lambda_j * np.where(s >= 0, s, 0.0)), 0.0)
    neg = np.zeros_like(s)
    if not math.isinf(k.lambda_i):
        neg = np.where(s < 0, r * np.exp(k.lambda_i * np.where(s < 0, s, 0.0)), 0.0)
    return pos + neg


def _onesided_exp_conv(t, lam, xi, jac=False):
    """integral_0^inf exp(-lam s) g(t - s) ds with g(u) = exp(-|u|/xi)/(2 xi).

    Stable at lam*xi = 1 (the 1/(1 - lam xi) pole is removable).  With
    `jac`, returns (value, d/dt, d/dxi) instead of the value alone.
    """
    t = np.asarray(t, dtype=float)
    if math.isinf(lam):
        z = np.zeros_like(t)
        return (z, z.copy(), z.copy()) if jac else z
    u = 1.0 + lam * xi
    neg = t <= 0
    out = np.empty_like(t)
    out[neg] = np.exp(t[neg] / xi) / (2.0 * u)
    tp = t[~neg]
    # (exp(-lam t) - exp(-t/xi)) / (2 (1 - lam xi))
    mid = decay_difference(tp, lam, 1.0 / xi) / (2.0 * xi)
    edge = np.exp(-lam * tp) / (2.0 * u)
    out[~neg] = edge + mid
    if not jac:
        return out
    d_t = np.empty_like(t)
    d_xi = np.empty_like(t)
    d_t[neg] = out[neg] / xi
    d_xi[neg] = -out[neg] * (t[neg] / (xi * xi) + lam / u)
    d_t[~neg] = np.exp(-tp / xi) / (2.0 * xi) - lam * out[~neg]
    # the rate 1/xi of decay_difference brings -1/xi^2 per unit of xi;
    # dividing by xi^2 before 2 xi keeps it finite for xi down to e^-300
    d_xi[~neg] = (-lam * edge / u - mid / xi
                  - decay_difference_da(tp, 1.0 / xi, lam) / (xi * xi)
                  / (2.0 * xi))
    return out, d_t, d_xi


def _sampled_exp_density(k, xi, s):
    """Unit-mass exponential kernel of width xi, smoothed by the sampling
    weight: the regular sampled correlation density at lag s."""
    r = _rate_prefactor(k.lambda_i, k.lambda_j)
    return r * (_onesided_exp_conv(s, k.lambda_j, xi)
                + _onesided_exp_conv(-s, k.lambda_i, xi))


def async_cross_corr(model, k, tau):
    """Lagged correlation density of the sampled pair at lag tau.

    Convolution of the synchronous kernel with the sampling weight; exact
    closed form for delta and exponential components.  Delta components become
    regular (one/two-sided exponential bumps); with both rates infinite the
    synchronous regular part is returned and any delta component stays a delta.
    """
    scalar = np.isscalar(tau)
    tau = _finite(tau, "async_cross_corr", name="tau")
    out = np.zeros_like(tau)
    s, xi, we = tau - model.lag, model.width, model.exp_weight
    if k.synchronous:
        if xi > 0.0:
            out += we * np.exp(-np.abs(s) / xi) / (2.0 * xi)
    else:
        out += model.delta_weight * _smoothing_weight(k, s)
        if xi > 0.0:
            out += we * _sampled_exp_density(k, xi, s)
    return out[0] if scalar else out


# -- covariance of the sampled pair --------------------------------------------
#
# For a lag kernel c with any second antiderivative H (H'' = c), the triangle
# integral of dt-increments is
#
#     integral (dt - |s|) c(s - lag) ds = H(dt - lag) + H(-dt - lag) - 2 H(-lag),
#
# since the triangle's second derivative is delta(s - dt) + delta(s + dt)
# - 2 delta(s).  For the sampling weight w, H_w is below; for the sampled
# exponential kernel w * g, with g(u) = exp(-|u|/xi)/(2 xi), it is
# H_w + xi^2 (w * g), because H_g(u) = max(u, 0) + xi^2 g(u) and convolving
# with w commutes with the antiderivative.

def _weight_antiderivative(u, li, lj):
    """Second antiderivative of the sampling weight (see _smoothing_weight):
    li^-2 r exp(li u) for u < 0 and u + 1/li - 1/lj + lj^-2 r exp(-lj u) for
    u >= 0, with r the rate prefactor.  An infinite rate drops its tail."""
    gi, gj = 1.0 / li, 1.0 / lj
    pos = u >= 0
    out = np.where(pos, u + (gi - gj), 0.0)
    if gi > 0.0:
        out += np.where(pos, 0.0, gi * gi / (gi + gj)
                        * np.exp(li * np.minimum(u, 0.0)))
    if gj > 0.0:
        out += np.where(pos, gj * gj / (gi + gj)
                        * np.exp(-lj * np.maximum(u, 0.0)), 0.0)
    return out


# dt over the model's exponential width, or over the longest mean tick gap
# when it has none, below which async_covariance integrates the sampled
# kernel over the triangle instead of taking the second difference of H,
# which errs by about 3e-16 (scale/dt)^2 relative: 2e-13 at this threshold.
_SMALL_DT = 0.04


def _triangle_decay_difference(center, dt, a, b):
    """integral over v >= 0 of max(dt - |v - center|, 0) decay_difference(v,
    a, b) dv, elementwise over `dt` with b dt < 1: by 8-point Gauss-Legendre
    on each side of the peak where a dt <= 2, else as the difference of two
    `triangle_exp`s over b - a, which a > 2/dt > 2b keeps well conditioned.
    """
    out = np.zeros_like(dt)
    quad = a * dt <= 2.0
    d = dt[quad]
    peak = np.full_like(d, max(center, 0.0))
    x, w = np.polynomial.legendre.leggauss(8)
    for lo, hi in ((np.maximum(center - d, 0.0), peak),
                   (peak, np.maximum(center + d, 0.0))):
        half = (hi - lo)[:, None] / 2.0
        v = lo[:, None] + half * (1.0 + x)
        f = (d[:, None] - np.abs(v - center)) * decay_difference(v, a, b)
        out[quad] += (half * f) @ w
    d = dt[~quad]
    out[~quad] = (triangle_exp(center, d, a)
                  - triangle_exp(center, d, b)) / (b - a)
    return out


def _small_dt_covariance(m, k, lag, dt):
    """async_covariance of the model `m` at lag >= 0 for small dt, as
    the triangle integral of its sampled kernel (see async_cross_corr).  On
    each side of the kernel's kink at s = lag the kernel is, in the distance
    v from the kink, a sum of exponentials and a decay_difference, each
    integrated over the triangle without cancellation."""
    r = _rate_prefactor(k.lambda_i, k.lambda_j)
    we, xi = m.exp_weight, m.width
    out = np.zeros_like(dt)
    for center, near, far in ((lag, k.lambda_i, k.lambda_j),
                              (-lag, k.lambda_j, k.lambda_i)):
        if not math.isinf(near):
            out += r * (m.delta_weight + we / (2.0 * (1.0 + near * xi))
                        ) * triangle_exp(center, dt, near)
            if xi > 0.0:
                out += r * we / (2.0 * xi) * _triangle_decay_difference(
                    center, dt, near, 1.0 / xi)
        if xi > 0.0 and not math.isinf(far):
            out += r * we / (2.0 * (1.0 + far * xi)) * triangle_exp(
                center, dt, 1.0 / xi)
    return out


def async_covariance(model, k, dt):
    """Covariance of dt-increments of the sampled pair.

    One exact closed form for the delta and lag+exponential kernel families,
    vectorised over dt: the triangle integral above, with H built from the
    sampling weight's antiderivative and, for an exponential part, the
    sampled correlation density of async_cross_corr.  Every 1/(lambda xi - 1)
    pole is removable and sits inside decay_difference, so the result is
    continuous across dt = |lag| and across lambda*xi = 1; an infinite rate
    takes its exact limit.  A negative lag is mirrored (lag -> -lag, rates
    swapped) so that only H(dt - lag) carries the linear part.  Below
    `_SMALL_DT` of the model's scale, where that second difference would
    cancel, it is `_small_dt_covariance` instead.
    """
    scalar = np.isscalar(dt)
    dt = _finite(dt, "async_covariance", bound=">= 0")
    if k.synchronous:
        out = sync_covariance(model, dt)
        return out if not scalar else float(out)
    n, m = dt.size, model
    kern, lag = (k, m.lag) if m.lag >= 0 else (k.swapped(), -m.lag)
    u = np.concatenate([dt - lag, -dt - lag, [-lag]])
    h = (m.delta_weight + m.exp_weight) * _weight_antiderivative(
        u, kern.lambda_i, kern.lambda_j)
    if m.width > 0.0:
        h += m.exp_weight * m.width ** 2 * _sampled_exp_density(
            kern, m.width, u)
    out = h[:n] + h[n:2 * n] - 2.0 * h[-1]
    scale = m.width if m.width > 0.0 else 1.0 / min(k.lambda_i, k.lambda_j)
    small = dt < _SMALL_DT * scale
    if small.any():
        out[small] = _small_dt_covariance(m, kern, lag, dt[small])
    return out[0] if scalar else out


# -- variance of the sampled process -------------------------------------------

def _damped_kernel(m, lam, t):
    """Fourier antitransform at |t| of S(omega) / (1 + omega^2/lambda^2)
    for the spectrum S of the model `m`."""
    t = np.abs(np.asarray(t, dtype=float))
    out = m.delta_weight * (lam / 2.0) * np.exp(-lam * t)
    xi = m.width
    if xi > 0.0:
        out = out + (m.exp_weight * lam / (2.0 * xi * (1.0 + lam * xi))) * (
            decay_difference(t, lam, 1.0 / xi) + xi * np.exp(-t / xi))
    return out


def async_variance(model, lam, dt):
    """Variance of dt-increments of a sampled process with auto kernel `model`.

    Adds to the synchronous variance the correction
    (2/lambda^2) (cbar(dt) - exp(-lambda dt) cbar(0)) where cbar is the
    antitransform of the damped spectrum; the correction vanishes identically
    for a flat spectrum (linear variance is preserved by the sampling).
    """
    scalar = np.isscalar(dt)
    dt = _finite(dt, "async_variance", bound=">= 0")
    _check_rates(lam)
    out = sync_covariance(model, dt)
    if not math.isinf(lam):
        if model.lag != 0.0:
            raise DataError("async_variance requires an auto kernel (lag = 0)")
        cbar = _damped_kernel(model, lam, dt)
        cbar0 = _damped_kernel(model, lam, 0.0)
        out = out + (2.0 / lam ** 2) * (cbar - np.exp(-lam * dt) * cbar0)
    return out[0] if scalar else out


def async_rho(pair, k, dt):
    """Pearson correlation of dt-increments of the sampled pair."""
    scalar = np.isscalar(dt)
    dt = _finite(dt, "async_rho", bound="> 0")
    c12 = async_covariance(pair.cross, k, dt)
    v1 = async_variance(pair.auto_i, k.lambda_i, dt)
    v2 = async_variance(pair.auto_j, k.lambda_j, dt)
    if np.any(v1 <= 0) or np.any(v2 <= 0):
        raise NumericalError("degenerate variance in async_rho")
    rho = c12 / np.sqrt(v1 * v2)
    return rho[0] if scalar else rho


def discrete_kernel(lambda_i_step, lambda_j_step, n, T):
    """Finite-length, discrete-time suppression factor at frequency index n.

    Rates are per grid step; each step contains a tick with probability
    1 - exp(-rate).  The factor is f(lambda_i) conj f(lambda_j) with the
    per-asset f(lambda) = -expm1(-lambda) / (1 - exp(-lambda - i theta)),
    theta = 2 pi n / T, and f = 1 at lambda = inf; at equal rates it is
    |f|^2 and exactly real.  Reduces to the continuum factor K(omega) of
    the module docstring in the continuum limit and to 1 as the rates grow.
    """
    if T < 2:
        raise DataError("discrete_kernel requires T >= 2")
    n_arr = np.atleast_1d(np.asarray(n))
    if np.any((n_arr < 0) | (n_arr >= T)):
        raise DataError("frequency index out of range [0, T)")
    _check_rates(lambda_i_step, lambda_j_step)
    theta = 2.0 * math.pi * n_arr / T
    f = {}
    for lam in (lambda_i_step, lambda_j_step):
        f[lam] = np.ones_like(theta, dtype=complex) if math.isinf(lam) \
            else -math.expm1(-lam) / (1.0 - np.exp(-lam - 1j * theta))
    fi = f[lambda_i_step]
    if lambda_i_step == lambda_j_step:
        out = (fi.real ** 2 + fi.imag ** 2).astype(complex)
    else:
        # the order numpy's temporary elision takes from 256 KiB up, so that
        # a bin's bits do not depend on the array length
        out = f[lambda_j_step].conj() * fi
    return out if not np.isscalar(n) else complex(out[0])
