"""Array closed forms against the per-element scalar code they replaced.

The scalar reference below integrates the triangle window segment by
segment and evaluates the residue formula of the lag+exponential sampled
covariance one horizon at a time.  Both sides cancel O(1/lambda) terms to
reach results of order dt^2 in different orders, so they are compared at a
relative 1e-11 (about 5e4 ulp) on a grid away from lambda*xi = 1, where the
plain residue formula is accurate.
"""

import math

import numpy as np

from epps.kernels import (CorrelationModel, sync_covariance,
                          _triangle_covariance)
from epps.async_theory import AsyncKernel, async_covariance

RTOL = 1e-11


def int_lin_exp(a, b, k, lo, hi, shift=0.0):
    """Integral of (a + b*s) * exp(k*(s - shift)) over s in [lo, hi]."""
    if hi <= lo:
        return 0.0
    if k == 0.0:
        return a * (hi - lo) + 0.5 * b * (hi * hi - lo * lo)

    def antider(s):
        return np.exp(k * (s - shift)) * ((a + b * s) / k - b / (k * k))

    return antider(hi) - antider(lo)


def segments(lo, hi, *breaks):
    pts = sorted({lo, hi, *[b for b in breaks if lo < b < hi]})
    return list(zip(pts[:-1], pts[1:]))


def triangle_exp_integral(dt, center, xi):
    if dt <= 0.0:
        return 0.0
    total = 0.0
    for lo, hi in segments(-dt, dt, 0.0, center):
        mid = 0.5 * (lo + hi)
        b_tri = -1.0 if mid > 0 else 1.0
        k = (-1.0 if mid > center else 1.0) / xi
        total += int_lin_exp(dt, b_tri, k, lo, hi, shift=center) / (2.0 * xi)
    return total


def triangle_onesided_exp_integral(dt, center, lam_left, lam_right, amp):
    if dt <= 0.0:
        return 0.0
    total = 0.0
    for lo, hi in segments(-dt, dt, 0.0, center):
        mid = 0.5 * (lo + hi)
        b_tri = -1.0 if mid > 0 else 1.0
        if mid > center:
            if np.isinf(lam_right):
                continue
            k = -lam_right
        else:
            if np.isinf(lam_left):
                continue
            k = lam_left
        total += amp * int_lin_exp(dt, b_tri, k, lo, hi, shift=center)
    return total


def residue_covariance(dt, tau, xi, li, lj):
    """Unit-mass lag+exponential sampled covariance, finite rates with
    lambda*xi != 1."""
    if tau < 0:
        tau, li, lj = -tau, lj, li
    ui, vi = 1.0 + li * xi, -1.0 + li * xi
    uj, vj = 1.0 + lj * xi, -1.0 + lj * xi
    e = math.exp
    if dt >= tau:
        return (dt - tau + 1.0 / li - 1.0 / lj
                + li * lj * xi ** 3 * (e(-(dt - tau) / xi) / (2 * ui * vj)
                                       - e(-tau / xi) / (vi * uj)
                                       + e(-(dt + tau) / xi) / (2 * vi * uj))
                + (lj * e(-li * tau) / (li * (li + lj) * ui * vi))
                * (2.0 - e(-li * dt))
                - li * e(-lj * (dt - tau)) / (lj * (li + lj) * uj * vj))
    return (li * lj * xi ** 3 / (vi * uj)
            * ((e(-(tau - dt) / xi) + e(-(tau + dt) / xi)) / 2.0
               - e(-tau / xi))
            + (2.0 * lj / (li * (li + lj) * ui * vi))
            * (e(-li * tau)
               - (e(-li * (tau - dt)) + e(-li * (tau + dt))) / 2.0))


def scalar_sync_covariance(m, dt):
    out = m.delta_weight * max(dt - abs(m.lag), 0.0)
    if m.width > 0.0:
        out += m.exp_weight * triangle_exp_integral(dt, m.lag, m.width)
    return out


def scalar_async_covariance(m, li, lj, dt):
    r = li * lj / (li + lj)
    out = m.delta_weight * triangle_onesided_exp_integral(
        dt, m.lag, li, lj, r)
    if m.width > 0.0:
        out += m.exp_weight * residue_covariance(dt, m.lag, m.width, li, lj)
    return out


def scalar_binned_cov(m, grid_dt, k):
    center = m.lag - k * grid_dt
    out = m.delta_weight * max(grid_dt - abs(center), 0.0)
    if m.width > 0.0:
        out += m.exp_weight * triangle_exp_integral(grid_dt, center, m.width)
    return out


# dt below, at and above |lag|, for positive, zero and negative lags
DTS = np.array([0.5, 1.0, 2.0, 3.0, 5.0, 12.0])
LAGS = (-3.0, 0.0, 2.0)
XI = 3.0


def models():
    for lag in LAGS:
        yield CorrelationModel(delta_weight=0.3, lag=lag, width=XI,
                               exp_weight=0.6)
        yield CorrelationModel(delta_weight=0.5, lag=lag)


def test_sync_covariance_matches_scalar_reference():
    for m in models():
        expected = [scalar_sync_covariance(m, d) for d in DTS]
        np.testing.assert_allclose(sync_covariance(m, DTS), expected,
                                   rtol=RTOL, atol=1e-15)


def test_async_covariance_matches_scalar_reference():
    # lambda*xi = 2.1, 0.9, 0.75 and 4.5
    for li, lj in ((0.7, 0.3), (0.25, 1.5)):
        for m in models():
            expected = [scalar_async_covariance(m, li, lj, d) for d in DTS]
            np.testing.assert_allclose(
                async_covariance(m, AsyncKernel(li, lj), DTS), expected,
                rtol=RTOL, atol=1e-15)


def test_binned_cov_matches_scalar_reference():
    ks = np.arange(-40, 41)
    for grid_dt in (0.5, 1.0):
        for m in models():
            expected = [scalar_binned_cov(m, grid_dt, int(k)) for k in ks]
            np.testing.assert_allclose(
                _triangle_covariance(m, grid_dt, ks * grid_dt), expected,
                rtol=RTOL, atol=1e-15)
