"""Small numerical primitives shared by the analytic modules.

Everything here is elementary calculus written to stay accurate near
removable singularities (vanishing exponents, coincident decay rates).
"""

import math

import numpy as np


def expm1_over_x(x):
    """(e^x - 1)/x, stable at x = 0."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-6
    safe = np.where(small, 1.0, x)
    out = np.expm1(safe) / safe
    return np.where(small, 1.0 + x / 2.0 + x * x / 6.0, out)


def decay_difference(t, a, b):
    """(e^{-a t} - e^{-b t}) / (b - a) for t >= 0 and finite rates a, b >= 0.

    Symmetric in a and b, equal to t e^{-a t} at a = b, and written so that
    no factor overflows: the slower decay is factored out and the remaining
    quotient is expm1_over_x of a nonpositive argument.
    """
    t = np.asarray(t, dtype=float)
    return t * np.exp(-min(a, b) * t) * expm1_over_x(-abs(a - b) * t)


def decay_difference_da(t, a, b):
    """Derivative of decay_difference(t, a, b) in its first rate a.

    Equals -t^2 integral_0^1 (1 - s) e^{-((1 - s) a + s b) t} ds; as in
    decay_difference the slower decay is factored out, which leaves the
    first (a <= b) or the second (a > b) of the `exp_moments` of |a - b| t.
    """
    t = np.asarray(t, dtype=float)
    rest = exp_moments(abs(a - b) * t)[0 if a <= b else 1]
    return -t * t * np.exp(-min(a, b) * t) * rest


def exp_moments(y):
    """(integral_0^1 (1 - s) e^{-y s} ds, integral_0^1 s e^{-y s} ds) for
    y >= 0: both positive, and taken without cancellation, by their Taylor
    series on the entries below y = 1 and as (y - 1 + e^-y)/y^2 and
    (1 - (1 + y) e^-y)/y^2 on the rest, divided by y twice where y^2
    overflows (y above about 1.3e154)."""
    y = np.asarray(y, dtype=float)
    small = y < 1.0
    yl = np.where(small, 1.0, y)
    e = np.exp(-yl)
    with np.errstate(over="ignore"):
        over = np.isinf(yl * yl)
    y2 = yl * np.where(over, 1.0, yl)
    a, b = (np.asarray(np.where(over, v / yl, v) / y2)
            for v in (yl - 1.0 + e, 1.0 - (1.0 + yl) * e))
    ys = y[small]
    sa = sb = 0.0  # Horner sums of (-y)^n (1 or n + 1)/(n + 2)!, n <= 17
    for n in range(17, -1, -1):
        sa = 1.0 / math.factorial(n + 2) - ys * sa
        sb = (n + 1.0) / math.factorial(n + 2) - ys * sb
    a[small], b[small] = sa, sb
    return a, b


def triangle_exp(center, dt, rate):
    """integral over v >= 0 of max(dt - |v - center|, 0) exp(-rate v) dv,
    elementwise over broadcast `center` and `dt` >= 0, for a finite rate:
    the triangle is cut at its peak and at v = 0 into pieces
    exp(-rate p) l^2 times `exp_moments`, every one positive."""
    peak = np.maximum(center, 0.0)
    right = np.maximum(dt + np.minimum(center, 0.0), 0.0)  # beyond the peak
    left = np.maximum(np.minimum(dt, center), 0.0)  # between 0 and the peak
    a_l, b_l = exp_moments(rate * left)
    return (np.exp(-rate * peak) * right * right
            * exp_moments(rate * right)[0]
            + np.exp(-rate * (peak - left))
            * ((dt - left) * left * (a_l + b_l) + left * left * b_l))


# dt/xi below which triangle_exp_integral avoids cancellation.  Above it the
# closed form errs by at most about 5e-16 (xi/dt)^2 relative, 5e-10 here.
# ModelPair's validation grid starts at 1e-3 x the longest time scale, so
# loading a model never takes the slower branch.
_SMALL_DT = 1e-3


def triangle_exp_integral(dt, center, xi):
    """Integral of (dt - |s|) * exp(-|s - center|/xi) / (2 xi) over s in [-dt, dt].

    This is the double integral of a unit-mass two-sided exponential kernel
    (decay xi, centered at `center`) over the square [0, dt]^2, reduced to one
    dimension.  Elementwise over broadcast `dt` >= 0 and `center`; xi must be
    > 0.  Exact closed form: with H(u) = max(u, 0) + (xi/2) exp(-|u|/xi), whose
    second derivative is the kernel, the integral is
    H(dt - c) + H(-dt - c) - 2 H(-c) for c = |center|.

    That second difference of O(xi) terms is O((dt/xi)^2 xi), so it loses
    digits like eps (xi/dt)^2 as dt/xi -> 0.  Below dt/xi = _SMALL_DT the
    same integral is taken without cancellation, as the two sides of the
    kernel's peak over the triangle: (triangle_exp(c, dt, 1/xi)
    + triangle_exp(-c, dt, 1/xi)) / (2 xi).
    """
    dt = np.asarray(dt, dtype=float)
    c = np.abs(np.asarray(center, dtype=float))
    out = np.maximum(dt - c, 0.0) + 0.5 * xi * (
        np.exp(-np.abs(dt - c) / xi) + np.exp(-(dt + c) / xi)
        - 2.0 * np.exp(-c / xi))
    small = dt < _SMALL_DT * xi
    if small.any():
        out = np.where(small, (triangle_exp(c, dt, 1.0 / xi)
                               + triangle_exp(-c, dt, 1.0 / xi)) / (2.0 * xi),
                       out)
    return out
