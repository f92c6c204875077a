"""Synchronous correlation models.

A model describes the infinitesimal lagged correlation of a pair of
continuous-time increment processes,

    c(tau) = delta_weight * delta(tau - lag)
           + exp_weight * exp(-|tau - lag| / width) / (2 * width),

together with the induced finite-horizon covariance and Pearson
correlation, each an array over its grid of horizons (a scalar horizon is a
one-point grid).

Conventions used throughout the package:

* lags:      c(tau) = <dX_i(t) dX_j(t + tau)>, so a cross kernel centered at
             lag > 0 means asset j trails asset i.
* spectra:   S(omega) = integral c(tau) exp(+i omega tau) dtau, with inverse
             c(tau) = (1/2 pi) integral S(omega) exp(-i omega tau) domega.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import DataError, NumericalError, read_text
from ._numutil import triangle_exp_integral


@dataclass(frozen=True)
class CorrelationModel:
    """Delta plus single-exponential lagged correlation kernel.

    Parameters
    ----------
    delta_weight : float
        Coefficient of the delta component (mass at tau = lag).
    lag : float
        Center of the kernel, in seconds.
    width : float
        Exponential decay constant, in seconds.
    exp_weight : float
        Coefficient (integrated mass) of the exponential component; sign free.

    A model is kept in one normal form: an exponential of zero width or zero
    weight is folded into the delta when the model is made, so its weight
    adds to `delta_weight` and `width` and `exp_weight` become 0.  After
    that, ``width > 0`` means the kernel has an exponential part, and a
    model compares equal to its folded form.
    """

    delta_weight: float = 0.0
    lag: float = 0.0
    width: float = 0.0
    exp_weight: float = 0.0

    def __post_init__(self):
        for name in ("delta_weight", "lag", "width", "exp_weight"):
            if not math.isfinite(getattr(self, name)):
                raise DataError(f"CorrelationModel.{name} must be finite")
        if self.width < 0:
            raise DataError("CorrelationModel.width must be >= 0")
        if self.width == 0.0 or self.exp_weight == 0.0:
            delta = self.delta_weight + self.exp_weight
            for name, value in (("delta_weight", delta), ("width", 0.0),
                                ("exp_weight", 0.0)):
                object.__setattr__(self, name, value)

    def time_scale(self):
        """Characteristic scale used for validation grids."""
        return max(self.width, abs(self.lag), 1.0)


def _finite(values, caller, name="dt", bound=""):
    """`values` as a 1-d float array, every one finite and, for `bound`
    ">= 0" or "> 0", so bounded; else DataError naming `caller` and the
    first bad value."""
    x = np.atleast_1d(np.asarray(values, dtype=float))
    ok = np.isfinite(x)
    if bound:
        ok &= x > 0 if bound == "> 0" else x >= 0
    if not ok.all():
        raise DataError(f"{caller} requires finite {name} {bound}".rstrip()
                        + f", got {x[~ok][0]:g}")
    return x


def _triangle_covariance(model, dt, shift):
    """integral (dt - |s|) c(s + shift) ds over s in [-dt, dt], elementwise
    over broadcast `dt` >= 0 and `shift`: the covariance of two dt-horizon
    increments whose starts lie `shift` apart, in closed form."""
    center = model.lag - shift
    out = np.zeros(np.broadcast(dt, shift).shape)  # a sum of +0.0, not -0.0
    out += model.delta_weight * np.maximum(dt - abs(center), 0.0)
    if model.width > 0.0:
        out += model.exp_weight * triangle_exp_integral(dt, center,
                                                        model.width)
    return out


def sync_covariance(model, dt):
    """Synchronous covariance C(dt) of dt-horizon increments.

    Exact closed form: the double integral of the kernel over [0, dt]^2,
    reduced to ``integral (dt - |s|) c(s) ds``.
    """
    dt = _finite(dt, "sync_covariance", bound=">= 0")
    return _triangle_covariance(model, dt, 0.0)


@dataclass(frozen=True)
class ModelPair:
    """Cross kernel plus the two auto kernels of a bivariate model.

    Construction validates positive semidefiniteness of the auto spectra,
    checks |rho(dt)| <= 1 numerically on a log-spaced dt grid, and checks
    its limit as dt -> infinity, the cross mass over the geometric mean of
    the auto masses (a kernel's mass is ``delta_weight + exp_weight``).
    """

    cross: CorrelationModel
    auto_i: CorrelationModel
    auto_j: CorrelationModel

    def __post_init__(self):
        for name in ("auto_i", "auto_j"):
            m = getattr(self, name)
            if m.lag != 0.0:
                raise DataError(f"{name} must have lag = 0")
            # min over omega of delta + exp/(1 + (omega width)^2)
            if m.delta_weight + min(0.0, m.exp_weight) < -1e-12:
                raise DataError(f"{name} spectrum is not nonnegative")
        scale = max(self.cross.time_scale(), self.auto_i.time_scale(),
                    self.auto_j.time_scale())
        grid = np.geomspace(1e-3 * scale, 1e3 * scale, 64)
        rho = sync_rho(self, grid)
        if np.any(np.abs(rho) > 1.0 + 1e-9):
            raise DataError("ModelPair violates |rho| <= 1 on the test grid")
        # as dt -> infinity rho tends to the ratio of the kernels' masses,
        # which the grid above may stop short of
        m12, m11, m22 = (m.delta_weight + m.exp_weight
                         for m in (self.cross, self.auto_i, self.auto_j))
        if abs(m12) > (1.0 + 1e-9) * math.sqrt(max(m11 * m22, 0.0)):
            raise DataError("ModelPair violates |rho| <= 1 as dt -> infinity")


def sync_rho(pair, dt):
    """Pearson correlation C12(dt)/sqrt(C11(dt) C22(dt)) of dt-increments."""
    dt = _finite(dt, "sync_rho", bound="> 0")
    c12 = sync_covariance(pair.cross, dt)
    v1 = sync_covariance(pair.auto_i, dt)
    v2 = sync_covariance(pair.auto_j, dt)
    if np.any(v1 <= 0) or np.any(v2 <= 0):
        raise NumericalError("degenerate variance in sync_rho")
    return c12 / np.sqrt(v1 * v2)


# -- model specification files -------------------------------------------------
#
# Flat key-value text, one assignment per line, '#' comments allowed:
#
#     cross.c=0.5        # kernel weight (delta mass if xi == 0, else exp mass)
#     cross.tau=2        # lag center, seconds
#     cross.xi=10        # exponential width, seconds (0 or absent -> delta)
#     auto_i.a=1         # delta weight
#     auto_i.b=0         # exponential weight (signed)
#     auto_i.xi=0        # exponential width
#     auto_j.a=1

def _model_from_keys(keys, prefix):
    vals = {k.split(".", 1)[1]: v for k, v in keys.items()
            if k.startswith(prefix + ".")}
    if prefix == "cross":
        return CorrelationModel(lag=vals.get("tau", 0.0),
                                width=vals.get("xi", 0.0),
                                exp_weight=vals.get("c", 0.0))
    return CorrelationModel(delta_weight=vals.get("a", 0.0),
                            width=vals.get("xi", 0.0),
                            exp_weight=vals.get("b", 0.0))


def parse_model_text(text):
    """Parse a flat key-value model specification into a ModelPair."""
    keys = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"model spec line {lineno}: expected key=value")
        k, v = (part.strip() for part in line.split("=", 1))
        try:
            keys[k] = float(v)
        except ValueError as exc:
            raise DataError(f"model spec line {lineno}: bad number {v!r}") from exc
    known = ("cross.", "auto_i.", "auto_j.")
    for k in keys:
        if not k.startswith(known):
            raise DataError(f"model spec: unknown key {k!r}")
    return ModelPair(cross=_model_from_keys(keys, "cross"),
                     auto_i=_model_from_keys(keys, "auto_i"),
                     auto_j=_model_from_keys(keys, "auto_j"))


def load_model_file(path):
    return parse_model_text(read_text(path))
