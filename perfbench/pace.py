"""A fixed reference computation that gauges the machine's current speed.

The benchmark's machine is a few cores of a shared host, and its speed moves
by up to a factor of two over seconds to minutes as other tenants load it:
one process repeating the same `theory_sweep` job saw 2.3 s to 4.1 s, with
CPU time moving as much as wall time and no steal time, so neither pinning
nor CPU time removes it.  A run therefore times this reference next to every
timed job (before and after it) and reports the job's time scaled to the
speed at which the reference takes REFERENCE_S:

    job_s = sum(job wall times) / sum(adjacent reference times) * REFERENCE_S

The reference does not use the package, so no change to the program moves
it; a program that gets faster or slower moves the job time and therefore
the scaled figure in proportion.  Its four parts, about equal in time, cover
the kinds of work the workloads do: text parsing into floats (tick ingest),
small-integer arithmetic and Python calls (the mpmath path), FFTs at an
awkward length (spectra, circulant sampling) and array passes (gridding,
correlograms).  Its data are well under 1 MB, so it adds little to a
process's peak resident memory.
"""

import math
import time

import numpy as np

# The reference's wall time, in seconds, on the machine the bounds were set
# on (2 vCPUs of a shared Intel Xeon host, Python 3.11, numpy 2.4) in a quiet
# spell.  Only a scale: every scaled figure is proportional to it.
REFERENCE_S = 0.25

_LINES = [f"{i * 0.37:.6f},{100 + (i * 7919 % 1000) / 100:.4f}"
          for i in range(2000)]
_RNG = np.random.default_rng(0)
_SIGNAL = _RNG.standard_normal(4010)  # 2 * 5 * 401, an awkward length
_ARRAY = _RNG.standard_normal(50_000)


def _parse():
    total = 0.0
    for _ in range(70):
        for line in _LINES:
            t, p = line.split(",")
            total += float(t) - float(p)
    return total


def _step(m, e, k):
    m = (m * 1000003 + k) & ((1 << 120) - 1)
    return m >> 3, e + (m & 7) - 3


def _calls():
    m, e, total = 12345, 0, 0.0
    for k in range(110000):
        m, e = _step(m, e, k)
        total += math.ldexp(1.0, e % 20)
    return total


def _fft():
    for _ in range(60):
        spectrum = np.fft.rfft(_SIGNAL)
        out = np.fft.irfft(spectrum * spectrum.conj(), n=_SIGNAL.size)
    return out


def _passes():
    for _ in range(280):
        out = np.cumsum(_ARRAY * 1.5 + 2.0)
    return out


def reference_seconds():
    """Wall time of one pass of the reference computation."""
    start = time.perf_counter()
    _parse()
    _calls()
    _fft()
    _passes()
    return time.perf_counter() - start


def scaled(samples):
    """Scaled time of a series of steps.

    ``samples`` holds (step wall seconds, reference seconds just before,
    reference seconds just after) per step.  Returns the summed step time
    over the summed mean of the adjacent references, times REFERENCE_S.
    """
    spent = sum(seconds for seconds, _, _ in samples)
    speed = sum(before + after for _, before, after in samples) / 2
    return spent / speed * REFERENCE_S
