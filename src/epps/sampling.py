"""Path simulation, Poisson tick times, and previous-tick gridding.

Bivariate Gaussian increment paths are synthesized in the frequency domain:
the exact bin-averaged covariances of the target kernels are wrapped into a
circulant, factorized per frequency, and colored onto complex white noise
(circulant embedding).  The circulant has one point per grid step of
[-warmup, horizon], also where that length has a large prime factor
(40 010 = 2 * 5 * 4001 for 40 000 s plus 10 s of warm-up): a longer
circulant would be valid but would change every draw of a given seed.
Such a length n = m * p, p prime with p * p > n, is transformed as an
m x p grid (Good-Thomas prime-factor split), both the covariances into
their spectra and the colored noise back, which keeps the length and
changes the draws only at round-off.  No transform of the whole length is
made at such a length: pocketfft would run it by Bluestein's algorithm on
a plan it caches for the life of the process.  The factors depend only on
the model pair, the grid step and the length, so they are cached on
those.  Tick times are drawn independently of the path and a previous-tick
stepped series assigns to each grid time the path value at the latest tick
at or before it; such a series is kept as its increments, the one-step
returns that every estimator reads.
"""

from dataclasses import dataclass
import functools
import math

import numpy as np

from .errors import DataError
from .kernels import ModelPair, _triangle_covariance


def rng_stream(seed, *key):
    """Counter-based, seedable generator; distinct keys give independent streams."""
    if not (isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
            and seed >= 0):
        raise DataError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed,) + key)))


@dataclass(frozen=True)
class SimulatedPath:
    """Synchronous log-price levels on a uniform grid, two assets."""

    grid_dt: float
    t0: float
    levels: np.ndarray  # (2, n_steps + 1)

    @property
    def n_steps(self):
        return self.levels.shape[1] - 1

    @property
    def t_end(self):
        return self.t0 + self.n_steps * self.grid_dt

    def times(self):
        return self.t0 + np.arange(self.n_steps + 1) * self.grid_dt

    def value_at(self, asset, t):
        """Level at the grid point containing t (grid floor)."""
        idx = np.floor((np.asarray(t, dtype=float) - self.t0) / self.grid_dt
                       + 1e-9).astype(int)
        if np.any(idx < 0) or np.any(idx > self.n_steps):
            raise DataError("time outside simulated range")
        return self.levels[asset, idx]


@dataclass(frozen=True)
class SteppedSeries:
    """Previous-tick increments on a uniform grid and the count of ticks in
    its span."""

    grid_dt: float
    increments: np.ndarray
    n_ticks: int


def _max_lag_steps(pair, grid_dt):
    scale = max(abs(m.lag) + 40.0 * m.width
                for m in (pair.cross, pair.auto_i, pair.auto_j))
    return int(math.ceil(scale / grid_dt)) + 1


@functools.lru_cache(maxsize=4)
def _circulant_factors(pair, grid_dt, n):
    """Per-frequency lower-triangular factors of the 2x2 increment spectrum.

    Cached on (pair, grid_dt, n), so the three transforms at length n run
    once per model and grid; the arrays are shared and read-only.  They
    take `_transform`'s prime-factor split where the draws take it, so at
    such a length the process holds no whole-length FFT plan, which
    pocketfft would build by Bluestein's algorithm and keep.  A bin whose
    2x2 matrix is indefinite beyond round-off is a DataError naming it.
    """
    kmax = _max_lag_steps(pair, grid_dt)
    if 2 * kmax + 1 >= n:
        raise DataError("horizon too short for the kernel time scales")
    ks = np.arange(-kmax, kmax + 1)

    def wrapped(model):
        g = np.zeros(n)
        g[ks % n] = _triangle_covariance(model, grid_dt, ks * grid_dt)
        return g

    # positive-exponent transform: M_m = sum_k gamma(k) e^{+2 pi i m k / n}
    m11 = _transform(wrapped(pair.auto_i)).conj()
    m22 = _transform(wrapped(pair.auto_j)).conj()
    m12 = _transform(wrapped(pair.cross)).conj()
    p = np.maximum(m11.real, 0.0)
    r = np.maximum(m22.real, 0.0)
    l11 = np.sqrt(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        l21 = np.where(l11 > 0, np.conj(m12) / np.where(l11 > 0, l11, 1.0), 0.0)
    l22 = np.sqrt(np.maximum(r - np.abs(l21) ** 2, 0.0))
    # the clips above take up round-off; a bin's 2x2 matrix negative beyond
    # it means the pair has no such spectrum, and drawing would change it
    tol = 1e-9 * max(p.max(), r.max())
    bad = np.flatnonzero((m11.real < -tol) | (m22.real < -tol)
                         | (np.abs(m12) ** 2 > (p + tol) * (r + tol)))
    if bad.size:
        k = int(bad[0])
        raise DataError(
            f"model spectrum is not positive semidefinite at bin {k} of {n} "
            f"(frequency {min(k, n - k) / (n * grid_dt):.6g} per second)")
    for factor in (l11, l21, l22):
        factor.flags.writeable = False
    return l11, l21, l22


def _largest_prime_factor(n):
    largest, f = 1, 2
    while f * f <= n:
        while n % f == 0:
            largest, n = f, n // f
        f += 1
    return max(largest, n)


@functools.lru_cache(maxsize=4)
def _prime_factor_maps(n):
    """Index maps of the prime-factor split of length n, None if unsplit.

    With p the largest prime factor of n and m = n / p, n is split when
    p * p > n and m > 1; then p > m, so m and p are coprime.  The length-n
    transform, forward or inverse, is then the 2-D one of the (m, p) grid
    gathered by the input map (p a + m b) mod n, read back by the
    Chinese-remainder output map k -> (k mod m, k mod p); no twiddle
    factors enter.  The maps are shared and read-only, stored as int32
    (valid for n < 2**31): half the cache of the default index type.
    """
    p = _largest_prime_factor(n)
    m = n // p
    if p * p <= n or m == 1:
        return None
    gather = ((p * np.arange(m)[:, None] + m * np.arange(p)) % n
              ).astype(np.int32)
    k = np.arange(n)
    crt = ((k % m) * p + k % p).astype(np.int32)
    for index in (gather, crt):
        index.flags.writeable = False
    return gather, crt


def _transform(x, inverse=False):
    """DFT of each row of x, or with `inverse` its inverse; x may be
    overwritten.

    Lengths with a large prime factor go through the m x p split of
    `_prime_factor_maps`, equal to the whole-length transform up to
    round-off; every other length is transformed whole, bit for bit as
    ``scipy.fft.fft`` or ``scipy.fft.ifft``.  A split complex x receives
    the result in its own buffer; a real x gets a new complex array.
    """
    import scipy.fft  # here, so that importing the package loads no scipy

    maps = _prime_factor_maps(x.shape[-1])
    if maps is None:
        whole = scipy.fft.ifft if inverse else scipy.fft.fft
        return whole(x, axis=-1, overwrite_x=True)
    gather, crt = maps
    split = scipy.fft.ifft2 if inverse else scipy.fft.fft2
    grid = split(x.take(gather, axis=-1), overwrite_x=True)
    # mode "clip": in the default "raise" numpy buffers `out` in a second
    # array; the maps are a permutation, so no index is out of range
    return np.take(grid.reshape(x.shape), crt, axis=-1,
                   out=x if np.iscomplexobj(x) else None, mode="clip")


def _draw_increment_pairs(l11, l21, l22, rng, n):
    """Color complex white noise with the factors and transform it back.

    The real and imaginary parts are two independent increment samples,
    shape (2, n) each.  The noise is colored in place in one (2, n) array,
    second row first since it reads the first row's white noise.
    """
    w = np.empty((2, n), dtype=complex)
    w.real = rng.standard_normal((2, n))
    w.imag = rng.standard_normal((2, n))
    scale = math.sqrt(n)
    w[1] *= l22
    w[1] += l21 * w[0]
    w[1] *= scale
    w[0] *= scale * l11
    x = _transform(w, inverse=True)
    return x.real, x.imag


def _levels(increments):
    n = increments.shape[1]
    lev = np.zeros((2, n + 1))
    np.cumsum(increments, axis=1, out=lev[:, 1:])
    return lev


def simulate_ensemble(pair, grid_dt, horizon, n_paths, seed=0, warmup=0.0):
    """Independent paths for Monte Carlo, yielded two per random draw.

    Each path holds synchronous bivariate levels with the pair's correlation
    structure on a uniform grid covering [-warmup, horizon].  The arguments
    are checked and the circulant factors built at the call, which returns
    an iterator: block b is drawn on stream (seed, 1, b) only when its first
    path is asked for, and yields its real path and then its imaginary one
    (the last is dropped for an odd count).  Both paths' levels are made
    and the block's complex draw freed before the first is yielded, and the
    iterator keeps no path it has yielded, so a consumer that walks the
    paths once holds one block's two level arrays at a time; take
    ``list(...)`` for random access.  The factors are computed once for
    equal (pair, grid_dt, length) and reused by later calls; the draws of a
    seed are the same as with fresh factors, byte for byte.
    """
    if not (0 < grid_dt < math.inf and 0 < horizon < math.inf
            and 0 <= warmup < math.inf):
        raise DataError("grid_dt and horizon must be finite and > 0, warmup "
                        "finite and >= 0")
    if not isinstance(pair, ModelPair):
        raise DataError("simulate_ensemble requires a validated ModelPair")
    rng_stream(seed)  # checks the seed here, not at the first draw
    n = int(round((horizon + warmup) / grid_dt))
    factors = _circulant_factors(pair, grid_dt, n)

    def paths():
        for block in range((n_paths + 1) // 2):
            parts = _draw_increment_pairs(*factors,
                                          rng_stream(seed, 1, block), n)
            levels = [_levels(x) for x in parts[:n_paths - 2 * block]]
            del parts  # the complex draw, freed before the first path
            while levels:
                yield SimulatedPath(grid_dt=grid_dt, t0=-warmup,
                                    levels=levels.pop(0))

    return paths()


def draw_poisson_times(lam, horizon, warmup, seed, stream=0):
    """Strictly increasing Poisson tick times on [-warmup, horizon].

    The gaps are summed in place, block by block; the result is the prefix
    of the block, a view, that ends at the horizon.
    """
    if math.isnan(lam) or math.isinf(lam) or lam <= 0:
        raise DataError("Poisson rate must be finite and > 0")
    if not (math.isfinite(warmup) and warmup >= 0):
        raise DataError("warmup must be finite and >= 0")
    if not (math.isfinite(horizon) and horizon >= -warmup):
        raise DataError("horizon must be finite and >= -warmup")
    rng = rng_stream(seed, 2, stream)
    blocks = []
    t = -warmup
    # the mean count plus six standard deviations: one block nearly always
    # covers the span, and the loop draws more when it does not
    mu = (horizon + warmup) * lam
    block = math.ceil(mu + 6.0 * math.sqrt(mu)) + 16
    while t <= horizon:
        times = rng.exponential(1.0 / lam, size=block)
        np.cumsum(times, out=times)
        times += t
        blocks.append(times)
        t = times[-1]
    times = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    return times[:np.searchsorted(times, horizon, side="right")]


def default_warmup(lam):
    """Warmup making the no-prior-tick probability < exp(-10)."""
    return 10.0 / lam


def _tick_times(ticks):
    """Tick times as a float array, checked: nonempty, finite and strictly
    increasing (a NaN would pass the increasing test unnoticed)."""
    ticks = np.asarray(ticks, dtype=float)
    if ticks.size == 0:
        raise DataError("no ticks supplied")
    if not np.all(np.isfinite(ticks)):
        raise DataError("tick times must be finite")
    if np.any(np.diff(ticks) <= 0):
        raise DataError("tick times must be strictly increasing")
    return ticks


def _last_tick_index(ticks, grid, grid_dt):
    """Index of the last tick at or before each grid time, -1 where there is
    none: ``np.searchsorted(ticks, grid, side="right") - 1`` in linear time.

    Each tick's first grid index at or after it is guessed by arithmetic and
    checked against the computed grid; the few guesses that rounding puts
    one cell off are looked up exactly.  Counting ticks per first index and
    summing counts the ticks at or before each grid time.
    """
    n = grid.size
    first = ticks - grid[0]
    first /= grid_dt
    np.ceil(first, out=first)
    np.clip(first, 0, n, out=first)
    first = first.astype(np.intp)
    # grid[first - 1] < t <= grid[first], with -inf and +inf past the ends
    bounds = np.concatenate(([-np.inf], grid, [np.inf]))
    edge = bounds.take(first)
    wrong = edge >= ticks
    bounds[1:].take(first, out=edge)
    wrong |= edge < ticks
    wrong = np.flatnonzero(wrong)
    first[wrong] = np.searchsorted(grid, ticks[wrong], side="left")
    counts = np.bincount(first, minlength=n + 1)[:n]
    np.cumsum(counts, out=counts)
    counts -= 1
    return counts


def previous_tick(source, ticks=None, *, grid_dt=None, asset=0,
                  start=0.0, end=None):
    """Previous-tick stepped series on a uniform grid.

    Each grid time takes the value of the latest tick at or before it.  The
    lookup is a linear-time count, equal to a binary search of every grid
    time among the ticks.  The result holds the increments of those levels,
    ``np.diff`` of them, and counts the ticks in the grid span
    [start, start + T grid_dt], keeping none.

    Parameters
    ----------
    source : SimulatedPath or (times, values) pair
        Where tick values come from.  For a path, the value at each tick is
        the path level at that time; for raw tick data, the recorded value.
    ticks : array_like, optional
        Tick times; defaults to the source's own times for tick data.  They
        must be finite and strictly increasing, else DataError.
    grid_dt : float
        Output grid step; defaults to the source grid step when available.
    asset : int
        Asset index for SimulatedPath sources.
    start, end : float
        Output grid span; a tick at or before `start` must exist.
    """
    if isinstance(source, SimulatedPath):
        if ticks is None:
            raise DataError("previous_tick on a path requires tick times")
        ticks = _tick_times(ticks)
        values = source.value_at(asset, ticks)
        grid_dt = source.grid_dt if grid_dt is None else grid_dt
        end = source.t_end if end is None else end
    else:
        times, values = source
        ticks = _tick_times(times if ticks is None else ticks)
        values = np.asarray(values, dtype=float)
        if ticks.size != values.size:
            raise DataError("tick times and values differ in length")
        if grid_dt is None:
            raise DataError("grid_dt is required for tick-data sources")
        end = float(ticks[-1]) if end is None else end
    if not (0 < grid_dt < math.inf and math.isfinite(start)
            and math.isfinite(end)):
        raise DataError("previous_tick needs finite start, end and grid_dt > 0")
    n_cells = int(math.floor((end - start) / grid_dt + 1e-9))
    if n_cells < 0:
        raise DataError("grid end before its start")
    grid = start + np.arange(n_cells + 1) * grid_dt
    idx = _last_tick_index(ticks, grid, grid_dt)
    if idx[0] < 0:
        raise DataError("no tick at or before the grid start; "
                        "supply warmup or truncate the grid")
    # the ticks at or before the grid end, less those before its start
    n_ticks = int(idx[-1] + 1 - np.searchsorted(ticks, start))
    return SteppedSeries(grid_dt=float(grid_dt),
                         increments=np.diff(np.asarray(values)[idx]),
                         n_ticks=n_ticks)
