import hashlib
import math
import weakref

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest
import scipy.fft
from scipy.stats import kstest

from epps.errors import DataError
from epps.kernels import (CorrelationModel, ModelPair, sync_covariance,
                          _triangle_covariance)
from epps import sampling
from epps.sampling import (SimulatedPath, rng_stream, simulate_ensemble,
                           draw_poisson_times, default_warmup, previous_tick,
                           _circulant_factors, _transform,
                           _max_lag_steps, _prime_factor_maps)
from epps.ticks import _read_tick_times


def brownian_pair(c=0.5):
    return ModelPair(cross=CorrelationModel(delta_weight=c),
                     auto_i=CorrelationModel(delta_weight=1.0),
                     auto_j=CorrelationModel(delta_weight=1.0))


def smooth_pair():
    return ModelPair(
        cross=CorrelationModel(width=8.0, exp_weight=0.4, lag=2.0),
        auto_i=CorrelationModel(delta_weight=1.0, width=8.0, exp_weight=0.5),
        auto_j=CorrelationModel(delta_weight=1.0))


def test_rng_streams_are_independent_and_reproducible():
    a = rng_stream(7, 0).standard_normal(4)
    b = rng_stream(7, 0).standard_normal(4)
    c = rng_stream(7, 1).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)


def test_simulate_ensemble_deterministic_in_seed():
    pair = brownian_pair()
    p1, = simulate_ensemble(pair, 0.5, 100.0, 1, seed=3)
    p2, = simulate_ensemble(pair, 0.5, 100.0, 1, seed=3)
    p3, = simulate_ensemble(pair, 0.5, 100.0, 1, seed=4)
    np.testing.assert_array_equal(p1.levels, p2.levels)
    assert not np.allclose(p1.levels, p3.levels)


def test_simulate_ensemble_shape_and_grid():
    p, = simulate_ensemble(brownian_pair(), 0.25, 10.0, 1, warmup=2.0, seed=1)
    assert p.levels.shape == (2, 49)
    assert p.t0 == -2.0
    assert p.t_end == pytest.approx(10.0)
    assert p.times()[0] == -2.0
    np.testing.assert_allclose(np.diff(p.times()), 0.25)


def test_value_at_is_a_grid_floor():
    levels = np.arange(10, dtype=float).reshape(2, 5)
    p = SimulatedPath(grid_dt=1.0, t0=0.0, levels=levels)
    assert p.value_at(0, 2.9) == 2.0
    assert p.value_at(1, 3.0) == 8.0
    with pytest.raises(DataError):
        p.value_at(0, -0.5)
    with pytest.raises(DataError):
        p.value_at(0, 5.5)


def test_ensemble_increment_moments_match_model():
    # MC check of the circulant coloring: variance and lag-0 cross covariance
    # of unit-step increments must match the exact binned values within 4 sigma
    pair = smooth_pair()
    dt = 1.0
    paths = list(simulate_ensemble(pair, dt, 2000.0, n_paths=40, seed=11))
    assert len(paths) == 40
    di = np.concatenate([np.diff(p.levels[0]) for p in paths])
    dj = np.concatenate([np.diff(p.levels[1]) for p in paths])
    n = di.size
    for sample, model in ((di * di, pair.auto_i), (dj * dj, pair.auto_j),
                          (di * dj, pair.cross)):
        target = sync_covariance(model, dt)
        err = sample.std() / math.sqrt(n)
        assert abs(sample.mean() - target) < 4.0 * err


def test_ensemble_cross_correlogram_peaks_at_model_lag():
    pair = smooth_pair()  # cross kernel centered at +2 seconds
    paths = simulate_ensemble(pair, 1.0, 4000.0, n_paths=20, seed=5)
    lags = np.arange(-6, 7)
    acc = np.zeros(lags.size)
    for p in paths:
        di, dj = np.diff(p.levels[0]), np.diff(p.levels[1])
        for a, k in enumerate(lags):
            if k >= 0:
                acc[a] += np.mean(di[: di.size - k] * dj[k:])
            else:
                acc[a] += np.mean(di[-k:] * dj[: dj.size + k])
    assert lags[np.argmax(acc)] == 2


def test_paths_in_one_draw_are_uncorrelated():
    # real and imaginary parts of one complex draw are independent samples
    pair = brownian_pair(c=0.9)
    p0, p1 = simulate_ensemble(pair, 1.0, 20000.0, n_paths=2, seed=9)
    d0, d1 = np.diff(p0.levels[0]), np.diff(p1.levels[0])
    r = np.corrcoef(d0, d1)[0, 1]
    assert abs(r) < 4.0 / math.sqrt(d0.size)


def reference_factors(pair, grid_dt, n, fft, forward=None):
    """The circulant factors written out, uncached: the positive-exponent
    spectra of the wrapped covariances (by `fft.fft` unless `forward` is
    given) and their 2 x 2 lower-triangular factors."""
    kmax = _max_lag_steps(pair, grid_dt)
    ks = np.arange(-kmax, kmax + 1)

    def spectrum(model):
        g = np.zeros(n)
        g[ks % n] = _triangle_covariance(model, grid_dt, ks * grid_dt)
        return (fft.fft(g) if forward is None else forward(g)).conj()

    m11, m22, m12 = (spectrum(m)
                     for m in (pair.auto_i, pair.auto_j, pair.cross))
    l11 = np.sqrt(np.maximum(m11.real, 0.0))
    l21 = np.where(l11 > 0, np.conj(m12) / np.where(l11 > 0, l11, 1.0), 0.0)
    l22 = np.sqrt(np.maximum(np.maximum(m22.real, 0.0) - np.abs(l21) ** 2,
                             0.0))
    return l11, l21, l22


def reference_draw(pair, grid_dt, n, seed, *key, fft=scipy.fft,
                   forward=None, inverse=None):
    """Level pairs of one circulant draw by the coloring that makes a new
    array at each step: the factors of `reference_factors`, complex white
    noise from the keyed stream, two colored rows, their stack and one
    inverse transform (`fft.ifft` over the rows unless `inverse` is given),
    whose real and imaginary parts are two independent increment
    samples."""
    l11, l21, l22 = reference_factors(pair, grid_dt, n, fft, forward)
    rng = rng_stream(seed, *key)
    w = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    z1 = math.sqrt(n) * l11 * w[0]
    z2 = math.sqrt(n) * (l21 * w[0] + l22 * w[1])
    z = np.vstack([z1, z2])
    x = fft.ifft(z, axis=-1) if inverse is None else inverse(z)
    return [np.hstack([np.zeros((2, 1)), np.cumsum(part, axis=1)])
            for part in (x.real, x.imag)]


def test_draws_match_the_numpy_fft_reference():
    # n = 4010 = 2 * 5 * 401: a length with a large prime factor, like the
    # 40 010 of a 40 000 s day
    pair, grid_dt, horizon, warmup, seed = smooth_pair(), 1.0, 4000.0, 10.0, 9
    n = 4010
    paths = simulate_ensemble(pair, grid_dt, horizon, 3, seed=seed,
                              warmup=warmup)
    for k, p in enumerate(paths):
        expected = reference_draw(pair, grid_dt, n, seed, 1, k // 2,
                                  fft=np.fft)[k % 2]
        np.testing.assert_allclose(p.levels, expected, rtol=0, atol=1e-12)


def assert_draws_equal_reference(horizon, warmup, n, **transform):
    pair, grid_dt, seed = smooth_pair(), 1.0, 4
    paths = list(simulate_ensemble(pair, grid_dt, horizon, 5, seed=seed,
                                   warmup=warmup))
    assert len(paths) == 5
    for k, p in enumerate(paths):
        expected = reference_draw(pair, grid_dt, n, seed, 1, k // 2,
                                  **transform)[k % 2]
        assert p.levels.tobytes() == expected.tobytes()


def test_draws_equal_the_copying_reference_byte_for_byte():
    # the same transforms as the simulator, so in-place coloring and cached
    # factors must leave every bit of the levels as it was; n = 4010 is
    # split, so the reference calls the simulator's own transforms
    assert _prime_factor_maps(4010) is not None
    assert_draws_equal_reference(4000.0, 10.0, 4010, forward=_transform,
                                 inverse=lambda w: _transform(w, True))


def test_unsplit_draws_equal_plain_scipy_byte_for_byte():
    # n = 4000 = 2^5 * 5^3 is not split: the draws are those of a plain
    # scipy.fft.ifft, bit for bit
    assert _prime_factor_maps(4000) is None
    assert_draws_equal_reference(3990.0, 10.0, 4000)


def sha256(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


# the levels of three paths at seed 3 with 10 s of warm-up: 40 010 points is
# split, 20 010 is not; the pair's covariances are pure deltas, which take
# no vectorized exp whose last bit could differ between CPUs
@pytest.mark.parametrize("horizon, digest", [
    (40000.0,
     "2bb48f3c4328e5c1b2a92caffb78d860d2d43e8d9e7c185261299d5a3e7b421a"),
    (20000.0,
     "d933449d7028e9926a9dd0d16ae59ea619f4eb6a320316accb782cdf41114ad5"),
])
def test_draws_are_pinned(horizon, digest):
    paths = simulate_ensemble(brownian_pair(), 1.0, horizon, 3, seed=3,
                              warmup=10.0)
    assert sha256(p.levels for p in paths) == digest


# length -> (m, p) of its prime-factor split, or None where it is not split:
# 40 010 (mc_deconv, criterion 5), 4010 (the tests' 4000 s paths), 20 050
# (perfbench's tick days at rate 0.2); 20 010 (the default `epps simulate`
# and `epps run` length), 20 200 (`run_async`), 40 000, and the prime 4001
_SPLITS = {40010: (10, 4001), 4010: (10, 401), 20050: (50, 401),
           20010: None, 20200: None, 40000: None, 4001: None}


@pytest.mark.parametrize("n", sorted(_SPLITS))
def test_prime_factor_split_decision_is_pinned(n):
    maps = _prime_factor_maps(n)
    if _SPLITS[n] is None:
        assert maps is None
        return
    gather, crt = maps
    assert gather.shape == _SPLITS[n]
    assert crt.shape == (n,)
    for index in (gather, crt):
        assert not index.flags.writeable


def random_rows(n, seed):
    rng = rng_stream(seed, 70)
    return rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))


@pytest.mark.parametrize("n", [n for n in sorted(_SPLITS) if _SPLITS[n]])
def test_split_transform_matches_scipy_to_round_off(n):
    # complex input, as the draws' noise is: the result is written back
    # into it
    w = random_rows(n, seed=n)
    expected = scipy.fft.ifft(w, axis=-1)
    x = w.copy()
    got = _transform(x, inverse=True)
    assert got is x
    assert np.max(np.abs(got - expected)) <= 4e-15 * np.max(np.abs(expected))


@pytest.mark.parametrize("n", [n for n in sorted(_SPLITS) if _SPLITS[n]])
def test_split_forward_transform_matches_scipy_to_round_off(n):
    # real input, as the circulant's covariances are: the result is a new
    # complex array
    g = random_rows(n, seed=n).real
    expected = scipy.fft.fft(g, axis=-1)
    x = g.copy()
    got = _transform(x)
    assert got.dtype == complex and not np.shares_memory(got, x)
    assert x.tobytes() == g.tobytes()
    assert np.max(np.abs(got - expected)) <= 4e-15 * np.max(np.abs(expected))


@pytest.mark.parametrize("n", [n for n in sorted(_SPLITS) if not _SPLITS[n]])
def test_unsplit_transform_is_scipy_byte_for_byte(n):
    w = random_rows(n, seed=n)
    expected = scipy.fft.ifft(w, axis=-1)
    assert _transform(w.copy(), inverse=True).tobytes() == expected.tobytes()
    g = w[0].real
    assert _transform(g.copy()).tobytes() == scipy.fft.fft(g).tobytes()


def test_split_factors_make_no_whole_length_transform(monkeypatch):
    # pocketfft caches the plan of each length it transforms for the life
    # of the process: at 4010 = 10 x 401 the factors, like the draws, take
    # only the lengths 10 and 401
    n = 4010
    fft = scipy.fft.fft

    def no_whole_length(x, *args, **kwargs):
        assert np.shape(x)[-1] != n, "whole-length transform"
        return fft(x, *args, **kwargs)

    monkeypatch.setattr(scipy.fft, "fft", no_whole_length)
    _circulant_factors.__wrapped__(smooth_pair(), 1.0, n)


def test_equal_pairs_share_read_only_factors():
    args = (1.0, 4000.0, 3)
    first = simulate_ensemble(smooth_pair(), *args, seed=2, warmup=10.0)
    hits = _circulant_factors.cache_info().hits
    again = simulate_ensemble(smooth_pair(), *args, seed=2, warmup=10.0)
    assert _circulant_factors.cache_info().hits == hits + 1
    for a, b in zip(first, again):
        assert a.levels.tobytes() == b.levels.tobytes()
    factors = _circulant_factors(smooth_pair(), 1.0, 4010)
    for cached, fresh in zip(factors, reference_factors(
            smooth_pair(), 1.0, 4010, scipy.fft, forward=_transform)):
        assert cached.tobytes() == fresh.tobytes()
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 0.0


@pytest.mark.parametrize("change, message", [
    pytest.param({"seed": -1}, "seed must be", id="negative-seed"),
    pytest.param({"grid_dt": math.nan}, "grid_dt", id="nan-grid-dt"),
    pytest.param({"grid_dt": math.inf}, "grid_dt", id="inf-grid-dt"),
    pytest.param({"grid_dt": -1.0}, "grid_dt", id="negative-grid-dt"),
    pytest.param({"grid_dt": 0.0}, "grid_dt", id="zero-grid-dt"),
    pytest.param({"horizon": math.nan}, "horizon", id="nan-horizon"),
    pytest.param({"horizon": math.inf}, "horizon", id="inf-horizon"),
    pytest.param({"horizon": 0.0}, "horizon", id="zero-horizon"),
    pytest.param({"warmup": -1.0}, "warmup", id="negative-warmup"),
    pytest.param({"pair": brownian_pair().cross}, "ModelPair",
                 id="bare-model"),
    # a horizon far shorter than the kernel memory
    pytest.param({"pair": smooth_pair(), "horizon": 20.0},
                 "horizon too short", id="short-horizon"),
])
def test_simulation_checks_its_arguments_at_the_call(change, message):
    # the paths are drawn lazily, but a bad argument fails at the call,
    # before any path is asked for
    args = {"pair": brownian_pair(), "grid_dt": 1.0, "horizon": 10.0,
            "n_paths": 1, **change}
    with pytest.raises(DataError, match=message):
        simulate_ensemble(**args)


def test_a_consumer_that_drops_each_path_holds_one_block():
    # 7 paths: the last block's imaginary path is dropped
    refs, alive = [], []
    for path in simulate_ensemble(smooth_pair(), 1.0, 4000.0, 7, seed=3,
                                  warmup=10.0):
        refs.append(weakref.ref(path.levels))
        alive.append(sum(ref() is not None for ref in refs))
    assert len(refs) == 7
    assert max(alive) <= 2


def test_a_block_frees_its_draw_before_its_first_path(monkeypatch):
    # the complex draw is gone once a block's first path is out, and the
    # iterator keeps no path it has yielded
    draws = []

    def draw(*args):
        parts = draw_increment_pairs(*args)
        draws.append(weakref.ref(parts[0].base))
        return parts

    draw_increment_pairs = sampling._draw_increment_pairs
    monkeypatch.setattr(sampling, "_draw_increment_pairs", draw)
    paths = simulate_ensemble(smooth_pair(), 1.0, 4000.0, 5, seed=3,
                              warmup=10.0)
    for k in range(5):
        path = next(paths)
        assert len(draws) == k // 2 + 1
        assert draws[-1]() is None
        levels = weakref.ref(path.levels)
        del path
        assert levels() is None
    assert next(paths, None) is None


def unchecked_pair(cross, auto_i, auto_j):
    """A ModelPair made without its validation."""
    pair = object.__new__(ModelPair)
    for name, m in (("cross", cross), ("auto_i", auto_i), ("auto_j", auto_j)):
        object.__setattr__(pair, name, m)
    return pair


def test_a_pair_without_a_spectrum_is_refused_at_the_call():
    # auto masses 0.1 and a cross mass of 0.1005, which ModelPair refuses:
    # the 2x2 matrix of bin 0 is indefinite, which the factors used to clip
    # without a word
    auto = CorrelationModel(delta_weight=1.0, width=10.0, exp_weight=-0.9)
    pair = unchecked_pair(CorrelationModel(width=10.0, exp_weight=0.1005),
                          auto, auto)
    with pytest.raises(DataError, match=r"not positive semidefinite at "
                       r"bin 0 of 20010 \(frequency 0 per second\)"):
        simulate_ensemble(pair, 1.0, 20000.0, 1, seed=1, warmup=10.0)


@pytest.mark.parametrize("c", [1.0, -1.0])
@pytest.mark.parametrize("xi", [0.0, 8.0])
def test_perfectly_correlated_pairs_still_sample(c, xi):
    # |c| = 1 leaves each bin's matrix singular up to round-off, which the
    # factors clip: the second asset's increments are the first's times c,
    # up to the square root of round-off that l22 takes
    auto = CorrelationModel(delta_weight=0.5, width=xi, exp_weight=0.5)
    pair = ModelPair(cross=CorrelationModel(delta_weight=0.5 * c, width=xi,
                                            exp_weight=0.5 * c),
                     auto_i=auto, auto_j=auto)
    for path in simulate_ensemble(pair, 1.0, 4000.0, 2, seed=1, warmup=10.0):
        di, dj = np.diff(path.levels, axis=1)
        assert np.max(np.abs(dj - c * di)) <= 1e-6 * np.max(np.abs(di))


def test_poisson_gaps_are_exponential():
    lam = 0.7
    times = draw_poisson_times(lam, 40000.0, 0.0, seed=2)
    gaps = np.diff(times)
    assert gaps.size > 20000
    stat = kstest(gaps, "expon", args=(0.0, 1.0 / lam))
    assert stat.pvalue > 1e-3
    assert np.all(gaps > 0)
    assert times[0] >= 0.0 and times[-1] <= 40000.0


def reference_poisson_times(lam, horizon, warmup, seed, stream=0):
    """`draw_poisson_times` with its earlier first block of 1.2 times the
    mean count plus 16 gaps."""
    rng = rng_stream(seed, 2, stream)
    times, t = [], -warmup
    block = max(int((horizon + warmup) * lam * 1.2) + 16, 16)
    while t <= horizon:
        cum = t + np.cumsum(rng.exponential(1.0 / lam, size=block))
        times.append(cum)
        t = cum[-1]
    times = np.concatenate(times)
    return times[times <= horizon]


@pytest.mark.parametrize("lam", [0.05, 0.2, 1.0, 10.0])
@pytest.mark.parametrize("span", [10.0, 2000.0, 40010.0])
def test_poisson_times_do_not_depend_on_the_block_size(lam, span):
    # the exponential draws and their running sum are prefix-stable, so a
    # first block cut nearer the mean count keeps every time, bit for bit
    for seed in range(100):
        got = draw_poisson_times(lam, span - 10.0, 10.0, seed, stream=seed)
        want = reference_poisson_times(lam, span - 10.0, 10.0, seed,
                                       stream=seed)
        assert got.tobytes() == want.tobytes(), seed


# four streams at seed 5 over [-10 / lam, 40 000]
@pytest.mark.parametrize("lam, digest", [
    (1.0, "2a92cc1b08329260f82c44ef55b044df94f95ccd0fc8d611135d5763424ee9cb"),
    (0.2, "a15f286ec6bd467ab13b13a1f9a87d2a96e03546f44078d27c49e513cd8e93f0"),
    (0.05,
     "b5d4f7a6b0cc231ff60271b519513287aaac9a4322cc03171e02e72cd1144e20"),
])
def test_poisson_times_are_pinned(lam, digest):
    assert sha256(draw_poisson_times(lam, 40000.0, 10.0 / lam, seed=5,
                                     stream=stream)
                  for stream in range(4)) == digest


def test_poisson_times_cover_warmup():
    times = draw_poisson_times(1.0, 10.0, 30.0, seed=4)
    assert times[0] < 0.0
    assert times[0] >= -30.0


def test_poisson_times_deterministic_per_stream():
    a = draw_poisson_times(1.0, 100.0, 0.0, seed=8, stream=3)
    b = draw_poisson_times(1.0, 100.0, 0.0, seed=8, stream=3)
    c = draw_poisson_times(1.0, 100.0, 0.0, seed=8, stream=4)
    np.testing.assert_array_equal(a, b)
    assert a.size != c.size or not np.allclose(a, c)


@pytest.mark.parametrize("horizon,warmup", [
    (-5.0, 0.0), (math.nan, 0.0), (math.inf, 0.0),
    (10.0, math.nan), (10.0, math.inf)])
def test_poisson_times_reject_a_bad_horizon_or_warmup(horizon, warmup):
    with pytest.raises(DataError):
        draw_poisson_times(1.0, horizon, warmup, seed=1)


def test_poisson_times_accept_an_empty_span():
    times = draw_poisson_times(1.0, -3.0, 3.0, seed=1)
    assert times.size == 0


def test_default_warmup_scale():
    assert default_warmup(0.1) == pytest.approx(100.0)


def test_tick_time_sources_validate(tmp_path):
    for lam in (-2.0, 0.0, math.nan):
        with pytest.raises(DataError):
            draw_poisson_times(lam, 10.0, 0.0, seed=1)
    replay = tmp_path / "times.csv"
    replay.write_text("tick_time\n1\n1\n2\n")
    with pytest.raises(DataError, match="strictly increasing"):
        _read_tick_times(str(replay))


def test_previous_tick_from_tick_data():
    series = previous_tick((np.array([0.0, 1.2, 3.5]),
                            np.array([10.0, 11.0, 12.0])),
                           grid_dt=1.0, start=0.0, end=4.0)
    # levels 10, 10, 11, 11, 12
    assert series.increments.size == 4
    np.testing.assert_array_equal(series.increments, [0, 1, 0, 1])


def test_previous_tick_takes_no_tick_times_next_to_tick_data():
    # they silently replaced the pair's own times
    with pytest.raises(DataError, match="takes no tick times"):
        previous_tick((np.array([0.0, 1.5]), np.array([1.0, 2.0])),
                      np.array([0.0, 1.0]), grid_dt=1.0, start=0.0, end=2.0)


def test_previous_tick_requires_tick_before_start():
    with pytest.raises(DataError):
        previous_tick((np.array([1.5, 2.0]), np.array([1.0, 2.0])),
                      grid_dt=1.0, start=0.0, end=3.0)


def test_previous_tick_from_path_matches_manual_lookup():
    p, = simulate_ensemble(brownian_pair(), 0.5, 50.0, 1, warmup=5.0, seed=6)
    ticks = draw_poisson_times(0.4, 50.0, 5.0, seed=6)
    s = previous_tick(p, ticks, grid_dt=1.0, asset=1, start=0.0, end=50.0)
    # each grid value is the path value at the last tick <= grid time
    grid = np.arange(51.0)
    last = ticks[np.searchsorted(ticks, grid, side="right") - 1]
    np.testing.assert_array_equal(s.increments, np.diff(p.value_at(1, last)))


def test_previous_tick_regrids_stepped_series_to_coarser_grid():
    p, = simulate_ensemble(brownian_pair(), 1.0, 60.0, 1, warmup=10.0, seed=2)
    ticks = draw_poisson_times(0.5, 60.0, 10.0, seed=2)
    s1 = previous_tick(p, ticks, grid_dt=1.0, start=0.0, end=60.0)
    grid_ticks = np.arange(0.0, 61.0)
    levels = p.value_at(0, ticks[np.searchsorted(ticks, grid_ticks,
                                                 side="right") - 1])
    np.testing.assert_array_equal(s1.increments, np.diff(levels))
    s2 = previous_tick((grid_ticks, levels), grid_dt=2.0, start=0.0,
                       end=60.0)
    np.testing.assert_array_equal(s2.increments, np.diff(levels[::2]))


def test_previous_tick_dense_ticks_recover_the_path():
    p, = simulate_ensemble(brownian_pair(), 1.0, 40.0, 1, seed=13)
    ticks = np.arange(0.0, 40.5, 1.0)  # one tick per grid point
    s = previous_tick(p, ticks, grid_dt=1.0, start=0.0, end=40.0)
    np.testing.assert_array_equal(s.increments, np.diff(p.levels[0]))


def test_previous_tick_stores_its_increments():
    # the increments are one stored array, not recomputed on each read
    s = previous_tick((np.array([0.0, 1.2, 3.5]), np.array([1.0, 2.0, 4.0])),
                      grid_dt=1.0, start=0.0, end=4.0)
    assert s.increments is s.increments


def test_previous_tick_keeps_no_reference_to_its_ticks():
    # a stepped series counts its ticks: one that held them kept every
    # simulated day's tick array alive for as long as its grid
    p, = simulate_ensemble(brownian_pair(), 1.0, 40.0, 1, seed=13)
    ticks = np.arange(0.0, 40.0, 0.5)
    values = np.cumsum(np.ones(ticks.size))
    refs = [weakref.ref(a) for a in (ticks, values)]
    stepped = [previous_tick(p, ticks, start=0.0, end=40.0),
               previous_tick((ticks, values), grid_dt=1.0, start=0.0,
                             end=40.0)]
    del ticks, values
    assert all(ref() is None for ref in refs)
    assert [s.n_ticks for s in stepped] == [80, 80]


def test_previous_tick_counts_the_ticks_in_its_grid_span():
    # warm-up ticks and ticks past the last grid time were counted too, so
    # a rate taken from the count over the gridded seconds came out high
    p, = simulate_ensemble(brownian_pair(), 1.0, 40.0, 1, seed=13,
                           warmup=10.0)
    ticks = np.arange(-9.5, 40.0, 0.5)
    stepped = previous_tick(p, ticks, start=0.0, end=30.5)
    assert stepped.increments.size == 30
    assert stepped.n_ticks == np.count_nonzero((ticks >= 0) & (ticks <= 30))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_previous_tick_rejects_non_finite_tick_times(bad):
    # a NaN passes a strictly-increasing test, since comparisons with it
    # are false
    with pytest.raises(DataError, match="finite"):
        previous_tick((np.array([0.0, 1.5, bad]), np.array([1.0, 2.0, 3.0])),
                      grid_dt=1.0, start=0.0, end=3.0)
    path = SimulatedPath(grid_dt=1.0, t0=0.0, levels=np.zeros((2, 5)))
    with pytest.raises(DataError, match="finite"):
        previous_tick(path, [0.0, bad], start=0.0, end=3.0)


@pytest.mark.parametrize("grid", [dict(grid_dt=0.0), dict(grid_dt=math.nan),
                                  dict(start=math.nan), dict(end=math.inf),
                                  dict(start=5.0, end=3.0)])
def test_previous_tick_rejects_a_bad_output_grid(grid):
    # these ended in ZeroDivisionError, ValueError or IndexError
    span = dict(grid_dt=1.0, start=0.0, end=3.0) | grid
    with pytest.raises(DataError):
        previous_tick((np.array([0.0, 1.5]), np.array([1.0, 2.0])), **span)


@st.composite
def grids_and_ticks(draw):
    """A grid as previous_tick builds it, and strictly increasing ticks that
    include one at or before its start, some exactly on grid times or one
    ulp off them, and some before its start or past its end."""
    start = draw(st.one_of(st.integers(-50, 50).map(float),
                           st.floats(-1e4, 1e4, allow_nan=False)))
    grid_dt = draw(st.sampled_from([0.1, 1.0 / 3.0, 0.25, 1.0, 7.0]))
    n_cells = draw(st.integers(0, 40))
    end = start + n_cells * grid_dt
    grid = start + np.arange(n_cells + 1) * grid_dt
    offsets = st.floats(-3.0, n_cells + 3.0, allow_nan=False)
    ticks = [start - draw(st.floats(0.0, 3.0)) * grid_dt]
    ticks += [start + x * grid_dt for x in draw(st.lists(offsets, max_size=60))]
    on_grid = np.array(draw(st.lists(st.sampled_from(list(grid)),
                                     max_size=20)))
    # one ulp either side of a grid time, where rounding bites
    ticks += [*on_grid, *np.nextafter(on_grid, -np.inf),
              *np.nextafter(on_grid, np.inf)]
    return start, grid_dt, end, grid, np.unique(ticks)


# 9 * 0.1 rounds below 0.9, so the tick one ulp above it divides to 9.0
# while it lies past grid time 9
TENTHS = np.arange(41) * 0.1


@settings(max_examples=200, deadline=None)
@given(case=grids_and_ticks(), kind=st.sampled_from(["pair", "path"]))
@example(case=(0.0, 0.1, 4.0, TENTHS,
               np.array([0.0, np.nextafter(TENTHS[9], np.inf)])),
         kind="pair")
def test_previous_tick_takes_the_last_tick_at_or_before_each_grid_time(
        case, kind):
    start, grid_dt, end, grid, ticks = case
    last = np.searchsorted(ticks, grid, side="right") - 1
    if kind == "pair":
        # values equal to the tick index, so the levels are the indices
        series = previous_tick((ticks, np.arange(ticks.size, dtype=float)),
                               grid_dt=grid_dt, start=start, end=end)
        np.testing.assert_array_equal(series.increments, np.diff(last))
        return
    # a source grid 8 times finer than the output grid, one value per point
    fine = grid_dt / 8.0
    t0 = ticks[0] - fine
    size = int((ticks[-1] - t0) / fine) + 2
    values = np.arange(2 * size, dtype=float).reshape(2, size)
    source = SimulatedPath(grid_dt=fine, t0=t0, levels=values)
    tick_values = source.value_at(1, ticks)
    series = previous_tick(source, ticks, grid_dt=grid_dt, asset=1,
                           start=start, end=end)
    np.testing.assert_array_equal(series.increments,
                                  np.diff(tick_values[last]))
