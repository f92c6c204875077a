"""Tick ingestion, session windowing, and the end-to-end analysis run.

Tick files are UTF-8 CSV with header `asset,day,time_sec,price`, where
time_sec counts decimal seconds from midnight exchange time.  A session
window skips the first 45 minutes after the open and keeps a fixed-length
stretch (20000 s by default: 10:15 to 15:48:20) for analysis.

`run_pipeline` wires the whole chain together on synthetic data: simulate
correlated paths, sample them at Poisson (or replayed) tick times, grid
and normalize them as tick files are, estimate correlograms / spectra /
Epps curves, deconvolve the sampling kernel, fit both model families, and
write every artifact plus a manifest with content hashes.  Fixed seed and config give a
bit-identical output tree.
"""

from dataclasses import dataclass, asdict
import hashlib
import json
import math
import os
import pickle

import numpy as np

from . import __version__
from .errors import DataError, EppsError, FitConvergenceError, read_text
from .kernels import load_model_file
from .sampling import (SteppedSeries, simulate_ensemble, draw_poisson_times,
                       previous_tick, default_warmup, rng_stream, _tick_times)
from .estimation import (estimate_rate, epps_curve, correlogram,
                         estimate_spectrum, write_epps_csv,
                         write_correlogram_csv, write_spectrum_csv,
                         _horizon_steps, _read_table, _write_text)
from .filtering import (FilterSpec, apply_filter, auto_filter, estimate_snr,
                        filtered_correlogram, filtered_epps_curve)
from .fitting import (fit_cross_raw, fit_cross_async, fit_auto_raw,
                      fit_auto_async, chi2_ratio, fit_csv_row, FIT_CSV_HEADER)


@dataclass(frozen=True)
class SessionSpec:
    """Intraday analysis window.

    `open_time` is the session open in seconds from midnight (09:30 by
    default); the analysis window is [open_time + open_skip,
    open_time + open_skip + length].
    """

    open_skip: float = 2700.0
    length: float = 20000.0
    open_time: float = 34200.0

    def __post_init__(self):
        if not (0 < self.length < math.inf and 0 <= self.open_skip < math.inf
                and math.isfinite(self.open_time)):
            raise DataError("session length must be finite and > 0, open "
                            "skip finite and >= 0, open time finite")

    @property
    def window_start(self):
        return self.open_time + self.open_skip

    @property
    def window_end(self):
        return self.window_start + self.length


@dataclass(frozen=True)
class TickSeries:
    """One asset-day of in-window ticks, times rebased to the window start.

    `open_tick` is (time, log price) of the last valid record before the
    window, which sets the level at the window start; None when the file
    has no record before the window.  It is not one of `times`.  All of
    them must be finite.
    """

    asset_id: str
    day_id: str
    times: np.ndarray
    log_prices: np.ndarray
    open_tick: tuple = None

    def __post_init__(self):
        if self.times.shape != self.log_prices.shape:
            raise DataError("tick times and prices differ in length")
        if not (np.isfinite(self.times).all()
                and np.isfinite(self.log_prices).all()
                and all(map(math.isfinite, self.open_tick or ()))):
            raise DataError(f"asset {self.asset_id}, day {self.day_id}: tick "
                            "times, log prices and open tick must be finite")
        if np.any(np.diff(self.times) <= 0):
            raise DataError("tick times must be strictly increasing")


_CHUNK_BYTES = 1 << 18  # text parsed per step, so memory stays bounded
_RANGE_BYTES = 8 << 20  # least bytes per parsing process: small files use one


def load_ticks(path, session=None, fail_fast=False):
    """Read a tick CSV into per-asset-day series.

    Returns (series, errors) where `series` maps (asset, day) to a
    TickSeries and `errors` lists rejected records as human-readable
    strings carrying line numbers, in line order.  Fields are stripped and
    blank lines skipped.  A record is rejected for bytes that are not
    UTF-8, a wrong field count, an unparseable or non-finite number, a
    nonpositive price, or (inside the inclusive session window) a time not
    after the last accepted time of its asset-day, equal times included.
    Records after the window are ignored.  Of the valid records before it,
    the latest becomes the series' `open_tick` (the first in line order
    among equal times); an asset-day with no tick in the window has no
    series.  With fail_fast the first bad record raises instead, once the
    whole file has been read.  A header that is not UTF-8 is a wrong header.

    Large files are read in parallel byte ranges where the platform has
    `fork`: the file is cut at line boundaries into ranges of about equal
    size, one per CPU the process may use but no more than one per
    `_RANGE_BYTES` started, and the ranges are parsed at the same time in
    forked processes.  The series, messages and message order are the same
    as from one range.  A child joins each asset-day's chunks and sends its
    range back through a pipe as a small pickle followed by one message
    per column array (pickle protocol 5, out of band); each array is built
    on the bytes its message arrived in, so a child's columns are received
    once and never copied.  The range parsed in this process keeps the
    arrays of each chunk, and `_merge` joins each asset-day's arrays once
    and drops them as its series is made, so ingest holds each parsed
    column once, plus the chunk or the asset-day at hand.  A kept row
    costs 16 bytes of columns, its time and log price, plus the gap from
    its asset-day's row before in the narrowest unsigned dtype that holds
    the largest such gap of its chunk (of its range, once a forked parser
    packs them again): one byte when an asset-day's rows are on
    consecutive lines.
    Line numbers are unpacked only for an asset-day with a rejected row.
    When all of an asset-day's in-window rows are kept, the window start
    is subtracted in place, so its series holds the arrays the merge made
    rather than copies of them.

    Each range is read as raw bytes, in chunks of `_CHUNK_BYTES` or more
    that end at a line break, with `\\r\\n` and a lone `\\r` turned into
    `\\n` as universal newlines read them.  One numpy pass over a chunk
    finds its line ends and each line's comma count.  Only lines without
    three commas are decoded one at a time, to tell blank lines from bad
    ones; the others are decoded and split into fields once per chunk.
    """
    session = session or SessionSpec()
    with open(path, "rb") as fh:
        body = _line_end(fh, 0)
        fh.seek(0)
        try:
            header = fh.read(body).decode("utf-8").strip()
        except UnicodeDecodeError:
            header = None
        if header != "asset,day,time_sec,price":
            raise DataError("expected header 'asset,day,time_sec,price'")
        size = fh.seek(0, os.SEEK_END)
        n = 1
        if hasattr(os, "fork"):
            n = max(1, min(_cpus(), -(-(size - body) // _RANGE_BYTES)))
        cuts = [body] + [_line_end(fh, body + k * (size - body) // n - 1)
                         for k in range(1, n)] + [size]
    ranges = [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]
    series, bad = _merge(_parse_ranges(path, ranges, session), session)
    if bad and fail_fast:
        raise DataError(f"line {bad[0][0]}: {bad[0][1]}")
    return series, [f"line {n}: {msg}" for n, msg in bad]


def _cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _line_end(fh, pos):
    """Offset just past the first line break at or after byte `pos` of a
    binary file: `\\n`, `\\r\\n` or a lone `\\r`, as universal newlines
    read them.  The file size when no break follows."""
    fh.seek(pos)
    while True:
        block = fh.read(1 << 16)
        if not block:
            return pos
        hits = [k for k in (block.find(b"\n"), block.find(b"\r")) if k >= 0]
        if hits:
            k = min(hits)
            pos += k + 1
            if block[k] == ord("\r"):  # one break when a \n follows
                fh.seek(pos)
                pos += fh.read(1) == b"\n"
            return pos
        pos += len(block)


def _parse_ranges(path, ranges, session):
    """`_parse_range` of every range, in order: the first in this process,
    the others at the same time in forked children, which send their
    result back through a pipe (`_range_child`).  Raises what a child
    raised, and ChildProcessError when one exits before its whole result
    is sent."""
    if len(ranges) < 2:
        return [_parse_range(path, start, end, session)
                for start, end in ranges]
    import multiprocessing
    fork = multiprocessing.get_context("fork")
    children = []
    done = False
    try:
        for start, end in ranges[1:]:
            recv, send = fork.Pipe(duplex=False)
            child = fork.Process(target=_range_child, daemon=True,
                                 args=(send, path, start, end, session))
            child.start()
            send.close()
            children.append((child, recv))
        parts = [_parse_range(path, *ranges[0], session)]
        for child, recv in children:
            try:  # each array wraps the bytes of its own message
                ok, part = pickle.loads(recv.recv_bytes(),
                                        buffers=iter(recv.recv_bytes, None))
            except (EOFError, OSError):  # OSError: cut off mid-message
                child.join()
                raise ChildProcessError(f"tick parser exited with code "
                                        f"{child.exitcode}") from None
            if not ok:
                raise part
            parts.append(part)
        done = True
    finally:
        for child, recv in children:
            recv.close()
            if not done:
                child.terminate()
            child.join()
    return parts


def _range_child(send, path, start, end, session):
    """Body of a forked parser: sends (True, the parsed range) or (False,
    the exception raised) through the pipe end `send`, pickled with its
    arrays out of band: the pickle is one message and each array's bytes
    one more, so that the parent receives every column once.  Each
    asset-day's chunks are joined first, its line numbers unpacked and
    packed again as one pair, which keeps the messages few when many
    asset-days share each chunk."""
    buffers = []
    try:
        rows, bad, n_lines = _parse_range(path, start, end, session)
        rows = {key: ([np.concatenate(times)], [np.concatenate(logs)],
                      [_pack_lines(_unpack_lines(lines))])
                for key, (times, logs, lines) in rows.items()}
        head = pickle.dumps((True, (rows, bad, n_lines)), protocol=5,
                            buffer_callback=buffers.append)
    except Exception as exc:
        buffers = []
        head = pickle.dumps((False, exc), protocol=5)
    send.send_bytes(head)
    for buf in buffers:
        send.send_bytes(buf)
    send.close()


def _parse_range(path, start, end, session):
    """Parse bytes [start, end) of a tick file, which begin at a line start
    and end after a line break or at the end of the file.

    Returns (rows, bad, n_lines): `rows` maps (asset, day) to lists of the
    per-chunk arrays of times and log prices of its valid records up to the
    window end, in file order and not yet checked for monotone times, and
    of their line numbers packed by `_pack_lines`; `bad` lists the other
    rejected records as (line number, message); `n_lines` counts the lines
    read.  Line numbers count from 0 at `start`.
    """
    rows = {}
    bad = []
    n_lines = 0
    pos = start
    with open(path, "rb") as fh:
        while pos < end:
            # chunks end at a line break, cut by the rule that cut the range
            cut = (_line_end(fh, pos + _CHUNK_BYTES - 1)
                   if end - pos > _CHUNK_BYTES else end)
            fh.seek(pos)
            chunk = fh.read(cut - pos)
            pos = cut
            if b"\r" in chunk:
                chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            if chunk and not chunk.endswith(b"\n"):  # last line, no break
                chunk += b"\n"
            if chunk:
                bad_chunk, n_chunk = _ingest_chunk(chunk, n_lines, session,
                                                   rows)
                bad += bad_chunk
                n_lines += n_chunk
    return rows, bad, n_lines


def _merge(parts, session):
    """Series and sorted rejections from the parsed ranges of one file.

    Offsets each range's line numbers past the header and the earlier
    ranges.  Per asset-day, keeps the latest row before the window as its
    open tick, then rejects, over its in-window rows in file order, a time
    not above the running maximum of the times before it.  Takes the parts
    out of the list `parts` and concatenates each asset-day's chunks once,
    dropping them as soon as they are joined.  A series keeps the arrays
    made here, the window start subtracted in place, and line numbers are
    unpacked only for an asset-day with a rejected row.
    """
    keyed = {}
    bad = []
    offset = 2
    while parts:
        rows, bad_k, n_lines = parts.pop(0)
        bad += [(offset + n, msg) for n, msg in bad_k]
        for key in rows:
            keyed.setdefault(key, []).append((offset, *rows[key]))
        rows.clear()  # the chunks are held by `keyed` alone
        offset += n_lines
    series = {}
    for asset, day in sorted(keyed):
        got = keyed.pop((asset, day))  # (offset, times, logs, lines) per range
        times = np.concatenate([t for _, ts, _, _ in got for t in ts])
        logs = np.concatenate([g for _, _, gs, _ in got for g in gs])
        lines = [(off + first, gaps) for off, _, _, packed in got
                 for first, gaps in packed]
        del got
        inside = times >= session.window_start
        if not inside.any():
            continue
        open_tick = None
        if not inside.all():  # argmax: the first of equal latest times
            k = np.argmax(np.where(inside, -np.inf, times))
            open_tick = (float(times[k] - session.window_start),
                         float(logs[k]))
            times, logs = times[inside], logs[inside]
        before = np.maximum.accumulate(np.concatenate(([-np.inf],
                                                       times[:-1])))
        accepted = times > before
        if not accepted.all():
            rejected = np.flatnonzero(~accepted)
            at = np.flatnonzero(inside)[rejected]
            bad += [(n, f"non-monotone time {time} for {asset} {day}")
                    for n, time in zip(_unpack_lines(lines)[at].tolist(),
                                       times[rejected].tolist())]
            times, logs = times[accepted], logs[accepted]
        times -= session.window_start
        series[(asset, day)] = TickSeries(asset_id=asset, day_id=day,
                                          times=times, log_prices=logs,
                                          open_tick=open_tick)
    bad.sort()
    return series, bad


def _pack_lines(lines):
    """Increasing line numbers as (the first, the gaps to each next one in
    the narrowest unsigned dtype that holds them): one byte per row when
    the rows are on consecutive lines."""
    gaps = np.diff(lines)
    return int(lines[0]), gaps.astype(np.min_scalar_type(gaps.max(initial=0)))


def _unpack_lines(packed):
    """The line numbers of packed pairs in line order, as int64."""
    return np.concatenate([first + np.cumsum(np.insert(gaps, 0, 0),
                                             dtype=np.int64)
                           for first, gaps in packed])


def _floats(texts):
    """Column of numbers and its mask of unparseable entries (set to NaN)."""
    try:
        return np.array(texts, dtype=float), np.zeros(len(texts), dtype=bool)
    except ValueError:
        pass
    values = np.empty(len(texts))
    bad = np.zeros(len(texts), dtype=bool)
    for k, text in enumerate(texts):
        try:
            values[k] = float(text)
        except ValueError:
            values[k] = np.nan
            bad[k] = True
    return values, bad


def _ingest_chunk(chunk, first_lineno, session, rows):
    """Parse consecutive lines, bytes that each end in `\\n`, into `rows`.

    Appends the times, log prices and packed line numbers (`_pack_lines`)
    of each asset-day's valid records up to the window end to its lists in
    `rows`; the open tick and the monotone-time rule are left to `_merge`.
    Returns the other rejected records as (line number, message), and the
    number of lines.
    """
    data = np.frombuffer(chunk, dtype=np.uint8)
    line_ends = np.flatnonzero(data == ord("\n"))
    line_starts = np.concatenate(([0], line_ends[:-1] + 1))
    commas = np.diff(np.searchsorted(np.flatnonzero(data == ord(",")),
                                     line_ends), prepend=0)
    bad = []
    invalid = np.zeros(line_ends.size, dtype=bool)
    try:
        text = chunk.decode("utf-8")
    except UnicodeDecodeError:
        # only a line with a byte above 0x7f can be invalid UTF-8
        text = None
        for k in np.unique(np.searchsorted(
                line_ends, np.flatnonzero(data > 0x7F))).tolist():
            try:
                chunk[line_starts[k]:line_ends[k]].decode("utf-8")
            except UnicodeDecodeError:
                invalid[k] = True
                bad.append((first_lineno + k, "invalid UTF-8"))
    for k in np.flatnonzero((commas != 3) & ~invalid).tolist():
        if chunk[line_starts[k]:line_ends[k]].decode("utf-8").strip():
            bad.append((first_lineno + k,
                        f"expected 4 fields, got {commas[k] + 1}"))
    ok = (commas == 3) & ~invalid
    good = np.flatnonzero(ok)
    if not good.size:
        return bad, line_ends.size
    if good.size < line_ends.size:  # always so when a line is not UTF-8
        text = data[np.repeat(ok, np.diff(line_ends, prepend=-1))].tobytes(
            ).decode("utf-8")
    # Fields keep their padding: float() ignores surrounding whitespace and
    # the key fields are stripped once per run below.
    fields = text.replace("\n", ",").split(",")
    fields.pop()  # the empty string after the last line break
    t, bad_t = _floats(fields[2::4])
    p, bad_p = _floats(fields[3::4])
    unparseable = bad_t | bad_p
    finite = np.isfinite(t) & np.isfinite(p)
    positive = finite & (p > 0)
    nonpositive = finite & ~positive
    for mask, what in ((unparseable, "unparseable number in {!r}"),
                       (~unparseable & ~finite, "non-finite number in {!r}")):
        bad += [(first_lineno + good[k],
                 what.format(",".join(fields[4 * k:4 * k + 4]).strip()))
                for k in np.flatnonzero(mask).tolist()]
    bad += [(first_lineno + good[k], f"nonpositive price {price}")
            for k, price in zip(np.flatnonzero(nonpositive).tolist(),
                                p[nonpositive].tolist())]

    keep = np.flatnonzero(positive & (t <= session.window_end))
    if not keep.size:
        return bad, line_ends.size
    assets = np.array(fields[0::4], dtype=object)[keep]
    days = np.array(fields[1::4], dtype=object)[keep]
    starts = np.flatnonzero(np.concatenate(
        ([True], (assets[1:] != assets[:-1]) | (days[1:] != days[:-1]))))
    keys = {}
    run_group = [keys.setdefault((assets[s].strip(), days[s].strip()),
                                 len(keys)) for s in starts.tolist()]
    group = np.repeat(run_group, np.diff(starts, append=keep.size))
    order = np.argsort(group, kind="stable")
    ends = np.cumsum(np.bincount(group))
    for key, rows_g in zip(keys, np.split(keep[order], ends[:-1])):
        times, logs, lines = rows.setdefault(key, ([], [], []))
        times.append(t[rows_g])
        logs.append(np.log(p[rows_g]))
        lines.append(_pack_lines(first_lineno + good[rows_g]))
    return bad, line_ends.size


def grid_and_normalize(ts, grid_dt=1.0, session=None):
    """Previous-tick grid of one asset-day on [0, session length], kept as
    its increments normalized to zero mean and unit variance.

    The level at the window start is the open tick's; without one, the
    first tick's level is back-filled to the window start, which loses the
    return before that tick.  The result counts the in-window ticks and
    keeps none.  Returns None (a skipped day) when the series has no tick,
    the grid has fewer than two cells or the gridded increments have zero
    variance.
    """
    session = session or SessionSpec()
    if not ts.times.size or session.length < 2 * grid_dt:
        return None
    # without an open tick, a stand-in before the window carries the first
    # tick's level
    t0, level0 = ts.open_tick or (min(ts.times[0], 0.0) - grid_dt,
                                  ts.log_prices[0])
    stepped = previous_tick((np.insert(ts.times, 0, t0),
                             np.insert(ts.log_prices, 0, level0)),
                            grid_dt=grid_dt, start=0.0, end=session.length)
    incr = stepped.increments
    sd = np.std(incr)
    if sd == 0:
        return None
    return SteppedSeries(grid_dt=grid_dt,
                         increments=(incr - np.mean(incr)) / sd,
                         n_ticks=ts.times.size)


def _check_settings(length, grid_dt, dt_grid, max_lag, filter_mode, snr):
    """The FilterSpec of the settings of `epps run` and `epps estimate`,
    checked before any work as the analysis needs them: a grid step in
    (0, length/2], horizons of 1 to T - 1 steps of a day of T steps, and a
    `max_lag` of 1 to T//2 - 1 + T%2 steps."""
    if not 0 < grid_dt <= length / 2:
        raise DataError(f"grid_dt must be finite and in (0, {length / 2:g}]")
    T = int(math.floor(length / grid_dt + 1e-9))  # as `previous_tick` counts
    if np.any(_horizon_steps(dt_grid, grid_dt) >= T):
        raise DataError(f"each dt must be below the session length {length:g}")
    lags, top = max_lag / grid_dt, T // 2 - 1 + T % 2
    if not (math.isfinite(lags) and 1 <= round(lags) <= top):
        raise DataError(f"max_lag must be finite, 1 to {top} grid steps")
    return FilterSpec(filter_mode, snr)


@dataclass(frozen=True)
class RunConfig:
    """Configuration of a synthetic end-to-end run.

    `replay_ticks_i/j` optionally point at tick-time files (one `tick_time`
    column); when set, sampling times are replayed from them on every day
    instead of being drawn as Poisson processes.
    """

    model_file: str
    lambda_i: float = 1.0
    lambda_j: float = 1.0
    n_days: int = 10
    length: float = 20000.0
    grid_dt: float = 1.0
    dt_grid: tuple = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
    max_lag: float = 120.0
    filter_mode: str = "inverse"
    snr: float = None
    seed: int = 0
    replay_ticks_i: str = None
    replay_ticks_j: str = None

    def __post_init__(self):
        if not isinstance(self.n_days, int) or self.n_days < 1:
            raise DataError("n_days must be a positive integer")
        rng_stream(self.seed)  # checks the seed
        if not all(0 < x < math.inf for x in (self.lambda_i, self.lambda_j,
                                              self.length, *self.dt_grid)):
            raise DataError("sampling rates, length and the dt grid must be "
                            "finite and > 0")
        _check_settings(self.length, self.grid_dt, self.dt_grid,
                        self.max_lag, self.filter_mode, self.snr)

    @classmethod
    def from_file(cls, path):
        try:
            raw = json.loads(read_text(path))
        except json.JSONDecodeError as exc:
            raise DataError(f"bad config JSON: {exc}") from exc
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
        if "dt_grid" in raw:
            raw["dt_grid"] = tuple(raw["dt_grid"])
        return cls(**raw)


def _read_tick_times(path):
    """The `tick_time` column of a replay file: nonempty, finite and
    strictly increasing, else DataError naming the file."""
    times = _read_table(path, "tick_time")[1][:, 0]
    try:
        return _tick_times(times)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def analyze_pair(days_i, days_j, rate_i, rate_j, dt_grid, max_lag,
                 filter_spec=None, grid_dt=1.0):
    """All pair-level estimates from per-day grids as `grid_and_normalize`
    makes them, whose stored increments are already normalized: the
    correlograms and the spectra use them as they are.

    Returns a dict with the rates, raw and filtered Epps curves, cross and
    auto correlograms (raw and filtered cross), spectra, the six fits and
    their failures, the chi-square comparison, and the SNR actually used.
    Every day enters the spectra, so all days need grids of one length.
    """
    out = {"rate_i": rate_i, "rate_j": rate_j}
    dt_grid = np.asarray(dt_grid, dtype=float)
    out["epps_raw"] = epps_curve(days_i, days_j, dt_grid)
    cg, out["cg_auto_i"], out["cg_auto_j"] = correlogram(
        days_i, days_j, max_lag, normalize=False, autos=True)
    out["cg_cross"] = cg

    out["n_days_spectra"] = len(days_i)
    s_cross, s_ii, s_jj = estimate_spectrum([s.increments for s in days_i],
                                            [s.increments for s in days_j],
                                            autos=True)
    out["s_cross"] = s_cross

    spec = filter_spec or FilterSpec()
    if spec.mode == "wiener" and spec.snr is None:
        spec = FilterSpec(mode="wiener",
                          snr=estimate_snr(s_cross, rate_i, rate_j, grid_dt))
    out["snr"] = spec.snr
    s_hat = apply_filter(s_cross, rate_i, rate_j, spec, grid_dt)
    s_ii_hat = auto_filter(s_ii, rate_i, out["cg_auto_i"].delta_mass, spec,
                           grid_dt)
    s_jj_hat = auto_filter(s_jj, rate_j, out["cg_auto_j"].delta_mass, spec,
                           grid_dt)
    out["s_cross_filtered"] = s_hat
    out["cg_cross_filtered"] = filtered_correlogram(s_hat, max_lag, grid_dt)
    out["epps_filtered"] = filtered_epps_curve(s_hat, s_ii_hat, s_jj_hat,
                                               dt_grid, grid_dt)

    fits = {}
    failures = {}

    def attempt(name, fn, *args):
        """Run one fit; return its result if it converged, else None."""
        try:
            fits[name] = fn(*args)
            return fits[name]
        except FitConvergenceError as exc:
            fits[name] = exc.result
            failures[name] = str(exc)
        except EppsError as exc:
            failures[name] = str(exc)
        return None

    # the async cross fit starts from the converged raw fit instead of
    # redoing it, or from the data-driven guess when the raw fit failed
    raw = attempt("cross_raw", fit_cross_raw, cg)
    attempt("cross_async", fit_cross_async, cg, rate_i, rate_j, raw)
    for key, lam in (("auto_i", rate_i), ("auto_j", rate_j)):
        attempt(f"{key}_raw", fit_auto_raw, out[f"cg_{key}"])
        attempt(f"{key}_async", fit_auto_async, out[f"cg_{key}"], lam)
    out["fits"] = fits
    out["fit_failures"] = failures
    if "cross_raw" in fits and "cross_async" in fits:
        try:
            out["chi2_ratio"] = chi2_ratio(fits["cross_raw"],
                                           fits["cross_async"])
        except EppsError:
            out["chi2_ratio"] = float("nan")
    return out


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_artifacts(result, out_dir, labels, meta):
    """Write `analyze_pair`'s result and its manifest into `out_dir`.

    Writes Epps curves, correlograms and spectra (raw and filtered) as eight
    CSVs, and `fits.csv` with `labels` = (label_i, label_j) naming the
    assets.  `manifest.json` holds `meta`, whose `config` describes the
    run, plus the package version, the config's sha256, the rates and SNR
    used, the number of days in the spectra, the fit comparison and
    failures, per fit the degeneracy tests that fired and the optimizer's
    model evaluations (`fit_diagnostics`), and the sha256 of every file.
    Returns the manifest.
    """
    os.makedirs(out_dir, exist_ok=True)
    li, lj = labels
    pairs = {"cross": (li, lj), "auto_i": (li, li), "auto_j": (lj, lj)}
    fit_rows = [FIT_CSV_HEADER] + [
        fit_csv_row(fit, *pairs[name.rsplit("_", 1)[0]])
        for name, fit in sorted(result["fits"].items())]
    files = {}

    def emit(name, writer, obj):
        path = os.path.join(out_dir, name)
        writer(obj, path)
        files[name] = _sha256(path)

    for stem, key, writer, kinds in (
            ("epps", "epps", write_epps_csv, ("raw", "filtered")),
            ("correlogram", "cg", write_correlogram_csv,
             ("cross", "cross_filtered", "auto_i", "auto_j")),
            ("spectrum", "s", write_spectrum_csv, ("cross", "cross_filtered"))):
        for kind in kinds:
            emit(f"{stem}_{kind}.csv", writer, result[f"{key}_{kind}"])
    emit("fits.csv", _write_text, "\n".join(fit_rows) + "\n")

    manifest = {
        **meta,
        "version": __version__,
        "config_sha256": hashlib.sha256(json.dumps(
            meta["config"], sort_keys=True).encode()).hexdigest(),
        "rate_i": result["rate_i"],
        "rate_j": result["rate_j"],
        "snr": result["snr"],
        "n_days_spectra": result["n_days_spectra"],
        "chi2_ratio": result.get("chi2_ratio"),
        "fit_failures": result["fit_failures"],
        "fit_diagnostics": {
            name: {"degenerate_reasons": list(fit.degenerate_reasons),
                   "nfev": fit.nfev}
            for name, fit in result["fits"].items()},
        "files": files,
    }
    _write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                os.path.join(out_dir, "manifest.json"))
    return manifest


def _sampled_day(path, horizon, day, rates, seed, replay=None):
    """Each asset's (tick times, path levels at them) on simulated day `day`
    over [path.t0, horizon]: replayed from `replay`, one (file, times) per
    asset, or else Poisson times at `rates` on stream 2 day + asset of
    `seed`.  A replayed time before the path start is a DataError naming
    its file.

    The levels are taken at the times drawn or replayed; the times are then
    put on the microsecond clock of the tick file `epps sample` writes, whose
    window starts at the default session's, and of equal times the first is
    kept, as `load_ticks` keeps it.  So the ticks read back from that file
    are these."""
    ws = SessionSpec().window_start
    for a, lam in enumerate(rates):
        if replay:
            name, t = replay[a]
            if t[0] < path.t0:
                raise DataError(f"{name}: replayed time {t[0]:g} is before "
                                f"the path start {path.t0:g}")
            t = t[t <= horizon]
        else:
            t = draw_poisson_times(lam, horizon, -path.t0, seed,
                                   stream=2 * day + a)
        levels = path.value_at(a, t)
        t = np.round((ws + t) * 1e6) / 1e6 - ws
        first = np.diff(t, prepend=-np.inf) > 0
        yield t[first], levels[first]


def _simulate_days(pair, config):
    """Asset-days sampled by `_sampled_day` and gridded by
    `grid_and_normalize` as tick files are, the last warm-up tick being the
    open tick; each day is gridded as its path is drawn, so one block of
    paths is alive at a time.  Returns (days_i, days_j, open_ticks_missing),
    the last counting days without one."""
    files = [f for f in (config.replay_ticks_i, config.replay_ticks_j) if f]
    if len(files) == 1:
        raise DataError("replay mode needs tick-time files for both assets")
    replay = [(f, _read_tick_times(f)) for f in files]
    rates = (config.lambda_i, config.lambda_j)
    warmup = max(map(default_warmup, rates))
    paths = simulate_ensemble(pair, config.grid_dt, config.length,
                              config.n_days, seed=config.seed, warmup=warmup)
    session = SessionSpec(length=config.length)
    days = ([], [])
    missing = 0
    for d, path in enumerate(paths):
        ticks = _sampled_day(path, config.length, d, rates, config.seed,
                             replay)
        for a, (t, levels) in enumerate(ticks):
            k = np.searchsorted(t, 0.0)  # the first tick in the window
            open_tick = (float(t[k - 1]), float(levels[k - 1])) if k else None
            ts = TickSeries("ij"[a], f"d{d:03d}", t[k:], levels[k:], open_tick)
            grid = grid_and_normalize(ts, config.grid_dt, session)
            if grid is None:
                raise DataError(f"day {ts.day_id}, asset {ts.asset_id}: no "
                                "ticks in the window or flat prices")
            missing += open_tick is None
            days[a].append(grid)
    return (*days, missing)


def run_pipeline(config, out_dir):
    """Run the synthetic pipeline and write the artifact directory.

    Simulates and samples `config.n_days` days, grids them with
    `_simulate_days`, analyzes them with `analyze_pair` and writes the
    result with `write_artifacts`; the manifest's `config` is the full
    RunConfig, and it also records the seed and the number of back-filled
    asset-days.  Deterministic for fixed (config, seed).
    """
    pair = load_model_file(config.model_file)
    days_i, days_j, open_ticks_missing = _simulate_days(pair, config)
    rate_i, rate_j = (estimate_rate(sum(s.n_ticks for s in days),
                                    config.n_days * config.length)
                      for days in (days_i, days_j))
    result = analyze_pair(days_i, days_j, rate_i.value, rate_j.value,
                          config.dt_grid, config.max_lag,
                          FilterSpec(config.filter_mode, config.snr),
                          config.grid_dt)
    return write_artifacts(result, out_dir, ("i", "j"),
                           {"config": asdict(config), "seed": config.seed,
                            "open_ticks_missing": open_ticks_missing})
