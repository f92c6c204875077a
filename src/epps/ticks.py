"""Tick files: the one reader and the one writer of the tick CSV format,
and the microsecond clock that simulated ticks are put on.

A tick file is UTF-8 CSV with header `asset,day,time_sec,price`, times in
decimal seconds from midnight; `SessionSpec` is the analysis window.
`write_ticks` writes times to the microsecond, and `on_clock` rounds
simulated times to that clock, so that `load_ticks` reads those ticks back.

`load_ticks` cuts a file at line boundaries into ranges of about equal size,
one per CPU the process may use but no more than one per `_RANGE_BYTES`
started.  Where the platform has `fork`, a file cut into two or more ranges
is parsed wholly in forked processes, one per range (`_range_child`), each
sending back the result of its range; a file of one range is parsed in the
calling process.  Each range is read in chunks of `_CHUNK_BYTES` or more
that end at a line break, `\\r\\n` and a lone `\\r` read as `\\n`.  One
numpy pass over a chunk finds its line ends and comma counts, and only
lines without three commas are decoded one at a time (`_ingest_chunk`).
Ingest holds each parsed column once (`_merge`): a kept row costs its time
and log price, 16 bytes, plus its line-number gap (`_pack_lines`).
"""

from dataclasses import dataclass
import math
import os
import pickle

import numpy as np

from .errors import DataError
from .estimation import _read_table
from .sampling import _tick_times


HEADER = "asset,day,time_sec,price"


@dataclass(frozen=True)
class SessionSpec:
    """Intraday analysis window [open_time + open_skip, open_time +
    open_skip + length], `open_time` being the session open in seconds from
    midnight (09:30 by default)."""

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


def load_ticks(path, session=SessionSpec(), fail_fast=False):
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
    """
    with open(path, "rb") as fh:
        body = _line_end(fh, 0)
        fh.seek(0)
        try:
            header = fh.read(body).decode("utf-8").strip()
        except UnicodeDecodeError:
            header = None
        if header != HEADER:
            raise DataError(f"expected header '{HEADER}'")
        size = fh.seek(0, os.SEEK_END)
        n = (max(1, min(_cpus(), -(-(size - body) // _RANGE_BYTES)))
             if hasattr(os, "fork") else 1)
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
    """`_parse_range` of every range, in order.  One range is parsed in
    this process; two or more are parsed at the same time in forked
    children, one per range, which send their result back through a pipe
    (`_range_child`), so that this process keeps no parsing temporaries
    between the columns it returns.  Raises what a child raised, and
    ChildProcessError when one exits before its whole result is sent."""
    if len(ranges) < 2:
        return [_parse_range(path, start, end, session)
                for start, end in ranges]
    import multiprocessing
    fork = multiprocessing.get_context("fork")
    children, parts, done = [], [], False
    try:
        for start, end in ranges:
            recv, send = fork.Pipe(duplex=False)
            child = fork.Process(target=_range_child, daemon=True,
                                 args=(send, path, start, end, session))
            child.start()
            send.close()
            children.append((child, recv))
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
            if not done:  # before the pipe closes under a blocked send
                child.terminate()
            recv.close()
            child.join()
    return parts


def _range_child(send, path, start, end, session):
    """Body of a forked parser: sends (True, the parsed range) or (False,
    the exception raised) through the pipe end `send`, pickled with its
    arrays out of band: the pickle is one message and each array's bytes
    one more, so that the parent receives every column once."""
    buffers = []
    try:
        head = pickle.dumps((True, _parse_range(path, start, end, session)),
                            protocol=5, buffer_callback=buffers.append)
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

    Returns (rows, bad, n_lines): `rows` maps (asset, day) to one array of
    the times and one of the log prices of its valid records up to the
    window end, in file order and not yet checked for monotone times, and
    their line numbers as one pair packed by `_pack_lines` (joined over the
    chunks, so a forked parser sends few messages); `bad` lists the other
    rejected records as (line number, message); `n_lines` counts the lines
    read.  Line numbers count from 0 at `start`.
    """
    rows, bad, n_lines, pos = {}, [], 0, start
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
    for key, (times, logs, lines) in rows.items():
        rows[key] = (np.concatenate(times), np.concatenate(logs),
                     _pack_lines(_unpack_lines(lines)))
    return rows, bad, n_lines


def _merge(parts, session):
    """Series and sorted rejections from the parsed ranges of one file.

    Offsets each range's line numbers past the header and the earlier
    ranges.  Per asset-day, keeps the latest row before the window as its
    open tick, then rejects, over its in-window rows in file order, a time
    not above the running maximum of the times before it.  Takes the parts
    out of the list `parts` and concatenates each asset-day's ranges once,
    dropping them as soon as they are joined.  A series keeps the arrays
    made here, the window start subtracted in place, and line numbers are
    unpacked only for an asset-day with a rejected row.
    """
    keyed, bad, offset = {}, [], 2
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
        times = np.concatenate([t for _, t, _, _ in got])
        logs = np.concatenate([g for _, _, g, _ in got])
        lines = [(off + first, gaps) for off, _, _, (first, gaps) in got]
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


def _read_tick_times(path):
    """The `tick_time` column of a replay file: nonempty, finite and
    strictly increasing, else DataError naming the file."""
    times = _read_table(path, "tick_time")[1][:, 0]
    try:
        return _tick_times(times)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def on_clock(times, levels):
    """Tick times from the default session's window start, and their levels,
    as a tick file keeps them: each time on the file's microsecond clock,
    and of equal times the first, as `load_ticks` keeps it."""
    ws = SessionSpec().window_start
    t = np.round((ws + times) * 1e6) / 1e6 - ws
    first = np.diff(t, prepend=-np.inf) > 0
    return t[first], levels[first]


def write_ticks(path, days):
    """Write the tick file `path` from `days`, an iterable of (asset, day,
    times, levels) with times from the default window start: a row per
    tick, its time `%.6f` seconds from midnight and its price `%.17g` of
    exp(level).  It is written beside `path` and renamed on success, so a
    failure, also one raised by `days`, leaves no partial tick file."""
    ws = SessionSpec().window_start
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(HEADER + "\n")
            for asset, day, times, levels in days:
                fh.writelines(f"{asset},{day},{t:.6f},{math.exp(lev):.17g}\n"
                              for t, lev in zip((ws + times).tolist(),
                                                levels.tolist()))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
