import contextlib
import dataclasses
import inspect
import json
import math
import os
import signal
import struct
import tempfile
import tracemalloc
import weakref
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from unittest import mock

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
import scipy.fft

from epps import cli, estimation, fitting, pipeline, ticks
from epps.cli import _FIGURE_MODEL, main
from epps.errors import DataError, NumericalError
from epps.pipeline import (RunConfig, grid_and_normalize, analyze_pair,
                           run_pipeline, write_artifacts)
from epps.ticks import SessionSpec, TickSeries, load_ticks
from epps.kernels import CorrelationModel, ModelPair
from epps.sampling import previous_tick


MODEL_TEXT = """\
cross.c = 0.4
cross.tau = 0
cross.xi = 8
auto_i.a = 1
auto_i.b = 0.5
auto_i.xi = 8
auto_j.a = 1
auto_j.b = 0.5
auto_j.xi = 8
"""


@pytest.fixture
def model_file(tmp_path):
    f = tmp_path / "model.txt"
    f.write_text(MODEL_TEXT)
    return str(f)


def test_session_spec_window():
    s = SessionSpec()
    assert s.window_start == 36900.0
    assert s.window_end == 56900.0
    with pytest.raises(DataError):
        SessionSpec(length=0.0)
    with pytest.raises(DataError):
        SessionSpec(open_skip=-1.0)


@pytest.mark.parametrize("setting", [
    dict(length=math.nan), dict(length=math.inf), dict(open_skip=math.nan),
    dict(open_skip=math.inf), dict(open_time=math.nan),
    dict(open_time=math.inf), dict(open_time=-math.inf)])
def test_session_spec_rejects_settings_that_are_not_finite(setting):
    # these were accepted; with a NaN open skip `load_ticks` dropped every
    # row, since no time compares with a NaN window
    with pytest.raises(DataError, match="finite"):
        SessionSpec(**setting)


def test_tick_series_validation():
    with pytest.raises(DataError):
        TickSeries("a", "d", np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    with pytest.raises(DataError):
        TickSeries("a", "d", np.array([1.0, 2.0]), np.array([0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["time", "log_price", "open_time",
                                   "open_price"])
def test_tick_series_rejects_values_that_are_not_finite(bad, where):
    # a NaN time passed the strictly-increasing test, and an infinite log
    # price gridded to all-NaN increments that reached every output
    times, logs = np.array([1.0, 2.0, 3.0]), np.array([0.0, 0.1, 0.2])
    open_tick = [-1.0, 0.0]
    target = {"time": times, "log_price": logs}.get(where)
    if target is None:
        open_tick[where == "open_price"] = bad
    else:
        target[-1] = bad
    with pytest.raises(DataError, match="asset XYZ, day d07: .* finite"):
        TickSeries("XYZ", "d07", times, logs, tuple(open_tick))


def tick_file(tmp_path, rows):
    f = tmp_path / "ticks.csv"
    f.write_text("asset,day,time_sec,price\n"
                 + "".join(r + "\n" for r in rows))
    return str(f)


def test_load_ticks_windows_and_rebases(tmp_path):
    s = SessionSpec()
    rows = [
        f"AAA,mon,{s.window_start - 10:.0f},100.0",   # before the window
        f"AAA,mon,{s.window_start:.0f},101.0",
        f"AAA,mon,{s.window_start + 5:.0f},102.0",
        f"AAA,mon,{s.window_end + 1:.0f},103.0",      # after the window
        f"BBB,mon,{s.window_start + 2:.0f},50.0",
    ]
    series, errors = load_ticks(tick_file(tmp_path, rows))
    assert errors == []
    assert set(series) == {("AAA", "mon"), ("BBB", "mon")}
    aaa = series[("AAA", "mon")]
    np.testing.assert_allclose(aaa.times, [0.0, 5.0])
    np.testing.assert_allclose(aaa.log_prices, np.log([101.0, 102.0]))


def test_load_ticks_reports_bad_records_with_line_numbers(tmp_path):
    s = SessionSpec()
    rows = [
        f"AAA,mon,{s.window_start + 1:.0f},100.0",
        "AAA,mon,oops,100.0",
        f"AAA,mon,{s.window_start + 3:.0f},-5.0",
        "AAA,mon,37000",
        f"AAA,mon,{s.window_start + 1:.0f},100.0",   # non-monotone
    ]
    series, errors = load_ticks(tick_file(tmp_path, rows))
    assert len(errors) == 4
    assert errors[0].startswith("line 3:")
    assert "nonpositive" in errors[1]
    assert "4 fields" in errors[2]
    assert "non-monotone" in errors[3]
    assert series[("AAA", "mon")].times.size == 1


def test_load_ticks_fail_fast_raises(tmp_path):
    rows = ["AAA,mon,oops,100.0"]
    with pytest.raises(DataError):
        load_ticks(tick_file(tmp_path, rows), fail_fast=True)


def test_load_ticks_rejects_wrong_header(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("time,price\n1,2\n")
    with pytest.raises(DataError):
        load_ticks(str(f))


def test_load_ticks_rejects_non_finite_numbers(tmp_path):
    s = SessionSpec()
    t0 = s.window_start
    rows = [
        f"AAA,mon,{t0 + 1:.0f},100.0",
        f"AAA,mon,{t0 + 2:.0f},nan",
        f"AAA,mon,{t0 + 3:.0f},inf",
        f"AAA,mon,{t0 + 4:.0f},-inf",
        "AAA,mon,nan,100.0",
        "AAA,mon,inf,100.0",
        f"AAA,mon,{t0 + 5:.0f},1e999",
        f"AAA,mon,{t0 + 6:.0f},101.0",
    ]
    series, errors = load_ticks(tick_file(tmp_path, rows))
    assert [e.split(":")[0] for e in errors] == [
        f"line {n}" for n in range(3, 9)]
    assert all("non-finite number" in e for e in errors)
    aaa = series[("AAA", "mon")]
    np.testing.assert_array_equal(aaa.times, [1.0, 6.0])
    assert np.all(np.isfinite(aaa.log_prices))


def load_ticks_rowwise(path, session=None, fail_fast=False):
    """Row-by-row reference reader: the loop `load_ticks` replaced, plus
    the non-finite and invalid UTF-8 rules and the open tick."""
    session = session or SessionSpec()
    buckets = {}
    opens = {}
    errors = []

    def bad(lineno, msg):
        errors.append(f"line {lineno}: {msg}")
        if fail_fast:
            raise DataError(errors[-1])

    # bytes that are not UTF-8 decode to lone surrogates, which do not
    # encode back
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline().strip()
        if header != "asset,day,time_sec,price":
            raise DataError("expected header 'asset,day,time_sec,price'")
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                bad(lineno, "invalid UTF-8")
                continue
            parts = line.split(",")
            if len(parts) != 4:
                bad(lineno, f"expected 4 fields, got {len(parts)}")
                continue
            asset, day, t_str, p_str = (p.strip() for p in parts)
            try:
                t = float(t_str)
                price = float(p_str)
            except ValueError:
                bad(lineno, f"unparseable number in {line!r}")
                continue
            if not (math.isfinite(t) and math.isfinite(price)):
                bad(lineno, f"non-finite number in {line!r}")
                continue
            if price <= 0:
                bad(lineno, f"nonpositive price {price}")
                continue
            key = (asset, day)
            if t < session.window_start:
                t -= session.window_start
                if key not in opens or t > opens[key][0]:
                    opens[key] = (t, math.log(price))
                continue
            if t > session.window_end:
                continue
            bucket = buckets.setdefault(key, ([], []))
            if bucket[0] and t <= bucket[0][-1]:
                bad(lineno, f"non-monotone time {t} for {asset} {day}")
                continue
            bucket[0].append(t)
            bucket[1].append(math.log(price))
    series = {}
    for (asset, day), (times, logs) in sorted(buckets.items()):
        series[(asset, day)] = TickSeries(
            asset_id=asset, day_id=day,
            times=np.asarray(times) - session.window_start,
            log_prices=np.asarray(logs), open_tick=opens.get((asset, day)))
    return series, errors


_SESSION = SessionSpec(length=10.0)
_TIMES = [f"{_SESSION.window_start + dt:.6f}"
          for dt in (-2.0, -0.5, 0.0, 0.000001, 1.0, 1.25, 2.5, 9.999999,
                     10.0, 10.5)]
_PAD = st.sampled_from(["", " ", "\t", "  "])


# bytes that are not UTF-8, as `errors="surrogateescape"` writes them: a
# stray 0xff, a lead byte with no continuation, an encoded surrogate
_NOT_UTF8 = st.sampled_from(["\udcff", "\udcc3", "\udced\udca0\udc80"])


@st.composite
def _tick_line(draw):
    kind = draw(st.sampled_from(
        ["good"] * 6 + ["fields", "unparseable", "nonpositive", "non-finite",
                        "blank", "not UTF-8"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    asset = draw(st.sampled_from(["A", "B", "AB", "Ä", "日"]))
    day = draw(st.sampled_from(["d1", "d2", "d日"]))
    t = draw(st.sampled_from(_TIMES))
    price = draw(st.sampled_from(["100", "101.5", "1e-3", "99.25"]))
    if kind == "unparseable":
        if draw(st.booleans()):
            t = draw(st.sampled_from(["oops", "", "1.2.3", "0x10"]))
        else:
            price = draw(st.sampled_from(["x", "", "--1"]))
    elif kind == "nonpositive":
        price = draw(st.sampled_from(["0", "-1.5", "-0.0"]))
    elif kind == "non-finite":
        if draw(st.booleans()):
            t = draw(st.sampled_from(["nan", "inf", "-inf", "1e999"]))
        else:
            price = draw(st.sampled_from(["nan", "inf", "-inf", "Infinity"]))
    elif kind == "not UTF-8":
        asset += draw(_NOT_UTF8)
    fields = [asset, day, t, price]
    if kind == "fields" or (kind == "not UTF-8" and draw(st.booleans())):
        n = draw(st.sampled_from([1, 2, 3, 5, 6]))
        fields = (fields + ["extra", "more"])[:n]
    return ",".join(draw(_PAD) + f + draw(_PAD) for f in fields)


def _forced_ranges(range_bytes, cpus):
    """Patch `load_ticks` into cutting files into up to `cpus` ranges, no
    more than one per `range_bytes` started."""
    return mock.patch.multiple(ticks, _RANGE_BYTES=range_bytes,
                               _cpus=lambda: cpus)


_EOL = st.sampled_from(["\n", "\r\n", "\r"])


def _write_text(path, text):
    """Write `text` as UTF-8 with its line breaks as given; lone surrogates
    become the bytes that are not UTF-8."""
    with open(path, "w", encoding="utf-8", errors="surrogateescape",
              newline="") as fh:
        fh.write(text)


def _assert_same_ticks(path, session):
    """`load_ticks` agrees with `load_ticks_rowwise` on `path`, fail_fast
    included."""
    want, want_errors = load_ticks_rowwise(path, session)
    got, errors = load_ticks(path, session)
    assert errors == want_errors
    assert list(got) == list(want)
    for key, ts in want.items():
        assert got[key].times.tobytes() == ts.times.tobytes()
        np.testing.assert_array_max_ulp(got[key].log_prices, ts.log_prices,
                                        maxulp=1)
        if ts.open_tick is None:
            assert got[key].open_tick is None
        else:
            assert got[key].open_tick[0] == ts.open_tick[0]
            np.testing.assert_array_max_ulp(got[key].open_tick[1],
                                            ts.open_tick[1], maxulp=1)
    if want_errors:
        with pytest.raises(DataError) as exc:
            load_ticks(path, session, fail_fast=True)
        assert str(exc.value) == want_errors[0]


def _parse_in_process(path, ranges, session):
    """`_parse_ranges` without forking: the same ranges, parsed in order."""
    return [ticks._parse_range(path, start, end, session)
            for start, end in ranges]


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(st.tuples(_tick_line(), _EOL), max_size=8)
       # long files, with several in-window rows per asset-day
       | st.lists(st.tuples(_tick_line(), _EOL), min_size=20, max_size=60),
       header_eol=_EOL,
       chunk=st.sampled_from([1, 40, 200, 1 << 20]),
       range_bytes=st.sampled_from([1, 30, 100, ticks._RANGE_BYTES]),
       cpus=st.sampled_from([2, 3]),
       trailing_newline=st.booleans())
def test_load_ticks_matches_rowwise_reference(lines, header_eol, chunk,
                                              range_bytes, cpus,
                                              trailing_newline):
    # the ranges are parsed in this process, so a failure shrinks fast;
    # the forked transport has its own test below
    text = "asset,day,time_sec,price" + header_eol + "".join(
        line + eol for line, eol in lines)
    if lines and not trailing_newline:
        text = text[:-len(lines[-1][1])]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ticks.csv")
        _write_text(path, text)
        with mock.patch.object(ticks, "_CHUNK_BYTES", chunk), \
                mock.patch.object(ticks, "_parse_ranges",
                                  _parse_in_process), \
                _forced_ranges(range_bytes, cpus):
            _assert_same_ticks(path, _SESSION)


def _mixed_lines():
    """Every kind of line `_tick_line` draws, each with every line break,
    as (line, line break) pairs."""
    t0 = _SESSION.window_start
    lines = []
    for k, eol in enumerate(["\n", "\r\n", "\r"] * 3):
        lines += [(line, eol) for line in (
            f"A,d1,{t0 + k:.6f},100",
            f" 日 ,\td日, {t0 + k + 0.5:.6f} ,101.5",
            f"Ä,d2,{t0 + k:.6f},99.25",
            "A,d1,37000",                          # fields
            f"A,d1,{t0 + k:.6f},100,extra",        # fields
            "B,d1,oops,100",                       # unparseable
            f"B,d1,{t0 + k:.6f},-1.5",             # nonpositive
            f"B,d1,{t0 + k:.6f},inf",              # non-finite
            "  ",                                  # blank
            f"A\udcff,d1,{t0 + k:.6f},100",        # not UTF-8
            "A\udcc3,d1",                          # not UTF-8
            f"A,d1,{t0 + k - 0.25:.6f},100",       # non-monotone
            f"A,d1,{t0 - 1:.6f},100")]             # before the window
    return lines


def test_load_ticks_keeps_the_last_record_before_the_window(tmp_path):
    t0 = SessionSpec().window_start
    path = tick_file(tmp_path, [
        f"A,d1,{t0 - 5:.6f},90",
        f"A,d1,{t0 - 2:.6f},95",        # the latest before the window
        f"A,d1,{t0 - 2:.6f},96",        # the same time later in the file
        f"A,d1,{t0 - 3:.6f},97",        # earlier, but not non-monotone
        f"A,d1,{t0 - 1:.6f},0",         # rejected
        f"A,d1,{t0 + 1:.6f},100",
        f"A,d1,{t0 + 20001:.6f},100",   # after the window
        f"B,d1,{t0 + 2:.6f},100",
        f"C,d1,{t0 - 1:.6f},100"])      # nothing in the window
    series, errors = load_ticks(path)
    assert errors == ["line 6: nonpositive price 0.0"]
    a = series[("A", "d1")]
    assert a.open_tick[0] == -2.0
    assert a.open_tick[1] == pytest.approx(math.log(95.0), rel=1e-15)
    np.testing.assert_array_equal(a.times, [1.0])
    assert series[("B", "d1")].open_tick is None
    assert list(series) == [("A", "d1"), ("B", "d1")]


def test_load_ticks_forked_ranges_match_rowwise_reference(tmp_path):
    path = str(tmp_path / "ticks.csv")
    _write_text(path, "asset,day,time_sec,price\r\n" + "".join(
        line + eol for line, eol in _mixed_lines()))
    calls = []
    parse = ticks._parse_ranges

    def spy(path, ranges, session):
        calls.append(len(ranges))
        return parse(path, ranges, session)

    with _forced_ranges(1, 3), _deadline(30), \
            mock.patch.object(ticks, "_parse_ranges", spy):
        _assert_same_ticks(path, _SESSION)
    assert calls == [3, 3]  # three children each time


def test_load_ticks_parses_a_split_file_wholly_in_children(tmp_path):
    # the calling process parses no range, so no parse temporaries are left
    # in its heap between the columns it returns
    t0 = SessionSpec().window_start
    path = tick_file(tmp_path, [f"A,d1,{t0 + k:.6f},100" for k in range(30)])
    log = tmp_path / "parsed.txt"
    parse, parse_ranges = ticks._parse_range, ticks._parse_ranges
    ranges = []

    def spy(path, start, end, session):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {start}\n")
        return parse(path, start, end, session)

    def spy_ranges(path, cut, session):
        ranges.extend(cut)
        return parse_ranges(path, cut, session)

    with _forced_ranges(1, 3), _deadline(30), \
            mock.patch.object(ticks, "_parse_range", spy), \
            mock.patch.object(ticks, "_parse_ranges", spy_ranges):
        series, errors = load_ticks(path)
    assert errors == [] and series[("A", "d1")].times.size == 30
    calls = [line.split() for line in log.read_text().splitlines()]
    pids = {int(pid) for pid, _ in calls}
    assert len(ranges) == 3 and len(pids) == 3 and os.getpid() not in pids
    assert sorted(int(start) for _, start in calls) == [a for a, _ in ranges]


@pytest.mark.parametrize("range_bytes, cpus", [
    (ticks._RANGE_BYTES, 3),  # a file under one range's bytes
    (1, 1),                   # one CPU
])
def test_load_ticks_parses_one_range_in_the_calling_process(tmp_path,
                                                             range_bytes,
                                                             cpus):
    t0 = SessionSpec().window_start
    path = tick_file(tmp_path, [f"A,d1,{t0 + k:.6f},100" for k in range(30)])
    parse = ticks._parse_range
    pids = []

    def spy(*args):
        pids.append(os.getpid())
        return parse(*args)

    with _forced_ranges(range_bytes, cpus), \
            mock.patch.object(ticks, "_parse_range", spy), \
            mock.patch.object(os, "fork", side_effect=AssertionError("fork")):
        series, errors = load_ticks(path)
    assert errors == [] and series[("A", "d1")].times.size == 30
    assert pids == [os.getpid()]


def test_load_ticks_gives_the_same_bytes_at_one_to_three_cpus(tmp_path):
    # 600 rows of one width, A and B on alternate lines, so that 2 and 3
    # ranges start on rows 300, and 200 and 400: each is a time below its
    # asset's row two lines above, in the range before, which the merge
    # rejects; bad records of that width lie among them
    t0 = SessionSpec().window_start
    rows = []
    for r in range(600):
        t = t0 + r // 2 - (1.5 if r in (200, 300, 400) else 0)
        price = {25: "-10.000", 75: "x00.000"}.get(r % 100,
                                                   f"{100 + r % 97 / 1e3:.3f}")
        rows.append(f"{'AB'[r % 2]},d1,{t:.6f},{price}")
    assert len({len(row) for row in rows}) == 1
    path = tick_file(tmp_path, rows)
    body = len(ticks.HEADER) + 1
    parse_ranges = ticks._parse_ranges
    starts = []

    def spy(path, ranges, session):
        starts.extend(start for start, _ in ranges[1:])
        return parse_ranges(path, ranges, session)

    seen = set()
    for cpus in (1, 2, 3):
        with _forced_ranges(1, cpus), _deadline(30), \
                mock.patch.object(ticks, "_parse_ranges", spy):
            series, errors = load_ticks(path)
        assert [e for e in errors if "non-monotone" in e] == [
            f"line {r + 2}: non-monotone time {t0 + r // 2 - 1.5} for "
            f"{'AB'[r % 2]} d1" for r in (200, 300, 400)]
        assert len(errors) == 15
        seen.add((tuple(errors), tuple(
            (key, ts.times.tobytes(), ts.log_prices.tobytes(), ts.open_tick)
            for key, ts in series.items())))
    assert len(seen) == 1
    row_bytes = len(rows[0]) + 1
    assert starts == [body + r * row_bytes for r in (300, 200, 400)]


def _crlf_file(tmp_path, rows, last_break=True):
    """Tick file with `\\r\\n` line breaks, the last one left out on
    request; returns its path and its body's offset in the file."""
    header = "asset,day,time_sec,price\r\n"
    path = tmp_path / "ticks.csv"
    body = "".join(r + "\r\n" for r in rows)
    path.write_bytes((header + (body if last_break else body[:-2])).encode())
    return str(path), len(header)


def _good_rows_then_a_bad_one(t0, n):
    """`n` good rows of A on day d1 at t0 + 1, 2, ..., then a bad one."""
    return ([f"A,d1,{t0 + k:.6f},100" for k in range(1, n + 1)]
            + ["A,d1,oops,100"])


def test_load_ticks_chunk_ending_on_the_cr_of_a_crlf(tmp_path):
    t0 = SessionSpec().window_start
    rows = _good_rows_then_a_bad_one(t0, 6)
    path, body = _crlf_file(tmp_path, rows)
    with open(path, "rb") as fh:
        data = fh.read()
    # each block ends on the \r of a row's \r\n
    chunk = data.index(b"\r", body) + 1 - body
    with mock.patch.object(ticks, "_CHUNK_BYTES", chunk):
        series, errors = load_ticks(path)
    assert errors == ["line 8: unparseable number in 'A,d1,oops,100'"]
    np.testing.assert_array_equal(series[("A", "d1")].times,
                                  np.arange(1.0, 7.0))


def test_load_ticks_line_longer_than_a_chunk(tmp_path):
    t0 = SessionSpec().window_start
    rows = _good_rows_then_a_bad_one(t0, 3)
    # the padded first row's \r ends the second block, so its \n starts
    # the third
    rows[0] = f"A,d1,{t0 + 1:.6f},".ljust(2 * ticks._CHUNK_BYTES - 4) \
        + "100"
    path, body = _crlf_file(tmp_path, rows)
    with open(path, "rb") as fh:
        assert fh.read()[body + 2 * ticks._CHUNK_BYTES - 1:][:2] \
            == b"\r\n"
    series, errors = load_ticks(path)
    assert errors == ["line 5: unparseable number in 'A,d1,oops,100'"]
    np.testing.assert_array_equal(series[("A", "d1")].times, [1.0, 2.0, 3.0])


def test_load_ticks_last_line_without_a_line_break(tmp_path):
    t0 = SessionSpec().window_start
    rows = _good_rows_then_a_bad_one(t0, 4) + [f"A,d1,{t0 + 9:.6f},100"]
    path, _ = _crlf_file(tmp_path, rows, last_break=False)
    # every block size, so blocks end on every byte of the last lines
    for chunk in range(1, 40):
        with mock.patch.object(ticks, "_CHUNK_BYTES", chunk):
            series, errors = load_ticks(path)
        assert errors == ["line 6: unparseable number in 'A,d1,oops,100'"]
        np.testing.assert_array_equal(series[("A", "d1")].times,
                                      [1.0, 2.0, 3.0, 4.0, 9.0])


def test_load_ticks_checks_times_across_range_boundaries(tmp_path):
    # 3 and 4 both come after 5: a running maximum, not the previous row
    t0 = SessionSpec().window_start
    path = tick_file(tmp_path, [f"A,d1,{t0 + t:.6f},100"
                                for t in (5.0, 3.0, 4.0, 6.0)])
    for cpus in (1, 2, 3, 4):
        with _forced_ranges(1, cpus):
            series, errors = load_ticks(path)
        assert errors == [f"line 3: non-monotone time {t0 + 3} for A d1",
                          f"line 4: non-monotone time {t0 + 4} for A d1"]
        np.testing.assert_array_equal(series[("A", "d1")].times, [5.0, 6.0])


def test_load_ticks_names_non_monotone_rows_far_from_the_row_before(
        tmp_path):
    # A's rows on lines 302 and 70303 lie 300 and 70 000 lines after A's
    # row before them, with B's and C's rows between: their line numbers
    # are packed in uint16 and uint32 gaps, within a chunk or across chunks
    # and ranges
    t0 = SessionSpec().window_start
    rows = ([f"A,d1,{t0 + 10},100"]
            + [f"B,d1,{t0 + k * 0.01:.2f},100" for k in range(299)]
            + [f"A,d1,{t0 + 5},100", f"A,d1,{t0 + 20},100"]
            + [f"C,d2,{t0 + k * 0.01:.2f},100" for k in range(69999)]
            + [f"A,d1,{t0 + 15},100", f"A,d1,{t0 + 30},100"])
    path = tick_file(tmp_path, rows)
    pack = ticks._pack_lines
    dtypes = set()

    def spy(lines):
        packed = pack(lines)
        dtypes.add(packed[1].dtype)
        return packed

    for chunk in (1 << 16, 1 << 22):
        for cpus in (1, 2, 3):
            with _forced_ranges(1, cpus), _deadline(60), \
                    mock.patch.object(ticks, "_CHUNK_BYTES", chunk), \
                    mock.patch.object(ticks, "_pack_lines", spy):
                series, errors = load_ticks(path)
            assert errors == [
                f"line 302: non-monotone time {t0 + 5} for A d1",
                f"line 70303: non-monotone time {t0 + 15} for A d1"]
            np.testing.assert_array_equal(series[("A", "d1")].times,
                                          [10.0, 20.0, 30.0])
    assert {np.dtype(np.uint16), np.dtype(np.uint32)} <= dtypes


@pytest.mark.parametrize("parts, dtype", [
    ([[5], [6, 7]], np.uint8),
    ([[5, 305], [306]], np.uint16),
    ([[5, 6], [70006, 70007]], np.uint32),
    ([[5], [6, 5_000_000_006]], np.uint64),
])
def test_packed_line_numbers_unpack_to_the_line_numbers(parts, dtype):
    # one part per chunk; a forked parser packs each asset-day's line
    # numbers again as one part, whose gaps take the widest dtype needed
    lines = sum(parts, [])
    packed = [ticks._pack_lines(np.array(part)) for part in parts]
    np.testing.assert_array_equal(ticks._unpack_lines(packed), lines)
    joined = ticks._pack_lines(ticks._unpack_lines(packed))
    assert joined[1].dtype == dtype
    np.testing.assert_array_equal(ticks._unpack_lines([joined]), lines)


def test_load_ticks_splits_field_count_errors_that_balance(tmp_path):
    # 2 + 4 commas balance to two lines' worth, but each line is wrong
    t0 = SessionSpec().window_start
    good = [f"A,d1,{t0 + k:.6f},100" for k in range(1, 9)]
    three = f"A,d1,{t0 + 20:.6f}" + " " * 12  # longer than a good row
    five = f"A,d1,{t0 + 21:.6f},100,7"
    parse = ticks._parse_ranges
    starts = []

    def spy(path, ranges, session):
        starts.extend(start for start, _ in ranges)
        return parse(path, ranges, session)

    straddled = False
    for k in range(len(good) + 1):
        text = ("asset,day,time_sec,price\n"
                + "".join(r + "\n" for r in good[:k] + [three, five]
                          + good[k:]))
        path = tmp_path / "ticks.csv"
        path.write_text(text)
        for cpus in (1, 2, 3):
            starts.clear()
            with _forced_ranges(1, cpus), \
                    mock.patch.object(ticks, "_parse_ranges", spy):
                series, errors = load_ticks(str(path))
            assert errors == [f"line {k + 2}: expected 4 fields, got 3",
                              f"line {k + 3}: expected 4 fields, got 5"]
            np.testing.assert_array_equal(series[("A", "d1")].times,
                                          np.arange(1.0, 9.0))
            straddled |= text.index(five) in starts
    assert straddled  # some split starts a range at the 5-field line


@contextlib.contextmanager
def _deadline(seconds):
    """Fail the block, rather than hang, when it runs over `seconds`."""
    def expire(signum, frame):
        # not a TimeoutError: that is an OSError, which waitpid's callers
        # may swallow
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _failing_parse(where, failure):
    """`_parse_range` that fails with `failure()` after parsing, in every
    forked child, or with `where` "first" only in the child of the first
    range, the one that starts after the header."""
    parent = os.getpid()
    parse = ticks._parse_range

    def parse_range(path, start, end, session):
        part = parse(path, start, end, session)
        with open(path, "rb") as fh:
            first = start == len(fh.readline())
        if os.getpid() != parent and (where == "child" or first):
            failure()
        return part

    return parse_range


def _exit_after_sending(n_messages):
    """Patch the forked parsers into exiting with code 3 once they have
    sent `n_messages` messages: the pickle, then one per array.  A
    fraction sends the first half of the next message, after a length
    prefix that promises all of it."""
    parent = os.getpid()
    send_bytes = Connection.send_bytes
    sent = []

    def send_some(conn, buf):
        if os.getpid() != parent:
            if len(sent) == int(n_messages):
                if n_messages % 1:
                    data = memoryview(buf).cast("B")
                    os.write(conn.fileno(), struct.pack("!i", len(data))
                             + data[:len(data) // 2])
                os._exit(3)
            sent.append(None)
        send_bytes(conn, buf)

    return mock.patch.object(Connection, "send_bytes", send_some)


def _boom():
    raise ValueError("boom")


@pytest.mark.parametrize("where, failure, error, match", [
    ("child", _boom, ValueError, "boom"),
    ("child", lambda: os._exit(3), ChildProcessError, "code 3"),
    # the first range's child raises while the second is blocked sending
    # more than a pipe holds
    ("first", _boom, ValueError, "boom"),
    # the child exits after its pickle, before the arrays it refers to,
    # halfway through an array, and between two arrays
    ("sending", 1, ChildProcessError, "code 3"),
    ("sending", 1.5, ChildProcessError, "code 3"),
    ("sending", 2, ChildProcessError, "code 3"),
])
def test_load_ticks_raises_when_a_range_parser_fails(tmp_path, where,
                                                     failure, error, match):
    t0 = SessionSpec().window_start
    rows = [f"A,d1,{t0 + k * 1e-3:.6f},100" for k in range(20000)]
    path = tick_file(tmp_path, rows)
    fault = (_exit_after_sending(failure) if where == "sending" else
             mock.patch.object(ticks, "_parse_range",
                               _failing_parse(where, failure)))
    started = []
    start = BaseProcess.start

    def spy(process):
        started.append(process)
        start(process)

    with _forced_ranges(1, 2), _deadline(30), fault, \
            mock.patch.object(BaseProcess, "start", spy):
        with pytest.raises(error, match=match):
            load_ticks(path)
    assert len(started) == 2 and not any(p.is_alive() for p in started)
    if where == "first":  # killed while it waited on the pipe
        assert started[1].exitcode == -signal.SIGTERM
    with _forced_ranges(1, 2):  # and the next call works
        series, errors = load_ticks(path)
    assert errors == [] and series[("A", "d1")].times.size == 20000


def _traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated, in bytes, as
    tracemalloc (which numpy's arrays report to) counts it."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_ticks_holds_each_parsed_column_once(tmp_path):
    # 120 000 rows in three forked ranges of 64 kB chunks.  Each row is
    # parsed into a time and a log price, 16 bytes, which the series
    # returned keep, and the one-byte gap to its asset-day's row before.
    # Measured peaks, over 16 bytes a row: 1.37 with the line numbers
    # packed in gaps, the joined columns kept as the series and every
    # range parsed in a child (1.38 when the calling process parsed the
    # first); 1.90 with an int64 line number a row; 3.26 when the parent
    # unpickled each child's columns from one message and kept every range
    # until all series were made.
    t0 = SessionSpec().window_start
    rows = [f"{asset},d{day},{t0 + k * 0.5:.6f},{100 + k * 1e-3:.15f}"
            for day in range(6) for k in range(10000) for asset in "AB"]
    path = tick_file(tmp_path, rows)
    with _forced_ranges(1, 3), _deadline(60), \
            mock.patch.object(ticks, "_CHUNK_BYTES", 1 << 16):
        (series, errors), peak = _traced_peak(load_ticks, path)
    assert errors == [] and len(series) == 12
    assert peak < 1.6 * 16 * len(rows)


def test_load_ticks_does_not_depend_on_the_chunk_size(tmp_path):
    # 100 000 rows, a bad one among every 1 000, cut into 64 KiB, 256 KiB
    # and 1 MiB chunks in 1 to 3 ranges: the chunk and range cuts fall on
    # different lines, and every series and message stays the same
    t0 = SessionSpec().window_start
    rows = [f"{'ABC'[k % 3]},d{k // 50000},{t0 - 10 + k % 50000 * 0.4:.6f},"
            f"{100 + (k * 7919 % 1000) * 1e-3:.12g}" for k in range(100000)]
    for k in range(500, len(rows), 1000):
        rows[k] = ("B,d0,oops,100", "A,d1,37000", "C,d1,40000,-2")[k % 3]
    path = tick_file(tmp_path, rows)
    seen = set()
    for chunk in (1 << 16, 1 << 18, 1 << 20):
        for cpus in (1, 2, 3):
            with _forced_ranges(1, cpus), _deadline(60), \
                    mock.patch.object(ticks, "_CHUNK_BYTES", chunk):
                series, errors = load_ticks(path)
            assert len(series) == 6 and len(errors) == 100
            seen.add((tuple(errors), tuple(
                (key, ts.times.tobytes(), ts.log_prices.tobytes(),
                 ts.open_tick) for key, ts in series.items())))
    assert len(seen) == 1


def test_analyze_pair_takes_spectrum_increments_block_by_block(monkeypatch):
    # 20 days of 3 000 steps make blocks of 4 days.  Measured peaks of the
    # spectrum step: 0.59 times the bytes of all increments of both assets,
    # one block's rows and transforms at a time, 1.59 when every day's
    # increments were taken first.
    days_i, days_j = small_days(n_days=20)
    spectrum = pipeline.estimate_spectrum
    peaks = []

    def traced(*args, **kwargs):
        tracemalloc.reset_peak()
        out = spectrum(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return out

    monkeypatch.setattr(pipeline, "estimate_spectrum", traced)
    _traced_peak(analyze_pair, days_i, days_j, [1.0, 5.0], 40.0)
    increments = 8 * sum(s.increments.size for s in days_i + days_j)
    assert len(peaks) == 1 and peaks[0] < increments


def _normalized(levels):
    incr = np.diff(levels)
    return (incr - np.mean(incr)) / np.std(incr)


def test_grid_and_normalize_starts_at_the_window_start():
    session = SessionSpec(length=100.0)
    times = np.array([2.4, 10.0, 50.0, 90.0])
    logs = np.array([0.0, 1.0, -1.0, 2.0])
    # the level of grid time k is that of the last tick at or before it
    after = np.repeat(logs, np.diff([3, 10, 50, 90, 101]))
    for open_tick, first in (((-3.0, 0.5), 0.5), (None, 0.0)):
        # without an open tick the first tick's level is back-filled, and
        # the return up to that tick is lost
        ts = TickSeries("a", "d", times=times, log_prices=logs,
                        open_tick=open_tick)
        s = grid_and_normalize(ts, grid_dt=1.0, session=session)
        assert s.increments.size == 100
        assert s.n_ticks == times.size
        np.testing.assert_allclose(
            s.increments, _normalized(np.concatenate([[first] * 3, after])),
            rtol=1e-12, atol=1e-12)


def test_grid_and_normalize_stores_the_normalized_previous_tick_increments():
    # the stored increments are those of `previous_tick`, normalized once:
    # no cumulative sum and difference in between to round them
    session = SessionSpec(length=500.0)
    rng = np.random.default_rng(7)
    times = np.sort(rng.uniform(0.0, 500.0, 300))
    logs = np.cumsum(1e-3 * rng.standard_normal(times.size))
    ts = TickSeries("a", "d", times=times, log_prices=logs,
                    open_tick=(-2.0, 0.0))
    d = previous_tick((np.insert(times, 0, -2.0), np.insert(logs, 0, 0.0)),
                      grid_dt=1.0, start=0.0, end=500.0).increments
    s = grid_and_normalize(ts, grid_dt=1.0, session=session)
    assert s.increments.tobytes() == ((d - d.mean()) / d.std()).tobytes()


def test_estimate_drops_every_tick_before_the_analysis(tmp_path,
                                                     monkeypatch):
    # a grid keeps only its tick count; the ticks of an asset not asked
    # for are dropped before gridding, and each asset-day's once it is
    # gridded: when the analysis starts, no tick array is alive
    t0 = SessionSpec().window_start
    rng = np.random.default_rng(4)
    rows = []
    for day, asset in ((d, a) for d in range(2) for a in "ABC"):
        times = t0 - 5.0 + np.cumsum(rng.exponential(2.0, 11000))
        prices = 100.0 * np.exp(np.cumsum(1e-3 * rng.standard_normal(
            times.size)))
        rows += [f"{asset},{day},{t:.6f},{p:.10g}"
                 for t, p in zip(times, prices)]
    refs = []
    load = cli.load_ticks

    def loaded(*args, **kwargs):
        series, errors = load(*args, **kwargs)
        refs.extend(weakref.ref(column) for ts in series.values()
                    for column in (ts.times, ts.log_prices))
        return series, errors

    class Entered(Exception):
        pass

    def analyze(*args, **kwargs):
        raise Entered(sum(ref() is not None for ref in refs))

    monkeypatch.setattr(cli, "load_ticks", loaded)
    monkeypatch.setattr(cli, "analyze_pair", analyze)
    with pytest.raises(Entered) as alive:
        main(["estimate", "--ticks", tick_file(tmp_path, rows), "--asset-i",
              "A", "--asset-j", "B", "--out", str(tmp_path / "est")])
    assert len(refs) == 12 and alive.value.args == (0,)


def test_grid_and_normalize_skips_degenerate_days():
    session = SessionSpec(length=100.0)
    one_tick = TickSeries("a", "d", times=np.array([5.0]),
                          log_prices=np.array([1.0]))
    assert grid_and_normalize(one_tick, session=session) is None
    flat = TickSeries("a", "d", times=np.array([5.0, 50.0]),
                      log_prices=np.array([1.0, 1.0]), open_tick=(-1.0, 1.0))
    assert grid_and_normalize(flat, session=session) is None
    one_cell = TickSeries("a", "d", times=np.array([0.2, 0.7]),
                          log_prices=np.array([1.0, 2.0]))
    assert grid_and_normalize(one_cell,
                              session=SessionSpec(length=1.5)) is None
    # one tick after the open tick is a return, so the day counts
    assert grid_and_normalize(TickSeries(
        "a", "d", times=np.array([99.2]), log_prices=np.array([2.0]),
        open_tick=(-1.0, 1.0)), session=session) is not None


def test_run_config_validation(model_file):
    RunConfig(model_file=model_file)
    with pytest.raises(DataError):
        RunConfig(model_file=model_file, n_days=0)
    with pytest.raises(DataError):
        RunConfig(model_file=model_file, lambda_i=-1.0)
    with pytest.raises(DataError):
        RunConfig(model_file=model_file, max_lag=0.5, grid_dt=1.0)
    with pytest.raises(DataError):
        RunConfig(model_file=model_file, dt_grid=(1.0, -2.0))
    with pytest.raises(DataError):
        RunConfig(model_file=model_file, filter_mode="bogus")
    # an snr applies only to the wiener filter, as for FilterSpec
    RunConfig(model_file=model_file, filter_mode="wiener", snr=5.0)
    for snr in (5.0, -1.0):
        with pytest.raises(DataError, match="snr"):
            RunConfig(model_file=model_file, snr=snr)
    for key in ("lambda_j", "length", "grid_dt", "max_lag"):
        with pytest.raises(DataError, match="finite"):
            RunConfig(model_file=model_file, **{key: math.inf})
    with pytest.raises(DataError, match="finite"):
        RunConfig(model_file=model_file, dt_grid=(1.0, math.nan))


def test_run_config_from_file(tmp_path, model_file):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model_file": model_file, "lambda_i": 0.5,
                               "dt_grid": [1, 5], "seed": 7}))
    config = RunConfig.from_file(str(cfg))
    assert config.lambda_i == 0.5
    assert config.dt_grid == (1.0, 5.0)
    assert config.seed == 7
    cfg.write_text(json.dumps({"model_file": model_file, "bogus": 1}))
    with pytest.raises(DataError):
        RunConfig.from_file(str(cfg))
    cfg.write_text("{not json")
    with pytest.raises(DataError):
        RunConfig.from_file(str(cfg))
    # the filter settings are checked when the file is loaded
    cfg.write_text(json.dumps({"model_file": model_file, "snr": 5.0}))
    with pytest.raises(DataError, match="wiener"):
        RunConfig.from_file(str(cfg))
    # a config that is not an object was reported as unknown keys, and an
    # integer path was opened as a file descriptor
    cfg.write_text("[1, 2]")
    with pytest.raises(DataError, match="JSON object, got a list"):
        RunConfig.from_file(str(cfg))
    with pytest.raises(DataError, match="not a file path"):
        RunConfig.from_file(987654)


def small_days(n_days=6, length=3000.0, li=1.0, lj=0.3, seed=1,
               grid_dt=1.0):
    """Days as `epps run` simulates and grids them."""
    pair = ModelPair(cross=CorrelationModel(width=8.0, exp_weight=0.4),
                     auto_i=CorrelationModel(delta_weight=1.0),
                     auto_j=CorrelationModel(delta_weight=1.0))
    config = RunConfig(model_file="unused", lambda_i=li, lambda_j=lj,
                       n_days=n_days, length=length, seed=seed,
                       grid_dt=grid_dt, dt_grid=(grid_dt,))
    days_i, days_j, _ = pipeline._simulate_days(pair, config)
    return days_i, days_j


def test_analyze_pair_returns_complete_artifact_set():
    days_i, days_j = small_days()
    out = analyze_pair(days_i, days_j, [1.0, 5.0, 20.0], 40.0)
    for key in ("epps_raw", "epps_filtered", "cg_cross", "cg_auto_i",
                "cg_auto_j", "cg_cross_filtered", "s_cross",
                "s_cross_filtered", "fits", "chi2_ratio"):
        assert key in out
    assert out["n_days_spectra"] == len(days_i)
    assert set(out["fits"]) >= {"cross_raw", "cross_async", "auto_i_raw",
                                "auto_i_async", "auto_j_raw", "auto_j_async"}
    # sampling depresses short-horizon correlation: raw Epps curve rises
    rho = out["epps_raw"].rho
    assert rho[0] < rho[-1]
    # the corrected cross fit should not be degenerate on signal like this
    assert not out["fits"]["cross_async"].degenerate


def test_analyze_pair_takes_the_grid_step_of_its_days():
    assert "grid_dt" not in inspect.signature(analyze_pair).parameters
    days_i, days_j = small_days(grid_dt=2.0)
    out = analyze_pair(days_i, days_j, [2.0, 10.0], 40.0)
    for key in ("s_cross", "s_cross_filtered", "cg_cross_filtered"):
        assert out[key].grid_dt == 2.0, key
    np.testing.assert_array_equal(out["cg_cross_filtered"].lag_grid,
                                  out["cg_cross"].lag_grid)
    np.testing.assert_array_equal(out["epps_filtered"].dt_grid, [2.0, 10.0])


def test_analyze_pair_takes_each_rate_over_the_gridded_seconds():
    # 2 000.5 s on a 0.7 s grid is 2 857 steps, 1 999.9 s: a day counts
    # the ticks of that span, not those after it, and a rate is the count
    # over those seconds, not over the session's
    ts = TickSeries("a", "d", times=np.array([0.0, 1.0, 1.9, 2.3]),
                    log_prices=np.array([0.0, 1.0, -1.0, 2.0]),
                    open_tick=(-1.0, 0.5))
    assert grid_and_normalize(ts, 0.7, SessionSpec(length=2.5)).n_ticks == 3
    days_i, days_j = small_days(length=2000.5, grid_dt=0.7)
    T = days_i[0].increments.size
    assert T == 2857
    out = analyze_pair(days_i, days_j, [0.7, 7.0], 28.0)
    for days, key, lam in ((days_i, "rate_i", 1.0), (days_j, "rate_j", 0.3)):
        n, seconds = sum(s.n_ticks for s in days), len(days) * T * 0.7
        assert out[key] == pytest.approx(n / seconds, rel=1e-15)
        # a Poisson count: within four standard errors of the rate drawn
        assert abs(out[key] - lam) < 4.0 * math.sqrt(n) / seconds
    silent = [dataclasses.replace(s, n_ticks=0) for s in days_j]
    with pytest.raises(DataError, match="sampling rates must be > 0"):
        analyze_pair(days_i, silent, [0.7, 7.0], 28.0)


FIT_NAMES = {"cross_raw", "cross_async", "auto_i_raw", "auto_i_async",
             "auto_j_raw", "auto_j_async"}


@settings(max_examples=15, deadline=None)
@given(n_days=st.integers(2, 6), rate_i=st.floats(0.1, 2.0),
       rate_j=st.floats(0.1, 2.0), length=st.floats(800.0, 2000.0),
       max_lag=st.integers(10, 60), seed=st.integers(0, 2 ** 16))
def test_analyze_pair_flags_fits_instead_of_raising(n_days, rate_i, rate_j,
                                                     length, max_lag, seed):
    days_i, days_j = small_days(n_days, length, rate_i, rate_j, seed)
    out = analyze_pair(days_i, days_j, [1.0, 5.0, 20.0], float(max_lag))
    assert set(out["fits"]) | set(out["fit_failures"]) == FIT_NAMES
    for fit in out["fits"].values():
        assert fit.degenerate or all(math.isfinite(v)
                                     for v in fit.params.values())
    assert np.all(np.isfinite(out["epps_raw"].rho[:1]))


def strict_json(text):
    """JSON as a strict parser reads it: NaN and Infinity refused."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_a_chi2_ratio_that_cannot_be_formed_is_null_in_the_manifest(
        tmp_path, monkeypatch):
    # it was NaN, which the manifest held as a bare `NaN`
    def no_ratio(raw, asyn):
        raise NumericalError("corrected fit has zero chi-square")

    monkeypatch.setattr(pipeline, "chi2_ratio", no_ratio)
    days_i, days_j = small_days()
    result = analyze_pair(days_i, days_j, [1.0, 5.0], 40.0)
    assert result["chi2_ratio"] is None
    write_artifacts(result, str(tmp_path), ("i", "j"), {"config": {}})
    manifest = strict_json((tmp_path / "manifest.json").read_text())
    assert manifest["chi2_ratio"] is None


def assert_same_fit(fit, standalone):
    assert fit.params == standalone.params
    assert fit.chi2 == standalone.chi2
    np.testing.assert_array_equal(list(fit.stderr.values()),
                                  list(standalone.stderr.values()))
    np.testing.assert_array_equal(fit.cov, standalone.cov)


def test_analyze_pair_fits_are_the_standalone_fits():
    days_i, days_j = small_days()
    out = analyze_pair(days_i, days_j, [1.0, 5.0], 40.0)
    assert out["fit_failures"] == {}
    cg = out["cg_cross"]
    assert_same_fit(out["fits"]["cross_raw"], fitting.fit_cross_raw(cg))
    rates = out["rate_i"], out["rate_j"]
    assert_same_fit(out["fits"]["cross_async"],
                    fitting.fit_cross_async(cg, *rates))
    for key, lam in zip(("auto_i", "auto_j"), rates):
        cg = out[f"cg_{key}"]
        assert_same_fit(out["fits"][f"{key}_raw"], fitting.fit_auto_raw(cg))
        assert_same_fit(out["fits"][f"{key}_async"],
                        fitting.fit_auto_async(cg, lam))


def test_analyze_pair_transforms_each_block_of_days_seven_times(
        monkeypatch):
    # 9 days of 3 000 steps (5-smooth) make blocks of 4, 4 and 1; a 40 s
    # window takes the FFT path
    days_i, days_j = small_days(n_days=9)
    calls = []

    def counting(name, fn):
        def counted(x, *args, **kwargs):
            calls.append((name, np.shape(x)[0]))
            return fn(x, *args, **kwargs)
        return counted

    for name in ("rfft", "irfft", "fft", "ifft"):
        monkeypatch.setattr(scipy.fft, name,
                            counting(name, getattr(scipy.fft, name)))
    analyze_pair(days_i, days_j, [1.0, 5.0], 40.0)
    # per block: the correlograms' two padded rFFTs and three irFFTs
    # (cross and both autos), then the spectra's two rFFTs; last, one
    # irFFT of the filtered cross spectrum's 1 501 bins for its correlogram
    # and one of the three filtered spectra for the Epps curve
    per_block = ["rfft"] * 2 + ["irfft"] * 3
    assert calls == ([(f, rows) for rows in (4, 4, 1) for f in per_block]
                     + [("rfft", rows) for rows in (4, 4, 1) for _ in "ij"]
                     + [("irfft", 1501), ("irfft", 3)])


def test_run_pipeline_outputs_and_manifest(tmp_path, model_file):
    config = RunConfig(model_file=model_file, lambda_i=1.0, lambda_j=0.3,
                       n_days=4, length=3000.0, dt_grid=(1.0, 5.0, 20.0),
                       max_lag=40.0, seed=3)
    out_dir = tmp_path / "out"
    manifest = run_pipeline(config, str(out_dir))
    expected = {"epps_raw.csv", "epps_filtered.csv", "correlogram_cross.csv",
                "correlogram_cross_filtered.csv", "correlogram_auto_i.csv",
                "correlogram_auto_j.csv", "spectrum_cross.csv",
                "spectrum_cross_filtered.csv", "fits.csv"}
    assert set(manifest["files"]) == expected
    for name in expected:
        assert (out_dir / name).exists()
    assert (out_dir / "manifest.json").exists()
    on_disk = json.loads((out_dir / "manifest.json").read_text())
    assert on_disk["files"] == manifest["files"]
    assert on_disk["seed"] == 3
    assert abs(on_disk["rate_i"] - 1.0) < 0.1
    assert abs(on_disk["rate_j"] - 0.3) < 0.05
    fits = (out_dir / "fits.csv").read_text().splitlines()
    assert len(fits) == 7  # header + six fits
    assert fits[0].startswith("i,j,family")
    # why each fit is degenerate, and what it cost, per fit
    flags = {row.split(",")[2]: row.split(",")[-1] for row in fits[1:]}
    reasons = {"amplitude", "non_finite", "xi_above_range", "xi_below_range",
               "tau_outside_range"}
    diagnostics = on_disk["fit_diagnostics"]
    assert set(diagnostics) == FIT_NAMES
    for name, diag in diagnostics.items():
        assert set(diag["degenerate_reasons"]) <= reasons
        assert diag["nfev"] > 0
        family = name.replace("_i_", "_").replace("_j_", "_")
        if name.startswith("cross"):
            assert flags[family] == str(int(bool(diag["degenerate_reasons"])))


def test_run_pipeline_bit_identical_reruns(tmp_path, model_file):
    config = RunConfig(model_file=model_file, lambda_i=0.8, lambda_j=0.4,
                       n_days=3, length=2000.0, dt_grid=(1.0, 10.0),
                       max_lag=30.0, seed=11)
    m1 = run_pipeline(config, str(tmp_path / "a"))
    m2 = run_pipeline(config, str(tmp_path / "b"))
    assert m1["files"] == m2["files"]
    m3 = run_pipeline(RunConfig(**{**m1["config"], "seed": 12,
                                   "dt_grid": config.dt_grid}),
                      str(tmp_path / "c"))
    assert m3["files"] != m1["files"]


def figure_config(tmp_path, **overrides):
    model = tmp_path / "figure_model.txt"
    model.write_text(_FIGURE_MODEL)
    return RunConfig(**{"model_file": str(model), "lambda_i": 1.0,
                        "lambda_j": 1.0, "n_days": 5, "length": 800.0,
                        "max_lag": 40.0, "seed": 5692, **overrides})


def test_run_pipeline_backfills_a_day_without_a_warmup_tick(tmp_path):
    # at this seed an asset-day has no tick in its warm-up; it is
    # back-filled to the window start, as `epps estimate` does
    manifest = run_pipeline(figure_config(tmp_path), str(tmp_path / "out"))
    assert manifest["n_days_spectra"] == 5
    assert manifest["open_ticks_missing"] >= 1
    on_disk = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert on_disk["open_ticks_missing"] == manifest["open_ticks_missing"]


def test_run_pipeline_normalizes_each_asset_day_once(tmp_path, monkeypatch):
    grids = []
    renormalized = []

    def grid(ts, *args):
        grids.append((ts.asset_id, ts.day_id))
        return grid_and_normalize(ts, *args)

    def increments(series, normalize):
        if normalize:
            renormalized.append(series)
        return normalized_increments(series, normalize)

    normalized_increments = estimation._normalized_increments
    monkeypatch.setattr(pipeline, "grid_and_normalize", grid)
    monkeypatch.setattr(estimation, "_normalized_increments", increments)
    run_pipeline(figure_config(tmp_path, n_days=3, seed=1),
                 str(tmp_path / "out"))
    assert sorted(grids) == sorted((a, f"d{d:03d}") for a in "ij"
                                   for d in range(3))
    assert renormalized == []


def test_run_pipeline_holds_one_block_of_paths(tmp_path, monkeypatch):
    # each simulated day is gridded as its path is drawn: while any day is
    # gridded, at most the two paths of one block are alive
    refs, alive = [], []

    def simulate(*args, **kwargs):
        for path in simulate_ensemble(*args, **kwargs):
            refs.append(weakref.ref(path.levels))
            yield path

    def grid(ts, *args):
        alive.append(sum(ref() is not None for ref in refs))
        return grid_and_normalize(ts, *args)

    simulate_ensemble = pipeline.simulate_ensemble
    monkeypatch.setattr(pipeline, "simulate_ensemble", simulate)
    monkeypatch.setattr(pipeline, "grid_and_normalize", grid)
    run_pipeline(figure_config(tmp_path, n_days=6, seed=1),
                 str(tmp_path / "out"))
    assert len(refs) == 6 and len(alive) == 12
    assert max(alive) <= 2


def test_run_pipeline_replay_mode(tmp_path, model_file):
    times = np.round(np.cumsum(np.full(3200, 0.7)) - 9.8, 4)
    tick_f = tmp_path / "times.csv"
    tick_f.write_text("tick_time\n"
                      + "".join(f"{t}\n" for t in times))
    config = RunConfig(model_file=model_file, n_days=2, length=2000.0,
                       dt_grid=(1.0, 10.0), max_lag=30.0, seed=5,
                       replay_ticks_i=str(tick_f), replay_ticks_j=str(tick_f))
    manifest = run_pipeline(config, str(tmp_path / "out"))
    # every replayed day carries identical times, so the measured rate is
    # the file's in-window tick count over the session length
    n_in = np.sum((times >= 0) & (times <= 2000.0))
    assert manifest["rate_i"] == pytest.approx(n_in / 2000.0)
    assert manifest["rate_i"] == manifest["rate_j"]


def test_run_pipeline_names_an_asset_day_it_cannot_grid(tmp_path,
                                                       model_file):
    # every replayed time falls in the warm-up: no tick in the window
    tick_f = tmp_path / "times.csv"
    tick_f.write_text("tick_time\n-5\n-1\n")
    config = RunConfig(model_file=model_file, n_days=2, length=2000.0,
                       dt_grid=(1.0,), max_lag=30.0,
                       replay_ticks_i=str(tick_f), replay_ticks_j=str(tick_f))
    with pytest.raises(DataError, match="day d000, asset i: no ticks"):
        run_pipeline(config, str(tmp_path / "out"))


def test_run_pipeline_replay_requires_both_files(tmp_path, model_file):
    config = RunConfig(model_file=model_file, n_days=2, length=2000.0,
                       dt_grid=(1.0,), max_lag=30.0,
                       replay_ticks_i="only_one.csv")
    with pytest.raises(DataError):
        run_pipeline(config, str(tmp_path / "out"))
