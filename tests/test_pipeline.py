import json
import math
import os
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from epps import pipeline
from epps.errors import DataError
from epps.pipeline import (SessionSpec, TickSeries, RunConfig, load_ticks,
                           grid_and_normalize, analyze_pair, run_pipeline)
from epps.sampling import simulate_ensemble, draw_poisson_times, previous_tick
from epps.kernels import CorrelationModel, ModelPair


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


def test_tick_series_validation():
    with pytest.raises(DataError):
        TickSeries("a", "d", np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    with pytest.raises(DataError):
        TickSeries("a", "d", np.array([1.0, 2.0]), np.array([0.0]))


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
    the non-finite rule."""
    session = session or SessionSpec()
    buckets = {}
    errors = []

    def bad(lineno, msg):
        errors.append(f"line {lineno}: {msg}")
        if fail_fast:
            raise DataError(errors[-1])

    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "asset,day,time_sec,price":
            raise DataError("expected header 'asset,day,time_sec,price'")
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
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
            if not session.window_start <= t <= session.window_end:
                continue
            key = (asset, day)
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
            log_prices=np.asarray(logs))
    return series, errors


_SESSION = SessionSpec(length=10.0)
_TIMES = [f"{_SESSION.window_start + dt:.6f}"
          for dt in (-0.5, 0.0, 0.000001, 1.0, 1.25, 2.5, 9.999999, 10.0, 10.5)]
_PAD = st.sampled_from(["", " ", "\t", "  "])


@st.composite
def _tick_line(draw):
    kind = draw(st.sampled_from(
        ["good"] * 6 + ["fields", "unparseable", "nonpositive", "non-finite",
                        "blank"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    asset = draw(st.sampled_from(["A", "B", "AB"]))
    day = draw(st.sampled_from(["d1", "d2"]))
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
    fields = [asset, day, t, price]
    if kind == "fields":
        n = draw(st.sampled_from([1, 2, 3, 5, 6]))
        fields = (fields + ["extra", "more"])[:n]
    return ",".join(draw(_PAD) + f + draw(_PAD) for f in fields)


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(_tick_line(), max_size=60),
       chunk=st.sampled_from([1, 40, 200, 1 << 20]),
       trailing_newline=st.booleans())
def test_load_ticks_matches_rowwise_reference(lines, chunk, trailing_newline):
    text = "asset,day,time_sec,price\n" + "\n".join(lines)
    if trailing_newline:
        text += "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ticks.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        want, want_errors = load_ticks_rowwise(path, _SESSION)
        with mock.patch.object(pipeline, "_CHUNK_BYTES", chunk):
            got, errors = load_ticks(path, _SESSION)
            assert errors == want_errors
            assert list(got) == list(want)
            for key, ts in want.items():
                assert got[key].times.tobytes() == ts.times.tobytes()
                np.testing.assert_array_max_ulp(got[key].log_prices,
                                                ts.log_prices, maxulp=1)
            if want_errors:
                with pytest.raises(DataError) as exc:
                    load_ticks(path, _SESSION, fail_fast=True)
                assert str(exc.value) == want_errors[0]


def test_grid_and_normalize_drops_leading_cells():
    session = SessionSpec(length=100.0)
    ts = TickSeries("a", "d", times=np.array([2.4, 10.0, 50.0, 90.0]),
                    log_prices=np.array([0.0, 1.0, -1.0, 2.0]))
    s = grid_and_normalize(ts, grid_dt=1.0, session=session)
    assert s.start == 3.0
    assert s.levels.size == 98
    incr = s.increments
    assert np.mean(incr) == pytest.approx(0.0, abs=1e-12)
    assert np.std(incr) == pytest.approx(1.0, rel=1e-12)


def test_grid_and_normalize_skips_degenerate_days():
    session = SessionSpec(length=100.0)
    one_tick = TickSeries("a", "d", times=np.array([5.0]),
                          log_prices=np.array([1.0]))
    assert grid_and_normalize(one_tick, session=session) is None
    flat = TickSeries("a", "d", times=np.array([5.0, 50.0]),
                      log_prices=np.array([1.0, 1.0]))
    assert grid_and_normalize(flat, session=session) is None
    late = TickSeries("a", "d", times=np.array([99.2, 99.7]),
                      log_prices=np.array([1.0, 2.0]))
    assert grid_and_normalize(late, session=session) is None


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


def small_days(n_days=6, length=3000.0, li=1.0, lj=0.3, seed=1):
    pair = ModelPair(cross=CorrelationModel(width=8.0, exp_weight=0.4),
                     auto_i=CorrelationModel(delta_weight=1.0),
                     auto_j=CorrelationModel(delta_weight=1.0))
    warmup = 10.0 / min(li, lj)
    paths = simulate_ensemble(pair, 1.0, length, n_days, seed=seed,
                              warmup=warmup)
    days_i, days_j = [], []
    for d, p in enumerate(paths):
        ti = draw_poisson_times(li, length, warmup, seed=seed, stream=2 * d)
        tj = draw_poisson_times(lj, length, warmup, seed=seed,
                                stream=2 * d + 1)
        days_i.append(previous_tick(p, ti, asset=0, start=0.0, end=length))
        days_j.append(previous_tick(p, tj, asset=1, start=0.0, end=length))
    return days_i, days_j


def test_analyze_pair_returns_complete_artifact_set():
    days_i, days_j = small_days()
    out = analyze_pair(days_i, days_j, 1.0, 0.3, [1.0, 5.0, 20.0], 40.0)
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


def test_run_pipeline_replay_requires_both_files(tmp_path, model_file):
    config = RunConfig(model_file=model_file, n_days=2, length=2000.0,
                       dt_grid=(1.0,), max_lag=30.0,
                       replay_ticks_i="only_one.csv")
    with pytest.raises(DataError):
        run_pipeline(config, str(tmp_path / "out"))
