import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

import epps.cli as cli_mod
import epps.ticks
from epps import pipeline
from epps.async_theory import async_variance
from epps.cli import main
from epps.errors import DataError, NumericalError
from epps.estimation import (Correlogram, write_correlogram_csv,
                             EppsCurve, write_epps_csv, read_epps_csv,
                             SpectrumEstimate, write_spectrum_csv,
                             read_spectrum_csv)
from epps.fitting import _auto_raw_fj, _cross_raw_fj
from epps.kernels import parse_model_text, sync_covariance, sync_rho
from epps.ticks import SessionSpec, load_ticks
from epps.sampling import draw_poisson_times, simulate_ensemble


MODEL_TEXT = """\
cross.c = 0.4
cross.tau = 0
cross.xi = 8
auto_i.a = 1
auto_j.a = 1
"""


@pytest.fixture
def model_file(tmp_path):
    f = tmp_path / "model.txt"
    f.write_text(MODEL_TEXT)
    return str(f)


def test_usage_error_exits_1(tmp_path, model_file, capsys):
    assert main(["theory", "--model", model_file,
                 "--quantity", "bogus"]) == 1
    assert main(["simulate", "--model", str(tmp_path / "missing.txt"),
                 "--out", str(tmp_path)]) == 1


def test_data_error_exits_2(tmp_path, capsys):
    bad_model = tmp_path / "bad.txt"
    bad_model.write_text("cross.c 0.4\n")
    assert main(["theory", "--model", str(bad_model)]) == 2
    bad_ticks = tmp_path / "ticks.csv"
    bad_ticks.write_text("wrong,header\n")
    assert main(["estimate", "--ticks", str(bad_ticks), "--asset-i", "i",
                 "--asset-j", "j", "--out", str(tmp_path / "o")]) == 2


def test_run_rejects_unknown_filter_mode(tmp_path, model_file, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model_file": model_file,
                               "filter_mode": "bogus"}))
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "filter_mode" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_numerical_error_exits_3(tmp_path, model_file, monkeypatch, capsys):
    def boom(config, out_dir):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli_mod, "run_pipeline", boom)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model_file": model_file}))
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 3
    assert "numerical error" in capsys.readouterr().err


def test_theory_rho_to_stdout(model_file, capsys):
    assert main(["theory", "--model", model_file, "--quantity", "rho",
                 "--lambda-i", "1", "--lambda-j", "1",
                 "--grid", "1,10,1000"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "dt,rho"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [float(r[0]) for r in rows] == [1.0, 10.0, 1000.0]
    # correlation is depressed at short horizons and recovers to c
    assert float(rows[0][1]) < float(rows[1][1]) < float(rows[2][1])
    assert float(rows[2][1]) == pytest.approx(0.4, abs=1e-2)


@pytest.mark.parametrize("quantity,rates", [
    ("variance", ("inf", "0.3")),
    ("variance", ("0.1", "inf")),
    ("rho", ("inf", "inf")),
])
def test_theory_variance_and_infinite_rates(tmp_path, capsys, quantity,
                                            rates):
    text = ("cross.c=0.4\ncross.tau=2\ncross.xi=10\n"
            "auto_i.a=1\nauto_i.b=-0.3\nauto_i.xi=10\nauto_j.a=1\n")
    model = tmp_path / "model.txt"
    model.write_text(text)
    grid = "0.5,1,7,30,400"
    assert main(["theory", "--model", str(model), "--quantity", quantity,
                 "--lambda-i", rates[0], "--lambda-j", rates[1],
                 "--grid", grid]) == 0
    pair = parse_model_text(text)
    xs = np.array([float(x) for x in grid.split(",")])
    lam = float(rates[0])
    if quantity == "rho":
        ys = sync_rho(pair, xs)
    elif math.isinf(lam):
        ys = sync_covariance(pair.auto_i, xs)
    else:
        ys = async_variance(pair.auto_i, lam, xs)
    expected = "".join([f"dt,{quantity}\n"] + [
        f"{x:.10g},{y:.17g}\n" for x, y in zip(xs, ys)])
    assert capsys.readouterr().out == expected


def test_theory_crosscorr_writes_file(model_file, tmp_path):
    out = tmp_path / "cc.csv"
    assert main(["theory", "--model", model_file, "--quantity", "crosscorr",
                 "--lambda-i", "1", "--lambda-j", "0.05",
                 "--grid", "-10,0,10", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "tau,crosscorr"
    vals = {float(ln.split(",")[0]): float(ln.split(",")[1])
            for ln in lines[1:]}
    assert vals[10.0] > vals[-10.0]  # slow asset trails the fast one


def test_simulate_sample_estimate_chain(model_file, tmp_path, capsys):
    paths_dir = tmp_path / "paths"
    # the estimate command assumes the standard session window, so the
    # simulated horizon must cover it
    assert main(["simulate", "--model", model_file, "--horizon", "20000",
                 "--days", "2", "--seed", "4",
                 "--out", str(paths_dir)]) == 0
    files = sorted(os.listdir(paths_dir))
    assert files == ["path_d000.csv", "path_d001.csv"]

    ticks = tmp_path / "ticks.csv"
    assert main(["sample", "--paths", str(paths_dir), "--lambda-i", "1",
                 "--lambda-j", "0.3", "--seed", "4",
                 "--out", str(ticks)]) == 0
    head = ticks.read_text().splitlines()
    assert head[0] == "asset,day,time_sec,price"
    assert len(head) > 2000

    out_dir = tmp_path / "est"
    assert main(["estimate", "--ticks", str(ticks), "--asset-i", "i",
                 "--asset-j", "j", "--dt-grid", "1,5,20",
                 "--max-lag", "40", "--out", str(out_dir)]) == 0
    artifacts = {"epps_raw.csv", "epps_filtered.csv", "correlogram_cross.csv",
                 "correlogram_cross_filtered.csv", "correlogram_auto_i.csv",
                 "correlogram_auto_j.csv", "spectrum_cross.csv",
                 "spectrum_cross_filtered.csv", "fits.csv"}
    assert set(os.listdir(out_dir)) == artifacts | {"manifest.json"}
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["files"] == {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in artifacts}
    assert manifest["config"]["asset_i"] == "i"
    assert manifest["records_skipped"] == 0
    # `epps sample` writes the warm-up ticks: only an asset-day whose
    # 10 s warm-up drew no tick is back-filled, and every day enters the
    # spectra
    assert manifest["n_days_spectra"] == 2
    assert manifest["open_ticks_missing"] == sum(
        draw_poisson_times(lam, 20000.0, 10.0, 4, stream=2 * d + a)[0] >= 0
        for d in range(2) for a, lam in enumerate((1.0, 0.3)))
    assert manifest["fit_failures"] == {}
    fits = (out_dir / "fits.csv").read_text().splitlines()
    assert len(fits) == 7
    assert "analyzed 2 days" in capsys.readouterr().out
    again = tmp_path / "est_again"
    assert main(["estimate", "--ticks", str(ticks), "--asset-i", "i",
                 "--asset-j", "j", "--dt-grid", "1,5,20",
                 "--max-lag", "40", "--out", str(again)]) == 0
    assert ((again / "manifest.json").read_text()
            == (out_dir / "manifest.json").read_text())

    # `epps run` writes the same file set through the same writer
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model_file": model_file, "lambda_i": 1.0, "lambda_j": 0.3,
        "n_days": 2, "length": 2000.0, "dt_grid": [1, 10],
        "max_lag": 30.0, "seed": 1}))
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "run")]) == 0
    assert set(os.listdir(tmp_path / "run")) == set(os.listdir(out_dir))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), days=st.integers(1, 3))
def test_simulate_sample_load_round_trip(seed, days):
    # a short horizon keeps the exp(level) prices of `epps sample` finite
    with tempfile.TemporaryDirectory() as tmp:
        model = os.path.join(tmp, "model.txt")
        with open(model, "w", encoding="utf-8") as fh:
            fh.write(MODEL_TEXT)
        paths_dir = os.path.join(tmp, "paths")
        ticks = os.path.join(tmp, "ticks.csv")
        assert main(["simulate", "--model", model, "--horizon", "1000",
                     "--days", str(days), "--seed", str(seed),
                     "--out", paths_dir]) == 0
        assert main(["sample", "--paths", paths_dir, "--lambda-i", "1",
                     "--lambda-j", "0.3", "--seed", str(seed),
                     "--out", ticks]) == 0
        with open(ticks, "r", encoding="utf-8") as fh:
            times = [float(row.split(",")[2]) for row in fh.readlines()[1:]]
        session = SessionSpec()
        in_window = sum(session.window_start <= t <= session.window_end
                        for t in times)
        # the other rows are the ticks of the 10 s warm-up
        assert 0 < in_window <= len(times)
        assert min(times) >= session.window_start - 10.0
        with mock.patch.multiple(epps.ticks, _RANGE_BYTES=1000,
                                 _cpus=lambda: 3):
            series, errors = load_ticks(ticks)
    assert sum(s.times.size for s in series.values()) + len(errors) \
        == in_window


def assert_same_artifacts(got, want):
    """Every number of every CSV of `want` agrees with `got`: within 1e-12
    absolute, and in `fits.csv` within 1e-6 relative."""
    names = sorted(f for f in os.listdir(want) if f.endswith(".csv"))
    assert sorted(f for f in os.listdir(got) if f.endswith(".csv")) == names
    for name in names:
        lines = {d: (d / name).read_text().splitlines() for d in (got, want)}
        assert len(lines[got]) == len(lines[want]), name
        for a, b in zip(lines[got], lines[want]):
            split = [ln.lstrip("# ").replace("=", ",").split(",")
                     for ln in (a, b)]
            numeric = [[_number(x) for x in fields] for fields in split]
            # labels, header names and meta keys are equal as text
            assert [x for x, v in zip(split[0], numeric[0]) if v is None] \
                == [x for x, v in zip(split[1], numeric[1]) if v is None], \
                (name, a, b)
            x, y = (np.array([v for v in vs if v is not None])
                    for vs in numeric)
            if name == "fits.csv":
                np.testing.assert_allclose(x, y, rtol=1e-6, atol=0,
                                           err_msg=f"{name}: {a} vs {b}")
            else:
                np.testing.assert_allclose(x, y, rtol=0, atol=1e-12,
                                           err_msg=f"{name}: {a} vs {b}")


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _assert_round_trip_reproduces_run(tmp_path, model_file, rates, seed,
                                      days, replay=None):
    """`epps simulate | sample | estimate` of `days` days of a 2 000 s
    session writes what `epps run` writes at the same seed, rates and
    run warm-up: `assert_same_artifacts`, and equal rates and counts in the
    manifests.  `replay` names the tick-time files of both assets, which
    both runs then replay."""
    warmup = max(10.0 / lam for lam in rates)
    dt_grid, max_lag, length = "1,5,20,100", "40", "2000"
    config = {"model_file": model_file, "lambda_i": rates[0],
              "lambda_j": rates[1], "n_days": days, "length": float(length),
              "dt_grid": [float(x) for x in dt_grid.split(",")],
              "max_lag": float(max_lag), "seed": seed}
    replay_args = []
    if replay:
        config.update(replay_ticks_i=replay[0], replay_ticks_j=replay[1])
        replay_args = ["--replay-i", replay[0], "--replay-j", replay[1]]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "run")]) == 0

    paths_dir = tmp_path / "paths"
    ticks = tmp_path / "ticks.csv"
    assert main(["simulate", "--model", model_file, "--horizon", length,
                 "--days", str(days), "--seed", str(seed),
                 "--warmup", repr(warmup), "--out", str(paths_dir)]) == 0
    assert main(["sample", "--paths", str(paths_dir),
                 "--lambda-i", str(rates[0]), "--lambda-j", str(rates[1]),
                 "--seed", str(seed), *replay_args, "--out", str(ticks)]) == 0
    assert main(["estimate", "--ticks", str(ticks), "--asset-i", "i",
                 "--asset-j", "j", "--dt-grid", dt_grid, "--max-lag", max_lag,
                 "--session-length", length,
                 "--out", str(tmp_path / "est")]) == 0

    assert_same_artifacts(tmp_path / "est", tmp_path / "run")
    est, run = (json.loads((tmp_path / d / "manifest.json").read_text())
                for d in ("est", "run"))
    for key in ("rate_i", "rate_j", "open_ticks_missing", "n_days_spectra",
                "fit_failures"):
        assert est[key] == run[key], key
    assert est["records_skipped"] == 0
    assert est["config"]["session_length"] == float(length)


def test_simulate_sample_estimate_reproduces_run(model_file, tmp_path):
    # rates 0.3 and 0.12 make a warm-up of 83.33 s, not a whole number of
    # grid steps: the path's last grid time is 0.33 s before the window end.
    # At 2 days the cross_async optimum is flat: a fit that stops where
    # chi-square values no longer resolve it ended 1e-5 apart on inputs
    # that differ by round-off
    for days in (4, 2):
        (tmp_path / str(days)).mkdir()
        _assert_round_trip_reproduces_run(tmp_path / str(days), model_file,
                                          (0.3, 0.12), seed=5, days=days)


def test_sampled_ticks_keep_their_grid_cells_through_a_tick_file(
        model_file, tmp_path):
    # the tick file keeps times to 1 us: a tick 0.3 us after a grid time
    # would read back at that grid time and set its level a step early, and
    # two ticks in one microsecond would read back equal, the second
    # rejected
    rng = np.random.default_rng(7)
    times_i, times_j = (-9.5 + np.cumsum(rng.exponential(1 / lam, n))
                        for lam, n in ((1.0, 2000), (0.5, 1000)))
    times_i = np.sort(np.concatenate((times_i,
                                      [100.0000003, 300.0000011,
                                       300.0000014])))
    replay = []
    for name, times in (("times_i.csv", times_i), ("times_j.csv", times_j)):
        (tmp_path / name).write_text(
            "tick_time\n" + "".join(f"{t!r}\n" for t in times.tolist()))
        replay.append(str(tmp_path / name))
    _assert_round_trip_reproduces_run(tmp_path, model_file, (1.0, 0.5),
                                      seed=2, days=4, replay=replay)


def test_a_path_file_gives_back_the_path_it_was_written_from(model_file,
                                                            tmp_path):
    # a 10 / 0.3 s warm-up and a 0.1 s step have no short decimal form
    warmup, grid_dt = 10 / 0.3, 0.1
    assert main(["simulate", "--model", model_file, "--horizon", "1000",
                 "--grid-dt", repr(grid_dt), "--warmup", repr(warmup),
                 "--seed", "3", "--out", str(tmp_path / "paths")]) == 0
    [want] = simulate_ensemble(cli_mod.load_model_file(model_file), grid_dt,
                               1000.0, 1, seed=3, warmup=warmup)
    got, horizon = cli_mod._read_path_csv(
        str(tmp_path / "paths" / "path_d000.csv"))
    assert (got.t0, got.grid_dt, horizon) == (want.t0, want.grid_dt, 1000.0)
    np.testing.assert_array_equal(got.levels, want.levels)


def test_sample_keeps_ticks_microseconds_apart(model_file, tmp_path):
    paths_dir = tmp_path / "paths"
    assert main(["simulate", "--model", model_file, "--horizon", "2000",
                 "--days", "1", "--seed", "2",
                 "--out", str(paths_dir)]) == 0
    replay_i = tmp_path / "times_i.csv"
    replay_i.write_text("tick_time\n100\n100.000003\n200\n")
    replay_j = tmp_path / "times_j.csv"
    replay_j.write_text("tick_time\n50\n150\n")
    ticks = tmp_path / "ticks.csv"
    assert main(["sample", "--paths", str(paths_dir),
                 "--replay-i", str(replay_i), "--replay-j", str(replay_j),
                 "--out", str(ticks)]) == 0
    series, errors = load_ticks(str(ticks))
    assert errors == []
    np.testing.assert_allclose(series[("i", "d000")].times,
                               [100.0, 100.000003, 200.0], rtol=0, atol=1e-7)
    assert series[("j", "d000")].times.size == 2


def test_sample_drops_replayed_times_after_the_horizon(model_file, tmp_path):
    paths_dir = tmp_path / "paths"
    assert main(["simulate", "--model", model_file, "--horizon", "2000",
                 "--days", "2", "--seed", "2",
                 "--out", str(paths_dir)]) == 0
    # -5 lies in the 10 s warm-up: it is written, and it is the open tick
    replay_i = tmp_path / "times_i.csv"
    replay_i.write_text("tick_time\n-5\n100\n1999.5\n2500\n")
    replay_j = tmp_path / "times_j.csv"
    replay_j.write_text("tick_time\n50\n2000\n2000.5\n")
    ticks = tmp_path / "ticks.csv"
    assert main(["sample", "--paths", str(paths_dir),
                 "--replay-i", str(replay_i), "--replay-j", str(replay_j),
                 "--out", str(ticks)]) == 0
    series, errors = load_ticks(str(ticks))
    assert errors == []
    for day in ("d000", "d001"):
        np.testing.assert_allclose(series[("i", day)].times, [100.0, 1999.5])
        np.testing.assert_allclose(series[("j", day)].times, [50.0, 2000.0])
        assert series[("i", day)].open_tick[0] == pytest.approx(-5.0)
        assert series[("j", day)].open_tick is None


@pytest.mark.parametrize("command", ["sample", "run"])
def test_a_replayed_time_before_the_path_start_is_a_data_error(
        command, model_file, tmp_path, capsys):
    # both paths start 10 s before the window; `epps sample` once dropped
    # such a time without a word
    early = tmp_path / "early.csv"
    early.write_text("tick_time\n-20\n5\n")
    fine = tmp_path / "fine.csv"
    fine.write_text("tick_time\n-5\n5\n")
    out = tmp_path / "out"
    if command == "sample":
        paths_dir = tmp_path / "paths"
        assert main(["simulate", "--model", model_file, "--horizon", "2000",
                     "--out", str(paths_dir)]) == 0
        args = ["sample", "--paths", str(paths_dir), "--replay-i", str(fine),
                "--replay-j", str(early), "--out", str(out)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model_file": model_file, "n_days": 1, "length": 2000.0,
            "max_lag": 30.0, "replay_ticks_i": str(fine),
            "replay_ticks_j": str(early)}))
        args = ["run", "--config", str(cfg), "--out", str(out)]
    assert main(args) == 2
    assert capsys.readouterr().err == (
        f"data error: {early}: replayed time -20 is before the path start "
        "-10\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "run"])
def test_replayed_tick_times_must_be_finite(command, model_file, tmp_path,
                                            capsys):
    # NaN compares false, so a NaN row once passed the increasing check and
    # the times around it went backwards
    replay = tmp_path / "times.csv"
    replay.write_text("tick_time\n1\nnan\n0.5\n")
    out = tmp_path / "out"
    if command == "sample":
        paths_dir = tmp_path / "paths"
        assert main(["simulate", "--model", model_file, "--horizon", "2000",
                     "--out", str(paths_dir)]) == 0
        args = ["sample", "--paths", str(paths_dir), "--replay-i",
                str(replay), "--replay-j", str(replay), "--out", str(out)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model_file": model_file, "n_days": 1, "length": 2000.0,
            "max_lag": 30.0, "replay_ticks_i": str(replay),
            "replay_ticks_j": str(replay)}))
        args = ["run", "--config", str(cfg), "--out", str(out)]
    assert main(args) == 2
    assert (f"data error: {replay}: tick times must be finite"
            in capsys.readouterr().err)
    assert not out.exists()


def test_filter_cli_inverse_and_wiener(tmp_path, capsys):
    rng = np.random.default_rng(1)
    gamma = np.zeros(64)
    gamma[0] = 2.0
    s_n = np.fft.ifft(gamma).conj()[:33] * 64  # flat spectrum, value 2
    spec = SpectrumEstimate(T=64, n_days=1, s_n=s_n, grid_dt=1.0)
    f_in = tmp_path / "spec.csv"
    write_spectrum_csv(spec, f_in)

    f_out = tmp_path / "flat.csv"
    assert main(["filter", "--spectrum", str(f_in), "--lambda-i", "1e9",
                 "--lambda-j", "1e9", "--out", str(f_out)]) == 0
    back = read_spectrum_csv(f_out)
    np.testing.assert_allclose(back.s_n, spec.s_n, rtol=1e-6, atol=1e-9)

    f_w = tmp_path / "wiener.csv"
    assert main(["filter", "--spectrum", str(f_in), "--lambda-i", "0.5",
                 "--lambda-j", "0.5", "--mode", "wiener", "--snr", "1e12",
                 "--out", str(f_w)]) == 0
    wiener = read_spectrum_csv(f_w)
    inv = tmp_path / "inv.csv"
    assert main(["filter", "--spectrum", str(f_in), "--lambda-i", "0.5",
                 "--lambda-j", "0.5", "--out", str(inv)]) == 0
    np.testing.assert_allclose(wiener.s_n, read_spectrum_csv(inv).s_n,
                               rtol=1e-6)

    assert main(["filter", "--spectrum", str(f_in), "--lambda-i", "0.5",
                 "--lambda-j", "0.5", "--mode", "wiener", "--snr", "oops",
                 "--out", str(f_w)]) == 1
    # an SNR only damps the Wiener filter; the inverse one rejects it
    assert main(["filter", "--spectrum", str(f_in), "--lambda-i", "0.5",
                 "--lambda-j", "0.5", "--snr", "3", "--out", str(f_w)]) == 2
    assert "wiener" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["inverse", "wiener"])
@pytest.mark.parametrize("rates", [("nan", "0.5"), ("0.5", "nan"),
                                   ("-1", "0.5"), ("0.5", "0")])
def test_filter_rejects_a_rate_that_is_not_positive(mode, rates, tmp_path,
                                                     capsys):
    # a NaN rate passed a `<= 0` test: the Wiener mode said "rate split
    # leaves an empty frequency band", as it did for a negative rate, and
    # the inverse mode named discrete_kernel
    f_in = tmp_path / "spec.csv"
    write_spectrum_csv(SpectrumEstimate(T=64, n_days=1, grid_dt=1.0,
                                        s_n=np.ones(33, dtype=complex)), f_in)
    out = tmp_path / "out.csv"
    assert main(["filter", "--spectrum", str(f_in), "--lambda-i", rates[0],
                 "--lambda-j", rates[1], "--mode", mode,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "data error: sampling rates must be > 0")
    assert not out.exists()


@pytest.fixture(scope="module")
def two_second_estimates(tmp_path_factory):
    """`epps estimate` of an 8-day tick file on a 2 s grid, with the inverse
    and with the Wiener filter at an estimated snr: {mode: (out_dir,
    manifest)}."""
    root = tmp_path_factory.mktemp("two_second")
    ticks = root / "ticks.csv"
    write_tick_csv(ticks, (1.0, 0.3), n_days=8)
    estimates = {}
    for mode in ("inverse", "wiener"):
        out = root / mode
        assert main(["estimate", "--ticks", str(ticks), "--asset-i", "A",
                     "--asset-j", "B", "--grid-dt", "2",
                     "--dt-grid", "2,4,10,20,50,100", "--filter-mode", mode,
                     "--out", str(out)]) == 0
        estimates[mode] = out, json.loads((out / "manifest.json").read_text())
    return estimates


@pytest.mark.parametrize("mode", ["inverse", "wiener"])
def test_filter_reproduces_the_filtered_spectrum_of_a_2s_estimate(
        mode, two_second_estimates, tmp_path):
    # without its own --grid-dt, the filter took a 1 s step: its output
    # was up to 2.2 times the largest bin away from the estimate's
    out, manifest = two_second_estimates[mode]
    got = tmp_path / "filtered.csv"
    snr = ["--mode", "wiener", "--snr", "auto"] if mode == "wiener" else []
    assert main(["filter", "--spectrum", str(out / "spectrum_cross.csv"),
                 "--lambda-i", repr(manifest["rate_i"]),
                 "--lambda-j", repr(manifest["rate_j"]), *snr,
                 "--out", str(got)]) == 0
    assert "# grid_dt=2\n" in got.read_text()
    want = out / "spectrum_cross_filtered.csv"
    assert got.read_bytes() == want.read_bytes()


def test_fit_reproduces_the_cross_fits_of_an_estimate(two_second_estimates,
                                                      tmp_path, capsys):
    # the correlogram file keeps the stderr the estimate's fits weighted
    # the lags by; without it `epps fit` fitted unweighted and moved tau
    out, manifest = two_second_estimates["inverse"]
    assert manifest["config"]["grid_dt"] == 2.0
    _assert_fit_gives_the_cross_fits(out, manifest, capsys)


def test_fit_reproduces_the_cross_fits_of_a_tenth_second_estimate(
        tmp_path, capsys):
    # lags such as 3 * 0.1 = 0.30000000000000004 read back bit for bit;
    # written at %.10g they read back as 0.3, and the fit of the degenerate
    # cross_async row moved
    ticks = tmp_path / "ticks.csv"
    write_tick_csv(ticks, (1.0, 0.3), n_days=8)
    out = tmp_path / "est"
    assert main(["estimate", "--ticks", str(ticks), "--asset-i", "A",
                 "--asset-j", "B", "--grid-dt", "0.1",
                 "--dt-grid", "0.1,1,10", "--max-lag", "12",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    _assert_fit_gives_the_cross_fits(out, manifest, capsys)


def _assert_fit_gives_the_cross_fits(out, manifest, capsys):
    """`epps fit` of the estimate's `correlogram_cross.csv` prints the
    estimate's `cross_raw` and `cross_async` rows of `fits.csv`."""
    want = {row.split(",")[2]: row.split(",", 2)[2] for row in
            (out / "fits.csv").read_text().splitlines()[1:]}
    rates = ["--lambda-i", repr(manifest["rate_i"]),
             "--lambda-j", repr(manifest["rate_j"])]
    for family, extra in (("cross_raw", []), ("cross_async", rates)):
        capsys.readouterr()
        assert main(["fit", "--correlogram",
                     str(out / "correlogram_cross.csv"),
                     "--family", family, *extra]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert row.split(",", 2)[2] == want[family]


def test_filter_takes_no_grid_step(capsys):
    assert main(["filter", "--help"]) == 0
    assert "--grid-dt" not in capsys.readouterr().out


def test_fit_cli_round_trip(tmp_path, capsys):
    lags = np.arange(-60, 61, dtype=float)
    vals, _ = _cross_raw_fj(lags, np.array([0.45, 3.0, math.log(7.0)]))
    cg = Correlogram(lag_grid=lags, values=vals,
                     stderr=np.full(lags.size, np.nan), n_days=1)
    f = tmp_path / "cg.csv"
    write_correlogram_csv(cg, f)
    assert main(["fit", "--correlogram", str(f),
                 "--family", "cross_raw"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    row = lines[1].split(",")
    assert row[2] == "cross_raw"
    assert float(row[3]) == pytest.approx(0.45, rel=1e-6)
    assert float(row[4]) == pytest.approx(3.0, abs=1e-6)
    assert float(row[5]) == pytest.approx(7.0, rel=1e-6)
    # async families insist on their rates
    assert main(["fit", "--correlogram", str(f),
                 "--family", "cross_async"]) == 1


def test_fit_cli_flags_a_no_signal_correlogram(no_signal_correlogram,
                                               tmp_path, capsys):
    # Levenberg-Marquardt stopped at its evaluation cap here: exit 3
    f = tmp_path / "cg.csv"
    write_correlogram_csv(no_signal_correlogram, f)
    assert main(["fit", "--correlogram", str(f), "--family", "cross_async",
                 "--lambda-i", "1", "--lambda-j", "0.2"]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["degenerate"] == "1"


@pytest.mark.parametrize("family", ["auto_raw", "auto_async"])
def test_fit_cli_labels_an_auto_fit_i_i(family, tmp_path, capsys):
    lags = np.arange(-40, 41, dtype=float)
    base, _ = _auto_raw_fj(lags[lags != 0.0], np.array([1.0, 0.3, 4.0]))
    vals = np.zeros(lags.size)
    vals[lags != 0.0] = base[1:]
    f = tmp_path / "cg_auto.csv"
    write_correlogram_csv(Correlogram(
        lag_grid=lags, values=vals, stderr=np.full(lags.size, np.nan),
        n_days=1, delta_mass=float(base[0])), f)
    assert main(["fit", "--correlogram", str(f), "--family", family,
                 "--lambda-i", "1"]) == 0
    row = capsys.readouterr().out.strip().splitlines()[1]
    assert row.startswith(f"i,i,{family},")


def test_run_cli_with_seed_override(model_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model_file": model_file, "lambda_i": 1.0, "lambda_j": 0.3,
        "n_days": 2, "length": 2000.0, "dt_grid": [1, 10],
        "max_lag": 30.0, "seed": 1}))
    out_a = tmp_path / "a"
    assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert "fits.csv" in listing["files"]
    m_a = json.loads((out_a / "manifest.json").read_text())
    out_b = tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--seed", "2",
                 "--out", str(out_b)]) == 0
    m_b = json.loads((out_b / "manifest.json").read_text())
    assert m_b["seed"] == 2
    assert m_a["files"] != m_b["files"]


def test_run_wiener_without_snr_estimates_it(model_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model_file": model_file, "lambda_i": 1.0, "lambda_j": 0.3,
        "n_days": 2, "length": 2000.0, "dt_grid": [1, 10],
        "max_lag": 30.0, "filter_mode": "wiener", "seed": 1}))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["snr"] is None
    assert math.isfinite(manifest["snr"]) and manifest["snr"] > 0


def write_tick_csv(path, rates, n_days, seed=3):
    """Two assets A and B on correlated random-walk prices, Poisson ticks
    covering the default session window [36 900, 56 900] s of each day."""
    rng = np.random.default_rng(seed)
    lines = ["asset,day,time_sec,price"]
    for day in range(n_days):
        z = rng.standard_normal((2, 21001))
        walk = np.cumsum(np.vstack([z[0], 0.5 * z[0] + 0.866 * z[1]]), axis=1)
        for k, (asset, rate) in enumerate(zip("AB", rates)):
            times = np.sort(rng.uniform(36000.0, 57000.0,
                                        rng.poisson(rate * 21000.0)))
            prices = 100.0 * np.exp(0.001 * walk[k, (times - 36000.0)
                                                 .astype(int)])
            lines += [f"{asset},{day},{t:.6f},{p:.10g}"
                      for t, p in zip(times, prices)]
    path.write_text("\n".join(lines) + "\n")


def test_estimate_wiener_without_snr_estimates_it(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    write_tick_csv(ticks, (1.0, 0.3), n_days=2)
    out = tmp_path / "est"
    assert main(["estimate", "--ticks", str(ticks), "--asset-i", "A",
                 "--asset-j", "B", "--dt-grid", "1,5,20", "--max-lag", "40",
                 "--filter-mode", "wiener", "--out", str(out)]) == 0
    summary = capsys.readouterr().out
    assert "analyzed 2 days" in summary
    snr = float(summary.split("wiener snr ")[1].split()[0])
    assert math.isfinite(snr) and snr > 0
    assert "(estimated)" in summary
    assert (out / "epps_filtered.csv").exists()



def test_estimate_puts_every_day_in_the_spectra(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    write_tick_csv(ticks, (1.0, 0.3), n_days=4)
    # day 0 of B loses its records before the window, so its first level
    # is back-filled; day 8 has flat prices for A, day 9 no ticks for B
    lines = [line for line in ticks.read_text().splitlines()
             if not (line.startswith("B,0,") and float(line.split(",")[2])
                     < SessionSpec().window_start)]
    lines += ["A,8,37000,100", "A,8,38000,100", "B,8,37000,100",
              "B,8,38000,101", "A,9,37000,100", "A,9,38000,101"]
    ticks.write_text("\n".join(lines) + "\n")
    out = tmp_path / "est"
    assert main(["estimate", "--ticks", str(ticks), "--asset-i", "A",
                 "--asset-j", "B", "--dt-grid", "1,5,20", "--max-lag", "40",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "analyzed 4 days" in captured.out
    assert captured.err.splitlines() == [
        "skipped day 8: flat prices for A",
        "skipped day 9: no ticks in the window for B"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_days_spectra"] == 4
    assert manifest["days_skipped"] == {"flat prices": 1,
                                        "no ticks in the window": 1}
    assert manifest["open_ticks_missing"] == 1


@pytest.mark.parametrize("command, setting", [
    ("estimate", ["--grid-dt", "0"]),
    ("estimate", ["--grid-dt", "nan"]),
    ("estimate", ["--max-lag", "nan"]),
    ("run", {"grid_dt": math.nan}),
    ("run", {"max_lag": math.nan}),
    ("run", {"length": math.nan}),
    ("run", {"lambda_i": math.nan}),
    ("run", {"n_days": 1.5}),
    ("estimate", ["--session-length", "nan"]),
    ("estimate", ["--session-length", "0"]),
    # too short for the default 120 s lags
    ("estimate", ["--session-length", "200"]),
    # an integer path was opened as a file descriptor; a string, a null or
    # a bare number where a number or a list belongs ended in a TypeError,
    # or, for the snr, was taken as a number
    ("run", {"model_file": 987654}),
    ("run", {"replay_ticks_i": 987654, "replay_ticks_j": 987654}),
    ("run", {"lambda_i": "1"}),
    ("run", {"max_lag": None}),
    ("run", {"dt_grid": 5}),
    ("run", {"dt_grid": ["1", 2]}),
    ("run", {"filter_mode": "wiener", "snr": "5"}),
])
def test_invalid_settings_are_data_errors(command, setting, model_file,
                                          tmp_path, capsys):
    if command == "estimate":
        ticks = tmp_path / "ticks.csv"
        write_tick_csv(ticks, (1.0, 0.3), n_days=1)
        args = ["--ticks", str(ticks), "--asset-i", "A", "--asset-j", "B",
                *setting]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_file": model_file, "n_days": 1,
                                   "length": 2000.0, **setting}))
        args = ["--config", str(cfg)]
    assert main([command, *args, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("data error: ")


@pytest.mark.parametrize("args, config, named", [
    (["theory", "--model", "DIR"], {}, "DIR"),
    (["estimate", "--ticks", "DIR", "--asset-i", "A", "--asset-j", "B",
      "--out", "OUT"], {}, "DIR"),
    (["filter", "--spectrum", "DIR", "--lambda-i", "1", "--lambda-j", "1",
      "--out", "OUT"], {}, "DIR"),
    (["fit", "--correlogram", "DIR", "--family", "cross_raw"], {}, "DIR"),
    (["theory", "--model", "MODEL", "--out", "DIR"], {}, "DIR"),
    (["sample", "--paths", "MODEL", "--out", "OUT"], {}, "MODEL"),
    (["simulate", "--model", "MODEL", "--horizon", "2000", "--out", "MODEL"],
     {}, "MODEL"),
    (["run", "--config", "CONFIG", "--out", "OUT"],
     {"model_file": "MISSING"}, "MISSING"),
    (["run", "--config", "CONFIG", "--out", "OUT"],
     {"model_file": "MODEL", "replay_ticks_i": "MISSING",
      "replay_ticks_j": "MISSING"}, "MISSING"),
], ids=["theory-model-dir", "estimate-ticks-dir", "filter-spectrum-dir",
        "fit-correlogram-dir", "theory-out-dir", "sample-paths-file",
        "simulate-out-file", "run-missing-model", "run-missing-replay"])
def test_unusable_paths_are_data_errors(args, config, named, model_file,
                                        tmp_path, capsys):
    # each of these ended in an uncaught OSError and its traceback
    paths = {"DIR": str(tmp_path), "MODEL": model_file,
             "OUT": str(tmp_path / "o"), "MISSING": str(tmp_path / "nope"),
             "CONFIG": str(tmp_path / "cfg.json")}
    with open(paths["CONFIG"], "w", encoding="utf-8") as fh:
        json.dump({key: paths[value] for key, value in config.items()}, fh)
    assert main([paths.get(a, a) for a in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {paths[named]}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, setting", [
    ("estimate", ["--dt-grid", ""]),
    ("estimate", ["--dt-grid", " , "]),
    ("estimate", ["--asset-j", "A"]),
    ("theory", ["--grid", ""]),
    ("simulate", ["--days", "0"]),
])
def test_settings_that_leave_nothing_to_compute_are_usage_errors(
        command, setting, model_file, tmp_path, capsys):
    # these ran and exited 0: with header-only curves, no path files, or an
    # "A,A" fit written as the cross fit
    out = tmp_path / "o"
    if command == "estimate":
        ticks = tmp_path / "ticks.csv"
        write_tick_csv(ticks, (1.0, 0.3), n_days=1)
        args = ["--ticks", str(ticks), "--asset-i", "A", "--asset-j", "B"]
    else:
        args = ["--model", model_file]
    assert main([command, *args, *setting, "--out", str(out)]) == 1
    assert not out.exists()
    assert "Error: " in capsys.readouterr().err


def test_figures_refuses_zero_days_before_making_its_output_directory(
        tmp_path, capsys):
    # it made the directory and wrote model.txt, then exited 2
    out = tmp_path / "figs"
    assert main(["figures", "--days", "0", "--out", str(out)]) == 1
    assert not out.exists()
    assert "Error: " in capsys.readouterr().err


def test_estimate_counts_a_line_that_is_not_utf8(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    write_tick_csv(ticks, (1.0, 0.3), n_days=2)
    with open(ticks, "ab") as fh:
        fh.write(b"A\xff,0,36902,100\n")
    lineno = len(ticks.read_bytes().splitlines())
    args = ["estimate", "--ticks", str(ticks), "--asset-i", "A",
            "--asset-j", "B", "--dt-grid", "1,5,20", "--max-lag", "40",
            "--out", str(tmp_path / "est")]
    assert main(args) == 0
    assert (f"skipped record: line {lineno}: invalid UTF-8"
            in capsys.readouterr().err.splitlines())
    assert main(args + ["--fail-fast"]) == 2
    assert capsys.readouterr().err == (f"data error: line {lineno}: "
                                       "invalid UTF-8\n")
    ticks.write_bytes(b"asset,d\xe4y,time_sec,price\n")
    assert main(args) == 2
    assert "expected header" in capsys.readouterr().err


def test_estimate_records_fits_it_could_not_run(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    write_tick_csv(ticks, (1.0, 0.3), n_days=2)
    out = tmp_path / "est"
    # 9 lags are too few for a cross fit, which needs 10
    assert main(["estimate", "--ticks", str(ticks), "--asset-i", "A",
                 "--asset-j", "B", "--dt-grid", "1,5,20", "--max-lag", "4",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert {"cross_raw", "cross_async"} <= set(manifest["fit_failures"])
    assert "10 lag points" in manifest["fit_failures"]["cross_raw"]
    families = [row.split(",")[2]
                for row in (out / "fits.csv").read_text().splitlines()[1:]]
    assert not any(f.startswith("cross") for f in families)


def test_snr_without_the_wiener_filter_is_rejected(tmp_path, model_file,
                                                   monkeypatch, capsys):
    ticks = tmp_path / "ticks.csv"
    write_tick_csv(ticks, (1.0, 0.3), n_days=2)
    assert main(["estimate", "--ticks", str(ticks), "--asset-i", "A",
                 "--asset-j", "B", "--snr", "5",
                 "--out", str(tmp_path / "est")]) == 2
    assert "wiener" in capsys.readouterr().err
    assert not (tmp_path / "est").exists()

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the config was checked")

    monkeypatch.setattr(pipeline, "simulate_ensemble", no_simulation)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model_file": model_file, "snr": 3.0}))
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "run")]) == 2
    assert "wiener" in capsys.readouterr().err


@pytest.mark.parametrize("bad_line", ["# a note", "1,0.5,oops"])
def test_sample_rejects_a_malformed_path_file(bad_line, tmp_path, capsys):
    paths_dir = tmp_path / "paths"
    paths_dir.mkdir()
    (paths_dir / "path_d000.csv").write_text(
        f"# grid_dt=1\n# t0=0\nt,level_i,level_j\n0,0,0\n{bad_line}\n")
    assert main(["sample", "--paths", str(paths_dir),
                 "--out", str(tmp_path / "ticks.csv")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "path_d000.csv" in err


@pytest.mark.parametrize("level", ["710", "-800", "nan", "inf"])
def test_sample_rejects_a_level_without_a_finite_positive_price(
        level, tmp_path, capsys):
    paths_dir = tmp_path / "paths"
    paths_dir.mkdir()
    (paths_dir / "path_d000.csv").write_text(
        f"# grid_dt=1\n# t0=0\nt,level_i,level_j\n0,0,0\n1,0,{level}\n")
    assert main(["sample", "--paths", str(paths_dir),
                 "--out", str(tmp_path / "ticks.csv")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "path_d000.csv" in err
    assert "at t = 1 give no finite positive price" in err


def write_small_spectrum(path, n_days="1"):
    write_spectrum_csv(SpectrumEstimate(T=8, n_days=1, s_n=np.ones(5),
                                        grid_dt=1.0), path)
    path.write_text(path.read_text().replace("# n_days=1",
                                             f"# n_days={n_days}"))


def test_filter_rejects_an_snr_file_that_is_not_numeric(tmp_path, capsys):
    spec = tmp_path / "spec.csv"
    write_small_spectrum(spec)
    snr = tmp_path / "snr.txt"
    snr.write_text("high\n" * 5)
    assert main(["filter", "--spectrum", str(spec), "--lambda-i", "0.5",
                 "--lambda-j", "0.5", "--mode", "wiener",
                 "--snr", f"@{snr}", "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "snr.txt" in err


def test_filter_rejects_an_snr_file_of_the_wrong_length(tmp_path, capsys):
    spec = tmp_path / "spec.csv"
    write_small_spectrum(spec)  # T = 8: bins 0..4
    snr = tmp_path / "snr.txt"
    args = ["filter", "--spectrum", str(spec), "--lambda-i", "0.5",
            "--lambda-j", "0.5", "--mode", "wiener", "--snr", f"@{snr}",
            "--out", str(tmp_path / "o.csv")]
    snr.write_text("2\n" * 8)  # one value per bin of the full length
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "5 for T = 8, got shape (8,)" in err
    snr.write_text("2 2\n" * 5)  # two columns
    assert main(args) == 2
    assert "got shape (5, 2)" in capsys.readouterr().err
    snr.write_text("2\n" * 5)
    assert main(args) == 0


def test_filter_rejects_a_spectrum_without_its_length(tmp_path, capsys):
    spec = tmp_path / "spec.csv"
    write_small_spectrum(spec)
    out = tmp_path / "o.csv"
    args = ["filter", "--spectrum", str(spec), "--lambda-i", "0.5",
            "--lambda-j", "0.5", "--out", str(out)]
    assert main(args) == 0
    assert "# T=8\n" in out.read_text()
    assert len(read_spectrum_csv(out).s_n) == 5
    # a full-length file as older versions wrote it: no T line, 8 rows
    spec.write_text("# n_days=1\nn,re,im\n" + "".join(
        f"{n},1,0\n" for n in range(8)))
    assert main(args) == 2
    assert "'# T=' line" in capsys.readouterr().err


def test_filter_rejects_a_spectrum_whose_bins_are_out_of_order(tmp_path,
                                                             capsys):
    spec = tmp_path / "spec.csv"
    spec.write_text("# T=8\n# grid_dt=1\nn,re,im\n" + "7,1,0\n" * 5)
    assert main(["filter", "--spectrum", str(spec), "--lambda-i", "0.5",
                 "--lambda-j", "0.5", "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "spec.csv" in err
    assert "n column must read 0..4 in order" in err


def test_bad_n_days_in_a_csv_header_is_a_data_error(tmp_path, capsys):
    spec = tmp_path / "spec.csv"
    cg = tmp_path / "cg.csv"
    lags = np.arange(-20, 21, dtype=float)
    for value in ("many", "nan"):
        write_small_spectrum(spec, value)
        assert main(["filter", "--spectrum", str(spec), "--lambda-i", "0.5",
                     "--lambda-j", "0.5",
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert "spec.csv" in capsys.readouterr().err
        write_correlogram_csv(Correlogram(
            lag_grid=lags, values=np.exp(-np.abs(lags) / 5.0),
            stderr=np.full(lags.size, np.nan), n_days=1), cg)
        cg.write_text(cg.read_text().replace("# n_days=1",
                                             f"# n_days={value}"))
        assert main(["fit", "--correlogram", str(cg),
                     "--family", "cross_raw"]) == 2
        assert "cg.csv" in capsys.readouterr().err


def append_a_byte_that_is_not_utf8(path):
    """Append 0xff, which no UTF-8 text holds, and return its offset."""
    text = path.read_bytes()
    path.write_bytes(text + b"\xff\n")
    return len(text)


def write_cli_input(kind, tmp_path, model_file):
    """One well-formed input file of each kind a command reads as text, and
    the argument list of a command that reads it."""
    if kind == "model":
        return tmp_path / "model.txt", ["theory", "--model", model_file]
    if kind == "correlogram":
        f = tmp_path / "cg.csv"
        lags = np.arange(-20, 21, dtype=float)
        write_correlogram_csv(Correlogram(
            lag_grid=lags, values=np.exp(-np.abs(lags) / 5.0),
            stderr=np.full(lags.size, np.nan), n_days=1), f)
        return f, ["fit", "--correlogram", str(f), "--family", "cross_raw"]
    if kind == "spectrum":
        f = tmp_path / "spec.csv"
        write_small_spectrum(f)
        return f, ["filter", "--spectrum", str(f), "--lambda-i", "0.5",
                   "--lambda-j", "0.5", "--out", str(tmp_path / "o.csv")]
    if kind == "config":
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"model_file": model_file}))
        return f, ["run", "--config", str(f), "--out", str(tmp_path / "run")]
    paths_dir = tmp_path / "paths"
    paths_dir.mkdir()
    path_file = paths_dir / "path_d000.csv"
    path_file.write_text("# grid_dt=1\n# t0=0\nt,level_i,level_j\n0,0,0\n")
    args = ["sample", "--paths", str(paths_dir),
            "--out", str(tmp_path / "ticks.csv")]
    if kind == "path":
        return path_file, args
    replay = tmp_path / "times.csv"
    replay.write_text("tick_time\n0\n")
    return replay, args + ["--replay-i", str(replay), "--replay-j", str(replay)]


@pytest.mark.parametrize("kind", ["model", "correlogram", "spectrum", "config",
                                  "path", "tick_times"])
def test_a_text_input_that_is_not_utf8_is_a_data_error(kind, tmp_path,
                                                       model_file, capsys):
    path, args = write_cli_input(kind, tmp_path, model_file)
    offset = append_a_byte_that_is_not_utf8(path)
    assert main(args) == 2
    assert (f"data error: {path}: invalid UTF-8 at byte {offset}"
            in capsys.readouterr().err)


def test_an_epps_csv_that_is_not_utf8_is_a_data_error(tmp_path):
    f = tmp_path / "epps.csv"
    write_epps_csv(EppsCurve(dt_grid=np.array([1.0, 2.0]),
                             rho=np.array([0.1, 0.2]),
                             stderr=np.array([0.01, 0.02])), f)
    offset = append_a_byte_that_is_not_utf8(f)
    with pytest.raises(DataError, match=f"invalid UTF-8 at byte {offset}"):
        read_epps_csv(f)


COLD_START = """\
import json, sys
from epps.cli import main

def scipy_loaded():
    return [m for m in ("scipy.fft", "scipy.optimize") if m in sys.modules]

model, cg, out = sys.argv[1:]
seen = {"import": scipy_loaded()}
code = main(["theory", "--model", model, "--grid", "1,10",
             "--out", out + ".theory"])
seen["theory"] = [code, scipy_loaded()]
code = main(["fit", "--correlogram", cg, "--family", "cross_raw",
             "--out", out + ".fit"])
seen["fit"] = [code, scipy_loaded()]
print(json.dumps(seen))
"""


def test_cold_start_loads_scipy_only_for_the_commands_that_use_it(
        model_file, tmp_path):
    # in a fresh interpreter: this one has scipy loaded by the test suite
    lags = np.arange(-60, 61, dtype=float)
    vals, _ = _cross_raw_fj(lags, np.array([0.45, 3.0, math.log(7.0)]))
    cg = tmp_path / "cg.csv"
    write_correlogram_csv(Correlogram(lag_grid=lags, values=vals,
                                      stderr=np.full(lags.size, np.nan),
                                      n_days=1), cg)
    src = os.path.dirname(os.path.dirname(cli_mod.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", COLD_START, model_file,
                           str(cg), str(out)], env=env, capture_output=True,
                          text=True, check=True)
    seen = json.loads(proc.stdout)
    assert seen["import"] == []
    assert seen["theory"] == [0, []]
    code, loaded = seen["fit"]
    assert code == 0 and "scipy.optimize" in loaded
    fit_row = (tmp_path / "out.fit").read_text().splitlines()[1]
    assert fit_row.split(",")[2] == "cross_raw"


# -- tables: the bytes each command writes -----------------------------------

AWKWARD = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-310, 0.1, 1.0 / 3]


def test_simulate_writes_path_files_in_the_per_row_format(model_file,
                                                          tmp_path):
    levels = np.array([AWKWARD, AWKWARD[::-1]])
    path = cli_mod.SimulatedPath(grid_dt=0.1, t0=-1.0 / 3, levels=levels)
    with mock.patch.object(cli_mod, "simulate_ensemble",
                           return_value=[path]):
        assert main(["simulate", "--model", model_file,
                     "--out", str(tmp_path / "paths")]) == 0
    want = ("# grid_dt=0.10000000000000001\n# t0=-0.33333333333333331\n"
            "# horizon=20000\nt,level_i,level_j\n") + "".join(
        f"{t:.10g},{a:.17g},{b:.17g}\n"
        for t, a, b in zip(path.times(), *levels))
    assert (tmp_path / "paths" / "path_d000.csv").read_bytes() == want.encode()


def test_theory_writes_the_same_bytes_to_stdout_and_to_a_file(
        model_file, tmp_path, capsys):
    grid = "5e-324,1e-310,0.1,0.30000000000000004,1,2,1e300,1e308"
    xs = [float(x) for x in grid.split(",")]
    out = tmp_path / "rho.csv"
    with mock.patch.object(cli_mod, "async_rho",
                           return_value=np.array(AWKWARD)):
        for target in ("-", str(out)):
            assert main(["theory", "--model", model_file, "--lambda-i", "1",
                         "--lambda-j", "0.5", "--grid", grid,
                         "--out", target]) == 0
    want = "dt,rho\n" + "".join(f"{x:.10g},{y:.17g}\n"
                                for x, y in zip(xs, AWKWARD))
    assert capsys.readouterr().out == want
    assert out.read_bytes() == want.encode()


def test_figures_writes_its_theory_curves_in_the_per_row_format(tmp_path,
                                                                capsys):
    def make_run_dir(config, out_dir):
        os.makedirs(out_dir)

    with mock.patch.object(cli_mod, "run_pipeline",
                           side_effect=make_run_dir), \
            mock.patch.object(cli_mod, "async_rho",
                              return_value=np.array(AWKWARD)):
        assert main(["figures", "--out", str(tmp_path / "figs")]) == 0
    want = "dt,rho\n" + "".join(
        f"{x:.10g},{y:.17g}\n" for x, y in zip(
            (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0), AWKWARD))
    for name in ("symmetric", "asymmetric"):
        got = (tmp_path / "figs" / name / "epps_theory.csv").read_bytes()
        assert got == want.encode()


def test_fit_writes_the_same_bytes_to_stdout_and_to_a_file(tmp_path, capsys):
    lags = np.arange(-60, 61, dtype=float)
    vals, _ = _cross_raw_fj(lags, np.array([0.45, 3.0, math.log(7.0)]))
    cg = tmp_path / "cg.csv"
    write_correlogram_csv(Correlogram(lag_grid=lags, values=vals,
                                      stderr=np.full(lags.size, np.nan),
                                      n_days=1), cg)
    out = tmp_path / "fit.csv"
    for target in ("-", str(out)):
        assert main(["fit", "--correlogram", str(cg), "--family",
                     "cross_raw", "--out", target]) == 0
    text = capsys.readouterr().out
    assert text.startswith("i,j,family,") and text.count("\n") == 2
    assert out.read_bytes() == text.encode()


def test_a_bad_correlogram_row_is_a_data_error_naming_file_and_line(
        tmp_path, capsys):
    cg = tmp_path / "cg.csv"
    cg.write_text("# n_days=1\ntau,value,stderr\n-1,0.5,nan\n0,1,nan\n"
                  "1,0.5,nan,\n")
    assert main(["fit", "--correlogram", str(cg),
                 "--family", "cross_raw"]) == 2
    assert capsys.readouterr().err == (
        f"data error: {cg} line 5: expected 3 numbers, got '1,0.5,nan,'\n")


# -- settings checked before any work ----------------------------------------

def write_path_file(path, n_steps=100):
    rows = "".join(f"{t},0,0\n" for t in range(n_steps + 1))
    path.write_text(f"# grid_dt=1\n# t0=0\nt,level_i,level_j\n{rows}")


@pytest.mark.parametrize("command, setting, message", [
    ("simulate", ["--seed", "-1"], "seed must be a non-negative integer"),
    ("simulate", ["--horizon", "nan"], "must be finite"),
    ("simulate", ["--horizon", "inf"], "must be finite"),
    ("simulate", ["--warmup", "nan"], "must be finite"),
    ("simulate", ["--grid-dt", "nan"], "must be finite"),
    ("sample", ["--seed", "-1"], "seed must be a non-negative integer"),
    ("figures", ["--seed", "-1"], "seed must be a non-negative integer"),
    ("run", ["--seed", "-2"], "seed must be a non-negative integer"),
    # NaN and infinite horizons and lags gave NaN rows and exit 0
    ("theory", ["--grid", "nan,inf,5"], "requires finite dt > 0, got nan"),
    ("theory", ["--grid", "5,inf", "--quantity", "covariance",
                "--lambda-i", "1", "--lambda-j", "0.2"],
     "requires finite dt >= 0, got inf"),
    ("theory", ["--grid", "-inf,0", "--quantity", "crosscorr",
                "--lambda-i", "1"], "requires finite tau, got -inf"),
])
def test_a_negative_seed_or_a_nan_setting_is_a_data_error(
        command, setting, message, model_file, tmp_path, capsys):
    # each of these ended in a traceback from numpy
    out = tmp_path / "o"
    if command in ("simulate", "theory"):
        args = ["--model", model_file]
    elif command == "sample":
        (tmp_path / "paths").mkdir()
        write_path_file(tmp_path / "paths" / "path_d000.csv")
        args = ["--paths", str(tmp_path / "paths")]
    elif command == "run":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_file": model_file}))
        args = ["--config", str(cfg)]
    else:
        args = []
    with mock.patch.object(pipeline, "simulate_ensemble",
                           side_effect=AssertionError("simulated")):
        assert main([command, *args, *setting, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("overrides, key", [
    ({"n_days": True, "seed": True}, "n_days"),
    ({"seed": True}, "seed"),
    ({"lambda_i": True}, "lambda_i"),
    ({"lambda_j": False}, "lambda_j"),
    ({"length": True}, "length"),
    ({"grid_dt": True}, "grid_dt"),
    ({"max_lag": True}, "max_lag"),
    ({"dt_grid": [1, True]}, "dt_grid[1]"),
    ({"filter_mode": "wiener", "snr": True}, "snr"),
])
def test_a_json_boolean_in_a_run_config_is_a_data_error(
        overrides, key, model_file, tmp_path, capsys):
    # JSON true loads as the int 1: `"n_days": true, "seed": true` ran one
    # day at seed 1, exited 0 and wrote `true` into the manifest
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model_file": model_file, **overrides}))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {key} must be ")
    assert not out.exists()


@pytest.mark.parametrize("dt_grid", ["1e-12,1", "0.5", "1,2.5", "nan", "1e19"])
def test_estimate_checks_its_horizons_before_reading_ticks(dt_grid, tmp_path,
                                                           capsys):
    ticks = tmp_path / "ticks.csv"
    ticks.write_text("asset,day,time_sec,price\n")
    with mock.patch.object(cli_mod, "load_ticks",
                           side_effect=AssertionError("ticks read")):
        assert main(["estimate", "--ticks", str(ticks), "--asset-i", "A",
                     "--asset-j", "B", "--dt-grid", dt_grid,
                     "--out", str(tmp_path / "o")]) == 2
    assert "positive multiple of the grid step 1" in capsys.readouterr().err


def test_run_checks_its_horizons_before_simulating(model_file, tmp_path,
                                                   capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model_file": model_file, "dt_grid": [1.5]}))
    with mock.patch.object(pipeline, "simulate_ensemble",
                           side_effect=AssertionError("simulated")):
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
    assert "positive multiple of the grid step 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, setting, message", [
    ("estimate", ["--max-lag", "-5"], "max_lag must be finite, 1 to 9999 "
                                      "grid steps"),
    ("estimate", ["--max-lag", "0.4"], "max_lag must be finite, 1 to"),
    ("estimate", ["--max-lag", "30000"], "max_lag must be finite, 1 to"),
    ("estimate", ["--dt-grid", "1,25000"], "each dt must be below the "
                                           "session length 20000"),
    ("estimate", ["--grid-dt", "10001"],
     "grid_dt must be finite and in (0, 10000]"),
    ("run", {"dt_grid": [1, 2500]}, "each dt must be below the session "
                                    "length 2000"),
    ("run", {"max_lag": 1000}, "max_lag must be finite, 1 to 999 grid "
                               "steps"),
    ("run", {"grid_dt": 1001, "dt_grid": [1001]},
     "grid_dt must be finite and in (0, 1000]"),
    # no horizon: this ran and exited 0 with header-only Epps curves
    ("run", {"dt_grid": []}, "dt_grid must hold at least one horizon"),
    # horizons out of order were refused only by the Epps curve
    ("estimate", ["--dt-grid", "5,1"], "dt_grid must be strictly increasing"),
    ("estimate", ["--dt-grid", "1,1,2"], "dt_grid must be strictly "
                                         "increasing"),
    ("run", {"dt_grid": [5, 1]}, "dt_grid must be strictly increasing"),
])
def test_settings_beyond_a_day_are_checked_before_any_work(
        command, setting, message, model_file, tmp_path, capsys):
    # each of these exited 2 only once the tick file was read or the days
    # simulated
    out = tmp_path / "o"
    if command == "estimate":
        ticks = tmp_path / "ticks.csv"
        ticks.write_text("asset,day,time_sec,price\n")
        args = ["--ticks", str(ticks), "--asset-i", "A", "--asset-j", "B",
                *setting]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_file": model_file,
                                   "length": 2000.0, **setting}))
        args = ["--config", str(cfg)]
    with mock.patch.object(cli_mod, "load_ticks",
                           side_effect=AssertionError("ticks read")), \
            mock.patch.object(pipeline, "simulate_ensemble",
                              side_effect=AssertionError("simulated")):
        assert main([command, *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and message in err
    assert not out.exists()


def test_sample_leaves_no_partial_tick_file(tmp_path, capsys):
    paths_dir = tmp_path / "paths"
    paths_dir.mkdir()
    write_path_file(paths_dir / "path_d000.csv")
    (paths_dir / "path_d001.csv").write_text(
        "# grid_dt=1\n# t0=0\nt,level_i,level_j\n0,0,0\n1,0.5,oops\n")
    out = tmp_path / "ticks.csv"
    args = ["sample", "--paths", str(paths_dir), "--out", str(out)]
    assert main(args) == 2
    assert "path_d001.csv line 5" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["paths"]
    # a file from an earlier run is left as it was
    out.write_text("earlier\n")
    assert main(args) == 2
    assert sorted(os.listdir(tmp_path)) == ["paths", "ticks.csv"]
    assert out.read_text() == "earlier\n"
    os.remove(paths_dir / "path_d001.csv")
    assert main(args) == 0
    assert sorted(os.listdir(tmp_path)) == ["paths", "ticks.csv"]
    assert out.read_text().startswith("asset,day,time_sec,price\ni,d000,")
