import hashlib
import json
import math
import os
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

import epps.cli as cli_mod
from epps import pipeline
from epps.cli import main
from epps.errors import NumericalError
from epps.estimation import (Correlogram, write_correlogram_csv,
                             SpectrumEstimate, write_spectrum_csv,
                             read_spectrum_csv)
from epps.fitting import _cross_raw_fj
from epps.pipeline import load_ticks


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
        session = pipeline.SessionSpec()
        in_window = sum(session.window_start <= t <= session.window_end
                        for t in times)
        assert in_window == len(times) > 0
        with mock.patch.multiple(pipeline, _RANGE_BYTES=1000,
                                 _cpus=lambda: 3):
            series, errors = load_ticks(ticks)
    assert sum(s.times.size for s in series.values()) + len(errors) \
        == in_window


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
    replay_i = tmp_path / "times_i.csv"
    replay_i.write_text("tick_time\n100\n1999.5\n2500\n")
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


def test_filter_cli_inverse_and_wiener(tmp_path, capsys):
    rng = np.random.default_rng(1)
    gamma = np.zeros(64)
    gamma[0] = 2.0
    s_n = np.fft.ifft(gamma).conj() * 64  # flat spectrum, value 2
    spec = SpectrumEstimate(T=64, n_days=1, s_n=s_n, rate_i=0.5, rate_j=0.5)
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
