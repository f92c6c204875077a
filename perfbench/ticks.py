"""Seeded tick-CSV generator for the `estimate_ticks` workload.

Built on public `epps.sampling` calls: one simulated path per day, Poisson
tick times per asset, the path level at each tick.  Times are written at
microsecond resolution and prices as 100 * exp(sigma * level), so the file
neither overflows nor collapses neighbouring ticks the way a coarse time
format would.  Ticks from the warm-up stretch before the analysis window are
written too; they fall outside the session window and are skipped by the
reader, which makes "rows in the window" differ from "rows written".
"""

import numpy as np

from epps.pipeline import SessionSpec
from epps.sampling import default_warmup, draw_poisson_times, simulate_ensemble

HEADER = "asset,day,time_sec,price\n"
ASSETS = ("A", "B")
SIGMA = 2e-4  # price volatility per unit of path level


def write_tick_csv(path, pair, rates, n_days, seed):
    """Write a tick CSV and return (rows written, rows inside the window).

    `rates` gives the Poisson rate of each asset.  The in-window count is
    taken from the written time strings, with the reader's inclusive window
    test, so it holds for exactly what the file contains.
    """
    session = SessionSpec()
    warmup = max(default_warmup(lam) for lam in rates)
    paths = simulate_ensemble(pair, 1.0, session.length, n_days, seed=seed,
                              warmup=warmup)
    written = in_window = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(HEADER)
        for d, path_d in enumerate(paths):
            for a, (asset, lam) in enumerate(zip(ASSETS, rates)):
                t = draw_poisson_times(lam, session.length, warmup, seed=seed,
                                       stream=2 * d + a)
                prices = 100.0 * np.exp(SIGMA * path_d.value_at(a, t))
                times = [f"{x:.6f}" for x in session.window_start + t]
                in_window += sum(
                    session.window_start <= float(s) <= session.window_end
                    for s in times)
                fh.writelines(f"{asset},d{d:03d},{s},{p:.17g}\n"
                              for s, p in zip(times, prices))
                written += len(times)
    return written, in_window
