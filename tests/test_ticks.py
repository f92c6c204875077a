import math
import os
import tempfile

from hypothesis import given, settings, strategies as st
import numpy as np

from epps.ticks import SessionSpec, load_ticks, on_clock, write_ticks


_SESSION = SessionSpec()


@st.composite
def _asset_day(draw):
    """Increasing tick times from before the window to past its end, one
    pair of them less than a microsecond apart, and a level per tick."""
    times = draw(st.lists(st.floats(-100.0, _SESSION.length + 100.0),
                          min_size=1, max_size=30, unique=True))
    twin = draw(st.sampled_from(times))
    times.append(twin + draw(st.floats(1e-9, 1e-6)))
    times = np.unique(times)
    levels = draw(st.lists(st.floats(-20.0, 20.0), min_size=times.size,
                           max_size=times.size))
    return times, np.array(levels)


@settings(max_examples=60, deadline=None)
@given(days=st.lists(st.tuples(_asset_day(), _asset_day()), min_size=1,
                     max_size=3))
def test_written_ticks_read_back_exactly(days):
    # the one clock, the one writer and the one reader: every tick the clock
    # keeps comes back with its time and log price, none is lost or
    # rejected, and the last one before the window is the open tick
    kept = {}
    for d, pair in enumerate(days):
        for asset, (times, levels) in zip("ij", pair):
            kept[(asset, f"d{d:03d}")] = on_clock(times, levels)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ticks.csv")
        write_ticks(path, ((asset, day, t, lev)
                           for (asset, day), (t, lev) in kept.items()))
        assert os.listdir(tmp) == ["ticks.csv"]
        series, errors = load_ticks(path)
    assert errors == []
    for key, (t, levels) in kept.items():
        assert np.all(np.diff(t) > 0)
        # the file holds exp(level) to 17 digits: its log is what is read
        logs = np.log([math.exp(lev) for lev in levels.tolist()])
        inside = (t >= 0.0) & (t <= _SESSION.length)
        if not inside.any():
            assert key not in series
            continue
        ts = series.pop(key)
        assert ts.times.tobytes() == t[inside].tobytes()
        assert ts.log_prices.tobytes() == logs[inside].tobytes()
        k = np.argmax(inside)
        want = (float(t[k - 1]), float(logs[k - 1])) if k else None
        assert ts.open_tick == want
    assert series == {}
