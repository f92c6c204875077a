"""Outside-in tracing of the epps layers.

Spans are opened around calls into each module's public functions, at the
namespaces they are called from: a function bound with ``from .x import f``
has to be wrapped where it was bound, not where it was defined.  Nothing in
``src/`` is changed.  The wrappers are installed for a traced job and removed
afterwards, so untraced jobs run the original functions.

A span name is ``<layer>.<what>``, the layers being the package modules.  Per
span the tracer keeps busy time (summed over calls), self time (busy time
minus the time of child spans) and a call count.  FFT calls and
least-squares solves are charged to the layer of the innermost open span, so
they are counted where the work happens; other counters are derived from the
inputs and outputs of the wrapped calls.
"""

import collections
import functools
import math
import os
import sys
import time

import numpy

# (namespace, attribute, span).  "bench" is the workload module's own
# namespace, used by the library-level workload.  An attribute a namespace
# does not bind is skipped; a span that a workload opened when the benchmark
# was defined and no longer opens fails the traced job (see ``unopened``), so
# a lost call site never passes for a layer that got faster.
_SPANS = [
    ("epps.cli", "load_model_file", "kernels.load_model"),
    ("epps.pipeline", "load_model_file", "kernels.load_model"),
    ("epps.cli", "sync_covariance", "kernels.sync_covariance"),
    ("epps.kernels", "sync_covariance", "kernels.sync_covariance"),
    ("epps.async_theory", "sync_covariance", "kernels.sync_covariance"),
    ("epps.cli", "async_rho", "async_theory.rho"),
    ("epps.cli", "async_covariance", "async_theory.covariance"),
    ("epps.async_theory", "async_covariance", "async_theory.covariance"),
    ("epps.cli", "async_variance", "async_theory.variance"),
    ("epps.async_theory", "async_variance", "async_theory.variance"),
    ("epps.cli", "load_ticks", "pipeline.load_ticks"),
    ("epps.cli", "grid_and_normalize", "pipeline.grid"),
    ("epps.cli", "align_pair", "pipeline.grid"),
    ("epps.cli", "analyze_pair", "pipeline.analyze"),
    ("epps.pipeline", "analyze_pair", "pipeline.analyze"),
    ("epps.cli", "run_pipeline", "pipeline.run"),
    ("bench", "cli_main", "cli"),
]
for _ns in ("epps.pipeline", "epps.cli", "bench"):
    _SPANS += [
        (_ns, "simulate_ensemble", "sampling.simulate"),
        (_ns, "draw_poisson_times", "sampling.poisson"),
        (_ns, "previous_tick", "sampling.previous_tick"),
        (_ns, "epps_curve", "estimation.epps_curve"),
        (_ns, "correlogram", "estimation.correlogram"),
        (_ns, "estimate_spectrum", "estimation.spectrum"),
        (_ns, "write_epps_csv", "estimation.write"),
        (_ns, "write_correlogram_csv", "estimation.write"),
        (_ns, "write_spectrum_csv", "estimation.write"),
        (_ns, "apply_filter", "filtering.filter"),
        (_ns, "inverse_filter", "filtering.filter"),
        (_ns, "wiener_filter", "filtering.filter"),
        (_ns, "auto_filter", "filtering.filter"),
        (_ns, "estimate_snr", "filtering.filter"),
        (_ns, "filtered_correlogram", "filtering.reconstruct"),
        (_ns, "filtered_epps_curve", "filtering.reconstruct"),
        (_ns, "fit_cross_raw", "fitting.fit"),
        (_ns, "fit_cross_async", "fitting.fit"),
        (_ns, "fit_auto_raw", "fitting.fit"),
        (_ns, "fit_auto_async", "fitting.fit"),
    ]

_FFT_MODULES = ("numpy.fft", "scipy.fft")
_FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft")

#: |lambda xi - 1| below which async_theory takes its high-precision path.
_SINGULAR_BAND = 1e-3

# Per-layer metrics in report order: (name, unit, how it is derived).
# ("busy", span), ("self", span) and ("count", key) read the tracer tables;
# ("probe", key) and ("fact", key) read what the workload itself recorded
# (the rows `load_ticks` kept and rejected, the rows `prepare` wrote);
# ("useful_ratio",) is non-degenerate fits over fits attempted.
PER_LAYER = [
    ("kernels.load_model_s", "s", ("busy", "kernels.load_model")),
    ("kernels.sync_covariance_s", "s", ("busy", "kernels.sync_covariance")),
    ("sampling.simulate_s", "s", ("busy", "sampling.simulate")),
    ("sampling.poisson_s", "s", ("busy", "sampling.poisson")),
    ("sampling.previous_tick_s", "s", ("busy", "sampling.previous_tick")),
    ("sampling.ticks_drawn", "count", ("count", "sampling.ticks_drawn")),
    ("sampling.circulant_n", "count", ("count", "sampling.circulant_n")),
    ("sampling.fft_calls", "count", ("count", "sampling.fft_calls")),
    ("sampling.fft_points", "count", ("count", "sampling.fft_points")),
    ("async_theory.rho_s", "s", ("busy", "async_theory.rho")),
    ("async_theory.covariance_s", "s", ("busy", "async_theory.covariance")),
    ("async_theory.variance_s", "s", ("busy", "async_theory.variance")),
    ("async_theory.points", "count", ("count", "async_theory.points")),
    ("async_theory.singular_points", "count",
     ("count", "async_theory.singular_points")),
    ("estimation.epps_curve_s", "s", ("busy", "estimation.epps_curve")),
    ("estimation.correlogram_s", "s", ("busy", "estimation.correlogram")),
    ("estimation.lag_products", "count", ("count", "estimation.lag_products")),
    ("estimation.spectrum_s", "s", ("busy", "estimation.spectrum")),
    ("estimation.fft_calls", "count", ("count", "estimation.fft_calls")),
    ("estimation.fft_points", "count", ("count", "estimation.fft_points")),
    ("estimation.write_s", "s", ("busy", "estimation.write")),
    ("estimation.bytes_written", "bytes",
     ("count", "estimation.bytes_written")),
    ("filtering.filter_s", "s", ("busy", "filtering.filter")),
    ("filtering.reconstruct_s", "s", ("busy", "filtering.reconstruct")),
    ("filtering.fft_calls", "count", ("count", "filtering.fft_calls")),
    ("fitting.fit_s", "s", ("busy", "fitting.fit")),
    ("fitting.fits", "count", ("count", "fitting.fits")),
    ("fitting.solves", "count", ("count", "fitting.solves")),
    ("fitting.nfev", "count", ("count", "fitting.nfev")),
    ("fitting.failed", "count", ("count", "fitting.failed")),
    ("fitting.useful_ratio", "ratio", ("useful_ratio",)),
    ("pipeline.load_ticks_s", "s", ("busy", "pipeline.load_ticks")),
    ("pipeline.rows_read", "count", ("fact", "rows_written")),
    ("pipeline.rows_rejected", "count", ("probe", "rows_rejected")),
    ("pipeline.ticks_kept", "count", ("probe", "ticks_kept")),
    ("pipeline.grid_s", "s", ("busy", "pipeline.grid")),
    ("pipeline.days_kept", "count", ("count", "pipeline.days_kept")),
    ("pipeline.analyze_self_s", "s", ("self", "pipeline.analyze")),
    ("pipeline.run_self_s", "s", ("self", "pipeline.run")),
    ("cli.self_s", "s", ("self", "cli")),
]


class Tracer:
    """Span and counter tables of one job."""

    def __init__(self):
        self.busy = collections.Counter()
        self.self_time = collections.Counter()
        self.calls = collections.Counter()
        self.counts = collections.Counter()
        self._stack = []  # [name, start, time spent in child spans]
        self._patches = []

    def reset(self):
        for table in (self.busy, self.self_time, self.calls, self.counts):
            table.clear()

    def layer(self):
        return self._stack[-1][0].split(".", 1)[0] if self._stack else None

    def span(self, name, fn, args, kwargs):
        if any(frame[0] == name for frame in self._stack):
            return fn(*args, **kwargs)  # re-entered: time the outer call only
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - frame[1]
            self._stack.pop()
            self.busy[name] += elapsed
            self.self_time[name] += elapsed - frame[2]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][2] += elapsed

    # -- installing wrappers ----------------------------------------------------

    def wrap(self, namespace, attr, name=None, before=None, after=None):
        """Replace ``namespace.attr`` by a wrapper, if the attribute exists.

        The wrapper opens span `name` (none if None), calls ``before(args,
        kwargs)`` first and ``after(args, kwargs, result, error)`` last,
        both outside the span.
        """
        fn = getattr(namespace, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            try:
                result = (self.span(name, fn, args, kwargs) if name
                          else fn(*args, **kwargs))
            except Exception as exc:
                if after is not None:
                    after(args, kwargs, None, exc)
                raise
            if after is not None:
                after(args, kwargs, result, None)
            return result

        self._patches.append((namespace, attr, fn))
        setattr(namespace, attr, wrapper)

    def install(self, bench):
        """Wrap every call site of the span table and the counters."""
        modules = dict(sys.modules, bench=bench)
        observers = self._observers()
        for ns, attr, name in _SPANS:
            if ns in modules:
                self.wrap(modules[ns], attr, name, after=observers.get(name))
        for ns in _FFT_MODULES:
            if ns in modules:
                for attr in _FFT_FUNCTIONS:
                    self.wrap(modules[ns], attr, before=self._count_fft)
        self.wrap(modules["epps.fitting"], "least_squares",
                  after=self._count_solve)

    def uninstall(self):
        while self._patches:
            namespace, attr, fn = self._patches.pop()
            setattr(namespace, attr, fn)

    # -- counters -----------------------------------------------------------------

    def _count_fft(self, args, kwargs):
        layer = self.layer()
        if layer is None:
            return
        a = args[0] if args else kwargs.get("a", kwargs.get("x"))
        shape = numpy.shape(a)
        self.counts[f"{layer}.fft_calls"] += 1
        self.counts[f"{layer}.fft_points"] += math.prod(shape)
        if layer == "sampling" and shape:
            key = "sampling.circulant_n"
            self.counts[key] = max(self.counts[key], shape[-1])

    def _count_solve(self, args, kwargs, result, error):
        layer = self.layer()
        if layer is None:
            return
        self.counts[f"{layer}.solves"] += 1
        if result is not None:
            self.counts[f"{layer}.nfev"] += int(result.nfev)

    def _observers(self):
        c = self.counts

        def poisson(args, kwargs, result, error):
            if result is not None:
                c["sampling.ticks_drawn"] += int(result.size)

        def covariance(args, kwargs, result, error):
            model, kern, dt = args[:3]
            n = int(numpy.size(dt))
            c["async_theory.points"] += n
            models = [model] if hasattr(model, "width") else list(model)
            rates = [lam for lam in (kern.lambda_i, kern.lambda_j)
                     if math.isfinite(lam)]
            if any(abs(lam * m.width - 1.0) < _SINGULAR_BAND
                   for m in models if m.width > 0 and m.exp_weight != 0
                   for lam in rates):
                c["async_theory.singular_points"] += n

        def correlogram(args, kwargs, result, error):
            series_i = args[0]
            max_lag = args[2] if len(args) > 2 else kwargs["max_lag"]
            n_lags = int(round(max_lag / series_i[0].grid_dt))
            c["estimation.lag_products"] += len(series_i) * (2 * n_lags + 1)

        def write(args, kwargs, result, error):
            path = args[1] if len(args) > 1 else kwargs["path"]
            if error is None:
                c["estimation.bytes_written"] += os.path.getsize(path)

        def fit(args, kwargs, result, error):
            c["fitting.fits"] += 1
            if error is not None:
                c["fitting.failed"] += 1
            elif not result.degenerate:
                c["fitting.useful"] += 1

        def analyze(args, kwargs, result, error):
            c["pipeline.days_kept"] += len(args[0])

        return {"sampling.poisson": poisson,
                "async_theory.covariance": covariance,
                "estimation.correlogram": correlogram,
                "estimation.write": write,
                "fitting.fit": fit,
                "pipeline.analyze": analyze}

    # -- reporting ----------------------------------------------------------------

    def unopened(self, expected):
        """Spans of `expected` that the job just traced never opened."""
        return [name for name in expected if not self.calls[name]]

    def metrics(self, ctx):
        """Per-layer metric values of the job just traced, whose workload
        context is `ctx`."""
        out = {}
        for name, _unit, (kind, *key) in PER_LAYER:
            if kind == "busy":
                out[name] = self.busy[key[0]]
            elif kind == "self":
                out[name] = self.self_time[key[0]]
            elif kind == "count":
                out[name] = self.counts[key[0]]
            elif kind == "probe":
                out[name] = ctx.probe.get(key[0], 0)
            elif kind == "fact":
                out[name] = ctx.facts.get(key[0], 0)
            else:
                fits = self.counts["fitting.fits"]
                out[name] = self.counts["fitting.useful"] / fits if fits else 0.0
        return out

    def span_table(self):
        """{span: (busy_s, self_s, calls)} of the job just traced."""
        return {name: (self.busy[name], self.self_time[name],
                       self.calls[name]) for name in sorted(self.calls)}
