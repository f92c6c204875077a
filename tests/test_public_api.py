import types

import epps

# Every name `import epps` exports, besides its submodules: adding to or
# removing from the public surface is a deliberate change of this list.
PUBLIC_NAMES = [
    "AsyncKernel", "CorrelationModel", "Correlogram", "DataError",
    "EppsCurve", "EppsError", "FilterSpec", "FitResult", "ModelPair",
    "NumericalError", "RunConfig",
    "SessionSpec", "SimulatedPath", "SpectrumEstimate", "SteppedSeries",
    "TickSeries", "analyze_pair", "apply_filter", "async_covariance",
    "async_cross_corr", "async_rho", "async_variance", "auto_filter",
    "chi2_ratio", "correlogram", "default_warmup", "discrete_kernel",
    "draw_poisson_times", "epps_curve", "estimate_snr",
    "estimate_spectrum", "filtered_correlogram", "filtered_epps_curve",
    "fit_auto_async", "fit_auto_raw", "fit_cross_async", "fit_cross_raw",
    "grid_and_normalize", "inverse_filter", "load_model_file", "load_ticks",
    "parse_model_text", "previous_tick", "rng_stream", "run_pipeline",
    "simulate_ensemble", "sync_covariance", "sync_rho",
]


def test_package_exports_exactly_the_public_names():
    exported = sorted(name for name, value in vars(epps).items()
                      if not name.startswith("_")
                      and not isinstance(value, types.ModuleType))
    assert exported == sorted(PUBLIC_NAMES)
