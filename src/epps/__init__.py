"""Correlation of asynchronously sampled processes: simulation, exact
theory, estimation, spectral deconvolution, and model fitting."""

__version__ = "0.1.0"

from .errors import EppsError, DataError, NumericalError
from .kernels import (CorrelationModel, ModelPair, sync_covariance, sync_rho,
                      parse_model_text, load_model_file)
from .async_theory import (AsyncKernel, discrete_kernel, async_cross_corr,
                           async_covariance, async_variance, async_rho)
from .sampling import (SimulatedPath, SteppedSeries, rng_stream,
                       simulate_ensemble, draw_poisson_times, default_warmup,
                       previous_tick)
from .estimation import (EppsCurve, Correlogram, SpectrumEstimate,
                         epps_curve, correlogram, estimate_spectrum)
from .filtering import (FilterSpec, inverse_filter, apply_filter,
                        auto_filter, estimate_snr, filtered_correlogram,
                        filtered_epps_curve)
from .fitting import (FitResult, fit_cross_raw, fit_cross_async,
                      fit_auto_raw, fit_auto_async, chi2_ratio)
from .ticks import SessionSpec, TickSeries, load_ticks
from .pipeline import RunConfig, grid_and_normalize, analyze_pair, run_pipeline
