"""Drift-adaptive interval load forecasting toolkit.

Detects distribution changes in a univariate consumption stream (Gaussian
KDE densities compared by the square root of the Jensen-Shannon divergence,
tested with a dynamic p-value) and adapts an incrementally trainable LSTM
forecaster under passive (always-adapt) and active (detect-then-adapt)
policies, reporting prediction error, adaptation cost and the trade-off
between the two.
"""

__version__ = "0.1.0"

from .density import DensityEstimate, Grid, estimate_kde, shared_grid, silverman_bandwidth
from .divergence import DivergenceValue, jsd, kl_divergence, sqrt_jsd
from .drift import (
    DriftDecision,
    DriftState,
    advance,
    compute_divergence,
    decide,
    init_drift_state,
    p_value,
)
from .evaluation import (
    DailyError,
    EvaluationReport,
    daily_error,
    improvement,
    mape,
    rmse,
    trade_off_score,
)
from .forecaster import (
    ForecastModel,
    Hyperparameters,
    NormStats,
    SupervisedWindow,
    SupervisedWindows,
    build_windows,
    incremental_update,
    load_model,
    new_model,
    predict_day,
    save_model,
    train,
)
from .hpo import SearchSpace, TrialRecord, optimize, propose
from .ingest import (
    DailyProfile,
    DaySample,
    DriftEvent,
    LoadSeries,
    SplitSpec,
    generate_synthetic,
    parse_load_csv,
    resample_and_fill,
    segment_days,
    split_dataset,
)
from .pipeline import RunConfig, compare, run, run_active, run_baseline, run_passive
