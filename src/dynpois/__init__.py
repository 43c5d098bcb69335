"""Dynamic Poisson state-space models for monthly default counts.

Gamma-discount conjugate filtering, forward-filtering backward-sampling,
Metropolis/Gibbs posterior estimation, negative binomial one-step forecasting
and sampling-based model comparison, behind a deterministic batch CLI.
"""

from .evaluation import (
    ComparisonReport,
    ForecastDistribution,
    ForecastReport,
    compare_models,
    cpo_log_sum,
    ewma_forecast,
    forecast_metrics,
    forecast_one_step,
    harmonic_mean_logml,
    sequential_harness,
)
from .filtering import (
    FilterTrajectory,
    GammaGridPosterior,
    SmoothingDraws,
    exceedance_probability,
    ffbs_sample,
    filter_core,
    gamma_grid_posterior,
)
from .kernels import (
    BetaParams,
    DomainError,
    GammaParams,
    NotPositiveDefiniteError,
    NumericDegeneracyError,
    RngStream,
    sample_beta,
    sample_gamma,
)
from .mcmc import (
    ChainDiagnostics,
    FitError,
    MhConfig,
    PosteriorDraws,
    diagnostics,
    find_mode_and_hessian,
    fit_bpm,
    fit_dm5,
    fit_dm_static,
    log_target_static,
    posterior_summary,
    rw_metropolis,
    tau_full_conditional,
)
from .model import (
    CountSeries,
    DesignMatrix,
    ModelSpec,
    PriorConfig,
    SimTruth,
    build_design,
    simulate_cohort,
    simulate_dm5_coefficients,
    standardize_covariates,
)

__version__ = "0.1.0"
