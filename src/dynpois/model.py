"""Domain types, design-matrix construction and the generative cohort simulator.

A cohort is one monthly series of nonnegative default counts. Covariates enter
through a design matrix whose columns the model variant alone decides: an
intercept (BPM), the selected covariates, the trend terms t/T and (t/T)^2 (DM3),
then eleven monthly indicators with December as reference (DM4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (
    BetaParams,
    DomainError,
    GammaParams,
    RngStream,
    sample_beta,
    sample_gamma,
)

MODEL_VARIANTS = ("DM1", "DM2", "DM3", "DM4", "DM5", "BPM", "EWMA")


def _integers(values, name: str) -> np.ndarray:
    """Cast to int, rejecting values a plain cast would truncate (2.7 to 2)."""
    arr = np.asarray(values)
    # NaN and inf leave a NaN remainder
    with np.errstate(invalid="ignore"):
        if arr.dtype.kind not in "iu" and not np.all(np.mod(arr, 1) == 0):
            raise DomainError(f"{name} must be integers")
    return arr.astype(int)


@dataclass(frozen=True)
class CountSeries:
    """Observed monthly default counts, months indexed 1..T."""

    months: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        months = _integers(self.months, "months")
        counts = _integers(self.counts, "counts")
        object.__setattr__(self, "months", months)
        object.__setattr__(self, "counts", counts)
        if months.ndim != 1 or counts.ndim != 1:
            raise DomainError("months and counts must be one-dimensional")
        if len(months) != len(counts):
            raise DomainError("months and counts must have equal length")
        if len(months) < 1:
            raise DomainError("a count series needs at least one month")
        if not np.array_equal(months, np.arange(1, len(months) + 1)):
            raise DomainError("months must be the consecutive integers 1..T")
        if np.any(counts < 0):
            raise DomainError("counts must be nonnegative")

    @property
    def T(self) -> int:
        return len(self.counts)

    def head(self, t: int) -> "CountSeries":
        """The sub-series of months 1..t."""
        if not (1 <= t <= self.T):
            raise DomainError(f"month index {t} outside 1..{self.T}")
        return CountSeries(self.months[:t], self.counts[:t])


@dataclass(frozen=True)
class DesignMatrix:
    """Per-month covariate rows; p = 0 encodes the covariate-free model."""

    column_names: tuple
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        if rows.ndim != 2:
            raise DomainError("design rows must form a 2-d array")
        if rows.shape[1] != len(self.column_names):
            raise DomainError("column names must match the design dimension")
        if not np.all(np.isfinite(rows)):
            raise DomainError("design matrix contains non-finite cells")

    @property
    def T(self) -> int:
        return self.rows.shape[0]

    @property
    def p(self) -> int:
        return self.rows.shape[1]

    def head(self, t: int) -> "DesignMatrix":
        return DesignMatrix(self.column_names, self.rows[:t])

    @staticmethod
    def empty(T: int) -> "DesignMatrix":
        return DesignMatrix((), np.zeros((T, 0)))


@dataclass(frozen=True)
class ModelSpec:
    """A model variant and the covariates it uses; the variant fixes the other columns."""

    variant: str
    covariate_columns: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "covariate_columns", tuple(self.covariate_columns))
        if self.variant not in MODEL_VARIANTS:
            raise DomainError(f"unknown model variant {self.variant!r}")
        if self.variant == "DM1" and self.covariate_columns:
            raise DomainError("DM1 takes no covariates")

    @property
    def intercept(self) -> bool:
        return self.variant == "BPM"

    @property
    def trend_order(self) -> int:
        return 2 if self.variant == "DM3" else 0

    @property
    def seasonal(self) -> bool:
        return self.variant == "DM4"

    @property
    def p(self) -> int:
        return self.intercept + len(self.covariate_columns) + self.trend_order + 11 * self.seasonal


@dataclass(frozen=True)
class PriorConfig:
    """Hyperparameters: initial gamma state, discount prior, coefficient and precision priors.

    beta_sd is the prior standard deviation of each regression coefficient
    (the default 10 gives variance 100, flat but proper). tau priors apply to
    the random-walk precision of time-varying coefficients.
    """

    a0: float = 1.0
    b0: float = 1.0
    gamma_prior: str = "uniform"  # "uniform" | "beta" | "grid" | "fixed"
    gamma_beta_ab: tuple = (3.0, 3.0)
    gamma_grid_step: float = 0.01
    gamma_fixed_value: float = 0.5
    beta_sd: float = 10.0
    tau_shape: float = 0.001
    tau_rate: float = 0.001

    def __post_init__(self):
        object.__setattr__(self, "gamma_beta_ab", tuple(float(v) for v in self.gamma_beta_ab))
        for name in ("a0", "b0", "beta_sd", "tau_shape", "tau_rate", "gamma_grid_step"):
            if not (getattr(self, name) > 0):
                raise DomainError(f"{name} must be strictly positive")
        if self.gamma_prior not in ("uniform", "beta", "grid", "fixed"):
            raise DomainError(f"unknown gamma prior {self.gamma_prior!r}")
        if any(v <= 0 for v in self.gamma_beta_ab):
            raise DomainError("beta-prior parameters for gamma must be positive")
        n = round(1.0 / self.gamma_grid_step)
        if abs(n * self.gamma_grid_step - 1.0) > 1e-9:
            raise DomainError("gamma_grid_step must divide 1 evenly")
        if not 2 <= n <= 10_000:
            raise DomainError("gamma_grid_step must lie in [1e-4, 0.5]: 1 to 9999 grid points in (0, 1)")
        if self.gamma_prior == "fixed" and not (0.0 < self.gamma_fixed_value <= 1.0):
            raise DomainError("fixed gamma must lie in (0, 1]")

    def initial_state(self) -> GammaParams:
        return GammaParams(self.a0, self.b0)


@dataclass(frozen=True)
class SimTruth:
    """Ground truth of one simulated cohort."""

    theta_path: np.ndarray
    beta: np.ndarray  # (p,) for static coefficients, (T, p) for time-varying
    gamma: float
    counts: "CountSeries"
    theta0: float = 0.0

    def __post_init__(self):
        theta = np.asarray(self.theta_path, dtype=float)
        object.__setattr__(self, "theta_path", theta)
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        if self.gamma > 0 and len(theta) >= 2:
            # ordering holds almost surely; tolerate float rounding at the
            # boundary (the beta innovation can round to exactly 0 or 1)
            bound = theta[:-1] / self.gamma
            if np.any(theta[1:] > bound * (1.0 + 1e-9)):
                raise DomainError("theta path violates the ordering theta_t < theta_{t-1}/gamma")


def standardize_covariates(raw_covariates: dict) -> dict:
    """Centre each column and scale it to unit sd; a constant column is only centred."""
    out = {}
    for name, col in raw_covariates.items():
        col = np.asarray(col, dtype=float)
        out[name] = (col - col.mean()) / (col.std() or 1.0)
    return out


def build_design(
    raw_covariates: dict, spec: ModelSpec, T: int, start_month: int = 1
) -> DesignMatrix:
    """Assemble the design matrix for a model variant.

    Column order is intercept, covariates, trend, seasonals. Trend columns are
    (t/T, (t/T)^2, ...) up to trend_order: the span of (t, t^2, ...), on a
    scale where exp(beta' z_t) stays finite. Seasonal columns are indicators
    for the eleven calendar months other than December; month index t maps to
    calendar month ((start_month - 1 + t - 1) mod 12) + 1.
    """
    cols = []
    names = []
    if spec.intercept:
        cols.append(np.ones(T))
        names.append("intercept")
    for name in spec.covariate_columns:
        if name not in raw_covariates:
            raise DomainError(f"unknown covariate column {name!r}")
        col = np.asarray(raw_covariates[name], dtype=float)
        if len(col) != T:
            raise DomainError(f"covariate {name!r} has length {len(col)}, expected {T}")
        if not np.all(np.isfinite(col)):
            raise DomainError(f"covariate {name!r} contains non-finite values")
        cols.append(col)
        names.append(name)

    t_idx = np.arange(1, T + 1, dtype=float) / T
    for order in range(1, spec.trend_order + 1):
        cols.append(t_idx**order)
        names.append("trend" if order == 1 else f"trend{order}")

    if spec.seasonal:
        calendar = ((start_month - 1 + np.arange(T)) % 12) + 1
        for m in range(1, 12):
            cols.append((calendar == m).astype(float))
            names.append(f"month{m}")

    rows = np.column_stack(cols) if cols else np.zeros((T, 0))
    return DesignMatrix(tuple(names), rows)


def linear_predictor(design: DesignMatrix, beta: np.ndarray) -> np.ndarray:
    """Per-month multiplier exp(beta' z_t); supports static (p,) and per-month (T, p) beta."""
    beta = np.asarray(beta, dtype=float)
    if design.p == 0:
        return np.ones(design.T)
    if beta.ndim == 1:
        if beta.shape[0] != design.p:
            raise DomainError(f"beta has dimension {beta.shape[0]}, design has p={design.p}")
        eta = design.rows @ beta
    elif beta.ndim == 2:
        if beta.shape != (design.T, design.p):
            raise DomainError(f"per-month beta must have shape ({design.T}, {design.p})")
        eta = np.sum(design.rows * beta, axis=1)
    else:
        raise DomainError("beta must be a vector or a (T, p) matrix")
    return np.exp(eta)


def simulate_cohort(
    priors: PriorConfig,
    true_gamma: float,
    true_beta: np.ndarray,
    design: DesignMatrix,
    T: int,
    rng: RngStream,
) -> SimTruth:
    """Generate one cohort from the model.

    The state innovation at month t is Beta(gamma*a_{t-1}, (1-gamma)*a_{t-1}),
    where a_{t-1} comes from running the conjugate filter on the counts
    generated so far; generation and filtering are therefore interleaved
    month by month.
    """
    if not (0.0 < true_gamma < 1.0):
        raise DomainError("true_gamma must lie in (0, 1)")
    if design.T != T:
        raise DomainError("design matrix length must match T")
    multipliers_beta = np.asarray(true_beta, dtype=float)
    gen = rng.generator

    theta0 = sample_gamma(priors.initial_state(), rng)
    a, b = priors.a0, priors.b0
    theta_prev = theta0
    thetas = np.empty(T)
    counts = np.empty(T, dtype=int)
    for t in range(1, T + 1):
        eps = sample_beta(BetaParams(true_gamma * a, (1.0 - true_gamma) * a), rng)
        theta = theta_prev / true_gamma * eps
        if design.p == 0:
            mult = 1.0
        elif multipliers_beta.ndim == 2:
            mult = float(np.exp(design.rows[t - 1] @ multipliers_beta[t - 1]))
        else:
            mult = float(np.exp(design.rows[t - 1] @ multipliers_beta))
        n = int(gen.poisson(theta * mult))
        a = true_gamma * a + n
        b = true_gamma * b + mult
        thetas[t - 1] = theta
        counts[t - 1] = n
        theta_prev = theta

    series = CountSeries(np.arange(1, T + 1), counts)
    return SimTruth(thetas, multipliers_beta, true_gamma, series, theta0=theta0)


def simulate_dm5_coefficients(
    initial_beta: np.ndarray,
    tau: np.ndarray,
    T: int,
    rng: RngStream,
) -> np.ndarray:
    """Gaussian random walk per coefficient: beta_{i,t} ~ N(beta_{i,t-1}, 1/tau_i).

    tau_i is a precision, so each step has variance 1/tau_i. Returns a (T, p)
    matrix whose first row is initial_beta.
    """
    initial_beta = np.atleast_1d(np.asarray(initial_beta, dtype=float))
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    if np.any(tau <= 0):
        raise DomainError("precision parameters must be positive")
    if tau.shape != initial_beta.shape:
        raise DomainError("tau must have one entry per coefficient")
    p = initial_beta.shape[0]
    steps = rng.generator.standard_normal((T - 1, p)) / np.sqrt(tau)
    path = np.empty((T, p))
    path[0] = initial_beta
    path[1:] = initial_beta + np.cumsum(steps, axis=0)
    return path
