"""Domain types, design-matrix construction and the generative cohort simulator.

A cohort is one monthly series of nonnegative default counts. Covariates enter
through a design matrix whose columns the model variant alone decides: an
intercept (BPM), the selected covariates, the trend terms t/T and (t/T)^2 (DM3),
then eleven monthly indicators with December as reference (DM4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import DomainError, NumericDegeneracyError, RngStream

MODEL_VARIANTS = ("DM1", "DM2", "DM3", "DM4", "DM5", "BPM", "EWMA")


@dataclass(frozen=True)
class CountSeries:
    """Observed monthly default counts of months 1..T, in month order."""

    counts: np.ndarray

    def __post_init__(self):
        # counts a plain int64 cast would truncate (2.7 to 2) or wrap (2**70,
        # 1e300) are rejected; NaN and inf leave a NaN remainder
        counts = np.asarray(self.counts)
        with np.errstate(invalid="ignore"):
            if counts.size and not (
                np.all(np.mod(counts, 1) == 0) and -(2**63) < counts.min() and counts.max() < 2**63
            ):
                raise DomainError("counts must be integers of magnitude below 2**63")
        counts = counts.astype(int)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 1:
            raise DomainError("counts must be one-dimensional")
        if len(counts) < 1:
            raise DomainError("a count series needs at least one month")
        if np.any(counts < 0):
            raise DomainError("counts must be nonnegative")

    @property
    def T(self) -> int:
        return len(self.counts)

    def head(self, t: int) -> "CountSeries":
        """The sub-series of months 1..t."""
        if not (1 <= t <= self.T):
            raise DomainError(f"month index {t} outside 1..{self.T}")
        return CountSeries(self.counts[:t])


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
        for k, name in enumerate(self.column_names):
            if name in self.column_names[:k]:
                raise DomainError(f"design column {name!r} appears twice")
        if not np.all(np.isfinite(rows)):
            raise DomainError("design matrix contains non-finite cells")

    @property
    def T(self) -> int:
        return self.rows.shape[0]

    @property
    def p(self) -> int:
        return self.rows.shape[1]

    def head(self, t: int) -> "DesignMatrix":
        """The rows of months 1..t."""
        if not (1 <= t <= self.T):
            raise DomainError(f"month index {t} outside 1..{self.T}")
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
        # each check is written so that NaN and inf fail it
        for name in ("a0", "b0", "beta_sd", "tau_shape", "tau_rate", "gamma_grid_step"):
            if not (0 < getattr(self, name) < np.inf):
                raise DomainError(f"{name} must be strictly positive and finite")
        if self.gamma_prior not in ("uniform", "beta", "grid", "fixed"):
            raise DomainError(f"unknown gamma prior {self.gamma_prior!r}")
        if len(self.gamma_beta_ab) != 2:
            raise DomainError(f"gamma_beta_ab must hold exactly two values, got {list(self.gamma_beta_ab)}")
        if not all(0 < v < np.inf for v in self.gamma_beta_ab):
            raise DomainError("beta-prior parameters for gamma must be positive and finite")
        n = round(1.0 / self.gamma_grid_step)
        if abs(n * self.gamma_grid_step - 1.0) > 1e-9:
            raise DomainError("gamma_grid_step must divide 1 evenly")
        if not 2 <= n <= 10_000:
            raise DomainError("gamma_grid_step must lie in [1e-4, 0.5]: 1 to 9999 grid points in (0, 1)")
        if self.gamma_prior == "fixed" and not (0.0 < self.gamma_fixed_value <= 1.0):
            raise DomainError("fixed gamma must lie in (0, 1]")


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
    calendar month ((start_month - 1 + t - 1) mod 12) + 1, and a start_month
    outside 1..12 raises DomainError.
    """
    if start_month not in range(1, 13):
        raise DomainError(f"start_month must be a calendar month in 1..12, got {start_month}")
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


def log_linear_predictor(design: DesignMatrix, beta: np.ndarray) -> np.ndarray:
    """Per-month log multipliers beta_k' z_t, shape (K, T), for a stack of K
    draws: static coefficients (K, p) or per-month paths (K, T, p).

    Entry (k, t) sums beta_kj z_tj term by term in column order, by
    elementwise products and sums, so it has the same bits whatever K and T are.
    """
    beta = np.asarray(beta, dtype=float)
    T, p = design.rows.shape
    if beta.ndim == 2 and beta.shape[1] == p:
        beta = beta[:, None, :]  # the same coefficients every month
    elif not (beta.ndim == 3 and beta.shape[1:] == (T, p)):
        raise DomainError(
            f"beta must be a (K, {p}) stack of coefficients or a (K, {T}, {p}) stack of paths, "
            f"got shape {beta.shape}"
        )
    eta = np.zeros((len(beta), T))
    term = np.empty_like(eta)
    for j in range(p):
        eta += np.multiply(design.rows[:, j], beta[..., j], out=term)
    return eta


def linear_predictor(design: DesignMatrix, beta: np.ndarray) -> np.ndarray:
    """Per-month multipliers exp(beta_k' z_t), (K, T): ``log_linear_predictor``'s exp, bit for bit."""
    eta = log_linear_predictor(design, beta)
    return np.exp(eta, out=eta)


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
    month by month. ``true_beta`` is static (p,) or a (T, p) path, as
    ``linear_predictor`` takes it, or DomainError is raised. A beta shape
    that rounds to 0 raises DomainError, and a rate too large to draw a count
    from raises NumericDegeneracyError; both name the month.
    """
    if not (0.0 < true_gamma < 1.0):
        raise DomainError("true_gamma must lie in (0, 1)")
    if design.T != T:
        raise DomainError("design matrix length must match T")
    true_beta = np.asarray(true_beta, dtype=float)
    multipliers = linear_predictor(design, true_beta[None])[0]
    gen = rng.generator

    theta = theta0 = gen.gamma(shape=priors.a0, scale=1.0 / priors.b0)
    a = priors.a0
    thetas = np.empty(T)
    counts = np.empty(T, dtype=int)
    for t, multiplier in enumerate(multipliers):
        alpha, beta = true_gamma * a, (1.0 - true_gamma) * a
        # a tiny a0, or a shape that shrinks through months of zero counts, can round to 0
        if not (alpha > 0.0 and beta > 0.0):
            raise DomainError(f"month {t + 1}: the beta innovation's shapes must be positive, got {alpha}, {beta}")
        theta = theta / true_gamma * gen.beta(alpha, beta)
        rate = theta * multiplier
        try:
            thetas[t], counts[t] = theta, gen.poisson(rate)
        except ValueError as exc:  # an overflowing rate: inf, or beyond numpy's Poisson range
            raise NumericDegeneracyError(
                f"month {t + 1}: no count can be drawn at the simulated rate {rate}", context={"month": t + 1}
            ) from exc
        a = true_gamma * a + counts[t]

    series = CountSeries(counts)
    return SimTruth(thetas, true_beta, true_gamma, series, theta0=theta0)


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
    # written so that NaN fails it
    if not np.all(tau > 0):
        raise DomainError("precision parameters must be positive")
    if tau.shape != initial_beta.shape:
        raise DomainError("tau must have one entry per coefficient")
    p = initial_beta.shape[0]
    steps = rng.generator.standard_normal((T - 1, p)) / np.sqrt(tau)
    path = np.empty((T, p))
    path[0] = initial_beta
    path[1:] = initial_beta + np.cumsum(steps, axis=0)
    return path
