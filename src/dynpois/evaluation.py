"""Out-of-sample one-month-ahead forecasting, the EWMA benchmark, forecast
accuracy metrics, and sampling-based model-comparison scores."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special
from scipy.special import logsumexp

from .filtering import filter_draws
from .kernels import DomainError, RngStream
from .mcmc import (
    FitError,
    MhConfig,
    PosteriorDraws,
    fit_variant,
)
from .model import (
    CountSeries,
    DesignMatrix,
    ModelSpec,
    PriorConfig,
    build_design,
)


@dataclass(frozen=True)
class ForecastDistribution:
    """Equal-weight mixture of per-draw one-step predictive distributions.

    ``components`` holds one row per draw: an (S, 2) array of negative
    binomial ``(r, p)`` pairs, or an (S,) array of Poisson rates.
    """

    origin: int
    components: np.ndarray = field(compare=False)
    point_forecast: float = field(init=False)
    interval: tuple = field(init=False)

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=float)
        if comps.ndim not in (1, 2) or comps.shape[1:] not in ((), (2,)) or not comps.size:
            raise DomainError("forecast mixture needs (S, 2) negbin rows or (S,) poisson rates")
        # min/max reductions: NaN fails every comparison
        if comps.ndim == 1:
            ok = 0.0 <= comps.min() and comps.max() < np.inf
        else:
            r, p = comps[:, 0], comps[:, 1]
            ok = 0.0 < r.min() and r.max() < np.inf and 0.0 < p.min() and p.max() < 1.0
        if not ok:
            raise DomainError("forecast mixture component outside its parameter domain")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "point_forecast", self.mean())
        object.__setattr__(
            self, "interval", (float(self.quantile(0.025)), float(self.quantile(0.975)))
        )

    def mean(self) -> float:
        c = self.components
        if c.ndim == 1:
            return float(np.mean(c))
        r, p = c[:, 0], c[:, 1]
        return float(np.mean(r * (1.0 - p) / p))

    def cdf(self, n) -> float:
        if n < 0:
            return 0.0
        c = self.components
        k = math.floor(n)
        if c.ndim == 1:
            probs = special.pdtr(k, c)
        else:
            probs = special.betainc(c[:, 0], k + 1.0, c[:, 1])
        return float(np.sum(probs)) / len(c)

    def quantile(self, q: float) -> int:
        """Smallest integer n with mixture CDF(n) >= q."""
        if not (0.0 < q < 1.0):
            raise DomainError(f"quantile level must lie in (0, 1), got {q}")
        if self.cdf(0) >= q:
            return 0
        # invariant: cdf(lo) < q <= cdf(hi)
        lo, hi = 0, 1
        while self.cdf(hi) < q:
            lo = hi
            hi *= 2
            if hi > 2**60:
                raise DomainError("quantile bracket exceeded integer range")
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self.cdf(mid) >= q:
                hi = mid
            else:
                lo = mid
        return hi


@dataclass(frozen=True)
class ForecastReport:
    """Sequential one-step forecasts and their accuracy metrics over a horizon."""

    model: str
    origins: tuple
    actuals: tuple
    points: tuple
    lower: tuple | None
    upper: tuple | None
    mape: float | None
    rmse: float
    mcov: float | None
    mwid: float | None
    skipped_zero_months: tuple = ()
    flags: tuple = ()


@dataclass(frozen=True)
class ComparisonReport:
    models: tuple
    log_marginal_likelihood: dict
    log_cpo: dict
    log_bayes_factors: dict


def forecast_one_step(
    draws: PosteriorDraws,
    a: np.ndarray,
    b: np.ndarray,
    z_next: np.ndarray,
    origin: int,
    beta_next: np.ndarray | None = None,
) -> ForecastDistribution:
    """Mix the per-draw negative binomial one-step predictives at one origin.

    ``a`` and ``b`` hold each retained draw's filtered gamma state (shape,
    rate) at origin-1, shape (S,); ``beta_next`` overrides the (S, p)
    coefficients used for month ``origin`` (needed when coefficients follow a
    random walk).
    """
    if draws.S == 0 or len(a) != draws.S or len(b) != draws.S:
        raise DomainError("need one filtered state per retained draw")
    z_next = np.asarray(z_next, dtype=float)
    betas = draws.beta if beta_next is None else beta_next
    if betas.ndim != 2:
        raise DomainError("per-month coefficient paths need beta_next")
    # one dot product per draw: a matrix product changes the last bits
    m = np.exp([z_next @ beta for beta in betas]) if z_next.size else 1.0
    g = draws.gamma
    gb = g * b
    return ForecastDistribution(origin=origin, components=np.column_stack([g * a, gb / (gb + m)]))


def forecast_metrics(
    actuals,
    points,
    intervals=None,
) -> dict:
    """MAPE / RMSE over point forecasts plus coverage and width when intervals exist.

    Months with a zero actual are skipped in the MAPE (and reported); coverage
    uses the strict double inequality lower < actual < upper.
    """
    actuals = np.asarray(actuals, dtype=float)
    points = np.asarray(points, dtype=float)
    if actuals.shape != points.shape:
        raise DomainError("actuals and points must align")
    rmse = float(np.sqrt(np.mean((actuals - points) ** 2)))
    nonzero = actuals > 0
    skipped = tuple(int(i) for i in np.nonzero(~nonzero)[0])
    if nonzero.any():
        mape = float(np.mean(np.abs(actuals[nonzero] - points[nonzero]) / actuals[nonzero]))
    else:
        mape = None
    mcov = mwid = None
    if intervals is not None:
        lo = np.asarray([iv[0] for iv in intervals], dtype=float)
        hi = np.asarray([iv[1] for iv in intervals], dtype=float)
        if np.any(lo > hi):
            raise DomainError("interval lower bounds exceed upper bounds")
        mcov = float(np.mean((lo < actuals) & (actuals < hi)))
        mwid = float(np.mean(hi - lo))
    return {"mape": mape, "rmse": rmse, "mcov": mcov, "mwid": mwid, "skipped": skipped}


def _check_window(window, T: int):
    start, end = int(window[0]), int(window[1])
    if start < 2:
        raise DomainError("forecast origins must leave at least one training month")
    if end > T:
        raise DomainError(f"forecast window end {end} exceeds series length {T}")
    if end < start:
        raise DomainError("empty forecast window")
    return start, end


def _forecast_distribution_at(
    spec: ModelSpec,
    draws: PosteriorDraws,
    train_series: CountSeries,
    train_design: DesignMatrix,
    design: DesignMatrix,
    origin: int,
    priors: PriorConfig,
    rng: RngStream,
) -> ForecastDistribution:
    z_next = design.rows[origin - 1]
    if spec.variant == "BPM":
        return ForecastDistribution(origin=origin, components=np.exp(draws.beta @ z_next))

    # keep only the end states: the (S, T+1) trajectories would add to peak memory
    a, b = np.empty(draws.S), np.empty(draws.S)
    for block, traj in filter_draws(
        train_series.counts, train_design, draws.beta, draws.gamma, priors.a0, priors.b0
    ):
        a[block] = traj.a[:, -1]
        b[block] = traj.b[:, -1]
    beta_next = None
    if spec.variant == "DM5":
        # coefficients follow a random walk: propagate one step past the train window
        steps = rng.generator.standard_normal((draws.S, design.p)) / np.sqrt(draws.tau)
        beta_next = draws.beta[:, -1, :] + steps
    return forecast_one_step(draws, a, b, z_next, origin, beta_next=beta_next)


def sequential_harness(
    series: CountSeries,
    design: DesignMatrix,
    spec: ModelSpec,
    priors: PriorConfig,
    config: MhConfig,
    window,
    rng: RngStream,
) -> ForecastReport:
    """Expanding-window one-step forecasting: refit on months 1..o-1, predict month o.

    Each origin is scored after the fact against the realized count; origins
    use independent substreams so they could run concurrently.
    """
    start, end = _check_window(window, series.T)
    if spec.variant == "EWMA":
        return ewma_forecast(series, window)
    if design.T != series.T:
        raise DomainError("design must cover every month of the series")

    origins, actuals, points, lowers, uppers = [], [], [], [], []
    for o in range(start, end + 1):
        sub = rng.substream(o)
        train_series = series.head(o - 1)
        train_design = design.head(o - 1)
        try:
            draws = fit_variant(
                spec, train_series, train_design, priors, config, sub, smooth=False
            )
            dist = _forecast_distribution_at(
                spec, draws, train_series, train_design, design, o, priors, sub.substream(1)
            )
        except (FitError, DomainError) as exc:
            raise FitError(f"forecast fit failed at origin {o}: {exc}") from exc
        origins.append(o)
        actuals.append(int(series.counts[o - 1]))
        points.append(dist.point_forecast)
        lowers.append(dist.interval[0])
        uppers.append(dist.interval[1])

    metrics = forecast_metrics(actuals, points, intervals=list(zip(lowers, uppers)))
    flags = ()
    if metrics["skipped"]:
        flags = ("mape_skipped_zero_actual_months",)
    return ForecastReport(
        model=spec.variant,
        origins=tuple(origins),
        actuals=tuple(actuals),
        points=tuple(points),
        lower=tuple(lowers),
        upper=tuple(uppers),
        mape=metrics["mape"],
        rmse=metrics["rmse"],
        mcov=metrics["mcov"],
        mwid=metrics["mwid"],
        skipped_zero_months=tuple(origins[i] for i in metrics["skipped"]),
        flags=flags,
    )


def ewma_recursion(counts: np.ndarray, nu: float) -> np.ndarray:
    """One-step EWMA predictions; prediction for month 1 is the first observation."""
    counts = np.asarray(counts, dtype=float)
    preds = np.empty(len(counts))
    preds[0] = counts[0]
    for t in range(1, len(counts)):
        preds[t] = nu * counts[t - 1] + (1.0 - nu) * preds[t - 1]
    return preds


def select_ewma_nu(counts: np.ndarray, grid_step: float = 0.01) -> tuple:
    """Smoothing constant minimizing in-sample MAPE (RMSE fallback for all-zero data).

    Returns (nu, used_rmse_fallback); ties resolve to the smallest nu.
    """
    counts = np.asarray(counts, dtype=float)
    grid = np.round(np.arange(0.0, 1.0 + 1e-9, grid_step), 10)
    nonzero = counts > 0
    fallback = not nonzero.any()
    best_nu, best_val = None, np.inf
    for nu in grid:
        preds = ewma_recursion(counts, nu)
        if fallback:
            val = float(np.sqrt(np.mean((counts - preds) ** 2)))
        else:
            val = float(np.mean(np.abs(counts[nonzero] - preds[nonzero]) / counts[nonzero]))
        if val < best_val - 1e-15:
            best_nu, best_val = float(nu), val
    return best_nu, fallback


def ewma_forecast(series: CountSeries, window, grid_step: float = 0.01) -> ForecastReport:
    """Sequential EWMA benchmark: re-select nu at every origin, then predict it."""
    start, end = _check_window(window, series.T)
    counts = series.counts.astype(float)
    origins, actuals, points = [], [], []
    any_fallback = False
    for o in range(start, end + 1):
        train = counts[: o - 1]
        nu, fallback = select_ewma_nu(train, grid_step)
        any_fallback = any_fallback or fallback
        preds = ewma_recursion(train, nu)
        point = nu * train[-1] + (1.0 - nu) * preds[-1]
        origins.append(o)
        actuals.append(int(counts[o - 1]))
        points.append(float(point))
    metrics = forecast_metrics(actuals, points, intervals=None)
    flags = tuple(
        f
        for f in (
            "ewma_rmse_fallback" if any_fallback else None,
            "mape_skipped_zero_actual_months" if metrics["skipped"] else None,
        )
        if f
    )
    return ForecastReport(
        model="EWMA",
        origins=tuple(origins),
        actuals=tuple(actuals),
        points=tuple(points),
        lower=None,
        upper=None,
        mape=metrics["mape"],
        rmse=metrics["rmse"],
        mcov=None,
        mwid=None,
        skipped_zero_months=tuple(origins[i] for i in metrics["skipped"]),
        flags=flags,
    )


def harmonic_mean_logml(log_likelihoods) -> float:
    """Harmonic-mean estimate of the log marginal likelihood from per-draw
    total log likelihoods, computed by log-sum-exp on the negated values."""
    ll = np.asarray(log_likelihoods, dtype=float)
    if ll.size < 1:
        raise DomainError("need at least one draw")
    return float(-(logsumexp(-ll) - math.log(ll.size)))


def cpo_log_sum(log_f: np.ndarray) -> float:
    """Sum over observations of the log conditional predictive ordinate.

    ``log_f[j, i]`` is the log likelihood of observation i under draw j; each
    CPO_i is the harmonic mean over draws.
    """
    log_f = np.asarray(log_f, dtype=float)
    if log_f.ndim != 2:
        raise DomainError("expected a draws-by-observations matrix")
    S = log_f.shape[0]
    log_cpo = math.log(S) - logsumexp(-log_f, axis=0)
    return float(np.sum(log_cpo))


def per_draw_log_predictives(
    series: CountSeries,
    design: DesignMatrix,
    draws: PosteriorDraws,
    priors: PriorConfig,
) -> np.ndarray:
    """(S, T) matrix of per-observation log likelihoods under each retained draw.

    Dynamic models use the rate-integrated one-step predictives; the Poisson
    regression benchmark scores each month's Poisson pmf directly.
    """
    counts = series.counts
    if draws.variant == "BPM":
        eta = draws.beta @ design.rows.T  # (S, T)
        return counts * eta - np.exp(eta) - special.gammaln(counts + 1.0)
    return np.concatenate(
        [
            traj.log_predictive
            for _, traj in filter_draws(counts, design, draws.beta, draws.gamma, priors.a0, priors.b0)
        ]
    )


def compare_models(
    series: CountSeries,
    raw_covariates: dict,
    specs: list,
    priors: PriorConfig,
    config: MhConfig,
    rng: RngStream,
    start_month: int = 1,
) -> ComparisonReport:
    """Fit every model in the roster and score log marginal likelihood and log CPO."""
    names = []
    logml = {}
    logcpo = {}
    for k, spec in enumerate(specs):
        if spec.variant == "EWMA":
            raise DomainError("EWMA has no likelihood; it cannot enter the comparison")
        if spec.variant in names:
            raise DomainError(f"duplicate model {spec.variant} in the roster")
        design = build_design(raw_covariates, spec, series.T, start_month=start_month)
        draws = fit_variant(spec, series, design, priors, config, rng.substream(k), smooth=False)
        L = per_draw_log_predictives(series, design, draws, priors)
        names.append(spec.variant)
        logml[spec.variant] = harmonic_mean_logml(L.sum(axis=1))
        logcpo[spec.variant] = cpo_log_sum(L)
    log_bf = {
        m1: {m2: logml[m1] - logml[m2] for m2 in names} for m1 in names
    }
    return ComparisonReport(
        models=tuple(names),
        log_marginal_likelihood=logml,
        log_cpo=logcpo,
        log_bayes_factors=log_bf,
    )

