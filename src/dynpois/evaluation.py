"""Out-of-sample one-month-ahead forecasting, the EWMA benchmark, forecast
accuracy metrics, and sampling-based model-comparison scores."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .filtering import negbin_rows
from .kernels import DomainError, RngStream, is_integer, logsumexp
from .mcmc import FitError, MhConfig, PosteriorDraws, fit_variant, predictive_blocks
from .model import CountSeries, DesignMatrix, ModelSpec, PriorConfig


# The pmf table that narrows ForecastDistribution.quantile's search covers the
# counts 0..hi with hi < TABLE_COUNTS, and TABLE_ENTRIES bounds its time; it is
# filled TABLE_CHUNK entries at a time, which bounds its memory. Over that
# domain its CDF stayed within 2.3e-12 of a 40-digit mpmath sum of the same
# recurrence (worst at a Poisson rate of 1698), which TABLE_MARGIN exceeds 40
# times over.
TABLE_ENTRIES = 2**21
TABLE_COUNTS = 2**11
TABLE_CHUNK = 2**16
TABLE_MARGIN = 1e-10


@dataclass(frozen=True)
class ForecastDistribution:
    """Weighted mixture of per-draw one-step predictive distributions.

    ``components`` holds one row per draw: an (S, 2) array of negative
    binomial ``(r, p)`` pairs, or an (S,) array of Poisson rates. ``weights``
    holds one nonnegative weight per row, with at least one positive; they
    are stored divided by their maximum, so equal weights become ones and
    give the equal-weight mixture bit for bit. Omitted weights are equal.
    An interval end is a ``quantile``: one search bisects the exact ``cdf``
    inside a bracket that one numpy pmf table of the mixture narrows, the
    same table for both ends. Only ``cdf`` imports ``scipy.special``, when
    first called, so a forecast loads scipy only for a level whose bracket
    the table leaves wider than one count.
    """

    origin: int
    components: np.ndarray = field(compare=False)
    weights: np.ndarray | None = field(default=None, compare=False)
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
        if self.weights is None:
            weights = np.ones(len(comps))
        else:
            weights = np.asarray(self.weights, dtype=float)
            if weights.shape != (len(comps),):
                raise DomainError("forecast mixture needs one weight per component")
            if not (0.0 <= weights.min() and 0.0 < weights.max() < np.inf):
                raise DomainError("mixture weights must be finite and nonnegative, with one positive")
            weights = weights / weights.max()
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "point_forecast", self.mean())
        object.__setattr__(self, "interval", tuple(float(n) for n in self._quantiles((0.025, 0.975))))

    def _average(self, values: np.ndarray) -> float:
        """The weighted mean of one value per component."""
        return float(np.sum(self.weights * values)) / float(np.sum(self.weights))

    def _component_moments(self) -> tuple:
        """The mean and the variance of each component, as two (S,) arrays."""
        c = self.components
        if c.ndim == 1:
            return c, c
        r, p = c[:, 0], c[:, 1]
        means = r * (1.0 - p) / p
        return means, means / p

    def _cantelli_top(self, q: float) -> int:
        """ceil(mean + sqrt(q / (1 - q)) sd) + 1, at most 2**60: a count whose
        mixture CDF is at least q by Cantelli's inequality P(X - mean >= t) <=
        sd^2 / (sd^2 + t^2), with the mixture's mean and sd in closed form."""
        means, variances = self._component_moments()
        mean = self._average(means)
        sd = math.sqrt(max(self._average(variances + means**2) - mean**2, 0.0))
        top = mean + math.sqrt(q / (1.0 - q)) * sd
        # NaN fails the comparison
        return math.ceil(top) + 1 if top < 2**60 else 2**60

    def mean(self) -> float:
        return self._average(self._component_moments()[0])

    def cdf(self, n) -> float:
        from scipy import special

        if n < 0:
            return 0.0
        c = self.components
        k = math.floor(n)
        if c.ndim == 1:
            probs = special.pdtr(k, c)
        else:
            probs = special.betainc(c[:, 0], k + 1.0, c[:, 1])
        return self._average(probs)

    def quantile(self, q: float) -> int:
        """Smallest integer n with mixture CDF(n) >= q, by ``_search``."""
        return self._quantiles((q,))[0]

    def _quantiles(self, levels) -> tuple:
        """``quantile`` at each level, with one table for all of them."""
        for q in levels:
            if not (0.0 < q < 1.0):
                raise DomainError(f"quantile level must lie in (0, 1), got {q}")
        tops = [self._cantelli_top(q) for q in levels]
        table = self._table_cdf(max(tops))
        return tuple(self._search(q, table, top) for q, top in zip(levels, tops))

    def _search(self, q: float, table: np.ndarray | None, top: int) -> int:
        """Smallest integer n with CDF(n) >= q: bisect ``cdf`` inside a bracket
        lo < n <= hi, with cdf(lo) < q <= cdf(hi) and cdf(-1) = 0.

        The ``table`` CDF lies within TABLE_MARGIN of the exact one, its
        measured error bound with room to spare, so the last count it puts more
        than the margin below q is a lo, and the first it puts more than the
        margin above q a hi. A bracket one count wide is the answer, with no
        ``cdf`` call. With no table count above q + margin, hi is the Cantelli
        ``top``, doubled while its exact CDF falls short of q (the top's mean
        and sd are rounded). A quantile beyond 2**60 raises DomainError.
        """
        lo, hi = -1, None
        if table is not None:
            lo = int(np.searchsorted(table, q - TABLE_MARGIN)) - 1
            above = int(np.searchsorted(table, q + TABLE_MARGIN, side="right"))
            hi = above if above < len(table) else None
        if hi is None:
            hi = top
            while self.cdf(hi) < q:
                if hi == 2**60:
                    raise DomainError("quantile bracket exceeded integer range")
                lo, hi = hi, min(2 * hi, 2**60)
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self.cdf(mid) >= q:
                hi = mid
            else:
                lo = mid
        return hi

    def _table_cdf(self, hi: int) -> np.ndarray | None:
        """The mixture CDF at the counts 0..hi from one pmf table, or None when
        the table would break TABLE_COUNTS or TABLE_ENTRIES.

        Each row's log pmf runs from log pmf(0) by the ratio recurrence, one
        log per entry: log((k - 1 + r) / k) + log(1 - p) for a negative
        binomial row, log(lam) - log(k) for a Poisson row. The weighted column
        sums of the pmfs, cumulatively summed, give the CDF.
        """
        c, S = self.components, len(self.components)
        if hi >= TABLE_COUNTS or S * (hi + 1) > TABLE_ENTRIES:
            return None
        k = np.arange(1.0, hi + 1.0)
        log_k = np.log(k)
        column = np.zeros(hi + 1)
        rows = TABLE_CHUNK // (hi + 1)
        for start in range(0, S, rows):
            block = c[start : start + rows]
            log_pmf = np.empty((len(block), hi + 1))
            steps = log_pmf[:, 1:]
            if c.ndim == 1:
                log_pmf[:, 0] = -block
                # a rate of 0 gives log pmf -inf past 0
                with np.errstate(divide="ignore"):
                    np.subtract(np.log(block)[:, None], log_k, out=steps)
            else:
                r, p = block[:, 0], block[:, 1]
                log_pmf[:, 0] = r * np.log(p)
                np.add(k - 1.0, r[:, None], out=steps)
                steps /= k
                np.log(steps, out=steps)
                steps += np.log1p(-p)[:, None]
            np.cumsum(log_pmf, axis=1, out=log_pmf)
            column += self.weights[start : start + rows] @ np.exp(log_pmf, out=log_pmf)
        return np.cumsum(column) / np.sum(self.weights)


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
    # per origin, the Kish efficiency of the forecast's draw weights, and the
    # origins that refit; None for EWMA, which fits no draws
    weight_efficiency: tuple | None = None
    refit_origins: tuple | None = None


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
    multipliers: np.ndarray,
    origin: int,
    weights: np.ndarray | None = None,
) -> ForecastDistribution:
    """Mix the per-draw negative binomial one-step predictives at one origin.

    ``a`` and ``b`` hold each retained draw's filtered gamma state (shape,
    rate) at origin-1 and ``multipliers`` its multiplier exp(beta' z) of month
    ``origin``, each of shape (S,); ``weights`` holds the draws' mixture
    weights, equal if omitted.
    """
    if draws.S == 0 or not len(a) == len(b) == len(multipliers) == draws.S:
        raise DomainError("need one filtered state and one multiplier per retained draw")
    return ForecastDistribution(
        origin=origin, components=negbin_rows(draws.gamma, a, b, multipliers), weights=weights
    )


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
    if not all(is_integer(x) for x in window[:2]):
        raise DomainError(f"forecast window ends must be integers, got {window}")
    start, end = int(window[0]), int(window[1])
    if start < 2:
        raise DomainError("forecast origins must leave at least one training month")
    if end > T:
        raise DomainError(f"forecast window end {end} exceeds series length {T}")
    if end < start:
        raise DomainError("empty forecast window")
    return start, end


def _filter_window(series, design, draws, priors, o_fit: int, end: int, rng: RngStream) -> tuple:
    """One ``predictive_blocks`` pass of draws fitted on months 1..o_fit-1, over
    months 1..end. Returns only the window's columns: each draw's one-step log
    predictives of months o_fit..end-1, (S, end-o_fit), and the components of
    its one-step predictives of months o_fit..end, one row per draw, in draw
    order. Coefficient paths (DM5's) end at month o_fit-1: one random-walk step
    on ``rng``, a stream no fitter draws from, extends them to month o_fit, and
    their pass ends there.
    """
    if draws.beta.ndim == 3:
        steps = rng.generator.standard_normal((draws.S, design.p)) / np.sqrt(draws.tau)
        draws = replace(draws, beta=np.concatenate([draws.beta, (draws.beta[:, -1] + steps)[:, None]], axis=1))
        end = o_fit
    log_pred, comps = [], []
    for lp, c in predictive_blocks(series.head(end), design.head(end), draws, priors, o_fit):
        # only the window's columns outlive the block
        log_pred.append(lp[:, o_fit - 1 : end - 1].copy())
        comps.append(c)
    return np.concatenate(log_pred), np.concatenate(comps)


# Kish efficiency (sum w)^2 / (S sum w^2) of the reweighted draws below which
# an origin refits instead
REFIT_EFFICIENCY = 0.5


def _kish_efficiency(log_w: np.ndarray) -> float:
    """(sum w)^2 / (S sum w^2) for w = exp(log_w); 0 when no weight is positive
    or one is NaN."""
    top = np.max(log_w)
    if not np.isfinite(top):
        return 0.0
    w = np.exp(log_w - top)
    return float(np.sum(w) ** 2 / (len(w) * np.sum(w * w)))


def sequential_harness(
    series: CountSeries,
    design: DesignMatrix,
    spec: ModelSpec,
    priors: PriorConfig,
    config: MhConfig,
    window,
    rng: RngStream,
) -> ForecastReport:
    """Expanding-window one-step forecasting: predict month o from months 1..o-1.

    The first origin fits months 1..o-1 on ``rng.substream(o)``, and one
    batched filter pass of the fitted draws (``_filter_window``, whose DM5
    step draws on ``rng.substream(o).substream(2)``) gives each
    draw's one-step log predictives and its one-step mixture components over
    the rest of the window. Each later origin that pass reaches adds the log
    predictive of the month just seen to each draw's log weight, and reads its
    components of the month to forecast, which turns the posterior on months
    1..o-2 into the one on months 1..o-1 (Chopin 2002, Biometrika
    89:539-551). When the weights' Kish efficiency falls below
    REFIT_EFFICIENCY, or the pass ends before o (DM5's does at its fitted
    origin), that origin refits from scratch on ``rng.substream(o)`` instead,
    as the first origin did, and filters the new draws once more. The origins
    run in order, each from the one before; each is scored after the fact
    against the realized count.
    """
    start, end = _check_window(window, series.T)
    if spec.variant == "EWMA":
        return ewma_forecast(series, window)
    if design.T != series.T:
        raise DomainError("design must cover every month of the series")

    origins, actuals, points, intervals, efficiency, refits = [], [], [], [], [], []
    fitting = False
    for o in range(start, end + 1):
        try:
            reweighted = o > start and o - o_fit < comps.shape[1]
            if reweighted:
                log_w = log_w + log_pred[:, o - 1 - o_fit]
            if not reweighted or _kish_efficiency(log_w) < REFIT_EFFICIENCY:
                stream, fitting = rng.substream(o), True
                draws = fit_variant(spec, series.head(o - 1), design.head(o - 1), priors, config, stream, smooth=False)
                fitting = False
                o_fit, log_w = o, np.zeros(draws.S)
                log_pred, comps = _filter_window(series, design, draws, priors, o, end, stream.substream(2))
                refits.append(o)
            weights = np.exp(log_w - np.max(log_w))
            dist = ForecastDistribution(origin=o, components=comps[:, o - o_fit], weights=weights)
        except (FitError, DomainError) as exc:
            # the fit's DomainError is an input error (say, too few training months
            # for the model); a failed chain, or the mixture's DomainError, is numeric
            kind = DomainError if fitting and isinstance(exc, DomainError) else FitError
            raise kind(f"forecast fit failed at origin {o}: {exc}") from exc
        origins.append(o)
        actuals.append(int(series.counts[o - 1]))
        points.append(dist.point_forecast)
        intervals.append(dist.interval)
        efficiency.append(_kish_efficiency(log_w))
    report = _forecast_report(spec.variant, origins, actuals, points, intervals)
    return replace(report, weight_efficiency=tuple(efficiency), refit_origins=tuple(refits))


def _forecast_report(model, origins, actuals, points, intervals=None, flags=()) -> ForecastReport:
    """Score the forecasts; flag the zero-actual origins the MAPE skipped."""
    metrics = forecast_metrics(actuals, points, intervals=intervals)
    if metrics["skipped"]:
        flags += ("mape_skipped_zero_actual_months",)
    return ForecastReport(
        model=model,
        origins=tuple(origins),
        actuals=tuple(actuals),
        points=tuple(points),
        lower=None if intervals is None else tuple(lo for lo, _ in intervals),
        upper=None if intervals is None else tuple(hi for _, hi in intervals),
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


def ewma_forecast(series: CountSeries, window) -> ForecastReport:
    """Sequential EWMA benchmark: re-select nu at every origin, then predict it."""
    start, end = _check_window(window, series.T)
    counts = series.counts.astype(float)
    origins, actuals, points = [], [], []
    any_fallback = False
    for o in range(start, end + 1):
        train = counts[: o - 1]
        nu, fallback = select_ewma_nu(train)
        any_fallback = any_fallback or fallback
        preds = ewma_recursion(train, nu)
        point = nu * train[-1] + (1.0 - nu) * preds[-1]
        origins.append(o)
        actuals.append(int(counts[o - 1]))
        points.append(float(point))
    flags = ("ewma_rmse_fallback",) if any_fallback else ()
    return _forecast_report("EWMA", origins, actuals, points, flags=flags)


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
    """(S, T) matrix of per-observation log likelihoods under each retained draw:
    the one-step log predictives of ``predictive_blocks``.

    Dynamic models use the rate-integrated one-step predictives; the Poisson
    regression benchmark scores each month's Poisson pmf directly.
    """
    return np.concatenate([lp for lp, _ in predictive_blocks(series, design, draws, priors, series.T + 1)])


def compare_models(
    series: CountSeries,
    models: list,
    priors: PriorConfig,
    config: MhConfig,
    rng: RngStream,
) -> ComparisonReport:
    """Fit each built ``(spec, design)`` pair of the roster, position k on
    ``rng.substream(k)``, and score log marginal likelihood and log CPO.

    Both scores read the (S, T) per-month log likelihoods of a model's retained
    draws: the rows its chain already filtered them with when the fit kept
    them, else one ``per_draw_log_predictives`` pass. The rows are taken off
    the draws once scored, so none outlives its model's scoring.
    """
    names = []
    logml = {}
    logcpo = {}
    for k, (spec, design) in enumerate(models):
        if spec.variant == "EWMA":
            raise DomainError("EWMA has no likelihood; it cannot enter the comparison")
        if spec.variant in names:
            raise DomainError(f"duplicate model {spec.variant} in the roster")
        draws = fit_variant(spec, series, design, priors, config, rng.substream(k), smooth=False, log_predictive=True)
        L, draws.log_predictive = draws.log_predictive, None
        if L is None:
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
