"""Exact conditional inference for the gamma-discount Poisson state model.

Conditional on the discount factor gamma (and regression coefficients when
covariates are present), everything here is closed form:

  predict:  (a, b)            -> (gamma*a, gamma*b)        mean kept, variance / gamma
  update:   (a, b), N_t, m_t  -> (a + N_t, b + m_t)        m_t = exp(beta' z_t)
  one-step: N_t | past        ~  NegBin(gamma*a, gamma*b / (gamma*b + m_t))

The per-step negative binomial log-predictives summed over t give the
count likelihood with the latent rates integrated out, which is what the
MCMC engine targets. Backward sampling uses the exact decomposition
theta_{n-1} = gamma*theta_n + Gamma((1-gamma)*a_{n-1}, b_{n-1}), whose
support enforces theta_{n-1} > gamma*theta_n on every sampled path. Each
recursion x_t = gamma*x_{t-1} + c_t (a_t, b_t, the backward path) is one banded
solve over all the draws of a call, and a single draw is its S = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtbsv
from scipy.special import gammaln, logsumexp

from .kernels import DomainError, NumericDegeneracyError, RngStream
from .model import CountSeries, DesignMatrix, PriorConfig, linear_predictor

# Draws per batched filter pass: large enough to amortise the per-call overhead,
# small enough that the (S, T) work arrays add little to peak memory.
FILTER_BLOCK = 256


@dataclass(frozen=True)
class FilterTrajectory:
    """Filtered gamma states (a_t, b_t) for t = 0..T plus per-step log-predictives.

    A scalar run holds ``a``, ``b`` of shape (T+1,), a float ``gamma`` and
    ``log_predictive`` of shape (T,). A batched run over S draws holds ``a``,
    ``b`` of shape (S, T+1), ``gamma`` of shape (S,) and ``log_predictive`` of
    shape (S, T); row j is the scalar run of draw j.
    """

    a: np.ndarray  # (T+1,) or (S, T+1); a[..., 0] = a0
    b: np.ndarray  # (T+1,) or (S, T+1)
    gamma: float | np.ndarray
    log_predictive: np.ndarray  # (T,) or (S, T): log p(N_t | N^(t-1), ...)

    @property
    def T(self) -> int:
        return self.log_predictive.shape[-1]

    @property
    def total_log_predictive(self) -> float | np.ndarray:
        """Summed log-predictive: a float, or one sum per draw for a batched run."""
        total = self.log_predictive.sum(axis=-1)
        return float(total) if total.ndim == 0 else total


@dataclass(frozen=True)
class SmoothingDraws:
    """Sampled latent-rate paths, one row per retained draw."""

    paths: np.ndarray  # (S, T)

    @property
    def S(self) -> int:
        return self.paths.shape[0]

    @property
    def T(self) -> int:
        return self.paths.shape[1]


@dataclass(frozen=True)
class GammaGridPosterior:
    """Discrete posterior of the discount factor over a grid in (0, 1)."""

    grid: np.ndarray
    probs: np.ndarray
    mean: float


def _discount_solve(gamma: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve x[k, j, t] = gamma[j]*x[k, j, t-1] + rhs[k, j, t] from x[k, j, 0] = rhs[k, j, 0].

    The S rows of each rhs[k] form one unit lower-bidiagonal system (subdiagonal
    -gamma[j], 0 at each row start) for one BLAS ``dtbsv`` call; that 0 adds an
    exact zero, so row j equals its own S = 1 solve bit for bit.
    """
    S, L = rhs.shape[1:]
    band = np.ones((2, S, L))
    band[1] = -gamma[:, None]
    band[1, :, -1] = 0.0
    x = rhs.copy()
    for row in x.reshape(len(x), S * L):
        dtbsv(1, band.reshape(2, S * L), row, lower=1, diag=1, overwrite_x=1)
    if S > 1 and not np.isfinite(x[:, :-1, -1]).all():  # inf * 0 would make the next row NaN
        return np.concatenate([_discount_solve(gamma[j : j + 1], rhs[:, j : j + 1]) for j in range(S)], 1)
    return x


def filter_core(
    counts: np.ndarray,
    multipliers: np.ndarray,
    gamma: float | np.ndarray,
    a0: float,
    b0: float,
) -> FilterTrajectory:
    """Run predict/update over all months. Array-level workhorse for the MCMC loops.

    Scalar: ``gamma`` a float and ``multipliers`` of shape (T,). Batched:
    ``gamma`` of shape (S,) and ``multipliers`` of shape (S, T), one row per draw;
    ``counts`` is (T,) in both. A scalar call is the S = 1 case of the same banded
    solve, so row j equals the scalar call on (gamma[j], multipliers[j]) bit for bit.
    """
    counts = np.asarray(counts)
    multipliers = np.asarray(multipliers, dtype=float)
    g = np.asarray(gamma, dtype=float)
    # min/max reductions: NaN fails both comparisons, and they cost far less
    # per call than elementwise masks on the sequential chains' hot path
    if not (0.0 < g.min() and g.max() <= 1.0):
        raise DomainError(f"gamma must lie in (0, 1], got {gamma}")
    T = len(counts)
    if g.ndim > 1 or multipliers.shape != (*g.shape, T):
        raise DomainError("one multiplier per month required")
    if T and not (0.0 < multipliers.min() and multipliers.max() < np.inf):
        raise DomainError("multipliers must be positive and finite")

    rhs = np.empty((2, g.size, T + 1))
    rhs[0, :, 0], rhs[0, :, 1:] = a0, counts
    rhs[1, :, 0], rhs[1, :, 1:] = b0, multipliers
    a, b = _discount_solve(g.reshape(-1), rhs).reshape(2, *g.shape, T + 1)

    # negbin log pmf of N_t under r_t = gamma*a_{t-1}, p_t = gamma*b_{t-1}/(gamma*b_{t-1}+m_t);
    # extreme multipliers can overflow the rate recursion, leaving non-finite
    # entries for the caller to treat as out-of-support
    g_col = g[..., None]
    r = g_col * a[..., :-1]
    gb = g_col * b[..., :-1]
    n = counts.astype(float)
    with np.errstate(invalid="ignore", over="ignore"):
        log_gbm = np.log(gb + multipliers)
        log_pred = gammaln(r + n) - gammaln(n + 1.0) - gammaln(r) + r * (np.log(gb) - log_gbm)
        log_pred += n * (np.log(multipliers) - log_gbm)
    return FilterTrajectory(a=a, b=b, gamma=g if g.ndim else float(g), log_predictive=log_pred)


def filter_draws(
    counts: np.ndarray,
    design: DesignMatrix,
    betas: np.ndarray,
    gammas: np.ndarray,
    a0: float,
    b0: float,
):
    """Filter every posterior draw, FILTER_BLOCK draws per batched ``filter_core`` call.

    Yields ``(block, trajectory)``: a slice into the draws and the batched
    trajectory of those draws, in draw order. Each draw's multipliers come
    from its own ``linear_predictor`` call, so they equal the per-draw values
    bit for bit (a single matrix product over all draws does not).
    """
    for start in range(0, len(gammas), FILTER_BLOCK):
        block = slice(start, start + FILTER_BLOCK)
        multipliers = np.stack([linear_predictor(design, beta) for beta in betas[block]])
        yield block, filter_core(counts, multipliers, gammas[block], a0, b0)


def gamma_grid_posterior(
    series: CountSeries,
    design: DesignMatrix,
    priors: PriorConfig,
) -> GammaGridPosterior:
    """Posterior of the covariate-free model's discount factor under a uniform
    prior on the grid {step, 2*step, ..., 1 - step}, step = ``priors.gamma_grid_step``."""
    step = priors.gamma_grid_step
    grid = np.arange(1, round(1.0 / step)) * step

    betas = np.zeros((len(grid), design.p))
    log_post = np.concatenate(
        [
            traj.total_log_predictive
            for _, traj in filter_draws(series.counts, design, betas, grid, priors.a0, priors.b0)
        ]
    )
    norm = logsumexp(log_post)
    if not np.isfinite(norm):
        raise NumericDegeneracyError(
            "gamma grid posterior has zero total mass",
            context={"grid_size": len(grid)},
        )
    probs = np.exp(log_post - norm)
    return GammaGridPosterior(grid=grid, probs=probs, mean=float(probs @ grid))


def ffbs_sample(trajectory: FilterTrajectory, rng: RngStream) -> np.ndarray:
    """Draw latent-rate paths from their joint smoothing distribution.

    theta_T comes from the final filter Gamma(a_T, b_T); earlier months follow
    the backward kernel theta_{n-1} = gamma*theta_n + Gamma((1-gamma)*a_{n-1},
    b_{n-1}), so every path satisfies theta_{n-1} > gamma*theta_n. Returns a
    path of shape (T,) for a scalar trajectory, or (S, T) for a batched one.

    All gamma variates come from one generator call, in the order of one
    scalar run per draw (theta_T, then the increments for n = T-1..1), so a
    batched call consumes the stream exactly as S scalar calls would. A draw
    with gamma = 1 is static: it draws no increments and its path is constant.
    """
    T = trajectory.T
    a, b = trajectory.a, trajectory.b
    g = np.asarray(trajectory.gamma)[..., None]
    # column k holds the variate drawn k-th: theta_T, then the increment for n = T-k
    shape = np.concatenate([a[..., T:], (1.0 - g) * a[..., T - 1 : 0 : -1]], axis=-1)
    rate = b[..., T:0:-1]
    draw = np.ones(shape.shape, dtype=bool)
    draw[..., 1:] = g != 1.0
    bad = draw & (shape <= 0)
    if bad.any():
        first = np.unravel_index(np.argmax(bad), bad.shape)
        raise NumericDegeneracyError(
            "backward kernel has nonpositive shape",
            context={"month": T - int(first[-1]), "gamma": float(g[first[:-1]][0])},
        )
    variates = np.zeros(shape.shape)
    variates[draw] = rng.generator.gamma(shape=shape[draw], scale=1.0 / rate[draw])

    # theta <- gamma*theta + increment is the filter's recursion, run backward in
    # time; static rows add exact zeros, so their paths stay at theta_T
    backward = _discount_solve(g.reshape(-1), variates.reshape(1, -1, variates.shape[-1]))
    path = np.ascontiguousarray(backward.reshape(variates.shape)[..., ::-1])
    ok = np.isfinite(path) & (path > 0)
    if not np.all(ok):
        bad_month = int(np.argmin(ok) % T) + 1
        raise NumericDegeneracyError(
            "backward sampling produced a degenerate rate", context={"month": bad_month}
        )
    return path


def exceedance_probability(draws: SmoothingDraws, s: int, u: int) -> float:
    """Fraction of sampled paths with theta_s >= theta_u (months are 1-based)."""
    T = draws.T
    if not (1 <= s <= T and 1 <= u <= T):
        raise DomainError(f"month indices must lie in 1..{T}")
    return float(np.mean(draws.paths[:, s - 1] >= draws.paths[:, u - 1]))
