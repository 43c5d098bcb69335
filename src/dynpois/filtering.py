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
support enforces theta_{n-1} > gamma*theta_n on every sampled path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .kernels import DomainError, NumericDegeneracyError, RngStream
from .model import CountSeries, DesignMatrix, PriorConfig, linear_predictor

# Draws per batched filter pass: large enough to amortise the per-month Python
# step, small enough that the (S, T) work arrays add little to peak memory.
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


def filter_core(
    counts: np.ndarray,
    multipliers: np.ndarray,
    gamma: float | np.ndarray,
    a0: float,
    b0: float,
) -> FilterTrajectory:
    """Run predict/update over all months. Array-level workhorse for the MCMC loops.

    Scalar: ``gamma`` a float and ``multipliers`` of shape (T,). Batched:
    ``gamma`` of shape (S,) and ``multipliers`` of shape (S, T), one row per
    draw; the result's row j equals the scalar call on (gamma[j],
    multipliers[j]) bit for bit. ``counts`` has shape (T,) in both cases.
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

    # one recursion for both cases: Python floats are much cheaper per step
    # than numpy scalars, and S-vectors carry a whole batch through each step
    if g.ndim == 0:
        g = float(g)
        x, y = float(a0), float(b0)
        steps = zip(counts.tolist(), multipliers.tolist())
    else:
        x, y = np.full(g.shape, float(a0)), np.full(g.shape, float(b0))
        steps = zip(counts.tolist(), multipliers.T)
    a, b = [x], [y]
    for c, m in steps:
        x = g * x + c
        y = g * y + m
        a.append(x)
        b.append(y)
    a = np.ascontiguousarray(np.array(a).T)
    b = np.ascontiguousarray(np.array(b).T)

    # negbin log pmf of N_t under r_t = gamma*a_{t-1}, p_t = gamma*b_{t-1}/(gamma*b_{t-1}+m_t);
    # extreme multipliers can overflow the rate recursion, leaving non-finite
    # entries for the caller to treat as out-of-support
    g_col = np.asarray(g)[..., None]
    r = g_col * a[..., :-1]
    gb = g_col * b[..., :-1]
    n = counts.astype(float)
    with np.errstate(invalid="ignore", over="ignore"):
        log_pred = (
            gammaln(r + n)
            - gammaln(n + 1.0)
            - gammaln(r)
            + r * (np.log(gb) - np.log(gb + multipliers))
            + n * (np.log(multipliers) - np.log(gb + multipliers))
        )
    return FilterTrajectory(a=a, b=b, gamma=g, log_predictive=log_pred)


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
    beta: np.ndarray,
    priors: PriorConfig,
) -> GammaGridPosterior:
    """Posterior of the discount factor under a uniform prior on the grid
    {step, 2*step, ..., 1 - step}, with step = ``priors.gamma_grid_step``."""
    step = priors.gamma_grid_step
    grid = np.arange(1, round(1.0 / step)) * step

    betas = np.broadcast_to(np.asarray(beta, dtype=float), (len(grid), *np.shape(beta)))
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

    # static rows add exact zeros, so their paths stay at theta_T
    if g.ndim == 1:
        gamma, steps = float(g[0]), variates.tolist()
    else:
        gamma, steps = g[:, 0], variates.T
    theta = steps[0]
    backward = [theta]
    for increment in steps[1:]:
        theta = gamma * theta + increment
        backward.append(theta)
    path = np.ascontiguousarray(np.array(backward[::-1]).T)
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
