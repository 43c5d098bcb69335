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
recursion x_t = gamma*x_{t-1} + c_t (a_t, b_t, the backward path) runs in month
order, rounding the product and then the sum, in one numpy step per month over
a call's draws at once, or a float loop per row for at most SCALAR_ROWS rows.
Every function here takes a stack of S draws; a single draw is a one-row stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import DomainError, NumericDegeneracyError, RngStream, digamma, is_integer, lgamma, logsumexp, trigamma
from .model import CountSeries, DesignMatrix, PriorConfig, linear_predictor

# Draws per batched filter pass: large enough to amortise the per-call overhead,
# small enough that the (S, T) work arrays add little to peak memory.
FILTER_BLOCK = 256
# Row count K*S up to which the recursions run as Python float loops: a numpy
# month loop costs about 2 us a month whatever the row count, a float loop
# about 0.15 us a month per row, and the two cross near 13 rows.
SCALAR_ROWS = 12


@dataclass(frozen=True)
class FilterTrajectory:
    """Filtered gamma states (a_t, b_t) for t = 0..T plus per-step log-predictives
    of a stack of S draws; row j is the run of draw j. ``multipliers`` is the
    filter's input array itself, not a copy."""

    a: np.ndarray  # (S, T+1); a[:, 0] = a0
    b: np.ndarray  # (S, T+1)
    gamma: np.ndarray  # (S,)
    log_predictive: np.ndarray  # (S, T): log p(N_t | N^(t-1), ...)
    multipliers: np.ndarray  # (S, T): m_t = exp(beta' z_t)

    @property
    def T(self) -> int:
        return self.log_predictive.shape[1]

    @property
    def total_log_predictive(self) -> np.ndarray:
        """Summed log-predictive of each draw, shape (S,)."""
        return self.log_predictive.sum(axis=1)

    def row(self, j: int) -> FilterTrajectory:
        """Draw j as a one-row stack of views into this one."""
        return FilterTrajectory(**{name: x[j : j + 1] for name, x in vars(self).items()})


@dataclass(frozen=True)
class GammaGridPosterior:
    """Discrete posterior of the discount factor over a grid in (0, 1)."""

    grid: np.ndarray
    probs: np.ndarray


def _discount_solve(gamma: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve x[k, j, t] = gamma[j]*x[k, j, t-1] + rhs[k, j, t] from x[k, j, 0] = rhs[k, j, 0].

    ``gamma`` has shape (S,) and ``rhs`` shape (K, S, L). Each step rounds
    gamma*x[t-1] and then the sum, in month order: one numpy step per month
    over the whole stack, or a Python float loop per row for at most
    SCALAR_ROWS rows K*S. Both round alike and no row reads another, so row j
    equals its own one-row solve bit for bit, and a row that overflows to inf
    leaves the others as they are.
    """
    K, S, L = rhs.shape
    if K * S <= SCALAR_ROWS:
        x, gammas = np.empty(rhs.shape), gamma.tolist()
        for (k, j), row in zip(np.ndindex(K, S), rhs.reshape(K * S, L).tolist()):
            g, prev = gammas[j], 0.0  # g*0 + rhs[0] is rhs[0] exactly
            x[k, j] = [prev := g * prev + c for c in row]
        return x
    months = rhs.reshape(K * S, L).T.copy()  # (L, K*S): one contiguous row per month
    g, step = np.tile(gamma, K), np.empty(K * S)
    with np.errstate(over="ignore"):
        for prev, this in zip(months, months[1:]):
            np.multiply(g, prev, out=step)
            this += step
    return np.ascontiguousarray(months.T).reshape(rhs.shape)


def filter_core(
    counts: np.ndarray,
    multipliers: np.ndarray,
    gamma: np.ndarray,
    a0: float,
    b0: float,
) -> FilterTrajectory:
    """Run predict/update over all months for a stack of S draws.

    ``gamma`` is (S,), ``multipliers`` (S, T) and ``counts`` (T,); a single
    draw is a one-row stack, and other shapes raise DomainError. Row j equals
    the one-row call on (gamma[j:j+1], multipliers[j:j+1]) bit for bit, and an
    empty stack (S = 0) gives an empty trajectory.
    """
    counts = np.asarray(counts)
    multipliers = np.asarray(multipliers, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    T = len(counts)
    if gamma.ndim != 1 or multipliers.shape != (len(gamma), T):
        raise DomainError(f"need (S,) gamma and (S, T) multipliers, T = {T}: got {gamma.shape}, {multipliers.shape}")
    # min/max reductions: NaN fails both comparisons, and they cost far less
    # per call than elementwise masks on the sequential chains' hot path
    if gamma.size and not (0.0 < gamma.min() and gamma.max() <= 1.0):
        raise DomainError(f"gamma must lie in (0, 1], got {gamma}")
    if multipliers.size and not (0.0 < multipliers.min() and multipliers.max() < np.inf):
        raise DomainError("multipliers must be positive and finite")

    n = counts.astype(float)
    rhs = np.empty((2, len(gamma), T + 1))
    rhs[0, :, 0], rhs[0, :, 1:] = a0, n
    rhs[1, :, 0], rhs[1, :, 1:] = b0, multipliers
    a, b = _discount_solve(gamma, rhs)

    # negbin log pmf of N_t under r_t = gamma*a_{t-1}, p_t = gamma*b_{t-1}/(gamma*b_{t-1}+m_t);
    # extreme multipliers can overflow the rate recursion, and a subnormal gamma
    # can underflow gamma*b to 0, leaving non-finite entries for the caller to
    # treat as out-of-support. One lgamma call takes the three arguments r + n,
    # r and n + 1, built in place in one array: the small stacks of the DM5
    # sweep pay its fixed numpy overhead once, and r is a view into it
    size = multipliers.size
    args = np.empty(2 * size + T)
    rn, r = args[: 2 * size].reshape(2, *multipliers.shape)
    np.multiply(gamma[:, None], a[:, :-1], out=r)
    np.add(r, n, out=rn)
    np.add(n, 1.0, out=args[2 * size :])
    lg = lgamma(args)
    lg_rn, lg_r = lg[: 2 * size].reshape(2, *multipliers.shape)
    lg_n1 = lg[2 * size :]
    gb = gamma[:, None] * b[:, :-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_gbm = np.add(gb, multipliers)
        np.log(log_gbm, out=log_gbm)
        # lg_rn - lg_n1 - lg_r + r * (log(gb) - log_gbm) + n * (log(m) - log_gbm),
        # in that order, with gb's buffer holding each bracket in turn
        log_pred = lg_rn
        log_pred -= lg_n1
        log_pred -= lg_r
        term = np.log(gb, out=gb)
        term -= log_gbm
        term *= r
        log_pred += term
        np.log(multipliers, out=term)
        term -= log_gbm
        term *= n
        log_pred += term
    return FilterTrajectory(a=a, b=b, gamma=gamma, log_predictive=log_pred, multipliers=multipliers)


def log_likelihood_derivatives(
    counts: np.ndarray,
    rows: np.ndarray,
    eta: np.ndarray,
    gamma: float,
    a0: float,
    b0: float,
    free_gamma: bool,
) -> tuple:
    """Value, gradient and Hessian of the summed log-predictive of one point.

    The point has log multipliers ``eta`` = beta' z_t, (T,), from the (T, p)
    design ``rows``, and discount factor ``gamma``. The derivatives are in
    theta = (beta, gamma) when ``free_gamma``, and in beta alone otherwise.
    Every derivative of a_t and b_t is itself a recursion x_t = gamma*x_{t-1} + c_t,
    solved by ``_discount_solve`` in three levels, each level's c_t coming
    from the one before:

      1. a, b, db/dbeta_j (c_t = m_t z_tj) and d2b/dbeta_j dbeta_k (m_t z_tj z_tk);
      2. da/dgamma, db/dgamma (a_{t-1}, b_{t-1}) and d2b/dgamma dbeta_j (db_{t-1}/dbeta_j);
      3. d2a/dgamma2, d2b/dgamma2 (2 da_{t-1}/dgamma, 2 db_{t-1}/dgamma).

    Month t's log predictive lgamma(r+n) - lgamma(n+1) - lgamma(r) + r log g
    + n eta - (r+n) log(g+m), with r = gamma a_{t-1} and g = gamma b_{t-1},
    is then differentiated in (r, g, eta) and chained through them. A point
    whose multipliers overflow or underflow, or whose value is not finite,
    has value -inf.
    """
    n = np.asarray(counts, dtype=float)
    T, p = rows.shape
    with np.errstate(over="ignore", under="ignore"):
        m = np.exp(eta)
    d = p + free_gamma
    if not (0.0 < m.min() and m.max() < np.inf):
        return -np.inf, np.full(d, np.nan), np.full((d, d), np.nan)
    g_arr = np.array([gamma])
    i, j = np.triu_indices(p)
    mz = m[:, None] * rows
    first = np.zeros((2 + p + len(i), 1, T + 1))
    first[0, 0, 0], first[0, 0, 1:] = a0, n
    first[1, 0, 0], first[1, 0, 1:] = b0, m
    first[2 : 2 + p, 0, 1:] = mz.T
    first[2 + p :, 0, 1:] = (mz[:, i] * rows[:, j]).T
    x1 = _discount_solve(g_arr, first)[:, 0]
    a, b = x1[0], x1[1]

    # jac[t] holds the first derivatives of month t's (r, g, eta) in theta:
    # d(gamma x_{t-1})/dgamma is month t of x's own gamma derivative
    r, g = gamma * a[:-1], gamma * b[:-1]
    jac = np.zeros((T, 3, d))
    jac[:, 1, :p] = gamma * x1[2 : 2 + p, :-1].T
    jac[:, 2, :p] = rows
    if free_gamma:
        second = np.zeros((2 + p, 1, T + 1))
        second[:, 0, 1:] = x1[: 2 + p, :-1]
        x2 = _discount_solve(g_arr, second)[:, 0]
        third = np.zeros((2, 1, T + 1))
        third[:, 0, 1:] = 2.0 * x2[:2, :-1]
        x3 = _discount_solve(g_arr, third)[:, 0]
        jac[:, :2, p] = x2[:2, 1:].T

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rn, gm = r + n, g + m
        log_g, log_gm = np.log(g), np.log(gm)
        args = np.concatenate([rn, r])
        lg = lgamma(np.concatenate([args, n + 1.0]))
        value = float(np.sum(lg[:T] - lg[2 * T :] - lg[T : 2 * T] + r * (log_g - log_gm) + n * (eta - log_gm)))
        psi, psi1 = digamma(args), trigamma(args)
        q = m / gm
        # the gradient and the Hessian of month t's term in (r, g, eta)
        df = np.stack([psi[:T] - psi[T:] + log_g - log_gm, r / g - rn / gm, n - rn * q], axis=1)
        f = np.empty((T, 3, 3))
        f[:, 0, 0] = psi1[:T] - psi1[T:]
        f[:, 0, 1] = f[:, 1, 0] = q / g
        f[:, 0, 2] = f[:, 2, 0] = -q
        f[:, 1, 1] = rn / gm**2 - r / g**2
        f[:, 1, 2] = f[:, 2, 1] = rn * q / gm
        f[:, 2, 2] = -rn * q * g / gm
        flat = jac.reshape(3 * T, d)
        grad = df.reshape(3 * T) @ flat
        hess = flat.T @ (f @ jac).reshape(3 * T, d)
        # the terms of r's and g's own second derivatives: d2g/dbeta_j dbeta_k,
        # then d2g/dgamma dbeta_j, d2r/dgamma2 and d2g/dgamma2
        f_r, f_g = df[:, 0], df[:, 1]
        pairs = gamma * (x1[2 + p :, :-1] @ f_g)
        hess[i, j] += pairs
        hess[j, i] += np.where(i == j, 0.0, pairs)
        if free_gamma:
            cross = x2[2:, 1:] @ f_g
            hess[:p, p] += cross
            hess[p, :p] += cross
            hess[p, p] += x3[0, 1:] @ f_r + x3[1, 1:] @ f_g
    if not np.isfinite(value):
        value = -np.inf
    return value, grad, 0.5 * (hess + hess.T)


def negbin_rows(gamma, a, b, multipliers) -> np.ndarray:
    """The one-step negative binomial (r, p) = (gamma a, gamma b / (gamma b + m))
    of filter state (a, b) and multiplier m, stacked on a new last axis."""
    gb = gamma * b
    return np.stack([gamma * a, gb / (gb + multipliers)], axis=-1)


def filter_draws(
    counts: np.ndarray,
    design: DesignMatrix,
    betas: np.ndarray,
    gammas: np.ndarray,
    a0: float,
    b0: float,
):
    """Filter every posterior draw, FILTER_BLOCK draws per batched ``filter_core`` call.

    ``betas`` is a stack of static coefficients (S, p) or of paths (S, T, p).
    Yields each block's batched trajectory, in draw order. One
    ``linear_predictor`` call builds a block's multipliers, so each row is that
    draw's one-row pass bit for bit.
    """
    for start in range(0, len(gammas), FILTER_BLOCK):
        block = slice(start, start + FILTER_BLOCK)
        yield filter_core(counts, linear_predictor(design, betas[block]), gammas[block], a0, b0)


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
    passes = filter_draws(series.counts, design, betas, grid, priors.a0, priors.b0)
    log_post = np.concatenate([traj.total_log_predictive for traj in passes])
    norm = logsumexp(log_post)
    if not np.isfinite(norm):
        raise NumericDegeneracyError(
            "gamma grid posterior has zero total mass",
            context={"grid_size": len(grid)},
        )
    return GammaGridPosterior(grid=grid, probs=np.exp(log_post - norm))


def ffbs_sample(trajectory: FilterTrajectory, rng: RngStream) -> np.ndarray:
    """Draw one latent-rate path per draw of a trajectory stack from its joint
    smoothing distribution, as an (S, T) array.

    theta_T comes from the final filter Gamma(a_T, b_T); earlier months follow
    the backward kernel theta_{n-1} = gamma*theta_n + Gamma((1-gamma)*a_{n-1},
    b_{n-1}), so every path satisfies theta_{n-1} > gamma*theta_n.

    All gamma variates come from one generator call, in the order of one
    one-row call per draw (theta_T, then the increments for n = T-1..1), so a
    stack consumes the stream exactly as S one-row calls would, and an empty
    stack draws nothing and returns (0, T). A draw with gamma = 1 is static: it
    draws no increments and its path is constant.
    """
    T = trajectory.T
    a, b, gamma = trajectory.a, trajectory.b, trajectory.gamma
    g = gamma[:, None]
    # column k holds the variate drawn k-th: theta_T, then the increment for n = T-k
    shape = np.concatenate([a[:, T:], (1.0 - g) * a[:, T - 1 : 0 : -1]], axis=1)
    rate = b[:, T:0:-1]
    draw = np.ones(shape.shape, dtype=bool)
    draw[:, 1:] = g != 1.0
    bad = draw & (shape <= 0)
    if bad.any():
        j, k = np.unravel_index(np.argmax(bad), bad.shape)
        raise NumericDegeneracyError(
            "backward kernel has nonpositive shape",
            context={"month": T - int(k), "gamma": float(gamma[j])},
        )
    variates = np.zeros(shape.shape)
    variates[draw] = rng.generator.gamma(shape=shape[draw], scale=1.0 / rate[draw])

    # theta <- gamma*theta + increment is the filter's recursion, run backward in
    # time; static rows add exact zeros, so their paths stay at theta_T
    path = np.ascontiguousarray(_discount_solve(gamma, variates[None])[0, :, ::-1])
    ok = np.isfinite(path) & (path > 0)
    if not np.all(ok):
        bad_month = int(np.argmin(ok) % T) + 1
        raise NumericDegeneracyError(
            "backward sampling produced a degenerate rate", context={"month": bad_month}
        )
    return path


def exceedance_probability(paths: np.ndarray, s: int, u: int) -> float:
    """Fraction of sampled (S, T) paths with theta_s >= theta_u (months are 1-based)."""
    paths = np.asarray(paths)
    if paths.ndim != 2:
        raise DomainError("exceedance needs an (S, T) array of sampled paths")
    T = paths.shape[1]
    if not (is_integer(s) and is_integer(u) and 1 <= s <= T and 1 <= u <= T):
        raise DomainError(f"month indices must lie in 1..{T}")
    return float(np.mean(paths[:, s - 1] >= paths[:, u - 1]))
