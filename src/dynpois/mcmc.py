"""Posterior samplers: random-walk Metropolis for the static models, the Gibbs
composition for time-varying coefficients, and the static Poisson-regression
benchmark.

The static fitters work on the count likelihood with the latent rates
integrated out (the per-step negative binomial product from the filter), so a
single filter pass prices one proposal. The discount factor is sampled on the
logit scale with its Jacobian; regression coefficients are unconstrained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.special import gammaln

from .filtering import (
    FILTER_BLOCK,
    ffbs_sample,
    filter_core,
    filter_draws,
    gamma_grid_posterior,
)
from .kernels import (
    BetaParams,
    DomainError,
    RngStream,
    cholesky_or_raise,
    expit,
    log_pdf_beta,
    logit,
)
from .model import CountSeries, DesignMatrix, ModelSpec, PriorConfig, linear_predictor


class FitError(RuntimeError):
    """Estimation failed (optimizer non-convergence, dead chain, ...)."""


@dataclass(frozen=True)
class MhConfig:
    iterations: int = 10_000
    burn_in: int = 2_000
    thinning: int = 1
    proposal_scale: float = 1.0

    def __post_init__(self):
        if self.iterations <= 0:
            raise DomainError("iterations must be positive")
        if not (0 <= self.burn_in < self.iterations):
            raise DomainError("burn-in must be nonnegative and smaller than iterations")
        if self.thinning < 1:
            raise DomainError("thinning must be at least 1")
        if self.proposal_scale <= 0:
            raise DomainError("proposal scale must be positive")

    @property
    def n_retained(self) -> int:
        return len(range(self.burn_in, self.iterations, self.thinning))


@dataclass
class PosteriorDraws:
    """Retained MCMC draws. beta is (S, p) for static coefficients or (S, T, p)
    for time-varying ones; theta holds smoothing paths when requested."""

    beta: np.ndarray
    gamma: np.ndarray | None
    acceptance_rate: float
    beta_names: tuple = ()
    tau: np.ndarray | None = None
    theta: np.ndarray | None = None
    variant: str = ""

    def __post_init__(self):
        if self.gamma is not None:
            if np.any(self.gamma <= 0) or np.any(self.gamma > 1):
                raise DomainError("gamma draws must lie in (0, 1]")
        if self.tau is not None and np.any(self.tau <= 0):
            raise DomainError("tau draws must be positive")
        if not (0.0 <= self.acceptance_rate <= 1.0):
            raise DomainError("acceptance rate must lie in [0, 1]")

    @property
    def S(self) -> int:
        return self.beta.shape[0]

    def parameter_table(self) -> list[tuple[str, np.ndarray]]:
        """Scalar parameters to summarize, in reporting order."""
        out = []
        if self.beta.ndim == 2:
            for i, name in enumerate(self.beta_names):
                out.append((f"beta_{name}", self.beta[:, i]))
        if self.gamma is not None:
            out.append(("gamma", self.gamma))
        if self.tau is not None:
            for i, name in enumerate(self.beta_names):
                out.append((f"tau_{name}", self.tau[:, i]))
        return out


@dataclass(frozen=True)
class ModeHessian:
    mode: np.ndarray
    covariance: np.ndarray
    jitter: float = 0.0


@dataclass(frozen=True)
class MhResult:
    draws: np.ndarray
    acceptance_rate: float
    scale_used: float = 1.0


@dataclass(frozen=True)
class ChainDiagnostics:
    names: tuple
    means: np.ndarray
    sds: np.ndarray
    autocorr: np.ndarray  # (k, _MAX_LAG+1), lag 0 first
    ess: np.ndarray


def _log_prior_beta(beta: np.ndarray, sd: float) -> float | np.ndarray:
    """Log N(0, sd^2) density of a point (p,) as a float, or of each row of a block (K, p)."""
    lp = -0.5 * np.sum(beta**2, axis=-1) / sd**2 - beta.shape[-1] * math.log(sd * math.sqrt(2 * math.pi))
    return lp if lp.ndim else float(lp)


def _log_prior_gamma(gamma: float, priors: PriorConfig) -> float:
    if not (0.0 < gamma < 1.0):
        return -np.inf
    if priors.gamma_prior == "uniform":
        return 0.0
    if priors.gamma_prior == "beta":
        a, b = priors.gamma_beta_ab
        return float(log_pdf_beta(gamma, BetaParams(a, b)))
    if priors.gamma_prior == "fixed":
        return 0.0 if gamma == priors.gamma_fixed_value else -np.inf
    raise DomainError(f"gamma prior {priors.gamma_prior!r} has no density")


def log_target_static(
    beta: np.ndarray,
    gamma: float | np.ndarray,
    series: CountSeries,
    design: DesignMatrix,
    priors: PriorConfig,
) -> float | np.ndarray:
    """Unnormalized log posterior of (beta, gamma) with latent rates integrated out.

    One point: ``beta`` of shape (p,) and a float ``gamma`` give a float. A
    block: ``beta`` of shape (K, p) and ``gamma`` of shape (K,) give (K,),
    row k equal to the point call on (beta[k], gamma[k]) bit for bit. Points
    off the support (gamma outside (0, 1), a non-finite prior, multipliers
    that underflow or overflow, a non-finite likelihood) score -inf; a block
    scores its other rows in one batched filter pass.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.ndim == 2:
        return _log_target_static_block(beta, np.asarray(gamma, dtype=float), series, design, priors)
    lp = _log_prior_gamma(gamma, priors)
    if beta.size:
        lp += _log_prior_beta(beta, priors.beta_sd)
    if not np.isfinite(lp):
        return -np.inf
    multipliers = linear_predictor(design, beta)
    # exp(eta) overflows to inf or underflows to 0 for extreme proposals: out of support
    if not (0.0 < multipliers.min() and multipliers.max() < np.inf):
        return -np.inf
    ll = filter_core(series.counts, multipliers, gamma, priors.a0, priors.b0).total_log_predictive
    # extreme proposals can overflow the rate recursion; treat as out of support
    if not np.isfinite(ll):
        return -np.inf
    return float(ll + lp)


def _log_target_static_block(
    beta: np.ndarray,
    gamma: np.ndarray,
    series: CountSeries,
    design: DesignMatrix,
    priors: PriorConfig,
) -> np.ndarray:
    """The block case of ``log_target_static``: the point call's support checks
    on every row, then one ``filter_core`` call over the rows that pass. Each
    row's multipliers come from its own ``linear_predictor`` call, so they
    equal the point call's bit for bit."""
    if gamma.shape != beta.shape[:1]:
        raise DomainError("a block of K points needs K discount factors")
    lp = np.array([_log_prior_gamma(g, priors) for g in gamma])
    if beta.shape[1]:
        lp += _log_prior_beta(beta, priors.beta_sd)
    out = np.full(len(beta), -np.inf)
    live = np.flatnonzero(np.isfinite(lp))
    if not live.size:
        return out
    multipliers = np.stack([linear_predictor(design, beta[k]) for k in live])
    ok = (0.0 < multipliers.min(axis=1)) & (multipliers.max(axis=1) < np.inf)
    live, multipliers = live[ok], multipliers[ok]
    if live.size:
        traj = filter_core(series.counts, multipliers, gamma[live], priors.a0, priors.b0)
        ll = traj.total_log_predictive
        out[live] = np.where(np.isfinite(ll), ll + lp[live], -np.inf)
    return out


# BFGS iteration cap (Nelder-Mead refinement gets 50x as many), and the
# finite-difference step of the Hessian relative to max(1, |x_i|)
_MODE_MAX_ITER = 500
_HESSIAN_REL_STEP = 1e-4


def find_mode_and_hessian(log_target, start: np.ndarray) -> ModeHessian:
    """Maximize a log density and return the inverse negative Hessian at the mode.

    ``log_target`` scores one point of shape (d,) as a float, or a block of
    shape (K, d) as (K,), -inf off the support. Quasi-Newton with
    finite-difference gradients, whose d points per gradient are scored in
    one block call; scipy still picks the steps and does the arithmetic. The
    Hessian comes from central second differences over one block of stencil
    points, symmetrized. A Hessian that is not finite (a stencil point off
    the support) raises FitError. If the inverse is not positive definite its
    diagonal is inflated until it is, and the added jitter is reported on the
    result.
    """
    start = np.atleast_1d(np.asarray(start, dtype=float))

    def neg(x):
        v = log_target(x)
        return -v if np.isfinite(v) else 1e300

    def neg_block(_fun, points):
        # scipy's map-like hook for the gradient points, in place of map(_fun, points)
        v = log_target(np.array(list(points)))
        return np.where(np.isfinite(v), -v, 1e300)

    res = optimize.minimize(
        neg, start, method="BFGS", options={"maxiter": _MODE_MAX_ITER, "workers": neg_block}
    )
    if not np.all(np.isfinite(res.x)) or not np.isfinite(res.fun):
        raise FitError(f"mode search diverged: {res.message}")
    if not res.success:
        # BFGS often stops on precision loss near the optimum; refine and accept
        # the better point, but give up if no progress was made at all.
        res2 = optimize.minimize(
            neg, res.x, method="Nelder-Mead", options={"maxiter": 50 * _MODE_MAX_ITER}
        )
        if res2.fun <= res.fun:
            res = res2
        if res.fun > neg(start) + 1e-9:
            raise FitError(f"mode search failed to improve on the start point: {res.message}")
    mode = np.atleast_1d(res.x)

    hessian = _fd_hessian(log_target, mode)
    if not np.all(np.isfinite(hessian)):
        raise FitError(
            "the Hessian at the mode is not finite: a finite-difference point is off the support"
        )
    cov = np.linalg.inv(-hessian)
    cov = 0.5 * (cov + cov.T)
    jitter = 0.0
    scale = float(np.mean(np.abs(np.diag(cov)))) or 1.0
    while True:
        try:
            cholesky_or_raise(cov + jitter * np.eye(len(mode)))
            break
        except np.linalg.LinAlgError:
            jitter = 1e-8 * scale if jitter == 0.0 else 10.0 * jitter
            if jitter > 1e6 * scale:
                raise FitError("could not regularize the proposal covariance") from None
    if jitter > 0.0:
        cov = cov + jitter * np.eye(len(mode))
    return ModeHessian(mode=mode, covariance=cov, jitter=jitter)


def _fd_hessian(f, x: np.ndarray) -> np.ndarray:
    """Central second differences of the block target f at x.

    The stencil is x, then x + h_i e_i and x - h_i e_i for each i, then
    x +- h_i e_i +- h_j e_j for each pair i < j: 1 + 2d + 2d(d-1) points,
    scored FILTER_BLOCK at a time.
    """
    d = len(x)
    h = _HESSIAN_REL_STEP * np.maximum(1.0, np.abs(x))
    steps = np.diag(h)
    i, j = np.triu_indices(d, 1)
    signs = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))
    offsets = np.concatenate(
        [
            np.zeros((1, d)),
            np.stack([steps, -steps], axis=1).reshape(2 * d, d),
            np.stack([si * steps[i] + sj * steps[j] for si, sj in signs], axis=1).reshape(-1, d),
        ]
    )
    points = x + offsets
    values = np.concatenate(
        [f(points[k : k + FILTER_BLOCK]) for k in range(0, len(points), FILTER_BLOCK)]
    )
    f0, plus, minus = values[0], values[1 : 2 * d + 1 : 2], values[2 : 2 * d + 1 : 2]
    pp, pm, mp, mm = values[2 * d + 1 :].reshape(-1, 4).T
    H = np.empty((d, d))
    # squares by scalar pow, which can differ in the last bit from the array h**2
    h_sq = np.array([step**2 for step in h])
    # -inf at points off the support gives NaN, which the caller rejects
    with np.errstate(invalid="ignore"):
        H[np.diag_indices(d)] = (plus - 2.0 * f0 + minus) / h_sq
        H[i, j] = H[j, i] = (pp - pm - mp + mm) / (4.0 * h[i] * h[j])
    return H


def rw_metropolis(
    log_target,
    init: np.ndarray,
    proposal_covariance: np.ndarray,
    config: MhConfig,
    rng: RngStream,
) -> MhResult:
    """Random-walk Metropolis with a fixed multivariate-normal proposal.

    The proposal is symmetric so the acceptance ratio is the posterior ratio,
    evaluated in log space. Burn-in and thinning are applied before draws are
    retained; the acceptance rate covers the full run.
    """
    init = np.atleast_1d(np.asarray(init, dtype=float))
    d = len(init)
    root = cholesky_or_raise(np.atleast_2d(proposal_covariance))
    lp = log_target(init)
    if not np.isfinite(lp):
        raise DomainError("log target is not finite at the chain start")
    gen = rng.generator
    draws = np.empty((config.n_retained, d))
    x = init.copy()
    accepted = 0
    kept = 0
    for i in range(config.iterations):
        step = root @ gen.standard_normal(d)
        u = gen.random()
        prop = x + step
        lp_prop = log_target(prop)
        if math.log(u) < lp_prop - lp:
            x = prop
            lp = lp_prop
            accepted += 1
        if i >= config.burn_in and (i - config.burn_in) % config.thinning == 0:
            draws[kept] = x
            kept += 1
    rate = accepted / config.iterations
    if accepted == 0:
        raise FitError(
            "chain accepted no proposals; rescale the proposal covariance "
            "(proposal_scale) or check the target"
        )
    return MhResult(draws=draws, acceptance_rate=rate)


_RETRY_LADDER = (1.0, 0.5, 2.0)
_ACCEPTANCE_BAND = (0.1, 0.6)


def _mode_then_chain(log_target, start: np.ndarray, config: MhConfig, rng: RngStream) -> MhResult:
    """Hessian-calibrated chain with the fixed retry ladder on the proposal scale."""
    mh = find_mode_and_hessian(log_target, start)
    attempts = []
    for k, mult in enumerate(_RETRY_LADDER):
        scale = config.proposal_scale * mult
        try:
            res = rw_metropolis(log_target, mh.mode, mh.covariance * scale, config, rng.substream(k))
        except FitError:
            continue
        res = MhResult(res.draws, res.acceptance_rate, scale_used=scale)
        if _ACCEPTANCE_BAND[0] <= res.acceptance_rate <= _ACCEPTANCE_BAND[1]:
            return res
        attempts.append(res)
    if not attempts:
        raise FitError("no proposal scale on the retry ladder produced a live chain")
    return min(attempts, key=lambda r: abs(r.acceptance_rate - 0.3))


def _smooth_paths(
    counts: np.ndarray,
    design: DesignMatrix,
    betas: np.ndarray,
    gammas: np.ndarray,
    priors: PriorConfig,
    rng: RngStream,
) -> np.ndarray:
    return np.concatenate(
        [
            ffbs_sample(traj, rng)
            for _, traj in filter_draws(counts, design, betas, gammas, priors.a0, priors.b0)
        ]
    )


def _logit_jacobian(g: float) -> float:
    """log of d gamma / d logit gamma = g (1 - g); -inf where gamma rounds to 0 or 1."""
    return math.log(g) + math.log1p(-g) if 0.0 < g < 1.0 else -np.inf


def _dm_static_target(series: CountSeries, design: DesignMatrix, priors: PriorConfig):
    """The log target that ``fit_dm_static`` samples, for one point or a block:
    over beta alone under a fixed gamma prior, otherwise over (beta, logit gamma)
    with the logit Jacobian included."""
    p = design.p
    if priors.gamma_prior == "fixed":
        g0 = priors.gamma_fixed_value

        def target(b):
            g = g0 if b.ndim == 1 else np.full(len(b), g0)
            return log_target_static(b, g, series, design, priors)

    else:

        def target(x):
            g = expit(x[..., p])
            jac = _logit_jacobian(g) if x.ndim == 1 else np.array([_logit_jacobian(v) for v in g])
            return log_target_static(x[..., :p], g, series, design, priors) + jac

    return target


def fit_dm_static(
    series: CountSeries,
    design: DesignMatrix,
    spec: ModelSpec,
    priors: PriorConfig,
    config: MhConfig,
    rng: RngStream,
    smooth: bool = True,
) -> PosteriorDraws:
    """Sample (beta, gamma) for the static-coefficient dynamic models.

    With a discrete-grid prior on gamma (covariate-free model only) the
    posterior is summed exactly on the grid and draws are taken from it with
    no Metropolis step. Otherwise a joint random-walk chain runs over
    (beta, logit gamma) with the logit Jacobian included, calibrated by the
    inverse negative Hessian at the mode. When ``smooth`` is set, one
    smoothing path per retained draw comes from batched backward sampling.
    """
    if spec.variant not in ("DM1", "DM2", "DM3", "DM4"):
        raise DomainError(f"fit_dm_static does not handle variant {spec.variant}")
    if design.T != series.T:
        raise DomainError("design matrix and count series disagree on T")
    p = design.p
    S = config.n_retained

    if priors.gamma_prior == "grid":
        if p:
            raise DomainError("the discrete-grid gamma prior applies to the covariate-free model")
        post = gamma_grid_posterior(series, design, priors)
        gammas = rng.substream(0).generator.choice(post.grid, size=S, p=post.probs)
        betas = np.zeros((S, 0))
        acc = 1.0
    elif priors.gamma_prior == "fixed":
        gammas = np.full(S, priors.gamma_fixed_value)
        if p == 0:
            betas = np.zeros((S, 0))
            acc = 1.0
        else:
            target = _dm_static_target(series, design, priors)
            res = _mode_then_chain(target, np.zeros(p), config, rng.substream(0))
            betas, acc = res.draws, res.acceptance_rate
    else:
        target = _dm_static_target(series, design, priors)
        res = _mode_then_chain(target, np.zeros(p + 1), config, rng.substream(0))
        betas = res.draws[:, :p]
        gammas = expit(res.draws[:, p])
        acc = res.acceptance_rate

    theta = None
    if smooth:
        theta = _smooth_paths(series.counts, design, betas, gammas, priors, rng.substream(1))
    return PosteriorDraws(
        beta=betas,
        gamma=gammas,
        acceptance_rate=acc,
        beta_names=design.column_names,
        theta=theta,
        variant=spec.variant,
    )


def tau_full_conditional(beta: np.ndarray, priors: PriorConfig) -> tuple:
    """Gamma full conditionals of the random-walk precisions given the (T, p) path.

    Returns ``(shape, rates)``: the shape, shared by every coefficient, and
    the (p,) rates, one per coefficient.
    """
    diffs = np.diff(beta, axis=0)
    shape = priors.tau_shape + 0.5 * (len(beta) - 1)
    rates = priors.tau_rate + 0.5 * np.sum(diffs**2, axis=0)
    return shape, rates


def _coefficient_half_sweeps(
    beta: np.ndarray,
    Z: np.ndarray,
    counts: np.ndarray,
    theta: np.ndarray,
    tau: np.ndarray,
    prop_sd: np.ndarray,
    prior_var: float,
    gen: np.random.Generator,
) -> int:
    """Metropolis-update the (T, p) coefficient path in place; return the moves accepted.

    Given the rates and precisions, month t's full conditional involves the
    path only through months t-1 and t+1, which have the other parity. So all
    even months move in one vectorised step and then all odd months in a
    second, each month by its own accept test: a valid kernel for the same
    target as a single-site sweep. Month 0's missing predecessor is the
    N(0, prior_var) prior, and month T-1 has no successor. Each half draws
    standard_normal((n, p)) and then random(n); a proposal whose rate
    overflows scores -inf and is rejected.
    """
    T, p = beta.shape
    prev_prec = np.tile(tau, (T, 1))
    prev_prec[0] = 1.0 / prior_var
    next_prec = np.tile(tau, (T, 1))
    next_prec[-1] = 0.0
    zero = np.zeros((1, p))
    n_accept = 0
    for start in (0, 1):
        half = slice(start, None, 2)
        # the path padded with a zero month on each side, so that month t's
        # neighbours are path[t] and path[t + 2]
        path = np.concatenate((zero, beta, zero))
        prev, nxt = path[start:T:2], path[start + 2::2]
        b_cur = beta[half]
        b_prop = b_cur + prop_sd[half] * gen.standard_normal(b_cur.shape)
        u = gen.random(len(b_cur))
        eta_cur = np.sum(Z[half] * b_cur, axis=1)
        eta_prop = np.sum(Z[half] * b_prop, axis=1)
        with np.errstate(over="ignore"):
            delta = counts[half] * (eta_prop - eta_cur) - theta[half] * (
                np.exp(eta_prop) - np.exp(eta_cur)
            )
        delta -= 0.5 * np.sum(
            prev_prec[half] * ((b_prop - prev) ** 2 - (b_cur - prev) ** 2)
            + next_prec[half] * ((nxt - b_prop) ** 2 - (nxt - b_cur) ** 2),
            axis=1,
        )
        accept = np.log(u) < delta
        b_cur[accept] = b_prop[accept]  # b_cur is a view, so this writes beta
        n_accept += int(np.count_nonzero(accept))
    return n_accept


def fit_dm5(
    series: CountSeries,
    design: DesignMatrix,
    priors: PriorConfig,
    config: MhConfig,
    rng: RngStream,
    smooth: bool = True,
) -> PosteriorDraws:
    """Gibbs sampler for the time-varying-coefficient model.

    Each sweep updates, in order: the discount factor by a Metropolis step on
    the rate-integrated likelihood, the latent-rate path by backward sampling,
    the coefficient path by a checkerboard of Metropolis steps (every even
    month in one vectorised step, then every odd month in another, each month
    against its Poisson term and random-walk neighbors), and the
    per-coefficient precisions from their conjugate gamma conditionals.
    """
    p = design.p
    if p < 1:
        raise DomainError("the time-varying model needs at least one covariate")
    if design.T != series.T:
        raise DomainError("design matrix and count series disagree on T")
    T = series.T
    counts = series.counts
    Z = design.rows
    gen = rng.substream(0).generator
    ffbs_rng = rng.substream(1)

    beta = np.zeros((T, p))
    tau = np.ones(p)
    # the fixed prior puts all its mass on one value, so the chain must start
    # there; a fixed gamma = 1 has logit inf, so every proposal maps to 1 and
    # is skipped
    gamma = priors.gamma_fixed_value if priors.gamma_prior == "fixed" else 0.5
    with np.errstate(divide="ignore"):
        x_gamma = logit(gamma)
    gamma_step = 0.25 * math.sqrt(config.proposal_scale)
    prior_var = priors.beta_sd**2

    S = config.n_retained
    betas_out = np.empty((S, T, p))
    gammas_out = np.empty(S)
    taus_out = np.empty((S, p))
    theta_out = np.empty((S, T)) if smooth else None

    n_accept = 0
    n_moves = 0
    kept = 0
    for it in range(config.iterations):
        multipliers = linear_predictor(design, beta)
        traj = filter_core(counts, multipliers, gamma, priors.a0, priors.b0)

        # discount factor, collapsed over the latent rates
        x_prop = x_gamma + gamma_step * gen.standard_normal()
        g_prop = expit(x_prop)
        u = gen.random()
        if 0.0 < g_prop < 1.0:
            traj_prop = filter_core(counts, multipliers, g_prop, priors.a0, priors.b0)
            num = (
                traj_prop.total_log_predictive
                + _log_prior_gamma(g_prop, priors)
                + math.log(g_prop)
                + math.log1p(-g_prop)
            )
            den = (
                traj.total_log_predictive
                + _log_prior_gamma(gamma, priors)
                + math.log(gamma)
                + math.log1p(-gamma)
            )
            if math.log(u) < num - den:
                gamma, x_gamma, traj = g_prop, x_prop, traj_prop
                n_accept += 1
        n_moves += 1

        # latent rates given (beta, gamma)
        theta = ffbs_sample(traj, ffbs_rng)

        # checkerboard sweep over the coefficient path
        prop_sd = config.proposal_scale / np.sqrt(
            (counts[:, None] + 1.0) * Z**2 + 2.0 * tau[None, :]
        )
        n_accept += _coefficient_half_sweeps(beta, Z, counts, theta, tau, prop_sd, prior_var, gen)
        n_moves += T

        # random-walk precisions
        shape, rates = tau_full_conditional(beta, priors)
        tau = gen.gamma(shape=shape, scale=1.0 / rates)

        if it >= config.burn_in and (it - config.burn_in) % config.thinning == 0:
            betas_out[kept] = beta
            gammas_out[kept] = gamma
            taus_out[kept] = tau
            if smooth:
                theta_out[kept] = theta
            kept += 1

    if n_accept == 0:
        raise FitError("no Gibbs move was accepted; check scaling of the data or proposal")
    return PosteriorDraws(
        beta=betas_out,
        gamma=gammas_out,
        acceptance_rate=n_accept / n_moves,
        beta_names=design.column_names,
        tau=taus_out,
        theta=theta_out,
        variant="DM5",
    )


def log_target_bpm(
    beta: np.ndarray, series: CountSeries, design: DesignMatrix, priors: PriorConfig
) -> float | np.ndarray:
    """Log posterior of the static Poisson regression (rate exp(beta' z_t)): a
    float for one point of shape (p,), or (K,) for a block of shape (K, p)."""
    beta = np.asarray(beta, dtype=float)
    if beta.ndim == 2:
        return np.array([log_target_bpm(b, series, design, priors) for b in beta])
    eta = design.rows @ beta
    ll = float(np.sum(series.counts * eta - np.exp(eta) - gammaln(series.counts + 1.0)))
    return ll + _log_prior_beta(beta, priors.beta_sd)


def fit_bpm(
    series: CountSeries,
    design: DesignMatrix,
    priors: PriorConfig,
    config: MhConfig,
    rng: RngStream,
) -> PosteriorDraws:
    """Metropolis fit of the Poisson-regression benchmark on a design built for
    BPM, whose first column is the intercept."""
    if design.column_names[:1] != ("intercept",):
        raise DomainError("the BPM design must start with the intercept column")

    def target(b):
        return log_target_bpm(b, series, design, priors)

    res = _mode_then_chain(target, np.zeros(design.p), config, rng.substream(0))
    return PosteriorDraws(
        beta=res.draws,
        gamma=None,
        acceptance_rate=res.acceptance_rate,
        beta_names=design.column_names,
        variant="BPM",
    )


def fit_variant(
    spec: ModelSpec,
    series: CountSeries,
    design: DesignMatrix,
    priors: PriorConfig,
    config: MhConfig,
    rng: RngStream,
    smooth: bool = True,
) -> PosteriorDraws:
    """Fit any likelihood-based variant: DM5, the BPM benchmark, or a static DM."""
    if spec.variant == "DM5":
        return fit_dm5(series, design, priors, config, rng, smooth=smooth)
    if spec.variant == "BPM":
        return fit_bpm(series, design, priors, config, rng)
    return fit_dm_static(series, design, spec, priors, config, rng, smooth=smooth)


def posterior_summary(draws: PosteriorDraws) -> list[dict]:
    """25th percentile, mean, 75th percentile and standard deviation per parameter."""
    rows = []
    for name, values in draws.parameter_table():
        rows.append(
            {
                "parameter": name,
                "q25": float(np.percentile(values, 25)),
                "mean": float(np.mean(values)),
                "q75": float(np.percentile(values, 75)),
                "sd": float(np.std(values, ddof=1)) if len(values) > 1 else 0.0,
            }
        )
    return rows


_MAX_LAG = 50  # autocorrelation lags the ESS truncation may sum over


def _autocorr(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    n = len(x)
    x = x - x.mean()
    denom = float(x @ x)
    out = np.zeros(_MAX_LAG + 1)
    out[0] = 1.0
    if denom == 0.0:
        return out
    for k in range(1, min(_MAX_LAG, n - 1) + 1):
        out[k] = float(x[:-k] @ x[k:]) / denom
    return out


def _ess(x: np.ndarray, acf: np.ndarray) -> float:
    """Effective sample size by Geyer's initial-positive-sequence truncation."""
    n = len(x)
    if np.std(x) == 0.0:
        return 1.0
    # pair sums of consecutive autocorrelations stay positive for a valid chain;
    # truncate the sum at the first nonpositive pair
    total = 0.0
    k = 1
    while k + 1 < len(acf):
        pair = acf[k] + acf[k + 1]
        if pair <= 0.0:
            break
        total += pair
        k += 2
    ess = n / (1.0 + 2.0 * total)
    return float(min(max(ess, 1.0), n))


def diagnostics(draws: PosteriorDraws) -> ChainDiagnostics:
    """Trace summaries, autocorrelations (lags 0..50) and ESS per parameter."""
    table = draws.parameter_table()
    if draws.S < 2:
        raise DomainError("diagnostics need at least two draws")
    names = tuple(name for name, _ in table)
    means = np.array([np.mean(v) for _, v in table])
    sds = np.array([np.std(v, ddof=1) for _, v in table])
    acfs = np.vstack([_autocorr(v) for _, v in table])
    ess = np.array([_ess(v, acf) for (_, v), acf in zip(table, acfs)])
    return ChainDiagnostics(names=names, means=means, sds=sds, autocorr=acfs, ess=ess)
