"""Posterior samplers: independence Metropolis from the Laplace fit for the
static models and the static Poisson-regression benchmark, with one
random-walk Metropolis chain as its fallback, and the Gibbs composition for
time-varying coefficients.

The static fitters work on the count likelihood with the latent rates
integrated out (the per-step negative binomial product from the filter), so a
single filter pass prices one proposal. Every log target, and so every target
the chains take, maps a block of points (K, d) to its (K,) log densities
alone, scored in one batched filter pass; one point is a one-row block. The
mode search scores no block: it takes the exact value, gradient and Hessian
of the log target at one point, from one pass of derivative recursions
(``filtering.log_likelihood_derivatives``) for the dynamic models and in
closed form for BPM. The independence proposals, which do not depend on the
chain state, are all scored in blocks before the accept/reject pass runs;
the random-walk fallback scores one one-row block per step. A target also
writes each point's per-month log likelihoods into a ``rows`` out-array when
given one, so the independence chain can hand its retained draws' rows to
model comparison without a second filter pass. The discount factor is
sampled on the logit scale with its Jacobian; regression coefficients are
unconstrained. The gamma prior and the logit Jacobian also map a stack (K,)
to (K,), and the DM5 sweep, the only caller with a single draw, passes them
and the backward sampler one-row stacks, and the filter its current and
proposed gamma as one two-row stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filtering import (
    FILTER_BLOCK,
    ffbs_sample,
    filter_core,
    filter_draws,
    gamma_grid_posterior,
    log_likelihood_derivatives,
    negbin_rows,
)
from .kernels import DomainError, RngStream, betaln, expit, is_integer, lgamma, logit
from .model import CountSeries, DesignMatrix, ModelSpec, PriorConfig, linear_predictor, log_linear_predictor


class FitError(RuntimeError):
    """Estimation failed (optimizer non-convergence, dead chain, ...)."""


@dataclass(frozen=True)
class MhConfig:
    iterations: int = 10_000
    burn_in: int = 2_000
    thinning: int = 1
    proposal_scale: float = 1.0

    def __post_init__(self):
        counts = (self.iterations, self.burn_in, self.thinning)
        if not all(is_integer(n) for n in counts):
            raise DomainError("iterations, burn-in and thinning must be integers")
        # each check is written so that NaN fails it
        if not (self.iterations > 0):
            raise DomainError("iterations must be positive")
        if not (0 <= self.burn_in < self.iterations):
            raise DomainError("burn-in must be nonnegative and smaller than iterations")
        if not (self.thinning >= 1):
            raise DomainError("thinning must be at least 1")
        if not (0 < self.proposal_scale < math.inf):
            raise DomainError("proposal scale must be positive and finite")

    @property
    def n_retained(self) -> int:
        return len(range(self.burn_in, self.iterations, self.thinning))


@dataclass
class PosteriorDraws:
    """Retained MCMC draws. beta is (S, p) for static coefficients or (S, T, p)
    for time-varying ones; theta holds smoothing paths, or BPM's rates, when requested."""

    beta: np.ndarray
    gamma: np.ndarray | None
    acceptance_rate: float
    beta_names: tuple = ()
    tau: np.ndarray | None = None
    theta: np.ndarray | None = None
    variant: str = ""
    sampler: str = ""  # the Metropolis chain that drew beta and gamma, if one did
    # (S, T) per-month log likelihoods of the draws, kept by the independence
    # chain when the fit asked for them
    log_predictive: np.ndarray | None = None

    def __post_init__(self):
        # each check is written so that NaN fails it
        if self.gamma is not None and not np.all((0 < self.gamma) & (self.gamma <= 1)):
            raise DomainError("gamma draws must lie in (0, 1]")
        if self.tau is not None and not np.all((0 < self.tau) & (self.tau < np.inf)):
            raise DomainError("tau draws must be positive and finite")
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
    sampler: str = "random_walk"  # or "independence"
    log_predictive: np.ndarray | None = None  # (S, T) rows of the draws, when kept


@dataclass(frozen=True)
class ChainDiagnostics:
    names: tuple
    means: np.ndarray
    sds: np.ndarray
    autocorr: np.ndarray  # (k, n): every lag of the n draws, lag 0 first
    ess: np.ndarray


def _log_prior_beta(beta: np.ndarray, sd: float) -> np.ndarray:
    """Log N(0, sd^2) density of each row of a block (K, p), as (K,)."""
    return -0.5 * (beta**2).sum(axis=1) / sd**2 - beta.shape[1] * math.log(sd * math.sqrt(2 * math.pi))


def _log_prior_gamma(gamma: np.ndarray, priors: PriorConfig) -> np.ndarray:
    """Log prior density of each discount factor of a stack (K,), as (K,); -inf
    off the support."""
    # the fixed prior may put its mass on gamma = 1, the static model
    if priors.gamma_prior == "fixed":
        return np.where(gamma == priors.gamma_fixed_value, 0.0, -np.inf)
    if priors.gamma_prior == "uniform":
        return np.where((0.0 < gamma) & (gamma < 1.0), 0.0, -np.inf)
    if priors.gamma_prior == "beta":
        a, b = priors.gamma_beta_ab
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (a - 1.0) * np.log(gamma) + (b - 1.0) * np.log1p(-gamma) - betaln(a, b)
        return np.where((0.0 < gamma) & (gamma < 1.0), out, -np.inf)
    raise DomainError(f"gamma prior {priors.gamma_prior!r} has no density")


def log_target_static(
    beta: np.ndarray,
    gamma: np.ndarray,
    series: CountSeries,
    design: DesignMatrix,
    priors: PriorConfig,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Unnormalized log posterior of (beta, gamma) with latent rates integrated out.

    A block of K points, ``beta`` of shape (K, p) and ``gamma`` of shape (K,),
    gives (K,) log densities; one point is a one-row block. Points off the
    support (gamma outside (0, 1), or any gamma but the fixed prior's value,
    which may be 1; a non-finite prior, multipliers that underflow or
    overflow, a non-finite likelihood) score -inf, and the other rows are
    scored in one batched filter pass, the only one a block makes. Given a
    (K, T) ``rows``, each filtered point's one-step log predictives are
    written into its row, and the rows of points not filtered are -inf.
    """
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if beta.ndim != 2 or gamma.shape != beta.shape[:1]:
        raise DomainError("a block of K points needs a (K, p) beta and K discount factors")
    lp = _log_prior_gamma(gamma, priors)
    if beta.shape[1]:
        lp += _log_prior_beta(beta, priors.beta_sd)
    out = np.full(len(beta), -np.inf)
    live = np.flatnonzero(np.isfinite(lp))
    multipliers = linear_predictor(design, beta[live])
    # exp(eta) overflows to inf or underflows to 0 for extreme proposals: out of support
    ok = (0.0 < multipliers.min(axis=1)) & (multipliers.max(axis=1) < np.inf)
    live, multipliers = live[ok], multipliers[ok]
    traj = filter_core(series.counts, multipliers, gamma[live], priors.a0, priors.b0)
    if rows is not None:
        rows[:] = -np.inf
        rows[live] = traj.log_predictive
    ll = traj.total_log_predictive
    # extreme proposals can overflow the rate recursion; treat as out of support
    out[live] = np.where(np.isfinite(ll), ll + lp[live], -np.inf)
    return out


# Newton iteration cap and stop tolerance on the Newton decrement g's
_MODE_MAX_ITER = 100
_NEWTON_TOL = 1e-12


def find_mode_and_hessian(derivatives, start: np.ndarray) -> ModeHessian:
    """Maximize a log density and return the inverse negative Hessian at the mode.

    ``derivatives`` maps one point (d,) to the log density's value, gradient g
    (d,) and Hessian H (d, d) there; the value is -inf off the support.
    Damped Newton on one evaluation per iterate: the step s solves
    (c I - H) s = g, with c the damping times mean|diag H|, and a step that
    does not raise the target is retried with ten times the damping, until
    g's < ``_NEWTON_TOL``. A start off the support, a non-finite gradient or
    Hessian at an accepted iterate and no stop within ``_MODE_MAX_ITER``
    iterations raise FitError. A negative inverse Hessian that is not positive
    definite gets its diagonal inflated, and the added jitter is reported.
    """
    x = np.atleast_1d(np.asarray(start, dtype=float))
    value, grad, hessian = derivatives(x)
    if not np.isfinite(value):
        raise FitError("the log target is not finite at the start point")
    damping = 1e-3  # relative to the mean |diagonal| of the Hessian
    for _ in range(_MODE_MAX_ITER):
        if not (np.all(np.isfinite(hessian)) and np.all(np.isfinite(grad))):
            raise FitError("the gradient or Hessian of the log target is not finite")
        damped = damping * np.abs(np.diag(hessian)).mean() * np.eye(len(x)) - hessian
        try:
            root = np.linalg.cholesky(damped)
        except np.linalg.LinAlgError:
            damping *= 10.0
            continue
        half = np.linalg.solve(root, grad)
        if half @ half < _NEWTON_TOL:
            break
        step = np.linalg.solve(root.T, half)
        t_value, t_grad, t_hessian = derivatives(x + step)
        if t_value > value:
            x, value, grad, hessian = x + step, t_value, t_grad, t_hessian
            damping /= 10.0
        else:
            damping *= 10.0
    else:
        raise FitError(f"the mode search did not converge in {_MODE_MAX_ITER} iterations")

    cov = np.linalg.inv(-hessian)
    cov = 0.5 * (cov + cov.T)
    jitter = 0.0
    scale = float(np.mean(np.abs(np.diag(cov)))) or 1.0
    while True:
        try:
            np.linalg.cholesky(cov + jitter * np.eye(len(x)))
            break
        except np.linalg.LinAlgError:
            jitter = 1e-8 * scale if jitter == 0.0 else 10.0 * jitter
            if jitter > 1e6 * scale:
                raise FitError("could not regularize the proposal covariance") from None
    return ModeHessian(mode=x, covariance=cov + jitter * np.eye(len(x)), jitter=jitter)


def rw_metropolis(
    log_target,
    init: np.ndarray,
    proposal_covariance: np.ndarray,
    config: MhConfig,
    rng: RngStream,
) -> MhResult:
    """Random-walk Metropolis with a fixed multivariate-normal proposal.

    The proposal is symmetric so the acceptance ratio is the posterior ratio,
    evaluated in log space. ``log_target`` maps a block (K, d) to its log
    densities (K,), and each step scores its proposal as a one-row block.
    Burn-in and thinning are applied before draws are retained; the
    acceptance rate covers the full run.
    """
    init = np.atleast_1d(np.asarray(init, dtype=float))
    d = len(init)
    root = np.linalg.cholesky(np.atleast_2d(proposal_covariance))
    lp = log_target(init[None])[0]
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
        lp_prop = log_target(prop[None])[0]
        if math.log(u) < lp_prop - lp:
            x, lp = prop, lp_prop
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


# degrees of freedom of the independence proposal, and the factor that widens
# its scale matrix beyond the Laplace covariance
_IMH_DF = 6
_IMH_INFLATION = 1.2


def _t_log_kernel(x: np.ndarray, mode: np.ndarray, root: np.ndarray) -> np.ndarray:
    """Log density of the multivariate t with ``_IMH_DF`` degrees of freedom,
    location ``mode`` and scale matrix root root', at the rows of x (N, d), up
    to an additive constant."""
    dev = np.linalg.solve(root, (x - mode).T)
    return -0.5 * (_IMH_DF + len(mode)) * np.log1p((dev**2).sum(axis=0) / _IMH_DF)


def _independence_chain(log_target, mh: ModeHessian, config: MhConfig, rng: RngStream, months: int = 0) -> MhResult:
    """Independence Metropolis with a multivariate t proposal on the Laplace fit.

    The proposal is centred on the mode, with ``_IMH_DF`` degrees of freedom
    and scale matrix ``_IMH_INFLATION`` x proposal_scale x the covariance.
    All ``iterations`` proposals come from standard_normal((N, d)), then
    chisquare(df, N), then random(N), and are scored FILTER_BLOCK rows per
    block call of ``log_target`` after the mode, row 0. The accept/reject
    pass then runs over the log weights log pi - log q, starting at the mode.
    Burn-in and thinning are applied as in ``rw_metropolis``; a chain that
    accepts nothing raises FitError. With ``months`` = T > 0, each block also
    writes its points' (K, T) per-month log likelihoods, as
    ``log_target(x, rows)``, into its slice of one (N + 1, T) buffer, and the
    result keeps the retained draws' rows.
    """
    N, d = config.iterations, len(mh.mode)
    scale = _IMH_INFLATION * config.proposal_scale
    root = np.linalg.cholesky(mh.covariance * scale)
    gen = rng.generator
    z = gen.standard_normal((N, d))
    w = gen.chisquare(_IMH_DF, N)
    log_u = np.log(gen.random(N))
    # row 0 is the mode, where the chain starts and the kernel term is -0.0
    points = np.concatenate([mh.mode[None], mh.mode + (z @ root.T) * np.sqrt(_IMH_DF / w)[:, None]])
    blocks = range(0, N + 1, FILTER_BLOCK)
    if months:
        rows = np.empty((N + 1, months))
        log_pi = np.concatenate([log_target(points[k : k + FILTER_BLOCK], rows[k : k + FILTER_BLOCK]) for k in blocks])
    else:
        log_pi = np.concatenate([log_target(points[k : k + FILTER_BLOCK]) for k in blocks])
    log_w = (log_pi - _t_log_kernel(points, mh.mode, root)).tolist()

    # held[i - 1] is the row the chain holds after step i, which proposes row i
    held = np.empty(N, dtype=np.intp)
    current = accepted = 0
    for i, lu in enumerate(log_u.tolist(), 1):
        if lu < log_w[i] - log_w[current]:
            current = i
            accepted += 1
        held[i - 1] = current
    if accepted == 0:
        raise FitError("the independence chain accepted no proposals")
    kept = held[config.burn_in :: config.thinning]
    return MhResult(points[kept], accepted / N, sampler="independence", log_predictive=rows[kept] if months else None)


# the acceptance below which the independence chain gives way to the random walk
_ACCEPTANCE_FLOOR = 0.1


def _mode_then_chain(
    derivatives, log_target, start: np.ndarray, config: MhConfig, rng: RngStream, months: int = 0
) -> MhResult:
    """Independence chain on the Laplace fit, with one random-walk fallback.

    The mode search takes ``derivatives``, a point (d,) to the value,
    gradient and Hessian of the log density, and both chains take
    ``log_target``, a block (K, d) to its log densities (K,). The
    independence chain runs on substream 3 and is kept unless it died or
    accepted less than ``_ACCEPTANCE_FLOOR``. Otherwise one random-walk chain
    runs on substream 0, with 2.38^2 / d x proposal_scale x the Laplace
    covariance as its proposal in d dimensions, the scaling that is optimal
    for a normal target (Roberts, Gelman and Gilks 1997, Ann. Appl. Probab.
    7:110-120), and is kept whatever its acceptance; if it dies too, its
    FitError propagates.
    ``months`` asks the independence chain to keep its draws' per-month log
    likelihoods; the random-walk chain keeps none.
    """
    mh = find_mode_and_hessian(derivatives, start)
    try:
        imh = _independence_chain(log_target, mh, config, rng.substream(3), months)
        if imh.acceptance_rate >= _ACCEPTANCE_FLOOR:
            return imh
    except FitError:
        pass
    scale = 2.38**2 / len(mh.mode) * config.proposal_scale
    return rw_metropolis(log_target, mh.mode, mh.covariance * scale, config, rng.substream(0))


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
            for traj in filter_draws(counts, design, betas, gammas, priors.a0, priors.b0)
        ]
    )


def _logit_jacobian(g: np.ndarray) -> np.ndarray:
    """log of d gamma / d logit gamma = g (1 - g) for each discount factor of a
    stack (K,), as (K,); -inf where gamma rounds to 0 or 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((0.0 < g) & (g < 1.0), np.log(g) + np.log1p(-g), -np.inf)


def _dm_static_target(series: CountSeries, design: DesignMatrix, priors: PriorConfig):
    """The log target that ``fit_dm_static`` samples, a block (K, d) to its log
    densities (K,): over beta alone under a fixed gamma prior, otherwise over
    (beta, logit gamma) with the logit Jacobian included. ``rows`` passes
    through to ``log_target_static``."""
    p = design.p
    if priors.gamma_prior == "fixed":
        return lambda b, rows=None: log_target_static(
            b, np.full(len(b), priors.gamma_fixed_value), series, design, priors, rows
        )

    def target(x, rows=None):
        g = expit(x[:, p])
        return log_target_static(x[:, :p], g, series, design, priors, rows) + _logit_jacobian(g)

    return target


def _dm_static_derivatives(series: CountSeries, design: DesignMatrix, priors: PriorConfig):
    """The value, gradient and Hessian of ``_dm_static_target`` at one point
    (d,), from one ``log_likelihood_derivatives`` pass: the likelihood's
    gamma coordinate goes to logit gamma by the chain rule, and the gamma
    prior, the logit Jacobian and the beta prior add their own terms. Their
    values are those of the target's own prior and Jacobian functions, so the
    value is -inf where the target's is."""
    p, counts, rows = design.p, series.counts, design.rows
    fixed = priors.gamma_prior == "fixed"
    # on the logit scale the uniform prior and the Jacobian are those of Beta(1, 1)
    a, b = priors.gamma_beta_ab if priors.gamma_prior == "beta" else (1.0, 1.0)

    def derivatives(x):
        beta = x[None, :p]
        eta = log_linear_predictor(design, beta)[0]
        g = np.array([priors.gamma_fixed_value]) if fixed else expit(x[p:])
        value, grad, hess = log_likelihood_derivatives(counts, rows, eta, g[0], priors.a0, priors.b0, not fixed)
        value += _log_prior_gamma(g, priors)[0] + _log_prior_beta(beta, priors.beta_sd)[0]
        grad[:p] -= x[:p] / priors.beta_sd**2
        hess[:p, :p] -= np.eye(p) / priors.beta_sd**2
        if not fixed:
            value += _logit_jacobian(g)[0]
            s = g[0] * (1.0 - g[0])  # d gamma / d logit gamma
            hess[p, p] = hess[p, p] * s * s + grad[p] * s * (1.0 - 2.0 * g[0]) - (a + b) * s
            hess[:p, p] *= s
            hess[p, :p] *= s
            grad[p] = grad[p] * s + a * (1.0 - g[0]) - b * g[0]
        return (value if np.isfinite(value) else -np.inf), grad, hess

    return derivatives


def fit_dm_static(
    series: CountSeries,
    design: DesignMatrix,
    spec: ModelSpec,
    priors: PriorConfig,
    config: MhConfig,
    rng: RngStream,
    smooth: bool = True,
    log_predictive: bool = False,
) -> PosteriorDraws:
    """Sample (beta, gamma) for the static-coefficient dynamic models.

    With a discrete-grid prior on gamma (covariate-free model only) the
    posterior is summed exactly on the grid and draws are taken from it with
    no Metropolis step. Otherwise a joint chain runs over (beta, logit gamma)
    with the logit Jacobian included (over beta alone under a fixed gamma):
    independence Metropolis from a t proposal on the Laplace fit at the mode,
    or, if that chain dies or accepts less than 0.1 of its proposals, one
    random-walk Metropolis chain calibrated by the inverse negative Hessian at
    the mode, which is kept unless it dies too. When ``smooth`` is set, one
    smoothing path per retained draw comes from batched backward sampling.
    When ``log_predictive`` is set and the independence chain ran, the draws
    carry the (S, T) one-step log predictives its target filtered them with;
    otherwise (the grid, no chain, the random-walk fallback) they carry None.
    """
    if spec.variant not in ("DM1", "DM2", "DM3", "DM4"):
        raise DomainError(f"fit_dm_static does not handle variant {spec.variant}")
    if design.T != series.T:
        raise DomainError("design matrix and count series disagree on T")
    p = design.p
    S = config.n_retained
    # the covariate-free routes without a chain: every beta is empty
    betas, acc, sampler, log_pred = np.zeros((S, 0)), 1.0, "", None

    if priors.gamma_prior == "grid":
        if p:
            raise DomainError("the discrete-grid gamma prior applies to the covariate-free model")
        post = gamma_grid_posterior(series, design, priors)
        # grid indices take the same variates from the stream as grid values would
        picks = rng.substream(0).generator.choice(len(post.grid), size=S, p=post.probs)
        gammas = post.grid[picks]
    else:
        # the chain runs over beta, and over logit gamma unless the prior fixes it
        fixed = priors.gamma_prior == "fixed"
        gammas = np.full(S, priors.gamma_fixed_value)
        if p or not fixed:
            target = _dm_static_target(series, design, priors)
            derivatives = _dm_static_derivatives(series, design, priors)
            months = series.T if log_predictive else 0
            res = _mode_then_chain(derivatives, target, np.zeros(p + (not fixed)), config, rng.substream(0), months)
            betas, acc, sampler, log_pred = res.draws[:, :p], res.acceptance_rate, res.sampler, res.log_predictive
            if not fixed:
                gammas = expit(res.draws[:, p])

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
        sampler=sampler,
        log_predictive=log_pred,
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
    path: np.ndarray,
    links: np.ndarray,
    eta: np.ndarray,
    multipliers: np.ndarray,
    halves: tuple,
    counts: np.ndarray,
    theta: np.ndarray,
    prop_sd: np.ndarray,
    gen: np.random.Generator,
) -> int:
    """Metropolis-update the coefficient path in place; return the moves accepted.

    ``path`` is the (T + 2, p) path between two zero pad months, so month t is
    path[t + 1], and ``links`` the (T + 1, p) random-walk precisions into each
    month: 1/prior_var into month 0, tau between months, 0 past month T-1.
    Given the rates and precisions, month t's full conditional involves the
    path only through months t-1 and t+1, which have the other parity. So all
    even months move in one vectorised step and then all odd months in a
    second, each month by its own accept test: a valid kernel for the same
    target as a single-site sweep. ``eta`` is the (T,) log multipliers of the
    path and ``multipliers`` their exp; each accepted month writes its
    proposal's values into both, which keeps them equal, bit for bit, to
    ``log_linear_predictor`` of the path and its exp. ``halves`` holds the two
    parities' designs. Each half draws standard_normal((n, p)) and then
    random(n); a proposal whose rate overflows scores -inf and is rejected.
    """
    T = len(links) - 1
    n_accept = 0
    for start, half_design in enumerate(halves):
        half = slice(start, None, 2)
        prev, b_cur, nxt = path[start:T:2], path[start + 1 : T + 1 : 2], path[start + 2 :: 2]
        prev_prec, next_prec = links[start:T:2], links[start + 1 :: 2]
        b_prop = b_cur + prop_sd[half] * gen.standard_normal(b_cur.shape)
        u = gen.random(len(b_cur))
        eta_prop = log_linear_predictor(half_design, b_prop[None])[0]
        with np.errstate(over="ignore"):
            m_prop = np.exp(eta_prop)
            delta = counts[half] * (eta_prop - eta[half]) - theta[half] * (m_prop - multipliers[half])
        delta -= 0.5 * np.sum(
            prev_prec * ((b_prop - prev) ** 2 - (b_cur - prev) ** 2)
            + next_prec * ((nxt - b_prop) ** 2 - (nxt - b_cur) ** 2),
            axis=1,
        )
        accept = np.log(u) < delta
        # b_cur and the [half] slices are views: these write the path, eta and the multipliers
        b_cur[accept] = b_prop[accept]
        eta[half][accept] = eta_prop[accept]
        multipliers[half][accept] = m_prop[accept]
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

    A sweep makes one filter pass: the current and a proposed discount factor
    inside the support share the multipliers, so they are filtered as one
    two-row stack (the current alone otherwise). The log multipliers and their
    exp ride from sweep to sweep, updated in place by the coefficient moves.
    The random-walk prior is data built once per fit: the zero-padded path and
    its link precisions (see ``_coefficient_half_sweeps``).
    """
    p = design.p
    if p < 1:
        raise DomainError("the time-varying model needs at least one covariate")
    # at T = 1 tau's full conditional is its prior, and the default Gamma(0.001,
    # 0.001) draws a float 0 about half the time
    if series.T < 2:
        raise DomainError("the time-varying model needs at least two months")
    if design.T != series.T:
        raise DomainError("design matrix and count series disagree on T")
    T = series.T
    counts = series.counts
    Z = design.rows
    halves = tuple(DesignMatrix(design.column_names, Z[start::2]) for start in (0, 1))
    count_z2 = (counts[:, None] + 1.0) * Z**2  # the proposal sds' sweep-invariant part
    gen = rng.substream(0).generator
    ffbs_rng = rng.substream(1)

    path = np.zeros((T + 2, p))
    beta = path[1:-1]
    links = np.zeros((T + 1, p))
    links[0] = 1.0 / priors.beta_sd**2
    eta = log_linear_predictor(design, beta[None])[0]
    multipliers = np.exp(eta)
    tau = np.ones(p)
    # the fixed prior puts all its mass on one value, so the chain starts there
    # and stays: each sweep still draws a proposal and a uniform, which keeps
    # the stream, but filters no proposal (one off the support scores -inf)
    fixed = priors.gamma_prior == "fixed"
    gamma = np.array([priors.gamma_fixed_value if fixed else 0.5])
    x_gamma = logit(gamma)
    # the current gamma's log prior and logit Jacobian, replaced on acceptance
    terms = _log_prior_gamma(gamma, priors)[0], _logit_jacobian(gamma)[0]
    gamma_step = 0.25 * math.sqrt(config.proposal_scale)

    S = config.n_retained
    betas_out = np.empty((S, T, p))
    gammas_out = np.empty(S)
    taus_out = np.empty((S, p))
    theta_out = np.empty((S, T)) if smooth else None

    n_accept = 0
    for it in range(config.iterations):
        # discount factor, collapsed over the latent rates
        x_prop = x_gamma + gamma_step * gen.standard_normal()
        g_prop = expit(x_prop)
        u = gen.random()
        if not fixed and 0.0 < g_prop[0] < 1.0:
            both = np.stack((multipliers, multipliers))
            pair = filter_core(counts, both, np.concatenate((gamma, g_prop)), priors.a0, priors.b0)
            terms_prop = _log_prior_gamma(g_prop, priors)[0], _logit_jacobian(g_prop)[0]
            ll = pair.total_log_predictive
            accept = math.log(u) < (ll[1] + terms_prop[0] + terms_prop[1]) - (ll[0] + terms[0] + terms[1])
            if accept:
                gamma, x_gamma, terms = g_prop, x_prop, terms_prop
                n_accept += 1
            traj = pair.row(int(accept))
        else:
            traj = filter_core(counts, multipliers[None], gamma, priors.a0, priors.b0)

        # latent rates given (beta, gamma)
        theta = ffbs_sample(traj, ffbs_rng)[0]

        # checkerboard sweep over the coefficient path
        prop_sd = config.proposal_scale / np.sqrt(count_z2 + 2.0 * tau[None, :])
        links[1:T] = tau
        n_accept += _coefficient_half_sweeps(path, links, eta, multipliers, halves, counts, theta, prop_sd, gen)

        # random-walk precisions
        shape, rates = tau_full_conditional(beta, priors)
        tau = gen.gamma(shape=shape, scale=1.0 / rates)

        slot, skip = divmod(it - config.burn_in, config.thinning)
        if slot >= 0 and not skip:
            betas_out[slot] = beta
            gammas_out[slot] = gamma[0]
            taus_out[slot] = tau
            if smooth:
                theta_out[slot] = theta

    if n_accept == 0:
        raise FitError("no Gibbs move was accepted; check scaling of the data or proposal")
    return PosteriorDraws(
        beta=betas_out,
        gamma=gammas_out,
        acceptance_rate=n_accept / (config.iterations * (T + 1)),
        beta_names=design.column_names,
        tau=taus_out,
        theta=theta_out,
        variant="DM5",
    )


def bpm_log_pmf(eta: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Poisson log pmf of each month's count (T,) under the log rates eta (K, T)
    of the static Poisson regression, as (K, T)."""
    if eta.shape[-1] != len(counts):
        raise DomainError("design matrix and count series disagree on T")
    return counts * eta - np.exp(eta) - lgamma(counts + 1.0)


def log_target_bpm(
    beta: np.ndarray, series: CountSeries, design: DesignMatrix, priors: PriorConfig, rows: np.ndarray | None = None
) -> np.ndarray:
    """Log posterior of the static Poisson regression at each row of a block
    (K, p), as (K,); one point is a one-row block, and each row has the bits of
    its own one-row call. A (K, T) ``rows`` receives each point's per-month
    Poisson log pmfs."""
    beta = np.asarray(beta, dtype=float)
    log_pmf = bpm_log_pmf(log_linear_predictor(design, beta), series.counts)
    if rows is not None:
        rows[:] = log_pmf
    return np.sum(log_pmf, axis=1) + _log_prior_beta(beta, priors.beta_sd)


def _bpm_derivatives(series: CountSeries, design: DesignMatrix, priors: PriorConfig):
    """The value, gradient Z'(N - mu) - beta / sd^2 and Hessian -Z' diag(mu) Z
    - I / sd^2 of BPM's log posterior at one point (p,), mu = exp(Z beta); the
    value is -inf where a rate overflows."""
    rows, counts, prec = design.rows, series.counts, 1.0 / priors.beta_sd**2

    def derivatives(beta):
        eta = log_linear_predictor(design, beta[None])
        with np.errstate(over="ignore", invalid="ignore"):
            value = float(bpm_log_pmf(eta, counts).sum() + _log_prior_beta(beta[None], priors.beta_sd)[0])
            mu = np.exp(eta[0])
            grad = rows.T @ (counts - mu) - prec * beta
            hess = -(rows.T * mu) @ rows - prec * np.eye(len(beta))
        return (value if np.isfinite(value) else -np.inf), grad, 0.5 * (hess + hess.T)

    return derivatives


def fit_bpm(
    series: CountSeries,
    design: DesignMatrix,
    priors: PriorConfig,
    config: MhConfig,
    rng: RngStream,
    smooth: bool = True,
    log_predictive: bool = False,
) -> PosteriorDraws:
    """Metropolis fit of the Poisson-regression benchmark on a design built for
    BPM, whose first column is the intercept; with ``smooth``, theta holds the
    (S, T) rates exp(beta' z_t) of the retained draws. ``log_predictive`` keeps
    the draws' (S, T) Poisson log pmfs from the independence chain, as in
    ``fit_dm_static``."""
    if design.column_names[:1] != ("intercept",):
        raise DomainError("the BPM design must start with the intercept column")
    target = lambda b, rows=None: log_target_bpm(b, series, design, priors, rows)
    months = series.T if log_predictive else 0
    res = _mode_then_chain(_bpm_derivatives(series, design, priors), target, np.zeros(design.p), config,
                           rng.substream(0), months)
    return PosteriorDraws(
        beta=res.draws,
        gamma=None,
        acceptance_rate=res.acceptance_rate,
        beta_names=design.column_names,
        theta=linear_predictor(design, res.draws) if smooth else None,
        variant="BPM",
        sampler=res.sampler,
        log_predictive=res.log_predictive,
    )


def fit_variant(
    spec: ModelSpec,
    series: CountSeries,
    design: DesignMatrix,
    priors: PriorConfig,
    config: MhConfig,
    rng: RngStream,
    smooth: bool = True,
    log_predictive: bool = False,
) -> PosteriorDraws:
    """Fit any likelihood-based variant: DM5, the BPM benchmark, or a static DM.
    ``log_predictive`` asks a chain fit to keep its draws' per-month log
    likelihoods (see ``fit_dm_static``); DM5 keeps none."""
    if spec.variant == "DM5":
        return fit_dm5(series, design, priors, config, rng, smooth=smooth)
    if spec.variant == "BPM":
        return fit_bpm(series, design, priors, config, rng, smooth=smooth, log_predictive=log_predictive)
    return fit_dm_static(series, design, spec, priors, config, rng, smooth=smooth, log_predictive=log_predictive)


def predictive_blocks(series: CountSeries, design: DesignMatrix, draws: PosteriorDraws, priors: PriorConfig, first: int):
    """Score fitted draws by their model, block by block, in draw order: yields
    ``(log_pred, comps)``, the block's one-step log predictives of months 1..T,
    (B, T), and the components of its one-step predictives of months first..T,
    empty when first = T + 1. A dynamic model's blocks are those of
    ``filter_draws``, with negative binomial (r, p) rows, (B, T - first + 1, 2),
    from each draw's state after the month before. BPM is one block, scored
    from one ``log_linear_predictor`` call, with Poisson rates exp(beta' z_t),
    (S, T - first + 1), that have the bits of ``linear_predictor``.
    """
    if draws.variant == "BPM":
        eta = log_linear_predictor(design, draws.beta)
        yield bpm_log_pmf(eta, series.counts), np.exp(eta[:, first - 1 :])
        return
    for traj in filter_draws(series.counts, design, draws.beta, draws.gamma, priors.a0, priors.b0):
        a, b = traj.a[:, first - 1 : -1], traj.b[:, first - 1 : -1]
        yield traj.log_predictive, negbin_rows(traj.gamma[:, None], a, b, traj.multipliers[:, first - 1 :])


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


def _autocorr(x: np.ndarray) -> np.ndarray:
    """Autocorrelations of a chain (n,) at every lag 0..n-1, lag 0 first: the
    inverse FFT of the power spectrum of the centred chain, zero-padded to 2n
    so that no lag wraps around, over its lag-0 term. A constant chain, all
    draws equal, gives 0 past lag 0, even when its mean does not round back to
    its value and the centred chain is not exactly zero."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    if x.min() == x.max():
        return np.eye(1, n)[0]
    acov = np.fft.irfft(np.abs(np.fft.rfft(x - x.mean(), 2 * n)) ** 2, 2 * n)[:n]
    return acov / acov[0]


def _ess(x: np.ndarray, acf: np.ndarray) -> float:
    """Effective sample size by Geyer's initial positive sequence: the pairs of
    consecutive autocorrelations (lags 1+2, 3+4, ...) are summed up to the
    first pair that is not positive, over every lag of the chain. A constant
    chain, all draws equal, has an ESS of 1."""
    n = len(x)
    if x.min() == x.max():
        return 1.0
    # lag n, past the end of the chain, is 0: it pairs with an even chain's last lag
    rho = np.append(acf[1:], 0.0)
    pairs = rho[:-1:2] + rho[1::2]
    total = pairs[np.logical_and.accumulate(pairs > 0.0)].sum()
    ess = n / (1.0 + 2.0 * total)
    return float(min(max(ess, 1.0), n))


def diagnostics(draws: PosteriorDraws) -> ChainDiagnostics:
    """Trace summaries, autocorrelations (every lag) and ESS per parameter."""
    table = draws.parameter_table()
    if draws.S < 2:
        raise DomainError("diagnostics need at least two draws")
    names = tuple(name for name, _ in table)
    means = np.array([np.mean(v) for _, v in table])
    sds = np.array([np.std(v, ddof=1) for _, v in table])
    acfs = np.vstack([_autocorr(v) for _, v in table])
    ess = np.array([_ess(v, acf) for (_, v), acf in zip(table, acfs)])
    return ChainDiagnostics(names=names, means=means, sds=sds, autocorr=acfs, ess=ess)
