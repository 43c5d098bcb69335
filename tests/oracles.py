"""Brute-force numerical oracles used by the test suite.

These deliberately avoid the package's closed-form recursions: the filter and
smoother below integrate the model dynamics on a dense rate grid, so they can
certify the conjugate algebra independently. The transition law of the latent
rate is the scaled-beta kernel

    theta_t = (theta_{t-1} / gamma) * eps_t,
    eps_t ~ Beta(gamma * a_{t-1}, (1 - gamma) * a_{t-1}),

where a_{t-1} follows the data-driven recursion a_t = gamma * a_{t-1} + N_t.
The predict integral is computed with Gauss-Jacobi quadrature matched to the
beta weight, which stays accurate even for singular shape parameters.

The closed-form references at the end (one filter step at a time, and the
negative binomial, Poisson and gamma log densities) restate the conjugate
algebra term by term, so tests can check the package's array code against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from dynpois.kernels import DomainError, GammaParams


def shape_sequence(counts, gamma, a0):
    """The evolution-law shape parameters a_0..a_{T-1} entering each transition."""
    a = [a0]
    for n in counts:
        a.append(gamma * a[-1] + n)
    return np.array(a)


def _grid_for(counts, multipliers, gamma, a0, b0, n_grid):
    """A rate grid generously covering every intermediate filter distribution."""
    a, b = a0, b0
    hi = special.gammaincinv(a, 1.0 - 1e-13) / b
    for n, m in zip(counts, multipliers):
        ap, bp = gamma * a, gamma * b
        hi = max(hi, special.gammaincinv(ap, 1.0 - 1e-13) / bp)
        a, b = ap + n, bp + m
        hi = max(hi, special.gammaincinv(a, 1.0 - 1e-13) / b)
    hi *= 1.25
    return np.linspace(hi / n_grid, hi, n_grid)


def _gamma_pdf(x, shape, rate):
    return np.exp(
        shape * math.log(rate) - special.gammaln(shape) + (shape - 1.0) * np.log(x) - rate * x
    )


def _predict_jacobi(x, pdf, a_prev, gamma, n_quad):
    """One predict step: integrate the scaled-beta kernel against the current density.

    Substituting s = gamma * theta / eps turns the mixture over the previous
    rate into an integral over the beta innovation:

        p_pred(theta) = int_0^1 Beta(eps; c1, c2) * (gamma / eps)
                        * p_prev(gamma * theta / eps) d eps,

    evaluated with Gauss-Jacobi nodes so the eps^(c1-1) (1-eps)^(c2-1) weight
    is handled exactly.
    """
    c1 = gamma * a_prev
    c2 = (1.0 - gamma) * a_prev
    nodes, weights = special.roots_jacobi(n_quad, c2 - 1.0, c1 - 1.0)
    eps = 0.5 * (nodes + 1.0)
    # int_0^1 eps^(c1-1) (1-eps)^(c2-1) g(eps) d eps = 2^(1-c1-c2) * sum w_k g(eps_k)
    log_scale = (1.0 - c1 - c2) * math.log(2.0) - special.betaln(c1, c2)
    queries = gamma * x[:, None] / eps[None, :]
    p_prev = np.interp(queries.ravel(), x, pdf, left=0.0, right=0.0).reshape(queries.shape)
    g = (gamma / eps)[None, :] * p_prev
    return (g @ weights) * math.exp(log_scale)


def grid_filter(counts, multipliers, gamma, a0, b0, n_grid=10_000, n_quad=400):
    """Numerically integrate the filtering recursion on a dense rate grid.

    Returns (x, filtered) where filtered[t] is the normalized density of the
    rate given months 1..t (filtered[0] is the prior).
    """
    counts = np.asarray(counts)
    multipliers = np.asarray(multipliers, dtype=float)
    x = _grid_for(counts, multipliers, gamma, a0, b0, n_grid)
    a_seq = shape_sequence(counts, gamma, a0)
    pdf = _gamma_pdf(x, a0, b0)
    filtered = [pdf / np.trapezoid(pdf, x)]
    for t, (n, m) in enumerate(zip(counts, multipliers)):
        pred = _predict_jacobi(x, filtered[-1], a_seq[t], gamma, n_quad)
        loglik = n * np.log(x * m) - x * m - special.gammaln(n + 1.0)
        post = pred * np.exp(loglik - loglik.max())
        filtered.append(post / np.trapezoid(post, x))
    return x, filtered


def grid_smoother(counts, multipliers, gamma, a0, b0, n_grid=2_000, n_quad=400):
    """Marginal smoothing densities p(theta_t | all T months) by grid integration.

    Backward pass: p(theta_{n-1} | all) = int b(theta_{n-1} | theta_n)
    p(theta_n | all) d theta_n with b proportional to transition * filtered,
    normalized per conditioning point. Only the model's forward dynamics enter.
    """
    counts = np.asarray(counts)
    multipliers = np.asarray(multipliers, dtype=float)
    x, filtered = grid_filter(counts, multipliers, gamma, a0, b0, n_grid, n_quad)
    T = len(counts)
    a_seq = shape_sequence(counts, gamma, a0)
    dx = x[1] - x[0]
    trap_w = np.full(len(x), dx)
    trap_w[0] = trap_w[-1] = dx / 2.0

    smoothed = [None] * (T + 1)
    smoothed[T] = filtered[T]
    for n in range(T, 0, -1):
        a_prev = a_seq[n - 1]
        c1, c2 = gamma * a_prev, (1.0 - gamma) * a_prev
        # transition density K[i, j] = p(theta_n = x_i | theta_{n-1} = x_j)
        eps = gamma * x[:, None] / x[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_k = (
                (c1 - 1.0) * np.log(eps)
                + (c2 - 1.0) * np.log1p(-eps)
                - special.betaln(c1, c2)
                + np.log(gamma / x)[None, :]
            )
        K = np.where((eps > 0.0) & (eps < 1.0), np.exp(log_k), 0.0)
        numer = K * filtered[n - 1][None, :]
        denom = numer @ trap_w
        backward = numer / np.where(denom > 0, denom, 1.0)[:, None]
        dens = (smoothed[n] * trap_w) @ backward
        norm = np.trapezoid(dens, x)
        smoothed[n - 1] = dens / norm
    return x, smoothed[1:]


def density_mean_var(x, pdf):
    mean = np.trapezoid(x * pdf, x)
    var = np.trapezoid((x - mean) ** 2 * pdf, x)
    return float(mean), float(var)


def tv_distance(x, p, q):
    return 0.5 * float(np.trapezoid(np.abs(p - q), x))


def negbin_pmf_binomial_coefficient(n: int, r: int, p: float) -> float:
    """Explicit C(r+n-1, n) p^r (1-p)^n for integer r (the oracle for the
    log-gamma implementation)."""
    return float(math.comb(r + n - 1, n)) * p**r * (1.0 - p) ** n


@dataclass(frozen=True)
class NegBinParams:
    """Negative binomial with pmf(n) = C(r+n-1, n) p^r (1-p)^n, n = 0, 1, 2, ...

    r may be non-integer (the binomial coefficient generalizes through the
    gamma function). mean = r(1-p)/p.
    """

    r: float
    p: float

    def __post_init__(self):
        if not (self.r > 0 and np.isfinite(self.r)):
            raise DomainError(f"negbin r must be positive, got {self.r}")
        if not (0.0 < self.p < 1.0):
            raise DomainError(f"negbin p must lie in (0, 1), got {self.p}")

    def mean(self) -> float:
        return self.r * (1.0 - self.p) / self.p

    def variance(self) -> float:
        return self.r * (1.0 - self.p) / self.p**2

    def log_pmf(self, n) -> np.ndarray | float:
        return log_pmf_negbin(n, self)


def log_pmf_poisson(n, rate) -> np.ndarray | float:
    """log Poisson pmf: n*log(rate) - rate - lgamma(n+1). rate = 0 is the point mass at 0."""
    n = np.asarray(n)
    rate = np.asarray(rate, dtype=float)
    if np.any(n < 0) or np.any(n != np.floor(n)):
        raise DomainError("count must be a nonnegative integer")
    if np.any(rate < 0) or not np.all(np.isfinite(rate)):
        raise DomainError("poisson rate must be nonnegative and finite")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = n * np.log(rate) - rate - special.gammaln(n + 1.0)
    # rate == 0: pmf is 1 at n=0, 0 elsewhere
    out = np.where(rate == 0, np.where(n == 0, 0.0, -np.inf), out)
    return out if out.ndim else float(out)


def log_pmf_negbin(n, params: NegBinParams) -> np.ndarray | float:
    """log negbin pmf via log-gamma, valid for non-integer r."""
    n = np.asarray(n)
    if np.any(n < 0) or np.any(n != np.floor(n)):
        raise DomainError("count must be a nonnegative integer")
    r, p = params.r, params.p
    out = (
        special.gammaln(r + n)
        - special.gammaln(n + 1.0)
        - special.gammaln(r)
        + r * np.log(p)
        + n * np.log1p(-p)
    )
    return out if out.ndim else float(out)


def log_pdf_gamma(x, params: GammaParams) -> np.ndarray | float:
    """log Gamma(shape a, rate b) density; -inf for x <= 0 by convention."""
    x = np.asarray(x, dtype=float)
    a, b = params.shape, params.rate
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a * np.log(b) - special.gammaln(a) + (a - 1.0) * np.log(x) - b * x
    out = np.where(x > 0, out, -np.inf)
    return out if out.ndim else float(out)


def predict_step(state: GammaParams, gamma: float) -> GammaParams:
    """Discount the filtered state one month ahead: (a, b) -> (gamma*a, gamma*b)."""
    if not (0.0 < gamma <= 1.0):
        raise DomainError(f"gamma must lie in (0, 1], got {gamma}")
    return GammaParams(gamma * state.shape, gamma * state.rate)


def update_step(predicted: GammaParams, n: int, multiplier: float = 1.0) -> GammaParams:
    """Condition the predicted state on the month's count."""
    if n < 0 or n != int(n):
        raise DomainError(f"count must be a nonnegative integer, got {n}")
    if not (multiplier > 0):
        raise DomainError(f"multiplier must be positive, got {multiplier}")
    return GammaParams(predicted.shape + n, predicted.rate + multiplier)


def one_step_predictive(predicted: GammaParams, multiplier: float = 1.0) -> NegBinParams:
    """Negative binomial forecast of the next count given the predicted state."""
    if not (multiplier > 0):
        raise DomainError(f"multiplier must be positive, got {multiplier}")
    r = predicted.shape
    p = predicted.rate / (predicted.rate + multiplier)
    return NegBinParams(r, p)


def fd_hessian_loop(f, x: np.ndarray, rel_step: float) -> np.ndarray:
    """Central second differences of a point target f at x, one call per
    stencil point, with steps rel_step * max(1, |x_i|)."""
    d = len(x)
    h = rel_step * np.maximum(1.0, np.abs(x))
    H = np.empty((d, d))
    f0 = f(x)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h[i]
        H[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / h[i] ** 2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h[j]
            H[i, j] = H[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return H
