"""Seedable probability primitives shared by the whole package.

Distribution parameters are plain frozen dataclasses; densities are exposed
in log space and only exponentiated at reporting boundaries. Every sampler
takes an :class:`RngStream`, so results are bitwise reproducible for a fixed
(seed, stream_id) pair.

Gamma distributions are parameterized by shape and *rate* throughout
(mean = shape/rate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special


class DomainError(ValueError):
    """Raised when an argument is outside the mathematical domain of an operation."""


class NumericDegeneracyError(ArithmeticError):
    """Raised when a computation degenerates numerically (underflow, zero mass, ...).

    Carries optional ``context`` describing where the degeneracy occurred.
    """

    def __init__(self, message: str, context: dict | None = None):
        super().__init__(message)
        self.context = context or {}


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Cholesky factorization failed; carries the offending matrix."""

    def __init__(self, message: str, matrix: np.ndarray):
        super().__init__(message)
        self.matrix = matrix


class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    Identical (seed, stream_id) pairs reproduce identical draw sequences;
    distinct stream ids give statistically independent streams. A stream is
    stateful and must not be shared across concurrent callers; derive
    independent children with :meth:`substream` instead.
    """

    def __init__(self, seed: int, stream_id: int = 0, _spawn_key: tuple = ()):
        if not (0 <= int(seed) < 2**64):
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {seed}")
        if not (0 <= int(stream_id) < 2**64):
            raise DomainError(f"stream_id must be an unsigned 64-bit integer, got {stream_id}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._spawn_key = tuple(_spawn_key)
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, *self._spawn_key))
        self.generator = np.random.default_rng(seq)

    def substream(self, k: int) -> "RngStream":
        """Derive the k-th child stream, independent of this one and its siblings."""
        return RngStream(self.seed, self.stream_id, _spawn_key=(*self._spawn_key, int(k)))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


@dataclass(frozen=True)
class GammaParams:
    """Gamma(shape, rate); density shape-rate so mean = shape/rate."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0 and np.isfinite(self.shape)):
            raise DomainError(f"gamma shape must be positive, got {self.shape}")
        if not (self.rate > 0 and np.isfinite(self.rate)):
            raise DomainError(f"gamma rate must be positive, got {self.rate}")

    def mean(self) -> float:
        return self.shape / self.rate

    def variance(self) -> float:
        return self.shape / self.rate**2


@dataclass(frozen=True)
class BetaParams:
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and np.isfinite(self.alpha)):
            raise DomainError(f"beta alpha must be positive, got {self.alpha}")
        if not (self.beta > 0 and np.isfinite(self.beta)):
            raise DomainError(f"beta beta must be positive, got {self.beta}")

    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)


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


def log_pdf_beta(x, params: BetaParams) -> np.ndarray | float:
    """log Beta(alpha, beta) density; -inf outside (0, 1)."""
    x = np.asarray(x, dtype=float)
    a, b = params.alpha, params.beta
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (
            (a - 1.0) * np.log(x)
            + (b - 1.0) * np.log1p(-x)
            - special.betaln(a, b)
        )
    out = np.where((x > 0) & (x < 1), out, -np.inf)
    return out if out.ndim else float(out)


def sample_gamma(params: GammaParams, rng: RngStream, size=None):
    """Draw from Gamma(shape, rate)."""
    return rng.generator.gamma(shape=params.shape, scale=1.0 / params.rate, size=size)


def sample_beta(params: BetaParams, rng: RngStream, size=None):
    return rng.generator.beta(params.alpha, params.beta, size=size)


def cholesky_or_raise(matrix: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            "covariance matrix is not positive definite", matrix=np.array(matrix)
        ) from None


def logit(x):
    x = np.asarray(x, dtype=float)
    out = np.log(x) - np.log1p(-x)
    return out if out.ndim else float(out)


def expit(x):
    out = special.expit(x)
    return out if np.ndim(out) else float(out)
