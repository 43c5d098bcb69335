"""Errors, the seeded random stream and numpy special functions shared by the package.

Callers draw variates straight from an :class:`RngStream`'s numpy generator,
so results are bitwise reproducible for a fixed seed. Gamma distributions are
parameterized by shape and *rate* throughout (mean = shape/rate); numpy's
gamma sampler takes scale = 1/rate.

The special functions the filter and the samplers need (``lgamma``,
``digamma``, ``trigamma``, ``logsumexp``, ``expit``, ``logit``, ``betaln``) are
written here in numpy, so that importing the package loads no scipy.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


class DomainError(ValueError):
    """Raised when an argument is outside the mathematical domain of an operation."""


def is_integer(x) -> bool:
    """Whether x is an integer, numpy's included; a bool is not one."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


class NumericDegeneracyError(ArithmeticError):
    """Raised when a computation degenerates numerically (underflow, zero mass, ...).

    Carries optional ``context`` describing where the degeneracy occurred.
    """

    def __init__(self, message: str, context: dict | None = None):
        super().__init__(message)
        self.context = context or {}


# Lanczos (1964) approximation with g = 6.024680040776729583740234375 and 13
# terms (Boost's lanczos13m53): Gamma(z) = e^g P(z) / Q(z) (z + g - 1/2)^(z - 1/2)
# e^-(z + g - 1/2), with Q(z) = z (z+1) ... (z+11). P's coefficients run from
# z^12 down to z^0; they and Q's factors are positive, so nothing cancels for
# z > 0. Q pairs its factors as (z+k)(z+11-k) = u + k(11-k), u = z(z+11).
_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_NUM = (
    0.006061842346248906525783753964555936883222, 0.5098416655656676188125178644804694509993,
    19.51992788247617482847860966235652136208, 449.9445569063168119446858607650988409623,
    6955.999602515376140356310115515198987526, 75999.29304014542649875303443598909137092,
    601859.6171681098786670226533699352302507, 3481712.15498064590882071018964774556468,
    14605578.08768506808414169982791359218571, 43338889.32467613834773723740590533316085,
    86363131.28813859145546927288977868422342, 103794043.1163445451906271053616070238554,
    56906521.91347156388090791033559122686859,
)
# entries per chunk: small enough that the ~40 numpy passes over a chunk run
# in cache rather than in memory, as those over a 77k-entry filter block would
_LGAMMA_CHUNK = 8192


def lgamma(x) -> np.ndarray:
    """log Gamma(x) for each x >= 0, elementwise; lgamma(0) = inf.

    lgamma(x) = (x - 1/2) (log(x + g - 1/2) - 1) + log(P(x) / Q(x)) for x >= 1,
    and lgamma(x + 1) - log(x) below 1. P(z)/Q(z) changes by less than one
    part in 1e18 beyond z = 1e20, so z is capped there before its 12th power
    can overflow. The error is below 4e-15 max(|log Gamma(x)|, 1) over
    (0, 1e7]. Each entry depends only on its own x, so a stack gives the
    entries of its rows' own calls bit for bit.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    out = np.empty(flat.shape)
    for start in range(0, flat.size, _LGAMMA_CHUNK):
        chunk = slice(start, start + _LGAMMA_CHUNK)
        out[chunk] = _lgamma_chunk(flat[chunk])
    return out.reshape(x.shape)[()]


def _lgamma_chunk(x: np.ndarray) -> np.ndarray:
    """``lgamma`` of a 1-D array of at most _LGAMMA_CHUNK entries."""
    small = x < 1.0
    z = x + small
    zc = np.minimum(z, 1e20)
    p = zc * _LANCZOS_NUM[0]
    for num in _LANCZOS_NUM[1:-1]:
        p += num
        p *= zc
    p += _LANCZOS_NUM[-1]
    u = zc * (zc + 11.0)
    q = u * (u + 10.0)
    for c in (18.0, 24.0, 28.0, 30.0):
        q *= u + c
    out = (z - 0.5) * (np.log(z + (_LANCZOS_G - 0.5)) - 1.0) + np.log(p / q)
    if small.any():
        with np.errstate(divide="ignore"):
            out[small] -= np.log(x[small])
    return out


# digamma and trigamma shift x below _PSI_SHIFT up by _PSI_SHIFT, past which
# their asymptotic series, cut after the x^-12 and the x^-15 term, are exact to
# below 1e-15 relative. The coefficients are -B_2k / 2k and B_2k, B_2k the
# Bernoulli numbers, innermost (highest power) first.
_PSI_SHIFT = 10
_DIGAMMA_SERIES = (691.0 / 32760.0, -1.0 / 132.0, 1.0 / 240.0, -1.0 / 252.0, 1.0 / 120.0, -1.0 / 12.0)
_TRIGAMMA_SERIES = (7.0 / 6.0, -691.0 / 2730.0, 5.0 / 66.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 1.0 / 6.0)


def _psi_shift(x: np.ndarray, power: int) -> tuple:
    """(z, s): z = x + _PSI_SHIFT where x < _PSI_SHIFT and x elsewhere, and
    s = sum over k < _PSI_SHIFT of (x + k)^-power where x was shifted, else 0."""
    x = np.asarray(x, dtype=float)
    small = x < _PSI_SHIFT
    z = np.where(small, x + _PSI_SHIFT, x)
    s = np.zeros(x.shape)
    if small.any():
        xs = x[small]
        with np.errstate(divide="ignore", over="ignore"):
            s[small] = sum((xs + k) ** -power for k in range(_PSI_SHIFT))
    return z, s


def digamma(x) -> np.ndarray:
    """d/dx log Gamma(x) for each x > 0, elementwise: psi(x) = psi(x + 10) -
    sum_{k<10} 1/(x + k) below 10, and log x - 1/(2x) - sum_k B_2k / (2k x^2k)
    from there. The error is below 1e-14 max(|psi(x)|, 1) over (0, 1e7]."""
    z, s = _psi_shift(x, 1)
    w = 1.0 / (z * z)
    series = np.full(z.shape, _DIGAMMA_SERIES[0])
    for c in _DIGAMMA_SERIES[1:]:
        series *= w
        series += c
    return (np.log(z) - 0.5 / z + series * w - s)[()]


def trigamma(x) -> np.ndarray:
    """d^2/dx^2 log Gamma(x) for each x > 0, elementwise: psi'(x) = psi'(x + 10)
    + sum_{k<10} 1/(x + k)^2 below 10, and 1/x + 1/(2x^2) + sum_k B_2k /
    x^(2k+1) from there; inf where 1/x^2 overflows. The error is below 1e-14
    psi'(x) over (0, 1e7]."""
    z, s = _psi_shift(x, 2)
    w = 1.0 / (z * z)
    series = np.full(z.shape, _TRIGAMMA_SERIES[0])
    for c in _TRIGAMMA_SERIES[1:]:
        series *= w
        series += c
    return ((1.0 + (0.5 + series / z) / z) / z + s)[()]


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over ``axis`` (over every entry by default), taken about
    the largest entry so that no exp overflows. Any NaN gives NaN, a +inf
    entry gives inf, and all -inf entries give -inf."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    # exp overflows only beside a +inf entry, where the sum is inf anyway
    with np.errstate(divide="ignore", over="ignore"):
        return np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)


def expit(x):
    """The logistic function 1 / (1 + exp(-x)), elementwise; 0 and 1 at -inf and inf."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def logit(p):
    """log(p / (1 - p)), elementwise; -inf at 0 and inf at 1, so that
    expit(logit(1.0)) == 1.0."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore"):
        return np.log(p / (1.0 - p))


def betaln(a: float, b: float) -> float:
    """log B(a, b) = lgamma(a) + lgamma(b) - lgamma(a + b) for a, b > 0."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


class RngStream:
    """Deterministic random stream keyed by a seed.

    Identical seeds reproduce identical draw sequences. A stream is stateful
    and must not be shared across concurrent callers; derive independent
    children with :meth:`substream` instead.
    """

    def __init__(self, seed: int, *, _spawn_key: tuple = ()):
        if not (is_integer(seed) and 0 <= seed < 2**64):
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
        self.seed = int(seed)
        self._spawn_key = tuple(_spawn_key)
        # every spawn key starts with 0, the key the pinned golden digests were drawn with
        seq = np.random.SeedSequence(self.seed, spawn_key=(0, *self._spawn_key))
        self.generator = np.random.default_rng(seq)

    def substream(self, k: int) -> "RngStream":
        """Derive the k-th child stream, independent of this one and its siblings."""
        if not (is_integer(k) and k >= 0):
            raise DomainError(f"substream key must be a nonnegative integer, got {k!r}")
        return RngStream(self.seed, _spawn_key=(*self._spawn_key, int(k)))

    def __repr__(self):
        return f"RngStream(seed={self.seed})" + "".join(f".substream({k})" for k in self._spawn_key)
