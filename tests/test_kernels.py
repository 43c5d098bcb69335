"""Unit tests for the probability primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from dynpois.evaluation import ForecastDistribution
from dynpois.kernels import DomainError, RngStream
from oracles import (
    GammaState,
    NegBinParams,
    log_pdf_gamma,
    log_pmf_negbin,
    log_pmf_poisson,
    negbin_pmf_binomial_coefficient,
)


class TestPoissonLogPmf:
    def test_zero_count(self):
        for lam in (0.3, 1.0, 17.5):
            assert log_pmf_poisson(0, lam) == pytest.approx(-lam, rel=1e-14)

    def test_zero_rate_degenerate(self):
        assert log_pmf_poisson(0, 0.0) == 0.0
        assert log_pmf_poisson(2, 0.0) == -np.inf

    def test_direct_value_against_arbitrary_precision(self):
        # log(2^3 e^-2 / 3!) evaluated with mpmath
        import mpmath

        mpmath.mp.dps = 50
        expected = float(mpmath.log(mpmath.mpf(2) ** 3 * mpmath.exp(-2) / mpmath.factorial(3)))
        assert log_pmf_poisson(3, 2.0) == pytest.approx(expected, rel=1e-13)
        # the n=2 value, approx -1.3069
        expected2 = float(mpmath.log(mpmath.mpf(2) ** 2 * mpmath.exp(-2) / mpmath.factorial(2)))
        assert log_pmf_poisson(2, 2.0) == pytest.approx(expected2, rel=1e-13)
        assert log_pmf_poisson(2, 2.0) == pytest.approx(-1.3069, abs=5e-5)

    def test_negative_rate_rejected(self):
        with pytest.raises(DomainError):
            log_pmf_poisson(1, -0.5)

    @given(n=st.integers(min_value=1, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_maximized_at_rate_equal_count(self, n):
        at_n = log_pmf_poisson(n, float(n))
        for factor in (0.7, 0.95, 1.05, 1.4):
            assert at_n >= log_pmf_poisson(n, n * factor)

    def test_vectorized(self):
        out = log_pmf_poisson(np.array([0, 1, 2]), 1.5)
        assert out.shape == (3,)
        assert np.all(np.isfinite(out))


class TestNegBinLogPmf:
    def test_pmf_zero_is_p_to_r(self):
        params = NegBinParams(1.0, 1.0 / 3.0)
        assert log_pmf_negbin(0, params) == pytest.approx(math.log(1.0 / 3.0), rel=1e-14)

    def test_geometric_case(self):
        params = NegBinParams(1.0, 1.0 / 3.0)
        assert log_pmf_negbin(1, params) == pytest.approx(math.log(2.0 / 9.0), rel=1e-14)

    def test_sums_to_one(self):
        params = NegBinParams(3.7, 0.2)
        k = int(stats.nbinom.ppf(1.0 - 1e-12, params.r, params.p)) + 10
        total = np.exp(log_pmf_negbin(np.arange(k + 1), params)).sum()
        assert total >= 1.0 - 1e-9

    def test_invalid_p_rejected(self):
        with pytest.raises(DomainError):
            NegBinParams(2.0, 1.0)
        with pytest.raises(DomainError):
            NegBinParams(2.0, 0.0)

    def test_mean_identity(self):
        params = NegBinParams(2.5, 0.4)
        assert params.mean() == pytest.approx(2.5 * 0.6 / 0.4, rel=1e-15)

    @given(
        r=st.integers(min_value=1, max_value=40),
        n=st.integers(min_value=0, max_value=200),
        p=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_binomial_coefficient_formula(self, r, n, p):
        via_loggamma = math.exp(log_pmf_negbin(n, NegBinParams(float(r), p)))
        explicit = negbin_pmf_binomial_coefficient(n, r, p)
        if explicit > 0:
            assert via_loggamma == pytest.approx(explicit, rel=1e-12)


class TestGammaLogPdf:
    def test_exponential_value(self):
        assert log_pdf_gamma(0.5, GammaState(1.0, 1.0)) == pytest.approx(-0.5, rel=1e-14)

    def test_integrates_to_one(self):
        params = GammaState(2.7, 1.3)
        total, _ = integrate.quad(lambda x: np.exp(log_pdf_gamma(x, params)), 0, np.inf)
        assert total == pytest.approx(1.0, rel=1e-8)

    def test_mode_location(self):
        params = GammaState(5.0, 2.0)
        mode = (5.0 - 1.0) / 2.0
        x = np.linspace(0.01, 10, 5_000)
        vals = log_pdf_gamma(x, params)
        assert x[np.argmax(vals)] == pytest.approx(mode, abs=0.01)

    def test_out_of_support(self):
        assert log_pdf_gamma(0.0, GammaState(2.0, 1.0)) == -np.inf
        assert log_pdf_gamma(-1.0, GammaState(2.0, 1.0)) == -np.inf


def _negbin_quantile(q: float, params: NegBinParams) -> int:
    """Quantile of one negative binomial through a one-row forecast mixture."""
    dist = ForecastDistribution(origin=1, components=np.array([[params.r, params.p]]))
    return dist.quantile(q)


class TestNegBinQuantile:
    def test_small_q_gives_zero(self):
        assert _negbin_quantile(1e-12, NegBinParams(2.0, 0.3)) == 0

    def test_geometric_median(self):
        assert _negbin_quantile(0.5, NegBinParams(1.0, 0.5)) == 0

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            params = NegBinParams(float(rng.uniform(0.3, 8.0)), float(rng.uniform(0.1, 0.9)))
            q = float(rng.uniform(0.001, 0.999))
            # brute-force scan of the cdf
            pmfs = np.exp(log_pmf_negbin(np.arange(100_000), params))
            cdf = np.cumsum(pmfs)
            expected = int(np.searchsorted(cdf, q))
            got = _negbin_quantile(q, params)
            if got != expected:
                # the two cdf evaluations can disagree in the last ulp when q
                # falls exactly on a cdf value; only a genuine tie is allowed
                boundary = cdf[min(got, expected)]
                assert abs(boundary - q) < 1e-9
                assert abs(got - expected) == 1
            else:
                assert got == expected

    def test_invalid_q(self):
        with pytest.raises(DomainError):
            _negbin_quantile(0.0, NegBinParams(1.0, 0.5))


class TestDeterminism:
    def test_same_stream_identical(self):
        a = RngStream(123).substream(7).generator.gamma(2.0, 1.0 / 3.0, size=50)
        b = RngStream(123).substream(7).generator.gamma(2.0, 1.0 / 3.0, size=50)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123).substream(0).generator.gamma(2.0, 1.0 / 3.0, size=50)
        b = RngStream(123).substream(1).generator.gamma(2.0, 1.0 / 3.0, size=50)
        assert not np.array_equal(a, b)

    def test_spawn_key_starts_with_zero(self):
        # the key every pinned digest was drawn with
        rng = RngStream(5).substream(3)
        seq = np.random.SeedSequence(5, spawn_key=(0, 3))
        assert np.array_equal(rng.generator.random(4), np.random.default_rng(seq).random(4))
        assert repr(rng) == "RngStream(seed=5).substream(3)"

    def test_substream_deterministic(self):
        a = RngStream(5).substream(3).generator.random(10)
        b = RngStream(5).substream(3).generator.random(10)
        assert np.array_equal(a, b)
        c = RngStream(5).substream(4).generator.random(10)
        assert not np.array_equal(a, c)

    def test_invalid_seed(self):
        with pytest.raises(DomainError):
            RngStream(-1)
        with pytest.raises(DomainError):
            RngStream(2**64)

    @pytest.mark.parametrize("seed", [1.7, 1.0, "5", True, None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(DomainError, match="seed"):
            RngStream(seed)

    @pytest.mark.parametrize("key", [2.9, -1, True, "2"])
    def test_substream_key_must_be_a_nonnegative_integer(self, key):
        with pytest.raises(DomainError, match="substream key"):
            RngStream(5).substream(key)

    def test_numpy_integers_accepted(self):
        a = RngStream(np.uint64(5)).substream(np.int64(3)).generator.random(4)
        assert np.array_equal(a, RngStream(5).substream(3).generator.random(4))


class TestPoissonParams:
    def test_cdf_and_pmf_consistent(self):
        # a one-row Poisson forecast mixture is the Poisson law itself
        dist = ForecastDistribution(origin=1, components=np.array([3.5]))
        cdfs = np.array([dist.cdf(n) for n in range(-1, 20)])
        pmfs = np.exp(log_pmf_poisson(np.arange(20), 3.5))
        # cdf differences carry the absolute rounding of cdf values near 1
        assert np.diff(cdfs) == pytest.approx(pmfs, rel=1e-12, abs=1e-14)
        assert dist.cdf(19) == pytest.approx(pmfs.sum(), rel=1e-12)
        assert dist.cdf(-1) == 0.0
