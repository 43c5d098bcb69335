"""Tests for forecasting, the EWMA benchmark, metrics and model comparison."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynpois.evaluation import (
    ForecastDistribution,
    compare_models,
    cpo_log_sum,
    ewma_forecast,
    ewma_recursion,
    forecast_metrics,
    forecast_one_step,
    harmonic_mean_logml,
    per_draw_log_predictives,
    select_ewma_nu,
    sequential_harness,
)
from dynpois.filtering import filter_core
from dynpois.kernels import DomainError, GammaParams, RngStream
from dynpois.mcmc import MhConfig, PosteriorDraws, fit_bpm
from dynpois.model import (
    CountSeries,
    DesignMatrix,
    ModelSpec,
    PriorConfig,
    build_design,
    simulate_cohort,
)
from oracles import (
    NegBinParams,
    log_pmf_negbin,
    log_pmf_poisson,
    one_step_predictive,
    predict_step,
)


def _series(counts):
    return CountSeries(np.arange(1, len(counts) + 1), list(counts))


def _mixture(*components):
    """Forecast mixture of the given negbin components, one (r, p) row each."""
    return ForecastDistribution(origin=1, components=np.array([[c.r, c.p] for c in components]))


def _pmf(dist, n):
    """The mixture pmf at n, as the step of its cdf there."""
    return dist.cdf(n) - dist.cdf(n - 1)


# cdf steps carry the absolute rounding of cdf values near 1
PMF_ABS = 1e-14


class TestForecastDistribution:
    def test_single_component_reduces_to_negbin(self):
        nb = NegBinParams(2.5, 0.4)
        dist = _mixture(nb)
        for n in range(0, 30):
            expected = math.exp(log_pmf_negbin(n, nb))
            assert _pmf(dist, n) == pytest.approx(expected, rel=1e-12, abs=PMF_ABS)
        # the 97.5% quantile by a linear scan of the negbin cdf
        cdf = np.cumsum(np.exp(log_pmf_negbin(np.arange(1_000), nb)))
        assert dist.quantile(0.975) == int(np.searchsorted(cdf, 0.975))
        assert dist.point_forecast == pytest.approx(nb.mean(), rel=1e-14)

    def test_identical_components_idempotent(self):
        nb = NegBinParams(3.0, 0.5)
        one = _mixture(nb)
        two = _mixture(nb, nb)
        for n in range(20):
            assert one.cdf(n) == pytest.approx(two.cdf(n), rel=1e-14)
        assert one.interval == two.interval

    def test_mixture_pmf_is_hand_average(self):
        a = NegBinParams(2.0, 0.3)
        b = NegBinParams(5.0, 0.6)
        dist = _mixture(a, b)
        for n in range(25):
            expected = 0.5 * (math.exp(log_pmf_negbin(n, a)) + math.exp(log_pmf_negbin(n, b)))
            assert _pmf(dist, n) == pytest.approx(expected, rel=1e-12, abs=PMF_ABS)

    def test_mixture_mean_is_average_of_means(self):
        a = NegBinParams(2.0, 0.3)
        b = NegBinParams(5.0, 0.6)
        dist = _mixture(a, b)
        assert dist.point_forecast == pytest.approx(0.5 * (a.mean() + b.mean()), rel=1e-14)

    def test_cdf_monotone_and_interval_ordered(self):
        dist = _mixture(NegBinParams(2.0, 0.3), NegBinParams(4.0, 0.5), NegBinParams(1.0, 0.7))
        cdf_vals = [dist.cdf(n) for n in range(50)]
        assert all(b >= a for a, b in zip(cdf_vals, cdf_vals[1:]))
        lo, hi = dist.interval
        assert lo <= hi
        assert dist.quantile(0.975) >= dist.quantile(0.025)

    def test_empty_components_rejected(self):
        with pytest.raises(DomainError):
            ForecastDistribution(origin=1, components=np.zeros((0, 2)))
        with pytest.raises(DomainError):
            ForecastDistribution(origin=1, components=np.zeros(0))

    def test_out_of_domain_components_rejected(self):
        for comps in ([[2.0, 1.0]], [[0.0, 0.5]], [[np.nan, 0.5]], [-1.0], [np.inf]):
            with pytest.raises(DomainError):
                ForecastDistribution(origin=1, components=np.array(comps))


class TestForecastOneStep:
    def test_matches_manual_mixture(self):
        states = [GammaParams(4.0, 2.0), GammaParams(6.0, 1.5)]
        draws = PosteriorDraws(
            beta=np.array([[0.2], [-0.1]]),
            gamma=np.array([0.5, 0.8]),
            acceptance_rate=0.3,
            beta_names=("z",),
            variant="DM2",
        )
        z_next = np.array([1.0])
        a = np.array([s.shape for s in states])
        b = np.array([s.rate for s in states])
        dist = forecast_one_step(draws, a, b, z_next, origin=9)
        comps = []
        for j in range(2):
            pred = predict_step(states[j], float(draws.gamma[j]))
            comps.append(one_step_predictive(pred, float(np.exp(z_next @ draws.beta[j]))))
        # the array arithmetic repeats the per-draw kernels bit for bit
        assert dist.components.tolist() == [[c.r, c.p] for c in comps]
        for n in range(15):
            expected = np.mean([math.exp(log_pmf_negbin(n, c)) for c in comps])
            assert _pmf(dist, n) == pytest.approx(expected, rel=1e-12, abs=PMF_ABS)
        assert dist.origin == 9

    def test_no_covariates(self):
        draws = PosteriorDraws(
            beta=np.zeros((2, 0)),
            gamma=np.array([0.5, 0.6]),
            acceptance_rate=1.0,
            variant="DM1",
        )
        dist = forecast_one_step(draws, np.array([2.0, 3.0]), np.ones(2), np.zeros(0), origin=2)
        assert dist.point_forecast == pytest.approx(0.5 * (2.0 + 3.0), rel=1e-14)

    def test_coefficient_paths_need_beta_next(self):
        draws = PosteriorDraws(
            beta=np.zeros((2, 5, 1)),
            gamma=np.array([0.5, 0.6]),
            acceptance_rate=1.0,
            variant="DM5",
        )
        with pytest.raises(DomainError):
            forecast_one_step(draws, np.ones(2), np.ones(2), np.array([1.0]), origin=6)


class TestForecastMetrics:
    def test_hand_worked_example(self):
        m = forecast_metrics([10, 20], [8, 25])
        assert m["mape"] == pytest.approx(0.225, rel=1e-15)
        assert m["rmse"] == pytest.approx(math.sqrt(14.5), rel=1e-15)

    def test_interval_metrics(self):
        m = forecast_metrics([10, 20], [10, 20], intervals=[(5, 15), (30, 40)])
        assert m["mcov"] == 0.5
        assert m["mwid"] == 10.0

    def test_perfect_forecast(self):
        m = forecast_metrics([7, 3], [7.0, 3.0])
        assert m["mape"] == 0.0
        assert m["rmse"] == 0.0

    def test_zero_actual_skipped_and_reported(self):
        m = forecast_metrics([0, 10], [2, 10])
        assert m["skipped"] == (0,)
        assert m["mape"] == 0.0  # only the nonzero month enters

    def test_strict_coverage_boundary(self):
        # equality with an interval endpoint does not count as covered
        m = forecast_metrics([5], [5], intervals=[(5, 9)])
        assert m["mcov"] == 0.0


class TestEwma:
    def test_recursion_hand_values(self):
        preds = ewma_recursion(np.array([10.0, 20.0, 30.0]), 0.5)
        assert preds.tolist() == [10.0, 10.0, 15.0]

    def test_constant_series_fixed_point(self):
        counts = np.full(12, 7.0)
        nu, fallback = select_ewma_nu(counts)
        assert not fallback
        assert nu == 0.0  # every nu is optimal; ties take the smallest
        preds = ewma_recursion(counts, nu)
        assert np.all(preds == 7.0)

    def test_selection_matches_fine_grid(self):
        gen = np.random.default_rng(3)
        for _ in range(5):
            counts = gen.poisson(20, size=30).astype(float) + 1.0
            coarse, _ = select_ewma_nu(counts, grid_step=0.01)
            fine, _ = select_ewma_nu(counts, grid_step=0.001)
            assert abs(coarse - fine) <= 0.01 + 1e-12

    def test_all_zero_series_falls_back_to_rmse(self):
        series = _series([0, 0, 0, 0, 0])
        report = ewma_forecast(series, (2, 5))
        assert "ewma_rmse_fallback" in report.flags
        assert report.mape is None

    def test_sequential_report(self):
        series = _series([10, 20, 30, 25, 15, 18])
        report = ewma_forecast(series, (4, 6))
        assert report.origins == (4, 5, 6)
        assert report.mcov is None and report.mwid is None
        assert report.rmse >= 0.0

    def test_window_validation(self):
        with pytest.raises(DomainError):
            ewma_forecast(_series([1, 2, 3]), (1, 3))
        with pytest.raises(DomainError):
            ewma_forecast(_series([1, 2, 3]), (2, 9))


class TestHarmonicMeanLogMl:
    def test_constant_values(self):
        assert harmonic_mean_logml([-4.2] * 50) == pytest.approx(-4.2, rel=1e-14)

    def test_two_term_arithmetic(self):
        expected = -math.log((math.e**1 + math.e**3) / 2.0)
        assert harmonic_mean_logml([-1.0, -3.0]) == pytest.approx(expected, rel=1e-14)
        assert harmonic_mean_logml([-1.0, -3.0]) == pytest.approx(-2.434, abs=5e-4)

    @given(
        values=st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=30),
        shift=st.floats(min_value=-100, max_value=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, values, shift):
        base = harmonic_mean_logml(values)
        shifted = harmonic_mean_logml(np.asarray(values) + shift)
        assert shifted == pytest.approx(base + shift, abs=1e-9)

    def test_permutation_invariance(self):
        vals = np.array([-3.0, -1.5, -9.0, -2.2])
        assert harmonic_mean_logml(vals) == harmonic_mean_logml(vals[::-1])


class TestCpoLogSum:
    def test_single_draw_identity(self):
        log_f = np.array([[-1.2, -0.7, -2.0]])
        assert cpo_log_sum(log_f) == pytest.approx(-3.9, rel=1e-14)

    def test_harmonic_mean_two_values(self):
        log_f = np.log(np.array([[0.2], [0.5]]))
        assert math.exp(cpo_log_sum(log_f)) == pytest.approx(2.0 / 7.0, rel=1e-13)

    def test_matches_quadrature_loo_on_poisson_toy(self):
        # intercept-only Poisson model: the harmonic-mean CPO of each month
        # must match the true leave-one-out predictive from quadrature
        counts = [4, 6, 5]
        series = _series(counts)
        priors = PriorConfig(beta_sd=10.0)
        cfg = MhConfig(iterations=60_000, burn_in=10_000)
        design = build_design({}, ModelSpec("BPM"), 3)
        draws = fit_bpm(series, design, priors, cfg, RngStream(31))
        log_f = per_draw_log_predictives(series, design, draws, priors)

        beta = np.linspace(-4, 6, 20_001)
        log_prior = -0.5 * beta**2 / 100.0

        def log_lik(subset):
            out = np.zeros_like(beta)
            for n in subset:
                out += n * beta - np.exp(beta) - math.lgamma(n + 1)
            return out

        for i in range(3):
            others = [c for j, c in enumerate(counts) if j != i]
            w = np.exp(log_lik(others) + log_prior)
            lik_i = np.exp(counts[i] * beta - np.exp(beta) - math.lgamma(counts[i] + 1))
            loo = np.trapezoid(lik_i * w, beta) / np.trapezoid(w, beta)
            cpo_i = math.exp(math.log(draws.S) - _logsumexp(-log_f[:, i]))
            assert cpo_i == pytest.approx(loo, rel=0.02)

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            cpo_log_sum(np.zeros(5))


def _logsumexp(x):
    from scipy.special import logsumexp

    return float(logsumexp(x))


class TestPerDrawLogPredictives:
    def test_bpm_rows_are_poisson_pmfs(self):
        series = _series([2, 5])
        design = build_design({}, ModelSpec("BPM"), 2)
        draws = PosteriorDraws(
            beta=np.array([[1.0], [0.5]]),
            gamma=None,
            acceptance_rate=0.5,
            beta_names=("intercept",),
            variant="BPM",
        )
        out = per_draw_log_predictives(series, design, draws, PriorConfig())
        for j, b in enumerate((1.0, 0.5)):
            for t, n in enumerate((2, 5)):
                assert out[j, t] == pytest.approx(log_pmf_poisson(n, math.exp(b)), rel=1e-12)

    def test_dm_rows_match_filter(self):
        series = _series([3, 1, 4])
        design = DesignMatrix.empty(3)
        priors = PriorConfig(a0=2.0, b0=1.0)
        draws = PosteriorDraws(
            beta=np.zeros((2, 0)),
            gamma=np.array([0.4, 0.7]),
            acceptance_rate=1.0,
            variant="DM1",
        )
        out = per_draw_log_predictives(series, design, draws, priors)
        for j, g in enumerate((0.4, 0.7)):
            expected = filter_core(series.counts, np.ones(3), g, priors.a0, priors.b0).log_predictive
            assert np.allclose(out[j], expected, rtol=1e-14)


class TestSequentialHarness:
    def test_dm1_grid_end_to_end(self):
        rng = RngStream(51)
        priors = PriorConfig(a0=60.0, b0=1.0, gamma_prior="grid", gamma_grid_step=0.05)
        truth = simulate_cohort(
            priors, 0.6, np.zeros(0), DesignMatrix.empty(20), 20, rng.substream(0)
        )
        cfg = MhConfig(iterations=400, burn_in=0)
        report = sequential_harness(
            truth.counts, DesignMatrix.empty(20), ModelSpec("DM1"), priors, cfg, (17, 19), rng=rng.substream(1)
        )
        assert report.origins == (17, 18, 19)
        assert len(report.points) == 3
        assert report.mcov is not None and 0.0 <= report.mcov <= 1.0
        assert all(lo <= hi for lo, hi in zip(report.lower, report.upper))

    def test_deterministic_given_rng(self):
        rng = RngStream(52)
        priors = PriorConfig(a0=60.0, b0=1.0, gamma_prior="grid", gamma_grid_step=0.1)
        truth = simulate_cohort(
            priors, 0.7, np.zeros(0), DesignMatrix.empty(15), 15, rng.substream(0)
        )
        cfg = MhConfig(iterations=200, burn_in=0)
        r1 = sequential_harness(truth.counts, DesignMatrix.empty(15), ModelSpec("DM1"), priors, cfg, (13, 15), rng=RngStream(9))
        r2 = sequential_harness(truth.counts, DesignMatrix.empty(15), ModelSpec("DM1"), priors, cfg, (13, 15), rng=RngStream(9))
        assert r1.points == r2.points
        assert r1.lower == r2.lower

    def test_ewma_variant_delegates(self):
        series = _series([5, 9, 12, 10, 8])
        report = sequential_harness(
            series, DesignMatrix.empty(5), ModelSpec("EWMA"), PriorConfig(), MhConfig(), (3, 5),
            rng=RngStream(0),
        )
        assert report.model == "EWMA"


class TestCompareModels:
    def test_dm2_beats_dm1_on_strong_signal(self):
        rng = RngStream(61)
        T = 90
        cov = {"z": rng.substream(1).generator.normal(size=T)}
        spec2 = ModelSpec("DM2", ("z",))
        design = build_design(cov, spec2, T)
        priors = PriorConfig(a0=120.0, b0=2.0)
        truth = simulate_cohort(priors, 0.6, np.array([0.9]), design, T, rng.substream(2))
        cfg = MhConfig(iterations=1500, burn_in=500)
        report = compare_models(
            truth.counts, cov, [ModelSpec("DM1"), spec2], priors, cfg, rng.substream(3)
        )
        assert report.log_marginal_likelihood["DM2"] > report.log_marginal_likelihood["DM1"]
        assert report.log_cpo["DM2"] > report.log_cpo["DM1"]
        assert report.log_bayes_factors["DM2"]["DM1"] == pytest.approx(
            report.log_marginal_likelihood["DM2"] - report.log_marginal_likelihood["DM1"], rel=1e-12
        )

    def test_ewma_rejected(self):
        with pytest.raises(DomainError):
            compare_models(
                _series([1, 2]), {}, [ModelSpec("EWMA")], PriorConfig(), MhConfig(), RngStream(0)
            )
