"""Tests for forecasting, the EWMA benchmark, metrics and model comparison."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynpois import evaluation, filtering, mcmc
from dynpois.evaluation import (
    REFIT_EFFICIENCY,
    TABLE_COUNTS,
    TABLE_ENTRIES,
    TABLE_MARGIN,
    ForecastDistribution,
    _check_window,
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
from dynpois.kernels import DomainError, RngStream
from dynpois.mcmc import MhConfig, PosteriorDraws, fit_bpm, fit_variant
from dynpois.model import (
    CountSeries,
    DesignMatrix,
    ModelSpec,
    PriorConfig,
    build_design,
    linear_predictor,
    simulate_cohort,
)
from oracles import (
    GammaState,
    NegBinParams,
    log_pmf_negbin,
    log_pmf_poisson,
    mixture_cdf_mpmath,
    one_step_predictive,
    predict_step,
    quantile_by_doubling,
    refit_every_origin,
)


def _series(counts):
    return CountSeries(list(counts))


def _mixture(*components):
    """Forecast mixture of the given negbin components, one (r, p) row each."""
    return ForecastDistribution(origin=1, components=np.array([[c.r, c.p] for c in components]))


def _pmf(dist, n):
    """The mixture pmf at n, as the step of its cdf there."""
    return dist.cdf(n) - dist.cdf(n - 1)


def _probes(dist, q):
    """The answer of ``dist.quantile`` at level q and the counts at which it
    called ``cdf``."""
    probes = []
    exact = dist.cdf

    def cdf(n):
        probes.append(n)
        return exact(n)

    object.__setattr__(dist, "cdf", cdf)
    try:
        return dist.quantile(q), probes
    finally:
        object.__delattr__(dist, "cdf")


def _unbracketed(dist, q):
    """The quantile search with no table: from -1 and the Cantelli top."""
    return dist._search(q, None, dist._cantelli_top(q))


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

    @given(
        poisson=st.booleans(),
        # (component mean, negbin shape r), both log-uniform
        rows=st.lists(
            st.tuples(st.floats(-2.0, 5.0).map(lambda e: 10.0**e), st.floats(-1.0, 3.0).map(lambda e: 10.0**e)),
            min_size=1,
            max_size=50,
        ),
        q=st.sampled_from([1e-12, 0.025, 0.5, 0.975, 1.0 - 1e-12]),
    )
    # answers of 0
    @example(poisson=True, rows=[(1e-2, 1.0)], q=0.975)
    @example(poisson=False, rows=[(1e-2, 1.0), (0.1, 10.0)], q=0.5)
    @settings(max_examples=300, deadline=None)
    def test_quantile_equals_doubling_search(self, poisson, rows, q):
        if poisson:
            comps = np.array([mean for mean, _ in rows])
        else:
            comps = np.array([[r, r / (r + mean)] for mean, r in rows])
        dist = ForecastDistribution(origin=1, components=comps)
        # the table only narrows the search's bracket
        assert dist.quantile(q) == quantile_by_doubling(dist, q) == _unbracketed(dist, q)

    @pytest.mark.parametrize("weight", [1.0, 0.3, 7e-200])
    def test_equal_weights_reproduce_the_unweighted_mixture(self, weight):
        gen = np.random.default_rng(3)
        negbin = np.column_stack([gen.uniform(1.0, 50.0, 200), gen.uniform(0.05, 0.95, 200)])
        poisson = gen.uniform(0.1, 40.0, 200)
        for comps in (negbin, poisson):
            plain = ForecastDistribution(origin=1, components=comps)
            weighted = ForecastDistribution(origin=1, components=comps, weights=np.full(len(comps), weight))
            assert weighted.point_forecast == plain.point_forecast
            assert weighted.interval == plain.interval
            assert [weighted.cdf(n) for n in range(80)] == [plain.cdf(n) for n in range(80)]

    @given(
        poisson=st.booleans(),
        # (component mean, negbin shape r, integer weight)
        rows=st.lists(
            st.tuples(
                st.floats(-2.0, 5.0).map(lambda e: 10.0**e),
                st.floats(-1.0, 3.0).map(lambda e: 10.0**e),
                st.integers(0, 4),
            ),
            min_size=1,
            max_size=30,
        ).filter(lambda rows: any(k for _, _, k in rows)),
        q=st.sampled_from([1e-12, 0.025, 0.5, 0.975, 1.0 - 1e-12]),
    )
    @settings(max_examples=300, deadline=None)
    def test_integer_weights_equal_repeated_rows(self, poisson, rows, q):
        if poisson:
            comps = np.array([mean for mean, _, _ in rows])
        else:
            comps = np.array([[r, r / (r + mean)] for mean, r, _ in rows])
        counts = np.array([k for _, _, k in rows])
        weighted = ForecastDistribution(origin=1, components=comps, weights=counts)
        repeated = ForecastDistribution(origin=1, components=np.repeat(comps, counts, axis=0))
        # both means and cdfs are ratios of sums of at most 120 rounded terms
        assert weighted.mean() == pytest.approx(repeated.mean(), rel=1e-12)
        n, k = repeated.quantile(q), weighted.quantile(q)
        for m in (n - 1, n, k - 1, k):
            assert weighted.cdf(m) == pytest.approx(repeated.cdf(m), rel=1e-12, abs=1e-300)
        # the same quantile, unless every cdf step between the two lies within
        # the rounding of q: far in a tail a step can be below 1e-16
        low, high = min(n, k), max(n, k)
        assert n == k or (repeated.cdf(low) >= q - PMF_ABS and repeated.cdf(high - 1) <= q + PMF_ABS)

    @pytest.mark.parametrize("weights", [[1.0], [1.0, -0.5, 1.0], [0.0, 0.0, 0.0], [1.0, np.nan, 1.0],
                                         [1.0, np.inf, 1.0]])
    def test_invalid_weights_rejected(self, weights):
        with pytest.raises(DomainError):
            ForecastDistribution(origin=1, components=np.array([1.0, 2.0, 3.0]), weights=np.array(weights))

    def test_quantile_beyond_the_integer_guard_raises(self):
        # a Poisson rate of 1e19 leaves the cdf near 0 at 2**60 (about 1.15e18)
        with pytest.raises(DomainError, match="integer range"):
            ForecastDistribution(origin=1, components=np.array([1e19]))


class TestIntervalTable:
    """The pmf table that narrows ``quantile``'s bracket, against the search
    without it."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        poisson=st.booleans(),
        S=st.floats(0.0, math.log10(2000.0)).map(lambda e: int(10.0**e)),
        # the rows' log10 means spread up to 1 either side of a centre, inside [-2, 3]
        centre=st.floats(-2.0, 3.0),
        spread=st.floats(0.0, 1.0),
        weighted=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_table_equals_bisection(self, seed, poisson, S, centre, spread, weighted):
        gen = np.random.default_rng(seed)
        means = 10.0 ** gen.uniform(max(centre - spread, -2.0), min(centre + spread, 3.0), S)
        r = 10.0 ** gen.uniform(-1.0, 3.0, S)
        comps = means if poisson else np.column_stack([r, r / (r + means)])
        weights = None
        if weighted:
            weights = gen.exponential(1.0, S) * (gen.random(S) < 0.8)
            weights[0] = 1.0
        dist = ForecastDistribution(origin=1, components=comps, weights=weights)
        for q in (0.025, 0.975):
            (n, probes), unbracketed = _probes(dist, q), _unbracketed(dist, q)
            assert n == unbracketed
            if probes and dist._table_cdf(dist._cantelli_top(q)) is not None:
                # not settled inside the budget: a cdf value within the margin of q
                assert min(dist.cdf(n) - q, q - dist.cdf(n - 1)) <= 2 * TABLE_MARGIN

    def test_a_cdf_plateau_at_the_level_falls_back(self):
        # the rows of means 1 and 10 hold half the mass, and the CDF rounds to
        # exactly 0.5 from 45 until the rows of mean 1000 start; a table
        # without the margin answered 44. The table puts 34 more than the
        # margin below 0.5 and 809 more than the margin above it, so the
        # search probes only between them
        dist = ForecastDistribution(origin=1, components=np.array([1.0, 10.0, 1000.0, 1000.0]))
        n, probes = _probes(dist, 0.5)
        assert dist._table_cdf(dist._cantelli_top(0.5)) is not None
        assert probes and all(34 < m <= 809 for m in probes)
        assert n == quantile_by_doubling(dist, 0.5) == 45

    def test_a_level_within_the_margin_of_1_falls_back(self):
        # the table fits (counts 0..1002), but its CDF at 1 is 1 - 5e-13
        tiny = ForecastDistribution(origin=1, components=np.array([1e-6]))
        n, probes = _probes(tiny, 1.0 - 1e-12)
        assert tiny._table_cdf(tiny._cantelli_top(1.0 - 1e-12)) is not None and probes
        assert n == 1
        # a geometric row of mean 1000 needs counts far past the table; a
        # cumulative sum from 0 with no search returned 27641
        geometric = ForecastDistribution(origin=1, components=np.array([[1.0, 1.0 / 1001.0]]))
        assert geometric._table_cdf(geometric._cantelli_top(1.0 - 1e-12)) is None
        assert geometric.quantile(1.0 - 1e-12) == quantile_by_doubling(geometric, 1.0 - 1e-12) == 27644

    @pytest.mark.parametrize("comps", [np.full(2000, 1000.0), np.array([1e4])])
    def test_a_table_over_its_budget_falls_back(self, comps):
        # 2000 rows by 1201 counts break TABLE_ENTRIES; one row of mean 1e4 TABLE_COUNTS
        dist = ForecastDistribution(origin=1, components=comps)
        assert dist._table_cdf(dist._cantelli_top(0.975)) is None
        assert dist.interval == (quantile_by_doubling(dist, 0.025), quantile_by_doubling(dist, 0.975))

    @pytest.mark.parametrize("comps", [
        np.array([0.0]),
        np.array([0.0, 0.0, 3.0]),
        np.array([[2.0, 1.0 - 1e-15], [5.0, 0.5]]),
        np.array([[1e3, 1.0 - 1e-12]]),
    ])
    def test_edge_rows_are_answered_by_the_table(self, comps):
        # a Poisson rate of 0 is a point mass at 0; p near 1 nearly one
        dist = ForecastDistribution(origin=1, components=comps)
        for q in (0.025, 0.975):
            assert _probes(dist, q) == (quantile_by_doubling(dist, q), [])

    def test_table_cdf_error_is_far_below_the_margin(self):
        # the rows span the table's domain: counts up to TABLE_COUNTS - 3 (the
        # rate 1780), the Poisson rate 1698 that gave its largest measured
        # error, large
        # and small negative binomial shapes, p near 1, and a weighted mixture
        gen = np.random.default_rng(11)
        mixtures = [
            (np.array([1698.0]), None),
            (np.array([1780.0]), None),
            (np.array([0.01]), None),
            (np.array([[1e4, 1e4 / (1e4 + 1500.0)]]), None),
            (np.array([[1e6, 1e6 / (1e6 + 1700.0)]]), None),
            (np.array([[0.1, 0.1 / (0.1 + 5.0)]]), None),
            (np.array([[0.5, 0.5 / (0.5 + 50.0)]]), None),
            (np.array([[3.0, 1.0 - 1e-12]]), None),
            (gen.uniform(0.0, 500.0, 8), gen.uniform(0.0, 1.0, 8)),
        ]
        worst = 0.0
        for comps, weights in mixtures:
            dist = ForecastDistribution(origin=1, components=comps, weights=weights)
            cdf = dist._table_cdf(dist._cantelli_top(0.975))
            assert cdf is not None and len(cdf) <= TABLE_COUNTS and len(comps) * len(cdf) <= TABLE_ENTRIES
            worst = max(worst, float(np.max(np.abs(cdf - mixture_cdf_mpmath(dist, len(cdf) - 1)))))
        assert worst < TABLE_MARGIN / 10


class TestForecastOneStep:
    def test_matches_manual_mixture(self):
        states = [GammaState(4.0, 2.0), GammaState(6.0, 1.5)]
        draws = PosteriorDraws(
            beta=np.array([[0.2], [-0.1]]),
            gamma=np.array([0.5, 0.8]),
            acceptance_rate=0.3,
            beta_names=("z",),
            variant="DM2",
        )
        m = np.exp(draws.beta[:, 0])
        a = np.array([s.shape for s in states])
        b = np.array([s.rate for s in states])
        dist = forecast_one_step(draws, a, b, m, origin=9)
        comps = []
        for j in range(2):
            pred = predict_step(states[j], float(draws.gamma[j]))
            comps.append(one_step_predictive(pred, float(m[j])))
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
        dist = forecast_one_step(draws, np.array([2.0, 3.0]), np.ones(2), np.ones(2), origin=2)
        assert dist.point_forecast == pytest.approx(0.5 * (2.0 + 3.0), rel=1e-14)


@pytest.mark.parametrize("build", [
    lambda: MhConfig(iterations=math.inf),
    lambda: MhConfig(iterations=10.5, burn_in=0),
    lambda: MhConfig(burn_in=1.5),
    lambda: MhConfig(thinning=1.5),
    lambda: _check_window((2.7, 3.9), 10),
    lambda: MhConfig(iterations=True, burn_in=False),
    lambda: _check_window((True, 3), 5),
], ids=["iterations_inf", "iterations_float", "burn_in_float", "thinning_float", "window_float",
        "iterations_bool", "window_bool"])
def test_library_counts_must_be_integers(build):
    with pytest.raises(DomainError, match="integer"):
        build()


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
            expected = filter_core(series.counts, np.ones((1, 3)), [g], priors.a0, priors.b0).log_predictive[0]
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

    def test_static_forecast_filters_only_the_chain_rows(self, monkeypatch):
        # every filter row is a proposal or a mode that a chain's log target
        # scored, or a retained draw in the one pass of each fit's draws over
        # the window; the mode search's derivative passes filter no row, and
        # the reweighted origins run no chain and no filter
        rng = RngStream(53)
        T = 30
        cov = {"z": rng.substream(1).generator.normal(size=T)}
        spec = ModelSpec("DM2", ("z",))
        design = build_design(cov, spec, T)
        priors = PriorConfig(a0=60.0, b0=1.0)
        truth = simulate_cohort(priors, 0.6, np.array([0.4]), design, T, rng.substream(2))
        cfg = MhConfig(iterations=300, burn_in=100)
        filter_rows, mode_rows, samplers = [], [], []
        real_filter, real_mode, real_chain = filtering.filter_core, mcmc.find_mode_and_hessian, mcmc._independence_chain

        def counted_filter(counts, multipliers, gamma, a0, b0, first=1):
            filter_rows.append(len(gamma))
            return real_filter(counts, multipliers, gamma, a0, b0, first)

        def counted_mode(derivatives, start):
            def counted(x):
                before = sum(filter_rows)
                out = derivatives(x)
                mode_rows.append(sum(filter_rows) - before)
                return out

            return real_mode(counted, start)

        def recorded_chain(log_target, mh, config, rng, months=0):
            res = real_chain(log_target, mh, config, rng, months)
            samplers.append(res.sampler)
            return res

        for module in (filtering, mcmc):
            monkeypatch.setattr(module, "filter_core", counted_filter)
        monkeypatch.setattr(mcmc, "find_mode_and_hessian", counted_mode)
        monkeypatch.setattr(mcmc, "_independence_chain", recorded_chain)
        report = sequential_harness(truth.counts, design, spec, priors, cfg, (28, 30), rng=rng.substream(3))
        assert report.origins == (28, 29, 30)
        fits = len(report.refit_origins)
        assert report.refit_origins[0] == 28
        assert samplers == ["independence"] * fits
        assert mode_rows and not any(mode_rows)
        assert sum(filter_rows) == fits * (cfg.iterations + 1) + fits * cfg.n_retained

    @staticmethod
    def _cohort(variant, seed, T, shift_from=None):
        """A simulated cohort at a level of about 100 defaults a month, with the
        counts from month ``shift_from`` on tripled, and the design of
        ``variant`` on its covariate, which has no effect for DM1."""
        rng = RngStream(seed)
        cov = {"z": rng.substream(1).generator.normal(size=T)}
        priors = PriorConfig(a0=200.0, b0=2.0)
        beta = np.array([0.0 if variant == "DM1" else 0.5])
        truth = simulate_cohort(priors, 0.7, beta, build_design(cov, ModelSpec("DM2", ("z",)), T),
                                T, rng.substream(2))
        counts = truth.counts.counts.copy()
        if shift_from is not None:
            counts[shift_from - 1:] *= 3
        spec = ModelSpec(variant) if variant == "DM1" else ModelSpec(variant, ("z",))
        return CountSeries(counts), build_design(cov, spec, T), spec, priors

    REWEIGHTED_COHORTS = pytest.mark.parametrize(
        "variant, gamma_prior", [("DM2", "uniform"), ("DM2", "fixed"), ("DM1", "grid"), ("BPM", "uniform")]
    )

    def _first_fit(self, variant, gamma_prior):
        """The forecast over origins 51..60 of a 60-month cohort, the draws of its
        first fit, the (S, T) log predictives of those draws over the whole
        series, the origin that refits next (61 if none does), and the cohort."""
        series, design, spec, priors = self._cohort(variant, 81, 60)
        priors = PriorConfig(a0=priors.a0, b0=priors.b0, gamma_prior=gamma_prior, gamma_grid_step=0.02,
                             gamma_fixed_value=0.7)
        cfg = MhConfig(iterations=600, burn_in=100)
        report = sequential_harness(series, design, spec, priors, cfg, (51, 60), rng=RngStream(7))
        draws = fit_variant(spec, series.head(50), design.head(50), priors, cfg, RngStream(7).substream(51),
                            smooth=False)
        L = per_draw_log_predictives(series, design, draws, priors)
        next_refit = (report.refit_origins[1:] or (61,))[0]
        assert next_refit >= 57
        return report, draws, L, next_refit, (series, design, priors)

    @REWEIGHTED_COHORTS
    def test_weights_are_the_draws_predictives_since_the_fit(self, variant, gamma_prior):
        # until the next refit, a draw's weight at origin o is the product of its
        # one-step predictives of months start..o-1, which the filter over the
        # whole series gives: the efficiencies follow from them
        report, _, L, next_refit, _ = self._first_fit(variant, gamma_prior)
        for i, o in enumerate(range(51, next_refit)):
            log_w = L[:, 50 : o - 1].sum(axis=1)
            w = np.exp(log_w - log_w.max())
            assert report.weight_efficiency[i] == pytest.approx(w.sum() ** 2 / (len(w) * (w * w).sum()), rel=1e-9)

    @REWEIGHTED_COHORTS
    def test_reweighted_origin_is_the_mixture_of_freshly_filtered_draws(self, variant, gamma_prior):
        # at each reweighted origin o, every draw of the first fit starts from
        # its state after a fresh filter over months 1..o-1 and carries the
        # weight of its predictives of months 51..o-1
        report, draws, L, next_refit, (series, design, priors) = self._first_fit(variant, gamma_prior)
        assert next_refit > 52
        for i, o in enumerate(range(52, next_refit), start=1):
            log_w = L[:, 50 : o - 1].sum(axis=1)
            w = np.exp(log_w - log_w.max())
            m = linear_predictor(design.head(o), draws.beta)
            if variant == "BPM":
                dist = ForecastDistribution(origin=o, components=m[:, -1], weights=w)
            else:
                traj = filter_core(series.counts[: o - 1], m[:, :-1], draws.gamma, priors.a0, priors.b0)
                dist = forecast_one_step(draws, traj.a[:, -1], traj.b[:, -1], m[:, -1], o, weights=w)
            assert report.points[i] == pytest.approx(dist.point_forecast, rel=1e-12), o
            assert (report.lower[i], report.upper[i]) == dist.interval, o

    def test_reweighted_origins_agree_with_refits(self):
        # Monte Carlo tolerance, fixed before the run: with s the posterior sd of
        # a month's expected count (the sd of the refit's component means) and
        # each estimate worth at least S/10 independent draws (chain
        # autocorrelation, and a weight efficiency of at least 0.5), two point
        # forecasts differ by a normal error of sd at most s*sqrt(20/S). Allow
        # 4 such sd, and 1 more for an interval endpoint, an integer quantile.
        cfg = MhConfig(iterations=2000, burn_in=500)
        S = cfg.n_retained
        reweighted = 0
        for seed in (91, 92, 93, 94):
            series, design, spec, priors = self._cohort("DM2", seed, 80)
            report = sequential_harness(series, design, spec, priors, cfg, (71, 80), rng=RngStream(seed))
            oracle = refit_every_origin(series, design, spec, priors, cfg, (71, 80), RngStream(seed))
            for o, point, lo, hi, dist in zip(report.origins, report.points, report.lower, report.upper, oracle):
                s = float(np.std(dist._component_moments()[0]))
                tol = 4.0 * s * math.sqrt(20.0 / S)
                assert abs(point - dist.point_forecast) <= tol, (seed, o)
                assert abs(lo - dist.interval[0]) <= 1.0 + tol, (seed, o)
                assert abs(hi - dist.interval[1]) <= 1.0 + tol, (seed, o)
                reweighted += o not in report.refit_origins
        assert reweighted >= 30

    def test_level_shift_forces_a_refit_equal_to_the_oracle(self):
        series, design, spec, priors = self._cohort("DM2", 95, 70, shift_from=66)
        cfg = MhConfig(iterations=600, burn_in=100)
        report = sequential_harness(series, design, spec, priors, cfg, (61, 70), rng=RngStream(3))
        oracle = refit_every_origin(series, design, spec, priors, cfg, (61, 70), RngStream(3))
        assert report.refit_origins[0] == 61 and len(report.refit_origins) >= 2
        assert 66 < report.refit_origins[1] <= 68
        for i, o in enumerate(report.origins):
            if o in report.refit_origins:
                assert report.weight_efficiency[i] == 1.0
                dist = oracle[i]
                assert (report.points[i], report.lower[i], report.upper[i]) == (dist.point_forecast, *dist.interval)
            else:
                assert REFIT_EFFICIENCY <= report.weight_efficiency[i] < 1.0

    def test_window_states_at_the_fit_are_those_of_the_fitted_months_alone(self):
        # a DM4 design with three covariates, on which a BLAS matrix product
        # gives month 30's multipliers of some draws other last bits in the
        # design of months 1..36 than in that of months 1..30. The pass over
        # months 1..36 must forecast month 31 from the state the fit had.
        T, cols = 40, ("z1", "z2", "z3")
        rng = RngStream(98)
        cov = {c: rng.substream(k).generator.normal(size=T) for k, c in enumerate(cols, 1)}
        spec = ModelSpec("DM4", cols)
        design = build_design(cov, spec, T)
        priors = PriorConfig(a0=200.0, b0=2.0)
        series = simulate_cohort(priors, 0.7, np.r_[0.3, -0.2, 0.1, np.zeros(11)], design, T, rng.substream(4)).counts
        draws = fit_variant(spec, series.head(30), design.head(30), priors, MhConfig(iterations=300, burn_in=100),
                            RngStream(3).substream(31), smooth=False)
        _, comps = evaluation._filter_window(series, design, draws, priors, 31, 36, RngStream(0))
        m = linear_predictor(design.head(31), draws.beta)
        fitted = filter_core(series.counts[:30], m[:, :-1], draws.gamma, priors.a0, priors.b0)
        dist = forecast_one_step(draws, fitted.a[:, -1], fitted.b[:, -1], m[:, -1], 31)
        assert np.array_equal(comps[:, 0], dist.components)

    @pytest.mark.parametrize("variant, gamma_prior", [("DM2", "uniform"), ("DM1", "grid"), ("BPM", "uniform")])
    def test_window_scores_are_those_of_the_comparison(self, variant, gamma_prior):
        # the forecast's window and the comparison score draws by one
        # predictive_blocks, so they agree bit for bit; 300 draws span two blocks
        series, design, spec, priors = self._cohort(variant, 85, 40)
        priors = PriorConfig(a0=priors.a0, b0=priors.b0, gamma_prior=gamma_prior, gamma_grid_step=0.02)
        draws = fit_variant(spec, series.head(30), design.head(30), priors, MhConfig(iterations=400, burn_in=100),
                            RngStream(5), smooth=False)
        log_pred, comps = evaluation._filter_window(series, design, draws, priors, 31, 36, RngStream(0))
        L = per_draw_log_predictives(series.head(36), design.head(36), draws, priors)
        assert np.array_equal(log_pred, L[:, 30:35])
        if variant == "BPM":
            assert np.array_equal(comps, linear_predictor(design.head(36), draws.beta)[:, 30:])
        else:
            assert comps.shape == (draws.S, 6, 2)

    def test_window_pass_scores_only_the_window(self, monkeypatch):
        # the pass over months 1..36 from origin 31 scores the L = 6 window
        # months alone: 2 B L + L lgamma entries per block of B draws
        series, design, spec, priors = self._cohort("DM2", 85, 40)
        draws = fit_variant(spec, series.head(30), design.head(30), priors, MhConfig(iterations=400, burn_in=100),
                            RngStream(5), smooth=False)
        real_lgamma, entries = filtering.lgamma, []

        def counted_lgamma(x):
            entries.append(np.size(x))
            return real_lgamma(x)

        monkeypatch.setattr(filtering, "lgamma", counted_lgamma)
        evaluation._filter_window(series, design, draws, priors, 31, 36, RngStream(0))
        assert draws.S == 300
        assert entries == [2 * B * 6 + 6 for B in (filtering.FILTER_BLOCK, 300 - filtering.FILTER_BLOCK)]

    @pytest.mark.parametrize("variant", ["DM2", "BPM", "DM5"])
    def test_the_last_count_changes_only_its_actual(self, variant):
        # the pass filters months 1..end, but no forecast reads month end's count
        series, design, spec, priors = self._cohort(variant, 83, 30)
        counts = series.counts.copy()
        counts[-1] = 3 * counts[-1] + 7
        cfg = MhConfig(iterations=300, burn_in=100)
        reports = [sequential_harness(s, design, spec, priors, cfg, (27, 30), rng=RngStream(4))
                   for s in (series, CountSeries(counts))]
        before, after = ((r.points, r.lower, r.upper, r.weight_efficiency) for r in reports)
        assert before == after
        assert reports[0].actuals[:-1] == reports[1].actuals[:-1]
        assert reports[0].actuals[-1] != reports[1].actuals[-1]

    def test_dm5_refits_every_origin_at_full_efficiency(self):
        # DM5's pass ends at the month its one random-walk step reaches
        series, design, spec, priors = self._cohort("DM5", 84, 30)
        report = sequential_harness(series, design, spec, priors, MhConfig(iterations=200, burn_in=50), (28, 30),
                                    rng=RngStream(5))
        assert report.refit_origins == (28, 29, 30)
        assert report.weight_efficiency == (1.0, 1.0, 1.0)

    def test_the_dm5_extension_step_has_its_own_stream(self, monkeypatch):
        # the random-walk step that extends the fitted paths to the origin must
        # not draw from the stream the fit's backward sampling drew from
        series, design, spec, priors = self._cohort("DM5", 84, 30)
        keys = {"ffbs": set(), "window": set()}
        real_ffbs, real_window = mcmc.ffbs_sample, evaluation._filter_window

        def recorded_ffbs(trajectory, rng):
            keys["ffbs"].add(rng._spawn_key)
            return real_ffbs(trajectory, rng)

        def recorded_window(series, design, draws, priors, o_fit, end, rng):
            keys["window"].add(rng._spawn_key)
            return real_window(series, design, draws, priors, o_fit, end, rng)

        monkeypatch.setattr(mcmc, "ffbs_sample", recorded_ffbs)
        monkeypatch.setattr(evaluation, "_filter_window", recorded_window)
        sequential_harness(series, design, spec, priors, MhConfig(iterations=50, burn_in=10), (29, 30),
                           rng=RngStream(5))
        assert len(keys["ffbs"]) == len(keys["window"]) == 2
        assert not keys["ffbs"] & keys["window"]

    def test_an_unfittable_first_origin_is_a_domain_error(self):
        # origin 2 leaves DM5 one training month, which it cannot fit: an input
        # error, as a fit on one month is, not a failed fit
        series, design, spec, priors = self._cohort("DM5", 86, 6)
        with pytest.raises(DomainError, match="^forecast fit failed at origin 2: .* at least two months$"):
            sequential_harness(series, design, spec, priors, MhConfig(iterations=50, burn_in=10), (2, 4),
                               rng=RngStream(5))

    def test_a_domain_error_after_the_fit_stays_a_fit_error(self, monkeypatch):
        # the mixture's DomainError is a numeric corner of fitted draws
        def refused(*args, **kwargs):
            raise DomainError("mixture refused")

        monkeypatch.setattr(evaluation, "ForecastDistribution", refused)
        series, design, spec, priors = self._cohort("DM2", 86, 12)
        with pytest.raises(mcmc.FitError, match="^forecast fit failed at origin 10: mixture refused$"):
            sequential_harness(series, design, spec, priors, MhConfig(iterations=200, burn_in=50), (10, 12),
                               rng=RngStream(5))

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
        models = [(ModelSpec("DM1"), build_design(cov, ModelSpec("DM1"), T)), (spec2, design)]
        report = compare_models(truth.counts, models, priors, cfg, rng.substream(3))
        assert report.log_marginal_likelihood["DM2"] > report.log_marginal_likelihood["DM1"]
        assert report.log_cpo["DM2"] > report.log_cpo["DM1"]
        assert report.log_bayes_factors["DM2"]["DM1"] == pytest.approx(
            report.log_marginal_likelihood["DM2"] - report.log_marginal_likelihood["DM1"], rel=1e-12
        )

    def test_a_caller_built_design_is_scored_as_its_own_fit(self):
        # DM4 on a transformed covariate with seasonals from July, at roster
        # position 1: its scores are those of its own fit on rng.substream(1)
        T = 48
        rng = RngStream(21)
        cov = {"z": np.exp(rng.substream(1).generator.normal(scale=0.5, size=T))}
        priors = PriorConfig(a0=100.0, b0=2.0)
        dm2 = ModelSpec("DM2", ("z",))
        series = simulate_cohort(priors, 0.6, np.array([0.3]), build_design(cov, dm2, T), T, rng.substream(2)).counts
        dm4 = ModelSpec("DM4", ("z",))
        design = build_design({"z": np.log(cov["z"])}, dm4, T, start_month=7)
        cfg = MhConfig(iterations=500, burn_in=100)
        models = [(ModelSpec("DM1"), build_design(cov, ModelSpec("DM1"), T)), (dm4, design)]
        report = compare_models(series, models, priors, cfg, RngStream(9))
        L = fit_variant(dm4, series, design, priors, cfg, RngStream(9).substream(1), smooth=False,
                        log_predictive=True).log_predictive
        assert L is not None
        assert report.log_marginal_likelihood["DM4"] == harmonic_mean_logml(L.sum(axis=1))
        assert report.log_cpo["DM4"] == cpo_log_sum(L)

    def test_ewma_rejected(self):
        with pytest.raises(DomainError):
            compare_models(
                _series([1, 2]), [(ModelSpec("EWMA"), DesignMatrix.empty(2))], PriorConfig(), MhConfig(),
                RngStream(0)
            )


class TestDesignLength:
    """A design of another length than the series is an input error for every
    fitter and scorer, BPM's included, and for the comparison built on them."""

    T = 30

    @pytest.mark.parametrize("months", [1, T + 5])
    def test_a_design_of_another_length_raises(self, months):
        rng = RngStream(12)
        z = rng.substream(1).generator.normal(size=self.T + 5)
        series = _series(rng.substream(2).generator.poisson(20.0, size=self.T))
        priors, cfg = PriorConfig(a0=40.0, b0=2.0), MhConfig(iterations=120, burn_in=20)
        bpm, dm2, dm5 = ModelSpec("BPM", ("z",)), ModelSpec("DM2", ("z",)), ModelSpec("DM5", ("z",))
        wrong = {spec.variant: build_design({"z": z[:months]}, spec, months) for spec in (bpm, dm2, dm5)}
        draws = fit_bpm(series, build_design({"z": z[: self.T]}, bpm, self.T), priors, cfg, RngStream(3), smooth=False)
        calls = [
            lambda: mcmc.log_target_bpm(draws.beta[:4], series, wrong["BPM"], priors),
            lambda: per_draw_log_predictives(series, wrong["BPM"], draws, priors),
            lambda: fit_bpm(series, wrong["BPM"], priors, cfg, RngStream(3)),
            lambda: mcmc.fit_dm_static(series, wrong["DM2"], dm2, priors, cfg, RngStream(3)),
            lambda: mcmc.fit_dm5(series, wrong["DM5"], priors, cfg, RngStream(3)),
            lambda: compare_models(series, [(bpm, wrong["BPM"])], priors, cfg, RngStream(3)),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="disagree on T"):
                call()


def _built(cov, specs, T):
    """The roster ``compare_models`` takes: each spec with its design over T months."""
    return [(spec, build_design(cov, spec, T)) for spec in specs]


class TestKeptLogPredictives:
    """A chain fit asked for ``log_predictive`` keeps the per-month log
    likelihoods its target scored the retained draws with, and compare scores
    them in place of a second filter pass."""

    T = 40

    def _cohort(self):
        rng = RngStream(5)
        cov = {"z": rng.substream(1).generator.normal(size=self.T)}
        priors = PriorConfig(a0=100.0, b0=2.0)
        design = build_design(cov, ModelSpec("DM2", ("z",)), self.T)
        truth = simulate_cohort(priors, 0.6, np.array([0.4]), design, self.T, rng.substream(2))
        return truth.counts, cov, priors

    @staticmethod
    def _reference(series, cov, specs, priors, cfg, rng):
        """compare_models's report, every model scored by per_draw_log_predictives."""
        logml, logcpo = {}, {}
        for k, spec in enumerate(specs):
            design = build_design(cov, spec, series.T)
            draws = fit_variant(spec, series, design, priors, cfg, rng.substream(k), smooth=False)
            L = per_draw_log_predictives(series, design, draws, priors)
            logml[spec.variant], logcpo[spec.variant] = harmonic_mean_logml(L.sum(axis=1)), cpo_log_sum(L)
        return logml, logcpo

    @pytest.mark.parametrize(
        "variant, gamma_prior", [("DM1", "uniform"), ("DM2", "uniform"), ("DM4", "uniform"),
                                 ("DM2", "fixed"), ("BPM", "uniform")]
    )
    def test_kept_rows_equal_a_second_filter_pass(self, variant, gamma_prior):
        # 600 retained draws span three filter blocks, which the chain's blocks
        # (the mode, then the proposals) do not line up with
        series, cov, priors = self._cohort()
        priors = PriorConfig(a0=priors.a0, b0=priors.b0, gamma_prior=gamma_prior, gamma_fixed_value=0.6)
        spec = ModelSpec(variant) if variant == "DM1" else ModelSpec(variant, ("z",))
        design = build_design(cov, spec, self.T)
        cfg = MhConfig(iterations=700, burn_in=100)
        draws = fit_variant(spec, series, design, priors, cfg, RngStream(3), smooth=False, log_predictive=True)
        plain = fit_variant(spec, series, design, priors, cfg, RngStream(3), smooth=False)
        assert draws.sampler == "independence"
        assert plain.log_predictive is None
        assert np.array_equal(draws.beta, plain.beta)
        assert draws.log_predictive.shape == (cfg.n_retained, self.T)
        assert np.array_equal(draws.log_predictive, per_draw_log_predictives(series, design, draws, priors))

    @pytest.mark.parametrize(
        "variant, gamma_prior, proposal_scale",
        # DM4 at proposal scale 0.16 falls back to the random-walk chain
        [("DM4", "uniform", 0.16), ("DM5", "uniform", 1.0), ("DM1", "grid", 1.0)],
    )
    def test_routes_without_an_independence_chain_keep_no_rows(self, variant, gamma_prior, proposal_scale):
        series, cov, priors = self._cohort()
        priors = PriorConfig(a0=priors.a0, b0=priors.b0, gamma_prior=gamma_prior, gamma_grid_step=0.02)
        spec = ModelSpec(variant) if variant == "DM1" else ModelSpec(variant, ("z",))
        cfg = MhConfig(iterations=500, burn_in=100, proposal_scale=proposal_scale)
        design = build_design(cov, spec, self.T)
        draws = fit_variant(spec, series, design, priors, cfg, RngStream(9).substream(0), smooth=False,
                            log_predictive=True)
        assert draws.sampler == ("random_walk" if variant == "DM4" else "")
        assert draws.log_predictive is None
        report = compare_models(series, _built(cov, [spec], self.T), priors, cfg, RngStream(9))
        logml, logcpo = self._reference(series, cov, [spec], priors, cfg, RngStream(9))
        assert report.log_marginal_likelihood == logml
        assert report.log_cpo == logcpo

    def test_compare_scores_equal_a_second_filter_pass(self):
        series, cov, priors = self._cohort()
        specs = [ModelSpec("DM1"), ModelSpec("DM2", ("z",)), ModelSpec("DM4", ("z",)), ModelSpec("BPM", ("z",))]
        cfg = MhConfig(iterations=500, burn_in=100)
        report = compare_models(series, _built(cov, specs, self.T), priors, cfg, RngStream(9))
        logml, logcpo = self._reference(series, cov, specs, priors, cfg, RngStream(9))
        assert report.log_marginal_likelihood == logml
        assert report.log_cpo == logcpo

    def test_every_dm2_compare_filter_pass_is_a_target_block(self, monkeypatch):
        # the retained draws are not filtered again: each filter_core call runs
        # inside a log_target_static call, and there is one per call
        series, cov, priors = self._cohort()
        real_filter, real_target = filtering.filter_core, mcmc.log_target_static
        inside, filter_calls, target_calls = [False], [], 0

        def counted_filter(counts, multipliers, gamma, a0, b0, first=1):
            filter_calls.append(inside[0])
            return real_filter(counts, multipliers, gamma, a0, b0, first)

        def counted_target(*args, **kwargs):
            nonlocal target_calls
            target_calls += 1
            inside[0] = True
            try:
                return real_target(*args, **kwargs)
            finally:
                inside[0] = False

        for module in (filtering, mcmc):
            monkeypatch.setattr(module, "filter_core", counted_filter)
        monkeypatch.setattr(mcmc, "log_target_static", counted_target)
        compare_models(series, _built(cov, [ModelSpec("DM2", ("z",))], self.T), priors,
                       MhConfig(iterations=700, burn_in=100), RngStream(9))
        assert filter_calls and all(filter_calls)
        assert len(filter_calls) == target_calls

    def test_no_fitted_draws_keep_their_rows_after_compare(self, monkeypatch):
        # a caller that keeps every fit's draws, as the benchmark's child
        # process does, holds none of their rows once compare returns
        series, cov, priors = self._cohort()
        real_fit, fits, kept_at_fit = evaluation.fit_variant, [], []

        def keep(*args, **kwargs):
            draws = real_fit(*args, **kwargs)
            fits.append(draws)
            kept_at_fit.append(draws.log_predictive is not None)
            return draws

        monkeypatch.setattr(evaluation, "fit_variant", keep)
        specs = [ModelSpec("DM1"), ModelSpec("DM2", ("z",)), ModelSpec("DM5", ("z",)), ModelSpec("BPM", ("z",))]
        compare_models(series, _built(cov, specs, self.T), priors, MhConfig(iterations=500, burn_in=100),
                       RngStream(9))
        assert kept_at_fit == [True, True, False, True]
        assert [d.log_predictive for d in fits] == [None] * 4
