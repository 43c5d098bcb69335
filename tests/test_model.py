"""Tests for domain types, design construction and the cohort simulator."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from dynpois.kernels import DomainError, NumericDegeneracyError, RngStream
from dynpois.model import (
    CountSeries,
    DesignMatrix,
    MODEL_VARIANTS,
    ModelSpec,
    PriorConfig,
    build_design,
    linear_predictor,
    log_linear_predictor,
    simulate_cohort,
    simulate_dm5_coefficients,
    standardize_covariates,
)

KS_CRITICAL_5PCT = 1.3581  # asymptotic Kolmogorov critical value, scaled by 1/sqrt(n)


class TestCountSeries:
    def test_valid(self):
        s = CountSeries([5, 0, 2])
        assert s.T == 3

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            CountSeries([1, -2])

    def test_non_integer_count_rejected(self):
        with pytest.raises(DomainError):
            CountSeries([1, 2.7])
        with pytest.raises(DomainError):
            CountSeries([1, np.nan])
        with pytest.raises(DomainError):
            CountSeries([1, np.inf])
        assert CountSeries([1.0, 3.0]).counts.tolist() == [1, 3]

    @pytest.mark.parametrize("count", [2**63, 2**70, -(2**70), 1e300, -1e300, np.uint64(2**64 - 1)])
    def test_count_beyond_int64_rejected_without_warning(self, count):
        # a plain cast would overflow, or wrap with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape("below 2**63")):
                CountSeries([1, count])
        assert CountSeries([1, 2**63 - 1]).counts[1] == 2**63 - 1

    def test_counts_not_one_row_of_months_rejected(self):
        with pytest.raises(DomainError, match="one-dimensional"):
            CountSeries([[5, 0], [2, 7]])
        with pytest.raises(DomainError, match="at least one month"):
            CountSeries([])

    def test_head(self):
        s = CountSeries([5, 0, 2, 7])
        assert np.array_equal(s.head(2).counts, [5, 0])

    @pytest.mark.parametrize("t", [0, 4])
    def test_design_head_takes_the_same_month_check(self, t):
        with pytest.raises(DomainError, match="outside 1..3"):
            CountSeries([5, 0, 2]).head(t)
        with pytest.raises(DomainError, match="outside 1..3"):
            DesignMatrix(("a",), np.ones((3, 1))).head(t)


class TestModelSpec:
    def test_dm1_takes_no_covariates(self):
        with pytest.raises(DomainError):
            ModelSpec("DM1", ("x",))

    def test_dm3_requires_quadratic_trend(self):
        spec = ModelSpec("DM3", ("x",))
        assert (spec.trend_order, spec.seasonal, spec.intercept) == (2, False, False)

    def test_dm4_requires_seasonal(self):
        spec = ModelSpec("DM4", ("x",))
        assert (spec.trend_order, spec.seasonal, spec.intercept) == (0, True, False)

    def test_dimension(self):
        assert ModelSpec("DM4", ("x", "y")).p == 2 + 11
        assert ModelSpec("BPM", ("x",)).p == 1 + 1

    def test_unknown_variant(self):
        with pytest.raises(DomainError):
            ModelSpec("DM9")


class TestPriorConfig:
    def test_defaults_valid(self):
        p = PriorConfig()
        assert p.a0 / p.b0 == 1.0  # the prior mean of the initial rate

    def test_positive_hyperparameters(self):
        with pytest.raises(DomainError):
            PriorConfig(a0=0.0)
        with pytest.raises(DomainError):
            PriorConfig(tau_rate=-1.0)

    def test_grid_step_must_divide_one(self):
        with pytest.raises(DomainError):
            PriorConfig(gamma_grid_step=0.03)
        PriorConfig(gamma_grid_step=0.05)

    def test_grid_step_floor(self):
        # 1e-4 gives the largest grid, 9999 points; finer steps divide 1 too
        # but would filter up to ~1e8 grid points
        assert round(1.0 / PriorConfig(gamma_grid_step=1e-4).gamma_grid_step) - 1 == 9999
        for step in (5e-5, 1e-8):
            with pytest.raises(DomainError, match=r"\[1e-4, 0.5\]"):
                PriorConfig(gamma_grid_step=step)


class TestBuildDesign:
    def test_december_reference_has_zero_dummies(self):
        design = build_design({}, ModelSpec("DM4"), 12)
        assert np.all(design.rows[11] == 0.0)  # month 12 is December

    def test_january_indicator(self):
        design = build_design({}, ModelSpec("DM4"), 12)
        expected = np.zeros(11)
        expected[0] = 1.0
        assert np.array_equal(design.rows[0], expected)

    def test_quadratic_trend_cells(self):
        # t/T and (t/T)^2: month 3 of 5, and the last month at 1
        design = build_design({}, ModelSpec("DM3"), 5)
        assert design.rows[2] == pytest.approx([0.6, 0.36], rel=1e-15)
        assert tuple(design.rows[-1]) == (1.0, 1.0)
        assert design.column_names == ("trend", "trend2")

    @pytest.mark.parametrize("variant", MODEL_VARIANTS)
    def test_variant_columns(self, variant):
        covariates = () if variant == "DM1" else ("u", "v")
        spec = ModelSpec(variant, covariates)
        design = build_design({"u": np.arange(24.0), "v": np.ones(24)}, spec, 24)
        expected = {
            "BPM": ("intercept", "u", "v"),
            "DM1": (),
            "DM3": ("u", "v", "trend", "trend2"),
            "DM4": ("u", "v", *(f"month{m}" for m in range(1, 12))),
        }.get(variant, ("u", "v"))
        assert design.column_names == expected
        assert design.p == spec.p == len(expected)
        if variant == "BPM":
            assert np.all(design.rows[:, 0] == 1.0)
            assert np.array_equal(design.rows[:, 1], np.arange(24.0))

    def test_unknown_column(self):
        with pytest.raises(DomainError):
            build_design({}, ModelSpec("DM2", ("missing",)), 5)

    @pytest.mark.parametrize("variant, covariates, name", [
        ("DM3", ("trend",), "trend"),
        ("BPM", ("intercept",), "intercept"),
        ("DM4", ("month3",), "month3"),
        ("DM2", ("z", "z"), "z"),
    ])
    def test_column_name_collision_rejected(self, variant, covariates, name):
        # a covariate named like a generated column, or selected twice
        cov = {c: np.arange(5.0) for c in covariates}
        with pytest.raises(DomainError, match=f"design column '{name}' appears twice"):
            build_design(cov, ModelSpec(variant, covariates), 5)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            build_design({"x": np.ones(4)}, ModelSpec("DM2", ("x",)), 5)

    @pytest.mark.parametrize("start_month", [0, 13, -11])
    def test_start_month_outside_the_calendar_rejected(self, start_month):
        with pytest.raises(DomainError, match="start_month"):
            build_design({}, ModelSpec("DM4"), 2, start_month=start_month)

    def test_start_month_offset(self):
        design = build_design({}, ModelSpec("DM4"), 2, start_month=12)
        assert np.all(design.rows[0] == 0.0)  # begins in December
        assert design.rows[1][0] == 1.0  # then January

    def test_deterministic(self):
        spec = ModelSpec("DM2", ("x",))
        cov = {"x": np.linspace(0, 1, 6)}
        a = build_design(cov, spec, 6)
        b = build_design(cov, spec, 6)
        assert np.array_equal(a.rows, b.rows)


class TestStandardizeCovariates:
    def test_unit_scale_and_constant_column_centred(self):
        raw = {"x": np.array([1.0, 2.0, 3.0, 4.0]), "c": np.full(4, 5.0)}
        out = standardize_covariates(raw)
        assert out["x"].mean() == pytest.approx(0.0, abs=1e-12)
        assert out["x"].std() == pytest.approx(1.0, rel=1e-12)
        assert np.array_equal(out["c"], np.zeros(4))
        assert np.array_equal(raw["x"], [1.0, 2.0, 3.0, 4.0])  # input untouched


class TestSimulateCohort:
    def _setup(self, T=40, p=2):
        rng = RngStream(314)
        cov = {f"z{i+1}": rng.substream(10 + i).generator.normal(size=T) for i in range(p)}
        names = tuple(cov.keys())
        return cov, names

    def test_zero_beta_matches_dm1_bitwise(self):
        T = 40
        cov, names = self._setup(T)
        priors = PriorConfig(a0=50.0, b0=1.0)
        design2 = build_design(cov, ModelSpec("DM2", names), T)
        design1 = DesignMatrix.empty(T)
        t2 = simulate_cohort(priors, 0.7, np.zeros(2), design2, T, RngStream(8))
        t1 = simulate_cohort(priors, 0.7, np.zeros(0), design1, T, RngStream(8))
        assert np.array_equal(t1.counts.counts, t2.counts.counts)
        assert np.array_equal(t1.theta_path, t2.theta_path)

    def test_degenerate_prior_gives_all_zero_counts(self):
        # rate starts at ~1e-12 and the ordering keeps it absorbed near zero
        priors = PriorConfig(a0=0.001, b0=1e12)
        truth = simulate_cohort(
            priors, 0.5, np.zeros(0), DesignMatrix.empty(30), 30, RngStream(3)
        )
        assert np.all(truth.counts.counts == 0)

    def test_stochastic_ordering_every_path(self):
        priors = PriorConfig(a0=80.0, b0=2.0)
        for seed in range(20):
            truth = simulate_cohort(
                priors, 0.6, np.zeros(0), DesignMatrix.empty(25), 25, RngStream(seed)
            )
            theta = truth.theta_path
            assert np.all(theta[1:] <= theta[:-1] / 0.6 * (1 + 1e-12))

    def test_innovation_mean_matches_discount(self):
        # over many paths the realized innovations eps_t = gamma*theta_t/theta_{t-1}
        # average to gamma (beta mean identity)
        gamma = 0.55
        priors = PriorConfig(a0=60.0, b0=1.0)
        design = DesignMatrix.empty(10)
        eps = []
        for seed in range(1000):
            truth = simulate_cohort(
                priors, gamma, np.zeros(0), design, 10, RngStream(1000 + seed)
            )
            th = np.concatenate([[truth.theta0], truth.theta_path])
            eps.extend(gamma * th[1:] / th[:-1])
        eps = np.array(eps)
        se = eps.std() / np.sqrt(len(eps))
        assert abs(eps.mean() - gamma) < 3 * se

    @pytest.fixture(scope="class")
    def first_months(self):
        """theta0 and the first beta innovation of one-month cohorts, one per
        seed, under a0 = 3.2, b0 = 1.7 and gamma = 0.3."""
        truths = [
            simulate_cohort(PriorConfig(a0=3.2, b0=1.7), 0.3, np.zeros(0), DesignMatrix.empty(1), 1, RngStream(seed))
            for seed in range(4000)
        ]
        theta0 = np.array([t.theta0 for t in truths])
        return theta0, 0.3 * np.array([t.theta_path[0] for t in truths]) / theta0

    def test_theta0_ks_against_gamma_shape_rate(self, first_months):
        # b0 is a rate: a sampler that took it as the scale would have mean
        # a0 * b0 = 5.44 in place of a0 / b0 = 1.88
        theta0, _ = first_months
        stat = stats.kstest(theta0, lambda x: special.gammainc(3.2, 1.7 * x)).statistic
        assert stat < KS_CRITICAL_5PCT / math.sqrt(len(theta0))

    def test_first_innovation_ks_against_beta(self, first_months):
        _, eps = first_months
        stat = stats.kstest(eps, lambda x: special.betainc(0.3 * 3.2, 0.7 * 3.2, x)).statistic
        assert stat < KS_CRITICAL_5PCT / math.sqrt(len(eps))

    @pytest.mark.parametrize("a0, b0, gamma, month", [
        # gamma * a0 rounds to 0 in the first month
        (5e-324, 1.0, 0.5, 1),
        # a rate near 0 draws no counts, so a_t = gamma^t a0 shrinks until, in
        # month 24, gamma * a_23 = 1e-324 rounds to 0
        (1e-300, 1e300, 0.1, 24),
    ])
    def test_zero_innovation_shape_names_its_month(self, a0, b0, gamma, month):
        with pytest.raises(DomainError, match=f"month {month}: the beta innovation's shapes .* got 0.0, "):
            simulate_cohort(PriorConfig(a0=a0, b0=b0), gamma, np.zeros(0), DesignMatrix.empty(30), 30, RngStream(0))

    def test_overflowing_rate_raises_numeric_degeneracy(self):
        # 1 / b0 overflows, so theta0 is infinite
        with pytest.raises(NumericDegeneracyError, match="month 1: no count") as exc:
            simulate_cohort(PriorConfig(b0=5e-324), 0.5, np.zeros(0), DesignMatrix.empty(5), 5, RngStream(0))
        assert exc.value.context == {"month": 1}

    def test_invalid_gamma(self):
        with pytest.raises(DomainError):
            simulate_cohort(
                PriorConfig(), 1.5, np.zeros(0), DesignMatrix.empty(5), 5, RngStream(0)
            )

    def test_coefficients_must_match_the_design(self):
        # a covariate-free design has no column for a coefficient to act on
        for beta in (np.array([0.4, 9.0]), np.zeros((5, 1))):
            with pytest.raises(DomainError, match="beta must be"):
                simulate_cohort(PriorConfig(), 0.5, beta, DesignMatrix.empty(5), 5, RngStream(0))


class TestSimulateDm5Coefficients:
    def test_huge_precision_freezes_path(self):
        path = simulate_dm5_coefficients(np.array([0.4, -0.2]), np.array([1e18, 1e18]), 50, RngStream(1))
        assert np.allclose(path, np.tile([0.4, -0.2], (50, 1)), atol=1e-6)

    def test_increment_variance(self):
        tau = np.array([4.0])
        path = simulate_dm5_coefficients(np.zeros(1), tau, 200_001, RngStream(2))
        increments = np.diff(path[:, 0])
        var = increments.var()
        se = np.sqrt(2.0 / len(increments)) * (1.0 / tau[0])
        assert abs(var - 1.0 / tau[0]) < 3 * se

    def test_increments_uncorrelated(self):
        path = simulate_dm5_coefficients(np.zeros(1), np.array([1.0]), 100_001, RngStream(3))
        inc = np.diff(path[:, 0])
        lag1 = np.corrcoef(inc[:-1], inc[1:])[0, 1]
        assert abs(lag1) < 3.0 / np.sqrt(len(inc))

    def test_nonpositive_precision_rejected(self):
        with pytest.raises(DomainError):
            simulate_dm5_coefficients(np.zeros(1), np.array([0.0]), 10, RngStream(0))

    def test_nan_precision_rejected(self):
        with pytest.raises(DomainError):
            simulate_dm5_coefficients(np.zeros(2), np.array([1.0, np.nan]), 10, RngStream(0))

    def test_first_row_is_initial(self):
        path = simulate_dm5_coefficients(np.array([1.5]), np.array([2.0]), 10, RngStream(4))
        assert path[0, 0] == 1.5


class TestLinearPredictor:
    # unpinned: the column sum is elementwise arithmetic, so it holds on any
    # CPU; a BLAS matrix product fails it (K=256, T=150, p=13, t=149 below)
    @settings(max_examples=40, deadline=None)
    @given(K=st.integers(1, 300), T=st.integers(1, 200), p=st.integers(0, 16), paths=st.booleans(),
           cut=st.integers(0, 199), seed=st.integers(0, 2**32 - 1),
           fn=st.sampled_from([linear_predictor, log_linear_predictor]))
    @example(K=256, T=150, p=13, paths=False, cut=148, seed=0, fn=linear_predictor)
    @example(K=256, T=150, p=13, paths=False, cut=148, seed=0, fn=log_linear_predictor)
    def test_entry_depends_only_on_its_draw_and_its_month(self, K, T, p, paths, cut, seed, fn):
        gen = np.random.default_rng(seed)
        design = DesignMatrix(tuple(f"c{i}" for i in range(p)), gen.normal(size=(T, p)))
        beta = 0.5 * gen.normal(size=(K, T, p) if paths else (K, p))
        full = fn(design, beta)
        assert full.shape == (K, T)
        assert np.array_equal(linear_predictor(design, beta), np.exp(log_linear_predictor(design, beta)))
        t = 1 + cut % T
        head = fn(design.head(t), beta[:, :t] if paths else beta)
        assert np.array_equal(head, full[:, :t])
        for k in range(K):
            assert np.array_equal(full[k], fn(design, beta[k : k + 1])[0])

    @pytest.mark.parametrize("p", [0, 1, 14])
    def test_other_shapes_name_both_stack_kinds(self, p):
        T = 6
        design = DesignMatrix(tuple(f"c{i}" for i in range(p)), np.ones((T, p)))
        for bad in (np.zeros(p), np.zeros((3, p + 1)), np.zeros((3, T - 1, p))):
            with pytest.raises(DomainError, match=re.escape(f"(K, {p})") + ".*" + re.escape(f"(K, {T}, {p})")):
                linear_predictor(design, bad)

    def test_empty_design_gives_ones(self):
        assert np.all(linear_predictor(DesignMatrix.empty(4), np.zeros((2, 0))) == 1.0)

    def test_static_and_dynamic_agree_on_constant_path(self):
        rows = np.arange(6.0).reshape(3, 2)
        design = DesignMatrix(("a", "b"), rows)
        beta = np.array([[0.2, -0.1]])
        static = linear_predictor(design, beta)
        dynamic = linear_predictor(design, np.tile(beta, (3, 1))[None])
        assert np.array_equal(static, dynamic)

    def test_dimension_mismatch(self):
        design = DesignMatrix(("a",), np.ones((3, 1)))
        with pytest.raises(DomainError):
            linear_predictor(design, np.array([[1.0, 2.0]]))
