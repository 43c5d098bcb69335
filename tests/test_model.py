"""Tests for domain types, design construction and the cohort simulator."""

import numpy as np
import pytest

from dynpois.kernels import DomainError, RngStream
from dynpois.model import (
    CountSeries,
    DesignMatrix,
    MODEL_VARIANTS,
    ModelSpec,
    PriorConfig,
    build_design,
    linear_predictor,
    simulate_cohort,
    simulate_dm5_coefficients,
    standardize_covariates,
)


class TestCountSeries:
    def test_valid(self):
        s = CountSeries([1, 2, 3], [5, 0, 2])
        assert s.T == 3

    def test_gap_rejected(self):
        with pytest.raises(DomainError):
            CountSeries([1, 3], [1, 2])

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            CountSeries([1, 2], [1, -2])

    def test_non_integer_count_rejected(self):
        with pytest.raises(DomainError):
            CountSeries([1, 2], [1, 2.7])
        with pytest.raises(DomainError):
            CountSeries([1, 2], [1, np.nan])
        with pytest.raises(DomainError):
            CountSeries([1, 2], [1, np.inf])
        assert CountSeries([1, 2], [1.0, 3.0]).counts.tolist() == [1, 3]

    def test_non_integer_month_rejected(self):
        with pytest.raises(DomainError):
            CountSeries([1, 2.5, 3.9], [1, 2, 3])

    def test_head(self):
        s = CountSeries([1, 2, 3, 4], [5, 0, 2, 7])
        assert np.array_equal(s.head(2).counts, [5, 0])


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
        assert p.initial_state().mean() == 1.0

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

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            build_design({"x": np.ones(4)}, ModelSpec("DM2", ("x",)), 5)

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

    def test_invalid_gamma(self):
        with pytest.raises(DomainError):
            simulate_cohort(
                PriorConfig(), 1.5, np.zeros(0), DesignMatrix.empty(5), 5, RngStream(0)
            )


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

    def test_first_row_is_initial(self):
        path = simulate_dm5_coefficients(np.array([1.5]), np.array([2.0]), 10, RngStream(4))
        assert path[0, 0] == 1.5


class TestLinearPredictor:
    def test_empty_design_gives_ones(self):
        assert np.all(linear_predictor(DesignMatrix.empty(4), np.zeros(0)) == 1.0)

    def test_static_and_dynamic_agree_on_constant_path(self):
        rows = np.arange(6.0).reshape(3, 2)
        design = DesignMatrix(("a", "b"), rows)
        beta = np.array([0.2, -0.1])
        static = linear_predictor(design, beta)
        dynamic = linear_predictor(design, np.tile(beta, (3, 1)))
        assert np.allclose(static, dynamic, rtol=1e-15)

    def test_dimension_mismatch(self):
        design = DesignMatrix(("a",), np.ones((3, 1)))
        with pytest.raises(DomainError):
            linear_predictor(design, np.array([1.0, 2.0]))
