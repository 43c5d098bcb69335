"""Tests for the Metropolis/Gibbs machinery and the benchmark fitters."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynpois import mcmc
from dynpois.filtering import FILTER_BLOCK, filter_core, gamma_grid_posterior
from dynpois.kernels import DomainError, GammaParams, RngStream
from dynpois.mcmc import (
    FitError,
    MhConfig,
    PosteriorDraws,
    _coefficient_half_sweeps,
    diagnostics,
    find_mode_and_hessian,
    fit_bpm,
    fit_dm5,
    fit_dm_static,
    log_target_static,
    posterior_summary,
    rw_metropolis,
    tau_full_conditional,
)
from dynpois.model import (
    CountSeries,
    DesignMatrix,
    ModelSpec,
    PriorConfig,
    build_design,
    simulate_cohort,
)
from oracles import NegBinParams, fd_hessian_loop, log_pdf_gamma, log_pmf_negbin


def _series(counts):
    return CountSeries(np.arange(1, len(counts) + 1), list(counts))


def _simulated_static(variant, T=60):
    """A simulated cohort with two covariates, its design for the variant, and priors."""
    rng = RngStream(11)
    cov = {"z1": rng.substream(1).generator.normal(size=T),
           "z2": rng.substream(2).generator.normal(size=T)}
    spec = ModelSpec(variant, ("z1", "z2"))
    design = build_design(cov, spec, T)
    priors = PriorConfig(a0=50.0, b0=2.0)
    true_beta = np.zeros(design.p)
    true_beta[:2] = 0.4, -0.3
    truth = simulate_cohort(priors, 0.7, true_beta, design, T, rng.substream(3))
    return truth.counts, design, priors


class TestLogTargetStatic:
    def test_dm1_reduces_to_gamma_posterior(self):
        # with a flat gamma prior and no covariates, differences of the target
        # equal differences of the filter's total log predictive
        series = _series([3, 1, 4])
        design = DesignMatrix.empty(3)
        priors = PriorConfig(a0=2.0, b0=1.0)
        for g1, g2 in ((0.2, 0.7), (0.4, 0.9)):
            t1 = log_target_static(np.zeros(0), g1, series, design, priors)
            t2 = log_target_static(np.zeros(0), g2, series, design, priors)
            l1 = filter_core(series.counts, np.ones(3), g1, priors.a0, priors.b0).total_log_predictive
            l2 = filter_core(series.counts, np.ones(3), g2, priors.a0, priors.b0).total_log_predictive
            assert (t1 - t2) == pytest.approx(l1 - l2, abs=1e-10)

    def test_ratio_matches_direct_product(self):
        # target ratio equals the ratio of per-month negbin products on a toy
        series = _series([2, 0, 5])
        cov = {"x": np.array([0.5, -0.3, 0.1])}
        design = build_design(cov, ModelSpec("DM2", ("x",)), 3)
        priors = PriorConfig(a0=2.0, b0=1.0)

        def direct_loglik(beta, gamma):
            a, b = priors.a0, priors.b0
            total = 0.0
            for t in range(3):
                m = math.exp(beta[0] * cov["x"][t])
                r = gamma * a
                p = gamma * b / (gamma * b + m)
                total += log_pmf_negbin(series.counts[t], NegBinParams(r, p))
                a, b = gamma * a + series.counts[t], gamma * b + m
            return total

        b1, g1 = np.array([0.4]), 0.6
        b2, g2 = np.array([-0.2]), 0.3
        lhs = log_target_static(b1, g1, series, design, priors) - log_target_static(
            b2, g2, series, design, priors
        )
        prior_term = -0.5 * (b1[0] ** 2 - b2[0] ** 2) / priors.beta_sd**2
        rhs = direct_loglik(b1, g1) - direct_loglik(b2, g2) + prior_term
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_out_of_support(self):
        series = _series([1])
        assert log_target_static(np.zeros(0), 1.5, series, DesignMatrix.empty(1), PriorConfig()) == -np.inf

    def test_underflowing_multipliers_out_of_support(self):
        # eta = -800 < -745: exp(eta) underflows to 0.0, which the filter rejects
        series = _series([2, 0, 5])
        design = DesignMatrix(("x",), np.ones((3, 1)))
        assert log_target_static(np.array([-800.0]), 0.5, series, design, PriorConfig()) == -np.inf

    @given(
        rows=st.lists(
            st.tuples(
                st.lists(
                    st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-800.0, 709.0, 800.0])),
                    min_size=2,
                    max_size=2,
                ),
                st.one_of(
                    st.floats(1e-6, 1.0 - 1e-6),
                    st.sampled_from([0.5, 0.0, 1.0, 1.5, -0.2, math.nan]),
                ),
            ),
            min_size=1,
            max_size=12,
        ),
        gamma_prior=st.sampled_from(["uniform", "beta", "fixed"]),
    )
    # multipliers of e^709 in every month overflow the rate recursion at gamma = 0.9
    @example(rows=[([709.0, 0.0], 0.9), ([0.3, -0.2], 0.6)], gamma_prior="uniform")
    @settings(max_examples=80, deadline=None)
    def test_block_rows_equal_point_calls(self, rows, gamma_prior):
        # off-support rows (gamma outside (0, 1), a zero fixed-prior density,
        # multipliers that underflow or overflow, a likelihood that overflows)
        # score -inf in the block without disturbing the others
        series = _series([3, 0, 7, 2, 11, 4, 1, 0])
        z = np.linspace(-1.0, 1.0, 8)
        design = DesignMatrix(("c", "z"), np.column_stack([np.ones(8), z]))
        priors = PriorConfig(a0=2.0, b0=1.5, gamma_prior=gamma_prior, gamma_fixed_value=0.5)
        betas = np.array([b for b, _ in rows])
        gammas = np.array([g for _, g in rows])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            block = log_target_static(betas, gammas, series, design, priors)
            points = [log_target_static(b, g, series, design, priors) for b, g in zip(betas, gammas)]
        assert block.shape == (len(rows),)
        assert np.array_equal(block, np.array(points))


class TestFindModeAndHessian:
    # targets score one point (d,) or a block (K, d), as find_mode_and_hessian requires

    def test_gaussian_quadratic(self):
        def target(x):
            return -0.5 * (x[..., 0] - 3.0) ** 2 / 4.0

        res = find_mode_and_hessian(target, np.array([0.0]))
        assert res.mode[0] == pytest.approx(3.0, abs=1e-4)
        assert res.covariance[0, 0] == pytest.approx(4.0, abs=1e-4)

    def test_gamma_mode(self):
        def target(x):
            return log_pdf_gamma(x[..., 0], GammaParams(5.0, 2.0))

        res = find_mode_and_hessian(target, np.array([1.0]))
        assert res.mode[0] == pytest.approx(2.0, abs=1e-4)

    def test_poisson_regression_toy_matches_grid_search(self):
        z = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        counts = np.array([1, 2, 3, 6, 9])

        def target(x):
            x = np.asarray(x)
            eta = x[..., :1] + x[..., 1:2] * z
            return np.sum(counts * eta - np.exp(eta), axis=-1)

        res = find_mode_and_hessian(target, np.zeros(2))
        b0_grid = np.linspace(0.0, 2.0, 401)
        b1_grid = np.linspace(0.0, 2.0, 401)
        vals = np.array([[target([b0, b1]) for b1 in b1_grid] for b0 in b0_grid])
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        assert res.mode[0] == pytest.approx(b0_grid[i], abs=0.01)
        assert res.mode[1] == pytest.approx(b1_grid[j], abs=0.01)

    def test_2d_gaussian_covariance(self):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        prec = np.linalg.inv(cov)

        def target(x):
            return -0.5 * np.sum((x @ prec) * x, axis=-1)

        res = find_mode_and_hessian(target, np.array([1.0, -1.0]))
        assert np.allclose(res.covariance, cov, atol=1e-3)

    def test_stencil_point_off_support_raises(self):
        # the mode sits 5e-5 from the support's edge, closer than the Hessian
        # step: the stencil scores -inf, and the NaN inverse it would give
        # passes the Cholesky check, leaving a chain that never accepts
        def target(x):
            return np.where(x[..., 0] > 5e-5, -np.inf, -np.sum(x**2, axis=-1))

        with pytest.raises(FitError, match="Hessian at the mode is not finite"):
            find_mode_and_hessian(target, np.array([-1.0, 0.5]))

    @pytest.mark.parametrize("variant", ["DM2", "DM4"])
    def test_batched_scoring_matches_serial_evaluation(self, variant, monkeypatch):
        # gradient points through the block hook and the one-block stencil give
        # the same mode, covariance and jitter as scipy scoring each gradient
        # point by itself and the per-point Hessian loop
        series, design, priors = _simulated_static(variant)
        target = mcmc._dm_static_target(series, design, priors)
        block_calls = []

        def counted(x):
            block_calls.append(np.ndim(x) == 2)
            return target(x)

        start = np.zeros(design.p + 1)
        batched = find_mode_and_hessian(counted, start)
        assert sum(block_calls) > 1  # gradients and the stencil came as blocks

        minimize = mcmc.optimize.minimize

        def serial_minimize(*args, options, **kwargs):
            options = {k: v for k, v in options.items() if k != "workers"}
            return minimize(*args, options=options, **kwargs)

        monkeypatch.setattr(mcmc.optimize, "minimize", serial_minimize)
        monkeypatch.setattr(
            mcmc, "_fd_hessian", lambda f, x: fd_hessian_loop(f, x, mcmc._HESSIAN_REL_STEP)
        )
        serial = find_mode_and_hessian(target, start)
        assert np.array_equal(batched.mode, serial.mode)
        assert np.array_equal(batched.covariance, serial.covariance)
        assert batched.jitter == serial.jitter

    @pytest.mark.parametrize("variant", ["DM2", "DM4"])
    def test_block_stencil_matches_point_loop(self, variant):
        # DM4's 14 dimensions give 393 stencil points, more than one block;
        # coordinates beyond 1 in magnitude scale their steps
        series, design, priors = _simulated_static(variant)
        target = mcmc._dm_static_target(series, design, priors)
        x = np.random.default_rng(0).normal(0.0, 0.2, design.p + 1)
        x[0], x[-1] = -1.7, 2.3
        n_points = 1 + 2 * len(x) + 2 * len(x) * (len(x) - 1)
        assert (n_points > FILTER_BLOCK) == (variant == "DM4")
        expected = fd_hessian_loop(target, x, mcmc._HESSIAN_REL_STEP)
        assert np.array_equal(mcmc._fd_hessian(target, x), expected)


class TestRwMetropolis:
    def test_flat_target_accepts_everything(self):
        res = rw_metropolis(
            lambda x: 0.0,
            np.zeros(1),
            np.eye(1),
            MhConfig(iterations=500, burn_in=0),
            RngStream(1),
        )
        assert res.acceptance_rate == 1.0

    def test_standard_normal_moments(self):
        res = rw_metropolis(
            lambda x: -0.5 * float(x @ x),
            np.zeros(1),
            np.eye(1) * 5.76,  # 2.4^2, near-optimal scale in 1d
            MhConfig(iterations=100_000, burn_in=5_000),
            RngStream(2),
        )
        draws = res.draws[:, 0]
        # generous bounds: autocorrelation inflates the plain MC standard error
        assert abs(draws.mean()) < 0.05
        assert abs(draws.var() - 1.0) < 0.05

    def test_bitwise_reproducible(self):
        cfg = MhConfig(iterations=300, burn_in=100)
        a = rw_metropolis(lambda x: -0.5 * float(x @ x), np.zeros(2), np.eye(2), cfg, RngStream(3))
        b = rw_metropolis(lambda x: -0.5 * float(x @ x), np.zeros(2), np.eye(2), cfg, RngStream(3))
        assert np.array_equal(a.draws, b.draws)
        assert a.acceptance_rate == b.acceptance_rate

    def test_dead_chain_raises(self):
        def spike(x):
            return 0.0 if np.all(x == 0.0) else -np.inf

        with pytest.raises(FitError):
            rw_metropolis(spike, np.zeros(1), np.eye(1), MhConfig(iterations=200, burn_in=0), RngStream(4))

    def test_burn_in_and_thinning_counts(self):
        cfg = MhConfig(iterations=1000, burn_in=200, thinning=4)
        res = rw_metropolis(lambda x: 0.0, np.zeros(1), np.eye(1), cfg, RngStream(5))
        assert res.draws.shape == (cfg.n_retained, 1)
        assert cfg.n_retained == 200


class TestMhConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            MhConfig(iterations=100, burn_in=100)
        with pytest.raises(DomainError):
            MhConfig(thinning=0)
        with pytest.raises(DomainError):
            MhConfig(proposal_scale=0.0)


class TestFitDmStatic:
    def test_grid_prior_route(self):
        series = _series([5, 3, 8, 2])
        design = DesignMatrix.empty(4)
        priors = PriorConfig(a0=2.0, b0=1.0, gamma_prior="grid", gamma_grid_step=0.05)
        cfg = MhConfig(iterations=4000, burn_in=0)
        draws = fit_dm_static(series, design, ModelSpec("DM1"), priors, cfg, RngStream(6), smooth=True)
        post = gamma_grid_posterior(series, design, priors)
        # empirical frequencies should track the exact grid posterior
        freq = np.array([(draws.gamma == g).mean() for g in post.grid])
        assert np.max(np.abs(freq - post.probs)) < 0.03
        assert draws.acceptance_rate == 1.0
        # backward sampling runs per grid-sampled discount draw
        assert draws.theta.shape == (cfg.n_retained, 4)
        assert np.all(draws.theta[:, :-1] >= draws.gamma[:, None] * draws.theta[:, 1:])

    def test_grid_prior_needs_no_covariates(self):
        cov = {"x": np.ones(3)}
        design = build_design(cov, ModelSpec("DM2", ("x",)), 3)
        priors = PriorConfig(gamma_prior="grid")
        with pytest.raises(DomainError):
            fit_dm_static(_series([1, 2, 3]), design, ModelSpec("DM2", ("x",)), priors,
                          MhConfig(iterations=10, burn_in=0), RngStream(0))

    def test_fixed_gamma_one_reproduces_static_conjugacy(self):
        counts = [4, 1, 6, 3]
        series = _series(counts)
        design = DesignMatrix.empty(4)
        priors = PriorConfig(a0=2.0, b0=1.0, gamma_prior="fixed", gamma_fixed_value=1.0)
        cfg = MhConfig(iterations=20_000, burn_in=0)
        draws = fit_dm_static(series, design, ModelSpec("DM1"), priors, cfg, RngStream(7), smooth=True)
        assert np.all(draws.gamma == 1.0)
        # every smoothed path is constant and marginally Gamma(a0+sum N, b0+T)
        assert np.all(draws.theta[:, 0] == draws.theta[:, -1])
        a_T, b_T = 2.0 + sum(counts), 1.0 + 4
        sample = draws.theta[:, -1]
        se = sample.std(ddof=1) / math.sqrt(len(sample))
        assert abs(sample.mean() - a_T / b_T) < 3 * se

    def test_gamma_logit_jacobian_present(self):
        # exact posterior mean of gamma by quadrature vs the chain's estimate;
        # omitting the logit Jacobian would bias the chain's mean visibly
        series = _series([2, 4, 1])
        design = DesignMatrix.empty(3)
        priors = PriorConfig(a0=2.0, b0=1.0)
        grid = np.linspace(1e-5, 1 - 1e-5, 20_001)
        loglik = np.array(
            [filter_core(series.counts, np.ones(3), g, priors.a0, priors.b0).total_log_predictive for g in grid]
        )
        w = np.exp(loglik - loglik.max())
        exact_mean = np.trapezoid(grid * w, grid) / np.trapezoid(w, grid)
        cfg = MhConfig(iterations=40_000, burn_in=5_000)
        draws = fit_dm_static(series, design, ModelSpec("DM1"), priors, cfg, RngStream(8), smooth=False)
        assert draws.gamma.mean() == pytest.approx(exact_mean, abs=0.01)

    def test_dm2_recovery_single_replicate(self):
        rng = RngStream(42)
        T = 120
        cov = {"z1": rng.substream(1).generator.normal(size=T),
               "z2": rng.substream(2).generator.normal(size=T)}
        spec = ModelSpec("DM2", ("z1", "z2"))
        design = build_design(cov, spec, T)
        priors = PriorConfig(a0=150.0, b0=2.0)
        truth = simulate_cohort(priors, 0.6, np.array([0.6, -0.5]), design, T, rng.substream(3))
        cfg = MhConfig(iterations=4000, burn_in=1000)
        draws = fit_dm_static(truth.counts, design, spec, priors, cfg, rng.substream(4), smooth=False)
        for i, true_val in enumerate((0.6, -0.5)):
            mean, sd = draws.beta[:, i].mean(), draws.beta[:, i].std(ddof=1)
            assert abs(mean - true_val) < 3.5 * sd
        assert abs(draws.gamma.mean() - 0.6) < 3.5 * draws.gamma.std(ddof=1)

    def test_smoothing_paths_respect_ordering(self):
        series = _series([6, 2, 9, 4])
        design = DesignMatrix.empty(4)
        priors = PriorConfig(a0=3.0, b0=1.0)
        cfg = MhConfig(iterations=600, burn_in=100)
        draws = fit_dm_static(series, design, ModelSpec("DM1"), priors, cfg, RngStream(9), smooth=True)
        g = draws.gamma[:, None]
        # the backward increment can underflow to exactly zero when a gamma
        # draw lands very close to one, so equality is tolerated at the boundary
        assert np.all(draws.theta[:, :-1] >= g * draws.theta[:, 1:])
        strict = draws.theta[:, :-1] > g * draws.theta[:, 1:]
        assert strict.mean() > 0.99

    def test_wrong_variant_rejected(self):
        with pytest.raises(DomainError):
            fit_dm_static(_series([1]), DesignMatrix.empty(1), ModelSpec("BPM"), PriorConfig(),
                          MhConfig(iterations=10, burn_in=0), RngStream(0))

    def test_bitwise_deterministic(self):
        series = _series([5, 2, 8, 3, 6])
        design = DesignMatrix.empty(5)
        priors = PriorConfig(a0=4.0, b0=1.0)
        cfg = MhConfig(iterations=400, burn_in=100)
        a = fit_dm_static(series, design, ModelSpec("DM1"), priors, cfg, RngStream(33), smooth=True)
        b = fit_dm_static(series, design, ModelSpec("DM1"), priors, cfg, RngStream(33), smooth=True)
        assert np.array_equal(a.gamma, b.gamma)
        assert np.array_equal(a.theta, b.theta)

    def test_gamma_prior_sensitivity_is_mild(self):
        # uniform and Beta(3,3) priors on the discount factor give close
        # posteriors once the data speaks (qualitative agreement)
        rng = RngStream(71)
        T = 100
        cov = {"z": rng.substream(1).generator.normal(size=T)}
        spec = ModelSpec("DM2", ("z",))
        design = build_design(cov, spec, T)
        base = PriorConfig(a0=150.0, b0=2.0, gamma_prior="uniform")
        truth = simulate_cohort(base, 0.6, np.array([0.5]), design, T, rng.substream(2))
        cfg = MhConfig(iterations=3000, burn_in=1000)
        uni = fit_dm_static(truth.counts, design, spec, base, cfg, rng.substream(3), smooth=False)
        beta33 = PriorConfig(a0=150.0, b0=2.0, gamma_prior="beta", gamma_beta_ab=(3.0, 3.0))
        bet = fit_dm_static(truth.counts, design, spec, beta33, cfg, rng.substream(4), smooth=False)
        assert abs(uni.gamma.mean() - bet.gamma.mean()) < 2.0 * uni.gamma.std(ddof=1)
        assert abs(uni.beta[:, 0].mean() - bet.beta[:, 0].mean()) < 2.0 * uni.beta[:, 0].std(ddof=1)


class TestFitBpm:
    def test_intercept_only_matches_poisson_mle(self):
        counts = [4, 7, 5, 6, 8, 4, 6]
        series = _series(counts)
        design = build_design({}, ModelSpec("BPM"), len(counts))
        priors = PriorConfig(beta_sd=50.0)
        cfg = MhConfig(iterations=20_000, burn_in=4_000)
        draws = fit_bpm(series, design, priors, cfg, RngStream(10))
        assert draws.beta_names == ("intercept",)
        rate = np.exp(draws.beta[:, 0])
        se = rate.std(ddof=1) / math.sqrt(len(rate))
        # flat-ish prior: posterior mean of the rate is near the sample mean
        assert abs(rate.mean() - np.mean(counts)) < max(0.05, 10 * se)

    def test_single_point_matches_quadrature(self):
        series = _series([5])
        design = build_design({}, ModelSpec("BPM"), 1)
        priors = PriorConfig(beta_sd=10.0)
        cfg = MhConfig(iterations=40_000, burn_in=5_000)
        draws = fit_bpm(series, design, priors, cfg, RngStream(11))
        beta_grid = np.linspace(-5, 7, 40_001)
        logpost = 5 * beta_grid - np.exp(beta_grid) - 0.5 * beta_grid**2 / 100.0
        w = np.exp(logpost - logpost.max())
        exact_mean = np.trapezoid(beta_grid * w, beta_grid) / np.trapezoid(w, beta_grid)
        assert draws.beta[:, 0].mean() == pytest.approx(exact_mean, abs=0.02)

    def test_seeded_reproducibility(self):
        series = _series([3, 5, 2])
        design = build_design({}, ModelSpec("BPM"), 3)
        cfg = MhConfig(iterations=500, burn_in=100)
        a = fit_bpm(series, design, PriorConfig(), cfg, RngStream(12))
        b = fit_bpm(series, design, PriorConfig(), cfg, RngStream(12))
        assert np.array_equal(a.beta, b.beta)

    def test_design_without_intercept_rejected(self):
        design = build_design({"x": np.ones(3)}, ModelSpec("DM2", ("x",)), 3)
        with pytest.raises(DomainError):
            fit_bpm(_series([3, 5, 2]), design, PriorConfig(), MhConfig(), RngStream(12))


class TestFitDm5:
    def test_tau_full_conditional_hand_values(self):
        priors = PriorConfig(tau_shape=0.001, tau_rate=0.001)
        shape, rates = tau_full_conditional(np.array([[1.0], [1.5], [1.0]]), priors)
        assert shape == pytest.approx(0.001 + 1.0, rel=1e-15)
        assert rates.shape == (1,)
        assert rates[0] == pytest.approx(0.001 + 0.25, rel=1e-15)

    def test_tau_conditional_constant_path_concentrates_high(self):
        priors = PriorConfig(tau_shape=0.001, tau_rate=0.001)
        shape, rates = tau_full_conditional(np.full((10, 2), 2.5), priors)
        assert rates.tolist() == [priors.tau_rate] * 2  # no squared increments
        assert shape / rates[0] > 1e3

    def test_constant_truth_covered_by_dm5_bands(self):
        rng = RngStream(21)
        T = 60
        cov = {"z": rng.substream(1).generator.normal(size=T)}
        spec2 = ModelSpec("DM2", ("z",))
        design = build_design(cov, spec2, T)
        priors = PriorConfig(a0=120.0, b0=2.0)
        truth = simulate_cohort(priors, 0.7, np.array([0.5]), design, T, rng.substream(2))
        cfg2 = MhConfig(iterations=2000, burn_in=500)
        static = fit_dm_static(truth.counts, design, spec2, priors, cfg2, rng.substream(3), smooth=False)
        static_mean = static.beta[:, 0].mean()
        cfg5 = MhConfig(iterations=1200, burn_in=400)
        dyn = fit_dm5(truth.counts, design, priors, cfg5, rng.substream(4), smooth=False)
        lo = np.percentile(dyn.beta[:, :, 0], 2.5, axis=0)
        hi = np.percentile(dyn.beta[:, :, 0], 97.5, axis=0)
        coverage = np.mean((lo <= static_mean) & (static_mean <= hi))
        assert coverage > 0.9

    @pytest.mark.parametrize("fixed", [0.9, 1.0])
    def test_fixed_gamma_prior_holds_every_draw(self, fixed):
        # the chain must start where the fixed prior puts its mass; started
        # anywhere else, every gamma move scores -inf and none is accepted
        rng = RngStream(24)
        T = 20
        design = build_design({"z": rng.substream(1).generator.normal(size=T)}, ModelSpec("DM2", ("z",)), T)
        priors = PriorConfig(a0=40.0, b0=1.0, gamma_prior="fixed", gamma_fixed_value=fixed)
        truth = simulate_cohort(PriorConfig(a0=40.0, b0=1.0), 0.6, np.array([0.3]), design, T, rng.substream(2))
        draws = fit_dm5(truth.counts, design, priors, MhConfig(iterations=60, burn_in=20), RngStream(25))
        assert draws.gamma.tolist() == [fixed] * 40

    def test_needs_covariates(self):
        with pytest.raises(DomainError):
            fit_dm5(_series([1, 2]), DesignMatrix.empty(2), PriorConfig(),
                    MhConfig(iterations=10, burn_in=0), RngStream(0))

    def test_seeded_reproducibility(self):
        rng = RngStream(22)
        T = 25
        cov = {"z": rng.substream(1).generator.normal(size=T)}
        design = build_design(cov, ModelSpec("DM2", ("z",)), T)
        priors = PriorConfig(a0=40.0, b0=1.0)
        truth = simulate_cohort(priors, 0.6, np.array([0.3]), design, T, rng.substream(2))
        cfg = MhConfig(iterations=200, burn_in=50)
        a = fit_dm5(truth.counts, design, priors, cfg, RngStream(23), smooth=True)
        b = fit_dm5(truth.counts, design, priors, cfg, RngStream(23), smooth=True)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.tau, b.tau)


def _dm5_prop_sd(counts, Z, tau, scale=1.0):
    """The proposal sd ``fit_dm5`` uses for the coefficient path."""
    return scale / np.sqrt((counts[:, None] + 1.0) * Z**2 + 2.0 * tau[None, :])


class _RecordingGenerator:
    """A numpy Generator that logs each draw call and the path as it stood then."""

    def __init__(self, seed, beta):
        self._gen = np.random.default_rng(seed)
        self._beta = beta
        self.calls = []
        self.paths = []

    def standard_normal(self, size):
        self.calls.append(("standard_normal", size))
        self.paths.append(self._beta.copy())
        return self._gen.standard_normal(size)

    def random(self, size):
        self.calls.append(("random", size))
        return self._gen.random(size)


def _single_site_reference(beta, Z, counts, theta, tau, prop_sd, prior_var, gen):
    """The per-month Metropolis arithmetic of a single-site sweep, visiting the
    even months and then the odd ones, with the helper's order of draws."""
    T, p = beta.shape
    n_accept = 0
    for start in (0, 1):
        months = range(start, T, 2)
        steps = gen.standard_normal((len(months), p))
        us = gen.random(len(months))
        for t, step, u in zip(months, steps, us):
            b_cur = beta[t].copy()
            b_prop = b_cur + prop_sd[t] * step
            eta_cur = float(Z[t] @ b_cur)
            eta_prop = float(Z[t] @ b_prop)
            delta = counts[t] * (eta_prop - eta_cur) - theta[t] * (
                math.exp(eta_prop) - math.exp(eta_cur)
            )
            if t == 0:
                delta += -0.5 * float(np.sum(b_prop**2 - b_cur**2)) / prior_var
            else:
                prev = beta[t - 1]
                delta += -0.5 * float(tau @ ((b_prop - prev) ** 2 - (b_cur - prev) ** 2))
            if t < T - 1:
                nxt = beta[t + 1]
                delta += -0.5 * float(tau @ ((nxt - b_prop) ** 2 - (nxt - b_cur) ** 2))
            if math.log(u) < delta:
                beta[t] = b_prop
                n_accept += 1
    return n_accept


class TestCoefficientHalfSweeps:
    def _problem(self, T=7, p=2, seed=31):
        gen = np.random.default_rng(seed)
        Z = gen.normal(size=(T, p))
        counts = gen.poisson(5.0, size=T)
        theta = gen.gamma(5.0, 1.0, size=T)
        tau = np.array([4.0, 9.0])[:p]
        beta = 0.3 * gen.normal(size=(T, p))
        return beta, Z, counts, theta, tau, _dm5_prop_sd(counts, Z, tau)

    def test_half_sweep_leaves_other_parity_alone(self):
        beta, Z, counts, theta, tau, prop_sd = self._problem()
        start = beta.copy()
        gen = _RecordingGenerator(5, beta)
        _coefficient_half_sweeps(beta, Z, counts, theta, tau, prop_sd, 1.0, gen)
        assert gen.calls == [("standard_normal", (4, 2)), ("random", 4),
                             ("standard_normal", (3, 2)), ("random", 3)]
        between = gen.paths[1]  # after the even half, before the odd half
        assert np.array_equal(between[1::2], start[1::2])
        assert np.array_equal(beta[0::2], between[0::2])
        # both halves moved something, so the checks above are not vacuous
        assert not np.array_equal(between[0::2], start[0::2])
        assert not np.array_equal(beta[1::2], between[1::2])

    @pytest.mark.parametrize("T", [1, 2, 7, 8])
    def test_matches_single_site_arithmetic(self, T):
        beta, Z, counts, theta, tau, prop_sd = self._problem(T=T)
        ref = beta.copy()
        for sweep in range(20):
            n = _coefficient_half_sweeps(beta, Z, counts, theta, tau, prop_sd, 2.0,
                                         np.random.default_rng(sweep))
            n_ref = _single_site_reference(ref, Z, counts, theta, tau, prop_sd, 2.0,
                                           np.random.default_rng(sweep))
            assert n == n_ref
            np.testing.assert_allclose(beta, ref, rtol=1e-13, atol=1e-15)

    def test_overflowing_proposal_rejected_silently(self):
        # eta_prop = 1000 * step exceeds 709 for this seed's first normal, so
        # exp(eta_prop) overflows; the old scalar loop raised OverflowError here
        seed = 3
        assert 1000.0 * np.random.default_rng(seed).standard_normal((1, 1))[0, 0] > 709.0
        beta = np.zeros((1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            n = _coefficient_half_sweeps(beta, np.array([[1000.0]]), np.array([2]), np.array([1.0]),
                                         np.array([1.0]), np.array([[1.0]]), 1.0,
                                         np.random.default_rng(seed))
        assert n == 0
        assert np.array_equal(beta, np.zeros((1, 1)))

    def test_moments_match_grid_integration(self):
        # theta and tau fixed, T=3, p=1: the stationary law is the exact
        # conditional of the path, integrated here on a 3-D grid. Tolerance,
        # fixed before running: 4 batch-means standard errors (40 batches), and
        # the chain must mix well enough that one standard error is under 5%
        # of the quantity it bounds.
        Z = np.array([[1.0], [-0.8], [1.2]])
        counts = np.array([6, 9, 3])
        theta = np.array([5.0, 6.0, 4.0])
        tau = np.array([4.0])
        prior_var = 1.0
        prop_sd = _dm5_prop_sd(counts, Z, tau)

        g = np.linspace(-3.6, 2.4, 101)
        b = np.meshgrid(g, g, g, indexing="ij", sparse=True)
        logd = -0.5 * b[0] ** 2 / prior_var - 0.5 * tau[0] * ((b[1] - b[0]) ** 2 + (b[2] - b[1]) ** 2)
        for t in range(3):
            eta = Z[t, 0] * b[t]
            logd = logd + counts[t] * eta - theta[t] * np.exp(eta)
        w = np.exp(logd - logd.max())
        faces = (w[[0, -1]], w[:, [0, -1]], w[:, :, [0, -1]])
        assert max(float(f.max()) for f in faces) < 1e-9  # the grid holds the mass
        w /= w.sum()

        n_iter, n_batch = 20_000, 40
        gen = np.random.default_rng(17)
        beta = np.zeros((3, 1))
        chain = np.empty((n_iter, 3))
        for i in range(n_iter):
            _coefficient_half_sweeps(beta, Z, counts, theta, tau, prop_sd, prior_var, gen)
            chain[i] = beta[:, 0]

        for t in range(3):
            mean = float(np.sum(w * b[t]))
            var = float(np.sum(w * (b[t] - mean) ** 2))
            x = chain[:, t]
            for stat, exact, scale in ((x, mean, math.sqrt(var)), ((x - mean) ** 2, var, var)):
                batches = stat.reshape(n_batch, -1).mean(axis=1)
                se = batches.std(ddof=1) / math.sqrt(n_batch)
                assert se < 0.05 * scale
                assert abs(stat.mean() - exact) < 4.0 * se


class TestDiagnosticsAndSummary:
    def _draws(self, matrix, names=("x",)):
        return PosteriorDraws(
            beta=matrix, gamma=None, acceptance_rate=0.5, beta_names=names, variant="BPM"
        )

    def test_iid_lag1_near_zero(self):
        x = np.random.default_rng(0).normal(size=(20_000, 1))
        diag = diagnostics(self._draws(x))
        assert abs(diag.autocorr[0, 1]) < 0.02
        assert diag.autocorr[0, 0] == 1.0

    def test_constant_chain_minimal_ess(self):
        x = np.ones((500, 1))
        diag = diagnostics(self._draws(x))
        assert diag.ess[0] == 1.0

    def test_ar1_ess_ratio(self):
        gen = np.random.default_rng(1)
        n, phi = 200_000, 0.5
        x = np.empty(n)
        x[0] = 0.0
        noise = gen.normal(size=n)
        for t in range(1, n):
            x[t] = phi * x[t - 1] + noise[t]
        diag = diagnostics(self._draws(x.reshape(-1, 1)))
        ratio = diag.ess[0] / n
        assert ratio == pytest.approx((1 - phi) / (1 + phi), rel=0.2)

    def test_ess_bounded_by_draws(self):
        x = np.random.default_rng(2).normal(size=(1000, 2))
        diag = diagnostics(self._draws(x, names=("a", "b")))
        assert np.all(diag.ess <= 1000)

    def test_summary_schema(self):
        x = np.random.default_rng(3).normal(size=(100, 1))
        rows = posterior_summary(self._draws(x))
        assert list(rows[0].keys()) == ["parameter", "q25", "mean", "q75", "sd"]
        assert rows[0]["parameter"] == "beta_x"
        assert rows[0]["q25"] <= rows[0]["q75"]

    def test_with_gamma_and_tau(self):
        draws = PosteriorDraws(
            beta=np.zeros((50, 3, 1)),
            gamma=np.full(50, 0.5),
            acceptance_rate=0.4,
            beta_names=("z",),
            tau=np.ones((50, 1)),
            variant="DM5",
        )
        names = [r["parameter"] for r in posterior_summary(draws)]
        assert names == ["gamma", "tau_z"]

