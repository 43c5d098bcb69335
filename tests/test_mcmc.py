"""Tests for the Metropolis/Gibbs machinery and the benchmark fitters."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynpois import filtering, mcmc
from dynpois.filtering import FILTER_BLOCK, filter_core, gamma_grid_posterior
from dynpois.kernels import DomainError, RngStream, betaln, expit
from dynpois.mcmc import (
    FitError,
    MhConfig,
    MhResult,
    ModeHessian,
    PosteriorDraws,
    _coefficient_half_sweeps,
    _log_prior_gamma,
    _logit_jacobian,
    diagnostics,
    find_mode_and_hessian,
    fit_bpm,
    fit_dm5,
    fit_dm_static,
    log_target_bpm,
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
    linear_predictor,
    log_linear_predictor,
    simulate_cohort,
)
from oracles import GammaState, NegBinParams, fd_derivatives_loop, log_pdf_gamma, log_pmf_negbin


def _series(counts):
    return CountSeries(list(counts))


def _simulated_static(variant, T=60):
    """A simulated cohort with two covariates, its design for the variant (DM1
    takes neither), and priors."""
    rng = RngStream(11)
    cov = {"z1": rng.substream(1).generator.normal(size=T),
           "z2": rng.substream(2).generator.normal(size=T)}
    columns = () if variant == "DM1" else ("z1", "z2")
    design = build_design(cov, ModelSpec(variant, columns), T)
    priors = PriorConfig(a0=50.0, b0=2.0)
    true_beta = np.zeros(design.p)
    true_beta[: len(columns)] = (0.4, -0.3)[: len(columns)]
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
            t1 = log_target_static(np.zeros((1, 0)), [g1], series, design, priors)[0]
            t2 = log_target_static(np.zeros((1, 0)), [g2], series, design, priors)[0]
            l1 = filter_core(series.counts, np.ones((1, 3)), [g1], priors.a0, priors.b0).total_log_predictive[0]
            l2 = filter_core(series.counts, np.ones((1, 3)), [g2], priors.a0, priors.b0).total_log_predictive[0]
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
        lhs = log_target_static(b1[None], [g1], series, design, priors)[0] - log_target_static(
            b2[None], [g2], series, design, priors
        )[0]
        prior_term = -0.5 * (b1[0] ** 2 - b2[0] ** 2) / priors.beta_sd**2
        rhs = direct_loglik(b1, g1) - direct_loglik(b2, g2) + prior_term
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_out_of_support(self):
        series = _series([1])
        assert log_target_static(np.zeros((1, 0)), [1.5], series, DesignMatrix.empty(1), PriorConfig())[0] == -np.inf

    def test_underflowing_multipliers_out_of_support(self):
        # eta = -800 < -745: exp(eta) underflows to 0.0, which the filter rejects
        series = _series([2, 0, 5])
        design = DesignMatrix(("x",), np.ones((3, 1)))
        assert log_target_static(np.array([[-800.0]]), [0.5], series, design, PriorConfig())[0] == -np.inf

    def test_block_all_off_support(self):
        # no row reaches the filter, which then runs on an empty stack
        series = _series([2, 0, 5])
        design = DesignMatrix(("x",), np.ones((3, 1)))
        log_post = log_target_static(
            np.array([[-800.0], [0.1], [0.2]]), [0.5, 1.5, math.nan], series, design, PriorConfig()
        )
        assert np.array_equal(log_post, np.full(3, -np.inf))

    def test_rows_hold_the_filtered_points_and_minus_inf_elsewhere(self):
        # off the support: gamma 1.5, multipliers that underflow, a NaN gamma;
        # the out-array starts as NaN so an unwritten row would show
        series = _series([3, 0, 7, 2])
        design = DesignMatrix(("x",), np.linspace(-1.0, 1.0, 4)[:, None])
        priors = PriorConfig(a0=2.0, b0=1.5)
        beta = np.array([[0.3], [0.1], [-800.0], [0.2], [-0.4]])
        gamma = np.array([0.6, 1.5, 0.5, math.nan, 0.9])
        rows = np.full((5, 4), math.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            log_post = log_target_static(beta, gamma, series, design, priors, rows)
            plain = log_target_static(beta, gamma, series, design, priors)
        live = [0, 4]
        traj = filter_core(series.counts, linear_predictor(design, beta[live]), gamma[live], priors.a0, priors.b0)
        assert np.array_equal(rows[live], traj.log_predictive)
        assert np.array_equal(rows[[1, 2, 3]], np.full((3, 4), -np.inf))
        assert np.array_equal(log_post, plain)

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
            points = [log_target_static(b[None], [g], series, design, priors) for b, g in zip(betas, gammas)]
        assert block.shape == (len(rows),)
        assert np.array_equal(block, np.concatenate(points))


class TestStackedGammaTerms:
    """The gamma prior and logit Jacobian of a stack against per-row ``math`` references."""

    @staticmethod
    def _log_prior_reference(g, priors):
        if priors.gamma_prior == "fixed":
            return 0.0 if g == priors.gamma_fixed_value else -math.inf
        if not (0.0 < g < 1.0):
            return -math.inf
        if priors.gamma_prior == "uniform":
            return 0.0
        a, b = priors.gamma_beta_ab
        return (a - 1.0) * math.log(g) + (b - 1.0) * math.log1p(-g) - betaln(a, b)

    @pytest.mark.pinned_dispatch
    @given(
        gammas=st.lists(
            st.one_of(
                st.floats(0.0, 1.0),
                # logits this large give discount factors that round to 0 or 1
                st.floats(-800.0, 800.0).map(lambda x: float(expit(x))),
                st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2.0**-53, 1.5, -0.2, math.nan]),
            ),
            min_size=1,
            max_size=40,
        ),
        prior=st.sampled_from(
            [("uniform", (2.0, 2.0), 0.5), ("beta", (3.0, 1.5), 0.5), ("beta", (0.5, 0.5), 0.5),
             ("fixed", (2.0, 2.0), 0.5), ("fixed", (2.0, 2.0), 1.0)]
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_scalar_math_reference(self, gammas, prior):
        name, ab, fixed_value = prior
        priors = PriorConfig(gamma_prior=name, gamma_beta_ab=ab, gamma_fixed_value=fixed_value)
        g = np.array(gammas)
        jacobian = [math.log(v) + math.log1p(-v) if 0.0 < v < 1.0 else -math.inf for v in gammas]
        assert np.array_equal(_logit_jacobian(g), np.array(jacobian))
        reference = [self._log_prior_reference(v, priors) for v in gammas]
        assert np.array_equal(_log_prior_gamma(g, priors), np.array(reference))


class TestDmStaticTarget:
    """The sampled target's one-row blocks against ``log_target_static`` and the block path."""

    @given(
        p=st.sampled_from([0, 2]),
        rows=st.lists(
            st.tuples(
                st.lists(
                    st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-800.0, 709.0, math.nan])),
                    min_size=2,
                    max_size=2,
                ),
                st.one_of(st.floats(-6.0, 6.0), st.sampled_from([-800.0, 800.0, 0.0, math.nan])),
            ),
            min_size=1,
            max_size=8,
        ),
        gamma_prior=st.sampled_from(["uniform", "beta", "fixed"]),
        fixed_value=st.sampled_from([0.5, 1.0]),
    )
    # multipliers of e^709 in every month overflow the rate recursion
    @example(p=2, rows=[([709.0, 0.0], 2.2), ([0.3, -0.2], 0.4)], gamma_prior="uniform", fixed_value=0.5)
    @example(p=2, rows=[([709.0, 0.0], 0.0)], gamma_prior="fixed", fixed_value=1.0)
    @settings(max_examples=80, deadline=None)
    def test_point_equals_log_target_static_and_block_row(self, p, rows, gamma_prior, fixed_value):
        # off-support points (logits of +-800, multipliers that underflow or
        # overflow, NaN anywhere) score -inf on all three routes
        series = _series([3, 0, 7, 2, 11, 4, 1, 0])
        z = np.linspace(-1.0, 1.0, 8)
        design = DesignMatrix(("c", "z")[:p], np.column_stack([np.ones(8), z])[:, :p])
        priors = PriorConfig(
            a0=2.0, b0=1.5, gamma_prior=gamma_prior, gamma_fixed_value=fixed_value
        )
        target = mcmc._dm_static_target(series, design, priors)
        if gamma_prior == "fixed":
            points = np.array([beta[:p] for beta, _ in rows])
        else:
            points = np.array([[*beta[:p], x] for beta, x in rows])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            point_values = np.concatenate([target(x[None]) for x in points])
            block = target(points)
            expected = []
            for x in points:
                if gamma_prior == "fixed":
                    expected.append(log_target_static(x[None], [fixed_value], series, design, priors)[0])
                else:
                    g = expit(x[p:])
                    expected.append(log_target_static(x[None, :p], g, series, design, priors)[0] + _logit_jacobian(g)[0])
        assert block.shape == (len(points),)
        assert np.array_equal(point_values, np.array(expected))
        assert np.array_equal(point_values, block)


class TestFindModeAndHessian:
    # each target maps one point (d,) to its value, gradient and Hessian, as
    # find_mode_and_hessian requires

    def test_gaussian_quadratic(self):
        def derivatives(x):
            return -0.5 * (x[0] - 3.0) ** 2 / 4.0, -(x - 3.0) / 4.0, np.array([[-0.25]])

        res = find_mode_and_hessian(derivatives, np.array([0.0]))
        # the stop rule leaves the mode within sqrt(_NEWTON_TOL) posterior sds
        assert res.mode[0] == pytest.approx(3.0, abs=1e-5)
        assert res.covariance[0, 0] == pytest.approx(4.0, rel=1e-12)

    def test_gamma_mode(self):
        # the Gamma(5, 2) density has its mode at (5 - 1) / 2 and is -inf at x <= 0
        def derivatives(x):
            value = log_pdf_gamma(x[0], GammaState(5.0, 2.0))
            return value, 4.0 / x - 2.0, np.array([[-4.0 / x[0] ** 2]])

        res = find_mode_and_hessian(derivatives, np.array([1.0]))
        assert res.mode[0] == pytest.approx(2.0, abs=1e-5)
        assert res.covariance[0, 0] == pytest.approx(1.0, rel=1e-5)

    def test_poisson_regression_toy_matches_grid_search(self):
        z = np.column_stack([np.ones(5), [-1.0, -0.5, 0.0, 0.5, 1.0]])
        counts = np.array([1, 2, 3, 6, 9])

        def value(x):
            eta = np.asarray(x) @ z.T
            return np.sum(counts * eta - np.exp(eta), axis=-1)

        def derivatives(x):
            mu = np.exp(z @ x)
            return value(x), z.T @ (counts - mu), -(z.T * mu) @ z

        res = find_mode_and_hessian(derivatives, np.zeros(2))
        b0_grid = np.linspace(0.0, 2.0, 401)
        b1_grid = np.linspace(0.0, 2.0, 401)
        vals = value(np.stack(np.meshgrid(b0_grid, b1_grid, indexing="ij"), axis=-1))
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        assert res.mode[0] == pytest.approx(b0_grid[i], abs=0.01)
        assert res.mode[1] == pytest.approx(b1_grid[j], abs=0.01)

    def test_2d_gaussian_covariance(self):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        prec = np.linalg.inv(cov)

        def derivatives(x):
            return -0.5 * x @ prec @ x, -prec @ x, -prec

        res = find_mode_and_hessian(derivatives, np.array([1.0, -1.0]))
        assert np.allclose(res.mode, 0.0, atol=1e-5)
        assert np.allclose(res.covariance, cov, rtol=1e-12)

    def test_non_finite_hessian_raises(self):
        # a NaN Hessian passes the Cholesky check of the damped system and
        # would leave a chain that never accepts
        def derivatives(x):
            return -np.sum(x**2), -2.0 * x, np.full((2, 2), np.nan)

        with pytest.raises(FitError, match="Hessian of the log target is not finite"):
            find_mode_and_hessian(derivatives, np.array([-1.0, 0.5]))

    def test_unbounded_target_raises(self):
        # every step raises the target, so the decrement never falls below the tolerance
        def derivatives(x):
            return np.sum(x), np.ones(2), np.zeros((2, 2))

        with pytest.raises(FitError, match="did not converge"):
            find_mode_and_hessian(derivatives, np.array([0.0, 1.0]))

    def test_start_off_support_raises(self):
        def derivatives(x):
            return (-np.inf if x[0] > 0.0 else -np.sum(x**2)), -2.0 * x, -2.0 * np.eye(2)

        with pytest.raises(FitError, match="not finite at the start point"):
            find_mode_and_hessian(derivatives, np.array([1.0, 0.0]))

    def test_steps_off_the_support_are_retried(self):
        # from x = 10 the full Newton step on the Gamma(5, 2) log density lands
        # at x = -30, off the support: it scores -inf and is retried damped
        calls = []

        def derivatives(x):
            calls.append(float(x[0]))
            value = log_pdf_gamma(x[0], GammaState(5.0, 2.0))
            return value, 4.0 / x - 2.0, np.array([[-4.0 / x[0] ** 2]])

        with np.errstate(divide="ignore", invalid="ignore"):
            res = find_mode_and_hessian(derivatives, np.array([10.0]))
        assert min(calls) < 0.0
        assert res.mode[0] == pytest.approx(2.0, abs=1e-5)

    @pytest.mark.parametrize("variant", ["DM2", "DM4", "BPM"])
    def test_gradient_vanishes_at_the_mode(self, variant):
        # the exact gradient at the mode, in posterior sd units; the
        # central-difference gradient of the block target, an independent
        # check, carries its own h^2 truncation error, about 2e-6 sd on BPM
        series, design, priors = _simulated_static(variant)
        if variant == "BPM":
            def target(b):
                return log_target_bpm(b, series, design, priors)

            derivatives = mcmc._bpm_derivatives(series, design, priors)
            start = np.zeros(design.p)
        else:
            target = mcmc._dm_static_target(series, design, priors)
            derivatives = mcmc._dm_static_derivatives(series, design, priors)
            start = np.zeros(design.p + 1)
        res = find_mode_and_hessian(derivatives, start)
        sd = np.sqrt(np.diag(res.covariance))
        assert np.max(np.abs(derivatives(res.mode)[1]) * sd) < 1e-6
        _, fd_grad, _ = fd_derivatives_loop(target, res.mode, 1e-4)
        assert np.max(np.abs(fd_grad) * sd) < 1e-5

    @pytest.mark.parametrize("variant", ["DM2", "DM4"])
    def test_mode_search_scores_no_block(self, variant, monkeypatch):
        # one derivative pass per iterate, each on one point, and no call of
        # the block target or the filter
        series, design, priors = _simulated_static(variant)
        derivatives = mcmc._dm_static_derivatives(series, design, priors)
        points = []

        def counted(x):
            points.append(np.shape(x))
            return derivatives(x)

        monkeypatch.setattr(mcmc, "log_target_static", None)
        monkeypatch.setattr(mcmc, "filter_core", None)
        monkeypatch.setattr(filtering, "filter_core", None)
        res = find_mode_and_hessian(counted, np.zeros(design.p + 1))
        assert points and set(points) == {(design.p + 1,)}
        assert res.mode.shape == (design.p + 1,)


class TestExactDerivatives:
    # The value, gradient and Hessian of each static target against the
    # central-difference oracle of its block target: the gradient at steps
    # h = 1e-4 max(1, |x_i|), the Hessian at h = 1e-3 max(1, |x_i|). With
    # c_i = sqrt(|H_ii|) + 1 the scale of coordinate i, the stated bounds are
    # 1e-12 |f| for the value (the same terms summed in another order),
    # 1e-5 c_i for gradient entry i and 1e-4 c_i c_j for Hessian entry (i, j).
    # The differences' h^2 truncation and their roundoff, about eps times the
    # summed size of the lgamma terms over h or h^2, read up to 1.2e-6 c_i and
    # 4.3e-6 c_i c_j over 30 points of each case below.
    PRIORS = {
        "uniform": {},
        "beta": {"gamma_prior": "beta", "gamma_beta_ab": (3.0, 2.0)},
        "fixed 0.8": {"gamma_prior": "fixed", "gamma_fixed_value": 0.8},
        "fixed 1.0": {"gamma_prior": "fixed", "gamma_fixed_value": 1.0},
    }

    @staticmethod
    def _check(target, derivatives, x):
        value, grad, hess = derivatives(x)
        f0, fd_grad, _ = fd_derivatives_loop(target, x, 1e-4)
        _, _, fd_hess = fd_derivatives_loop(target, x, 1e-3)
        c = np.sqrt(np.abs(np.diag(hess))) + 1.0
        assert abs(value - f0) <= 1e-12 * abs(f0)
        assert np.all(np.abs(grad - fd_grad) <= 1e-5 * c)
        assert np.all(np.abs(hess - fd_hess) <= 1e-4 * np.outer(c, c))
        assert np.array_equal(hess, hess.T)

    @pytest.mark.parametrize("prior", PRIORS)
    @pytest.mark.parametrize("variant", ["DM1", "DM2", "DM3", "DM4"])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_static_target_matches_central_differences(self, variant, prior, seed):
        series, design, _ = _simulated_static(variant)
        priors = PriorConfig(a0=50.0, b0=2.0, **self.PRIORS[prior])
        d = design.p + (priors.gamma_prior != "fixed")
        gen = np.random.default_rng(seed)
        x = gen.normal(0.0, 0.3, d)
        if d > design.p:
            x[-1] = gen.uniform(-2.0, 3.0)  # gamma from 0.12 to 0.95
        target = mcmc._dm_static_target(series, design, priors)
        self._check(target, mcmc._dm_static_derivatives(series, design, priors), x)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_bpm_target_matches_central_differences(self, seed):
        series, design, priors = _simulated_static("BPM")
        x = np.random.default_rng(seed).normal(0.0, 0.3, design.p)
        x[0] += 3.0  # the intercept near the log of the mean count

        def target(b):
            return log_target_bpm(b, series, design, priors)

        self._check(target, mcmc._bpm_derivatives(series, design, priors), x)

    def test_points_off_the_support_score_minus_infinity(self):
        # gamma that rounds to 1 under a free prior, and multipliers that overflow
        series, design, priors = _simulated_static("DM2")
        derivatives = mcmc._dm_static_derivatives(series, design, priors)
        assert derivatives(np.array([0.0, 0.0, 40.0]))[0] == -np.inf
        assert derivatives(np.array([800.0, 0.0, 0.0]))[0] == -np.inf
        bpm = mcmc._bpm_derivatives(*_simulated_static("BPM"))
        assert bpm(np.array([800.0, 0.0, 0.0]))[0] == -np.inf


class TestRwMetropolis:
    def test_flat_target_accepts_everything(self):
        res = rw_metropolis(
            lambda x: np.zeros(len(x)),
            np.zeros(1),
            np.eye(1),
            MhConfig(iterations=500, burn_in=0),
            RngStream(1),
        )
        assert res.acceptance_rate == 1.0

    def test_standard_normal_moments(self):
        res = rw_metropolis(
            _standard_normal,
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
        a = rw_metropolis(_standard_normal, np.zeros(2), np.eye(2), cfg, RngStream(3))
        b = rw_metropolis(_standard_normal, np.zeros(2), np.eye(2), cfg, RngStream(3))
        assert np.array_equal(a.draws, b.draws)
        assert a.acceptance_rate == b.acceptance_rate

    def test_dead_chain_raises(self):
        def spike(x):
            return np.where(np.all(x == 0.0, axis=-1), 0.0, -np.inf)

        with pytest.raises(FitError):
            rw_metropolis(spike, np.zeros(1), np.eye(1), MhConfig(iterations=200, burn_in=0), RngStream(4))

    def test_burn_in_and_thinning_counts(self):
        cfg = MhConfig(iterations=1000, burn_in=200, thinning=4)
        res = rw_metropolis(lambda x: np.zeros(len(x)), np.zeros(1), np.eye(1), cfg, RngStream(5))
        assert res.draws.shape == (cfg.n_retained, 1)
        assert cfg.n_retained == 200


def _standard_normal(x):
    return -0.5 * np.sum(x**2, axis=-1)


def _standard_normal_derivatives(x):
    return -0.5 * x @ x, -x, -np.eye(len(x))


class TestIndependenceChain:
    # a Laplace fit that misses the target's mode and scale, so the weights matter
    LAPLACE = ModeHessian(np.array([0.3, -0.2]), np.diag([0.6, 1.5]))

    def test_standard_normal_moments(self):
        cfg = MhConfig(iterations=40_000, burn_in=1_000)
        res = mcmc._independence_chain(_standard_normal, self.LAPLACE, cfg, RngStream(2))
        assert res.sampler == "independence"
        assert res.draws.shape == (cfg.n_retained, 2)
        assert np.all(np.abs(res.draws.mean(axis=0)) < 0.03)
        assert np.all(np.abs(res.draws.var(axis=0) - 1.0) < 0.05)

    def test_bitwise_reproducible(self):
        cfg = MhConfig(iterations=700, burn_in=100, thinning=3)
        a = mcmc._independence_chain(_standard_normal, self.LAPLACE, cfg, RngStream(3))
        b = mcmc._independence_chain(_standard_normal, self.LAPLACE, cfg, RngStream(3))
        assert np.array_equal(a.draws, b.draws)
        assert a.acceptance_rate == b.acceptance_rate
        assert a.draws.shape == (cfg.n_retained, 2)

    def test_log_kernel_is_the_t_density_up_to_a_constant(self):
        from scipy.stats import multivariate_t

        gen = np.random.default_rng(8)
        mode = gen.normal(size=4)
        a = gen.normal(size=(4, 4))
        cov = a @ a.T + 0.5 * np.eye(4)
        root = np.linalg.cholesky(cov)
        x = mode + gen.standard_t(3, size=(500, 4))
        diff = mcmc._t_log_kernel(x, mode, root) - multivariate_t(mode, cov, df=mcmc._IMH_DF).logpdf(x)
        assert np.ptp(diff) < 1e-9

    def test_dead_chain_raises(self):
        def spike(x):
            return np.where(np.all(x == 0.0, axis=-1), 0.0, -np.inf)

        with pytest.raises(FitError, match="accepted no proposals"):
            mcmc._independence_chain(spike, ModeHessian(np.zeros(1), np.eye(1)),
                                     MhConfig(iterations=50, burn_in=0), RngStream(4))

    def test_mode_is_scored_with_the_proposals(self):
        # the mode and 300 proposals are 301 rows, two FILTER_BLOCK blocks
        blocks = []

        def counting(x):
            blocks.append(len(x))
            return _standard_normal(x)

        res = mcmc._independence_chain(counting, self.LAPLACE, MhConfig(iterations=300, burn_in=0), RngStream(5))
        assert blocks == [FILTER_BLOCK, 301 - FILTER_BLOCK]
        assert res.draws.shape == (300, 2)

    def test_kept_rows_are_those_of_the_held_points(self):
        # each block writes its slice of one buffer; the retained draws get the
        # rows of the points they hold, and the draws do not move
        def with_rows(x, rows=None):
            if rows is not None:
                rows[:] = x[:, :1] * np.arange(1.0, 4.0)
            return _standard_normal(x)

        cfg = MhConfig(iterations=700, burn_in=100, thinning=3)
        res = mcmc._independence_chain(with_rows, self.LAPLACE, cfg, RngStream(3), months=3)
        plain = mcmc._independence_chain(with_rows, self.LAPLACE, cfg, RngStream(3))
        assert plain.log_predictive is None
        assert np.array_equal(res.draws, plain.draws)
        assert np.array_equal(res.log_predictive, res.draws[:, :1] * np.arange(1.0, 4.0))

    @pytest.mark.parametrize("rw_rate", [0.05, 0.3, 0.7])
    @pytest.mark.parametrize("imh_rate", [0.05, None])
    def test_low_or_dead_independence_chain_runs_one_random_walk_chain(self, monkeypatch, imh_rate, rw_rate):
        def independence(log_target, mh, config, rng, months=0):
            if imh_rate is None:
                raise FitError("the independence chain accepted no proposals")
            return MhResult(np.zeros((config.n_retained, 1)), imh_rate, sampler="independence")

        runs = []

        def chain(log_target, init, proposal_covariance, config, rng):
            runs.append((float(proposal_covariance[0, 0]), rng.generator.random()))
            return MhResult(np.ones((config.n_retained, 1)), rw_rate)

        monkeypatch.setattr(mcmc, "find_mode_and_hessian", lambda f, x: ModeHessian(x, np.eye(1)))
        monkeypatch.setattr(mcmc, "_independence_chain", independence)
        monkeypatch.setattr(mcmc, "rw_metropolis", chain)
        rng = RngStream(5)
        res = mcmc._mode_then_chain(None, None, np.ones(1), MhConfig(iterations=10, burn_in=0, proposal_scale=0.4), rng)
        # one chain, at 2.38^2 / d x proposal_scale x the Laplace covariance
        # (d = 1), on substream 0, kept whatever its acceptance
        assert runs == [(2.38**2 * 0.4, rng.substream(0).generator.random())]
        assert res.sampler == "random_walk" and res.acceptance_rate == rw_rate

    def test_dead_independence_and_random_walk_chains_raise(self):
        # proposals a million posterior sds wide: neither chain accepts one
        cfg = MhConfig(iterations=50, burn_in=0, proposal_scale=1e12)
        # the random-walk chain's message, not the independence chain's
        with pytest.raises(FitError, match="rescale the proposal covariance"):
            mcmc._mode_then_chain(_standard_normal_derivatives, _standard_normal, np.ones(1), cfg, RngStream(7))

    def test_independence_chain_above_the_floor_is_kept(self, monkeypatch):
        monkeypatch.setattr(mcmc, "rw_metropolis", None)  # never reached
        res = mcmc._mode_then_chain(_standard_normal_derivatives, _standard_normal, np.ones(2),
                                    MhConfig(iterations=300, burn_in=0), RngStream(6))
        assert res.sampler == "independence"
        assert res.acceptance_rate >= mcmc._ACCEPTANCE_FLOOR

    def test_fallback_on_a_dm2_target_reproduces_the_random_walk_chain(self, monkeypatch):
        # a fit that falls back runs the random-walk chain on the substream it
        # always used, so its draws are that chain's bit for bit
        series, design, priors = _simulated_static("DM2")
        spec, p = ModelSpec("DM2", ("z1", "z2")), design.p
        cfg = MhConfig(iterations=1500, burn_in=500)
        monkeypatch.setattr(mcmc, "_independence_chain", lambda f, mh, config, rng, months=0: MhResult(
            np.zeros((config.n_retained, p + 1)), 0.05, sampler="independence"))
        draws = fit_dm_static(series, design, spec, priors, cfg, RngStream(21), smooth=False)

        target = mcmc._dm_static_target(series, design, priors)
        mh = find_mode_and_hessian(mcmc._dm_static_derivatives(series, design, priors), np.zeros(p + 1))
        cov = mh.covariance * (2.38**2 / (p + 1))
        ref = rw_metropolis(target, mh.mode, cov, cfg, RngStream(21).substream(0).substream(0))
        assert draws.sampler == "random_walk"
        assert draws.acceptance_rate == ref.acceptance_rate
        assert np.array_equal(draws.beta, ref.draws[:, :p])
        assert np.array_equal(draws.gamma, expit(ref.draws[:, p]))

    @pytest.mark.parametrize("variant", ["DM1", "DM4"])
    def test_fallback_acceptance_is_moderate_in_one_and_in_fourteen_dimensions(self, monkeypatch, variant):
        # the random walk's 2.38^2 / d scaling keeps its acceptance near the
        # normal-target optimum (0.44 for d = 1, about 0.25 for d = 14); at
        # proposal_scale x the Laplace covariance alone, DM1 accepted about
        # 0.7 and DM4 about 0.1
        series, design, priors = _simulated_static(variant)
        spec = ModelSpec(variant, design.column_names[:2])
        monkeypatch.setattr(mcmc, "_independence_chain", lambda f, mh, config, rng, months=0: MhResult(
            np.zeros((config.n_retained, design.p + 1)), 0.05, sampler="independence"))
        cfg = MhConfig(iterations=2000, burn_in=500)
        draws = fit_dm_static(series, design, spec, priors, cfg, RngStream(22), smooth=False)
        assert draws.sampler == "random_walk"
        assert 0.15 <= draws.acceptance_rate <= 0.6

    def test_dm1_posterior_matches_the_exact_grid_posterior(self):
        # Under a uniform gamma prior the DM1 posterior is known up to its
        # normalizer; on a grid of step 1e-4 its mean and quantiles are exact
        # to well within the tolerances. The tolerances assume an ESS of at
        # least N/2 = 9,500 draws: the mean's Monte Carlo sd is then at most
        # 0.011 posterior sd, and a 2.5% or 97.5% quantile's about 0.03 sd
        # (normal shape). Both tolerances are about 5 of those sds.
        T = 60
        design = DesignMatrix.empty(T)
        priors = PriorConfig(a0=50.0, b0=2.0)
        series = simulate_cohort(priors, 0.7, np.zeros(0), design, T, RngStream(11).substream(3)).counts
        cfg = MhConfig(iterations=20_000, burn_in=1_000)
        draws = fit_dm_static(series, design, ModelSpec("DM1"), priors, cfg, RngStream(0), smooth=False)
        assert draws.sampler == "independence"
        grid_priors = PriorConfig(a0=priors.a0, b0=priors.b0, gamma_prior="grid", gamma_grid_step=1e-4)
        post = gamma_grid_posterior(series, design, grid_priors)
        mean = post.probs @ post.grid
        sd = math.sqrt(post.probs @ (post.grid - mean) ** 2)
        assert abs(draws.gamma.mean() - mean) < 0.05 * sd
        cdf = np.cumsum(post.probs)
        for q in (0.025, 0.975):
            exact = post.grid[np.searchsorted(cdf, q)]
            assert abs(np.quantile(draws.gamma, q) - exact) < 0.15 * sd + 1e-4


class TestLogTargetBpm:
    @given(
        rows=st.lists(
            st.lists(st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-800.0, 800.0])), min_size=3, max_size=3),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=60, deadline=None)
    # unpinned, as the column sum holds on any CPU; a BLAS product of the block
    # with the design gave these two rows other bits than their one-row calls
    @example(rows=[[0.07, 2.7, -2.14], [2.69, -1.13, -0.46]])
    def test_block_rows_equal_point_calls(self, rows):
        series, design, priors = _simulated_static("BPM", T=30)
        betas = np.array(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            block = log_target_bpm(betas, series, design, priors)
            points = np.array([log_target_bpm(b[None], series, design, priors)[0] for b in betas])
        assert block.shape == (len(rows),)
        assert np.array_equal(block, points)


    def test_rows_hold_each_points_log_pmfs(self):
        series, design, priors = _simulated_static("BPM", T=30)
        beta = np.random.default_rng(5).normal(0.0, 0.3, (4, design.p))
        rows = np.full((4, 30), math.nan)
        log_post = log_target_bpm(beta, series, design, priors, rows)
        assert np.array_equal(rows, mcmc.bpm_log_pmf(log_linear_predictor(design, beta), series.counts))
        assert np.array_equal(log_post, log_target_bpm(beta, series, design, priors))


class TestMhConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            MhConfig(iterations=100, burn_in=100)
        with pytest.raises(DomainError):
            MhConfig(thinning=0)
        with pytest.raises(DomainError):
            MhConfig(proposal_scale=0.0)


@pytest.mark.parametrize("build", [
    lambda: MhConfig(proposal_scale=math.nan),
    lambda: MhConfig(proposal_scale=math.inf),
    lambda: PriorConfig(a0=math.inf),
    lambda: PriorConfig(beta_sd=math.inf),
    lambda: PriorConfig(gamma_beta_ab=(math.nan, 3.0)),
    lambda: PriorConfig(gamma_beta_ab=(3.0, math.inf)),
    lambda: PosteriorDraws(beta=np.zeros((2, 0)), gamma=np.array([math.nan, 0.5]), acceptance_rate=0.5),
    lambda: PosteriorDraws(beta=np.zeros((2, 1)), gamma=None, acceptance_rate=0.5, tau=np.array([[math.nan], [1.0]])),
    lambda: PosteriorDraws(beta=np.zeros((2, 1)), gamma=None, acceptance_rate=0.5, tau=np.array([[math.inf], [1.0]])),
], ids=["scale_nan", "scale_inf", "a0_inf", "beta_sd_inf", "beta_ab_nan", "beta_ab_inf", "gamma_nan", "tau_nan",
        "tau_inf"])
def test_library_configs_and_draws_reject_non_finite_numbers(build):
    with pytest.raises(DomainError):
        build()


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

    def test_fixed_gamma_one_with_covariates(self):
        # gamma = 1 is the static model; the fixed prior must score it, or
        # the chain over beta cannot start
        counts, design, _ = _simulated_static("DM2", T=40)
        priors = PriorConfig(a0=50.0, b0=2.0, gamma_prior="fixed", gamma_fixed_value=1.0)
        cfg = MhConfig(iterations=1500, burn_in=500)
        draws = fit_dm_static(counts, design, ModelSpec("DM2", ("z1", "z2")), priors, cfg,
                              RngStream(12), smooth=True)
        assert np.all(draws.gamma == 1.0)
        assert 0.0 < draws.acceptance_rate < 1.0
        assert np.all(draws.theta == draws.theta[:, -1:])

    def test_gamma_logit_jacobian_present(self):
        # exact posterior mean of gamma by quadrature vs the chain's estimate;
        # omitting the logit Jacobian would bias the chain's mean visibly
        series = _series([2, 4, 1])
        design = DesignMatrix.empty(3)
        priors = PriorConfig(a0=2.0, b0=1.0)
        grid = np.linspace(1e-5, 1 - 1e-5, 20_001)
        loglik = filter_core(series.counts, np.ones((len(grid), 3)), grid, priors.a0, priors.b0).total_log_predictive
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

    def test_theta_holds_the_rates_when_smoothing(self):
        series = _series([3, 5, 2, 6])
        design = build_design({"x": np.array([0.5, -1.0, 2.0, 0.0])}, ModelSpec("BPM", ("x",)), 4)
        cfg = MhConfig(iterations=500, burn_in=100)
        draws = fit_bpm(series, design, PriorConfig(), cfg, RngStream(12), smooth=True)
        assert np.array_equal(draws.theta, linear_predictor(design, draws.beta))
        assert fit_bpm(series, design, PriorConfig(), cfg, RngStream(12), smooth=False).theta is None

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

    def _cohort(self, T=20):
        """The counts and design of a simulated DM2 cohort."""
        rng = RngStream(24)
        design = build_design({"z": rng.substream(1).generator.normal(size=T)}, ModelSpec("DM2", ("z",)), T)
        truth = simulate_cohort(PriorConfig(a0=40.0, b0=1.0), 0.6, np.array([0.3]), design, T, rng.substream(2))
        return truth.counts, design

    @pytest.mark.parametrize("fixed", [0.9, 1.0])
    def test_fixed_gamma_prior_holds_every_draw(self, fixed, monkeypatch):
        # the chain must start where the fixed prior puts its mass; started
        # anywhere else, every gamma move scores -inf and none is accepted.
        # Every proposal is off the support, so a sweep filters only the
        # current gamma
        counts, design = self._cohort()
        priors = PriorConfig(a0=40.0, b0=1.0, gamma_prior="fixed", gamma_fixed_value=fixed)
        filtered = []

        def counted(counts, multipliers, gamma, a0, b0):
            filtered.append(gamma[0])
            return filter_core(counts, multipliers, gamma, a0, b0)

        monkeypatch.setattr(mcmc, "filter_core", counted)
        draws = fit_dm5(counts, design, priors, MhConfig(iterations=60, burn_in=20), RngStream(25))
        assert draws.gamma.tolist() == [fixed] * 40
        assert filtered == [fixed] * 60

    def test_uniform_prior_filters_once_per_sweep(self, monkeypatch):
        # the current and the proposed gamma share the sweep's multipliers, so
        # one two-row pass scores both
        counts, design = self._cohort()
        stacks = []

        def counted(counts, multipliers, gamma, a0, b0):
            stacks.append(len(gamma))
            return filter_core(counts, multipliers, gamma, a0, b0)

        monkeypatch.setattr(mcmc, "filter_core", counted)
        fit_dm5(counts, design, PriorConfig(a0=40.0, b0=1.0), MhConfig(iterations=60, burn_in=20), RngStream(25))
        assert stacks == [2] * 60

    def test_sweep_carries_the_log_multipliers_of_its_path(self, monkeypatch):
        counts, design = self._cohort()
        half_sweeps, accepted = mcmc._coefficient_half_sweeps, []

        def carried(beta, eta, multipliers):
            ref = log_linear_predictor(design, beta[None])[0]
            return np.array_equal(eta, ref) and np.array_equal(multipliers, np.exp(ref))

        def checked(path, links, eta, multipliers, *rest):
            assert carried(path[1:-1], eta, multipliers)
            accepted.append(half_sweeps(path, links, eta, multipliers, *rest))
            assert carried(path[1:-1], eta, multipliers)
            return accepted[-1]

        monkeypatch.setattr(mcmc, "_coefficient_half_sweeps", checked)
        fit_dm5(counts, design, PriorConfig(a0=40.0, b0=1.0), MhConfig(iterations=30, burn_in=10), RngStream(25))
        assert len(accepted) == 30 and sum(accepted) > 0

    def test_needs_covariates(self):
        with pytest.raises(DomainError):
            fit_dm5(_series([1, 2]), DesignMatrix.empty(2), PriorConfig(),
                    MhConfig(iterations=10, burn_in=0), RngStream(0))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_needs_two_months(self, seed):
        # at T = 1 tau's full conditional is its prior, whose float draws can be 0
        design = DesignMatrix(("z",), np.array([[0.5]]))
        with pytest.raises(DomainError, match="the time-varying model needs at least two months"):
            fit_dm5(_series([7]), design, PriorConfig(), MhConfig(iterations=50, burn_in=10), RngStream(seed))

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


def _sweep_inputs(beta, Z):
    """The current path's log multipliers, their exp and the two parities'
    designs, as ``fit_dm5`` passes them to ``_coefficient_half_sweeps``."""
    design = DesignMatrix(tuple(f"z{j}" for j in range(Z.shape[1])), Z)
    halves = tuple(DesignMatrix(design.column_names, Z[start::2]) for start in (0, 1))
    eta = log_linear_predictor(design, beta[None])[0]
    return eta, np.exp(eta), halves


def _padded(beta, tau, prior_var):
    """The path between two zero pad months and its link precisions (1/prior_var
    into month 0, tau between months, 0 past the last), as ``fit_dm5`` passes
    them to ``_coefficient_half_sweeps``, and the view of the path's months."""
    T, p = beta.shape
    path = np.zeros((T + 2, p))
    path[1:-1] = beta
    links = np.zeros((T + 1, p))
    links[0] = 1.0 / prior_var
    links[1:T] = tau
    return path, links, path[1:-1]


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
        path, links, beta = _padded(beta, tau, 1.0)
        start = beta.copy()
        gen = _RecordingGenerator(5, beta)
        _coefficient_half_sweeps(path, links, *_sweep_inputs(beta, Z), counts, theta, prop_sd, gen)
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
        path, links, beta = _padded(beta, tau, 2.0)
        for sweep in range(20):
            n = _coefficient_half_sweeps(path, links, *_sweep_inputs(beta, Z), counts, theta, prop_sd,
                                         np.random.default_rng(sweep))
            n_ref = _single_site_reference(ref, Z, counts, theta, tau, prop_sd, 2.0,
                                           np.random.default_rng(sweep))
            assert n == n_ref
            np.testing.assert_allclose(beta, ref, rtol=1e-13, atol=1e-15)
            # the sweeps write the months only: the pads and the end links stay as built
            assert not path[[0, -1]].any() and (links[0] == 0.5).all() and not links[-1].any()

    def test_overflowing_proposal_rejected_silently(self):
        # eta_prop = 1000 * step exceeds 709 for this seed's first normal, so
        # exp(eta_prop) overflows; the old scalar loop raised OverflowError here
        seed = 3
        assert 1000.0 * np.random.default_rng(seed).standard_normal((1, 1))[0, 0] > 709.0
        path, links, beta = _padded(np.zeros((1, 1)), np.array([1.0]), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            n = _coefficient_half_sweeps(path, links, *_sweep_inputs(beta, np.array([[1000.0]])), np.array([2]),
                                         np.array([1.0]), np.array([[1.0]]), np.random.default_rng(seed))
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
        path, links, beta = _padded(np.zeros((3, 1)), tau, prior_var)
        chain = np.empty((n_iter, 3))
        for i in range(n_iter):
            _coefficient_half_sweeps(path, links, *_sweep_inputs(beta, Z), counts, theta, prop_sd, gen)
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
        assert np.array_equal(diag.autocorr[0], np.eye(1, 500)[0])

    @pytest.mark.parametrize("value", [0.3, 1.0 / 3.0])
    def test_constant_chain_whose_mean_does_not_round_back(self, value):
        # the mean of 500 copies of 0.3 or 1/3 is not that value, so the
        # centred chain is a run of equal nonzero residues
        x = np.full(500, value)
        assert x.mean() != value
        acf = mcmc._autocorr(x)
        assert np.array_equal(acf, np.eye(1, 500)[0])
        assert mcmc._ess(x, acf) == 1.0

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

    def test_autocorr_matches_lagged_dot_products(self):
        x = np.random.default_rng(4).normal(size=(301,)).cumsum()
        acf = mcmc._autocorr(x)
        c = x - x.mean()
        direct = np.array([c[: len(c) - k] @ c[k:] for k in range(len(c))]) / (c @ c)
        assert acf.shape == (301,)
        assert acf[0] == 1.0
        assert np.max(np.abs(acf - direct)) < 1e-12

    @pytest.mark.parametrize("chain", [[0.3, 1.2], [0.0, 1.0, 3.0], [2.0, 2.5, 1.0]])
    def test_short_chains_count_every_draw(self, chain):
        # the autocorrelations of a centred chain sum to -1/2 over lags 1..n-1,
        # so for n = 2 and 3 the first pair is not positive and the ESS is n
        x = np.array(chain)[:, None]
        assert diagnostics(self._draws(x)).ess[0] == len(chain)

    def test_slow_ar1_ess_is_not_capped(self):
        # phi = 0.98: the pair sums stay positive far past lag 50
        gen = np.random.default_rng(3)
        n, phi = 50_000, 0.98
        noise = gen.normal(size=n)
        x = np.empty(n)
        x[0] = noise[0] / math.sqrt(1.0 - phi**2)
        for t in range(1, n):
            x[t] = phi * x[t - 1] + noise[t]
        diag = diagnostics(self._draws(x.reshape(-1, 1)))
        assert diag.ess[0] == pytest.approx(n * (1 - phi) / (1 + phi), rel=0.15)

    def test_ess_bounded_by_draws(self):
        x = np.random.default_rng(2).normal(size=(1000, 2))
        diag = diagnostics(self._draws(x, names=("a", "b")))
        assert np.all(diag.ess <= 1000)
        assert diag.autocorr.shape == (2, 1000)

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



class TestPredictiveBlocks:
    @staticmethod
    def _draws(variant, S, T, p):
        gen = RngStream(8).generator
        shape = (S, T, p) if variant == "DM5" else (S, p)
        return PosteriorDraws(beta=gen.normal(0.0, 0.3, shape), gamma=gen.uniform(0.3, 1.0, S),
                              acceptance_rate=0.5, variant=variant)

    @pytest.mark.parametrize("variant", ["DM2", "DM5"])
    def test_blocks_come_in_draw_order(self, variant):
        # FILTER_BLOCK + 3 draws are two blocks; row j of their concatenation
        # is draw j's own one-draw pass, bit for bit
        series, design, priors = _simulated_static(variant, T=30)
        S = FILTER_BLOCK + 3
        draws = self._draws(variant, S, series.T, design.p)
        blocks = list(mcmc.predictive_blocks(series, design, draws, priors, 20))
        assert [len(lp) for lp, _ in blocks] == [FILTER_BLOCK, 3]
        log_pred = np.concatenate([lp for lp, _ in blocks])
        comps = np.concatenate([c for _, c in blocks])
        assert log_pred.shape == (S, 30) and comps.shape == (S, 11, 2)
        for j in (0, FILTER_BLOCK - 1, FILTER_BLOCK, S - 1):
            one = PosteriorDraws(beta=draws.beta[j : j + 1], gamma=draws.gamma[j : j + 1],
                                 acceptance_rate=0.5, variant=variant)
            [(lp, c)] = mcmc.predictive_blocks(series, design, one, priors, 20)
            assert np.array_equal(lp[0], log_pred[j]) and np.array_equal(c[0], comps[j])

    def test_bpm_is_one_block_of_poisson_rates(self):
        series, design, priors = _simulated_static("BPM", T=30)
        S = FILTER_BLOCK + 3
        draws = replace(self._draws("BPM", S, series.T, design.p), gamma=None)
        [(lp, rates)] = mcmc.predictive_blocks(series, design, draws, priors, 20)
        assert lp.shape == (S, 30) and rates.shape == (S, 11)
        assert np.array_equal(rates, np.exp(log_linear_predictor(design, draws.beta)[:, 19:]))
