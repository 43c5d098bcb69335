"""Tests for the conjugate filter, grid posterior and backward sampling."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from dynpois import filtering
from dynpois.evaluation import per_draw_log_predictives
from dynpois.filtering import (
    FILTER_BLOCK,
    SCALAR_ROWS,
    exceedance_probability,
    ffbs_sample,
    filter_core,
    filter_draws,
    gamma_grid_posterior,
)
from dynpois.kernels import DomainError, RngStream, lgamma, logsumexp
from dynpois.mcmc import PosteriorDraws, _smooth_paths
from dynpois.model import (
    CountSeries,
    DesignMatrix,
    ModelSpec,
    PriorConfig,
    build_design,
    linear_predictor,
)
from oracles import (
    GammaState,
    NegBinParams,
    density_mean_var,
    grid_filter,
    grid_smoother,
    log_pmf_negbin,
    one_step_predictive,
    predict_step,
    tv_distance,
    update_step,
)


def _series(counts):
    return CountSeries(list(counts))


def _filter_dm1(counts, gamma, a0, b0):
    """The covariate-free filter of one draw, a one-row stack: every multiplier is 1."""
    return filter_core(counts, np.ones((1, len(counts))), [gamma], a0, b0)


# Per-month numpy loops: the original scalar implementations, kept as the
# reference that the batched filter and backward sampler must match bit for bit
# under the pinned dispatch (see conftest.py).


def _loop_filter(counts, multipliers, gamma, a0, b0):
    T = len(counts)
    a = np.empty(T + 1)
    b = np.empty(T + 1)
    a[0], b[0] = a0, b0
    for t in range(1, T + 1):
        a[t] = gamma * a[t - 1] + counts[t - 1]
        b[t] = gamma * b[t - 1] + multipliers[t - 1]
    r = gamma * a[:-1]
    gb = gamma * b[:-1]
    n = np.asarray(counts).astype(float)
    log_pred = (
        lgamma(r + n)
        - lgamma(n + 1.0)
        - lgamma(r)
        + r * (np.log(gb) - np.log(gb + multipliers))
        + n * (np.log(multipliers) - np.log(gb + multipliers))
    )
    return a, b, log_pred


def _loop_ffbs(a, b, gamma, rng):
    T = len(a) - 1
    gen = rng.generator
    path = np.empty(T)
    path[T - 1] = gen.gamma(shape=a[T], scale=1.0 / b[T])
    for n in range(T - 1, 0, -1):
        if gamma == 1.0:
            path[n - 1] = path[n]
            continue
        increment = gen.gamma(shape=(1.0 - gamma) * a[n], scale=1.0 / b[n])
        path[n - 1] = gamma * path[n] + increment
    return path


def _draw_set(S, T=30, p=2, seed=0):
    """Counts, a p-column design and S (beta, gamma) draws, with gamma = 1 in row 1."""
    gen = np.random.default_rng(seed)
    counts = gen.poisson(20.0, size=T)
    design = DesignMatrix(tuple(f"z{i}" for i in range(p)), gen.normal(size=(T, p)))
    betas = gen.normal(0.0, 0.3, size=(S, p))
    gammas = gen.uniform(0.3, 0.999, size=S)
    if S > 1:
        gammas[1] = 1.0
    return counts, design, betas, gammas


class TestPredictStep:
    def test_discount_scaling(self):
        out = predict_step(GammaState(4.0, 2.0), 0.5)
        assert (out.shape, out.rate) == (2.0, 1.0)
        assert out.mean() == 2.0
        assert out.variance() == 2.0  # doubled from 1.0

    def test_gamma_one_is_identity(self):
        state = GammaState(3.3, 1.2)
        out = predict_step(state, 1.0)
        assert (out.shape, out.rate) == (state.shape, state.rate)

    def test_gamma_out_of_range(self):
        with pytest.raises(DomainError):
            predict_step(GammaState(1.0, 1.0), 0.0)
        with pytest.raises(DomainError):
            predict_step(GammaState(1.0, 1.0), 1.2)

    @given(
        a=st.floats(min_value=0.1, max_value=1e4),
        b=st.floats(min_value=0.1, max_value=1e4),
        gamma=st.floats(min_value=0.01, max_value=0.999),
    )
    @settings(max_examples=80, deadline=None)
    def test_mean_preserved_variance_inflated(self, a, b, gamma):
        state = GammaState(a, b)
        out = predict_step(state, gamma)
        assert out.mean() == pytest.approx(state.mean(), rel=1e-14)
        assert out.variance() == pytest.approx(state.variance() / gamma, rel=1e-14)


class TestUpdateStep:
    def test_unit_multiplier(self):
        out = update_step(GammaState(1.0, 0.5), 3, 1.0)
        assert (out.shape, out.rate) == (4.0, 1.5)

    def test_covariate_multiplier(self):
        out = update_step(GammaState(1.0, 0.5), 3, 2.0)
        assert (out.shape, out.rate) == (4.0, 2.5)

    def test_no_event_month(self):
        out = update_step(GammaState(2.0, 1.0), 0, 1.0)
        assert (out.shape, out.rate) == (2.0, 2.0)

    def test_bad_multiplier(self):
        with pytest.raises(DomainError):
            update_step(GammaState(1.0, 1.0), 1, 0.0)


class TestOneStepPredictive:
    def test_geometric_case(self):
        predicted = predict_step(GammaState(2.0, 1.0), 0.5)
        nb = one_step_predictive(predicted, 1.0)
        assert (nb.r, nb.p) == (1.0, pytest.approx(1.0 / 3.0, rel=1e-15))
        assert math.exp(log_pmf_negbin(0, nb)) == pytest.approx(1.0 / 3.0, rel=1e-13)
        assert math.exp(log_pmf_negbin(1, nb)) == pytest.approx(2.0 / 9.0, rel=1e-13)
        assert nb.mean() == pytest.approx(2.0, rel=1e-14)

    def test_multiplier_scales_mean(self):
        predicted = predict_step(GammaState(2.0, 1.0), 0.5)
        nb = one_step_predictive(predicted, 2.0)
        assert nb.mean() == pytest.approx(4.0, rel=1e-14)

    def test_mean_identity_random_states(self):
        # predictive mean must be (a/b) * multiplier to near machine precision
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b = rng.uniform(0.2, 50.0), rng.uniform(0.1, 20.0)
            gamma = rng.uniform(0.05, 0.99)
            m = rng.uniform(0.1, 5.0)
            nb = one_step_predictive(predict_step(GammaState(a, b), gamma), m)
            assert nb.mean() == pytest.approx(a / b * m, rel=1e-12)


class TestFilterPass:
    def test_static_reduction_bit_exact(self):
        counts = [3, 0, 7, 2, 11]
        traj = _filter_dm1(counts, 1.0, 1.5, 2.0)
        assert traj.a[0, -1] == 1.5 + sum(counts)
        assert traj.b[0, -1] == 2.0 + 5

    def test_single_step_equals_negbin(self):
        gamma = 0.7
        traj = _filter_dm1([4], gamma, 2.0, 1.0)
        expected = log_pmf_negbin(4, NegBinParams(gamma * 2.0, gamma * 1.0 / (gamma * 1.0 + 1.0)))
        assert traj.total_log_predictive[0] == pytest.approx(expected, rel=1e-14)

    def test_additivity_of_log_predictives(self):
        traj = _filter_dm1([2, 5, 1], 0.5, 3.0, 1.0)
        product = np.prod(np.exp(traj.log_predictive))
        assert traj.total_log_predictive[0] == pytest.approx(math.log(product), abs=1e-10)

    def test_matches_grid_oracle_on_toy(self):
        counts = [4, 7, 2, 9]
        gamma, a0, b0 = 0.6, 4.0, 1.0
        traj = _filter_dm1(counts, gamma, a0, b0)
        x, filt = grid_filter(counts, [1.0] * 4, gamma, a0, b0, n_grid=10_000, n_quad=400)
        a, b = traj.a[0, -1], traj.b[0, -1]
        exact = np.exp(a * math.log(b) - special.gammaln(a) + (a - 1.0) * np.log(x) - b * x)
        assert tv_distance(x, filt[-1], exact) < 1e-3

    def test_covariate_multipliers_enter_rate(self):
        cov = {"x": np.array([0.0, 1.0, -1.0])}
        design = build_design(cov, ModelSpec("DM2", ("x",)), 3)
        traj = filter_core([1, 2, 3], linear_predictor(design, np.array([[0.5]])), [0.8], 2.0, 1.0)
        m = np.exp(0.5 * cov["x"])
        b = 1.0
        for t in range(3):
            b = 0.8 * b + m[t]
        assert traj.b[0, -1] == pytest.approx(b, rel=1e-14)

    @given(
        gamma=st.floats(min_value=0.05, max_value=0.99),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_states_stay_finite_positive(self, gamma, seed):
        gen = np.random.default_rng(seed)
        counts = gen.integers(0, 30, size=12)
        traj = filter_core(counts, np.ones((1, 12)), [gamma], 2.0, 1.0)
        assert np.all(np.isfinite(traj.a)) and np.all(traj.a > 0)
        assert np.all(np.isfinite(traj.b)) and np.all(traj.b > 0)

    def test_trajectory_holds_its_input_multipliers(self):
        # the forecast reads each month's multiplier from the pass that used it
        m = np.array([[1.5, 0.5, 2.0]])
        assert filter_core([1, 2, 3], m, [0.8], 2.0, 1.0).multipliers is m

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            filter_core([1, 2], np.ones((1, 3)), [0.5], 1.0, 1.0)

    @pytest.mark.parametrize(
        "mult, gamma", [(np.ones(2), 0.5), (np.ones((1, 2)), 0.5), (np.ones(2), [0.5])]
    )
    def test_scalar_gamma_or_multipliers_rejected(self, mult, gamma):
        # a single draw is a one-row stack: (1,) gamma and (1, T) multipliers
        with pytest.raises(DomainError, match=r"\(S,\) gamma and \(S, T\) multipliers"):
            filter_core([1, 2], mult, gamma, 1.0, 1.0)

    def test_empty_stack_gives_empty_trajectory(self):
        traj = filter_core([1], np.ones((0, 1)), np.array([]), 1.0, 1.0)
        assert traj.a.shape == traj.b.shape == (0, 2)
        assert traj.log_predictive.shape == (0, 1) and traj.T == 1
        assert traj.total_log_predictive.shape == (0,)

    def test_subnormal_gamma_is_out_of_support_without_warning(self):
        # gamma*b0 underflows to 0; log(0) must not warn, and that month scores
        # -inf; in month 2 gamma*b_1 = 5e-324 is no underflow, and lgamma of
        # the subnormal r = gamma*a_1 is finite, so that month's score is too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = filter_core([1, 2], np.ones((1, 2)), [5e-324], 1.0, 0.1)
        assert traj.log_predictive[0, 0] == -np.inf and np.isfinite(traj.log_predictive[0, 1])
        assert traj.total_log_predictive[0] == -np.inf


class TestGammaGridPosterior:
    def test_single_point_mass(self):
        post = gamma_grid_posterior(
            _series([2, 1]), DesignMatrix.empty(2), PriorConfig(gamma_grid_step=0.5)
        )
        assert post.grid.tolist() == [0.5]
        assert post.probs[0] == 1.0

    def test_two_point_closed_form(self):
        # direct closed-form weights: pmf(1) = r p^r (1-p) with r = g*a0,
        # p = g*b0/(g*b0 + 1); computed inline, independent of the filter
        priors = PriorConfig(a0=1.0, b0=1.0, gamma_grid_step=1.0 / 3.0)
        series = _series([1])
        post = gamma_grid_posterior(series, DesignMatrix.empty(1), priors)
        assert post.grid == pytest.approx([1.0 / 3.0, 2.0 / 3.0], rel=1e-15)

        def weight(g):
            r = g * 1.0
            p = g * 1.0 / (g * 1.0 + 1.0)
            return r * p**r * (1.0 - p)

        w = np.array([weight(g) for g in post.grid])
        expected = w / w.sum()
        assert np.allclose(post.probs, expected, rtol=1e-12)
        assert post.probs[0] == pytest.approx(0.42, abs=0.01)
        assert post.probs[1] == pytest.approx(0.58, abs=0.01)

    def test_default_grid_is_hundredths(self):
        post = gamma_grid_posterior(_series([1]), DesignMatrix.empty(1), PriorConfig())
        assert len(post.grid) == 99
        assert post.grid[0] == pytest.approx(0.01)
        assert post.grid[-1] == pytest.approx(0.99)

    def test_endpoint_grid_rejected(self):
        # a step of 1 leaves only the endpoints 0 and 1, so no grid point inside
        with pytest.raises(DomainError):
            PriorConfig(gamma_prior="grid", gamma_grid_step=1.0)


class TestFfbs:
    def test_empty_trajectory_gives_no_paths(self):
        traj = filter_core([4, 1, 3], np.ones((0, 3)), np.array([]), 2.0, 1.0)
        rng = RngStream(3)
        assert ffbs_sample(traj, rng).shape == (0, 3)
        # and draws nothing from the stream
        assert rng.generator.random() == RngStream(3).generator.random()

    def test_single_month_is_final_filter_draw(self):
        traj = _filter_dm1([4], 0.7, 2.0, 1.0)
        path = ffbs_sample(traj, RngStream(77))
        direct = RngStream(77).generator.gamma(shape=traj.a[0, -1], scale=1.0 / traj.b[0, -1])
        assert path.shape == (1, 1)
        assert path[0, 0] == direct

    def test_ordering_constraint_always_holds(self):
        gamma = 0.6
        traj = _filter_dm1([4, 7, 2, 9, 5], gamma, 4.0, 1.0)
        rng = RngStream(5)
        for _ in range(2000):
            path = ffbs_sample(traj, rng)[0]
            assert np.all(path[:-1] > gamma * path[1:])

    def test_marginals_match_grid_smoother(self):
        counts = [4, 7, 2]
        gamma, a0, b0 = 0.6, 4.0, 1.0
        traj = _filter_dm1(counts, gamma, a0, b0)
        rng = RngStream(123)
        S = 20_000
        paths = np.array([ffbs_sample(traj, rng)[0] for _ in range(S)])
        x, smooth = grid_smoother(counts, [1.0] * 3, gamma, a0, b0)
        for t in range(3):
            gm, gv = density_mean_var(x, smooth[t])
            se_mean = paths[:, t].std(ddof=1) / math.sqrt(S)
            assert abs(paths[:, t].mean() - gm) < 3 * se_mean

    def test_gamma_one_gives_constant_static_path(self):
        traj = _filter_dm1([1, 2], 1.0, 2.0, 1.0)
        path = ffbs_sample(traj, RngStream(0))[0]
        assert path[0] == path[1]
        direct = RngStream(0).generator.gamma(shape=traj.a[0, -1], scale=1.0 / traj.b[0, -1])
        assert path[1] == direct


class TestExceedance:
    def test_reflexive(self):
        paths = np.random.default_rng(0).gamma(2.0, size=(50, 4))
        assert exceedance_probability(paths, 2, 2) == 1.0

    def test_complement_identity(self):
        paths = np.random.default_rng(1).gamma(2.0, size=(500, 3))
        p_ge = exceedance_probability(paths, 1, 3)
        # strict complement: P(s >= u) + P(u > s) = 1
        p_gt = np.mean(paths[:, 2] > paths[:, 0])
        assert p_ge + p_gt == pytest.approx(1.0, abs=1e-12)

    def test_increasing_rate_detected(self):
        # sharply increasing counts: late rate exceeds early rate on most paths
        counts = [1, 2, 5, 12, 30, 70]
        traj = _filter_dm1(counts, 0.8, 1.0, 1.0)
        rng = RngStream(9)
        paths = np.array([ffbs_sample(traj, rng)[0] for _ in range(2000)])
        assert exceedance_probability(paths, 6, 1) > 0.99

    def test_index_out_of_range(self):
        with pytest.raises(DomainError):
            exceedance_probability(np.ones((10, 3)), 0, 1)

    @pytest.mark.parametrize("months", [(1.0, 2), (2, 1.5), (True, 2)])
    def test_non_integer_month_rejected(self, months):
        with pytest.raises(DomainError):
            exceedance_probability(np.ones((10, 3)), *months)

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 4)])
    def test_paths_must_be_two_dimensional(self, shape):
        with pytest.raises(DomainError):
            exceedance_probability(np.ones(shape), 1, 1)


class TestBatchedFilter:
    """Batched filter and backward sampler against the per-month reference loops."""

    GAMMAS = np.array([0.3, 0.7, 0.95, 0.999, 1.0])

    @pytest.mark.pinned_dispatch
    def test_scalar_call_matches_reference_loop(self):
        counts, design, betas, _ = _draw_set(1)
        mult = linear_predictor(design, betas[:1])
        for g in self.GAMMAS:
            traj = filter_core(counts, mult, [g], 50.0, 2.0)
            a, b, log_pred = _loop_filter(counts, mult[0], g, 50.0, 2.0)
            assert np.array_equal(traj.a[0], a) and np.array_equal(traj.b[0], b)
            assert np.array_equal(traj.log_predictive[0], log_pred)
            assert traj.total_log_predictive[0] == float(log_pred.sum())

    def test_batched_rows_equal_scalar_calls(self):
        # five rows, so the batch and its rows both run the float loop; a call
        # scored from month `first` on keeps the full call's states and months
        counts, design, betas, _ = _draw_set(len(self.GAMMAS), seed=1)
        mult = linear_predictor(design, betas)
        full = filter_core(counts, mult, self.GAMMAS, 50.0, 2.0)
        for first in (1, 2, 30, 31):
            traj = filter_core(counts, mult, self.GAMMAS, 50.0, 2.0, first)
            assert traj.a.shape == (5, 31) and traj.log_predictive.shape == (5, 31 - first) and traj.T == 30
            assert np.array_equal(traj.a, full.a) and np.array_equal(traj.b, full.b)
            assert np.array_equal(traj.log_predictive, full.log_predictive[:, first - 1 :])
            totals = traj.total_log_predictive
            for j in range(len(self.GAMMAS)):
                one = filter_core(counts, mult[j : j + 1], self.GAMMAS[j : j + 1], 50.0, 2.0, first)
                assert np.array_equal(traj.a[j], one.a[0]) and np.array_equal(traj.b[j], one.b[0])
                assert np.array_equal(traj.log_predictive[j], one.log_predictive[0])
                assert totals[j] == one.total_log_predictive[0]

    @pytest.mark.parametrize("first", [0, 32, 1.0, True])
    def test_first_scored_month_out_of_range_rejected(self, first):
        counts, design, betas, _ = _draw_set(1, seed=1)
        with pytest.raises(DomainError):
            filter_core(counts, linear_predictor(design, betas), [0.5], 50.0, 2.0, first)

    def test_batched_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            filter_core([1, 2], np.ones((3, 2)), np.full(2, 0.5), 1.0, 1.0)
        with pytest.raises(DomainError):
            filter_core([1, 2], np.ones(2), np.full(2, 0.5), 1.0, 1.0)
        with pytest.raises(DomainError):
            filter_core([1, 2], np.ones((2, 2)), np.array([0.5, 1.5]), 1.0, 1.0)

    @pytest.mark.pinned_dispatch
    def test_filter_draws_crosses_block_boundary(self):
        S = FILTER_BLOCK + 3
        counts, design, betas, gammas = _draw_set(S, seed=2)
        blocks = list(filter_draws(counts, design, betas, gammas, 50.0, 2.0))
        assert [len(traj.gamma) for traj in blocks] == [FILTER_BLOCK, 3]
        log_pred = np.concatenate([traj.log_predictive for traj in blocks])
        for j in (0, 1, FILTER_BLOCK - 1, FILTER_BLOCK, S - 1):
            ref = _loop_filter(counts, linear_predictor(design, betas[j : j + 1])[0], gammas[j], 50.0, 2.0)
            assert np.array_equal(log_pred[j], ref[2])

    @pytest.mark.pinned_dispatch
    def test_per_draw_log_predictives_match_per_draw_loop(self):
        S = FILTER_BLOCK + 5
        counts, design, betas, gammas = _draw_set(S, seed=3)
        draws = PosteriorDraws(beta=betas, gamma=gammas, acceptance_rate=0.3, variant="DM2")
        L = per_draw_log_predictives(_series(counts), design, draws, PriorConfig(a0=50.0, b0=2.0))
        ref = np.array(
            [
                _loop_filter(counts, linear_predictor(design, betas[j : j + 1])[0], gammas[j], 50.0, 2.0)[2]
                for j in range(S)
            ]
        )
        assert np.array_equal(L, ref)

    @pytest.mark.pinned_dispatch
    def test_scalar_ffbs_matches_reference_loop(self):
        counts, design, betas, _ = _draw_set(1, seed=4)
        mult = linear_predictor(design, betas[:1])
        for g in self.GAMMAS:
            traj = filter_core(counts, mult, [g], 50.0, 2.0)
            assert np.array_equal(
                ffbs_sample(traj, RngStream(11))[0], _loop_ffbs(traj.a[0], traj.b[0], g, RngStream(11))
            )

    @pytest.mark.parametrize("S", [3, SCALAR_ROWS + 5])
    def test_unscored_trajectory_draws_the_full_calls_paths(self, S):
        # backward sampling reads only the states, so a pass that scores no
        # month draws the full pass's paths and leaves the stream where it does
        counts, design, betas, gammas = _draw_set(S, seed=12)
        mult = linear_predictor(design, betas)
        full = filter_core(counts, mult, gammas, 50.0, 2.0)
        bare = filter_core(counts, mult, gammas, 50.0, 2.0, len(counts) + 1)
        assert bare.log_predictive.shape == (S, 0) and bare.T == len(counts)
        rng, ref_rng = RngStream(13), RngStream(13)
        assert np.array_equal(ffbs_sample(bare, rng), ffbs_sample(full, ref_rng))
        assert rng.generator.random() == ref_rng.generator.random()

    @pytest.mark.pinned_dispatch
    def test_smooth_paths_reproduce_per_draw_loop(self):
        S = FILTER_BLOCK + 3
        counts, design, betas, gammas = _draw_set(S, seed=5)
        priors = PriorConfig(a0=50.0, b0=2.0)
        rng = RngStream(7).substream(1)
        paths = _smooth_paths(counts, design, betas, gammas, priors, rng)
        ref_rng = RngStream(7).substream(1)
        ref = np.empty((S, len(counts)))
        for j in range(S):
            a, b, _ = _loop_filter(counts, linear_predictor(design, betas[j : j + 1])[0], gammas[j], 50.0, 2.0)
            ref[j] = _loop_ffbs(a, b, gammas[j], ref_rng)
        assert np.array_equal(paths, ref)
        assert np.all(paths[1] == paths[1, -1])  # the gamma = 1 row is static
        # both left the stream at the same point
        assert rng.generator.random() == ref_rng.generator.random()

    @pytest.mark.pinned_dispatch
    def test_gamma_grid_posterior_matches_per_gamma_loop(self):
        counts = np.random.default_rng(6).poisson(8.0, size=25)
        priors = PriorConfig(a0=3.0, b0=1.0, gamma_grid_step=0.001)
        post = gamma_grid_posterior(_series(counts), DesignMatrix.empty(25), priors)
        assert len(post.grid) > FILTER_BLOCK
        log_post = np.array(
            [_loop_filter(counts, np.ones(25), g, 3.0, 1.0)[2].sum() for g in post.grid]
        )
        assert np.array_equal(post.probs, np.exp(log_post - logsumexp(log_post)))


class TestMonthOrderRecursion:
    """The recursions in month order, checked in whatever dispatch the host picks."""

    @given(
        gammas=st.lists(
            st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
            min_size=1,
            # stacks past SCALAR_ROWS run the numpy month loop, their one-row calls the float loop
            max_size=SCALAR_ROWS // 2 + 2,
        ),
        T=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        first_at=st.sampled_from(["1", "2", "T", "T + 1"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_rows_equal_single_row_calls(self, gammas, T, seed, first_at):
        # scored from month `first` on, a call keeps the full call's states and
        # months, and its backward paths and stream
        first = {"1": 1, "2": 2, "T": T, "T + 1": T + 1}[first_at]
        gen = np.random.default_rng(seed)
        counts = gen.poisson(20.0, size=T)
        mult = np.exp(gen.normal(0.0, 0.5, size=(len(gammas), T)))
        g = np.array(gammas)
        full = filter_core(counts, mult, g, 50.0, 2.0)
        traj = filter_core(counts, mult, g, 50.0, 2.0, first)
        assert np.array_equal(traj.a, full.a) and np.array_equal(traj.b, full.b)
        assert np.array_equal(traj.log_predictive, full.log_predictive[:, first - 1 :])
        totals = traj.total_log_predictive
        batched_rng, rng = RngStream(seed), RngStream(seed)
        paths = ffbs_sample(traj, batched_rng)
        for j in range(len(gammas)):
            one = filter_core(counts, mult[j : j + 1], g[j : j + 1], 50.0, 2.0, first)
            assert np.array_equal(traj.a[j], one.a[0]) and np.array_equal(traj.b[j], one.b[0])
            assert np.array_equal(traj.log_predictive[j], one.log_predictive[0])
            assert totals[j] == one.total_log_predictive[0]
            assert np.array_equal(paths[j], ffbs_sample(one, rng)[0])
        # the batched draw left its stream where the single-row draws left theirs
        assert batched_rng.generator.random() == rng.generator.random()

    @pytest.mark.parametrize("K", [1, 2])
    def test_float_loop_equals_numpy_month_loop(self, K, monkeypatch):
        # every stack size up to two rows past SCALAR_ROWS, each solved with
        # the float loop, with the numpy month loop and with the default rule;
        # the last row overflows to inf beside finite rows
        gen = np.random.default_rng(K)
        for S in range(1, SCALAR_ROWS + 3):
            gamma = gen.uniform(0.3, 1.0, S)
            gamma[0] = 1.0
            rhs = gen.uniform(0.0, 50.0, (K, S, 40))
            rhs[-1, -1, 1:] = np.finfo(float).max
            solves = []
            for rows in (K * S, 0, SCALAR_ROWS):
                monkeypatch.setattr(filtering, "SCALAR_ROWS", rows)
                solves.append(filtering._discount_solve(gamma, rhs))
            for x in solves[1:]:
                assert np.array_equal(x, solves[0])
            assert np.isinf(solves[0][-1, -1, -1]) and np.isfinite(solves[0].reshape(K * S, 40)[:-1]).all()
            for k, j in np.ndindex(K, S):
                one = filtering._discount_solve(gamma[j : j + 1], rhs[k : k + 1, j : j + 1])
                assert np.array_equal(one[0, 0], solves[0][k, j])

    def test_two_row_stack_rows_equal_one_row_calls(self):
        # the DM5 sweep filters its current and proposed gamma on one set of
        # multipliers as a two-row stack, then backward-samples the kept row
        counts, design, betas, _ = _draw_set(1, T=150, seed=9)
        mult = linear_predictor(design, betas)[0]
        gammas = np.array([0.62, 0.71])
        pair = filter_core(counts, np.stack((mult, mult)), gammas, 50.0, 2.0)
        totals = pair.total_log_predictive
        for j in range(2):
            one, row = filter_core(counts, mult[None], gammas[j : j + 1], 50.0, 2.0), pair.row(j)
            for name in ("a", "b", "gamma", "log_predictive", "multipliers"):
                assert np.array_equal(getattr(row, name), getattr(one, name))
            assert totals[j] == row.total_log_predictive[0] == one.total_log_predictive[0]
            assert np.array_equal(ffbs_sample(row, RngStream(3)), ffbs_sample(one, RngStream(3)))

    def test_default_dispatch_matches_reference_loop(self):
        # both round gamma*x and then the sum, so the states are equal; the
        # log-predictive's cancelling lgamma terms may still round apart
        # under a SIMD dispatch, so bound it by their own size
        counts, design, betas, gammas = _draw_set(8, T=150, seed=8)
        for beta, g in zip(betas, gammas):
            mult = linear_predictor(design, beta[None])
            traj = filter_core(counts, mult, [g], 50.0, 2.0)
            a, b, log_pred = _loop_filter(counts, mult[0], g, 50.0, 2.0)
            assert np.array_equal(traj.a[0], a) and np.array_equal(traj.b[0], b)
            r = g * a[:-1]
            scale = np.abs(special.gammaln(r + counts)) + np.abs(special.gammaln(r))
            assert np.all(np.abs(traj.log_predictive[0] - log_pred) <= 1e-14 * scale)

    def test_overflowing_row_leaves_next_row_intact(self):
        # row 0's last rate state overflows to inf; the zero coupling at the
        # next row start must not turn row 1 into NaN
        mult = np.array([[1e308, 1e308], [1.0, 2.0]])
        traj = filter_core([1, 2], mult, np.array([1.0, 0.5]), 1.0, 1.0)
        assert np.isinf(traj.b[0, -1])
        one = filter_core([1, 2], mult[1:], [0.5], 1.0, 1.0)
        assert np.array_equal(traj.b[1], one.b[0]) and np.array_equal(traj.a[1], one.a[0])
