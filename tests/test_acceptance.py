"""Acceptance gate: the oracle- and property-based exit criteria for the package.

Each test runs one criterion at its stated tolerance and prints a single
pass/fail line (visible with ``pytest -s`` or in captured output). Criteria
use brute-force numerical oracles, simulation-based calibration and hand-worked
arithmetic; none depend on proprietary data.
"""

import json
import math
import time

import numpy as np

from dynpois.cli import run_command
from dynpois.evaluation import (
    compare_models,
    ewma_recursion,
    forecast_metrics,
    harmonic_mean_logml,
    per_draw_log_predictives,
    select_ewma_nu,
)
from dynpois.filtering import ffbs_sample, filter_core
from dynpois.kernels import GammaParams, RngStream
from dynpois.mcmc import MhConfig, fit_dm5, fit_dm_static, tau_full_conditional
from dynpois.model import (
    CountSeries,
    DesignMatrix,
    ModelSpec,
    PriorConfig,
    build_design,
    simulate_cohort,
)
from oracles import (
    density_mean_var,
    grid_filter,
    grid_smoother,
    log_pdf_gamma,
    log_pmf_negbin,
    one_step_predictive,
    predict_step,
    tv_distance,
)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {name}" + (f" — {detail}" if detail else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


def _series(counts):
    return CountSeries(np.arange(1, len(counts) + 1), list(counts))


def test_01_conjugacy_oracle():
    """Filtering posterior matches a brute-force grid-integration filter."""
    t0 = time.time()
    gen = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(25):
        T = int(gen.integers(1, 6))
        counts = gen.integers(1, 21, size=T)
        gamma = float(gen.uniform(0.45, 0.9))
        a0 = float(gen.uniform(3.0, 8.0))
        b0 = float(gen.uniform(0.5, 2.0))
        traj = filter_core(counts, np.ones(T), gamma, a0, b0)
        x, filt = grid_filter(counts, np.ones(T), gamma, a0, b0, n_grid=10_000, n_quad=400)
        exact = np.exp(log_pdf_gamma(x, GammaParams(float(traj.a[-1]), float(traj.b[-1]))))
        worst = max(worst, tv_distance(x, filt[-1], exact))
    elapsed = time.time() - t0
    _report(
        1,
        "conjugacy vs grid-integration oracle",
        worst < 1e-3 and elapsed < 60.0,
        f"worst TV {worst:.2e} (<1e-3), {elapsed:.1f}s (<60s), 25 instances",
    )


def test_02_static_reduction_bit_exact():
    """gamma = 1 with no covariates reduces to static conjugate updating exactly."""
    gen = np.random.default_rng(1002)
    ok = True
    for _ in range(20):
        T = int(gen.integers(1, 40))
        counts = gen.integers(0, 50, size=T)
        a0 = float(gen.integers(1, 10))
        b0 = float(gen.integers(1, 10))
        traj = filter_core(counts, np.ones(T), 1.0, a0, b0)
        ok = ok and traj.a[-1] == a0 + counts.sum() and traj.b[-1] == b0 + T
    _report(2, "static reduction a_T = a0 + sum(N), b_T = b0 + T", ok, "bit-exact on 20 instances")


def test_03_predictive_correctness():
    """One-step negbin pmf matches the Monte Carlo gamma-Poisson mixture; mean identity."""
    gen = np.random.default_rng(1003)
    rng = RngStream(1003)
    # Monte Carlo mixture check
    a, b, gamma, mult = 6.0, 1.5, 0.6, 1.7
    predicted = predict_step(GammaParams(a, b), gamma)
    nb = one_step_predictive(predicted, mult)
    n_draws = 1_000_000
    thetas = rng.generator.gamma(shape=predicted.shape, scale=1.0 / predicted.rate, size=n_draws)
    counts = rng.generator.poisson(thetas * mult)
    k_max = int(counts.max())
    empirical = np.bincount(counts, minlength=k_max + 1) / n_draws
    pmf = np.exp(log_pmf_negbin(np.arange(k_max + 1), nb))
    tail = 1.0 - pmf.sum()
    tv = 0.5 * (np.abs(empirical - pmf).sum() + abs(tail))
    # mean identity on random states
    worst_rel = 0.0
    for _ in range(100):
        ra = float(gen.uniform(0.2, 60.0))
        rb = float(gen.uniform(0.1, 20.0))
        rg = float(gen.uniform(0.05, 0.99))
        rm = float(gen.uniform(0.1, 5.0))
        nb_r = one_step_predictive(predict_step(GammaParams(ra, rb), rg), rm)
        worst_rel = max(worst_rel, abs(nb_r.mean() - ra / rb * rm) / (ra / rb * rm))
    _report(
        3,
        "one-step predictive pmf and mean",
        tv < 0.01 and worst_rel < 1e-12,
        f"MC mixture TV {tv:.4f} (<0.01) at 1e6 draws; mean identity worst rel {worst_rel:.1e} (<1e-12)",
    )


def test_04_ffbs_matches_grid_smoothing():
    """Backward-sampled path marginals match grid smoothing; ordering always holds."""
    counts = [4, 7, 2]
    gamma, a0, b0 = 0.6, 4.0, 1.0
    traj = filter_core(counts, np.ones(3), gamma, a0, b0)
    rng = RngStream(1004)
    S = 100_000
    paths = np.array([ffbs_sample(traj, rng) for _ in range(S)])
    ordering = bool(np.all(paths[:, :-1] > gamma * paths[:, 1:]))

    x, smooth = grid_smoother(counts, [1.0] * 3, gamma, a0, b0)
    ok = ordering
    details = []
    for t in (0, 1):  # theta_1 and theta_2
        gm, gv = density_mean_var(x, smooth[t])
        sample = paths[:, t]
        mean_dev = abs(sample.mean() - gm) / (sample.std(ddof=1) / math.sqrt(S))
        m4 = np.mean((sample - sample.mean()) ** 4)
        var_se = math.sqrt(max(m4 - sample.var(ddof=1) ** 2, 1e-300) / S)
        var_dev = abs(sample.var(ddof=1) - gv) / var_se
        ok = ok and mean_dev < 3.0 and var_dev < 3.0
        details.append(f"theta_{t+1} mean {mean_dev:.2f}se var {var_dev:.2f}se")
    _report(
        4,
        "backward sampling vs grid smoothing",
        ok,
        "; ".join(details) + f"; ordering {100.0 * ordering:.0f}%",
    )


def test_05_harmonic_mean_point_mass():
    """Point-mass discount prior: the harmonic-mean estimate equals the exact value."""
    gamma0 = 0.55
    counts = [6, 3, 8, 4, 9, 2, 5]
    series = _series(counts)
    design = DesignMatrix.empty(7)
    priors = PriorConfig(a0=3.0, b0=1.0, gamma_prior="fixed", gamma_fixed_value=gamma0)
    cfg = MhConfig(iterations=10_000, burn_in=0)
    draws = fit_dm_static(series, design, ModelSpec("DM1"), priors, cfg, RngStream(1005), smooth=False)
    assert draws.S == 10_000
    log_f = per_draw_log_predictives(series, design, draws, priors)
    estimate = harmonic_mean_logml(log_f.sum(axis=1))
    exact = filter_core(series.counts, np.ones(7), gamma0, priors.a0, priors.b0).total_log_predictive
    _report(
        5,
        "harmonic-mean log marginal likelihood, point-mass prior",
        abs(estimate - exact) < 0.5,
        f"|estimate - exact| = {abs(estimate - exact):.2e} (<0.5) at S=10000",
    )


def test_06_parameter_recovery_coverage():
    """95% posterior intervals cover the simulated truth in at least 16/20 replicates."""
    t0 = time.time()
    true_beta = np.array([0.7, -0.6])
    priors = PriorConfig(a0=200.0, b0=2.0)
    T = 150
    covered = np.zeros(3, dtype=int)  # beta_1, beta_2, gamma
    n_rep = 20
    for rep in range(n_rep):
        true_gamma = 0.3 if rep % 2 == 0 else 0.7
        rng = RngStream(77_000 + rep)
        cov = {
            "z1": rng.substream(1).generator.normal(size=T),
            "z2": rng.substream(2).generator.normal(size=T),
        }
        spec = ModelSpec("DM2", ("z1", "z2"))
        design = build_design(cov, spec, T)
        truth = simulate_cohort(priors, true_gamma, true_beta, design, T, rng.substream(3))
        cfg = MhConfig(iterations=9000, burn_in=2000)
        draws = fit_dm_static(truth.counts, design, spec, priors, cfg, rng.substream(4), smooth=False)
        for i in range(2):
            lo, hi = np.percentile(draws.beta[:, i], [2.5, 97.5])
            covered[i] += int(lo <= true_beta[i] <= hi)
        lo, hi = np.percentile(draws.gamma, [2.5, 97.5])
        covered[2] += int(lo <= true_gamma <= hi)
    elapsed = time.time() - t0
    ok = bool(np.all(covered >= 16)) and elapsed < 600.0
    _report(
        6,
        "simulation-based interval coverage (T=150, p=2)",
        ok,
        f"coverage beta1 {covered[0]}/20, beta2 {covered[1]}/20, gamma {covered[2]}/20 (>=16); {elapsed:.0f}s (<600s)",
    )


def test_07_model_ranking():
    """With strong covariate signal the covariate model outranks the plain one."""
    priors = PriorConfig(a0=120.0, b0=2.0)
    T = 100
    wins_ml = wins_cpo = 0
    n_rep = 10
    for rep in range(n_rep):
        rng = RngStream(30_000 + rep)
        cov = {"z": rng.substream(1).generator.normal(size=T)}
        spec2 = ModelSpec("DM2", ("z",))
        design = build_design(cov, spec2, T)
        truth = simulate_cohort(priors, 0.6, np.array([0.9]), design, T, rng.substream(2))
        cfg = MhConfig(iterations=1500, burn_in=500)
        report = compare_models(truth.counts, cov, [ModelSpec("DM1"), spec2], priors, cfg, rng.substream(3))
        wins_ml += int(report.log_marginal_likelihood["DM2"] > report.log_marginal_likelihood["DM1"])
        wins_cpo += int(report.log_cpo["DM2"] > report.log_cpo["DM1"])
    _report(
        7,
        "model ranking: covariates beat no-covariates on strong signal",
        wins_ml >= 8 and wins_cpo >= 8,
        f"logML wins {wins_ml}/10, logCPO wins {wins_cpo}/10 (>=8)",
    )


def test_08_forecast_metric_arithmetic():
    """Accuracy metrics reproduce the hand-worked examples exactly."""
    m = forecast_metrics([10, 20], [8, 25], intervals=[(5, 15), (30, 40)])
    ok = (
        m["mape"] == 0.225
        and m["rmse"] == math.sqrt(14.5)
        and m["mcov"] == 0.5
        and m["mwid"] == 10.0
    )
    _report(8, "metric arithmetic (MAPE/RMSE/MCov/MWid)", ok,
            f"mape={m['mape']}, rmse={m['rmse']:.6f}, mcov={m['mcov']}, mwid={m['mwid']}")


def test_09_ewma_benchmark():
    """Smoothing-constant selection matches a fine-grid oracle; recursion is exact."""
    preds = ewma_recursion(np.array([10.0, 20.0, 30.0]), 0.5)
    recursion_ok = preds.tolist() == [10.0, 10.0, 15.0]
    gen = np.random.default_rng(1009)
    worst_gap = 0.0
    for _ in range(10):
        counts = gen.poisson(25, size=40).astype(float) + 1.0
        coarse, _ = select_ewma_nu(counts, grid_step=0.01)
        fine, _ = select_ewma_nu(counts, grid_step=0.001)
        worst_gap = max(worst_gap, abs(coarse - fine))
    ok = recursion_ok and worst_gap <= 0.01 + 1e-12
    _report(9, "EWMA benchmark selection and recursion", ok,
            f"recursion exact: {recursion_ok}; worst |nu - nu_fine| = {worst_gap:.3f} (<=0.01)")


def test_10_dm5_tracks_drifting_coefficients():
    """Time-varying fit beats the constant fit against a drifting coefficient path."""
    t0 = time.time()
    # hand-checkable full conditional of the random-walk precision
    priors_tau = PriorConfig(tau_shape=0.001, tau_rate=0.001)
    shape, rates = tau_full_conditional(np.array([[1.0], [1.5], [1.0]]), priors_tau)
    tau_ok = shape == 0.001 + 1.0 and rates.tolist() == [0.001 + 0.25]

    priors = PriorConfig(a0=150.0, b0=2.0)
    T = 90
    wins = 0
    n_rep = 10
    for rep in range(n_rep):
        rng = RngStream(40_000 + rep)
        cov = {"z": rng.substream(1).generator.normal(size=T)}
        design = build_design(cov, ModelSpec("DM2", ("z",)), T)
        beta_path = np.linspace(-0.6, 0.6, T).reshape(-1, 1)
        truth = simulate_cohort(priors, 0.7, beta_path, design, T, rng.substream(2))
        cfg5 = MhConfig(iterations=1200, burn_in=400)
        dm5 = fit_dm5(truth.counts, design, priors, cfg5, rng.substream(3), smooth=False)
        cfg2 = MhConfig(iterations=2000, burn_in=500)
        dm2 = fit_dm_static(truth.counts, design, ModelSpec("DM2", ("z",)), priors, cfg2, rng.substream(4), smooth=False)
        mse5 = float(np.mean((dm5.beta[:, :, 0].mean(axis=0) - beta_path[:, 0]) ** 2))
        mse2 = float(np.mean((dm2.beta[:, 0].mean() - beta_path[:, 0]) ** 2))
        wins += int(mse5 < mse2)
    elapsed = time.time() - t0
    ok = tau_ok and wins >= 8
    _report(10, "time-varying coefficients track a drifting path", ok,
            f"tau conditional exact: {tau_ok}; DM5 beats DM2 in {wins}/10 (>=8); {elapsed:.0f}s")


def cli_gate_commands(tmp_path):
    """The gate-11 CLI runs, in order, as (name, argv builder taking the output dir).

    Writes the configs into ``tmp_path``; every command after simulate reads
    the cohort that simulate writes to ``tmp_path / "simulate_a"``.
    """
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({
        "simulate": {"T": 40, "gamma": 0.6, "beta": [0.4], "n_covariates": 1},
        "prior": {"a0": 100.0, "b0": 2.0},
    }))
    fit_cfg = tmp_path / "fit.json"
    fit_cfg.write_text(json.dumps({
        "prior": {"a0": 100.0, "b0": 2.0},
        "mcmc": {"iterations": 500, "burn_in": 100, "thinning": 1, "proposal_scale": 1.0},
        "forecast": {"start_origin": 38, "end_origin": 40,
                     "mcmc": {"iterations": 300, "burn_in": 50, "thinning": 1, "proposal_scale": 1.0}},
        "compare": {"models": ["DM1", "DM2"]},
    }))
    data = str(tmp_path / "simulate_a" / "cohort.csv")
    return [
        ("simulate", lambda out: ["simulate", "--config", str(sim_cfg), "--model", "DM2",
                                  "--seed", "5", "--out", str(out)]),
        ("fit", lambda out: ["fit", "--config", str(fit_cfg), "--model", "DM2", "--seed", "7",
                             "--data", data, "--out", str(out)]),
        ("forecast", lambda out: ["forecast", "--config", str(fit_cfg), "--model", "DM1",
                                  "--seed", "8", "--data", data, "--out", str(out)]),
        ("compare", lambda out: ["compare", "--config", str(fit_cfg), "--seed", "9",
                                 "--data", data, "--out", str(out)]),
    ]


def test_11_cli_reproducibility(tmp_path):
    """Every command with a fixed seed produces byte-identical output directories."""

    def run_twice(name, argv_fn):
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}"
            code, _ = run_command(argv_fn(out))
            assert code == 0
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        return all((dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in names)

    identical = all(run_twice(name, argv_fn) for name, argv_fn in cli_gate_commands(tmp_path))
    _report(11, "CLI byte-identical reruns (simulate/fit/forecast/compare)", identical,
            "4 commands x 2 runs compared byte-for-byte")
