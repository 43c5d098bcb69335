"""The four benchmark workloads: cohort simulation, CLI configuration and output checks.

Cohorts are simulated here, with the benchmark's own numpy generator, and never
with ``dynpois.simulate_cohort``: a change to the program's random-number use
must not change the benchmark's inputs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

T = 150
TRUE_GAMMA = 0.7
TRUE_BETA = (0.5, -0.4)
A0, B0 = 200.0, 2.0
DM5_TAU = (400.0, 400.0)  # random-walk precisions: steps of sd 0.05 per month
PRIOR = {"a0": A0, "b0": B0}

# The seed defaults run 10000 static steps for 8000 retained draws and 80000
# DM5 sweeps for 5000 retained draws; both ratios (1.25 and 16) are kept.
STATIC_MCMC = {"iterations": 2500, "burn_in": 500, "thinning": 1, "proposal_scale": 1.0}
DM5_MCMC = {"iterations": 960, "burn_in": 360, "thinning": 10, "proposal_scale": 1.0}
FORECAST_ORIGINS = (141, 150)
ROSTER = ("DM1", "DM2", "DM4", "BPM")

# Stated distance of the DM2 posterior means from the simulated truth. At T=150
# the posterior sd is about 0.01 for each beta and 0.045 for gamma.
BETA_TOLERANCE = 0.1
GAMMA_TOLERANCE = 0.2


@dataclass(frozen=True)
class Cohort:
    counts: np.ndarray
    covariates: np.ndarray  # (T, 2)


REFERENCE_SEED = 2013


def cohort_seed(seed: int, index: int) -> int:
    """The seed of cohort ``index`` of a run; it seeds both the simulation and the chain.

    Cohort 0 is the reference cohort, the same for every run seed: its ESS and
    output digest then change only when the program does. A sampler that
    yields about one effective draw per second cannot have its ESS estimated
    steadily from one run's chains, so seed-varied chains would bury any
    change in estimator noise.
    """
    entropy = [REFERENCE_SEED] if index == 0 else [seed, index]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint32)[0])


def simulate(kind: str, seed: int) -> Cohort:
    """One cohort from the gamma-discount model with two N(0, 1) covariates.

    ``kind`` is ``"static"`` for fixed coefficients or ``"dm5"`` for Gaussian
    random-walk coefficients starting at TRUE_BETA.
    """
    gen = np.random.default_rng([seed, 0 if kind == "static" else 5])
    z = gen.standard_normal((T, 2))
    beta = np.asarray(TRUE_BETA)
    if kind == "static":
        eta = z @ beta
    else:
        steps = gen.standard_normal((T - 1, 2)) / np.sqrt(DM5_TAU)
        path = np.vstack([beta, beta + np.cumsum(steps, axis=0)])
        eta = np.sum(z * path, axis=1)
    a, b = A0, B0
    theta = gen.gamma(a, 1.0 / b)
    counts = np.empty(T, dtype=int)
    for t in range(T):
        theta = theta / TRUE_GAMMA * gen.beta(TRUE_GAMMA * a, (1.0 - TRUE_GAMMA) * a)
        m = math.exp(eta[t])
        counts[t] = gen.poisson(theta * m)
        a = TRUE_GAMMA * a + counts[t]
        b = TRUE_GAMMA * b + m
    return Cohort(counts, z)


def write_cohort(cohort: Cohort, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("month_index,count,z1,z2\n")
        for t in range(T):
            z1, z2 = (float(v) for v in cohort.covariates[t])
            fh.write(f"{t + 1},{int(cohort.counts[t])},{z1!r},{z2!r}\n")


# ---------------------------------------------------------------- output checks


def _read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _non_finite_cells(path: Path) -> list:
    bad = []
    if path.suffix == ".csv":
        for row in _read_csv(path)[1:]:
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue  # a label such as a parameter name
                if not math.isfinite(value):
                    bad.append(cell)
    else:
        stack = [json.loads(path.read_text(encoding="utf-8"))]
        while stack:
            item = stack.pop()
            if isinstance(item, dict):
                stack.extend(item.values())
            elif isinstance(item, list):
                stack.extend(item)
            elif isinstance(item, float) and not math.isfinite(item):
                bad.append(item)
    return bad


def _table(path: Path) -> dict:
    """A CSV file as {first cell: row dict}, for tables keyed by their first column."""
    rows = _read_csv(path)
    return {row[0]: dict(zip(rows[0], row)) for row in rows[1:]}


def check_fit_dm2(out: Path, cohort: Cohort) -> list:
    post = json.loads((out / "summary.json").read_text())["posterior"]
    failures = []
    for name, truth in zip(("beta_z1", "beta_z2"), TRUE_BETA):
        if abs(post[name]["mean"] - truth) > BETA_TOLERANCE:
            failures.append(f"{name} mean {post[name]['mean']} is not within {BETA_TOLERANCE} of {truth}")
    if abs(post["gamma"]["mean"] - TRUE_GAMMA) > GAMMA_TOLERANCE:
        failures.append(f"gamma mean {post['gamma']['mean']} is not within {GAMMA_TOLERANCE} of {TRUE_GAMMA}")
    return failures + _check_fit_tables(out, cohort)


def check_fit_dm5(out: Path, cohort: Cohort) -> list:
    """Structural checks only: poor mixing shows in ess_per_s, not as a failure."""
    post = json.loads((out / "summary.json").read_text())["posterior"]
    failures = []
    if sorted(post) != ["gamma", "tau_z1", "tau_z2"]:
        failures.append(f"DM5 posterior parameters are {sorted(post)}")
    elif not 0.0 < post["gamma"]["mean"] < 1.0 or min(post[f"tau_z{i}"]["mean"] for i in (1, 2)) <= 0:
        failures.append("DM5 posterior means fall outside the parameter space")
    return failures + _check_fit_tables(out, cohort)


def _check_fit_tables(out: Path, cohort: Cohort) -> list:
    failures = []
    fit = _read_csv(out / "fit.csv")[1:]
    if [int(r[1]) for r in fit] != [int(n) for n in cohort.counts]:
        failures.append("fit.csv observed counts differ from the input cohort")
    if any(not (float(r[2]) > 0 and float(r[3]) <= float(r[4])) for r in fit):
        failures.append("fit.csv has a nonpositive theta_mean or a band with q2.5 > q97.5")
    diag = _table(out / "diagnostics.csv")
    summary = _table(out / "summary.csv")
    if sorted(diag) != sorted(summary):
        failures.append("diagnostics.csv and summary.csv list different parameters")
    if any(float(r["ess"]) < 1.0 for r in diag.values()):
        failures.append("an ESS in diagnostics.csv is below 1")
    return failures


def check_forecast_dm2(out: Path, cohort: Cohort) -> list:
    rows = _read_csv(out / "forecast.csv")[1:]
    reported = json.loads((out / "summary.json").read_text())["forecast_metrics"]
    origins = [int(r[0]) for r in rows]
    actual = np.array([float(r[1]) for r in rows])
    point = np.array([float(r[2]) for r in rows])
    lo = np.array([float(r[3]) for r in rows])
    hi = np.array([float(r[4]) for r in rows])
    failures = []
    if origins != list(range(FORECAST_ORIGINS[0], FORECAST_ORIGINS[1] + 1)):
        failures.append(f"forecast origins are {origins}")
        return failures
    if list(actual) != [float(cohort.counts[o - 1]) for o in origins]:
        failures.append("forecast.csv actuals differ from the input cohort")
    if np.any(lo > hi):
        failures.append("a forecast interval has lo95 > hi95")
    nonzero = actual > 0
    recomputed = {
        "mape": float(np.mean(np.abs(actual[nonzero] - point[nonzero]) / actual[nonzero])),
        "rmse": float(np.sqrt(np.mean((actual - point) ** 2))),
        "mcov": float(np.mean((lo < actual) & (actual < hi))),
    }
    for key, value in recomputed.items():
        if not math.isclose(value, reported[key], rel_tol=1e-12, abs_tol=1e-15):
            failures.append(f"{key} recomputed from forecast.csv is {value}, summary.json says {reported[key]}")
    return failures


def check_compare_roster(out: Path, cohort: Cohort) -> list:
    report = json.loads((out / "comparison.json").read_text())
    logml, logcpo, bf = report["log_marginal_likelihood"], report["log_cpo"], report["log_bayes_factors"]
    failures = []
    if sorted(logml) != sorted(ROSTER):
        return [f"comparison.json scores {sorted(logml)}"]
    for other in ("DM1", "BPM"):
        if not logml["DM2"] > logml[other]:
            failures.append(f"DM2 does not rank above {other} on log marginal likelihood")
        if not logcpo["DM2"] > logcpo[other]:
            failures.append(f"DM2 does not rank above {other} on log CPO")
    for m1 in ROSTER:
        for m2 in ROSTER:
            if bf[m1][m2] != -bf[m2][m1]:
                failures.append(f"log Bayes factors {m1}/{m2} are not antisymmetric")
    return failures


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # which cohort simulation feeds it
    args: tuple  # dynpois subcommand and flags, before --data/--seed/--out/--config
    config: dict
    files: tuple  # every output file the command must write
    check: Callable[[Path, Cohort], list]


_FIT_FILES = ("diagnostics.csv", "fit.csv", "resolved_config.json", "summary.csv", "summary.json")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fit_dm2", "static", ("fit", "--model", "DM2"),
            {"prior": PRIOR, "mcmc": STATIC_MCMC}, _FIT_FILES, check_fit_dm2,
        ),
        Workload(
            "fit_dm5", "dm5", ("fit", "--model", "DM5"),
            {"prior": PRIOR, "mcmc": DM5_MCMC}, _FIT_FILES, check_fit_dm5,
        ),
        Workload(
            "forecast_dm2", "static", ("forecast", "--model", "DM2"),
            {"prior": PRIOR, "forecast": {"start_origin": FORECAST_ORIGINS[0],
                                          "end_origin": FORECAST_ORIGINS[1]}},
            ("forecast.csv", "resolved_config.json", "summary.json"), check_forecast_dm2,
        ),
        Workload(
            "compare_roster", "static", ("compare",),
            {"prior": PRIOR, "mcmc": STATIC_MCMC, "compare": {"models": list(ROSTER)}},
            ("comparison.json", "resolved_config.json", "summary.json"), check_compare_roster,
        ),
    )
}


def check_outputs(workload: Workload, out: Path, cohort: Cohort) -> list:
    """Every failed output check of one command, as messages; empty when all pass."""
    present = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    if present != sorted(workload.files):
        return [f"output files are {present}, expected {sorted(workload.files)}"]
    failures = [
        f"{name} holds non-finite numbers {bad[:3]}"
        for name in workload.files
        if (bad := _non_finite_cells(out / name))
    ]
    try:
        return failures + workload.check(out, cohort)
    except (KeyError, ValueError, IndexError) as exc:
        return failures + [f"malformed output: {exc!r}"]
