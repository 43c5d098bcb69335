"""Batch command-line surface.

Subcommands: simulate, fit, forecast, compare, report. Every run resolves its
configuration (JSON file plus flag overrides plus defaults), echoes it back as
resolved_config.json, and writes result tables into the output directory.
Exit codes: 0 success, 2 validation error, 3 numeric failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io
from .evaluation import ComparisonReport, ForecastReport, compare_models, sequential_harness
from .kernels import DomainError, NumericDegeneracyError, RngStream
from .mcmc import (
    FitError,
    MhConfig,
    diagnostics,
    fit_variant,
    posterior_summary,
)
from .model import (
    MODEL_VARIANTS,
    ModelSpec,
    PriorConfig,
    build_design,
    simulate_cohort,
    simulate_dm5_coefficients,
    standardize_covariates,
)

DEFAULT_CONFIG = {
    "model": "DM1",
    "seed": None,
    "covariate_columns": [],
    "standardize_covariates": False,
    "start_month": 1,
    "smooth": True,
    "prior": {
        "a0": 1.0,
        "b0": 1.0,
        "gamma_prior": "uniform",
        "gamma_beta_ab": [3.0, 3.0],
        "gamma_grid_step": 0.01,
        "gamma_fixed_value": 0.5,
        "beta_sd": 10.0,
        "tau_shape": 0.001,
        "tau_rate": 0.001,
    },
    "mcmc": {
        "iterations": 10000,
        "burn_in": 2000,
        "thinning": 1,
        "proposal_scale": 1.0,
    },
    "forecast": {
        "start_origin": None,
        "end_origin": None,
        "mcmc": {
            "iterations": 2000,
            "burn_in": 500,
            "thinning": 1,
            "proposal_scale": 1.0,
        },
    },
    "compare": {
        "models": ["DM1", "DM2"],
    },
    "simulate": {
        "T": 120,
        "gamma": 0.5,
        "beta": [],
        "tau": [],
        "n_covariates": None,
        "covariate_sd": 1.0,
    },
}

# DM5 runs much longer chains by default
DM5_MCMC_DEFAULT = {"iterations": 80000, "burn_in": 30000, "thinning": 10, "proposal_scale": 1.0}


@dataclass
class RunArtifacts:
    resolved_config: dict
    summary: dict = field(default_factory=dict)
    summary_rows: list | None = None
    fit_table: tuple | None = None  # (header, rows)
    forecast_report: ForecastReport | None = None
    comparison: ComparisonReport | None = None
    chain_diagnostics: object | None = None
    extra_tables: dict = field(default_factory=dict)  # filename -> (header, rows)
    files: list = field(default_factory=list)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise io.ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dynpois", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "fit", "forecast", "compare", "report"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", type=str, default=None)
        cmd.add_argument("--data", type=str, default=None)
        cmd.add_argument("--out", type=str, required=True)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--model", type=str, default=None, choices=MODEL_VARIANTS)
    return parser


def _merge(base: dict, override: dict, path="") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise io.ValidationError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge(base[key], value, path=f"{path}{key}.")
        else:
            out[key] = copy.deepcopy(value)
    return out


def resolve_config(args) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    user = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                user = json.load(fh)
            except json.JSONDecodeError as exc:
                raise io.ValidationError(f"config is not valid JSON: {exc}") from None
        if not isinstance(user, dict):
            raise io.ValidationError("config must be a JSON object")
        cfg = _merge(cfg, user)
    if args.model is not None:
        cfg["model"] = args.model
    if args.seed is not None:
        cfg["seed"] = args.seed
    if cfg["model"] not in MODEL_VARIANTS:
        raise io.ValidationError(f"unknown model {cfg['model']!r}")
    if cfg["seed"] is None:
        raise io.ValidationError("a seed is required (pass --seed or set it in the config)")
    if not (0 <= int(cfg["seed"]) < 2**64):
        raise io.ValidationError("seed must be an unsigned 64-bit integer")
    cfg["seed"] = int(cfg["seed"])
    # the time-varying model needs far longer chains; swap in its defaults
    # unless the user configured the chain explicitly, so the echoed config
    # reflects what actually runs
    if cfg["model"] == "DM5" and "mcmc" not in user:
        cfg["mcmc"] = dict(DM5_MCMC_DEFAULT)
    return cfg


def _prior_from_config(cfg: dict) -> PriorConfig:
    p = cfg["prior"]
    try:
        return PriorConfig(
            a0=float(p["a0"]),
            b0=float(p["b0"]),
            gamma_prior=p["gamma_prior"],
            gamma_beta_ab=tuple(p["gamma_beta_ab"]),
            gamma_grid_step=float(p["gamma_grid_step"]),
            gamma_fixed_value=float(p["gamma_fixed_value"]),
            beta_sd=float(p["beta_sd"]),
            tau_shape=float(p["tau_shape"]),
            tau_rate=float(p["tau_rate"]),
        )
    except DomainError as exc:
        raise io.ValidationError(f"prior config: {exc}") from None


def _mh_from_config(block: dict, seed: int) -> MhConfig:
    values = dict(block)
    try:
        return MhConfig(
            iterations=int(values["iterations"]),
            burn_in=int(values["burn_in"]),
            thinning=int(values["thinning"]),
            proposal_scale=float(values["proposal_scale"]),
            seed=seed,
        )
    except DomainError as exc:
        raise io.ValidationError(f"mcmc config: {exc}") from None


def _selected_covariates(cfg: dict, available: dict, variant: str) -> ModelSpec:
    if variant in ("DM1", "EWMA"):
        return ModelSpec(variant)
    requested = tuple(cfg["covariate_columns"])
    for name in requested:
        if name not in available:
            raise io.ValidationError(f"covariate column {name!r} not present in the data")
    return ModelSpec(variant, requested or tuple(available))


def _standardized(cfg, covariates: dict) -> dict:
    return standardize_covariates(covariates) if cfg["standardize_covariates"] else covariates


def _load_data(args, cfg):
    if not args.data:
        raise io.ValidationError("this command requires --data <csv>")
    series, covariates = io.ingest_csv(args.data)
    return series, _standardized(cfg, covariates)


def _design(cfg, covariates, spec, T):
    return build_design(covariates, spec, T, start_month=int(cfg["start_month"]))


def run_command(argv) -> tuple:
    """Parse argv, run the requested command, emit reports.

    Returns (exit_code, RunArtifacts | None). On failure a machine-readable
    error object is printed to stdout.
    """
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        handler = {
            "simulate": _cmd_simulate,
            "fit": _cmd_fit,
            "forecast": _cmd_forecast,
            "compare": _cmd_compare,
            "report": _cmd_report,
        }[args.command]
        artifacts = handler(args, cfg, out_dir)
        emit_reports(artifacts, out_dir)
        return 0, artifacts
    except (io.ValidationError, DomainError) as exc:
        _print_error(exc, 2)
        return 2, None
    except (NumericDegeneracyError, FitError, FloatingPointError) as exc:
        _print_error(exc, 3)
        return 3, None
    except OSError as exc:
        _print_error(exc, 4)
        return 4, None
    except ValueError as exc:
        # e.g. non-finite scores reaching the JSON writer
        _print_error(exc, 3)
        return 3, None


def _print_error(exc: Exception, code: int):
    payload = {"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}}
    print(json.dumps(payload, sort_keys=True))


def main() -> None:
    code, _ = run_command(sys.argv[1:])
    raise SystemExit(code)


def _rng(cfg: dict, stream_id: int = 0) -> RngStream:
    return RngStream(cfg["seed"], stream_id)


def _cmd_simulate(args, cfg, out_dir) -> RunArtifacts:
    sim = cfg["simulate"]
    variant = cfg["model"]
    if variant in ("BPM", "EWMA"):
        raise io.ValidationError(f"simulate supports the dynamic models, not {variant}")
    T = int(sim["T"])
    if T < 1:
        raise io.ValidationError("simulate.T must be at least 1")
    gamma = float(sim["gamma"])
    beta = np.asarray(sim["beta"], dtype=float)
    rng = _rng(cfg)

    n_cov = sim["n_covariates"]
    if variant == "DM1":
        n_cov = 0
    elif n_cov is None:
        # whatever beta leaves over after trend/seasonal terms
        n_cov = len(beta) - ModelSpec(variant).p
    n_cov = int(n_cov)
    if n_cov < 0:
        raise io.ValidationError("simulate.beta is shorter than the trend/seasonal terms require")
    cov_names = tuple(f"z{i+1}" for i in range(n_cov))
    cov_rng = rng.substream(0)
    covariates = {
        name: cov_rng.generator.normal(0.0, float(sim["covariate_sd"]), size=T)
        for name in cov_names
    }
    spec = ModelSpec(variant, cov_names)
    # cohort.csv keeps the raw covariates
    design = _design(cfg, _standardized(cfg, covariates), spec, T)
    if variant != "DM1" and len(beta) != design.p:
        raise io.ValidationError(
            f"simulate.beta has {len(beta)} entries but the design needs {design.p}"
        )

    priors = _prior_from_config(cfg)
    if variant == "DM5":
        tau = np.asarray(sim["tau"], dtype=float)
        if tau.size != design.p:
            raise io.ValidationError("simulate.tau needs one precision per design column")
        beta = simulate_dm5_coefficients(beta, tau, T, rng.substream(1))
    truth = simulate_cohort(priors, gamma, beta, design, T, rng.substream(2))

    header = ["month_index", "count", *cov_names]
    rows = [
        [t + 1, int(truth.counts.counts[t]), *(covariates[c][t] for c in cov_names)]
        for t in range(T)
    ]
    artifacts = RunArtifacts(resolved_config=cfg)
    artifacts.extra_tables["cohort.csv"] = (header, rows)
    truth_payload = {
        "model": variant,
        "gamma": gamma,
        "beta": truth.beta.tolist(),
        "theta0": truth.theta0,
        "theta_path": truth.theta_path.tolist(),
    }
    if variant == "DM5":
        truth_payload["tau"] = np.asarray(sim["tau"], dtype=float).tolist()
    artifacts.summary = {"command": "simulate", "model": variant, "T": T, "truth": truth_payload}
    return artifacts


def _fit_draws(cfg, series, covariates, rng):
    variant = cfg["model"]
    if variant == "EWMA":
        raise io.ValidationError("EWMA is a forecasting benchmark; use the forecast command")
    spec = _selected_covariates(cfg, covariates, variant)
    design = _design(cfg, covariates, spec, series.T)
    priors = _prior_from_config(cfg)
    config = _mh_from_config(cfg["mcmc"], cfg["seed"])
    draws = fit_variant(spec, series, design, priors, config, rng, smooth=bool(cfg["smooth"]))
    return draws, spec, design, priors, config


def _cmd_fit(args, cfg, out_dir) -> RunArtifacts:
    series, covariates = _load_data(args, cfg)
    draws, spec, design, priors, config = _fit_draws(cfg, series, covariates, _rng(cfg))
    artifacts = RunArtifacts(resolved_config=cfg)
    artifacts.summary_rows = posterior_summary(draws)
    artifacts.chain_diagnostics = diagnostics(draws)
    artifacts.summary = {
        "command": "fit",
        "model": spec.variant,
        "T": series.T,
        "acceptance_rate": draws.acceptance_rate,
        "posterior": {r["parameter"]: {k: r[k] for k in ("q25", "mean", "q75", "sd")}
                      for r in artifacts.summary_rows},
    }
    if draws.theta is not None:
        artifacts.fit_table = io.fit_csv_rows(series.counts, draws.theta)
    elif draws.variant == "BPM":
        rates = np.exp(draws.beta @ design.rows.T)
        artifacts.fit_table = io.fit_csv_rows(series.counts, rates)
    return artifacts


def _cmd_report(args, cfg, out_dir) -> RunArtifacts:
    artifacts = _cmd_fit(args, cfg, out_dir)
    artifacts.summary["command"] = "report"
    artifacts.summary_rows = None
    artifacts.chain_diagnostics = None
    return artifacts


def _cmd_forecast(args, cfg, out_dir) -> RunArtifacts:
    series, covariates = _load_data(args, cfg)
    variant = cfg["model"]
    fc = cfg["forecast"]
    if fc["start_origin"] is None or fc["end_origin"] is None:
        raise io.ValidationError("forecast.start_origin and forecast.end_origin are required")
    window = (int(fc["start_origin"]), int(fc["end_origin"]))
    spec = _selected_covariates(cfg, covariates, variant)
    design = _design(cfg, covariates, spec, series.T)
    priors = _prior_from_config(cfg)
    config = _mh_from_config(fc["mcmc"], cfg["seed"])
    report = sequential_harness(series, design, spec, priors, config, window, rng=_rng(cfg))
    artifacts = RunArtifacts(resolved_config=cfg)
    artifacts.forecast_report = report
    artifacts.summary = {
        "command": "forecast",
        "model": variant,
        "window": list(window),
        "forecast_metrics": io.forecast_report_payload(report),
    }
    return artifacts


def _cmd_compare(args, cfg, out_dir) -> RunArtifacts:
    series, covariates = _load_data(args, cfg)
    roster = list(cfg["compare"]["models"])
    if not roster:
        raise io.ValidationError("compare.models must list at least one model")
    specs = []
    for variant in roster:
        if variant not in MODEL_VARIANTS:
            raise io.ValidationError(f"unknown model {variant!r} in compare.models")
        specs.append(_selected_covariates(cfg, covariates, variant))
    priors = _prior_from_config(cfg)
    report = compare_models(
        series,
        covariates,
        specs,
        priors,
        _mh_from_config(cfg["mcmc"], cfg["seed"]),
        _rng(cfg),
        start_month=int(cfg["start_month"]),
    )
    artifacts = RunArtifacts(resolved_config=cfg)
    artifacts.comparison = report
    artifacts.summary = {
        "command": "compare",
        "models": list(report.models),
        "ranking": sorted(
            report.models, key=lambda m: report.log_marginal_likelihood[m], reverse=True
        ),
    }
    return artifacts


def emit_reports(artifacts: RunArtifacts, out_dir) -> list:
    """Write resolved_config.json plus whichever result tables the run produced."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    def emit_json(name, payload):
        io.write_json(out_dir / name, payload)
        written.append(name)

    def emit_csv(name, table):
        io.write_csv(out_dir / name, table[0], table[1])
        written.append(name)

    emit_json("resolved_config.json", artifacts.resolved_config)
    emit_json("summary.json", artifacts.summary)
    if artifacts.summary_rows is not None:
        emit_csv("summary.csv", io.summary_csv_rows(artifacts.summary_rows))
    if artifacts.fit_table is not None:
        emit_csv("fit.csv", artifacts.fit_table)
    if artifacts.forecast_report is not None:
        emit_csv("forecast.csv", io.forecast_csv_rows(artifacts.forecast_report))
    if artifacts.comparison is not None:
        emit_json("comparison.json", io.comparison_payload(artifacts.comparison))
    if artifacts.chain_diagnostics is not None:
        emit_csv("diagnostics.csv", io.diagnostics_csv_rows(artifacts.chain_diagnostics))
    for name, table in artifacts.extra_tables.items():
        emit_csv(name, table)
    artifacts.files = written
    return [out_dir / name for name in written]
