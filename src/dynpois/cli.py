"""Batch command-line surface.

Subcommands: simulate, fit, forecast, compare, report. Every run resolves its
configuration (JSON file plus flag overrides plus defaults); each command
returns its output files as {file name: content}, and the run writes them,
plus the echoed resolved_config.json, into the output directory.
Exit codes: 0 success, 2 validation error, 3 numeric failure or refused
allocation, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import io
from .evaluation import compare_models, sequential_harness
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
    "prior": asdict(PriorConfig()),
    "mcmc": asdict(MhConfig()),
    "forecast": {
        "start_origin": None,
        "end_origin": None,
        "mcmc": {**asdict(MhConfig()), "iterations": 2000, "burn_in": 500},
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

# A config value must have the JSON type of its default, or of the example here
# where the default is None or empty; a bool is no number, and a float no int.
_EXAMPLES = {"seed": 0, "covariate_columns": [""], "forecast.start_origin": 0, "forecast.end_origin": 0,
             "simulate.beta": [0.0], "simulate.tau": [0.0], "simulate.n_covariates": 0}
_ACCEPTS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


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
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise io.ValidationError(f"config key {path + key!r} must be a JSON object")
            out[key] = _merge(base[key], value, path=f"{path}{key}.")
        else:
            if value is not None or base[key] is not None:
                _check_kind(value, _EXAMPLES.get(path + key, base[key]), path + key)
            out[key] = copy.deepcopy(value)
    return out


def _check_kind(value, example, key: str) -> None:
    """Raise ValidationError, naming ``key``, unless ``value`` has the JSON type of ``example``."""
    many = isinstance(example, (list, tuple))  # then value must be a list of the items' type
    kind = type(example[0] if many else example)
    items = value if many else [value]
    if not isinstance(items, list) or any(type(item) not in _ACCEPTS[kind] for item in items):
        noun = f"a list of {kind.__name__}" if many else kind.__name__
        raise io.ValidationError(f"config key {key!r} must be {noun}, got {value!r}")


def _finite_float(text: str) -> float:
    """Parse a config number; NaN, Infinity, -Infinity and numbers that overflow are rejected."""
    value = float(text)
    if not np.isfinite(value):
        raise io.ValidationError(f"config number {text} is not finite")
    return value


def resolve_config(args) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    user = {}
    if args.config:
        text = io.read_text(args.config, "config")
        try:
            user = json.loads(text, parse_float=_finite_float, parse_constant=_finite_float)
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
    if not (0 <= cfg["seed"] < 2**64):
        raise io.ValidationError("seed must be an unsigned 64-bit integer")
    # the time-varying model needs far longer chains: for fit and report, which
    # run --model's chain from mcmc, swap in its defaults unless the user
    # configured the chain explicitly, so the echoed config reflects what runs
    if cfg["model"] == "DM5" and "mcmc" not in user and args.command in ("fit", "report"):
        cfg["mcmc"] = dict(DM5_MCMC_DEFAULT)
    return cfg


def _from_block(cls, block: dict, name: str):
    """Build ``cls`` from a config block, casting each value to its default's type."""
    try:
        return cls(**{key: type(default)(block[key]) for key, default in asdict(cls()).items()})
    except DomainError as exc:
        raise io.ValidationError(f"{name} config: {exc}") from None


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
    return build_design(covariates, spec, T, start_month=cfg["start_month"])


def run_command(argv) -> tuple:
    """Parse argv, run the requested command, write its output files.

    Returns (exit_code, {file name: content} | None). On failure a
    machine-readable error object is printed to stdout.
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
            "report": lambda args, cfg: _cmd_fit(args, cfg, command="report"),
        }[args.command]
        outputs = {"resolved_config.json": cfg, **handler(args, cfg)}
        emit_reports(outputs, out_dir)
        return 0, outputs
    except (io.ValidationError, DomainError) as exc:
        _print_error(exc, 2)
        return 2, None
    except (NumericDegeneracyError, FitError, FloatingPointError, MemoryError) as exc:
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


def _cmd_simulate(args, cfg) -> dict:
    sim = cfg["simulate"]
    variant = cfg["model"]
    if variant in ("BPM", "EWMA"):
        raise io.ValidationError(f"simulate supports the dynamic models, not {variant}")
    T = sim["T"]
    if T < 1:
        raise io.ValidationError("simulate.T must be at least 1")
    gamma = float(sim["gamma"])
    beta = np.asarray(sim["beta"], dtype=float)
    rng = RngStream(cfg["seed"])

    n_cov = sim["n_covariates"]
    if n_cov is not None and n_cov < 0:
        raise io.ValidationError("simulate.n_covariates must be nonnegative")
    if variant == "DM1":
        if n_cov:
            raise io.ValidationError("simulate.n_covariates must be 0 or null for DM1, which takes no covariates")
        n_cov = 0
    elif n_cov is None:
        # whatever beta leaves over after trend/seasonal terms
        n_cov = len(beta) - ModelSpec(variant).p
    if n_cov < 0:
        raise io.ValidationError("simulate.beta is shorter than the trend/seasonal terms require")
    cov_names = tuple(f"z{i+1}" for i in range(n_cov))
    covariate_sd = float(sim["covariate_sd"])
    if covariate_sd < 0:
        raise io.ValidationError("simulate.covariate_sd must be nonnegative")
    cov_rng = rng.substream(0)
    covariates = {
        name: cov_rng.generator.normal(0.0, covariate_sd, size=T)
        for name in cov_names
    }
    spec = ModelSpec(variant, cov_names)
    # cohort.csv keeps the raw covariates
    design = _design(cfg, _standardized(cfg, covariates), spec, T)
    if len(beta) != design.p:
        raise io.ValidationError(
            f"simulate.beta has {len(beta)} entries but the design needs {design.p}"
        )

    priors = _from_block(PriorConfig, cfg["prior"], "prior")
    tau = np.asarray(sim["tau"], dtype=float)
    if variant == "DM5":
        if tau.size != design.p:
            raise io.ValidationError("simulate.tau needs one precision per design column")
        beta = simulate_dm5_coefficients(beta, tau, T, rng.substream(1))
    elif tau.size:
        raise io.ValidationError(f"simulate.tau must be empty for {variant}, whose coefficients are static")
    truth = simulate_cohort(priors, gamma, beta, design, T, rng.substream(2))

    header = ["month_index", "count", *cov_names]
    rows = [
        [t + 1, int(truth.counts.counts[t]), *(covariates[c][t] for c in cov_names)]
        for t in range(T)
    ]
    truth_payload = {
        "model": variant,
        "gamma": gamma,
        "beta": truth.beta.tolist(),
        "theta0": truth.theta0,
        "theta_path": truth.theta_path.tolist(),
    }
    if variant == "DM5":
        truth_payload["tau"] = tau.tolist()
    return {
        "summary.json": {"command": "simulate", "model": variant, "T": T, "truth": truth_payload},
        "cohort.csv": (header, rows),
    }


def _cmd_fit(args, cfg, command="fit") -> dict:
    """Fit the configured model; ``report`` is the same fit without the chain tables."""
    series, covariates = _load_data(args, cfg)
    variant = cfg["model"]
    if variant == "EWMA":
        raise io.ValidationError("EWMA is a forecasting benchmark; use the forecast command")
    spec = _selected_covariates(cfg, covariates, variant)
    design = _design(cfg, covariates, spec, series.T)
    priors = _from_block(PriorConfig, cfg["prior"], "prior")
    config = _from_block(MhConfig, cfg["mcmc"], "mcmc")
    draws = fit_variant(
        spec, series, design, priors, config, RngStream(cfg["seed"]), smooth=cfg["smooth"]
    )
    summary_rows = posterior_summary(draws)
    outputs = {
        "summary.json": {
            "command": command,
            "model": spec.variant,
            "T": series.T,
            "acceptance_rate": draws.acceptance_rate,
            "posterior": {r["parameter"]: {k: r[k] for k in ("q25", "mean", "q75", "sd")}
                          for r in summary_rows},
        }
    }
    if draws.sampler:
        outputs["summary.json"]["sampler"] = draws.sampler
    if command == "fit":
        outputs["summary.csv"] = io.summary_csv_rows(summary_rows)
        outputs["diagnostics.csv"] = io.diagnostics_csv_rows(diagnostics(draws))
    if draws.theta is not None:
        outputs["fit.csv"] = io.fit_csv_rows(series.counts, draws.theta)
    return outputs


def _cmd_forecast(args, cfg) -> dict:
    series, covariates = _load_data(args, cfg)
    variant = cfg["model"]
    fc = cfg["forecast"]
    if fc["start_origin"] is None or fc["end_origin"] is None:
        raise io.ValidationError("forecast.start_origin and forecast.end_origin are required")
    window = (fc["start_origin"], fc["end_origin"])
    spec = _selected_covariates(cfg, covariates, variant)
    design = _design(cfg, covariates, spec, series.T)
    priors = _from_block(PriorConfig, cfg["prior"], "prior")
    config = _from_block(MhConfig, fc["mcmc"], "forecast.mcmc")
    report = sequential_harness(series, design, spec, priors, config, window, rng=RngStream(cfg["seed"]))
    return {
        "summary.json": {
            "command": "forecast",
            "model": variant,
            "window": list(window),
            "forecast_metrics": io.forecast_report_payload(report),
        },
        "forecast.csv": io.forecast_csv_rows(report),
    }


def _cmd_compare(args, cfg) -> dict:
    series, covariates = _load_data(args, cfg)
    roster = list(cfg["compare"]["models"])
    if not roster:
        raise io.ValidationError("compare.models must list at least one model")
    models = []
    for variant in roster:
        if variant not in MODEL_VARIANTS:
            raise io.ValidationError(f"unknown model {variant!r} in compare.models")
        spec = _selected_covariates(cfg, covariates, variant)
        models.append((spec, _design(cfg, covariates, spec, series.T)))
    report = compare_models(
        series,
        models,
        _from_block(PriorConfig, cfg["prior"], "prior"),
        _from_block(MhConfig, cfg["mcmc"], "mcmc"),
        RngStream(cfg["seed"]),
    )
    return {
        "summary.json": {
            "command": "compare",
            "models": list(report.models),
            "ranking": sorted(
                report.models, key=lambda m: report.log_marginal_likelihood[m], reverse=True
            ),
        },
        "comparison.json": io.comparison_payload(report),
    }


def emit_reports(outputs: dict, out_dir) -> list:
    """Write each {file name: content} entry by its suffix: ``.json`` content
    is a JSON object, anything else a ``(header, rows)`` CSV table."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, content in outputs.items():
        if name.endswith(".json"):
            io.write_json(out_dir / name, content)
        else:
            io.write_csv(out_dir / name, *content)
    return [out_dir / name for name in outputs]
