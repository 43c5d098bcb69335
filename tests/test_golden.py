"""Golden digests: fixed-seed CLI outputs stay byte-identical across refactors.

``golden_digests.json`` holds the sha256 of every file written by the gate-11
CLI runs (simulate DM2, fit DM2, forecast DM1, compare DM1/DM2), plus the same
forecast run for DM2, DM4, BPM and DM5, which build covariate multipliers, the
Poisson mixture and the random-walk coefficient step that DM1 never reaches.
The design columns of every variant are pinned too: the gate-11 fit for BPM,
DM3 and DM4 and for DM2 on standardized covariates, a DM4 simulation that
infers its covariate count from ``beta``, and a compare over DM1-DM4 and BPM.
The gate-11 fit for DM5 pins the Gibbs sampler's draws and diagnostics.

The digests hold under one floating-point dispatch only, so the commands run
under the pinned dispatch of ``conftest.py``, whose settings the file records
next to the digests. A change that is meant to alter outputs re-pins the file
with

    PYTHONPATH=src python tests/test_golden.py

(which reruns itself under the pinned dispatch) and says why in CHANGES.md.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from conftest import PINNED_DISPATCH, pinned_dispatch_env
from dynpois.cli import run_command
from test_acceptance import cli_gate_commands

GOLDEN = Path(__file__).with_name("golden_digests.json")
EXTRA_FORECAST_MODELS = ("DM2", "DM4", "BPM", "DM5")
EXTRA_FIT_MODELS = ("BPM", "DM3", "DM4", "DM5")


def _swap(argv_fn, flag, value):
    """The argv builder with the value after ``flag`` replaced."""

    def build(out):
        argv = argv_fn(out)
        argv[argv.index(flag) + 1] = str(value)
        return argv

    return build


def _config_variant(tmp_path: Path, argv_fn, name: str, **overrides) -> Path:
    """Write the config ``argv_fn`` uses, with top-level keys overridden, as ``name``."""
    argv = argv_fn(tmp_path / "unused")
    cfg = json.loads(Path(argv[argv.index("--config") + 1]).read_text())
    path = tmp_path / name
    path.write_text(json.dumps({**cfg, **overrides}))
    return path


def golden_commands(tmp_path: Path) -> list:
    """The gate-11 commands, then reruns of them with other models and configs."""
    commands = cli_gate_commands(tmp_path)
    simulate, fit, forecast, compare = (dict(commands)[k] for k in ("simulate", "fit", "forecast", "compare"))
    commands += [
        (f"forecast_{model.lower()}", _swap(forecast, "--model", model))
        for model in EXTRA_FORECAST_MODELS
    ]
    commands += [(f"fit_{model.lower()}", _swap(fit, "--model", model)) for model in EXTRA_FIT_MODELS]
    std_cfg = _config_variant(tmp_path, fit, "fit_std.json", standardize_covariates=True)
    commands.append(("fit_dm2_standardized", _swap(fit, "--config", std_cfg)))
    # 2 covariates and 11 seasonal coefficients; n_covariates null infers the 2
    dm4_beta = [0.4, -0.3] + [0.1 * (-1) ** m for m in range(11)]
    sim_cfg = _config_variant(tmp_path, simulate, "sim_dm4.json", simulate={
        "T": 40, "gamma": 0.6, "beta": dm4_beta, "n_covariates": None})
    commands.append(("simulate_dm4", _swap(_swap(simulate, "--model", "DM4"), "--config", sim_cfg)))
    roster_cfg = _config_variant(tmp_path, compare, "compare_roster.json",
                                 compare={"models": ["DM1", "DM2", "DM3", "DM4", "BPM"]})
    commands.append(("compare_roster", _swap(compare, "--config", roster_cfg)))
    return commands


def output_digests(tmp_path: Path) -> dict:
    """Run the golden commands once; map "command/file" to the file's sha256."""
    digests = {}
    for name, argv_fn in golden_commands(tmp_path):
        out = tmp_path / f"{name}_a"
        code, _ = run_command(argv_fn(out))
        assert code == 0, f"{name} exited with {code}"
        for path in sorted(out.iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.pinned_dispatch
def test_cli_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert golden["dispatch"] == PINNED_DISPATCH
    assert output_digests(tmp_path) == golden["digests"], f"pinned with {golden['versions']}"


if __name__ == "__main__":
    env = pinned_dispatch_env()
    if env is not None:
        sys.exit(subprocess.run([sys.executable, __file__], env=env).returncode)
    with tempfile.TemporaryDirectory() as tmp:
        digests = output_digests(Path(tmp))
    versions = {"numpy": np.__version__, "scipy": scipy.__version__, "python": sys.version.split()[0]}
    golden = {"dispatch": PINNED_DISPATCH, "versions": versions, "digests": digests}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
