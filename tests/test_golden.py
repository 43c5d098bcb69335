"""Golden digests: fixed-seed CLI outputs stay byte-identical across refactors.

``golden_digests.json`` holds the sha256 of every file written by the gate-11
CLI runs (simulate DM2, fit DM2, forecast DM1, compare DM1/DM2), plus the same
forecast run for DM2, DM4, BPM and DM5, which build covariate multipliers, the
Poisson mixture and the random-walk coefficient step that DM1 never reaches.
A change that is meant to alter outputs re-pins the file with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from dynpois.cli import run_command
from test_acceptance import cli_gate_commands

GOLDEN = Path(__file__).with_name("golden_digests.json")
EXTRA_FORECAST_MODELS = ("DM2", "DM4", "BPM", "DM5")


def _with_model(argv_fn, model):
    def build(out):
        argv = argv_fn(out)
        argv[argv.index("--model") + 1] = model
        return argv

    return build


def golden_commands(tmp_path: Path) -> list:
    """The gate-11 commands, then the gate-11 forecast rerun for each extra model."""
    commands = cli_gate_commands(tmp_path)
    forecast = dict(commands)["forecast"]
    commands += [
        (f"forecast_{model.lower()}", _with_model(forecast, model))
        for model in EXTRA_FORECAST_MODELS
    ]
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


def test_cli_outputs_match_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    assert output_digests(tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = output_digests(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
