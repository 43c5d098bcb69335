"""Golden digests: fixed-seed CLI outputs stay byte-identical across refactors.

``golden_digests.json`` holds the sha256 of every file written by the gate-11
CLI runs (simulate DM2, fit DM2, forecast DM1, compare DM1/DM2). A change that
is meant to alter outputs re-pins the file with

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


def output_digests(tmp_path: Path) -> dict:
    """Run the gate-11 commands once; map "command/file" to the file's sha256."""
    digests = {}
    for name, argv_fn in cli_gate_commands(tmp_path):
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
