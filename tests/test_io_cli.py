"""Tests for CSV ingestion, report emission and the command-line surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynpois
from dynpois import cli, io
from dynpois.cli import DEFAULT_CONFIG, DM5_MCMC_DEFAULT, emit_reports, resolve_config, run_command
from dynpois.evaluation import ForecastDistribution, ForecastReport
from dynpois.io import ValidationError, format_number, ingest_csv
from oracles import quantile_by_doubling


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestIngestCsv:
    def test_valid_three_rows(self, tmp_path):
        path = _write(tmp_path, "ok.csv", "month_index,count,x\n1,5,0.1\n2,0,-0.2\n3,7,0.3\n")
        series, covs = ingest_csv(path)
        assert series.T == 3
        assert list(covs) == ["x"]
        assert np.allclose(covs["x"], [0.1, -0.2, 0.3])

    def test_negative_count_names_row(self, tmp_path):
        path = _write(tmp_path, "neg.csv", "month_index,count\n1,5\n2,-1\n3,7\n")
        with pytest.raises(ValidationError) as exc:
            ingest_csv(path)
        assert exc.value.row == 2
        assert "row 2" in str(exc.value)

    def test_month_gap_named(self, tmp_path):
        path = _write(tmp_path, "gap.csv", "month_index,count\n1,5\n3,7\n")
        with pytest.raises(ValidationError) as exc:
            ingest_csv(path)
        assert exc.value.row == 2

    def test_missing_column(self, tmp_path):
        path = _write(tmp_path, "м.csv", "month_index,value\n1,5\n")
        with pytest.raises(ValidationError) as exc:
            ingest_csv(path)
        assert "count" in str(exc.value)

    def test_non_integer_count(self, tmp_path):
        path = _write(tmp_path, "f.csv", "month_index,count\n1,2.5\n")
        with pytest.raises(ValidationError) as exc:
            ingest_csv(path)
        assert exc.value.row == 1

    def test_nan_covariate_named(self, tmp_path):
        path = _write(tmp_path, "nan.csv", "month_index,count,z\n1,2,0.5\n2,3,nan\n")
        with pytest.raises(ValidationError) as exc:
            ingest_csv(path)
        assert exc.value.row == 2
        assert "z" in str(exc.value)

    def test_non_numeric_covariate(self, tmp_path):
        path = _write(tmp_path, "s.csv", "month_index,count,z\n1,2,apple\n")
        with pytest.raises(ValidationError):
            ingest_csv(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValidationError):
            ingest_csv(_write(tmp_path, "e.csv", ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(ValidationError):
            ingest_csv(_write(tmp_path, "h.csv", "month_index,count\n"))

    def test_ragged_row(self, tmp_path):
        path = _write(tmp_path, "r.csv", "month_index,count,z\n1,2,0.5\n2,3\n")
        with pytest.raises(ValidationError) as exc:
            ingest_csv(path)
        assert exc.value.row == 2

    def test_count_beyond_int64_exits_2_naming_row(self, tmp_path, capsys):
        # 1e300 is a whole number, but casting it to int64 overflows
        path = _write(tmp_path, "big.csv", "month_index,count\n1,5\n2,1e300\n")
        capsys.readouterr()
        code, _ = run_command(["fit", "--model", "DM1", "--seed", "1", "--data", str(path),
                               "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValidationError"
        assert err["message"].startswith("row 2: count '1e300'")

    def test_integer_count_text_is_read_exactly(self, tmp_path):
        # 2**53 + 1 is the first integer a float cannot hold
        path = _write(tmp_path, "c.csv", "month_index,count\n1,9007199254740993\n2,5.0\n3,1e3\n")
        series, _ = ingest_csv(path)
        assert series.counts.tolist() == [9007199254740993, 5, 1000]

    @pytest.mark.parametrize("cell", ["9007199254740992.0", "9.007199254740993e15", "1e18"])
    def test_float_notation_count_at_2_53_or_above_exits_2(self, tmp_path, capsys, cell):
        path = _write(tmp_path, "c.csv", f"month_index,count\n1,5\n2,{cell}\n")
        capsys.readouterr()
        code, _ = run_command(["fit", "--model", "DM1", "--seed", "1", "--data", str(path),
                               "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValidationError"
        assert err["message"].startswith(f"row 2: count {cell!r}")

    @pytest.mark.parametrize("column, cell", [
        ("count", "1_000"), ("z", "1_0.5"), ("count", "\u0663"), ("z", "\uff11"),
        ("month_index", "\u0662"), ("month_index", "0_2"), ("z", "nan"), ("count", "inf"),
    ])
    def test_number_text_beyond_ascii_notation_exits_2_naming_row_and_column(self, tmp_path, capsys,
                                                                             column, cell):
        # digit separators, other scripts' digits and nan/inf, which int() and
        # float() accept but no CSV writer produces for a valid cell
        row = {"month_index": "2", "count": "5", "z": "0.5"} | {column: cell}
        path = _write(tmp_path, "c.csv", f"month_index,count,z\n1,5,0.1\n{row['month_index']},{row['count']},{row['z']}\n")
        capsys.readouterr()
        code, _ = run_command(["fit", "--model", "DM1", "--seed", "1", "--data", str(path),
                               "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValidationError"
        assert err["message"].startswith("row 2: ") and repr(cell) in err["message"]
        assert (f"{column!r}" if column == "z" else column) in err["message"]

    def test_ascii_number_notations_accepted(self, tmp_path):
        path = _write(tmp_path, "c.csv", "month_index,count,z\n1,+4,.5\n2, 5 ,-1.5E+2\n+3,6.,7\n")
        series, covs = ingest_csv(path)
        assert series.counts.tolist() == [4, 5, 6]
        assert covs["z"].tolist() == [0.5, -150.0, 7.0]

    @pytest.mark.parametrize("which", ["config", "data"])
    def test_file_that_is_not_utf8_exits_2_naming_it(self, tmp_path, capsys, which):
        files = {"config": tmp_path / "c.json", "data": tmp_path / "d.csv"}
        files["config"].write_text("{}", encoding="utf-8")
        files["data"].write_text("month_index,count\n1,5\n", encoding="utf-8")
        files[which].write_bytes(b"\xff" + files[which].read_bytes())
        capsys.readouterr()
        code, _ = run_command(["fit", "--model", "DM1", "--seed", "1", "--config", str(files["config"]),
                               "--data", str(files["data"]), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValidationError"
        assert str(files[which]) in err["message"] and "not UTF-8" in err["message"]

    @pytest.mark.parametrize("which", ["config", "data"])
    def test_leading_byte_order_mark_is_read_as_no_text(self, tmp_path, which):
        # Excel's "CSV UTF-8" starts the file with U+FEFF
        files = {"config": tmp_path / "c.json", "data": tmp_path / "d.csv"}
        files["config"].write_text(json.dumps({"mcmc": {"iterations": 50, "burn_in": 0}}), encoding="utf-8")
        files["data"].write_text("month_index,count\n1,5\n2,7\n3,6\n", encoding="utf-8")
        files[which].write_text("\ufeff" + files[which].read_text(encoding="utf-8"), encoding="utf-8")
        out = tmp_path / "o"
        code, _ = run_command(["fit", "--model", "DM1", "--seed", "1", "--config", str(files["config"]),
                               "--data", str(files["data"]), "--out", str(out)])
        assert code == 0
        assert json.loads((out / "resolved_config.json").read_text())["mcmc"]["iterations"] == 50

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=40),
        cov=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=40, max_size=40
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_valid_schema_accepted(self, tmp_path_factory, counts, cov):
        tmp = tmp_path_factory.mktemp("fuzz")
        lines = ["month_index,count,z"]
        for i, n in enumerate(counts):
            lines.append(f"{i+1},{n},{cov[i]!r}")
        path = _write(tmp, "fuzz.csv", "\n".join(lines) + "\n")
        series, covs = ingest_csv(path)
        assert series.T == len(counts)
        assert np.array_equal(series.counts, counts)


class TestFormatNumber:
    def test_round_trips_exactly(self):
        gen = np.random.default_rng(0)
        for x in gen.normal(size=200) * 10.0 ** gen.integers(-8, 8, size=200):
            assert float(format_number(float(x))) == float(x)

    def test_integers_and_none(self):
        assert format_number(3) == "3"
        assert format_number(None) == "NA"


class TestResolveConfig:
    def _args(self, **kw):
        class A:
            command = kw.get("command", "fit")
            config = kw.get("config")
            model = kw.get("model")
            seed = kw.get("seed")

        return A()

    def test_seed_required(self):
        with pytest.raises(ValidationError):
            resolve_config(self._args(model="DM1"))

    def test_flag_overrides_config(self, tmp_path):
        cfg = _write(tmp_path, "c.json", json.dumps({"model": "DM1", "seed": 3}))
        resolved = resolve_config(self._args(config=str(cfg), model="DM2", seed=9))
        assert resolved["model"] == "DM2"
        assert resolved["seed"] == 9

    def test_unknown_key_rejected(self, tmp_path):
        cfg = _write(tmp_path, "c.json", json.dumps({"modle": "DM1"}))
        with pytest.raises(ValidationError):
            resolve_config(self._args(config=str(cfg), seed=1))

    def test_defaults_filled(self, tmp_path):
        cfg = _write(tmp_path, "c.json", json.dumps({"seed": 5}))
        resolved = resolve_config(self._args(config=str(cfg)))
        assert resolved["prior"]["beta_sd"] == 10.0
        assert resolved["mcmc"]["iterations"] == 10000

    @pytest.mark.parametrize("command, swapped", [
        ("fit", True), ("report", True), ("compare", False), ("forecast", False), ("simulate", False),
    ])
    def test_dm5_chain_default_only_where_the_model_runs_mcmc(self, command, swapped):
        # fit and report run --model's chain from mcmc; compare runs mcmc for
        # every roster model, and forecast and simulate never run it
        resolved = resolve_config(self._args(command=command, model="DM5", seed=1))
        expected = DM5_MCMC_DEFAULT if swapped else DEFAULT_CONFIG["mcmc"]
        assert resolved["mcmc"] == expected

    @pytest.mark.parametrize("key, user", [
        ("seed", {"seed": "abc"}),
        ("seed", {"seed": 1.5}),
        ("start_month", {"start_month": "may"}),
        ("forecast.start_origin", {"forecast": {"start_origin": "x"}}),
        ("forecast.start_origin", {"forecast": {"start_origin": 5.7}}),
        ("forecast.end_origin", {"forecast": {"end_origin": "x"}}),
        ("simulate.T", {"simulate": {"T": "ten"}}),
        ("simulate.gamma", {"simulate": {"gamma": "x"}}),
        ("simulate.beta", {"simulate": {"beta": [0.1, "x"]}}),
        ("simulate.covariate_sd", {"simulate": {"covariate_sd": "x"}}),
        ("mcmc.iterations", {"mcmc": {"iterations": 600.9}}),
        ("mcmc.thinning", {"mcmc": {"thinning": True}}),
        ("prior.a0", {"prior": {"a0": None}}),
        ("standardize_covariates", {"standardize_covariates": "false"}),
        ("covariate_columns", {"covariate_columns": "z1"}),
        ("compare.models", {"compare": {"models": "DM1"}}),
    ])
    def test_value_of_wrong_type_exits_2(self, tmp_path, capsys, key, user):
        # rejected as the config resolves, before any data is read
        cfg = _write(tmp_path, "bad.json", json.dumps({"seed": 1, **user}))
        capsys.readouterr()
        code, _ = run_command(["fit", "--config", str(cfg), "--model", "DM2", "--data", "x",
                               "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValidationError"
        assert repr(key) in err["message"]

    @pytest.mark.parametrize("text", [
        '{"prior": {"beta_sd": Infinity}}',
        '{"mcmc": {"proposal_scale": NaN}}',
        '{"prior": {"tau_rate": Infinity}}',
        '{"simulate": {"beta": [0.1, -Infinity]}}',
        '{"prior": {"a0": 1e400}}',
    ])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, text):
        # NaN and Infinity are not JSON, and 1e400 overflows a float: rejected
        # as the config is parsed, before any data is read
        cfg = _write(tmp_path, "bad.json", text)
        capsys.readouterr()
        code, _ = run_command(["fit", "--config", str(cfg), "--model", "DM2", "--seed", "1",
                               "--data", "x", "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValidationError"
        assert "not finite" in err["message"]

    def test_numbers_of_either_json_type_resolve_unchanged(self, tmp_path):
        # an integer for a float key is a number; the echo keeps it as written
        user = {"seed": 5, "prior": {"a0": 80, "gamma_beta_ab": [2, 3.5]},
                "simulate": {"gamma": 1, "beta": [1, 0.5]}, "forecast": {"start_origin": None}}
        cfg = _write(tmp_path, "c.json", json.dumps(user))
        resolved = resolve_config(self._args(config=str(cfg)))
        assert resolved["prior"]["a0"] == 80 and resolved["prior"]["gamma_beta_ab"] == [2, 3.5]
        assert resolved["simulate"]["beta"] == [1, 0.5]


# Run in a child interpreter with an output directory and scipy blocked:
# simulate, then fit, report, compare and forecast on the cohort it wrote, with
# short chains; prints the exit codes as JSON.
_COMMANDS_CHILD = """
import json, sys
from pathlib import Path
from dynpois.cli import run_command

out = Path(sys.argv[1])
sys.modules["scipy"] = None  # any scipy import now raises ImportError
chain = {"iterations": 300, "burn_in": 100, "thinning": 1, "proposal_scale": 1.0}
(out / "sim.json").write_text(json.dumps({"simulate": {"T": 30, "gamma": 0.6, "beta": [0.4], "n_covariates": 1},
                                          "prior": {"a0": 80.0, "b0": 2.0}}))
(out / "fit.json").write_text(json.dumps({"prior": {"a0": 80.0, "b0": 2.0}, "mcmc": chain,
                                          "compare": {"models": ["DM1", "DM2", "BPM"]},
                                          "forecast": {"start_origin": 28, "end_origin": 30, "mcmc": chain}}))
(out / "dm5.json").write_text(json.dumps({"prior": {"a0": 80.0, "b0": 2.0},
                                          "mcmc": {**chain, "iterations": 40, "burn_in": 20}}))
data = ["--data", str(out / "sim" / "cohort.csv")]
commands = {
    "simulate": ["simulate", "--config", str(out / "sim.json"), "--model", "DM2", "--out", str(out / "sim")],
    "fit DM2": ["fit", "--config", str(out / "fit.json"), "--model", "DM2", *data],
    "fit DM5": ["fit", "--config", str(out / "dm5.json"), "--model", "DM5", *data],
    "report": ["report", "--config", str(out / "fit.json"), "--model", "DM2", *data],
    "compare": ["compare", "--config", str(out / "fit.json"), *data],
    "forecast": ["forecast", "--config", str(out / "fit.json"), "--model", "DM2", *data],
}
codes = {}
for i, (name, argv) in enumerate(commands.items()):
    if name != "simulate":
        argv = [*argv, "--out", str(out / f"run{i}")]
    codes[name] = run_command([*argv, "--seed", "4"])[0]
print(json.dumps(codes))
"""


def _dynpois_child(*args) -> subprocess.CompletedProcess:
    src = str(Path(dynpois.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=600)


def test_no_command_needs_scipy(tmp_path):
    loaded = "import sys, dynpois.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = _dynpois_child("-c", loaded)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]", proc.stderr
    proc = _dynpois_child("-c", _COMMANDS_CHILD, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    names = ["simulate", "fit DM2", "fit DM5", "report", "compare", "forecast"]
    assert json.loads(proc.stdout.splitlines()[-1]) == dict.fromkeys(names, 0), proc.stdout


# A Poisson mixture's interval, which the pmf table answers, then the
# 1 - 1e-12 level, which it leaves to the bisection; prints each answer with
# whether scipy was loaded after it.
_FALLBACK_CHILD = """
import json, sys
import numpy as np
from dynpois.evaluation import ForecastDistribution

def scipy_loaded():
    return any(m.split(".")[0] == "scipy" for m in sys.modules)

dist = ForecastDistribution(origin=1, components=np.array([80.0, 100.0, 120.0]))
steps = [[list(dist.interval), scipy_loaded()]]
steps.append([dist.quantile(1.0 - 1e-12), scipy_loaded()])
print(json.dumps(steps))
"""


def test_a_forecast_loads_scipy_only_when_the_table_falls_back():
    proc = _dynpois_child("-c", _FALLBACK_CHILD)
    assert proc.returncode == 0, proc.stderr
    dist = ForecastDistribution(origin=1, components=np.array([80.0, 100.0, 120.0]))
    expected = [quantile_by_doubling(dist, q) for q in (0.025, 0.975, 1.0 - 1e-12)]
    assert json.loads(proc.stdout) == [[expected[:2], False], [expected[2], True]]


def _simulate_cohort_csv(tmp_path, seed=5, T=40):
    out = tmp_path / "simout"
    cfg = {
        "simulate": {"T": T, "gamma": 0.6, "beta": [0.4], "n_covariates": 1},
        "prior": {"a0": 80.0, "b0": 2.0},
    }
    cfg_path = _write(tmp_path, "sim.json", json.dumps(cfg))
    code, artifacts = run_command(
        ["simulate", "--config", str(cfg_path), "--model", "DM2", "--seed", str(seed), "--out", str(out)]
    )
    assert code == 0
    return out / "cohort.csv"


def test_simulate_negative_covariate_sd_exits_2(tmp_path, capsys):
    cfg = {"simulate": {"T": 10, "gamma": 0.6, "beta": [0.4], "n_covariates": 1, "covariate_sd": -1.0}}
    cfg_path = _write(tmp_path, "sim.json", json.dumps(cfg))
    capsys.readouterr()
    code, _ = run_command(["simulate", "--config", str(cfg_path), "--model", "DM2", "--seed", "1",
                           "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ValidationError"
    assert "simulate.covariate_sd" in err["message"]


def test_simulate_zero_innovation_shape_exits_2(tmp_path, capsys):
    # gamma * a0 rounds to 0, so the first beta innovation has no law
    cfg = {"simulate": {"T": 10, "gamma": 0.5}, "prior": {"a0": 5e-324}}
    cfg_path = _write(tmp_path, "sim.json", json.dumps(cfg))
    capsys.readouterr()
    code, _ = run_command(["simulate", "--config", str(cfg_path), "--model", "DM1", "--seed", "1",
                           "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "DomainError"


def test_simulate_overflowing_rate_exits_3_naming_month(tmp_path, capsys):
    # 1 / b0 overflows, so the initial rate is infinite
    cfg = {"simulate": {"T": 10, "gamma": 0.5}, "prior": {"b0": 5e-324}}
    cfg_path = _write(tmp_path, "sim.json", json.dumps(cfg))
    capsys.readouterr()
    code, _ = run_command(["simulate", "--config", str(cfg_path), "--model", "DM1", "--seed", "1",
                           "--out", str(tmp_path / "o")])
    assert code == 3
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "NumericDegeneracyError"
    assert err["message"].startswith("month 1: ")


@pytest.mark.parametrize("model", ["DM1", "DM2"])
def test_simulate_negative_n_covariates_exits_2(tmp_path, capsys, model):
    cfg = {"simulate": {"T": 10, "gamma": 0.6, "beta": [0.4], "n_covariates": -1}}
    cfg_path = _write(tmp_path, "sim.json", json.dumps(cfg))
    capsys.readouterr()
    code, _ = run_command(["simulate", "--config", str(cfg_path), "--model", model, "--seed", "1",
                           "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ValidationError"
    assert err["message"] == "simulate.n_covariates must be nonnegative"



@pytest.mark.parametrize("model, sim, key", [
    ("DM1", {"beta": [0.4, 9.0]}, "simulate.beta"),
    ("DM1", {"n_covariates": 3}, "simulate.n_covariates"),
    ("DM1", {"tau": [1.0]}, "simulate.tau"),
    ("DM1", {"beta": [0.4, 9.0], "tau": [1.0], "n_covariates": 3}, "simulate.n_covariates"),
    ("DM2", {"beta": [0.4], "n_covariates": 1, "tau": [1.0]}, "simulate.tau"),
])
def test_simulate_rejects_coefficients_it_would_not_use(tmp_path, capsys, model, sim, key):
    cfg_path = _write(tmp_path, "sim.json", json.dumps({"simulate": {"T": 10, "gamma": 0.6, **sim}}))
    capsys.readouterr()
    code, _ = run_command(["simulate", "--config", str(cfg_path), "--model", model, "--seed", "1",
                           "--out", str(tmp_path / "o")])
    assert code == 2
    assert key in json.loads(capsys.readouterr().out)["error"]["message"]
    assert not (tmp_path / "o" / "summary.json").exists()


@pytest.mark.parametrize("start_month", [13, -11, 0])
def test_start_month_outside_the_calendar_exits_2(tmp_path, capsys, start_month):
    data = _simulate_cohort_csv(tmp_path)
    cfg_path = _write(tmp_path, "fit.json", json.dumps({"start_month": start_month}))
    capsys.readouterr()
    code, _ = run_command(["fit", "--config", str(cfg_path), "--model", "DM4", "--seed", "1",
                           "--data", str(data), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "start_month" in json.loads(capsys.readouterr().out)["error"]["message"]


@pytest.mark.parametrize("model, covariates, name", [
    ("DM3", ["trend"], "trend"),
    ("BPM", ["intercept"], "intercept"),
    ("DM4", ["month3"], "month3"),
    ("DM2", ["z1", "z1"], "z1"),
])
def test_design_column_collision_exits_2(tmp_path, capsys, model, covariates, name):
    # a covariate named like a generated column, or selected twice, would
    # share its name with another coefficient in the reports
    rows = "".join(f"{t},{5 + t % 3},{0.1 * t}\n" for t in range(1, 25))
    data = _write(tmp_path, "d.csv", f"month_index,count,{covariates[0]}\n{rows}")
    cfg = _write(tmp_path, "c.json", json.dumps({"covariate_columns": covariates}))
    capsys.readouterr()
    code, _ = run_command(["fit", "--config", str(cfg), "--model", model, "--seed", "1",
                           "--data", str(data), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"design column '{name}' appears twice" in json.loads(capsys.readouterr().out)["error"]["message"]
    assert not (tmp_path / "o" / "summary.json").exists()


class TestRunCommandFit:
    def test_dm1_summary_includes_gamma(self, tmp_path):
        data = _simulate_cohort_csv(tmp_path)
        cfg = _write(
            tmp_path,
            "fit.json",
            json.dumps({"mcmc": {"iterations": 600, "burn_in": 200, "thinning": 1, "proposal_scale": 1.0},
                        "prior": {"a0": 80.0, "b0": 2.0}}),
        )
        out = tmp_path / "fitout"
        code, artifacts = run_command(
            ["fit", "--config", str(cfg), "--model", "DM1", "--seed", "3",
             "--data", str(data), "--out", str(out)]
        )
        assert code == 0
        text = (out / "summary.csv").read_text()
        assert text.splitlines()[0] == "parameter,q25,mean,q75,sd"
        assert any(line.startswith("gamma,") for line in text.splitlines())
        assert (out / "fit.csv").read_text().splitlines()[0] == "t,observed,theta_mean,theta_q2.5,theta_q97.5"
        assert (out / "resolved_config.json").exists()
        assert (out / "diagnostics.csv").exists()

    def test_fixed_gamma_whose_mean_does_not_round_back_reads_as_constant(self, tmp_path):
        # 0.3 repeated sums to a mean that is not 0.3, so the centred chain is
        # not exactly zero; the gamma row still reads as a constant chain
        data = _simulate_cohort_csv(tmp_path)
        cfg = _write(tmp_path, "fixed.json", json.dumps(
            {"prior": {"a0": 80.0, "b0": 2.0, "gamma_prior": "fixed", "gamma_fixed_value": 0.3},
             "mcmc": {"iterations": 600, "burn_in": 100, "thinning": 1, "proposal_scale": 1.0}}))
        out = tmp_path / "fixed"
        code, _ = run_command(["fit", "--config", str(cfg), "--model", "DM2", "--seed", "3",
                               "--data", str(data), "--out", str(out)])
        assert code == 0
        assert np.full(500, 0.3).mean() != 0.3
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == "parameter,mean,sd,lag1_autocorr,ess"
        gamma = next(line.split(",") for line in lines if line.startswith("gamma,"))
        assert float(gamma[3]) == 0.0
        assert float(gamma[4]) == 1.0

    def test_missing_seed_exits_2(self, tmp_path, capsys):
        data = _simulate_cohort_csv(tmp_path)
        code, artifacts = run_command(["fit", "--model", "DM1", "--data", str(data), "--out", str(tmp_path / "o")])
        assert code == 2
        assert artifacts is None
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["exit_code"] == 2

    def test_bad_data_exits_2(self, tmp_path):
        bad = _write(tmp_path, "bad.csv", "month_index,count\n1,-3\n")
        code, _ = run_command(["fit", "--model", "DM1", "--seed", "1", "--data", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_missing_file_exits_4(self, tmp_path):
        code, _ = run_command(
            ["fit", "--model", "DM1", "--seed", "1", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]
        )
        assert code == 4

    def test_unknown_model_exits_2(self, tmp_path):
        code, _ = run_command(["fit", "--model", "DMX", "--seed", "1", "--data", "x", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_grid_step_without_interior_point_exits_2(self, tmp_path, capsys):
        # a step of 1 leaves no grid point inside (0, 1)
        data = _simulate_cohort_csv(tmp_path)
        cfg = _write(tmp_path, "g.json", json.dumps({"prior": {"gamma_prior": "grid", "gamma_grid_step": 1.0}}))
        capsys.readouterr()
        code, _ = run_command(["fit", "--config", str(cfg), "--model", "DM1", "--seed", "1",
                               "--data", str(data), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValidationError"
        assert "gamma_grid_step" in err["message"]

    @pytest.mark.parametrize("user", [{"mcmc": 5}, {"prior": [1]}, {"forecast": {"mcmc": None}}])
    def test_non_object_config_block_exits_2(self, tmp_path, capsys, user):
        data = _simulate_cohort_csv(tmp_path)
        cfg = _write(tmp_path, "bad.json", json.dumps(user))
        capsys.readouterr()
        code, _ = run_command(["fit", "--config", str(cfg), "--model", "DM1", "--seed", "1",
                               "--data", str(data), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValidationError"
        assert "must be a JSON object" in err["message"]

    @pytest.mark.parametrize("user", [{"prior": {"a0": [1]}}, {"prior": {"gamma_beta_ab": 3}},
                                      {"mcmc": {"iterations": "many"}}])
    def test_uncastable_config_value_exits_2(self, tmp_path, capsys, user):
        data = _simulate_cohort_csv(tmp_path)
        cfg = _write(tmp_path, "bad.json", json.dumps(user))
        capsys.readouterr()
        code, _ = run_command(["fit", "--config", str(cfg), "--model", "DM1", "--seed", "1",
                               "--data", str(data), "--out", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize("ab", [[2.0], [1.0, 2.0, 3.0], []])
    def test_gamma_beta_ab_of_wrong_length_exits_2(self, tmp_path, capsys, ab):
        data = _simulate_cohort_csv(tmp_path, T=6)
        cfg = _write(tmp_path, "ab.json", json.dumps({"prior": {"gamma_prior": "beta", "gamma_beta_ab": ab}}))
        capsys.readouterr()
        code, _ = run_command(["fit", "--config", str(cfg), "--model", "DM1", "--seed", "1",
                               "--data", str(data), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValidationError"
        assert "gamma_beta_ab" in err["message"]

    @pytest.mark.parametrize(
        "model, prior, sampler",
        [("DM1", {}, "independence"), ("BPM", {}, "independence"), ("DM1", {"gamma_prior": "grid"}, None)],
    )
    def test_summary_names_the_metropolis_sampler(self, tmp_path, model, prior, sampler):
        # only fits that run a Metropolis chain over (beta, logit gamma) record one
        data = _simulate_cohort_csv(tmp_path, T=30)
        cfg = _write(tmp_path, "s.json", json.dumps(
            {"prior": prior, "mcmc": {"iterations": 600, "burn_in": 200, "thinning": 1, "proposal_scale": 1.0}}))
        out = tmp_path / "s"
        code, _ = run_command(["fit", "--config", str(cfg), "--model", model, "--seed", "4",
                               "--data", str(data), "--out", str(out)])
        assert code == 0
        assert json.loads((out / "summary.json").read_text()).get("sampler") == sampler

    def test_bpm_fit_emits_rate_overlay(self, tmp_path):
        data = _simulate_cohort_csv(tmp_path, T=30)
        cfg = _write(
            tmp_path, "bpm.json",
            json.dumps({"mcmc": {"iterations": 600, "burn_in": 200, "thinning": 1, "proposal_scale": 1.0}}),
        )
        out = tmp_path / "bpm"
        code, _ = run_command(
            ["fit", "--config", str(cfg), "--model", "BPM", "--seed", "6",
             "--data", str(data), "--out", str(out)]
        )
        assert code == 0
        lines = (out / "fit.csv").read_text().splitlines()
        assert lines[0] == "t,observed,theta_mean,theta_q2.5,theta_q97.5"
        assert len(lines) == 31
        assert any(line.startswith("beta_intercept,") for line in (out / "summary.csv").read_text().splitlines())

    def test_bpm_fit_honours_smooth_false(self, tmp_path):
        data = _simulate_cohort_csv(tmp_path, T=30)
        cfg = _write(tmp_path, "nosmooth.json", json.dumps(
            {"smooth": False, "mcmc": {"iterations": 600, "burn_in": 200, "thinning": 1, "proposal_scale": 1.0}}))
        files = {}
        for model in ("BPM", "DM2"):
            out = tmp_path / model
            code, _ = run_command(["fit", "--config", str(cfg), "--model", model, "--seed", "6",
                                   "--data", str(data), "--out", str(out)])
            assert code == 0
            files[model] = sorted(p.name for p in out.iterdir())
        assert files["BPM"] == files["DM2"]
        assert "fit.csv" not in files["BPM"]

    def test_dm5_on_one_month_exits_2(self, tmp_path, capsys):
        data = _write(tmp_path, "one.csv", "month_index,count,z1\n1,149,0.5\n")
        cfg = _write(tmp_path, "dm5.json", json.dumps({"mcmc": {"iterations": 50, "burn_in": 10}}))
        capsys.readouterr()
        code, _ = run_command(["fit", "--config", str(cfg), "--model", "DM5", "--seed", "1",
                               "--data", str(data), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["message"] == "the time-varying model needs at least two months"

    def test_refused_allocation_exits_3_with_error_json(self, tmp_path, capsys, monkeypatch):
        # numpy refuses a huge draw table with a MemoryError subclass
        def refused(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 PiB for an array")

        monkeypatch.setattr(cli, "fit_variant", refused)
        data = _simulate_cohort_csv(tmp_path, T=10)
        capsys.readouterr()
        code, _ = run_command(["fit", "--model", "DM1", "--seed", "1", "--data", str(data),
                               "--out", str(tmp_path / "o")])
        assert code == 3
        assert json.loads(capsys.readouterr().out) == {"error": {
            "type": "MemoryError", "message": "Unable to allocate 7.28 PiB for an array", "exit_code": 3}}

    def test_dm5_resolved_config_reflects_long_chain_default(self, tmp_path):
        data = _simulate_cohort_csv(tmp_path, T=20)
        out = tmp_path / "dm5cfg"
        cfg = _write(tmp_path, "dm5.json", json.dumps(
            {"mcmc": {"iterations": 200, "burn_in": 50, "thinning": 1, "proposal_scale": 1.0}}))
        code, artifacts = run_command(
            ["fit", "--config", str(cfg), "--model", "DM5", "--seed", "3",
             "--data", str(data), "--out", str(out)]
        )
        assert code == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["mcmc"]["iterations"] == 200  # explicit config wins
        # without an explicit chain config the long default is echoed
        out2 = tmp_path / "dm5cfg2"

        class A:
            command = "fit"
            config = None
            model = "DM5"
            seed = 3

        from dynpois.cli import resolve_config

        resolved2 = resolve_config(A())
        assert resolved2["mcmc"]["iterations"] == 80000


class TestRunCommandForecastAndCompare:
    def test_forecast_schema(self, tmp_path):
        data = _simulate_cohort_csv(tmp_path, T=30)
        cfg = _write(
            tmp_path,
            "f.json",
            json.dumps({
                "prior": {"a0": 80.0, "b0": 2.0, "gamma_prior": "grid", "gamma_grid_step": 0.1},
                "forecast": {"start_origin": 28, "end_origin": 30,
                             "mcmc": {"iterations": 300, "burn_in": 0, "thinning": 1, "proposal_scale": 1.0}},
            }),
        )
        out = tmp_path / "fc"
        code, artifacts = run_command(
            ["forecast", "--config", str(cfg), "--model", "DM1", "--seed", "2",
             "--data", str(data), "--out", str(out)]
        )
        assert code == 0
        lines = (out / "forecast.csv").read_text().splitlines()
        assert lines[0] == "origin,actual,point,lo95,hi95"
        assert len(lines) == 4
        summary = json.loads((out / "summary.json").read_text())
        metrics = summary["forecast_metrics"]
        # one entry per origin; the first origin fits, at full efficiency
        assert metrics["refit_origins"][0] == 28
        assert len(metrics["weight_efficiency"]) == 3 and metrics["weight_efficiency"][0] == 1.0
        assert all(0.5 <= e <= 1.0 for e in metrics["weight_efficiency"])

    def test_dm5_forecast_from_one_training_month_exits_2_naming_the_origin(self, tmp_path, capsys):
        data = _simulate_cohort_csv(tmp_path, T=6)
        cfg = _write(tmp_path, "f.json", json.dumps({"forecast": {
            "start_origin": 2, "end_origin": 4, "mcmc": {"iterations": 50, "burn_in": 10}}}))
        capsys.readouterr()
        code, _ = run_command(["forecast", "--config", str(cfg), "--model", "DM5", "--seed", "2",
                               "--data", str(data), "--out", str(tmp_path / "fc")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "DomainError"
        assert err["message"] == "forecast fit failed at origin 2: the time-varying model needs at least two months"

    def test_ewma_forecast(self, tmp_path):
        data = _simulate_cohort_csv(tmp_path, T=30)
        cfg = _write(tmp_path, "e.json", json.dumps({"forecast": {"start_origin": 25, "end_origin": 30}}))
        out = tmp_path / "ew"
        code, _ = run_command(
            ["forecast", "--config", str(cfg), "--model", "EWMA", "--seed", "2",
             "--data", str(data), "--out", str(out)]
        )
        assert code == 0
        lines = (out / "forecast.csv").read_text().splitlines()
        assert lines[1].endswith("NA,NA")
        # EWMA fits no draws to weight
        metrics = json.loads((out / "summary.json").read_text())["forecast_metrics"]
        assert "weight_efficiency" not in metrics and "refit_origins" not in metrics

    def test_compare_schema_and_keys(self, tmp_path):
        data = _simulate_cohort_csv(tmp_path, T=35)
        cfg = _write(
            tmp_path,
            "cmp.json",
            json.dumps({
                "prior": {"a0": 80.0, "b0": 2.0},
                "mcmc": {"iterations": 500, "burn_in": 100, "thinning": 1, "proposal_scale": 1.0},
                "compare": {"models": ["DM1", "DM2"]},
            }),
        )
        out = tmp_path / "cmp"
        code, artifacts = run_command(
            ["compare", "--config", str(cfg), "--seed", "4", "--data", str(data), "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "comparison.json").read_text())
        assert sorted(payload.keys()) == ["log_bayes_factors", "log_cpo", "log_marginal_likelihood"]
        assert set(payload["log_marginal_likelihood"]) == {"DM1", "DM2"}
        bf = payload["log_bayes_factors"]
        assert bf["DM1"]["DM2"] == pytest.approx(-bf["DM2"]["DM1"], rel=1e-12)
        assert bf["DM1"]["DM1"] == 0.0

    def test_report_emits_overlay(self, tmp_path):
        data = _simulate_cohort_csv(tmp_path, T=25)
        cfg = _write(
            tmp_path, "r.json",
            json.dumps({"prior": {"a0": 80.0, "b0": 2.0, "gamma_prior": "grid", "gamma_grid_step": 0.1},
                        "mcmc": {"iterations": 300, "burn_in": 0, "thinning": 1, "proposal_scale": 1.0}}),
        )
        out = tmp_path / "rep"
        code, _ = run_command(
            ["report", "--config", str(cfg), "--model", "DM1", "--seed", "2",
             "--data", str(data), "--out", str(out)]
        )
        assert code == 0
        assert (out / "fit.csv").exists()
        assert not (out / "summary.csv").exists()
        assert not (out / "diagnostics.csv").exists()
        assert json.loads((out / "summary.json").read_text())["command"] == "report"


class TestStandardizeCovariates:
    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_flag_equals_prestandardized_csv(self, tmp_path, command):
        """standardize_covariates: true gives the outputs of the same run on a
        CSV whose covariate was standardized before writing, with the flag off."""
        sim_cfg = _write(tmp_path, "sim.json", json.dumps({
            "simulate": {"T": 35, "gamma": 0.6, "beta": [0.2], "n_covariates": 1, "covariate_sd": 3.0},
            "prior": {"a0": 80.0, "b0": 2.0},
        }))
        code, _ = run_command(["simulate", "--config", str(sim_cfg), "--model", "DM2",
                               "--seed", "5", "--out", str(tmp_path / "sim")])
        assert code == 0
        raw = tmp_path / "sim" / "cohort.csv"
        header, *lines = raw.read_text().splitlines()
        rows = [line.split(",") for line in lines]
        z = np.array([float(r[2]) for r in rows])
        for r, v in zip(rows, (z - z.mean()) / z.std()):
            r[2] = format_number(v)
        prestandardized = _write(tmp_path, "std.csv", "\n".join([header, *(",".join(r) for r in rows)]) + "\n")

        base = {
            "prior": {"a0": 80.0, "b0": 2.0},
            "mcmc": {"iterations": 400, "burn_in": 100, "thinning": 1, "proposal_scale": 1.0},
            "compare": {"models": ["DM2", "BPM"]},
        }
        outputs = []
        for data, flag in ((raw, True), (prestandardized, False)):
            cfg = _write(tmp_path, f"{flag}.json", json.dumps({**base, "standardize_covariates": flag}))
            out = tmp_path / f"out_{flag}"
            code, _ = run_command([command, "--config", str(cfg), "--model", "DM2", "--seed", "4",
                                   "--data", str(data), "--out", str(out)])
            assert code == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "resolved_config.json"})
        assert outputs[0] == outputs[1]


class TestEmitReports:
    def test_empty_forecast_window_header_only(self, tmp_path):
        report = ForecastReport(
            model="DM1", origins=(), actuals=(), points=(), lower=(), upper=(),
            mape=None, rmse=0.0, mcov=None, mwid=None,
        )
        emit_reports({"forecast.csv": io.forecast_csv_rows(report)}, tmp_path)
        assert (tmp_path / "forecast.csv").read_text() == "origin,actual,point,lo95,hi95\n"

    def test_always_emits_resolved_config(self, tmp_path):
        cfg = _write(tmp_path, "s.json", json.dumps({"simulate": {"T": 3}}))
        out = tmp_path / "o"
        code, outputs = run_command(["simulate", "--config", str(cfg), "--model", "DM1",
                                     "--seed", "1", "--out", str(out)])
        assert code == 0
        assert sorted(outputs) == ["cohort.csv", "resolved_config.json", "summary.json"]
        assert sorted(p.name for p in out.iterdir()) == sorted(outputs)
        assert json.loads((out / "resolved_config.json").read_text())["simulate"]["T"] == 3

    def test_writes_each_entry_by_suffix(self, tmp_path):
        files = emit_reports({"a.json": {"x": [1, 2]}, "b.csv": (["k", "v"], [["p", 0.1], [2, None]])}, tmp_path)
        assert [p.name for p in files] == ["a.json", "b.csv"]
        assert json.loads((tmp_path / "a.json").read_text()) == {"x": [1, 2]}
        assert (tmp_path / "b.csv").read_text() == "k,v\np,0.10000000000000001\n2,NA\n"


class TestDeterminism:
    def test_same_seed_byte_identical_directories(self, tmp_path):
        data = _simulate_cohort_csv(tmp_path, T=25)
        cfg = _write(
            tmp_path, "d.json",
            json.dumps({"prior": {"a0": 80.0, "b0": 2.0},
                        "mcmc": {"iterations": 400, "burn_in": 100, "thinning": 1, "proposal_scale": 1.0}}),
        )
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            code, _ = run_command(
                ["fit", "--config", str(cfg), "--model", "DM2", "--seed", "17",
                 "--data", str(data), "--out", str(out)]
            )
            assert code == 0
            outs.append(out)
        files1 = sorted(p.name for p in outs[0].iterdir())
        files2 = sorted(p.name for p in outs[1].iterdir())
        assert files1 == files2
        for name in files1:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        data = _simulate_cohort_csv(tmp_path, T=25)
        outs = {}
        for seed in (1, 2):
            out = tmp_path / f"seed{seed}"
            cfg = _write(
                tmp_path, f"s{seed}.json",
                json.dumps({"prior": {"a0": 80.0, "b0": 2.0},
                            "mcmc": {"iterations": 300, "burn_in": 100, "thinning": 1, "proposal_scale": 1.0}}),
            )
            code, _ = run_command(
                ["fit", "--config", str(cfg), "--model", "DM1", "--seed", str(seed),
                 "--data", str(data), "--out", str(out)]
            )
            assert code == 0
            outs[seed] = (out / "summary.csv").read_bytes()
        assert outs[1] != outs[2]
