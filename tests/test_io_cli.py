"""Tests for CSV ingestion, report emission and the command-line surface."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynpois.cli import emit_reports, resolve_config, run_command, RunArtifacts
from dynpois.evaluation import ForecastReport
from dynpois.io import ValidationError, format_number, ingest_csv


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
        assert "forecast_metrics" in summary

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
        artifacts = RunArtifacts(resolved_config={"seed": 1}, summary={"command": "forecast"})
        artifacts.forecast_report = report
        emit_reports(artifacts, tmp_path)
        assert (tmp_path / "forecast.csv").read_text() == "origin,actual,point,lo95,hi95\n"

    def test_always_emits_resolved_config(self, tmp_path):
        artifacts = RunArtifacts(resolved_config={"seed": 1}, summary={"command": "x"})
        files = emit_reports(artifacts, tmp_path)
        names = {p.name for p in files}
        assert "resolved_config.json" in names
        assert "summary.json" in names


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
