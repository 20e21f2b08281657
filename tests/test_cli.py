import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from enhq.cli import _SCHEMA, _VALIDATOR, ConfigError, main, run, validate_config


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def body_of(path):
    return "\n".join(ln for ln in path.read_text().splitlines() if not ln.startswith("#"))


class TestValidation:
    def test_schema_is_valid_against_its_metaschema(self):
        type(_VALIDATOR).check_schema(_SCHEMA)

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            validate_config({"experiment": "bogus"})

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            validate_config({"experiment": "metric", "tyop": 1})

    def test_nested_path_in_message(self):
        with pytest.raises(ConfigError, match="representation.dim"):
            validate_config({"experiment": "metric", "representation": {"dim": 1}})

    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/nonexistent.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        assert main(["run", "--config", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_empty_label_range_writes_nothing(self, tmp_path, capsys):
        cfg = {
            "experiment": "metric",
            "labels": {"grid": {"p": [0, 1, 0], "q": [0, 1, 3]}},
        }
        out = tmp_path / "out"
        code = main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert code == 2
        assert "empty label range" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_experiment(self, tmp_path, capsys):
        code = main(["run", "--config", write_config(tmp_path, {"seed": 1})])
        assert code == 2

    @pytest.mark.parametrize("command,cfg", [
        ("run", {"experiment": "metric", "labels": {"grid": {"p": [0, 0, 1], "q": [0, 0, 1]}},
                 "output": {"format": "json"}}),
        ("verify", {"suites": ["curvature"], "output": {"format": "csv"}}),
        ("run", {"experiment": "evolve", "model": {"name": "harmonic"},
                 "integrator": {"method": "dop853"}}),
    ], ids=["metric-format", "verify-format", "dop853"])
    def test_rejected_keys_write_nothing(self, tmp_path, capsys, command, cfg):
        # output.format is read by evolve alone; dop853 is no longer a method
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        path = "output.format" if "output" in cfg else "integrator.method"
        assert err.startswith(f"error: config error at {path}") and err.count("\n") == 1
        assert not out.exists()


class TestLibraryErrors:
    """Library exceptions reach the user as one line and a documented exit code."""

    @pytest.mark.parametrize("cfg,code,message", [
        ({"experiment": "metric", "family": {"kind": "affine", "beta": 0.5},
          "labels": {"grid": {"p": [0, 0, 1], "q": [1, 1, 1]}}},
         2, "error: beta must exceed hbar"),
        ({"experiment": "evolve", "hamiltonian": {"expression": "0.5*P^2 - Q^4"},
          "representation": {"dim": 16}, "x0": [0.0, 2.0], "integrator": {"t_final": 5.0}},
         1, "numerical failure: integration failed"),
    ], ids=["domain-error", "numerical-failure"])
    def test_exit_code_one_line_and_no_directory(self, tmp_path, capsys, cfg, code, message):
        out = tmp_path / "fresh" / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not (tmp_path / "fresh").exists()


class TestCapacity:
    CFG = {
        "experiment": "expectation",
        "representation": {"kind": "line", "dim": 40},
        "labels": {"grid": {"p": [0, 8, 3], "q": [0, 8, 3]}},
    }

    def test_too_small_basis_exits_3_and_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "fresh" / "out"
        assert main(["run", "--config", write_config(tmp_path, self.CFG), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("capacity error: ") and err.count("\n") == 1
        assert "representation.dim to at least 71" in err
        assert not (tmp_path / "fresh").exists()

    def test_existing_directory_is_kept(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        assert main(["run", "--config", write_config(tmp_path, self.CFG), "--out", str(out)]) == 3
        assert out.is_dir()


class TestMetricExperiment:
    def test_canonical_grid_is_flat(self, tmp_path):
        cfg = {
            "experiment": "metric",
            "representation": {"kind": "line", "dim": 160},
            "family": {"kind": "canonical"},
            "labels": {"grid": {"p": [-1, 1, 5], "q": [-1, 1, 5]}},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        header, rows = read_rows(out / "metric.csv")
        assert header == ["p", "q", "g_pp", "g_pq", "g_qq"]
        assert len(rows) == 25
        for row in rows:
            g_pp, g_pq, g_qq = map(float, row[2:])
            assert abs(g_pp - 1) < 1e-12 and abs(g_qq - 1) < 1e-12 and abs(g_pq) < 1e-12

    def test_extended_grid_is_flat(self, tmp_path):
        cfg = {
            "experiment": "metric",
            "representation": {"kind": "line", "dim": 80},
            "family": {"kind": "extended", "a": 0.3, "b": 0.1},
            "labels": {"grid": {"p": [-0.5, 0.5, 3], "q": [-0.5, 0.5, 3]}},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out / "metric.csv")
        assert len(rows) == 9
        for row in rows:
            g_pp, g_pq, g_qq = map(float, row[2:])
            assert abs(g_pp - 1) < 1e-12 and abs(g_qq - 1) < 1e-12 and abs(g_pq) < 1e-12

    def test_metric_step_is_not_a_config_key(self, tmp_path, capsys):
        # the metric takes no step, so the key is rejected like any unknown key
        cfg = {
            "experiment": "metric",
            "metric_step": 1e-4,
            "labels": {"grid": {"p": [0, 0, 1], "q": [0, 0, 1]}},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert "metric_step" in capsys.readouterr().err
        assert not out.exists()


class TestCompareHydrogen:
    def test_default_run(self, tmp_path):
        cfg = {"experiment": "compare_hydrogen"}
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert (out / "hydrogen_classical.csv").exists()
        assert (out / "hydrogen_enhanced.csv").exists()
        summary = json.loads((out / "hydrogen_summary.json").read_text())
        assert summary["collapse_detected"]
        assert summary["collapse_time"] == pytest.approx(np.pi / np.sqrt(8), rel=1e-6)
        assert not summary["enhanced_singularity"]
        assert summary["enhanced_min_q"] == pytest.approx(
            summary["predicted_min_radius"], abs=1e-6
        )
        classical_body = body_of(out / "hydrogen_classical.csv")
        assert "singularity_hit" in classical_body


class TestDeterminism:
    def _expectation_config(self):
        return {
            "experiment": "expectation",
            "seed": 7,
            "representation": {"kind": "line", "dim": 120},
            "family": {"kind": "canonical"},
            "labels": {"random": {"count": 10, "box": 2.0}},
        }

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, self._expectation_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg_path, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg_path, "--out", str(out2)]) == 0
        f1 = (out1 / "expectation.csv").read_bytes()
        f2 = (out2 / "expectation.csv").read_bytes()
        assert f1 == f2

    def test_stamp_changes_header_not_body(self, tmp_path):
        cfg_path = write_config(tmp_path, self._expectation_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg_path, "--out", str(out1), "--stamp"]) == 0
        assert main(["run", "--config", cfg_path, "--out", str(out2)]) == 0
        p1, p2 = out1 / "expectation.csv", out2 / "expectation.csv"
        assert "# generated=" in p1.read_text()
        assert body_of(p1) == body_of(p2)


class TestExperiments:
    def test_expectation_canonical_columns(self, tmp_path):
        cfg = {
            "experiment": "expectation",
            "representation": {"kind": "line", "dim": 160},
            "labels": {"grid": {"p": [0, 1, 2], "q": [0, 1, 2]}},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        header, rows = read_rows(out / "expectation.csv")
        assert header == ["p", "q", "mean_p", "mean_q", "var_p", "var_q"]
        for row in rows:
            assert float(row[2]) == pytest.approx(float(row[0]), abs=1e-8)
            assert float(row[4]) == pytest.approx(0.5, abs=1e-8)

    def test_expectation_affine_columns(self, tmp_path):
        cfg = {
            "experiment": "expectation",
            "family": {"kind": "affine", "beta": 2.0},
            "representation": {"kind": "halfline", "n": 2000},
            "labels": {"grid": {"p": [0, 0, 1], "q": [1, 2, 2]}},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        header, rows = read_rows(out / "expectation.csv")
        assert header == ["p", "q", "mean_q", "mean_q2", "mean_p2"]
        assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-8)

    def test_expectation_spin_rows(self, tmp_path):
        cfg = {
            "experiment": "expectation",
            "family": {"kind": "spin"},
            "representation": {"kind": "spin", "s": 2.5},
            "labels": {"grid": {"p": [-1, 1, 3], "q": [0, 2, 2]}},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        header, rows = read_rows(out / "expectation.csv")
        assert header == ["p", "q", "mean_s3"] and len(rows) == 6
        for p, _, mean_s3 in rows:
            assert float(mean_s3) == pytest.approx(np.sqrt(2.5) * float(p), abs=1e-12)

    def test_evolve_spin_precession(self, tmp_path):
        # p is constant and the azimuth q / sqrt(s hbar) advances at rate B
        cfg = {
            "experiment": "evolve",
            "model": {"name": "spin_precession", "B": 0.7, "s": 2.0},
            "x0": [0.5, 0.1],
            "integrator": {"t_final": 3.0, "n_samples": 31},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out / "trajectory.csv")
        t, p, q = (np.array([float(r[i]) for r in rows]) for i in range(3))
        assert len(rows) == 31 and not any(r[4] for r in rows)
        assert np.all(p == 0.5)
        assert_allclose((q - 0.1) / np.sqrt(2.0), 0.7 * t, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("method,drift", [("rk45", 1e-8), ("leapfrog", 1e-6)])
    def test_evolve_hydrogen_enhanced_bounces(self, tmp_path, method, drift):
        cfg = {
            "experiment": "evolve",
            "model": {"name": "hydrogen_enhanced"},
            "x0": [-0.3, 1.0],
            "integrator": {"t_final": 20.0, "method": method},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out / "trajectory.csv")
        assert [r[4] for r in rows if r[4]] == ["bounce", "bounce"]
        energies = np.array([float(r[3]) for r in rows])
        assert np.max(np.abs(energies - energies[0])) < drift * abs(energies[0])

    def test_evolve_csv_and_json(self, tmp_path):
        base = {
            "experiment": "evolve",
            "model": {"name": "harmonic"},
            "x0": [0.0, 1.0],
            "integrator": {"t_final": 6.283185307179586},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, base), "--out", str(out)]) == 0
        header, rows = read_rows(out / "trajectory.csv")
        assert header == ["t", "p", "q", "H", "event"]
        cfg_json = dict(base, output={"format": "json"})
        assert main(
            ["run", "--config", write_config(tmp_path, cfg_json, "c2.json"), "--out", str(out)]
        ) == 0
        doc = json.loads((out / "trajectory.json").read_text())
        assert "trajectory" in doc and len(doc["trajectory"]["t"]) > 100

    def test_spin_flow_crosses_the_azimuth_seam(self, tmp_path):
        # q passes pi sqrt(s hbar) on the way to t = 20
        cfg = {
            "experiment": "evolve",
            "hamiltonian": {"expression": "S3*S3 + S1", "variables": "spin"},
            "representation": {"kind": "spin", "s": 5},
            "x0": [1.0, 0.1],
            "integrator": {"t_final": 20.0},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out / "trajectory.csv")
        samples = [r for r in rows if not r[4]]
        assert float(samples[-1][0]) == 20.0
        assert max(float(r[2]) for r in samples) > np.pi * np.sqrt(5.0)
        energies = np.array([float(r[3]) for r in samples])
        assert np.max(np.abs(energies - energies[0])) < 1e-8 * abs(energies[0])

    def test_curvature_experiment(self, tmp_path):
        cfg = {
            "experiment": "curvature",
            "family": {"kind": "affine", "beta": 2.0},
            "labels": {"grid": {"p": [0, 0, 1], "q": [0.8, 1.6, 3]}},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out / "curvature.csv")
        for row in rows:
            assert float(row[2]) == pytest.approx(-1.0, abs=1e-6)

    def test_transform_check(self, tmp_path):
        cfg = {
            "experiment": "transform_check",
            "model": {"name": "harmonic"},
            "transform": {"name": "rotation"},
            "x0": [0.0, 1.0],
            "integrator": {"t_final": 6.283185307179586, "n_samples": 2000},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "transform_check.json").read_text())
        assert doc["max_pointwise_deviation"] < 1e-6
        assert abs(doc["action_residual"]) < 1e-8

    def test_transform_check_scaling_of_a_collapse(self, tmp_path):
        # the relabeled half-line flow collapses too, at the same time
        cfg = {
            "experiment": "transform_check",
            "model": {"name": "hydrogen_classical"},
            "transform": {"name": "scaling", "factor": 2.0},
            "x0": [-0.3, 1.0],
            "integrator": {"t_final": 5.0},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "transform_check.json").read_text())
        assert doc["transform"] == "scaling(2.0)"
        assert doc["max_pointwise_deviation"] < 1e-6
        assert doc["generator_difference"] == 0.0 and abs(doc["action_residual"]) < 1e-12

    def test_limit_study(self, tmp_path):
        cfg = {
            "experiment": "limit_study",
            "hamiltonian": {"expression": "0.5*P^2 + 0.5*Q^2"},
            "hbar_sequence": [1.0, 0.5, 0.25, 0.125],
            "labels": {"grid": {"p": [1, 1, 1], "q": [1, 1, 1]}},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        header, rows = read_rows(out / "limit_study.csv")
        assert header == ["p", "q", "limit", "leading_power", "residual", "classical_value"]
        assert float(rows[0][2]) == pytest.approx(float(rows[0][5]), abs=1e-8)
        assert int(rows[0][3]) >= 1

    def test_basename_prefix(self, tmp_path):
        cfg = {
            "experiment": "metric",
            "representation": {"dim": 64},
            "labels": {"grid": {"p": [0, 0, 1], "q": [0, 0, 1]}},
            "output": {"basename": "flat"},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert (out / "flat_metric.csv").exists()


class TestVerify:
    def test_fiducial_and_curvature_suites(self, tmp_path, capsys):
        cfg = {"suites": ["fiducial_moments", "curvature"]}
        out = tmp_path / "out"
        code = main(["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "[PASS] fiducial_moments: <Q>" in printed
        report = json.loads((out / "report_verify.json").read_text())
        assert report["passed"]
        affine_1 = next(
            c
            for c in report["suites"]["curvature"]["checks"]
            if c["name"] == "affine curvature beta=1.0"
        )
        assert affine_1["measured"] == pytest.approx(-2.0, abs=1e-6)

    def test_energy_drift_suite(self, tmp_path):
        cfg = {"suites": ["energy_drift"]}
        report, code = run_verify(tmp_path, cfg)
        assert code == 0
        check = report["suites"]["energy_drift"]["checks"][0]
        assert check["measured"] < 1e-8

    def test_label_means_and_flat_metric_suites(self, tmp_path):
        report, code = run_verify(tmp_path, {"suites": ["label_means", "flat_metric"]})
        assert code == 0
        assert report["suites"]["label_means"]["passed"]
        assert report["suites"]["flat_metric"]["passed"]
        assert report["suites"]["flat_metric"]["checks"][0]["measured"] < 1e-12

    def test_requires_suites(self, tmp_path, capsys):
        code = main(["verify", "--config", write_config(tmp_path, {"hbar": 1.0})])
        assert code == 2
        assert "suites" in capsys.readouterr().err


def run_verify(tmp_path, cfg):
    from enhq.cli import report_verify

    out = tmp_path / "out"
    return report_verify(cfg, out)


class TestRunApi:
    def test_run_returns_paths(self, tmp_path):
        cfg = {
            "experiment": "metric",
            "representation": {"dim": 64},
            "labels": {"grid": {"p": [0, 0, 1], "q": [0, 0, 1]}},
        }
        paths = run(cfg, tmp_path / "out")
        assert len(paths) == 1 and paths[0].exists()

    def test_header_carries_hash_and_version(self, tmp_path):
        cfg = {
            "experiment": "metric",
            "representation": {"dim": 64},
            "labels": {"grid": {"p": [0, 0, 1], "q": [0, 0, 1]}},
        }
        (path,) = run(cfg, tmp_path / "out")
        text = path.read_text()
        assert "# enhq=" in text
        assert "# config_sha256=" in text
