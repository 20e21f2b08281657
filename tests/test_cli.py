import errno
import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import enhq.cli
import enhq.models
from enhq import build_fock_rep, canonical_family, enhance, fs_metric_numeric
from enhq.cli import ConfigError, _covariance_metric, main, run, validate_config
from oracles import fiducial_p2_closed, fs_metric

NAN, INF = float("nan"), float("inf")


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


@pytest.fixture
def fock_reps(monkeypatch):
    """The ``(dim, hbar)`` of each Fock representation the CLI builds, in order."""
    built = []
    build = enhq.cli.build_fock_rep
    monkeypatch.setattr(enhq.cli, "build_fock_rep",
                        lambda dim, hbar: built.append((dim, hbar)) or build(dim, hbar))
    return built


# one wrong value for each entry of the config key table
WRONG_VALUES = {
    "experiment": "bogus",
    "seed": -1,
    "hbar": 0,
    "representation.kind": "torus",
    "representation.dim": 1,
    "representation.x_min": 0.0,
    "representation.x_max": -60.0,
    "representation.n": 15,
    "representation.s": 0,
    "family.kind": "squeezed",
    "family.beta": -2.0,
    "family.a": "0.3",
    "family.b": None,
    "model.name": "oscillator",
    "model.m": 0,
    "model.e2": -1,
    "model.beta": INF,
    "model.B": True,
    "hamiltonian.expression": 2,
    "hamiltonian.variables": "polar",
    "labels.grid.p": [0, 1],
    "labels.grid.q": [0, 1, 3, 4],
    "labels.random.count": 2.5,
    "labels.random.box": 0,
    "integrator.t_final": 0,
    "integrator.tol": -1e-10,
    "integrator.n_samples": 1,
    "integrator.q_floor": 0.0,
    "transform.name": "shear",
    "transform.factor": "2",
    "x0": [0.0, 1.0, 2.0],
    "suites": [],
}

# the keys each block requires, with valid values
REQUIRED = {
    "model": {"name": "harmonic"},
    "hamiltonian": {"expression": "Q"},
    "labels.grid": {"p": [0, 0, 1], "q": [0, 0, 1]},
    "labels.random": {"count": 1, "box": 1.0},
    "transform": {"name": "rotation"},
}


def config_with(path, value):
    """A config holding ``value`` at the dotted ``path``, and its blocks' required keys."""
    cfg = block = {}
    *names, leaf = path.split(".")
    for depth in range(len(names)):
        block = block.setdefault(names[depth], dict(REQUIRED.get(".".join(names[:depth + 1]), {})))
    block[leaf] = value
    return cfg


class TestValidation:
    def test_every_table_entry_has_a_wrong_value(self):
        assert set(WRONG_VALUES) == set(enhq.cli._KEYS)

    @pytest.mark.parametrize("path", list(WRONG_VALUES))
    def test_each_key_check_rejects_a_wrong_value(self, path):
        with pytest.raises(ConfigError, match=rf"^config error at {re.escape(path)}(\.\d+)?: "):
            validate_config(config_with(path, WRONG_VALUES[path]))

    def test_integer_keys_take_integral_floats_and_numbers_no_bool(self):
        cfg = {"representation": {"dim": 5.0}}
        assert validate_config(cfg) is cfg
        with pytest.raises(ConfigError, match="^config error at hbar: True is not a finite number > 0$"):
            validate_config({"hbar": True})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            validate_config({"experiment": "bogus"})

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            validate_config({"experiment": "metric", "tyop": 1})

    def test_nested_path_in_message(self):
        with pytest.raises(ConfigError, match="representation.dim"):
            validate_config({"experiment": "metric", "representation": {"dim": 1}})

    def test_parser_is_built_once_and_usage_errors_still_exit_2(self, capsys):
        assert enhq.cli._parser() is enhq.cli._parser()
        for _ in range(2):
            with pytest.raises(SystemExit) as err:
                main(["run"])
            assert err.value.code == 2
            assert "the following arguments are required: --config" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/nonexistent.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        assert main(["run", "--config", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_empty_label_range_writes_nothing(self, tmp_path, capsys):
        # a zero point count fails the key table's check (test_rejected_keys_write_nothing)
        cfg = {
            "experiment": "metric",
            "labels": {"grid": {"p": [1, 0, 3], "q": [0, 1, 3]}},
        }
        out = tmp_path / "out"
        code = main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert code == 2
        assert "empty label range" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_experiment(self, tmp_path, capsys):
        code = main(["run", "--config", write_config(tmp_path, {"seed": 1})])
        assert code == 2

    @pytest.mark.parametrize("command,cfg,path", [
        ("run", {"experiment": "evolve", "model": {"name": "harmonic"},
                 "integrator": {"method": "rk45"}}, "integrator"),
        ("run", {"experiment": "metric", "labels": {"grid": {"p": ["a", 1, 3], "q": [0, 1, 3]}}},
         "labels.grid.p.0"),
        ("run", {"experiment": "metric", "labels": {"grid": {"p": [0, 1, 2.5], "q": [0, 1, 3]}}},
         "labels.grid.p.2"),
        ("run", {"experiment": "metric", "labels": {"grid": {"p": [0, 1, 0], "q": [0, 1, 3]}}},
         "labels.grid.p.2"),
        ("run", {"experiment": "evolve", "model": {"name": "spin_precession", "s": 2.0}},
         "model"),
        ("run", {"experiment": "compare_hydrogen", "model": {"name": "spin_precession"}},
         "model.name"),
        ("run", {"experiment": "expectation", "model": {"name": "harmonic"},
                 "hamiltonian": {"expression": "Q^2"},
                 "labels": {"grid": {"p": [0, 0, 1], "q": [0, 0, 1]}}}, "model"),
        ("run", {"experiment": "evolve", "model": {"name": "harmonic"},
                 "hamiltonian": {"expression": "Q^2"}}, "hamiltonian"),
        ("run", {"experiment": "limit_study", "hbar": 0.5, "hamiltonian": {"expression": "Q^2"},
                 "labels": {"grid": {"p": [0, 0, 1], "q": [0, 0, 1]}}}, "hbar"),
        ("verify", {"suites": ["curvature"], "x0": [0.0, 1.0]}, "x0"),
        ("run", {"experiment": "evolve", "model": {"name": "hydrogen_enhanced"},
                 "representation": {"n": 500, "dim": 7}, "x0": [-0.3, 1.0],
                 "integrator": {"t_final": 2.0, "n_samples": 20}}, "representation"),
        ("run", {"experiment": "curvature", "family": {"kind": "affine", "beta": 2.0},
                 "representation": {"dim": 7},
                 "labels": {"grid": {"p": [0, 1, 2], "q": [0.5, 1, 2]}}}, "representation.dim"),
        ("verify", {"suites": ["curvature"], "representation": {"dim": 7},
                    "family": {"kind": "affine"}, "seed": 3}, "representation"),
        ("verify", {"suites": ["label_means", "energy_drift"], "family": {"kind": "canonical"}},
         "family"),
        ("run", {"experiment": "compare_hydrogen", "representation": {"kind": "spin", "s": 3}},
         "representation"),
        ("run", {"experiment": "evolve", "model": {"name": "harmonic", "m": 2.0},
                 "integrator": {"t_final": 1.0, "n_samples": 5}}, "model.m"),
        ("run", {"experiment": "compare_hydrogen", "model": {"name": "hydrogen_enhanced", "B": 1.0},
                 "x0": [-0.3, 1.0], "integrator": {"t_final": 1.0, "n_samples": 20}}, "model.B"),
        ("run", {"experiment": "evolve", "model": {"name": "spin_precession", "m": 2.0},
                 "x0": [0.1, 0.0], "integrator": {"t_final": 1.0, "n_samples": 5}}, "model.m"),
        ("run", {"experiment": "expectation", "representation": {"dim": 48, "n": 500},
                 "labels": {"grid": {"p": [0, 0, 1], "q": [0, 0, 1]}}}, "representation.n"),
        ("run", {"experiment": "metric", "representation": {"dim": 16, "x_min": 0.1},
                 "labels": {"grid": {"p": [0, 0, 1], "q": [0, 0, 1]}}}, "representation.x_min"),
        ("run", {"experiment": "curvature", "family": {"kind": "spin"},
                 "representation": {"s": 2, "dim": 7},
                 "labels": {"grid": {"p": [0, 0.5, 2], "q": [0, 0.5, 2]}}}, "representation.dim"),
        ("run", {"experiment": "metric", "family": {"kind": "canonical", "beta": 2.0},
                 "representation": {"dim": 16},
                 "labels": {"grid": {"p": [0, 0, 1], "q": [0, 0, 1]}}}, "family.beta"),
        ("run", {"experiment": "expectation", "family": {"kind": "affine", "a": 0.3},
                 "representation": {"n": 500},
                 "labels": {"grid": {"p": [0, 0, 1], "q": [1, 1, 1]}}}, "family.a"),
        ("run", {"experiment": "transform_check", "model": {"name": "harmonic"},
                 "representation": {"dim": 8}, "transform": {"name": "rotation", "factor": 3.0},
                 "integrator": {"t_final": 1.0, "n_samples": 20}}, "transform.factor"),
        ("run", {"experiment": "metric", "representation": {"dim": 16},
                 "labels": {"grid": {"p": [0, 0, 1], "q": [0, 0, 1]},
                            "random": {"count": 2, "box": 0.5}}}, "labels.random"),
        ("run", {"experiment": "metric", "seed": 3, "representation": {"dim": 16},
                 "labels": {"grid": {"p": [0, 0, 1], "q": [0, 0, 1]}}}, "seed"),
        # what a run needs and lacks, named the same way
        ("run", {"seed": 1}, "experiment"),
        ("verify", {"hbar": 1.0}, "suites"),
        ("run", {"experiment": "evolve", "model": {"m": 1.0}}, "model"),
        ("run", {"experiment": "evolve", "x0": [0.0, 1.0]}, "model"),
        ("run", {"experiment": "metric", "representation": {"dim": 16}}, "labels"),
        ("run", {"experiment": "metric", "representation": {"dim": 16}, "labels": {}}, "labels"),
        ("run", {"experiment": "metric", "labels": {"grid": {"p": [1, 0, 3], "q": [0, 1, 3]}}},
         "labels.grid.p"),
        ("run", {"experiment": "metric", "labels": {"grid": {"p": [0, 1, 3], "q": [1, 0, 3]}}},
         "labels.grid.q"),
        ("run", {"experiment": "metric", "labels": {"random": {"count": 0, "box": 1.0}}},
         "labels.random.count"),
        ("run", {"experiment": "metric", "labels": {"random": {"count": 2, "box": 0.0}}},
         "labels.random.box"),
        ("run", {"experiment": "transform_check", "model": {"name": "harmonic"}}, "transform"),
        ("run", {"experiment": "limit_study", "labels": {"grid": {"p": [0, 0, 1], "q": [0, 0, 1]}}},
         "hamiltonian"),
        ("run", {"experiment": "limit_study", "hamiltonian": {"expression": "Q", "variables": "affine"},
                 "labels": {"grid": {"p": [0, 0, 1], "q": [1, 1, 1]}}}, "hamiltonian.variables"),
        # the limit is read off one exact series: there is no hbar sequence
        ("run", {"experiment": "limit_study", "hamiltonian": {"expression": "Q^2"},
                 "hbar_sequence": [1.0, 0.5, 0.25],
                 "labels": {"grid": {"p": [0, 0, 1], "q": [0, 0, 1]}}}, "<root>"),
        # json.load parses NaN and Infinity: every number must be finite
        ("run", {"experiment": "curvature", "family": {"kind": "affine", "beta": NAN},
                 "labels": {"grid": {"p": [0, 0, 1], "q": [1, 1, 1]}}}, "family.beta"),
        ("run", {"experiment": "metric", "hbar": NAN, "representation": {"dim": 16},
                 "labels": {"grid": {"p": [0, 0, 1], "q": [0, 0, 1]}}}, "hbar"),
        ("run", {"experiment": "evolve", "model": {"name": "harmonic"}, "x0": [NAN, 1.0]}, "x0.0"),
        ("run", {"experiment": "compare_hydrogen", "model": {"name": "hydrogen_enhanced", "beta": NAN}},
         "model.beta"),
        ("run", {"experiment": "evolve", "model": {"name": "spin_precession", "B": NAN},
                 "x0": [0.1, 0.0]}, "model.B"),
        ("run", {"experiment": "metric", "labels": {"grid": {"p": [0, INF, 2], "q": [0, 1, 3]}}},
         "labels.grid.p.1"),
    ], ids=["integrator-method", "grid-text-bound", "grid-fractional-count",
            "grid-zero-count", "model-s", "hydrogen-with-spin-model", "expectation-with-model",
            "model-and-hamiltonian", "limit-study-hbar", "verify-x0", "hydrogen-representation",
            "affine-curvature-representation", "curvature-suite-keys", "canonical-suites-family",
            "spin-as-halfline-hydrogen", "harmonic-m", "compare-hydrogen-B", "spin-precession-m",
            "line-n", "line-x-min", "spin-curvature-dim", "canonical-beta", "affine-a",
            "rotation-factor", "random-next-to-grid", "seed-with-grid",
            "no-experiment", "no-suites", "model-without-name", "no-model-or-hamiltonian",
            "no-labels", "labels-without-points", "grid-p-range", "grid-q-range",
            "random-zero-count", "random-zero-box", "no-transform", "limit-study-without-hamiltonian",
            "limit-study-affine", "hbar-sequence",
            "nan-affine-beta", "nan-hbar", "nan-x0", "nan-hydrogen-beta", "nan-spin-B",
            "infinite-grid-bound"])
    def test_rejected_keys_write_nothing(self, tmp_path, capsys, command, cfg, path):
        # the integrator takes no method; a grid axis is [lo, hi, count] with
        # an integer count of at least 1; the spin size is representation.s
        # alone; any other key, at any depth, that the run never read would
        # be silently ignored
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: config error at {path}:")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command,cfg", [
        ("run", {"experiment": "expectation", "representation": {"kind": "spin", "s": 2},
                 "labels": {"grid": {"p": [0, 0.5, 2], "q": [0, 0.5, 2]}}}),
        ("run", {"experiment": "expectation", "representation": {"kind": "halfline", "n": 500},
                 "family": {"kind": "spin"},
                 "labels": {"grid": {"p": [0, 0.5, 2], "q": [0, 0.5, 2]}}}),
        ("run", {"experiment": "evolve", "model": {"name": "spin_precession"},
                 "representation": {"kind": "line"}, "x0": [0.1, 0.0]}),
        ("run", {"experiment": "limit_study", "hamiltonian": {"expression": "Q^2"},
                 "representation": {"kind": "halfline"},
                 "labels": {"grid": {"p": [0, 0, 1], "q": [0, 0, 1]}}}),
        ("verify", {"suites": ["curvature", "fiducial_moments"],
                    "representation": {"kind": "line"}}),
        ("run", {"experiment": "curvature", "family": {"kind": "spin"},
                 "representation": {"kind": "line", "s": 2},
                 "labels": {"grid": {"p": [0, 0.5, 2], "q": [0, 0.5, 2]}}}),
    ], ids=["spin-as-fock", "halfline-as-spin", "line-as-spin", "halfline-as-fock",
            "line-as-halfline", "line-as-spin-curvature"])
    def test_representation_kind_must_be_the_one_built(self, tmp_path, capsys, command, cfg):
        # checked before any suite prints and before the directory is made
        out = tmp_path / "fresh" / "out"
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: config error at representation.kind")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.parametrize("command,cfg,key", [
        ("run", {"experiment": "metric", "representation": {"dim": 16},
                 "labels": {"grid": {"p": [0, 0, 1], "q": [0, 0, 1]}}, "output": {"dir": "x"}}, "output"),
        ("run", {"experiment": "evolve", "model": {"name": "harmonic"},
                 "integrator": {"t_final": 1.0, "n_samples": 5}, "output": {"format": "json"}}, "output"),
        ("verify", {"suites": ["curvature"], "output": {"basename": "flat"}}, "output"),
        ("run", {"experiment": "compare_hydrogen", "horizon_factor": 2.0}, "horizon_factor"),
        ("verify", {"suites": ["curvature"], "horizon_factor": 10.0}, "horizon_factor"),
    ], ids=["run-output-dir", "evolve-output-format", "verify-output-basename",
            "hydrogen-horizon-factor", "verify-horizon-factor"])
    def test_removed_keys_are_unknown(self, tmp_path, monkeypatch, capsys, command, cfg, key):
        # rejected before anything runs, and nothing is written to --out or the
        # working directory
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(tmp_path, cfg)
        assert main([command, "--config", cfg_path]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: config error at <root>: unknown key {key!r}\n"
        assert captured.out == "" and [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("flag", ["--stamp", "--verbose"])
    def test_removed_flags_are_usage_errors(self, tmp_path, capsys, command, flag):
        cfg_path = write_config(tmp_path, {"suites": ["curvature"]})
        with pytest.raises(SystemExit) as err:
            main([command, "--config", cfg_path, flag])
        assert err.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_out_defaults_to_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = {"experiment": "metric", "representation": {"dim": 16},
               "labels": {"grid": {"p": [0, 0, 1], "q": [0, 0, 1]}}}
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
        assert main(["verify", "--config", write_config(tmp_path, {"suites": ["curvature"]}, "v.json")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cfg.json", "metric.csv", "report_verify.json", "v.json"]

    def test_the_view_records_lookups_only(self):
        view = enhq.cli._Reads({"a": {"b": 1, "c": 2}, "d": 3})
        assert "d" in view and json.loads(json.dumps(view)) == {"a": {"b": 1, "c": 2}, "d": 3}
        assert view.read == set()
        assert view["a"].get("b") == 1 and view.get("e") is None
        assert view.read == {"a", "a.b"}
        with pytest.raises(ConfigError, match="^config error at a.c: test does not read it$"):
            view.check("test")
        assert view["a"]["c"] == 2 and view["d"] == 3
        view.check("test")


BAD_EXPRESSIONS = ["Q*", "2*", "P*Q*", "0.5*P^2 + 0.5*Q^2*", "Q^2e40", "2^2", "(P)", "Q^7"]
FAMILIES = {"canonical": {"kind": "canonical"}, "extended": {"kind": "extended", "a": 0.3, "b": 0.2}}


class TestLibraryErrors:
    """Library exceptions reach the user as one line and a documented exit code."""

    @pytest.mark.parametrize("cfg,code,message", [
        # the family builds at any beta > 0, but its <P^2> column needs beta > hbar
        pytest.param({"experiment": "expectation", "family": {"kind": "affine", "beta": 0.5},
                      "labels": {"grid": {"p": [0, 0, 1], "q": [1, 1, 1]}}},
                     2, "error: fiducial moments of P*P reach <Q^-2> through its momentum letters and "
                        "inverse letters Q^-1, and diverge unless beta > 2/2 * hbar", id="domain-error"),
        pytest.param({"experiment": "evolve", "hamiltonian": {"expression": "0.5*P^2 - Q^4"},
                      "representation": {"dim": 16}, "x0": [0.0, 2.0],
                      "integrator": {"t_final": 5.0}},
                     1, "numerical failure: integration failed", id="numerical-failure"),
        *[pytest.param({"experiment": "evolve", "hamiltonian": {"expression": text},
                        "x0": [0.0, 1.0], "integrator": {"t_final": 1.0}},
                       2, "error: ", id=text) for text in BAD_EXPRESSIONS],
        pytest.param({"experiment": "curvature", "family": {"kind": "affine", "beta": 2.0},
                      "labels": {"grid": {"p": [0.1, 0.1, 1], "q": [1e-300, 1e-300, 1]}}},
                     2, "error: the affine metric", id="affine-curvature-1e-300"),
        # q^3 = 1e-510 underflows to 0 in the first gradient
        pytest.param({"experiment": "evolve",
                      "hamiltonian": {"expression": "0.5*P^2 + Q^-2", "variables": "affine"},
                      "x0": [0.1, 1e-170], "integrator": {"q_floor": 1e-200}},
                     1, "numerical failure: gradient is not finite at (p, q) = (0.1, 1e-170)",
                     id="underflowing-power"),
        pytest.param({"experiment": "evolve", "hamiltonian": {"expression": "1e400*Q^2 + 0.5*P^2"},
                      "x0": [0.0, 1.0], "integrator": {"t_final": 1.0}},
                     2, "error: number 1e400 overflows a double", id="number-1e400"),
        # each word's moments are finite; the merged constant is not
        pytest.param({"experiment": "evolve",
                      "hamiltonian": {"expression": "1e308*P^2 + 1e308*Q^2 + 1e308"},
                      "x0": [0.0, 1.0], "integrator": {"t_final": 1.0}},
                     2, "error: the label polynomial or its gradient overflows a double",
                     id="merged-coefficient-overflow"),
        # the family builds at any squeeze, but its adjoint action leaves the doubles
        pytest.param({"experiment": "evolve", "family": {"kind": "extended", "a": 0.0, "b": 400.0},
                      "hamiltonian": {"expression": "0.5*P^2 + 0.5*Q^2"},
                      "x0": [0.0, 1.0], "integrator": {"t_final": 1.0}},
                     2, "error: the squeeze b = 400.0 overflows", id="evolve-squeeze-400"),
        pytest.param({"experiment": "expectation", "family": {"kind": "extended", "a": 0.0, "b": -400.0},
                      "representation": {"dim": 16},
                      "labels": {"grid": {"p": [0, 0, 1], "q": [0, 0, 1]}}},
                     2, "error: the squeeze b = -400.0 overflows", id="expectation-squeeze-minus-400"),
        # a scaling by 0 is no relabeling; by 1e-320, its 1/lambda overflows
        *[pytest.param({"experiment": "transform_check", "model": {"name": "harmonic"},
                        "transform": {"name": "scaling", "factor": factor}},
                       2, f"error: {message}", id=f"scaling-{factor:g}")
          for factor, message in ((0.0, "scaling factor must be nonzero"),
                                  (1e-320, "transform matrix ((1e-320, 0.0), (0.0, inf))"))],
    ])
    def test_exit_code_one_line_and_no_directory(self, tmp_path, capsys, cfg, code, message):
        out = tmp_path / "fresh" / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not (tmp_path / "fresh").exists()


class TestFilesystemErrors:
    """A file that cannot be read or written ends in one ``error:`` line and exit 2."""

    CONFIGS = {
        "run": {"experiment": "metric", "representation": {"dim": 16},
                "labels": {"grid": {"p": [0, 0, 1], "q": [0, 0, 1]}}},
        "verify": {"suites": ["curvature"]},
    }

    def fails_cleanly(self, tmp_path, capsys, argv, error):
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: [Errno {error.errno}]") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err and captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_out_names_a_file(self, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("kept\n")
        argv = [command, "--config", write_config(tmp_path, self.CONFIGS[command]), "--out", str(out)]
        self.fails_cleanly(tmp_path, capsys, argv, FileExistsError(errno.EEXIST, ""))
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_out_lies_under_a_file(self, tmp_path, capsys, command):
        (tmp_path / "taken").write_text("kept\n")
        argv = [command, "--config", write_config(tmp_path, self.CONFIGS[command]),
                "--out", str(tmp_path / "taken" / "out")]
        self.fails_cleanly(tmp_path, capsys, argv, NotADirectoryError(errno.ENOTDIR, ""))

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_config_names_a_directory(self, tmp_path, capsys, command):
        (tmp_path / "cfg").mkdir()
        argv = [command, "--config", str(tmp_path / "cfg"), "--out", str(tmp_path / "out")]
        self.fails_cleanly(tmp_path, capsys, argv, IsADirectoryError(errno.EISDIR, ""))


TWO_LEVELS = {"dim": 2}
FAR_LABELS = {"grid": {"p": [-5, 5, 3], "q": [-5, 5, 3]}}
ALL_SUITES = ("label_means", "flat_metric", "fiducial_moments", "curvature", "energy_drift")


class TestNoLineStates:
    """No experiment and no suite builds a state on the line: on a two-level Fock basis, with
    labels out to +-5, where every canonical state fails its tail check, each exits 0 and
    writes nothing to stderr."""

    # the hydrogen experiment and the affine and curvature suites build no Fock basis, and a
    # config whose dim nothing reads is rejected
    RUNS = {
        "expectation": {"representation": TWO_LEVELS, "labels": FAR_LABELS},
        "metric": {"representation": TWO_LEVELS, "labels": FAR_LABELS},
        "curvature": {"representation": TWO_LEVELS, "labels": FAR_LABELS},
        "evolve": {"model": {"name": "harmonic"}, "representation": TWO_LEVELS, "x0": [5.0, -5.0]},
        "compare_hydrogen": {"x0": [-5.0, 5.0]},
        "transform_check": {"model": {"name": "harmonic"}, "representation": TWO_LEVELS,
                            "transform": {"name": "rotation"}, "x0": [5.0, 5.0]},
        "limit_study": {"hamiltonian": {"expression": "0.5*P^2 + 0.5*Q^2 + 0.1*Q^4"},
                        "representation": TWO_LEVELS, "labels": FAR_LABELS},
    }
    READ_NO_FOCK_BASIS = {"fiducial_moments", "curvature"}

    def exits_cleanly(self, tmp_path, capsys, command, cfg):
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert any(out.iterdir())

    @pytest.mark.parametrize("experiment", RUNS)
    def test_every_experiment(self, tmp_path, capsys, experiment):
        self.exits_cleanly(tmp_path, capsys, "run", {"experiment": experiment, **self.RUNS[experiment]})

    @pytest.mark.parametrize("suite", ALL_SUITES)
    def test_every_suite(self, tmp_path, capsys, suite):
        cfg = {"suites": [suite]}
        if suite not in self.READ_NO_FOCK_BASIS:
            cfg["representation"] = TWO_LEVELS
        self.exits_cleanly(tmp_path, capsys, "verify", cfg)


class TestCovarianceMetric:
    """The flat_metric suite's metric, read off the covariances of the generators, is the
    Fubini-Study metric of the states, from their exact tangent and from differences."""

    # the differenced metric is held to TestMetricExact's 1e-9, and at hbar = 1e-3 to criterion 2's
    # 1e-6: its fixed step then spans a phase change of up to p h / 2 hbar = 0.05 of the state
    @pytest.mark.parametrize("hbar,numeric_tol", [(1.0, 1e-9), (0.3, 1e-9), (1e-3, 1e-6)])
    def test_matches_the_state_metrics(self, hbar, numeric_tol):
        # the mean Fock level reaches 1e3 at hbar = 1e-3
        family = canonical_family(build_fock_rep(1600, hbar))
        points = [(p, q) for p in (-1.0, 0.0, 0.7) for q in (-1.0, 0.3, 1.0)]
        for (p, q), g in zip(points, _covariance_metric(family, points)):
            exact, numeric = fs_metric(family, p, q), fs_metric_numeric(family, p, q)
            assert_allclose(g, (exact.g_pp, exact.g_pq, exact.g_qq), rtol=0, atol=1e-12)
            assert_allclose(g, (numeric.g_pp, numeric.g_pq, numeric.g_qq), rtol=0, atol=numeric_tol)


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

    @pytest.mark.parametrize("p", [1e6, 1e150, 1e300], ids="{:g}".format)
    @pytest.mark.parametrize("name", FAMILIES)
    def test_far_labels_get_the_declared_metric(self, tmp_path, name, p):
        # the declared metric needs no state, so no basis is too small for it
        cfg = {"experiment": "metric", "family": FAMILIES[name], "representation": {"dim": 48},
               "labels": {"grid": {"p": [p, p, 1], "q": [0, 0, 1]}}}
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out / "metric.csv")
        assert [list(map(float, row)) for row in rows] == [[p, 0.0, 1.0, 0.0, 1.0]]

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

    def test_hydrogen_is_restricted_once_per_run(self, tmp_path, monkeypatch):
        # the core and the predicted radius are read off the enhanced flow's polynomial
        calls = []

        def counted(poly, family):
            calls.append(poly)
            return enhance(poly, family)

        monkeypatch.setattr(enhq.models, "enhance", counted)
        cfg = {"experiment": "compare_hydrogen"}
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_classical_limit_run(self, tmp_path):
        # nu = beta / hbar = 1e5: the core shrinks to C2 = beta^2 hbar / (2 (beta - hbar))
        # and the enhanced orbit still turns, at the predicted radius near 1e-5
        cfg = {"experiment": "compare_hydrogen", "model": {"name": "hydrogen_enhanced", "beta": 2.0},
               "hbar": 2e-5}
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "hydrogen_summary.json").read_text())
        assert summary["c2"] == pytest.approx(fiducial_p2_closed(2.0, 2e-5), rel=1e-15)
        assert not summary["enhanced_singularity"]
        assert summary["enhanced_min_q"] == pytest.approx(summary["predicted_min_radius"], rel=1e-6)
        assert summary["predicted_min_radius"] == pytest.approx(1e-5, rel=1e-4)


class TestExtendedRestriction:
    """The squeezed family restricts through enhance: U^dag Q U and U^dag P U are linear."""

    A, B = 0.3, 0.2
    FAMILY = {"kind": "extended", "a": A, "b": B}
    HARMONIC = {"expression": "0.5*P^2 + 0.5*Q^2"}

    def harmonic(self, p, q):
        # P^2 + Q^2 commutes with the rotation
        return 0.5 * (math.exp(4 * self.B) * (q * q + 0.5) + math.exp(-4 * self.B) * (p * p + 0.5))

    def test_evolve(self, tmp_path):
        cfg = {"experiment": "evolve", "family": self.FAMILY, "hamiltonian": self.HARMONIC,
               "x0": [0.3, 0.8], "integrator": {"t_final": 2.0, "n_samples": 21}}
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out / "trajectory.csv")
        assert len(rows) == 21
        energy = self.harmonic(0.3, 0.8)
        for _, p, q, h, _ in rows:
            assert float(h) == pytest.approx(self.harmonic(float(p), float(q)), rel=1e-14)
            assert float(h) == pytest.approx(energy, rel=1e-8)

    def test_transform_check(self, tmp_path):
        cfg = {"experiment": "transform_check", "family": self.FAMILY, "hamiltonian": self.HARMONIC,
               "transform": {"name": "rotation"}, "x0": [0.2, 0.9],
               "integrator": {"t_final": 2.0, "n_samples": 200}}
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        report = json.loads((out / "transform_check.json").read_text())
        assert report["max_pointwise_deviation"] < 1e-6

    def test_expectation_columns_in_closed_form(self, tmp_path):
        cfg = {"experiment": "expectation", "family": self.FAMILY, "representation": {"dim": 40},
               "labels": {"grid": {"p": [-1, 1, 3], "q": [-1, 1, 3]}}}
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        header, rows = read_rows(out / "expectation.csv")
        assert header == ["p", "q", "mean_p", "mean_q", "var_p", "var_q"] and len(rows) == 9
        up, down = math.exp(2 * self.B), math.exp(-2 * self.B)
        c, s = math.cos(2 * self.A), math.sin(2 * self.A)
        for p, q, mean_p, mean_q, var_p, var_q in (map(float, row) for row in rows):
            assert mean_q == pytest.approx(up * c * q + down * s * p, abs=1e-15)
            assert mean_p == pytest.approx(down * c * p - up * s * q, abs=1e-15)
            assert var_q == pytest.approx(0.5 * (up**2 * c * c + down**2 * s * s), rel=1e-14)
            assert var_p == pytest.approx(0.5 * (down**2 * c * c + up**2 * s * s), rel=1e-14)


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

    def test_line_expectation_columns_build_no_states(self, tmp_path):
        # restricted exactly, so a basis too small for the states at (0, 4)
        # and (8, 8), which need dims 73 and 183, holds their columns
        cfg = {
            "experiment": "expectation",
            "representation": {"kind": "line", "dim": 40},
            "labels": {"grid": {"p": [0, 8, 3], "q": [0, 8, 3]}},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out / "expectation.csv")
        assert len(rows) == 9
        for p, q, mean_p, mean_q, var_p, var_q in (map(float, row) for row in rows):
            assert (mean_p, mean_q) == (p, q)
            assert var_p == pytest.approx(0.5, abs=1e-13) and var_q == pytest.approx(0.5, abs=1e-13)

    @pytest.mark.parametrize("kind", ["canonical", "extended"])
    def test_line_expectation_body_is_the_same_at_any_dim(self, tmp_path, fock_reps, kind):
        # the columns are restricted on the ladder: the default basis and the
        # smallest one give the same body
        cfg = {"experiment": "expectation", "family": {"kind": kind},
               "labels": {"grid": {"p": [-2, 2, 3], "q": [-1, 3, 3]}}}
        default, smallest = tmp_path / "default", tmp_path / "smallest"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(default)]) == 0
        cfg["representation"] = {"dim": 2}
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(smallest)]) == 0
        assert fock_reps == [(200, 1.0), (2, 1.0)]
        assert body_of(default / "expectation.csv") == body_of(smallest / "expectation.csv")

    def test_expectation_affine_columns(self, tmp_path):
        # exact restrictions of Q, Q^2 and P^2: q, q^2 (1 + hbar/2 beta) and
        # p^2 + C2/q^2, with C2 = 6.05 at beta = 1.1
        cfg = {
            "experiment": "expectation",
            "family": {"kind": "affine", "beta": 1.1},
            "representation": {"kind": "halfline", "n": 2000},
            "labels": {"grid": {"p": [0, 1, 2], "q": [1, 2, 2]}},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        header, rows = read_rows(out / "expectation.csv")
        assert header == ["p", "q", "mean_q", "mean_q2", "mean_p2"] and len(rows) == 4
        assert float(rows[0][4]) == pytest.approx(6.05, rel=0, abs=1e-12)
        for p, q, mean_q, mean_q2, mean_p2 in (map(float, row) for row in rows):
            assert mean_q == q
            assert mean_q2 == pytest.approx(q * q * (1 + 1 / 2.2), rel=1e-12)
            assert mean_p2 == pytest.approx(p * p + 6.05 / (q * q), rel=1e-12)

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
            "model": {"name": "spin_precession", "B": 0.7},
            "representation": {"s": 2.0},
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

    def test_evolve_hydrogen_enhanced_bounces(self, tmp_path):
        cfg = {
            "experiment": "evolve",
            "model": {"name": "hydrogen_enhanced"},
            "x0": [-0.3, 1.0],
            "integrator": {"t_final": 20.0},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out / "trajectory.csv")
        assert [r[4] for r in rows if r[4]] == ["bounce", "bounce"]
        energies = np.array([float(r[3]) for r in rows])
        assert np.max(np.abs(energies - energies[0])) < 1e-8 * abs(energies[0])

    def test_hydrogen_model_is_its_affine_expression(self, tmp_path):
        # one engine: the model and its operator polynomial give the same bytes
        bodies = []
        for source in ({"model": {"name": "hydrogen_enhanced"}},
                       {"hamiltonian": {"expression": "0.5*P^2 - Q^-1", "variables": "affine"},
                        "family": {"kind": "affine", "beta": 2.0}}):
            cfg = {"experiment": "evolve", "x0": [-0.3, 1.0], "integrator": {"t_final": 20.0}, **source}
            out = tmp_path / f"out{len(bodies)}"
            assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
            bodies.append(body_of(out / "trajectory.csv"))
        assert bodies[0] == bodies[1]
        assert bodies[0].count("bounce") == 2

    def test_evolve_writes_one_csv(self, tmp_path):
        cfg = {
            "experiment": "evolve",
            "model": {"name": "harmonic"},
            "x0": [0.0, 1.0],
            "integrator": {"t_final": 6.283185307179586},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == ["trajectory.csv"]
        header, rows = read_rows(out / "trajectory.csv")
        assert header == ["t", "p", "q", "H", "event"] and len(rows) == 1000 + 1

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
        assert [row[2] for row in rows] == ["-1.0"] * 3

    @pytest.mark.parametrize("family,q,curvature", [
        ({"kind": "canonical"}, -0.5, 0.0),
        ({"kind": "extended", "a": 0.3, "b": 0.2}, -0.5, 0.0),
        ({"kind": "affine", "beta": 0.5}, 0.5, -4.0),
        ({"kind": "spin"}, -0.5, 4.0),
    ], ids=["canonical", "extended", "affine-narrow", "spin"])
    def test_curvature_of_every_family(self, tmp_path, family, q, curvature):
        # each family's declared curvature, on the representation the family builds
        # (an affine beta at or below hbar included)
        cfg = {"experiment": "curvature", "family": family,
               "labels": {"grid": {"p": [0, 0.5, 2], "q": [q, 1.5, 2]}}}
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out / "curvature.csv")
        assert [float(row[2]) for row in rows] == [curvature] * 4

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

    def test_a_quarter_turn_of_the_harmonic_flows_to_the_relabeled_bits(self, tmp_path):
        # perfbench's cli_cycle config: the relabeled polynomial 0.5 q~^2 + 0.5 p~^2 + 0.5,
        # flowed from the turned start, gives the turned samples exactly
        cfg = {
            "experiment": "transform_check",
            "model": {"name": "harmonic"},
            "representation": {"dim": 16},
            "transform": {"name": "rotation"},
            "x0": [0.2, 0.9],
            "integrator": {"t_final": 6.283185307179586, "n_samples": 200},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "transform_check.json").read_text())
        assert doc["max_pointwise_deviation"] == 0.0

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
        # 0.5 P^2 + 0.5 Q^2 + 0.1 Q^4 has h_1 = 0.5 + 0.3 q^2 and h_2 = 0.075
        cfg = {
            "experiment": "limit_study",
            "hamiltonian": {"expression": "0.5*P^2 + 0.5*Q^2 + 0.1*Q^4"},
            "representation": {"dim": 8},
            "labels": {"grid": {"p": [-0.5, 0.5, 2], "q": [-0.5, 0.5, 2]}},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        header, rows = read_rows(out / "limit_study.csv")
        assert header == ["p", "q", "limit", "leading_power", "classical_value", "h1", "h2", "h3"]
        assert len(rows) == 4
        for row in rows:
            p, q, limit, leading, classical, h1, h2, h3 = row
            q = float(q)
            assert float(limit) == pytest.approx(float(classical), abs=1e-12)
            assert leading == "1"
            assert float(h1) == pytest.approx(0.5 + 0.3 * q * q, abs=1e-12)
            assert float(h2) == pytest.approx(0.075, abs=1e-12)
            assert float(h3) == 0.0

    def test_limit_study_of_an_hbar_free_word(self, tmp_path):
        cfg = {
            "experiment": "limit_study",
            "hamiltonian": {"expression": "Q"},
            "labels": {"grid": {"p": [0.3, 0.3, 1], "q": [2, 2, 1]}},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        _, [row] = read_rows(out / "limit_study.csv")
        assert row == ["0.3", "2.0", "2.0", "0", "2.0", "0.0", "0.0", "0.0"]

    def test_limit_study_builds_one_fock_representation(self, tmp_path, fock_reps):
        cfg = {
            "experiment": "limit_study",
            "hamiltonian": {"expression": "0.5*P^2 + 0.5*Q^2 + 0.1*Q^4"},
            "representation": {"dim": 8},
            "labels": {"grid": {"p": [-0.5, 0.5, 2], "q": [-0.5, 0.5, 2]}},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert len(read_rows(out / "limit_study.csv")[1]) == 4
        assert fock_reps == [(8, 1.0)]


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

    def test_label_means_suite_is_the_same_at_any_dim(self, tmp_path, fock_reps):
        default, code = run_verify(tmp_path / "default", {"suites": ["label_means"]})
        assert code == 0
        smallest, code = run_verify(tmp_path / "smallest",
                                    {"suites": ["label_means"], "representation": {"dim": 2}})
        assert code == 0 and fock_reps == [(200, 1.0), (2, 1.0)]
        assert default["suites"] == smallest["suites"]

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
        header = [ln for ln in path.read_text().splitlines() if ln.startswith("#")]
        assert header == [f"# enhq={enhq.__version__}", f"# config_sha256={enhq.cli.config_hash(cfg)}"]
