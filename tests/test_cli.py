import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import enhq.cli
from enhq.cli import ConfigError, main, run, validate_config

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
    "integrator.method": "dop853",
    "transform.name": "shear",
    "transform.factor": "2",
    "x0": [0.0, 1.0, 2.0],
    "horizon_factor": NAN,
    "suites": [],
    "output.dir": 1,
    "output.basename": ["a"],
    "output.format": "tsv",
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
        ("run", {"experiment": "metric", "labels": {"grid": {"p": [0, 0, 1], "q": [0, 0, 1]}},
                 "output": {"format": "json"}}, "output.format"),
        ("verify", {"suites": ["curvature"], "output": {"format": "csv"}}, "output.format"),
        ("run", {"experiment": "evolve", "model": {"name": "harmonic"},
                 "integrator": {"method": "dop853"}}, "integrator.method"),
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
                 "labels": {"grid": {"p": [0, 1, 2], "q": [0.5, 1, 2]}}}, "representation"),
        ("verify", {"suites": ["curvature"], "representation": {"dim": 7},
                    "family": {"kind": "affine"}, "seed": 3}, "representation"),
        ("verify", {"suites": ["label_means", "energy_drift"], "family": {"kind": "canonical"}},
         "family"),
        ("run", {"experiment": "compare_hydrogen", "representation": {"kind": "spin", "s": 3}},
         "representation"),
        ("run", {"experiment": "evolve", "model": {"name": "harmonic", "m": 2.0},
                 "integrator": {"t_final": 1.0, "n_samples": 5}}, "model.m"),
        ("run", {"experiment": "compare_hydrogen", "model": {"name": "hydrogen_enhanced", "B": 1.0},
                 "x0": [-0.3, 1.0], "horizon_factor": 2.0,
                 "integrator": {"t_final": 1.0, "n_samples": 20}}, "model.B"),
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
        ("run", {"experiment": "curvature", "family": {"kind": "extended"},
                 "labels": {"grid": {"p": [0, 0, 1], "q": [0, 0, 1]}}}, "family.kind"),
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
    ], ids=["metric-format", "verify-format", "dop853", "grid-text-bound", "grid-fractional-count",
            "grid-zero-count", "model-s", "hydrogen-with-spin-model", "expectation-with-model",
            "model-and-hamiltonian", "limit-study-hbar", "verify-x0", "hydrogen-representation",
            "affine-curvature-representation", "curvature-suite-keys", "canonical-suites-family",
            "spin-as-halfline-hydrogen", "harmonic-m", "compare-hydrogen-B", "spin-precession-m",
            "line-n", "line-x-min", "spin-curvature-dim", "canonical-beta", "affine-a",
            "rotation-factor", "random-next-to-grid", "seed-with-grid",
            "no-experiment", "no-suites", "model-without-name", "no-model-or-hamiltonian",
            "no-labels", "labels-without-points", "grid-p-range", "grid-q-range",
            "random-zero-count", "random-zero-box", "no-transform", "limit-study-without-hamiltonian",
            "limit-study-affine", "extended-curvature", "hbar-sequence",
            "nan-affine-beta", "nan-hbar", "nan-x0", "nan-hydrogen-beta", "nan-spin-B",
            "infinite-grid-bound"])
    def test_rejected_keys_write_nothing(self, tmp_path, capsys, command, cfg, path):
        # output.format is read by evolve alone; dop853 is no longer a method;
        # a grid axis is [lo, hi, count] with an integer count of at least 1;
        # the spin size is representation.s alone; any other key, at any
        # depth, that the run never read would be silently ignored
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

    def test_output_dir_is_read_where_out_overrides_it(self, tmp_path):
        cfg = {
            "experiment": "metric",
            "representation": {"dim": 16},
            "labels": {"grid": {"p": [0, 0, 1], "q": [0, 0, 1]}},
            "output": {"dir": str(tmp_path / "unused")},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert (out / "metric.csv").exists() and not (tmp_path / "unused").exists()

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
        pytest.param({"experiment": "metric", "family": {"kind": "affine", "beta": 0.5},
                      "labels": {"grid": {"p": [0, 0, 1], "q": [1, 1, 1]}}},
                     2, "error: beta must exceed hbar", id="domain-error"),
        pytest.param({"experiment": "evolve", "hamiltonian": {"expression": "0.5*P^2 - Q^4"},
                      "representation": {"dim": 16}, "x0": [0.0, 2.0],
                      "integrator": {"t_final": 5.0}},
                     1, "numerical failure: integration failed", id="numerical-failure"),
        *[pytest.param({"experiment": "evolve", "hamiltonian": {"expression": text},
                        "x0": [0.0, 1.0], "integrator": {"t_final": 1.0}},
                       2, "error: ", id=text) for text in BAD_EXPRESSIONS],
        *[pytest.param({"experiment": "metric", "family": family, "representation": {"dim": 48},
                        "labels": {"grid": {"p": [p, p, 1], "q": [0, 0, 1]}}},
                       3, "capacity error: ", id=f"{name}-{p:g}")
          for name, family in FAMILIES.items() for p in (1e6, 1e150, 1e300)],
        pytest.param({"experiment": "curvature", "family": {"kind": "affine", "beta": 2.0},
                      "labels": {"grid": {"p": [0.1, 0.1, 1], "q": [1e-300, 1e-300, 1]}}},
                     2, "error: the affine metric", id="affine-curvature-1e-300"),
        pytest.param({"experiment": "evolve", "hamiltonian": {"expression": "1e400*Q^2 + 0.5*P^2"},
                      "x0": [0.0, 1.0], "integrator": {"t_final": 1.0}},
                     2, "error: number 1e400 overflows a double", id="number-1e400"),
        # the family builds at any squeeze, but its adjoint action leaves the doubles
        pytest.param({"experiment": "evolve", "family": {"kind": "extended", "a": 0.0, "b": 400.0},
                      "hamiltonian": {"expression": "0.5*P^2 + 0.5*Q^2"},
                      "x0": [0.0, 1.0], "integrator": {"t_final": 1.0}},
                     2, "error: the squeeze b = 400.0 overflows", id="evolve-squeeze-400"),
        pytest.param({"experiment": "expectation", "family": {"kind": "extended", "a": 0.0, "b": -400.0},
                      "representation": {"dim": 16},
                      "labels": {"grid": {"p": [0, 0, 1], "q": [0, 0, 1]}}},
                     2, "error: the squeeze b = -400.0 overflows", id="expectation-squeeze-minus-400"),
    ])
    def test_exit_code_one_line_and_no_directory(self, tmp_path, capsys, cfg, code, message):
        out = tmp_path / "fresh" / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not (tmp_path / "fresh").exists()


class TestCapacity:
    # the line families' expectation columns build no states: the metric does
    CFG = {
        "experiment": "metric",
        "representation": {"kind": "line", "dim": 40},
        "labels": {"grid": {"p": [0, 8, 3], "q": [0, 8, 3]}},
    }

    def test_too_small_basis_exits_3_and_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "fresh" / "out"
        assert main(["run", "--config", write_config(tmp_path, self.CFG), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("capacity error: ") and err.count("\n") == 1
        assert "representation.dim to at least 73" in err
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

    def test_line_expectation_columns_build_no_states(self, tmp_path):
        # restricted exactly, so a basis too small for the states at (0, 4)
        # and (8, 8) (TestCapacity) holds their columns
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
    def test_line_expectation_derives_a_dim_4_basis(self, tmp_path, fock_reps, kind):
        # the columns' words have degree 2, so a dim the config leaves out is
        # 4; a dim the config gives still wins, with the same body
        cfg = {"experiment": "expectation", "family": {"kind": kind},
               "labels": {"grid": {"p": [-2, 2, 3], "q": [-1, 3, 3]}}}
        derived, explicit = tmp_path / "derived", tmp_path / "explicit"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(derived)]) == 0
        cfg["representation"] = {"dim": 200}
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(explicit)]) == 0
        assert fock_reps == [(4, 1.0), (200, 1.0)]
        assert body_of(derived / "expectation.csv") == body_of(explicit / "expectation.csv")

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

    def test_leapfrog_rejects_tol(self, tmp_path, capsys):
        # the fixed-step leapfrog has no tolerance to honour
        cfg = {
            "experiment": "evolve",
            "model": {"name": "harmonic"},
            "integrator": {"t_final": 1.0, "method": "leapfrog", "tol": 1e-3},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: tol applies to rk45 only; the leapfrog takes n_steps\n"
        assert captured.out == ""
        assert not out.exists()

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

    def test_label_means_suite_derives_a_dim_4_basis(self, tmp_path, fock_reps):
        derived, code = run_verify(tmp_path / "derived", {"suites": ["label_means"]})
        assert code == 0
        explicit, code = run_verify(tmp_path / "explicit",
                                    {"suites": ["label_means"], "representation": {"dim": 200}})
        assert code == 0 and fock_reps == [(4, 1.0), (200, 1.0)]
        assert derived["suites"] == explicit["suites"]

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
