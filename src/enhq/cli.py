"""Command-line driver: ``eq run --config <path>`` and ``eq verify --config <path>``.

Experiments are described by a JSON config (schema below, published in the
README).  Outputs are flat CSV/JSON files whose bodies are byte identical
across reruns with the same config; every file carries a header block with
the config hash and the library version, and a timestamp only when ``--stamp``
is passed.
"""

from __future__ import annotations

import argparse
import datetime as dt
import functools
import hashlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import jsonschema

from . import __version__
from .coherent import (
    CoherentFamily,
    affine_family,
    canonical_family,
    extended_family,
    fiducial_moments,
    fiducial_p2_closed,
    fs_metric,
    scalar_curvature,
    spin_family,
)
from .correspondence import classical_limit, classical_value, enhance, parse_polynomial
from .dynamics import (
    PhasePoint,
    apply_transform,
    hamiltonian_flow,
    rotation_transform,
    scaling_transform,
    transform_hamiltonian,
    verify_transform_action,
)
from .errors import CapacityError, DomainError, NumericalFailure
from .hilbert import build_fock_rep, build_halfline_rep, build_spin_rep, expectation, variance
from .models import HydrogenParams, hydrogen_classical, hydrogen_enhanced, min_radius, spin_precession

_HYDROGEN = ("hydrogen_classical", "hydrogen_enhanced")
_MODELS = ("harmonic", *_HYDROGEN, "spin_precession")
_LABELLED = ("hbar", "seed", "representation", "family", "labels")
_FLOW = ("hbar", "model", "x0", "integrator")
_EXPRESSION = ("representation", "family", "hamiltonian")

# each experiment: the top-level keys its runner reads besides experiment and
# output (output.format is evolve's alone), the models it can run, and the
# models or family kinds it takes in closed form, building no representation;
# run rejects any other key or model, which would be silently ignored
EXPERIMENTS = {
    "expectation": (_LABELLED, (), ()),
    "metric": (_LABELLED, (), ()),
    "curvature": (_LABELLED, (), ("canonical", "affine")),
    "evolve": ((*_FLOW, *_EXPRESSION, "output.format"), _MODELS, _HYDROGEN),
    "compare_hydrogen": ((*_FLOW, "horizon_factor"), _HYDROGEN, ()),
    "transform_check": ((*_FLOW, *_EXPRESSION, "transform"), _MODELS, _HYDROGEN),
    "limit_study": (("seed", "representation", "hamiltonian", "labels", "hbar_sequence"), (), ()),
}

# each suite and the top-level keys it reads besides suites and output;
# verify rejects a key that no requested suite reads
SUITES = {
    "label_means": ("hbar", "seed", "representation"),
    "flat_metric": ("hbar", "representation"),
    "fiducial_moments": ("hbar", "representation", "family"),
    "curvature": ("hbar",),
    "energy_drift": ("hbar", "representation"),
}

# [lo, hi, count] of one label axis
_GRID_AXIS = {"type": "array", "minItems": 3, "maxItems": 3, "prefixItems": [
    {"type": "number"}, {"type": "number"}, {"type": "integer", "minimum": 1}]}

_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "experiment": {"enum": list(EXPERIMENTS)},
        "seed": {"type": "integer", "minimum": 0},
        "hbar": {"type": "number", "exclusiveMinimum": 0},
        "representation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["line", "halfline", "spin"]},
                "dim": {"type": "integer", "minimum": 2},
                "x_min": {"type": "number", "exclusiveMinimum": 0},
                "x_max": {"type": "number", "exclusiveMinimum": 0},
                "n": {"type": "integer", "minimum": 16},
                "s": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "family": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["canonical", "affine", "spin", "extended"]},
                "beta": {"type": "number", "exclusiveMinimum": 0},
                "a": {"type": "number"},
                "b": {"type": "number"},
            },
        },
        "model": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "name": {"enum": list(_MODELS)},
                "m": {"type": "number", "exclusiveMinimum": 0},
                "e2": {"type": "number", "exclusiveMinimum": 0},
                "beta": {"type": "number", "exclusiveMinimum": 0},
                "B": {"type": "number"},
            },
        },
        "hamiltonian": {
            "type": "object",
            "additionalProperties": False,
            "required": ["expression"],
            "properties": {
                "expression": {"type": "string"},
                "variables": {"enum": ["canonical", "affine", "spin"]},
            },
        },
        "labels": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "grid": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["p", "q"],
                    "properties": {
                        "p": _GRID_AXIS,
                        "q": _GRID_AXIS,
                    },
                },
                "random": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["count", "box"],
                    "properties": {
                        "count": {"type": "integer"},
                        "box": {"type": "number"},
                    },
                },
            },
        },
        "integrator": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "t_final": {"type": "number", "exclusiveMinimum": 0},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "n_samples": {"type": "integer", "minimum": 2},
                "q_floor": {"type": "number", "exclusiveMinimum": 0},
                "method": {"enum": ["rk45", "leapfrog"]},
            },
        },
        "hbar_sequence": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0},
            "minItems": 3,
        },
        "transform": {
            "type": "object",
            "additionalProperties": False,
            "required": ["name"],
            "properties": {
                "name": {"enum": ["rotation", "scaling"]},
                "factor": {"type": "number"},
            },
        },
        "x0": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
        },
        "horizon_factor": {"type": "number", "exclusiveMinimum": 0},
        "suites": {"type": "array", "items": {"enum": list(SUITES)}, "minItems": 1},
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dir": {"type": "string"},
                "basename": {"type": "string"},
                "format": {"enum": ["csv", "json"]},
            },
        },
    },
}


# built once: checking the constant schema against its metaschema on every
# call took most of the validation time (the tests check it once)
_VALIDATOR = jsonschema.validators.validator_for(_SCHEMA)(_SCHEMA)


class ConfigError(ValueError):
    """Configuration rejected before any file is written."""


def validate_config(cfg: dict) -> dict:
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(cfg))
    if error is not None:
        path = ".".join(str(x) for x in error.absolute_path) or "<root>"
        raise ConfigError(f"config error at {path}: {error.message}") from error
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _header_lines(cfg, stamp):
    lines = [f"enhq={__version__}", f"config_sha256={config_hash(cfg)}"]
    if stamp:
        lines.append(f"generated={dt.datetime.now(dt.timezone.utc).isoformat()}")
    return lines


def _write_csv(path: Path, cfg, stamp, columns, rows):
    with open(path, "w", newline="\n") as fh:
        for line in _header_lines(cfg, stamp):
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: Path, cfg, stamp, payload):
    doc = {"enhq": __version__, "config_sha256": config_hash(cfg)}
    if stamp:
        doc["generated"] = dt.datetime.now(dt.timezone.utc).isoformat()
    doc.update(payload)
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _hbar(cfg) -> float:
    return float(cfg.get("hbar", 1.0))


# the representation each family kind, model and verify suite lives on; the
# limit study enhances canonical expressions, compare_hydrogen runs both
# hydrogen models, and the curvature suite checks closed forms at fixed
# parameters, so it imposes no kind
_REPRESENTATION_KIND = {
    **dict.fromkeys(("canonical", "extended", "harmonic", "limit_study",
                     "label_means", "flat_metric", "energy_drift"), "line"),
    **dict.fromkeys(("affine", "hydrogen_classical", "hydrogen_enhanced", "compare_hydrogen",
                     "fiducial_moments"), "halfline"),
    **dict.fromkeys(("spin", "spin_precession"), "spin"),
    "curvature": None,
}

_REPRESENTATION_DEFAULTS = {
    "dim": 200, "x_min": 1e-5, "x_max": 60.0, "n": 3000, "s": 0.5,
}

# canonical and spin families take no parameter and read no family block
_FAMILIES = {
    "canonical": lambda rep, cfg: canonical_family(rep),
    "extended": lambda rep, cfg: extended_family(rep, *(cfg.get("family", {}).get(k, 0.0) for k in "ab")),
    "affine": lambda rep, cfg: affine_family(rep, cfg.get("family", {}).get("beta", 2.0)),
    "spin": lambda rep, cfg: spin_family(rep),
}

_HARMONIC = "0.5*P^2 + 0.5*Q^2"


def _check_kind(cfg, names):
    # a representation.kind the config names must be the one each part lives on
    kind = cfg.get("representation", {}).get("kind")
    for name in names:
        built = _REPRESENTATION_KIND[name]
        if kind is not None and built is not None and kind != built:
            raise ConfigError(f"config error at representation.kind: {name!r} lives on the "
                              f"{built!r} representation, not {kind!r}")


def _family_kind(cfg, default="canonical"):
    return cfg.get("family", {}).get("kind", default)


def _subject(cfg) -> str:
    """The table key of what an experiment builds: its model, family kind or itself."""
    experiment = cfg["experiment"]
    if experiment in ("limit_study", "compare_hydrogen"):
        return experiment
    if experiment not in ("evolve", "transform_check"):
        return _family_kind(cfg)
    if "model" in cfg:
        for key in ("hamiltonian", "family"):
            if key in cfg:
                raise ConfigError(f"config error at {key}: {experiment} follows the model")
        if "name" not in cfg["model"]:
            raise ConfigError("model.name: required")
        return cfg["model"]["name"]
    if "hamiltonian" not in cfg:
        raise ConfigError("either model or hamiltonian is required")
    return _family_kind(cfg, cfg["hamiltonian"].get("variables", "canonical"))


def _representation(cfg, kind, hbar=None, **derived):
    # one default per key; a value in the config wins over a derived one
    r = {**_REPRESENTATION_DEFAULTS, **derived, **cfg.get("representation", {})}
    hbar = _hbar(cfg) if hbar is None else hbar
    if kind == "line":
        return build_fock_rep(r["dim"], hbar)
    if kind == "halfline":
        return build_halfline_rep(r["x_min"], r["x_max"], r["n"], hbar)
    return build_spin_rep(r["s"], hbar)


def _build_family(cfg, kind, **derived) -> CoherentFamily:
    rep = _representation(cfg, _REPRESENTATION_KIND[kind], **derived)
    return _FAMILIES[kind](rep, cfg)


def _enhanced(cfg, poly, kind):
    # canonical moments are exact once dim > degree, so the dim a config leaves
    # out is derived from the polynomial
    return enhance(poly, _build_family(cfg, kind, dim=poly.degree + 2))


def _label_points(cfg):
    lab = cfg.get("labels")
    if lab is None:
        raise ConfigError("labels: required for this experiment")
    if "grid" in lab:
        p_lo, p_hi, n_p = lab["grid"]["p"]
        q_lo, q_hi, n_q = lab["grid"]["q"]
        if p_hi < p_lo or q_hi < q_lo:
            raise ConfigError("labels.grid: empty label range")
        ps = np.linspace(p_lo, p_hi, int(n_p))
        qs = np.linspace(q_lo, q_hi, int(n_q))
        return [(float(p), float(q)) for p in ps for q in qs]
    if "random" in lab:
        count = int(lab["random"]["count"])
        box = float(lab["random"]["box"])
        if count < 1 or box <= 0:
            raise ConfigError("labels.random: empty label range")
        rng = np.random.default_rng(int(cfg.get("seed", 0)))
        pts = rng.uniform(-box, box, size=(count, 2))
        return [(float(p), float(q)) for p, q in pts]
    raise ConfigError("labels: provide either 'grid' or 'random'")


def _integrator(cfg) -> dict:
    icfg = cfg.get("integrator", {})
    return {
        "tol": float(icfg.get("tol", 1e-10)),
        "n_samples": int(icfg.get("n_samples", 1000)),
        "q_floor": float(icfg.get("q_floor", 1e-8)),
        "method": icfg.get("method", "rk45"),
    }


def _hydrogen_params(cfg) -> HydrogenParams:
    model = cfg.get("model", {})
    return HydrogenParams(
        m=model.get("m", 1.0), e2=model.get("e2", 1.0), beta=model.get("beta", 2.0), hbar=_hbar(cfg)
    )


def _build_hamiltonian(cfg):
    name = _subject(cfg)
    if name == "harmonic":
        return _enhanced(cfg, parse_polynomial(_HARMONIC, "canonical"), "canonical")
    if name == "hydrogen_classical":
        return hydrogen_classical(_hydrogen_params(cfg))
    if name == "hydrogen_enhanced":
        return hydrogen_enhanced(_hydrogen_params(cfg))
    if name == "spin_precession":
        return spin_precession(cfg["model"].get("B", 1.0), _representation(cfg, "spin"))
    # an expression, enhanced on family.kind (by default its variables)
    ham = cfg["hamiltonian"]
    return _enhanced(cfg, parse_polynomial(ham["expression"], ham.get("variables", "canonical")), name)


def _transform_from_config(cfg):
    tcfg = cfg.get("transform")
    if tcfg is None:
        raise ConfigError("transform: required for this experiment")
    if tcfg["name"] == "rotation":
        return rotation_transform()
    return scaling_transform(tcfg.get("factor", 2.0))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

# the expectation columns on each representation: (column, letter, statistic)
_EXPECTATION_COLUMNS = {
    "line": (("mean_p", "P", "mean"), ("mean_q", "Q", "mean"),
             ("var_p", "P", "var"), ("var_q", "Q", "var")),
    "halfline": (("mean_q", "Q", "mean"), ("mean_q2", "Q", "square"), ("mean_p2", "P", "square")),
    "spin": (("mean_s3", "S3", "mean"),),
}

_STATISTICS = {
    "mean": lambda psi, op: float(expectation(psi, op).real),
    "var": variance,
    "square": lambda psi, op: variance(psi, op) + float(expectation(psi, op).real) ** 2,
}


def _expectation_row(family, columns, p, q) -> list:
    psi = family.state(p, q)
    return [_STATISTICS[stat](psi, family.letters[letter]) for _, letter, stat in columns]


def _run_expectation(cfg, out, stamp):
    family = _build_family(cfg, _family_kind(cfg))
    columns = _EXPECTATION_COLUMNS[family.rep.kind]
    rows = [(p, q, *_expectation_row(family, columns, p, q)) for p, q in _label_points(cfg)]
    path = out / "expectation.csv"
    _write_csv(path, cfg, stamp, ["p", "q", *(column for column, _, _ in columns)], rows)
    return [path]


def _run_metric(cfg, out, stamp):
    family = _build_family(cfg, _family_kind(cfg))
    rows = []
    for p, q in _label_points(cfg):
        g = fs_metric(family, p, q)
        rows.append((p, q, g.g_pp, g.g_pq, g.g_qq))
    path = out / "metric.csv"
    _write_csv(path, cfg, stamp, ["p", "q", "g_pp", "g_pq", "g_qq"], rows)
    return [path]


def _run_curvature(cfg, out, stamp):
    kind = _family_kind(cfg)
    if kind == "extended":
        raise ConfigError("family.kind: no closed-form curvature for extended families")
    kwargs = {"hbar": _hbar(cfg)}
    if kind == "affine":
        kwargs["beta"] = cfg.get("family", {}).get("beta", 2.0)
    if kind == "spin":
        kwargs["s"] = cfg.get("representation", {}).get("s", _REPRESENTATION_DEFAULTS["s"])
    rows = [(p, q, scalar_curvature(kind, p, q, **kwargs)) for p, q in _label_points(cfg)]
    path = out / "curvature.csv"
    _write_csv(path, cfg, stamp, ["p", "q", "curvature"], rows)
    return [path]


def _run_evolve(cfg, out, stamp):
    ham = _build_hamiltonian(cfg)
    x0 = cfg.get("x0", [0.0, 1.0])
    t_final = float(cfg.get("integrator", {}).get("t_final", 2.0 * np.pi))
    traj = hamiltonian_flow(ham, PhasePoint(x0[0], x0[1]), t_final, **_integrator(cfg))
    fmt = cfg.get("output", {}).get("format", "csv")
    if fmt == "json":
        path = out / "trajectory.json"
        _write_json(path, cfg, stamp, {"trajectory": json.loads(traj.to_json())})
    else:
        path = out / "trajectory.csv"
        with open(path, "w", newline="\n") as fh:
            traj.to_csv(fh, _header_lines(cfg, stamp))
    return [path]


def _run_compare_hydrogen(cfg, out, stamp):
    params = _hydrogen_params(cfg)
    x0 = cfg.get("x0", [0.0, 1.0])
    t_final = float(
        cfg.get("integrator", {}).get(
            "t_final", 10.0 * np.sqrt(params.m * abs(x0[1]) ** 3 / params.e2)
        )
    )
    horizon_factor = float(cfg.get("horizon_factor", 10.0))

    classical = hydrogen_classical(params)
    traj_c = hamiltonian_flow(classical, PhasePoint(*x0), t_final, **_integrator(cfg))
    hits = [e for e in traj_c.events if e.kind == "singularity_hit"]
    collapse_time = hits[0].time if hits else None

    enhanced = hydrogen_enhanced(params)
    t_enh = horizon_factor * (collapse_time if collapse_time else t_final)
    traj_e = hamiltonian_flow(enhanced, PhasePoint(*x0), t_enh, **_integrator(cfg))
    energy = enhanced.evaluate(*x0)
    summary = {
        "x0": list(map(float, x0)),
        "collapse_detected": collapse_time is not None,
        "collapse_time": collapse_time,
        "enhanced_horizon": t_enh,
        "enhanced_min_q": traj_e.min_q(),
        "enhanced_singularity": "singularity_hit" in traj_e.event_kinds(),
        "predicted_min_radius": min_radius(enhanced, energy),
        "energy_enhanced": energy,
        "c1": enhanced.c1,
        "c2": enhanced.c2,
    }
    paths = []
    for tag, traj in (("classical", traj_c), ("enhanced", traj_e)):
        path = out / f"hydrogen_{tag}.csv"
        with open(path, "w", newline="\n") as fh:
            traj.to_csv(fh, _header_lines(cfg, stamp))
        paths.append(path)
    summary_path = out / "hydrogen_summary.json"
    _write_json(summary_path, cfg, stamp, summary)
    paths.append(summary_path)
    return paths


def _run_transform_check(cfg, out, stamp):
    ham = _build_hamiltonian(cfg)
    tr = _transform_from_config(cfg)
    x0 = cfg.get("x0", [0.0, 1.0])
    t_final = float(cfg.get("integrator", {}).get("t_final", 2.0 * np.pi))

    traj = hamiltonian_flow(ham, PhasePoint(*x0), t_final, **_integrator(cfg))
    action = verify_transform_action(tr, traj)
    transformed_traj = action.transformed
    x0_t = apply_transform(tr, PhasePoint(*x0))
    traj_t = hamiltonian_flow(transform_hamiltonian(ham, tr), x0_t, t_final, **_integrator(cfg))
    n = min(len(traj_t), len(transformed_traj))
    dev = float(
        max(
            np.max(np.abs(traj_t.p[:n] - transformed_traj.p[:n])),
            np.max(np.abs(traj_t.q[:n] - transformed_traj.q[:n])),
        )
    )
    payload = {
        "transform": tr.name,
        "max_pointwise_deviation": dev,
        "integral_p_dq": action.integral_original,
        "integral_transformed": action.integral_transformed,
        "generator_difference": action.generator_difference,
        "action_residual": action.residual,
    }
    path = out / "transform_check.json"
    _write_json(path, cfg, stamp, payload)
    return [path]


def _run_limit_study(cfg, out, stamp):
    ham_cfg = cfg.get("hamiltonian")
    if ham_cfg is None:
        raise ConfigError("hamiltonian: required for limit_study")
    variables = ham_cfg.get("variables", "canonical")
    if variables != "canonical":
        raise ConfigError("limit_study supports canonical expressions")
    poly = parse_polynomial(ham_cfg["expression"], "canonical")
    hbars = cfg.get("hbar_sequence", [1.0, 0.5, 0.25, 0.125])

    @functools.cache
    def builder(hbar):
        # one representation and label function per hbar, shared by the label points
        rep = _representation(cfg, "line", hbar, dim=poly.degree + 2)
        return enhance(poly, canonical_family(rep))

    rows = []
    for p, q in _label_points(cfg):
        fit = classical_limit(builder, p, q, hbars)
        rows.append(
            (p, q, fit.limit, fit.leading_power, fit.residual, classical_value(poly, p, q))
        )
    path = out / "limit_study.csv"
    _write_csv(
        path, cfg, stamp,
        ["p", "q", "limit", "leading_power", "residual", "classical_value"],
        rows,
    )
    return [path]


_RUNNERS = {
    "expectation": _run_expectation,
    "metric": _run_metric,
    "curvature": _run_curvature,
    "evolve": _run_evolve,
    "compare_hydrogen": _run_compare_hydrogen,
    "transform_check": _run_transform_check,
    "limit_study": _run_limit_study,
}


def _check_reads(cfg, command, reads, models=()):
    # a block the command never reads, or a model it cannot run, would be silently ignored
    for key in cfg:
        if key not in ("output", *reads):
            raise ConfigError(f"config error at {key}: {command} does not read it")
    if "format" in cfg.get("output", {}) and "output.format" not in reads:
        raise ConfigError(f"config error at output.format: {command} does not read it")
    name = cfg.get("model", {}).get("name")
    if name is not None and name not in models:
        raise ConfigError(f"config error at model.name: {command} does not run {name!r}")


def run(cfg: dict, out_dir=None, stamp=False, verbose=False) -> list:
    """Execute one experiment; returns the list of written paths."""
    validate_config(cfg)
    experiment = cfg.get("experiment")
    if experiment is None:
        raise ConfigError("experiment: required")
    out = Path(out_dir) if out_dir is not None else Path(cfg.get("output", {}).get("dir", "."))
    runner = _RUNNERS[experiment]
    reads, models, closed = EXPERIMENTS[experiment]
    # validate everything cheap before creating the output directory; a wrong
    # representation.kind is named as such, before the keys are checked
    subject = _subject(cfg)
    _check_kind(cfg, [subject])
    if subject in closed:
        reads = tuple(key for key in reads if key != "representation")
    _check_reads(cfg, experiment, ("experiment", *reads), models)
    if "labels" in reads:
        _label_points(cfg)
    # a failed run removes the directories it created, and what it wrote there
    created = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)
    base = cfg.get("output", {}).get("basename")
    try:
        paths = runner(cfg, out, stamp)
    except BaseException:
        if created:
            shutil.rmtree(created[-1], ignore_errors=True)
        raise
    if base:
        renamed = []
        for p in paths:
            target = p.with_name(f"{base}_{p.name}")
            p.replace(target)
            renamed.append(target)
        paths = renamed
    if verbose:
        for p in paths:
            print(f"wrote {p}")
    return paths


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _check(name, measured, expected, tolerance):
    return {
        "name": name,
        "measured": float(measured),
        "expected": float(expected),
        "tolerance": float(tolerance),
        "passed": bool(abs(measured - expected) <= tolerance),
    }


def _suite_label_means(cfg):
    # the expectation columns mean_p, mean_q, var_p, var_q against p, q, hbar/2, hbar/2
    family = _build_family(cfg, "canonical")
    half = family.rep.hbar / 2
    rng = np.random.default_rng(int(cfg.get("seed", 0)))
    dev = np.zeros(4)
    for p, q in rng.uniform(-3.0, 3.0, size=(50, 2)):
        stats = _expectation_row(family, _EXPECTATION_COLUMNS["line"], p, q)
        dev = np.maximum(dev, np.abs(np.subtract(stats, (p, q, half, half))))
    return [
        _check("max |<P> - p|", dev[0], 0.0, 1e-8),
        _check("max |<Q> - q|", dev[1], 0.0, 1e-8),
        _check("max |Var - hbar/2|", max(dev[2], dev[3]), 0.0, 1e-8),
    ]


def _suite_flat_metric(cfg):
    family = _build_family(cfg, "canonical")
    worst = 0.0
    for p in np.linspace(-1, 1, 5):
        for q in np.linspace(-1, 1, 5):
            g = fs_metric(family, float(p), float(q))
            worst = max(worst, abs(g.g_pp - 1), abs(g.g_qq - 1), abs(g.g_pq))
    return [_check("max metric deviation from identity", worst, 0.0, 1e-6)]


def _suite_fiducial_moments(cfg):
    family = _build_family(cfg, "affine")
    m = fiducial_moments(family)
    c2 = fiducial_p2_closed(family.beta, family.rep.hbar)
    return [
        _check("<Q>", m["q1"], 1.0, 1e-6),
        _check("<D>", abs(m["d"]), 0.0, 1e-6),
        _check("C2 relative", m["p2"] / c2, 1.0, 1e-5),
    ]


def _suite_curvature(cfg):
    hbar = _hbar(cfg)
    checks = [_check("canonical curvature", scalar_curvature("canonical", 0.3, -0.2, hbar=hbar), 0.0, 1e-6)]
    for beta in (1.0, 2.0, 5.0):
        r = scalar_curvature("affine", 0.4, 1.3, hbar=hbar, beta=beta)
        checks.append(_check(f"affine curvature beta={beta}", r, -2.0 / beta, 1e-4))
    for s in (0.5, 1.0, 5.0):
        r = scalar_curvature("spin", 0.2 * np.sqrt(s * hbar), 0.1, hbar=hbar, s=s)
        checks.append(_check(f"spin curvature s={s}", r, 2.0 / (s * hbar), 1e-4))
    return checks


def _suite_energy_drift(cfg):
    ham = _enhanced(cfg, parse_polynomial(_HARMONIC, "canonical"), "canonical")
    traj = hamiltonian_flow(ham, PhasePoint(0.0, 1.0), 4.0 * np.pi, tol=1e-10)
    drift = float(np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0]))
    return [_check("max relative energy drift", drift, 0.0, 1e-8)]


_SUITE_RUNNERS = {
    "label_means": _suite_label_means,
    "flat_metric": _suite_flat_metric,
    "fiducial_moments": _suite_fiducial_moments,
    "curvature": _suite_curvature,
    "energy_drift": _suite_energy_drift,
}


def report_verify(cfg: dict, out_dir=None, stamp=False) -> tuple[dict, int]:
    """Run the requested invariant suites; returns (report, exit_code)."""
    validate_config(cfg)
    suites = cfg.get("suites")
    if not suites:
        raise ConfigError("suites: at least one suite is required")
    _check_kind(cfg, suites)
    _check_reads(cfg, "verify", ("suites", *(key for name in suites for key in SUITES[name])))
    report = {"suites": {}, "passed": True}
    for name in suites:
        checks = _SUITE_RUNNERS[name](cfg)
        ok = all(c["passed"] for c in checks)
        report["suites"][name] = {"passed": ok, "checks": checks}
        report["passed"] = report["passed"] and ok
        for c in checks:
            tag = "PASS" if c["passed"] else "FAIL"
            print(
                f"[{tag}] {name}: {c['name']} (measured {c['measured']:.12g}, "
                f"expected {c['expected']:.12g}, tol {c['tolerance']:.1e})"
            )
    print(f"verify: {'all suites passed' if report['passed'] else 'FAILURES detected'}")
    out = Path(out_dir) if out_dir is not None else Path(cfg.get("output", {}).get("dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    base = cfg.get("output", {}).get("basename", "report")
    _write_json(out / f"{base}_verify.json", cfg, stamp, report)
    return report, 0 if report["passed"] else 1


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}")


_EPILOG = """\
Hamiltonian expressions use ordered operator words with real coefficients,
for example "0.5*P^2 + 0.5*Q^2" or "P*Q*P - 2*Q" (letters P, Q for the
canonical set, D, Q, P affine, S1, S2, S3 spin).  Only nonnegative integer
powers are allowed ("D*Q^-1" is rejected) and the polynomial must be
Hermitian.  The full config schema is described in the README.

Exit codes: 0 success, 1 verify check failed or numerical failure,
2 config or input rejected, 3 representation too small.
"""


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use and kept: main may run many times in one process
    parser = argparse.ArgumentParser(
        prog="eq",
        description=__doc__,
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--stamp", action="store_true", help="embed a timestamp in file headers")
        p.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = _load_config(args.config)
        if args.command == "run":
            run(cfg, args.out, stamp=args.stamp, verbose=args.verbose)
            return 0
        _, code = report_verify(cfg, args.out, stamp=args.stamp)
        return code
    except (DomainError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}; diagnostics: {exc.diagnostics}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        hint = "" if exc.required_dim is None else (
            f"; set representation.dim to at least {exc.required_dim}")
        print(f"capacity error: {exc}{hint}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
