"""Command-line driver: ``eq run --config <path>`` and ``eq verify --config <path>``.

Experiments are described by a JSON config, checked against the key table
below and described in the README.  Outputs are flat CSV/JSON files, byte
identical across reruns with the same config; every file carries a header
block with the config hash and the library version.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .coherent import (
    CoherentFamily,
    _brioschi_curvature,
    affine_family,
    canonical_family,
    extended_family,
    fiducial_moments,
    scalar_curvature,
    spin_family,
)
from .correspondence import MAX_DEGREE, classical_hamiltonian, enhance, hbar_series, parse_polynomial
from .dynamics import (
    PhasePoint,
    apply_transform,
    hamiltonian_flow,
    rotation_transform,
    scaling_transform,
    transform_hamiltonian,
    verify_transform_action,
)
from .errors import NumericalFailure
from .hilbert import build_fock_rep, build_halfline_rep, build_spin_rep
from .models import (
    HydrogenParams,
    _core,
    _turning_radius,
    hydrogen_classical,
    hydrogen_enhanced,
    spin_precession,
)

_HYDROGEN = {"hydrogen_classical": hydrogen_classical, "hydrogen_enhanced": hydrogen_enhanced}


class ConfigError(ValueError):
    """Configuration rejected before any file is written."""


class _Reads(dict):
    """A config block that records the dotted path of every key looked up in it.

    Only ``[]`` and ``get`` record; ``in``, iteration and ``json.dumps`` do
    not.  A nested block comes back as a view sharing the record, so a run
    that hands its runner a view can reject afterwards what nothing read.
    """

    def __init__(self, block, read=None, prefix=""):
        super().__init__(block)
        self.read = set() if read is None else read
        self.prefix = prefix

    def __getitem__(self, key):
        path = self.prefix + key
        self.read.add(path)
        value = super().__getitem__(key)
        return _Reads(value, self.read, path + ".") if isinstance(value, dict) else value

    def get(self, key, default=None):
        return self[key] if key in self else default

    def check(self, command):
        """Reject the first key, at any depth, that nothing looked up."""
        for key, value in self.items():
            path = self.prefix + key
            if path not in self.read:
                raise ConfigError(f"config error at {path}: {command} does not read it")
            if isinstance(value, dict):
                _Reads(value, self.read, path + ".").check(command)


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _header(cfg) -> dict:
    return {"enhq": __version__, "config_sha256": config_hash(cfg)}


def _header_lines(header) -> list:
    return [f"{key}={value}" for key, value in header.items()]


def _csv(header, columns, rows) -> str:
    lines = [*(f"# {line}" for line in _header_lines(header)), ",".join(columns)]
    # str of a float is its shortest round-trip repr
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _json(header, payload) -> str:
    return json.dumps({**header, **payload}, indent=2) + "\n"


def _hbar(cfg) -> float:
    return float(cfg.get("hbar", 1.0))


_REPRESENTATION_DEFAULTS = {"dim": 200, "x_min": 1e-5, "x_max": 60.0, "n": 3000, "s": 0.5}


def _representation(cfg, kind, hbar=None):
    """The ``kind`` representation, built from the config's keys, else the defaults.

    A ``representation.kind`` the config names must be ``kind``.
    """
    block = cfg.get("representation", {})
    if block.get("kind", kind) != kind:
        raise ConfigError(f"config error at representation.kind: this config builds the "
                          f"{kind!r} representation, not {block['kind']!r}")

    def value(key):
        return block.get(key, _REPRESENTATION_DEFAULTS[key])

    hbar = _hbar(cfg) if hbar is None else hbar
    if kind == "line":
        return build_fock_rep(value("dim"), hbar)
    if kind == "halfline":
        return build_halfline_rep(value("x_min"), value("x_max"), value("n"), hbar)
    return build_spin_rep(value("s"), hbar)


# each family kind: the representation it lives on, and its builder; canonical
# and spin families take no parameter and read no family block
_FAMILIES = {
    "canonical": ("line", lambda rep, cfg: canonical_family(rep)),
    "extended": ("line", lambda rep, cfg: extended_family(
        rep, *(cfg.get("family", {}).get(k, 0.0) for k in "ab"))),
    "affine": ("halfline", lambda rep, cfg: affine_family(rep, cfg.get("family", {}).get("beta", 2.0))),
    "spin": ("spin", lambda rep, cfg: spin_family(rep)),
}

_HARMONIC = "0.5*P^2 + 0.5*Q^2"


def _family_kind(cfg, default="canonical"):
    return cfg.get("family", {}).get("kind", default)


def _build_family(cfg, kind) -> CoherentFamily:
    rep_kind, build = _FAMILIES[kind]
    return build(_representation(cfg, rep_kind), cfg)


def _label_points(cfg):
    labels = cfg.get("labels")
    if labels is None:
        raise ConfigError("config error at labels: this experiment needs label points")
    if "grid" in labels:
        axes = []
        for name in "pq":
            lo, hi, count = labels["grid"][name]
            if hi < lo:
                raise ConfigError(f"config error at labels.grid.{name}: empty label range")
            axes.append(np.linspace(lo, hi, int(count)))
        return [(float(p), float(q)) for p in axes[0] for q in axes[1]]
    if "random" in labels:
        box = float(labels["random"]["box"])
        rng = np.random.default_rng(int(cfg.get("seed", 0)))
        pts = rng.uniform(-box, box, size=(int(labels["random"]["count"]), 2))
        return [(float(p), float(q)) for p, q in pts]
    raise ConfigError("config error at labels: provide either 'grid' or 'random'")


# the integrator keys passed to hamiltonian_flow, and their types (the config
# check takes 5.0 as an integer)
_FLOW_KEYS = {"tol": float, "n_samples": int, "q_floor": float}


def _integrator(cfg) -> dict:
    # hamiltonian_flow's own defaults stand for the keys the config leaves out
    icfg = cfg.get("integrator", {})
    return {key: cast(icfg[key]) for key, cast in _FLOW_KEYS.items() if key in icfg}


def _hydrogen_params(cfg) -> HydrogenParams:
    model = cfg.get("model", {})
    return HydrogenParams(hbar=_hbar(cfg), **{key: model[key] for key in ("m", "e2", "beta") if key in model})


def _build_hamiltonian(cfg):
    """The model the config names, or its expression enhanced on family.kind (by default its variables)."""
    model = cfg.get("model")
    if model is not None:
        name = model["name"]
        if name == "harmonic":
            return enhance(parse_polynomial(_HARMONIC, "canonical"), _build_family(cfg, "canonical"))
        if name == "spin_precession":
            return spin_precession(model.get("B", 1.0), _representation(cfg, "spin"))
        return _HYDROGEN[name](_hydrogen_params(cfg))
    ham = cfg.get("hamiltonian")
    if ham is None:
        raise ConfigError(f"config error at model: {cfg['experiment']} needs a model or a hamiltonian")
    variables = ham.get("variables", "canonical")
    poly = parse_polynomial(ham["expression"], variables)
    return enhance(poly, _build_family(cfg, _family_kind(cfg, variables)))


def _transform_from_config(cfg):
    tcfg = cfg.get("transform")
    if tcfg is None:
        raise ConfigError("config error at transform: transform_check needs a transform")
    if tcfg["name"] == "rotation":
        return rotation_transform()
    return scaling_transform(tcfg.get("factor", 2.0))


# ---------------------------------------------------------------------------
# experiments: each takes the config view and the file header, and returns
# {file name: text}
# ---------------------------------------------------------------------------

# each variable set's expectation columns: (column, word), the word's restriction, or
# (column, a, b, ab), that of ab, the symmetrized product, less the product of those of a
# and b (a covariance).  The affine columns are q, q^2 (1 + hbar/2 beta) and p^2 + C2/q^2.
_EXPECTATION_COLUMNS = {
    "canonical": (("mean_p", "P"), ("mean_q", "Q"), ("var_p", "P", "P", "P^2"), ("var_q", "Q", "Q", "Q^2")),
    "affine": (("mean_q", "Q"), ("mean_q2", "Q^2"), ("mean_p2", "P^2")),
    "spin": (("mean_s3", "S3"),),
}

# the canonical metric is 2/hbar times the covariances of the generators that move the
# labels, Q for p and -P for q (Provost and Vallee 1980): Var Q, -Cov(P, Q) and Var P
_METRIC_COLUMNS = (("g_pp", "Q", "Q", "Q^2"), ("g_pq", "P", "Q", "0.5*P*Q + 0.5*Q*P"),
                   ("g_qq", "P", "P", "P^2"))


def _expectation_table(family, points, columns=None) -> tuple:
    """The names of ``columns`` (by default the family's) and the row ``(p, q, *columns)`` of each point."""
    columns = columns or _EXPECTATION_COLUMNS[family.variables]
    labels = {word: enhance(parse_polynomial(word, family.variables), family)
              for _, *words in columns for word in words}
    rows = []
    for p, q in points:
        h = {word: label(p, q) for word, label in labels.items()}
        rows.append((p, q, *(h[pair[1]] - h[word] * h[pair[0]] if pair else h[word]
                             for _, word, *pair in columns)))
    return [column[0] for column in columns], rows


def _covariance_metric(family, points) -> np.ndarray:
    """The Fubini-Study metric ``(g_pp, g_pq, g_qq)`` of the canonical ``family`` at each point,
    read off restrictions (``_METRIC_COLUMNS``), so no state is built."""
    rows = np.array(_expectation_table(family, points, _METRIC_COLUMNS)[1])
    return 2.0 / family.rep.hbar * rows[:, 2:] * [1.0, -1.0, 1.0]


def _run_expectation(cfg, header):
    names, rows = _expectation_table(_build_family(cfg, _family_kind(cfg)), _label_points(cfg))
    return {"expectation.csv": _csv(header, ["p", "q", *names], rows)}


def _run_metric(cfg, header):
    family = _build_family(cfg, _family_kind(cfg))
    rows = []
    for p, q in _label_points(cfg):
        g = family.metric(p, q)
        rows.append((p, q, g.g_pp, g.g_pq, g.g_qq))
    return {"metric.csv": _csv(header, ["p", "q", "g_pp", "g_pq", "g_qq"], rows)}


def _run_curvature(cfg, header):
    family = _build_family(cfg, _family_kind(cfg))
    rows = [(p, q, scalar_curvature(family, p, q)) for p, q in _label_points(cfg)]
    return {"curvature.csv": _csv(header, ["p", "q", "curvature"], rows)}


def _run_evolve(cfg, header):
    ham = _build_hamiltonian(cfg)
    x0 = cfg.get("x0", [0.0, 1.0])
    t_final = float(cfg.get("integrator", {}).get("t_final", 2.0 * np.pi))
    traj = hamiltonian_flow(ham, PhasePoint(x0[0], x0[1]), t_final, **_integrator(cfg))
    return {"trajectory.csv": traj.to_csv(_header_lines(header))}


def _run_compare_hydrogen(cfg, header):
    # both hydrogen models run; a model block sets their parameters
    name = cfg.get("model", {}).get("name")
    if name is not None and name not in _HYDROGEN:
        raise ConfigError(f"config error at model.name: compare_hydrogen does not run {name!r}")
    params = _hydrogen_params(cfg)
    x0 = cfg.get("x0", [0.0, 1.0])
    t_final = float(cfg.get("integrator", {}).get(
        "t_final", 10.0 * np.sqrt(params.m * abs(x0[1]) ** 3 / params.e2)))

    classical = hydrogen_classical(params)
    traj_c = hamiltonian_flow(classical, PhasePoint(*x0), t_final, **_integrator(cfg))
    hits = [e for e in traj_c.events if e.kind == "singularity_hit"]
    collapse_time = hits[0].time if hits else None

    # the enhanced orbit runs to ten times the classical collapse
    enhanced = hydrogen_enhanced(params)
    t_enh = 10.0 * (collapse_time if collapse_time else t_final)
    traj_e = hamiltonian_flow(enhanced, PhasePoint(*x0), t_enh, **_integrator(cfg))
    energy = enhanced.evaluate(*x0)
    # the core off the flow's own polynomial: hydrogen is restricted once
    c1, c2 = core = _core(enhanced, params.m)
    summary = {
        "x0": list(map(float, x0)),
        "collapse_detected": collapse_time is not None,
        "collapse_time": collapse_time,
        "enhanced_horizon": t_enh,
        "enhanced_min_q": traj_e.min_q(),
        "enhanced_singularity": "singularity_hit" in traj_e.event_kinds(),
        "predicted_min_radius": _turning_radius(core, params.m, energy),
        "energy_enhanced": energy,
        "c1": c1,
        "c2": c2,
    }
    lines = _header_lines(header)
    return {
        "hydrogen_classical.csv": traj_c.to_csv(lines),
        "hydrogen_enhanced.csv": traj_e.to_csv(lines),
        "hydrogen_summary.json": _json(header, summary),
    }


def _run_transform_check(cfg, header):
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
    dev = float(max(np.max(np.abs(traj_t.p[:n] - transformed_traj.p[:n])),
                    np.max(np.abs(traj_t.q[:n] - transformed_traj.q[:n]))))
    payload = {
        "transform": tr.name,
        "max_pointwise_deviation": dev,
        "integral_p_dq": action.integral_original,
        "integral_transformed": action.integral_transformed,
        "generator_difference": action.generator_difference,
        "action_residual": action.residual,
    }
    return {"transform_check.json": _json(header, payload)}


def _run_limit_study(cfg, header):
    ham_cfg = cfg.get("hamiltonian")
    if ham_cfg is None:
        raise ConfigError("config error at hamiltonian: limit_study needs a hamiltonian")
    if ham_cfg.get("variables", "canonical") != "canonical":
        raise ConfigError("config error at hamiltonian.variables: limit_study supports canonical expressions")
    poly = parse_polynomial(ham_cfg["expression"], "canonical")
    # one representation at hbar = 1 holds the whole series in hbar
    series = hbar_series(poly, canonical_family(_representation(cfg, "line", 1.0)))
    classical = classical_hamiltonian(poly)
    rows = []
    for p, q in _label_points(cfg):
        h = [h_k(p, q) for h_k in series]
        h += [0.0] * (MAX_DEGREE // 2 + 1 - len(h))
        leading = next((k for k in range(1, len(h)) if h[k] != 0.0), 0)
        rows.append((p, q, h[0], leading, classical(p, q), *h[1:]))
    columns = ["p", "q", "limit", "leading_power", "classical_value",
               *(f"h{k}" for k in range(1, MAX_DEGREE // 2 + 1))]
    return {"limit_study.csv": _csv(header, columns, rows)}


_RUNNERS = {
    "expectation": _run_expectation,
    "metric": _run_metric,
    "curvature": _run_curvature,
    "evolve": _run_evolve,
    "compare_hydrogen": _run_compare_hydrogen,
    "transform_check": _run_transform_check,
    "limit_study": _run_limit_study,
}


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
    rng = np.random.default_rng(int(cfg.get("seed", 0)))
    rows = np.array(_expectation_table(family, rng.uniform(-3.0, 3.0, size=(50, 2)))[1])
    expected = np.hstack([rows[:, :2], np.full((len(rows), 2), family.rep.hbar / 2)])
    dev = np.max(np.abs(rows[:, 2:] - expected), axis=0)
    return [
        _check("max |<P> - p|", dev[0], 0.0, 1e-8),
        _check("max |<Q> - q|", dev[1], 0.0, 1e-8),
        _check("max |Var - hbar/2|", max(dev[2], dev[3]), 0.0, 1e-8),
    ]


def _suite_flat_metric(cfg):
    grid = np.linspace(-1.0, 1.0, 5)
    g = _covariance_metric(_build_family(cfg, "canonical"), [(p, q) for p in grid for q in grid])
    return [_check("max metric deviation from identity", np.max(np.abs(g - [1.0, 0.0, 1.0])), 0.0, 1e-6)]


def _suite_fiducial_moments(cfg):
    # the grid quadratures against the exact moments <Q> = 1 and C2 = <P^2>
    family = _build_family(cfg, "affine")
    m = fiducial_moments(family)
    c2 = family.fiducial_moment(("P", "P")).real
    return [
        _check("<Q>", m["q1"], 1.0, 1e-6),
        _check("C2 relative", m["p2"] / c2, 1.0, 1e-5),
    ]


def _suite_curvature(cfg):
    # each family's declared curvature against twice the Gaussian curvature of its
    # declared metric (Brioschi's formula, one Richardson step from h to h/2); the
    # step scales with the distance to the chart's edge, q on the half line
    hbar = _hbar(cfg)
    cases = [("canonical curvature", "canonical", {}, 0.3, -0.2, 1e-3, 1e-6)]
    cases += [(f"affine curvature beta={beta}", "affine", {"family": {"beta": beta}},
               0.4, 1.3, 1e-3 * 1.3, 1e-4) for beta in (1.0, 2.0, 5.0)]
    for s in (0.5, 1.0, 5.0):
        radius = math.sqrt(s * hbar)
        p = 0.2 * radius
        cases.append((f"spin curvature s={s}", "spin", {"representation": {"s": s}},
                      p, 0.1, 1e-2 * min(1.0, radius - p), 1e-4))
    checks = []
    for name, kind, block, p, q, h, tolerance in cases:
        family = _build_family({"hbar": hbar, **block}, kind)
        k1, k2 = (_brioschi_curvature(family.metric, p, q, step) for step in (h, h / 2.0))
        checks.append(_check(name, 2.0 * (4.0 * k2 - k1) / 3.0, family.curvature, tolerance))
    return checks


def _suite_energy_drift(cfg):
    ham = enhance(parse_polynomial(_HARMONIC, "canonical"), _build_family(cfg, "canonical"))
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


# ---------------------------------------------------------------------------
# config check and the two commands
# ---------------------------------------------------------------------------

def _reject(path, message):
    raise ConfigError(f"config error at {path}: {message}")


def _finite(value) -> bool:
    # json.load parses NaN and Infinity; a bool is no number, and an int of any size is finite
    return type(value) is int or isinstance(value, float) and math.isfinite(value)


def _is(test, expected):
    """A value check: a value that fails ``test`` is rejected as not ``expected``."""
    def check(path, value):
        if not test(value):
            _reject(path, f"{value!r} is not {expected}")
    return check


def _integer(least):
    # 5.0 counts as an integer
    return _is(lambda v: _finite(v) and v == int(v) and v >= least, f"an integer >= {least}")


def _one_of(*choices):
    return _is(lambda v: v in choices, f"one of {list(choices)}")


def _items(*checks):
    """A list of ``len(checks)`` items, the i-th checked at ``<path>.i``."""
    shape = _is(lambda v: isinstance(v, list) and len(v) == len(checks), f"a list of {len(checks)} items")

    def check(path, value):
        shape(path, value)
        for i, (item_check, item) in enumerate(zip(checks, value)):
            item_check(f"{path}.{i}", item)
    return check


def _nonempty_list(item_check):
    shape = _is(lambda v: isinstance(v, list) and v, "a nonempty list")

    def check(path, value):
        shape(path, value)
        for i, item in enumerate(value):
            item_check(f"{path}.{i}", item)
    return check


_NUMBER = _is(_finite, "a finite number")
_POSITIVE = _is(lambda v: _finite(v) and v > 0, "a finite number > 0")
_STRING = _is(lambda v: isinstance(v, str), "a string")
_GRID_AXIS = _items(_NUMBER, _NUMBER, _integer(1))  # [lo, hi, count] of one label axis

# every leaf a config may hold, by dotted path, and its value check; the
# proper prefixes of these paths are the blocks, and each must be an object
_KEYS = {
    "experiment": _one_of(*_RUNNERS),
    "seed": _integer(0),
    "hbar": _POSITIVE,
    "representation.kind": _one_of("line", "halfline", "spin"),
    "representation.dim": _integer(2),
    "representation.x_min": _POSITIVE,
    "representation.x_max": _POSITIVE,
    "representation.n": _integer(16),
    "representation.s": _POSITIVE,
    "family.kind": _one_of(*_FAMILIES),
    "family.beta": _POSITIVE,
    "family.a": _NUMBER,
    "family.b": _NUMBER,
    "model.name": _one_of("harmonic", *_HYDROGEN, "spin_precession"),
    "model.m": _POSITIVE,
    "model.e2": _POSITIVE,
    "model.beta": _POSITIVE,
    "model.B": _NUMBER,
    "hamiltonian.expression": _STRING,
    "hamiltonian.variables": _one_of("canonical", "affine", "spin"),
    "labels.grid.p": _GRID_AXIS,
    "labels.grid.q": _GRID_AXIS,
    "labels.random.count": _integer(1),
    "labels.random.box": _POSITIVE,
    "integrator.t_final": _POSITIVE,
    "integrator.tol": _POSITIVE,
    "integrator.n_samples": _integer(2),
    "integrator.q_floor": _POSITIVE,
    "transform.name": _one_of("rotation", "scaling"),
    "transform.factor": _NUMBER,
    "x0": _items(_NUMBER, _NUMBER),
    "suites": _nonempty_list(_one_of(*_SUITE_RUNNERS)),
}

_BLOCKS = {path[:i] for path in _KEYS for i, char in enumerate(path) if char == "."}

# the keys a block must hold when it is given
_REQUIRED = ("model.name", "hamiltonian.expression", "labels.grid.p", "labels.grid.q",
             "labels.random.count", "labels.random.box", "transform.name")


def _check_block(block, prefix):
    # a missing key is the block's fault, reported before any of its values'
    where = prefix.rstrip(".") or "<root>"
    if not isinstance(block, dict):
        _reject(where, f"{block!r} is not an object")
    for path in _REQUIRED:
        block_path, _, key = path.rpartition(".")
        if block_path == where and key not in block:
            _reject(where, f"{key!r} is required")
    for key, value in block.items():
        path = prefix + key
        if path in _KEYS:
            _KEYS[path](path, value)
        elif path in _BLOCKS:
            _check_block(value, path + ".")
        else:
            _reject(where, f"unknown key {key!r}")


def validate_config(cfg: dict) -> dict:
    """Check every key and value of ``cfg`` against ``_KEYS``; the first fault raises ConfigError."""
    _check_block(cfg, "")
    return cfg


def _write(out: Path, texts: dict) -> list:
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in texts.items():
        path = out / name
        path.write_text(text, newline="\n")
        paths.append(path)
    return paths


def run(cfg: dict, out_dir=".") -> list:
    """Execute one experiment into ``out_dir``; returns the list of written paths.

    The runner reads the config through a view that records each key it looks
    up.  A key it never read, at any depth, is rejected after it returns, and
    the output directory is made and written only once that check has passed.
    """
    validate_config(cfg)
    view = _Reads(cfg)
    experiment = view.get("experiment")
    if experiment is None:
        raise ConfigError("config error at experiment: eq run needs an experiment")
    texts = _RUNNERS[experiment](view, _header(cfg))
    view.check(experiment)
    return _write(Path(out_dir), texts)


def report_verify(cfg: dict, out_dir=".") -> tuple[dict, int]:
    """Run the requested invariant suites; returns (report, exit_code).

    The report is written to ``report_verify.json`` in ``out_dir``.

    Every suite runs before the keys are checked, so a rejected config prints
    and writes nothing, and the output directory is made before any check
    line is printed, so an unusable one prints none.
    """
    validate_config(cfg)
    view = _Reads(cfg)
    suites = view.get("suites")
    if suites is None:
        raise ConfigError("config error at suites: eq verify needs at least one suite")
    report = {"suites": {}, "passed": True}
    for name in suites:
        checks = _SUITE_RUNNERS[name](view)
        ok = all(c["passed"] for c in checks)
        report["suites"][name] = {"passed": ok, "checks": checks}
        report["passed"] = report["passed"] and ok
    view.check("verify")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in suites:
        for c in report["suites"][name]["checks"]:
            tag = "PASS" if c["passed"] else "FAIL"
            print(
                f"[{tag}] {name}: {c['name']} (measured {c['measured']:.12g}, "
                f"expected {c['expected']:.12g}, tol {c['tolerance']:.1e})"
            )
    print(f"verify: {'all suites passed' if report['passed'] else 'FAILURES detected'}")
    _write(out, {"report_verify.json": _json(_header(cfg), report)})
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
for example "0.5*P^2 + 0.5*Q^2" or "P*Q*P - 2*Q":

  expression := sign* term (sign+ term)*       sign := + | -
  term       := factor (* factor)*
  factor     := number | letter (^ sign? number)?
  letter     := S1 | S2 | S3 | P | Q | D

with whitespace between tokens, and numbers such as 2, 0.5, .5 or 1.5e-3.
Letters are P, Q for the canonical set, D, Q, P affine, S1, S2, S3 spin.
A power is a whole number from -6 to 6, negative on the affine Q only
("0.5*P^2 - Q^-1" is hydrogen; "P^-1" and "Q^7" are rejected), every word
has degree at most 6, the polynomial is Hermitian.  The README lists every key.

Exit codes: 0 success, 1 verify check failed or numerical failure,
2 config or input rejected, or a file that cannot be read or written (a
--config that names a directory, an --out that names a file).
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
        p.add_argument("--out", default=".", help="output directory (default: the current one)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = _load_config(args.config)
        if args.command == "run":
            run(cfg, args.out)
            return 0
        _, code = report_verify(cfg, args.out)
        return code
    except (ValueError, OSError) as exc:  # ConfigError and DomainError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}; diagnostics: {exc.diagnostics}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
