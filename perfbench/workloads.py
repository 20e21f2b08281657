"""The benchmark's four workloads.

Each workload builds its representations, families and models in
``setup``, turns a seed into a fixed list of operation inputs in
``operations``, runs one operation in ``run`` (the timed part) and checks
its outputs against :mod:`checks` in ``check`` (untimed).  Every operation
of a workload has the same make-up.  The program is called through module
attributes at call time, so the spans that :mod:`tracer` installs see it.

The inputs of ``hydrogen_contrast``, ``expression_flows`` and ``cli_cycle``
are a fixed pool, identical on every run; the seed sets the order in which
a run visits it.  Solver work depends on the initial condition, so a pool
that changed with the seed would move ``ops_per_s`` and every solver count
between runs of the same code.  On ``metric_grid`` the cost of a metric
point does not depend on its label, and the seed draws the labels.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import enhq
import checks

#: Seed of the fixed input pools, independent of ``--seed``.
POOL_SEED = 1204_2870
#: Operations in a pool; a run makes whole rounds over it.
POOL_SIZE = 40
HBAR = 1.0
BETA = 2.0


def _stratified(rng, size):
    """One uniform draw in each of ``size`` equal strata of [0, 1), shuffled."""
    return (rng.permutation(size) + rng.random(size)) / size


def _visit(pool, seed, n):
    """``n / len(pool)`` whole rounds over the pool, each in a seeded order."""
    if n % len(pool):
        raise ValueError(f"{n} operations are not whole rounds of {len(pool)}")
    rng = np.random.default_rng(seed)
    return [pool[i] for _ in range(n // len(pool)) for i in rng.permutation(len(pool))]


class MetricGrid:
    """Warm state construction: one numeric metric point on each of three families."""

    name = "metric_grid"
    spin_s = 20.0

    def setup(self, scratch):
        self.canonical = enhq.canonical_family(enhq.build_fock_rep(200, HBAR))
        self.spin = enhq.spin_family(enhq.build_spin_rep(self.spin_s, HBAR))
        self.affine = enhq.affine_family(enhq.build_halfline_rep(1e-5, 60.0, 3000, HBAR), BETA)
        for family, label in ((self.canonical, (0.1, 0.2)), (self.spin, (0.1, 0.2)),
                              (self.affine, (0.1, 1.0))):
            family.state(*label)  # fills the eigendecomposition caches

    def operations(self, seed, n):
        rng = np.random.default_rng(seed)
        root = math.sqrt(self.spin_s * HBAR)
        items = []
        for _ in range(n):
            canonical = tuple(rng.uniform(-3.0, 3.0, 2))
            spin = (rng.uniform(-0.8, 0.8) * root, rng.uniform(-0.9, 0.9) * math.pi * root)
            affine = (rng.uniform(-2.0, 2.0), math.exp(rng.uniform(math.log(0.5), math.log(2.0))))
            items.append((canonical, spin, affine))
        return items

    def run(self, item):
        canonical, spin, affine = item
        return (
            enhq.fs_metric_numeric(self.canonical, *canonical),
            enhq.fs_metric_numeric(self.spin, *spin),
            enhq.fs_metric_numeric(self.affine, *affine),
        )

    def check(self, item, out):
        g_can, g_spin, g_aff = out
        checks.check_canonical_metric(g_can.g_pp, g_can.g_pq, g_can.g_qq)
        checks.check_spin_metric(g_spin.g_pp, g_spin.g_pq, g_spin.g_qq, item[1][0], self.spin_s, HBAR)
        checks.check_affine_metric(g_aff.g_pp, g_aff.g_pq, g_aff.g_qq, item[2][1], BETA)
        return {}


class HydrogenContrast:
    """The flagship contrast: a classical collapse, then the enhanced orbit over 10x that time."""

    name = "hydrogen_contrast"

    def __init__(self):
        self.pool = self._pool()

    @staticmethod
    def _pool():
        # Infalling starts (p0 <= 0) whose classical and enhanced energies are
        # both negative, stratified in log q0 and in the share of the largest
        # admissible |p0|.  The horizon bounds the collapse time from above by
        # twice the free fall from the classical apocentre.
        rng = np.random.default_rng(POOL_SEED)
        c1, c2 = checks.enhanced_core(BETA, HBAR)
        size = POOL_SIZE
        items = []
        for u, v in zip(_stratified(rng, size), _stratified(rng, size)):
            q0 = 0.9 * (3.0 / 0.9) ** u
            p_max = min(math.sqrt(2.0 / q0), math.sqrt(2.0 * c1 * q0 - c2) / q0)
            p0 = -0.9 * v * p_max
            q_apo = 1.0 / -(0.5 * p0 * p0 - 1.0 / q0)
            horizon = 2.0 * 0.5 * math.pi * math.sqrt(q_apo ** 3 / 2.0)
            items.append((p0, q0, horizon))
        return items

    def setup(self, scratch):
        self.params = enhq.HydrogenParams(m=1.0, e2=1.0, beta=BETA, hbar=HBAR)
        self.classical = enhq.hydrogen_classical(self.params)
        self.enhanced = enhq.hydrogen_enhanced(self.params)

    def operations(self, seed, n):
        return _visit(self.pool, seed, n)

    def run(self, item):
        p0, q0, horizon = item
        classical = enhq.hamiltonian_flow(self.classical, (p0, q0), horizon)
        hits = [e.time for e in classical.events if e.kind == "singularity_hit"]
        if not hits:
            raise RuntimeError(f"no classical collapse from ({p0}, {q0}) within {horizon}")
        enhanced = enhq.hamiltonian_flow(self.enhanced, (p0, q0), 10.0 * hits[0])
        return hits[0], enhanced.event_kinds(), enhanced.min_q()

    def check(self, item, out):
        p0, q0, _ = item
        t_hit, kinds, min_q = out
        checks.check_collapse(t_hit, p0, q0)
        checks.check_enhanced_orbit(kinds, min_q, p0, q0, BETA, HBAR)
        return {}


class ExpressionFlows:
    """Parse, enhance and flow one canonical, one affine and one spin polynomial."""

    name = "expression_flows"
    spin_s = 10.0
    n_samples = 200

    def __init__(self):
        self.pool = self._pool()

    @staticmethod
    def _pool():
        rng = np.random.default_rng(POOL_SEED + 1)

        def r(lo, hi):
            return round(float(rng.uniform(lo, hi)), 4)

        items = []
        for _ in range(POOL_SIZE):
            canonical = (r(0.05, 0.2), (r(-0.5, 0.5), r(-1.0, 1.0)))
            affine = (r(0.4, 0.6), r(0.4, 0.6), (r(-0.3, 0.3), r(0.8, 1.25)))
            spin = (r(-0.1, 0.1), r(-1.0, 1.0))
            items.append((canonical, affine, spin))
        return items

    def setup(self, scratch):
        self.canonical = enhq.canonical_family(enhq.build_fock_rep(32, HBAR))
        self.affine = enhq.affine_family(enhq.build_halfline_rep(1e-5, 60.0, 1000, HBAR), BETA)
        self.spin = enhq.spin_family(enhq.build_spin_rep(self.spin_s, HBAR))

    def operations(self, seed, n):
        return _visit(self.pool, seed, n)

    def run(self, item):
        (c, x_can), (a, b, x_aff), x_spin = item
        flows = []
        for text, variables, family, x0, t_final in (
            (f"0.5*P^2 + 0.5*Q^2 + {c}*Q^4", "canonical", self.canonical, x_can, math.pi),
            (f"{a}*P^2 + {b}*Q^2", "affine", self.affine, x_aff, 0.3),
            ("S3*S3 + S1", "spin", self.spin, x_spin, 0.15),
        ):
            ham = enhq.enhance(enhq.parse_polynomial(text, variables), family)
            flows.append(enhq.hamiltonian_flow(ham, x0, t_final, n_samples=self.n_samples))
        return flows

    def check(self, item, out):
        (c, _), (a, b, _), _ = item
        can, aff, spin = out
        checks.check_energies(can.energy, checks.canonical_quartic_energy(can.p, can.q, c, HBAR),
                              1e-9, "canonical quartic H")
        checks.check_energies(aff.energy, checks.affine_energy(aff.p, aff.q, a, b, BETA, HBAR),
                              1e-6, "affine H")
        checks.check_energies(spin.energy, checks.spin_energy(spin.p, spin.q, 1.0, self.spin_s, HBAR),
                              1e-9, "spin H")
        for name, traj in (("canonical", can), ("affine", aff), ("spin", spin)):
            checks.check_drift(traj.energy, 1e-8, f"{name} flow")
        return {}


_TWO_PI = 2.0 * math.pi
_QUARTIC = "0.5*P^2 + 0.5*Q^2 + 0.1*Q^4"
_HYDROGEN_X0 = (-0.3, 1.0)
_EVOLVE_X0 = (0.3, 0.8)
_TRANSFORM_X0 = (0.2, 0.9)

#: One small config per experiment, and verify with all five suites.
CLI_CONFIGS = {
    "expectation": {
        "experiment": "expectation",
        "representation": {"kind": "line", "dim": 48},
        "labels": {"grid": {"p": [-1.0, 1.0, 3], "q": [-1.0, 1.0, 3]}},
    },
    "metric": {
        "experiment": "metric",
        "representation": {"kind": "line", "dim": 48},
        "labels": {"grid": {"p": [-0.5, 0.5, 2], "q": [-0.5, 0.5, 2]}},
    },
    "curvature": {
        "experiment": "curvature",
        "family": {"kind": "affine", "beta": BETA},
        "labels": {"grid": {"p": [-0.5, 0.5, 3], "q": [0.5, 1.5, 3]}},
    },
    "evolve": {
        "experiment": "evolve",
        "model": {"name": "harmonic"},
        "representation": {"dim": 16},
        "x0": list(_EVOLVE_X0),
        "integrator": {"t_final": _TWO_PI, "n_samples": 200},
    },
    "compare_hydrogen": {
        "experiment": "compare_hydrogen",
        "model": {"name": "hydrogen_enhanced", "beta": BETA},
        "x0": list(_HYDROGEN_X0),
        "integrator": {"n_samples": 200},
    },
    "transform_check": {
        "experiment": "transform_check",
        "model": {"name": "harmonic"},
        "representation": {"dim": 16},
        "transform": {"name": "rotation"},
        "x0": list(_TRANSFORM_X0),
        "integrator": {"t_final": _TWO_PI, "n_samples": 200},
    },
    "limit_study": {
        "experiment": "limit_study",
        "hamiltonian": {"expression": _QUARTIC},
        "representation": {"dim": 8},
        "labels": {"grid": {"p": [-0.5, 0.5, 2], "q": [-0.5, 0.5, 2]}},
    },
    "verify": {
        "suites": ["label_means", "flat_metric", "fiducial_moments", "curvature", "energy_drift"],
        "representation": {"dim": 80, "n": 2000},
    },
}


class CliCycle:
    """Cold use through ``enhq.cli.main``: seven ``eq run`` calls and one ``eq verify``."""

    name = "cli_cycle"

    def setup(self, scratch):
        self.scratch = Path(scratch)
        self.previous: dict[str, bytes] | None = None
        self.passes = 0
        config_dir = self.scratch / "configs"
        config_dir.mkdir(parents=True)
        self.configs = {}
        for name, cfg in CLI_CONFIGS.items():
            path = config_dir / f"{name}.json"
            path.write_text(json.dumps(cfg))
            self.configs[name] = str(path)

    def operations(self, seed, n):
        order = [list(CLI_CONFIGS)[i] for i in np.random.default_rng(seed).permutation(len(CLI_CONFIGS))]
        return [order] * n

    def run(self, order):
        self.passes += 1
        root = self.scratch / f"pass{self.passes}"
        results = {}
        for name in order:
            out = root / name
            command = "verify" if name == "verify" else "run"
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                code = enhq.cli.main([command, "--config", self.configs[name], "--out", str(out)])
            results[name] = (code, captured.getvalue(), out)
        return root, results

    def check(self, order, out):
        root, results = out
        files = {}
        try:
            for name, (code, _, out_dir) in results.items():
                checks.check_exit(name, code)
                for path in sorted(out_dir.iterdir()):
                    files[f"{name}/{path.name}"] = path.read_bytes()
        finally:
            shutil.rmtree(root)
        checks.check_verify(results["verify"][1], files["verify/report_verify.json"])
        checks.check_expectation_csv(files["expectation/expectation.csv"], HBAR)
        checks.check_metric_csv(files["metric/metric.csv"])
        checks.check_curvature_csv(files["curvature/curvature.csv"], BETA)
        checks.check_trajectory_csv(files["evolve/trajectory.csv"],
                                    lambda p, q: 0.5 * (p * p + q * q) + 0.5 * HBAR, 1e-9, "harmonic H")
        checks.check_drift([float(r["H"]) for r in checks.read_csv(files["evolve/trajectory.csv"])],
                           1e-8, "evolve")
        checks.check_hydrogen_summary(files["compare_hydrogen/hydrogen_summary.json"],
                                      *_HYDROGEN_X0, BETA, HBAR)
        checks.check_trajectory_csv(files["compare_hydrogen/hydrogen_classical.csv"],
                                    lambda p, q: 0.5 * p * p - 1.0 / q, 1e-12, "classical hydrogen H")
        checks.check_trajectory_csv(files["compare_hydrogen/hydrogen_enhanced.csv"],
                                    lambda p, q: checks.enhanced_energy(p, q, BETA, HBAR), 1e-6,
                                    "enhanced hydrogen H")
        checks.check_transform_json(files["transform_check/transform_check.json"], *_TRANSFORM_X0,
                                    CLI_CONFIGS["transform_check"]["integrator"]["n_samples"])
        checks.check_limit_csv(files["limit_study/limit_study.csv"],
                               lambda p, q: 0.5 * p * p + 0.5 * q * q + 0.1 * q ** 4)
        checks.check_same_files(files, self.previous)
        self.previous = files
        return {"cli.files_written": len(files), "cli.output_bytes": sum(map(len, files.values()))}


WORKLOADS = {w.name: w for w in (MetricGrid, HydrogenContrast, ExpressionFlows, CliCycle)}
