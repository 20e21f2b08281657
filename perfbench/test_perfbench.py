"""Tests of the benchmark's own code: every correctness check rejects a
perturbed value, the span arithmetic, and the agreement of the metrics the
benchmark prints with ``BENCHMARK.json``.  Run with
``python3 -m pytest perfbench``.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracer as tracing

BETA, HBAR = 2.0, 1.0


def rejects(fn, *args, **kwargs):
    with pytest.raises(checks.CheckFailure):
        fn(*args, **kwargs)


def csv_body(columns, rows):
    lines = ["# enhq=test", ",".join(columns)] + [",".join(repr(v) for v in r) for r in rows]
    return ("\n".join(lines) + "\n").encode()


# metric_grid --------------------------------------------------------------

def test_canonical_metric():
    checks.check_canonical_metric(1.0 + 1e-8, 1e-9, 1.0)
    rejects(checks.check_canonical_metric, 1.0 + 1e-5, 0.0, 1.0)
    rejects(checks.check_canonical_metric, 1.0, 1e-5, 1.0)


def test_affine_metric():
    q = 1.7
    checks.check_affine_metric(q * q / BETA * (1 + 1e-7), 0.0, BETA / (q * q), q, BETA)
    rejects(checks.check_affine_metric, q * q / BETA * (1 + 1e-4), 0.0, BETA / (q * q), q, BETA)
    rejects(checks.check_affine_metric, q * q / BETA, 0.0, BETA / (q * q) * 1.001, q, BETA)


def test_spin_metric():
    p, s = 2.0, 20.0
    f = 1.0 - p * p / (s * HBAR)
    checks.check_spin_metric(1.0 / f, 0.0, f, p, s, HBAR)
    rejects(checks.check_spin_metric, 1.0 / f + 1e-5, 0.0, f, p, s, HBAR)
    rejects(checks.check_spin_metric, 1.0 / f, 0.0, f - 1e-5, p, s, HBAR)


# hydrogen_contrast --------------------------------------------------------

def test_collapse_time_is_free_fall_from_rest():
    # from rest at q0 the infall time is pi/(2 sqrt 2) q0^(3/2)
    for q0 in (0.5, 1.0, 3.0):
        assert checks.collapse_time(0.0, q0) == pytest.approx(math.pi / math.sqrt(8) * q0 ** 1.5, rel=1e-12)
    # an outgoing start climbs to the same apocentre first, so it takes longer
    assert checks.collapse_time(0.3, 1.0) > checks.collapse_time(0.0, 1.0) > checks.collapse_time(-0.3, 1.0)


def test_collapse_check():
    t = checks.collapse_time(-0.4, 1.2)
    checks.check_collapse(t * (1 + 1e-6), -0.4, 1.2)
    rejects(checks.check_collapse, t * (1 + 1e-3), -0.4, 1.2)
    rejects(checks.check_collapse, None, -0.4, 1.2)


def test_turning_radius_solves_the_energy_equation():
    c1, c2 = checks.enhanced_core(BETA, HBAR)
    assert (c1, c2) == pytest.approx((4.0 / 3.0, 2.0))
    p0, q0 = -0.5, 1.4
    r = checks.turning_radius(p0, q0, BETA, HBAR)
    energy = checks.enhanced_energy(p0, q0, BETA, HBAR)
    assert checks.enhanced_energy(0.0, r, BETA, HBAR) == pytest.approx(energy, abs=1e-13)
    assert r < q0


def test_enhanced_orbit_check():
    p0, q0 = -0.5, 1.4
    r = checks.turning_radius(p0, q0, BETA, HBAR)
    checks.check_enhanced_orbit(("bounce",), r * (1 + 1e-7), p0, q0, BETA, HBAR)
    rejects(checks.check_enhanced_orbit, ("bounce",), r * (1 + 1e-4), p0, q0, BETA, HBAR)
    rejects(checks.check_enhanced_orbit, ("singularity_hit",), r, p0, q0, BETA, HBAR)


# expression_flows ---------------------------------------------------------

def test_energy_checks():
    p = np.linspace(-0.5, 0.5, 7)
    q = np.linspace(0.8, 1.2, 7)
    for closed in (
        checks.canonical_quartic_energy(p, q, 0.1, HBAR),
        checks.affine_energy(p, q, 0.5, 0.45, BETA, HBAR),
        checks.spin_energy(p, q, 1.0, 10.0, HBAR),
    ):
        checks.check_energies(closed * (1 + 1e-11), closed, 1e-9, "H")
        bumped = closed.copy()
        bumped[3] *= 1 + 1e-7
        rejects(checks.check_energies, bumped, closed, 1e-9, "H")


def test_closed_forms_at_known_points():
    # at the origin of labels only the fiducial terms remain
    assert checks.canonical_quartic_energy(0.0, 0.0, 0.1, HBAR) == pytest.approx(0.5 + 0.075)
    # the spin pole p = sqrt(s hbar) has theta = 0: <S3 S3> = s^2 hbar^2, <S1> = 0
    assert checks.spin_energy(math.sqrt(10.0), 0.3, 1.0, 10.0, HBAR) == pytest.approx(100.0)
    # nu = 4, C2 = 2 at beta = 2
    assert checks.affine_energy(0.0, 1.0, 1.0, 1.0, BETA, HBAR) == pytest.approx(2.0 + 1.25)


def test_drift_check():
    checks.check_drift([1.0, 1.0 + 1e-10, 1.0 - 1e-10], 1e-8, "flow")
    rejects(checks.check_drift, [1.0, 1.0 + 1e-7], 1e-8, "flow")


# cli_cycle ----------------------------------------------------------------

def test_exit_and_verify_checks():
    checks.check_exit("metric", 0)
    rejects(checks.check_exit, "metric", 2)
    good = json.dumps({"passed": True, "suites": {"curvature": {"passed": True}}}).encode()
    bad = json.dumps({"passed": False, "suites": {"curvature": {"passed": False}}}).encode()
    checks.check_verify("verify: all suites passed\n", good)
    rejects(checks.check_verify, "verify: FAILURES detected\n", good)
    rejects(checks.check_verify, "verify: all suites passed\n", bad)


def test_expectation_csv():
    cols = ["p", "q", "mean_p", "mean_q", "var_p", "var_q"]
    checks.check_expectation_csv(csv_body(cols, [(0.5, -1.0, 0.5, -1.0, 0.5, 0.5)]), HBAR)
    rejects(checks.check_expectation_csv, csv_body(cols, [(0.5, -1.0, 0.5 + 1e-6, -1.0, 0.5, 0.5)]), HBAR)
    rejects(checks.check_expectation_csv, csv_body(cols, [(0.5, -1.0, 0.5, -1.0, 0.5, 0.5 + 1e-6)]), HBAR)


def test_metric_and_curvature_csv():
    cols = ["p", "q", "g_pp", "g_pq", "g_qq"]
    checks.check_metric_csv(csv_body(cols, [(0.0, 0.0, 1.0, 0.0, 1.0)]))
    rejects(checks.check_metric_csv, csv_body(cols, [(0.0, 0.0, 1.0, 0.0, 1.0001)]))
    cols = ["p", "q", "curvature"]
    checks.check_curvature_csv(csv_body(cols, [(0.0, 1.0, -1.0 + 1e-6)]), BETA)
    rejects(checks.check_curvature_csv, csv_body(cols, [(0.0, 1.0, -1.001)]), BETA)


def test_trajectory_csv():
    cols = ["t", "p", "q", "H", "event"]
    exact = 0.5 * (0.3 ** 2 + 0.8 ** 2) + 0.5 * HBAR

    def harmonic(p, q):
        return 0.5 * (p * p + q * q) + 0.5 * HBAR

    checks.check_trajectory_csv(csv_body(cols, [(0.0, 0.3, 0.8, exact, "")]), harmonic, 1e-9, "H")
    rejects(checks.check_trajectory_csv, csv_body(cols, [(0.0, 0.3, 0.8, exact * (1 + 1e-8), "")]),
            harmonic, 1e-9, "H")


def test_hydrogen_summary():
    p0, q0 = -0.3, 1.0
    doc = {
        "collapse_detected": True,
        "collapse_time": checks.collapse_time(p0, q0),
        "enhanced_min_q": checks.turning_radius(p0, q0, BETA, HBAR),
        "enhanced_singularity": False,
        "predicted_min_radius": checks.turning_radius(p0, q0, BETA, HBAR),
    }
    checks.check_hydrogen_summary(json.dumps(doc).encode(), p0, q0, BETA, HBAR)
    for key, value in (("collapse_time", doc["collapse_time"] * 1.001),
                       ("enhanced_min_q", doc["enhanced_min_q"] * 1.001),
                       ("enhanced_singularity", True),
                       ("predicted_min_radius", doc["predicted_min_radius"] * 1.001)):
        rejects(checks.check_hydrogen_summary, json.dumps(dict(doc, **{key: value})).encode(),
                p0, q0, BETA, HBAR)


def test_hydrogen_trajectory_csv():
    cols = ["t", "p", "q", "H", "event"]
    exact = checks.enhanced_energy(-0.3, 1.0, BETA, HBAR)

    def closed(p, q):
        return checks.enhanced_energy(p, q, BETA, HBAR)

    checks.check_trajectory_csv(csv_body(cols, [(0.0, -0.3, 1.0, exact, "")]), closed, 1e-6, "H")
    rejects(checks.check_trajectory_csv, csv_body(cols, [(0.0, -0.3, 1.0, exact * 1.0001, "")]),
            closed, 1e-6, "H")


def test_transform_json():
    p0, q0, n = 0.2, 0.9, 200
    sides = n - 1
    area = 0.5 * sides * (p0 * p0 + q0 * q0) * math.sin(2 * math.pi / sides)
    doc = {"integral_p_dq": area, "integral_transformed": area, "action_residual": 1e-12,
           "max_pointwise_deviation": 1e-9}
    checks.check_transform_json(json.dumps(doc).encode(), p0, q0, n)
    # the continuous-orbit area pi r^2 is not what 199 chords enclose
    rejects(checks.check_transform_json,
            json.dumps(dict(doc, integral_p_dq=math.pi * (p0 * p0 + q0 * q0))).encode(), p0, q0, n)
    rejects(checks.check_transform_json,
            json.dumps(dict(doc, max_pointwise_deviation=1e-4)).encode(), p0, q0, n)


def test_limit_csv():
    cols = ["p", "q", "limit", "leading_power", "residual", "classical_value"]

    def classical(p, q):
        return 0.5 * p * p + 0.5 * q * q + 0.1 * q ** 4

    checks.check_limit_csv(csv_body(cols, [(0.5, -0.5, classical(0.5, -0.5), 1, 0.0, 0.0)]), classical)
    rejects(checks.check_limit_csv,
            csv_body(cols, [(0.5, -0.5, classical(0.5, -0.5) + 1e-5, 1, 0.0, 0.0)]), classical)
    rejects(checks.check_limit_csv,
            csv_body(cols, [(0.5, -0.5, classical(0.5, -0.5), 0, 0.0, 0.0)]), classical)


def test_same_files():
    files = {"a/x.csv": b"1\n", "b/y.json": b"{}"}
    checks.check_same_files(files, None)
    checks.check_same_files(dict(files), files)
    rejects(checks.check_same_files, dict(files, **{"a/x.csv": b"2\n"}), files)
    rejects(checks.check_same_files, {"a/x.csv": b"1\n"}, files)


# harness ------------------------------------------------------------------

def test_tail_has_ten_beyond():
    values = list(range(40))
    value, pct, beyond = run.tail(values)
    assert (value, pct, beyond) == (29, 75.0, 10)
    assert run.tail(list(range(1160)))[2] == 10


def test_operation_counts_are_whole_rounds():
    for name in run.WORKLOADS:
        for seconds in (1, 10, 60):
            n = run.ops_for(name, seconds)
            assert n >= 40 and n % run.ROUND == 0


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    op = tr.begin(tracing.OP)
    flow = tr.begin("dynamics.hamiltonian_flow")
    solver = tr.begin("dynamics.solve_ivp")
    grad = tr.begin("correspondence.gradient")
    ev = tr.begin("correspondence.poly_expectation")
    for i in (ev, grad, solver, flow, op):
        tr.end(i)
    # fixed times make the arithmetic exact
    tr.starts = [0.0, 1.0, 2.0, 3.0, 4.0]
    tr.ends = [10.0, 9.0, 8.0, 7.0, 6.0]
    tr.nfev[solver] = 4
    m = tracing.layer_metrics(tr, 1, 5.0, {})
    assert m["dynamics.flow_ms"] == 8000.0
    assert m["dynamics.flow_self_ms"] == 8000.0 - 4000.0  # the gradient is a label-function call
    assert m["correspondence.gradient_self_ms"] == 4000.0 - 2000.0
    assert m["correspondence.evaluations_per_gradient"] == 1.0
    assert m["dynamics.gradient_calls_per_nfev"] == 0.25
    assert m["enhq.import_ms"] == 5.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    names = set(tracing.layer_metrics(tracing.Tracer(), 1, 0.0, {})) | {"trace.overhead_pct"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: run.layer_unit(n) for n in names}
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
