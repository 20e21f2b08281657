"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance here is fixed, not calibrated.
"""

import json
import time

import numpy as np
import pytest
from scipy.integrate import quad

from enhq import (
    HydrogenParams,
    PhasePoint,
    Trajectory,
    apply_transform,
    build_fock_rep,
    build_halfline_rep,
    build_spin_rep,
    canonical_family,
    classical_value,
    enhance,
    affine_family,
    fiducial_moments,
    fiducial_p2_closed,
    fs_metric_analytic,
    fs_metric_numeric,
    hamiltonian_flow,
    hbar_series,
    hydrogen_classical,
    hydrogen_enhanced,
    line_integral_p_dq,
    min_radius,
    parse_polynomial,
    restricted_action_value,
    rotation_transform,
    scalar_curvature,
    scaling_transform,
    spin_family,
    transform_hamiltonian,
)
from enhq.cli import main as cli_main
from oracles import classical_limit, expectation, variance


def _report(number, name, ok, detail):
    line = f"ACCEPTANCE {number:02d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_label_means():
    start = time.perf_counter()
    rep = build_fock_rep(300, hbar=1.0)
    family = canonical_family(rep)
    rng = np.random.default_rng(2024)
    worst_mean = worst_var = 0.0
    for p, q in rng.uniform(-3.0, 3.0, size=(50, 2)):
        psi = family.state(p, q)
        worst_mean = max(
            worst_mean,
            abs(expectation(psi, rep.P).real - p),
            abs(expectation(psi, rep.Q).real - q),
        )
        worst_var = max(
            worst_var,
            abs(variance(psi, rep.P) - 0.5),
            abs(variance(psi, rep.Q) - 0.5),
        )
    elapsed = time.perf_counter() - start
    ok = worst_mean < 1e-8 and worst_var < 1e-8 and elapsed < 10.0
    _report(
        1, "label means", ok,
        f"max mean dev {worst_mean:.2e}, max var dev {worst_var:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_flat_metric():
    start = time.perf_counter()
    family = canonical_family(build_fock_rep(200))
    worst = 0.0
    for p in np.linspace(-1.0, 1.0, 5):
        for q in np.linspace(-1.0, 1.0, 5):
            g = fs_metric_numeric(family, float(p), float(q))
            worst = max(worst, abs(g.g_pp - 1.0), abs(g.g_qq - 1.0), abs(g.g_pq))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 30.0
    _report(2, "flat metric", ok, f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_affine_metric_and_curvature():
    beta = 2.0
    family = affine_family(build_halfline_rep(1e-5, 60.0, 3000), beta)
    worst_rel = 0.0
    for p in np.linspace(-1.0, 1.0, 3):
        for q in (0.5, 1.0, 1.4, 2.0):
            g = fs_metric_numeric(family, float(p), q)
            exact = fs_metric_analytic("affine", float(p), q, beta=beta)
            scale = max(abs(exact.g_pp), abs(exact.g_qq))
            worst_rel = max(
                worst_rel,
                abs(g.g_pp - exact.g_pp) / abs(exact.g_pp),
                abs(g.g_qq - exact.g_qq) / abs(exact.g_qq),
                abs(g.g_pq) / scale,
            )
    worst_curv = 0.0
    for b in (1.0, 2.0, 5.0):
        r = scalar_curvature("affine", 0.3, 1.2, beta=b)
        worst_curv = max(worst_curv, abs(r - (-2.0 / b)))
    ok = worst_rel < 1e-5 and worst_curv < 1e-4
    _report(
        3, "affine metric and curvature", ok,
        f"max metric rel dev {worst_rel:.2e}, max curvature dev {worst_curv:.2e}",
    )


def test_criterion_04_spin_metric():
    worst = 0.0
    worst_curv = 0.0
    for s in (0.5, 1.0, 5.0):
        family = spin_family(build_spin_rep(s))
        sq = np.sqrt(s)
        for p in (-0.5 * sq, 0.0, 0.4 * sq):
            for q in (0.0, 0.3 * sq):
                g = fs_metric_numeric(family, p, q)
                exact = fs_metric_analytic("spin", p, q, s=s)
                worst = max(
                    worst, abs(g.g_pp - exact.g_pp), abs(g.g_qq - exact.g_qq), abs(g.g_pq)
                )
        r = scalar_curvature("spin", 0.2 * sq, 0.1, s=s)
        worst_curv = max(worst_curv, abs(r - 2.0 / s) / (2.0 / s))
    ok = worst < 1e-6 and worst_curv < 1e-6
    _report(
        4, "spin metric", ok,
        f"max metric dev {worst:.2e}, max curvature rel dev {worst_curv:.2e}",
    )


def test_criterion_05_fiducial_moments():
    worst_q = worst_d = worst_c2 = worst_scaling = 0.0
    for hbar in (1.0, 0.5, 0.25):
        beta = 2.0 * hbar
        rep = build_halfline_rep(1e-5, 60.0, 4000, hbar=hbar)
        m = fiducial_moments(affine_family(rep, beta))
        worst_q = max(worst_q, abs(m["q1"] - 1.0))
        worst_d = max(worst_d, abs(m["d"]))
        closed = fiducial_p2_closed(beta, hbar)
        worst_c2 = max(worst_c2, abs(m["p2"] - closed) / closed)
        # beta = 2 hbar fixes the shape, so C2 / hbar^2 = 2 exactly
        worst_scaling = max(worst_scaling, abs(m["p2"] / hbar**2 - 2.0) / 2.0)
    ok = worst_q < 1e-6 and worst_d < 1e-6 and worst_c2 < 1e-5 and worst_scaling < 1e-5
    _report(
        5, "affine fiducial moments", ok,
        f"<Q> dev {worst_q:.2e}, <D> dev {worst_d:.2e}, C2 rel dev {worst_c2:.2e}, "
        f"hbar^2 scaling dev {worst_scaling:.2e}",
    )


def test_criterion_06_weak_correspondence():
    # H(p, q; hbar) = sum_k hbar^k h_k(p, q) from one representation at
    # hbar = 1: h_0 is the classical value and the leading correction has
    # k >= 1.  A polynomial fit over one representation per hbar is the
    # independent cross-check of both.
    expressions = ["P^2", "Q^2", "0.5*P^2 + 0.5*Q^2", "P*Q*Q*P", "Q^4"]
    p0, q0 = 0.7, -1.2
    hbars = [1.0, 0.5, 0.25, 0.125, 0.0625]
    worst_limit = worst_fit = 0.0
    min_power = 99
    powers_agree = True
    for expr in expressions:
        poly = parse_polynomial(expr, "canonical")
        series = [h_k(p0, q0) for h_k in hbar_series(poly, canonical_family(build_fock_rep(8, 1.0)))]
        leading = next((k for k in range(1, len(series)) if series[k] != 0.0), 0)

        def builder(hbar, poly=poly):
            return enhance(poly, canonical_family(build_fock_rep(8, hbar)))

        fit = classical_limit(builder, p0, q0, hbars)
        worst_limit = max(worst_limit, abs(series[0] - classical_value(poly, p0, q0)))
        worst_fit = max(worst_fit, abs(fit.limit - series[0]))
        min_power = min(min_power, leading)
        powers_agree = powers_agree and fit.leading_power == leading
    ok = min_power >= 1 and worst_limit < 1e-12 and worst_fit < 1e-6 and powers_agree
    _report(
        6, "weak correspondence", ok,
        f"min leading power {min_power}, max limit dev {worst_limit:.2e}, "
        f"fit dev {worst_fit:.2e}, fitted powers agree {powers_agree}",
    )


def test_criterion_07_hydrogen_contrast():
    start = time.perf_counter()
    params = HydrogenParams(m=1.0, e2=1.0, beta=2.0, hbar=1.0)

    # independent quadrature oracle for the infall time from rest at q0 = 1:
    # the substitution q = sin^2(u) turns it into an integral of 2 sin^2 / sqrt(2)
    oracle, _ = quad(
        lambda u: 2.0 * np.sin(u) ** 2 / np.sqrt(2.0), 0.0, np.pi / 2,
        epsabs=1e-13, epsrel=1e-13,
    )

    classical = hydrogen_classical(params)
    traj_c = hamiltonian_flow(classical, (0.0, 1.0), 5.0, tol=1e-10, n_samples=500)
    hits = [e for e in traj_c.events if e.kind == "singularity_hit"]
    collapse_ok = bool(hits) and abs(hits[0].time - oracle) / oracle < 1e-4

    enhanced = hydrogen_enhanced(params)
    horizon = 10.0 * oracle
    traj_e = hamiltonian_flow(enhanced, (0.0, 1.0), horizon, tol=1e-10, n_samples=4000)
    no_hit = "singularity_hit" not in traj_e.event_kinds()
    q_min_ok = abs(traj_e.min_q() - min_radius(params, enhanced(0.0, 1.0))) < 1e-6
    elapsed = time.perf_counter() - start
    ok = collapse_ok and no_hit and q_min_ok and elapsed < 60.0
    detail = (
        f"collapse {hits[0].time if hits else None} vs oracle {oracle:.10f}, "
        f"enhanced min q {traj_e.min_q():.10f}, {elapsed:.2f}s"
    )
    _report(7, "hydrogen contrast", ok, detail)


def _periodic_hydrogen_orbit(ham, x0, n_samples=4000):
    scout = hamiltonian_flow(ham, x0, 40.0, tol=1e-10, n_samples=2000)
    bounce = next(e for e in scout.events if e.kind == "bounce")
    period = 2.0 * bounce.time
    return hamiltonian_flow(ham, x0, period, tol=1e-10, n_samples=n_samples)


def test_criterion_08_transform_equivariance():
    harmonic = enhance(
        parse_polynomial("0.5*P^2 + 0.5*Q^2", "canonical"),
        canonical_family(build_fock_rep(64)),
    )
    hydrogen = hydrogen_enhanced(HydrogenParams(beta=2.0))
    orbits = {
        "harmonic": (harmonic, PhasePoint(0.0, 1.0), 2.0 * np.pi),
        "hydrogen": (hydrogen, PhasePoint(0.0, 2.0), 10.0),
    }
    worst_point = 0.0
    for ham, x0, horizon in orbits.values():
        for tr in (rotation_transform(), scaling_transform(2.0)):
            traj = hamiltonian_flow(ham, x0, horizon, tol=1e-10, n_samples=800)
            relabeled = apply_transform(tr, traj)
            flowed = hamiltonian_flow(
                transform_hamiltonian(ham, tr), apply_transform(tr, x0), horizon,
                tol=1e-10, n_samples=800,
            )
            worst_point = max(
                worst_point,
                float(np.max(np.abs(flowed.p - relabeled.p))),
                float(np.max(np.abs(flowed.q - relabeled.q))),
            )

    worst_loop = 0.0
    closed_orbits = [
        hamiltonian_flow(harmonic, PhasePoint(0.0, 1.0), 2.0 * np.pi, tol=1e-10, n_samples=4000),
        _periodic_hydrogen_orbit(hydrogen, PhasePoint(0.0, 2.0)),
    ]
    for traj in closed_orbits:
        for tr in (rotation_transform(), scaling_transform(2.0)):
            relabeled = apply_transform(tr, traj)
            worst_loop = max(
                worst_loop, abs(line_integral_p_dq(traj) - line_integral_p_dq(relabeled))
            )
    ok = worst_point < 1e-6 and worst_loop < 1e-6
    _report(
        8, "transform equivariance", ok,
        f"max pointwise dev {worst_point:.2e}, max loop dev {worst_loop:.2e}",
    )


def test_criterion_09_action_stationarity():
    harmonic = enhance(
        parse_polynomial("0.5*P^2 + 0.5*Q^2", "canonical"),
        canonical_family(build_fock_rep(64)),
    )
    period = 2.0 * np.pi
    traj = hamiltonian_flow(harmonic, (0.0, 1.0), period, tol=1e-10, n_samples=8000)
    base = restricted_action_value(harmonic, traj)
    t = traj.t

    def perturbed(eps):
        dq = eps * 0.7 * np.sin(np.pi * t / period)
        dp = eps * np.sin(2.0 * np.pi * t / period + 0.3)
        p, q = traj.p + dp, traj.q + dq
        energy = np.array([harmonic(pi, qi) for pi, qi in zip(p, q)])
        return restricted_action_value(harmonic, Trajectory(t, p, q, energy))

    epsilons = np.logspace(-4, -2, 7)
    gaps = np.array([abs(perturbed(e) - base) for e in epsilons])
    slope = float(np.polyfit(np.log(epsilons), np.log(gaps), 1)[0])
    ok = slope >= 1.9
    _report(9, "action stationarity", ok, f"log-log slope {slope:.3f}")


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "experiment": "expectation",
        "seed": 42,
        "representation": {"kind": "line", "dim": 120},
        "family": {"kind": "canonical"},
        "labels": {"random": {"count": 12, "box": 2.5}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    b1 = (out1 / "expectation.csv").read_bytes()
    b2 = (out2 / "expectation.csv").read_bytes()
    ok = b1 == b2 and len(b1) > 0
    _report(10, "determinism", ok, f"{len(b1)} bytes, identical={b1 == b2}")
