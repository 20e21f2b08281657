"""Independent correctness checks for the benchmark's operations.

Every expected value here is computed without the program: closed forms
for metrics and label functions, and a ``scipy.integrate.quad`` infall
integral for the classical collapse time.  Each check raises
:class:`CheckFailure` with a one-line reason when a value is off.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy.integrate import quad


class CheckFailure(AssertionError):
    """An output of the program disagrees with its independent value."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def _close(measured: float, expected: float, tol: float, what: str, relative: bool = False) -> None:
    scale = abs(expected) if relative else 1.0
    dev = abs(measured - expected)
    _require(
        bool(np.isfinite(measured)) and dev <= tol * scale,
        f"{what}: measured {measured!r}, expected {expected!r} "
        f"({'relative ' if relative else ''}tolerance {tol:g})",
    )


# ---------------------------------------------------------------------------
# metric_grid: closed-form Fubini-Study metrics
# ---------------------------------------------------------------------------

def check_canonical_metric(g_pp: float, g_pq: float, g_qq: float, tol: float = 1e-6) -> None:
    """The canonical sheet is flat: the metric is the identity."""
    _close(g_pp, 1.0, tol, "canonical g_pp")
    _close(g_pq, 0.0, tol, "canonical g_pq")
    _close(g_qq, 1.0, tol, "canonical g_qq")


def check_affine_metric(g_pp, g_pq, g_qq, q: float, beta: float, tol: float = 1e-5) -> None:
    """Affine metric ``diag(q^2/beta, beta/q^2)``, relative tolerance."""
    _close(g_pp, q * q / beta, tol, "affine g_pp", relative=True)
    _close(g_qq, beta / (q * q), tol, "affine g_qq", relative=True)
    # the off-diagonal entry is measured against sqrt(g_pp g_qq) = 1
    _close(g_pq, 0.0, tol, "affine g_pq")


def check_spin_metric(g_pp, g_pq, g_qq, p: float, s: float, hbar: float, tol: float = 1e-6) -> None:
    """Spin metric ``diag(1/f, f)`` with ``f = 1 - p^2/(s hbar)``."""
    f = 1.0 - p * p / (s * hbar)
    _close(g_pp, 1.0 / f, tol, "spin g_pp")
    _close(g_pq, 0.0, tol, "spin g_pq")
    _close(g_qq, f, tol, "spin g_qq")


# ---------------------------------------------------------------------------
# hydrogen: infall integral and the enhanced turning radius
# ---------------------------------------------------------------------------

def collapse_time(p0: float, q0: float, m: float = 1.0, e2: float = 1.0) -> float:
    """Time for ``p^2/2m - e2/q`` to reach ``q = 0`` from ``(p0, q0)``, ``E < 0``.

    With ``q_max = e2/|E|`` the travel time is
    ``dt = sqrt(m q / (2|E|)) (q_max - q)^(-1/2) dq``; quad's algebraic
    weight absorbs the turning-point singularity.  An outgoing start
    (``p0 > 0``) first climbs to ``q_max``.
    """
    energy = p0 * p0 / (2.0 * m) - e2 / q0
    if energy >= 0.0:
        raise ValueError("the collapse time is finite only for negative energy")
    q_max = e2 / -energy

    def leg(lo):
        val, _ = quad(
            lambda q: math.sqrt(m * q / (2.0 * -energy)), lo, q_max,
            weight="alg", wvar=(0.0, -0.5), epsabs=0.0, epsrel=1e-13, limit=200,
        )
        return val

    full = leg(0.0)
    outer = leg(min(q0, q_max))
    return full + outer if p0 > 0.0 else full - outer


def enhanced_core(beta: float, hbar: float, e2: float = 1.0) -> tuple[float, float]:
    """Closed-form core coefficients ``(C1, C2)`` of the enhanced hydrogen.

    ``C1 = e2 nu/(nu - 1)`` and ``C2 = beta^2 hbar / (2 (beta - hbar))``
    with ``nu = 2 beta / hbar``.
    """
    nu = 2.0 * beta / hbar
    return e2 * nu / (nu - 1.0), beta * beta * hbar / (2.0 * (beta - hbar))


def enhanced_energy(p, q, beta: float, hbar: float, m: float = 1.0, e2: float = 1.0):
    """``p^2/2m - C1/q + C2/(2 m q^2)`` with the closed-form core."""
    c1, c2 = enhanced_core(beta, hbar, e2)
    return p * p / (2.0 * m) - c1 / q + c2 / (2.0 * m * q * q)


def turning_radius(p0, q0, beta, hbar, m=1.0, e2=1.0) -> float:
    """Inner turning radius of the enhanced orbit through ``(p0, q0)``.

    The smaller root of ``E q^2 + C1 q - C2/2m = 0`` for ``E < 0``, in the
    cancellation-free form ``(C2/m) / (C1 + sqrt(C1^2 + 2 E C2/m))``.
    """
    c1, c2 = enhanced_core(beta, hbar, e2)
    energy = enhanced_energy(p0, q0, beta, hbar, m, e2)
    if energy >= 0.0:
        raise ValueError("the enhanced orbit is bound only for negative energy")
    return (c2 / m) / (c1 + math.sqrt(c1 * c1 + 2.0 * energy * c2 / m))


def check_collapse(t_hit, p0, q0, m=1.0, e2=1.0, rel_tol: float = 1e-4) -> None:
    """The classical flow's ``singularity_hit`` time against the infall integral."""
    _require(t_hit is not None, "classical flow reported no singularity_hit")
    _close(t_hit, collapse_time(p0, q0, m, e2), rel_tol, "collapse time", relative=True)


def check_enhanced_orbit(event_kinds, min_q, p0, q0, beta, hbar, m=1.0, e2=1.0,
                         rel_tol: float = 1e-5) -> None:
    """No collapse, and the smallest radius equals the closed-form turning radius."""
    _require("singularity_hit" not in event_kinds, "enhanced flow reported a singularity_hit")
    _require(min_q > 0.0, f"enhanced flow reached q = {min_q!r}")
    _close(min_q, turning_radius(p0, q0, beta, hbar, m, e2), rel_tol,
           "enhanced minimum radius", relative=True)


# ---------------------------------------------------------------------------
# expression_flows: closed-form label functions along trajectories
# ---------------------------------------------------------------------------

def canonical_quartic_energy(p, q, c: float, hbar: float):
    """``<0.5 P^2 + 0.5 Q^2 + c Q^4>``: ``½(p²+ħ/2) + ½(q²+ħ/2) + c(q⁴+3q²ħ+¾ħ²)``."""
    return (0.5 * (p * p + hbar / 2) + 0.5 * (q * q + hbar / 2)
            + c * (q ** 4 + 3.0 * q * q * hbar + 0.75 * hbar * hbar))


def affine_energy(p, q, a: float, b: float, beta: float, hbar: float):
    """``<a P^2 + b Q^2>`` on affine states: ``a(p² + C2/q²) + b q²(ν+1)/ν``."""
    nu = 2.0 * beta / hbar
    c2 = beta * beta * hbar / (2.0 * (beta - hbar))
    return a * (p * p + c2 / (q * q)) + b * q * q * (nu + 1.0) / nu


def spin_energy(p, q, c: float, s: float, hbar: float):
    """``<S3 S3 + c S1>``: ``ħ²(s² cos²θ + ½ s sin²θ) + c s ħ sinθ cosφ``."""
    root = math.sqrt(s * hbar)
    cos_t = np.clip(np.asarray(p) / root, -1.0, 1.0)
    sin_t = np.sqrt(1.0 - cos_t * cos_t)
    phi = np.asarray(q) / root
    return (hbar * hbar * (s * s * cos_t * cos_t + 0.5 * s * sin_t * sin_t)
            + c * s * hbar * sin_t * np.cos(phi))


def check_energies(energy, expected, rel_tol: float, what: str) -> None:
    """Sampled ``H`` values against the closed form at the same points."""
    energy = np.asarray(energy, dtype=float)
    expected = np.asarray(expected, dtype=float)
    _require(energy.shape == expected.shape and energy.size > 0, f"{what}: no samples")
    dev = np.abs(energy - expected) / np.maximum(np.abs(expected), 1e-300)
    worst = int(np.argmax(dev))
    _require(
        bool(np.all(np.isfinite(energy))) and dev[worst] <= rel_tol,
        f"{what}: H = {energy[worst]!r} at sample {worst}, closed form {expected[worst]!r} "
        f"(relative tolerance {rel_tol:g})",
    )


def check_drift(energy, rel_tol: float, what: str) -> None:
    """Relative energy drift along one trajectory."""
    energy = np.asarray(energy, dtype=float)
    drift = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
    _require(drift <= rel_tol, f"{what}: energy drift {drift:.3e} exceeds {rel_tol:g}")


# ---------------------------------------------------------------------------
# cli_cycle: exit codes, verify report, and file contents
# ---------------------------------------------------------------------------

def read_csv(body: bytes) -> list[dict]:
    """Rows of a CSV body after its ``#`` header lines."""
    lines = [ln for ln in body.decode().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def check_exit(name: str, code) -> None:
    _require(code == 0, f"{name}: exit code {code!r}")


def check_verify(stdout: str, report_body: bytes) -> None:
    """Verify's closing line and every suite of its JSON report passed."""
    _require("verify: all suites passed" in stdout, "verify did not report all suites passed")
    report = json.loads(report_body)
    _require(report.get("passed") is True, "verify report is not passed")
    failed = [n for n, suite in report["suites"].items() if not suite["passed"]]
    _require(not failed, f"verify suites failed: {failed}")


def check_expectation_csv(body: bytes, hbar: float, tol: float = 1e-8) -> None:
    """Canonical label means equal the labels; both variances equal ``hbar/2``."""
    rows = read_csv(body)
    _require(bool(rows), "expectation.csv has no rows")
    for r in rows:
        _close(float(r["mean_p"]), float(r["p"]), tol, "mean_p")
        _close(float(r["mean_q"]), float(r["q"]), tol, "mean_q")
        _close(float(r["var_p"]), hbar / 2, tol, "var_p")
        _close(float(r["var_q"]), hbar / 2, tol, "var_q")


def check_metric_csv(body: bytes) -> None:
    rows = read_csv(body)
    _require(bool(rows), "metric.csv has no rows")
    for r in rows:
        check_canonical_metric(float(r["g_pp"]), float(r["g_pq"]), float(r["g_qq"]))


def check_curvature_csv(body: bytes, beta: float, tol: float = 1e-4) -> None:
    """The affine sheet has constant scalar curvature ``-2/beta``."""
    rows = read_csv(body)
    _require(bool(rows), "curvature.csv has no rows")
    for r in rows:
        _close(float(r["curvature"]), -2.0 / beta, tol, "affine curvature")


def check_trajectory_csv(body: bytes, closed_form, rel_tol: float, what: str) -> None:
    """The ``H`` column of a trajectory CSV against ``closed_form(p, q)``, events included."""
    rows = read_csv(body)
    _require(bool(rows), f"{what}: no rows")
    p = np.array([float(r["p"]) for r in rows])
    q = np.array([float(r["q"]) for r in rows])
    energy = np.array([float(r["H"]) for r in rows])
    check_energies(energy, closed_form(p, q), rel_tol, what)


def check_hydrogen_summary(body: bytes, p0, q0, beta, hbar, m=1.0, e2=1.0) -> None:
    summary = json.loads(body)
    _require(summary["collapse_detected"] is True, "classical collapse not detected")
    check_collapse(summary["collapse_time"], p0, q0, m, e2)
    kinds = ("singularity_hit",) if summary["enhanced_singularity"] else ()
    check_enhanced_orbit(kinds, summary["enhanced_min_q"], p0, q0, beta, hbar, m, e2)
    _close(summary["predicted_min_radius"], turning_radius(p0, q0, beta, hbar, m, e2), 1e-5,
           "predicted minimum radius", relative=True)


def check_transform_json(body: bytes, p0: float, q0: float, n_samples: int,
                         rel_tol: float = 1e-6) -> None:
    """A quarter-turn relabeling of one full harmonic period.

    The orbit is a circle of radius ``r``; its ``n_samples`` uniform samples
    form a regular polygon of ``M = n_samples - 1`` sides, whose trapezoid
    ``integral p dq`` is exactly the polygon area ``M r^2 sin(2 pi/M) / 2``
    in the original and in the rotated labels.
    """
    doc = json.loads(body)
    sides = n_samples - 1
    area = 0.5 * sides * (p0 * p0 + q0 * q0) * math.sin(2.0 * math.pi / sides)
    _close(doc["integral_p_dq"], area, rel_tol, "integral p dq", relative=True)
    _close(doc["integral_transformed"], area, rel_tol, "transformed integral p dq", relative=True)
    _close(doc["action_residual"], 0.0, rel_tol * area, "action residual")
    _close(doc["max_pointwise_deviation"], 0.0, 1e-6, "relabeled orbit deviation")


def check_limit_csv(body: bytes, classical, tol: float = 1e-6) -> None:
    """The ``hbar -> 0`` limit equals the classical polynomial at each label."""
    rows = read_csv(body)
    _require(bool(rows), "limit_study.csv has no rows")
    for r in rows:
        p, q = float(r["p"]), float(r["q"])
        _close(float(r["limit"]), classical(p, q), tol, f"limit at ({p}, {q})")
        _require(int(r["leading_power"]) >= 1, f"leading power {r['leading_power']} at ({p}, {q})")


def check_same_files(files: dict, previous: dict | None) -> None:
    """The same files, with byte-identical bodies, as the previous pass wrote."""
    if previous is None:
        return
    _require(sorted(files) == sorted(previous),
             f"files {sorted(files)} differ from the previous pass {sorted(previous)}")
    changed = [name for name, body in files.items() if body != previous[name]]
    _require(not changed, f"bodies differ from the previous pass: {changed}")
