import inspect
import math
import random
import sys

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import RK45, quad, solve_ivp
from scipy.optimize import brentq

from enhq import (
    DomainError,
    HydrogenParams,
    InvalidTransformError,
    NumericalFailure,
    PhasePoint,
    Trajectory,
    TrajectoryEvent,
    affine_family,
    apply_transform,
    build_fock_rep,
    build_halfline_rep,
    build_spin_rep,
    canonical_family,
    classical_hamiltonian,
    enhance,
    extended_family,
    hamiltonian_flow,
    hydrogen_classical,
    hydrogen_enhanced,
    line_integral_p_dq,
    min_radius,
    parse_polynomial,
    rotation_transform,
    scaling_transform,
    spin_family,
    spin_precession,
    transform_hamiltonian,
    verify_transform_action,
)
import enhq.dynamics
from enhq.correspondence import EnhancedHamiltonian, OperatorPolynomial, _LabelPolynomial
from enhq.dynamics import (CanonicalTransform, FlowWork, _brent, _compiled_flow, _dormand_prince,
                           _event_roots, _kernel)
from oracles import (chain_rule_hamiltonian, label_polynomial_loop, relabeled_label_coefficients,
                     restricted_action_value)


@pytest.fixture(scope="module")
def harmonic():
    family = canonical_family(build_fock_rep(64))
    return enhance(parse_polynomial("0.5*P^2 + 0.5*Q^2", "canonical"), family)


@pytest.fixture(params=["kernel", "python"])
def loop(request, monkeypatch):
    """Flows of compiled polynomials by the compiled kernel, or by the Python loop.

    The one integrator has these two implementations; a test that takes this
    fixture checks its behaviour on both.  Flows of other label functions
    take the Python loop either way.
    """
    if request.param == "python":
        monkeypatch.setattr(enhq.dynamics, "_kernel", lambda: None)
    return request.param


def collapse_oracle(m, e2, p0, q0):
    """Quadrature of the infall time of the bare attractive model."""
    energy = p0 * p0 / (2 * m) - e2 / q0
    if p0 > 0.0:
        # an outgoing start climbs to the apocentre first: twice the fall from
        # rest there, less the infall from q0
        q_max = e2 / -energy
        return 2.0 * collapse_oracle(m, e2, 0.0, q_max) - collapse_oracle(m, e2, -p0, q0)

    def speed(q):
        return np.sqrt(2.0 / m * (energy + e2 / q))

    if p0 == 0.0:
        # q = q0 sin^2(u) removes the turning-point singularity
        def g(u):
            s = np.sin(u)
            return 2.0 * q0 * s * np.cos(u) / speed(q0 * s * s)

        val, err = quad(g, 0.0, np.pi / 2, limit=200, epsabs=1e-13, epsrel=1e-13)
    else:
        # q = v^2 smooths the origin, where the speed diverges as 1/sqrt(q)
        val, err = quad(
            lambda v: 2.0 * v / speed(v * v), 0.0, np.sqrt(q0),
            limit=200, epsabs=1e-13, epsrel=1e-13,
        )
    assert err < 1e-9 * val
    return val


def reversed_hamiltonian(H):
    def gradient(p, q):
        gp, gq = H.gradient(-p, q)
        return (-gp, gq)

    return EnhancedHamiltonian(
        lambda p, q: H.evaluate(-p, q),
        gradient,
        q_positive=H.q_positive,
    )


def tableau_loop(gradient, p, q, t_final, rtol, atol, t_eval, margins):
    """Reference for ``_dormand_prince``: scipy's ``RK45`` tableau read entry by entry.

    A generic stage loop over ``RK45.A``, ``B``, ``E`` and ``P`` with the same
    step control and event location.  Each sum is formed left to right with
    the zero entries skipped, as the unrolled loop forms it, so the outputs
    are expected to be bit-identical.  Events are scanned generically as
    ``(g, direction, terminal)``: the bounce is ``dq/dt`` from a fresh
    gradient call, upward and not terminal, and each of the ``margins``
    downward and terminal.
    """
    A = [[float(a) for a in row] for row in RK45.A]
    B, E = [float(b) for b in RK45.B], [float(e) for e in RK45.E]
    P = [[float(c) for c in col] for col in RK45.P.T]
    eps = float(np.finfo(float).eps)

    def velocity(p, q):
        gp, gq = gradient(p, q)
        return -gq, gp

    def dot(ks, coefs):
        # left to right; sum() compensates its float sums from Python 3.12
        terms = [k * c for k, c in zip(ks, coefs) if c != 0]
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return total

    def rms(x, y):
        return math.sqrt(x * x + y * y) / math.sqrt(2.0)

    events = [(lambda p, q: gradient(p, q)[0], 1.0, False),
              *((margin, -1.0, True) for margin in margins)]
    rtol = max(rtol, 100 * eps)
    fp, fq = velocity(p, q)
    sp, sq = atol + abs(p) * rtol, atol + abs(q) * rtol
    d0, d1 = rms(p / sp, q / sq), rms(fp / sp, fq / sq)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_final)
    gp, gq = velocity(p + h0 * fp, q + h0 * fq)
    d2 = rms((gp - fp) / sp, (gq - fq) / sq) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, t_final)
    g_old = [g(p, q) for g, _, _ in events]
    t_eval = t_eval.tolist()
    ts, ps, qs, hits = [], [], [], []
    t = 0.0
    while True:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return ts, ps, qs, hits, (t, p, q, "Required step size is less than spacing "
                                          "between numbers.")
            t_new = min(t + h_abs, t_final)
            h = h_abs = t_new - t
            kp, kq = [fp], [fq]
            for row in A[1:]:
                k = velocity(p + dot(kp, row) * h, q + dot(kq, row) * h)
                kp.append(k[0])
                kq.append(k[1])
            p_new, q_new = p + h * dot(kp, B), q + h * dot(kq, B)
            k = velocity(p_new, q_new)
            kp.append(k[0])
            kq.append(k[1])
            error = rms(dot(kp, E) * h / (atol + max(abs(p), abs(p_new)) * rtol),
                        dot(kq, E) * h / (atol + max(abs(q), abs(q_new)) * rtol))
            if error < 1:
                factor = 10.0 if error == 0 else min(10.0, 0.9 * error ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error ** -0.2)
            rejected = True
        cp, cq = [dot(kp, col) for col in P], [dot(kq, col) for col in P]

        def dense(s, t=t, p=p, q=q, h=h, cp=cp, cq=cq):
            x = (s - t) / h
            x2 = x * x
            x3 = x2 * x
            x4 = x3 * x
            return (h * (cp[0] * x + cp[1] * x2 + cp[2] * x3 + cp[3] * x4) + p,
                    h * (cq[0] * x + cq[1] * x2 + cq[2] * x3 + cq[3] * x4) + q)

        g_new = [g(p_new, q_new) for g, _, _ in events]
        found = [
            (brentq(lambda s, g=g: g(*dense(s)), t, t_new, xtol=4 * eps, rtol=4 * eps), i)
            for i, ((g, direction, _), a, b) in enumerate(zip(events, g_old, g_new))
            if (a < 0 <= b and direction > 0) or (a > 0 >= b and direction < 0)
        ]
        t_end, terminate = t_new, any(events[i][2] for _, i in found)
        if terminate:
            found.sort()
            first = next(n for n, (_, i) in enumerate(found) if events[i][2])
            found = found[: first + 1]
            t_end = found[-1][0]
        hits += [(i, root, *dense(root)) for root, i in found]
        while len(ts) < len(t_eval) and t_eval[len(ts)] <= t_end:
            ts.append(t_eval[len(ts)])
            sp, sq = dense(ts[-1])
            ps.append(sp)
            qs.append(sq)
        if terminate or t_new >= t_final:
            return ts, ps, qs, hits, None
        t, p, q, fp, fq, g_old = t_new, p_new, q_new, kp[-1], kq[-1], g_new


def as_lists(result):
    """A ``_dormand_prince`` result with its sample arrays as lists and no work record, for exact ``==``."""
    ts, ps, qs, hits, stop, _ = result
    return ts.tolist(), ps.tolist(), qs.tolist(), hits, stop


class TestHarmonicFlow:
    def test_period_returns_to_start(self, loop, harmonic):
        traj = hamiltonian_flow(harmonic, (0.0, 1.0), 2 * np.pi, tol=1e-10)
        assert traj.p[-1] == pytest.approx(0.0, abs=1e-6)
        assert traj.q[-1] == pytest.approx(1.0, abs=1e-6)

    def test_energy_conservation(self, loop, harmonic):
        traj = hamiltonian_flow(harmonic, (0.3, 1.2), 6 * np.pi, tol=1e-10)
        drift = np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0])
        assert drift < 1e-8

    def test_ten_periods_keep_the_energy(self, loop, harmonic):
        # the default tol over a long run: 2,010 steps, where a fixed-step
        # second order scheme needs about 1e6 for the same drift
        traj = hamiltonian_flow(harmonic, (0.0, 1.0), 20 * np.pi)
        drift = np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0])
        assert drift < 1e-9 and traj.event_kinds().count("bounce") == 10

    def test_q_minima_are_bounce_events(self, loop, harmonic):
        traj = hamiltonian_flow(harmonic, (0.0, 1.0), 2 * np.pi, tol=1e-10)
        bounces = [e for e in traj.events if e.kind == "bounce"]
        assert len(bounces) == 1
        assert bounces[0].time == pytest.approx(np.pi, abs=1e-8)
        assert bounces[0].q == pytest.approx(-1.0, abs=1e-8)

    def test_time_reversal(self, loop, harmonic):
        fwd = hamiltonian_flow(harmonic, (0.4, 0.9), 5.0, tol=1e-10)
        back = hamiltonian_flow(
            reversed_hamiltonian(harmonic), (-fwd.p[-1], fwd.q[-1]), 5.0, tol=1e-10
        )
        assert -back.p[-1] == pytest.approx(0.4, abs=1e-6)
        assert back.q[-1] == pytest.approx(0.9, abs=1e-6)

    MODELS = {
        "harmonic": (lambda p, q: 0.5 * (p * p + q * q), lambda p, q: (p, q), False),
        "hydrogen": (lambda p, q: 0.5 * p * p - 1.0 / q, lambda p, q: (p, 1.0 / (q * q)), True),
    }

    @pytest.mark.parametrize("model,x0,t_final", [
        # H = (p^2 + q^2) / 2 from (0, 1) has its q minimum, a bounce, at t = pi
        ("harmonic", (0.0, 1.0), 4.0),
        ("hydrogen", (-0.3, 1.0), 4.0),
        # the step size underflows before the floor: the give-up point
        ("hydrogen", (0.773, 2.587), 133.0),
    ], ids=["rk45", "rk45-floor", "rk45-gives-up"])
    def test_float64_gradients_give_python_float_outputs(self, model, x0, t_final):
        # flows compute with the rates as the gradient returns them and
        # convert to float at their boundary
        evaluate, gradient, q_positive = self.MODELS[model]

        def ham(cast):
            return EnhancedHamiltonian(lambda p, q: cast(evaluate(p, q)),
                                       lambda p, q: tuple(map(cast, gradient(p, q))),
                                       q_positive=q_positive)

        traj, python = (hamiltonian_flow(ham(cast), x0, t_final, n_samples=50)
                        for cast in (np.float64, float))
        assert traj.event_kinds() == (("bounce",) if model == "harmonic" else ("singularity_hit",))
        event = traj.events[0]
        assert all(type(v) is float for v in (event.time, event.p, event.q, event.energy))
        assert "float64" not in traj.to_csv()
        # the same run as with Python floats, bit for bit
        assert traj == python

    def test_float64_gradients_give_python_float_diagnostics(self):
        # without a floor the give-up is a failure, whose diagnostics are floats
        ham = EnhancedHamiltonian(
            lambda p, q: np.float64(0.5 * p * p - 1.0 / q),
            lambda p, q: (np.float64(p), np.float64(1.0 / (q * q))),
        )
        with pytest.raises(NumericalFailure, match="integration failed at t = 83.29") as err:
            hamiltonian_flow(ham, (0.773, 2.587), 133.0)
        assert [type(v) for v in err.value.diagnostics.values()] == [float] * 3

    def test_energies_see_python_floats_and_samples_are_read_only(self):
        # float64 rates make float64 states; the energies still get floats
        labels = []

        def evaluate(p, q):
            labels.append((type(p), type(q)))
            return 0.5 * (p * p + q * q)

        ham = EnhancedHamiltonian(evaluate, lambda p, q: (np.float64(p), np.float64(q)))
        traj = hamiltonian_flow(ham, (0.3, 1.2), 4.0, n_samples=50)
        assert traj.event_kinds() == ("bounce",)
        assert set(labels) == {(float, float)}
        for values in (traj.t, traj.p, traj.q, traj.energy):
            assert values.dtype == np.float64 and values.shape == (50,)
            assert not values.flags.writeable

    def test_float32_gradients_are_integrated_in_double_precision(self):
        # rates of another type are converted to float as they arrive;
        # float32 arithmetic would lose the orbit's precision
        def harmonic(cast):
            return EnhancedHamiltonian(
                lambda p, q: 0.5 * (p * p + q * q),
                lambda p, q: (cast(np.float32(p)), cast(np.float32(q))),
            )

        single, double = (
            hamiltonian_flow(harmonic(cast), (0.0, 1.0), 4.0, n_samples=50)
            for cast in (np.float32, float)
        )
        assert single.event_kinds() == ("bounce",)
        assert single == double

    @pytest.mark.parametrize("build,x0,t_final,calls,evaluations", [
        (hydrogen_classical, (-0.3, 1.0), 4.0, 3560, 219),
        (hydrogen_enhanced, (-0.3, 1.0), 30.0, 2236, 1002),
        (hydrogen_classical, (0.773, 2.587), 133.0, 4406, 627),
    ], ids=["classical", "enhanced", "classical-gives-up"])
    def test_counted_calls_of_user_callables(self, build, x0, t_final, calls, evaluations):
        # flows call the stored callables; the counts are those of the loop
        # that called H.gradient and H.evaluate: one gradient per stage and
        # per point Brent's method tries, and one evaluation per sample and event
        ham = build(HydrogenParams())
        grads, evals = [], []

        def evaluate(p, q):
            evals.append((p, q))
            return ham.evaluate(p, q)

        def gradient(p, q):
            grads.append((p, q))
            return ham.gradient(p, q)

        traj = hamiltonian_flow(EnhancedHamiltonian(evaluate, gradient, q_positive=True),
                                x0, t_final)
        assert len(grads) == calls
        assert len(evals) == len(traj) + len(traj.events) == evaluations

    def test_a_gradient_is_required(self):
        # no label function is differentiated numerically
        with pytest.raises(TypeError, match="gradient"):
            EnhancedHamiltonian(lambda p, q: 0.5 * (p * p + q * q))

    @pytest.mark.parametrize("n_samples", [2, 5, 1000, 20000])
    def test_records_at_most_one_step_per_sample(self, harmonic, monkeypatch, n_samples):
        recorded = []
        sample_pass = enhq.dynamics._samples

        def spy(t_eval, records, counts):
            recorded.append((len(records), counts))
            return sample_pass(t_eval, records, counts)

        monkeypatch.setattr(enhq.dynamics, "_samples", spy)
        # the Python loop's records: the kernel writes its samples itself
        monkeypatch.setattr(enhq.dynamics, "_kernel", lambda: None)
        traj = hamiltonian_flow(harmonic, (0.3, 1.2), 6 * np.pi, n_samples=n_samples)
        [(n_steps, counts)] = recorded
        assert n_steps <= n_samples and min(counts) >= 1 and sum(counts) == len(traj) == n_samples

    def test_affine_expression_flow_stops_at_the_floor(self, loop, affine_beta2):
        # H ~ -p drives q down at unit speed; the growing steps evaluate the
        # gradient below q = 0 before the floor event is found, and the run
        # must still end at the floor
        ham = enhance(parse_polynomial("-P", "affine"), affine_beta2)
        traj = hamiltonian_flow(ham, (0.0, 1.0), 2.0)
        hits = [e for e in traj.events if e.kind == "singularity_hit"]
        assert len(hits) == 1 and traj.event_kinds()[-1] == "singularity_hit"
        assert hits[0].q == pytest.approx(1e-8, abs=1e-6)
        assert hits[0].time == pytest.approx(1.0, abs=1e-3)


class TestHydrogenFlows:
    def test_classical_collapse_time_matches_oracle(self, loop):
        ham = hydrogen_classical(HydrogenParams())
        traj = hamiltonian_flow(ham, (0.0, 1.0), 5.0, tol=1e-10, n_samples=500)
        hits = [e for e in traj.events if e.kind == "singularity_hit"]
        assert len(hits) == 1
        oracle = collapse_oracle(1.0, 1.0, 0.0, 1.0)
        assert oracle == pytest.approx(np.pi / np.sqrt(8.0), rel=1e-10)
        assert hits[0].time == pytest.approx(oracle, rel=1e-6)
        assert traj.t[-1] <= hits[0].time + 1e-12

    @pytest.mark.parametrize("p0,q0", [(0.0, 0.5), (0.0, 2.0), (-0.3, 1.0)])
    def test_collapse_grid_against_oracle(self, loop, p0, q0):
        ham = hydrogen_classical(HydrogenParams())
        oracle = collapse_oracle(1.0, 1.0, p0, q0)
        traj = hamiltonian_flow(ham, (p0, q0), 4.0 * oracle, tol=1e-10, n_samples=400)
        hits = [e for e in traj.events if e.kind == "singularity_hit"]
        assert hits and hits[0].time == pytest.approx(oracle, rel=1e-4)

    def test_collapse_time_when_the_step_size_underflows(self, loop):
        # from this outgoing start the step size underflows before q reaches
        # the floor; the collapse is the last accepted step, not the last sample
        ham = hydrogen_classical(HydrogenParams())
        traj = hamiltonian_flow(ham, (0.773, 2.587), 133.0)
        hits = [e for e in traj.events if e.kind == "singularity_hit"]
        assert len(hits) == 1 and hits[0].q > 1e-8
        oracle = collapse_oracle(1.0, 1.0, 0.773, 2.587)
        assert oracle == pytest.approx(83.296900059, rel=1e-10)
        assert hits[0].time == pytest.approx(oracle, rel=1e-8)
        assert traj.t[-1] < hits[0].time

    @pytest.mark.parametrize("model", ["hydrogen", "quartic"])
    def test_energy_column_is_the_scalar_evaluation(self, loop, model):
        # the compiled polynomial takes the sample arrays in one call, with
        # the bits of one scalar call per sample
        if model == "hydrogen":
            ham, x0, t_final = hydrogen_enhanced(HydrogenParams(m=1.3, e2=0.7)), (-0.3, 1.1), 30.0
        else:
            family = canonical_family(build_fock_rep(8))
            ham = enhance(parse_polynomial("0.5*P^2 + 0.5*Q^2 + 0.1*Q^4", "canonical"), family)
            x0, t_final = (0.2, 1.5), 10.0
        traj = hamiltonian_flow(ham, x0, t_final)
        scalar = [ham.evaluate(p, q) for p, q in zip(traj.p.tolist(), traj.q.tolist())]
        assert traj.energy.tobytes() == np.array(scalar).tobytes()

    def test_enhanced_time_reversal(self, loop):
        ham = hydrogen_enhanced(HydrogenParams(beta=2.0))
        fwd = hamiltonian_flow(ham, (-0.2, 1.5), 6.0, tol=1e-10)
        back = hamiltonian_flow(
            reversed_hamiltonian(ham), (-fwd.p[-1], fwd.q[-1]), 6.0, tol=1e-10
        )
        assert -back.p[-1] == pytest.approx(-0.2, abs=1e-6)
        assert back.q[-1] == pytest.approx(1.5, abs=1e-6)

    def test_enhanced_flow_avoids_singularity(self, loop):
        params = HydrogenParams(beta=2.0)
        ham = hydrogen_enhanced(params)
        t_c = collapse_oracle(1.0, 1.0, 0.0, 1.0)
        traj = hamiltonian_flow(ham, (0.0, 1.0), 10.0 * t_c, tol=1e-10, n_samples=4000)
        assert "singularity_hit" not in traj.event_kinds()
        assert traj.min_q() > 0
        expected = min_radius(params, ham.evaluate(0.0, 1.0))
        assert traj.min_q() == pytest.approx(expected, abs=1e-6)

    def test_a_long_enhanced_orbit_keeps_turning(self, loop):
        # eleven turns to t = 200 at tol 1e-8, with the energy kept to 2e-7
        ham = hydrogen_enhanced(HydrogenParams())
        traj = hamiltonian_flow(ham, (-0.3, 1.0), 200.0, tol=1e-8)
        assert traj.event_kinds() == ("bounce",) * 11 and traj.t[-1] == 200.0
        drift = np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0])
        assert drift < 2e-7

    @pytest.mark.parametrize("p0,q0", [(0.0, 2.0), (-0.5, 1.0), (0.0, 5.0), (0.0, 0.8)])
    def test_enhanced_positivity_grid(self, loop, p0, q0):
        params = HydrogenParams(beta=2.0)
        ham = hydrogen_enhanced(params)
        energy = ham.evaluate(p0, q0)
        if energy >= 0:
            pytest.skip("unbounded orbit; the positivity claim is for E < 0")
        # (0, 0.8) starts at rest on its inner turning point, which is no
        # bounce event; the flow covers its period (about 88) to reach the next
        traj = hamiltonian_flow(ham, (p0, q0), 100.0, tol=1e-10, n_samples=4000)
        assert "singularity_hit" not in traj.event_kinds()
        assert any(e.kind == "bounce" and e.time > 0 for e in traj.events)
        assert traj.min_q() == pytest.approx(min_radius(params, energy), abs=1e-6)


class TestRK45AgainstScipy:
    """The in-house Dormand-Prince loop against ``solve_ivp(method="RK45")``.

    Step for step at these tolerances only: the two add the stage sum in
    another order, and at ``rtol`` 1e-3 the plunge of either classical
    hydrogen case amplifies the one-ulp difference into one more step here.
    """

    CASES = {
        "hydrogen_classical": (lambda: hydrogen_classical(HydrogenParams()), (-0.3, 1.0), 4.0),
        # the step size underflows before q reaches the floor
        "hydrogen_classical_outgoing": (
            lambda: hydrogen_classical(HydrogenParams()), (0.773, 2.587), 133.0,
        ),
        "hydrogen_enhanced": (lambda: hydrogen_enhanced(HydrogenParams(beta=2.0)), (-0.3, 1.0), 30.0),
        "harmonic": (None, (0.3, 1.2), 6 * np.pi),
    }
    # at 1e-4 the enhanced orbit's median step is 0.64 rather than 0.04 at
    # 1e-10, so its bounces are rooted inside long steps
    TOLS = [1e-10, 1e-6, 1e-4]

    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_steps_samples_and_events(self, case, tol, harmonic, monkeypatch):
        build, (p0, q0), t_final = self.CASES[case]
        ham = harmonic if build is None else build()
        q_floor = 1e-8
        # count the gradient calls made outside Brent's method, which calls
        # the gradient too while it locates a bounce: those are the stages'
        rooting, calls = [], []

        brent = enhq.dynamics._brent

        def counted_brent(*args):
            rooting.append(True)
            try:
                return brent(*args)
            finally:
                rooting.pop()

        def gradient(p, q):
            if not rooting:
                calls.append((p, q))
            return ham.gradient(p, q)

        monkeypatch.setattr(enhq.dynamics, "_brent", counted_brent)

        def fun(t, y):
            gp, gq = ham.gradient(y[0], y[1])
            return -gq, gp

        margins = [lambda p, q: q - q_floor] if ham.q_positive else []
        kinds = ["bounce", "singularity_hit"]
        t_eval = np.linspace(0.0, t_final, 500)

        def scipy_event(g, direction, terminal):
            def event(t, y):
                return g(y[0], y[1])

            event.direction, event.terminal = direction, terminal
            return event

        ref = solve_ivp(
            fun, (0.0, t_final), (p0, q0), method="RK45",
            rtol=tol, atol=tol * 1e-3, t_eval=t_eval, dense_output=True,
            events=[scipy_event(lambda p, q: ham.gradient(p, q)[0], 1.0, False),
                    *(scipy_event(margin, -1.0, True) for margin in margins)],
        )
        ts, ps, qs, hits, stop, _ = _dormand_prince(
            gradient, p0, q0, t_final, tol, tol * 1e-3, t_eval, margins
        )
        # one gradient call per stage: the same steps, accepted and rejected
        assert len(calls) == ref.nfev
        if ref.status < 0:
            # gave up at the same last accepted step
            assert stop is not None
            assert stop[0] == pytest.approx(ref.sol.t_max, rel=1e-12)
        else:
            assert stop is None
        assert_allclose(ts, ref.t, rtol=0, atol=0)
        assert_allclose(ps, ref.y[0], rtol=0, atol=1e-9)
        assert_allclose(qs, ref.y[1], rtol=0, atol=1e-9)
        expected = sorted(
            (float(te), kinds[i]) for i, times in enumerate(ref.t_events) for te in times
        )
        got = sorted((t, kinds[i]) for i, t, _, _ in hits)
        assert [k for _, k in got] == [k for _, k in expected]
        assert_allclose([t for t, _ in got], [t for t, _ in expected], rtol=0, atol=1e-10)
        assert got or stop, "each case should end in an event or a give-up"

    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bit_identical_to_the_tableau_loop(self, case, tol, harmonic):
        build, (p0, q0), t_final = self.CASES[case]
        ham = harmonic if build is None else build()
        margins = [lambda p, q: q - 1e-8] if ham.q_positive else []
        args = (p0, q0, t_final, tol, tol * 1e-3, np.linspace(0.0, t_final, 500), margins)
        got = _dormand_prince(ham.gradient, *args)
        assert as_lists(got) == tableau_loop(ham.gradient, *args)
        assert got[3] or got[4]

    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_the_kernel_takes_the_tableau_loops_steps(self, case, tol, harmonic):
        # the compiled step loop against the same reference, to the bits
        run = _kernel()
        if run is None:
            pytest.skip("the kernel did not load")
        build, (p0, q0), t_final = self.CASES[case]
        ham = harmonic if build is None else build()
        q_floor = 1e-8 if ham.q_positive else -math.inf
        margins = [lambda p, q: q - q_floor] if ham.q_positive else []
        args = (p0, q0, t_final, tol, tol * 1e-3, np.linspace(0.0, t_final, 500), margins)
        ts, ps, qs, _, *rest = _compiled_flow(run, ham.polynomial, p0, q0, t_final, tol, tol * 1e-3,
                                              q_floor, 500)
        assert as_lists((ts, ps, qs, *rest)) == tableau_loop(ham.gradient, *args)

    @pytest.mark.parametrize("x0,t_final", [((-0.3, 1.0), 4.0), ((0.773, 2.587), 133.0)])
    def test_bounce_event_reuses_the_last_stage_gradient(self, x0, t_final):
        # one gradient call per right-hand side: the bounce value at the start
        # is the first call's, and at every step end the last stage's
        ham = hydrogen_classical(HydrogenParams())
        calls = []

        def gradient(p, q):
            calls.append((p, q))
            return ham.gradient(p, q)

        counted = EnhancedHamiltonian(ham.evaluate, gradient, q_positive=True)
        traj = hamiltonian_flow(counted, x0, t_final)
        assert traj.event_kinds()[-1] == "singularity_hit"

        def event(t, y):
            return y[1] - 1e-8

        event.direction, event.terminal = -1.0, True
        ref = solve_ivp(
            lambda t, y: (-ham.gradient(*y)[1], ham.gradient(*y)[0]), (0.0, t_final), x0,
            method="RK45", rtol=1e-10, atol=1e-13, events=[event],
        )
        assert len(calls) == ref.nfev

    def test_enhanced_flow_evaluates_no_point_twice(self):
        # the two bounce steps of this orbit reuse the rates at their ends
        ham = hydrogen_enhanced(HydrogenParams(beta=2.0))
        calls = []

        def gradient(p, q):
            calls.append((p, q))
            return ham.gradient(p, q)

        counted = EnhancedHamiltonian(ham.evaluate, gradient, q_positive=True)
        traj = hamiltonian_flow(counted, (-0.3, 1.0), 30.0)
        assert traj.event_kinds().count("bounce") == 2
        assert len(set(calls)) == len(calls)

    def test_bounce_roots_reuse_the_rate_at_the_step_ends(self):
        # a step from (0, 0) to (1, 0) over t in [0, 1] with p = t and
        # dq/dt = p - 1/2: Brent's method tries both step ends, whose rates
        # the stages have (the first as the dense output's linear term)
        calls = []

        def gradient(p, q):
            calls.append((p, q))
            return p - 0.5, 0.0

        step = (0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.5)
        hits, t_stop = _event_roots([], [0], gradient, step,
                                    (1.0, 0.0, 0.0, 0.0), (-0.5, 0.5, 0.0, 0.0))
        assert t_stop is None
        assert hits == [(0, 0.5, 0.5, -0.125)]
        assert calls and (0.0, 0.0) not in calls and (1.0, 0.0) not in calls

    def test_a_bounce_bracket_takes_the_stages_rate_at_the_step_end(self, loop):
        # the stages' dq/dt turns nonnegative at a step end where a gradient
        # at the dense output, which differs from the step end in its last
        # bits, has the other sign; the bracket takes the stages' value, so
        # Brent's method roots the bounce and the plunge goes on until its
        # step size underflows
        ham = classical_hamiltonian(parse_polynomial("Q - 1.5*P^2 + 2*P*Q^2*P", "canonical"))
        with pytest.raises(NumericalFailure, match="integration failed at t = 0.8283192978876779: "
                           "Required step size"):
            hamiltonian_flow(ham, (0.0, 1.0), 1.0, tol=1e-6, n_samples=2)

    def test_a_terminal_event_drops_the_later_ones_of_its_step(self, monkeypatch):
        # straight-line motion has no error estimate, so steps grow tenfold
        # and one step crosses all three levels; the first root in time, not
        # in index order, ends the run and the later two are dropped
        def gradient(p, q):
            # H = -p: dp/dt = 0, dq/dt = -1
            return -1.0, 0.0

        scanned = []
        event_roots = enhq.dynamics._event_roots

        def spy(margins, active, *args):
            scanned.append(list(active))
            return event_roots(margins, active, *args)

        monkeypatch.setattr(enhq.dynamics, "_event_roots", spy)
        levels = (0.2, 0.45, 0.3)
        margins = [lambda p, q, c=c: q - c for c in levels]
        t_eval = np.linspace(0.0, 10.0, 11)
        _, _, _, hits, stop, _ = _dormand_prince(
            gradient, 0.0, 1.0, 10.0, 1e-10, 1e-13, t_eval, margins
        )

        def scipy_event(c):
            def event(t, y):
                return y[1] - c

            event.direction, event.terminal = -1.0, True
            return event

        ref = solve_ivp(
            lambda t, y: (0.0, -1.0), (0.0, 10.0), (0.0, 1.0), method="RK45",
            rtol=1e-10, atol=1e-13, t_eval=t_eval, events=[scipy_event(c) for c in levels],
        )
        assert scanned == [[1, 2, 3]]
        assert stop is None and ref.status == 1
        assert [i for i, _, _, _ in hits] == [2]
        assert [len(times) for times in ref.t_events] == [0, 1, 0]
        assert_allclose([t for _, t, _, _ in hits], [0.55], rtol=0, atol=1e-12)


class TestFlowValidation:
    def test_needs_positive_horizon(self, harmonic):
        with pytest.raises(ValueError):
            hamiltonian_flow(harmonic, (0.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            hamiltonian_flow(harmonic, (0.0, 1.0), -1.0)

    def test_needs_enough_samples(self, harmonic):
        with pytest.raises(ValueError):
            hamiltonian_flow(harmonic, (0.0, 1.0), 1.0, n_samples=1)

    @pytest.mark.parametrize("n_samples", [10.5, 3.0, True, "100", np.float64(11.0)])
    def test_needs_integer_n_samples(self, harmonic, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            hamiltonian_flow(harmonic, (0.0, 1.0), 1.0, n_samples=n_samples)

    def test_numpy_integer_n_samples(self, loop, harmonic):
        traj = hamiltonian_flow(harmonic, (0.0, 1.0), 1.0, n_samples=np.int32(11))
        assert len(traj) == 11

    def test_halfline_start_must_be_above_floor(self):
        ham = hydrogen_classical(HydrogenParams())
        with pytest.raises(ValueError):
            hamiltonian_flow(ham, (0.0, 1e-9), 1.0)
        # relabeled, the start is checked in the original q
        relabeled = transform_hamiltonian(ham, scaling_transform(2.0))
        with pytest.raises(ValueError, match="initial q = 1e-09 is not above the floor"):
            hamiltonian_flow(relabeled, (0.0, 5e-10), 1.0)

    @pytest.mark.parametrize("x0", [(0.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0),
                                    (0.0, math.nan)])
    def test_a_non_finite_start_is_rejected_before_any_step(self, loop, monkeypatch, x0):
        ham = hydrogen_enhanced(HydrogenParams())

        def no_step(*args):
            raise AssertionError("a flow from a non-finite start was integrated")

        monkeypatch.setattr(enhq.dynamics, "_dormand_prince", no_step)
        monkeypatch.setattr(enhq.dynamics, "_compiled_flow", no_step)
        with pytest.raises(ValueError, match=r"x0 must be finite \(got \(") as err:
            hamiltonian_flow(ham, x0, 1.0, n_samples=10)
        assert str(err.value) == f"x0 must be finite (got ({x0[0]}, {x0[1]}))"

    @pytest.mark.parametrize("t_final,n_samples", [(1e-320, 72), (5e-324, 2)])
    def test_a_subnormal_sample_spacing_is_rejected_before_any_step(self, loop, harmonic, monkeypatch,
                                                                   t_final, n_samples):
        # np.linspace(0, 1e-320, 72) rounds its 71st time past t_final, which
        # left 70 samples and none at t_final
        def no_step(*args):
            raise AssertionError("a flow with a subnormal sample spacing was integrated")

        monkeypatch.setattr(enhq.dynamics, "_dormand_prince", no_step)
        monkeypatch.setattr(enhq.dynamics, "_compiled_flow", no_step)
        with pytest.raises(ValueError, match="strictly increasing") as err:
            hamiltonian_flow(harmonic, (0.3, 0.8), t_final, n_samples=n_samples)
        assert f"t_final = {t_final} over n_samples = {n_samples}" in str(err.value)

    def test_the_smallest_normal_sample_spacing_is_kept(self, loop, harmonic):
        t_final = 71 * sys.float_info.min
        traj = hamiltonian_flow(harmonic, (0.3, 0.8), t_final, n_samples=72)
        assert len(traj) == 72 and traj.t[-1] == t_final

    def test_non_finite_gradient_raises(self):
        ham = EnhancedHamiltonian(
            lambda p, q: p,
            lambda p, q: (1.0, np.nan) if q > 2.0 else (1.0, 0.0),
        )
        with pytest.raises(NumericalFailure):
            hamiltonian_flow(ham, (0.0, 1.0), 4.0)

    @pytest.mark.parametrize("component", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_stage_names_its_point(self, component, bad):
        # the first two calls set up the first step and the next ones are the
        # stages of the first steps
        for n_bad in range(1, 13):
            calls = []

            def gradient(p, q):
                calls.append((float(p), float(q)))
                g = [p, q]
                if len(calls) == n_bad:
                    g[component] = bad
                return tuple(g)

            ham = EnhancedHamiltonian(lambda p, q: 0.5 * (p * p + q * q), gradient)
            with pytest.raises(NumericalFailure, match="gradient is not finite") as err:
                hamiltonian_flow(ham, (0.3, 1.2), 4.0)
            assert len(calls) == n_bad
            p, q = calls[-1]
            assert f"at (p, q) = ({p}, {q})" in str(err.value)
            assert (err.value.diagnostics["p"], err.value.diagnostics["q"]) == (p, q)
            assert 0.0 <= err.value.diagnostics["t"] < 4.0

    @pytest.mark.parametrize("big", [(1e308, -1e308), (-1e308, 1e308)])
    @pytest.mark.parametrize("n_big", [5, 6, 7, 8])
    def test_finite_rates_whose_difference_overflows_are_finite(self, n_big, big):
        # stages 4-7 of the first step: the difference of the two rates
        # overflows, but both are finite; the step is rejected and the run
        # goes on to t_final
        calls = []

        def gradient(p, q):
            calls.append((p, q))
            return big if len(calls) == n_big else (p, q)

        ham = EnhancedHamiltonian(lambda p, q: 0.5 * (p * p + q * q), gradient)
        traj = hamiltonian_flow(ham, (0.3, 1.2), 4.0)
        assert len(calls) > n_big and traj.t[-1] == 4.0
        assert np.all(np.isfinite(traj.p)) and np.all(np.isfinite(traj.q))

    @pytest.mark.parametrize("big", [(1e308, -1e308), (-1e308, 1e308)])
    def test_first_rates_whose_scaled_norm_overflows_give_up_at_t0(self, big):
        # finite first rates whose scaled norm overflows make the initial step
        # 0; scipy's RK45 gives up at t = 0 on the same gradient
        def counted():
            calls = []

            def gradient(p, q):
                calls.append((p, q))
                return big if len(calls) == 1 else (p, q)

            return gradient

        ham = EnhancedHamiltonian(lambda p, q: 0.5 * (p * p + q * q), counted())
        with pytest.raises(NumericalFailure, match="integration failed at t = 0"):
            hamiltonian_flow(ham, (0.3, 1.2), 4.0)

        gradient = counted()

        def rates(t, y):
            gp, gq = gradient(*y)
            return [-gq, gp]

        with np.errstate(all="ignore"):
            ref = solve_ivp(rates, (0.0, 4.0), [0.3, 1.2], rtol=1e-10, atol=1e-13)
        assert ref.status == -1 and list(ref.t) == [0.0]

    def test_non_finite_float64_gradient_gives_python_float_diagnostics(self):
        ham = EnhancedHamiltonian(
            lambda p, q: p,
            lambda p, q: (np.float64(1.0), np.float64(np.nan if q > 2.0 else 0.0)),
        )
        with pytest.raises(NumericalFailure, match="gradient is not finite") as err:
            hamiltonian_flow(ham, (0.0, 1.0), 4.0, n_samples=5)
        assert [type(v) for v in err.value.diagnostics.values()] == [float] * 3

    def test_particle_at_rest_has_no_bounce(self):
        # dq/dt stays exactly 0: no upward crossing
        ham = EnhancedHamiltonian(lambda p, q: 0.5 * p * p, lambda p, q: (p, 0.0))
        traj = hamiltonian_flow(ham, (0.0, 1.0), 3.0)
        assert traj.event_kinds() == ()
        assert np.all(traj.q == 1.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan, np.inf, -np.inf])
    def test_needs_positive_finite_tol(self, harmonic, tol):
        with pytest.raises(ValueError, match="tol"):
            hamiltonian_flow(harmonic, (0.0, 1.0), 1.0, tol=tol)

    def test_the_options_are_tol_n_samples_and_q_floor(self, harmonic):
        # one integrator: no method to choose and no step count to give
        params = inspect.signature(hamiltonian_flow).parameters
        assert list(params) == ["H", "x0", "t_final", "tol", "n_samples", "q_floor"]
        assert (params["tol"].default, params["n_samples"].default) == (1e-10, 1000)
        for option in ({"method": "rk45"}, {"n_steps": 100}):
            with pytest.raises(TypeError, match=next(iter(option))):
                hamiltonian_flow(harmonic, (0.0, 1.0), 1.0, **option)

    def test_rk45_default_tol_is_1e_10(self, loop, harmonic):
        assert (hamiltonian_flow(harmonic, (0.3, 1.2), 4.0)
                == hamiltonian_flow(harmonic, (0.3, 1.2), 4.0, tol=1e-10))

    @pytest.mark.parametrize("q_floor", [np.nan, 0.0, -1.0, np.inf])
    def test_needs_positive_finite_q_floor(self, q_floor):
        # a nan floor never fires: the run would pass it and give up near q = 0
        ham = hydrogen_classical(HydrogenParams())
        with pytest.raises(ValueError, match="q_floor"):
            hamiltonian_flow(ham, (-0.3, 1.0), 4.0, q_floor=q_floor)

    def test_domain_exit_event(self):
        ham = EnhancedHamiltonian(
            lambda p, q: 0.5 * p,
            lambda p, q: (0.5, 0.0),
            label_domain=lambda p, q: 1.0 - q,
        )
        traj = hamiltonian_flow(ham, (0.0, 0.0), 4.0)
        assert traj.event_kinds() == ("domain_exit",)
        exit_ = traj.events[0]
        assert exit_.time == pytest.approx(2.0, abs=1e-8)
        assert traj.t[-1] <= exit_.time + 1e-12
        assert exit_.energy == ham.evaluate(exit_.p, exit_.q)

    # S1 at s = 2 drives p up to the pole sqrt(2) from the equator
    POLE_X0 = (0.0, math.pi / 2 * math.sqrt(2))

    @staticmethod
    def _towards_a_pole():
        return enhance(parse_polynomial("S1", "spin"), spin_family(build_spin_rep(2.0)))

    def test_without_a_label_domain_the_domain_error_is_raised(self):
        # the same gradient with no declared domain has no edge to end at
        ham = self._towards_a_pole()
        bare = EnhancedHamiltonian(ham.evaluate, ham.gradient)
        with pytest.raises(DomainError, match="must not exceed"):
            hamiltonian_flow(bare, self.POLE_X0, 3.0, n_samples=5)

    def test_rk45_spin_flow_into_a_pole_ends_in_domain_exit(self):
        # a stage lands past the pole before the margin fires at a step end:
        # the run ends at the last accepted step, just inside the domain
        ham = self._towards_a_pole()
        traj = hamiltonian_flow(ham, self.POLE_X0, 3.0, n_samples=5)
        assert traj.event_kinds() == ("domain_exit",)
        exit_ = traj.events[0]
        assert exit_.time == pytest.approx(math.pi / 2, abs=1e-3)
        assert 0.0 < ham.label_domain(exit_.p, exit_.q) < 1e-6
        assert exit_.energy == ham.evaluate(exit_.p, exit_.q)
        assert traj.t[-1] <= exit_.time

    def test_rk45_start_beside_a_pole_ends_at_t_0(self):
        # the first step's stages leave the domain before any step is accepted:
        # the run ends at the start
        ham = self._towards_a_pole()
        x0 = (math.sqrt(2.0) * (1.0 - 1e-10), self.POLE_X0[1])
        traj = hamiltonian_flow(ham, x0, 3.0, n_samples=5)
        assert traj.event_kinds() == ("domain_exit",)
        exit_ = traj.events[0]
        assert (exit_.time, exit_.p, exit_.q) == (0.0, *x0)
        assert exit_.energy == ham.evaluate(*x0)
        assert (traj.t.tolist(), traj.p.tolist(), traj.q.tolist()) == ([0.0], [x0[0]], [x0[1]])
        assert traj.energy.tolist() == [ham.evaluate(*x0)]


class TestTransforms:
    def test_identity_transform_is_noop(self, loop, harmonic):
        traj = hamiltonian_flow(harmonic, (0.0, 1.0), 2 * np.pi, tol=1e-10)
        same = apply_transform(scaling_transform(1.0), traj)
        assert_allclose(same.p, traj.p, atol=0)
        assert_allclose(same.q, traj.q, atol=0)

    def test_rotation_equivariance(self, loop, harmonic):
        rot = rotation_transform()
        traj = hamiltonian_flow(harmonic, (0.2, 1.0), 2 * np.pi, tol=1e-10, n_samples=800)
        relabeled = apply_transform(rot, traj)
        ham_t = transform_hamiltonian(harmonic, rot)
        flowed = hamiltonian_flow(
            ham_t, apply_transform(rot, PhasePoint(0.2, 1.0)), 2 * np.pi,
            tol=1e-10, n_samples=800,
        )
        assert np.max(np.abs(flowed.p - relabeled.p)) < 1e-6
        assert np.max(np.abs(flowed.q - relabeled.q)) < 1e-6

    @pytest.mark.parametrize("relabelings,x0,t_final", [
        ((scaling_transform(2.0),), (-0.3, 1.0), 5.0),
        # the step size underflows first: the collapse is the last accepted step
        ((scaling_transform(2.0),), (0.773, 2.587), 133.0),
        # the half-line coordinate becomes -p~, then is carried through two maps
        ((rotation_transform(),), (-0.3, 1.0), 5.0),
        ((rotation_transform(), scaling_transform(2.0)), (-0.3, 1.0), 5.0),
    ], ids=["scaling-rk45", "scaling-rk45-gives-up", "rotation-rk45", "rotation-scaling-rk45"])
    def test_relabeled_half_line_flow_still_collapses(self, loop, relabelings, x0, t_final):
        ham = hydrogen_classical(HydrogenParams())
        plain = hamiltonian_flow(ham, x0, t_final)
        x0 = PhasePoint(*x0)
        for tr in relabelings:
            ham, x0 = transform_hamiltonian(ham, tr), apply_transform(tr, x0)
        relabeled = hamiltonian_flow(ham, x0, t_final)
        assert plain.event_kinds()[-1] == relabeled.event_kinds()[-1] == "singularity_hit"
        assert relabeled.events[-1].time == pytest.approx(plain.events[-1].time, rel=1e-8)

    def test_relabeled_affine_flow_ends_at_the_floor(self):
        # the relabeled floor is a margin in the original q, carried through
        # the inverse map: the hit is its root, where H is still defined
        family = affine_family(build_halfline_rep(1e-5, 60.0, 1000), 2.0)
        ham = transform_hamiltonian(enhance(parse_polynomial("-P", "affine"), family),
                                    scaling_transform(2.0))
        traj = hamiltonian_flow(ham, (0.0, 0.5), 2.0)
        assert traj.event_kinds()[-1] == "singularity_hit"
        hit = traj.events[-1]
        assert hit.time == pytest.approx(1.0, abs=1e-6)
        assert np.isfinite(hit.energy) and hit.energy == ham.evaluate(hit.p, hit.q)
        assert ham.half_line(hit.p, hit.q) == pytest.approx(1e-8, rel=1e-6)
        assert traj.t[-1] <= hit.time

    def test_relabeled_label_domain(self):
        # the margin 1 - q, with q = 2 q~ after the scaling
        ham = EnhancedHamiltonian(
            lambda p, q: 0.5 * p,
            lambda p, q: (0.5, 0.0),
            label_domain=lambda p, q: 1.0 - q,
        )
        traj = hamiltonian_flow(transform_hamiltonian(ham, scaling_transform(2.0)), (0.0, 0.0), 4.0)
        assert traj.event_kinds() == ("domain_exit",)
        assert traj.events[0].time == pytest.approx(2.0, abs=1e-8)
        assert traj.events[0].q == pytest.approx(0.5, abs=1e-8)

    def test_scaling_equivariance_enhanced_hydrogen(self, loop):
        ham = hydrogen_enhanced(HydrogenParams(beta=2.0))
        tr = scaling_transform(2.0)
        traj = hamiltonian_flow(ham, (0.0, 2.0), 10.0, tol=1e-10, n_samples=600)
        relabeled = apply_transform(tr, traj)
        flowed = hamiltonian_flow(
            transform_hamiltonian(ham, tr), apply_transform(tr, PhasePoint(0.0, 2.0)),
            10.0, tol=1e-10, n_samples=600,
        )
        assert np.max(np.abs(flowed.p - relabeled.p)) < 1e-6
        assert np.max(np.abs(flowed.q - relabeled.q)) < 1e-6

    @pytest.mark.parametrize("tr", [rotation_transform(), scaling_transform(3.0)])
    def test_chain_rule_gradient(self, harmonic, tr):
        # grad~ = M^-T grad, against numpy's inverse of the matrix
        ham_t = transform_hamiltonian(harmonic, tr)
        for pt, qt in [(0.2, 0.9), (-1.3, 0.4), (0.0, -0.7)]:
            p, q = tr.inverse(pt, qt)
            expected = np.linalg.inv(tr.matrix).T @ np.array(harmonic.gradient(p, q))
            got = ham_t.gradient(pt, qt)
            if tr.name == "rotation":
                assert got == (expected[0], expected[1])
            else:
                assert_allclose(got, expected, rtol=1e-15, atol=0)

    def test_singular_matrix_rejected(self):
        with pytest.raises(InvalidTransformError, match="dp\\^dq: det M = 0.0"):
            CanonicalTransform(((1.0, 0.0), (0.0, 0.0)), "flatten")

    def test_scaling_preserves_area_exactly(self):
        assert np.linalg.det(scaling_transform(3.0).matrix) == pytest.approx(1.0, abs=0)

    def test_a_matrix_is_required(self):
        with pytest.raises(TypeError, match="matrix"):
            CanonicalTransform(name="identity")

    def test_inverse_is_the_adjugate(self):
        # det M = 1 exactly, so the adjugate undoes the map to the last bit
        tr = CanonicalTransform(((2.0, 1.0), (1.0, 1.0)))
        for p, q in [(0.0, 1.0), (0.3, -0.5), (-1.25, 2.0)]:
            assert tr.inverse(*tr.forward(p, q)) == (p, q)

    def test_area_violation_rejected(self):
        with pytest.raises(InvalidTransformError, match="dp\\^dq: det M = 2.0"):
            CanonicalTransform(((2.0, 0.0), (0.0, 1.0)), "squash")

    @pytest.mark.parametrize("make,error", [
        (lambda: scaling_transform(math.nan), InvalidTransformError),
        (lambda: scaling_transform(math.inf), InvalidTransformError),
        # 1 / 1e-320 overflows to inf
        (lambda: scaling_transform(1e-320), InvalidTransformError),
        (lambda: CanonicalTransform(((1.0, math.nan), (0.0, 1.0))), InvalidTransformError),
        (lambda: CanonicalTransform(((1.0, 0.0), (-math.inf, 1.0))), InvalidTransformError),
        (lambda: scaling_transform(0.0), ValueError),
    ], ids=["scaling-nan", "scaling-inf", "scaling-1e-320", "nan-entry", "inf-entry", "scaling-zero"])
    def test_non_finite_relabeling_rejected_at_construction(self, make, error):
        with pytest.raises(error) as info:
            make()
        assert not isinstance(info.value, ZeroDivisionError)

    def test_transform_point(self):
        pt = apply_transform(rotation_transform(), PhasePoint(0.5, 2.0, t=1.5))
        assert (pt.p, pt.q, pt.t) == (-2.0, 0.5, 1.5)

    def test_transform_rejects_other_types(self):
        with pytest.raises(TypeError):
            apply_transform(rotation_transform(), "not a trajectory")


# the relabelings of the substitution tests: a quarter turn, three scalings,
# a shear and a generic matrix of determinant 1
RELABELINGS = [rotation_transform(), scaling_transform(2.0), scaling_transform(3.0),
               scaling_transform(0.7), CanonicalTransform(((1.0, 0.5), (0.0, 1.0)), "shear"),
               CanonicalTransform(((2.0, 1.0), (1.0, 1.0)), "generic")]
RELABELING_IDS = ["rotation", "scaling-2", "scaling-3", "scaling-0.7", "shear", "generic"]


def compiled_hamiltonian(coeffs):
    lp = _LabelPolynomial(coeffs)
    return EnhancedHamiltonian(lp, lp.gradient, polynomial=lp)


def random_polynomial(rng):
    # up to four words of up to six letters, each with its reversal
    terms = []
    for _ in range(rng.randint(1, 4)):
        word, coeff = tuple(rng.choices("PQ", k=rng.randint(0, 6))), rng.uniform(-2.0, 2.0)
        terms += [(coeff, word), (coeff, word[::-1])]
    return OperatorPolynomial(terms, "canonical")


class TestRelabeledPolynomial:
    """A compiled polynomial relabeled by substitution, against the chain rule through its callables."""

    FAMILIES = {"canonical": canonical_family,
                "squeezed-0.3-0.2": lambda rep: extended_family(rep, 0.3, 0.2),
                "squeezed--1.1-0.7": lambda rep: extended_family(rep, -1.1, 0.7)}

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    def test_random_polynomials_against_the_oracle_and_the_chain_rule(self, kind, seed):
        rng = random.Random(seed)
        ham = enhance(random_polynomial(rng), self.FAMILIES[kind](build_fock_rep(8)))
        labels = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(6, 2))
        for tr in RELABELINGS:
            relabeled, chain = transform_hamiltonian(ham, tr), chain_rule_hamiltonian(ham, tr)
            assert chain.polynomial is None
            # equal as dicts: the same powers, each coefficient rounded once
            assert relabeled.polynomial.coeffs == relabeled_label_coefficients(ham.polynomial.coeffs, tr)
            for pt, qt in labels:
                got = (relabeled.evaluate(pt, qt), *relabeled.gradient(pt, qt))
                expected = (chain.evaluate(pt, qt), *chain.gradient(pt, qt))
                # relative to the roundoff scale of either sum, the sum of its terms' sizes
                scales = np.maximum(label_polynomial_loop(relabeled.polynomial.coeffs, pt, qt)[1],
                                    label_polynomial_loop(ham.polynomial.coeffs, *tr.inverse(pt, qt))[1])
                assert np.all(np.abs(np.subtract(got, expected)) <= 1e-13 * scales), (tr.name, pt, qt)

    def test_an_exactly_cancelled_cross_term_is_dropped(self, harmonic):
        # an eighth turn of p^2 + q^2: the p~ q~ terms cancel exactly
        c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
        relabeled = transform_hamiltonian(harmonic, CanonicalTransform(((c, -s), (s, c))))
        assert sorted(relabeled.polynomial.coeffs) == [(0, 0), (0, 2), (2, 0)]

    @pytest.mark.parametrize("ham", [
        lambda: hydrogen_classical(HydrogenParams()),
        lambda: hydrogen_enhanced(HydrogenParams(beta=2.0)),
        lambda: enhance(parse_polynomial("0.5*P^2 + 0.5*Q^2", "affine"),
                        affine_family(build_halfline_rep(1e-5, 60.0, 200), 2.0)),
        lambda: spin_precession(1.0, build_spin_rep(2.0)),
        lambda: EnhancedHamiltonian(lambda p, q: 0.5 * (p * p + q * q), lambda p, q: (p, q)),
        # a power of q below 0 has no binomial expansion, even off the half line
        lambda: compiled_hamiltonian({(2, 0): 0.5, (0, -1): -1.0}),
    ], ids=["hydrogen-classical", "hydrogen-enhanced", "affine", "spin", "callables", "laurent"])
    @pytest.mark.parametrize("tr", RELABELINGS[:2], ids=RELABELING_IDS[:2])
    def test_half_line_spin_and_callables_keep_the_chain_rule(self, ham, tr):
        assert transform_hamiltonian(ham(), tr).polynomial is None

    @pytest.mark.parametrize("expression,lam,compiled", [
        ("0.5*P^2 + 0.5*Q^2", 1e150, True),
        # lam^2 / 2, the coefficient of q~^2, overflows, and 1 / (2 lam^2), of p~^2, is subnormal
        ("0.5*P^2 + 0.5*Q^2", 1e160, False),
        ("0.5*P^2 + 0.5*Q^2", 1e200, False),
        ("0.5*P^2 + 0.5*Q^2", 1e-160, False),
        # a subnormal coefficient alone, and a normal one whose derivative overflows
        ("0.5*P^2", 1e160, False),
        ("0.5*Q^2", 1.5e154, False),
    ], ids=["harmonic-1e150", "harmonic-1e160", "harmonic-1e200", "harmonic-1e-160",
            "free-1e160", "force-1.5e154"])
    def test_extreme_scalings_flow_as_the_relabeled_plain_flow(self, loop, expression, lam, compiled):
        ham = enhance(parse_polynomial(expression, "canonical"), canonical_family(build_fock_rep(8)))
        tr = scaling_transform(lam)
        relabeled = transform_hamiltonian(ham, tr)
        assert (relabeled.polynomial is not None) == compiled
        plain = hamiltonian_flow(ham, (0.2, 1.0), 2 * np.pi, n_samples=200)
        flowed = hamiltonian_flow(relabeled, apply_transform(tr, PhasePoint(0.2, 1.0)), 2 * np.pi,
                                  n_samples=200)
        expected = apply_transform(tr, plain)
        for got, want in ((flowed.p, expected.p), (flowed.q, expected.q)):
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("tr", RELABELINGS, ids=RELABELING_IDS)
    @pytest.mark.parametrize("expression,family", [
        ("0.5*P^2 + 0.5*Q^2", canonical_family),
        ("0.5*P^2 + 0.5*Q^2 + 0.1*Q^4", lambda rep: extended_family(rep, 0.3, 0.2)),
    ], ids=["harmonic", "squeezed-quartic"])
    def test_a_relabeled_flow_is_the_same_on_both_loops(self, monkeypatch, expression, family, tr):
        if _kernel() is None:
            pytest.skip("the kernel did not load")
        ham = enhance(parse_polynomial(expression, "canonical"), family(build_fock_rep(8)))
        relabeled, x0 = transform_hamiltonian(ham, tr), apply_transform(tr, PhasePoint(0.2, 0.9))
        kernel = hamiltonian_flow(relabeled, x0, 2 * np.pi, n_samples=200)
        monkeypatch.setattr(enhq.dynamics, "_kernel", lambda: None)
        python = hamiltonian_flow(relabeled, x0, 2 * np.pi, n_samples=200)
        assert kernel == python and kernel.work == python.work
        expected = apply_transform(tr, hamiltonian_flow(ham, (0.2, 0.9), 2 * np.pi, n_samples=200))
        assert np.max(np.abs(kernel.p - expected.p)) < 1e-6
        assert np.max(np.abs(kernel.q - expected.q)) < 1e-6

    def test_a_relabeled_canonical_flow_is_one_kernel_call(self, monkeypatch, harmonic):
        if _kernel() is None:
            pytest.skip("the kernel did not load")
        calls = {"kernel": 0, "gradient": 0, "python loop": 0}

        def counted(name, fn):
            def spy(*args):
                calls[name] += 1
                return fn(*args)
            return spy

        monkeypatch.setattr(enhq.dynamics, "_compiled_flow", counted("kernel", _compiled_flow))
        monkeypatch.setattr(enhq.dynamics, "_dormand_prince", counted("python loop", _dormand_prince))
        monkeypatch.setattr(EnhancedHamiltonian, "gradient",
                            counted("gradient", EnhancedHamiltonian.gradient))
        tr = rotation_transform()
        hamiltonian_flow(transform_hamiltonian(harmonic, tr),
                         apply_transform(tr, PhasePoint(0.2, 0.9)), 2 * np.pi, n_samples=200)
        assert calls == {"kernel": 1, "gradient": 0, "python loop": 0}


class TestTransformAction:
    def test_identity_difference_is_zero(self, loop, harmonic):
        traj = hamiltonian_flow(harmonic, (0.0, 1.0), 2 * np.pi, tol=1e-10)
        report = verify_transform_action(scaling_transform(1.0), traj)
        assert report.residual == pytest.approx(0.0, abs=1e-12)

    def test_rotation_loop_integrals_agree(self, loop, harmonic):
        traj = hamiltonian_flow(harmonic, (0.0, 1.0), 2 * np.pi, tol=1e-10, n_samples=4000)
        report = verify_transform_action(rotation_transform(), traj)
        assert report.integral_original == pytest.approx(report.integral_transformed, abs=1e-6)
        assert report.residual == pytest.approx(0.0, abs=1e-10)

    def test_rotation_generator_on_open_segment(self, loop, harmonic):
        traj = hamiltonian_flow(harmonic, (0.0, 1.0), np.pi / 3, tol=1e-10, n_samples=2000)
        report = verify_transform_action(rotation_transform(), traj)
        # difference of the two line integrals telescopes to the generator change
        assert report.residual == pytest.approx(0.0, abs=1e-10)
        assert report.generator_difference == pytest.approx(
            traj.p[-1] * traj.q[-1] - traj.p[0] * traj.q[0], abs=1e-9
        )

    @pytest.mark.parametrize("matrix,generator", [
        (((1.0, 0.5), (0.0, 1.0)), lambda p, q: -q * q / 4),
        (((2.0, 1.0), (1.0, 1.0)), lambda p, q: -(p * p + p * q + q * q / 2)),
    ], ids=["shear", "generic"])
    def test_derived_generator_on_open_segment(self, loop, harmonic, matrix, generator):
        # p dq - p~ dq~ = dF, F = -(ac p^2/2 + bc p q + bd q^2/2) by hand
        traj = hamiltonian_flow(harmonic, (0.0, 1.0), np.pi / 3, tol=1e-10, n_samples=2000)
        report = verify_transform_action(CanonicalTransform(matrix), traj)
        assert report.residual == pytest.approx(0.0, abs=1e-10)
        assert report.generator_difference == pytest.approx(
            generator(traj.p[-1], traj.q[-1]) - generator(traj.p[0], traj.q[0]), abs=1e-9
        )

    def test_scaling_difference_vanishes_pointwise(self, loop, harmonic):
        traj = hamiltonian_flow(harmonic, (0.3, 0.8), 4.0, tol=1e-10)
        report = verify_transform_action(scaling_transform(2.0), traj)
        assert report.generator_difference == 0.0
        assert abs(report.residual) < 1e-8


class TestRestrictedAction:
    def test_harmonic_period_values(self, loop, harmonic):
        traj = hamiltonian_flow(harmonic, (0.0, 1.0), 2 * np.pi, tol=1e-10, n_samples=8000)
        raw = restricted_action_value(harmonic, traj)
        # integral p dq = pi; the hbar/2 shift (hbar = 1) contributes -pi over one period
        assert raw == pytest.approx(-np.pi, abs=1e-6)
        assert raw + 0.5 * 2 * np.pi == pytest.approx(0.0, abs=1e-6)
        assert line_integral_p_dq(traj) == pytest.approx(np.pi, abs=1e-6)

    def test_value_reads_h_not_the_energy_column(self, loop, harmonic):
        traj = hamiltonian_flow(harmonic, (0.0, 1.0), 2 * np.pi, tol=1e-10, n_samples=8000)
        stale = Trajectory(traj.t, traj.p, traj.q, np.zeros(len(traj)))
        assert restricted_action_value(harmonic, stale) == pytest.approx(-np.pi, abs=1e-6)

    def test_static_point_zero_action(self):
        free = EnhancedHamiltonian(lambda p, q: 0.5 * p * p, lambda p, q: (p, 0.0))
        traj = hamiltonian_flow(free, (0.0, 1.0), 3.0, tol=1e-10)
        assert restricted_action_value(free, traj) == pytest.approx(0.0, abs=1e-12)

    def test_too_few_samples(self, harmonic):
        t = np.linspace(0, 1, 8)
        traj = Trajectory(t, np.zeros(8), np.ones(8), np.ones(8))
        with pytest.raises(ValueError):
            restricted_action_value(harmonic, traj)

    def test_stationarity_under_endpoint_fixed_perturbations(self, loop, harmonic):
        period = 2 * np.pi
        traj = hamiltonian_flow(harmonic, (0.0, 1.0), period, tol=1e-10, n_samples=8000)
        base = restricted_action_value(harmonic, traj)
        t = traj.t

        def perturbed_action(eps):
            dq = eps * np.sin(np.pi * t / period) * 0.7
            dp = eps * np.sin(2 * np.pi * t / period + 0.3)
            p, q = traj.p + dp, traj.q + dq
            energy = np.array([harmonic(pi, qi) for pi, qi in zip(p, q)])
            return restricted_action_value(harmonic, Trajectory(t, p, q, energy))

        epsilons = np.logspace(-4, -2, 7)
        gaps = np.array([abs(perturbed_action(e) - base) for e in epsilons])
        slope = np.polyfit(np.log(epsilons), np.log(gaps), 1)[0]
        assert slope >= 1.9


class TestTrajectorySerialization:
    def _sample(self):
        t = np.linspace(0.0, 1.0, 5)
        return Trajectory(
            t,
            np.sin(t),
            np.cos(t),
            np.full(5, 0.5),
            (TrajectoryEvent(0.25, "bounce", 0.1, -0.2, 0.5),),
        )

    def test_csv_layout(self):
        text = self._sample().to_csv(header_lines=["tag=x"])
        lines = text.splitlines()
        assert lines[0] == "# tag=x"
        assert lines[1] == "t,p,q,H,event"
        assert lines[2] == "0.0,0.0,1.0,0.5,"
        event_rows = [ln for ln in lines if ln.endswith("bounce")]
        assert len(event_rows) == 1 and event_rows[0].startswith("0.25,")

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.zeros(2), np.zeros(2), np.zeros(2))



class TestTrajectoryEquality:
    """``==`` is bit exact on the samples and exact on the events; ``work`` takes no part."""

    @staticmethod
    def flow():
        return hamiltonian_flow(hydrogen_enhanced(HydrogenParams()), (-0.3, 1.0), 4.0, n_samples=5)

    def test_two_runs_of_one_flow_are_equal_and_unhashable(self):
        a, b = self.flow(), self.flow()
        assert a == b and not a != b
        assert a != (a.t, a.p, a.q, a.energy, a.events)
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)

    @pytest.mark.parametrize("name", ["t", "p", "q", "energy"])
    @pytest.mark.parametrize("index", [0, 2, -1])
    def test_one_ulp_in_any_array_breaks_equality(self, name, index):
        traj = self.flow()
        values = getattr(traj, name).copy()
        values[index] = np.nextafter(values[index], np.inf)
        assert traj != dataclasses.replace(traj, **{name: values})

    def test_a_signed_zero_breaks_equality(self):
        traj = self.flow()
        assert traj.t[0] == 0.0
        assert traj != dataclasses.replace(traj, t=np.concatenate([[-0.0], traj.t[1:]]))

    def test_a_changed_event_breaks_equality(self):
        traj = self.flow()
        (event, *rest) = traj.events
        moved = dataclasses.replace(event, q=np.nextafter(event.q, np.inf))
        assert traj != dataclasses.replace(traj, events=(moved, *rest))
        assert traj != dataclasses.replace(traj, events=tuple(rest))


EPS = float(np.finfo(float).eps)


class TestBrent:
    """``_brent`` against scipy's ``brentq``, the oracle it ports."""

    @staticmethod
    def horner(coeffs, shift):
        def f(x):
            value = 0.0
            for c in coeffs:
                value = value * x + c
            return value - shift

        return f

    @settings(max_examples=300, deadline=None)
    @given(coeffs=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=6),
           a=st.floats(-5.0, 5.0), width=st.floats(1e-9, 10.0), at=st.floats(0.0, 1.0))
    def test_roots_are_brentqs(self, coeffs, a, width, at):
        # a random polynomial shifted to vanish at a point of the bracket
        b = a + width
        f = self.horner(coeffs, 0.0)
        f = self.horner(coeffs, f(a + at * width))
        fa, fb = f(a), f(b)
        assume(fa < 0 < fb or fb < 0 < fa)
        tried = []

        def g(x):
            tried.append(x)
            return f(x)

        root = _brent(g, a, b, fa, fb)
        expected = brentq(f, a, b, xtol=4 * EPS, rtol=4 * EPS, full_output=True)[1]
        assert expected.converged and a <= root <= b
        assert abs(root - expected.root) <= 4 * EPS * (1 + abs(expected.root))
        # bit for bit, with the same points tried after the two ends
        assert root == expected.root and len(tried) == expected.function_calls - 2

    @pytest.mark.parametrize("fa,fb,root", [(0.0, 1.0, 0.5), (-1.0, 0.0, 2.0)])
    def test_a_zero_end_is_the_root(self, fa, fb, root):
        assert _brent(lambda x: 1 / 0, 0.5, 2.0, fa, fb) == root

    def test_no_convergence_in_100_iterations_raises(self):
        # a step function: Brent's method bisects, and 100 halvings of
        # [-1e300, 1e300] are far from 4 eps
        def f(x):
            return -1.0 if x < 0.1 else 1.0

        with pytest.raises(RuntimeError, match="Failed to converge after 100 iterations"):
            brentq(f, -1e300, 1e300, xtol=4 * EPS, rtol=4 * EPS)
        with pytest.raises(NumericalFailure, match=r"Brent's method found no root in \[-1e\+300, 1e\+300\]"):
            _brent(f, -1e300, 1e300, -1.0, 1.0)

    def test_a_nan_or_ends_of_one_sign_raise(self):
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: math.nan if 0 < x < 1 else x - 0.5, 0.0, 1.0)
        with pytest.raises(NumericalFailure, match="found no root"):
            _brent(lambda x: math.nan, 0.0, 1.0, -0.5, 0.5)
        with pytest.raises(NumericalFailure, match="found no root"):
            _brent(lambda x: x, 1.0, 2.0, 1.0, 2.0)


class TestWorkRecord:
    """``Trajectory.work`` against the gradient calls a wrapper counts."""

    @staticmethod
    def counted(ham):
        calls = []

        def gradient(p, q):
            calls.append((p, q))
            return ham._gradient(p, q)

        return EnhancedHamiltonian(ham._evaluate, gradient, q_positive=ham.q_positive,
                                   label_domain=ham.label_domain), calls

    # (Hamiltonian, start, t_final, options, the record)
    CASES = {
        "rk45-floor": (lambda: hydrogen_classical(HydrogenParams()), (-0.3, 1.0), 4.0, {},
                       FlowWork(593, 0, 3560)),
        "rk45-bounces": (lambda: hydrogen_enhanced(HydrogenParams()), (-0.3, 1.0), 30.0, {},
                         FlowWork(364, 7, 2236)),
        "rk45-underflow": (lambda: hydrogen_classical(HydrogenParams()), (0.773, 2.587), 133.0, {},
                           FlowWork(732, 2, 4406)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_the_record_counts_every_call(self, case):
        build, x0, t_final, options, expected = self.CASES[case]
        ham, calls = self.counted(build())
        traj = hamiltonian_flow(ham, x0, t_final, **options)
        assert traj.work == expected and len(calls) == expected.gradient_calls
        if case == "rk45-floor":
            # no bounce: two calls before the first step and six an attempt
            assert expected.gradient_calls == 2 + 6 * (expected.steps + expected.rejected)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_a_compiled_polynomial_keeps_the_record(self, loop, case):
        # uncounted, the polynomial flows by the kernel where it loads: the
        # record is the counted flow's on either loop
        build, x0, t_final, options, expected = self.CASES[case]
        assert hamiltonian_flow(build(), x0, t_final, **options).work == expected

    def test_a_step_a_domain_error_cuts_short_is_not_counted(self):
        # a spin flow into a pole, as in TestFlowValidation: the five calls of
        # the step the DomainError cut short are not counted
        family = spin_family(build_spin_rep(2.0))
        ham, calls = self.counted(enhance(parse_polynomial("S1", "spin"), family))
        traj = hamiltonian_flow(ham, (0.0, math.pi / 2 * math.sqrt(2)), 3.0, n_samples=5)
        assert traj.event_kinds() == ("domain_exit",)
        assert traj.work == FlowWork(79, 16, 572) and len(calls) == 572 + 5

    def test_the_record_is_no_part_of_equality_or_of_a_body(self):
        [work] = [f for f in dataclasses.fields(Trajectory) if f.name == "work"]
        assert not work.repr
        traj = hamiltonian_flow(hydrogen_classical(HydrogenParams()), (-0.3, 1.0), 4.0, n_samples=5)
        bare = dataclasses.replace(traj, work=None)
        assert traj.work is not None and bare.work is None
        assert traj == bare and traj.to_csv() == bare.to_csv()
        single = Trajectory(np.zeros(1), np.ones(1), np.ones(1), np.ones(1), (), FlowWork(1, 0, 7))
        assert single == dataclasses.replace(single, work=FlowWork(2, 1, 9))
