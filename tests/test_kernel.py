"""The compiled flow (``_rk45.c``) against the Python loop, and its cache."""

import math
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import enhq.dynamics
from enhq import NumericalFailure, enhance, hamiltonian_flow, parse_polynomial
from enhq.correspondence import EnhancedHamiltonian, _LabelPolynomial
from enhq.dynamics import (_DONE, _FULL, _HIT_ROWS, _NONFINITE, _NOROOT, _TOO_SMALL_STEP,
                           _UNDERFLOW, FlowWork, _compiled_flow, _dormand_prince, _kernel)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CC = shlex.split(sysconfig.get_config_var("CC") or "")
needs_compiler = pytest.mark.skipif(not CC or shutil.which(CC[0]) is None,
                                    reason="Python's C compiler is not installed")
CLASSICAL = {(2, 0): 0.5, (0, -1): -1.0}
HARMONIC = {(2, 0): 0.5, (0, 2): 0.5}
ENHANCED = {(2, 0): 0.5, (0, -1): -4 / 3, (0, -2): 1.0}


@pytest.fixture(scope="module")
def run():
    kernel = _kernel()
    if kernel is None:
        pytest.skip("the kernel did not load")
    return kernel


def outcome(poly, x0, t_final, tol, q_floor, n_samples, run=None):
    """The flow of ``poly``, by the Python loop or the kernel ``run``, as bytes and reprs.

    Times, samples, energies, hits, stop and work record; the Python loop's
    energies are ``poly.value`` on its sample arrays, as ``hamiltonian_flow``
    takes them.
    """
    try:
        if run is not None:
            result = _compiled_flow(run, poly, *x0, t_final, tol, tol * 1e-3,
                                    q_floor if poly.q_positive else -math.inf, n_samples)
        else:
            margins = [lambda p, q: q - q_floor] if poly.q_positive else []
            ts, ps, qs, *rest = _dormand_prince(poly.gradient, *x0, t_final, tol, tol * 1e-3,
                                                np.linspace(0.0, t_final, n_samples), margins)
            with np.errstate(all="ignore"):
                result = (ts, ps, qs, np.broadcast_to(poly.value(ps, qs), ps.shape), *rest)
    except NumericalFailure as exc:
        return "NumericalFailure", str(exc), repr(exc.diagnostics)
    return tuple(a.tobytes() if isinstance(a, np.ndarray) else repr(a) for a in result)


def statuses_of(run, calls):
    # the kernel, recording what each call returns
    def spy(*args):
        calls.append(run(*args))
        return calls[-1]

    return spy


class TestBuild:
    @needs_compiler
    def test_the_kernel_is_built_here(self):
        # a broken build would otherwise hide behind the Python loop
        assert _kernel() is not None

    @needs_compiler
    def test_a_cold_cache_builds_once_in_a_private_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert _kernel.__wrapped__() is not None
        cache = tmp_path / "enhq"
        assert cache.stat().st_mode & 0o777 == 0o700
        [library] = cache.iterdir()  # no temporary file is left
        assert library.name.startswith("rk45-") and library.suffix == ".so"

        def no_compiler(*args, **kwargs):
            raise AssertionError("a cached kernel was built again")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        assert _kernel.__wrapped__() is not None

    def test_a_cache_others_can_write_to_is_not_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cache = tmp_path / "enhq"
        cache.mkdir()
        cache.chmod(0o777)
        assert _kernel.__wrapped__() is None
        assert list(cache.iterdir()) == []

    @needs_compiler
    def test_a_library_that_fails_the_probe_is_rejected_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        with monkeypatch.context() as m:
            m.setattr(enhq.dynamics, "_probe", lambda run: False)
            assert _kernel.__wrapped__() is None
        [mark] = (tmp_path / "enhq").iterdir()
        assert mark.suffix == ".rejected"

        def no_compiler(*args, **kwargs):
            raise AssertionError("a rejected kernel was built again")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        assert _kernel.__wrapped__() is None

    def test_without_a_compiler_there_is_no_kernel(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(sysconfig, "get_config_var",
                            lambda name: "enhq-no-such-compiler" if name == "CC" else None)
        assert _kernel.__wrapped__() is None
        assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def pool():
    # the 40 starts of perfbench's hydrogen_contrast workload
    with pytest.MonkeyPatch.context() as m:
        m.syspath_prepend(str(PERFBENCH))
        import workloads
        items = workloads.HydrogenContrast._pool()
        params = workloads.HydrogenContrast()
        params.setup(None)
    return items, params.classical, params.enhanced


class TestBitIdentity:
    @staticmethod
    def flows(pool, n_samples, turns):
        # each classical orbit to its horizon, then the enhanced one to
        # ``turns`` times the collapse, each with its work record
        items, classical, enhanced = pool
        found = []
        for p0, q0, horizon in items:
            traj = hamiltonian_flow(classical, (p0, q0), horizon, n_samples=n_samples)
            t_hit = next(e.time for e in traj.events if e.kind == "singularity_hit")
            found += [traj, hamiltonian_flow(enhanced, (p0, q0), turns * t_hit, n_samples=n_samples)]
        return [(traj, traj.work) for traj in found]

    @pytest.mark.parametrize("n_samples", [1000, 200, 7, 2])
    def test_pool_orbits_match_the_python_loop(self, run, pool, monkeypatch, n_samples):
        # the whole Trajectory and its work record, with the loader returning
        # None for the fallback
        kernel = self.flows(pool, n_samples, 10.0)
        monkeypatch.setattr(enhq.dynamics, "_kernel", lambda: None)
        assert self.flows(pool, n_samples, 10.0) == kernel

    def test_long_enhanced_orbits_match_the_python_loop(self, run, pool, monkeypatch):
        # fifty collapse times: the 40 orbits turn 224 times, up to 17 times
        # each, and the kernel comes back with each _HIT_ROWS - 1 hits, when
        # its rows cannot hold another step's two, where the flow goes on
        calls = []
        monkeypatch.setattr(enhq.dynamics, "_kernel", lambda: statuses_of(run, calls))
        kernel = self.flows(pool, 200, 50.0)
        bounces = [traj.event_kinds().count("bounce") for traj, _ in kernel[1::2]]
        assert sum(bounces) == 224 and max(bounces) == 17
        assert calls.count(_FULL) == sum(n // (_HIT_ROWS - 1) for n in bounces) == 18
        assert len(calls) == len(kernel) + calls.count(_FULL)
        monkeypatch.setattr(enhq.dynamics, "_kernel", lambda: None)
        assert self.flows(pool, 200, 50.0) == kernel

    def test_a_round_of_the_pool_is_one_kernel_call_per_flow(self, run, pool, monkeypatch):
        # the work of perfbench's hydrogen_contrast: 80 flows at 1000 samples,
        # one kernel call each and no gradient call in Python
        calls, gradients = [], []

        def counted(gradient):
            def spy(p, q):
                gradients.append((p, q))
                return gradient(p, q)
            return spy

        monkeypatch.setattr(enhq.dynamics, "_kernel", lambda: statuses_of(run, calls))
        for ham in pool[1:]:
            monkeypatch.setattr(ham, "_gradient", counted(ham._gradient))
            monkeypatch.setattr(ham.polynomial, "gradient", counted(ham.polynomial.gradient))
        self.flows(pool, 1000, 10.0)
        assert calls == [_DONE] * 80 and gradients == []

    # (coefficients, half line, start, t_final, tol, q_floor, the kernel's returns)
    CASES = {
        "bounce": (ENHANCED, True, (-0.3, 1.0), 30.0, 1e-10, 1e-8, [_DONE]),
        "floor": (CLASSICAL, True, (-0.3, 1.0), 4.0, 1e-10, 1e-8, [_DONE]),
        # the orbit turns at q = 0.942: its first turn steps over the floor at
        # 0.95, and its second ends a step below it, with both roots in that
        # step (see test_a_bounce_and_a_floor_root_in_one_step)
        "bounce_and_floor": (ENHANCED, True, (-0.3, 1.0), 30.0, 1e-3, 0.95, [_DONE]),
        "t_final": (HARMONIC, False, (0.3, 1.2), 1.234, 1e-10, 1e-8, [_DONE]),
        # the case of test_collapse_time_when_the_step_size_underflows
        "underflow": (CLASSICAL, True, (0.773, 2.587), 133.0, 1e-10, 1e-8, [_UNDERFLOW]),
        # H = -p + 1e-10 / q^2: a stage's q^3 underflows to 0
        "non_finite": ({(1, 0): -1.0, (0, -2): 1e-10}, True, (0.0, 1e-100), 1.0, 1e-10, 1e-300,
                       [_NONFINITE]),
        # the same at q = 1e-110: the start's q^3 underflows to 0
        "non_finite_start": ({(1, 0): -1.0, (0, -2): 1e-10}, True, (0.0, 1e-110), 1.0, 1e-10,
                             1e-300, [_NONFINITE]),
        # H = -1e308 p: the step's dense output overflows, and the floor
        # margin Brent's method tries is nan
        "no_root": ({(1, 0): -1e308}, True, (0.0, 1e307), 10.0, 1e-3, 1e-8, [_NOROOT]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_each_way_out_of_the_kernel(self, run, case):
        coeffs, half_line, x0, t_final, tol, q_floor, expected = self.CASES[case]
        poly = _LabelPolynomial(coeffs, q_positive=half_line)
        calls = []
        kernel = outcome(poly, x0, t_final, tol, q_floor, 100, statuses_of(run, calls))
        assert kernel == outcome(poly, x0, t_final, tol, q_floor, 100)
        assert calls == expected
        if case == "t_final":
            assert np.frombuffer(kernel[0])[-1] == t_final
        if case == "underflow":
            assert kernel[-2].endswith(f"{_TOO_SMALL_STEP!r})")
        if case == "non_finite_start":
            assert kernel[0] == "NumericalFailure" and "'t': 0.0" in kernel[2]
        if case == "no_root":
            assert kernel[:2] == ("NumericalFailure", "Brent's method found no root in "
                                  "[0.06762433378062413, 0.7438676715868655]")

    @pytest.mark.parametrize("n_samples", [2, 7, 200, 1000])
    def test_a_bounce_and_a_floor_root_in_one_step(self, run, monkeypatch, n_samples):
        # the last step holds both roots, the floor's first; the samples of
        # that step stop at the floor root
        coeffs, _, x0, t_final, tol, q_floor, _ = self.CASES["bounce_and_floor"]
        poly = _LabelPolynomial(coeffs, q_positive=True)
        steps = []
        event_roots = enhq.dynamics._event_roots

        def spy(margins, active, gradient, step, cp, cq):
            found = event_roots(margins, active, gradient, step, cp, cq)
            steps.append((active, step[0], step[3], found))
            return found

        monkeypatch.setattr(enhq.dynamics, "_event_roots", spy)
        python = outcome(poly, x0, t_final, tol, q_floor, n_samples)
        active, t_old, t_new, (hits, t_stop) = steps[-1]
        assert active == [0, 1] and [i for i, *_ in hits] == [1] and t_old < t_stop < t_new
        t_eval = np.linspace(0.0, t_final, n_samples)
        assert np.frombuffer(python[0]).tolist() == t_eval[t_eval <= t_stop].tolist()
        if n_samples == 1000:
            # samples on both sides of the floor root inside the step
            assert t_old < t_eval[t_eval <= t_stop][-2] and t_eval[t_eval > t_stop][0] < t_new
        assert outcome(poly, x0, t_final, tol, q_floor, n_samples, run) == python

    def test_rejected_steps(self, run):
        # scipy's RK45 counts the same steps (TestRK45AgainstScipy): six
        # right-hand sides per attempt and two for the first step
        poly = _LabelPolynomial(CLASSICAL)
        ref = solve_ivp(lambda t, y: (-poly.gradient(*y)[1], poly.gradient(*y)[0]), (0.0, 1.0),
                        (0.0, 1.0), method="RK45", rtol=1e-6, atol=1e-9)
        assert ref.status == 0 and ref.nfev > 2 + 6 * (len(ref.t) - 1)
        calls = []
        kernel = outcome(poly, (0.0, 1.0), 1.0, 1e-6, 1e-8, 50, statuses_of(run, calls))
        assert kernel == outcome(poly, (0.0, 1.0), 1.0, 1e-6, 1e-8, 50) and calls == [_DONE]

    @pytest.mark.parametrize("t_final", [1.234, 10 / 3, 5e-324, 1e-320])
    def test_the_times_are_those_of_linspace(self, run, t_final):
        # i * (t_final / (n - 1)), or, where that step is 0, as it is at the
        # subnormal ends for some n, (i / (n - 1)) * t_final; there a time
        # before the last can round past t_final, and the flow, which ends at
        # t_final, samples the times up to it
        poly = _LabelPolynomial(HARMONIC)
        sizes = [*range(2, 1001), 5000]
        for n in sizes:
            t_eval = np.linspace(0.0, t_final, n)
            m = next((i for i, t in enumerate(t_eval) if t > t_final), n)
            assert m == n or t_final < 1e-300
            ts = _compiled_flow(run, poly, 0.3, 1.2, t_final, 1e-3, 1e-6, -math.inf, n)[0]
            assert ts.tobytes() == t_eval[:m].tobytes(), n
        assert any(t_final / (n - 1) == 0 for n in sizes) == (t_final < 1e-300)

    def test_a_grid_that_does_not_increase_is_rejected(self, run, monkeypatch):
        # np.linspace(0, 5e-324, 3) is (0, 0, 5e-324), on both loops
        poly = _LabelPolynomial(HARMONIC)
        ham = EnhancedHamiltonian(poly, poly.gradient, polynomial=poly)
        for kernel in (run, None):
            monkeypatch.setattr(enhq.dynamics, "_kernel", lambda: kernel)
            with pytest.raises(ValueError, match="strictly increasing"):
                hamiltonian_flow(ham, (0.3, 1.2), 5e-324, n_samples=3)

    # (coefficients, start) taking each branch of the first step size
    FIRST_STEPS = {
        # d0 < 1e-5, a start within atol of the origin, with large rates: the
        # 1e-6 start
        "small_start": ({**HARMONIC, (1, 0): 1.0}, (1e-20, -1e-20)),
        # at rest, d1 and d2 are 0: the 1e-6 start and h1 = max(1e-6, h0 * 1e-3),
        # after which each step is ten times the last; t_final = 1.2 falls in
        # the eighth, so a first step 1.2 times larger or more takes one fewer
        "at_rest": ({(0, 2): 0.5, (0, 1): -1.0}, (0.0, 1.0)),
        # finite rates whose scaled norm d1 overflows: h0 == 0, a step-size
        # underflow at t = 0
        "h0_zero": ({(0, 1): 1e308}, (0.0, 1.0)),
    }

    @pytest.mark.parametrize("case", sorted(FIRST_STEPS))
    def test_each_branch_of_the_first_step_size(self, run, case):
        coeffs, x0 = self.FIRST_STEPS[case]
        poly = _LabelPolynomial(coeffs)
        calls = []
        kernel = outcome(poly, x0, 1.2, 1e-10, 1e-8, 50, statuses_of(run, calls))
        assert kernel == outcome(poly, x0, 1.2, 1e-10, 1e-8, 50)
        if case == "h0_zero":
            assert calls == [_UNDERFLOW] and kernel[-1] == repr(FlowWork(0, 0, 1))
        elif case == "at_rest":
            assert kernel[-1] == repr(FlowWork(8, 0, 2 + 6 * 8))
        else:
            assert calls == [_DONE] and len(np.frombuffer(kernel[0])) == 50

    def test_a_non_finite_flow_names_the_same_point(self, run, affine_beta2, monkeypatch):
        ham = enhance(parse_polynomial("-P + 1e-10*Q^-2", "affine"), affine_beta2)

        def failure():
            with pytest.raises(NumericalFailure, match="gradient is not finite") as info:
                hamiltonian_flow(ham, (0.0, 1e-100), 1.0, q_floor=1e-300)
            return str(info.value), repr(info.value.diagnostics)  # nan != nan

        kernel = failure()
        monkeypatch.setattr(enhq.dynamics, "_kernel", lambda: None)
        assert failure() == kernel

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_label_polynomials(self, run, data):
        half_line = data.draw(st.booleans(), label="half_line")
        powers = st.tuples(st.integers(0, 3), st.integers(-3, 3) if half_line else st.integers(0, 4))
        coefficient = st.floats(0.05, 2.0).flatmap(lambda c: st.sampled_from([c, -c]))
        coeffs = data.draw(st.dictionaries(powers, coefficient, min_size=1, max_size=4), label="coeffs")
        poly = _LabelPolynomial(coeffs, q_positive=half_line)
        q_floor = data.draw(st.sampled_from([1e-8, 1e-300]), label="q_floor")
        q0 = st.floats(0.2, 3.0) if half_line else st.floats(-2.0, 2.0)
        if half_line and q_floor < 1e-100:
            # a start this close to 0 reaches stages whose negative powers of q underflow
            q0 |= st.just(1e-100)
        x0 = (data.draw(st.floats(-2.0, 2.0), label="p0"), data.draw(q0, label="q0"))
        t_final = data.draw(st.floats(0.1, 5.0), label="t_final")
        tol = data.draw(st.sampled_from([1e-10, 1e-6, 1e-3]), label="tol")
        n_samples = data.draw(st.sampled_from([2, 7, 200]), label="n_samples")
        args = (poly, x0, t_final, tol, q_floor, n_samples)
        assert outcome(*args, run) == outcome(*args)

