"""Hamiltonian flows in label space, canonical relabelings, and action values.

The equations of motion are ``dq/dt = dH/dp``, ``dp/dt = -dH/dq`` for an
:class:`~enhq.correspondence.EnhancedHamiltonian`.  The one adaptive
integrator is an embedded Runge-Kutta 5(4) pair; a fixed-step leapfrog is
the cross-check for separable Hamiltonians, and :func:`hamiltonian_flow`
assembles the trajectory from either.  Flows on the half line, relabeled or
not, stop with a ``singularity_hit`` event when ``q`` falls below a
configurable floor, and local minima of ``q`` are annotated as ``bounce``
events.

Canonical coordinate transformations are user-supplied forward/inverse pairs;
the library verifies them (round trip and unit Jacobian) rather than deriving
generators.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np
# unused here, but perfbench/tracer.py wraps enhq.dynamics.solve_ivp by name
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .correspondence import EnhancedHamiltonian
from .errors import InvalidTransformError, NumericalFailure

DEFAULT_Q_FLOOR = 1e-8
_TRANSFORM_ROUNDTRIP_TOL = 1e-10
_TRANSFORM_JACOBIAN_TOL = 1e-8


@dataclass(frozen=True)
class PhasePoint:
    """A labeled phase-space sample."""

    p: float
    q: float
    t: float = 0.0


@dataclass(frozen=True)
class TrajectoryEvent:
    """An annotated instant: ``singularity_hit``, ``bounce``, or ``domain_exit``."""

    time: float
    kind: str
    p: float
    q: float
    energy: float


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered samples of ``(t, p, q, H)`` plus event annotations."""

    t: np.ndarray
    p: np.ndarray
    q: np.ndarray
    energy: np.ndarray
    events: tuple = field(default_factory=tuple)

    def __post_init__(self):
        for name in ("t", "p", "q", "energy"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.t.size >= 2 and not np.all(np.diff(self.t) > 0):
            raise ValueError("sample times must be strictly increasing")
        sizes = {self.t.size, self.p.size, self.q.size, self.energy.size}
        if len(sizes) != 1:
            raise ValueError("sample arrays must share one length")

    def __len__(self):
        return self.t.size

    def points(self):
        for t, p, q in zip(self.t, self.p, self.q):
            yield PhasePoint(float(p), float(q), float(t))

    @property
    def final(self) -> PhasePoint:
        return PhasePoint(float(self.p[-1]), float(self.q[-1]), float(self.t[-1]))

    def event_kinds(self):
        return tuple(e.kind for e in self.events)

    def min_q(self) -> float:
        """Smallest q over samples and event annotations."""
        qmin = float(np.min(self.q))
        for e in self.events:
            qmin = min(qmin, e.q)
        return qmin

    def to_csv(self, stream=None, header_lines=()) -> str:
        """Write ``t,p,q,H,event`` rows, merging event rows in time order."""
        own = stream is None
        if own:
            stream = io.StringIO()
        for line in header_lines:
            stream.write(f"# {line}\n")
        stream.write("t,p,q,H,event\n")
        rows = [(float(t), float(p), float(q), float(e), "") for t, p, q, e in
                zip(self.t, self.p, self.q, self.energy)]
        for ev in self.events:
            rows.append((ev.time, ev.p, ev.q, ev.energy, ev.kind))
        rows.sort(key=lambda r: (r[0], r[4]))
        for t, p, q, e, kind in rows:
            stream.write(f"{t!r},{p!r},{q!r},{e!r},{kind}\n")
        return stream.getvalue() if own else ""

    def to_json(self) -> str:
        payload = {
            "t": self.t.tolist(),
            "p": self.p.tolist(),
            "q": self.q.tolist(),
            "energy": self.energy.tolist(),
            "events": [
                {"time": e.time, "kind": e.kind, "p": e.p, "q": e.q, "energy": e.energy}
                for e in self.events
            ],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "Trajectory":
        data = json.loads(text)
        events = tuple(
            TrajectoryEvent(e["time"], e["kind"], e["p"], e["q"], e["energy"])
            for e in data["events"]
        )
        return cls(
            np.array(data["t"]), np.array(data["p"]), np.array(data["q"]),
            np.array(data["energy"]), events,
        )


def _as_point(x0) -> PhasePoint:
    if isinstance(x0, PhasePoint):
        return x0
    p, q = x0
    return PhasePoint(float(p), float(q))


def hamiltonian_flow(
    H: EnhancedHamiltonian,
    x0,
    t_final: float,
    tol: float = 1e-10,
    n_samples: int = 1000,
    q_floor: float = DEFAULT_Q_FLOOR,
    method: str = "rk45",
    max_step: float | None = None,
    n_steps: int | None = None,
) -> Trajectory:
    """Integrate Hamilton's equations from ``x0`` over ``[0, t_final]``.

    Samples are taken on a uniform grid of ``n_samples`` points (events keep
    their own exact times and states and are stored separately).  For
    half-line Hamiltonians the run stops with a ``singularity_hit`` event
    when ``H.half_line`` (``q``, or ``q`` carried through a relabeling)
    crosses ``q_floor``; a declared label domain stops with
    ``domain_exit``.  Step-size underflow near a collapse is converted into
    the singularity event, at the last accepted step, rather than an
    exception, while non-finite gradients raise :class:`NumericalFailure`.

    ``rk45`` runs :func:`_dormand_prince`, a scalar loop that takes the
    steps of scipy's ``RK45`` and calls ``H.gradient`` once per stage;
    ``leapfrog`` runs :func:`_leapfrog_flow`, ``n_steps`` fixed steps of
    three gradient calls each.  Both return samples and event hits, from
    which the events, energies and trajectory are built here.  ``tol`` must
    be positive and finite, ``n_samples`` an integer of at least 2 and
    ``n_steps``, when given, a positive integer.
    """
    x0 = _as_point(x0)
    if not np.isfinite(t_final) or t_final <= 0:
        raise ValueError("t_final must be positive and finite")
    if not np.isfinite(tol) or tol <= 0:
        raise ValueError("tol must be positive and finite")
    if not _is_integer(n_samples) or n_samples < 2:
        raise ValueError("n_samples must be an integer of at least 2")
    if max_step is not None and not max_step > 0:
        raise ValueError("max_step must be positive")
    if n_steps is not None and (not _is_integer(n_steps) or n_steps < 1):
        raise ValueError("n_steps must be a positive integer")
    if method not in ("rk45", "leapfrog"):
        raise ValueError(f"unknown integrator method {method!r}")
    half_line = H.half_line
    if half_line is not None and half_line(x0.p, x0.q) <= q_floor:
        raise ValueError(f"initial q = {half_line(x0.p, x0.q)} is not above the floor {q_floor}")
    if H.label_domain is not None and H.label_domain(x0.p, x0.q) <= 0:
        raise ValueError("initial point lies outside the Hamiltonian's label domain")

    # (kind, g(p, q), direction, terminal): an event fires where g crosses
    # zero in ``direction``; the bounce's g, None, stands for dq/dt
    events = [("bounce", None, 1.0, False)]
    if half_line is not None:
        events.append(("singularity_hit", lambda p, q: half_line(p, q) - q_floor, -1.0, True))
    if H.label_domain is not None:
        events.append(("domain_exit", H.label_domain, -1.0, True))

    if method == "leapfrog":
        ts, ps, qs, hits, stop = _leapfrog_flow(
            H.gradient, x0.p, x0.q, t_final, n_samples, n_steps, [e[1] for e in events],
            q_floor if H.q_positive else None,
        )
    else:
        ts, ps, qs, hits, stop = _dormand_prince(
            H.gradient, x0.p, x0.q, t_final, tol, tol * 1e-3,
            np.inf if max_step is None else max_step,
            np.linspace(0.0, t_final, n_samples),
            [e[1:] for e in events],
        )

    recorded = [
        TrajectoryEvent(t, events[i][0], p, q, H.evaluate(p, q)) for i, t, p, q in hits
    ]
    if stop is not None:
        # solver gave up (typically step underflow against a collapse)
        t_last, p_last, q_last, message = stop
        if len(ts) == 0:
            raise NumericalFailure(f"integration failed at t = 0: {message}", {})
        if half_line is None:
            raise NumericalFailure(
                f"integration failed at t = {t_last}: {message}",
                {"t": t_last, "p": p_last, "q": q_last},
            )
        recorded.append(
            TrajectoryEvent(t_last, "singularity_hit", p_last, q_last, H.evaluate(p_last, q_last))
        )

    energies = np.array([H.evaluate(p, q) for p, q in zip(ps, qs)])
    recorded.sort(key=lambda e: e.time)
    return Trajectory(ts, ps, qs, energies, tuple(recorded))


def _is_integer(n):
    # Python and numpy integers; bool is an Integral too, but not a count
    return isinstance(n, Integral) and not isinstance(n, bool)


def _not_finite(t, p, q):
    raise NumericalFailure(
        f"gradient is not finite at (p, q) = ({p}, {q})", {"t": t, "p": p, "q": q},
    )


_EPS = float(np.finfo(float).eps)
# step-size control of Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_SQRT2 = math.sqrt(2.0)
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _rms(x, y):
    return math.sqrt(x * x + y * y) / _SQRT2


def _dormand_prince(gradient, p, q, t_final, rtol, atol, max_step, t_eval, events):
    """Integrate ``p' = -dH/dq``, ``q' = dH/dp`` from ``t = 0`` with Python floats.

    ``gradient(p, q)`` returns ``(dH/dp, dH/dq)``.  Each stage calls it
    once, directly, and a non-finite component raises
    :class:`NumericalFailure` naming that stage's ``(p, q)``.  The scheme of
    scipy's ``RK45``, step for step: the same tableau, initial step, RMS
    error norm with scale ``atol + max(|y|, |y_new|) rtol``, step factors,
    give-up below ten ulp of ``t`` and floor on ``rtol``.  ``t_eval``
    samples come from the dense output.  ``events`` are ``(g(p, q),
    direction, terminal)``, where ``g = None`` stands for ``dq/dt``, which a
    stage has at the start and at every step end; an event fires where ``g``
    changes sign in its direction between two step ends, at the Brent root
    of ``g`` on the dense output, and a terminal one ends the run there.

    Returns sample times, ``p`` and ``q`` (lists), event hits
    ``(index, t, p, q)`` and ``None``, or, when the step size underflowed,
    ``(t, p, q, message)`` of the last accepted step.
    """
    isfinite, sqrt, nextafter, inf = math.isfinite, math.sqrt, math.nextafter, math.inf
    # Dormand & Prince (1980) 5(4) pair with the 4th-order dense output of
    # Shampine (1986), as tabulated in scipy's RK45, in locals: stage times c,
    # stage matrix a, 5th-order weights b (b2 = 0), error row e = b - b_hat
    # (stage 7 is first-same-as-last; e2 = 0) and the dense-output columns
    # p2., p3. and p4. for x^2, x^3 and x^4 (p.2 = 0; that for x is stage 1).
    c2, c3, c4, c5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
    a21 = 1 / 5
    a31, a32 = 3 / 40, 9 / 40
    a41, a42, a43 = 44 / 45, -56 / 15, 32 / 9
    a51, a52, a53, a54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
    a61, a62, a63, a64, a65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
    b1, b3, b4, b5, b6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
    e1, e3, e4, e5, e6, e7 = (
        -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
    p21, p23, p24, p25, p26, p27 = (
        -8048581381 / 2820520608, 131558114200 / 32700410799, -1754552775 / 470086768,
        127303824393 / 49829197408, -282668133 / 205662961, 40617522 / 29380423)
    p31, p33, p34, p35, p36, p37 = (
        8663915743 / 2820520608, -68118460800 / 10900136933, 14199869525 / 1410260304,
        -318862633887 / 49829197408, 2019193451 / 616988883, -110615467 / 29380423)
    p41, p43, p44, p45, p46, p47 = (
        -12715105075 / 11282082432, 87487479700 / 32700410799, -10690763975 / 1880347072,
        701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423)

    rtol = max(rtol, 100 * _EPS)
    fq, fp = gradient(p, q)
    if not (isfinite(fp) and isfinite(fq)):
        _not_finite(0.0, p, q)
    fp = -fp

    # initial step
    sp, sq = atol + abs(p) * rtol, atol + abs(q) * rtol
    d0, d1 = _rms(p / sp, q / sq), _rms(fp / sp, fq / sq)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_final)
    ys_p, ys_q = p + h0 * fp, q + h0 * fq
    gq, gp = gradient(ys_p, ys_q)
    if not (isfinite(gp) and isfinite(gq)):
        _not_finite(h0, ys_p, ys_q)
    gp = -gp
    d2 = _rms((gp - fp) / sp, (gq - fq) / sq) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, t_final, max_step)

    g_old = [fq if g is None else g(p, q) for g, _, _ in events]
    t_eval = t_eval.tolist()
    n_eval, i_eval = len(t_eval), 0
    ps, qs, hits = [], [], []
    t = 0.0
    while True:
        min_step = 10 * (nextafter(t, inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return t_eval[:i_eval], ps, qs, hits, (t, p, q, _TOO_SMALL_STEP)
            t_new = t + h_abs
            if t_new > t_final:
                t_new = t_final
            h = t_new - t
            h_abs = h
            # each stage: the stage point (ys_p, ys_q), then k = (-dH/dq, dH/dp) there
            ys_p, ys_q = p + fp * a21 * h, q + fq * a21 * h
            k2q, k2p = gradient(ys_p, ys_q)
            if not (isfinite(k2p) and isfinite(k2q)):
                _not_finite(t + c2 * h, ys_p, ys_q)
            k2p = -k2p
            ys_p = p + (fp * a31 + k2p * a32) * h
            ys_q = q + (fq * a31 + k2q * a32) * h
            k3q, k3p = gradient(ys_p, ys_q)
            if not (isfinite(k3p) and isfinite(k3q)):
                _not_finite(t + c3 * h, ys_p, ys_q)
            k3p = -k3p
            ys_p = p + (fp * a41 + k2p * a42 + k3p * a43) * h
            ys_q = q + (fq * a41 + k2q * a42 + k3q * a43) * h
            k4q, k4p = gradient(ys_p, ys_q)
            if not (isfinite(k4p) and isfinite(k4q)):
                _not_finite(t + c4 * h, ys_p, ys_q)
            k4p = -k4p
            ys_p = p + (fp * a51 + k2p * a52 + k3p * a53 + k4p * a54) * h
            ys_q = q + (fq * a51 + k2q * a52 + k3q * a53 + k4q * a54) * h
            k5q, k5p = gradient(ys_p, ys_q)
            if not (isfinite(k5p) and isfinite(k5q)):
                _not_finite(t + c5 * h, ys_p, ys_q)
            k5p = -k5p
            ys_p = p + (fp * a61 + k2p * a62 + k3p * a63 + k4p * a64 + k5p * a65) * h
            ys_q = q + (fq * a61 + k2q * a62 + k3q * a63 + k4q * a64 + k5q * a65) * h
            k6q, k6p = gradient(ys_p, ys_q)
            if not (isfinite(k6p) and isfinite(k6q)):
                _not_finite(t + h, ys_p, ys_q)
            k6p = -k6p
            p_new = p + h * (fp * b1 + k3p * b3 + k4p * b4 + k5p * b5 + k6p * b6)
            q_new = q + h * (fq * b1 + k3q * b3 + k4q * b4 + k5q * b5 + k6q * b6)
            k7q, k7p = gradient(p_new, q_new)
            if not (isfinite(k7p) and isfinite(k7q)):
                _not_finite(t + h, p_new, q_new)
            k7p = -k7p
            x = (fp * e1 + k3p * e3 + k4p * e4 + k5p * e5 + k6p * e6 + k7p * e7) * h
            y = (fq * e1 + k3q * e3 + k4q * e4 + k5q * e5 + k6q * e6 + k7q * e7) * h
            x /= atol + max(abs(p), abs(p_new)) * rtol
            y /= atol + max(abs(q), abs(q_new)) * rtol
            error = sqrt(x * x + y * y) / _SQRT2
            if error < 1:
                factor = _MAX_FACTOR if error == 0 else min(_MAX_FACTOR, _SAFETY * error ** -0.2)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** -0.2)
            rejected = True

        # one pass over the events: the new values and the sign changes
        g_new, active = [], []
        for i, (g, direction, _) in enumerate(events):
            b = k7q if g is None else g(p_new, q_new)
            a = g_old[i]
            if (a <= 0 <= b and direction > 0) or (a >= 0 >= b and direction < 0):
                active.append(i)
            g_new.append(b)
        t_end, terminate = t_new, False
        if active or (i_eval < n_eval and t_eval[i_eval] <= t_new):
            # the step's quartic interpolant, scipy's RkDenseOutput:
            # y(s) = h (c1 x + c2 x^2 + c3 x^3 + c4 x^4) + y with x = (s - t) / h
            cp2 = fp * p21 + k3p * p23 + k4p * p24 + k5p * p25 + k6p * p26 + k7p * p27
            cp3 = fp * p31 + k3p * p33 + k4p * p34 + k5p * p35 + k6p * p36 + k7p * p37
            cp4 = fp * p41 + k3p * p43 + k4p * p44 + k5p * p45 + k6p * p46 + k7p * p47
            cq2 = fq * p21 + k3q * p23 + k4q * p24 + k5q * p25 + k6q * p26 + k7q * p27
            cq3 = fq * p31 + k3q * p33 + k4q * p34 + k5q * p35 + k6q * p36 + k7q * p37
            cq4 = fq * p41 + k3q * p43 + k4q * p44 + k5q * p45 + k6q * p46 + k7q * p47
        if active:
            found, t_stop = _event_roots(events, active, gradient,
                                         (t, p, q, t_new, p_new, q_new, k7q),
                                         (fp, cp2, cp3, cp4), (fq, cq2, cq3, cq4))
            hits += found
            if t_stop is not None:
                t_end, terminate = t_stop, True

        while i_eval < n_eval and t_eval[i_eval] <= t_end:
            x = (t_eval[i_eval] - t) / h
            x2 = x * x
            x3 = x2 * x
            x4 = x3 * x
            ps.append(h * (fp * x + cp2 * x2 + cp3 * x3 + cp4 * x4) + p)
            qs.append(h * (fq * x + cq2 * x2 + cq3 * x3 + cq4 * x4) + q)
            i_eval += 1

        if terminate or t_new >= t_final:
            return t_eval[:i_eval], ps, qs, hits, None
        t, p, q, fp, fq, g_old = t_new, p_new, q_new, k7p, k7q, g_new


def _event_roots(events, active, gradient, step, cp, cq):
    """Brent roots of the ``active`` events of :func:`_dormand_prince` in a step.

    ``step`` is ``(t, p, q)`` at its start and end and ``dq/dt`` at its end;
    ``cp`` and ``cq`` are its dense-output coefficients, those of the sample
    loop, so ``cq[0]`` is ``dq/dt`` at its start.  Returns the hits
    ``(index, t, p, q)`` and, when one of them is terminal, the time of the
    first terminal root, the hits after it dropped (otherwise ``None``).
    """
    t_old, p_old, q_old, t_new, p_new, q_new, qdot_new = step
    h = t_new - t_old  # the step, as the loop computed it

    def dense(s):
        x = (s - t_old) / h
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        return (h * (cp[0] * x + cp[1] * x2 + cp[2] * x3 + cp[3] * x4) + p_old,
                h * (cq[0] * x + cq[1] * x2 + cq[2] * x3 + cq[3] * x4) + q_old)

    def rate(p, q):
        # where the interpolant meets a step end, a stage has dq/dt already
        if p == p_old and q == q_old:
            return cq[0]
        return qdot_new if p == p_new and q == q_new else gradient(p, q)[0]

    found = [
        (brentq(lambda s, g=events[i][0] or rate: g(*dense(s)), t_old, t_new,
                xtol=4 * _EPS, rtol=4 * _EPS), i)
        for i in active
    ]
    t_stop = None
    if any(events[i][2] for i in active):
        # events up to and including the first terminal one, in time order
        found.sort()
        first = next(k for k, (_, i) in enumerate(found) if events[i][2])
        found = found[: first + 1]
        t_stop = found[-1][0]
    return [(i, root, *dense(root)) for root, i in found], t_stop


def _leapfrog_flow(gradient, p, q, t_final, n_samples, n_steps, events, q_floor):
    """Kick-drift-kick with the call and return of :func:`_dormand_prince`.

    Symplectic only when H is separable, the contract of this backend.  The
    ``events`` are the flow's ``g``, the bounce's (``None``) first: a terminal
    one ends the run at the first step end where ``g <= 0``, with ``q``
    raised to ``q_floor`` if given; a bounce is a step end where ``dq/dt``
    turns nonnegative, whose gradient also serves the next kick.
    """
    if n_steps is None:
        n_steps = max(20 * n_samples, 10000)
    dt = t_final / n_steps
    stride = max(1, n_steps // (n_samples - 1))
    terminal = list(enumerate(events))[1:]
    ts, ps, qs, hits = [0.0], [p], [q], []
    prev_qdot, dh_dq = gradient(p, q)
    for k in range(1, n_steps + 1):
        p -= 0.5 * dt * dh_dq
        q += dt * gradient(p, q)[0]
        p -= 0.5 * dt * gradient(p, q)[1]
        t = k * dt
        for i, g in terminal:
            if g(p, q) <= 0:
                hits.append((i, t, p, q if q_floor is None else max(q, q_floor)))
                return ts, ps, qs, hits, None
        qdot, dh_dq = gradient(p, q)
        if prev_qdot < 0.0 <= qdot:
            hits.append((0, t, p, q))
        prev_qdot = qdot
        if k % stride == 0 or k == n_steps:
            if t > ts[-1]:
                ts.append(t)
                ps.append(p)
                qs.append(q)
    return ts, ps, qs, hits, None


# ---------------------------------------------------------------------------
# Canonical transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalTransform:
    """A forward/inverse relabeling pair with optional generator check.

    ``forward`` maps ``(p, q)`` to ``(p~, q~)``; ``generator``, when given,
    is the function of the new labels whose endpoint difference accounts for
    ``integral(p dq) - integral(p~ dq~)``.  ``jacobian``, when given, returns
    the 2x2 Jacobian of ``forward`` and is used for exact chain-rule
    gradients of transformed Hamiltonians.
    """

    forward: object
    inverse: object
    generator: object = None
    jacobian: object = None
    name: str = ""

    def check_on(self, points):
        """Verify round trip and unit Jacobian determinant on sample points."""
        for pt in points:
            p, q = pt.p, pt.q
            pt2, qt2 = self.forward(p, q)
            p2, q2 = self.inverse(pt2, qt2)
            err = max(abs(p2 - p), abs(q2 - q))
            scale = max(1.0, abs(p), abs(q))
            if err > _TRANSFORM_ROUNDTRIP_TOL * scale:
                raise InvalidTransformError(
                    f"inverse mismatch at (p, q) = ({p}, {q}): round-trip error {err:.3e}"
                )
            det = np.linalg.det(self._jacobian_at(p, q))
            if abs(det - 1.0) > _TRANSFORM_JACOBIAN_TOL:
                raise InvalidTransformError(
                    f"transform does not preserve dp^dq at ({p}, {q}): det J = {det!r}"
                )

    def _jacobian_at(self, p, q):
        if self.jacobian is not None:
            return np.asarray(self.jacobian(p, q), dtype=float)
        hp = 1e-6 * max(1.0, abs(p))
        hq = 1e-6 * max(1.0, abs(q))
        fp = np.array(self.forward(p + hp, q)) - np.array(self.forward(p - hp, q))
        fq = np.array(self.forward(p, q + hq)) - np.array(self.forward(p, q - hq))
        return np.column_stack([fp / (2 * hp), fq / (2 * hq)])


def rotation_transform() -> CanonicalTransform:
    """Quarter-turn relabeling ``(p~, q~) = (-q, p)`` with generator ``-p~ q~``."""
    return CanonicalTransform(
        forward=lambda p, q: (-q, p),
        inverse=lambda pt, qt: (qt, -pt),
        generator=lambda pt, qt: -pt * qt,
        jacobian=lambda p, q: ((0.0, -1.0), (1.0, 0.0)),
        name="rotation",
    )


def scaling_transform(lam: float) -> CanonicalTransform:
    """Area-preserving scaling ``(p~, q~) = (lam p, q / lam)``; generator zero."""
    if lam == 0:
        raise ValueError("scaling factor must be nonzero")
    return CanonicalTransform(
        forward=lambda p, q: (lam * p, q / lam),
        inverse=lambda pt, qt: (pt / lam, lam * qt),
        generator=lambda pt, qt: 0.0,
        jacobian=lambda p, q: ((lam, 0.0), (0.0, 1.0 / lam)),
        name=f"scaling({lam})",
    )


def apply_transform(tr: CanonicalTransform, obj):
    """Relabel a phase point or a whole trajectory; no state-level change.

    The transform's invariants (round trip, unit Jacobian) are verified on
    the object's support and an :class:`InvalidTransformError` is raised if
    they fail.
    """
    if isinstance(obj, PhasePoint):
        tr.check_on([obj])
        pt, qt = tr.forward(obj.p, obj.q)
        return PhasePoint(float(pt), float(qt), obj.t)
    if isinstance(obj, Trajectory):
        support = list(obj.points())
        probe = support[:: max(1, len(support) // 16)]
        tr.check_on(probe)
        pts = np.array([tr.forward(p, q) for p, q in zip(obj.p, obj.q)])
        events = tuple(
            TrajectoryEvent(e.time, e.kind, *map(float, tr.forward(e.p, e.q)), e.energy)
            for e in obj.events
        )
        return Trajectory(obj.t, pts[:, 0], pts[:, 1], obj.energy, events)
    raise TypeError(f"cannot transform object of type {type(obj).__name__}")


def transform_hamiltonian(H: EnhancedHamiltonian, tr: CanonicalTransform) -> EnhancedHamiltonian:
    """Express ``H`` in the new labels: ``H~(p~, q~) = H(p, q)``.

    The gradient uses the exact chain rule when the transform carries a
    Jacobian (a singular Jacobian raises :class:`InvalidTransformError`),
    otherwise finite differences of the composite.  The label domain and
    the half-line coordinate are composed through the inverse map, so a
    relabeled half-line flow still ends in ``singularity_hit``.
    """

    def evaluate(pt, qt):
        return H.evaluate(*tr.inverse(pt, qt))

    gradient = None
    if tr.jacobian is not None:
        def gradient(pt, qt):
            # grad~ = J^-T grad with J = ((a, b), (c, d)), the Jacobian of forward
            p, q = tr.inverse(pt, qt)
            gp, gq = H.gradient(p, q)
            (a, b), (c, d) = tr.jacobian(p, q)
            det = a * d - b * c
            if det == 0:
                raise InvalidTransformError(f"transform Jacobian is singular at ({p}, {q})")
            return (d * gp - c * gq) / det, (a * gq - b * gp) / det

    label_domain = None
    if H.label_domain is not None:
        def label_domain(pt, qt):
            return H.label_domain(*tr.inverse(pt, qt))

    ham = EnhancedHamiltonian(evaluate, gradient, hbar=H.hbar, label_domain=label_domain)
    if H.half_line is not None:
        ham.half_line = lambda pt, qt: H.half_line(*tr.inverse(pt, qt))
    return ham


# ---------------------------------------------------------------------------
# Action functionals
# ---------------------------------------------------------------------------

def line_integral_p_dq(trajectory: Trajectory) -> float:
    """Trapezoid value of ``integral p dq`` along the samples."""
    p, q = trajectory.p, trajectory.q
    return float(np.sum(0.5 * (p[1:] + p[:-1]) * np.diff(q)))


def _time_derivative(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    # Fourth-order interior stencil on a uniform grid, third-order one-sided
    # stencils at the edges.
    n = y.size
    if n < 6:
        return np.gradient(y, t, edge_order=2)
    dt = t[1] - t[0]
    if np.max(np.abs(np.diff(t) - dt)) > 1e-9 * abs(dt):
        return np.gradient(y, t, edge_order=2)
    out = np.empty_like(y)
    out[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * dt)
    for i in (0, 1):
        out[i] = (-11 * y[i] + 18 * y[i + 1] - 9 * y[i + 2] + 2 * y[i + 3]) / (6 * dt)
    for i in (n - 2, n - 1):
        out[i] = (11 * y[i] - 18 * y[i - 1] + 9 * y[i - 2] - 2 * y[i - 3]) / (6 * dt)
    return out


def restricted_action_value(H: EnhancedHamiltonian, trajectory: Trajectory) -> float:
    """Quadrature of ``integral [p qdot - H(p, q)] dt`` over the samples.

    ``H`` is evaluated at each sample and ``qdot`` is obtained by
    differentiating the sampled ``q(t)``, so the value is meaningful for
    perturbed (off-shell) label histories as well, whatever their
    ``energy`` column holds; along true orbits the value is first-order
    stationary against smooth perturbations vanishing at the endpoints.
    """
    if len(trajectory) < 16:
        raise ValueError("trajectory is sampled too sparsely for quadrature (need >= 16 samples)")
    qdot = _time_derivative(trajectory.q, trajectory.t)
    energy = np.array([H.evaluate(p, q) for p, q in zip(trajectory.p, trajectory.q)])
    integrand = trajectory.p * qdot - energy
    return float(np.trapezoid(integrand, trajectory.t))


@dataclass(frozen=True)
class TransformActionReport:
    """Comparison of ``integral p dq`` across a relabeling."""

    integral_original: float
    integral_transformed: float
    generator_difference: float | None
    residual: float


def verify_transform_action(tr: CanonicalTransform, trajectory: Trajectory) -> TransformActionReport:
    """Check ``integral p dq - integral p~ dq~`` against the generator.

    With a generator supplied the difference must equal its endpoint
    difference; without one the two loop integrals are compared directly,
    which is valid on (numerically) closed orbits.
    """
    transformed = apply_transform(tr, trajectory)
    i1 = line_integral_p_dq(trajectory)
    i2 = line_integral_p_dq(transformed)
    if tr.generator is not None:
        g_end = tr.generator(transformed.p[-1], transformed.q[-1])
        g_start = tr.generator(transformed.p[0], transformed.q[0])
        delta = float(g_end - g_start)
        return TransformActionReport(i1, i2, delta, float((i1 - i2) - delta))
    return TransformActionReport(i1, i2, None, float(i1 - i2))
