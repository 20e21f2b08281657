"""Hamiltonian flows in label space, canonical relabelings, and action values.

The equations of motion are ``dq/dt = dH/dp``, ``dp/dt = -dH/dq`` for an
:class:`~enhq.correspondence.EnhancedHamiltonian`.  The one adaptive
integrator is an embedded Runge-Kutta 5(4) pair; a fixed-step leapfrog is
the cross-check for separable Hamiltonians, and :func:`hamiltonian_flow`
assembles the trajectory from either.  Flows on the half line, relabeled or
not, stop with a ``singularity_hit`` event when ``q`` falls below a
configurable floor, and local minima of ``q`` are annotated as ``bounce``
events.

Canonical coordinate transformations are user-supplied forward/inverse pairs
with the Jacobian of the forward map; the library verifies them (round trip
and unit Jacobian) rather than deriving generators.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from numbers import Integral

import numpy as np
# unused here, but perfbench/tracer.py wraps enhq.dynamics.solve_ivp by name
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .correspondence import EnhancedHamiltonian
from .errors import DomainError, InvalidTransformError, NumericalFailure

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

    def to_csv(self, header_lines=()) -> str:
        """The ``t,p,q,H,event`` rows, event rows merged in time order, under ``# `` header lines."""
        rows = [(float(t), float(p), float(q), float(e), "") for t, p, q, e in
                zip(self.t, self.p, self.q, self.energy)]
        for ev in self.events:
            rows.append((ev.time, ev.p, ev.q, ev.energy, ev.kind))
        rows.sort(key=lambda r: (r[0], r[4]))
        lines = [*(f"# {line}" for line in header_lines), "t,p,q,H,event"]
        lines.extend(f"{t!r},{p!r},{q!r},{e!r},{kind}" for t, p, q, e, kind in rows)
        return "\n".join(lines) + "\n"

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
    tol: float | None = None,
    n_samples: int = 1000,
    q_floor: float = DEFAULT_Q_FLOOR,
    method: str = "rk45",
    n_steps: int | None = None,
) -> Trajectory:
    """Integrate Hamilton's equations from ``x0`` over ``[0, t_final]``.

    Samples are taken on a uniform grid of ``n_samples`` points (events keep
    their own exact times and states and are stored separately).  For
    half-line Hamiltonians the run stops with a ``singularity_hit`` event
    where the margin ``H.half_line - q_floor`` (``q``, or ``q`` carried
    through a relabeling) reaches zero, and a declared label domain, the
    other margin, stops with ``domain_exit``.  Where an integrator cannot
    continue it reports one stop, ``(t, p, q, cause)``, mapped here: a
    gradient that raises :class:`DomainError` (a stage or kick past a spin
    pole) ends the run in ``domain_exit`` where a label domain is declared
    and is re-raised where none is; step-size underflow near a collapse
    ends a half-line run in ``singularity_hit`` and raises
    :class:`NumericalFailure` otherwise.  Non-finite gradients raise
    :class:`NumericalFailure`.

    ``rk45`` runs :func:`_dormand_prince`, a scalar loop that takes the
    steps of scipy's ``RK45``, calls the gradient once per stage and
    evaluates all samples in one numpy pass after the loop; ``leapfrog``
    runs :func:`_leapfrog_flow`, ``n_steps`` fixed steps of three gradient
    calls each, sampled at the step ends nearest the uniform grid.  Both
    call the Hamiltonian's stored callables (``H._gradient``,
    ``H._evaluate``), not the methods that convert each value to ``float``,
    and return the samples as float64 arrays, the event hits and the stop,
    from which the events, energies and trajectory are built here; events and
    energies are evaluated on Python floats.  ``tol`` (rk45 only, by
    default ``1e-10``) and ``q_floor`` must be positive and finite,
    ``n_samples`` an integer of at least 2 and ``n_steps`` (leapfrog only),
    when given, a positive integer of at least ``n_samples - 1``.  A ``tol``
    given to the leapfrog or an ``n_steps`` given to rk45 raises
    :class:`ValueError` rather than being ignored.
    """
    x0 = _as_point(x0)
    if not np.isfinite(t_final) or t_final <= 0:
        raise ValueError("t_final must be positive and finite")
    if tol is not None and (not np.isfinite(tol) or tol <= 0):
        raise ValueError("tol must be positive and finite")
    if not np.isfinite(q_floor) or q_floor <= 0:
        raise ValueError("q_floor must be positive and finite")
    if not _is_integer(n_samples) or n_samples < 2:
        raise ValueError("n_samples must be an integer of at least 2")
    if n_steps is not None and (not _is_integer(n_steps) or n_steps < 1):
        raise ValueError("n_steps must be a positive integer")
    if method not in ("rk45", "leapfrog"):
        raise ValueError(f"unknown integrator method {method!r}")
    if method == "leapfrog" and n_steps is not None and n_steps < n_samples - 1:
        raise ValueError(f"n_steps = {n_steps} is fewer than n_samples - 1 = {n_samples - 1}")
    if method == "leapfrog" and tol is not None:
        raise ValueError("tol applies to rk45 only; the leapfrog takes n_steps")
    if method == "rk45" and n_steps is not None:
        raise ValueError("n_steps applies to the leapfrog only; rk45 takes tol")
    half_line = H.half_line
    if half_line is not None and half_line(x0.p, x0.q) <= q_floor:
        raise ValueError(f"initial q = {half_line(x0.p, x0.q)} is not above the floor {q_floor}")
    if H.label_domain is not None and H.label_domain(x0.p, x0.q) <= 0:
        raise ValueError("initial point lies outside the Hamiltonian's label domain")

    # hit 0 is a bounce and hit i >= 1 the end at margins[i - 1], of kinds[i]
    kinds, margins = ["bounce"], []
    if half_line is not None:
        # the half line proper, whose half_line is q itself, tests q directly
        kinds.append("singularity_hit")
        margins.append((lambda p, q: q - q_floor) if H.q_positive
                       else (lambda p, q: half_line(p, q) - q_floor))
    if H.label_domain is not None:
        kinds.append("domain_exit")
        margins.append(H.label_domain)

    gradient, evaluate = H._gradient, H._evaluate
    if method == "leapfrog":
        ts, ps, qs, hits, stop = _leapfrog_flow(
            gradient, x0.p, x0.q, t_final, n_samples, n_steps, margins,
            q_floor if H.q_positive else None,
        )
    else:
        tol = 1e-10 if tol is None else tol
        ts, ps, qs, hits, stop = _dormand_prince(
            gradient, x0.p, x0.q, t_final, tol, tol * 1e-3,
            np.linspace(0.0, t_final, n_samples), margins,
        )

    def event(kind, t, p, q):
        p, q = float(p), float(q)
        return TrajectoryEvent(float(t), kind, p, q, float(evaluate(p, q)))

    recorded = [event(kinds[i], t, p, q) for i, t, p, q in hits]
    if stop is not None:
        # the solver could not continue: a gradient raised DomainError (the
        # edge of a declared domain), or the step size underflowed (a
        # collapse, on a half line)
        t_last, p_last, q_last = map(float, stop[:3])
        cause = stop[3]
        kind = "domain_exit" if isinstance(cause, DomainError) else "singularity_hit"
        if kind == "domain_exit" and H.label_domain is None:
            raise cause
        if len(ts) == 0:
            raise NumericalFailure(f"integration failed at t = 0: {cause}", {})
        if kind == "singularity_hit" and half_line is None:
            raise NumericalFailure(
                f"integration failed at t = {t_last}: {cause}",
                {"t": t_last, "p": p_last, "q": q_last},
            )
        recorded.append(event(kind, t_last, p_last, q_last))

    # Python floats, not numpy scalars: label functions are scalar code
    energies = np.array([evaluate(p, q) for p, q in zip(ps.tolist(), qs.tolist())], dtype=float)
    recorded.sort(key=lambda e: e.time)
    return Trajectory(ts, ps, qs, energies, tuple(recorded))


def _is_integer(n):
    # Python and numpy integers; bool is an Integral too, but not a count
    return isinstance(n, Integral) and not isinstance(n, bool)


def _check_finite(t, p, q, a, b):
    # the slow path of the stage test: the difference of two finite rates
    # can overflow, so only a rate that is itself not finite raises
    if not (math.isfinite(a) and math.isfinite(b)):
        t, p, q = float(t), float(p), float(q)
        raise NumericalFailure(
            f"gradient is not finite at (p, q) = ({p}, {q})", {"t": t, "p": p, "q": q},
        )


def _double_rates(gradient, p, q):
    """The gradient at the start ``(p, q)`` and the callable to go on with.

    The integrators compute with the rates as they come.  Python floats and
    numpy float64 keep that arithmetic in double precision; a gradient that
    returns anything else (an int, a float32) is wrapped so that every rate
    is converted to ``float``, as the first one is.
    """
    a, b = gradient(p, q)
    if isinstance(a, float) and isinstance(b, float):
        return gradient, a, b

    def converted(p, q):
        a, b = gradient(p, q)
        return float(a), float(b)

    return converted, float(a), float(b)


_EPS = float(np.finfo(float).eps)
# step-size control of Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_SQRT2 = math.sqrt(2.0)
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
# The 4th-order dense output of Shampine (1986) for the Dormand-Prince pair,
# scipy's RK45.P by columns: the coefficients of x^2, x^3 and x^4 on the
# rates of stages 1, 3, 4, 5, 6 and 7 (stage 2's are 0; that of x is stage 1)
_DENSE = (
    (-8048581381 / 2820520608, 131558114200 / 32700410799, -1754552775 / 470086768,
     127303824393 / 49829197408, -282668133 / 205662961, 40617522 / 29380423),
    (8663915743 / 2820520608, -68118460800 / 10900136933, 14199869525 / 1410260304,
     -318862633887 / 49829197408, 2019193451 / 616988883, -110615467 / 29380423),
    (-12715105075 / 11282082432, 87487479700 / 32700410799, -10690763975 / 1880347072,
     701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423),
)


def _rms(x, y):
    return math.sqrt(x * x + y * y) / _SQRT2


def _quartic(f, k3, k4, k5, k6, k7):
    """The x^2, x^3 and x^4 coefficients of a step's dense output.

    The arguments are the rates of stages 1 and 3-7 of one component, as
    floats or as arrays over steps; each sum runs left to right, so floats
    and array elements agree bit for bit.
    """
    return [f * c1 + k3 * c3 + k4 * c4 + k5 * c5 + k6 * c6 + k7 * c7
            for c1, c3, c4, c5, c6, c7 in _DENSE]


def _interpolate(s, t, h, y, c1, c2, c3, c4):
    # the step's quartic, scipy's RkDenseOutput:
    # y(s) = h (c1 x + c2 x^2 + c3 x^3 + c4 x^4) + y with x = (s - t) / h
    x = (s - t) / h
    x2 = x * x
    x3 = x2 * x
    x4 = x3 * x
    return h * (c1 * x + c2 * x2 + c3 * x3 + c4 * x4) + y


def _dormand_prince(gradient, p, q, t_final, rtol, atol, t_eval, margins):
    """Integrate ``p' = -dH/dq``, ``q' = dH/dp`` from ``t = 0`` with Python floats.

    ``gradient(p, q)`` returns ``(dH/dp, dH/dq)``.  Each stage calls it
    once, directly (rates that are not floats are converted, see
    :func:`_double_rates`), and a non-finite component raises
    :class:`NumericalFailure` naming that stage's ``(p, q)``.  The scheme of
    scipy's ``RK45``: the same tableau, initial step, RMS error norm with
    scale ``atol + max(|y|, |y_new|) rtol``, step factors, give-up below ten
    ulp of ``t`` and floor on ``rtol``.  It takes scipy's steps one for one
    where roundoff does not decide a step's acceptance: the stage sum is
    added in another order than scipy's ``K.T @ B``, so a state can differ
    in its last bit, and a plunge toward the half-line floor can amplify
    that into another accepted step (at ``rtol`` 1e-3 the classical
    hydrogen collapses take one step more than scipy).  ``t_eval``
    samples come from the dense output: the loop only records each step
    that holds samples, at most one per sample, and :func:`_samples`
    evaluates them all in one pass at the end.  An event is found at a step
    end and placed at the Brent root on the dense output.  Event 0 is the
    bounce, ``dq/dt`` turning nonnegative, which a stage has at the start
    and at every step end.  Event ``i >= 1`` ends the run where
    ``margins[i - 1](p, q)``, positive at the start, reaches zero.

    Returns sample times, ``p`` and ``q`` (float64 arrays), event hits
    ``(index, t, p, q)`` and the stop: ``None``, or, when the step size
    underflowed or a gradient raised :class:`DomainError`, ``(t, p, q,
    cause)`` of the last accepted step, the cause a message or the error.
    """
    sqrt, nextafter, inf = math.sqrt, math.nextafter, math.inf
    sqrt2, safety, min_factor, max_factor = _SQRT2, _SAFETY, _MIN_FACTOR, _MAX_FACTOR
    # Dormand & Prince (1980) 5(4) pair, as tabulated in scipy's RK45, in
    # locals: stage times c, stage matrix a, 5th-order weights b (b2 = 0) and
    # error row e = b - b_hat (stage 7 is first-same-as-last; e2 = 0)
    c2, c3, c4, c5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
    a21 = 1 / 5
    a31, a32 = 3 / 40, 9 / 40
    a41, a42, a43 = 44 / 45, -56 / 15, 32 / 9
    a51, a52, a53, a54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
    a61, a62, a63, a64, a65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
    b1, b3, b4, b5, b6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
    e1, e3, e4, e5, e6, e7 = (
        -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)

    rtol = max(rtol, 100 * _EPS)
    gradient, fq, fp = _double_rates(gradient, p, q)
    # one difference tests both rates: d - d is 0 when d is finite, nan
    # otherwise (and nan is true)
    d = fp - fq
    if d - d:
        _check_finite(0.0, p, q, fp, fq)
    fp = -fp
    t_eval = t_eval.tolist()
    n_eval, i_eval = len(t_eval), 0
    t_next = t_eval[0] if n_eval else inf
    # per step holding samples: (t, h, p, q), the p rates of stages 1 and
    # 3-7, the q rates, and how many samples it holds
    steps, counts, hits = [], [], []
    t = 0.0

    # initial step
    sp, sq = atol + abs(p) * rtol, atol + abs(q) * rtol
    d0, d1 = _rms(p / sp, q / sq), _rms(fp / sp, fq / sq)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_final)
    if h0 == 0.0:
        # finite rates whose scaled norm d1 overflows: scipy's first step
        # overflows with them and shrinks below ten ulp of t = 0
        return (*_samples(t_eval, steps, counts), hits, (t, p, q, _TOO_SMALL_STEP))
    try:
        ys_p, ys_q = p + h0 * fp, q + h0 * fq
        gq, gp = gradient(ys_p, ys_q)
        d = gp - gq
        if d - d:
            _check_finite(h0, ys_p, ys_q, gp, gq)
        gp = -gp
        d2 = _rms((gp - fp) / sp, (gq - fq) / sq) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.2
        h_abs = min(100 * h0, h1, t_final)

        while True:
            min_step = 10 * (nextafter(t, inf) - t)
            if h_abs < min_step:
                h_abs = min_step
            rejected = False
            while True:
                if h_abs < min_step:
                    return (*_samples(t_eval, steps, counts), hits, (t, p, q, _TOO_SMALL_STEP))
                t_new = t + h_abs
                if t_new > t_final:
                    t_new = t_final
                h = t_new - t
                h_abs = h
                # each stage: the stage point (ys_p, ys_q), then k = (-dH/dq, dH/dp)
                # there, with its finiteness test
                ys_p, ys_q = p + fp * a21 * h, q + fq * a21 * h
                k2q, k2p = gradient(ys_p, ys_q)
                d = k2p - k2q
                if d - d:
                    _check_finite(t + c2 * h, ys_p, ys_q, k2p, k2q)
                k2p = -k2p
                ys_p = p + (fp * a31 + k2p * a32) * h
                ys_q = q + (fq * a31 + k2q * a32) * h
                k3q, k3p = gradient(ys_p, ys_q)
                d = k3p - k3q
                if d - d:
                    _check_finite(t + c3 * h, ys_p, ys_q, k3p, k3q)
                k3p = -k3p
                ys_p = p + (fp * a41 + k2p * a42 + k3p * a43) * h
                ys_q = q + (fq * a41 + k2q * a42 + k3q * a43) * h
                k4q, k4p = gradient(ys_p, ys_q)
                d = k4p - k4q
                if d - d:
                    _check_finite(t + c4 * h, ys_p, ys_q, k4p, k4q)
                k4p = -k4p
                ys_p = p + (fp * a51 + k2p * a52 + k3p * a53 + k4p * a54) * h
                ys_q = q + (fq * a51 + k2q * a52 + k3q * a53 + k4q * a54) * h
                k5q, k5p = gradient(ys_p, ys_q)
                d = k5p - k5q
                if d - d:
                    _check_finite(t + c5 * h, ys_p, ys_q, k5p, k5q)
                k5p = -k5p
                ys_p = p + (fp * a61 + k2p * a62 + k3p * a63 + k4p * a64 + k5p * a65) * h
                ys_q = q + (fq * a61 + k2q * a62 + k3q * a63 + k4q * a64 + k5q * a65) * h
                k6q, k6p = gradient(ys_p, ys_q)
                d = k6p - k6q
                if d - d:
                    _check_finite(t + h, ys_p, ys_q, k6p, k6q)
                k6p = -k6p
                p_new = p + h * (fp * b1 + k3p * b3 + k4p * b4 + k5p * b5 + k6p * b6)
                q_new = q + h * (fq * b1 + k3q * b3 + k4q * b4 + k5q * b5 + k6q * b6)
                k7q, k7p = gradient(p_new, q_new)
                d = k7p - k7q
                if d - d:
                    _check_finite(t + h, p_new, q_new, k7p, k7q)
                k7p = -k7p
                x = (fp * e1 + k3p * e3 + k4p * e4 + k5p * e5 + k6p * e6 + k7p * e7) * h
                y = (fq * e1 + k3q * e3 + k4q * e4 + k5q * e5 + k6q * e6 + k7q * e7) * h
                # the scale atol + max(|y|, |y_new|) rtol of each component
                a, b = p if p > 0 else -p, p_new if p_new > 0 else -p_new
                x /= atol + (b if b > a else a) * rtol
                a, b = q if q > 0 else -q, q_new if q_new > 0 else -q_new
                y /= atol + (b if b > a else a) * rtol
                error = sqrt(x * x + y * y) / sqrt2
                if error < 1:
                    # min(max_factor, safety error^-1/5), and no growth after a
                    # rejected step
                    factor = safety * error ** -0.2 if error else max_factor
                    cap = 1.0 if rejected else max_factor
                    h_abs *= cap if factor > cap else factor
                    break
                factor = safety * error ** -0.2
                h_abs *= factor if factor > min_factor else min_factor
                rejected = True

            # a bounce needs dq/dt at the step start, fq, strictly negative, so
            # a dq/dt that stays at 0 (at rest) never fires; every margin was
            # positive at the step start, or the run would have ended there
            active = [0] if fq < 0 <= k7q else []
            for i, margin in enumerate(margins, 1):
                if margin(p_new, q_new) <= 0:
                    active.append(i)
            t_end, terminate = t_new, False
            if active:
                found, t_stop = _event_roots(margins, active, gradient,
                                             (t, p, q, t_new, p_new, q_new, k7q),
                                             (fp, *_quartic(fp, k3p, k4p, k5p, k6p, k7p)),
                                             (fq, *_quartic(fq, k3q, k4q, k5q, k6q, k7q)))
                hits += found
                if t_stop is not None:
                    t_end, terminate = t_stop, True

            if t_next <= t_end:
                i_next = bisect_right(t_eval, t_end, i_eval)
                steps.append((t, h, p, q, fp, k3p, k4p, k5p, k6p, k7p, fq, k3q, k4q, k5q, k6q, k7q))
                counts.append(i_next - i_eval)
                i_eval = i_next
                t_next = t_eval[i_eval] if i_eval < n_eval else inf

            if terminate or t_new >= t_final:
                return (*_samples(t_eval, steps, counts), hits, None)
            t, p, q, fp, fq = t_new, p_new, q_new, k7p, k7q
    except DomainError as exc:
        # a stage (or a bounce search) left the domain: stop at the last accepted step
        return (*_samples(t_eval, steps, counts), hits, (t, p, q, exc))


def _samples(t_eval, steps, counts):
    """The samples of :func:`_dormand_prince`, from the steps it recorded.

    ``steps[j]`` is ``(t, h, p, q)`` and the stage rates of the ``j``-th
    step that holds samples, as the loop records it, and ``counts[j]`` the
    number of the next ``t_eval`` it holds.  Each step's quartic is formed
    once and all samples are evaluated in one numpy pass, in the loop's
    operation order, so they equal the scalar values bit for bit.  Returns
    the sample times, ``p`` and ``q`` as float64 arrays.
    """
    n = sum(counts)
    s = np.array(t_eval[:n])
    if n == 0:
        return s, np.empty(0), np.empty(0)
    m = len(steps)
    t, h, p, q, *k = np.fromiter(chain.from_iterable(steps), float, 16 * m).reshape(m, 16).T
    t, h, p, fp, c2, c3, c4, q, fq, d2, d3, d4 = np.repeat(
        np.array([t, h, p, k[0], *_quartic(*k[:6]), q, k[6], *_quartic(*k[6:])]), counts, axis=1)
    return s, _interpolate(s, t, h, p, fp, c2, c3, c4), _interpolate(s, t, h, q, fq, d2, d3, d4)


def _event_roots(margins, active, gradient, step, cp, cq):
    """Brent roots of the ``active`` events of :func:`_dormand_prince` in a step.

    Event 0 is the root of ``dq/dt``, event ``i >= 1`` that of ``margins[i - 1]``.
    ``step`` is ``(t, p, q)`` at its start and end and ``dq/dt`` at its end;
    ``cp`` and ``cq`` are its dense-output coefficients, those of the sample
    pass, so ``cq[0]`` is ``dq/dt`` at its start.  Returns the hits
    ``(index, t, p, q)`` and, when a margin is among them, the time of the
    first margin root, the hits after it dropped (otherwise ``None``).
    """
    t_old, p_old, q_old, t_new, p_new, q_new, qdot_new = step
    h = t_new - t_old  # the step, as the loop computed it

    def dense(s):
        return (_interpolate(s, t_old, h, p_old, *cp), _interpolate(s, t_old, h, q_old, *cq))

    def rate(p, q):
        # where the interpolant meets a step end, a stage has dq/dt already
        if p == p_old and q == q_old:
            return cq[0]
        return qdot_new if p == p_new and q == q_new else gradient(p, q)[0]

    found = [
        (brentq(lambda s, g=margins[i - 1] if i else rate: g(*dense(s)), t_old, t_new,
                xtol=4 * _EPS, rtol=4 * _EPS), i)
        for i in active
    ]
    t_stop = None
    if active[-1]:
        # a margin fired (active runs in index order): the events up to and
        # including the first margin root, in time order
        found.sort()
        first = next(k for k, (_, i) in enumerate(found) if i)
        found = found[: first + 1]
        t_stop = found[-1][0]
    return [(i, root, *dense(root)) for root, i in found], t_stop


def _leapfrog_flow(gradient, p, q, t_final, n_samples, n_steps, margins, q_floor):
    """Kick-drift-kick with the call and return of :func:`_dormand_prince`.

    Symplectic only when H is separable, the contract of this backend.  The
    ``margins`` are those of :func:`_dormand_prince`: ``margins[i - 1]`` ends
    the run, as event ``i``, at the first step end where it is ``<= 0``.  Its
    hit takes that step end's time and state, with ``q`` raised to ``q_floor``
    when given (a plain half line); without one (a relabeled half line, a
    label domain) it takes the state of the step end before, the last
    inside, where the Hamiltonian is still defined.  A gradient that raises
    :class:`DomainError` within a step (a kick past a spin pole) is the
    stop ``(t, p, q, error)`` with the same time and state.  A bounce is a
    step end where ``dq/dt`` turns nonnegative, whose gradient also serves
    the next kick.
    Each gradient is tested for finiteness as it arrives.  The samples are
    the step ends nearest ``linspace(0, t_final, n_samples)``, distinct
    because ``n_steps`` (by default ``max(20 n_samples, 10000)``) is at
    least ``n_samples - 1``; they are returned as float64 arrays.
    """
    m = int(n_samples) - 1
    n_steps = max(20 * (m + 1), 10000) if n_steps is None else int(n_steps)
    dt = t_final / n_steps
    # sample j at step round(j n_steps / m), in integers, halves rounding up
    j, k_sample = 1, (2 * n_steps + m) // (2 * m)
    gradient, prev_qdot, dh_dq = _double_rates(gradient, p, q)
    _check_finite(0.0, p, q, prev_qdot, dh_dq)

    def finite_gradient(t, p, q):
        qdot, dh_dq = gradient(p, q)
        if not math.isfinite(qdot - dh_dq):
            _check_finite(t, p, q, qdot, dh_dq)
        return qdot, dh_dq

    ts, ps, qs, hits = [0.0], [p], [q], []
    for k in range(1, n_steps + 1):
        p_old, q_old, t = p, q, k * dt
        try:
            p -= 0.5 * dt * dh_dq
            q += dt * finite_gradient((k - 1) * dt, p, q)[0]
            p -= 0.5 * dt * finite_gradient(t, p, q)[1]
        except DomainError as exc:
            return np.array(ts), np.array(ps), np.array(qs), hits, (t, p_old, q_old, exc)
        hit = next((i for i, margin in enumerate(margins, 1) if margin(p, q) <= 0), None)
        if hit is not None:
            hits.append((hit, t, p, max(q, q_floor)) if q_floor is not None else (hit, t, p_old, q_old))
            break
        qdot, dh_dq = finite_gradient(t, p, q)
        if prev_qdot < 0.0 <= qdot:
            hits.append((0, t, p, q))
        prev_qdot = qdot
        if k == k_sample:
            ts.append(t)
            ps.append(p)
            qs.append(q)
            j += 1
            k_sample = (2 * j * n_steps + m) // (2 * m)
    return np.array(ts), np.array(ps), np.array(qs), hits, None


# ---------------------------------------------------------------------------
# Canonical transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalTransform:
    """A forward/inverse relabeling pair with its Jacobian and optional generator.

    ``forward`` maps ``(p, q)`` to ``(p~, q~)``; ``jacobian(p, q)`` is its 2x2
    Jacobian, checked for unit determinant and used for exact chain-rule gradients.
    ``generator``, when given, is the function of the new labels whose endpoint
    difference accounts for ``integral(p dq) - integral(p~ dq~)``.
    """

    forward: object
    inverse: object
    jacobian: object
    generator: object = None
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
            det = np.linalg.det(np.asarray(self.jacobian(p, q), dtype=float))
            if abs(det - 1.0) > _TRANSFORM_JACOBIAN_TOL:
                raise InvalidTransformError(
                    f"transform does not preserve dp^dq at ({p}, {q}): det J = {det!r}"
                )


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

    The gradient is the exact chain rule through the transform's Jacobian;
    a singular Jacobian raises :class:`InvalidTransformError`.  The label
    domain and the half-line coordinate are composed through the inverse
    map, so a relabeled half-line flow still ends in ``singularity_hit``.
    """

    def evaluate(pt, qt):
        return H.evaluate(*tr.inverse(pt, qt))

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
    # stencils at the edges; the caller passes at least 16 samples.
    n = y.size
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
    """Comparison of ``integral p dq`` across a relabeling, and the relabeled trajectory."""

    integral_original: float
    integral_transformed: float
    generator_difference: float | None
    residual: float
    transformed: Trajectory = field(repr=False, compare=False)


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
        return TransformActionReport(i1, i2, delta, float((i1 - i2) - delta), transformed)
    return TransformActionReport(i1, i2, None, float(i1 - i2), transformed)
