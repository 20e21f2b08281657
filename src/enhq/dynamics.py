"""Hamiltonian flows in label space, canonical relabelings, and action values.

The equations of motion are ``dq/dt = dH/dp``, ``dp/dt = -dH/dq`` for an
:class:`~enhq.correspondence.EnhancedHamiltonian`.  The one integrator is
an embedded Runge-Kutta 5(4) pair, whose whole flow, sample times,
samples and energies included, runs in one call into C (``_rk45.c``, built
on first use into a per-user cache and loaded with ``ctypes``) for compiled
label polynomials, to the bits of the Python loop, and
:func:`hamiltonian_flow` assembles the trajectory from it.  Flows
on the half line, relabeled or not, stop with a ``singularity_hit`` event
when ``q`` falls below a configurable floor, and local minima of ``q`` are
annotated as ``bounce`` events.

A canonical relabeling is a linear map given by a real 2x2 matrix of
determinant 1, checked once when it is built; its inverse, its chain rule
and its generator all follow from the matrix.  A compiled polynomial with
no half line and no label domain relabels to a compiled polynomial, by
substituting the inverse map exactly, so its relabeled flow runs in the
kernel too; any other Hamiltonian is relabeled by the chain rule.
"""

from __future__ import annotations

import functools
import math
import os
import stat
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from numbers import Integral
from pathlib import Path

import numpy as np

from .correspondence import EnhancedHamiltonian, _exact, _LabelPolynomial
from .errors import DomainError, InvalidTransformError, NumericalFailure

DEFAULT_Q_FLOOR = 1e-8
_TRANSFORM_JACOBIAN_TOL = 1e-8


def __getattr__(name):
    # perfbench/tracer.py wraps enhq.dynamics.solve_ivp, looked up by name;
    # nothing calls it, so scipy loads only when something looks it up
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
class FlowWork:
    """The work of one flow: accepted and rejected steps, and gradient calls.

    The gradient calls are all the integrator made, those of Brent's method
    included, less those of a step that a gradient's :class:`DomainError`
    cut short.
    """

    steps: int
    rejected: int
    gradient_calls: int


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-ordered samples of ``(t, p, q, H)`` plus event annotations.

    Two trajectories are equal when their sample arrays match bit for bit
    and their events are equal; a trajectory is unhashable.  ``work`` is the
    :class:`FlowWork` of the flow that made it, if any; it takes no part in
    equality and is written to no CSV body.
    """

    t: np.ndarray
    p: np.ndarray
    q: np.ndarray
    energy: np.ndarray
    events: tuple = field(default_factory=tuple)
    work: FlowWork | None = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("t", "p", "q", "energy"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.t.size >= 2 and not (self.t[1:] > self.t[:-1]).all():
            raise ValueError("sample times must be strictly increasing")
        sizes = {self.t.size, self.p.size, self.q.size, self.energy.size}
        if len(sizes) != 1:
            raise ValueError("sample arrays must share one length")

    def __eq__(self, other):
        if not isinstance(other, Trajectory):
            return NotImplemented
        return self.events == other.events and all(
            getattr(self, name).tobytes() == getattr(other, name).tobytes()
            for name in ("t", "p", "q", "energy"))

    def __len__(self):
        return self.t.size

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
) -> Trajectory:
    """Integrate Hamilton's equations from ``x0`` over ``[0, t_final]``.

    Samples are taken on a uniform grid of ``n_samples`` points (events keep
    their own exact times and states and are stored separately).  For
    half-line Hamiltonians the run stops with a ``singularity_hit`` event
    where the margin ``H.half_line - q_floor`` (``q``, or ``q`` carried
    through a relabeling) reaches zero, and a declared label domain, the
    other margin, stops with ``domain_exit``.  Where the integrator cannot
    continue it reports one stop, ``(t, p, q, cause)``, mapped here: a
    gradient that raises :class:`DomainError` (a stage past a spin pole)
    ends the run in ``domain_exit`` where a label domain is declared and is
    re-raised where none is; step-size underflow near a collapse ends a
    half-line run in ``singularity_hit`` and raises
    :class:`NumericalFailure` otherwise.  Before a step is accepted, the
    ``domain_exit`` ends the run at ``t = 0`` with the start as the only
    sample, and any other stop raises :class:`NumericalFailure`.  Non-finite
    gradients raise :class:`NumericalFailure`, as does an event whose root
    Brent's method cannot find (a nan on the step's dense output).

    The integrator is :func:`_dormand_prince`, a scalar loop that takes the
    steps of scipy's ``RK45`` at ``rtol = tol`` and ``atol = tol * 1e-3``,
    calls the gradient once per stage and evaluates all samples in one
    numpy pass after the loop.  For a compiled polynomial
    (``H.polynomial``) with no label domain the whole flow, first step
    size, steps, sample times, samples, energies and event roots, runs to
    the same bits in one call of the compiled kernel
    (:func:`_compiled_flow`) wherever :func:`_kernel` loads one, and in
    Python otherwise.  The Python loop calls the Hamiltonian's stored
    callables (``H._gradient``, ``H._evaluate``), not the methods that
    convert each value to ``float``.  Either returns the samples as float64
    arrays, the event hits, the stop and the :class:`FlowWork`, from which
    the events and trajectory are built here; events are evaluated on
    Python floats, and the Python loop's energies on Python floats or by
    ``H.polynomial`` on the sample arrays.  ``x0`` must be finite, ``tol``
    and ``q_floor`` positive and finite, ``n_samples`` an integer of at
    least 2, and ``t_final / (n_samples - 1)`` a normal double.
    """
    x0 = _as_point(x0)
    if not (math.isfinite(x0.p) and math.isfinite(x0.q)):
        raise ValueError(f"x0 must be finite (got ({x0.p}, {x0.q}))")
    if not math.isfinite(t_final) or t_final <= 0:
        raise ValueError("t_final must be positive and finite")
    if not math.isfinite(tol) or tol <= 0:
        raise ValueError("tol must be positive and finite")
    if not math.isfinite(q_floor) or q_floor <= 0:
        raise ValueError("q_floor must be positive and finite")
    # Python and numpy integers; bool is an Integral too, but not a count
    if not isinstance(n_samples, Integral) or isinstance(n_samples, bool) or n_samples < 2:
        raise ValueError("n_samples must be an integer of at least 2")
    # below a normal spacing the rounded sample times stop increasing, or pass t_final
    if t_final / (n_samples - 1) < sys.float_info.min:
        raise ValueError(f"sample times must be strictly increasing: t_final = {t_final} over "
                         f"n_samples = {n_samples} spaces them below the smallest normal double")
    half_line = H.half_line
    if half_line is not None and half_line(x0.p, x0.q) <= q_floor:
        raise ValueError(f"initial q = {half_line(x0.p, x0.q)} is not above the floor {q_floor}")
    if H.label_domain is not None and H.label_domain(x0.p, x0.q) <= 0:
        raise ValueError("initial point lies outside the Hamiltonian's label domain")

    evaluate = H._evaluate
    # a compiled polynomial, on a half line or none, runs in the kernel
    run = _kernel() if H.polynomial is not None and H.label_domain is None else None
    if run is None:
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
        ts, ps, qs, hits, stop, work = _dormand_prince(
            H._gradient, x0.p, x0.q, t_final, tol, tol * 1e-3,
            np.linspace(0.0, t_final, n_samples), margins)
        energies = None
    else:
        # the kernel's hit 1 is the floor's
        kinds = ("bounce", "singularity_hit")
        ts, ps, qs, energies, hits, stop, work = _compiled_flow(
            run, H.polynomial, x0.p, x0.q, t_final, tol, tol * 1e-3,
            q_floor if half_line is not None else -math.inf, n_samples)

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
            # no step was accepted: a start beside a declared domain's edge
            # ends there, with the start as the only sample
            if kind != "domain_exit":
                raise NumericalFailure(f"integration failed at t = 0: {cause}", {})
            ts, ps, qs = np.zeros(1), np.array([x0.p]), np.array([x0.q])
        if kind == "singularity_hit" and half_line is None:
            raise NumericalFailure(
                f"integration failed at t = {t_last}: {cause}",
                {"t": t_last, "p": p_last, "q": q_last},
            )
        recorded.append(event(kind, t_last, p_last, q_last))

    if energies is None:
        # the Python loop's: a compiled polynomial takes the sample arrays,
        # with the scalar bits; other label functions are scalar code, called
        # on Python floats
        energies = (np.broadcast_to(H.polynomial.value(ps, qs), ps.shape)
                    if H.polynomial is not None
                    else [evaluate(p, q) for p, q in zip(ps.tolist(), qs.tolist())])
    recorded.sort(key=lambda e: e.time)
    return Trajectory(ts, ps, qs, energies, tuple(recorded), work)


def _check_finite(t, p, q, a, b):
    # the slow path of the stage test: the difference of two finite rates
    # can overflow, so only a rate that is itself not finite raises
    if not (math.isfinite(a) and math.isfinite(b)):
        t, p, q = float(t), float(p), float(q)
        raise NumericalFailure(
            f"gradient is not finite at (p, q) = ({p}, {q})", {"t": t, "p": p, "q": q},
        )


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
    once, directly, and computes with the rates as they come: Python floats
    and numpy float64 keep the arithmetic in double precision, and a gradient
    whose first rates are anything else (an int, a float32) is wrapped to
    convert every rate to ``float``.  A non-finite component raises
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
    end and placed by :func:`_event_roots` at the Brent root on the dense
    output.  Event 0 is the bounce, ``dq/dt`` turning nonnegative, which a
    stage has at the start and at every step end.  Event ``i >= 1`` ends
    the run where ``margins[i - 1](p, q)``, positive at the start, reaches
    zero.  :func:`_compiled_flow` runs the same loop in C for a label
    polynomial, to the same bits; this loop is its fallback and, in
    :func:`_probe`, its reference.

    Returns sample times, ``p`` and ``q`` (float64 arrays), event hits
    ``(index, t, p, q)``, the stop: ``None``, or, when the step size
    underflowed or a gradient raised :class:`DomainError`, ``(t, p, q,
    cause)`` of the last accepted step, the cause a message or the error;
    and the :class:`FlowWork`.
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
    fq, fp = gradient(p, q)
    if not (isinstance(fq, float) and isinstance(fp, float)):
        fq, fp, raw = float(fq), float(fp), gradient

        def gradient(p, q):
            a, b = raw(p, q)
            return float(a), float(b)
    # one difference tests both rates: d - d is 0 when d is finite, nan
    # otherwise (and nan is true)
    d = fp - fq
    if d - d:
        _check_finite(0.0, p, q, fp, fq)
    fp = -fp
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
        return (*_samples(t_eval, steps, counts), hits, (t, p, q, _TOO_SMALL_STEP),
                FlowWork(0, 0, 1))
    # the gradient calls outside the stages: the start's, the first step
    # size's and those of Brent's method
    accepted = n_rejected = 0
    calls = [2]

    def root_gradient(p, q):
        calls[0] += 1
        return gradient(p, q)

    def finish(stop):
        work = FlowWork(accepted, n_rejected, calls[0] + 6 * (accepted + n_rejected))
        return (*_samples(t_eval, steps, counts), hits, stop, work)

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

        times = t_eval.tolist()
        n_eval, i_eval = len(times), 0
        t_next = times[0] if n_eval else inf
        while True:
            min_step = 10 * (nextafter(t, inf) - t)
            if h_abs < min_step:
                h_abs = min_step
            rejected = False
            while True:
                if h_abs < min_step:
                    return finish((t, p, q, _TOO_SMALL_STEP))
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
                n_rejected += 1
            accepted += 1

            # a bounce needs dq/dt at the step start, fq, strictly negative, so
            # a dq/dt that stays at 0 (at rest) never fires; every margin was
            # positive at the step start, or the run would have ended there
            active = [0] if fq < 0 <= k7q else []
            for i, margin in enumerate(margins, 1):
                if margin(p_new, q_new) <= 0:
                    active.append(i)
            t_end, terminate = t_new, False
            if active:
                found, t_stop = _event_roots(margins, active, root_gradient,
                                             (t, p, q, t_new, p_new, q_new, k7q),
                                             (fp, *_quartic(fp, k3p, k4p, k5p, k6p, k7p)),
                                             (fq, *_quartic(fq, k3q, k4q, k5q, k6q, k7q)))
                hits += found
                if t_stop is not None:
                    t_end, terminate = t_stop, True

            if t_next <= t_end:
                i_next = bisect_right(times, t_end, i_eval)
                steps.append((t, h, p, q, fp, k3p, k4p, k5p, k6p, k7p, fq, k3q, k4q, k5q, k6q, k7q))
                counts.append(i_next - i_eval)
                i_eval = i_next
                t_next = times[i_eval] if i_eval < n_eval else inf

            if terminate or t_new >= t_final:
                return finish(None)
            t, p, q, fp, fq = t_new, p_new, q_new, k7p, k7q
    except DomainError as exc:
        # a stage (or a bounce search) left the domain: stop at the last accepted step
        return finish((t, p, q, exc))


def _samples(t_eval, records, counts):
    """The samples of :func:`_dormand_prince`, from the steps it recorded.

    ``records[j]`` is ``(t, h, p, q)`` and the stage rates of the ``j``-th
    step that holds samples, as the loop records it, and ``counts[j]`` the
    number of the next ``t_eval`` it holds.  Each step's quartic is formed
    once, for both components at once, and all samples are evaluated in one
    numpy pass, in the loop's operation order, so they equal the scalar
    values bit for bit.  Returns the sample times, ``p`` and ``q`` as
    float64 arrays.
    """
    s = t_eval[:int(np.sum(counts))]
    if s.size == 0:
        return s, np.empty(0), np.empty(0)
    records = np.fromiter(chain.from_iterable(records), float, 16 * len(records)).reshape(-1, 16)
    # the rates of stages 1 and 3-7 as (2, 6, m): p's, then q's
    k = records[:, 4:].T.reshape(2, 6, -1)
    # per step: t, h, then (p, q), their linear terms and quartic coefficients
    rows = np.concatenate([records[:, :4].T, k[:, 0], *_quartic(*k.transpose(1, 0, 2))])
    (t, h), *y = np.repeat(rows, counts, axis=1).reshape(6, 2, -1)
    p, q = _interpolate(s, t, h, *y)
    return s, p, q


def _event_roots(margins, active, gradient, step, cp, cq):
    """Brent roots of the ``active`` events of :func:`_dormand_prince` in a step.

    Event 0 is the root of ``dq/dt``, event ``i >= 1`` that of ``margins[i - 1]``.
    ``step`` is ``(t, p, q)`` at its start and end and ``dq/dt`` at its end;
    ``cp`` and ``cq`` are its dense-output coefficients, those of the sample
    pass, so ``cq[0]`` is ``dq/dt`` at its start.  :func:`_brent` searches
    the dense output from the values at the step's own ends: ``dq/dt`` of
    the stages there for the bounce, whose every other point is one call of
    ``gradient`` with its rates tested as a stage's are, and a margin's
    value at the step's ends.  Returns the hits ``(index, t, p, q)`` and,
    when a margin is among them, the time of the first margin root, the
    hits after it dropped (otherwise ``None``).
    """
    t_old, p_old, q_old, t_new, p_new, q_new, qdot_new = step
    h = t_new - t_old  # the step, as the loop computed it

    def dense(s):
        return (_interpolate(s, t_old, h, p_old, *cp), _interpolate(s, t_old, h, q_old, *cq))

    def rate(s):
        p, q = dense(s)
        a, b = gradient(p, q)
        d = a - b
        if d - d:
            _check_finite(s, p, q, a, b)
        return a

    found = []
    for i in active:
        if i:
            g = margins[i - 1]
            root = _brent(lambda s: g(*dense(s)), t_old, t_new, g(p_old, q_old), g(p_new, q_new))
        else:
            root = _brent(rate, t_old, t_new, cq[0], qdot_new)
        found.append((root, i))
    t_stop = None
    if active[-1]:
        # a margin fired (active runs in index order): the events up to and
        # including the first margin root, in time order
        found.sort()
        first = next(k for k, (_, i) in enumerate(found) if i)
        found = found[: first + 1]
        t_stop = found[-1][0]
    return [(i, root, *dense(root)) for root, i in found], t_stop


_BRENT_TOL = 4 * _EPS


def _brent(f, a, b, fa, fb):
    """The root of ``f`` in ``[a, b]`` by Brent's (1973) method, from ``fa = f(a)`` and ``fb = f(b)``.

    The loop of scipy's ``brentq`` at ``xtol = rtol = 4 eps`` with its 100
    iterations, in its operation order, so the two agree bit for bit where
    scipy's evaluates ``f`` to ``fa`` and ``fb`` at the ends; ``_rk45.c``
    runs the same loop.  ``fa`` and ``fb`` of one sign, a nan value of
    ``f`` or no convergence raise :class:`NumericalFailure`.
    """
    xpre, xcur, fpre, fcur = a, b, fa, fb
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if not (fpre < 0 < fcur or fcur < 0 < fpre):
        raise _no_root(a, b)
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_TOL + _BRENT_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic; where C divides by 0 its step is
                # infinite or nan, and it bisects
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else delta if sbis > 0 else -delta
        fcur = f(xcur)
        if fcur != fcur:
            break
    raise _no_root(a, b)


def _no_root(a, b):
    return NumericalFailure(f"Brent's method found no root in [{a}, {b}]", {"t": a, "t_new": b})


# ---------------------------------------------------------------------------
# The compiled step loop
# ---------------------------------------------------------------------------

# the kernel's returns (see _rk45.c), the hit rows it holds before it comes
# back, and how it is built
_DONE, _FULL, _UNDERFLOW, _NONFINITE, _NOROOT = range(5)
_HIT_ROWS = 8
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _compiled_flow(run, poly, p, q, t_final, rtol, atol, q_floor, n):
    """The flow of :func:`_dormand_prince` for the label polynomial ``poly``, run by the kernel.

    One call of ``run`` takes the flow from ``(p, q)`` to its end on the
    grid ``np.linspace(0, t_final, n)``, with the margin ``q - q_floor``
    (``q_floor = -inf``: none).  It comes back early only when its
    :data:`_HIT_ROWS` hit rows are full, and is called again to go on.  A
    non-finite rate is raised here, naming its point, and a failed Brent
    search as :func:`_brent` raises it.  Returns the sample times, ``p``,
    ``q`` and ``H`` (float64 arrays), then the hits, the stop and the
    :class:`FlowWork` as :func:`_dormand_prince` returns them.
    """
    # the times, p, q and H (n each), the state y (6), out (5) and the hit
    # rows, at these offsets in the buffer that _rk45.c reads, and after them
    # its five counters, zeroed, as int64 in the buffer's tail
    y, out, at_rows = 4 * n, 4 * n + 6, 4 * n + 11
    at_count = at_rows + 4 * _HIT_ROWS
    buf = np.empty(at_count + 5)
    count = buf[at_count:].view(np.int64)
    count[:] = 0
    # int(): n may be a numpy integer, too narrow to add to an address
    address = buf.ctypes.data
    args = (*poly.term_args, p, q, t_final, rtol, atol, q_floor, n, _HIT_ROWS,
            address, address + 8 * int(at_count))
    hits = []
    while True:
        status = run(*args)
        if status == _NONFINITE:
            _check_finite(*buf[out:out + 5].tolist())
        if status == _NOROOT:
            raise _no_root(*buf[out:out + 2].tolist())
        m, accepted, rejected, calls, n_hits = count.tolist()
        if n_hits:
            rows = buf[at_rows:at_rows + 4 * n_hits].tolist()
            hits += [(int(rows[k]), *rows[k + 1:k + 4]) for k in range(0, len(rows), 4)]
        if status != _FULL:
            break
    stop = (*buf[y:y + 3].tolist(), _TOO_SMALL_STEP) if status == _UNDERFLOW else None
    return (buf[:m], buf[n:n + m], buf[2 * n:2 * n + m], buf[3 * n:3 * n + m], hits, stop,
            FlowWork(accepted, rejected, calls))


@functools.cache
def _kernel():
    """The compiled step loop ``_rk45.c``, or ``None`` where it is not to be had.

    The library lives in a private per-user cache, ``$XDG_CACHE_HOME/enhq``
    (by default ``~/.cache/enhq``), created mode 0700 and used only while
    the user owns it and no one else can write to it, under a name keyed by
    the hash of the source, the compiler command and the platform.  A
    missing library is built there once with the compiler Python was built
    with (sysconfig's ``CC``) and ``-O2 -ffp-contract=off``, no fast-math,
    under a temporary name, and enters the cache by ``os.replace`` only
    after it reproduces the Python loop's bits on fixed probe orbits; a
    build that fails or disagrees leaves a ``.rejected`` mark instead, and
    is not tried again.  No process builds outside the cache.
    """
    import hashlib
    import shlex
    import shutil
    import subprocess
    import sysconfig
    import tempfile

    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    cache = _cache_dir() if os.name == "posix" and cc and shutil.which(cc[0]) else None
    if cache is None:
        return None
    command = [*cc, *_CFLAGS]
    source = Path(__file__).with_name("_rk45.c")
    key = hashlib.sha256(
        source.read_bytes() + repr((command, sysconfig.get_platform())).encode()).hexdigest()[:16]
    library, rejected = cache / f"rk45-{key}.so", cache / f"rk45-{key}.rejected"
    try:
        if library.exists():
            return _load(library)
        if rejected.exists():
            return None
        fd, build = tempfile.mkstemp(prefix="rk45-", suffix=".so", dir=cache)
        os.close(fd)
        try:
            subprocess.run([*command, "-o", build, str(source), "-lm"],
                           capture_output=True, timeout=300, check=True)
            run = _load(build)
            if _probe(run):
                os.replace(build, library)
                return run
        except (OSError, subprocess.SubprocessError):
            pass
        finally:
            if os.path.exists(build):
                os.unlink(build)
        rejected.touch()
    except OSError:
        pass
    return None


def _cache_dir():
    # the kernel cache, made private, or None where it cannot be made or is
    # not the user's alone
    base = os.environ.get("XDG_CACHE_HOME", "")
    try:
        path = Path(base if os.path.isabs(base) else Path.home() / ".cache", "enhq")
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        return None
    private = stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & 0o022
    return path if private else None


def _load(path):
    import ctypes

    run = ctypes.CDLL(str(path)).enhq_flow
    pointer, count, double = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    run.argtypes = (pointer, count, pointer, count, pointer, count, *[double] * 6, count, count,
                    pointer, pointer)
    run.restype = ctypes.c_int
    return run


def _probe(run) -> bool:
    # the kernel against the Python loop, bit for bit in times, samples,
    # energies, hits, stop and work record: an enhanced hydrogen orbit that
    # turns twice, a classical one that falls to the floor, and a coarse
    # enhanced one whose last step holds a floor root, which cuts the step's
    # samples, and a bounce root after it
    enhanced = {(2, 0): 0.5, (0, -1): -4 / 3, (0, -2): 1.0}
    for coeffs, t_final, tol, q_floor in ((enhanced, 30.0, 1e-10, 1e-8),
                                          ({(2, 0): 0.5, (0, -1): -1.0}, 4.0, 1e-10, 1e-8),
                                          (enhanced, 30.0, 1e-3, 0.95)):
        poly = _LabelPolynomial(coeffs, q_positive=True)
        ts, ps, qs, *rest = _dormand_prince(poly.gradient, -0.3, 1.0, t_final, tol, tol * 1e-3,
                                            np.linspace(0.0, t_final, 50),
                                            [lambda p, q: q - q_floor])
        kernel = _compiled_flow(run, poly, -0.3, 1.0, t_final, tol, tol * 1e-3, q_floor, 50)
        python, kernel = ([a.tobytes() if isinstance(a, np.ndarray) else repr(a) for a in result]
                          for result in ((ts, ps, qs, poly.value(ps, qs), *rest), kernel))
        if python != kernel:
            return False
    return True


# ---------------------------------------------------------------------------
# Canonical transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalTransform:
    """The linear relabeling ``(p~, q~) = M (p, q)`` by a real 2x2 ``matrix`` ``((a, b), (c, d))``.

    ``M`` is checked once, at construction: its entries must be finite and
    ``det M = ad - bc`` within ``1e-8`` of 1, so the map preserves
    ``dp ^ dq``; otherwise :class:`InvalidTransformError` is raised.  The
    inverse is the adjugate, the chain rule ``M^-T grad`` its transpose, and
    the generator :meth:`generator` follows from the matrix.
    """

    matrix: tuple
    name: str = ""

    def __post_init__(self):
        (a, b), (c, d) = self.matrix
        a, b, c, d = map(float, (a, b, c, d))
        object.__setattr__(self, "matrix", ((a, b), (c, d)))
        if not all(map(math.isfinite, (a, b, c, d))):
            raise InvalidTransformError(f"transform matrix {self.matrix} has a non-finite entry")
        det = a * d - b * c
        if abs(det - 1.0) > _TRANSFORM_JACOBIAN_TOL:
            raise InvalidTransformError(f"transform does not preserve dp^dq: det M = {det!r}")

    def forward(self, p, q):
        """``(p~, q~)`` of ``(p, q)``, floats or arrays alike."""
        (a, b), (c, d) = self.matrix
        return a * p + b * q, c * p + d * q

    def inverse(self, pt, qt):
        """``(p, q)`` of ``(p~, q~)``, by the adjugate of ``M``."""
        (a, b), (c, d) = self.matrix
        return d * pt - b * qt, a * qt - c * pt

    def generator(self, p, q):
        """``F(p, q) = -(ac p^2 / 2 + bc p q + bd q^2 / 2)``, with ``p dq - p~ dq~ = dF``."""
        (a, b), (c, d) = self.matrix
        return -(a * c * p * p / 2 + b * c * p * q + b * d * q * q / 2)


def rotation_transform() -> CanonicalTransform:
    """Quarter-turn relabeling ``(p~, q~) = (-q, p)``, generator ``p q``."""
    return CanonicalTransform(((0.0, -1.0), (1.0, 0.0)), "rotation")


def scaling_transform(lam: float) -> CanonicalTransform:
    """Area-preserving scaling ``(p~, q~) = (lam p, q / lam)``, generator zero."""
    if lam == 0:
        raise ValueError("scaling factor must be nonzero")
    return CanonicalTransform(((lam, 0.0), (0.0, 1.0 / lam)), f"scaling({lam})")


def apply_transform(tr: CanonicalTransform, obj):
    """Relabel a phase point or a whole trajectory; no state-level change."""
    if isinstance(obj, PhasePoint):
        return PhasePoint(*map(float, tr.forward(obj.p, obj.q)), obj.t)
    if isinstance(obj, Trajectory):
        events = tuple(TrajectoryEvent(e.time, e.kind, *tr.forward(e.p, e.q), e.energy)
                       for e in obj.events)
        return Trajectory(obj.t, *tr.forward(obj.p, obj.q), obj.energy, events, obj.work)
    raise TypeError(f"cannot transform object of type {type(obj).__name__}")


def _binomial(x, y, n):
    # the nonzero terms of (x p + y q)^n, exact: ((power of p, power of q), coefficient)
    return [((k, n - k), math.comb(n, k) * x ** k * y ** (n - k)) for k in range(n + 1)
            if (x or k == 0) and (y or k == n)]


def _relabeled_polynomial(poly: _LabelPolynomial, tr: CanonicalTransform):
    """``poly(d p~ - b q~, a q~ - c p~)`` as a label polynomial, or ``None``.

    Each term ``c p^i q^j`` is expanded binomially in exact rationals of
    the matrix entries, the terms of each power of ``(p~, q~)`` are summed
    exactly, an exact zero is dropped, and each sum is rounded once.
    ``None`` where that gives no compiled polynomial of normal doubles: a
    negative power, a sum that overflows a double or rounds to zero or to a
    subnormal, or a derivative coefficient that overflows.
    """
    (a, b), (c, d) = ((_exact(x) for x in row) for row in tr.matrix)
    sums: dict = {}
    for (i, j), coeff in poly.coeffs.items():
        if i < 0 or j < 0:
            return None
        unit = _exact(coeff)
        for (i1, j1), u in _binomial(d, -b, i):
            for (i2, j2), v in _binomial(-c, a, j):
                key = (i1 + i2, j1 + j2)
                sums[key] = sums.get(key, 0) + unit * u * v
    coeffs = {}
    for key, exact in sums.items():
        if exact:
            try:
                rounded = float(exact)
            except OverflowError:
                return None
            if abs(rounded) < sys.float_info.min:
                return None
            coeffs[key] = rounded
    try:
        return _LabelPolynomial(coeffs)
    except DomainError:
        return None


def transform_hamiltonian(H: EnhancedHamiltonian, tr: CanonicalTransform) -> EnhancedHamiltonian:
    """Express ``H`` in the new labels: ``H~(p~, q~) = H(p, q)``.

    A compiled polynomial (``H.polynomial``) with no half line and no label
    domain, as on the canonical and squeezed families, is substituted
    through the inverse map ``(p, q) = (d p~ - b q~, a q~ - c p~)``
    (:func:`_relabeled_polynomial`), and the result is again a compiled
    polynomial, whose flows run in the kernel.  Otherwise, or where a
    substituted coefficient is not a normal double, ``H~`` calls ``H``
    through the inverse map, and its gradient is the exact chain rule, the
    adjugate's transpose times ``grad`` (``M^-T grad``).  The label domain
    and the half-line coordinate are then composed through the inverse
    map, so a relabeled half-line flow still ends in ``singularity_hit``.
    """
    if H.polynomial is not None and H.half_line is None and H.label_domain is None:
        lp = _relabeled_polynomial(H.polynomial, tr)
        if lp is not None:
            return EnhancedHamiltonian(lp, lp.gradient, polynomial=lp)
    inverse = tr.inverse
    (a, b), (c, d) = tr.matrix

    def evaluate(pt, qt):
        return H.evaluate(*inverse(pt, qt))

    def gradient(pt, qt):
        gp, gq = H.gradient(*inverse(pt, qt))
        return d * gp - c * gq, a * gq - b * gp

    label_domain = None
    if H.label_domain is not None:
        def label_domain(pt, qt):
            return H.label_domain(*inverse(pt, qt))

    ham = EnhancedHamiltonian(evaluate, gradient, label_domain=label_domain)
    if H.half_line is not None:
        ham.half_line = lambda pt, qt: H.half_line(*inverse(pt, qt))
    return ham


# ---------------------------------------------------------------------------
# Action functionals
# ---------------------------------------------------------------------------

def line_integral_p_dq(trajectory: Trajectory) -> float:
    """Trapezoid value of ``integral p dq`` along the samples."""
    p, q = trajectory.p, trajectory.q
    return float(np.sum(0.5 * (p[1:] + p[:-1]) * np.diff(q)))


@dataclass(frozen=True)
class TransformActionReport:
    """Comparison of ``integral p dq`` across a relabeling, and the relabeled trajectory."""

    integral_original: float
    integral_transformed: float
    generator_difference: float
    residual: float
    transformed: Trajectory = field(repr=False, compare=False)


def verify_transform_action(tr: CanonicalTransform, trajectory: Trajectory) -> TransformActionReport:
    """Check ``integral p dq - integral p~ dq~`` against the generator's endpoint difference."""
    transformed = apply_transform(tr, trajectory)
    i1 = line_integral_p_dq(trajectory)
    i2 = line_integral_p_dq(transformed)
    p, q = trajectory.p, trajectory.q
    delta = float(tr.generator(p[-1], q[-1]) - tr.generator(p[0], q[0]))
    return TransformActionReport(i1, i2, delta, float((i1 - i2) - delta), transformed)
