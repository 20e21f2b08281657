"""Coherent-state families and their Fubini-Study geometry.

Four families are defined by self-adjoint generators acting on a fiducial
vector, each a subclass of :class:`CoherentFamily` built by its factory
function:

* canonical: ``exp(-i q P / hbar) exp(i p Q / hbar) |0>`` on the line, with
  the oscillator ground state as fiducial, labels ``(p, q)`` ranging over the
  whole plane;
* extended: the canonical state followed by the rotation and squeeze
  ``exp(-i a (P^2 + Q^2) / hbar) exp(-i b (PQ + QP) / hbar)`` at fixed
  ``(a, b)``;
* affine: ``exp(i p Q / hbar) exp(-i log(q) D / hbar) |beta>`` on the half
  line, ``q > 0``, with the extremal-weight fiducial solving
  ``[(Q - 1) + (i/beta) D] |beta> = 0``;
* spin: ``exp(-i phi S3 / hbar) exp(-i theta S2 / hbar) |s, s>`` with the
  highest-weight fiducial, labeled by ``p = sqrt(s hbar) cos(theta)`` and
  ``q = sqrt(s hbar) phi``; the family takes every real ``q`` (the azimuth
  is periodic) and ``p^2 <= s hbar``.

Every state is built in closed form, not by exponentiating the generators:
the canonical state is Glauber's Poisson series
``e^{-ipq/2hbar} e^{-|a|^2/2} a^n / sqrt(n!)`` with ``a = (q + ip) / sqrt(2 hbar)``,
truncated to the Fock basis; the extended state has the amplitudes of the
squeezed state's three-term recurrence (Stoler 1970; Yuen 1976) times the
rotation's phases ``e^{-ia(2n+1)}``; the spin state has the binomial
amplitudes ``e^{-i m phi} sqrt(C(2s, s-m)) cos(theta/2)^{s+m} sin(theta/2)^{s-m}``
(Radcliffe 1971); and the affine family resamples its closed-form fiducial.
The tests check each closed form against the matrix exponentials of its
definition.  Restricting a polynomial builds no state: each family declares
its letters' adjoint action, the span they act on and its pairing with the
fiducial, which :meth:`CoherentFamily.exact_terms` walks (on the sphere the
rotation ``U^dag S_a U = sum_b R_ab S_b``, in the cosines and sines of
``theta`` and ``phi``).

Each family declares its phase-insensitive metric
``2 hbar [ ||d psi||^2 - |<psi|d psi>|^2 ]`` in closed form, ``metric(p, q)``,
and its constant scalar ``curvature``: flat for canonical and extended,
``-2/beta`` for affine, and ``2/(s hbar)`` for the sphere of spin ``s``.
:func:`fs_metric_numeric` takes the metric from central differences of the
state map with Richardson extrapolation; the tests hold both to the metric of
the states' exact derivatives, each a generator applied to a state.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import CapacityError, DomainError, NumericalFailure
from .hilbert import (
    DEFAULT_TRUNCATION_MARGIN,
    HalfLineRep,
    LineRep,
    SpinRep,
    StateVector,
)

#: Finite-difference step, in label units, of the numeric metric.
METRIC_STEP = 1e-4

#: l2 amplitude allowed beyond the truncation margin of a canonical state.
CANONICAL_TAIL_TOL = 1e-12

#: Looser tail threshold for squeezed (extended) states.
EXTENDED_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class MetricTensor2:
    """Symmetric 2x2 metric in ``(p, q)`` label coordinates."""

    g_pp: float
    g_pq: float
    g_qq: float


class CoherentFamily:
    """A parametrized map from labels ``(p, q)`` to unit state vectors.

    It holds the representation ``rep``, the ``fiducial`` state (on the half
    line sampled on first use) and ``letters``, the matrix of each letter of
    the family's operator alphabet that its representation realizes: none on
    the half line, which is a grid and its weights only (the tests' oracles
    keep its finite-difference letters), and on the line the ``Q`` and ``P``
    that the representation builds on first read.
    Each family is a subclass, built by its factory function, whose
    ``_build(p, q)`` returns the state.  It declares what restricting a
    polynomial needs: its alphabet ``variables``; ``half_line``, true where
    labels need ``q > 0``; a ``label_domain`` margin, positive inside the
    chart, or None; and ``shifted``, each letter's adjoint action
    ``U(p, q)^dag X U(p, q)`` as terms (coefficient, fiducial letter or None,
    label powers): powers of ``(p, q)``, or on the sphere of the cosines and
    sines of the angles that ``chart_radius`` (None elsewhere) reads off the
    labels, with the span, phase letters, pairing and ``moment_scale`` of
    :meth:`exact_terms`.
    It also declares its geometry: ``metric(p, q)``, the closed-form
    Fubini-Study metric, which raises :class:`DomainError` off the chart, and
    ``curvature``, the metric's constant scalar curvature.

    Instances are immutable; ``state`` is a pure function of the labels and
    families may be shared across threads and swept in parallel.
    """

    kind = None
    half_line = False
    label_domain = None
    chart_radius = None

    def label_in_domain(self, p: float, q: float) -> bool:
        return np.isfinite(p) and np.isfinite(q) and (q > 0 or not self.half_line)

    def _require_label(self, p, q):
        if not self.label_in_domain(p, q):
            raise DomainError(f"label ({p}, {q}) lies outside the {self.kind} family's domain")

    def state(self, p: float, q: float) -> StateVector:
        return self._build(p, q)

    def exact_terms(self, word, table) -> dict:
        """The exact ``<fiducial| word |fiducial>``, each letter read as its terms in ``table``.

        A term ``(w, y, code)`` is ``w y`` times a label monomial, as in ``shifted``, whose
        powers the caller has packed in the integer ``code`` so that they add as it does.
        One walk, right to left, keys exact coefficients by span index ``k`` (``e_0`` the
        fiducial), the sum of the codes and the counts of kept ``_phase_letters`` and of
        label terms (``y`` None); a kept ``y`` takes ``e_k`` to the terms ``(k', factor)`` of
        ``_span_action(y, k)``.  Each term runs over all walks before the next, so the codes
        come in the order of the expansion over the terms, first letter slowest, in which
        label polynomials sum them.  ``_pairing(word, ends)`` yields ``(code, quarter turns,
        n, moment)`` per end.  Returns ``{(code, n): [re, im]}`` in units of
        ``moment_scale ** n``; a letter outside ``table`` raises :class:`ValueError`.
        """
        ends, act = {(0, 0, 0, 0): 1}, self._span_action
        for letter in reversed(word):
            if letter not in table:
                raise ValueError(f"letter {letter!r} is not in the {self.kind} family's alphabet")
            out = defaultdict(int)
            for w, y, code in table[letter]:
                turned, taken = y in self._phase_letters, y is None
                for (k, at, phase, labels), c in ends.items():
                    for k_out, factor in ((k, 1),) if taken else act(y, k):
                        out[k_out, at + code, phase + turned, labels + taken] += w * factor * c
            ends = out
        sums: dict[tuple, list] = {}
        for code, turns, n, r in self._pairing(word, ends):
            # i^turns r adds r to re, to im, then -r to re, to im, for turns = 0, 1, 2, 3
            total = sums.setdefault((code, n), [0, 0])
            total[turns % 2] += r if turns % 4 < 2 else -r
        return sums

    def fiducial_moment(self, word) -> complex:
        """The exact ``<fiducial| word |fiducial>``, rounded once; a letter outside ``shifted``
        raises :class:`ValueError`, and a moment that overflows :class:`DomainError`."""
        moments = self.exact_terms(word, {x: ((1, x, 0),) for x in self.shifted})
        try:
            return sum((complex(re * self.moment_scale ** n, im * self.moment_scale ** n)
                        for (_, n), (re, im) in moments.items()), 0j)
        except OverflowError:
            raise DomainError(f"the fiducial moment of {'*'.join(word)} overflows a double") from None


class _Canonical(CoherentFamily):
    kind = "canonical"
    variables = "canonical"
    _phase_letters = ("P",)
    a = b = 0.0  # no rotation, no squeeze
    curvature = 0.0

    def __init__(self, rep):
        self.rep, self.fiducial = rep, rep.vacuum()
        self.moment_scale = Fraction(rep.hbar) / 2

    @cached_property
    def letters(self):
        return {"P": self.rep.P, "Q": self.rep.Q}

    def metric(self, p, q):
        # flat, and unchanged by the fixed rotation and squeeze of the extended family
        self._require_label(p, q)
        return MetricTensor2(1.0, 0.0, 1.0)

    @property
    def shifted(self):
        # U^dag Q U = e^{2b} cos 2a (Q + q) + e^{-2b} sin 2a (P + p) and U^dag P U =
        # e^{-2b} cos 2a (P + p) - e^{2b} sin 2a (Q + q), weights 1 and 0 at a = b = 0;
        # formed on use, so that any (a, b) builds a family
        try:
            up, down = math.exp(2.0 * self.b), math.exp(-2.0 * self.b)
        except OverflowError:
            raise DomainError(f"the squeeze b = {self.b} overflows its adjoint action") from None
        c, s = math.cos(2.0 * self.a), math.sin(2.0 * self.a)
        # (weight, letter Y, powers of p and q of Y's label y): a nonzero weight w adds w Y + w y
        weighted = {"P": ((down * c, "P", (1, 0)), (-up * s, "Q", (0, 1))),
                    "Q": ((up * c, "Q", (0, 1)), (down * s, "P", (1, 0)))}
        return {x: tuple(t for w, y, powers in weighted[x] if w for t in ((w, y, (0, 0)), (w, None, powers)))
                for x in weighted}

    @staticmethod
    def _span_action(letter, k):
        # the span |k>' = (A^dag)^k |0>, on which A^dag |k>' = |k+1>' and A |k>' = k |k-1>';
        # in units of sqrt(hbar/2), Q = A^dag + A and P = i (A^dag - A), less its i
        raised = (k + 1, 1)
        return (raised, (k - 1, k if letter == "Q" else -k)) if k else (raised,)

    @staticmethod
    def _pairing(word, ends):
        # <0|k>' = 0 for k > 0: an end that kept m = len(word) - labels letters pairs to
        # i^(#P) (hbar/2)^(m/2) times its coefficient at e_0, to 0 elsewhere, and to 0 at
        # n = 0 for odd m
        for (k, code, phase, labels), c in ends.items():
            m = len(word) - labels
            yield (code, 0, 0, 0) if m % 2 else (code, phase, m // 2, c if k == 0 else 0)

    def _build(self, p, q):
        # below a mean Fock level of dim the Poisson occupancy rises to the top
        # level, so at or past it the margin holds at least 20/dim of the
        # truncated mass: such a label fails the tail check without being built
        # (a NaN label is built, and rejected there)
        rep = self.rep
        if not (p * p + q * q) / (2.0 * rep.hbar) >= rep.dim:
            psi = _displaced(p, q, rep)
            tail = float(np.linalg.norm(psi.amplitudes[psi.dim - DEFAULT_TRUNCATION_MARGIN :]))
            if tail <= CANONICAL_TAIL_TOL:
                return psi
        raise CapacityError(f"truncation inadequate at (p, q) = ({p}, {q}): the amplitude beyond the last "
                            f"{DEFAULT_TRUNCATION_MARGIN} levels exceeds {CANONICAL_TAIL_TOL:.1e}")


class _Extended(_Canonical):
    kind = "extended"

    def __init__(self, rep, a, b):
        super().__init__(rep)
        self.a, self.b = float(a), float(b)

    def _build(self, p, q):
        # R S exp(-i q P / hbar) exp(i p Q / hbar)|0>: the rotation
        # R = exp(-i a (P^2 + Q^2) / hbar) is e^{-ia(2n+1)}, as P^2 + Q^2 = 2 hbar (N + 1/2),
        # and as D = (i hbar / 2)(A^dag^2 - A^2) the squeeze S = exp(b (A^dag^2 - A^2))
        # makes S A S^dag = cosh(2b) A - sinh(2b) A^dag.  Its eigenvector with
        # eigenvalue alpha = (q + ip) / sqrt(2 hbar) has the amplitudes
        # sqrt(n) c_n = sech(2b) alpha c_{n-1} + tanh(2b) sqrt(n-1) c_{n-2}
        # (Stoler 1970; Yuen 1976), c_0 = e^{-|alpha|^2/2 - tanh(2b) alpha^2/2} sqrt(sech 2b),
        # times e^{-ipq/2hbar}.  Only the phase of c_0 is kept, and the amplitudes
        # are rescaled before they overflow: normalizing restores the scale, so a
        # far label reaches the tail check instead of underflowing.
        rep, a, b = self.rep, self.a, self.b
        # the mean Fock level is at least e^{-4|b|} (p^2 + q^2) / 2 hbar: at or
        # past the basis the state cannot fit, and far out the recurrence overflows
        if (p * p + q * q) * math.exp(-4.0 * abs(b)) >= 2.0 * rep.hbar * rep.dim:
            raise CapacityError(f"truncation inadequate for extended state at (p, q, a, b) = "
                                f"({p}, {q}, {a}, {b}): its mean Fock level is past dim {rep.dim}")
        t, e = math.tanh(2.0 * b), math.exp(-2.0 * abs(b))
        alpha = complex(q, p) / math.sqrt(2.0 * rep.hbar) * (2.0 * e / (1.0 + e * e))  # sech(2b)
        amps = [0.0, cmath.exp(-0.5j * (1.0 + t) * p * q / rep.hbar)]  # c_{-1}, c_0
        for n in range(1, rep.dim):
            amps.append((alpha * amps[-1] + t * math.sqrt(n - 1) * amps[-2]) / math.sqrt(n))
            if abs(amps[-1]) > 1e150:
                amps = [c * 1e-150 for c in amps]
        n = np.arange(rep.dim)
        psi = StateVector(np.array(amps[1:]) * np.exp(-1j * a * (2.0 * n + 1.0)), rep)
        # Squeezing amplifies high-level occupancy, so the tail check is the
        # looser EXTENDED_TAIL_TOL.
        tail = float(np.linalg.norm(psi.amplitudes[psi.dim - DEFAULT_TRUNCATION_MARGIN :]))
        if tail > EXTENDED_TAIL_TOL:
            raise CapacityError(
                f"truncation inadequate for extended state at (p, q, a, b) = "
                f"({p}, {q}, {a}, {b}): tail amplitude {tail:.3e}"
            )
        return psi


class _Affine(CoherentFamily):
    kind = "affine"
    variables = "affine"
    half_line = True
    _phase_letters = ("P", "D")
    shifted = {
        "D": ((1.0, "D", (0, 0)), (1.0, "Q", (1, 1))),
        "Q": ((1.0, "Q", (0, 1)),),
        "Q^-1": ((1.0, "Q^-1", (0, -1)),),
        "P": ((1.0, "P", (0, -1)), (1.0, None, (1, 0))),
    }

    def __init__(self, rep, beta):
        # the fiducial is sampled on first use: restricting a polynomial reads no grid,
        # and each moment names the width it needs (P^2 beta > hbar, Q^-1 beta > hbar/2)
        if not beta > 0:
            raise DomainError(f"the affine family requires beta > 0 (got beta = {beta})")
        self.rep, self.letters, self.beta = rep, {}, float(beta)
        self.moment_scale = Fraction(rep.hbar)
        self._nu = Fraction(self.beta) / self.moment_scale
        self.curvature = -2.0 / self.beta

    def metric(self, p, q):
        self._require_label(p, q)
        # q^2 / beta and its reciprocal must both be normal doubles
        q2 = q * q
        if not sys.float_info.min <= q2 / self.beta <= 1.0 / sys.float_info.min:
            raise DomainError(f"the affine metric at q = {q}, beta = {self.beta} leaves the "
                              f"normal range of double precision")
        return MetricTensor2(q2 / self.beta, 0.0, self.beta / q2)

    @cached_property
    def fiducial(self):
        return affine_fiducial(self.beta, self.rep)

    def _span_action(self, letter, k):
        # the span of f_k = x^(nu - 1/2 + k) e^(-nu x), nu = beta / hbar, whose f_0 is the
        # fiducial: Q f_k = f_(k+1), Q^-1 f_k = f_(k-1), P f_k = -i hbar [(nu - 1/2 + k) f_(k-1)
        # - nu f_k] and D f_k = -i hbar [(nu + k) f_k - nu f_(k+1)], less their -i hbar
        nu = self._nu
        if letter == "Q":
            return ((k + 1, 1),)
        if letter == "Q^-1":
            return ((k - 1, 1),)
        if letter == "P":
            return (k - 1, nu - Fraction(1, 2) + k), (k, -nu)
        return (k, nu + k), (k + 1, -nu)

    def _pairing(self, word, ends):
        # <f_0|f_k> / <f_0|f_0> = <Q^k>, finite only for 2 nu + k > 0.  Every power the word
        # reaches counts, also one whose coefficient vanishes at this beta (P^4 reaches <Q^-4>
        # with a factor nu - 3/2): there the formal P^4 is no longer ||P^2 psi||^2.  Each of the
        # n kept P and D carries -i hbar; the rest is rational in nu, its terms cancelling.
        low = min(k for k, *_ in ends)
        if 2 * self._nu + low <= 0:
            raise DomainError(f"fiducial moments of {'*'.join(word)} reach <Q^{low}> through its momentum "
                              f"letters and inverse letters Q^-1, and diverge unless beta > {-low}/2 * hbar "
                              f"(beta = {self.beta})")
        # <Q^k> = Gamma(2 nu + k) / (Gamma(2 nu) (2 nu)^k), up and down from <Q^0> = 1
        nu2, moments = 2 * self._nu, {0: Fraction(1)}
        for k in range(1, max(k for k, *_ in ends) + 1):
            moments[k] = moments[k - 1] * (nu2 + k - 1) / nu2
        for k in range(-1, low - 1, -1):
            moments[k] = moments[k + 1] * nu2 / (nu2 + k)
        return [(code, -n, n, c * moments[k]) for (k, code, n, _), c in ends.items()]

    def _build(self, p, q):
        # both unitaries act pointwise on half-line wavefunctions (a phase and
        # a dilation), so the state resamples the closed-form fiducial
        if q <= 0:
            raise DomainError(f"affine labels require q > 0 (got q = {q})")
        rep = self.rep
        x = rep.grid
        dilated = affine_wavefunction(x / q, self.beta, rep.hbar) / np.sqrt(q)
        return rep.state_from_samples(dilated * np.exp(1j * p * x / rep.hbar))


class _Spin(CoherentFamily):
    kind = "spin"
    variables = "spin"
    _phase_letters = ("S2",)
    # U^dag S_a U = sum_b R_ab S_b with R = R_z(phi) R_y(theta) = [[c u, -s, c v], [s u, c, s v],
    # [-v, 0, u]], u, v = cos, sin theta and c, s = cos, sin phi: (weight, letter, powers of u, v, c, s)
    shifted = {
        "S1": ((1.0, "S1", (1, 0, 1, 0)), (-1.0, "S2", (0, 0, 0, 1)), (1.0, "S3", (0, 1, 1, 0))),
        "S2": ((1.0, "S1", (1, 0, 0, 1)), (1.0, "S2", (0, 0, 1, 0)), (1.0, "S3", (0, 1, 0, 1))),
        "S3": ((-1.0, "S1", (0, 1, 0, 0)), (1.0, "S3", (1, 0, 0, 0))),
    }

    def __init__(self, rep):
        self.rep, self.fiducial = rep, rep.highest_weight()
        self.letters = {"S1": rep.S1, "S2": rep.S2, "S3": rep.S3}
        self.label_domain = lambda p, q: rep.s * rep.hbar - p * p
        self.curvature = 2.0 / (rep.s * rep.hbar)
        # p = chart_radius cos(theta) and q = chart_radius phi
        self.chart_radius = math.sqrt(rep.s * rep.hbar)
        self.moment_scale = Fraction(rep.hbar) / 2
        self._two_s = rep.dim - 1

    def label_in_domain(self, p, q):
        # the azimuth is periodic: every real q is a label
        return super().label_in_domain(p, q) and abs(p) <= np.sqrt(self.rep.s * self.rep.hbar)

    def metric(self, p, q):
        self._require_label(p, q)
        f = 1.0 - p * p / (self.rep.s * self.rep.hbar)
        if f <= 0:
            raise DomainError(f"spin labels require p^2 < s hbar (got p = {p})")
        return MetricTensor2(1.0 / f, 0.0, f)

    def _span_action(self, letter, k):
        # the span e_k = (S_-/hbar)^k |s, s>, on which, in units of hbar/2, 2 S3 e_k = (2s - 2k) e_k,
        # 2 S1 e_k = e_(k+1) + k (2s - k + 1) e_(k-1) and 2 S2 e_k = i [e_(k+1) - k (2s - k + 1) e_(k-1)],
        # less its i
        if letter == "S3":
            return ((k, self._two_s - 2 * k),)
        raised = ((k + 1, 1),) if k < self._two_s else ()  # S_- e_2s = 0
        lowered = k * (self._two_s - k + 1)
        return raised + ((k - 1, lowered if letter == "S1" else -lowered),) if k else raised

    @staticmethod
    def _pairing(word, ends):
        # <e_0|e_k> = 0 for k > 0, and every term keeps its letter, each one hbar/2
        for (k, code, phase, _), c in ends.items():
            yield code, phase, len(word), c if k == 0 else 0

    def _build(self, p, q):
        # theta = arccos(p / sqrt(s hbar)) in [0, pi] and phi = q / sqrt(s hbar),
        # left unwrapped: wrapping it would flip the sign of half-integer-spin
        # states at the seam.  exp(-i phi S3 / hbar) exp(-i theta S2 / hbar)|s, s>
        # has the binomial amplitudes e^{-i m phi} chi_m, chi_m = sqrt(C(2s, s-m))
        # cos(theta/2)^{s+m} sin(theta/2)^{s-m} (Radcliffe 1971), taken in log form
        rep = self.rep
        sq = np.sqrt(rep.s * rep.hbar)
        if abs(p) > sq * (1 + 1e-12):
            raise DomainError(f"|p| must not exceed sqrt(s hbar) = {sq} (got p = {p})")
        theta = float(np.arccos(np.clip(p / sq, -1.0, 1.0)))
        two_s = rep.dim - 1
        k = np.arange(rep.dim)  # s - m
        m = rep.s - k
        log_fact = _log_factorials(rep.dim)
        log_binom = log_fact[two_s] - log_fact - log_fact[::-1]
        chi = np.exp(0.5 * log_binom + _xlogy(two_s - k, np.cos(0.5 * theta))
                     + _xlogy(k, np.sin(0.5 * theta)))
        return StateVector(np.exp(-1j * (q / sq) * m) * chi, rep)


def canonical_family(rep: LineRep) -> CoherentFamily:
    """Canonical family over the oscillator vacuum of ``rep``.

    The fiducial satisfies ``(Q + i P)|0> = 0`` exactly in the truncated
    basis.  A state with more than :data:`CANONICAL_TAIL_TOL` beyond the
    truncation margin raises :class:`CapacityError`.
    """
    return _Canonical(rep)


def affine_family(rep: HalfLineRep, beta: float) -> CoherentFamily:
    """Affine family over the extremal-weight fiducial with parameter ``beta``."""
    return _Affine(rep, beta)


def spin_family(rep: SpinRep) -> CoherentFamily:
    """Spin family over the highest-weight state, labeled by ``(p, q)``."""
    return _Spin(rep)


def extended_family(rep: LineRep, a: float, b: float) -> CoherentFamily:
    """Squeezed extension of the canonical family with fixed ``(a, b)``."""
    return _Extended(rep, a, b)


def _displaced(p, q, rep):
    # exp(-i q P / hbar) exp(i p Q / hbar)|0> is the Poisson series
    # e^{-ipq/2hbar} e^{-|a|^2/2} a^n / sqrt(n!) with a = (q + ip) / sqrt(2 hbar),
    # truncated to the basis, with its magnitudes taken in log form.
    hbar = rep.hbar
    n = np.arange(rep.dim)
    alpha = complex(q, p) / np.sqrt(2.0 * hbar)
    if alpha == 0:
        return rep.vacuum()
    log_mag = n * np.log(abs(alpha)) - 0.5 * _log_factorials(rep.dim) - 0.5 * abs(alpha) ** 2
    arg = n * cmath.phase(alpha) - p * q / (2.0 * hbar)
    return StateVector(np.exp(log_mag + 1j * arg), rep)


@lru_cache(maxsize=16)
def _log_factorials(dim: int) -> np.ndarray:
    # log k! for k < dim from the exact k! (lgamma is ulps off), once per basis size; read only
    out, factorial = np.empty(dim), 1
    for k in range(dim):
        out[k], factorial = math.log(factorial), factorial * (k + 1)
    out.setflags(write=False)
    return out


def _xlogy(k, x: float):
    # k log x, and 0 where k = 0 even at x = 0: an empty power of 0 is 1
    if x == 0.0:
        return np.where(k == 0, 0.0, -np.inf)
    return k * math.log(x)


def _affine_log_norm(nu: float) -> float:
    # log M^2 for the normalized fiducial density x^(2 nu - 1) e^(-2 nu x), Gamma(2 nu) the exact
    # (2 nu - 1)! at whole 2 nu <= 171 (lgamma is ulps off there); where log Gamma(2 nu)
    # overflows, so does 2 nu log(2 nu), and the difference is nan
    two_nu = 2.0 * nu
    exact = two_nu.is_integer() and 1.0 <= two_nu <= 171.0
    try:
        log_gamma = math.log(math.factorial(int(two_nu) - 1)) if exact else math.lgamma(two_nu)
    except OverflowError:
        return math.nan
    return two_nu * np.log(two_nu) - log_gamma


def affine_wavefunction(x, beta: float, hbar: float):
    """Closed-form fiducial wavefunction ``M x^(beta/hbar - 1/2) exp(-(beta/hbar) x)``."""
    nu = beta / hbar
    x = np.asarray(x, dtype=float)
    return np.exp(0.5 * _affine_log_norm(nu) + (nu - 0.5) * np.log(x) - nu * x)


def affine_fiducial(beta: float, rep: HalfLineRep) -> StateVector:
    """Sample the extremal-weight fiducial on the grid of ``rep``.

    Requires ``beta > hbar``: otherwise the momentum second moment diverges
    and a :class:`DomainError` is raised.  The returned state has
    ``<Q> = 1`` and ``<D> = 0`` within grid tolerance.
    """
    if beta <= rep.hbar:
        raise DomainError(f"beta must exceed hbar for a normalizable momentum moment "
                          f"(got beta = {beta}, hbar = {rep.hbar})")
    return rep.state_from_samples(affine_wavefunction(rep.grid, beta, rep.hbar))


# ---------------------------------------------------------------------------
# Fiducial moments
# ---------------------------------------------------------------------------

def fiducial_moments(family: CoherentFamily) -> dict:
    """Measure the affine fiducial moments by quadrature on the grid.

    Returns ``q1``, ``q2`` and ``q_inv``, the grid quadratures of ``x``,
    ``x^2`` and ``1/x`` against the fiducial density, and ``p2`` from the
    closed-form derivative ``psi' = ((nu - 1/2)/x - nu) psi``,
    ``nu = beta / hbar``: ``P = -i hbar d/dx`` gives
    ``p2 = sum dens hbar^2 ((nu - 1/2)/x - nu)^2``.  ``q1 = 1`` and ``p2``
    against the exact ``fiducial_moment(("P", "P"))`` are the validated
    statements.
    """
    if not family.half_line:
        raise ValueError("fiducial moments are defined for affine families")
    hbar = family.rep.hbar
    nu = family.beta / hbar
    x = family.rep.grid
    dens = np.abs(family.fiducial.amplitudes) ** 2
    log_slope = (nu - 0.5) / x - nu  # psi' / psi
    return {
        "q1": float(dens @ x),
        "q2": float(dens @ (x * x)),
        "q_inv": float(dens @ (1.0 / x)),
        "p2": float(hbar * hbar * (dens @ (log_slope * log_slope))),
    }


# ---------------------------------------------------------------------------
# Fubini-Study metric
# ---------------------------------------------------------------------------

def _fs_components(psi, d_p, d_q, hbar):
    # (g_pp, g_pq, g_qq) = 2 hbar Re[<d_i psi|d_j psi> - <d_i psi|psi><psi|d_j psi>]
    conn_p = np.vdot(psi, d_p)
    conn_q = np.vdot(psi, d_q)
    g_pp = np.vdot(d_p, d_p) - np.conj(conn_p) * conn_p
    g_qq = np.vdot(d_q, d_q) - np.conj(conn_q) * conn_q
    g_pq = np.vdot(d_p, d_q) - np.conj(conn_p) * conn_q
    scale = 2.0 * hbar
    return np.array([scale * g_pp.real, scale * g_pq.real, scale * g_qq.real])


def _metric_from_map(state_map, p, q, h, hbar):
    psi0 = state_map(p, q).amplitudes
    dpp = (state_map(p + h, q).amplitudes - state_map(p - h, q).amplitudes) / (2.0 * h)
    dpq = (state_map(p, q + h).amplitudes - state_map(p, q - h).amplitudes) / (2.0 * h)
    return _fs_components(psi0, dpp, dpq, hbar)


def fs_metric_numeric(family: CoherentFamily, p: float, q: float) -> MetricTensor2:
    """Numeric Fubini-Study metric at ``(p, q)`` from the state map.

    Central differences at steps ``h = METRIC_STEP``, ``h/2`` and ``h/4``
    are combined by Richardson extrapolation; the pair of successive
    differences doubles as a convergence diagnostic.  A diverging difference
    sequence raises :class:`NumericalFailure` with the differences and the
    observed order in its diagnostics.
    """
    h = METRIC_STEP
    for pp, qq in ((p + h, q), (p - h, q), (p, q + h), (p, q - h), (p, q)):
        if not family.label_in_domain(pp, qq):
            raise DomainError(
                f"label ({pp}, {qq}) leaves the domain; ({p}, {q}) is not interior at step {h}"
            )
    hbar = family.rep.hbar
    g1 = _metric_from_map(family.state, p, q, h, hbar)
    g2 = _metric_from_map(family.state, p, q, h / 2.0, hbar)
    g4 = _metric_from_map(family.state, p, q, h / 4.0, hbar)
    d1 = float(np.max(np.abs(g1 - g2)))
    d2 = float(np.max(np.abs(g2 - g4)))
    scale = max(1.0, float(np.max(np.abs(g4))))
    # below this the differences sit at the roundoff floor of the inner
    # products and the order estimate is meaningless
    floor = 1e-10 * scale
    extrap = (4.0 * g4 - g2) / 3.0
    if not np.all(np.isfinite(extrap)) or (d2 > floor and d2 > d1):
        order = np.log2(d1 / d2) if d2 > floor and d1 > 0 else np.inf
        raise NumericalFailure(
            "central differences of the state map did not converge under step refinement",
            {"h": h, "diff_h_h2": d1, "diff_h2_h4": d2, "observed_order": order},
        )
    return MetricTensor2(float(extrap[0]), float(extrap[1]), float(extrap[2]))


def _brioschi_curvature(metric, p, q, h):
    # Gaussian curvature of a 2-D metric from central differences of its
    # components (Brioschi formula); works for non-diagonal tensors too.  It
    # is taken in the coordinates (sqrt(E0) p, sqrt(G0) q), where the metric
    # at the point has a unit diagonal: the stencil is the same, but the
    # components stay near 1 wherever the metric itself is in range.  A second
    # difference is divided by one step at a time: the square of a step can
    # underflow, and an exact zero must stay zero.
    m0 = metric(p, q)
    e0, g0 = m0.g_pp, m0.g_qq
    hp, hq, f0 = math.sqrt(e0) * h, math.sqrt(g0) * h, math.sqrt(e0 * g0)

    def comps(i, j):
        m = metric(p + i * h, q + j * h)
        return m.g_pp / e0, m.g_pq / f0, m.g_qq / g0

    E, F, G = 1.0, m0.g_pq / f0, 1.0
    cp, cm, cq, cqm = comps(1, 0), comps(-1, 0), comps(0, 1), comps(0, -1)
    E_p, F_p, G_p = ((a - b) / (2.0 * hp) for a, b in zip(cp, cm))
    E_q, F_q, G_q = ((a - b) / (2.0 * hq) for a, b in zip(cq, cqm))
    E_qq = (cq[0] - 2.0 * E + cqm[0]) / hq / hq
    G_pp = (cp[2] - 2.0 * G + cm[2]) / hp / hp
    corners = [comps(i, j)[1] for i, j in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    F_pq = (corners[0] - corners[1] - corners[2] + corners[3]) / (4.0 * hp) / hq

    # det [[-E_qq/2 + F_pq - G_pp/2, E_p/2, F_p - E_q/2], [F_q - G_p/2, E, F], [G_q/2, F, G]]
    # - det [[0, E_q/2, G_p/2], [E_q/2, E, F], [G_p/2, F, G]], each along its first row
    row = F_q - 0.5 * G_p
    det1 = ((-0.5 * E_qq + F_pq - 0.5 * G_pp) * (E * G - F * F)
            - 0.5 * E_p * (row * G - 0.5 * G_q * F) + (F_p - 0.5 * E_q) * (row * F - 0.5 * G_q * E))
    det2 = (-0.5 * E_q * (0.5 * E_q * G - 0.5 * G_p * F)
            + 0.5 * G_p * (0.5 * E_q * F - 0.5 * G_p * E))
    return (det1 - det2) / (E * G - F * F) ** 2


def scalar_curvature(family: CoherentFamily, p: float, q: float) -> float:
    """Scalar (Ricci) curvature of ``family``'s metric at ``(p, q)``.

    It is the family's declared constant ``curvature``, returned at every
    label its declared ``metric`` accepts; elsewhere that metric's
    :class:`DomainError` is raised.  The verify suite checks each declared
    curvature against :func:`_brioschi_curvature` of the declared metric.
    """
    family.metric(p, q)
    return family.curvature
