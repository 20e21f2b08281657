"""Reference computations that only the tests use.

Each one is a second route to a value the library computes another way:
the canonical commutator on the truncated Fock basis, the closed forms of
the affine fiducial's moments against its exact span, the half line's
finite-difference letters against its closed-form moments, the inner product
of two states, the mean and variance of an operator in a state against the
restricted label functions, the direct state expectation of a polynomial
against its shifted-moment label function, a walk over a label polynomial's
terms against its compiled code, a polynomial fit in hbar over one
representation per hbar against the exact hbar-series, the letters
differentiated on the labeled affine state, in exact rationals, against the
shifted-moment coefficients, the expansion of each word over every
product of its letters' shifted terms against the one span walk per word,
a label polynomial multiplied out one factor of the inverse relabeling
at a time, and called through it by the chain rule, against its binomial
substitution, the metric of each family's exact state derivatives against
its declared metric and the differenced one, the quadrature of the
restricted action, stationary along the flow's orbits, and the closed-form
Kepler orbits of the classical and enhanced hydrogen against their flows.
"""

import cmath
import copy
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
import scipy.sparse as sp

from enhq.coherent import CoherentFamily, MetricTensor2, _fs_components
from enhq.correspondence import (EnhancedHamiltonian, OperatorPolynomial, _realized, enhance,
                                 poly_expectation)
from enhq.dynamics import CanonicalTransform, Trajectory, transform_hamiltonian
from enhq.errors import DomainError, NumericalFailure
from enhq.hilbert import DEFAULT_TRUNCATION_MARGIN, HalfLineRep, LineRep, StateVector
from enhq.models import HydrogenParams

#: Largest fit residual of :func:`classical_limit`, relative to the value scale.
LIMIT_RESIDUAL_TOL = 1e-6


def commutator_defect(rep: LineRep, margin: int = DEFAULT_TRUNCATION_MARGIN) -> float:
    """Frobenius norm of ``[Q, P] - i*hbar`` projected on the first ``dim - margin`` states."""
    if margin < 1 or margin >= rep.dim:
        raise ValueError("margin must satisfy 1 <= margin < dim")
    m = rep.dim - margin
    c = rep.Q @ rep.P - rep.P @ rep.Q - 1j * rep.hbar * np.eye(rep.dim)
    return float(np.linalg.norm(c[:m, :m]))


def tangent(family: CoherentFamily, p: float, q: float) -> tuple:
    """Return ``(psi, d_p psi, d_q psi)`` as amplitude arrays, ``psi`` that of ``family.state(p, q)``.

    The derivatives are those of the closed-form state maps, taken exactly:
    each is a generator applied to the state.  On the line the state is
    ``e^{-ipq/2hbar} e^{-|a|^2/2} e^{a A^dag}|0>`` carried by the extended
    family's fixed rotation and squeeze ``U`` (the identity on the canonical
    family), so the derivatives are ``U A^dag U^dag psi`` plus a multiple of
    ``psi``; on the half line they are ``i x / hbar`` and
    ``(nu / q) (x / q - 1)`` times ``psi``, ``nu = beta / hbar``.  There, and
    for the truncated Fock series, they are those of the state before it is
    normalized, which differ from the normalized map's only along ``psi``.
    On the sphere ``psi = e^{-i m phi} chi`` with ``chi`` the state at
    ``phi = 0``, so ``d_theta = (-i/hbar) e^{-i m phi} (S2 chi)`` and
    ``d_phi = (-i/hbar) S3 psi = -i m psi``, with
    ``d theta / d p = -1 / sqrt(s hbar - p^2)``; the poles raise
    :class:`DomainError`.  The state's tail and domain checks raise as
    ``family.state`` does.
    """
    psi = family.state(p, q).amplitudes
    hbar = family.rep.hbar
    if family.kind == "spin":
        rep = family.rep
        shbar = rep.s * hbar
        if p * p >= shbar:
            raise DomainError(f"the spin chart is singular at the poles (got p = {p})")
        m = rep.s - np.arange(rep.dim)
        chi = family.state(p, 0.0).amplitudes
        d_theta = (-1j / hbar) * np.exp(-1j * (q / np.sqrt(shbar)) * m) * (rep.S2 @ chi)
        return psi, (-1.0 / np.sqrt(shbar - p * p)) * d_theta, -1j * m * psi / np.sqrt(shbar)
    if family.half_line:
        x, nu = family.rep.grid, family.beta / hbar
        return psi, (1j / hbar) * x * psi, (nu / q) * (x / q - 1.0) * psi
    # U A^dag U^dag = e^{-2ia} cosh(2b) A^dag - e^{2ia} sinh(2b) A, where a b
    # whose state passed the tail check is far from overflowing cosh
    a, b, root_n = family.a, family.b, np.sqrt(np.arange(1, psi.size))
    raised = np.zeros_like(psi)
    raised[1:] = (cmath.exp(-2j * a) * math.cosh(2.0 * b)) * root_n * psi[:-1]
    raised[:-1] -= (cmath.exp(2j * a) * math.sinh(2.0 * b)) * root_n * psi[1:]
    root = np.sqrt(2.0 * hbar)
    d_p = (1j / root) * raised - (complex(p, q) / (2.0 * hbar)) * psi
    d_q = raised / root - (complex(q, p) / (2.0 * hbar)) * psi
    return psi, d_p, d_q


def fs_metric(family: CoherentFamily, p: float, q: float) -> MetricTensor2:
    """Fubini-Study metric at ``(p, q)`` from one state and its exact :func:`tangent`.

    This is the metric of the map that ``family.state`` computes, with no
    step and no extrapolation: the reference for each family's declared
    ``metric`` and for ``fs_metric_numeric``.  Labels off the family's
    domain, and the spin poles, raise :class:`DomainError`.
    """
    family._require_label(p, q)
    g = _fs_components(*tangent(family, p, q), family.rep.hbar)
    return MetricTensor2(float(g[0]), float(g[1]), float(g[2]))


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


def halfline_letters(rep: HalfLineRep) -> dict:
    """The half line's ``Q``, ``Q^-1``, ``D`` and formal ``P`` as sparse matrices on its grid.

    ``Q`` and ``Q^-1`` are diagonal with the grid values and their reciprocals.  ``D``, the discretization of
    ``-i*hbar*(x d/dx + 1/2)``, is ``-i*hbar`` times the five-point central
    stencil of ``d/du`` in ``u = log x``, where the weight-folded amplitudes
    are half-density samples: the stencil is exactly antisymmetric, so ``D``
    is Hermitian regardless of boundary truncation.  ``P = Q^-1 (D + i*hbar/2)``
    is the formal momentum ``-i*hbar d/dx``, which is not self adjoint on the
    half line.
    """
    n, hbar, x = rep.dim, rep.hbar, rep.grid
    du = (np.log(x[-1]) - np.log(x[0])) / (n - 1)
    stencil = sp.diags([np.full(n - 2, 1.0), np.full(n - 1, -8.0), np.full(n - 1, 8.0),
                        np.full(n - 2, -1.0)], [-2, -1, 1, 2], format="csr")
    d_op = (-1j * hbar / (12.0 * du)) * stencil
    p_op = sp.diags(1.0 / x) @ (d_op + (0.5j * hbar) * sp.identity(n))
    return {"Q": sp.diags(x, format="csr"), "Q^-1": sp.diags(1.0 / x, format="csr"),
            "D": d_op.tocsr(), "P": p_op.tocsr()}


def stencil_family(family: CoherentFamily) -> CoherentFamily:
    """A copy of an affine family that holds the :func:`halfline_letters` of its grid.

    :func:`poly_expectation` on the copy is the grid route of an affine
    polynomial, against the span engine of :func:`enhance`.
    """
    grid = copy.copy(family)
    grid.letters = halfline_letters(family.rep)
    return grid


def fiducial_q_moment_closed(beta: float, hbar: float, n: int) -> float:
    """Closed form of ``<beta| Q^n |beta>`` for an integer ``n``.

    The fiducial density is a Gamma density with shape and rate both equal to
    ``nu2 = 2 beta / hbar``, so the moment is ``Gamma(nu2 + n) / (Gamma(nu2) nu2^n)``,
    here in floats by the recurrence ``Gamma(z + 1) = z Gamma(z)``.  A negative
    power is finite only for ``beta > -n hbar / 2`` (else :class:`DomainError`).
    """
    if int(n) != n:
        raise ValueError("n must be an integer")
    if 2.0 * beta + n * hbar <= 0:
        raise DomainError(f"<Q^{n}> requires beta > {-n}/2 * hbar")
    nu2 = 2.0 * beta / hbar
    rising = math.prod(1.0 + j / nu2 for j in range(int(n)))
    falling = math.prod(1.0 + j / nu2 for j in range(int(n), 0))
    return rising / falling


def fiducial_p2_closed(beta: float, hbar: float) -> float:
    """Closed form ``beta^2 hbar / (2 (beta - hbar))`` of the momentum second moment.

    Finite for ``beta > hbar`` (else :class:`DomainError`), and formed as
    ``beta / (beta - hbar) * (beta / 2) * hbar``, which overflows only where
    the moment itself does.
    """
    if beta <= hbar:
        raise DomainError(f"<P^2> requires beta > hbar (got beta = {beta}, hbar = {hbar})")
    return float(beta / (beta - hbar) * (0.5 * beta) * hbar)


def affine_label_coefficients(poly: OperatorPolynomial, beta: float, hbar: float) -> dict:
    """The exact coefficients ``{(i, j): (re, im)}`` of ``<p,q| poly |p,q>`` on the affine family.

    The letters act on the labeled state itself, not on the fiducial through
    the group's adjoint action: with ``E = exp((i p / hbar - nu / q) x)`` and
    ``nu = beta / hbar``, the state is a multiple of ``f_0``, where
    ``f_k = x^(nu - 1/2 + k) E``, and differentiating ``E`` gives
    ``P f_k = -i hbar (nu - 1/2 + k) f_(k-1) + (p + i beta / q) f_k`` and
    ``D f_k = -i hbar (nu + k) f_k + (p + i beta / q) f_(k+1)``.  The pairing
    ``<f_0|f_k> / <f_0|f_0>`` is ``q^k Gamma(2 nu + k) / (Gamma(2 nu) (2 nu)^k)``.
    Every number is a pair of :class:`~fractions.Fraction` (real and
    imaginary part), and the coefficients of ``p^i q^j`` are Laurent
    polynomials in the labels; nothing is rounded.
    """
    beta, hbar = Fraction(beta), Fraction(hbar)
    nu = beta / hbar

    def add(poly_a, key, c):
        re, im = poly_a.get(key, (0, 0))
        poly_a[key] = (re + c[0], im + c[1])

    def times(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    def apply(letter, vec):
        # vec maps k to the Laurent polynomial {(i, j): c} that multiplies f_k
        out = {}
        for k, terms in vec.items():
            for (i, j), c in terms.items():
                if letter in ("Q", "Q^-1"):
                    add(out.setdefault(k + (1 if letter == "Q" else -1), {}), (i, j), c)
                    continue
                # -i hbar (nu - 1/2 + k) on f_(k-1) for P, -i hbar (nu + k) on f_k for D
                shift, base = (-1, nu - Fraction(1, 2) + k) if letter == "P" else (0, nu + k)
                add(out.setdefault(k + shift, {}), (i, j), times((0, -hbar * base), c))
                # (p + i beta / q) on f_k for P, on f_(k+1) for D
                target = out.setdefault(k if letter == "P" else k + 1, {})
                add(target, (i + 1, j), c)
                add(target, (i, j - 1), times((0, beta), c))
        return out

    def q_moment(k):
        out = Fraction(1)
        for j in range(k):
            out *= (2 * nu + j) / (2 * nu)
        for j in range(k, 0):
            out *= 2 * nu / (2 * nu + j)
        return out

    total = {}
    for word, coeff in poly.terms:
        vec = {0: {(0, 0): (Fraction(coeff), 0)}}
        for letter in reversed(word):
            vec = apply(letter, vec)
        for k, terms in vec.items():
            m = q_moment(k)
            for (i, j), (re, im) in terms.items():
                add(total, (i, j + k), (re * m, im * m))
    return total


def expanded_label_terms(poly: OperatorPolynomial, family: CoherentFamily, scale, graded: bool) -> dict:
    """The exact label coefficients of a line or half-line family, word by word over every product.

    Each word expands over every product of its letters' weighted shifted
    terms, ``2^m`` of them for ``m`` letters of two terms.  The moment of each
    kept subword is taken once, by walking the family's span from the
    fiducial, and paired by the subword's letters: on the line a
    subword of ``m`` letters has ``i^(#P) (hbar/2)^(m/2) <0|vec>``, 0 for odd
    ``m``; on the half line ``(-i hbar)^n sum_k c_k <Q^k>`` with ``n`` its
    ``P`` and ``D``, where a ``<Q^k>`` with ``2 beta / hbar + k <= 0``
    raises :class:`DomainError` naming ``<Q^k>``.  Returns what
    ``correspondence._label_terms`` returns: each coefficient's exact
    ``[re, im]``, in units of the word's coefficient and of ``scale`` for
    ``moment_scale``, keyed by the powers ``(i, j)`` (and ``((i, j), n)`` if
    ``graded``) in the order the products first reach them.
    """
    def exact(x):
        return int(x) if x.is_integer() else Fraction(x)

    def moment(kept):
        vec = {0: 1}
        for letter in reversed(kept):
            out = defaultdict(int)
            for k, c in vec.items():
                for k_out, factor in family._span_action(letter, k):
                    out[k_out] += factor * c
            vec = out
        if not family.half_line:
            m = len(kept)
            return (0, 0, 0) if m % 2 else (kept.count("P") % 4, vec[0], m // 2)
        nu2 = 2 * Fraction(family.beta) / family.moment_scale
        low = min(vec)
        if nu2 + low <= 0:
            raise DomainError(f"<Q^{low}> diverges")
        n = kept.count("P") + kept.count("D")
        return -n % 4, sum(c * math.prod((nu2 + j) / nu2 for j in range(k))
                           * math.prod(nu2 / (nu2 + j) for j in range(k, 0)) for k, c in vec.items()), n

    shifted = {x: [(exact(w), *rest) for w, *rest in terms] for x, terms in family.shifted.items()}
    moments, sums = {}, {}
    for word, coeff in poly.terms:
        parts = {}
        for terms in itertools.product(*(shifted[letter] for letter in word)):
            kept = tuple(letter for _, letter, _ in terms if letter is not None)
            if kept not in moments:
                moments[kept] = moment(kept)
            k, r, n = moments[kept]
            powers = tuple(sum(t[2][e] for t in terms) for e in (0, 1))
            part = parts.setdefault((powers, n), [0, 0])
            term = math.prod(t[0] for t in terms) * r
            part[k % 2] += term if k < 2 else -term
        for key, (re, im) in parts.items():
            unit = exact(coeff) * scale ** key[1]
            total = sums.setdefault(key if graded else key[0], [0, 0])
            total[0] += unit * re
            total[1] += unit * im
    return sums


def label_polynomial_loop(coeffs: dict, p: float, q: float):
    """The value and gradient of a label polynomial ``{(i, j): c}`` by a walk over its terms.

    Each term is ``c * p**i * q**j``, with ``pow``, summed in the dict's
    order; the gradient takes the terms' derivatives the same way.  Returns
    ``(value, dH/dp, dH/dq)`` and, for each, the sum of its terms' absolute
    values, the scale of its roundoff.
    """
    parts = ([(c, i, j) for (i, j), c in coeffs.items()],
             [(i * c, i - 1, j) for (i, j), c in coeffs.items() if i],
             [(j * c, i, j - 1) for (i, j), c in coeffs.items() if j])
    sums, scales = [], []
    for terms in parts:
        total = scale = 0.0
        for c, i, j in terms:
            total += c * p**i * q**j
            scale += abs(c * p**i * q**j)
        sums.append(total)
        scales.append(scale)
    return tuple(sums), tuple(scales)


def relabeled_label_coefficients(coeffs: dict, tr: CanonicalTransform) -> dict:
    """A label polynomial ``{(i, j): c}`` in the labels ``(p~, q~)`` of ``tr``, multiplied out.

    Each term takes ``p = d p~ - b q~`` and ``q = a q~ - c p~`` one factor
    at a time, in exact rationals of the matrix's float entries; the terms
    of each power are summed exactly, and each nonzero sum is rounded once.
    """
    (a, b), (c, d) = ((Fraction(x) for x in row) for row in tr.matrix)
    inverse = ({(1, 0): d, (0, 1): -b}, {(1, 0): -c, (0, 1): a})
    total = defaultdict(Fraction)
    for (i, j), coeff in coeffs.items():
        term = {(0, 0): Fraction(coeff)}
        for factor in [inverse[0]] * i + [inverse[1]] * j:
            product = defaultdict(Fraction)
            for (i1, j1), u in term.items():
                for (i2, j2), v in factor.items():
                    product[i1 + i2, j1 + j2] += u * v
            term = product
        for key, value in term.items():
            total[key] += value
    return {key: float(value) for key, value in total.items() if value}


def chain_rule_hamiltonian(H: EnhancedHamiltonian, tr: CanonicalTransform) -> EnhancedHamiltonian:
    """``H`` relabeled by ``tr`` through its callables alone: ``H`` at the inverse map, ``M^-T grad``.

    The compiled polynomial is withheld, so :func:`transform_hamiltonian`
    takes its chain-rule route.
    """
    return transform_hamiltonian(EnhancedHamiltonian(H._evaluate, H._gradient), tr)


def hydrogen_by_hand(params: HydrogenParams):
    """The hydrogen label functions and gradients as written by hand.

    Returns the classical ``p^2/(2m) - e^2/q`` and the enhanced
    ``p^2/(2m) - C1/q + C2/(2m q^2)``, each as ``(value, gradient)``, with
    ``C1`` and ``C2`` from the closed forms :func:`fiducial_q_moment_closed`
    and :func:`fiducial_p2_closed`: the reference for the models, which
    restrict the operator polynomial through the engine.
    """
    m, e2 = params.m, params.e2
    c1 = e2 * fiducial_q_moment_closed(params.beta, params.hbar, -1)
    c2 = fiducial_p2_closed(params.beta, params.hbar)
    classical = (lambda p, q: p * p / (2.0 * m) - e2 / q,
                 lambda p, q: (p / m, e2 / (q * q)))
    enhanced = (lambda p, q: p * p / (2.0 * m) - c1 / q + c2 / (2.0 * m * q * q),
                lambda p, q: (p / m, c1 / (q * q) - c2 / (m * q * q * q)))
    return classical, enhanced


def label_energy(coeffs: dict, p: float, q: float):
    """The label polynomial ``{(i, j): c}`` at ``(p, q)``, exact in ``mpmath`` at 40 digits."""
    with mpmath.workdps(40):
        return mpmath.fsum(mpmath.mpf(c) * mpmath.mpf(p) ** i * mpmath.mpf(q) ** j
                           for (i, j), c in coeffs.items())


def _kepler_constants(coeffs: dict):
    # (m, C1, C2) of the label polynomial p^2/2m - C1/q + C2/(2m q^2), in mpmath
    m = 1 / (2 * mpmath.mpf(coeffs[2, 0]))
    return m, -mpmath.mpf(coeffs[0, -1]), 2 * m * mpmath.mpf(coeffs.get((0, -2), 0.0))


def cycloid_floor_time(coeffs: dict, p0: float, q0: float, q_floor: float) -> float:
    """The time the classical ``p^2/2m - C/q`` takes to fall from ``(p0 <= 0, q0)`` to ``q_floor``.

    At an energy ``E < 0`` the orbit is the cycloid ``q = a(1 - cos eta)``,
    ``t = sqrt(m a^3 / C) (eta - sin eta)`` with ``a = C / 2|E|``, infalling for
    ``pi <= eta < 2 pi``.  ``coeffs`` are the label polynomial's, taken as exact
    binary numbers, and the arithmetic is ``mpmath``'s at 40 digits.
    """
    with mpmath.workdps(40):
        m, c, _ = _kepler_constants(coeffs)
        a = c / (-2 * label_energy(coeffs, p0, q0))

        def time(q):
            eta = 2 * mpmath.pi - mpmath.acos(1 - mpmath.mpf(q) / a)
            return mpmath.sqrt(m * a ** 3 / c) * (eta - mpmath.sin(eta))

        return float(time(q_floor) - time(q0))


def kepler_turning_radius(coeffs: dict, p0: float, q0: float) -> float:
    """The pericentre of the enhanced ``p^2/2m - C1/q + C2/(2m q^2)`` through ``(p0, q0)``.

    At ``E < 0`` it is a radial Kepler orbit with ``L^2 = C2``:
    ``q = a(1 - e cos eta)`` with ``a = C1 / 2|E|`` and ``e^2 = 1 - C2 / (m C1 a)``, whose
    smallest radius is ``a(1 - e)``; in ``mpmath`` at 40 digits, as :func:`cycloid_floor_time`.
    """
    with mpmath.workdps(40):
        m, c1, c2 = _kepler_constants(coeffs)
        a = c1 / (-2 * label_energy(coeffs, p0, q0))
        return float(a * (1 - mpmath.sqrt(1 - c2 / (m * c1 * a))))


def expectation(state: StateVector, op) -> complex:
    """Return ``<psi| op |psi>``.

    The imaginary part is a roundoff-level residual whenever ``op`` is
    Hermitian; callers that know this take the real part themselves.
    """
    a = state.amplitudes
    if op.shape != (a.size, a.size):
        raise ValueError(
            f"operator shape {op.shape} does not match state dimension {a.size}"
        )
    return complex(np.vdot(a, op @ a))


def variance(state: StateVector, op) -> float:
    """Variance ``<op^2> - <op>^2`` for a Hermitian operator."""
    w = op @ state.amplitudes
    mean = np.real(np.vdot(state.amplitudes, w))
    return float(np.real(np.vdot(w, w)) - mean * mean)


def overlap(s1: StateVector, s2: StateVector) -> complex:
    """Inner product ``<s1|s2>`` of two states in the same representation."""
    if s1.dim != s2.dim or s1.rep.hbar != s2.rep.hbar:
        raise ValueError("states do not live in the same representation")
    return complex(np.vdot(s1.amplitudes, s2.amplitudes))


@dataclass(frozen=True)
class ShiftCheckReport:
    """Two-route agreement report for the canonical group-coordinate shift."""

    max_deviation: float
    deviations: tuple


def shift_identity_check(poly: OperatorPolynomial, family: CoherentFamily, samples) -> ShiftCheckReport:
    """Compare direct state expectations against the shifted-moment route.

    ``samples`` is an iterable of ``(p, q)`` labels inside the
    truncation-adequate region of the family's representation.
    """
    if family.kind != "canonical":
        raise ValueError("the shift identity applies to canonical families")
    label_poly = enhance(poly, family)
    rows = []
    for p, q in samples:
        direct = _realized(poly_expectation(poly, family, p, q), "direct expectation")
        shifted = label_poly(p, q)
        rows.append((float(p), float(q), abs(direct - shifted)))
    worst = max((r[2] for r in rows), default=0.0)
    return ShiftCheckReport(worst, tuple(rows))


@dataclass(frozen=True)
class LimitFit:
    """Polynomial-in-hbar extrapolation of ``H(p, q; hbar)`` to ``hbar = 0``.

    ``leading_power`` is the lowest positive power with a non-negligible
    coefficient, or 0 when the values are hbar independent.
    """

    limit: float
    leading_power: int
    coefficients: tuple
    residual: float


def classical_limit(builder, p: float, q: float, hbar_sequence) -> LimitFit:
    """Extrapolate ``builder(hbar).evaluate(p, q)`` to ``hbar -> 0``.

    ``builder`` maps each hbar in the decreasing positive sequence (length at
    least 3) to an :class:`EnhancedHamiltonian`; a polynomial fit in hbar, of
    degree ``min(len(hbar_sequence) - 1, 4)``, yields the limit and the
    leading power.  A fit residual above :data:`LIMIT_RESIDUAL_TOL` (relative
    to the value scale) raises :class:`NumericalFailure` carrying the
    residuals.
    """
    hbars = [float(h) for h in hbar_sequence]
    if len(hbars) < 3:
        raise ValueError("need at least 3 hbar values")
    if any(h <= 0 for h in hbars) or any(b >= a for a, b in zip(hbars, hbars[1:])):
        raise ValueError("hbar_sequence must be positive and strictly decreasing")
    values = np.array([builder(h).evaluate(p, q) for h in hbars])
    coeffs = np.polynomial.polynomial.polyfit(np.array(hbars), values, min(len(hbars) - 1, 4))
    fitted = np.polynomial.polynomial.polyval(np.array(hbars), coeffs)
    residual = float(np.max(np.abs(fitted - values)))
    scale = max(1.0, float(np.max(np.abs(values))))
    if residual > LIMIT_RESIDUAL_TOL * scale:
        raise NumericalFailure(
            "polynomial fit in hbar did not converge",
            {"residuals": (fitted - values).tolist(), "hbars": hbars},
        )
    leading = 0
    for k in range(1, len(coeffs)):
        if abs(coeffs[k]) > 1e-8 * scale:
            leading = k
            break
    return LimitFit(float(coeffs[0]), leading, tuple(float(c) for c in coeffs), residual)
