"""Reference computations that only the tests use.

Each one is a second route to a value the library computes another way:
the canonical commutator on the truncated Fock basis, the inner product of
two states, the mean and variance of an operator in a state against the
restricted label functions, the direct state expectation of a polynomial
against its shifted-moment label function, and a polynomial fit in hbar over
one representation per hbar against the exact hbar-series.
"""

from dataclasses import dataclass

import numpy as np

from enhq.coherent import CoherentFamily
from enhq.correspondence import OperatorPolynomial, _realized, enhance, poly_expectation
from enhq.errors import NumericalFailure
from enhq.hilbert import DEFAULT_TRUNCATION_MARGIN, LineRep, StateVector

#: Largest fit residual of :func:`classical_limit`, relative to the value scale.
LIMIT_RESIDUAL_TOL = 1e-6


def commutator_defect(rep: LineRep, margin: int = DEFAULT_TRUNCATION_MARGIN) -> float:
    """Frobenius norm of ``[Q, P] - i*hbar`` projected on the first ``dim - margin`` states."""
    if margin < 1 or margin >= rep.dim:
        raise ValueError("margin must satisfy 1 <= margin < dim")
    m = rep.dim - margin
    c = rep.Q @ rep.P - rep.P @ rep.Q - 1j * rep.hbar * np.eye(rep.dim)
    return float(np.linalg.norm(c[:m, :m]))


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
