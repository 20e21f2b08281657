"""Reference computations that only the tests use.

Each one is a second route to a value the library computes another way:
the canonical commutator on the truncated Fock basis, the inner product of
two states, and the direct state expectation of a polynomial against its
shifted-moment label function.
"""

from dataclasses import dataclass

import numpy as np

from enhq.coherent import CoherentFamily
from enhq.correspondence import (
    OperatorPolynomial,
    _check_alphabet,
    _label_polynomial,
    _realized,
    poly_expectation,
)
from enhq.hilbert import DEFAULT_TRUNCATION_MARGIN, LineRep, StateVector


def commutator_defect(rep: LineRep, margin: int = DEFAULT_TRUNCATION_MARGIN) -> float:
    """Frobenius norm of ``[Q, P] - i*hbar`` projected on the first ``dim - margin`` states."""
    if margin < 1 or margin >= rep.dim:
        raise ValueError("margin must satisfy 1 <= margin < dim")
    m = rep.dim - margin
    c = rep.Q @ rep.P - rep.P @ rep.Q - 1j * rep.hbar * np.eye(rep.dim)
    return float(np.linalg.norm(c[:m, :m]))


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
    _check_alphabet(poly, family)
    label_poly = _label_polynomial(poly, family)
    rows = []
    for p, q in samples:
        direct = _realized(poly_expectation(poly, family, p, q), "direct expectation")
        shifted = label_poly(p, q)
        rows.append((float(p), float(q), abs(direct - shifted)))
    worst = max((r[2] for r in rows), default=0.0)
    return ShiftCheckReport(worst, tuple(rows))
