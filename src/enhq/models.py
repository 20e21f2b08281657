"""Concrete model Hamiltonians: one-dimensional hydrogen and spin precession.

Hydrogen is the affine polynomial ``P^2/(2m) - e2 Q^-1``.  Its classical
symbol ``p^2/(2m) - e^2/q`` collapses in finite time; restricted to affine
coherent states by :func:`~enhq.correspondence.enhance` it becomes
``p^2/(2m) - C1/q + C2/(2m q^2)`` with ``C1 = e^2 <beta| Q^-1 |beta>`` and
``C2 = <beta| P^2 |beta>`` (Klauder, arXiv 1204.2870), whose repulsive core
turns every negative-energy flow at a strictly positive radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coherent import affine_family, spin_family
from .correspondence import EnhancedHamiltonian, OperatorPolynomial, classical_hamiltonian, enhance
from .errors import DomainError
from .hilbert import HalfLineRep, SpinRep


@dataclass(frozen=True)
class HydrogenParams:
    """Mass, coupling, fiducial width, and action quantum for the hydrogen models.

    Each must be positive and finite, else :class:`ValueError` names it, and
    ``beta > hbar``, else :class:`DomainError`.
    """

    m: float = 1.0
    e2: float = 1.0
    beta: float = 2.0
    hbar: float = 1.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite (got {value})")
        if self.beta <= self.hbar:
            raise DomainError(
                f"beta must exceed hbar (got beta = {self.beta}, hbar = {self.hbar})"
            )

    @cached_property
    def enhanced_core(self) -> tuple[float, float]:
        """The core ``(C1, C2)``, read once off the label polynomial of :func:`hydrogen_enhanced`.

        ``C1`` is minus its ``(0, -1)`` coefficient and ``C2`` is ``2m`` times its ``(0, -2)``
        one: ``e2 <beta| Q^-1 |beta>`` and ``<beta| P^2 |beta>``, exact fiducial moments of the
        affine family (the tests check them against closed forms written out by hand).
        """
        return _core(hydrogen_enhanced(self), self.m)


def _core(enhanced: EnhancedHamiltonian, m: float) -> tuple[float, float]:
    # (C1, C2) off the label polynomial of the enhanced hydrogen of mass m
    coeffs = enhanced.polynomial.coeffs
    return -coeffs[0, -1], 2.0 * m * coeffs[0, -2]


def _hydrogen(params: HydrogenParams) -> OperatorPolynomial:
    return OperatorPolynomial([(0.5 / params.m, ("P", "P")), (-params.e2, ("Q^-1",))], "affine")


def hydrogen_classical(params: HydrogenParams) -> EnhancedHamiltonian:
    """The classical symbol ``p^2/(2m) - e^2/q`` of the hydrogen polynomial, on ``q > 0``."""
    return classical_hamiltonian(_hydrogen(params))


def hydrogen_enhanced(params: HydrogenParams) -> EnhancedHamiltonian:
    """The hydrogen polynomial restricted to the affine family of width ``params.beta``."""
    rep = HalfLineRep(np.empty(0), np.empty(0), params.hbar)  # the moments are closed forms: no grid
    return enhance(_hydrogen(params), affine_family(rep, params.beta))


def min_radius(params: HydrogenParams, energy: float) -> float:
    """Inner turning radius of the enhanced hydrogen at energy ``E``.

    The smallest positive root of ``E = -C1/q + C2/(2 m q^2)``, in the
    cancellation-free form ``(C2/m) / (C1 + sqrt(C1^2 + 2 E C2/m))``; ``H(0, q_min)``
    meets ``E`` to the rounding of its terms ``C1/q_min``.  Energies below the
    minimum of the effective potential have no turning point and raise
    ``ValueError``.
    """
    return _turning_radius(params.enhanced_core, params.m, energy)


def _turning_radius(core: tuple[float, float], m: float, energy: float) -> float:
    # min_radius of the core (C1, C2) and mass m
    c1, c2 = core
    disc = c1 * c1 + 2.0 * energy * c2 / m
    if disc < -1e-14 * c1 * c1:
        raise ValueError(
            f"energy {energy} lies below the effective potential minimum "
            f"{-c1 * c1 * m / (2.0 * c2)}"
        )
    return (c2 / m) / (c1 + math.sqrt(max(disc, 0.0)))


def spin_precession(B: float, rep: SpinRep) -> EnhancedHamiltonian:
    """Uniform precession generator ``B * S3`` restricted to spin labels.

    The label function is ``H(p, q) = B sqrt(s hbar) p``: the azimuth
    advances linearly at rate ``B`` while ``p`` stays constant.
    """
    sq = np.sqrt(rep.s * rep.hbar)
    return EnhancedHamiltonian(lambda p, q: B * sq * p, lambda p, q: (B * sq, 0.0),
                               label_domain=spin_family(rep).label_domain)
