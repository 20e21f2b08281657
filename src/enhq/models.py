"""Concrete model Hamiltonians: one-dimensional hydrogen and spin precession.

The classical hydrogen Hamiltonian ``p^2/(2m) - e^2/q`` on ``q > 0`` collapses
in finite time.  Its expectation-valued counterpart over affine coherent
states gains a repulsive core,

    ``H(p, q) = p^2/(2m) - C1/q + C2/(2 m q^2)``,

whose coefficients are fiducial expectations rather than assumptions:
``C1 = e^2 <beta| 1/Q |beta> = e^2 2 nu / (2 nu - 1)`` and
``C2 = <beta| P^2 |beta> = beta^2 hbar / (2 (beta - hbar))`` with
``nu = beta / hbar``, both in closed form (the fiducial density is a Gamma
density).  With the core present every negative-energy flow turns at a
strictly positive radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent import fiducial_p2_closed, fiducial_q_moment_closed, spin_family
from .correspondence import EnhancedHamiltonian
from .errors import DomainError
from .hilbert import SpinRep


@dataclass(frozen=True)
class HydrogenParams:
    """Mass, coupling, fiducial width, and action quantum for the hydrogen models."""

    m: float = 1.0
    e2: float = 1.0
    beta: float = 2.0
    hbar: float = 1.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.beta <= self.hbar:
            raise DomainError(
                f"beta must exceed hbar (got beta = {self.beta}, hbar = {self.hbar})"
            )

    @property
    def enhanced_core(self) -> tuple[float, float]:
        """The core coefficients ``(C1, C2)`` of the enhanced hydrogen.

        ``C1 = e^2 <beta| 1/Q |beta>`` and ``C2 = <beta| P^2 |beta>``, from
        :func:`fiducial_q_moment_closed` and :func:`fiducial_p2_closed`;
        :func:`fiducial_moments` measures both on a half-line grid as an
        independent cross-check.
        """
        return (self.e2 * fiducial_q_moment_closed(self.beta, self.hbar, -1),
                fiducial_p2_closed(self.beta, self.hbar))


def hydrogen_classical(params: HydrogenParams) -> EnhancedHamiltonian:
    """Closed-form ``p^2/(2m) - e^2/q`` with its gradient, on ``q > 0``."""
    m, e2 = params.m, params.e2
    return EnhancedHamiltonian(
        lambda p, q: p * p / (2.0 * m) - e2 / q,
        lambda p, q: (p / m, e2 / (q * q)),
        hbar=params.hbar,
        q_positive=True,
    )


def hydrogen_enhanced(params: HydrogenParams) -> EnhancedHamiltonian:
    """Expectation-valued hydrogen with the core ``params.enhanced_core``."""
    c1, c2 = params.enhanced_core
    m = params.m
    return EnhancedHamiltonian(
        lambda p, q: p * p / (2.0 * m) - c1 / q + c2 / (2.0 * m * q * q),
        lambda p, q: (p / m, c1 / (q * q) - c2 / (m * q * q * q)),
        hbar=params.hbar,
        q_positive=True,
    )


def min_radius(params: HydrogenParams, energy: float) -> float:
    """Inner turning radius of the enhanced hydrogen at energy ``E``.

    The smallest positive root of ``E = -C1/q + C2/(2 m q^2)``, in the
    cancellation-free form ``(C2/m) / (C1 + sqrt(C1^2 + 2 E C2/m))``; it
    satisfies ``|H(0, q_min) - E| <= 1e-10 max(1, |E|)``.  Energies below the
    minimum of the effective potential have no turning point and raise
    ``ValueError``.
    """
    c1, c2 = params.enhanced_core
    m = params.m
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
    return EnhancedHamiltonian(lambda p, q: B * sq * p, lambda p, q: (B * sq, 0.0), hbar=rep.hbar,
                               label_domain=spin_family(rep).label_domain)
