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
        for name in ("m", "e2", "beta", "hbar"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.beta <= self.hbar:
            raise DomainError(
                f"beta must exceed hbar (got beta = {self.beta}, hbar = {self.hbar})"
            )


def hydrogen_classical(params: HydrogenParams) -> EnhancedHamiltonian:
    """Closed-form ``p^2/(2m) - e^2/q`` with its gradient, on ``q > 0``."""
    m, e2 = params.m, params.e2

    ham = EnhancedHamiltonian(
        lambda p, q: p * p / (2.0 * m) - e2 / q,
        lambda p, q: (p / m, e2 / (q * q)),
        hbar=params.hbar,
        q_positive=True,
    )
    ham.params = params
    return ham


def hydrogen_enhanced(params: HydrogenParams) -> EnhancedHamiltonian:
    """Expectation-valued hydrogen with the closed-form core coefficients.

    ``C1 = e^2 <beta| 1/Q |beta>`` and ``C2 = <beta| P^2 |beta>`` come from
    :func:`fiducial_q_moment_closed` and :func:`fiducial_p2_closed`; the
    returned Hamiltonian carries them as ``c1`` and ``c2`` attributes.
    :func:`fiducial_moments` measures both on a half-line grid as an
    independent cross-check.
    """
    c1 = params.e2 * fiducial_q_moment_closed(params.beta, params.hbar, -1)
    c2 = fiducial_p2_closed(params.beta, params.hbar)
    m = params.m

    ham = EnhancedHamiltonian(
        lambda p, q: p * p / (2.0 * m) - c1 / q + c2 / (2.0 * m * q * q),
        lambda p, q: (p / m, c1 / (q * q) - c2 / (m * q * q * q)),
        hbar=params.hbar,
        q_positive=True,
    )
    ham.params = params
    ham.c1 = float(c1)
    ham.c2 = float(c2)
    return ham


def min_radius(H: EnhancedHamiltonian, energy: float) -> float:
    """Smallest positive root of ``E = -C1/q + C2/(2 m q^2)``.

    This is the inner turning radius of the enhanced hydrogen at energy
    ``E``; it satisfies ``|H(0, q_min) - E| < 1e-10``.  Energies below the
    minimum of the effective potential have no turning point and raise
    ``ValueError``.
    """
    c1 = getattr(H, "c1", None)
    c2 = getattr(H, "c2", None)
    params = getattr(H, "params", None)
    if c1 is None or c2 is None or params is None:
        raise ValueError("min_radius requires an enhanced hydrogen Hamiltonian")
    m = params.m
    if c2 <= 0:
        raise ValueError("min_radius requires a positive repulsive coefficient")
    disc = c1 * c1 + 2.0 * c2 * energy / m
    if disc < -1e-14 * c1 * c1:
        raise ValueError(
            f"energy {energy} lies below the effective potential minimum "
            f"{-c1 * c1 * m / (2.0 * c2)}"
        )
    # largest root u of (C2/2m) u^2 - C1 u - E = 0 with u = 1/q
    u = (c1 + np.sqrt(max(disc, 0.0))) * m / c2
    q = 1.0 / u
    # one Newton polish on H(0, q) - E for a clean residual
    for _ in range(3):
        f = H.evaluate(0.0, q) - energy
        df = H.gradient(0.0, q)[1]
        if df == 0.0:
            break
        step = f / df
        q -= step
        if abs(step) < 1e-15 * q:
            break
    if abs(H.evaluate(0.0, q) - energy) > 1e-10 * max(1.0, abs(energy)):
        raise ValueError(f"no reliable turning point at energy {energy}")
    return float(q)


def spin_precession(B: float, rep: SpinRep) -> EnhancedHamiltonian:
    """Uniform precession generator ``B * S3`` restricted to spin labels.

    The label function is ``H(p, q) = B sqrt(s hbar) p``: the azimuth
    advances linearly at rate ``B`` while ``p`` stays constant.
    """
    sq = np.sqrt(rep.s * rep.hbar)
    return EnhancedHamiltonian(lambda p, q: B * sq * p, lambda p, q: (B * sq, 0.0), hbar=rep.hbar,
                               label_domain=spin_family(rep).label_domain)
