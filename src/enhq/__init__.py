"""Coherent-state families, expectation-valued Hamiltonians, and label-space dynamics."""

__version__ = "0.1.0"

from .errors import CapacityError, DomainError, InvalidTransformError, NumericalFailure
from .hilbert import (
    HalfLineRep,
    LineRep,
    SpinRep,
    StateVector,
    apply_unitary,
    build_fock_rep,
    build_halfline_rep,
    build_spin_rep,
)
from .coherent import (
    CoherentFamily,
    MetricTensor2,
    affine_family,
    affine_fiducial,
    canonical_family,
    extended_family,
    fiducial_moments,
    fs_metric_numeric,
    scalar_curvature,
    spin_family,
)
from .correspondence import (
    EnhancedHamiltonian,
    OperatorPolynomial,
    classical_hamiltonian,
    enhance,
    hbar_series,
    parse_polynomial,
    poly_expectation,
)
from .dynamics import (
    CanonicalTransform,
    PhasePoint,
    Trajectory,
    TrajectoryEvent,
    apply_transform,
    hamiltonian_flow,
    line_integral_p_dq,
    rotation_transform,
    scaling_transform,
    transform_hamiltonian,
    verify_transform_action,
)
from .models import (
    HydrogenParams,
    hydrogen_classical,
    hydrogen_enhanced,
    min_radius,
    spin_precession,
)
