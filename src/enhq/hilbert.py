"""Finite-dimensional operator representations for the line, the half line, and spin.

Three concrete representations are provided:

* :class:`LineRep` is a truncated Fock basis whose position ``Q`` and
  momentum ``P``, with ``[Q, P] = i*hbar`` exact away from the truncation
  edge, are built on first read: no state or restriction reads them.
* :class:`HalfLineRep` is a strictly positive geometric grid and its
  quadrature weights, and nothing more: the affine family samples closed-form
  wavefunctions on it and takes every moment in closed form or by quadrature.
  No operator on the half line is stored or differenced; the tests' oracles
  keep the finite-difference ``Q``, ``D`` and formal ``P`` they compare against.
* :class:`SpinRep` carries the standard ladder construction of ``S1, S2, S3``
  with ``[S1, S2] = i*hbar*S3`` and the Casimir identity exact.

All objects are immutable after construction (arrays are marked read only)
and every operation here is a pure function, so representations and states
may be shared freely across threads.

The module needs numpy alone: :func:`apply_unitary`, the exponential the
closed-form states are tested against and the one caller of ``eigh``,
diagonalizes with ``numpy.linalg.eigh``.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from numpy.linalg import eigh

from .errors import DomainError

#: Relative Frobenius asymmetry accepted before an operator is rejected as
#: non-Hermitian.  Below this threshold operators are symmetrized silently.
HERMITIAN_TOL = 1e-10

#: Number of Fock levels at the truncation edge treated as unreliable.
DEFAULT_TRUNCATION_MARGIN = 20


def hermitian_defect(op) -> float:
    """Return the relative Frobenius asymmetry ``||A - A^dag|| / ||A||`` of a dense square array.

    Anything else raises :class:`ValueError`: ``np.asarray`` would make a
    ``scipy.sparse`` matrix a 0-d object array, on which later errors mislead.
    """
    a = np.asarray(op)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.issubdtype(a.dtype, np.number):
        raise ValueError(f"the operator must be a dense square numeric array, not a {type(op).__name__} "
                         f"of shape {a.shape}")
    den = np.linalg.norm(a)
    if den == 0.0:
        return 0.0
    return float(np.linalg.norm(a - a.conj().T) / den)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class StateVector:
    """Complex unit vector in the basis of an owning representation.

    Amplitudes are normalized at construction; the resulting array is read
    only.  For grid representations the quadrature weights are already folded
    into the amplitudes, so plain Euclidean inner products realize the
    half-line inner product.
    """

    __slots__ = ("amplitudes", "rep")

    def __init__(self, amplitudes, rep):
        a = np.asarray(amplitudes, dtype=complex)
        if a.ndim != 1:
            raise ValueError("amplitudes must be a one-dimensional array")
        if a.shape[0] != rep.dim:
            raise ValueError(
                f"amplitude length {a.shape[0]} does not match representation dim {rep.dim}"
            )
        n = np.linalg.norm(a)
        if not np.isfinite(n) or n == 0.0:
            raise ValueError("cannot normalize a zero or non-finite amplitude vector")
        self.amplitudes = _frozen(a / n)
        self.rep = rep

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


class LineRep:
    """Truncated Fock-basis representation for one canonical degree of freedom.

    Attributes
    ----------
    dim : int
        Basis size.
    hbar : float
        Value of the action quantum; ``Q`` and ``P`` carry units of
        ``sqrt(hbar)``.
    Q, P : ndarray
        Dense complex Hermitian matrices ``sqrt(hbar/2)(A + A^dag)`` and
        ``i sqrt(hbar/2)(A^dag - A)``, each built on first read.
    """

    kind = "line"

    def __init__(self, dim, hbar):
        self.dim = int(dim)
        self.hbar = float(hbar)

    def _ladder(self) -> np.ndarray:
        # sqrt(hbar/2) A, with A the truncated lowering matrix
        return np.sqrt(self.hbar / 2.0) * np.diag(np.sqrt(np.arange(1.0, self.dim)), 1)

    @cached_property
    def Q(self) -> np.ndarray:
        a = self._ladder()
        return _frozen((a + a.T).astype(complex))

    @cached_property
    def P(self) -> np.ndarray:
        a = self._ladder()
        return _frozen(1j * (a.T - a))

    def basis_state(self, n: int) -> StateVector:
        if not 0 <= n < self.dim:
            raise ValueError(f"basis index {n} out of range for dim {self.dim}")
        a = np.zeros(self.dim, dtype=complex)
        a[n] = 1.0
        return StateVector(a, self)

    def vacuum(self) -> StateVector:
        return self.basis_state(0)


class HalfLineRep:
    """The ``Q > 0`` sector as a geometric grid and its quadrature weights.

    ``grid`` holds the sample points ``x`` and ``weights`` the trapezoid
    weights of ``dx = x du`` on the uniform grid in ``u = log x``; amplitudes
    carry the square roots of the weights, so plain Euclidean inner products
    are quadratures.  It holds no operator.
    """

    kind = "halfline"

    def __init__(self, grid, weights, hbar):
        self.grid = _frozen(np.asarray(grid, dtype=float))
        self.weights = _frozen(np.asarray(weights, dtype=float))
        self.hbar = float(hbar)

    @property
    def dim(self) -> int:
        return self.grid.shape[0]

    def state_from_samples(self, values) -> StateVector:
        """Fold quadrature weights into wavefunction samples and normalize."""
        v = np.asarray(values, dtype=complex)
        if v.shape != self.grid.shape:
            raise ValueError("sample array does not match the grid")
        return StateVector(v * np.sqrt(self.weights), self)


class SpinRep:
    """Irreducible spin-``s`` representation with ``S3`` diagonal, ``m`` descending."""

    kind = "spin"

    def __init__(self, s, hbar, S1, S2, S3):
        self.s = float(s)
        self.hbar = float(hbar)
        self.S1 = _frozen(S1)
        self.S2 = _frozen(S2)
        self.S3 = _frozen(S3)
        self.dim = S3.shape[0]

    def highest_weight(self) -> StateVector:
        """The extremal state ``|s, s>``, annihilated by ``S1 + i S2``."""
        a = np.zeros(self.dim, dtype=complex)
        a[0] = 1.0
        return StateVector(a, self)


def build_fock_rep(dim: int, hbar: float = 1.0) -> LineRep:
    """The truncated Fock basis of size ``dim``, whose :class:`LineRep` builds ``Q`` and ``P``.

    The commutator ``[Q, P] - i*hbar`` vanishes exactly on every basis state
    except the last one.
    """
    if int(dim) != dim or dim < 2:
        raise ValueError("dim must be an integer >= 2")
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    return LineRep(dim, hbar)


def build_halfline_rep(x_min: float, x_max: float, n: int, hbar: float = 1.0) -> HalfLineRep:
    """Build a strictly positive geometric grid and its trapezoid weights.

    Parameters
    ----------
    x_min, x_max : float
        Grid bounds, ``0 < x_min < x_max``.  ``Q`` is treated as
        dimensionless (reference scale fixed to one).
    n : int
        Number of grid points, at least 16.

    Notes
    -----
    The grid is log-spaced: dilations act multiplicatively there and the
    fiducial states of interest decay exponentially.  The weights are those
    of the trapezoid rule in ``u = log x``, times ``dx/du = x``.
    """
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    if x_min <= 0:
        raise DomainError("the Q > 0 sector requires strictly positive support: x_min must be > 0")
    if x_max <= x_min:
        raise ValueError("x_max must exceed x_min")
    if int(n) != n or n < 16:
        raise ValueError("n must be an integer >= 16")
    u = np.linspace(np.log(x_min), np.log(x_max), int(n))
    x = np.exp(u)
    w = x * (u[1] - u[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return HalfLineRep(x, w, hbar)


def build_spin_rep(s: float, hbar: float = 1.0) -> SpinRep:
    """Build ``S1, S2, S3`` for spin ``s`` via the standard ladder construction.

    ``S3`` is diagonal with eigenvalues ``m*hbar`` ordered with ``m``
    descending, so the first basis vector is the extremal state ``|s, s>``.
    """
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    two_s = 2.0 * s
    if abs(two_s - round(two_s)) > 1e-12 or round(two_s) < 1:
        raise ValueError("2*s must be a positive integer")
    s = round(two_s) / 2.0
    dim = int(round(two_s)) + 1
    m = s - np.arange(dim)
    s3 = np.diag((hbar * m).astype(complex))
    raising = np.zeros((dim, dim), dtype=complex)
    # S+ maps |m> to |m+1>; with m descending that is row i-1, column i.
    for i in range(1, dim):
        mi = m[i]
        raising[i - 1, i] = hbar * np.sqrt(s * (s + 1) - mi * (mi + 1))
    s1 = 0.5 * (raising + raising.conj().T)
    s2 = -0.5j * (raising - raising.conj().T)
    return SpinRep(s, hbar, s1, s2, s3)


def apply_unitary(op, theta: float, state: StateVector) -> StateVector:
    """Apply ``exp(-i * theta * op / hbar)`` to a state.

    The operator must be Hermitian within :data:`HERMITIAN_TOL` (relative
    Frobenius norm); below that threshold it is symmetrized rather than
    rejected.  Each call diagonalizes the operator: no production path
    exponentiates, and this is the reference the closed forms are tested
    against.  ``op`` must be a dense square array (see :func:`hermitian_defect`).
    """
    rep = state.rep
    d = state.dim
    defect = hermitian_defect(op)
    dense = np.asarray(op)
    if dense.shape != (d, d):
        raise ValueError(f"operator shape {dense.shape} does not match state dimension {d}")
    if defect > HERMITIAN_TOL:
        raise ValueError(f"operator is not Hermitian (relative defect {defect:.3e})")
    herm = 0.5 * (dense + dense.conj().T)
    w, v = eigh(herm)
    phases = np.exp(-1j * theta * w / rep.hbar)
    out = v @ (phases * (v.conj().T @ state.amplitudes))
    return StateVector(out, rep)

