import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from enhq import (
    DomainError,
    StateVector,
    apply_unitary,
    build_fock_rep,
    build_halfline_rep,
    build_spin_rep,
)
from enhq.coherent import affine_wavefunction
from enhq.hilbert import hermitian_defect
from oracles import commutator_defect, expectation, halfline_letters, variance


class TestFockRep:
    def test_lowest_block(self):
        rep = build_fock_rep(2)
        r = np.sqrt(0.5)
        assert_allclose(rep.Q, [[0, r], [r, 0]], atol=1e-15)

    def test_commutator_defect_away_from_edge(self):
        rep = build_fock_rep(200)
        assert commutator_defect(rep, margin=50) < 1e-10

    def test_operators_hermitian(self):
        rep = build_fock_rep(64, hbar=2.0)
        for op in (rep.Q, rep.P):
            assert hermitian_defect(op) < 1e-14

    @pytest.mark.parametrize("dim", [1, 0, -3])
    def test_rejects_small_dim(self, dim):
        with pytest.raises(ValueError):
            build_fock_rep(dim)

    def test_rejects_bad_hbar(self):
        with pytest.raises(ValueError):
            build_fock_rep(10, hbar=0.0)

    @pytest.mark.parametrize("hbar", [1.0, 0.5])
    def test_vacuum_moments(self, hbar):
        rep = build_fock_rep(120, hbar=hbar)
        vac = rep.vacuum()
        assert abs(expectation(vac, rep.Q)) < 1e-8
        assert abs(expectation(vac, rep.P)) < 1e-8
        assert abs(variance(vac, rep.Q) - hbar / 2) < 1e-8
        assert abs(variance(vac, rep.P) - hbar / 2) < 1e-8


class TestHalfLineRep:
    def test_q_diagonal_eigenvalue(self):
        # geometric grid from 0.1 to 10 in ratio 10^(1/9): x = 1 is its
        # middle point, and every point is an eigenvalue of Q
        rep = build_halfline_rep(0.1, 10.0, 19)
        assert rep.grid[9] == pytest.approx(1.0, rel=1e-15)
        q = halfline_letters(rep)["Q"]
        for i in (0, 9, 18):
            e = np.zeros(19, dtype=complex)
            e[i] = 1.0
            assert_allclose((q @ e).real, rep.grid[i] * e.real, rtol=0, atol=1e-15)

    def test_grid_positive_and_increasing(self):
        rep = build_halfline_rep(1e-4, 30.0, 100)
        assert np.all(rep.grid > 0)
        assert np.all(np.diff(rep.grid) > 0)

    def test_grid_is_geometric_between_its_bounds(self):
        rep = build_halfline_rep(1e-4, 30.0, 100)
        assert rep.grid[0] == pytest.approx(1e-4, rel=1e-14)
        assert rep.grid[-1] == pytest.approx(30.0, rel=1e-14)
        ratio = (30.0 / 1e-4) ** (1 / 99)
        assert_allclose(rep.grid[1:] / rep.grid[:-1], ratio, rtol=1e-13, atol=0)

    def test_d_hermitian(self):
        rep = build_halfline_rep(1e-3, 20.0, 300)
        assert hermitian_defect(halfline_letters(rep)["D"].toarray()) < 1e-12

    @pytest.mark.parametrize("hbar", [1.0, 0.5])
    def test_commutator_on_smooth_state(self, hbar):
        def defect(n):
            rep = build_halfline_rep(1e-4, 40.0, n, hbar=hbar)
            letters = halfline_letters(rep)
            q, d = letters["Q"], letters["D"]
            a = rep.state_from_samples(affine_wavefunction(rep.grid, 2.0, hbar)).amplitudes
            lhs = np.vdot(a, q @ (d @ a)) - np.vdot(a, d @ (q @ a))
            rhs = 1j * hbar * np.vdot(a, q @ a)
            return abs(lhs - rhs) / abs(rhs)

        coarse, fine = defect(1000), defect(2000)
        assert fine < 1e-4
        assert fine < coarse

    def test_minimum_grid_size_boundary(self):
        build_halfline_rep(0.1, 1.0, 16)
        with pytest.raises(ValueError):
            build_halfline_rep(0.1, 1.0, 15)

    def test_rejects_nonpositive_support(self):
        with pytest.raises(DomainError):
            build_halfline_rep(0.0, 1.0, 32)
        with pytest.raises(DomainError):
            build_halfline_rep(-1.0, 1.0, 32)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            build_halfline_rep(2.0, 1.0, 32)

    @pytest.mark.parametrize("hbar", [0.0, -1.0])
    def test_rejects_bad_hbar(self, hbar):
        with pytest.raises(ValueError, match="hbar must be positive"):
            build_halfline_rep(0.1, 1.0, 32, hbar=hbar)


class TestSpinRep:
    def test_spin_half_s3(self):
        rep = build_spin_rep(0.5)
        assert_allclose(np.diag(rep.S3).real, [0.5, -0.5], atol=1e-15)

    def test_casimir_spin_one(self):
        rep = build_spin_rep(1.0)
        total = rep.S1 @ rep.S1 + rep.S2 @ rep.S2 + rep.S3 @ rep.S3
        assert_allclose(total, 2.0 * np.eye(3), atol=1e-13)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 5.0, 10.0, 20.0])
    def test_casimir_identity(self, s):
        rep = build_spin_rep(s, hbar=0.7)
        total = rep.S1 @ rep.S1 + rep.S2 @ rep.S2 + rep.S3 @ rep.S3
        expected = 0.7**2 * s * (s + 1)
        assert_allclose(total, expected * np.eye(rep.dim), atol=1e-12 * expected)

    def test_commutation_relation(self):
        rep = build_spin_rep(1.5)
        comm = rep.S1 @ rep.S2 - rep.S2 @ rep.S1
        assert_allclose(comm, 1j * rep.S3, atol=1e-14)

    @pytest.mark.parametrize("s", [0.3, 0.0, -0.5])
    def test_rejects_bad_spin(self, s):
        with pytest.raises(ValueError):
            build_spin_rep(s)


class TestExpectation:
    def test_vacuum_position(self, fock200):
        assert abs(expectation(fock200.vacuum(), fock200.Q)) < 1e-14

    def test_vacuum_position_squared(self, fock200):
        # ground-state variance hbar/2
        q2 = fock200.Q @ fock200.Q
        assert expectation(fock200.vacuum(), q2).real == pytest.approx(0.5, abs=1e-12)

    def test_highest_weight_s3(self):
        rep = build_spin_rep(2.5, hbar=2.0)
        val = expectation(rep.highest_weight(), rep.S3)
        assert val.real == pytest.approx(2.5 * 2.0, abs=1e-13)
        assert abs(val.imag) < 1e-13

    def test_dimension_mismatch(self, fock200):
        small = build_fock_rep(4)
        with pytest.raises(ValueError):
            expectation(fock200.vacuum(), small.Q)


class TestApplyUnitary:
    def test_theta_zero_is_identity(self, fock200):
        psi = fock200.basis_state(3)
        out = apply_unitary(fock200.Q, 0.0, psi)
        assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-12)

    def test_spin_half_pi_rotation_flips(self, spin_half):
        # oracle: exact 2x2 exponential exp(-i pi sigma_y / 2) = [[0,-1],[1,0]]
        up = spin_half.highest_weight()
        out = apply_unitary(spin_half.S2, np.pi, up)
        assert abs(out.amplitudes[0]) < 1e-14
        assert abs(out.amplitudes[1]) == pytest.approx(1.0, abs=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(
        theta1=st.floats(-3, 3, allow_nan=False),
        theta2=st.floats(-3, 3, allow_nan=False),
    )
    def test_norm_preserved_and_composition_additive(self, theta1, theta2):
        rep = build_fock_rep(24)
        psi = StateVector(np.exp(1j * np.arange(24)) / np.sqrt(24), rep)
        once = apply_unitary(rep.Q, theta1 + theta2, psi)
        twice = apply_unitary(rep.Q, theta2, apply_unitary(rep.Q, theta1, psi))
        assert np.linalg.norm(once.amplitudes) == pytest.approx(1.0, abs=1e-10)
        assert_allclose(once.amplitudes, twice.amplitudes, atol=1e-12)

    def test_rejects_a_sparse_operator(self):
        # np.asarray would make it a 0-d object array
        rep = build_halfline_rep(0.1, 10.0, 19)
        d = halfline_letters(rep)["D"]
        psi = rep.state_from_samples(np.ones(19))
        for check in (lambda: hermitian_defect(d), lambda: apply_unitary(d, 1.0, psi)):
            with pytest.raises(ValueError, match=r"dense square numeric array, not a csr_matrix"):
                check()

    def test_rejects_non_hermitian(self, fock200):
        bad = np.triu(np.ones((200, 200), dtype=complex))
        with pytest.raises(ValueError, match="Hermitian"):
            apply_unitary(bad, 1.0, fock200.vacuum())


class TestStateVector:
    def test_normalizes(self, fock200):
        a = np.zeros(200, dtype=complex)
        a[0] = 3.0
        psi = StateVector(a, fock200)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_zero_vector(self, fock200):
        with pytest.raises(ValueError):
            StateVector(np.zeros(200), fock200)

    def test_rejects_wrong_length(self, fock200):
        with pytest.raises(ValueError):
            StateVector(np.ones(3), fock200)

    def test_amplitudes_read_only(self, fock200):
        psi = fock200.vacuum()
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 2.0
