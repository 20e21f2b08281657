import functools
import json
import math
import pickle
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import gammaln

from enhq import (
    CapacityError,
    DomainError,
    NumericalFailure,
    affine_family,
    affine_fiducial,
    build_fock_rep,
    build_halfline_rep,
    build_spin_rep,
    canonical_family,
    enhance,
    fiducial_moments,
    extended_family,
    fs_metric_numeric,
    hbar_series,
    parse_polynomial,
    scalar_curvature,
    spin_family,
)
from enhq.hilbert import StateVector
import enhq.hilbert
from enhq.cli import main as cli_main
from enhq.coherent import (
    CANONICAL_TAIL_TOL,
    _brioschi_curvature,
    _affine_log_norm,
    _log_factorials,
    _metric_from_map,
    affine_wavefunction,
)
from enhq.hilbert import DEFAULT_TRUNCATION_MARGIN, apply_unitary
from oracles import (
    expectation,
    fiducial_p2_closed,
    fiducial_q_moment_closed,
    fs_metric,
    halfline_letters,
    overlap,
    tangent,
    variance,
)


def coherent_series(p, q, hbar, dim):
    """Independent closed-form amplitudes of the displaced vacuum."""
    alpha = (q + 1j * p) / np.sqrt(2.0 * hbar)
    n = np.arange(dim)
    log_mag = -0.5 * abs(alpha) ** 2 - 0.5 * gammaln(n + 1.0)
    phase = np.exp(-0.5j * p * q / hbar)
    return phase * np.exp(log_mag) * alpha**n


class TestCanonicalStates:
    def test_line_families_leave_the_matrices_unbuilt(self):
        # states, tangents and restrictions are closed forms and ladder moments
        rep = build_fock_rep(200)
        poly = parse_polynomial("P^4 + Q*P*Q - 2*Q^2", "canonical")
        for family in (canonical_family(rep), extended_family(rep, 0.4, -0.3)):
            enhance(poly, family)
            hbar_series(poly, family)
            family.state(0.3, -0.5)
            fs_metric(family, 0.3, -0.5)
        assert "Q" not in vars(rep) and "P" not in vars(rep)
        assert rep.Q.shape == (200, 200) and "Q" in vars(rep)  # built on first read

    def test_origin_is_fiducial(self, fock200, canonical200):
        psi = canonical200.state(0.0, 0.0)
        assert_allclose(psi.amplitudes, fock200.vacuum().amplitudes, atol=1e-12)

    def test_label_means(self, fock200, canonical200):
        psi = canonical200.state(1.0, 2.0)
        assert expectation(psi, fock200.Q).real == pytest.approx(2.0, abs=1e-8)
        assert expectation(psi, fock200.P).real == pytest.approx(1.0, abs=1e-8)

    def test_label_variances(self, fock200, canonical200):
        psi = canonical200.state(1.0, 2.0)
        assert variance(psi, fock200.Q) == pytest.approx(0.5, abs=1e-8)
        assert variance(psi, fock200.P) == pytest.approx(0.5, abs=1e-8)

    def test_matches_series_oracle(self, canonical200):
        psi = canonical200.state(1.0, 2.0)
        assert_allclose(psi.amplitudes, coherent_series(1.0, 2.0, 1.0, 200), atol=1e-12)

    def test_label_means_over_sampled_region(self, fock200, canonical200):
        rng = np.random.default_rng(11)
        for p, q in rng.uniform(-2, 2, size=(10, 2)):
            psi = canonical200.state(p, q)
            assert expectation(psi, fock200.P).real == pytest.approx(p, abs=1e-8)
            assert expectation(psi, fock200.Q).real == pytest.approx(q, abs=1e-8)

    @pytest.mark.parametrize("p", [1e5, 1e6, 1e150, 1e160, 1e300])
    @pytest.mark.parametrize("build", [canonical_family, lambda rep: extended_family(rep, 0.3, 0.2)],
                             ids=["canonical", "extended"])
    def test_far_labels_fail_fast_without_an_estimate(self, build, p):
        # a mean level past the basis is rejected before the state is formed,
        # so the state cannot overflow
        with pytest.raises(CapacityError):
            build(build_fock_rep(48)).state(p, 0.0)

    def test_log_factorials_are_those_of_the_exact_factorials(self):
        # lgamma(k + 1) is an ulp or more off log k! at 2, 3, 4, ...
        assert _log_factorials(60).tolist() == [math.log(math.factorial(k)) for k in range(60)]

    def test_fiducial_defining_relation(self, fock200):
        # (Q + i P)|0> = sqrt(2 hbar) A |0> = 0, exactly in the truncated basis
        a = fock200.vacuum().amplitudes
        resid = fock200.Q @ a + 1j * (fock200.P @ a)
        assert np.linalg.norm(resid) < 1e-14


class TestAffineFiducial:
    def test_stated_moments(self, affine_beta2):
        m = fiducial_moments(affine_beta2)
        assert m["q1"] == pytest.approx(1.0, abs=1e-10)

    def test_q2_against_quadrature_oracle(self, affine_beta2):
        beta, hbar = 2.0, 1.0
        oracle, _ = quad(lambda x: x * x * affine_wavefunction(x, beta, hbar) ** 2, 0, 80)
        assert oracle == pytest.approx(1 + hbar / (2 * beta), rel=1e-10)
        m = fiducial_moments(affine_beta2)
        assert m["q2"] == pytest.approx(oracle, rel=1e-10)
        assert fiducial_q_moment_closed(beta, hbar, 2) == pytest.approx(oracle, rel=1e-10)

    def test_p2_against_quadrature_oracle(self, affine_beta2):
        beta, hbar = 2.0, 1.0
        nu = beta / hbar

        def dpsi(x):
            return ((nu - 0.5) / x - nu) * affine_wavefunction(x, beta, hbar)

        oracle, _ = quad(lambda x: hbar**2 * dpsi(x) ** 2, 0, 80)
        closed = fiducial_p2_closed(beta, hbar)
        assert closed == pytest.approx(oracle, rel=1e-9)
        m = fiducial_moments(affine_beta2)
        assert m["p2"] == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("n", [-3, -2, -1, 1, 3])
    def test_q_powers_against_quadrature_oracle(self, n):
        # negative powers are finite for beta > -n hbar / 2; the affine
        # moment route reads every word's moment off these
        beta, hbar = 2.5, 1.0
        oracle, _ = quad(lambda x: x**n * affine_wavefunction(x, beta, hbar) ** 2, 0, 80)
        assert fiducial_q_moment_closed(beta, hbar, n) == pytest.approx(oracle, rel=1e-10)

    def test_q_powers_diverge_past_the_integrability_bound(self):
        with pytest.raises(DomainError, match="beta > 2/2"):
            fiducial_q_moment_closed(1.0, 1.0, -2)
        with pytest.raises(ValueError, match="integer"):
            fiducial_q_moment_closed(2.0, 1.0, 0.5)

    def test_q_inverse_closed_form(self, affine_beta2):
        m = fiducial_moments(affine_beta2)
        assert m["q_inv"] == pytest.approx(fiducial_q_moment_closed(2.0, 1.0, -1), rel=1e-10)

    def test_rejects_beta_at_or_below_hbar(self, halfline4000):
        for beta in (1.0, 0.5):
            with pytest.raises(DomainError):
                affine_fiducial(beta, halfline4000)

    def test_the_family_takes_every_positive_beta(self, halfline4000):
        # the states exist for any beta > 0; only the sampled fiducial, whose
        # <P^2> the quadratures read, needs beta > hbar
        narrow = affine_family(halfline4000, 0.5)
        assert narrow.curvature == -4.0
        with pytest.raises(DomainError, match="beta must exceed hbar"):
            fiducial_moments(narrow)
        for beta in (0.0, -1.0, float("nan")):
            with pytest.raises(DomainError, match="beta > 0"):
                affine_family(halfline4000, beta)

    def test_a_whole_2nu_normalizes_by_the_exact_factorial(self):
        # log M^2 = 2 nu log(2 nu) - log Gamma(2 nu), and lgamma(4) is an ulp off log 3!
        assert _affine_log_norm(2.0) == 4 * math.log(4) - math.log(6)

    def test_an_overflowing_normalization_is_nan(self, halfline4000):
        # from 2 beta / hbar of about 2.5e305 on, log Gamma(2 nu) and 2 nu log(2 nu)
        # both overflow: the wavefunction is nan, and its state fails to normalize
        with np.errstate(all="ignore"):
            assert np.isnan(affine_wavefunction(np.array([1.0]), 1e306, 1.0)).all()
            with pytest.raises(ValueError, match="cannot normalize"):
                affine_family(halfline4000, 1e306).state(0.0, 1.0)

    def test_defining_relation_residual(self, affine_beta2):
        # [(Q - 1) + (i/beta) D] |beta> should vanish up to discretization
        letters = halfline_letters(affine_beta2.rep)
        a = affine_beta2.fiducial.amplitudes
        resid = (letters["Q"] @ a - a) + (1j / 2.0) * (letters["D"] @ a)
        assert np.linalg.norm(resid) < 1e-3


class TestFiducialMoment:
    def test_moments_of_each_family(self, fock200, affine_beta2):
        canonical = canonical_family(fock200)
        assert canonical.fiducial_moment(("P", "P")) == 0.5
        assert canonical.fiducial_moment(("P", "Q")) == -0.5j
        assert canonical.fiducial_moment(("Q",) * 3) == 0
        assert affine_beta2.fiducial_moment(("P", "P")) == pytest.approx(fiducial_p2_closed(2.0, 1.0), rel=1e-15)
        assert affine_beta2.fiducial_moment(("Q^-1",)) == pytest.approx(4 / 3, rel=1e-15)

    @pytest.mark.parametrize("family,word,message", [
        ("canonical", ("Q^-1", "Q"), "letter 'Q^-1' is not in the canonical family's alphabet"),
        ("canonical", ("D",), "letter 'D' is not in the canonical family's alphabet"),
        ("affine", ("X", "X"), "letter 'X' is not in the affine family's alphabet"),
        ("spin", ("S1",), "the spin family has no shifted table"),
    ])
    def test_a_letter_outside_the_family_is_rejected(self, fock200, affine_beta2, spin_half, family, word, message):
        # each letter is walked as its own term of the family's shifted table
        family = {"canonical": lambda: canonical_family(fock200), "affine": lambda: affine_beta2,
                  "spin": lambda: spin_family(spin_half)}[family]()
        with pytest.raises(ValueError, match=re.escape(message)):
            family.fiducial_moment(word)


class TestAffineStates:
    def test_unit_label_is_fiducial(self, affine_beta2):
        psi = affine_beta2.state(0.0, 1.0)
        assert_allclose(psi.amplitudes, affine_beta2.fiducial.amplitudes, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dilation_covariance_of_q_moments(self, affine_beta2, n):
        # <p,q| Q^n |p,q> = <beta| (q Q)^n |beta>
        rep = affine_beta2.rep
        q = 1.7
        psi = affine_beta2.state(0.4, q)
        dens = np.abs(psi.amplitudes) ** 2
        measured = dens @ rep.grid**n
        expected = q**n * fiducial_q_moment_closed(2.0, 1.0, n)
        assert measured == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("p,q", [(0.0, 1.0), (0.7, 1.5), (-1.0, 0.6)])
    def test_momentum_second_moment(self, affine_beta2, p, q):
        psi = affine_beta2.state(p, q)
        pv = halfline_letters(affine_beta2.rep)["P"] @ psi.amplitudes
        measured = float(np.real(np.vdot(pv, pv)))
        expected = p * p + fiducial_p2_closed(2.0, 1.0) / (q * q)
        assert measured == pytest.approx(expected, rel=1e-4)

    def test_rejects_nonpositive_q(self, affine_beta2):
        for q in (0.0, -1.0):
            with pytest.raises(DomainError):
                affine_beta2.state(0.0, q)


class TestSpinStates:
    def test_north_pole_is_fiducial(self):
        rep = build_spin_rep(2.0)
        psi = spin_family(rep).state(np.sqrt(2.0), 0.0)
        assert_allclose(psi.amplitudes, rep.highest_weight().amplitudes, atol=1e-13)

    @pytest.mark.parametrize("s,theta", [(0.5, 0.7), (1.0, 2.1), (5.0, 1.2)])
    def test_s3_expectation(self, s, theta):
        rep = build_spin_rep(s)
        sq = np.sqrt(s)
        psi = spin_family(rep).state(sq * np.cos(theta), sq * 0.9)
        assert expectation(psi, rep.S3).real == pytest.approx(s * np.cos(theta), abs=1e-12)

    def test_spin_half_flip(self, spin_half):
        psi = spin_family(spin_half).state(-np.sqrt(0.5), 0.0)
        assert abs(psi.amplitudes[0]) < 1e-14
        assert abs(psi.amplitudes[1]) == pytest.approx(1.0, abs=1e-14)

    def test_labels_are_the_rotation_angles(self):
        # p = sqrt(s hbar) cos(theta), q = sqrt(s hbar) phi: the mean spin
        # <S1 + i S2> = s hbar sin(theta) e^{i phi} and <S3> = s hbar cos(theta)
        rep = build_spin_rep(1.5, hbar=0.5)
        family = spin_family(rep)
        sq = np.sqrt(1.5 * 0.5)
        for p, q in [(0.1, 0.3), (-0.5, -1.0), (0.0, 0.0), (0.6, 2.5), (-0.2, 7.0)]:
            psi = family.state(p, q)
            theta, phi = np.arccos(p / sq), q / sq
            s12 = expectation(psi, rep.S1) + 1j * expectation(psi, rep.S2)
            assert s12 == pytest.approx(0.75 * np.sin(theta) * np.exp(1j * phi), abs=1e-12)
            assert expectation(psi, rep.S3).real == pytest.approx(sq * p, abs=1e-12)

    def test_fiducial_is_extremal_weight(self):
        # (S1 + i S2) |s, s> = 0
        rep = build_spin_rep(2.0)
        a = rep.highest_weight().amplitudes
        resid = rep.S1 @ a + 1j * (rep.S2 @ a)
        assert np.linalg.norm(resid) < 1e-14

    def test_out_of_range_labels(self):
        family = spin_family(build_spin_rep(0.5))
        for p in (1.0, -1.0):  # |p| > sqrt(s hbar)
            with pytest.raises(DomainError):
                family.state(p, 0.0)
        # every real q is a label: a full turn of the azimuth flips the sign
        # of a half-integer spin state
        turn = 2 * np.pi * np.sqrt(0.5)
        assert_allclose(family.state(0.3, 5.0 + turn).amplitudes,
                        -family.state(0.3, 5.0).amplitudes, rtol=0, atol=1e-12)


class TestExtendedStates:
    def test_reduces_to_canonical(self, fock200, canonical200):
        a = extended_family(fock200, 0.0, 0.0).state(0.5, -0.8)
        b = canonical200.state(0.5, -0.8)
        assert_allclose(a.amplitudes, b.amplitudes, atol=1e-14)

    def test_oscillator_generator_only_changes_phase(self, fock200):
        psi = extended_family(fock200, 0.3, 0.0).state(0.0, 0.0)
        assert abs(overlap(psi, fock200.vacuum())) == pytest.approx(1.0, abs=1e-12)

    def test_squeezing_variances(self):
        # exact computation: the generator scales the quadratures so that
        # Var(Q) = exp(4b) hbar/2, Var(P) = exp(-4b) hbar/2, and the
        # uncertainty product stays saturated at hbar^2/4.
        rep = build_fock_rep(120)
        b = 0.1
        psi = extended_family(rep, 0.0, b).state(0.0, 0.0)
        vq, vp = variance(psi, rep.Q), variance(psi, rep.P)
        assert vq == pytest.approx(0.5 * np.exp(4 * b), rel=1e-10)
        assert vp == pytest.approx(0.5 * np.exp(-4 * b), rel=1e-10)
        assert vq * vp >= 0.25 - 1e-12
        assert vq * vp == pytest.approx(0.25, abs=1e-12)
        assert vq > vp  # squeezing is strict even though the product is not

    def test_capacity_error_for_strong_squeezing(self):
        rep = build_fock_rep(24)
        # cosh(2b) overflows a float at b = 400; the state must still reach the tail check
        for b in (1.5, 400.0, -400.0):
            family = extended_family(rep, 0.0, b)
            for build in (family.state, functools.partial(tangent, family)):
                with pytest.raises(CapacityError):
                    build(0.0, 0.0)


class TestOverlap:
    def test_self_overlap(self, canonical200):
        psi = canonical200.state(0.3, 0.4)
        assert overlap(psi, psi) == pytest.approx(1.0, abs=1e-13)

    def test_gaussian_overlap_law(self, canonical200):
        # brute-force matrix states against the closed Gaussian form
        for p, q in [(1.0, 2.0), (-0.5, 0.3), (2.0, 0.0)]:
            val = abs(overlap(canonical200.state(0, 0), canonical200.state(p, q))) ** 2
            assert val == pytest.approx(np.exp(-(p * p + q * q) / 2.0), rel=1e-10)

    def test_spin_half_overlap(self, spin_half):
        theta, sq = 0.9, np.sqrt(0.5)
        family = spin_family(spin_half)
        val = abs(overlap(family.state(sq, 0), family.state(sq * np.cos(theta), 0))) ** 2
        assert val == pytest.approx(np.cos(theta / 2) ** 2, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(
        p=st.floats(-1.5, 1.5, allow_nan=False),
        q=st.floats(-1.5, 1.5, allow_nan=False),
    )
    def test_conjugate_symmetry(self, p, q):
        family = canonical_family(build_fock_rep(60))
        s1 = family.state(0.2, -0.1)
        s2 = family.state(p, q)
        assert overlap(s1, s2) == pytest.approx(np.conj(overlap(s2, s1)), abs=1e-12)

    def test_continuity_in_labels(self, canonical200):
        base = canonical200.state(0.5, 0.5)
        deltas = [0.1, 0.05, 0.02, 0.01, 0.005]
        gaps = [abs(overlap(base, canonical200.state(0.5 + d, 0.5)) - 1.0) for d in deltas]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-4

    def test_dimension_mismatch(self, fock200):
        other = build_fock_rep(50)
        with pytest.raises(ValueError):
            overlap(fock200.vacuum(), other.vacuum())


class _PhaseWrapped:
    """State map multiplied by a smooth label-dependent phase."""

    def __init__(self, family):
        self._family = family
        self.rep = family.rep
        self.kind = family.kind

    def label_in_domain(self, p, q):
        return self._family.label_in_domain(p, q)

    def state(self, p, q):
        from enhq import StateVector

        psi = self._family.state(p, q)
        alpha = p * q / (2.0 * self.rep.hbar)
        return StateVector(np.exp(1j * alpha) * psi.amplitudes, self.rep)


class _NoisyMap:
    """Deterministically jittered state map that defeats step refinement.

    The jitter changes the direction of the state (not just a scalar
    multiple, which the projective metric would ignore), so the finite
    differences grow as the step shrinks.
    """

    def __init__(self, family):
        self._family = family
        self.rep = family.rep

    def label_in_domain(self, p, q):
        return self._family.label_in_domain(p, q)

    def state(self, p, q):
        from enhq import StateVector

        a = self._family.state(p, q).amplitudes.copy()
        a[0] += 1e-3 * np.sin(1e9 * (p + np.pi * q))
        a[1] += 1e-3 * np.cos(7e8 * (p - q))
        return StateVector(a, self.rep)


class TestMetricNumeric:
    @pytest.mark.parametrize("hbar", [1.0, 0.5])
    def test_canonical_metric_is_identity(self, hbar):
        family = canonical_family(build_fock_rep(160, hbar))
        for p, q in [(0.0, 0.0), (1.0, -0.5), (-1.0, 1.0)]:
            g = fs_metric_numeric(family, p, q)
            assert g.g_pp == pytest.approx(1.0, abs=1e-8)
            assert g.g_qq == pytest.approx(1.0, abs=1e-8)
            assert abs(g.g_pq) < 1e-8

    def test_affine_metric_matches_analytic(self, affine_beta2):
        for p, q in [(0.0, 1.0), (0.8, 0.6), (-1.0, 1.8)]:
            g = fs_metric_numeric(affine_beta2, p, q)
            exact = affine_beta2.metric(p, q)
            assert g.g_pp == pytest.approx(exact.g_pp, rel=1e-7)
            assert g.g_qq == pytest.approx(exact.g_qq, rel=1e-7)
            assert abs(g.g_pq) < 1e-7

    @pytest.mark.parametrize("s", [0.5, 1.0, 5.0])
    def test_spin_metric_matches_analytic(self, s):
        family = spin_family(build_spin_rep(s))
        sq = np.sqrt(s)
        for p, q in [(0.0, 0.0), (0.4 * sq, 0.3 * sq), (-0.5 * sq, -0.2 * sq)]:
            g = fs_metric_numeric(family, p, q)
            exact = family.metric(p, q)
            assert g.g_pp == pytest.approx(exact.g_pp, rel=1e-8)
            assert g.g_qq == pytest.approx(exact.g_qq, rel=1e-8)
            assert abs(g.g_pq) < 1e-8

    @pytest.mark.parametrize("s", [5.0, 0.5, 2.5])
    def test_spin_metric_across_the_azimuth_seam(self, s):
        # the azimuth is periodic: labels at and beyond q = pi sqrt(s hbar)
        # are interior, and half-integer spins keep one sign across the seam
        family = spin_family(build_spin_rep(s))
        sq = np.sqrt(s)
        for q in (np.pi * sq - 1e-5, np.pi * sq, np.pi * sq + 0.3):
            g = fs_metric_numeric(family, 0.3 * sq, q)
            exact = family.metric(0.3 * sq, q)
            assert g.g_pp == pytest.approx(exact.g_pp, rel=1e-9)
            assert g.g_qq == pytest.approx(exact.g_qq, rel=1e-9)
            assert abs(g.g_pq) < 1e-9

    def test_central_differences_converge_at_second_order(self, affine_beta2, canonical200):
        # the differences that fs_metric_numeric extrapolates, at steps large
        # enough to sit above roundoff
        families = {
            "affine": (affine_beta2, 0.5, 1.2),
            "canonical": (canonical200, 0.9, 0.4),
            "spin": (spin_family(build_spin_rep(3.0)), 0.4, 0.2),
        }
        for family, p, q in families.values():
            g1, g2, g4 = (_metric_from_map(family.state, p, q, h, family.rep.hbar)
                          for h in (2e-3, 1e-3, 5e-4))
            order = np.log2(np.max(np.abs(g1 - g2)) / np.max(np.abs(g2 - g4)))
            assert order >= 1.9

    def test_phase_invariance(self, canonical200):
        wrapped = _PhaseWrapped(canonical200)
        g0 = fs_metric_numeric(canonical200, 0.7, -0.3)
        g1 = fs_metric_numeric(wrapped, 0.7, -0.3)
        assert g1.g_pp == pytest.approx(g0.g_pp, abs=1e-8)
        assert g1.g_pq == pytest.approx(g0.g_pq, abs=1e-8)
        assert g1.g_qq == pytest.approx(g0.g_qq, abs=1e-8)

    def test_noisy_map_raises_numerical_failure(self, canonical200):
        with pytest.raises(NumericalFailure) as err:
            fs_metric_numeric(_NoisyMap(canonical200), 0.7, -0.3)
        assert "observed_order" in err.value.diagnostics

    def test_label_must_be_interior(self, affine_beta2):
        with pytest.raises(DomainError):
            fs_metric_numeric(affine_beta2, 0.0, 5e-5)

    def test_positive_definite_on_interior(self, affine_beta2):
        g = fs_metric_numeric(affine_beta2, 0.3, 1.1)
        assert g.g_pp > 0 and g.g_pp * g.g_qq - g.g_pq**2 > 0


def _metric_rows(g):
    return np.array([g.g_pp, g.g_pq, g.g_qq])


class TestMetricExact:
    """fs_metric from the exact tangent against the numeric metric and the family's declared one."""

    def check(self, family, points):
        for p, q in points:
            g = _metric_rows(fs_metric(family, p, q))
            assert_allclose(g, _metric_rows(fs_metric_numeric(family, p, q)), rtol=0, atol=1e-9)
            assert_allclose(g, _metric_rows(family.metric(p, q)), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [48, 80, 160])
    def test_canonical(self, dim):
        family = canonical_family(build_fock_rep(dim))
        points = [(p, q) for p in (-1.0, 0.0, 0.7) for q in (-1.0, 0.3, 1.0)]
        self.check(family, points)

    def test_canonical_small_hbar(self):
        self.check(canonical_family(build_fock_rep(80, 0.5)), [(0.4, -0.6)])

    def test_affine(self, affine_beta2):
        points = [(p, q) for p in (-1.0, 0.0, 0.8) for q in (0.6, 1.1, 1.6, 2.0)]
        self.check(affine_beta2, points)

    @pytest.mark.parametrize("s", [0.5, 2.5, 20.0])
    def test_spin_including_past_the_seam(self, s):
        family = spin_family(build_spin_rep(s))
        sq = np.sqrt(s)
        points = [
            (p * sq, q * sq)
            for p in (-0.6, 0.0, 0.3, 0.9)
            for q in (-0.2, 0.5, np.pi - 1e-5, np.pi, np.pi + 0.3, 2.5 * np.pi)
        ]
        self.check(family, points)

    @pytest.mark.parametrize("hbar", [0.5, 2.0])
    def test_every_family_across_hbar(self, hbar):
        # the widths scale with hbar, so the states keep their shapes in the scaled labels
        root = np.sqrt(hbar)
        points = [(p * root, q * root) for p in (-0.6, 0.0, 0.5) for q in (0.4, 0.9)]
        for family in (canonical_family(build_fock_rep(160, hbar)),
                       affine_family(build_halfline_rep(1e-5, 60.0, 3000, hbar), 2.0 * hbar),
                       spin_family(build_spin_rep(2.5, hbar))):
            self.check(family, points)

    def test_extended_is_flat(self):
        family = extended_family(build_fock_rep(80), 0.3, 0.1)
        for p, q in [(0.0, 0.0), (0.2, -0.3), (0.5, 0.5)]:
            assert_allclose(_metric_rows(fs_metric(family, p, q)), [1.0, 0.0, 1.0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("a,b", [(0.3, 0.2), (1.1, -0.4), (-0.7, 0.35)])
    @pytest.mark.parametrize("hbar", [1.0, 0.5])
    def test_extended_inherits_the_canonical_metric(self, a, b, hbar):
        # a fixed rotation and squeeze leave the metric of the displaced vacuum unchanged
        family = extended_family(build_fock_rep(200, hbar), a, b)
        assert family.curvature == 0.0
        self.check(family, [(0.0, 0.0), (0.2, -0.3), (0.5, 0.5), (-0.8, 0.1)])

    @pytest.mark.parametrize("s,hbar", [(2.5, 1.0), (2.0, 0.5)])
    def test_spin_poles_raise(self, s, hbar):
        # with s hbar = 1 the pole p = 1 squares to s hbar exactly; p just past
        # it is still inside the rounding allowance of the angle chart, but
        # off the family's domain
        family = spin_family(build_spin_rep(s, hbar))
        sq = np.sqrt(s * hbar)
        for p in (sq, -sq):
            with pytest.raises(DomainError, match="poles"):
                fs_metric(family, p, 0.3)
        with pytest.raises(DomainError, match="outside the spin family's domain"):
            fs_metric(family, sq * (1 + 1e-13), 0.3)

    @pytest.mark.parametrize("q", [0.0, -0.5])
    def test_affine_off_the_half_line_raises(self, affine_beta2, q):
        with pytest.raises(DomainError):
            fs_metric(affine_beta2, 0.2, q)

    def test_capacity_is_checked(self):
        with pytest.raises(CapacityError):
            fs_metric(canonical_family(build_fock_rep(40)), 8.0, 8.0)

    @pytest.mark.parametrize("p,q", [(np.nan, 0.3), (0.2, np.inf), (-np.inf, 0.3)])
    def test_non_finite_labels_raise(self, p, q):
        for family in (
            canonical_family(build_fock_rep(48)),
            extended_family(build_fock_rep(48), 0.3, 0.1),
            spin_family(build_spin_rep(2.5)),
        ):
            with pytest.raises(DomainError, match="outside"):
                fs_metric(family, p, q)


class TestTangent:
    @pytest.fixture(scope="class")
    def families(self, affine_beta2):
        return {
            "canonical": (canonical_family(build_fock_rep(80)), 0.4, -0.7),
            "extended": (extended_family(build_fock_rep(80), 0.3, 0.1), 0.4, -0.7),
            "affine": (affine_beta2, 0.3, 1.3),
            "spin": (spin_family(build_spin_rep(2.5)), 0.5, 0.9),
        }

    @pytest.mark.parametrize("kind", ["canonical", "extended", "affine", "spin"])
    def test_state_is_bit_identical(self, families, kind):
        family, p, q = families[kind]
        psi, _, _ = tangent(family, p, q)
        assert np.array_equal(psi, family.state(p, q).amplitudes)

    @pytest.mark.parametrize("kind", ["canonical", "extended", "affine", "spin"])
    def test_matches_central_differences(self, families, kind):
        family, p, q = families[kind]
        _, d_p, d_q = tangent(family, p, q)
        h = 1e-5

        def amp(pp, qq):
            return family.state(pp, qq).amplitudes

        assert_allclose(d_p, (amp(p + h, q) - amp(p - h, q)) / (2 * h), rtol=0, atol=1e-8)
        assert_allclose(d_q, (amp(p, q + h) - amp(p, q - h)) / (2 * h), rtol=0, atol=1e-8)


def test_representations_are_immutable():
    # states, tangents and metrics of every family leave their representation
    # as built: no cache or derived operator is stored on it
    line, spin = build_fock_rep(80), build_spin_rep(2.5)
    halfline = build_halfline_rep(1e-5, 60.0, 500)
    before = {rep.kind: pickle.dumps(vars(rep)) for rep in (line, halfline, spin)}
    for family, p, q in [
        (canonical_family(line), 0.4, -0.7),
        (extended_family(line, 0.3, 0.1), 0.4, -0.7),
        (extended_family(line, -0.2, 0.0), 0.4, -0.7),
        (affine_family(halfline, 2.0), 0.3, 1.3),
        (spin_family(spin), 0.5, 0.9),
    ]:
        family.state(p, q)
        tangent(family, p, q)
        fs_metric(family, p, q)
    assert {rep.kind: pickle.dumps(vars(rep)) for rep in (line, halfline, spin)} == before


# the line's generators that are products of its letters
_PRODUCTS = {
    "D": lambda rep: 0.5 * (rep.P @ rep.Q + rep.Q @ rep.P),
    "P^2 + Q^2": lambda rep: rep.P @ rep.P + rep.Q @ rep.Q,
}


def generator_matrix(rep, generator):
    """A letter of ``rep`` by name, the dilation ``D = (PQ + QP)/2`` or the rotation ``P^2 + Q^2``."""
    product = _PRODUCTS.get(generator)
    return getattr(rep, generator) if product is None else product(rep)


@functools.cache
def _eigenbasis(rep, generator):
    # apply_unitary's diagonalization of one generator, with the same eigh, kept per
    # representation
    op = generator_matrix(rep, generator)
    return enhq.hilbert.eigh(0.5 * (op + op.conj().T))


def exponential(generator, theta, state):
    """``apply_unitary`` of a named generator of the state's representation.

    The same arithmetic, with each generator diagonalized once per
    representation rather than on every call.
    """
    rep = state.rep
    w, v = _eigenbasis(rep, generator)
    phases = np.exp(-1j * theta * w / rep.hbar)
    return StateVector(v @ (phases * (v.conj().T @ state.amplitudes)), rep)


def exponential_canonical(p, q, rep):
    """The canonical state by matrix exponentials, as the definition reads."""
    return exponential("P", q, exponential("Q", -p, rep.vacuum()))


def exponential_spin(theta, phi, rep):
    """The spin state by matrix exponentials, with ``phi`` unwrapped."""
    return exponential("S3", phi, exponential("S2", theta, rep.highest_weight()))


class TestClosedFormsAgainstExponentials:
    """The closed-form states against the matrix-exponential route of their definitions."""

    @pytest.mark.parametrize("rep,generators", [
        (build_fock_rep(48, 0.5), ["Q", "P", "D", "P^2 + Q^2"]),
        (build_spin_rep(2.5), ["S2", "S3"]),
    ], ids=["line", "spin"])
    def test_the_exponential_is_apply_unitary(self, rep, generators):
        state = StateVector(np.exp(0.3j * np.arange(rep.dim)) / (1.0 + np.arange(rep.dim)), rep)
        for generator in generators:
            op = generator_matrix(rep, generator)
            for theta in (-0.7, 1.3):
                assert np.array_equal(exponential(generator, theta, state).amplitudes,
                                      apply_unitary(op, theta, state).amplitudes)

    @pytest.mark.parametrize("dim", [48, 80, 200])
    def test_canonical(self, dim):
        rep = build_fock_rep(dim)
        family = canonical_family(rep)
        compared = 0
        for p in np.linspace(-3.0, 3.0, 7):
            for q in np.linspace(-3.0, 3.0, 7):
                ref = exponential_canonical(p, q, rep).amplitudes
                if np.linalg.norm(ref[-DEFAULT_TRUNCATION_MARGIN:]) > CANONICAL_TAIL_TOL:
                    # too large for the basis on either route
                    with pytest.raises(CapacityError):
                        family.state(p, q)
                    continue
                assert_allclose(family.state(p, q).amplitudes, ref, rtol=0, atol=1e-12)
                compared += 1
        assert compared >= 9  # at dim 48 only |p|, |q| <= 1 fit

    @pytest.mark.parametrize("hbar", [0.5, 2.0])
    def test_canonical_hbar(self, hbar):
        rep = build_fock_rep(80, hbar)
        family = canonical_family(rep)
        for p, q in [(0.0, 0.0), (0.7, -1.1), (-1.5, 0.4)]:
            assert_allclose(family.state(p, q).amplitudes,
                            exponential_canonical(p, q, rep).amplitudes, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("s", [0.5, 2.5, 20.0])
    def test_spin(self, s):
        rep = build_spin_rep(s)
        family = spin_family(rep)
        sq = np.sqrt(s)
        for theta in (0.0, 0.4, 1.9, np.pi):
            for phi in (-np.pi * 0.999, -0.3, 0.0, 1.2, np.pi):
                assert_allclose(family.state(sq * np.cos(theta), sq * phi).amplitudes,
                                exponential_spin(theta, phi, rep).amplitudes, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("s", [0.5, 2.5, 20.0])
    def test_spin_family_past_the_seam(self, s):
        # q past pi sqrt(s hbar): half-integer spins change sign under a
        # wrapped azimuth, so the family must follow phi unwrapped
        rep = build_spin_rep(s, 0.5)
        family = spin_family(rep)
        sq = np.sqrt(0.5 * s)
        for p in (-sq, -0.4 * sq, 0.0, 0.8 * sq, sq):
            for phi in (np.pi - 1e-5, np.pi + 1e-5, np.pi + 0.3, 2.5 * np.pi, -4.0):
                theta = float(np.arccos(p / sq))
                assert_allclose(family.state(p, sq * phi).amplitudes,
                                exponential_spin(theta, phi, rep).amplitudes, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("a,b,dim,hbar", [
        (0.3, 0.0, 80, 1.0), (0.0, 0.1, 80, 1.0), (0.3, 0.1, 80, 1.0), (-0.2, -0.15, 80, 1.0),
        (0.3, 0.2, 200, 0.5),
    ], ids=["0.3-0.0", "0.0-0.1", "0.3-0.1", "-0.2--0.15", "0.3-0.2-dim200-hbar0.5"])
    def test_extended(self, a, b, dim, hbar):
        rep = build_fock_rep(dim, hbar)
        family = extended_family(rep, a, b)
        for p, q in [(0.0, 0.0), (0.4, -0.7), (-1.0, 0.5)]:
            ref = exponential_canonical(p, q, rep)
            if b:
                ref = exponential("D", 2.0 * b, ref)
            if a:
                ref = exponential("P^2 + Q^2", a, ref)
            assert_allclose(family.state(p, q).amplitudes, ref.amplitudes, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("family,points", [
        (canonical_family(build_fock_rep(48)), [(0.0, 0.0), (0.4, -0.7), (-1.2, 1.0)]),
        (canonical_family(build_fock_rep(200, 0.5)), [(2.5, -3.0), (-0.1, 0.2)]),
        (spin_family(build_spin_rep(0.5)), [(0.3, 0.2), (-0.5, np.sqrt(0.5) * (np.pi + 0.3))]),
        (spin_family(build_spin_rep(2.5)), [(0.0, 0.0), (1.2, -2.0), (-1.4, 5.5)]),
        (spin_family(build_spin_rep(20.0)), [(0.5, 0.9), (-3.0, np.sqrt(20.0) * 2.5 * np.pi)]),
        (extended_family(build_fock_rep(80), 0.3, 0.1), [(0.0, 0.0), (0.4, -0.7), (-1.0, 0.5)]),
        (extended_family(build_fock_rep(80), -0.2, -0.15), [(0.4, -0.7), (1.2, 0.3)]),
        (extended_family(build_fock_rep(200, 0.5), 0.3, 0.2), [(0.4, -0.7), (-1.0, 0.5)]),
    ], ids=["canonical48", "canonical200-hbar0.5", "spin0.5", "spin2.5", "spin20",
            "extended80", "extended80-negative", "extended200-hbar0.5"])
    def test_tangent_matches_central_differences(self, family, points):
        h = 1e-5

        def amp(pp, qq):
            return family.state(pp, qq).amplitudes

        for p, q in points:
            _, d_p, d_q = tangent(family, p, q)
            assert_allclose(d_p, (amp(p + h, q) - amp(p - h, q)) / (2 * h), rtol=0, atol=1e-8)
            assert_allclose(d_q, (amp(p, q + h) - amp(p, q - h)) / (2 * h), rtol=0, atol=1e-8)

    def test_basis_far_too_small_raises_capacity_error(self):
        # a mean level far past the basis fails, and the message names the label
        with pytest.raises(CapacityError, match=r"truncation inadequate at \(p, q\) = \(100.0, 100.0\)"):
            canonical_family(build_fock_rep(48)).state(100.0, 100.0)
        # the extended family's mean level is past the basis too, so it raises
        # in its fail-fast pre-check, before the recurrence runs
        with pytest.raises(CapacityError, match="extended state"):
            extended_family(build_fock_rep(48), 0.3, 0.1).state(100.0, 100.0)

    def test_extended_recurrence_rescales_before_it_overflows(self):
        # at |alpha|^2 = 1500 the recurrence's amplitudes, which start at |c_0| = 1,
        # peak near e^{750}, past the largest double: they are rescaled by 1e-150
        # on the way, and normalizing restores the canonical state
        rep, q = build_fock_rep(2000), math.sqrt(3000.0)
        assert_allclose(extended_family(rep, 0.0, 0.0).state(0.0, q).amplitudes,
                        canonical_family(rep).state(0.0, q).amplitudes, rtol=0, atol=1e-12)


class TestNoExponentialsOnTheClosedFormPaths:
    """States of every family, their metrics and the CLI's canonical runs use no
    eigendecomposition and no matrix exponential."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"eigh": 0, "apply_unitary": 0}
        for name in counts:
            original = getattr(enhq.hilbert, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module in [m for key, m in sys.modules.items() if key.startswith("enhq")]:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        return counts

    def test_library_calls(self, counts):
        for family, (p, q) in [
            (canonical_family(build_fock_rep(48)), (0.4, -0.7)),
            (spin_family(build_spin_rep(2.5)), (0.5, 5.0)),
            (spin_family(build_spin_rep(20.0)), (4.2, 0.9)),
            (extended_family(build_fock_rep(80), 0.3, 0.1), (0.4, -0.7)),
            (extended_family(build_fock_rep(200, 0.5), -0.2, -0.15), (-1.0, 0.5)),
        ]:
            family.state(p, q)
            tangent(family, p, q)
            fs_metric(family, p, q)
        assert counts == {"eigh": 0, "apply_unitary": 0}

    def test_cli_runs(self, counts, tmp_path):
        configs = {
            "expectation": {
                "experiment": "expectation",
                "representation": {"kind": "line", "dim": 48},
                "labels": {"grid": {"p": [-1.0, 1.0, 3], "q": [-1.0, 1.0, 3]}},
            },
            "metric": {
                "experiment": "metric",
                "representation": {"kind": "line", "dim": 48},
                "labels": {"grid": {"p": [-0.5, 0.5, 2], "q": [-0.5, 0.5, 2]}},
            },
            "verify": {"suites": ["label_means", "flat_metric"], "representation": {"dim": 80}},
        }
        for name, cfg in configs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            command = "verify" if name == "verify" else "run"
            assert cli_main([command, "--config", str(path), "--out", str(tmp_path / name)]) == 0
        assert counts == {"eigh": 0, "apply_unitary": 0}


def twice_gauss(metric, p, q, h):
    """Twice the Gaussian curvature of ``metric`` by Brioschi's formula, with one Richardson step."""
    k1, k2 = (_brioschi_curvature(metric, p, q, step) for step in (h, h / 2.0))
    return 2.0 * (4.0 * k2 - k1) / 3.0


def affine_on(beta, hbar=1.0):
    # the declared geometry reads no grid: the smallest one serves
    return affine_family(build_halfline_rep(0.1, 10.0, 16, hbar), beta)


class TestMetricAnalytic:
    """The closed-form metric each family declares."""

    def test_canonical(self):
        for family in (canonical_family(build_fock_rep(8)), extended_family(build_fock_rep(8), 0.3, 0.2)):
            g = family.metric(3.0, -2.0)
            assert (g.g_pp, g.g_pq, g.g_qq) == (1.0, 0.0, 1.0)

    def test_affine(self):
        g = affine_on(2.0).metric(0.3, 1.5)
        assert g.g_pp == pytest.approx(1.5**2 / 2.0)
        assert g.g_qq == pytest.approx(2.0 / 1.5**2)

    def test_spin(self):
        g = spin_family(build_spin_rep(2.0, 0.5)).metric(0.4, 0.0)
        f = 1 - 0.4**2 / 1.0
        assert g.g_pp == pytest.approx(1 / f)
        assert g.g_qq == pytest.approx(f)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            affine_on(1.0).metric(0.0, -1.0)
        with pytest.raises(DomainError):
            spin_family(build_spin_rep(0.5)).metric(1.0, 0.0)
        with pytest.raises(DomainError):
            canonical_family(build_fock_rep(8)).metric(float("nan"), 0.0)
        # q^2 underflows to 0 and beta / q^2 overflows
        for q in (1e-200, 1e-160, 1e160):
            with pytest.raises(DomainError, match="double precision"):
                affine_on(2.0).metric(0.1, q)


class TestScalarCurvature:
    """The declared curvature, read where the declared metric is, against Brioschi's formula."""

    def test_canonical_flat(self):
        for family in (canonical_family(build_fock_rep(8)), extended_family(build_fock_rep(8), 1.1, -0.4)):
            for p, q in [(0.0, 0.0), (2.0, -1.0), (0.3, 0.7)]:
                assert scalar_curvature(family, p, q) == 0.0
                assert abs(twice_gauss(family.metric, p, q, 1e-3)) < 1e-10

    @pytest.mark.parametrize("beta", [1.0, 2.0, 5.0])
    def test_affine_constant_negative(self, beta):
        family = affine_on(beta)
        for p, q in [(0.0, 1.0), (0.5, 0.7), (-0.3, 1.6)]:
            assert scalar_curvature(family, p, q) == -2.0 / beta
            assert twice_gauss(family.metric, p, q, 1e-3 * q) == pytest.approx(-2.0 / beta, abs=1e-6)

    @pytest.mark.parametrize("beta,hbar", [(2.0, 1.0), (5.0, 0.3)])
    def test_affine_to_1e_8_across_scales(self, beta, hbar):
        # a step that scales with q keeps the error from growing towards q = 0
        family = affine_on(beta, hbar)
        for q in np.geomspace(1e-6, 1e3, 37):
            assert scalar_curvature(family, 0.1, q) == -2.0 / beta
            r = twice_gauss(family.metric, 0.1, q, 1e-3 * q)
            assert r == pytest.approx(-2.0 / beta, rel=1e-8, abs=0)

    def test_affine_at_the_range_of_the_metric(self):
        # the stencil works in coordinates where the metric is near 1
        family = affine_on(2.0)
        for q in (1e-150, 1e-100, 1e100, 1e150):
            assert scalar_curvature(family, 0.1, q) == -1.0
            assert twice_gauss(family.metric, 0.1, q, 1e-3 * q) == pytest.approx(-1.0, rel=1e-8)
        for q in (1e-160, 1e-300, 1e160):
            with pytest.raises(DomainError):
                scalar_curvature(family, 0.1, q)
            with pytest.raises(DomainError):
                _brioschi_curvature(family.metric, 0.1, q, 1e-3 * q)

    @pytest.mark.parametrize("s,hbar", [(0.5, 1.0), (5.0, 0.3), (100.0, 1.0)])
    def test_spin_to_1e_5_up_to_the_poles(self, s, hbar):
        # a step that scales with the distance to the pole
        family = spin_family(build_spin_rep(s, hbar))
        sq = np.sqrt(s * hbar)
        for frac in (-0.999, -0.997, -0.9, 0.0, 0.5, 0.99, 0.999):
            p = frac * sq
            assert scalar_curvature(family, p, 0.3) == 2.0 / (s * hbar)
            r = twice_gauss(family.metric, p, 0.3, 1e-2 * min(1.0, sq - abs(p)))
            assert r == pytest.approx(2.0 / (s * hbar), rel=1e-5, abs=0)

    def test_spin_sphere(self):
        # sphere of radius sqrt(s hbar): curvature 2 / (s hbar)
        family = spin_family(build_spin_rep(2.0))
        assert scalar_curvature(family, 0.4, 0.1) == 1.0
        assert twice_gauss(family.metric, 0.4, 0.1, 1e-2) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("s,hbar", [(0.5, 1.0), (1.0, 1.0), (5.0, 0.5)])
    def test_spin_curvature_family(self, s, hbar):
        family = spin_family(build_spin_rep(s, hbar))
        p = 0.2 * np.sqrt(s * hbar)
        r = twice_gauss(family.metric, p, 0.0, 1e-2 * min(1.0, 0.8 * np.sqrt(s * hbar)))
        assert r == pytest.approx(scalar_curvature(family, p, 0.0), rel=1e-6)

    def test_off_the_chart_raises(self):
        # the poles and the far side of the half line carry no metric, so no curvature;
        # with s hbar = 1 the pole p = 1 squares to s hbar exactly
        for p in (1.0, -1.0):
            with pytest.raises(DomainError, match="p\\^2 < s hbar"):
                scalar_curvature(spin_family(build_spin_rep(2.0, 0.5)), p, 0.3)
        with pytest.raises(DomainError, match="outside the affine family's domain"):
            scalar_curvature(affine_on(2.0), 0.1, 0.0)
