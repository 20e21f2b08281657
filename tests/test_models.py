import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enhq import (
    DomainError,
    HydrogenParams,
    affine_family,
    build_halfline_rep,
    build_spin_rep,
    enhance,
    fiducial_p2_closed,
    fiducial_q_moment_closed,
    hamiltonian_flow,
    hydrogen_classical,
    hydrogen_enhanced,
    min_radius,
    parse_polynomial,
    spin_family,
    spin_precession,
)
from oracles import expectation


class TestParams:
    def test_defaults_valid(self):
        p = HydrogenParams()
        assert p.beta > p.hbar

    @pytest.mark.parametrize("kwargs", [{"m": -1.0}, {"e2": 0.0}, {"hbar": -0.1}])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            HydrogenParams(**kwargs)

    def test_rejects_narrow_fiducial(self):
        with pytest.raises(DomainError):
            HydrogenParams(beta=1.0, hbar=1.0)


class TestClassicalHydrogen:
    def test_value_at_reference_point(self):
        ham = hydrogen_classical(HydrogenParams())
        assert ham(0.0, 1.0) == pytest.approx(-1.0)

    def test_gradient_is_derivative_of_evaluate(self):
        # dH/dq of -e2/q is +e2/q^2; the flow equation then gives pdot = -1
        ham = hydrogen_classical(HydrogenParams())
        gp, gq = ham.gradient(0.0, 1.0)
        assert (gp, gq) == (0.0, pytest.approx(1.0))
        h = 1e-6
        fd = (ham(0.0, 1.0 + h) - ham(0.0, 1.0 - h)) / (2 * h)
        assert gq == pytest.approx(fd, rel=1e-6)

    def test_finite_time_collapse(self):
        ham = hydrogen_classical(HydrogenParams())
        traj = hamiltonian_flow(ham, (0.0, 1.0), 5.0, tol=1e-10)
        assert "singularity_hit" in traj.event_kinds()


class TestEnhancedHydrogen:
    @pytest.mark.parametrize("hbar", [1.0, 0.5])
    @pytest.mark.parametrize("beta", [1.1, 1.5, 2.0, 3.0])
    def test_core_is_the_closed_form(self, beta, hbar):
        # beta = 1.1 hbar sits where a half-line grid misjudges <P^2> badly
        c1, c2 = HydrogenParams(e2=0.7, beta=beta, hbar=hbar).enhanced_core
        assert c1 == pytest.approx(0.7 * fiducial_q_moment_closed(beta, hbar, -1), rel=1e-12)
        assert c2 == pytest.approx(fiducial_p2_closed(beta, hbar), rel=1e-12)

    def test_hamiltonian_is_built_from_the_core(self):
        params = HydrogenParams(m=1.3, e2=0.7, beta=2.5, hbar=0.8)
        c1, c2 = params.enhanced_core
        ham = hydrogen_enhanced(params)
        for p, q in [(0.3, 0.9), (-0.5, 2.0)]:
            assert ham(p, q) == p * p / (2.0 * 1.3) - c1 / q + c2 / (2.0 * 1.3 * q * q)

    def test_no_attributes_are_set_on_the_hamiltonians(self):
        # the core lives on the parameters, not on what the models return
        params = HydrogenParams()
        for ham in (hydrogen_classical(params), hydrogen_enhanced(params)):
            assert not {"params", "c1", "c2"} & set(vars(ham))

    @pytest.mark.parametrize("beta,hbar", [(2.0, 1.0), (1.1, 1.0), (3.0, 0.5)])
    def test_c2_is_the_restricted_p2_core(self, beta, hbar):
        # <P^2> on affine states is p^2 + C2/q^2: the restriction engine's
        # (0, -2) coefficient is the flagship's C2
        family = affine_family(build_halfline_rep(1e-5, 60.0, 3000, hbar), beta)
        restricted = enhance(parse_polynomial("P^2", "affine"), family).polynomial
        c2 = HydrogenParams(beta=beta, hbar=hbar).enhanced_core[1]
        assert restricted[(0, -2)] == pytest.approx(c2, rel=1e-12)

    def test_c2_matches_closed_form(self):
        c2 = HydrogenParams(beta=2.0).enhanced_core[1]
        assert c2 == pytest.approx(fiducial_p2_closed(2.0, 1.0), rel=1e-5)

    def test_c2_scaling_with_hbar(self):
        # beta = 2 hbar keeps the shape fixed, so C2 = 2 hbar^2 exactly
        for hbar in (1.0, 0.5, 0.25):
            c2 = HydrogenParams(beta=2 * hbar, hbar=hbar).enhanced_core[1]
            assert c2 / hbar**2 == pytest.approx(2.0, rel=1e-5)

    def test_c1_is_measured_inverse_moment(self):
        params = HydrogenParams(beta=2.0)
        expected = params.e2 * fiducial_q_moment_closed(2.0, 1.0, -1)
        assert params.enhanced_core[0] == pytest.approx(expected, rel=1e-10)
        # C1 = e2 (1 + O(hbar)): the correction shrinks with hbar at fixed beta
        gaps = [
            abs(HydrogenParams(beta=2.0, hbar=h).enhanced_core[0] - 1.0)
            for h in (0.5, 0.25, 0.125)
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_core_ratio_near_natural_length(self):
        # C2/(2m) over (hbar^2 / m e2) C1 is an order-one number; it equals
        # 3/4 for beta = 2 hbar
        params = HydrogenParams(beta=2.0)
        c1, c2 = params.enhanced_core
        ratio = (c2 / (2 * params.m)) / (params.hbar**2 / (params.m * params.e2) * c1)
        assert 0.5 < ratio < 1.5
        assert ratio == pytest.approx(0.75, abs=1e-4)

    def test_small_hbar_recovers_classical(self):
        params0 = HydrogenParams(beta=2.0)
        classical = hydrogen_classical(params0)
        p0, q0 = 0.4, 1.3
        gaps = []
        for hbar in (0.5, 0.25, 0.125):
            ham = hydrogen_enhanced(HydrogenParams(beta=2.0, hbar=hbar))
            gaps.append(abs(ham(p0, q0) - classical(p0, q0)))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.05

    def test_route_consistency_of_coulomb_term(self):
        # the -C1/q term equals the direct grid expectation of e2/Q on the
        # dilated states (1/Q is diagonal there)
        params = HydrogenParams(beta=2.0)
        rep = build_halfline_rep(1e-5, 20.0, 4000, hbar=params.hbar)
        family = affine_family(rep, params.beta)
        c1 = params.enhanced_core[0]
        for p, q in [(0.0, 1.0), (0.5, 2.2), (-0.7, 0.6)]:
            psi = family.state(p, q)
            dens = np.abs(psi.amplitudes) ** 2
            direct = params.e2 * float(dens @ (1.0 / rep.grid))
            assert direct == pytest.approx(c1 / q, rel=1e-8)

    def test_gradient_consistency(self):
        ham = hydrogen_enhanced(HydrogenParams(beta=2.0))
        for p, q in [(0.3, 0.9), (-0.5, 2.0)]:
            gp, gq = ham.gradient(p, q)
            h = 1e-6
            assert gp == pytest.approx((ham(p + h, q) - ham(p - h, q)) / (2 * h), rel=1e-6)
            assert gq == pytest.approx((ham(p, q + h) - ham(p, q - h)) / (2 * h), rel=1e-6)


class TestMinRadius:
    def test_potential_minimum_is_circular_point(self):
        params = HydrogenParams(beta=2.0)
        c1, c2 = params.enhanced_core
        e_min = -c1**2 * params.m / (2 * c2)
        q_circ = c2 / (params.m * c1)
        assert min_radius(params, e_min) == pytest.approx(q_circ, rel=1e-8)

    def test_residual_bound(self):
        params = HydrogenParams(beta=2.0)
        ham = hydrogen_enhanced(params)
        for energy in (-0.3, -0.1, 0.2):
            q = min_radius(params, energy)
            assert abs(ham(0.0, q) - energy) < 1e-10

    @settings(max_examples=300, deadline=None)
    @given(m=st.floats(0.1, 10.0), e2=st.floats(0.1, 10.0), ratio=st.floats(1.01, 10.0),
           hbar=st.floats(0.05, 5.0), share=st.floats(0.0, 1.0))
    def test_residual_and_range_over_parameters(self, m, e2, ratio, hbar, share):
        # energies from the potential minimum -C1^2 m / 2 C2 up to its depth
        # above 0 have a turning point; below the minimum there is none
        params = HydrogenParams(m=m, e2=e2, beta=ratio * hbar, hbar=hbar)
        c1, c2 = params.enhanced_core
        e_min = -c1 * c1 * m / (2.0 * c2)
        energy = e_min * (1.0 - 2.0 * share)
        q = min_radius(params, energy)
        assert q > 0.0
        assert abs(hydrogen_enhanced(params)(0.0, q) - energy) <= 1e-10 * max(1.0, abs(energy))
        with pytest.raises(ValueError, match="below the effective potential minimum"):
            min_radius(params, e_min * (1.0 + 1e-6))

    def test_vanishing_core_restores_collapse(self):
        # beta = 2 hbar makes C2 = 2 hbar^2, so the turning radius shrinks
        # to zero with hbar
        radii = [min_radius(HydrogenParams(beta=2 * hbar, hbar=hbar), -0.4)
                 for hbar in (1.0, 0.25, 0.0625)]
        assert all(a > b for a, b in zip(radii, radii[1:]))
        assert radii[-1] < 0.02

    def test_energy_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            min_radius(HydrogenParams(beta=2.0), -10.0)

    def test_flow_minimum_matches(self):
        params = HydrogenParams(beta=2.0)
        ham = hydrogen_enhanced(params)
        q0 = 3.0
        energy = ham.evaluate(0.0, q0)
        traj = hamiltonian_flow(ham, (0.0, q0), 40.0, tol=1e-10, n_samples=4000)
        assert traj.min_q() == pytest.approx(min_radius(params, energy), abs=1e-6)


class TestSpinPrecession:
    def test_momentum_constant_along_flow(self):
        rep = build_spin_rep(2.0)
        ham = spin_precession(1.3, rep)
        traj = hamiltonian_flow(ham, (0.4, 0.0), 2.0, tol=1e-10)
        assert np.max(np.abs(traj.p - 0.4)) < 1e-12

    def test_azimuth_advances_linearly(self):
        # q = sqrt(s hbar) phi, so phi(t) = phi0 + B t
        rep = build_spin_rep(2.0)
        B = 1.3
        ham = spin_precession(B, rep)
        traj = hamiltonian_flow(ham, (0.4, 0.1), 2.0, tol=1e-10)
        sq = np.sqrt(2.0)
        phi = traj.q / sq
        assert np.max(np.abs(phi - (0.1 / sq + B * traj.t))) < 1e-10

    def test_expectation_route_matches_closed_form(self):
        rep = build_spin_rep(1.5, hbar=0.5)
        B = 0.8
        ham = spin_precession(B, rep)
        family = spin_family(rep)
        matrix_route = enhance(parse_polynomial(f"{B}*S3", "spin"), family)
        rng = np.random.default_rng(5)
        sq = np.sqrt(1.5 * 0.5)
        for _ in range(20):
            p = rng.uniform(-0.9, 0.9) * sq
            q = rng.uniform(-0.9, 0.9) * np.pi * sq
            assert ham(p, q) == pytest.approx(matrix_route(p, q), abs=1e-10)

    def test_value_is_rotated_generator_expectation(self):
        rep = build_spin_rep(2.5)
        ham = spin_precession(2.0, rep)
        sq = np.sqrt(2.5)
        p, q = sq * np.cos(0.8), sq * -0.5
        psi = spin_family(rep).state(p, q)
        assert ham(p, q) == pytest.approx(2.0 * expectation(psi, rep.S3).real, abs=1e-12)
