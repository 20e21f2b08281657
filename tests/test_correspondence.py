import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enhq import (
    CapacityError,
    DomainError,
    HydrogenParams,
    NumericalFailure,
    affine_family,
    build_fock_rep,
    build_spin_rep,
    canonical_family,
    classical_value,
    enhance,
    extended_family,
    fiducial_p2_closed,
    hamiltonian_flow,
    hbar_series,
    hydrogen_enhanced,
    parse_polynomial,
    poly_expectation,
    spin_family,
)
from enhq.correspondence import MAX_DEGREE, EnhancedHamiltonian, OperatorPolynomial
from oracles import classical_limit, shift_identity_check


class TestParser:
    def test_oscillator_expression(self):
        poly = parse_polynomial("0.5*P^2 + 0.5*Q^2", "canonical")
        assert dict(poly.terms) == {("P", "P"): 0.5, ("Q", "Q"): 0.5}

    def test_word_order_preserved(self):
        poly = parse_polynomial("P*Q*P", "canonical")
        assert poly.terms == ((("P", "Q", "P"), 1.0),)

    def test_coefficients_merge(self):
        poly = parse_polynomial("Q + 2*Q", "canonical")
        assert dict(poly.terms) == {("Q",): 3.0}

    def test_signs_and_scientific_notation(self):
        poly = parse_polynomial("-1.5e-1*Q^2 + Q*Q", "canonical")
        assert dict(poly.terms) == {("Q", "Q"): pytest.approx(0.85)}

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            parse_polynomial("D*Q^-1", "affine")

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            parse_polynomial("P*Q", "canonical")

    def test_symmetrized_pair_accepted(self):
        poly = parse_polynomial("P*Q + Q*P", "canonical")
        assert len(poly.terms) == 2

    def test_large_term_elsewhere_hides_no_mismatch(self):
        # each word is compared with its reversal at the pair's own scale,
        # not at the largest coefficient of the polynomial
        with pytest.raises(ValueError, match="not Hermitian: word P\\*Q"):
            parse_polynomial("1e12*Q^2 + P*Q", "canonical")

    def test_large_term_beside_a_symmetrized_pair_accepted(self):
        poly = parse_polynomial("1e12*Q^2 + P*Q + Q*P", "canonical")
        assert dict(poly.terms) == {("Q", "Q"): 1e12, ("P", "Q"): 1.0, ("Q", "P"): 1.0}
        # a mismatch of 1e-13 of the pair's own size is roundoff
        parse_polynomial("1e12*Q^2 + P*Q + 1.0000000000001*Q*P", "canonical")

    def test_letter_outside_alphabet(self):
        with pytest.raises(ValueError, match="variable set"):
            parse_polynomial("S1", "canonical")
        with pytest.raises(ValueError, match="variable set"):
            parse_polynomial("P", "spin")

    def test_degree_cap(self):
        with pytest.raises(ValueError, match="degree"):
            parse_polynomial("Q^7", "canonical")
        parse_polynomial("Q^6", "canonical")

    def test_garbage_rejected(self):
        for bad in ("", "Q +", "* Q", "Q Q", "0.5 / Q", "Q*", "2*", "P*Q*", "0.5*P^2 + 0.5*Q^2*",
                    "Q^2e40", "2^2", "(P)", "Q^7", "1e400*Q^2 + P*Q", "1e400*Q - 1e400*Q + 0.5*P^2",
                    "1e400*Q^2 + 0.5*P^2"):
            with pytest.raises(ValueError):
                parse_polynomial(bad, "canonical")

    def test_non_finite_coefficients_rejected(self):
        # a number past the doubles is named; a product or a sum that
        # overflows, or a term given directly, leaves a non-finite coefficient
        with pytest.raises(ValueError, match="number 1e400 overflows a double"):
            parse_polynomial("1e400*Q^2 + P*Q", "canonical")
        for text in ("1e200*1e200*Q", "1e308*Q + 1e308*Q"):
            with pytest.raises(ValueError, match="coefficients must be finite"):
                parse_polynomial(text, "canonical")
        with pytest.raises(ValueError, match="coefficients must be finite"):
            OperatorPolynomial([(math.nan, ("Q",))], "canonical")

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_rendered_terms_parse_back(self, data):
        # Hermitian by construction: each word comes with its reversal
        variables, alphabet = data.draw(st.sampled_from(
            [("canonical", "PQ"), ("affine", "DQP"), ("spin", ("S1", "S2", "S3"))]))
        space = st.sampled_from(["", " ", "  ", "\t"])
        terms = []
        for _ in range(data.draw(st.integers(1, 4))):
            word = tuple(data.draw(st.lists(st.sampled_from(alphabet), max_size=MAX_DEGREE)))
            coeff = data.draw(st.floats(-1e300, 1e300, allow_subnormal=False))
            terms += [(coeff, word)] + ([(coeff, word[::-1])] if word != word[::-1] else [])
        text = ""
        for k, (coeff, word) in enumerate(terms):
            runs = [(letter, len(list(run))) for letter, run in itertools.groupby(word)]
            factors = [data.draw(st.sampled_from([f"{letter}^{n}", "*".join([letter] * n)]))
                       for letter, n in runs]
            factors.insert(data.draw(st.integers(0, len(factors))), repr(abs(coeff)))
            sign = "-" if math.copysign(1.0, coeff) < 0 else ("+" if k else "")
            pad = data.draw(space)
            text += pad + sign + data.draw(space) + (pad + "*" + pad).join(factors) + data.draw(space)
        expected = {}
        for coeff, word in terms:
            expected[word] = expected.get(word, 0.0) + coeff
        poly = parse_polynomial(text, variables)
        assert dict(poly.terms) == {w: c for w, c in expected.items() if c != 0.0}

    def test_classical_value(self):
        poly = parse_polynomial("0.5*P^2 + 0.5*Q^2", "canonical")
        assert classical_value(poly, 1.0, 2.0) == pytest.approx(2.5)
        affine = parse_polynomial("D^2", "affine")
        assert classical_value(affine, 2.0, 3.0) == pytest.approx(36.0)


class TestEnhanceCanonical:
    def test_oscillator_gains_half_hbar(self, canonical200):
        poly = parse_polynomial("0.5*P^2 + 0.5*Q^2", "canonical")
        ham = enhance(poly, canonical200)
        for p, q in [(1.0, 1.0), (0.0, 0.0), (-0.7, 0.4)]:
            assert ham(p, q) == pytest.approx(0.5 * (p * p + q * q) + 0.5, abs=1e-12)

    def test_oscillator_hbar_scaling(self):
        family = canonical_family(build_fock_rep(16, hbar=0.25))
        ham = enhance(parse_polynomial("0.5*P^2 + 0.5*Q^2", "canonical"), family)
        assert ham(1.0, 1.0) == pytest.approx(1.0 + 0.125, abs=1e-12)

    def test_cached_route_matches_direct_expectation(self, canonical200):
        poly = parse_polynomial("P*Q*Q*P + Q^3 + 0.25*P^4", "canonical")
        ham = enhance(poly, canonical200)
        for p, q in [(0.5, 1.0), (-1.0, 0.3)]:
            direct = poly_expectation(poly, canonical200, p, q)
            assert abs(direct.imag) < 1e-10
            assert ham(p, q) == pytest.approx(direct.real, abs=1e-8)

    def test_polynomial_coefficients_exposed(self, canonical200):
        ham = enhance(parse_polynomial("0.5*P^2 + 0.5*Q^2", "canonical"), canonical200)
        assert ham.polynomial[(2, 0)] == pytest.approx(0.5)
        assert ham.polynomial[(0, 2)] == pytest.approx(0.5)
        assert ham.polynomial[(0, 0)] == pytest.approx(0.5)

    def test_gradient_matches_finite_differences(self, canonical200):
        ham = enhance(parse_polynomial("P*Q*Q*P + Q^4", "canonical"), canonical200)
        for p, q in [(0.8, -0.6), (1.2, 0.5)]:
            gp, gq = ham.gradient(p, q)
            h = 1e-5
            fd_p = (ham(p + h, q) - ham(p - h, q)) / (2 * h)
            fd_q = (ham(p, q + h) - ham(p, q - h)) / (2 * h)
            assert gp == pytest.approx(fd_p, rel=1e-6, abs=1e-8)
            assert gq == pytest.approx(fd_q, rel=1e-6, abs=1e-8)

    def test_linearity(self, canonical200):
        a = parse_polynomial("P^2", "canonical")
        b = parse_polynomial("Q^2", "canonical")
        combo = parse_polynomial("2*P^2 + 3*Q^2", "canonical")
        ha, hb, hc = (enhance(x, canonical200) for x in (a, b, combo))
        for p, q in [(0.3, 0.9), (-1.1, 0.2)]:
            assert hc(p, q) == pytest.approx(2 * ha(p, q) + 3 * hb(p, q), rel=1e-13)

    def test_reality_of_hermitian_expectations(self, canonical200):
        rng = np.random.default_rng(3)
        poly = parse_polynomial("P*Q*P + 0.5*Q*P*Q", "canonical")
        for p, q in rng.uniform(-1.5, 1.5, size=(6, 2)):
            val = poly_expectation(poly, canonical200, p, q)
            assert abs(val.imag) < 1e-10

    def test_moment_route_needs_room_above_the_degree(self):
        small = canonical_family(build_fock_rep(3))
        with pytest.raises(ValueError, match="dim"):
            enhance(parse_polynomial("Q^4", "canonical"), small)
        enhance(parse_polynomial("Q^4", "canonical"), canonical_family(build_fock_rep(5)))


class TestEnhanceAffine:
    def test_position_is_linear_in_q(self, affine_beta2):
        ham = enhance(parse_polynomial("Q", "affine"), affine_beta2)
        for q in (0.5, 1.0, 2.5):
            assert ham(0.3, q) == pytest.approx(q, rel=1e-10)

    def test_dilation_word(self, affine_beta2):
        # <p,q| D |p,q> = <beta| D + p q Q |beta> = p q
        ham = enhance(parse_polynomial("D", "affine"), affine_beta2)
        assert ham(0.7, 1.3) == pytest.approx(0.7 * 1.3, abs=1e-9)

    def test_q_squared_carries_width_correction(self, affine_beta2):
        ham = enhance(parse_polynomial("Q^2", "affine"), affine_beta2)
        q = 1.4
        assert ham(0.0, q) == pytest.approx(q * q * (1 + 1.0 / 4.0), rel=1e-9)

    @pytest.mark.parametrize("beta", [1.1, 1.5, 2.0])
    def test_momentum_word_is_exact(self, halfline4000, beta):
        # the moments come from the closed-form span, not the grid, whose
        # P^2 moment at beta = 1.1 is 40.28 on the CLI's 3,000-point grid
        ham = enhance(parse_polynomial("P^2", "affine"), affine_family(halfline4000, beta))
        c2 = fiducial_p2_closed(beta, 1.0)
        assert ham.polynomial == pytest.approx({(2, 0): 1.0, (0, -2): c2}, rel=1e-12)
        for p, q in [(0.0, 1.0), (0.6, 1.8)]:
            assert ham(p, q) == pytest.approx(p * p + c2 / (q * q), rel=1e-12)

    @pytest.mark.parametrize(
        "expression,rel",
        [("Q", 1e-9), ("D", 1e-9), ("Q^2", 1e-9), ("D*Q + Q*D", 1e-9), ("D*Q*D + Q^3", 1e-9),
         ("Q*D*Q", 1e-8), ("D^2", 1e-8), ("P^2", 1e-6), ("P*Q*P", 1e-6), ("D*P + P*D", 1e-6),
         ("Q*P^2*Q + D^2", 1e-6)],
    )
    def test_moment_route_matches_direct_expectation(self, affine_beta2, expression, rel):
        # the moment route is exact; the direct route carries the grid error of
        # the finite-difference D (about 1e-9) and of the formal P (about 1e-7)
        poly = parse_polynomial(expression, "affine")
        ham = enhance(poly, affine_beta2)
        for p, q in [(0.3, 0.5), (1.1, 0.5), (-0.4, 3.0), (0.2, 3.0), (0.7, 1.3)]:
            direct = poly_expectation(poly, affine_beta2, p, q)
            assert abs(direct.imag) < 1e-7 * (1.0 + abs(direct.real))
            assert ham(p, q) == pytest.approx(direct.real, rel=rel)

    def test_dilation_squared_closed_form(self, affine_beta2):
        # <beta| D^2 |beta> = beta hbar / 2 and <beta| Q^2 |beta> = 1 + hbar / (2 beta)
        ham = enhance(parse_polynomial("D^2", "affine"), affine_beta2)
        for p, q in [(0.3, 0.5), (-0.4, 3.0)]:
            assert ham(p, q) == pytest.approx(1.0 + 1.25 * (p * q) ** 2, rel=1e-9)

    @pytest.mark.parametrize("expression", ["0.5*P^2 + 0.5*Q^2", "P*Q*P"])
    def test_laurent_gradient_matches_finite_differences(self, affine_beta2, expression):
        # words with P carry negative powers of q
        ham = enhance(parse_polynomial(expression, "affine"), affine_beta2)
        assert any(j < 0 for _, j in ham.polynomial)
        for p, q in [(0.2, 1.1), (-0.4, 2.5)]:
            gp, gq = ham.gradient(p, q)
            h = 1e-5
            fd_p = (ham(p + h, q) - ham(p - h, q)) / (2 * h)
            fd_q = (ham(p, q + h) - ham(p, q - h)) / (2 * h)
            assert gp == pytest.approx(fd_p, rel=1e-6, abs=1e-8)
            assert gq == pytest.approx(fd_q, rel=1e-6, abs=1e-8)

    def test_momentum_word_flow_conserves_energy(self, affine_beta2):
        ham = enhance(parse_polynomial("0.5*P^2 + 0.5*Q^2", "affine"), affine_beta2)
        traj = hamiltonian_flow(ham, (0.1, 1.0), 0.3)
        assert traj.t[-1] == 0.3
        assert np.max(np.abs(traj.energy - traj.energy[0])) <= 1e-8 * abs(traj.energy[0])

    def test_momentum_word_requires_wide_fiducial(self, halfline4000):
        from enhq import affine_family

        narrow = affine_family(halfline4000, 1.5)
        with pytest.raises(DomainError, match="momentum letters"):
            enhance(parse_polynomial("P^4", "affine"), narrow)

    def test_domain_flag_set(self, affine_beta2):
        ham = enhance(parse_polynomial("Q", "affine"), affine_beta2)
        assert ham.q_positive


class TestLabelPolynomialGradient:
    @staticmethod
    def summed_gradient(coeffs, p, q):
        # the gradient as direct sums over the coefficient dict
        gp = sum(i * c * p ** (i - 1) * q**j for (i, j), c in coeffs.items() if i)
        gq = sum(j * c * p**i * q ** (j - 1) for (i, j), c in coeffs.items() if j)
        return float(gp), float(gq)

    @pytest.mark.parametrize(
        "family,expression",
        [("canonical200", "0.5*P^2 + 0.5*Q^2 + 0.1*Q^4 + P*Q*P - 0.3*Q"),
         ("affine_beta2", "0.5*P^2 + 0.5*Q^2 + P*Q*P + D*Q*D + Q^3 - D")],
    )
    def test_bit_identical_to_direct_sums(self, request, family, expression):
        family = request.getfixturevalue(family)
        ham = enhance(parse_polynomial(expression, family.kind), family)
        rng = np.random.default_rng(3)
        for p, q in zip(rng.uniform(-2, 2, 50), rng.uniform(0.2, 3, 50)):
            p, q = float(p), float(q)
            assert ham.gradient(p, q) == self.summed_gradient(ham.polynomial, p, q)


class TestAffineLabelDomain:
    @pytest.mark.parametrize("expression", ["P^2", "D*Q + Q*D"])
    @pytest.mark.parametrize("q", [0.0, -1.0])
    def test_labels_off_the_half_line_raise(self, affine_beta2, expression, q):
        ham = enhance(parse_polynomial(expression, "affine"), affine_beta2)
        with pytest.raises(DomainError, match="q > 0"):
            ham(0.1, q)

    def test_gradient_is_unguarded_below_the_half_line(self, affine_beta2):
        # integrator stages may land below the floor before the floor event
        # ends the run, so the gradient keeps the Laurent polynomial's value
        for expression in ("P^2", "D*Q + Q*D"):
            ham = enhance(parse_polynomial(expression, "affine"), affine_beta2)
            expected = TestLabelPolynomialGradient.summed_gradient(ham.polynomial, 0.1, -1.0)
            assert ham.gradient(0.1, -1.0) == expected

    def test_canonical_labels_are_unrestricted(self, canonical200):
        ham = enhance(parse_polynomial("P^2", "canonical"), canonical200)
        assert ham(0.1, -1.0) == pytest.approx(0.51, abs=1e-12)


class TestEnhanceSpin:
    def test_s3_restricts_to_linear_momentum(self):
        rep = build_spin_rep(2.0)
        family = spin_family(rep)
        ham = enhance(parse_polynomial("S3", "spin"), family)
        sq = np.sqrt(2.0)
        for p, q in [(0.0, 0.0), (0.5, 0.3), (-1.0, -0.4)]:
            assert ham(p, q) == pytest.approx(sq * p, abs=1e-12)

    def test_casimir_is_constant(self):
        rep = build_spin_rep(1.5)
        family = spin_family(rep)
        ham = enhance(parse_polynomial("S1^2 + S2^2 + S3^2", "spin"), family)
        assert ham(0.2, 0.5) == pytest.approx(1.5 * 2.5, abs=1e-12)

    POLYNOMIALS = ("S3", "S3*S3 + S1", "S1*S2*S1 - 0.5*S2^2 + S3",
                   "S1^4 + S2*S3*S2 - 2*S3*S1*S3")

    @pytest.mark.parametrize("hbar", [1.0, 0.7, 0.1])
    @pytest.mark.parametrize("s", [0.5, 2.5, 10.0, 50.0])
    def test_gradient_matches_richardson_differences_of_the_direct_route(self, s, hbar):
        # the exact gradient 2 Re <d psi|M psi> against differences of the
        # per-word route, at steps h and h/2 combined to O(h^4)
        family = spin_family(build_spin_rep(s, hbar))
        sq = np.sqrt(s * hbar)
        h = 1e-3 * sq
        for expression in self.POLYNOMIALS:
            poly = parse_polynomial(expression, "spin")
            ham = enhance(poly, family)

            def direct(p, q):
                return poly_expectation(poly, family, p, q).real

            for p, q in [(0.3 * sq, 0.7 * sq), (-0.55 * sq, -2.0 * sq)]:
                assert ham(p, q) == pytest.approx(direct(p, q), rel=1e-12, abs=1e-12 * s * hbar)

                def central(step):
                    return np.array([direct(p + step, q) - direct(p - step, q),
                                     direct(p, q + step) - direct(p, q - step)]) / (2 * step)

                richardson = (4 * central(h / 2) - central(h)) / 3
                grad = np.array(ham.gradient(p, q))
                assert np.max(np.abs(grad - richardson)) <= 1e-8 * np.max(np.abs(grad)), expression

    def test_flow_conserves_energy_to_the_solver_tolerance(self):
        # an exact gradient leaves only the solver's drift; central
        # differences of the direct route drift 8e-11 on this orbit
        ham = enhance(parse_polynomial("S3*S3 + S1", "spin"), spin_family(build_spin_rep(10.0)))
        traj = hamiltonian_flow(ham, (0.05, -0.3), 0.15, n_samples=200)
        assert np.max(np.abs(traj.energy - traj.energy[0])) <= 1e-11

    @pytest.mark.parametrize("route,expression,variables", [
        (enhance, "S3", "spin"),
        (lambda poly, family: poly_expectation(poly, family, 0.1, 0.2), "S3", "spin"),
        (lambda poly, family: shift_identity_check(poly, family, [(0.1, 0.2)]), "D", "affine"),
    ], ids=["enhance", "poly_expectation", "shift_identity_check"])
    def test_incompatible_pairing_rejected(self, canonical200, route, expression, variables):
        # every route checks the alphabet before it looks up a letter
        with pytest.raises(ValueError, match="incompatible"):
            route(parse_polynomial(expression, variables), canonical200)


class TestEnhanceExtended:
    """The squeezed family restricts through its linear adjoint action on the vacuum."""

    POLYNOMIALS = ("Q", "P", "0.5*P^2 + 0.5*Q^2", "P*Q + Q*P - 3*Q", "Q^3 + P*Q*P - 0.5*P",
                   "P*Q*Q*P + 0.25*P^4 - Q^4 + 2*Q*P*Q + P^2")
    PARAMETERS = [(0.3, 0.2), (-0.7, -0.15), (1.1, 0.05), (2.0, -0.25)]
    LABELS = [(0.4, -0.7), (-1.0, 0.5), (0.0, 0.0), (1.3, 1.1)]

    @staticmethod
    def restricted(poly, a, b):
        # the moments need only dim = degree + 2
        return enhance(poly, extended_family(build_fock_rep(poly.degree + 2), a, b))

    @pytest.mark.parametrize("a,b", PARAMETERS)
    def test_matches_the_direct_expectation(self, fock200, a, b):
        # the direct route needs a basis that holds the state
        family = extended_family(fock200, a, b)
        for expression in self.POLYNOMIALS:
            poly = parse_polynomial(expression, "canonical")
            ham = self.restricted(poly, a, b)
            for p, q in self.LABELS:
                direct = poly_expectation(poly, family, p, q)
                assert abs(direct.imag) < 1e-10
                assert ham(p, q) == pytest.approx(direct.real, rel=1e-12, abs=1e-14), expression

    @pytest.mark.parametrize("a,b", PARAMETERS)
    def test_gradient_matches_richardson_differences_of_the_direct_route(self, fock200, a, b):
        family = extended_family(fock200, a, b)
        h = 1e-3
        for expression in self.POLYNOMIALS:
            poly = parse_polynomial(expression, "canonical")
            ham = self.restricted(poly, a, b)

            def direct(p, q):
                return poly_expectation(poly, family, p, q).real

            for p, q in self.LABELS[:2]:
                def central(step):
                    return np.array([direct(p + step, q) - direct(p - step, q),
                                     direct(p, q + step) - direct(p, q - step)]) / (2 * step)

                richardson = (4 * central(h / 2) - central(h)) / 3
                grad = np.array(ham.gradient(p, q))
                assert np.max(np.abs(grad - richardson)) <= 1e-8 * np.max(np.abs(grad)), expression

    def test_harmonic_restriction_in_closed_form(self):
        # P^2 + Q^2 commutes with the rotation: H = [e^{4b} (q^2 + 1/2) + e^{-4b} (p^2 + 1/2)] / 2
        a, b = 0.7, 0.2
        ham = self.restricted(parse_polynomial("0.5*P^2 + 0.5*Q^2", "canonical"), a, b)
        for p, q in self.LABELS:
            expected = 0.5 * (math.exp(4 * b) * (q * q + 0.5) + math.exp(-4 * b) * (p * p + 0.5))
            assert ham(p, q) == pytest.approx(expected, rel=1e-14)

    def test_no_rotation_and_no_squeeze_is_the_canonical_restriction(self, canonical200):
        poly = parse_polynomial("P*Q*Q*P + 0.25*P^4 - Q^4 + 2*Q*P*Q + P^2", "canonical")
        assert self.restricted(poly, 0.0, 0.0).polynomial == enhance(poly, canonical200).polynomial

    @pytest.mark.parametrize("b", [400.0, -400.0])
    def test_a_squeeze_past_the_doubles_builds_but_does_not_restrict(self, b):
        family = extended_family(build_fock_rep(48), 0.0, b)
        with pytest.raises(CapacityError):
            family.state(0.3, 0.4)
        with pytest.raises(DomainError, match=f"the squeeze b = {b} overflows"):
            enhance(parse_polynomial("0.5*P^2 + 0.5*Q^2", "canonical"), family)

    def test_an_expansion_past_the_doubles_raises(self):
        # e^{2b} is finite at b = 200, its square is not
        family = extended_family(build_fock_rep(8), 0.0, 200.0)
        assert enhance(parse_polynomial("Q", "canonical"), family)(0.0, 1.0) == math.exp(400.0)
        with pytest.raises(DomainError, match="overflows a double"):
            enhance(parse_polynomial("Q^2", "canonical"), family)


class TestAlphabets:
    EXPRESSIONS = {"canonical": "0.5*P^2 + 0.5*Q^2", "affine": "D*Q + Q*D + P^2",
                   "spin": "S1*S3 + S3*S1 + S2"}
    ACCEPTS = {"canonical": "canonical", "extended": "canonical", "affine": "affine", "spin": "spin"}

    @pytest.fixture(scope="class")
    def families(self, canonical200, fock200, affine_beta2):
        return {"canonical": canonical200, "extended": extended_family(fock200, 0.3, -0.2),
                "affine": affine_beta2, "spin": spin_family(build_spin_rep(2.0))}

    @pytest.mark.parametrize("variables", ["canonical", "affine", "spin"])
    @pytest.mark.parametrize("kind", ["canonical", "extended", "affine", "spin"])
    def test_each_family_restricts_its_own_alphabet_only(self, families, kind, variables):
        poly = parse_polynomial(self.EXPRESSIONS[variables], variables)
        if self.ACCEPTS[kind] == variables:
            assert math.isfinite(enhance(poly, families[kind])(0.3, 1.2))
        else:
            with pytest.raises(ValueError, match="incompatible"):
                enhance(poly, families[kind])


class TestShiftIdentity:
    def test_momentum_squared(self, canonical200):
        rng = np.random.default_rng(7)
        samples = rng.uniform(-2, 2, size=(20, 2))
        report = shift_identity_check(parse_polynomial("P^2", "canonical"), canonical200, samples)
        assert report.max_deviation < 1e-8

    def test_linear_word_is_exact(self, canonical200):
        report = shift_identity_check(
            parse_polynomial("Q", "canonical"), canonical200, [(0.5, -1.5), (2.0, 2.0)]
        )
        assert report.max_deviation < 1e-12

    def test_mixed_word(self, canonical200):
        report = shift_identity_check(parse_polynomial("P*Q*P", "canonical"), canonical200, [(1.0, 1.0)])
        assert report.max_deviation < 1e-8

    def test_requires_canonical_family(self, affine_beta2):
        with pytest.raises(ValueError):
            shift_identity_check(parse_polynomial("Q", "affine"), affine_beta2, [(0.0, 1.0)])


def _canonical_builder(expression, dim=10):
    poly = parse_polynomial(expression, "canonical")

    def build(hbar):
        return enhance(poly, canonical_family(build_fock_rep(dim, hbar)))

    return build


class TestClassicalLimit:
    def test_oscillator(self):
        fit = classical_limit(
            _canonical_builder("0.5*P^2 + 0.5*Q^2"), 1.0, 1.0, [1.0, 0.5, 0.25, 0.125]
        )
        assert fit.limit == pytest.approx(1.0, abs=1e-10)
        assert fit.leading_power == 1

    def test_hbar_independent_word(self):
        fit = classical_limit(_canonical_builder("Q"), 0.3, 2.0, [1.0, 0.5, 0.25])
        assert fit.limit == pytest.approx(2.0, abs=1e-12)
        assert fit.leading_power == 0

    def test_enhanced_hydrogen_recovers_classical_form(self):
        # fixed fiducial width; the measured coefficients approach e^2 and 0
        p0, q0 = 0.5, 1.5

        def builder(h):
            return hydrogen_enhanced(HydrogenParams(m=1.0, e2=1.0, beta=2.0, hbar=h))

        fit = classical_limit(builder, p0, q0, [0.5, 0.25, 0.125, 0.0625, 0.03125])
        assert fit.limit == pytest.approx(p0**2 / 2 - 1.0 / q0, abs=5e-6)
        assert fit.leading_power == 1

    def test_sequence_validation(self):
        builder = _canonical_builder("Q")
        with pytest.raises(ValueError):
            classical_limit(builder, 0, 0, [1.0, 0.5])
        with pytest.raises(ValueError):
            classical_limit(builder, 0, 0, [0.25, 0.5, 1.0])
        with pytest.raises(ValueError):
            classical_limit(builder, 0, 0, [1.0, -0.5, 0.25])

    def test_nonconvergent_values_raise(self):
        def noisy_builder(hbar):
            return EnhancedHamiltonian(lambda p, q: np.sin(1e6 / hbar), lambda p, q: (0.0, 0.0),
                                       hbar=hbar)

        with pytest.raises(NumericalFailure) as err:
            classical_limit(noisy_builder, 0.0, 0.0, [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
        assert "residuals" in err.value.diagnostics

    @pytest.mark.parametrize(
        "expression", ["P^2", "Q^2", "0.5*P^2 + 0.5*Q^2", "P*Q*Q*P", "Q^4"]
    )
    def test_degree_four_words_have_linear_corrections(self, expression):
        p, q = 0.7, -1.2
        fit = classical_limit(_canonical_builder(expression), p, q, [1.0, 0.5, 0.25, 0.125, 0.0625])
        poly = parse_polynomial(expression, "canonical")
        assert fit.limit == pytest.approx(classical_value(poly, p, q), abs=1e-8)
        assert fit.leading_power >= 1
        assert fit.residual < 1e-6


class TestHbarSeries:
    EXPRESSION = "P^4 + 0.5*Q^4 + P*Q*P*Q + Q*P*Q*P - 2*Q^2"

    @pytest.mark.parametrize("hbar", [1.0, 0.5, 0.25, 0.0625])
    def test_series_sums_to_enhance(self, hbar):
        # one representation at hbar = 1 gives H at every hbar
        poly = parse_polynomial(self.EXPRESSION, "canonical")
        series = hbar_series(poly, canonical_family(build_fock_rep(8, 1.0)))
        ham = enhance(poly, canonical_family(build_fock_rep(8, hbar)))
        assert len(series) == 3
        for p, q in [(0.0, 0.0), (0.7, -1.2), (-1.5, 0.4), (2.0, 2.0)]:
            summed = sum(hbar**k * h_k(p, q) for k, h_k in enumerate(series))
            assert summed == pytest.approx(ham(p, q), abs=1e-14)

    @pytest.mark.parametrize("hbar", [1.0, 0.37])
    def test_coefficients_are_those_of_the_moments(self, hbar):
        # <P^4> = <Q^4> = 3 hbar^2 / 4, <PQPQ + QPQP> = hbar^2 / 2 and
        # <Q^2> = hbar / 2: the constant term is -hbar + 1.625 hbar^2
        poly = parse_polynomial(self.EXPRESSION, "canonical")
        h_0, h_1, h_2 = hbar_series(poly, canonical_family(build_fock_rep(8, hbar)))
        assert h_0.coeffs == pytest.approx({(4, 0): 1.0, (0, 4): 0.5, (2, 2): 2.0, (0, 2): -2.0},
                                           abs=1e-14)
        assert h_1.coeffs == pytest.approx({(2, 0): 4.0, (0, 2): 2.5, (0, 0): -1.0}, abs=1e-14)
        assert h_2.coeffs == pytest.approx({(0, 0): 1.625}, abs=1e-14)

    @pytest.mark.parametrize("hbar", [1.0, 0.3])
    def test_squeezed_series_sums_to_enhance(self, hbar):
        # the squeezed family shares the vacuum, and its table is free of hbar
        poly = parse_polynomial(self.EXPRESSION, "canonical")
        series = hbar_series(poly, extended_family(build_fock_rep(8, 1.0), 0.4, -0.3))
        ham = enhance(poly, extended_family(build_fock_rep(8, hbar), 0.4, -0.3))
        for p, q in [(0.0, 0.0), (0.7, -1.2), (-1.5, 0.4)]:
            summed = sum(hbar**k * h_k(p, q) for k, h_k in enumerate(series))
            assert summed == pytest.approx(ham(p, q), rel=1e-14, abs=1e-14)

    def test_rejects_affine_and_spin_families(self, affine_beta2, spin_half):
        with pytest.raises(ValueError, match="canonical family"):
            hbar_series(parse_polynomial("Q^2", "affine"), affine_beta2)
        with pytest.raises(ValueError, match="canonical family"):
            hbar_series(parse_polynomial("S3", "spin"), spin_family(spin_half))

    def test_needs_dim_above_degree(self):
        with pytest.raises(ValueError, match="dim 4 is too small"):
            hbar_series(parse_polynomial("Q^4", "canonical"), canonical_family(build_fock_rep(4, 1.0)))


class TestOperatorPolynomialInvariants:
    def test_from_terms_hermiticity_check(self):
        with pytest.raises(ValueError, match="Hermitian"):
            OperatorPolynomial([(1.0, ("P", "Q", "Q"))], "canonical")
        OperatorPolynomial([(1.0, ("Q", "P", "Q"))], "canonical")

    def test_degree_property(self):
        poly = parse_polynomial("Q^3 + Q", "canonical")
        assert poly.degree == 3
