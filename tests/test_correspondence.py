import itertools
import math
import random
import re
from fractions import Fraction

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
    build_halfline_rep,
    build_spin_rep,
    canonical_family,
    classical_hamiltonian,
    enhance,
    extended_family,
    hamiltonian_flow,
    hbar_series,
    hydrogen_enhanced,
    parse_polynomial,
    poly_expectation,
    spin_family,
)
from enhq.correspondence import _ALPHABETS, MAX_DEGREE, EnhancedHamiltonian, OperatorPolynomial, _rounded
from oracles import (
    affine_label_coefficients,
    classical_limit,
    expanded_label_terms,
    fiducial_p2_closed,
    label_polynomial_loop,
    shift_identity_check,
    stencil_family,
)


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
        # only the affine set holds an inverse letter, Q^-1; a rejection
        # names the letter, and the degree cap holds either way
        for text, variables, letter in [("P^-1", "affine", "P^-1"), ("D^-2", "affine", "D^-1"),
                                        ("Q^-1", "canonical", "Q^-1"), ("Q^-1", "spin", "Q^-1"),
                                        ("S3^-1", "spin", "S3^-1")]:
            with pytest.raises(ValueError, match=re.escape(f"letter '{letter}' is not available "
                                                           f"in the {variables} variable set")):
                parse_polynomial(text, variables)
        with pytest.raises(ValueError, match="power -7 of Q exceeds the degree cap 6"):
            parse_polynomial("Q^-7", "affine")

    def test_inverse_powers_of_q_on_the_affine_set(self):
        poly = parse_polynomial("0.5*P^2 - Q^-2 + 2*Q^-0 + Q^-1*D*Q^-1", "affine")
        assert dict(poly.terms) == {("P", "P"): 0.5, ("Q^-1", "Q^-1"): -1.0, (): 2.0,
                                    ("Q^-1", "D", "Q^-1"): 1.0}
        assert parse_polynomial("Q^-6", "affine").degree == 6
        # Q^-1 is Hermitian, but a word of it beside D is not
        with pytest.raises(ValueError, match="not Hermitian: word D\\*Q\\^-1"):
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
        assert classical_hamiltonian(poly)(1.0, 2.0) == pytest.approx(2.5)
        affine = parse_polynomial("D^2", "affine")
        assert classical_hamiltonian(affine)(2.0, 3.0) == pytest.approx(36.0)
        hydrogen = parse_polynomial("0.5*P^2 - Q^-1", "affine")
        assert classical_hamiltonian(hydrogen)(2.0, 4.0) == 1.75
        assert classical_hamiltonian(hydrogen).gradient(2.0, 4.0) == (2.0, 0.0625)
        with pytest.raises(DomainError, match="q > 0"):
            classical_hamiltonian(hydrogen)(2.0, 0.0)
        with pytest.raises(ValueError, match="no classical monomial value for letter 'S1'"):
            classical_hamiltonian(parse_polynomial("S1", "spin"))


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
        assert ham.polynomial.coeffs[(2, 0)] == pytest.approx(0.5)
        assert ham.polynomial.coeffs[(0, 2)] == pytest.approx(0.5)
        assert ham.polynomial.coeffs[(0, 0)] == pytest.approx(0.5)

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

    @pytest.mark.parametrize("build", [canonical_family, lambda rep: extended_family(rep, 0.4, -0.3)],
                             ids=["canonical", "extended"])
    @settings(max_examples=40, deadline=None)
    @given(word=st.lists(st.sampled_from("PQ"), min_size=1, max_size=MAX_DEGREE),
           p=st.floats(-1.0, 1.0), q=st.floats(-1.0, 1.0))
    def test_moment_route_is_exact_at_any_dim(self, build, word, p, q):
        # the vacuum moments come from the ladder, so the smallest basis restricts
        # any word to the bits of a large one, and to the direct expectation on
        # states whose tail the basis holds (the squeezed vacuum's reaches level 80)
        poly = OperatorPolynomial([(1.0, word), (1.0, word[::-1])], "canonical")
        small = enhance(poly, build(build_fock_rep(2)))
        assert small.polynomial.coeffs == enhance(poly, build(build_fock_rep(40))).polynomial.coeffs
        direct = poly_expectation(poly, build(build_fock_rep(120)), p, q)
        assert small(p, q) == pytest.approx(direct.real, rel=1e-12, abs=1e-12)


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
        assert ham.polynomial.coeffs == pytest.approx({(2, 0): 1.0, (0, -2): c2}, rel=1e-12)
        for p, q in [(0.0, 1.0), (0.6, 1.8)]:
            assert ham(p, q) == pytest.approx(p * p + c2 / (q * q), rel=1e-12)

    @pytest.mark.parametrize("nu", [1e5, 1e8])
    def test_momentum_moment_is_exact_in_the_classical_limit(self, nu):
        # the span terms of <P^2> grow like nu^2 and cancel to beta hbar / 2 + ...;
        # summed exactly they round once.  Restricting samples no grid, and on
        # this one the fiducial underflows.
        rep = build_halfline_rep(0.1, 10.0, 16, 2.0 / nu)
        ham = enhance(parse_polynomial("P^2", "affine"), affine_family(rep, 2.0))
        assert ham.polynomial.coeffs[0, -2] == pytest.approx(fiducial_p2_closed(2.0, 2.0 / nu), rel=4e-16)

    @staticmethod
    def rounded_once(exact):
        # the oracle's exact coefficients, each rounded once; a zero is no term
        assert all(im == 0 for _, im in exact.values())
        return {key: float(re) for key, (re, _) in exact.items() if float(re)}

    @pytest.mark.parametrize("beta", [1e6, 1e15, 1e60])
    def test_dilation_sixth_power_is_summed_exactly(self, beta):
        # the kept subwords of D^6 have moments growing like nu^6 whose
        # imaginary parts cancel between a subword and its reversal only in
        # exact arithmetic: each key is summed exactly and rounded once
        poly = parse_polynomial("D^6", "affine")
        family = affine_family(build_halfline_rep(0.1, 10.0, 16, 1.0), beta)
        coeffs = enhance(poly, family).polynomial.coeffs
        assert coeffs == self.rounded_once(affine_label_coefficients(poly, beta, 1.0))
        assert coeffs[6, 6] == pytest.approx(1.0, rel=1e-5)

    @settings(max_examples=40, deadline=None)
    @given(word=st.lists(st.sampled_from(["D", "Q", "P", "Q^-1"]), min_size=1, max_size=MAX_DEGREE),
           coeff=st.floats(-10.0, 10.0).filter(bool),
           beta=st.sampled_from([3.5, 1e6, 1e15, 1e60]), hbar=st.sampled_from([1.0, 0.3]))
    def test_words_up_to_the_degree_cap_round_once(self, word, coeff, beta, hbar):
        # a word and its reversal, against the letters differentiated on the
        # labeled state; 2 beta / hbar >= 7 keeps every <Q^-k> of six letters finite
        poly = OperatorPolynomial([(coeff, word), (coeff, word[::-1])], "affine")
        family = affine_family(build_halfline_rep(0.1, 10.0, 16, hbar), beta)
        assert (enhance(poly, family).polynomial.coeffs
                == self.rounded_once(affine_label_coefficients(poly, beta, hbar)))

    def test_momentum_moment_closed_form_does_not_overflow(self):
        # beta^2 alone would overflow at beta = 1e300; the moment is 5e299
        rep = build_halfline_rep(0.1, 10.0, 16, 1.0)
        ham = enhance(parse_polynomial("P^2", "affine"), affine_family(rep, 1e300))
        assert ham.polynomial.coeffs[0, -2] == 5e299
        assert fiducial_p2_closed(1e300, 1.0) == pytest.approx(5e299, rel=1e-15)

    @pytest.mark.parametrize(
        "expression,rel",
        [("Q", 1e-9), ("D", 1e-9), ("Q^2", 1e-9), ("D*Q + Q*D", 1e-9), ("D*Q*D + Q^3", 1e-9),
         ("Q*D*Q", 1e-8), ("D^2", 1e-8), ("P^2", 1e-6), ("P*Q*P", 1e-6), ("D*P + P*D", 1e-6),
         ("Q*P^2*Q + D^2", 1e-6), ("Q^-1", 1e-9), ("Q^-2 + Q^-1*D*Q^-1", 1e-8),
         ("0.5*P^2 + Q^-1", 1e-6), ("Q*P*Q^-1 + Q^-1*P*Q", 1e-6)],
    )
    def test_moment_route_matches_direct_expectation(self, affine_beta2, expression, rel):
        # the moment route is exact; the direct route on the oracle's stencil
        # letters carries the grid error of the finite-difference D (about
        # 1e-9) and of the formal P (about 1e-7)
        poly = parse_polynomial(expression, "affine")
        ham = enhance(poly, affine_beta2)
        grid = stencil_family(affine_beta2)
        for p, q in [(0.3, 0.5), (1.1, 0.5), (-0.4, 3.0), (0.2, 3.0), (0.7, 1.3)]:
            direct = poly_expectation(poly, grid, p, q)
            assert abs(direct.imag) < 1e-7 * (1.0 + abs(direct.real))
            assert ham(p, q) == pytest.approx(direct.real, rel=rel)

    def test_direct_expectation_needs_the_oracle_letters(self, affine_beta2):
        # the half line holds no operator: the per-word route names the family
        # rather than failing on a letter lookup
        with pytest.raises(ValueError, match="affine family holds no matrix for D, P"):
            poly_expectation(parse_polynomial("D*Q*D + P^2", "affine"), affine_beta2, 0.3, 1.2)

    def test_dilation_squared_closed_form(self, affine_beta2):
        # <beta| D^2 |beta> = beta hbar / 2 and <beta| Q^2 |beta> = 1 + hbar / (2 beta)
        ham = enhance(parse_polynomial("D^2", "affine"), affine_beta2)
        for p, q in [(0.3, 0.5), (-0.4, 3.0)]:
            assert ham(p, q) == pytest.approx(1.0 + 1.25 * (p * q) ** 2, rel=1e-9)

    @pytest.mark.parametrize("expression", ["0.5*P^2 + 0.5*Q^2", "P*Q*P"])
    def test_laurent_gradient_matches_finite_differences(self, affine_beta2, expression):
        # words with P carry negative powers of q
        ham = enhance(parse_polynomial(expression, "affine"), affine_beta2)
        assert any(j < 0 for _, j in ham.polynomial.coeffs)
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

    @pytest.mark.parametrize("expression,k", [("Q^-3", 3), ("P*Q^-1*P", 3), ("Q^-1*P*Q^-1", 3)])
    def test_inverse_letters_require_a_wide_fiducial(self, halfline4000, expression, k):
        # a word whose letters P or Q^-1 reach <Q^-k> is finite only for
        # beta > k hbar / 2
        with pytest.raises(DomainError, match=re.escape(f"diverge unless beta > {k}/2 * hbar")):
            enhance(parse_polynomial(expression, "affine"), affine_family(halfline4000, k / 2))
        ham = enhance(parse_polynomial(expression, "affine"), affine_family(halfline4000, k / 2 + 0.01))
        assert math.isfinite(ham(0.3, 1.2))

    def test_inverse_letters_are_guarded_at_the_final_pairing(self, halfline4000):
        # Q*Q^-4*Q passes f_(-3) on its way but pairs with <Q^-2> alone, which
        # is finite at beta = 2 hbar: it restricts to Q^-2's (8/3)/q^2
        family = affine_family(halfline4000, 2.0)
        ham = enhance(parse_polynomial("Q*Q^-4*Q", "affine"), family)
        assert ham.polynomial.coeffs == enhance(parse_polynomial("Q^-2", "affine"), family).polynomial.coeffs
        assert ham.polynomial.coeffs == {(0, -2): 8 / 3}
        # P^4 pairs with <Q^-4>, whose coefficient vanishes at beta = 3/2 hbar, and Q^-3 with <Q^-3>
        for expression, beta, k in [("P^4", 1.5, 4), ("Q^-3", 1.2, 3)]:
            with pytest.raises(DomainError, match=re.escape(f"diverge unless beta > {k}/2 * hbar")):
                enhance(parse_polynomial(expression, "affine"), affine_family(halfline4000, beta))

    @pytest.mark.parametrize("hbar", [1.0, 0.5])
    def test_a_narrow_family_restricts_what_its_moments_allow(self, hbar):
        # the family builds at any beta > 0: at beta = 0.75 hbar, 2 nu = 1.5 and
        # <Q^-1> = 2 nu / (2 nu - 1) = 3 exactly, while P^2 reaches <Q^-2>
        family = affine_family(build_halfline_rep(1e-5, 60.0, 3000, hbar), 0.75 * hbar)
        assert enhance(parse_polynomial("Q^-1", "affine"), family).polynomial.coeffs == {(0, -1): 3.0}
        with pytest.raises(DomainError, match=re.escape("diverge unless beta > 2/2 * hbar")):
            enhance(parse_polynomial("P^2", "affine"), family)

    def test_momentum_word_requires_wide_fiducial(self, halfline4000):
        from enhq import affine_family

        narrow = affine_family(halfline4000, 1.5)
        with pytest.raises(DomainError, match="momentum letters"):
            enhance(parse_polynomial("P^4", "affine"), narrow)

    def test_domain_flag_set(self, affine_beta2):
        ham = enhance(parse_polynomial("Q", "affine"), affine_beta2)
        assert ham.q_positive


class TestCompiledLabelPolynomial:
    @staticmethod
    def assert_matches_loop(ham, p, q):
        # within 4 ulp of the sum of the terms' absolute values, per component
        (value, gp, gq), scales = label_polynomial_loop(ham.polynomial.coeffs, p, q)
        got = (ham.polynomial.value(p, q), *ham.gradient(p, q))
        for a, b, scale in zip(got, (value, gp, gq), scales):
            assert abs(a - b) <= 4 * math.ulp(scale), (a, b, scale)

    @pytest.mark.parametrize(
        "family,expression",
        [("canonical200", "0.5*P^2 + 0.5*Q^2 + 0.1*Q^4 + P*Q*P - 0.3*Q"),
         ("squeezed", "0.5*P^2 + 0.5*Q^2 + 0.1*Q^4 + P*Q*P - 0.3*Q + Q*P^2*Q"),
         ("affine_beta2", "0.5*P^2 + 0.5*Q^2 + P*Q*P + D*Q*D + Q^3 - D"),
         ("affine_beta2", "0.5*P^2 - Q^-1 + 0.3*Q^-3 + Q^-1*D*Q^-1 + Q*P*Q^-1 + Q^-1*P*Q + D")],
    )
    def test_compiled_code_matches_the_loop_oracle(self, request, family, expression):
        family = (extended_family(build_fock_rep(16), 0.3, 0.2) if family == "squeezed"
                  else request.getfixturevalue(family))
        ham = enhance(parse_polynomial(expression, family.variables), family)
        rng = np.random.default_rng(3)
        for p, q in zip(rng.uniform(-2, 2, 50), rng.uniform(0.2, 3, 50)):
            self.assert_matches_loop(ham, float(p), float(q))

    def test_array_values_are_the_scalar_values(self, affine_beta2):
        ham = enhance(parse_polynomial("0.5*P^2 - Q^-1 + D*Q*D + 0.3*Q^-3", "affine"), affine_beta2)
        rng = np.random.default_rng(5)
        p, q = rng.uniform(-2, 2, 64), rng.uniform(0.2, 3, 64)
        values = ham.polynomial.value(p, q)
        assert values.tolist() == [ham(a, b) for a, b in zip(p.tolist(), q.tolist())]

    def test_code_holds_only_numbers_and_labels(self, affine_beta2):
        ham = enhance(parse_polynomial("0.5*P^2 - Q^-1 + Q^-1*D*Q^-1", "affine"), affine_beta2)
        for fn in (ham.polynomial.value, ham.polynomial.gradient):
            # the names of the IEEE fallback alone (see _function)
            assert set(fn.__code__.co_names) == {"ZeroDivisionError", "ieee", fn.__name__}
            assert fn.__code__.co_varnames == ("p", "q")
            assert all(isinstance(c, float) or c is None for c in fn.__code__.co_consts)

    def test_one_source_compiles_once(self, affine_beta2):
        poly = parse_polynomial("0.5*P^2 - Q^-1 + D*Q*D + 0.3*Q^-3", "affine")
        first, second = (enhance(poly, affine_beta2).polynomial for _ in range(2))
        assert first.coeffs == second.coeffs
        assert first.value is second.value and first.gradient is second.gradient

    def test_a_power_that_underflows_to_zero_divides_as_ieee(self):
        # q^2 = 1e-340 underflows to 0: the value overflows a double, and the
        # gradient divides by 0 as float64 arrays do (dH/dq = -inf + inf here)
        ham = hydrogen_enhanced(HydrogenParams(m=1, e2=1, beta=2, hbar=1))
        with pytest.raises(DomainError, match="overflows a double"):
            ham.evaluate(0.1, 1e-170)
        gp, gq = ham.gradient(0.1, 0.0)
        assert gp == pytest.approx(0.1) and math.isnan(gq)
        with np.errstate(all="ignore"):
            arrays = ham.polynomial.gradient(np.array([0.1]), np.array([0.0]))
        assert [a[0] for a in arrays] == [gp, pytest.approx(gq, nan_ok=True)]
        assert ham.polynomial.value(0.1, 1e-170) == math.inf

    def test_a_flow_from_an_underflowing_power_names_its_point(self, affine_beta2):
        ham = enhance(parse_polynomial("0.5*P^2 + Q^-2", "affine"), affine_beta2)
        with pytest.raises(NumericalFailure, match=r"gradient is not finite at \(p, q\) = \(0.1, 1e-170\)"):
            hamiltonian_flow(ham, (0.1, 1e-170), 1.0, q_floor=1e-200)

    def test_empty_polynomial_is_zero(self):
        ham = enhance(parse_polynomial("Q - Q", "canonical"), canonical_family(build_fock_rep(4)))
        assert ham(0.3, 0.4) == 0.0 and ham.gradient(0.3, 0.4) == (0.0, 0.0)


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
        for expression in ("P^2", "D*Q + Q*D", "P^2 - Q^-1"):
            ham = enhance(parse_polynomial(expression, "affine"), affine_beta2)
            TestCompiledLabelPolynomial.assert_matches_loop(ham, 0.1, -1.0)

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
        restricted = self.restricted(poly, 0.0, 0.0).polynomial.coeffs
        assert restricted == enhance(poly, canonical200).polynomial.coeffs

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


class TestMergedCoefficientOverflow:
    def test_enhance_raises_where_merged_powers_overflow(self, canonical200):
        # each moment term is finite; the constants of three words sum past the doubles
        with pytest.raises(DomainError, match="overflows a double at the power p\\^0 q\\^0"):
            enhance(parse_polynomial("1e308*P^2 + 1e308*Q^2 + 1e308", "canonical"), canonical200)

    def test_enhance_raises_where_a_gradient_coefficient_overflows(self, canonical200):
        with pytest.raises(DomainError, match="overflows a double at the power p\\^1 q\\^0"):
            enhance(parse_polynomial("1e308*P^2", "canonical"), canonical200)

    def test_an_affine_moment_past_the_doubles_raises(self):
        # at beta / hbar = 1e300 the exact <P^2> / hbar^2, about nu / 2, is a double;
        # <P^4> / hbar^4, about nu^2 / 4, is not, and neither is the key sum it enters
        family = affine_family(build_halfline_rep(0.1, 10.0, 16, 1.0), 1e300)
        assert enhance(parse_polynomial("P^2", "affine"), family).polynomial.coeffs[0, -2] == 5e299
        with pytest.raises(DomainError, match="the fiducial moment of P\\*P\\*P\\*P overflows a double"):
            family.fiducial_moment(("P",) * 4)
        with pytest.raises(DomainError, match=r"overflows a double at the power p\^0 q\^-4"):
            enhance(parse_polynomial("P^4", "affine"), family)

    def test_hbar_series_raises_where_a_rescaled_term_overflows(self):
        # the q^4 term of Q^6 is 15 <Q^2> = 7.5 hbar times the coefficient:
        # finite at hbar = 0.5, not once divided by hbar for h_1
        family = canonical_family(build_fock_rep(8, hbar=0.5))
        with pytest.raises(DomainError, match="overflows a double at the power p\\^0 q\\^4"):
            hbar_series(parse_polynomial("2.5e307*Q^6", "canonical"), family)


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
            return EnhancedHamiltonian(lambda p, q: np.sin(1e6 / hbar), lambda p, q: (0.0, 0.0))

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
        assert fit.limit == pytest.approx(classical_hamiltonian(poly)(p, q), abs=1e-8)
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

    def test_series_is_exact_at_dim_2(self):
        poly = parse_polynomial(self.EXPRESSION, "canonical")
        small, large = (hbar_series(poly, canonical_family(build_fock_rep(dim))) for dim in (2, 8))
        assert [h.coeffs for h in small] == [h.coeffs for h in large]


class TestSpanWalk:
    """One walk per word against the expansion over every product of shifted terms.

    The coefficients are compared as ordered lists: the order is the one in
    which the compiled code sums them, so it fixes the bits of every value.
    """

    @staticmethod
    def nonzero(rounded):
        return [(key, c) for key, c in rounded.items() if c != 0.0]

    def expansion(self, poly, family):
        return self.nonzero(_rounded(expanded_label_terms(poly, family, family.moment_scale, False),
                                     family.kind))

    def expanded_series(self, poly, family):
        series = [{} for _ in range(poly.degree // 2 + 1)]
        for (i, j, n), sums in expanded_label_terms(poly, family, Fraction(1, 2), True).items():
            series[n][i, j] = sums
        return [self.nonzero(_rounded(terms, family.kind)) for terms in series]

    def assert_walk_is_the_expansion(self, poly, family):
        try:
            expected = self.expansion(poly, family)
        except DomainError as err:
            with pytest.raises(DomainError) as walked:
                enhance(poly, family)
            # the oracle names the <Q^k> of the first kept subword that diverges
            assert re.search(r"<Q\^-?\d+>", str(walked.value))[0] == re.search(r"<Q\^-?\d+>", str(err))[0]
            return False
        assert list(enhance(poly, family).polynomial.coeffs.items()) == expected, poly
        if family.variables == "canonical":
            series = [list(h.coeffs.items()) for h in hbar_series(poly, family)]
            assert series == self.expanded_series(poly, family), poly
        return True

    @staticmethod
    def words(alphabet, lengths):
        return [w for m in lengths for w in itertools.product(alphabet, repeat=m)]

    @staticmethod
    def with_reversal(word, variables, coeff=1.0):
        return OperatorPolynomial([(coeff, word), (coeff, word[::-1])], variables)

    @pytest.mark.parametrize("hbar", [1.0, 0.7])
    def test_every_canonical_word_up_to_the_cap(self, hbar):
        family = canonical_family(build_fock_rep(8, hbar))
        for word in self.words(("P", "Q"), range(MAX_DEGREE + 1)):
            assert self.assert_walk_is_the_expansion(self.with_reversal(word, "canonical"), family)

    @pytest.mark.parametrize("a,b", [(0.3, 0.2), (-1.1, 0.7)])
    def test_squeezed_words(self, a, b):
        # every word up to four letters and a sample of five and six: each product
        # of six squeezed letters' four terms is one of 4096
        family = extended_family(build_fock_rep(8, 1.0), a, b)
        rng = random.Random(5)
        longer = rng.sample(self.words(("P", "Q"), [5]), 3) + rng.sample(self.words(("P", "Q"), [6]), 3)
        for word in self.words(("P", "Q"), range(5)) + longer:
            assert self.assert_walk_is_the_expansion(self.with_reversal(word, "canonical"), family)

    @pytest.mark.parametrize("beta", [0.6, 1.2, 2.0, 3.5, 7.0, 1e6])
    def test_affine_words(self, beta):
        # every word up to four letters, and 300 random ones of five and six; at
        # beta < 3 hbar some reach a <Q^-k> that diverges, and both raise
        family = affine_family(build_halfline_rep(0.1, 10.0, 16, 1.0), beta)
        rng = random.Random(11)
        alphabet = ("D", "Q", "P", "Q^-1")
        longer = [tuple(rng.choices(alphabet, k=rng.choice([5, 6]))) for _ in range(300)]
        restricted = [self.assert_walk_is_the_expansion(self.with_reversal(word, "affine"), family)
                      for word in self.words(alphabet, range(5)) + longer]
        assert all(restricted) == (beta > 3.0)

    @pytest.mark.parametrize("variables,family", [("canonical", "canonical"), ("canonical", "squeezed"),
                                                  ("affine", "affine")])
    def test_sums_of_words_keep_the_order_of_the_expansion(self, variables, family):
        # a power whose moment vanishes in one word (odd on the line) still takes
        # its place in the order before a later word gives it a value
        family = {"canonical": lambda: canonical_family(build_fock_rep(8, 1.0)),
                  "squeezed": lambda: extended_family(build_fock_rep(8, 1.0), 0.3, 0.2),
                  "affine": lambda: affine_family(build_halfline_rep(0.1, 10.0, 16, 1.0), 3.5)}[family]()
        alphabet = _ALPHABETS[variables]
        rng = random.Random(3)
        for _ in range(60):
            terms = []
            for _ in range(rng.randint(2, 4)):
                word, coeff = tuple(rng.choices(alphabet, k=rng.randint(0, 4))), rng.choice([1.0, -0.5, 0.1, 3.0])
                terms += [(coeff, word), (coeff, word[::-1])]
            assert self.assert_walk_is_the_expansion(OperatorPolynomial(terms, variables), family)

    def test_the_walk_is_polynomial_in_the_degree(self, monkeypatch):
        # the expansion of D^6 takes 864 span steps, one per letter of each of
        # its 2^6 kept subwords; the walk takes one per term of each distinct end
        calls = []
        family = affine_family(build_halfline_rep(0.1, 10.0, 16, 1.0), 2.0)
        action = type(family)._span_action

        def counted(self, letter, k):
            calls.append((letter, k))
            return action(self, letter, k)

        monkeypatch.setattr(type(family), "_span_action", counted)
        enhance(parse_polynomial("D^6", "affine"), family)
        assert 0 < len(calls) < 200


class TestOperatorPolynomialInvariants:
    def test_from_terms_hermiticity_check(self):
        with pytest.raises(ValueError, match="Hermitian"):
            OperatorPolynomial([(1.0, ("P", "Q", "Q"))], "canonical")
        OperatorPolynomial([(1.0, ("Q", "P", "Q"))], "canonical")

    def test_degree_property(self):
        poly = parse_polynomial("Q^3 + Q", "canonical")
        assert poly.degree == 3
