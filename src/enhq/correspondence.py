"""Expectation-valued classical Hamiltonians and their exact hbar-series.

An :class:`OperatorPolynomial` is a real-coefficient sum of ordered operator
words over ``{P, Q}`` (canonical), ``{D, Q, P}`` (affine, with ``P`` formal),
or ``{S1, S2, S3}`` (spin).  :func:`enhance` restricts it to a coherent-state
family, producing the label function ``H(p, q) = <p,q| poly |p,q>`` together
with its gradient, from what the family declares.

Except on the sphere, ``H`` is the fiducial expectation of the letters
pulled through the group element (Perelomov): ``P -> P + p``, ``Q -> Q + q``
on the line, rotated by ``2a`` and scaled by ``e^{+-2b}`` for the squeezed
family (Stoler 1970; Yuen 1976), and ``D -> D + p q Q``, ``Q -> q Q``,
``P -> P / q + p`` on the half line.  Expanding each word over the shifted
letters and caching the fiducial moments of the kept subwords turns ``H``
into an explicit Laurent polynomial in ``(p, q)`` with exact moments and
gradients.  Spin letters pull through to trigonometric functions of the
labels, so a spin polynomial is formed once as a matrix ``M``, and
``H = <psi|M psi>`` takes the gradient ``2 Re <d psi|M psi>`` from the
state's tangent.  Nothing is differenced, and there is no ordering engine.

On the line families the vacuum moment of a kept subword of length ``m``
is ``hbar^(m/2)`` times its value at ``hbar = 1``, and odd moments vanish,
so :func:`hbar_series` reads ``H(p, q; hbar) = sum_k hbar^k h_k(p, q)`` off
the same expansion, with no fit: on the canonical family ``h_0`` is the
classical polynomial (weak correspondence) and the ``h_k`` are its quantum
corrections.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import reduce

import numpy as np

from .errors import DomainError, NumericalFailure
from .coherent import CoherentFamily

#: Longest operator word a polynomial may contain.
MAX_DEGREE = 6

_ALPHABETS = {
    "canonical": ("P", "Q"),
    "affine": ("D", "Q", "P"),
    "spin": ("S1", "S2", "S3"),
}

# The grammar, written once: a factor is a number, or a letter with an optional
# ``^`` power; factors are joined by ``*`` and terms by runs of signs, with
# whitespace allowed between tokens.
_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_FACTOR = rf"(?:({_NUMBER})|(S[123]|[PQD])(?:\s*\^\s*([+-]?)\s*({_NUMBER}))?)"
_TERM = rf"{_FACTOR}(?:\s*\*\s*{_FACTOR})*"
_EXPRESSION = re.compile(rf"\s*(?:[-+]\s*)*{_TERM}(?:\s*(?:[-+]\s*)+{_TERM})*\s*")
_SIGNED_TERM = re.compile(rf"((?:[-+]\s*)*)({_TERM})")
_FACTORS = re.compile(_FACTOR)


class OperatorPolynomial:
    """Hermitian sum of real-weighted ordered operator words.

    Hermiticity is structural: after merging duplicates, every word must
    carry the same coefficient as its reversal (words of Hermitian letters
    conjugate to their reversals), to 1e-12 of the larger of the two.
    Coefficients are real by the grammar.
    """

    def __init__(self, terms, variable_set):
        if variable_set not in _ALPHABETS:
            raise ValueError(f"unknown variable set {variable_set!r}")
        alphabet = _ALPHABETS[variable_set]
        merged: dict[tuple[str, ...], float] = {}
        for coeff, word in terms:
            word = tuple(word)
            for letter in word:
                if letter not in alphabet:
                    raise ValueError(
                        f"letter {letter!r} is not available in the {variable_set} variable set"
                    )
            if len(word) > MAX_DEGREE:
                raise ValueError(f"word of degree {len(word)} exceeds the cap {MAX_DEGREE}")
            merged[word] = merged.get(word, 0.0) + float(coeff)
        if not all(map(math.isfinite, merged.values())):
            raise ValueError("polynomial coefficients must be finite")
        merged = {w: c for w, c in merged.items() if c != 0.0}
        for word, coeff in merged.items():
            rev = merged.get(word[::-1], 0.0)
            if abs(rev - coeff) > 1e-12 * max(abs(coeff), abs(rev)):
                raise ValueError(
                    f"polynomial is not Hermitian: word {'*'.join(word) or '1'} "
                    f"lacks a matching reversed term"
                )
        self.terms = tuple(sorted(merged.items()))
        self.variable_set = variable_set

    @property
    def degree(self) -> int:
        return max((len(w) for w, _ in self.terms), default=0)

    def __repr__(self):
        body = " + ".join(f"{c}*{'*'.join(w) if w else '1'}" for w, c in self.terms)
        return f"OperatorPolynomial({body or '0'}, {self.variable_set})"


def parse_polynomial(text: str, variable_set: str) -> OperatorPolynomial:
    """Parse expressions like ``0.5*P^2 + 0.5*Q^2`` or ``P*Q*P - 2*Q``.

    Words are ordered products of operator letters with nonnegative integer
    powers; negative powers (for example ``Q^-1``) are rejected, and so is a
    power above :data:`MAX_DEGREE`, before any word is built.
    """
    if not _EXPRESSION.fullmatch(text):
        raise ValueError(f"cannot parse expression {text!r}: terms must be joined by + or -, "
                         f"factors by *, each a number or a letter with an optional ^ power")
    terms = []
    for signs, term in (m.group(1, 2) for m in _SIGNED_TERM.finditer(text)):
        coeff = -1.0 if signs.count("-") % 2 else 1.0
        word: list[str] = []
        for number, letter, sign, power in _FACTORS.findall(term):
            if number:
                if not math.isfinite(float(number)):
                    raise ValueError(f"number {number} overflows a double")
                coeff *= float(number)
                continue
            n = float(sign + power) if power else 1.0
            if n < 0:
                raise ValueError("negative operator powers are not supported "
                                 "(only nonnegative integer powers are allowed)")
            if n > MAX_DEGREE:
                raise ValueError(f"power {power} of {letter} exceeds the degree cap {MAX_DEGREE}")
            if not n.is_integer():
                raise ValueError(f"operator powers must be integers (got {letter}^{power})")
            word += [letter] * int(n)
        terms.append((coeff, tuple(word)))
    return OperatorPolynomial(terms, variable_set)


def classical_value(poly: OperatorPolynomial, p: float, q: float) -> float:
    """Evaluate the polynomial with each letter replaced by its classical label.

    ``P -> p``, ``Q -> q``, ``D -> p*q``; spin letters have no classical
    monomial reading and are rejected.
    """
    subs = {"P": p, "Q": q, "D": p * q}
    total = 0.0
    for word, coeff in poly.terms:
        value = coeff
        for letter in word:
            if letter not in subs:
                raise ValueError(f"no classical monomial value for letter {letter!r}")
            value *= subs[letter]
        total += value
    return total


def _check_alphabet(poly: OperatorPolynomial, family: CoherentFamily) -> None:
    if poly.variable_set != family.variables:
        raise ValueError(
            f"polynomial over the {poly.variable_set} alphabet is incompatible with a "
            f"{family.kind} family"
        )


def poly_expectation(poly: OperatorPolynomial, family: CoherentFamily, p: float, q: float) -> complex:
    """Complex ``<p,q| poly |p,q>`` by direct matrix products on the state.

    The tests' per-word reference for :func:`enhance`; no library code calls it.
    """
    _check_alphabet(poly, family)
    psi = family.state(p, q)
    mats = family.letters
    total = 0.0 + 0.0j
    for word, coeff in poly.terms:
        vec = psi.amplitudes
        for letter in reversed(word):
            vec = mats[letter] @ vec
        total += coeff * np.vdot(psi.amplitudes, vec)
    return complex(total)


class _LabelPolynomial:
    """Real Laurent polynomial in (p, q) stored as a coefficient dict {(i, j): c}.

    With ``q_positive`` the labels are half-line labels, and evaluating at
    ``q <= 0`` raises :class:`DomainError`.  ``gradient`` is left unguarded:
    an integrator may evaluate a stage below the floor before its terminal
    ``q_floor`` event ends the run.
    """

    def __init__(self, coeffs: dict, q_positive: bool = False):
        self.coeffs = {k: float(v) for k, v in coeffs.items() if v != 0.0}
        self.q_positive = q_positive
        # the partial derivatives as (coefficient, power of p, power of q)
        # terms; powers of q may be negative, so d/dq keeps every j != 0
        self._d_p = [(i * c, i - 1, j) for (i, j), c in self.coeffs.items() if i]
        self._d_q = [(j * c, i, j - 1) for (i, j), c in self.coeffs.items() if j]

    def __call__(self, p: float, q: float) -> float:
        if self.q_positive and q <= 0:
            raise DomainError(f"affine labels require q > 0 (got q = {q})")
        # a running total in term order, with no list built: flows call these
        # once per stage
        value = 0
        for (i, j), c in self.coeffs.items():
            value += c * p**i * q**j
        return float(value)

    def gradient(self, p: float, q: float) -> tuple[float, float]:
        gp = gq = 0
        for c, i, j in self._d_p:
            gp += c * p**i * q**j
        for c, i, j in self._d_q:
            gq += c * p**i * q**j
        return float(gp), float(gq)


def _realized(value: complex, context: str) -> float:
    if not math.isfinite(value.real):
        raise DomainError(f"{context} overflows a double")
    if abs(value.imag) > 1e-10 * (1.0 + abs(value.real)):
        raise NumericalFailure(
            f"{context} produced a non-real value {value}; the polynomial is not "
            f"effectively Hermitian at this tolerance",
            {"value": value},
        )
    return float(value.real)


def _label_terms(poly, family) -> dict:
    # <p,q| W |p,q> = <fiducial| U^dag W U |fiducial>: expand every word over
    # the product of its letters' weighted shifted terms and take the family's
    # exact moment of each kept subword once.  The real coefficients are keyed
    # by (power of p, power of q, length of the kept subword).
    shifted = family.shifted
    moments: dict[tuple[str, ...], complex] = {}
    coeffs: dict[tuple[int, int, int], complex] = {}
    for word, coeff in poly.terms:
        for terms in itertools.product(*(shifted[letter] for letter in word)):
            kept = tuple(letter for _, letter, _, _ in terms if letter is not None)
            if kept not in moments:
                moments[kept] = family.fiducial_moment(kept)
            key = (sum(t[2] for t in terms), sum(t[3] for t in terms), len(kept))
            coeffs[key] = coeffs.get(key, 0.0) + coeff * math.prod(t[0] for t in terms) * moments[kept]
    # a word and its reversal share a key, so each key's sum is real
    return {
        key: _realized(complex(v), f"{family.kind} moment expansion at power {key[:2]}")
        for key, v in coeffs.items()
    }


class EnhancedHamiltonian:
    """Real label function ``H(p, q)`` with its required, exact ``gradient``.

    The ``evaluate`` and ``gradient`` methods convert what the stored
    callables return to ``float``; flows call the stored ``_evaluate`` and
    ``_gradient`` directly and convert once, at their boundary.
    ``q_positive`` marks Hamiltonians whose domain is the half line;
    ``half_line`` then maps labels to the coordinate that must stay
    positive (``q``; a relabeling carries it through its inverse), and is
    ``None`` otherwise.  ``label_domain``, when given, maps labels to a
    signed margin that is positive inside the domain.  ``polynomial`` holds
    the coefficients ``{(i, j): c}`` of an explicit label polynomial.
    """

    def __init__(self, evaluate, gradient, hbar: float = 1.0, q_positive: bool = False,
                 label_domain=None, polynomial=None):
        self._evaluate = evaluate
        self._gradient = gradient
        self.hbar = float(hbar)
        self.q_positive = bool(q_positive)
        self.half_line = (lambda p, q: q) if q_positive else None
        self.label_domain = label_domain
        self.polynomial = polynomial

    def evaluate(self, p: float, q: float) -> float:
        return float(self._evaluate(p, q))

    __call__ = evaluate

    def gradient(self, p: float, q: float) -> tuple[float, float]:
        gp, gq = self._gradient(p, q)
        return float(gp), float(gq)


def enhance(poly: OperatorPolynomial, family: CoherentFamily) -> EnhancedHamiltonian:
    """Restrict an operator polynomial to a coherent-state family.

    With a ``shifted`` table (canonical, squeezed, affine) the polynomial is
    reduced once to an explicit label polynomial (Laurent in ``q`` when
    affine words contain the formal momentum) through exact fiducial
    moments, with exact gradients.  Vacuum moments need ``dim > degree``;
    affine words with ``k`` momentum letters need ``beta > k/2 * hbar``, and
    a ``half_line`` label function raises :class:`DomainError` at ``q <= 0``,
    as does an expansion that overflows.  Otherwise (spin) it is formed once
    as ``M = sum_w c_w W``: ``H = <psi|M psi>`` on the state, with the gradient
    ``2 Re <d psi|M psi>`` from :meth:`CoherentFamily.tangent`.
    """
    _check_alphabet(poly, family)
    polynomial = None
    if family.shifted is not None:
        coeffs: dict[tuple[int, int], float] = {}
        for (i, j, _), c in _label_terms(poly, family).items():
            coeffs[i, j] = coeffs.get((i, j), 0.0) + c
        evaluate = _LabelPolynomial(coeffs, q_positive=family.half_line)
        gradient, polynomial = evaluate.gradient, dict(evaluate.coeffs)
    else:
        # the letters pull through to no polynomial: form the operator once
        eye = np.eye(family.rep.dim)
        op = sum((c * reduce(np.matmul, (family.letters[letter] for letter in word), eye)
                  for word, c in poly.terms), np.zeros_like(eye))

        def evaluate(p, q):
            psi = family.state(p, q).amplitudes
            return _realized(complex(np.vdot(psi, op @ psi)), f"{family.kind} expectation")

        def gradient(p, q):
            # d <psi|M psi> = 2 Re <d psi|M psi>, as M is Hermitian
            psi, d_p, d_q = family.tangent(p, q)
            op_psi = op @ psi
            return 2.0 * np.vdot(d_p, op_psi).real, 2.0 * np.vdot(d_q, op_psi).real

    return EnhancedHamiltonian(evaluate, gradient, hbar=family.rep.hbar, q_positive=family.half_line,
                               label_domain=family.label_domain, polynomial=polynomial)


def hbar_series(poly: OperatorPolynomial, family: CoherentFamily) -> tuple:
    """The label functions ``h_0 ... h_K`` of ``H(p, q; hbar) = sum_k hbar^k h_k(p, q)``.

    ``K = poly.degree // 2``.  A kept subword of length ``m`` has a vacuum
    moment ``hbar^(m/2)`` times its value at ``hbar = 1`` and odd moments
    vanish, so each term of :func:`enhance`'s expansion on a line family
    (canonical or squeezed) belongs to ``h_(m/2)``, divided by ``hbar^(m/2)``
    of the family's representation.  The series is exact in ``hbar``.  Other
    families raise :class:`ValueError`, as does ``dim <= degree``.
    """
    _check_alphabet(poly, family)
    if poly.variable_set != "canonical":
        raise ValueError(f"the hbar-series needs a canonical family or its squeeze, not a {family.kind} one")
    hbar = family.rep.hbar
    series: list[dict] = [{} for _ in range(poly.degree // 2 + 1)]
    for (i, j, m), c in _label_terms(poly, family).items():
        # odd moments are exactly zero: they add nothing
        if m % 2 == 0:
            series[m // 2][i, j] = c / hbar ** (m // 2)
    return tuple(_LabelPolynomial(coeffs) for coeffs in series)
