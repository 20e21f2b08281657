"""Expectation-valued classical Hamiltonians and their exact hbar-series.

An :class:`OperatorPolynomial` is a real-coefficient sum of ordered operator
words over ``{P, Q}`` (canonical), ``{D, Q, P, Q^-1}`` (affine, with ``P``
formal), or ``{S1, S2, S3}`` (spin).  :func:`enhance` restricts it to a
coherent-state family, producing the label function ``H(p, q) = <p,q| poly |p,q>``
together with its gradient, from what the family declares.

Except on the sphere, ``H`` is the fiducial expectation of the letters
pulled through the group element (Perelomov): ``P -> P + p``, ``Q -> Q + q``
on the line, rotated by ``2a`` and scaled by ``e^{+-2b}`` for the squeezed
family (Stoler 1970; Yuen 1976), and ``D -> D + p q Q``, ``Q -> q Q``,
``Q^-1 -> Q^-1 / q``, ``P -> P / q + p`` on the half line.  One walk of
each word through the fiducial's span over the shifted letters turns ``H``
into an explicit Laurent polynomial in ``(p, q)`` with exact moments,
compiled once to straight-line code for its value and gradient.  Spin
letters pull through to trigonometric functions of the labels, so a spin
polynomial is formed once as a matrix ``M``, and ``H = <psi|M psi>`` takes
the gradient ``2 Re <d psi|M psi>`` from the spin state's exact derivatives,
the one family that builds them.  Nothing is differenced, and there is no
ordering engine.

On the line families a vacuum moment of ``m`` kept letters is
``hbar^(m/2)`` times its value at ``hbar = 1``, and odd moments vanish, so
:func:`hbar_series` reads ``H(p, q; hbar) = sum_k hbar^k h_k(p, q)`` off the
same walk, with no fit: on the canonical family ``h_0`` is the classical
polynomial (weak correspondence) and the ``h_k`` are its quantum corrections.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .errors import DomainError, NumericalFailure
from .coherent import CoherentFamily

#: Longest operator word a polynomial may contain.
MAX_DEGREE = 6

_ALPHABETS = {
    "canonical": ("P", "Q"),
    "affine": ("D", "Q", "P", "Q^-1"),
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

    Words are ordered products of operator letters with integer powers, each
    ``X^-n`` being ``n`` letters ``X^-1``, which only the affine set holds, as
    ``Q^-1`` (``P^2 - Q^-1`` is the quantum hydrogen).  A power beyond
    :data:`MAX_DEGREE` either way is rejected before any word is built.
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
            if abs(n) > MAX_DEGREE:
                raise ValueError(f"power {sign}{power} of {letter} exceeds the degree cap {MAX_DEGREE}")
            if not n.is_integer():
                raise ValueError(f"operator powers must be integers (got {letter}^{sign}{power})")
            word += [letter if n > 0 else f"{letter}^-1"] * int(abs(n))
        terms.append((coeff, tuple(word)))
    return OperatorPolynomial(terms, variable_set)


# each letter's classical label, as its powers of (p, q)
_SYMBOLS = {"P": (1, 0), "Q": (0, 1), "D": (1, 1), "Q^-1": (0, -1)}


def classical_hamiltonian(poly: OperatorPolynomial) -> EnhancedHamiltonian:
    """The classical symbol of the polynomial as a label function with its gradient.

    Each letter is replaced by its classical label, ``P -> p``, ``Q -> q``,
    ``D -> p q`` and ``Q^-1 -> 1/q``; an affine symbol lives on ``q > 0``.
    Spin letters have no classical monomial reading and are rejected.
    """
    coeffs: dict[tuple[int, int], float] = {}
    for word, c in poly.terms:
        if not set(word) <= _SYMBOLS.keys():
            raise ValueError(f"no classical monomial value for letter {min(set(word) - _SYMBOLS.keys())!r}")
        key = (sum(_SYMBOLS[x][0] for x in word), sum(_SYMBOLS[x][1] for x in word))
        coeffs[key] = coeffs.get(key, 0.0) + c
    lp = _LabelPolynomial(coeffs, q_positive=poly.variable_set == "affine")
    return EnhancedHamiltonian(lp, lp.gradient, q_positive=lp.q_positive, polynomial=lp)


def _check_alphabet(poly: OperatorPolynomial, family: CoherentFamily) -> None:
    if poly.variable_set != family.variables:
        raise ValueError(
            f"polynomial over the {poly.variable_set} alphabet is incompatible with a "
            f"{family.kind} family"
        )


def poly_expectation(poly: OperatorPolynomial, family: CoherentFamily, p: float, q: float) -> complex:
    """Complex ``<p,q| poly |p,q>`` by direct matrix products on the state.

    The tests' per-word reference for :func:`enhance`; no library code calls
    it.  A family that holds no matrix for one of the polynomial's letters
    (the affine family holds none) raises :class:`ValueError`.
    """
    _check_alphabet(poly, family)
    mats = family.letters
    missing = sorted({letter for word, _ in poly.terms for letter in word} - mats.keys())
    if missing:
        raise ValueError(f"the {family.kind} family holds no matrix for {', '.join(missing)}: "
                         f"restrict it through enhance")
    psi = family.state(p, q)
    total = 0.0 + 0.0j
    for word, coeff in poly.terms:
        vec = psi.amplitudes
        for letter in reversed(word):
            vec = mats[letter] @ vec
        total += coeff * np.vdot(psi.amplitudes, vec)
    return complex(total)


def _code(terms) -> str:
    # the sum of the terms c p^i q^j in order, as products and divisions grouped
    # as (c * p^i) * q^j: with no pow, floats and float64 arrays give the same bits
    def factor(x, n):
        product = " * ".join([x] * abs(n))
        return (" * " if n > 0 else " / ") + (product if abs(n) == 1 else f"({product})")

    return " + ".join(repr(c) + "".join(factor(x, n) for x, n in (("p", i), ("q", j)) if n)
                      for c, i, j in terms) or "0.0"


def _function(name, body) -> str:
    # Python floats raise ZeroDivisionError where a power underflows to 0:
    # then the function runs again on float64 scalars, as ieee does
    return (f"def {name}(p, q):\n    try:\n        return {body}\n"
            f"    except ZeroDivisionError:\n        return ieee({name}, p, q)\n")


def _ieee(fn, p, q):
    # fn on float64 scalars, which give the IEEE infinity or nan of arrays
    # and the compiled step loop, converted back to Python floats
    with np.errstate(all="ignore"):
        result = fn(np.float64(p), np.float64(q))
    return tuple(map(float, result)) if isinstance(result, tuple) else float(result)


@lru_cache(maxsize=256)
def _compiled(source):
    # the value and gradient functions of a generated source, shared by every
    # polynomial that generates it: they read no state but their arguments
    namespace: dict = {"ieee": _ieee}
    exec(source, namespace)
    return namespace["value"], namespace["gradient"]


class _LabelPolynomial:
    """Real Laurent polynomial ``{(i, j): c}`` in (p, q), compiled once to straight-line code.

    ``value`` and ``gradient`` are generated from the float reprs of the
    coefficients and the integer powers alone; both take floats or,
    elementwise and to the same bits, float64 arrays, and compute in IEEE
    double arithmetic (a division by a power that underflows to 0 gives an
    infinity, not an error).  ``term_arrays`` holds the ``(c, i, j)`` terms
    of ``H``, ``dH/dp`` and ``dH/dq`` that ``value`` and ``gradient`` sum, in
    their order, as the rows of three float arrays, and ``term_args`` the
    address and length of each, as the compiled step loop reads them.  A
    coefficient of any that is not finite raises :class:`DomainError`.
    Calling the polynomial raises :class:`DomainError` where its value is not
    finite and, with ``q_positive``, at ``q <= 0``; ``gradient`` is left
    unguarded, as an integrator may evaluate a stage below the floor before
    its ``q_floor`` event, and tests its rates itself.
    """

    def __init__(self, coeffs: dict, q_positive: bool = False):
        self.coeffs = {(int(i), int(j)): float(c) for (i, j), c in coeffs.items() if c != 0.0}
        self.q_positive = q_positive
        # powers of q may be negative, so d/dq keeps every j != 0
        terms = [(c, i, j) for (i, j), c in self.coeffs.items()]
        d_p = [(i * c, i - 1, j) for c, i, j in terms if i]
        d_q = [(j * c, i, j - 1) for c, i, j in terms if j]
        for c, i, j in terms + d_p + d_q:
            if not math.isfinite(c):
                raise _overflow(i, j)
        self.term_arrays = tuple(np.array(d, dtype=float).reshape(-1, 3) for d in (terms, d_p, d_q))
        self.term_args = tuple(x for rows in self.term_arrays for x in (rows.ctypes.data, len(rows)))
        self.value, self.gradient = _compiled(
            _function("value", _code(terms)) + _function("gradient", f"{_code(d_p)}, {_code(d_q)}"))

    def __call__(self, p: float, q: float) -> float:
        if self.q_positive and q <= 0:
            raise DomainError(f"affine labels require q > 0 (got q = {q})")
        value = float(self.value(p, q))
        if not math.isfinite(value):
            raise DomainError(f"the label polynomial overflows a double at (p, q) = ({p}, {q})")
        return value


def _overflow(i, j) -> DomainError:
    return DomainError(f"the label polynomial or its gradient overflows a double at the power p^{i} q^{j}")


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


def _exact(x: float):
    # a double as an exact number: an int where it is one, so unit weights stay cheap
    return int(x) if x.is_integer() else Fraction(x)


def _label_terms(poly, family, scale, graded: bool) -> dict:
    # <p,q| W |p,q> = <fiducial| U^dag W U |fiducial>, one walk per word, with scale for
    # moment_scale: the coefficients' exact [re, im], summed word by word in units of the
    # word's coefficient, keyed by (power of p, power of q), and n if graded
    shifted = {x: [(_exact(w), *rest) for w, *rest in terms] for x, terms in family.shifted.items()}
    sums: dict[tuple, list] = {}
    for word, coeff in poly.terms:
        c = _exact(coeff)
        for (i, j, n), (re, im) in family.exact_terms(word, shifted).items():
            unit = c * scale ** n if n else c
            total = sums.setdefault((i, j, n) if graded else (i, j), [0, 0])
            # a zero part, as of every odd moment on the line, adds nothing
            if re:
                total[0] += unit * re
            if im:
                total[1] += unit * im
    return sums


def _rounded(sums: dict, kind: str) -> dict:
    # each exact [re, im] rounded once; a word and its reversal share a key, so each is real
    rounded = {}
    for (i, j), (re, im) in sums.items():
        try:
            rounded[i, j] = _realized(complex(float(re), float(im)),
                                      f"the {kind} moment expansion at the power p^{i} q^{j}")
        except OverflowError:
            raise _overflow(i, j) from None
    return rounded


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
    the compiled label polynomial that ``evaluate`` and ``gradient`` are, when
    there is one: ``coeffs``, a ``value`` taking arrays too, and the
    ``term_arrays`` from which flows take compiled steps.
    """

    def __init__(self, evaluate, gradient, q_positive: bool = False, label_domain=None, polynomial=None):
        self._evaluate = evaluate
        self._gradient = gradient
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
    moments, compiled once with its exact gradient.  Vacuum moments are
    exact at any basis size; an affine word that reaches ``<Q^-k>`` through
    its letters ``P`` or ``Q^-1`` needs ``beta > k/2 * hbar``, and a
    ``half_line`` label function raises
    :class:`DomainError` at ``q <= 0``, as does a coefficient whose exact
    sum, rounded once, overflows.  Otherwise (spin) it is formed once as
    ``M = sum_w c_w W``: ``H = <psi|M psi>`` on the state, with the gradient
    ``2 Re <d psi|M psi>`` from the spin family's own ``tangent``, the state
    and its exact label derivatives; past a pole the gradient raises
    :class:`DomainError`.
    """
    _check_alphabet(poly, family)
    if family.shifted is not None:
        coeffs = _rounded(_label_terms(poly, family, family.moment_scale, graded=False), family.kind)
        lp = _LabelPolynomial(coeffs, q_positive=family.half_line)
        return EnhancedHamiltonian(lp, lp.gradient, q_positive=family.half_line,
                                   label_domain=family.label_domain, polynomial=lp)
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

    return EnhancedHamiltonian(evaluate, gradient, label_domain=family.label_domain)


def hbar_series(poly: OperatorPolynomial, family: CoherentFamily) -> tuple:
    """The label functions ``h_0 ... h_K`` of ``H(p, q; hbar) = sum_k hbar^k h_k(p, q)``.

    ``K = poly.degree // 2``.  A vacuum moment of ``m = 2n`` kept letters is
    ``(hbar/2)^n`` times an integer and odd moments vanish, so each term of
    :func:`enhance`'s walk on a line family (canonical or squeezed) belongs
    to ``h_n``, with ``1/2`` in place of ``hbar/2``, and each coefficient's
    exact sum is rounded once.  The series is exact in ``hbar``, and the
    moments are taken on the ladder at any basis size.  Other families raise
    :class:`ValueError`.
    """
    _check_alphabet(poly, family)
    if poly.variable_set != "canonical":
        raise ValueError(f"the hbar-series needs a canonical family or its squeeze, not a {family.kind} one")
    # odd moments are exactly zero, at n = 0, and add nothing
    series: list[dict] = [{} for _ in range(poly.degree // 2 + 1)]
    per_hbar = family.moment_scale / Fraction(family.rep.hbar)
    for (i, j, n), sums in _label_terms(poly, family, per_hbar, graded=True).items():
        series[n][i, j] = sums
    return tuple(_LabelPolynomial(_rounded(terms, family.kind)) for terms in series)
