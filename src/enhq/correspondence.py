"""Expectation-valued classical Hamiltonians and the small-hbar limit.

An :class:`OperatorPolynomial` is a real-coefficient sum of ordered operator
words over ``{P, Q}`` (canonical), ``{D, Q, P}`` (affine, with ``P`` formal),
or ``{S1, S2, S3}`` (spin).  :func:`enhance` restricts it to a coherent-state
family, producing the label function ``H(p, q) = <p,q| poly |p,q>`` together
with its gradient.

For canonical and affine families ``H`` is the fiducial expectation of the
letters pulled through the group element (Perelomov): ``P -> P + p``,
``Q -> Q + q`` on the line, ``D -> D + p q Q``, ``Q -> q Q``,
``P -> P / q + p`` on the half line.  Expanding each word over the shifted
letters and caching the fiducial moments of the kept subwords turns ``H``
into an explicit Laurent polynomial in ``(p, q)`` with exact gradients.
Spin letters pull through to trigonometric functions of the labels, so spin
words are evaluated by direct matrix products on the rotated states.  There
is no operator-ordering engine.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalFailure
from .coherent import CoherentFamily

DEFAULT_MAX_DEGREE = 6

_ALPHABETS = {
    "canonical": ("P", "Q"),
    "affine": ("D", "Q", "P"),
    "spin": ("S1", "S2", "S3"),
}

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<sym>S[123]|[PQD])"
    r"|(?P<op>[-+*^]))"
)


class OperatorPolynomial:
    """Hermitian sum of real-weighted ordered operator words.

    Hermiticity is structural: after merging duplicates, every word must
    carry the same coefficient as its reversal (words of Hermitian letters
    conjugate to their reversals).  Coefficients are real by the grammar.
    """

    def __init__(self, terms, variable_set, max_degree: int = DEFAULT_MAX_DEGREE):
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
            if len(word) > max_degree:
                raise ValueError(
                    f"word of degree {len(word)} exceeds the cap {max_degree}"
                )
            merged[word] = merged.get(word, 0.0) + float(coeff)
        merged = {w: c for w, c in merged.items() if c != 0.0}
        scale = max((abs(c) for c in merged.values()), default=1.0)
        for word, coeff in merged.items():
            rev = word[::-1]
            if abs(merged.get(rev, 0.0) - coeff) > 1e-12 * scale:
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


def parse_polynomial(
    text: str, variable_set: str, max_degree: int = DEFAULT_MAX_DEGREE
) -> OperatorPolynomial:
    """Parse expressions like ``0.5*P^2 + 0.5*Q^2`` or ``P*Q*P - 2*Q``.

    Words are ordered products of operator letters with nonnegative integer
    powers; negative powers (for example ``Q^-1``) are rejected.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"cannot parse expression at: {text[pos:].strip()!r}")
            break
        pos = m.end()
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num"))))
        elif m.group("sym") is not None:
            tokens.append(("sym", m.group("sym")))
        else:
            tokens.append(("op", m.group("op")))

    terms = []
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1.0
        while i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            if sign != 1.0 or terms:
                raise ValueError("dangling sign at end of expression")
            break
        coeff = sign
        word: list[str] = []
        expect_factor = True
        while i < n:
            kind, val = tokens[i]
            if kind == "op" and val in "+-" and not expect_factor:
                break
            if kind == "op" and val == "*":
                if expect_factor:
                    raise ValueError("misplaced '*' in expression")
                expect_factor = True
                i += 1
                continue
            if not expect_factor:
                raise ValueError(f"missing operator before {val!r}")
            if kind == "num":
                coeff *= val
                i += 1
            elif kind == "sym":
                letter = val
                i += 1
                power = 1
                if i < n and tokens[i] == ("op", "^"):
                    i += 1
                    psign = 1
                    if i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
                        psign = -1 if tokens[i][1] == "-" else 1
                        i += 1
                    if i >= n or tokens[i][0] != "num":
                        raise ValueError("'^' must be followed by an integer power")
                    raw = tokens[i][1]
                    if raw != int(raw):
                        raise ValueError("operator powers must be integers")
                    power = psign * int(raw)
                    i += 1
                    if power < 0:
                        raise ValueError(
                            "negative operator powers are not supported "
                            "(only nonnegative integer powers are allowed)"
                        )
                word.extend([letter] * power)
            else:
                raise ValueError(f"unexpected token {val!r}")
            expect_factor = False
        terms.append((coeff, tuple(word)))
    if not terms:
        raise ValueError("empty expression")
    return OperatorPolynomial(terms, variable_set, max_degree=max_degree)


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


def _matrices_for(rep, variable_set):
    if variable_set == "canonical":
        return {"P": rep.P, "Q": rep.Q}
    if variable_set == "affine":
        return {"D": rep.D, "Q": rep.Q, "P": rep.P_formal}
    if variable_set == "spin":
        return {"S1": rep.S1, "S2": rep.S2, "S3": rep.S3}
    raise ValueError(variable_set)


def poly_expectation(poly: OperatorPolynomial, family: CoherentFamily, p: float, q: float) -> complex:
    """Complex ``<p,q| poly |p,q>`` by direct matrix products on the state."""
    psi = family.state(p, q)
    mats = _matrices_for(family.rep, poly.variable_set)
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
        return float(sum(c * p**i * q**j for (i, j), c in self.coeffs.items()))

    def gradient(self, p: float, q: float) -> tuple[float, float]:
        gp = sum([c * p**i * q**j for c, i, j in self._d_p])
        gq = sum([c * p**i * q**j for c, i, j in self._d_q])
        return float(gp), float(gq)


def _realized(value: complex, context: str, tol: float = 1e-10) -> float:
    if abs(value.imag) > tol * (1.0 + abs(value.real)):
        raise NumericalFailure(
            f"{context} produced a non-real value {value}; the polynomial is not "
            f"effectively Hermitian at this tolerance",
            {"value": value},
        )
    return float(value.real)


# Adjoint action U(p, q)^dag X U(p, q) of each letter on a family's group
# element, as terms (fiducial letter or None, power of p, power of q).
_SHIFTED_LETTERS = {
    "canonical": {"P": (("P", 0, 0), (None, 1, 0)), "Q": (("Q", 0, 0), (None, 0, 1))},
    "affine": {
        "D": (("D", 0, 0), ("Q", 1, 1)),
        "Q": (("Q", 0, 1),),
        "P": (("P", 0, -1), (None, 1, 0)),
    },
}


def _label_polynomial(poly, family) -> _LabelPolynomial:
    # <p,q| W |p,q> = <fiducial| U^dag W U |fiducial>: expand every word over
    # the product of its letters' shifted terms and compute the fiducial
    # moment of each kept subword once.
    rep = family.rep
    k = max((word.count("P") for word, _ in poly.terms), default=0)
    tol = 1e-10
    if family.kind == "canonical" and rep.dim <= poly.degree:
        # a word of length L explores Fock levels up to L, so the moments are
        # truncation-exact only when the basis holds one more level than that
        raise ValueError(
            f"representation dim {rep.dim} is too small for exact moments of a "
            f"degree-{poly.degree} polynomial (need dim > degree)"
        )
    if family.kind == "affine" and k:
        beta, hbar = family.params["beta"], rep.hbar
        # a word with k momentum letters differentiates the fiducial k/2 times
        # on each side; integrability at the origin then needs beta > k/2 * hbar
        if beta <= 0.5 * k * hbar:
            raise DomainError(
                f"fiducial moments of a word with {k} momentum letters diverge "
                f"unless beta > {k}/2 * hbar (got beta = {beta}, hbar = {hbar})"
            )
        # the formal momentum matrix is Hermitian only up to discretization
        # error, so the reality guard is grid level rather than roundoff level
        tol = 1e-7
    shifted = _SHIFTED_LETTERS[family.kind]
    mats = _matrices_for(rep, poly.variable_set)
    fid = family.fiducial.amplitudes
    moments: dict[tuple[str, ...], complex] = {}
    coeffs: dict[tuple[int, int], complex] = {}
    for word, coeff in poly.terms:
        for terms in itertools.product(*(shifted[letter] for letter in word)):
            kept = tuple(letter for letter, _, _ in terms if letter is not None)
            if kept not in moments:
                vec = fid
                for letter in reversed(kept):
                    vec = mats[letter] @ vec
                moments[kept] = np.vdot(fid, vec)
            key = (sum(t[1] for t in terms), sum(t[2] for t in terms))
            coeffs[key] = coeffs.get(key, 0.0) + coeff * moments[kept]
    return _LabelPolynomial({
        key: _realized(complex(v), f"{family.kind} moment expansion at power {key}", tol)
        for key, v in coeffs.items()
    }, q_positive=family.kind == "affine")


class EnhancedHamiltonian:
    """Real label function ``H(p, q)`` with gradient access.

    When no analytic gradient is supplied the gradient falls back to central
    finite differences of ``evaluate``, with steps of ``1e-6`` relative to
    ``max(1, |label|)``.  ``q_positive`` marks Hamiltonians whose domain is
    the half line; ``half_line`` then maps labels to the coordinate that
    must stay positive (``q``; a relabeling carries it through its inverse),
    and is ``None`` otherwise.  ``label_domain``, when given, maps labels to
    a signed margin that is positive inside the domain.
    """

    def __init__(
        self,
        evaluate,
        gradient=None,
        hbar: float = 1.0,
        q_positive: bool = False,
        label_domain=None,
    ):
        self._evaluate = evaluate
        self._gradient = gradient
        self.hbar = float(hbar)
        self.q_positive = bool(q_positive)
        self.half_line = (lambda p, q: q) if q_positive else None
        self.label_domain = label_domain
        self.polynomial = None

    def evaluate(self, p: float, q: float) -> float:
        return float(self._evaluate(p, q))

    __call__ = evaluate

    def gradient(self, p: float, q: float) -> tuple[float, float]:
        if self._gradient is not None:
            gp, gq = self._gradient(p, q)
            return float(gp), float(gq)
        hp = 1e-6 * max(1.0, abs(p))
        hq = 1e-6 * max(1.0, abs(q))
        gp = (self._evaluate(p + hp, q) - self._evaluate(p - hp, q)) / (2.0 * hp)
        gq = (self._evaluate(p, q + hq) - self._evaluate(p, q - hq)) / (2.0 * hq)
        return float(gp), float(gq)


def enhance(poly: OperatorPolynomial, family: CoherentFamily) -> EnhancedHamiltonian:
    """Restrict an operator polynomial to a coherent-state family.

    Canonical and affine polynomials are reduced once to explicit label
    polynomials (Laurent in ``q`` when affine words contain the formal
    momentum) through cached fiducial moments, with exact gradients.
    Canonical moments need ``dim > degree``; affine words with ``k``
    momentum letters need ``beta > k/2 * hbar``, and the affine label
    function raises :class:`DomainError` at ``q <= 0``.  Spin polynomials are
    evaluated directly on the rotated states.
    """
    hbar = family.rep.hbar
    if family.kind in ("canonical", "affine") and poly.variable_set == family.kind:
        label_poly = _label_polynomial(poly, family)
        ham = EnhancedHamiltonian(
            label_poly,
            label_poly.gradient,
            hbar=hbar,
            q_positive=family.kind == "affine",
        )
        ham.polynomial = dict(label_poly.coeffs)
        return ham
    if family.kind == "spin" and poly.variable_set == "spin":
        shbar = family.rep.s * hbar
        return EnhancedHamiltonian(
            lambda p, q: _realized(poly_expectation(poly, family, p, q), "spin expectation"),
            hbar=hbar,
            label_domain=lambda p, q: shbar - p * p,
        )
    raise ValueError(
        f"polynomial over the {poly.variable_set} alphabet is incompatible with a "
        f"{family.kind} family"
    )


@dataclass(frozen=True)
class ShiftCheckReport:
    """Two-route agreement report for the canonical group-coordinate shift."""

    max_deviation: float
    deviations: tuple


def shift_identity_check(poly: OperatorPolynomial, family: CoherentFamily, samples) -> ShiftCheckReport:
    """Compare direct state expectations against the shifted-moment route.

    ``samples`` is an iterable of ``(p, q)`` labels inside the
    truncation-adequate region of the family's representation.
    """
    if family.kind != "canonical":
        raise ValueError("the shift identity applies to canonical families")
    label_poly = _label_polynomial(poly, family)
    rows = []
    for p, q in samples:
        direct = _realized(poly_expectation(poly, family, p, q), "direct expectation")
        shifted = label_poly(p, q)
        rows.append((float(p), float(q), abs(direct - shifted)))
    worst = max((r[2] for r in rows), default=0.0)
    return ShiftCheckReport(worst, tuple(rows))


@dataclass(frozen=True)
class LimitFit:
    """Polynomial-in-hbar extrapolation of ``H(p, q; hbar)`` to ``hbar = 0``.

    ``leading_power`` is the lowest positive power with a non-negligible
    coefficient, or 0 when the values are hbar independent.
    """

    limit: float
    leading_power: int
    coefficients: tuple
    residual: float


def classical_limit(
    builder,
    p: float,
    q: float,
    hbar_sequence,
    degree: int | None = None,
    residual_tol: float = 1e-6,
) -> LimitFit:
    """Extrapolate ``builder(hbar).evaluate(p, q)`` to ``hbar -> 0``.

    ``builder`` maps each hbar in the decreasing positive sequence (length at
    least 3) to an :class:`EnhancedHamiltonian`; a polynomial fit in hbar
    yields the limit and the leading power.  A fit residual above
    ``residual_tol`` (relative to the value scale) raises
    :class:`NumericalFailure` carrying the residuals.
    """
    hbars = [float(h) for h in hbar_sequence]
    if len(hbars) < 3:
        raise ValueError("need at least 3 hbar values")
    if any(h <= 0 for h in hbars) or any(b >= a for a, b in zip(hbars, hbars[1:])):
        raise ValueError("hbar_sequence must be positive and strictly decreasing")
    values = np.array([builder(h).evaluate(p, q) for h in hbars])
    if degree is None:
        degree = min(len(hbars) - 1, 4)
    coeffs = np.polynomial.polynomial.polyfit(np.array(hbars), values, degree)
    fitted = np.polynomial.polynomial.polyval(np.array(hbars), coeffs)
    residual = float(np.max(np.abs(fitted - values)))
    scale = max(1.0, float(np.max(np.abs(values))))
    if residual > residual_tol * scale:
        raise NumericalFailure(
            "polynomial fit in hbar did not converge",
            {"residuals": (fitted - values).tolist(), "hbars": hbars},
        )
    leading = 0
    for k in range(1, len(coeffs)):
        if abs(coeffs[k]) > 1e-8 * scale:
            leading = k
            break
    return LimitFit(float(coeffs[0]), leading, tuple(float(c) for c in coeffs), residual)
