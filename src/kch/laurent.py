"""Sparse multivariate Laurent polynomials over Gaussian rationals.

A polynomial is a finite map from exponent vectors to nonzero Gaussian
rational coefficients.  The exponent vector carries one signed integer per
declared variable, so negative powers are first class.  The canonical term order
compares exponent vectors lexicographically reading from the LAST declared
variable back to the first; printing, hashing, and leading-term selection all
use it, which keeps every rendering byte-stable.

Text grammar (``parse_polynomial`` and ``__str__``): terms are joined by
``+``/``-``; a term is an optional coefficient (``3``, ``-1/2``, or a
``parse_scalar`` literal in parentheses such as ``(2+3i)``) together with
``*``-separated variable powers ``X^k`` where ``k`` is optionally signed and
``X`` abbreviates ``X^1``.  Whitespace is ignored.  Example:
``1 - X - P + Q*X*P``.

Values stay exact, but a coefficient is stored narrow: an ``int`` when it is
integral, a ``Fraction`` when it is real, a ``Scalar`` only with a nonzero
imaginary part; the types mix through ``Scalar``'s reflected operators.  The
public accessors (``terms``, ``term_map``, ``constant_term``,
``leading_term``, ``evaluate``) hand out ``Scalar`` values, while the
library's own loops read the stored ``_terms``.  Invariant: ``_terms`` holds
no zero or over-wide coefficient, is sorted by the term order, and is built
only by the canonicaliser ``_make``, or by ``_adopt`` from terms that are
already in that form.  The public constructor is the only path that
validates; arithmetic results go straight to ``_make``.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterable, Iterator, Mapping

from .errors import DomainError, ParseError, RingMismatchError
from .scalars import ONE, ZERO, Scalar, _power, _rational_literal, parse_scalar

ExponentVector = tuple[int, ...]


def _term_key(exps: ExponentVector) -> ExponentVector:
    return exps[::-1]


def _narrow(c):
    """A nonzero int, Fraction or Scalar in its narrowest exact type."""
    if type(c) is Scalar:
        if c.im:
            return c
        c = c.re
    return c.numerator if c.denominator == 1 else c


def _times(c, n: int, d: int):
    """c * n/d for a narrow coefficient c and d > 0, narrow: a rational
    product in one normalising step, not through ``Fraction`` arithmetic."""
    if type(c) is Scalar:
        return _narrow(c * Fraction(n, d))
    if type(c) is Fraction:
        n, d = c.numerator * n, c.denominator * d
    else:
        n *= c
    return Fraction(n, d) if n % d else n // d


def _denominator(values: Iterable) -> int:
    """The least common denominator of narrow coefficients (both parts of an
    imaginary one)."""
    d = 1
    for c in values:
        if type(c) is Scalar:
            d = lcm(d, c.re.denominator, c.im.denominator)
        elif type(c) is not int:
            d = lcm(d, c.denominator)
    return d


def _scalar(c) -> Scalar:
    """The public ``Scalar`` form of a stored coefficient."""
    return c if type(c) is Scalar else Scalar(c)


# the one name rule, for ring variables, series variables and DGA names: an
# ASCII identifier other than ``i``, which coefficients read as the imaginary unit
_IDENTIFIER = r"[A-Za-z_][A-Za-z_0-9]*"
_NAME = _re.compile(rf"(?!i$){_IDENTIFIER}")


def _check_variables(variables: tuple[str, ...]) -> None:
    for name in variables:
        if not _NAME.fullmatch(name):
            raise DomainError(f"invalid variable name {name!r}")
    if len(set(variables)) != len(variables):
        raise DomainError("duplicate variable names in ring")


class LaurentPolynomial:
    __slots__ = ("variables", "_terms")

    def __init__(
        self,
        variables: Iterable[str],
        terms: Mapping[ExponentVector, Scalar] | Iterable[tuple[ExponentVector, Scalar]],
    ) -> None:
        variables = tuple(variables)
        _check_variables(variables)
        items = terms.items() if isinstance(terms, Mapping) else terms
        width = len(variables)
        cleaned: dict[ExponentVector, Scalar] = {}
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != width or not all(type(e) is int for e in exps):
                raise DomainError(f"exponent vector {exps!r} does not fit ring {variables!r}")
            if not isinstance(coeff, Scalar):
                raise DomainError(f"coefficient {coeff!r} is not a scalar")
            cleaned[exps] = cleaned[exps] + coeff if exps in cleaned else coeff
        _make(variables, cleaned, self)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("LaurentPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "LaurentPolynomial":
        return cls(variables, {})

    @classmethod
    def one(cls, variables: Iterable[str]) -> "LaurentPolynomial":
        return cls.constant(variables, ONE)

    @classmethod
    def constant(cls, variables: Iterable[str], value: Scalar | int | Fraction) -> "LaurentPolynomial":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): Scalar.of(value)})

    @classmethod
    def variable(cls, variables: Iterable[str], name: str) -> "LaurentPolynomial":
        variables = tuple(variables)
        if name not in variables:
            raise DomainError(f"variable {name!r} is not in ring {variables!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: ONE})

    @classmethod
    def monomial(
        cls,
        variables: Iterable[str],
        exps: ExponentVector,
        coeff: Scalar | int | Fraction = 1,
    ) -> "LaurentPolynomial":
        return cls(variables, {tuple(exps): Scalar.of(coeff)})

    # -- inspection --------------------------------------------------------

    def terms(self) -> Iterator[tuple[ExponentVector, Scalar]]:
        return ((exps, _scalar(c)) for exps, c in self._terms)

    def term_map(self) -> dict[ExponentVector, Scalar]:
        return {exps: _scalar(c) for exps, c in self._terms}

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(not any(exps) for exps, _ in self._terms)

    def constant_term(self) -> Scalar:
        return next((_scalar(c) for exps, c in self._terms if not any(exps)), ZERO)

    def leading_term(self) -> tuple[ExponentVector, Scalar]:
        if not self._terms:
            raise DomainError("zero polynomial has no leading term")
        exps, coeff = self._terms[-1]
        return exps, _scalar(coeff)

    def _index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise DomainError(f"variable {name!r} is not in ring {self.variables!r}") from None

    def _check_ring(self, other: "LaurentPolynomial") -> None:
        if self.variables != other.variables:
            raise RingMismatchError(
                f"mismatched rings {self.variables!r} and {other.variables!r}"
            )

    def _constant(self, value: Scalar | int | Fraction) -> "LaurentPolynomial":
        return _make(self.variables, {(0,) * len(self.variables): value})

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = self._constant(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        self._check_ring(other)
        acc = dict(self._terms)
        for exps, coeff in other._terms:
            acc[exps] = acc.get(exps, 0) + coeff
        return _make(self.variables, acc)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return _make(self.variables, {e: -c for e, c in self._terms})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = self._constant(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        self._check_ring(other)
        return _dot(self.variables, ((self, other),))

    __rmul__ = __mul__

    def scale(self, value: Scalar | int | Fraction) -> "LaurentPolynomial":
        value = _narrow(value if type(value) in (int, Fraction) else Scalar.of(value))
        if value == 1:
            return self
        if not value:
            return _make(self.variables, {})
        # a nonzero factor keeps every exponent, and so the term order
        if type(value) is Scalar:
            return _adopt(self.variables, [(e, _narrow(c * value)) for e, c in self._terms])
        n, d = value.numerator, value.denominator
        return _adopt(self.variables, [(e, _times(c, n, d)) for e, c in self._terms])

    def __pow__(self, exponent: int) -> "LaurentPolynomial":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.monomial_inverse() ** (-exponent)
        return _power(self, exponent, self._constant(1))

    def monomial_inverse(self) -> "LaurentPolynomial":
        """Invert a single-term polynomial; anything else is not a unit."""
        if len(self._terms) != 1:
            raise DomainError(f"{self} is not a unit in the Laurent ring")
        exps, coeff = self._terms[0]
        return _make(self.variables, {tuple(-e for e in exps): Fraction(1) / coeff})

    def shift(self, delta: ExponentVector) -> "LaurentPolynomial":
        delta = tuple(delta)
        return _make(self.variables, {tuple(map(add, e, delta)): c for e, c in self._terms})

    # -- evaluation and substitution ---------------------------------------

    def evaluate(self, point: Mapping[str, Scalar]) -> Scalar:
        for name in self.variables:
            if name not in point:
                raise DomainError(f"no value supplied for variable {name!r}")
        return self.specialize({name: point[name] for name in self.variables}).constant_term()

    def substitute(self, name: str, value: Scalar | int | Fraction) -> "LaurentPolynomial":
        """Evaluate one variable, returning a polynomial over the remaining ring."""
        return self.specialize({name: value})

    def specialize(self, values: Mapping[str, Scalar | int | Fraction]) -> "LaurentPolynomial":
        """Evaluate the named variables in one pass over the terms, returning a
        polynomial over the remaining ring; each power of a value is taken once."""
        at = [(self._index(name), _narrow(Scalar.of(value))) for name, value in values.items()]
        fixed = {idx for idx, _ in at}
        keep = [k for k in range(len(self.variables)) if k not in fixed]
        powers = {}
        acc = {}
        for exps, coeff in self._terms:
            for idx, value in at:
                e = exps[idx]
                if e == 0:
                    continue
                if e < 0 and not value:
                    raise DomainError("zero assigned to a variable with a negative exponent")
                power = powers.get((idx, e))
                if power is None:
                    power = powers[idx, e] = value**e if e > 0 else Fraction(1) / value**-e
                coeff = coeff * power
            new_exps = tuple(exps[k] for k in keep)
            acc[new_exps] = acc[new_exps] + coeff if new_exps in acc else coeff
        return _make(tuple(self.variables[k] for k in keep), acc)

    def with_variables(self, variables: Iterable[str]) -> "LaurentPolynomial":
        """Reinterpret over a larger (or reordered) ring containing every current variable."""
        variables = tuple(variables)
        _check_variables(variables)
        try:
            positions = [variables.index(v) for v in self.variables]
        except ValueError as exc:
            raise RingMismatchError(
                f"ring {variables!r} does not contain all of {self.variables!r}"
            ) from exc
        width = len(variables)
        acc = {}
        for exps, coeff in self._terms:
            new_exps = [0] * width
            for pos, e in zip(positions, exps):
                new_exps[pos] = e
            acc[tuple(new_exps)] = coeff
        return _make(variables, acc)

    # -- calculus ----------------------------------------------------------

    def derivative(self, name: str) -> "LaurentPolynomial":
        idx = self._index(name)
        acc = {}
        for exps, coeff in self._terms:
            e = exps[idx]
            if e == 0:
                continue
            new_exps = exps[:idx] + (e - 1,) + exps[idx + 1 :]
            acc[new_exps] = acc.get(new_exps, 0) + coeff * e
        return _make(self.variables, acc)

    # -- division and normal forms -----------------------------------------

    def strip_monomial_factor(self) -> tuple["LaurentPolynomial", ExponentVector]:
        """Divide out the largest common monomial; returns (result, removed exponents)."""
        if not self._terms:
            return self, (0,) * len(self.variables)
        mins = tuple(min(t[0][i] for t in self._terms) for i in range(len(self.variables)))
        if not any(mins):
            return self, mins
        return self.shift(tuple(-m for m in mins)), mins

    def exact_divide(self, divisor: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact quotient self/divisor, or DomainError when it is not a multiple.

        Both operands are first shifted to nonnegative exponents; the shift
        difference multiplies the quotient back.  Quotients are found whenever
        the shifted division terminates with zero remainder, which covers every
        use in this package; genuinely exotic Laurent cancellations are
        reported as failures rather than guessed at.
        """
        self._check_ring(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return self
        f0, f_shift = self.strip_monomial_factor()
        d0, d_shift = divisor.strip_monomial_factor()
        lead_exps, lead_coeff = d0._terms[-1]
        inverse = Fraction(1) / lead_coeff
        work = dict(f0._terms)
        quotient = {}
        while work:
            exps = max(work, key=_term_key)
            coeff = work[exps]
            q_exps = tuple(a - b for a, b in zip(exps, lead_exps))
            if any(e < 0 for e in q_exps):
                raise DomainError("exact division failed: remainder is nonzero")
            factor = coeff * inverse
            quotient[q_exps] = factor
            for de, dc in d0._terms:
                t = tuple(map(add, q_exps, de))
                total = work.get(t, 0) - factor * dc
                if total:
                    work[t] = total
                else:
                    work.pop(t, None)
        delta = tuple(a - b for a, b in zip(f_shift, d_shift))
        return _make(self.variables, quotient).shift(delta)

    def primitive_normalized(self) -> "LaurentPolynomial":
        """Scale so coefficients are Gaussian integers of content one and the
        leading coefficient has positive real part (positive imaginary part
        breaking a zero-real tie)."""
        if self.is_zero():
            return self
        parts = [p for _, c in self._terms for p in ((c.re, c.im) if type(c) is Scalar else (c,))]
        scale = Fraction(lcm(*(p.denominator for p in parts)))
        result = self.scale(scale / gcd(*(int(p * scale) for p in parts)))
        _, lead = result.leading_term()
        if lead.re < 0 or (lead.re == 0 and lead.im < 0):
            result = -result
        return result

    # -- equality / hashing / printing --------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.variables == other.variables and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.variables, self._terms))

    def _monomial_text(self, exps: ExponentVector) -> str:
        powers = (name if e == 1 else f"{name}^{e}" for name, e in zip(self.variables, exps) if e)
        return "*".join(powers)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        rendered = []
        for exps, coeff in self._terms:
            mono = self._monomial_text(exps)
            if type(coeff) is Scalar:
                negative = False
                body = f"({coeff})" if not mono else f"({coeff})*{mono}"
            else:
                negative = coeff < 0
                magnitude = abs(coeff)
                if magnitude == 1 and mono:
                    body = mono
                else:
                    body = str(magnitude) if not mono else f"{magnitude}*{mono}"
            rendered.append((negative, body))
        negative, body = rendered[0]
        out = ("-" if negative else "") + body
        for negative, body in rendered[1:]:
            out += (" - " if negative else " + ") + body
        return out

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.variables!r}, {self})"


def _make(variables: tuple[str, ...], acc: Mapping, poly=None) -> LaurentPolynomial:
    """Drop zero coefficients, narrow the rest and sort; checks nothing.  Fills
    ``poly`` when the public constructor passes itself, else a new polynomial."""
    if poly is None:
        poly = object.__new__(LaurentPolynomial)
    object.__setattr__(poly, "variables", variables)
    nonzero = [(e, c if type(c) is int else _narrow(c)) for e, c in acc.items() if c]
    nonzero.sort(key=lambda kv: _term_key(kv[0]))
    object.__setattr__(poly, "_terms", tuple(nonzero))
    return poly


def _adopt(variables: tuple[str, ...], terms: list) -> LaurentPolynomial:
    """A polynomial from (exponents, coefficient) terms that are already
    canonical: nonzero, narrow and sorted by the term order; checks nothing."""
    poly = object.__new__(LaurentPolynomial)
    object.__setattr__(poly, "variables", variables)
    object.__setattr__(poly, "_terms", tuple(terms))
    return poly


def _dot(variables: tuple[str, ...], pairs: Iterable, scale=1) -> LaurentPolynomial:
    """scale * sum of a * b over the (a, b) pairs of polynomials over
    ``variables``: every product lands in one exponent -> coefficient map,
    the rational ``scale`` multiplies each sum once, and ``_make`` runs once.
    The library's one product loop; checks no ring."""
    acc = {}
    get = acc.get
    for a, b in pairs:
        b_terms = b._terms
        for e1, c1 in a._terms:
            for e2, c2 in b_terms:
                exps = tuple(map(add, e1, e2))
                acc[exps] = get(exps, 0) + c1 * c2
    if scale != 1:
        acc = {e: c * scale for e, c in acc.items()}
    return _make(variables, acc)


# -- parsing ----------------------------------------------------------------

_TOKEN = _re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>" + _IDENTIFIER + r")"
    r"|(?P<scalar>\([^()]*\))|(?P<op>[+\-*^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        if match.end() == pos:
            break
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    return tokens


class _PolynomialParser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.variables = variables
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        token = self.peek()
        if token is None:
            raise ParseError(f"unexpected end of polynomial {self.text!r}")
        self.pos += 1
        return token

    def parse(self) -> LaurentPolynomial:
        """All terms in one pass, collected into one dict and canonicalised once."""
        if not self.tokens:
            raise ParseError("empty polynomial text")
        _check_variables(self.variables)
        acc = {}
        while (token := self.peek()) is not None:
            if token[1] in "+-" and token[0] == "op":
                self.take()
                sign = -1 if token[1] == "-" else 1
            elif self.pos:
                raise ParseError(
                    f"expected '+' or '-' at position {token[2]} in {self.text!r}"
                )
            else:
                sign = 1
            exps, coeff = self._term()
            acc[exps] = acc.get(exps, 0) + (coeff if sign > 0 else -coeff)
        return _make(self.variables, acc)

    def _term(self) -> tuple[ExponentVector, object]:
        coeff = 1
        exps = [0] * len(self.variables)
        saw_factor = False
        while True:
            token = self.peek()
            if token is None:
                break
            kind, value, where = token
            if kind == "number":
                self.take()
                coeff = coeff * _rational_literal(value)
            elif kind == "scalar":
                self.take()
                coeff = coeff * parse_scalar(value)
            elif kind == "name":
                if value == "i":
                    raise ParseError(
                        f"imaginary coefficient at position {where} must be parenthesized"
                    )
                if value not in self.variables:
                    raise ParseError(f"unknown variable {value!r} at position {where}")
                self.take()
                exps[self.variables.index(value)] += self._exponent()
            else:
                if value == "(":
                    raise ParseError(f"unbalanced '(' at position {where} in {self.text!r}")
                if not saw_factor:
                    raise ParseError(f"expected a term at position {where} in {self.text!r}")
                break
            saw_factor = True
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "*":
                self.take()
                continue
            break
        if not saw_factor:
            raise ParseError(f"empty term in {self.text!r}")
        return tuple(exps), coeff

    def _exponent(self) -> int:
        token = self.peek()
        if token is None or token[0] != "op" or token[1] != "^":
            return 1
        self.take()
        sign = 1
        token = self.take()
        if token[0] == "op" and token[1] in "+-":
            sign = -1 if token[1] == "-" else 1
            token = self.take()
        if token[0] != "number" or "/" in token[1]:
            raise ParseError(f"expected an integer exponent at position {token[2]}")
        try:
            return sign * int(token[1])
        except ValueError:  # past Python's int conversion limit
            raise ParseError(f"exponent at position {token[2]} is too long to convert") from None


def parse_polynomial(text: str, variables: Iterable[str]) -> LaurentPolynomial:
    return _PolynomialParser(text, tuple(variables)).parse()
