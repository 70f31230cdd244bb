"""Exact Gaussian-rational arithmetic.

Every coefficient value in the toolkit lies in the field Q(i): complex
numbers whose real and imaginary parts are arbitrary-precision rationals.
``fractions.Fraction`` keeps each part reduced with a positive denominator,
so equality is exact and hashing is stable.  ``Scalar`` is the public form of
such a value; polynomials store a real one as an ``int`` or ``Fraction``,
which ``Scalar``'s operators take on either side.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from string import whitespace

from .errors import ParseError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _power(base, exponent: int, one):
    """base ** exponent for exponent >= 0 by square-and-multiply from ``one``:
    the one loop behind the ``__pow__`` of scalars, polynomials, series and
    cyclotomic elements."""
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        base = base * base
        exponent >>= 1
    return result


@dataclass(frozen=True, slots=True)
class Scalar:
    """A Gaussian rational ``re + im*i``."""

    re: Fraction = _ZERO
    im: Fraction = _ZERO

    def __post_init__(self) -> None:
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", Fraction(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", Fraction(self.im))

    @staticmethod
    def of(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(Fraction(value))
        raise TypeError(f"cannot interpret {value!r} as a Scalar")

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar(self.re + other, self.im)
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar(self.re - other, self.im)
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return Scalar.of(other) - self

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar(self.re * other, self.im * other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if not self.im and not other.im:
            return Scalar(self.re * other.re)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if not self.im:
            return Scalar(1 / self.re)
        norm = self.re * self.re + self.im * self.im
        return Scalar(self.re / norm, -self.im / norm)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Scalar.of(other) * self.inverse()

    def __pow__(self, exponent: int) -> "Scalar":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return _power(self, exponent, ONE)

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if self.im == 1:
            im_text = "i"
        elif self.im == -1:
            im_text = "-i"
        else:
            im_text = f"{self.im}i"
        if not self.re:
            return im_text
        joiner = "+" if self.im > 0 else ""
        return f"{self.re}{joiner}{im_text}"

    def __repr__(self) -> str:
        return f"Scalar({self})"


ZERO = Scalar()
ONE = Scalar(_ONE)
I = Scalar(_ZERO, _ONE)

_SCALAR_TERM = _re.compile(r"\s*([+-]?)\s*(?:(\d+(?:/\d+)?)\s*(i)?|(i))\s*", _re.ASCII)


def _rational_literal(digits: str) -> int | Fraction:
    """A parsed ``n`` (an int) or ``n/d`` token; a zero denominator, or a
    number longer than Python converts to an int, is malformed text."""
    n, slash, d = digits.partition("/")
    try:
        return Fraction(int(n), int(d)) if slash else int(n)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {digits!r}") from None
    except ValueError:
        raise ParseError(f"number of {len(digits)} characters is too long to convert") from None


def parse_scalar(text: str) -> Scalar:
    """Parse ``3``, ``-1/2``, ``2+3i``, ``3i``, ``i`` (optionally parenthesized).

    The toolkit's one literal grammar: at most a real and an imaginary part,
    each ``n`` or ``n/d`` in ASCII digits, with ASCII whitespace only; no
    decimals and no exponent notation.  The polynomial parser reads each
    parenthesized coefficient here, and the CLI each point coordinate,
    eigenvalue and form entry."""
    s = text.strip(whitespace)
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    pos = 0
    re_part = _ZERO
    im_part = _ZERO
    count = 0
    while pos < len(s):
        match = _SCALAR_TERM.match(s, pos)
        if match is None or match.end() == pos:
            raise ParseError(f"invalid scalar literal {text!r}")
        if count >= 1 and match.group(1) == "":
            raise ParseError(f"invalid scalar literal {text!r}: missing sign")
        if count >= 2:
            raise ParseError(f"invalid scalar literal {text!r}: too many parts")
        sign = -1 if match.group(1) == "-" else 1
        if match.group(4) is not None:
            value, imaginary = _ONE, True
        else:
            value, imaginary = _rational_literal(match.group(2)), match.group(3) is not None
        if imaginary:
            im_part += sign * value
        else:
            re_part += sign * value
        pos = match.end()
        count += 1
    if count == 0:
        raise ParseError(f"invalid scalar literal {text!r}: empty")
    return Scalar(re_part, im_part)
