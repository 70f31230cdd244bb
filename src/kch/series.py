"""Truncated formal power series with Laurent polynomial coefficients.

A ``FormalSeries`` in the variable ``t`` of order ``n`` stores the
coefficients of ``t^0 .. t^n`` exactly and discards everything beyond; all
arithmetic respects the truncation.  Coefficients live in a shared Laurent
polynomial ring, so series of polynomials (mirror branches, trace expansions)
and series of constants (graph expansions) use the same machinery.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError, RingMismatchError
from .laurent import LaurentPolynomial, _dot
from .scalars import Scalar


class FormalSeries:
    __slots__ = ("variable", "order", "coefficients")

    def __init__(
        self,
        variable: str,
        order: int,
        coefficients: Sequence[LaurentPolynomial],
    ) -> None:
        if order < 0:
            raise DomainError("series order must be nonnegative")
        if not variable or not variable.isidentifier():
            raise DomainError(f"invalid series variable name {variable!r}")
        coefficients = tuple(coefficients)
        if len(coefficients) != order + 1:
            raise DomainError(
                f"expected {order + 1} coefficients for order {order}, got {len(coefficients)}"
            )
        ring = coefficients[0].variables
        for coeff in coefficients:
            if coeff.variables != ring:
                raise RingMismatchError("series coefficients live in different rings")
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coefficients", coefficients)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("FormalSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variable: str, order: int, ring: Iterable[str] = ()) -> "FormalSeries":
        zero = LaurentPolynomial.zero(ring)
        return cls(variable, order, [zero] * (order + 1))

    @classmethod
    def one(cls, variable: str, order: int, ring: Iterable[str] = ()) -> "FormalSeries":
        ring = tuple(ring)
        coeffs = [LaurentPolynomial.one(ring)]
        coeffs += [LaurentPolynomial.zero(ring)] * order
        return cls(variable, order, coeffs)

    @classmethod
    def from_scalars(
        cls,
        variable: str,
        values: Sequence[Scalar | int | Fraction],
        ring: Iterable[str] = (),
    ) -> "FormalSeries":
        ring = tuple(ring)
        coeffs = [LaurentPolynomial.constant(ring, v) for v in values]
        return cls(variable, len(values) - 1, coeffs)

    # -- inspection --------------------------------------------------------

    @property
    def ring(self) -> tuple[str, ...]:
        return self.coefficients[0].variables

    def coefficient(self, k: int) -> LaurentPolynomial:
        if k < 0 or k > self.order:
            raise DomainError(f"coefficient index {k} outside truncation order {self.order}")
        return self.coefficients[k]

    def _check_compatible(self, other: "FormalSeries") -> None:
        if self.variable != other.variable:
            raise RingMismatchError(
                f"mismatched series variables {self.variable!r} and {other.variable!r}"
            )
        if self.ring != other.ring:
            raise RingMismatchError(
                f"mismatched coefficient rings {self.ring!r} and {other.ring!r}"
            )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        self._check_compatible(other)
        order = min(self.order, other.order)
        return FormalSeries(
            self.variable,
            order,
            [self.coefficients[k] + other.coefficients[k] for k in range(order + 1)],
        )

    def __sub__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "FormalSeries":
        return FormalSeries(self.variable, self.order, [-c for c in self.coefficients])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if isinstance(other, LaurentPolynomial):
            return FormalSeries(
                self.variable, self.order, [c * other for c in self.coefficients]
            )
        if not isinstance(other, FormalSeries):
            return NotImplemented
        self._check_compatible(other)
        order = min(self.order, other.order)
        a, b = self.coefficients, other.coefficients
        out = [_dot(self.ring, [(a[j], b[k - j]) for j in range(k + 1)]) for k in range(order + 1)]
        return FormalSeries(self.variable, order, out)

    __rmul__ = __mul__

    def scale(self, value: Scalar | int | Fraction) -> "FormalSeries":
        return FormalSeries(self.variable, self.order, [c.scale(value) for c in self.coefficients])

    def truncate(self, order: int) -> "FormalSeries":
        if order > self.order:
            raise DomainError(f"cannot extend truncation order {self.order} to {order}")
        return FormalSeries(self.variable, order, self.coefficients[: order + 1])

    def shifted(self, k: int) -> "FormalSeries":
        """Multiply by t^k (k >= 0), keeping the truncation order."""
        if k < 0:
            raise DomainError("shift must be nonnegative")
        zero = LaurentPolynomial.zero(self.ring)
        coeffs = [zero] * min(k, self.order + 1) + list(self.coefficients)
        return FormalSeries(self.variable, self.order, coeffs[: self.order + 1])

    def __pow__(self, exponent: int) -> "FormalSeries":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = FormalSeries.one(self.variable, self.order, self.ring)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "FormalSeries":
        """Multiplicative inverse; the constant coefficient must be a unit monomial."""
        c0 = self.coefficients[0]
        if c0.is_zero():
            raise DomainError("series with zero constant coefficient has no inverse")
        out = [c0.monomial_inverse()]
        # out_k = -out_0 * sum_{j=1}^{k} S_j out_(k-j), with -out_0 S_j formed once
        s = [-(out[0] * c) for c in self.coefficients]
        for k in range(1, self.order + 1):
            out.append(_dot(self.ring, [(s[j], out[k - j]) for j in range(1, k + 1)]))
        return FormalSeries(self.variable, self.order, out)

    def log(self) -> "FormalSeries":
        """log of a series with constant coefficient one.

        L = log S satisfies S L' = S', which read coefficientwise is the
        recurrence k L_k = k S_k - sum_{j=1}^{k-1} j L_j S_{k-j} (Brent & Kung
        1978): one convolution per coefficient and no series inverse.  The
        weighted j L_j are kept, so L_k costs one convolution and one 1/k.
        """
        one = LaurentPolynomial.one(self.ring)
        if self.coefficients[0] != one:
            raise DomainError("log requires constant coefficient one")
        s = self.coefficients
        negated = [-c for c in s]
        out = [LaurentPolynomial.zero(self.ring)]
        weighted = [out[0]]  # j * L_j
        for k in range(1, self.order + 1):
            pairs = [(s[k], one.scale(k))]
            pairs += [(weighted[j], negated[k - j]) for j in range(1, k)]
            weighted.append(_dot(self.ring, pairs))
            out.append(weighted[k].scale(Fraction(1, k)))
        return FormalSeries(self.variable, self.order, out)

    def exp(self) -> "FormalSeries":
        """exp of a series with zero constant coefficient.

        E = exp S satisfies E' = S'E, which read coefficientwise is the
        pre-weighted recurrence k E_k = sum_{j=1}^{k} (j S_j) E_{k-j}: each
        j S_j is formed once, and each E_k is one convolution scaled by 1/k.
        """
        if not self.coefficients[0].is_zero():
            raise DomainError("exp requires zero constant coefficient")
        weighted = [c.scale(j) for j, c in enumerate(self.coefficients)]
        out = [LaurentPolynomial.one(self.ring)]
        for k in range(1, self.order + 1):
            pairs = [(weighted[j], out[k - j]) for j in range(1, k + 1)]
            out.append(_dot(self.ring, pairs, Fraction(1, k)))
        return FormalSeries(self.variable, self.order, out)

    # -- equality / printing -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return (
            self.variable == other.variable
            and self.order == other.order
            and self.coefficients == other.coefficients
        )

    def __hash__(self) -> int:
        return hash((self.variable, self.order, self.coefficients))

    def __str__(self) -> str:
        pieces = []
        for k, coeff in enumerate(self.coefficients):
            if coeff.is_zero():
                continue
            if k == 0:
                pieces.append(str(coeff))
                continue
            power = self.variable if k == 1 else f"{self.variable}^{k}"
            if coeff == LaurentPolynomial.one(self.ring):
                pieces.append(power)
            elif len(coeff._terms) > 1:
                pieces.append(f"({coeff})*{power}")
            else:
                text = str(coeff)
                if text.startswith("-"):
                    pieces.append(f"({coeff})*{power}")
                else:
                    pieces.append(f"{text}*{power}")
        body = " + ".join(pieces) if pieces else "0"
        return f"{body} + O({self.variable}^{self.order + 1})"

    def __repr__(self) -> str:
        return f"FormalSeries({self.variable!r}, order={self.order}, {self})"
