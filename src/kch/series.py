"""Truncated formal power series with Laurent polynomial coefficients.

A ``FormalSeries`` in the variable ``t`` of order ``n`` stores the
coefficients of ``t^0 .. t^n`` exactly and discards everything beyond; all
arithmetic respects the truncation.  Coefficients live in a shared Laurent
polynomial ring, so series of polynomials (mirror branches, trace expansions)
and series of constants (graph expansions) use the same machinery.

Products, inverses, log and exp run on Kronecker-packed integers (Kronecker
1882; Harvey 2009): a coefficient with Gaussian-integer values becomes one
Python int, its value at each exponent vector held in a fixed-width slot, so
a product of two coefficients is one C-level int product.  Rational series
are first made integral: a product scales each factor by its common
denominator, and inverse, log and exp scale t by it (the coefficient of t^k
by D^k), which keeps one denominator per series.  log runs on the weighted
k L_k and exp in divided powers k! E_k (Brent & Kung 1978), so that every
step is an integer.  Each operation packs its inputs once, runs its whole recurrence
on ints and unpacks once; ``kch._packed`` holds the packing and how wide a
slot must be.  Where packing is estimated the costlier, or a packed value
would pass ``MAX_PACKED_BITS``, the same recurrence runs on polynomials
with integer coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm
from typing import Iterable, Sequence

from .errors import DomainError, RingMismatchError, check_count
from .laurent import LaurentPolynomial, _NAME, _denominator, _dot, _make
from .scalars import Scalar, _power

# a packed value holds (slots) x (slot width) bits, and a product of two
# such values costs about 0.14 s at the cap.  A layout past it runs on term
# dicts, which pay per pair of terms: a coefficient 1 + Q^1000000 would need
# a million slots, and as two terms it costs almost nothing.
MAX_PACKED_BITS = 1 << 20


class FormalSeries:
    __slots__ = ("variable", "order", "coefficients")

    def __init__(
        self,
        variable: str,
        order: int,
        coefficients: Sequence[LaurentPolynomial],
    ) -> None:
        check_count(order, "series order")
        if not isinstance(variable, str) or not _NAME.fullmatch(variable):
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
        check_count(order, "series order")
        return cls(variable, order, [LaurentPolynomial.zero(ring)] * (order + 1))

    @classmethod
    def one(cls, variable: str, order: int, ring: Iterable[str] = ()) -> "FormalSeries":
        check_count(order, "series order")
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
        if check_count(k, "coefficient index") > self.order:
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
        a, b = self.coefficients[: order + 1], other.coefficients[: order + 1]
        da, db = _series_denominator(a), _series_denominator(b)
        kernel = _kernel(self.ring)
        a = [kernel.input(c, da) for c in a]
        b = [kernel.input(c, db) for c in b]
        out = [kernel.dot(a[: k + 1], b[k::-1]) for k in range(order + 1)]
        kernel.run(out)
        return FormalSeries(self.variable, order, kernel.unpack(out, [da * db] * len(out)))

    __rmul__ = __mul__

    def scale(self, value: Scalar | int | Fraction) -> "FormalSeries":
        return FormalSeries(self.variable, self.order, [c.scale(value) for c in self.coefficients])

    def truncate(self, order: int) -> "FormalSeries":
        if check_count(order, "truncation order") > self.order:
            raise DomainError(f"cannot extend truncation order {self.order} to {order}")
        return FormalSeries(self.variable, order, self.coefficients[: order + 1])

    def shifted(self, k: int) -> "FormalSeries":
        """Multiply by t^k (k >= 0), keeping the truncation order."""
        check_count(k, "shift")
        zero = LaurentPolynomial.zero(self.ring)
        coeffs = [zero] * min(k, self.order + 1) + list(self.coefficients)
        return FormalSeries(self.variable, self.order, coeffs[: self.order + 1])

    def __pow__(self, exponent: int) -> "FormalSeries":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return _power(self, exponent, FormalSeries.one(self.variable, self.order, self.ring))

    def inverse(self) -> "FormalSeries":
        """Multiplicative inverse; the constant coefficient must be a unit monomial.

        With S = c (1 + U) and t scaled by the common denominator D of U, the
        inverse V of 1 + U(D t) is integral: V_k = -sum_{j=1}^{k} U_j D^j V_(k-j).
        """
        c0 = self.coefficients[0]
        if c0.is_zero():
            raise DomainError("series with zero constant coefficient has no inverse")
        inverse0 = c0.monomial_inverse()
        ring = self.ring
        unit = [_dot(ring, ((c, inverse0),)) for c in self.coefficients]
        d = _series_denominator(unit)
        kernel = _kernel(ring)
        u = [kernel.input(c, d**j) for j, c in enumerate(unit)]
        v = [u[0]]
        for k in range(1, self.order + 1):
            v.append(kernel.dot(u[1 : k + 1], v[k - 1 :: -1], [-1] * k))
        kernel.run(v)
        unpacked = kernel.unpack(v, [d**k for k in range(len(v))])
        out = [_dot(ring, ((inverse0, c),)) for c in unpacked]
        return FormalSeries(self.variable, self.order, out)

    def log(self) -> "FormalSeries":
        """log of a series with constant coefficient one.

        L = log S satisfies S L' = S', which read coefficientwise is the
        recurrence k L_k = k S_k - sum_{j=1}^{k-1} j L_j S_{k-j} (Brent & Kung
        1978): one convolution per coefficient and no series inverse.  For
        the series in D t, with b_j = S_j D^j integral, the weighted
        y_k = k L_k D^k are integers: y_k = k b_k - sum_j y_j b_(k-j), with no
        division and, unlike divided powers, no factorial in any value.
        """
        ring = self.ring
        if self.coefficients[0]._terms != (((0,) * len(ring), 1),):
            raise DomainError("log requires constant coefficient one")
        d = _series_denominator(self.coefficients)
        kernel = _kernel(ring)
        b = [kernel.input(c, d**j) for j, c in enumerate(self.coefficients)]
        out = [b[0]]
        for k in range(1, self.order + 1):
            factors = [k] + [-1] * (k - 1)
            out.append(kernel.dot([b[k]] + out[1:k], [b[0]] + b[k - 1 : 0 : -1], factors))
        kernel.run(out[1:])
        coefficients = [_make(ring, {})]
        coefficients += kernel.unpack(out[1:], [k * d**k for k in range(1, self.order + 1)])
        return FormalSeries(self.variable, self.order, coefficients)

    def exp(self) -> "FormalSeries":
        """exp of a series with zero constant coefficient.

        E = exp S satisfies E' = S'E, which read coefficientwise is the
        recurrence k E_k = sum_{j=1}^{k} j S_j E_{k-j}.  In divided powers
        e_k = k! E_k of the series in D t, with s_j = j! S_j D^j integral, it
        reads e_k = sum_{j=1}^{k} C(k-1, j-1) s_j e_(k-j); D is the common
        denominator of the j! S_j, often 1 where that of the S_j is not.
        """
        kernel = _kernel(self.ring)
        d, (out,) = _record_exp(kernel, self.coefficients)
        kernel.run(out)
        coefficients = kernel.unpack(out, [factorial(k) * d**k for k in range(self.order + 1)])
        return FormalSeries(self.variable, self.order, coefficients)

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


def _series_denominator(coefficients: Iterable[LaurentPolynomial]) -> int:
    return _denominator(c for poly in coefficients for _, c in poly._terms)


def _record_exp(
    kernel, coefficients: Sequence[LaurentPolynomial], multiples: Iterable[int] = (1,)
) -> tuple[int, list[list[int]]]:
    """Record exp(m S) on ``kernel`` for each of the ``multiples`` m, S the
    series with these coefficients, in the divided powers of
    ``FormalSeries.exp`` (m S has the integral values m s_j).  Returns the
    scale D of t and, per multiple, the nodes of e_k = k! E_k D^k for
    E = exp(m S)."""
    ring = kernel.variables
    if not coefficients[0].is_zero():
        raise DomainError("exp requires zero constant coefficient")
    fact = [factorial(j) for j in range(len(coefficients))]
    d = 1
    for j, c in enumerate(coefficients):
        m = _series_denominator((c,))
        d = lcm(d, m // gcd(m, fact[j]))
    s = [kernel.input(c, fact[j] * d**j) for j, c in enumerate(coefficients)]
    one = kernel.input(_make(ring, {(0,) * len(ring): 1}))
    rows = [[comb(k - 1, j) for j in range(k)] for k in range(1, len(coefficients))]
    series = []
    for multiple in multiples:
        out = [one]
        for k, row in enumerate(rows, 1):
            factors = row if multiple == 1 else [multiple * f for f in row]
            out.append(kernel.dot(s[1 : k + 1], out[k - 1 :: -1], factors))
        series.append(out)
    return d, series


def _kernel(variables: tuple[str, ...]):
    """A new packed kernel (``kch._packed._Kernel``) over ``variables``.

    Its module is imported on first use: importing kch compiles no kernel
    code for the knot and augmentation paths, which never run one.
    """
    from ._packed import _Kernel

    return _Kernel(variables)


def _parts(c, scale: int = 1) -> tuple[int, int]:
    """(re, im) of c * scale for a narrow coefficient c whose denominators
    divide ``scale``, in integer arithmetic; ArithmeticError where one does
    not, rather than a truncated value."""
    if type(c) is int:
        return c * scale, 0
    if type(c) is Scalar:
        return _integral(c.re, scale), _integral(c.im, scale)
    return _integral(c, scale), 0


def _integral(c: Fraction, scale: int) -> int:
    multiple, rest = divmod(scale, c.denominator)
    if rest:
        raise ArithmeticError(f"{c} times {scale} is not an integer")
    return c.numerator * multiple
