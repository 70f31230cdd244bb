"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are residues modulo the n-th cyclotomic polynomial, stored as
little-endian rational coefficient tuples of length deg(Phi_n).  Division
works through the extended Euclidean algorithm; Phi_n is irreducible over Q,
so every nonzero residue is invertible.  ``to_complex`` is the only lossy
step.

Phi_n itself is built over the integers: x^n - 1 divided exactly by the
monic Phi_d of every proper divisor d, each computed once.  Integer kernels
such as the Wilson evaluation reduce by that integer Phi_n directly; the
field reads the same polynomial with ``Fraction`` coefficients.  The index n
is checked by ``errors.check_count`` and capped at ``MAX_CYCLOTOMIC_INDEX``,
because building Phi_n and computing in Q(zeta_n) grow quickly with it.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import DomainError, check_count
from .scalars import _power

# one field product at n = 400 takes 0.1-0.2 s on a shared 2-vCPU VM, and
# Phi_n over the integers 0.34 s at n = 2400; Wilson values need n <= 400
MAX_CYCLOTOMIC_INDEX = 400

Poly = tuple[Fraction, ...]


def _trim(coeffs: Sequence[Fraction]) -> Poly:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _poly_divmod(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    num_list = list(num)
    quotient = [Fraction(0)] * max(0, len(num_list) - len(den) + 1)
    inv_lead = 1 / den[-1]
    while len(num_list) >= len(den) and _trim(num_list):
        if num_list[-1] == 0:
            num_list.pop()
            continue
        shift = len(num_list) - len(den)
        factor = num_list[-1] * inv_lead
        quotient[shift] = factor
        for i, coeff in enumerate(den):
            num_list[shift + i] -= factor * coeff
        num_list.pop()
    return _trim(quotient), _trim(num_list)


def _divmod_monic(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials by a monic divisor,
    little-endian; exact over the integers because the divisor is monic."""
    remainder = list(num)
    low = len(den) - 1
    quotient = [0] * max(0, len(remainder) - low)
    for shift in range(len(quotient) - 1, -1, -1):
        factor = quotient[shift] = remainder[shift + low]
        if factor:
            for i, coeff in enumerate(den):
                remainder[shift + i] -= factor * coeff
    return quotient, remainder[:low]


@lru_cache(maxsize=None)
def _integer_cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n over the integers, little-endian; n must already be checked."""
    quotient = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            quotient, _ = _divmod_monic(quotient, _integer_cyclotomic(d))
    return tuple(quotient)


def cyclotomic_polynomial(n: int) -> Poly:
    """Coefficients of Phi_n, little-endian, as ``Fraction``s."""
    check_count(n, "cyclotomic index", least=1, cap=MAX_CYCLOTOMIC_INDEX)
    return tuple(map(Fraction, _integer_cyclotomic(n)))


class CyclotomicField:
    """Q(zeta_n) with zeta_n the primitive root exp(2*pi*i/n)."""

    __slots__ = ("n", "modulus", "degree")

    def __init__(self, n: int) -> None:
        modulus = cyclotomic_polynomial(n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "degree", len(self.modulus) - 1)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("CyclotomicField is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, CyclotomicField) and self.n == other.n

    def __hash__(self) -> int:
        return hash(("CyclotomicField", self.n))

    def _reduce(self, coeffs: Sequence[Fraction]) -> Poly:
        _, remainder = _poly_divmod(_trim(coeffs), self.modulus)
        return remainder

    def element(self, coeffs: Sequence[Fraction | int]) -> "CyclotomicElement":
        return CyclotomicElement(self, self._reduce(tuple(Fraction(c) for c in coeffs)))

    def zero(self) -> "CyclotomicElement":
        return CyclotomicElement(self, ())

    def one(self) -> "CyclotomicElement":
        return self.element((1,))

    def rational(self, value: Fraction | int) -> "CyclotomicElement":
        return self.element((Fraction(value),))

    def zeta(self, power: int = 1) -> "CyclotomicElement":
        power %= self.n
        return self.element(
            tuple(Fraction(1) if k == power else Fraction(0) for k in range(power + 1))
        )


class CyclotomicElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: CyclotomicField, coeffs: Poly) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", _trim(coeffs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("CyclotomicElement is immutable")

    def _check(self, other: "CyclotomicElement") -> None:
        if self.field != other.field:
            raise DomainError("elements of different cyclotomic fields")

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclotomicElement):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __add__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check(other)
        size = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (size - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return CyclotomicElement(self.field, _trim(a))

    def __neg__(self) -> "CyclotomicElement":
        return CyclotomicElement(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        return self + (-other)

    def __mul__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check(other)
        return CyclotomicElement(self.field, self.field._reduce(_poly_mul(self.coeffs, other.coeffs)))

    def inverse(self) -> "CyclotomicElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        # extended Euclid: find u with u*self + v*modulus = gcd (a unit)
        r_prev, r_cur = self.field.modulus, self.coeffs
        u_prev: Poly = ()
        u_cur: Poly = (Fraction(1),)
        while r_cur:
            quotient, remainder = _poly_divmod(r_prev, r_cur)
            r_prev, r_cur = r_cur, remainder
            qu = _poly_mul(quotient, u_cur)
            size = max(len(u_prev), len(qu))
            nxt = [Fraction(0)] * size
            for i, c in enumerate(u_prev):
                nxt[i] += c
            for i, c in enumerate(qu):
                nxt[i] -= c
            u_prev, u_cur = u_cur, _trim(nxt)
        if len(r_prev) != 1:
            raise DomainError("cyclotomic modulus is not irreducible over the element")
        scale = 1 / r_prev[0]
        return CyclotomicElement(
            self.field, self.field._reduce(tuple(c * scale for c in u_prev))
        )

    def __pow__(self, exponent: int) -> "CyclotomicElement":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return _power(self, exponent, self.field.one())

    def to_complex(self) -> complex:
        root = cmath.exp(2j * cmath.pi / self.field.n)
        total = 0j
        for coeff in reversed(self.coeffs):
            total = total * root + complex(coeff)
        return total

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for k, coeff in enumerate(self.coeffs):
            if coeff == 0:
                continue
            if k == 0:
                pieces.append(str(coeff))
            elif k == 1:
                pieces.append(f"{coeff}*zeta" if abs(coeff) != 1 else ("zeta" if coeff > 0 else "-zeta"))
            else:
                pieces.append(f"{coeff}*zeta^{k}" if abs(coeff) != 1 else (f"zeta^{k}" if coeff > 0 else f"-zeta^{k}"))
        return " + ".join(pieces).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"CyclotomicElement(n={self.field.n}, {self})"
