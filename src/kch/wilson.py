"""Wilson-loop values: the skein polynomial at roots of unity.

For a diagram K and Chern-Simons data (N, k) the value is

    W(K) = (q^{N/2} - q^{-N/2}) / (q^{1/2} - q^{-1/2}) * P_K(a, z)

evaluated at a = q^{N/2}, z = q^{1/2} - q^{-1/2}, q = exp(2*pi*i/(k+N)).
Internally q^{1/2} is the primitive 2|k+N|-th root of unity (conjugated when
k+N < 0), so the whole evaluation is exact cyclotomic arithmetic; an
independent floating-point substitution cross-checks the final complexification.

In the exact evaluation every a^e is a root of unity, so the terms of one
power of z add up as coefficients of powers of zeta with no field product;
each distinct power of z is computed once per level.  The skein polynomial
comes from ``homfly``, which keeps it on the diagram, so the levels of one
diagram share one skein recursion.  |k + N| is capped at ``MAX_LEVEL``,
because building Q(zeta_{2|k+N|}) and computing in it grow quickly with the
level; every public entry point checks the cap before building a field.
"""

from __future__ import annotations

import cmath

from .cyclotomic import CyclotomicElement, CyclotomicField
from .errors import DomainError, ResourceLimitError, VerificationError
from .homfly import homfly
from .laurent import LaurentPolynomial
from .pd import LinkDiagram

FLOAT_TOLERANCE = 1e-9
MAX_LEVEL = 200


def _check_levels(N: int, k: int) -> None:
    if N < 1:
        raise DomainError("rank N must be at least 1")
    if k + N == 0:
        raise DomainError("k + N must be nonzero")
    if abs(k + N) == 1:
        raise DomainError("k + N = +-1 makes q^{1/2} - q^{-1/2} vanish")
    if abs(k + N) > MAX_LEVEL:
        raise ResourceLimitError(f"|k + N| = {abs(k + N)} exceeds the level cap {MAX_LEVEL}")


def _evaluate_cyclotomic(poly: LaurentPolynomial, N: int, k: int) -> CyclotomicElement:
    if poly.variables != ("a", "z"):
        raise DomainError("expected a skein polynomial in (a, z)")
    field = CyclotomicField(2 * abs(k + N))
    n = field.n
    sign = 1 if k + N > 0 else -1
    # a^e_a = zeta^(sign*N*e_a): per power of z, real and imaginary parts of
    # the coefficient of each power of zeta
    rows: dict[int, tuple[list, list]] = {}
    for (e_a, e_z), coeff in poly.terms():
        real, imaginary = rows.setdefault(e_z, ([0] * n, [0] * n))
        position = sign * N * e_a % n
        real[position] += coeff.re
        imaginary[position] += coeff.im
    z_value = field.zeta(sign) - field.zeta(-sign)  # q^{1/2} - q^{-1/2}
    z_inverse = z_value.inverse()
    z_powers = {1: z_value, -1: z_inverse}
    for e in range(2, max(rows, default=0) + 1):
        z_powers[e] = z_powers[e - 1] * z_value
    for e in range(-2, min(rows, default=0) - 1, -1):
        z_powers[e] = z_powers[e + 1] * z_inverse
    total = field.zero()
    for e_z, (real, imaginary) in rows.items():
        row = field.element(real)
        if any(imaginary):
            row = row + field.imaginary_unit() * field.element(imaginary)
        total = total + (row * z_powers[e_z] if e_z else row)
    a_value = field.zeta(sign * N)  # q^{N/2}
    return (a_value - field.zeta(-sign * N)) * z_inverse * total


def _evaluate_float(poly: LaurentPolynomial, N: int, k: int) -> complex:
    a_value = cmath.exp(1j * cmath.pi * N / (k + N))
    z_value = cmath.exp(1j * cmath.pi / (k + N)) - cmath.exp(-1j * cmath.pi / (k + N))
    total = 0j
    for exps, coeff in poly.terms():
        e_a, e_z = exps
        total += coeff.to_complex() * a_value**e_a * z_value**e_z
    prefactor = (a_value - 1 / a_value) / z_value
    return prefactor * total


def wilson_exact(diagram: LinkDiagram, N: int, k: int) -> CyclotomicElement:
    """Exact Wilson value in Q(zeta_{2|k+N|}), prefactor included."""
    _check_levels(N, k)
    return _evaluate_cyclotomic(homfly(diagram), N, k)


def wilson_loop_float(diagram: LinkDiagram, N: int, k: int) -> complex:
    """Independent floating-point evaluation; shares no root-of-unity code."""
    _check_levels(N, k)
    return _evaluate_float(homfly(diagram), N, k)


def wilson_loop(diagram: LinkDiagram, N: int, k: int) -> complex:
    """Complex Wilson value from the exact evaluation, float cross-checked.

    Both evaluations read one skein polynomial computed once.
    """
    _check_levels(N, k)
    poly = homfly(diagram)
    exact = _evaluate_cyclotomic(poly, N, k).to_complex()
    approximate = _evaluate_float(poly, N, k)
    if abs(exact - approximate) > FLOAT_TOLERANCE:
        raise VerificationError(
            f"cyclotomic and floating evaluations disagree: {exact} vs {approximate}"
        )
    return exact
