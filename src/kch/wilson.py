"""Wilson-loop values: the skein polynomial at roots of unity.

For a diagram K and Chern-Simons data (N, k) the value is

    W(K) = (q^{N/2} - q^{-N/2}) / (q^{1/2} - q^{-1/2}) * P_K(a, z)

evaluated at a = q^{N/2}, z = q^{1/2} - q^{-1/2}, q = exp(2*pi*i/(k+N)).
Internally q^{1/2} is the primitive 2|k+N|-th root of unity (conjugated when
k+N < 0), so the whole evaluation is exact cyclotomic arithmetic; an
independent floating-point substitution cross-checks the final complexification.
"""

from __future__ import annotations

import cmath

from .cyclotomic import CyclotomicElement, CyclotomicField
from .errors import DomainError, VerificationError
from .homfly import homfly
from .laurent import LaurentPolynomial
from .pd import LinkDiagram

FLOAT_TOLERANCE = 1e-9


def _check_levels(N: int, k: int) -> None:
    if N < 1:
        raise DomainError("rank N must be at least 1")
    if k + N == 0:
        raise DomainError("k + N must be nonzero")
    if abs(k + N) == 1:
        raise DomainError("k + N = +-1 makes q^{1/2} - q^{-1/2} vanish")


def _evaluate_cyclotomic(poly: LaurentPolynomial, N: int, k: int) -> CyclotomicElement:
    if poly.variables != ("a", "z"):
        raise DomainError("expected a skein polynomial in (a, z)")
    field = CyclotomicField(2 * abs(k + N))
    sign = 1 if k + N > 0 else -1
    a_value = field.zeta(sign * N)     # q^{N/2}
    a_inverse = field.zeta(-sign * N)
    z_value = field.zeta(sign) - field.zeta(-sign)  # q^{1/2} - q^{-1/2}
    z_inverse = z_value.inverse()
    total = field.zero()
    for exps, coeff in poly.terms():
        e_a, e_z = exps
        term = field.from_scalar(coeff)
        term = term * (a_value**e_a if e_a >= 0 else a_inverse ** (-e_a))
        term = term * (z_value**e_z if e_z >= 0 else z_inverse ** (-e_z))
        total = total + term
    return (a_value - a_inverse) * z_inverse * total


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
