"""Wilson-loop values: the skein polynomial at roots of unity.

For a diagram K and Chern-Simons data (N, k) the value is

    W(K) = (q^{N/2} - q^{-N/2}) / (q^{1/2} - q^{-1/2}) * P_K(a, z)

evaluated at a = q^{N/2}, z = q^{1/2} - q^{-1/2}, q = exp(2*pi*i/(k+N)).
With L = |k + N|, q^{1/2} = zeta^sign for zeta = exp(pi*i/L), the primitive
2L-th root of unity, and sign that of k + N.

The exact value is computed in integers, in Z[x]/(x^{2L} - 1) with x for
q^{1/2}.  Every a^e is a power of x, so each term of the skein polynomial,
times the prefactor's a - a^{-1}, adds its integer coefficient at two
positions of the row of its power of z.  The rows are summed by Horner in
z = x - x^{-1}, a shift and a subtraction.  The prefactor's 1/z and the
negative powers of z come from the closed form L/z = sum_{j<L} j x^{2j+1},
so the vector is the value times L^m.  One reduction by the integer
cyclotomic polynomial and one division by L^m, the only ``Fraction`` step,
give the field element; no field product or inverse runs.  An independent
floating-point substitution cross-checks the complexified value.

The skein polynomial comes from ``homfly``, which keeps it on the diagram, so
the levels of one diagram share one skein recursion.  N, k and L go through
``errors.check_count``, L capped at ``MAX_LEVEL``; every public entry point
checks them first.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .cyclotomic import (
    MAX_CYCLOTOMIC_INDEX,
    CyclotomicElement,
    CyclotomicField,
    _divmod_monic,
    _integer_cyclotomic,
)
from .errors import DomainError, VerificationError, check_count
from .homfly import homfly
from .laurent import LaurentPolynomial
from .pd import LinkDiagram

FLOAT_TOLERANCE = 1e-9
# the values lie in Q(zeta_{2|k+N|}): half the cap on the cyclotomic index
MAX_LEVEL = MAX_CYCLOTOMIC_INDEX // 2

# one field per level, at most MAX_LEVEL - 1 of them
_field = lru_cache(maxsize=None)(CyclotomicField)


def _check_levels(N: int, k: int) -> None:
    check_count(N, "rank N", least=1)
    check_count(k, "level k", least=None)
    if k + N == 0:
        raise DomainError("k + N must be nonzero")
    if abs(k + N) == 1:
        raise DomainError("k + N = +-1 makes q^{1/2} - q^{-1/2} vanish")
    check_count(abs(k + N), "|k + N|", cap=MAX_LEVEL, cap_name="level cap")


def _times_level_over_z(v: list[int], level: int) -> list[int]:
    """A vector congruent to v * L/z modulo Phi_{2L}, for z = x - x^{-1}.

    y = v/z solves y[p] = y[p - 2] - (x v)[p] on each parity class of
    positions once the mean of x v over the class is subtracted: that changes
    x v by a multiple of sum_{j<L} x^{2j}, which vanishes modulo Phi_{2L} for
    L >= 2, as does the free constant of each class.  L times the mean is an
    integer.  This is the closed form L/z = sum_{j<L} j x^{2j+1} as a running sum.
    """
    shifted = v[-1:] + v[:-1]
    out = [0] * (2 * level)
    for parity in (0, 1):
        t = shifted[parity::2]
        total = sum(t)
        out[parity::2] = accumulate(total - level * c for c in t)
    return out


def _evaluate_cyclotomic(poly: LaurentPolynomial, N: int, k: int) -> CyclotomicElement:
    if poly.variables != ("a", "z"):
        raise DomainError("expected a skein polynomial in (a, z)")
    level = abs(k + N)
    n = 2 * level
    # rows[e_z]: the coefficient of z^e_z in (a - a^{-1}) P, with a = x^N
    rows: dict[int, list[int]] = {}
    # the stored coefficients: a skein polynomial's are ints
    for (e_a, e_z), coeff in poly._terms:
        if type(coeff) is not int:
            raise DomainError(f"skein coefficient {coeff} is not an integer")
        row = rows.get(e_z)
        if row is None:
            row = rows[e_z] = [0] * n
        row[N * (e_a + 1) % n] += coeff
        row[N * (e_a - 1) % n] -= coeff
    low = min(min(rows, default=0), 0)
    # Horner in z = x - x^{-1}: total = (a - a^{-1}) P z^{-low}
    total = [0] * n
    for e_z in range(max(rows, default=0), low - 1, -1):
        total = [up - down for up, down in zip(total[-1:] + total[:-1], total[1:] + total[:1])]
        if e_z in rows:
            total = [t + r for t, r in zip(total, rows[e_z])]
    # times (L/z)^{1 - low}: the value times L^{1 - low}
    for _ in range(1 - low):
        total = _times_level_over_z(total, level)
    if k + N < 0:  # x = zeta^{-1}: x^i is zeta^{-i}
        total = total[:1] + total[:0:-1]
    # zeta^L = -1 and Phi_{2L} divides x^L + 1: fold, then reduce once
    folded = [c - c_high for c, c_high in zip(total[:level], total[level:])]
    _, residue = _divmod_monic(folded, _integer_cyclotomic(n))
    scale = level ** (1 - low)
    return CyclotomicElement(_field(n), tuple(Fraction(c, scale) for c in residue))


def _evaluate_float(poly: LaurentPolynomial, N: int, k: int) -> complex:
    # a depends on N only modulo 2|k + N|, which keeps a large N's low digits
    a_value = cmath.exp(1j * cmath.pi * (N % (2 * abs(k + N))) / (k + N))
    z_value = cmath.exp(1j * cmath.pi / (k + N)) - cmath.exp(-1j * cmath.pi / (k + N))
    total = 0j
    for (e_a, e_z), coeff in poly._terms:
        total += complex(coeff) * a_value**e_a * z_value**e_z
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
