"""Buchberger's algorithm over the Gaussian rationals.

Polynomials are ``LaurentPolynomial`` values restricted to nonnegative
exponents; the monomial order is plain lexicographic on the exponent tuple in
declared variable order (first variable most significant).  Ring variable
order therefore doubles as the elimination order: a reduced basis element
supported on a trailing block of variables certifies membership in the
corresponding elimination ideal.

The pair loop is capped by the ``KCH_MAX_STEPS`` environment variable
(default 20000 S-polynomial reductions) and raises ``ResourceLimitError``
beyond the cap, so pathological ideals fail loudly instead of spinning.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DomainError, ResourceLimitError, max_steps_limit
from .laurent import ExponentVector, LaurentPolynomial, _make
from .scalars import ZERO, Scalar

DEFAULT_MAX_STEPS = 20000


def _check_polynomial(poly: LaurentPolynomial) -> None:
    for exps, _ in poly.terms():
        if any(e < 0 for e in exps):
            raise DomainError("Groebner computations need nonnegative exponents")


def leading_term(poly: LaurentPolynomial) -> tuple[ExponentVector, Scalar]:
    """Leading term under plain lex on the declared variable order."""
    best = None
    for exps, coeff in poly.terms():
        if best is None or exps > best[0]:
            best = (exps, coeff)
    if best is None:
        raise DomainError("zero polynomial has no leading term")
    return best


def _divides(a: ExponentVector, b: ExponentVector) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _monomial_lcm(a: ExponentVector, b: ExponentVector) -> ExponentVector:
    return tuple(max(x, y) for x, y in zip(a, b))


def _sub_shifted(
    work: dict[ExponentVector, Scalar],
    poly: LaurentPolynomial,
    shift: ExponentVector,
    factor: Scalar,
) -> None:
    # work -= factor * x^shift * poly, in place
    for exps, coeff in poly.terms():
        key = tuple(a + b for a, b in zip(exps, shift))
        total = work.get(key, ZERO) - factor * coeff
        if total.is_zero():
            work.pop(key, None)
        else:
            work[key] = total


def normal_form(poly: LaurentPolynomial, basis: Sequence[LaurentPolynomial]) -> LaurentPolynomial:
    """Full remainder of multivariate division by the basis (deterministic)."""
    if poly.is_zero() or not basis:
        return poly
    leads = [leading_term(g) for g in basis]
    work = dict(poly.terms())
    remainder: dict[ExponentVector, Scalar] = {}
    while work:
        exps = max(work)
        coeff = work.pop(exps)
        for g, (g_exps, g_coeff) in zip(basis, leads):
            if _divides(g_exps, exps):
                shift = tuple(a - b for a, b in zip(exps, g_exps))
                work[exps] = coeff
                _sub_shifted(work, g, shift, coeff / g_coeff)
                break
        else:
            remainder[exps] = coeff
    return _make(poly.variables, remainder)


def s_polynomial(f: LaurentPolynomial, g: LaurentPolynomial) -> LaurentPolynomial:
    f_exps, f_coeff = leading_term(f)
    g_exps, g_coeff = leading_term(g)
    lcm = _monomial_lcm(f_exps, g_exps)
    f_shift = tuple(a - b for a, b in zip(lcm, f_exps))
    g_shift = tuple(a - b for a, b in zip(lcm, g_exps))
    left = f.shift(f_shift).scale(f_coeff.inverse())
    right = g.shift(g_shift).scale(g_coeff.inverse())
    return left - right


def _monic(poly: LaurentPolynomial) -> LaurentPolynomial:
    _, coeff = leading_term(poly)
    return poly.scale(coeff.inverse())


def reduced_groebner_basis(
    polys: Iterable[LaurentPolynomial],
    *,
    max_steps: int | None = None,
) -> list[LaurentPolynomial]:
    """Unique reduced lex Groebner basis of the ideal the inputs generate."""
    basis: list[LaurentPolynomial] = []
    ring = None
    for poly in polys:
        if ring is None:
            ring = poly.variables
        elif poly.variables != ring:
            raise DomainError("generators live in different rings")
        _check_polynomial(poly)
        if not poly.is_zero():
            basis.append(_monic(poly))
    if not basis:
        return []
    limit = max_steps if max_steps is not None else max_steps_limit(DEFAULT_MAX_STEPS)

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    steps = 0
    while pairs:
        # normal strategy: smallest pair lcm first, ties broken by index
        def pair_key(pair):
            i, j = pair
            return (_monomial_lcm(leading_term(basis[i])[0], leading_term(basis[j])[0]), i, j)

        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        lt_i = leading_term(basis[i])[0]
        lt_j = leading_term(basis[j])[0]
        if _monomial_lcm(lt_i, lt_j) == tuple(a + b for a, b in zip(lt_i, lt_j)):
            continue  # coprime leading monomials reduce to zero
        steps += 1
        if steps > limit:
            raise ResourceLimitError(
                f"Groebner basis exceeded {limit} reduction steps (set KCH_MAX_STEPS to raise)"
            )
        remainder = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if remainder.is_zero():
            continue
        remainder = _monic(remainder)
        basis.append(remainder)
        k = len(basis) - 1
        pairs.update((idx, k) for idx in range(k))

    # minimalize: drop members whose leading monomial another member divides
    keep: list[LaurentPolynomial] = []
    leads = [leading_term(g)[0] for g in basis]
    for idx, g in enumerate(basis):
        lt_g = leads[idx]
        redundant = False
        for jdx, lt_h in enumerate(leads):
            if jdx == idx or not _divides(lt_h, lt_g):
                continue
            if lt_h != lt_g or jdx < idx:
                redundant = True
                break
        if not redundant:
            keep.append(g)

    # reduce tails against the rest until stable
    reduced = keep
    changed = True
    while changed:
        changed = False
        next_basis = []
        for idx, g in enumerate(reduced):
            others = next_basis + reduced[idx + 1 :]
            replacement = normal_form(g, others) if others else g
            if replacement != g:
                changed = True
            if not replacement.is_zero():
                next_basis.append(_monic(replacement))
        reduced = next_basis
    reduced.sort(key=lambda g: leading_term(g)[0])
    return reduced


def ideal_contains_one(
    polys: Sequence[LaurentPolynomial],
    *,
    max_steps: int | None = None,
) -> bool:
    """True when the inputs generate the whole ring.

    Accepts arbitrary generators; a basis that is already reduced costs one
    cheap pass because every S-polynomial reduces to zero.
    """
    if any(not g.is_zero() and g.is_constant() for g in polys):
        return True
    basis = reduced_groebner_basis(polys, max_steps=max_steps)
    return any(not g.is_zero() and g.is_constant() for g in basis)
