"""Buchberger's algorithm over the Gaussian rationals.

Polynomials are ``LaurentPolynomial`` values restricted to nonnegative
exponents; the monomial order is plain lexicographic on the exponent tuple in
declared variable order (first variable most significant).  Ring variable
order therefore doubles as the elimination order: a reduced basis element
supported on a trailing block of variables certifies membership in the
corresponding elimination ideal.

The public functions read their inputs' stored terms once into
``{exponents: coefficient}`` dicts and hand their results back once through
the polynomial canonicaliser.  The pair loop forms and reduces each
S-polynomial through the public ``s_polynomial`` and ``normal_form``, which
take kernel values as well, so a wrapper around those two names sees every
reduction the algorithm makes.  Coefficients stay exact Gaussian rationals in
the polynomials' narrow stored types: an ``int`` or ``Fraction`` when real, a
``Scalar`` only with an imaginary part; they mix through ``Scalar``'s
reflected operators.  Basis members are monic and keep their leading
monomial.  Pairs are taken by the normal strategy (smallest lcm of leading
monomials first) and filtered by the Gebauer-Moller update (Gebauer & Moller
1988, "On an installation of Buchberger's algorithm"): the product
criterion, the chain criterion on old pairs, and the M and F rules on new
ones.  A nonzero constant remainder ends the loop at
once, since the reduced basis of the unit ideal is ``[1]``.

The pair loop is capped by the ``KCH_MAX_STEPS`` environment variable
(default 20000) and raises ``ResourceLimitError`` beyond the cap, so
pathological ideals fail loudly instead of spinning.  The cap counts the
S-pairs actually reduced, after the criteria have dropped the rest.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, le, sub
from typing import Iterable, Sequence

from .errors import DomainError, ResourceLimitError, max_steps_limit
from .laurent import ExponentVector, LaurentPolynomial, _make
from .scalars import Scalar

DEFAULT_MAX_STEPS = 20000

# a basis member is the pair (leading monomial, monic terms)
Member = tuple


class Terms(dict):
    """A kernel polynomial: exponents -> nonzero int, ``Fraction`` or ``Scalar``."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self


def _terms(poly: LaurentPolynomial) -> Terms:
    return Terms(poly._terms)


def _member(terms: Terms) -> Member:
    if not terms:
        raise DomainError("zero polynomial has no leading term")
    lead = max(terms)
    inverse = Fraction(1) / terms[lead]
    return lead, {exps: c * inverse for exps, c in terms.items()}


def _divides(a: ExponentVector, b: ExponentVector) -> bool:
    return all(map(le, a, b))


def _lcm(a: ExponentVector, b: ExponentVector) -> ExponentVector:
    return tuple(map(max, a, b))


def _coprime(a: ExponentVector, b: ExponentVector) -> bool:
    return not any(map(min, a, b))


def _subtract(work: Terms, terms: Terms, lead: ExponentVector, shift: ExponentVector, factor):
    # work -= factor * x^shift * (terms less their lead), in place
    for exps, coeff in terms.items():
        if exps != lead:
            key = tuple(map(add, exps, shift))
            total = work.get(key, 0) - factor * coeff
            if total:
                work[key] = total
            else:
                del work[key]


def _reduce(work: Terms, divisors: Sequence[Member]) -> Terms:
    """Full remainder of ``work`` (consumed) by monic members, the first
    divisor in order taken at each step."""
    remainder = Terms()
    while work:
        exps = max(work)
        coeff = work.pop(exps)
        for lead, g in divisors:
            if _divides(lead, exps):
                _subtract(work, g, lead, tuple(map(sub, exps, lead)), coeff)
                break
        else:
            remainder[exps] = coeff
    return remainder


def _spoly(f: Member, g: Member) -> Terms:
    (f_lead, f_terms), (g_lead, g_terms) = f, g
    lcm = _lcm(f_lead, g_lead)
    f_shift = tuple(map(sub, lcm, f_lead))
    g_shift = tuple(map(sub, lcm, g_lead))
    work = Terms((tuple(map(add, e, f_shift)), c) for e, c in f_terms.items() if e != f_lead)
    _subtract(work, g_terms, g_lead, g_shift, 1)
    return work


def _update(members: list[Member], active: list[int], pairs: list, new: int):
    """Gebauer-Moller update: the active members and pending pairs once
    member ``new`` joins.  A pair is ``(lcm, i, j)`` with ``i < j``."""
    h = members[new][0]
    candidates = [(_lcm(members[g][0], h), g) for g in active]
    chosen = []
    for k, (lcm, g) in enumerate(candidates):
        # M and F: drop a pair when the lcm of another new pair, not yet
        # dropped, divides its lcm; coprime pairs stay here as witnesses
        if _coprime(members[g][0], h) or not (
            any(_divides(m, lcm) for m, _ in candidates[k + 1 :])
            or any(_divides(m, lcm) for m, _ in chosen)
        ):
            chosen.append((lcm, g))
    # chain criterion on the old pairs, then the product criterion on the new
    kept = [
        (lcm, i, j)
        for lcm, i, j in pairs
        if not _divides(h, lcm)
        or _lcm(members[i][0], h) == lcm
        or _lcm(members[j][0], h) == lcm
    ]
    kept += [(lcm, g, new) for lcm, g in chosen if not _coprime(members[g][0], h)]
    return [g for g in active if not _divides(h, members[g][0])] + [new], kept


def _groebner(polys: Iterable[Terms], max_steps: int | None) -> list[Member]:
    """Monic reduced lex basis, sorted by leading monomial."""
    members = sorted((_member(p) for p in polys if p), key=lambda m: m[0])
    if not members:
        return []
    limit = max_steps if max_steps is not None else max_steps_limit(DEFAULT_MAX_STEPS)
    if not any(members[0][0]):
        return [members[0]]
    active: list[int] = []
    pairs: list = []
    for new in range(len(members)):
        active, pairs = _update(members, active, pairs, new)
    steps = 0
    while pairs:
        pair = min(pairs)
        pairs.remove(pair)
        steps += 1
        if steps > limit:
            raise ResourceLimitError(
                f"Groebner basis exceeded {limit} reduction steps (set KCH_MAX_STEPS to raise)"
            )
        _, i, j = pair
        spoly = s_polynomial(members[i], members[j])
        remainder = normal_form(spoly, [members[g] for g in active])
        if remainder:
            members.append(_member(remainder))
            if not any(members[-1][0]):
                return [members[-1]]
            active, pairs = _update(members, active, pairs, len(members) - 1)

    # minimalise, then reduce each tail against the others once
    basis = sorted((members[g] for g in active), key=lambda m: m[0])
    basis = [m for m in basis if not any(o is not m and _divides(o[0], m[0]) for o in basis)]
    return [
        (lead, normal_form(Terms(terms), [o for o in basis if o[0] != lead]))
        for lead, terms in basis
    ]


def leading_term(poly: LaurentPolynomial) -> tuple[ExponentVector, Scalar]:
    """Leading term under plain lex on the declared variable order."""
    if poly.is_zero():
        raise DomainError("zero polynomial has no leading term")
    return max(poly.terms(), key=lambda term: term[0])


def normal_form(poly: LaurentPolynomial, basis: Sequence[LaurentPolynomial]) -> LaurentPolynomial:
    """Full remainder of multivariate division by the basis (deterministic);
    the pair loop passes kernel ``Terms`` (consumed) and members instead."""
    if not isinstance(poly, LaurentPolynomial):
        return _reduce(poly, basis)
    if poly.is_zero() or not basis:
        return poly
    divisors = [_member(_terms(g)) for g in basis]
    return _make(poly.variables, _reduce(_terms(poly), divisors))


def s_polynomial(f: LaurentPolynomial, g: LaurentPolynomial) -> LaurentPolynomial:
    """S-polynomial of the monic multiples of ``f`` and ``g``; the pair loop
    passes two basis members instead and gets ``Terms`` back."""
    if not isinstance(f, LaurentPolynomial):
        return _spoly(f, g)
    return _make(f.variables, _spoly(_member(_terms(f)), _member(_terms(g))))


def reduced_groebner_basis(
    polys: Iterable[LaurentPolynomial],
    *,
    max_steps: int | None = None,
) -> list[LaurentPolynomial]:
    """Unique reduced lex Groebner basis of the ideal the inputs generate."""
    inputs = []
    ring = None
    for poly in polys:
        if ring is None:
            ring = poly.variables
        elif poly.variables != ring:
            raise DomainError("generators live in different rings")
        if any(e < 0 for exps, _ in poly._terms for e in exps):
            raise DomainError("Groebner computations need nonnegative exponents")
        inputs.append(_terms(poly))
    return [_make(ring, terms) for _, terms in _groebner(inputs, max_steps)]


def ideal_contains_one(
    polys: Sequence[LaurentPolynomial],
    *,
    max_steps: int | None = None,
) -> bool:
    """True when the inputs generate the whole ring.

    Accepts arbitrary generators; the basis computation stops at the first
    nonzero constant remainder.
    """
    if any(not g.is_zero() and g.is_constant() for g in polys):
        return True
    basis = reduced_groebner_basis(polys, max_steps=max_steps)
    return any(g.is_constant() for g in basis)
