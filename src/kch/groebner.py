"""Buchberger's algorithm, fraction-free over the Gaussian integers.

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
reduction the algorithm makes.  The kernel is fraction-free, as in Bareiss
(1968): a basis member is primitive (denominators cleared once, the gcd of
every real and imaginary part divided out, a real lead made positive), and
S-polynomials and reductions scale by leading coefficients over their gcd, so
coefficients stay ``int`` (``Scalar`` with integral parts when imaginary).
Members are made monic once, on leaving the kernel; by monic divisors the
same reduction is field division.  Pairs are taken by the normal strategy
(smallest lcm of leading monomials first) and filtered by the Gebauer-Moller
update (Gebauer & Moller 1988): the product criterion, the chain criterion on
old pairs, and the M and F rules on new ones.  A nonzero constant remainder
ends the loop at once, since the reduced basis of the unit ideal is ``[1]``.

The pair loop is capped by ``max_steps=``, else by the ``KCH_MAX_STEPS``
environment variable (default 20000), both read by ``errors.max_steps_limit``
before any work, and raises ``ResourceLimitError`` beyond the cap, so
pathological ideals fail loudly instead of spinning.  The cap counts the
S-pairs actually reduced, after the criteria have dropped the rest.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add, le, sub
from typing import Iterable, Sequence

from .errors import DomainError, ResourceLimitError, RingMismatchError, max_steps_limit
from .laurent import ExponentVector, LaurentPolynomial, _denominator, _make, _narrow
from .scalars import Scalar

DEFAULT_MAX_STEPS = 20000

# a basis member is the pair (leading monomial, primitive terms)
Member = tuple


class Terms(dict):
    """A kernel polynomial: exponents -> nonzero int, ``Fraction`` or ``Scalar``."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self


def _checked(polys: Sequence[LaurentPolynomial], ring: tuple, laurent=False) -> list[Terms]:
    # kernel terms of public inputs, all in ``ring``; negative exponents only if ``laurent``
    for poly in polys:
        if poly.variables != ring:
            raise RingMismatchError("Groebner inputs live in different rings")
        if not laurent and any(e < 0 for exps, _ in poly._terms for e in exps):
            raise DomainError("Groebner computations need nonnegative exponents")
    return [Terms(poly._terms) for poly in polys]


def _member(terms: Terms) -> Member:
    if not terms:
        raise DomainError("zero polynomial has no leading term")
    lead = max(terms)
    if not all(type(c) is int for c in terms.values()):
        d = _denominator(terms.values())
        terms = {e: c * d if type(c) is int else _narrow(c * d) for e, c in terms.items()}
    content = 0  # one gcd per term: gcd(*terms) grew the heap over a long run
    for c in terms.values():
        content = gcd(content, c) if type(c) is int else gcd(content, int(c.re), int(c.im))
    if type(terms[lead]) is int and terms[lead] < 0:
        content = -content
    if content != 1:
        scale = Fraction(1, content)
        terms = {e: c // content if type(c) is int else c * scale for e, c in terms.items()}
    return lead, terms


def _monic(member: Member) -> Member:
    lead, terms = member
    a = terms[lead]
    if a == 1:
        return member
    if all(type(c) is int for c in terms.values()):
        terms = {exps: Fraction(c, a) for exps, c in terms.items()}
    else:
        inverse = Fraction(1) / a
        terms = {exps: c * inverse for exps, c in terms.items()}
    terms[lead] = 1
    return lead, terms


def _cofactors(a, b):
    # (a', b') with a' * b == b' * a: a and b over their gcd when both are ints
    if type(a) is int and type(b) is int:
        g = gcd(a, b)
        return a // g, b // g
    return a, b


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
    """Full remainder of ``work`` (consumed) by the members, the first divisor
    in order taken at each step; work and remainder first scale by its cofactor."""
    remainder = Terms()
    while work:
        exps = max(work)
        coeff = work.pop(exps)
        for lead, g in divisors:
            if _divides(lead, exps):
                scale, coeff = _cofactors(g[lead], coeff)
                if scale != 1:
                    for part in (work, remainder):
                        for key in part:
                            part[key] *= scale
                _subtract(work, g, lead, tuple(map(sub, exps, lead)), coeff)
                break
        else:
            remainder[exps] = coeff
    return remainder


def _spoly(f: Member, g: Member) -> Terms:
    # b' * x^f_shift * f - a' * x^g_shift * g for leading coefficients a, b
    (f_lead, f_terms), (g_lead, g_terms) = f, g
    a, b = _cofactors(f_terms[f_lead], g_terms[g_lead])
    lcm = _lcm(f_lead, g_lead)
    f_shift = tuple(map(sub, lcm, f_lead))
    g_shift = tuple(map(sub, lcm, g_lead))
    work = Terms((tuple(map(add, e, f_shift)), b * c) for e, c in f_terms.items() if e != f_lead)
    _subtract(work, g_terms, g_lead, g_shift, a)
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


def _groebner(polys: Iterable[Terms], limit: int) -> list[Member]:
    """Primitive reduced lex basis, sorted by leading monomial."""
    members = sorted((_member(p) for p in polys if p), key=lambda m: m[0])
    if not members:
        return []
    if not any(members[0][0]):
        return [members[0]]
    active: list[int] = []
    pairs: list = []
    for new in range(len(members)):
        active, pairs = _update(members, active, pairs, new)
    steps = 0
    while pairs:
        steps += 1
        if steps > limit:
            raise ResourceLimitError(
                f"Groebner basis exceeded {limit} reduction steps with {len(active)} basis"
                f" members and {len(pairs)} pairs pending (set KCH_MAX_STEPS to raise)"
            )
        pair = min(pairs)
        pairs.remove(pair)
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
        _member(normal_form(Terms(terms), [o for o in basis if o[0] != lead]))
        for lead, terms in basis
    ]


def leading_term(poly: LaurentPolynomial) -> tuple[ExponentVector, Scalar]:
    """Leading term under plain lex on the declared variable order."""
    if poly.is_zero():
        raise DomainError("zero polynomial has no leading term")
    return max(poly.terms(), key=lambda term: term[0])


def normal_form(poly: LaurentPolynomial, basis: Sequence[LaurentPolynomial]) -> LaurentPolynomial:
    """Full remainder of multivariate division by the basis (deterministic);
    a Laurent ``poly`` keeps its terms with a negative exponent.  The pair loop
    passes kernel ``Terms`` (consumed) and members instead."""
    if not isinstance(poly, LaurentPolynomial):
        return _reduce(poly, basis)
    divisors = _checked(basis, poly.variables)
    if poly.is_zero() or not divisors:
        return poly
    divisors = [_monic(_member(g)) for g in divisors]
    return _make(poly.variables, _reduce(Terms(poly._terms), divisors))


def s_polynomial(f: LaurentPolynomial, g: LaurentPolynomial) -> LaurentPolynomial:
    """S-polynomial of the monic multiples of ``f`` and ``g`` (Laurent or not);
    the pair loop passes two basis members instead and gets ``Terms`` back."""
    if not isinstance(f, LaurentPolynomial):
        return _spoly(f, g)
    f_terms, g_terms = _checked([f, g], f.variables, laurent=True)
    return _make(f.variables, _spoly(_monic(_member(f_terms)), _monic(_member(g_terms))))


def reduced_groebner_basis(
    polys: Iterable[LaurentPolynomial],
    *,
    max_steps: int | None = None,
) -> list[LaurentPolynomial]:
    """Unique reduced lex Groebner basis, members monic, of the ideal the inputs generate."""
    limit = max_steps_limit(DEFAULT_MAX_STEPS, max_steps)
    polys = list(polys)
    ring = polys[0].variables if polys else ()
    return [_make(ring, _monic(m)[1]) for m in _groebner(_checked(polys, ring), limit)]


def ideal_contains_one(
    polys: Sequence[LaurentPolynomial],
    *,
    max_steps: int | None = None,
) -> bool:
    """True when the inputs generate the whole ring.

    Accepts arbitrary generators; the basis computation stops at the first
    nonzero constant remainder.
    """
    max_steps = max_steps_limit(DEFAULT_MAX_STEPS, max_steps)
    if any(not g.is_zero() and g.is_constant() for g in polys):
        return True
    basis = reduced_groebner_basis(polys, max_steps=max_steps)
    return any(g.is_constant() for g in basis)
