"""Buchberger's algorithm, fraction-free over the Gaussian integers.

Polynomials are ``LaurentPolynomial`` values restricted to nonnegative
exponents, under plain lex order in declared variable order (first variable
most significant).  That is an elimination order: by the elimination theorem
(Cox, Little & O'Shea, ch. 3) the members of a Groebner basis that hold only a
trailing block of variables form a Groebner basis of the elimination ideal.
``_eliminate`` therefore stops at the minimal basis and hands on just that
block, for the caller to reduce as a basis of its own.

The kernel runs on packed monomials (Bachmann & Schonemann 1998, Monagan &
Pearce 2007).  The public functions pack each input exponent vector once into
an int of ``FIELD_BITS``-bit fields, the first variable's most significant, and
unpack each result term once for the polynomial canonicaliser.  Lex order is
int order and a shift is an int add.  The top bit of each field is a guard
bit, clear in every key the kernel reads: divisibility is one masked subtract,
``((b | G) - a) & G == G`` for the guard bits G, and the lcm a few masks.  An
exponent is capped at ``EXPONENT_CAP`` (2^16 - 1).  An input past it, or a
term the kernel forms past it (its guard bit is seen when a reduction pops it
or a result is unpacked), raises ``ResourceLimitError`` naming the exponent
and the cap, so no key ever carries into a neighbouring field.  A Laurent
dividend of ``normal_form`` and the inputs of ``s_polynomial`` keep their
negative exponents: each field is then biased by its variable's least
exponent (the cap bounds exponents counted from there), and the masks and
shifts do not see the bias.

The pair loop forms and reduces each S-polynomial through the public
``s_polynomial`` and ``normal_form``, which take kernel values as well, so a
wrapper around those two names sees every reduction the algorithm makes.
The kernel is fraction-free, as in Bareiss (1968): a basis member is
primitive (denominators cleared once, the gcd of every real and imaginary
part divided out, a real lead made positive), and S-polynomials and
reductions scale by leading coefficients over their gcd, so coefficients stay
``int`` (``Scalar`` with integral parts when imaginary).  Members are made
monic once, on leaving the kernel.  Pairs are taken by the normal strategy
(smallest lcm first) and filtered by the Gebauer-Moller update (1988): the
product criterion, the chain criterion on old pairs, and the M and F rules on
new ones.  A nonzero constant remainder ends the loop at once, since the
reduced basis of the unit ideal is ``[1]``; ``ideal_contains_one`` returns
there or after the loop, without reducing the basis.  ``GROEBNER_COUNTERS``
sums the work of every basis computation, added once per computation.

The pair loop is capped by ``max_steps=``, else by the ``KCH_MAX_STEPS``
environment variable (default 20000), both read by ``errors.max_steps_limit``
before any work; it raises ``ResourceLimitError`` beyond the cap, which
counts the S-pairs actually reduced after the criteria have dropped the rest.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd
from operator import add, lshift
from typing import Iterable, Sequence

from .errors import DomainError, ResourceLimitError, RingMismatchError, check_count, max_steps_limit
from .laurent import ExponentVector, LaurentPolynomial, _denominator, _make, _narrow
from .scalars import Scalar

DEFAULT_MAX_STEPS = 20000

# bits of one packed exponent field, its top bit the guard
FIELD_BITS = 17
EXPONENT_CAP = (1 << FIELD_BITS - 1) - 1
_FIELD = (1 << FIELD_BITS) - 1

# work summed over all basis computations: "pairs_considered"; those dropped
# by the "mf_rules", the "chain_criterion" and the "product_criterion";
# "pairs_reduced", and "reduced_to_zero" among them; "reduction_steps" (one
# divisor subtracted each), the final interreduction's included
GROEBNER_COUNTERS: Counter = Counter()


class Terms(dict):
    """A kernel polynomial: packed exponents -> nonzero int, ``Fraction`` or
    ``Scalar``; a remainder also keeps the reduction ``steps`` that made it."""

    __slots__ = ("steps",)

    def is_zero(self) -> bool:
        return not self


def _exponent(value: int) -> int:
    return check_count(
        value, "exponent", least=None, cap=EXPONENT_CAP, cap_name="Groebner exponent cap"
    )


def _past_cap(key: int):
    # raises for a key with a guard bit set, naming the greatest field
    _exponent(max(key >> s & _FIELD for s in range(0, key.bit_length(), FIELD_BITS)))


def _guard(key: int) -> int:
    # the guard bits of every field up to the one that holds key's top bit
    fields = key.bit_length() // FIELD_BITS + 1
    return ((1 << FIELD_BITS * fields) - 1) // _FIELD << FIELD_BITS - 1


def _checked(polys: Sequence[LaurentPolynomial], ring: tuple, laurent=0) -> tuple[list, tuple]:
    """Packed kernel terms of public inputs, all in ``ring``, and the bias of
    each field; only the first ``laurent`` inputs may hold negative exponents."""
    if any(poly.variables != ring for poly in polys):
        raise RingMismatchError("Groebner inputs live in different rings")
    columns = list(zip(*(e for poly in polys for e, _ in poly._terms))) or [(0,)] * len(ring)
    bias = tuple(-min(0, *column) for column in columns)
    if any(bias) and any(min(e, default=0) < 0 for p in polys[laurent:] for e, _ in p._terms):
        raise DomainError("Groebner computations need nonnegative exponents")
    _exponent(max(map(add, map(max, columns), bias), default=0))
    shifts = range(FIELD_BITS * (len(ring) - 1), -1, -FIELD_BITS)
    offset = sum(map(lshift, bias, shifts))
    terms = [Terms({sum(map(lshift, e, shifts)) + offset: c for e, c in p._terms}) for p in polys]
    return terms, bias


def _unpacked(terms: Terms, bias: tuple) -> dict:
    guard = _guard(max(terms, default=0))
    for key in terms:
        if key & guard:
            _past_cap(key)
    shifts = list(zip(range(FIELD_BITS * (len(bias) - 1), -1, -FIELD_BITS), bias))
    return {tuple([(k >> s & _FIELD) - b for s, b in shifts]): c for k, c in terms.items()}


def _member(terms: Terms) -> tuple:
    # a basis member: (leading key, primitive terms)
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
        terms = {
            e: c // content if type(c) is int else c * Fraction(1, content)
            for e, c in terms.items()
        }
    return lead, terms


def _monic(member: tuple) -> tuple:
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


def _divides(a: int, b: int, guard: int) -> bool:
    return (b | guard) - a & guard == guard


def _lcm(a: int, b: int, guard: int) -> int:
    # the guard bits of (a | guard) - b mark the fields where a >= b
    marks = (a | guard) - b & guard
    mask = marks - (marks >> FIELD_BITS - 1)
    return a & mask | b & ~mask


def _subtract(work: Terms, terms: dict, lead: int, shift: int, factor):
    # work -= factor * x^shift * (terms less their lead), in place
    for exps, coeff in terms.items():
        if exps != lead:
            key = exps + shift
            total = work.get(key, 0) - factor * coeff
            if total:
                work[key] = total
            else:
                del work[key]


def _reduce(work: Terms, divisors: Sequence[tuple]) -> Terms:
    """Full remainder of ``work`` (consumed) by the members, the first divisor
    in order taken at each step; work and remainder first scale by its cofactor."""
    remainder = Terms()
    steps = 0
    if work:
        # every later term is below the first, so a lead above it divides none
        top = max(work)
        guard = _guard(top)
        divisors = [m for m in divisors if m[0] <= top]
    while work:
        exps = max(work)
        if exps & guard:
            _past_cap(exps)
        coeff = work.pop(exps)
        marked = exps | guard
        for lead, g in divisors:
            if marked - lead & guard == guard:
                steps += 1
                scale, coeff = _cofactors(g[lead], coeff)
                if scale != 1:
                    for part in (work, remainder):
                        for key in part:
                            part[key] *= scale
                _subtract(work, g, lead, exps - lead, coeff)
                break
        else:
            remainder[exps] = coeff
    remainder.steps = steps
    return remainder


def _spoly(f: tuple, g: tuple) -> Terms:
    # b' * x^f_shift * f - a' * x^g_shift * g for leading coefficients a, b
    (f_lead, f_terms), (g_lead, g_terms) = f, g
    a, b = _cofactors(f_terms[f_lead], g_terms[g_lead])
    lcm = _lcm(f_lead, g_lead, _guard(max(f_lead, g_lead)))
    work = Terms((e + lcm - f_lead, b * c) for e, c in f_terms.items() if e != f_lead)
    _subtract(work, g_terms, g_lead, lcm - g_lead, a)
    return work


def _update(members: list, active: list, pairs: list, new: int, guard: int, counts: Counter):
    """Gebauer-Moller update: the active members and pending pairs once
    member ``new`` joins.  A pair is ``(lcm, i, j)`` with ``i < j``; two
    leads are coprime when their lcm is their product."""
    h = members[new][0]
    candidates = [(_lcm(members[g][0], h, guard), g) for g in active]
    chosen = []
    for k, (lcm, g) in enumerate(candidates):
        # M and F: drop a pair when the lcm of another new pair, not yet
        # dropped, divides its lcm; coprime pairs stay here as witnesses
        marked = lcm | guard
        others = candidates[k + 1 :] + chosen
        if lcm == members[g][0] + h or not any(marked - m & guard == guard for m, _ in others):
            chosen.append((lcm, g))
    # chain criterion on the old pairs, then the product criterion on the new
    kept = [
        (lcm, i, j)
        for lcm, i, j in pairs
        if not _divides(h, lcm, guard)
        or _lcm(members[i][0], h, guard) == lcm
        or _lcm(members[j][0], h, guard) == lcm
    ]
    fresh = [(lcm, g, new) for lcm, g in chosen if lcm != members[g][0] + h]
    counts["pairs_considered"] += len(candidates)
    counts["mf_rules"] += len(candidates) - len(chosen)
    counts["chain_criterion"] += len(pairs) - len(kept)
    counts["product_criterion"] += len(chosen) - len(fresh)
    return [g for g in active if not _divides(h, members[g][0], guard)] + [new], kept + fresh


def _groebner(polys: Iterable[Terms], limit: int, reduced=True) -> list[tuple]:
    """Primitive lex basis sorted by leading monomial: reduced, or when
    ``reduced`` is false as the pair loop leaves it (a constant alone if found)."""
    members = sorted((_member(p) for p in polys if p), key=lambda m: m[0])
    if not members or not members[0][0]:
        return members[:1]
    guard = _guard(members[-1][0])  # every later key lies in the largest lead's fields
    active: list[int] = []
    pairs: list = []
    counts: Counter = Counter()
    try:
        for new in range(len(members)):
            active, pairs = _update(members, active, pairs, new, guard, counts)
        while pairs:
            if counts["pairs_reduced"] == limit:
                raise ResourceLimitError(
                    f"Groebner basis exceeded {limit} reduction steps with {len(active)} basis"
                    f" members and {len(pairs)} pairs pending (set KCH_MAX_STEPS to raise)"
                )
            pair = min(pairs)
            pairs.remove(pair)
            _, i, j = pair
            spoly = s_polynomial(members[i], members[j])
            remainder = normal_form(spoly, [members[g] for g in active])
            counts["pairs_reduced"] += 1
            counts["reduced_to_zero"] += not remainder
            counts["reduction_steps"] += remainder.steps
            if remainder:
                members.append(_member(remainder))
                if not members[-1][0]:
                    return [members[-1]]
                active, pairs = _update(members, active, pairs, len(members) - 1, guard, counts)
        basis = sorted((members[g] for g in active), key=lambda m: m[0])
        if not reduced:
            return basis
        # reduce each tail of the minimal basis against the others once
        basis = _minimal(basis)
        tails = [normal_form(Terms(t), [o for o in basis if o[0] != lead]) for lead, t in basis]
        counts["reduction_steps"] += sum(tail.steps for tail in tails)
        return [_member(tail) for tail in tails]
    finally:
        GROEBNER_COUNTERS.update(counts)


def _minimal(basis: list) -> list:
    # the members of a sorted basis whose lead no smaller lead divides
    guard, leads = _guard(basis[-1][0]), [lead for lead, _ in basis]
    return [m for k, m in enumerate(basis) if not any(_divides(o, m[0], guard) for o in leads[:k])]


def _eliminate(polys: list, block: tuple, limit: int) -> tuple[int, list]:
    """The size of the minimal basis of the ideal the nonnegative inputs
    generate, and, unreduced, its members in ``block`` (the ring's trailing
    variables) alone: their leads are below the fields of every other variable."""
    basis = _minimal(_groebner(_checked(polys, polys[0].variables)[0], limit, False))
    kept = [t for lead, t in basis if lead < 1 << FIELD_BITS * len(block)]
    return len(basis), [_make(block, _unpacked(t, (0,) * len(block))) for t in kept]


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
    (work, *divisors), bias = _checked([poly, *basis], poly.variables, laurent=1)
    if poly.is_zero() or not divisors:
        return poly
    divisors = [_monic(_member(g)) for g in divisors]
    return _make(poly.variables, _unpacked(_reduce(work, divisors), bias))


def s_polynomial(f: LaurentPolynomial, g: LaurentPolynomial) -> LaurentPolynomial:
    """S-polynomial of the monic multiples of ``f`` and ``g`` (Laurent or not);
    the pair loop passes two basis members instead and gets ``Terms`` back."""
    if not isinstance(f, LaurentPolynomial):
        return _spoly(f, g)
    (f_terms, g_terms), bias = _checked([f, g], f.variables, laurent=2)
    spoly = _spoly(_monic(_member(f_terms)), _monic(_member(g_terms)))
    return _make(f.variables, _unpacked(spoly, bias))


def reduced_groebner_basis(
    polys: Iterable[LaurentPolynomial], *, max_steps: int | None = None
) -> list[LaurentPolynomial]:
    """Unique reduced lex Groebner basis, members monic, of the ideal the inputs generate."""
    limit = max_steps_limit(DEFAULT_MAX_STEPS, max_steps)
    polys = list(polys)
    ring = polys[0].variables if polys else ()
    terms, bias = _checked(polys, ring)
    return [_make(ring, _unpacked(_monic(m)[1], bias)) for m in _groebner(terms, limit)]


def ideal_contains_one(
    polys: Iterable[LaurentPolynomial], *, max_steps: int | None = None
) -> bool:
    """True when the inputs (any iterable of generators) generate the whole
    ring; the pair loop stops at the first nonzero constant remainder."""
    limit = max_steps_limit(DEFAULT_MAX_STEPS, max_steps)
    polys = list(polys)
    basis = _groebner(_checked(polys, polys[0].variables if polys else ())[0], limit, False)
    return bool(basis) and not basis[0][0]
