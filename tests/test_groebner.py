import random
import re
from fractions import Fraction
from math import gcd

import pytest

from kch import groebner
from kch.errors import DomainError, ResourceLimitError, RingMismatchError, max_steps_limit
from kch.groebner import (
    ideal_contains_one,
    leading_term,
    normal_form,
    reduced_groebner_basis,
    s_polynomial,
)
from kch.laurent import LaurentPolynomial, parse_polynomial
from kch.scalars import Scalar


def lp(text, ring):
    return parse_polynomial(text, ring)


def test_leading_term_is_plain_lex():
    ring = ("u", "X", "P")
    exps, coeff = leading_term(lp("X - P^2", ring))
    assert exps == (0, 1, 0)  # X beats P^2 when u > X > P
    exps, _ = leading_term(lp("u + X^5", ring))
    assert exps == (1, 0, 0)


def test_rejects_negative_exponents():
    ring = ("x", "y")
    with pytest.raises(DomainError):
        reduced_groebner_basis([lp("x^-1 + y", ring)])


def test_elimination_by_variable_order():
    # u is first, so the reduced basis separates a u-free relation
    ring = ("u", "X", "P")
    basis = reduced_groebner_basis([lp("u^2 - X", ring), lp("u - P", ring)])
    assert basis == [lp("X - P^2", ring), lp("u - P", ring)]


def test_univariate_gcd_behaviour():
    ring = ("x",)
    basis = reduced_groebner_basis([lp("x^2 - 1", ring), lp("x^3 - 1", ring)])
    assert basis == [lp("x - 1", ring)]


def test_contains_one():
    ring = ("x", "y")
    assert ideal_contains_one([lp("x", ring), lp("1 - x", ring)])
    assert not ideal_contains_one([lp("x", ring), lp("y", ring)])
    assert not ideal_contains_one([])


def test_normal_form_reduces_members_to_zero():
    ring = ("x", "y")
    gens = [lp("x^2 + y", ring), lp("x*y - 1", ring)]
    basis = reduced_groebner_basis(gens)
    for g in gens:
        assert normal_form(g, basis).is_zero()
    combo = gens[0] * lp("y^2 - 3", ring) + gens[1] * lp("x + y", ring)
    assert normal_form(combo, basis).is_zero()


def test_s_polynomial_of_coprime_leads():
    ring = ("x", "y")
    f = lp("x^2 + 1", ring)
    g = lp("y^3 + x", ring)
    s = s_polynomial(f, g)
    basis = reduced_groebner_basis([f, g])
    assert normal_form(s, basis).is_zero()


def test_reduced_basis_is_canonical_under_input_shuffles():
    rng = random.Random(99)
    ring = ("x", "y", "z")
    gens = [
        lp("x^2 - y", ring),
        lp("y^2 - z", ring),
        lp("x*y - z^2", ring),
    ]
    reference = reduced_groebner_basis(gens)
    for _ in range(6):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scaled = [g.scale(Scalar(rng.choice([1, 2, -3, 5]))) for g in shuffled]
        assert reduced_groebner_basis(scaled) == reference


def test_reduced_basis_properties_random():
    rng = random.Random(1234)
    ring = ("x", "y")

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = (rng.randint(0, 2), rng.randint(0, 2))
            terms[exps] = Scalar(rng.randint(-3, 3))
        p = LaurentPolynomial(ring, terms)
        return p

    for _ in range(25):
        gens = [p for p in (rand_poly() for _ in range(3)) if not p.is_zero()]
        basis = reduced_groebner_basis(gens)
        for g in gens:
            assert normal_form(g, basis).is_zero()
        # pairwise self-reducedness: no leading term divides another basis element's term
        for i, f in enumerate(basis):
            lt, coeff = leading_term(f)
            assert coeff == Scalar(1)
            for j, g in enumerate(basis):
                if i == j:
                    continue
                for exps, _ in g.terms():
                    assert not all(a <= b for a, b in zip(lt, exps))
        # Buchberger criterion: every S-polynomial reduces to zero
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert normal_form(s_polynomial(basis[i], basis[j]), basis).is_zero()


def test_zero_and_empty_inputs():
    ring = ("x",)
    assert reduced_groebner_basis([]) == []
    assert reduced_groebner_basis([LaurentPolynomial.zero(ring)]) == []


def test_step_cap(monkeypatch):
    ring = ("x", "y", "z")
    gens = [lp("x^2 - y*z", ring), lp("y^2 - x*z", ring), lp("z^2 - x*y", ring)]
    with pytest.raises(ResourceLimitError):
        reduced_groebner_basis(gens, max_steps=1)
    monkeypatch.setenv("KCH_MAX_STEPS", "1")
    with pytest.raises(ResourceLimitError):
        reduced_groebner_basis(gens)
    monkeypatch.delenv("KCH_MAX_STEPS")
    assert reduced_groebner_basis(gens)  # default budget is plenty


def test_step_cap_reader(monkeypatch):
    # one reader serves the skein and Groebner caps, each with its own default
    monkeypatch.delenv("KCH_MAX_STEPS", raising=False)
    assert max_steps_limit(20000) == 20000 and max_steps_limit(7) == 7
    monkeypatch.setenv("KCH_MAX_STEPS", "12")
    assert max_steps_limit(20000) == 12
    # a given max_steps= wins, and the environment is then not read
    assert max_steps_limit(20000, 5) == 5
    for raw in ("many", "0", "-3"):
        monkeypatch.setenv("KCH_MAX_STEPS", raw)
        with pytest.raises(DomainError, match="KCH_MAX_STEPS"):
            max_steps_limit(20000)
        assert max_steps_limit(20000, 5) == 5


@pytest.mark.parametrize("raw", ["1_000", " \u0663 "], ids=["underscore", "arabic-indic-3"])
def test_step_cap_reader_takes_only_ascii_digits(monkeypatch, raw):
    # ``int`` alone would read these as 1000 and 3
    monkeypatch.setenv("KCH_MAX_STEPS", raw)
    message = f"^KCH_MAX_STEPS must be an integer, got {re.escape(repr(raw))}$"
    with pytest.raises(DomainError, match=message):
        max_steps_limit(20000)


def test_step_cap_reader_takes_a_sign_and_ascii_space(monkeypatch):
    for raw, limit in (("+5", 5), (" 7 ", 7)):
        monkeypatch.setenv("KCH_MAX_STEPS", raw)
        assert max_steps_limit(20000) == limit


# -- an independent oracle: textbook Buchberger over Scalar ---------------------
#
# Every pair is reduced, with no criterion, by division written on the public
# LaurentPolynomial arithmetic; the basis is then minimalised and inter-reduced
# until stable.  It shares no code with the kernel of kch.groebner.


def textbook_lead(poly):
    return max(poly.terms(), key=lambda term: term[0])


def textbook_monic(poly):
    return poly.scale(textbook_lead(poly)[1].inverse())


def textbook_normal_form(poly, basis):
    remainder = LaurentPolynomial.zero(poly.variables)
    while not poly.is_zero():
        exps, coeff = textbook_lead(poly)
        for g in basis:
            g_exps, g_coeff = textbook_lead(g)
            if all(a <= b for a, b in zip(g_exps, exps)):
                shift = tuple(a - b for a, b in zip(exps, g_exps))
                poly = poly - g.shift(shift).scale(coeff / g_coeff)
                break
        else:
            term = LaurentPolynomial.monomial(poly.variables, exps, coeff)
            remainder, poly = remainder + term, poly - term
    return remainder


def textbook_s_polynomial(f, g):
    f_exps, g_exps = textbook_lead(f)[0], textbook_lead(g)[0]
    lcm = tuple(max(a, b) for a, b in zip(f_exps, g_exps))
    left = textbook_monic(f).shift(tuple(a - b for a, b in zip(lcm, f_exps)))
    right = textbook_monic(g).shift(tuple(a - b for a, b in zip(lcm, g_exps)))
    return left - right


def textbook_basis(gens, counter=None):
    basis = [textbook_monic(g) for g in gens if not g.is_zero()]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        if counter is not None:
            counter.append((i, j))
        remainder = textbook_normal_form(textbook_s_polynomial(basis[i], basis[j]), basis)
        if not remainder.is_zero():
            basis.append(textbook_monic(remainder))
            pairs += [(k, len(basis) - 1) for k in range(len(basis) - 1)]
    leads = [textbook_lead(g)[0] for g in basis]
    minimal = [
        g
        for k, g in enumerate(basis)
        if not any(
            l != k and all(a <= b for a, b in zip(leads[l], leads[k]))
            and (leads[l] != leads[k] or l < k)
            for l in range(len(basis))
        )
    ]
    while True:
        reduced = [
            textbook_monic(textbook_normal_form(g, minimal[:k] + minimal[k + 1 :]))
            for k, g in enumerate(minimal)
        ]
        if reduced == minimal:
            return sorted(reduced, key=lambda g: textbook_lead(g)[0])
        minimal = reduced


MONOMIALS = {
    2: [(a, b) for a in range(3) for b in range(3) if a + b <= 2],
    3: [(a, b, c) for a in range(3) for b in range(3) for c in range(3) if a + b + c <= 2],
}


def random_ideal(rng):
    """At most 3 generators of degree <= 2 in 2 or 3 variables; about a third
    of the ideals have imaginary coefficients."""
    width = rng.choice((2, 3))
    ring = ("x", "y", "z")[:width]
    imaginary = rng.random() < 0.3
    gens = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        for exps in rng.sample(MONOMIALS[width], rng.randint(1, 3)):
            re = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            im = rng.randint(-2, 2) if imaginary else 0
            terms[exps] = Scalar(re, im)
        gens.append(LaurentPolynomial(ring, terms))
    return gens


def seeded_ideals(count=150):
    rng = random.Random(20261018)
    return [random_ideal(rng) for _ in range(count)]


def assert_scalar_coefficients(polys):
    for poly in polys:
        for _, coeff in poly.terms():
            assert type(coeff) is Scalar


def test_basis_matches_textbook_oracle():
    imaginary = 0
    for gens in seeded_ideals():
        basis = reduced_groebner_basis(gens)
        expected = textbook_basis(gens)
        assert basis == expected
        assert [str(g) for g in basis] == [str(g) for g in expected]
        assert [repr(tuple(g.terms())) for g in basis] == [
            repr(tuple(g.terms())) for g in expected
        ]
        assert_scalar_coefficients(basis)
        imaginary += any(c.im for g in gens for _, c in g.terms())
    assert imaginary >= 20


def test_normal_form_and_s_polynomial_match_textbook_oracle():
    for gens in seeded_ideals(60):
        gens = [g for g in gens if not g.is_zero()]
        for f in gens:
            for g in gens:
                s = s_polynomial(f, g)
                assert s == textbook_s_polynomial(f, g)
                assert_scalar_coefficients([s])
            square = f * f
            remainder = normal_form(square, gens)
            assert remainder == textbook_normal_form(square, gens)
            assert_scalar_coefficients([remainder])


def test_ideal_contains_one_agrees_with_the_basis():
    units = 0
    ideals = seeded_ideals()
    for gens in ideals:
        answer = ideal_contains_one(gens)
        assert answer == any(g.is_constant() for g in reduced_groebner_basis(gens))
        assert answer == any(g.is_constant() for g in textbook_basis(gens))
        units += answer
    assert 20 <= units <= len(ideals) - 20


def test_criteria_skip_pairs(monkeypatch):
    ring = ("x", "y", "z")
    gens = [lp("x^2 - y*z", ring), lp("y^2 - x*z", ring), lp("z^2 - x*y", ring)]
    reduced = []
    original = groebner._spoly
    monkeypatch.setattr(groebner, "_spoly", lambda f, g: reduced.append(1) or original(f, g))
    basis = reduced_groebner_basis(gens)
    textbook_pairs = []
    assert basis == textbook_basis(gens, textbook_pairs)
    # the textbook loop reduces all 6 pairs; the criteria leave 4
    assert len(reduced) == 4 and len(textbook_pairs) == 6


def test_pair_loop_reduces_through_the_public_names(monkeypatch):
    # instrumentation that wraps s_polynomial and normal_form must see every
    # S-polynomial the loop forms and every reduction it makes
    ring = ("x", "y", "z")
    gens = [lp("x^2 - y*z", ring), lp("y^2 - x*z", ring), lp("z^2 - x*y", ring)]
    formed, reduced = [], []
    s_original, nf_original = groebner.s_polynomial, groebner.normal_form

    def spoly(f, g):
        formed.append(s_original(f, g))
        return formed[-1]

    def reduce(poly, basis):
        reduced.append((poly, nf_original(poly, basis)))
        return reduced[-1][1]

    monkeypatch.setattr(groebner, "s_polynomial", spoly)
    monkeypatch.setattr(groebner, "normal_form", reduce)
    basis = reduced_groebner_basis(gens)
    monkeypatch.undo()
    assert basis == reduced_groebner_basis(gens)
    # 4 S-polynomials, each reduced once, then one tail reduction per member
    assert len(formed) == 4
    assert all(poly is spoly for (poly, _), spoly in zip(reduced, formed))
    assert len(reduced) == 4 + len(basis)


# -- public inputs are checked; the kernel stays fraction-free --------------------


def test_public_names_reject_mixed_rings():
    f = lp("x*y + 1", ("x", "y"))
    with pytest.raises(RingMismatchError):
        normal_form(f, [lp("z - 2", ("z",))])
    with pytest.raises(RingMismatchError):
        s_polynomial(f, lp("z - 2", ("z",)))
    with pytest.raises(RingMismatchError):
        reduced_groebner_basis([f, lp("z - 2", ("z",))])


def test_normal_form_rejects_laurent_divisors():
    ring = ("x", "y")
    with pytest.raises(DomainError, match="nonnegative exponents"):
        normal_form(lp("x*y + 1", ring), [lp("x - y^-1", ring)])
    # a Laurent dividend keeps the terms no divisor can reach
    assert normal_form(lp("x^2 + x^-1*y", ring), [lp("x - 2", ring)]) == lp("4 + x^-1*y", ring)


def test_step_cap_quotes_the_basis_and_pending_pairs():
    ring = ("x", "y", "z")
    gens = [lp("x^2 - y*z", ring), lp("y^2 - x*z", ring), lp("z^2 - x*y", ring)]
    with pytest.raises(ResourceLimitError) as raised:
        reduced_groebner_basis(gens, max_steps=1)
    assert str(raised.value) == (
        "Groebner basis exceeded 1 reduction steps with 4 basis members and 3 pairs"
        " pending (set KCH_MAX_STEPS to raise)"
    )


def _integral_parts(coeff):
    """The parts of a kernel coefficient, which must hold no fraction."""
    if type(coeff) is int:
        return [coeff]
    assert type(coeff) is Scalar and coeff.re.denominator == coeff.im.denominator == 1, coeff
    return [coeff.re.numerator, coeff.im.numerator]


def test_kernel_members_are_primitive_integer_polynomials(monkeypatch):
    members, values = [], []

    def record(name, into):
        original = getattr(groebner, name)
        monkeypatch.setattr(groebner, name, lambda *args: into.append(original(*args)) or into[-1])

    record("_member", members)
    record("s_polynomial", values)
    record("normal_form", values)
    imaginary = 0
    for gens in seeded_ideals() + [gens for gens, _ in sympy_cases(10)]:
        reduced_groebner_basis(gens)
    for lead, terms in members:
        parts = [p for c in terms.values() for p in _integral_parts(c)]
        assert lead == max(terms) and gcd(*parts) == 1
        # members store a real coefficient as an int
        assert all(type(c) is int or c.im for c in terms.values())
        if type(terms[lead]) is int:
            assert terms[lead] > 0
        imaginary += type(terms[lead]) is Scalar
    # S-polynomials and remainders in the pair loop never hold a fraction
    for value in values:
        assert all(_integral_parts(c) for c in value.values())
    assert len(members) > 500 and imaginary >= 20 and len(values) > 500


# -- a second oracle: sympy's lex Groebner basis over QQ --------------------------


def sympy_cases(count=40):
    """Ideals in 3 or 4 variables whose coefficients have multi-digit numerators
    and denominators, with their rings."""
    rng = random.Random(4242)
    cases = []
    for _ in range(count):
        ring = ("w", "x", "y", "z")[: rng.choice((3, 4))]
        gens = []
        for _ in range(rng.randint(2, 3)):
            terms = {}
            for _ in range(rng.randint(2, 3)):
                exps = [0] * len(ring)
                for _ in range(rng.randint(0, 2)):
                    exps[rng.randrange(len(ring))] += 1
                numerator = rng.choice((-1, 1)) * rng.randint(10, 999)
                terms[tuple(exps)] = Scalar(Fraction(numerator, rng.randint(10, 999)))
            gens.append(LaurentPolynomial(ring, terms))
        cases.append((gens, ring))
    return cases


def test_basis_matches_sympy_lex():
    sympy = pytest.importorskip("sympy")

    def to_sympy(poly, symbols):
        terms = {exps: sympy.Rational(c.re.numerator, c.re.denominator)
                 for exps, c in poly.terms()}
        return sympy.Poly.from_dict(terms, *symbols, domain="QQ")

    def from_sympy(poly, ring):
        terms = {exps: Scalar(Fraction(int(c.numerator), int(c.denominator)))
                 for exps, c in poly.terms()}
        return LaurentPolynomial(ring, terms)

    sizes = []
    for gens, ring in sympy_cases():
        symbols = sympy.symbols(ring)
        expected = sympy.groebner([to_sympy(g, symbols) for g in gens], *symbols, order="lex")
        expected = [from_sympy(g, ring) for g in expected.polys]
        expected.sort(key=lambda g: leading_term(g)[0])
        assert reduced_groebner_basis(gens) == expected
        sizes.append(len(expected))
    assert sum(size > 1 for size in sizes) >= 25


# -- packed exponents, their cap, and the kernel's counters ----------------------


CYCLIC = ("x^2 - y*z", "y^2 - x*z", "z^2 - x*y")


def test_contains_one_reads_an_iterator_once():
    ring = ("x", "y")
    assert ideal_contains_one(iter([lp("x - 1", ring), lp("x - 2", ring)]))
    assert not ideal_contains_one(iter([lp("x - 1", ring), lp("y - 2", ring)]))
    assert ideal_contains_one(lp(t, ring) for t in ("x*y - 1", "x", "y + 3"))


def test_contains_one_checks_inputs_that_hold_a_constant():
    # a constant generator is found by the pair loop, after the checks
    with pytest.raises(RingMismatchError):
        ideal_contains_one([lp("1", ("x",)), lp("y", ("y",))])
    with pytest.raises(DomainError, match="nonnegative exponents"):
        ideal_contains_one([lp("2", ("x",)), lp("x^-1", ("x",))])
    assert ideal_contains_one([lp("x", ("x",)), lp("3", ("x",))])
    assert ideal_contains_one([LaurentPolynomial.one(())])
    assert not ideal_contains_one([LaurentPolynomial.zero(("x",))])


def test_counters_pin_the_cyclic_ideal(groebner_counters):
    ring = ("x", "y", "z")
    gens = [lp(t, ring) for t in CYCLIC]
    reduced_groebner_basis(gens)
    # 6 pairs considered: 2 dropped by the product criterion, 4 reduced,
    # 3 of them to zero; one reduction step each, and none interreducing
    assert groebner_counters == {
        "pairs_considered": 6,
        "mf_rules": 0,
        "chain_criterion": 0,
        "product_criterion": 2,
        "pairs_reduced": 4,
        "reduced_to_zero": 3,
        "reduction_steps": 3,
    }
    groebner_counters.clear()
    assert not ideal_contains_one(gens)
    assert groebner_counters["pairs_considered"] == 6 and groebner_counters["pairs_reduced"] == 4


def test_counters_add_up_over_the_seeded_ideals(groebner_counters):
    for gens in seeded_ideals(60):
        reduced_groebner_basis(gens)
    counts = groebner_counters
    dropped = counts["mf_rules"] + counts["chain_criterion"] + counts["product_criterion"]
    # a constant remainder ends the loop with pairs still pending
    assert counts["pairs_reduced"] + dropped <= counts["pairs_considered"]
    assert 0 < counts["reduced_to_zero"] < counts["pairs_reduced"] <= counts["reduction_steps"]
    assert all(counts[k] > 0 for k in ("mf_rules", "chain_criterion", "product_criterion"))


def test_counters_are_added_when_the_step_cap_raises(groebner_counters):
    gens = [lp(t, ("x", "y", "z")) for t in CYCLIC]
    with pytest.raises(ResourceLimitError):
        reduced_groebner_basis(gens, max_steps=1)
    assert groebner_counters["pairs_reduced"] == 1 and groebner_counters["pairs_considered"] == 6


def test_packed_masks_agree_with_exponent_tuples():
    rng = random.Random(17)
    cap = groebner.EXPONENT_CAP
    for _ in range(3000):
        ring = ("x", "y", "z", "u", "v")[: rng.randint(1, 5)]
        draws = (0, 1, 2, cap - 1, cap, rng.randint(0, cap))
        a, b = [[rng.choice(draws) for _ in ring] for _ in "ab"]
        (pa, pb), bias = groebner._checked(
            [LaurentPolynomial(ring, {tuple(e): Scalar(1)}) for e in (a, b)], ring
        )
        (ka,), (kb,) = pa, pb
        guard = groebner._guard(max(ka, kb))
        assert groebner._divides(ka, kb, guard) == all(x <= y for x, y in zip(a, b))
        lcm = groebner._lcm(ka, kb, guard)
        assert groebner._unpacked({lcm: 1}, bias) == {tuple(map(max, a, b)): 1}
        assert (ka < kb) == (a < b)
        assert (lcm == ka + kb) == (not any(map(min, a, b)))


def test_exponents_up_to_the_cap_are_exact():
    ring = ("x", "y", "z")
    basis = reduced_groebner_basis([lp("x - y^200", ring), lp("y - z^200", ring)])
    assert basis == [lp("y - z^200", ring), lp("x - z^40000", ring)]
    top = f"z^{groebner.EXPONENT_CAP}"
    assert reduced_groebner_basis([lp(f"x - {top}", ring)]) == [lp(f"x - {top}", ring)]
    f, g = lp(f"x^2 + {top}", ring), lp("x*y - z^5", ring)
    assert s_polynomial(f, g) == textbook_s_polynomial(f, g)


def test_exponents_past_the_cap_raise():
    ring = ("x", "y", "z")
    cap = groebner.EXPONENT_CAP
    message = f"exponent {{}} exceeds the Groebner exponent cap {cap}"
    # an input exponent past the cap
    with pytest.raises(ResourceLimitError, match=message.format(cap + 1)):
        reduced_groebner_basis([lp(f"x - y^{cap + 1}", ring)])
    with pytest.raises(ResourceLimitError, match=message.format(10**6)):
        ideal_contains_one([lp("x - y^1000000", ring), lp("y - 2", ring)])
    # a basis whose reduction forms z^65700 on the way to z^90000
    with pytest.raises(ResourceLimitError, match=message.format(65700)):
        reduced_groebner_basis([lp("x - y^300", ring), lp("y - z^300", ring)])
    with pytest.raises(ResourceLimitError, match=message.format(65700)):
        ideal_contains_one([lp("x - y^300", ring), lp("y - z^300", ring), lp("x - 2", ring)])
    # an S-polynomial term y^70000 and a remainder term z^66000
    with pytest.raises(ResourceLimitError, match=message.format(70000)):
        s_polynomial(lp("x^3 + y^60000", ring), lp("y^10000 + 1", ring))
    with pytest.raises(ResourceLimitError, match=message.format(66000)):
        normal_form(lp("x^2", ring), [lp("x - z^33000", ring)])


def test_laurent_inputs_keep_negative_exponents_within_the_cap():
    ring = ("x", "y")
    f, g = lp("x^-3*y + 2", ring), lp("x*y^-2 - y", ring)
    assert s_polynomial(f, g) == textbook_s_polynomial(f, g)
    dividend = lp("x^3*y^-5 + x^-40000 + y^20000", ring)
    divisors = [lp("x - 3", ring), lp("y^2 + x", ring)]
    assert normal_form(dividend, divisors) == textbook_normal_form(dividend, divisors)
    # exponents are counted from the least one of each variable
    with pytest.raises(ResourceLimitError, match="exponent 70000 exceeds"):
        normal_form(lp("x^-40000 + x^30000", ring), [lp("x - 3", ring)])
