import random

import pytest

from kch.errors import DomainError, ResourceLimitError, max_steps_limit
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
    for raw in ("many", "0", "-3"):
        monkeypatch.setenv("KCH_MAX_STEPS", raw)
        with pytest.raises(DomainError, match="KCH_MAX_STEPS"):
            max_steps_limit(20000)
