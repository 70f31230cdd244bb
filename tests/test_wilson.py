import cmath
import random
from fractions import Fraction

import pytest

from kch.cyclotomic import CyclotomicField, cyclotomic_polynomial
from kch.errors import DomainError, ResourceLimitError
from kch.homfly import BUNDLED_DIAGRAMS, homfly
from kch.pd import parse_pd
from kch.wilson import (
    FLOAT_TOLERANCE,
    MAX_LEVEL,
    wilson_exact,
    wilson_loop,
    wilson_loop_float,
)

# closure of the 3-strand braid word -2 -2 -2 1 -1 1 -2 1
BRAID_CLOSURE = (
    "X[3,5,4,2];X[5,7,6,4];X[7,9,8,6];X[1,8,11,10];X[11,13,12,10];X[12,13,15,14];"
    "X[9,3,16,15];X[14,16,2,1]"
)


def bundled(name):
    return parse_pd(BUNDLED_DIAGRAMS[name])


# -- cyclotomic arithmetic -----------------------------------------------------


def test_cyclotomic_polynomial_degrees():
    # degree is Euler phi(n)
    expected = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 8: 4, 9: 6, 10: 4, 12: 4}
    for n, degree in expected.items():
        poly = cyclotomic_polynomial(n)
        assert len(poly) - 1 == degree, n


def test_cyclotomic_polynomial_known_cases():
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(2) == (Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert cyclotomic_polynomial(6) == (Fraction(1), Fraction(-1), Fraction(1))


def test_zeta_has_exact_order():
    field = CyclotomicField(12)
    z = field.zeta(1)
    acc = field.one()
    seen = set()
    for k in range(12):
        seen.add(acc)
        acc = acc * z
    assert acc == field.one()
    assert len(seen) == 12


def test_field_inverse_random():
    rng = random.Random(17)
    field = CyclotomicField(10)
    for _ in range(40):
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(field.degree)]
        elem = field.element(coeffs)
        if elem == field.zero():
            continue
        assert elem * elem.inverse() == field.one()


def test_imaginary_unit():
    field = CyclotomicField(8)
    i = field.imaginary_unit()
    assert i * i == field.rational(-1)
    with pytest.raises(DomainError):
        CyclotomicField(6).imaginary_unit()


def test_to_complex_agrees_with_root_of_unity():
    field = CyclotomicField(7)
    for k in range(7):
        approx = field.zeta(k).to_complex()
        exact = cmath.exp(2j * cmath.pi * k / 7)
        assert abs(approx - exact) < 1e-12


# -- Wilson loops --------------------------------------------------------------


def test_unknot_quantum_dimension():
    unknot = bundled("unknot")
    for N in range(1, 5):
        for k in range(1, 7):
            value = wilson_loop(unknot, N, k)
            angle = cmath.pi / (k + N)
            expected = cmath.sin(N * angle) / cmath.sin(angle)
            assert abs(value - expected) < 1e-9, (N, k)


def test_rank_one_is_trivial():
    unknot = bundled("unknot")
    for k in range(1, 7):
        assert wilson_loop(unknot, 1, k) == 1 + 0j


def test_exact_and_float_paths_agree():
    trefoil = bundled("right_trefoil")
    for N, k in [(2, 2), (2, 3), (3, 2), (4, 5)]:
        exact = wilson_exact(trefoil, N, k).to_complex()
        approx = wilson_loop_float(trefoil, N, k)
        assert abs(exact - approx) < FLOAT_TOLERANCE, (N, k)


def test_trefoil_value_against_direct_substitution():
    trefoil = bundled("right_trefoil")
    poly = homfly(trefoil)
    for N, k in [(2, 3), (3, 4)]:
        angle = cmath.pi / (k + N)
        a = cmath.exp(1j * N * angle)
        z = 2j * cmath.sin(angle)
        total = 0 + 0j
        for (ea, ez), coeff in poly.terms():
            total += complex(coeff.re) * a ** ea * z ** ez
        prefactor = (a - 1 / a) / z
        assert abs(wilson_loop(trefoil, N, k) - prefactor * total) < 1e-9


def test_negative_level_mirror_symmetry():
    # k + N < 0 uses the conjugate root; values mirror the positive side
    unknot = bundled("unknot")
    value = wilson_loop(unknot, 2, -5)
    positive = wilson_loop(unknot, 2, 1)
    assert abs(value - positive.conjugate()) < 1e-9


def test_wilson_loop_computes_one_skein_polynomial(monkeypatch):
    import kch.wilson

    calls = []

    def counted(diagram, **kwargs):
        calls.append(diagram)
        return homfly(diagram, **kwargs)

    monkeypatch.setattr(kch.wilson, "homfly", counted)
    trefoil = bundled("right_trefoil")
    value = wilson_loop(trefoil, 2, 3)
    assert len(calls) == 1
    assert abs(value - wilson_loop_float(trefoil, 2, 3)) < FLOAT_TOLERANCE
    assert value == wilson_exact(trefoil, 2, 3).to_complex()
    assert len(calls) == 3


def test_domain_guards():
    unknot = bundled("unknot")
    with pytest.raises(DomainError):
        wilson_loop(unknot, 0, 3)
    with pytest.raises(DomainError):
        wilson_loop(unknot, 2, -2)  # k + N = 0
    with pytest.raises(DomainError):
        wilson_loop(unknot, 2, -1)  # k + N = 1 kills the denominator
    with pytest.raises(DomainError):
        wilson_loop(unknot, 2, -3)  # k + N = -1


def test_hopf_wilson_loop_finite():
    hopf = bundled("positive_hopf")
    value = wilson_loop(hopf, 2, 3)
    assert abs(value) > 0


def test_levels_reuse_the_diagrams_skein_polynomial(skein_edits):
    homfly(parse_pd(BRAID_CLOSURE))
    one_call = len(skein_edits)
    assert one_call > 0
    skein_edits.clear()
    d = parse_pd(BRAID_CLOSURE)
    homfly(d)
    for N, k in [(2, 1), (3, -10), (4, 8)]:
        wilson_loop(d, N, k)
    assert len(skein_edits) == one_call


def test_level_cap():
    unknot = bundled("unknot")
    for evaluate in (wilson_loop, wilson_exact, wilson_loop_float):
        for total in (MAX_LEVEL + 1, -MAX_LEVEL - 1, 4002):
            with pytest.raises(ResourceLimitError, match=f"{abs(total)}.*{MAX_LEVEL}"):
                evaluate(unknot, 2, total - 2)
    angle = cmath.pi / MAX_LEVEL
    expected = cmath.sin(2 * angle) / cmath.sin(angle)
    assert abs(wilson_loop(unknot, 2, MAX_LEVEL - 2) - expected) < 1e-9
