import cmath
import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from kch.cyclotomic import (
    MAX_CYCLOTOMIC_INDEX,
    CyclotomicElement,
    CyclotomicField,
    _integer_cyclotomic,
    cyclotomic_polynomial,
)
from kch.errors import DomainError, ResourceLimitError
from kch.homfly import BUNDLED_DIAGRAMS, homfly
from kch.laurent import LaurentPolynomial
from kch.pd import parse_pd
from kch.scalars import Scalar
from kch.wilson import (
    FLOAT_TOLERANCE,
    MAX_LEVEL,
    _evaluate_cyclotomic,
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


@lru_cache(maxsize=None)
def fraction_cyclotomic(n):
    """Phi_n by long division of x^n - 1 in Fraction arithmetic."""
    quotient = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d:
            continue
        divisor = fraction_cyclotomic(d)
        remainder, quotient = quotient, [Fraction(0)] * (len(quotient) - len(divisor) + 1)
        for shift in range(len(quotient) - 1, -1, -1):
            factor = remainder[shift + len(divisor) - 1] / divisor[-1]
            quotient[shift] = factor
            for i, c in enumerate(divisor):
                remainder[shift + i] -= factor * c
        assert not any(remainder)
    return tuple(quotient)


def test_integer_cyclotomic_matches_fraction_division():
    for n in range(1, 61):
        integer = _integer_cyclotomic(n)
        assert all(type(c) is int for c in integer), n
        assert integer == fraction_cyclotomic(n), n
        public = cyclotomic_polynomial(n)
        assert public == integer and all(type(c) is Fraction for c in public), n


def test_cyclotomic_index_is_an_int_below_the_cap():
    for bad in (True, False, "3", 3.0, None, Fraction(3), 0, -4):
        for build in (cyclotomic_polynomial, CyclotomicField):
            with pytest.raises(DomainError):
                build(bad)
    assert MAX_CYCLOTOMIC_INDEX == 2 * MAX_LEVEL
    assert CyclotomicField(MAX_CYCLOTOMIC_INDEX).degree == 160
    start = time.perf_counter()
    for n in (MAX_CYCLOTOMIC_INDEX + 1, 2400, 10**9):
        for build in (cyclotomic_polynomial, CyclotomicField):
            with pytest.raises(ResourceLimitError, match=f"{n}.*{MAX_CYCLOTOMIC_INDEX}"):
                build(n)
    assert time.perf_counter() - start < 1.0


def test_zeta_has_exact_order():
    field = CyclotomicField(12)
    z = field.zeta(1)
    acc = field.one()
    seen = set()
    for k in range(12):
        assert z**k == acc and z ** -k == acc.inverse()
        seen.add(acc)
        acc = acc * z
    assert acc == field.one()
    assert len(seen) == 12
    with pytest.raises(TypeError):
        z**0.5


def test_field_inverse_random():
    rng = random.Random(17)
    field = CyclotomicField(10)
    for _ in range(40):
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(field.degree)]
        elem = field.element(coeffs)
        if elem == field.zero():
            continue
        assert elem * elem.inverse() == field.one()


def test_field_inverse_and_reduction_on_random_elements():
    rng = random.Random("field")

    def rational():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

    for n in [*range(1, 41), 100]:
        field = CyclotomicField(n)
        # every coefficient below the degree nonzero: a nonzero element
        elem = field.element([rational() for _ in range(field.degree)])
        assert elem * elem.inverse() == field.one(), n
        # a polynomial in zeta longer than 2n reduces to its value
        coeffs = [rational() for _ in range(2 * n + 3)]
        value = field.zero()
        for k, c in enumerate(coeffs):
            value += field.rational(c) * field.zeta(k)
        assert field.element(coeffs) == value, n


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


def test_float_cross_check_reads_the_rank_modulo_twice_the_level():
    # the float of N = 10^20 + 3 drops its low digits; a depends only on N
    # modulo 2|k + N| = 10, so the value is that of N = 3, k = 2
    for name in ("right_trefoil", "positive_hopf"):
        d = bundled(name)
        assert wilson_loop(d, 10**20 + 3, 2 - 10**20) == wilson_loop(d, 3, 2)


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


@pytest.mark.parametrize("evaluate", [wilson_loop, wilson_exact, wilson_loop_float])
@pytest.mark.parametrize("levels", [(2.0, 1), (True, 1), (2, 1.0), (2, False), ("2", 1)])
def test_non_integer_levels_are_domain_errors(evaluate, levels):
    with pytest.raises(DomainError):
        evaluate(bundled("unknot"), *levels)


@pytest.mark.parametrize("evaluate", [homfly, wilson_loop, wilson_exact, wilson_loop_float])
@pytest.mark.parametrize("diagram", ["UNKNOT", None, ((1, 1, 2, 2),)])
def test_non_diagrams_are_domain_errors(evaluate, diagram):
    levels = () if evaluate is homfly else (2, 1)
    with pytest.raises(DomainError):
        evaluate(diagram, *levels)


def test_hopf_wilson_loop_finite():
    hopf = bundled("positive_hopf")
    value = wilson_loop(hopf, 2, 3)
    assert abs(value) > 0


def test_levels_reuse_the_diagrams_skein_polynomial(skein_counters):
    homfly(parse_pd(BRAID_CLOSURE))
    one_call = skein_counters["nodes"], skein_counters["smoothings"]
    assert one_call[1] > 0
    d = parse_pd(BRAID_CLOSURE)
    homfly(d)
    for N, k in [(2, 1), (3, -10), (4, 8)]:
        wilson_loop(d, N, k)
    assert (skein_counters["nodes"], skein_counters["smoothings"]) == (2 * one_call[0], 2 * one_call[1])


def test_level_cap():
    unknot = bundled("unknot")
    for evaluate in (wilson_loop, wilson_exact, wilson_loop_float):
        for total in (MAX_LEVEL + 1, -MAX_LEVEL - 1, 4002):
            with pytest.raises(ResourceLimitError, match=f"{abs(total)}.*{MAX_LEVEL}"):
                evaluate(unknot, 2, total - 2)
    angle = cmath.pi / MAX_LEVEL
    expected = cmath.sin(2 * angle) / cmath.sin(angle)
    assert abs(wilson_loop(unknot, 2, MAX_LEVEL - 2) - expected) < 1e-9


# -- exact values against field arithmetic ----------------------------------------


@lru_cache(maxsize=None)
def z_power(field, sign, e):
    """(zeta^sign - zeta^-sign)^e by products and one inverse in the field."""
    if e == 0:
        return field.one()
    if e > 0:
        return z_power(field, sign, e - 1) * (field.zeta(sign) - field.zeta(-sign))
    return z_power(field, sign, e + 1) * z_power(field, sign, 1).inverse()


def field_wilson(poly, N, k):
    """The Wilson value by products, sums and inverses in Q(zeta_2L)."""
    field = CyclotomicField(2 * abs(k + N))
    sign = 1 if k + N > 0 else -1
    rows = {}
    for (e_a, e_z), coeff in poly.terms():
        term = field.rational(coeff.re) * field.zeta(sign * N * e_a)
        rows[e_z] = rows[e_z] + term if e_z in rows else term
    total = field.zero()
    for e_z, row in rows.items():
        total = total + row * z_power(field, sign, e_z)
    prefactor = (field.zeta(sign * N) - field.zeta(-sign * N)) * z_power(field, sign, -1)
    return prefactor * total


def test_exact_values_match_field_arithmetic():
    diagrams = [bundled("right_trefoil"), bundled("positive_hopf"), parse_pd(BRAID_CLOSURE)]
    for level in (2, 3, 4, 7, 12, MAX_LEVEL):
        for d in diagrams:
            poly = homfly(d)
            for N in (1, 2, 3, 5):
                for sign in (1, -1):
                    k = sign * level - N
                    value = wilson_exact(d, N, k)
                    assert value.field == CyclotomicField(2 * level)
                    assert value.coeffs == field_wilson(poly, N, k).coeffs, (level, N, k)
                    assert all(type(c) is Fraction for c in value.coeffs)


def skein_like(terms):
    return LaurentPolynomial(("a", "z"), {exps: Scalar.of(c) for exps, c in terms.items()})


def test_exact_kernel_on_deep_and_mixed_powers_of_z():
    # z^-3 (four components), positive powers only, and mixed parity
    polys = [
        skein_like({(-3, -3): 1, (1, -3): -3, (0, -1): 2, (2, 1): 5}),
        skein_like({(1, 1): 2, (-1, 3): -1}),
        skein_like({(1, 2): 3, (0, 4): -1}),
        skein_like({(0, 0): 1, (2, 1): -4, (-1, -1): 3, (1, 2): 7}),
        skein_like({}),
    ]
    for poly in polys:
        for level in (2, 3, 5, 8):
            for N in (1, 2, 4, 7, 19):
                for sign in (1, -1):
                    k = sign * level - N
                    expected = field_wilson(poly, N, k)
                    assert _evaluate_cyclotomic(poly, N, k) == expected, (poly, level, N, k)


def test_exact_kernel_rejects_non_integer_coefficients():
    for coeff in (Fraction(1, 2), Scalar(Fraction(0), Fraction(1))):
        with pytest.raises(DomainError, match="not an integer"):
            _evaluate_cyclotomic(skein_like({(0, 0): 1, (1, 2): coeff}), 2, 3)


def test_exact_values_make_no_field_products(monkeypatch):
    def refuse(*args):
        raise AssertionError("field arithmetic ran")

    for name in ("__mul__", "__add__", "__sub__", "inverse", "__pow__"):
        monkeypatch.setattr(CyclotomicElement, name, refuse)
    d = parse_pd(BRAID_CLOSURE)
    for N, k in [(2, 1), (3, -10), (4, 8), (2, MAX_LEVEL - 2)]:
        wilson_loop(d, N, k)
