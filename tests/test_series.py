import random
from fractions import Fraction

import pytest

from kch.errors import DomainError, RingMismatchError
from kch.laurent import LaurentPolynomial, parse_polynomial
from kch.scalars import Scalar
from kch.series import FormalSeries


def scal(*values):
    return FormalSeries.from_scalars("t", values)


def test_constructor_validates():
    ring = ("Q",)
    coeffs = [LaurentPolynomial.one(ring)]
    with pytest.raises(DomainError):
        FormalSeries("t", 1, coeffs)  # wrong length
    with pytest.raises(RingMismatchError):
        FormalSeries("t", 1, [LaurentPolynomial.one(ring), LaurentPolynomial.one(("R",))])
    with pytest.raises(DomainError):
        FormalSeries("", 0, coeffs)


def test_basic_arithmetic():
    a = scal(1, 2, 3)
    b = scal(0, 1, 1)
    assert (a + b) == scal(1, 3, 4)
    assert (a - b) == scal(1, 1, 2)
    assert a * b == scal(0, 1, 3)  # truncated at t^2
    assert a.scale(Scalar(2)) == scal(2, 4, 6)
    assert a.coefficient(1) == LaurentPolynomial.constant((), Scalar(2))


def test_mixed_order_operations_truncate():
    a = scal(1, 1, 1, 1)
    b = scal(1, 2)
    assert (a + b).order == 1
    assert (a * b).order == 1
    assert a.truncate(2) == scal(1, 1, 1)
    with pytest.raises(DomainError):
        a.truncate(9)


def test_multiplication_by_polynomial_and_scalar():
    q = parse_polynomial("Q", ("Q",))
    s = FormalSeries.from_scalars("t", [1, 1], ring=("Q",))
    assert (s * q).coefficient(0) == q
    assert (s * Scalar(3)).coefficient(1) == parse_polynomial("3", ("Q",))


def test_scale_rejects_polynomial_multipliers():
    ring = ("Q",)
    s = FormalSeries.one("t", 2, ring)
    with pytest.raises(TypeError):
        s.scale(parse_polynomial("Q", ring))  # use * for polynomial factors
    assert s.scale(2) == s + s


def test_shifted():
    a = scal(5, 7, 0, 0)
    b = a.shifted(2)
    assert b.order == 3  # truncation order is preserved, not extended
    assert [str(b.coefficient(k).constant_term()) for k in range(4)] == ["0", "0", "5", "7"]
    assert scal(5, 7).shifted(2) == scal(0, 0)
    with pytest.raises(DomainError):
        a.shifted(-1)


def test_inverse():
    a = scal(1, 1, 1, 1)  # 1/(1-t) truncated
    inv = a.inverse()
    assert inv == scal(1, -1, 0, 0)
    assert a * inv == scal(1, 0, 0, 0)
    with pytest.raises(DomainError):
        scal(0, 1).inverse()


def test_inverse_of_unit_monomial_constant():
    ring = ("Q",)
    q = parse_polynomial("Q", ring)
    one = LaurentPolynomial.one(ring)
    s = FormalSeries("t", 1, [q, one])
    inv = s.inverse()
    assert (s * inv) == FormalSeries("t", 1, [one, LaurentPolynomial.zero(ring)])
    assert inv.coefficient(0) == parse_polynomial("Q^-1", ring)


def test_log_exp_round_trip_random():
    rng = random.Random(7)
    for _ in range(40):
        order = rng.randint(1, 6)
        body = [Scalar(0)] + [
            Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(order)
        ]
        s = FormalSeries.from_scalars("t", body)
        assert s.exp().log() == s
        u = FormalSeries.from_scalars("t", [Scalar(1)] + body[1:])
        assert u.log().exp() == u


def test_log_requires_unit_constant():
    with pytest.raises(DomainError):
        scal(2, 1).log()
    with pytest.raises(DomainError):
        scal(1, 1).exp()  # exp needs zero constant


def test_exp_additivity():
    a = scal(0, 1, 2, 3)
    b = scal(0, -1, 5, -2)
    assert (a + b).exp() == a.exp() * b.exp()
    assert (a.exp() * a.exp()).log() == a.scale(Scalar(2))


def test_pow():
    a = scal(1, 1)
    assert a ** 3 == scal(1, 3)
    assert a ** 0 == scal(1, 0)
    assert a ** -1 == a.inverse()


def test_str():
    assert str(scal(1, 0, Fraction(15, 2))) == "1 + 15/2*t^2 + O(t^3)"
    assert str(scal(0, 0)) == "0 + O(t^2)"
    ring = ("Q",)
    s = FormalSeries(
        "X",
        1,
        [LaurentPolynomial.zero(ring), parse_polynomial("-1 + Q", ring)],
    )
    assert str(s) == "(-1 + Q)*X + O(X^2)"


def integrated_log_derivative(s):
    """log S as the integral of S' * S^-1, built from the series inverse:
    L_k = (1/k) sum_{j=1}^{k} j S_j (S^-1)_{k-j}."""
    inv = s.inverse()
    coefficients = [LaurentPolynomial.zero(s.ring)]
    for k in range(1, s.order + 1):
        acc = LaurentPolynomial.zero(s.ring)
        for j in range(1, k + 1):
            acc = acc + (s.coefficient(j) * inv.coefficient(k - j)).scale(Fraction(j, k))
        coefficients.append(acc)
    return FormalSeries(s.variable, s.order, coefficients)


def test_log_recurrence_equals_integrated_inverse():
    rng = random.Random(1978)
    ring = ("Q", "R")
    for _ in range(30):
        order = rng.randint(0, 7)
        coefficients = [LaurentPolynomial.one(ring)]
        for _ in range(order):
            terms = {}
            for _ in range(rng.randint(0, 3)):
                exps = (rng.randint(-2, 2), rng.randint(-1, 2))
                terms[exps] = Scalar(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2)
                )
            coefficients.append(LaurentPolynomial(ring, terms))
        s = FormalSeries("t", order, coefficients)
        assert s.log() == integrated_log_derivative(s)
