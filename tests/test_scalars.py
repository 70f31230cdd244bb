import random
from fractions import Fraction

import pytest

from kch.errors import ParseError
from kch.scalars import I, ONE, ZERO, Scalar, parse_scalar


def test_constructor_coerces_to_fraction():
    s = Scalar(2, 3)
    assert s.re == Fraction(2) and s.im == Fraction(3)
    assert isinstance(s.re, Fraction)


def test_constants():
    assert ZERO.is_zero()
    assert ONE.re == 1 and ONE.im == 0
    assert I * I == -ONE
    assert not ZERO
    assert ONE


def test_field_axioms_random():
    rng = random.Random(11)

    def rand():
        return Scalar(
            Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
        )

    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        if not a.is_zero():
            assert a * a.inverse() == ONE
            assert (a ** -3) * (a ** 3) == ONE


def test_pow_and_division():
    half = Scalar(Fraction(1, 2))
    assert half ** 3 == Scalar(Fraction(1, 8))
    assert half ** 0 == ONE
    assert (ONE + I) ** 2 == Scalar(0, 2)
    assert (ONE + I) / (ONE - I) == I
    assert 2 / Scalar(4) == half
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_mixed_int_fraction_arithmetic():
    assert Scalar(1) + 1 == Scalar(2)
    assert 3 * Scalar(Fraction(1, 3)) == ONE
    assert 1 - Scalar(Fraction(1, 2)) == Scalar(Fraction(1, 2))


def test_to_complex():
    s = Scalar(Fraction(3, 2), Fraction(-1, 4))
    assert s.to_complex() == 1.5 - 0.25j


def test_str_forms():
    assert str(Scalar(3)) == "3"
    assert str(Scalar(Fraction(-1, 2))) == "-1/2"
    assert str(I) == "i"
    assert str(-I) == "-i"
    assert str(Scalar(2, 3)) == "2+3i"
    assert str(Scalar(2, -3)) == "2-3i"
    assert str(Scalar(0, Fraction(1, 2))) == "1/2i"


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3", Scalar(3)),
        ("-1/2", Scalar(Fraction(-1, 2))),
        ("2+3i", Scalar(2, 3)),
        ("2-3i", Scalar(2, -3)),
        ("i", I),
        ("-i", -I),
        ("(2+3i)", Scalar(2, 3)),
        (" 7/3 ", Scalar(Fraction(7, 3))),
        ("3i", Scalar(0, 3)),
        ("1/2i", Scalar(0, Fraction(1, 2))),
        ("\t\n\r\x0b\x0c7/3\n", Scalar(Fraction(7, 3))),
    ],
)
def test_parse_scalar(text, expected):
    assert parse_scalar(text) == expected


@pytest.mark.parametrize(
    "text",
    [
        "", "x", "1+", "1 2", "2++3i", "1+2i+3", "3/0",
        # the grammar is ASCII: no Arabic-Indic digit or ideographic space
        "\u0663/\u0664", "1/\u0664", "2+\u0663i", "\u30001", "1\u3000", "(1)\u3000",
    ],
)
def test_parse_scalar_rejects(text):
    with pytest.raises(ParseError):
        parse_scalar(text)


def test_parse_str_round_trip():
    rng = random.Random(5)
    for _ in range(100):
        s = Scalar(
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
        )
        assert parse_scalar(str(s)) == s
