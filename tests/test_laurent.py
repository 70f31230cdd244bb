import dataclasses
import random
from fractions import Fraction

import pytest

from kch.augment import augmentation_system, eliminate_augmentation_ideal
from kch.dga import bundled_names, load_bundled
from kch.errors import DomainError, ParseError, RingMismatchError
from kch.feynman import CubicForm, QuadraticForm, matrix_model_series, scalar_model_series
from kch.groebner import normal_form, s_polynomial
from kch.homfly import BUNDLED_DIAGRAMS, homfly
from kch.laurent import LaurentPolynomial, _make, parse_polynomial
from kch.mirror import branch_series, p_series, potential_series, verify_on_curve
from kch.pd import parse_pd
from kch.scalars import Scalar
from kch.series import FormalSeries
from kch.symfunc import HolonomySpectrum, symmetric_trace_series
from kch.wilson import wilson_loop

RING = ("Q", "X", "P")


def lp(text, ring=RING):
    return parse_polynomial(text, ring)


def test_variable_validation():
    with pytest.raises(DomainError):
        LaurentPolynomial.zero(("i",))
    with pytest.raises(DomainError):
        LaurentPolynomial.zero(("x", "x"))
    with pytest.raises(DomainError):
        LaurentPolynomial.zero(("2bad",))


def test_bool_is_not_an_exponent():
    with pytest.raises(DomainError, match="does not fit ring"):
        LaurentPolynomial(("x",), {(True,): Scalar.of(1)})


def test_canonical_term_order_is_pinned():
    # later ring variables dominate the ordering; within that, ascending powers
    assert str(lp("Q*X*P + 1 - P - X")) == "1 - X - P + Q*X*P"
    assert str(lp("P^2 - X")) == "-X + P^2"
    assert str(lp("X + Q + P")) == "Q + X + P"
    assert str(lp("X^-1 + X + 1")) == "X^-1 + 1 + X"


def test_str_coefficient_forms():
    assert str(lp("1/2*X - 3*P")) == "1/2*X - 3*P"
    assert str(lp("-X")) == "-X"
    assert str(lp("0")) == "0"
    assert str(lp("(2+3i)*X")) == "(2+3i)*X"
    assert str(lp("(-i)*X + 1")) == "1 + (-i)*X"
    assert str(LaurentPolynomial.monomial(RING, (0, -2, 1), Scalar(5))) == "5*X^-2*P"


def test_parse_grammar():
    assert lp("X^2*X") == lp("X^3")
    assert lp("2 + 3") == lp("5")
    assert lp("-X + X") == lp("0")
    assert lp("Q^-1*Q") == lp("1")
    assert lp("  1   -  X ") == lp("1 - X")


@pytest.mark.parametrize(
    "text",
    [
        "", "+", "X^", "X^1.5", "Y", "i", "2i", "1 + * X", "(2+3i", "X X", "^2", "3/0", "- -X",
        # coefficients in parentheses follow parse_scalar, and numbers past
        # Python's int conversion limit are malformed text
        "(1+2+3i)*X", "(1.5)", "((1))", "X*(1", "7" * 5000, "X^" + "7" * 5000,
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        lp(text)


HUGE = "7" * 5000  # past Python's int conversion limit

# every message of the grammar, for the texts that first reach it; the
# whole text is tokenized before any grammar check, so a bad character
# anywhere wins over a grammar error earlier in the text
PARSE_MESSAGES = [
    ("", "empty polynomial text"),
    ("  \t", "empty polynomial text"),
    ("X$", "unexpected character '$' at position 1"),
    ("Q$X", "unexpected character '$' at position 1"),
    ("Y$", "unexpected character '$' at position 1"),
    ("X^", "unexpected end of polynomial 'X^'"),
    ("X^-", "unexpected end of polynomial 'X^-'"),
    ("X^+", "unexpected end of polynomial 'X^+'"),
    ("X X", "expected '+' or '-' at position 2 in 'X X'"),
    ("2 3", "expected '+' or '-' at position 2 in '2 3'"),
    ("2i", "expected '+' or '-' at position 1 in '2i'"),
    ("X)", "expected '+' or '-' at position 1 in 'X)'"),
    ("X*)", "expected '+' or '-' at position 2 in 'X*)'"),
    ("X^2^3", "expected '+' or '-' at position 3 in 'X^2^3'"),
    ("i", "imaginary coefficient at position 0 must be parenthesized"),
    ("2*i", "imaginary coefficient at position 2 must be parenthesized"),
    ("Y", "unknown variable 'Y' at position 0"),
    ("X*+Y", "unknown variable 'Y' at position 3"),
    ("X*(1", "unbalanced '(' at position 2 in 'X*(1'"),
    ("(2+3i", "unbalanced '(' at position 0 in '(2+3i'"),
    ("((1))", "unbalanced '(' at position 0 in '((1))'"),
    ("1 + * X", "expected a term at position 4 in '1 + * X'"),
    ("^2", "expected a term at position 0 in '^2'"),
    ("- -X", "expected a term at position 2 in '- -X'"),
    ("+", "empty term in '+'"),
    ("X +", "empty term in 'X +'"),
    ("X^1/2", "expected an integer exponent at position 2"),
    ("X^2/0", "expected an integer exponent at position 2"),
    ("X^P", "expected an integer exponent at position 2"),
    ("X^(2)", "expected an integer exponent at position 2"),
    ("X^" + HUGE, "exponent at position 2 is too long to convert"),
    ("3/0", "zero denominator in '3/0'"),
    (HUGE, "number of 5000 characters is too long to convert"),
    # a parenthesized coefficient reports parse_scalar's message
    ("(1.5)", "invalid scalar literal '(1.5)'"),
    ("(1+2+3i)*X", "invalid scalar literal '(1+2+3i)': too many parts"),
    ("(1 2)", "invalid scalar literal '(1 2)': missing sign"),
    ("()", "invalid scalar literal '()': empty"),
    ("(3/0)", "zero denominator in '3/0'"),
    # whitespace before a bad character is skipped, not blamed
    ("X .", "unexpected character '.' at position 2"),
    ("X + 1 / 2", "unexpected character '/' at position 6"),
    ("X\t#", "unexpected character '#' at position 2"),
    # the grammar is ASCII: no other digit or space, wherever it stands
    ("X\u3000+\u30001", "unexpected character '\\u3000' at position 1"),
    ("\u3000X", "unexpected character '\\u3000' at position 0"),
    ("X\u3000", "unexpected character '\\u3000' at position 1"),
    ("X\x1c", "unexpected character '\\x1c' at position 1"),
    ("\u0663", "unexpected character '\u0663' at position 0"),
    ("X^\u0663", "unexpected character '\u0663' at position 2"),
    ("(\u0663)", "invalid scalar literal '(\u0663)'"),
]


@pytest.mark.parametrize(
    "text, message", PARSE_MESSAGES, ids=[repr(text[:12]) for text, _ in PARSE_MESSAGES]
)
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as info:
        lp(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, same_as",
    # a dangling '*' ends its term, and an exponent takes a sign after '^'
    [("X*", "X"), ("X*+P", "X + P"), ("X*-P", "X - P"), ("X^ -2", "X^-2"), ("X^+3", "X^3")],
)
def test_parse_quirks(text, same_as):
    assert lp(text) == lp(same_as)


def test_parse_checks_the_ring_after_the_characters():
    with pytest.raises(ParseError, match="unexpected character"):
        parse_polynomial("X$", ("i",))
    with pytest.raises(ParseError, match="empty polynomial text"):
        parse_polynomial("", ("i",))
    with pytest.raises(DomainError, match="invalid variable name"):
        parse_polynomial("X X", ("i",))


def test_parse_str_round_trip_random():
    rng = random.Random(23)
    for _ in range(150):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            exps = tuple(rng.randint(-3, 3) for _ in RING)
            coeff = Scalar(
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                Fraction(rng.choice([0, 0, 0, rng.randint(-5, 5)])),
            )
            terms[exps] = coeff
        p = LaurentPolynomial(RING, terms)
        assert parse_polynomial(str(p), RING) == p


def test_ring_arithmetic_random():
    rng = random.Random(31)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            exps = tuple(rng.randint(-2, 2) for _ in RING)
            terms[exps] = Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        return LaurentPolynomial(RING, terms)

    for _ in range(120):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
        assert a * LaurentPolynomial.one(RING) == a


def test_arithmetic_results_match_the_public_constructor():
    # arithmetic builds its results without re-validating them; the same terms
    # through the validating constructor must give the identical value
    rng = random.Random(41)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(-2, 2) for _ in RING)
            re = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            terms[exps] = Scalar(re, rng.choice([0, 0, 1, -1]))
        return LaurentPolynomial(RING, terms)

    for _ in range(60):
        a, b = rand_poly(), rand_poly()
        computed = [
            a + b, a - b, a - a, -a, a * b, a + 1, 2 - a, a ** 2, a.scale(Fraction(-3, 2)),
            a.scale(0), a.shift((1, -2, 0)), a.substitute("X", 2), a.specialize({"X": 2, "P": Scalar(1, 1)}),
            a.derivative("Q"), normal_form(a, [lp("X - 2")]), lp("Q^2*X^-1").monomial_inverse(),
        ]
        if not b.is_zero():
            computed.append((a * b).exact_divide(b))
        for poly in computed:
            rebuilt = LaurentPolynomial(poly.variables, poly.term_map())
            assert rebuilt == poly
            assert hash(rebuilt) == hash(poly)
            assert str(rebuilt) == str(poly)
            assert tuple(rebuilt.terms()) == tuple(poly.terms())
            assert all(not coeff.is_zero() for _, coeff in poly.terms())


def test_ring_mismatch():
    a = lp("X")
    b = parse_polynomial("X", ("X", "Y"))
    with pytest.raises(RingMismatchError):
        a + b
    with pytest.raises(RingMismatchError):
        a * b


def test_pow_including_negative_monomial():
    x = lp("X")
    assert x ** -2 == lp("X^-2")
    assert lp("1 + X") ** 2 == lp("1 + 2*X + X^2")
    with pytest.raises(DomainError):
        lp("1 + X") ** -1  # not a monomial


def test_evaluate_and_substitute():
    p = lp("1 - X - P + Q*X*P")
    val = p.evaluate({"Q": Scalar(1), "X": Scalar(2), "P": Scalar(1)})
    assert val == Scalar(0)
    q2 = p.substitute("Q", Scalar(2))
    assert q2.variables == ("X", "P")
    assert q2 == parse_polynomial("1 - X - P + 2*X*P", ("X", "P"))
    with pytest.raises(DomainError):
        lp("X^-1").evaluate({"Q": Scalar(1), "X": Scalar(0), "P": Scalar(1)})


def test_substitute_negative_power():
    p = lp("X^-2")
    assert p.substitute("X", Scalar(2)) == parse_polynomial("1/4", ("Q", "P"))


def test_specialize_agrees_with_evaluate():
    rng = random.Random(43)
    values = [Scalar(2), Scalar(Fraction(-1, 3)), Scalar(1, 1), Scalar(0, -2)]
    for _ in range(80):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            exps = tuple(rng.randint(-2, 2) for _ in RING)
            terms[exps] = Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.choice([0, 1]))
        p = LaurentPolynomial(RING, terms)
        point = {name: rng.choice(values) for name in RING}
        fixed = rng.sample(RING, rng.randint(1, 3))
        part = p.specialize({name: point[name] for name in fixed})
        assert part.variables == tuple(name for name in RING if name not in fixed)
        assert part.evaluate({name: point[name] for name in part.variables}) == p.evaluate(point)
        # reference: the term-by-term Scalar sum, independent of ``specialize``
        expected = Scalar(0)
        for exps, coeff in p.terms():
            for name, e in zip(RING, exps):
                coeff = coeff * point[name] ** e
            expected = expected + coeff
        assert p.evaluate(point) == expected


def test_specialize_at_zero():
    assert lp("Q + X*P").specialize({"X": 0, "P": 5}) == parse_polynomial("Q", ("Q",))
    with pytest.raises(DomainError):
        lp("X^-1 + P").specialize({"P": 1, "X": 0})
    with pytest.raises(DomainError):
        lp("X").specialize({"Y": 1})


def test_with_variables_extends_ring():
    p = parse_polynomial("1 + u", ("u",))
    q = p.with_variables(("u", "Q", "X"))
    assert q.variables == ("u", "Q", "X")
    assert q == parse_polynomial("1 + u", ("u", "Q", "X"))
    with pytest.raises(RingMismatchError):
        p.with_variables(("Q", "X"))  # drops u


def test_strip_monomial_factor():
    p = lp("X^-1*P + Q*X")
    stripped, shift = p.strip_monomial_factor()
    assert shift == (0, -1, 0)
    assert stripped == lp("P + Q*X^2")
    assert stripped.shift(shift) == p


def test_exact_divide():
    a = lp("1 - X")
    b = lp("1 - X^2")
    assert b.exact_divide(a) == lp("1 + X")
    assert (a * lp("Q^-3*P")).exact_divide(a) == lp("Q^-3*P")
    # dividing by a monomial is always exact in the Laurent ring
    assert lp("1").exact_divide(lp("Q")) == lp("Q^-1")
    with pytest.raises(DomainError):
        lp("1 + X").exact_divide(lp("1 - X"))
    with pytest.raises(ZeroDivisionError):
        a.exact_divide(lp("0"))


def test_exact_divide_random_products():
    rng = random.Random(47)
    for _ in range(80):
        def rand_poly():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exps = tuple(rng.randint(-2, 2) for _ in RING)
                terms[exps] = Scalar(rng.randint(-4, 4))
            p = LaurentPolynomial(RING, terms)
            return p if not p.is_zero() else LaurentPolynomial.one(RING)

        a, b = rand_poly(), rand_poly()
        assert (a * b).exact_divide(b) == a


def test_scale_coerces_and_rejects():
    assert lp("X").scale(2) == lp("2*X")
    assert lp("X").scale(Fraction(1, 2)) == lp("1/2*X")
    with pytest.raises(TypeError):
        lp("X").scale(lp("Q"))  # polynomial factors go through *
    with pytest.raises(DomainError):
        LaurentPolynomial(RING, {(0, 0, 0): lp("Q")})


def test_scale_keeps_the_terms_that_a_sorted_rebuild_gives():
    # scale adopts its products in the input's term order; the sorting
    # constructor must give the same terms, with the same narrow types
    rng = random.Random(53)
    values = [2, -3, Fraction(1, 2), Fraction(-4, 3), Fraction(6, 3), Scalar(0, 1),
              Scalar(Fraction(1, 2), -2), Scalar(3), Scalar(0, Fraction(-1, 3))]

    def rand_coefficient():
        if rng.random() < 0.3:
            return Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.choice([1, -2]))
        return Scalar(Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3)))

    for _ in range(80):
        terms = {
            tuple(rng.randint(-3, 3) for _ in RING): rand_coefficient()
            for _ in range(rng.randint(1, 8))
        }
        poly = LaurentPolynomial(RING, terms)
        for value in values:
            scaled = poly.scale(value)
            narrow = value.re if type(value) is Scalar and not value.im else value
            sorted_route = _make(RING, {e: c * narrow for e, c in poly._terms})
            assert scaled._terms == sorted_route._terms
            assert [type(c) for _, c in scaled._terms] == [type(c) for _, c in sorted_route._terms]


def test_primitive_normalized():
    assert lp("2*X - 2").primitive_normalized() == lp("X - 1")
    assert lp("-X + 3").primitive_normalized() == lp("X - 3")
    assert lp("1/2*X + 1/3").primitive_normalized() == lp("3*X + 2")
    # leading coefficient (canonical order) gets positive real part
    assert lp("X - P^2").primitive_normalized() == lp("P^2 - X")
    assert (lp("0")).primitive_normalized().is_zero()
    # pure imaginary leading coefficient: positive imaginary wins the tie
    p = LaurentPolynomial(RING, {(0, 1, 0): Scalar(0, -1)})
    assert p.primitive_normalized() == LaurentPolynomial(RING, {(0, 1, 0): Scalar(0, 1)})


def test_derivative():
    p = lp("Q*X^3 + X^-2")
    assert p.derivative("X") == lp("3*Q*X^2 - 2*X^-3")
    assert lp("Q").derivative("X").is_zero()


def test_leading_term():
    p = lp("X^-1*P + Q*X")
    exps, coeff = p.leading_term()
    assert exps == (0, -1, 1) and coeff == Scalar(1)


def mis_narrowed(value):
    """Stored coefficients, in every polynomial reachable from ``value``, that
    are zero or wider than their value needs: a real ``Scalar``, an integral
    ``Fraction``, or any other type."""
    if isinstance(value, LaurentPolynomial):
        return [
            c
            for _, c in value._terms
            if not c
            or not (
                type(c) is int
                or (type(c) is Fraction and c.denominator != 1)
                or (type(c) is Scalar and c.im)
            )
        ]
    if isinstance(value, FormalSeries):
        return mis_narrowed(value.coefficients)
    if isinstance(value, (tuple, list)):
        return [c for item in value for c in mis_narrowed(item)]
    if dataclasses.is_dataclass(value):
        return mis_narrowed([getattr(value, f.name) for f in dataclasses.fields(value)])
    return []


def test_arithmetic_stores_narrow_coefficients():
    # results keep each coefficient in its narrowest exact type, whatever
    # the operand types, and still match the validating constructor
    rng = random.Random(43)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(-2, 2) for _ in RING)
            re = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            terms[exps] = Scalar(re, rng.choice([0, 0, 1, -1]))
        return LaurentPolynomial(RING, terms)

    i_x = LaurentPolynomial(RING, {(0, 1, 0): Scalar(0, 1)})
    assert (i_x * i_x)._terms == (((0, 2, 0), -1),)
    assert type((i_x * i_x)._terms[0][1]) is int
    computed = [i_x * i_x, i_x.scale(Scalar(0, -1)), lp("1/2*X").scale(2), lp("(1+i)*X") * lp("(1-i)*P")]
    for _ in range(60):
        a, b = rand_poly(), rand_poly()
        computed += [
            a + b, a - b, a * b, a.scale(Fraction(2, 3)), a.scale(Scalar(0, 2)), a * Fraction(1, 2),
            a.specialize({"X": Scalar(0, 1)}), a.specialize({"Q": Fraction(1, 2), "P": 2}),
            normal_form(a, [lp("(i)*X - 2")]),
        ]
        if not (a.is_zero() or b.is_zero()):
            computed += [(a * b).exact_divide(b), s_polynomial(a, b)]
    for poly in computed:
        assert not mis_narrowed(poly), poly
        rebuilt = LaurentPolynomial(poly.variables, poly.term_map())
        assert rebuilt == poly
        assert hash(rebuilt) == hash(poly)
        assert all(type(coeff) is Scalar for _, coeff in poly.terms())
        assert type(poly.constant_term()) is Scalar
        point = {name: Scalar(1, 1) for name in poly.variables}
        assert type(poly.evaluate(point)) is Scalar
        if not poly.is_zero():
            assert type(poly.leading_term()[1]) is Scalar


def test_end_to_end_results_store_narrow_coefficients():
    # mirror branch, its logarithm, potential and on-curve check
    for text in ("1 - X - P + (1+i)*Q*X*P - 3*X*P^2", "2 - X - 2*P + 1/2*Q*X*P^2"):
        curve = lp(text)
        branch = branch_series(curve, 1, 5)
        p = p_series(branch)
        report = verify_on_curve(curve, branch)
        assert report.ok
        assert not mis_narrowed([branch, p, potential_series(p), report])
    # skein polynomial and its Wilson values: the stored coefficients are ints
    diagram = parse_pd(BUNDLED_DIAGRAMS["right_trefoil"])
    wilson_loop(diagram, 2, 3)
    assert all(type(coeff) is int for _, coeff in homfly(diagram)._terms)
    # augmentation systems and their elimination ideals
    for name in bundled_names():
        algebra = load_bundled(name)
        variety = eliminate_augmentation_ideal(algebra)
        assert not mis_narrowed([variety, augmentation_system(algebra).equations])
    # graph sums, matrix model and trace series
    q = QuadraticForm([[Fraction(5, 2), 1], [1, 3]])
    c = CubicForm.from_array([[[1, 0], [0, 2]], [[0, 2], [2, Fraction(-1, 2)]]])
    spectrum = HolonomySpectrum([2, Fraction(1, 2), Scalar(1, -1)])
    assert not mis_narrowed(
        [scalar_model_series(q, c, 2), matrix_model_series(2), symmetric_trace_series(spectrum, 6)]
    )
