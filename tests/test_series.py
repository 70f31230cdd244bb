import random
import time
from fractions import Fraction
from math import factorial

import pytest

from kch.errors import DomainError, RingMismatchError
from kch.laurent import LaurentPolynomial, _dot, parse_polynomial
from kch.scalars import Scalar
import kch._packed
from kch._packed import _Kernel
from kch.series import FormalSeries, _parts


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


@pytest.mark.parametrize("name", ["i", "é", None])
def test_series_variable_follows_the_ring_name_rule(name):
    with pytest.raises(DomainError):
        FormalSeries(name, 0, [LaurentPolynomial.one(())])


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


# -- the convolution kernel against plain term dicts ---------------------------
#
# The reference keeps a series as a list of {exponents: Scalar} dicts and builds
# everything from one triple loop, ref_multiply, in Scalar arithmetic only.


def ref_multiply(a, b):
    out = []
    for k in range(min(len(a), len(b))):
        acc = {}
        for j in range(k + 1):
            for e1, c1 in a[j].items():
                for e2, c2 in b[k - j].items():
                    exps = tuple(x + y for x, y in zip(e1, e2))
                    acc[exps] = acc.get(exps, Scalar(0)) + c1 * c2
        out.append({e: c for e, c in acc.items() if c})
    return out


def ref_power_sum(u, weights, width):
    """sum_n weights[n] u^n, for u with zero constant coefficient."""
    power = [{(0,) * width: Scalar(1)}] + [{} for _ in u[1:]]
    total = [{} for _ in u]
    for weight in weights:
        for k, coeff in enumerate(power):
            for e, c in coeff.items():
                total[k][e] = total[k].get(e, Scalar(0)) + c * weight
        power = ref_multiply(power, u)
    return [{e: c for e, c in coeff.items() if c} for coeff in total]


def as_dicts(series):
    return [coeff.term_map() for coeff in series.coefficients]


def random_polynomial(rng, ring, zero_share=0.3):
    if rng.random() < zero_share:
        return LaurentPolynomial.zero(ring)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(-2, 2) for _ in ring)
        re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms[exps] = Scalar(re, rng.choice([0, 0, 1, -2, Fraction(1, 2)]))
    return LaurentPolynomial(ring, terms)


def random_series(rng, ring, constant, order=None):
    """Random coefficients after the given constant, zero ones among them."""
    if order is None:
        order = rng.randint(0, 5)
    body = [random_polynomial(rng, ring) for _ in range(order)]
    return FormalSeries("t", order, [constant] + body)


RINGS = [("Q", "R"), ("a", "b", "c")]


@pytest.mark.parametrize("ring", RINGS)
def test_product_equals_term_dict_triple_loop(ring):
    rng = random.Random(41)
    for _ in range(30):
        a = random_series(rng, ring, random_polynomial(rng, ring))
        b = random_series(rng, ring, random_polynomial(rng, ring))
        assert as_dicts(a * b) == ref_multiply(as_dicts(a), as_dicts(b))


@pytest.mark.parametrize("ring", RINGS)
def test_inverse_equals_geometric_series(ring):
    """1/S = c^-1 sum_n (-u)^n where S = c (1 + u) and c is a unit monomial."""
    rng = random.Random(42)
    for _ in range(30):
        exps = tuple(rng.randint(-2, 2) for _ in ring)
        c = LaurentPolynomial.monomial(ring, exps, Scalar(rng.choice([1, -3]), rng.randint(0, 2)))
        s = random_series(rng, ring, c)
        c_inv = [c.monomial_inverse().term_map()] + [{}] * s.order
        u = [{}] + ref_multiply(c_inv, as_dicts(s))[1:]
        minus_u = [{e: -v for e, v in coeff.items()} for coeff in u]
        expected = ref_multiply(c_inv, ref_power_sum(minus_u, [Scalar(1)] * (s.order + 1), len(ring)))
        assert as_dicts(s.inverse()) == expected


@pytest.mark.parametrize("ring", RINGS)
def test_log_equals_mercator_series(ring):
    """log(1 + u) = sum_{n>=1} (-1)^(n+1) u^n / n."""
    rng = random.Random(43)
    for _ in range(30):
        s = random_series(rng, ring, LaurentPolynomial.one(ring))
        u = [{}] + as_dicts(s)[1:]
        weights = [Scalar(0)] + [Scalar(Fraction((-1) ** (n + 1), n)) for n in range(1, s.order + 1)]
        assert as_dicts(s.log()) == ref_power_sum(u, weights, len(ring))


@pytest.mark.parametrize("ring", RINGS)
def test_exp_equals_sum_of_powers_over_factorials(ring):
    rng = random.Random(44)
    for _ in range(30):
        p = random_series(rng, ring, LaurentPolynomial.zero(ring))
        weights = [Scalar(Fraction(1, factorial(n))) for n in range(p.order + 1)]
        assert as_dicts(p.exp()) == ref_power_sum(as_dicts(p), weights, len(ring))


def test_dot_of_no_pairs_is_zero_in_its_ring():
    ring = ("Q", "R")
    zero = _dot(ring, [])
    assert zero == LaurentPolynomial.zero(ring) and zero.variables == ring
    assert _dot(ring, [], Fraction(3, 4)) == LaurentPolynomial.zero(ring)


def test_dot_scales_the_sum_of_products_once():
    rng = random.Random(45)
    ring = ("a", "b", "c")
    for _ in range(30):
        pairs = [
            (random_polynomial(rng, ring), random_polynomial(rng, ring))
            for _ in range(rng.randint(1, 4))
        ]
        scale = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        expected = {}
        for a, b in pairs:
            for e, c in ref_multiply([a.term_map()], [b.term_map()])[0].items():
                expected[e] = expected.get(e, Scalar(0)) + c
        expected = {e: c * scale for e, c in expected.items() if c * scale}
        assert _dot(ring, pairs, scale).term_map() == expected


# -- the packed kernel ------------------------------------------------------------


def packed_dot(ring, pairs, factors=None):
    """The sum of f * a * b over (a, b) pairs through one packed kernel run,
    with the kernel (for its layout)."""
    kernel = _Kernel(ring)
    xs = [kernel.input(a) for a, _ in pairs]
    ys = [kernel.input(b) for _, b in pairs]
    node = kernel.dot(xs, ys, factors)
    kernel.run([node])
    return kernel, kernel.unpack([node], [1])[0]


def boundary_polynomials(top):
    """Polynomials whose l1 norm is exactly ``top``: one term at +-top, two
    adjacent terms of each sign pattern, and an imaginary coefficient."""
    ring = ("Q",)
    out = []
    for sign in (1, -1):
        out.append(LaurentPolynomial(ring, {(-1,): Scalar(sign * top)}))
        for other in (1, -1):
            out.append(
                LaurentPolynomial(ring, {(2,): Scalar(sign * (top - 1)), (3,): Scalar(other)})
            )
        out.append(LaurentPolynomial(ring, {(0,): Scalar(sign * (top - 1), 1)}))
    return out


@pytest.mark.parametrize("width, wider", [(8, 16), (16, 32), (32, 64), (64, 128), (128, 192)])
def test_slot_width_holds_its_boundary_and_widens_past_it(width, wider):
    one = LaurentPolynomial.one(("Q",))
    top = 2 ** (width - 1) - 1
    for poly in boundary_polynomials(top):
        kernel, product = packed_dot(("Q",), [(poly, one)])
        assert kernel.width == width and product == poly, str(poly)
    # the first norm that no longer fits a signed slot of this width
    for poly in boundary_polynomials(top + 1):
        kernel, product = packed_dot(("Q",), [(poly, one)])
        assert kernel.width == wider and product == poly, str(poly)


@pytest.mark.parametrize("ring", [(), ("Q",), ("Q", "R"), ("a", "b", "c")])
def test_packed_kernel_equals_dot_on_random_rings(ring):
    """Random Laurent polynomials with rational and imaginary coefficients:
    a packed sum of f * a * b equals the term-dict kernel, and so does each
    coefficient of a series product."""
    rng = random.Random(46)
    for _ in range(30):
        pairs = [
            (random_polynomial(rng, ring), random_polynomial(rng, ring))
            for _ in range(rng.randint(1, 4))
        ]
        factors = [rng.choice([1, -1, 3, -720]) for _ in pairs]
        d = 1
        for a, b in pairs:
            for _, c in a.terms():
                d = d * c.re.denominator * c.im.denominator
            for _, c in b.terms():
                d = d * c.re.denominator * c.im.denominator
        integral = [(a.scale(d), b.scale(d)) for a, b in pairs]
        expected = _dot(ring, [(a.scale(f), b) for f, (a, b) in zip(factors, integral)])
        assert packed_dot(ring, integral, factors)[1] == expected
        a = random_series(rng, ring, random_polynomial(rng, ring))
        b = random_series(rng, ring, random_polynomial(rng, ring))
        order = min(a.order, b.order)
        assert list((a * b).coefficients) == [
            _dot(ring, [(a.coefficient(j), b.coefficient(k - j)) for j in range(k + 1)])
            for k in range(order + 1)
        ]


def test_wide_sparse_span_runs_on_term_dicts_before_packing(monkeypatch):
    # 1 + Q^1000000 would pack a million slots, past the cap: the product
    # and the log run on term dicts without building a packed value
    built = []
    pack = _Kernel._pack
    monkeypatch.setattr(_Kernel, "_pack", lambda self, *args: built.append(args) or pack(self, *args))
    ring = ("Q",)
    c = parse_polynomial("1 + Q^1000000", ring)
    wide = FormalSeries("t", 2, [c] * 3)
    start = time.perf_counter()
    product = wide * wide
    unit = FormalSeries("t", 1, [LaurentPolynomial.one(ring), c])
    log = unit.log()
    assert time.perf_counter() - start < 1.0
    assert built == []
    assert list(product.coefficients) == [c * c, (c * c).scale(2), (c * c).scale(3)]
    assert log.coefficient(1) == c


def test_layout_past_the_packed_cap_runs_on_term_dicts(monkeypatch):
    # a dense product that packing would win, with the cap lowered under it
    ring = ("Q",)
    dense = parse_polynomial(" + ".join(f"{k + 1}*Q^{k}" for k in range(40)), ring)
    s = FormalSeries("t", 3, [LaurentPolynomial.one(ring)] + [dense] * 3)
    packed = (s * s, s.inverse())
    built = []
    pack = _Kernel._pack
    monkeypatch.setattr(_Kernel, "_pack", lambda self, *args: built.append(args) or pack(self, *args))
    monkeypatch.setattr(kch._packed, "MAX_PACKED_BITS", 1 << 9)
    assert (s * s, s.inverse()) == packed
    assert built == []


def test_monomial_aligned_series_stay_under_the_span_cap():
    # each coefficient of 1/(1 - Q^5000 t) is one monomial Q^(5000 k): its own
    # offset keeps one slot per value, where one offset for all of them would
    # span 150001 exponents, past the cap
    ring = ("Q",)
    zero = LaurentPolynomial.zero(ring)
    s = FormalSeries("t", 30, [LaurentPolynomial.one(ring), parse_polynomial("-Q^5000", ring)] + [zero] * 29)
    inverse = s.inverse()
    assert all(c == parse_polynomial(f"Q^{5000 * k}", ring) for k, c in enumerate(inverse.coefficients))
    assert inverse.log().exp() == inverse


def test_integral_parts_refuse_a_scale_that_leaves_a_fraction():
    assert _parts(Scalar(Fraction(1, 2), Fraction(-3, 4)), 8) == (4, -6)
    assert _parts(Fraction(5, 6), 12) == (10, 0)
    with pytest.raises(ArithmeticError, match="not an integer"):
        _parts(Fraction(1, 2))
    with pytest.raises(ArithmeticError, match="not an integer"):
        _parts(Scalar(1, Fraction(1, 3)), 2)


@pytest.mark.parametrize("ring", [(), ("Q",), ("Q", "R"), ("a", "b", "c")])
def test_term_dict_evaluation_equals_packed(ring, monkeypatch, packed_counters):
    """The same series operations evaluated packed (forced through the cost
    of a term pair) and as term dicts (forced through the bits cap, since a
    run over no parameters always packs) give equal results."""
    rng = random.Random(49)
    cases = []
    for _ in range(12):
        a = random_series(rng, ring, LaurentPolynomial.one(ring), order=rng.randint(1, 5))
        b = random_series(rng, ring, random_polynomial(rng, ring), order=a.order)
        zero = FormalSeries("t", a.order, [LaurentPolynomial.zero(ring)] + list(b.coefficients[1:]))
        cases.append((a, b, zero))

    def evaluate():
        return [(a * b, a.inverse(), a.log(), zero.exp()) for a, b, zero in cases]

    monkeypatch.setattr(kch._packed, "PAIR_MICROS", 10**9)
    packed = evaluate()
    assert packed_counters["term_dict_runs"] == 0
    monkeypatch.setattr(kch._packed, "MAX_PACKED_BITS", 0)
    assert evaluate() == packed
    assert 2 * packed_counters["term_dict_runs"] == packed_counters["runs"]


def test_sparse_high_order_log_and_exp_stay_cheap():
    # the branch of 1 - X - P + Q*X*P has two terms per coefficient; its log
    # (Q^k - 1)/k would pack 201 slots of k!-sized values at order 200
    from kch.mirror import branch_series, p_series

    curve = parse_polynomial("1 - X - P + Q*X*P", ("Q", "X", "P"))
    start = time.perf_counter()
    branch = branch_series(curve, 1, 200)
    p = p_series(branch)
    assert p.exp() == branch.series
    assert time.perf_counter() - start < 5.0
    ring = ("Q",)
    assert all(
        p.coefficient(k) == parse_polynomial(f"1/{k}*Q^{k} - 1/{k}", ring) for k in range(1, 201)
    )
