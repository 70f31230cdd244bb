import dataclasses
import importlib
import random
import time
from fractions import Fraction

import pytest

import kch._packed
from kch.errors import DomainError, ResourceLimitError
from kch.laurent import LaurentPolynomial, parse_polynomial
from kch.mirror import (
    MAX_BRANCH_ORDER,
    MAX_BRANCH_P_DEGREE,
    MAX_BRANCH_WORK,
    _split_curve,
    branch_series,
    p_series,
    potential_series,
    potential_x_derivative,
    verify_on_curve,
)
from kch.scalars import Scalar
from kch.series import FormalSeries

RING = ("Q", "X", "P")
UNKNOT_CURVE = parse_polynomial("1 - X - P + Q*X*P", RING)


def qp(text):
    return parse_polynomial(text, ("Q",))


def test_unknot_branch_is_geometric():
    branch = branch_series(UNKNOT_CURVE, 1, 10)
    assert branch.base == Scalar.of(1)
    assert branch.parameters == ("Q",)
    assert branch.series.coefficient(0) == qp("1")
    assert branch.series.coefficient(1) == qp("Q - 1")
    for k in range(2, 11):
        assert branch.series.coefficient(k) == qp(f"Q^{k} - Q^{k - 1}"), k


def test_branch_solves_curve_exactly():
    branch = branch_series(UNKNOT_CURVE, 1, 10)
    report = verify_on_curve(UNKNOT_CURVE, branch)
    assert report.ok
    assert report.first_failure is None
    for k in range(11):
        assert report.residual.coefficient(k).is_zero()


def test_p_series_log_coefficients():
    branch = branch_series(UNKNOT_CURVE, 1, 8)
    p = p_series(branch)
    assert p.coefficient(0).is_zero()
    for k in range(1, 9):
        assert p.coefficient(k) == qp(f"1/{k}*Q^{k} - 1/{k}"), k


def test_potential_integrates_p():
    branch = branch_series(UNKNOT_CURVE, 1, 8)
    p = p_series(branch)
    w = potential_series(p)
    assert w.linear_coefficient.is_zero()
    for k in range(1, 9):
        assert w.series.coefficient(k).scale(Scalar.of(k)) == p.coefficient(k)
    assert potential_x_derivative(w) == p


def test_numeric_q_branch():
    curve = UNKNOT_CURVE.substitute("Q", Scalar.of(2))
    branch = branch_series(curve, 1, 6)
    values = [branch.series.coefficient(k).constant_term() for k in range(7)]
    # (1 - X)/(1 -2X) = 1 + X + 2X^2 + 4X^3 + ...
    assert [str(v) for v in values] == ["1", "1", "2", "4", "8", "16", "32"]


def test_base_two_branch():
    # P - 2 - X*P = 0 has the branch P = 2/(1 - X)
    curve = parse_polynomial("P - 2 - X*P", ("X", "P"))
    branch = branch_series(curve, 2, 6)
    for k in range(7):
        assert branch.series.coefficient(k).constant_term() == Scalar.of(2)
    p = p_series(branch)
    # log(P/2) = log(1/(1-X)) = sum X^k / k
    for k in range(1, 7):
        assert p.coefficient(k).constant_term() == Scalar.of(Fraction(1, k))
    assert verify_on_curve(curve, branch).ok


def test_base_must_be_a_root():
    with pytest.raises(DomainError):
        branch_series(UNKNOT_CURVE, 3, 4)
    with pytest.raises(DomainError):
        branch_series(UNKNOT_CURVE, 0, 4)


def test_branch_point_rejected():
    # (1 - P)^2 - X: double root at P = 1, derivative vanishes
    curve = parse_polynomial("1 - 2*P + P^2 - X", ("X", "P"))
    with pytest.raises(DomainError) as err:
        branch_series(curve, 1, 4)
    assert "branch point" in str(err.value)


def test_non_exact_division_is_reported():
    # derivative at the base is 1 + Q: the first correction needs 1/(1 + Q),
    # which leaves the Laurent polynomial ring entirely
    curve = parse_polynomial("P - 1 + Q*P - Q - X", RING)
    with pytest.raises(DomainError) as err:
        branch_series(curve, 1, 3)
    assert "divi" in str(err.value).lower()


def test_laurent_curve_is_stripped():
    # multiplying the curve by a unit monomial must not change the branch
    unit = parse_polynomial("Q^-2*X^-1*P^3", RING)
    scaled = UNKNOT_CURVE * unit
    a = branch_series(UNKNOT_CURVE, 1, 6)
    b = branch_series(scaled, 1, 6)
    assert a.series == b.series
    assert verify_on_curve(scaled, b).ok


def test_mismatched_verification_rejected():
    branch = branch_series(UNKNOT_CURVE, 1, 5)
    other = parse_polynomial("1 - X - P", ("R", "X", "P"))
    with pytest.raises(DomainError):
        verify_on_curve(other, branch)
    with pytest.raises(DomainError):
        verify_on_curve(UNKNOT_CURVE, branch, order=9)


def test_curve_must_contain_both_variables():
    with pytest.raises(DomainError):
        branch_series(parse_polynomial("1 - X", ("Q", "X")), 1, 3, p_variable="P")


def test_custom_variable_names():
    curve = parse_polynomial("1 - x - y + 2*x*y", ("x", "y"))
    branch = branch_series(curve, 1, 5, x_variable="x", p_variable="y")
    values = [branch.series.coefficient(k).constant_term() for k in range(6)]
    assert [str(v) for v in values] == ["1", "1", "2", "4", "8", "16"]


def test_random_polynomial_branches_verify():
    # curves P - 1 - X*f(P) always pass through P(0) = 1 with unit derivative
    rng = random.Random(2718)
    for _ in range(10):
        terms = {(0, 1): Scalar.of(1), (0, 0): Scalar.of(-1)}
        for j in range(3):
            cval = rng.randint(-3, 3)
            if cval:
                terms[(1, j)] = Scalar.of(-cval)
        curve = LaurentPolynomial(("X", "P"), terms)
        branch = branch_series(curve, 1, 7)
        assert verify_on_curve(curve, branch).ok
        p = p_series(branch)
        w = potential_series(p)
        assert potential_x_derivative(w) == p


def test_high_branch_power_builds_without_recursion():
    # one series product per power of P, built in a loop: P^1200 must not
    # exhaust the interpreter's recursion limit
    curve = parse_polynomial("1 - P + X*P^1200", ("X", "P"))
    branch = branch_series(curve, 1, 2)
    assert str(branch.series) == "1 + X + 1200*X^2 + O(X^3)"
    assert verify_on_curve(curve, branch).ok


def test_order_cap_raises_before_any_work():
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=f"{MAX_BRANCH_ORDER + 1}.*{MAX_BRANCH_ORDER}"):
        branch_series(UNKNOT_CURVE, 1, MAX_BRANCH_ORDER + 1)
    assert time.perf_counter() - start < 1.0


def test_p_degree_cap_raises_before_any_work():
    start = time.perf_counter()
    for degree in (MAX_BRANCH_P_DEGREE + 1, 100000):
        curve = parse_polynomial(f"1 - P + X*P^{degree}", ("X", "P"))
        with pytest.raises(ResourceLimitError, match=f"{degree}.*{MAX_BRANCH_P_DEGREE}"):
            branch_series(curve, 1, 2)
    assert time.perf_counter() - start < 1.0
    # the degree counts after the monomial factor P^-3 is stripped
    curve = parse_polynomial(f"P^-3 - P^-2 + X*P^{MAX_BRANCH_P_DEGREE - 3}", ("X", "P"))
    assert str(branch_series(curve, 1, 1).series) == "1 + X + O(X^2)"


def test_work_cap_raises_before_any_work():
    start = time.perf_counter()
    for order, degree in ((20, MAX_BRANCH_P_DEGREE), (20, MAX_BRANCH_WORK // 20 + 1)):
        curve = parse_polynomial(f"1 - P + X*P^{degree}", ("X", "P"))
        with pytest.raises(
            ResourceLimitError, match=f"order {order} .*{degree} .*{MAX_BRANCH_WORK}"
        ):
            branch_series(curve, 1, order)
    assert time.perf_counter() - start < 1.0
    # the product at the cap is admitted
    curve = parse_polynomial(f"1 - P + X*P^{MAX_BRANCH_WORK // 20}", ("X", "P"))
    assert branch_series(curve, 1, 20).order == 20


class NotSeparating(Exception):
    pass


def on_curve(curve, b):
    """A(X, b) for a series b: the curve's terms summed with ``FormalSeries``
    powers, shifts and products."""
    parameters, stripped = _split_curve(curve, "X", "P")
    x_index, p_index = stripped.variables.index("X"), stripped.variables.index("P")
    positions = [stripped.variables.index(v) for v in parameters]
    total = FormalSeries.zero("X", b.order, parameters)
    for exps, c in stripped._terms:
        key = tuple(exps[i] for i in positions)
        coefficient = LaurentPolynomial(parameters, {key: Scalar.of(c)})
        total = total + (b ** exps[p_index]).shifted(exps[x_index]) * coefficient
    return total


def resubstituted_branch(curve, base, order):
    """The branch by definition: at every order k, substitute the partial
    branch (with c_k = 0) into the whole curve and divide its X^k coefficient
    by dA/dP(0, P0).  Raises NotSeparating(k, derivative, r_k) where the
    division fails."""
    parameters, stripped = _split_curve(curve, "X", "P")
    base = Scalar.of(base)
    derivative = stripped.derivative("P").substitute("X", 0).substitute("P", base)
    zero = LaurentPolynomial.zero(parameters)
    coefficients = [LaurentPolynomial.constant(parameters, base)]
    for k in range(1, order + 1):
        r_k = on_curve(curve, FormalSeries("X", k, coefficients + [zero])).coefficient(k)
        if r_k.is_zero():
            coefficients.append(zero)
            continue
        try:
            coefficients.append(-r_k.exact_divide(derivative))
        except DomainError:
            raise NotSeparating(k, derivative, r_k) from None
    return FormalSeries("X", order, coefficients)


def random_curve(rng, base):
    """Q^s (P - b)(u + a(P - b)) + X*f(Q, X, P), times a unit monomial.

    P0 = b is a simple root with dA/dP = u Q^s there, a unit, so the branch
    exists to every order; f has P-degree up to 5 and Q-exponents of both
    signs.
    """
    q = rng.randint(-1, 1)
    u = rng.choice([1, -1, 2, Fraction(1, 2)])
    a = rng.randint(-2, 2)
    terms = {
        (q, 0, 0): Scalar.of(-base * (u - a * base)),
        (q, 0, 1): Scalar.of(u - 2 * a * base),
        (q, 0, 2): Scalar.of(a),
    }
    for _ in range(rng.randint(1, 5)):
        key = (rng.randint(-2, 2), rng.randint(1, 2), rng.randint(0, 5))
        value = Scalar.of(Fraction(rng.randint(-3, 3), rng.choice([1, 2])))
        terms[key] = terms.get(key, Scalar.of(0)) + value
    unit = LaurentPolynomial.monomial(
        RING, tuple(rng.randint(-2, 2) for _ in RING), rng.choice([1, -3])
    )
    return LaurentPolynomial(RING, terms) * unit


def test_online_branch_equals_resubstitution_on_random_curves():
    rng = random.Random(5151)
    for trial in range(30):
        base = (1, 2, -1)[trial % 3]
        curve = random_curve(rng, base)
        order = rng.randint(0, 6)
        expected = resubstituted_branch(curve, base, order)
        assert branch_series(curve, base, order).series == expected, (trial, str(curve))


@pytest.mark.parametrize(
    "text",
    [
        "P - 1 + Q*P - Q - X",
        "P - 1 + Q*P - Q - X^3",
        "P - 1 + Q*P - Q - X*P^2 - Q*X*P^2 - X^2",
        "Q^-1*X^-2*P - Q^-1*X^-2 + X^-2*P - X^-2 - X^-1*P^3",
    ],
)
def test_non_separating_order_and_message_match_resubstitution(text):
    curve = parse_polynomial(text, RING)
    with pytest.raises(NotSeparating) as expected:
        resubstituted_branch(curve, 1, 6)
    k, derivative, r_k = expected.value.args
    with pytest.raises(DomainError) as err:
        branch_series(curve, 1, 6)
    assert str(err.value) == (
        f"coefficient of X^{k} does not separate: dA/dP = {derivative} "
        f"does not divide {r_k} in the parameter ring"
    )


def test_branch_solving_makes_no_series_product(monkeypatch):
    mirror = importlib.import_module("kch.mirror")
    products = []
    substitutions = []
    multiply = FormalSeries.__mul__
    record = mirror._record_curve

    def counted_multiply(self, other):
        products.append(other)
        return multiply(self, other)

    def counted_record(*args):
        substitutions.append(args)
        return record(*args)

    monkeypatch.setattr(FormalSeries, "__mul__", counted_multiply)
    monkeypatch.setattr(FormalSeries, "__rmul__", counted_multiply)
    monkeypatch.setattr(mirror, "_record_curve", counted_record)
    curve = parse_polynomial("P - 1 + Q*X*P^2 - 3*X*P^2 + X^2*P^3", RING)
    branch = branch_series(curve, 1, 12)
    assert products == [] and substitutions == []
    # the on-curve check records its own substitution, in its one packed
    # run with exp, and makes no series product either
    assert verify_on_curve(curve, branch).ok
    assert products == [] and len(substitutions) == 1


def test_packed_branch_equals_resubstitution_at_rational_and_imaginary_bases():
    # the solve scales the curve, P and X to integers; bases with a
    # denominator or an imaginary part exercise every scale
    rng = random.Random(99)
    for trial in range(24):
        base = (Fraction(1, 2), Scalar(0, 1), Scalar(1, -2), Fraction(-3, 4))[trial % 4]
        curve = random_curve(rng, base)
        order = rng.randint(0, 5)
        branch = branch_series(curve, base, order)
        assert branch.series == resubstituted_branch(curve, base, order), (trial, str(curve))
        assert verify_on_curve(curve, branch).ok


@pytest.mark.parametrize(
    "text, base",
    [
        ("P^2 + 1 - X", Scalar(0, 1)),
        ("P^2 + 1 - X*P^3 + Q*X^2", Scalar(0, -1)),
        ("(1+i)*P^2 - 2*P + (1-i) + Q^-1*X*P", Scalar(1, 0)),
    ],
)
def test_branch_with_an_imaginary_derivative_equals_resubstitution(text, base):
    # dA/dP at the base is 2i, -2i and 2i: the packed solve divides by it
    # through its conjugate and its norm
    curve = parse_polynomial(text, RING)
    branch = branch_series(curve, base, 6)
    assert branch.series == resubstituted_branch(curve, base, 6)
    assert verify_on_curve(curve, branch).ok


def test_non_monomial_derivative_with_a_wider_quotient(monkeypatch):
    # dA/dP = 1 + Q divides the first residual -(1 + Q^3) into 1 - Q + Q^2,
    # whose norm 3 exceeds the residual's 2: a divisor that is not a
    # monomial runs the solve on term dicts
    runs = []
    run_sparse = kch._packed._Kernel._run_sparse
    monkeypatch.setattr(
        kch._packed._Kernel, "_run_sparse", lambda self: runs.append(self) or run_sparse(self)
    )
    curve = parse_polynomial("P - 1 + Q*P - Q - X - Q^3*X", RING)
    branch = branch_series(curve, 1, 4)
    assert str(branch.series) == "1 + (1 - Q + Q^2)*X + O(X^5)"
    assert branch.series == resubstituted_branch(curve, 1, 4)
    # (1 - Q)(P - 1) = X (1 - Q^40) P^2 has the branch sum_k Catalan(k) g^k X^k
    # with g = 1 + Q + ... + Q^39, whose norms outgrow every residual's bound
    curve = parse_polynomial("P - 1 - Q*P + Q - X*P^2 + Q^40*X*P^2", RING)
    g = qp(" + ".join(f"Q^{j}" for j in range(40)))
    catalan = [1, 1, 2, 5, 14, 42]
    branch = branch_series(curve, 1, 5)
    assert list(branch.series.coefficients) == [g**k * c for k, c in enumerate(catalan)]
    assert len(runs) == 2


def test_monomial_aligned_curve_is_solved_on_one_slot_per_value():
    curve = parse_polynomial("1 - P + Q^500*X*P", RING)
    start = time.perf_counter()
    branch = branch_series(curve, 1, 30)
    assert verify_on_curve(curve, branch).ok
    assert time.perf_counter() - start < 1.0
    assert all(c == qp(f"Q^{500 * k}") for k, c in enumerate(branch.series.coefficients))


def test_verify_checks_the_p_it_is_given():
    branch = branch_series(UNKNOT_CURVE, 1, 8)
    p = p_series(branch)
    assert verify_on_curve(UNKNOT_CURVE, branch, p=p).ok
    coefficients = list(p.coefficients)
    coefficients[3] = coefficients[3] + qp("Q")
    corrupted = FormalSeries(p.variable, p.order, coefficients)
    report = verify_on_curve(UNKNOT_CURVE, branch, p=corrupted)
    assert report.ok is False and report.first_failure == 3
    # the corrupted p is checked, not kept: the branch's own p still passes
    assert p_series(branch) is p and verify_on_curve(UNKNOT_CURVE, branch).ok
    with pytest.raises(DomainError):
        verify_on_curve(UNKNOT_CURVE, branch, p=FormalSeries.zero("X", 8, ("R",)))


def test_branch_keeps_its_p_series(monkeypatch):
    branch = branch_series(UNKNOT_CURVE, 1, 8)
    p = p_series(branch)
    assert p_series(branch) is p
    assert p == branch.series.scale(branch.base.inverse()).log()
    # the check substitutes the kept p: no log runs again
    monkeypatch.setattr(FormalSeries, "log", lambda self: pytest.fail("log ran twice"))
    assert verify_on_curve(UNKNOT_CURVE, branch).ok
    assert p_series(branch) is p


def test_kept_p_series_is_not_part_of_the_branch_value():
    kept = branch_series(UNKNOT_CURVE, 1, 8)
    fresh = branch_series(UNKNOT_CURVE, 1, 8)
    p_series(kept)
    assert kept == fresh and hash(kept) == hash(fresh)
    assert repr(kept) == repr(fresh) and "_p" not in repr(kept)
    # a replaced branch derives its own p from its own series
    shorter = dataclasses.replace(kept, series=kept.series.truncate(4))
    assert shorter == dataclasses.replace(fresh, series=fresh.series.truncate(4))
    assert p_series(shorter) == p_series(kept).truncate(4)
    with pytest.raises(ValueError):
        dataclasses.replace(kept, _p=None)


def test_mirror_request_runs_the_log_once(packed_counters):
    # a request as the CLI and the benchmark make it: the branch solve, one
    # log, then the check, whose exp and substitution are one run; checking
    # a fresh branch runs the log once more
    curve = parse_polynomial("P - 1 + Q*X*P^2 - 3*X*P^2", RING)
    branch = branch_series(curve, 1, 10)
    assert packed_counters["runs"] == 1
    solve = dict(packed_counters)
    p = p_series(branch)
    potential_x_derivative(potential_series(p))
    # the log: 11 inputs and 10 sums of products, of k pairs at order k
    assert packed_counters["runs"] == 2
    assert packed_counters["nodes"] - solve["nodes"] == 11 + 10
    assert packed_counters["products"] - solve["products"] == sum(range(1, 11))
    assert verify_on_curve(curve, branch).ok
    assert packed_counters["runs"] == 3
    assert verify_on_curve(curve, branch_series(curve, 1, 10)).ok
    assert packed_counters["runs"] == 6
    assert packed_counters["bits"] > 0 and packed_counters["term_dict_runs"] == 0


def test_runs_over_no_parameters_pack(packed_counters):
    # one slot per value: a term-dict pair is the same int product as a
    # packed one, plus dict work, however wide the values (1664 bits here)
    curve = parse_polynomial("1 - P + X*P^2", ("X", "P"))
    branch = branch_series(curve, 1, 200)
    p = p_series(branch)
    assert verify_on_curve(curve, branch, p=p).ok
    assert packed_counters["runs"] == 3
    assert packed_counters["term_dict_runs"] == 0


def test_runs_whose_parameters_never_appear_pack(packed_counters):
    # Q is in the ring but in no value: one slot per value, as over no
    # parameters
    curve = parse_polynomial("1 - P + X*P^2", RING)
    branch = branch_series(curve, 1, 200)
    assert branch.parameters == ("Q",)
    assert verify_on_curve(curve, branch).ok
    assert packed_counters["runs"] == 3
    assert packed_counters["term_dict_runs"] == 0


def test_packed_counters_count_term_dict_runs_alike(packed_counters, monkeypatch):
    curve = parse_polynomial("P - 1 + Q*X*P^2 - 3*X*P^2", RING)
    verify_on_curve(curve, branch_series(curve, 1, 10))
    packed = dict(packed_counters)
    packed_counters.clear()
    monkeypatch.setattr(kch._packed, "MAX_PACKED_BITS", 0)
    verify_on_curve(curve, branch_series(curve, 1, 10))
    assert packed_counters["term_dict_runs"] == packed_counters["runs"] == packed["runs"]
    assert packed_counters["nodes"] == packed["nodes"]
    assert packed_counters["products"] == packed["products"]
    assert packed_counters["bits"] == 0 < packed["bits"]


def test_term_dict_branch_solve_equals_resubstitution(monkeypatch):
    # the solve forced onto term dicts (as a layout past the packed cap would
    # be) divides, separates and fails exactly as the packed one
    monkeypatch.setattr(kch._packed, "MAX_PACKED_BITS", 0)
    rng = random.Random(77)
    for trial in range(12):
        base = (1, Fraction(1, 2), Scalar(0, 1), -1)[trial % 4]
        curve = random_curve(rng, base)
        branch = branch_series(curve, base, 5)
        assert branch.series == resubstituted_branch(curve, base, 5), (trial, str(curve))
        assert verify_on_curve(curve, branch).ok
    curve = parse_polynomial("P - 1 - Q*P + Q - X*P^2 + Q^40*X*P^2", RING)
    g = qp(" + ".join(f"Q^{j}" for j in range(40)))
    assert list(branch_series(curve, 1, 3).series.coefficients) == [g**k * c for k, c in enumerate([1, 1, 2, 5])]
    with pytest.raises(DomainError, match="coefficient of X\\^2 does not separate"):
        branch_series(parse_polynomial("P - 1 + Q*P - Q - X*P^2 - Q*X*P^2 - X^2", RING), 1, 4)


@pytest.mark.parametrize(
    "text, ring, order",
    [
        ("1 - P + Q*X*P + R*X*P", ("Q", "R"), 100),
        ("1 - P + a*X*P + b*X*P + c*X*P", ("a", "b", "c"), 30),
    ],
)
def test_multi_parameter_branch_runs_on_term_dicts_past_the_packed_cap(text, ring, order):
    # the branch is sum_k s^k X^k for the sum s of the parameters: packed, its
    # values would span 101^2 slots of 128 bits or 31^3 of 64, past the cap,
    # while as term dicts each coefficient has at most 496 terms
    curve = parse_polynomial(text, ring + ("X", "P"))
    s = parse_polynomial(" + ".join(ring), ring)
    start = time.perf_counter()
    branch = branch_series(curve, 1, order)
    assert time.perf_counter() - start < 2.0
    power = LaurentPolynomial.one(ring)
    for k, coefficient in enumerate(branch.series.coefficients):
        assert coefficient == power, k
        power = power * s
    assert verify_on_curve(curve, branch_series(curve, 1, 8)).ok


def test_evaluation_is_chosen_by_estimated_cost(monkeypatch):
    # both layouts are under the packed cap: the dense-Q branch fills its
    # slots and packs; the order-200 log of the unknot branch has two terms
    # per coefficient over up to 201 slots of k!-sized values, and runs on
    # term dicts (about 0.1 s there against 0.5 s packed)
    layouts = []
    run = kch._packed._Kernel.run

    def recorded(self, outputs):
        run(self, outputs)
        layouts.append((self.sparse, self.width * self.slots))

    monkeypatch.setattr(kch._packed._Kernel, "run", recorded)
    branch_series(parse_polynomial("P - 1 + Q*X*P^2 - 3*X*P^2", RING), 1, 30)
    p_series(branch_series(UNKNOT_CURVE, 1, 200))
    (dense_sparse, dense_bits), _, (log_sparse, log_bits) = layouts
    assert not dense_sparse and log_sparse
    assert max(dense_bits, log_bits) <= kch._packed.MAX_PACKED_BITS


def reference_report(curve, branch, p):
    """(ok, first_failure, repr(residual)) of the on-curve check by
    definition: B = base * exp(p), and A(X, B) by ``on_curve``."""
    total = on_curve(curve, p.exp() * LaurentPolynomial.constant(p.ring, branch.base))
    failures = [k for k, c in enumerate(total.coefficients) if not c.is_zero()]
    return not failures, (failures[0] if failures else None), repr(total)


def nudged(p, rng):
    """p with one coefficient, at a seeded X^k with k >= 1, moved off by a
    seeded amount."""
    k = rng.randint(1, p.order)
    nudge = LaurentPolynomial.constant(p.ring, rng.choice([Fraction(1, 3), 1]))
    if p.ring:
        nudge = nudge * LaurentPolynomial.monomial(p.ring, (1,) * len(p.ring), rng.choice([1, -2]))
    coefficients = list(p.coefficients)
    coefficients[k] = coefficients[k] + nudge
    return FormalSeries(p.variable, p.order, coefficients)


def check_reports(curve, base, order, rng):
    branch = branch_series(curve, base, order)
    p = p_series(branch)
    for candidate in (p, nudged(p, rng)):
        report = verify_on_curve(curve, branch, p=candidate)
        got = (report.ok, report.first_failure, repr(report.residual))
        assert got == reference_report(curve, branch, candidate), (str(curve), str(candidate))
    assert verify_on_curve(curve, branch).ok
    return report


def test_fused_check_equals_the_reference_on_corrupted_p():
    # bases 1, 1/2, i and -1, as the random curves are built for them
    rng = random.Random(4242)
    failures = 0
    for trial in range(16):
        base = (1, Fraction(1, 2), Scalar(0, 1), -1)[trial % 4]
        curve = random_curve(rng, base)
        failures += not check_reports(curve, base, rng.randint(1, 6), rng).ok
    assert failures == 16


@pytest.mark.parametrize(
    "text, ring, base",
    [
        ("1 - P + Q*X*P + R*X*P^2 - 1/2*X^2*P^3", ("Q", "R"), 1),
        ("P^2 + 1 - X*P^3 + Q*X^2", ("Q",), Scalar(0, -1)),
        ("2*P - 1 - X*P^2 + Q*X*P", ("Q",), Fraction(1, 2)),
    ],
)
def test_fused_check_equals_the_reference_on_named_curves(text, ring, base):
    curve = parse_polynomial(text, ring + ("X", "P"))
    assert not check_reports(curve, base, 7, random.Random(text)).ok


def test_term_dict_fused_check_equals_the_reference(monkeypatch, packed_counters):
    monkeypatch.setattr(kch._packed, "MAX_PACKED_BITS", 0)
    rng = random.Random(31)
    for trial in range(8):
        base = (1, Fraction(1, 2), Scalar(0, 1), -1)[trial % 4]
        check_reports(random_curve(rng, base), base, 5, rng)
    check_reports(parse_polynomial("1 - P + Q*X*P + R*X*P^2", ("Q", "R", "X", "P")), 1, 6, rng)
    assert packed_counters["runs"] == packed_counters["term_dict_runs"] > 0


@pytest.mark.parametrize("packed_bits", [kch._packed.MAX_PACKED_BITS, 0])
def test_passing_check_unpacks_nothing(packed_bits, monkeypatch):
    # packed, or forced onto term dicts
    monkeypatch.setattr(kch._packed, "MAX_PACKED_BITS", packed_bits)
    unpacked = []
    unpack = kch._packed._Kernel.unpack

    def counted(self, nodes, denominators):
        unpacked.append(nodes)
        return unpack(self, nodes, denominators)

    curve = parse_polynomial("P - 1 + Q*X*P^2 - 3*X*P^2 + X^2*P^3", RING)
    branch = branch_series(curve, Fraction(1, 1), 9)
    p = p_series(branch)
    monkeypatch.setattr(kch._packed._Kernel, "unpack", counted)
    report = verify_on_curve(curve, branch)
    assert report.ok and unpacked == []
    assert report.residual == FormalSeries.zero("X", 9, ("Q",))
    # a failing check unpacks its residual once
    assert not verify_on_curve(curve, branch, p=nudged(p, random.Random(5))).ok
    assert len(unpacked) == 1


def test_series_take_the_branch_variable():
    x_curve = parse_polynomial("1 - X - P + Q*X*P^2", ("Q", "X", "P"))
    y_curve = parse_polynomial("1 - Y - P + Q*Y*P^2", ("Q", "Y", "P"))
    x_branch = branch_series(x_curve, 1, 3)
    y_branch = branch_series(y_curve, 1, 3, x_variable="Y")
    x_p, y_p = p_series(x_branch), p_series(y_branch)
    pairs = [
        (x_branch.series, y_branch.series),
        (x_p, y_p),
        (potential_series(x_p).series, potential_series(y_p).series),
        (verify_on_curve(x_curve, x_branch).residual, verify_on_curve(y_curve, y_branch).residual),
    ]
    for x_series, y_series in pairs:
        assert y_series.variable == "Y"
        assert str(y_series) == str(x_series).replace("X", "Y")
    # a p series in another variable is rejected, not checked
    t_p = FormalSeries("t", 3, y_p.coefficients)
    with pytest.raises(DomainError, match="variable 't'"):
        verify_on_curve(y_curve, y_branch, p=t_p)


def test_potential_arithmetic_stores_narrow_coefficients():
    # 1/k and k on int, Fraction and imaginary coefficients: the results
    # equal the Scalar route and store its narrow types
    ring = ("Q",)
    p = FormalSeries(
        "X",
        4,
        [
            LaurentPolynomial.zero(ring),
            qp("3 - 1/2*Q"),
            qp("5 + 1/3*Q^2") + LaurentPolynomial.monomial(ring, (1,), Scalar(2, 6)),
            qp("-6*Q + 5/6*Q^3"),
            qp("8/3 - 12*Q^-1") + LaurentPolynomial.constant(ring, Scalar(0, Fraction(1, 2))),
        ],
    )
    potential = potential_series(p)
    derivative = potential_x_derivative(potential)
    expected = [c.scale(Fraction(1, k)) for k, c in enumerate(p.coefficients) if k]
    assert list(potential.series.coefficients[1:]) == expected
    assert derivative == p

    def stored(series):
        return [[(e, type(c), c) for e, c in poly._terms] for poly in series.coefficients]

    assert stored(potential.series)[1:] == stored(FormalSeries("X", 3, expected))
    assert stored(derivative) == stored(p)
