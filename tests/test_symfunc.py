import importlib
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from kch.errors import DomainError, ResourceLimitError, VerificationError
from kch.scalars import Scalar
from kch.series import FormalSeries
from kch.symfunc import (
    MAX_TRACE_ORDER,
    SERIES_VARIABLE,
    HolonomySpectrum,
    complete_homogeneous,
    complete_homogeneous_direct,
    determinant_product_series,
    power_sums,
    symmetric_trace_series,
)


def spectrum(*values):
    return HolonomySpectrum([Scalar.of(v) for v in values])


def random_spectrum(rng, allow_complex=True):
    size = rng.randint(1, 4)
    eigs = []
    for _ in range(size):
        re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        im = Fraction(rng.randint(-3, 3)) if allow_complex and rng.random() < 0.4 else Fraction(0)
        if re == 0 and im == 0:
            re = Fraction(1)
        eigs.append(Scalar(re, im))
    return HolonomySpectrum(eigs)


def test_spectrum_validation():
    with pytest.raises(DomainError):
        HolonomySpectrum([])
    with pytest.raises(DomainError) as err:
        HolonomySpectrum([Scalar.of(1), Scalar.of(0)])
    assert "1" in str(err.value)  # names the offending index


def test_power_sums_known():
    # p_1 through p_order, no p_0 entry
    s = spectrum(1, Fraction(1, 2))
    sums = power_sums(s, 3)
    assert [str(v) for v in sums] == ["3/2", "5/4", "9/8"]


def test_complete_homogeneous_geometric():
    # single eigenvalue x: h_k = x^k
    s = spectrum(Fraction(2, 3))
    hs = complete_homogeneous(s, 4)
    assert [str(v) for v in hs] == ["1", "2/3", "4/9", "8/27", "16/81"]


def test_newton_identity_matches_direct_expansion():
    rng = random.Random(404)
    for _ in range(20):
        s = random_spectrum(rng)
        hs = complete_homogeneous(s, 5)
        for k in range(6):
            assert hs[k] == complete_homogeneous_direct(s, k), k


# denominators 1, 2, 3 and 6, the pair i/-i, a repeated eigenvalue and
# negative reals, alone and mixed
GAUSSIAN_RATIONAL_SPECTRA = [
    (3, -2),
    (Fraction(1, 2), Fraction(-3, 2)),
    (Fraction(2, 3), Fraction(-1, 3), 1),
    (Fraction(1, 6), Fraction(-5, 6)),
    (Fraction(1, 2), Fraction(1, 3)),
    (Scalar(0, 1), Scalar(0, -1)),
    (Fraction(2, 3), Fraction(2, 3), -1),
    (-1, -2, Fraction(-1, 6)),
    (Scalar(Fraction(1, 2), Fraction(-1, 3)), Scalar(0, Fraction(5, 6)), -3),
    (Scalar(1, 1), Scalar(1, 1), Scalar(0, -1), Fraction(-1, 2)),
]


@pytest.mark.parametrize("values", GAUSSIAN_RATIONAL_SPECTRA)
def test_integer_newton_route_equals_direct_expansion(values):
    s = spectrum(*values)
    hs = complete_homogeneous(s, 8)
    assert len(hs) == 9
    for k in range(9):
        assert hs[k] == complete_homogeneous_direct(s, k), k
        assert complete_homogeneous(s, k) == hs[: k + 1]


@pytest.mark.parametrize("values", GAUSSIAN_RATIONAL_SPECTRA)
def test_power_sums_equal_the_sums_of_powers(values):
    s = spectrum(*values)
    expected = [sum((v**j for v in s.eigenvalues), Scalar()) for j in range(1, 9)]
    assert power_sums(s, 8) == expected


def test_integer_newton_route_equals_product_oracle_at_the_cap():
    s = spectrum(Fraction(2, 3), Scalar(0, Fraction(-1, 2)), -3, Fraction(5, 6))
    hs = complete_homogeneous(s, MAX_TRACE_ORDER)
    oracle = determinant_product_series(s, MAX_TRACE_ORDER)
    assert [oracle.coefficient(k).constant_term() for k in range(MAX_TRACE_ORDER + 1)] == hs


def test_direct_expansion_definition():
    # h_2(x, y) = x^2 + xy + y^2, brute force over monomials
    s = spectrum(2, 3)
    expected = Scalar.of(4 + 6 + 9)
    assert complete_homogeneous_direct(s, 2) == expected
    eigs = [Scalar.of(2), Scalar.of(3)]
    brute = sum(
        (combo[0] * combo[1] for combo in combinations_with_replacement(eigs, 2)),
        Scalar.of(0),
    )
    assert brute == expected


def test_series_equals_product_expansion_random():
    rng = random.Random(77)
    for _ in range(20):
        s = random_spectrum(rng)
        order = rng.randint(1, 10)
        series = symmetric_trace_series(s, order)
        assert series == determinant_product_series(s, order)
        assert series.variable == SERIES_VARIABLE


def test_series_coefficients_are_complete_homogeneous():
    s = spectrum(1, Fraction(1, 2), -2)
    series = symmetric_trace_series(s, 6)
    hs = complete_homogeneous(s, 6)
    for k in range(7):
        assert series.coefficient(k).constant_term() == hs[k]


def test_unknot_holonomy_doubling():
    # eigenvalues 1 and 1: h_k counts monomials, k + 1 of them
    s = spectrum(1, 1)
    series = symmetric_trace_series(s, 5)
    assert [str(series.coefficient(k).constant_term()) for k in range(6)] == [
        "1",
        "2",
        "3",
        "4",
        "5",
        "6",
    ]


def test_complex_spectrum():
    s = HolonomySpectrum([Scalar(0, 1), Scalar(0, -1)])  # i and -i
    series = symmetric_trace_series(s, 8)
    # conjugate pair: h_1 = 0, h_2 = i*(-i) + i^2 + (-i)^2 = 1 - 1 - 1 = -1
    assert series.coefficient(1).is_zero()
    assert str(series.coefficient(2).constant_term()) == "-1"


def test_trace_order_cap_raises_before_any_power_sum(monkeypatch):
    # the integer kernel is where every power sum is built
    symfunc = importlib.import_module("kch.symfunc")
    monkeypatch.setattr(
        symfunc, "_gaussian_power_sums", lambda *args: pytest.fail("power sum built")
    )
    start = time.perf_counter()
    for order in (MAX_TRACE_ORDER + 1, 5000):
        with pytest.raises(ResourceLimitError, match=f"{order}.*cap {MAX_TRACE_ORDER}"):
            symmetric_trace_series(spectrum(2, Fraction(1, 3), 5), order)
    assert time.perf_counter() - start < 1.0


def test_trace_order_cap_admits_the_cap():
    series = symmetric_trace_series(spectrum(1), MAX_TRACE_ORDER)
    assert series.order == MAX_TRACE_ORDER
    assert all(str(c) == "1" for c in series.coefficients)


def scalar_product_expansion(values, order):
    """prod_i (1 - lambda_i t)^{-1} by the running recurrence
    c_k += lambda c_(k-1) in ``Scalar`` arithmetic."""
    coefficients = [Scalar.of(1)] + [Scalar()] * order
    for value in values:
        for k in range(1, order + 1):
            coefficients[k] = coefficients[k] + Scalar.of(value) * coefficients[k - 1]
    return coefficients


@pytest.mark.parametrize("values", GAUSSIAN_RATIONAL_SPECTRA)
def test_integer_product_equals_the_scalar_recurrence(values):
    s = spectrum(*values)
    expected = scalar_product_expansion(values, 12)
    oracle = determinant_product_series(s, 12)
    assert [c.constant_term() for c in oracle.coefficients] == expected
    assert symmetric_trace_series(s, 12) == oracle
    assert oracle == FormalSeries.from_scalars(SERIES_VARIABLE, expected)


@pytest.mark.parametrize("values", [(1, Fraction(1, 2)), (Scalar(0, 1), Scalar(0, -1), 3)])
def test_trace_series_rejects_corrupted_power_sums(values, monkeypatch):
    symfunc = importlib.import_module("kch.symfunc")
    power_sums_of = symfunc._gaussian_power_sums

    def corrupted(spectrum, order):
        d, sums = power_sums_of(spectrum, order)
        (re, im), *rest = sums
        return d, [(re, im + d)] + rest

    monkeypatch.setattr(symfunc, "_gaussian_power_sums", corrupted)
    with pytest.raises(VerificationError, match="disagree"):
        symmetric_trace_series(spectrum(*values), 6)
